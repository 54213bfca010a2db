//! `nondeterministic-iteration` — no `HashMap`/`HashSet` iteration or
//! order-dependent draining in the engine crates.
//!
//! The repo's central determinism claim (seeded replay: one seed, one
//! byte-identical result, on any machine and at any `--threads` count)
//! is only as strong as every iteration order in the event path. `HashMap`/`HashSet` iteration order is
//! randomized per process, so a single `.iter()` over a hash container
//! in `net`/`core`/`sim` can silently break byte-identity while every
//! dynamic pin still passes on the machine that grew it.
//!
//! What fires, inside [`Config::engine_paths`] production code:
//!
//! * an iteration/draining method (`iter`, `iter_mut`, `keys`,
//!   `values`, `values_mut`, `into_iter`, `into_keys`, `into_values`,
//!   `drain`, `retain`) whose receiver chain names a hash-typed
//!   binding or the `HashMap`/`HashSet` type itself;
//! * a `for` loop whose iterated expression mentions a hash-typed
//!   binding;
//! * `.extend(…)`/`collect::<…>(…)` *into* hash types are fine — only
//!   reads of the randomized order are flagged.
//!
//! Hash-typed bindings are collected per file from declared types the
//! parser exposes: struct fields, `let` annotations, fn parameters, and
//! `let` initializers rooted at `HashMap::`/`HashSet::`. This is a
//! per-file approximation (a map escaping through an untyped getter is
//! missed), but engine crates are expected to carry **zero** hash
//! containers at all — the satellite swap of `admission.rs` to
//! `BTreeMap` makes the workspace pass with no allows.

use crate::ast::{self, Span};
use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::Config;
use std::collections::BTreeSet;

/// Rule name.
pub const NONDETERMINISTIC_ITERATION: &str = "nondeterministic-iteration";

const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Does the token span mention a hash container type?
fn span_mentions_hash(file: &SourceFile, sp: Span) -> bool {
    file.toks[sp.lo..sp.hi.min(file.toks.len())]
        .iter()
        .any(|t| HASH_TYPES.iter().any(|h| t.is_ident(h)))
}

/// Collect the names of hash-typed bindings in this file: struct
/// fields, fn params, and `let`s (by annotation or `HashMap::…` init).
fn hash_names(file: &SourceFile) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for it in &file.tree.items {
        collect_item(file, it, &mut names);
    }
    names
}

fn collect_item(file: &SourceFile, it: &ast::Item, names: &mut BTreeSet<String>) {
    match &it.kind {
        ast::ItemKind::Struct(fields) => {
            for f in fields {
                if span_mentions_hash(file, f.ty) {
                    names.insert(f.name.clone());
                }
            }
        }
        ast::ItemKind::Fn(f) => {
            for p in &f.params {
                if span_mentions_hash(file, p.ty) {
                    if let Some(n) = &p.name {
                        names.insert(n.clone());
                    }
                }
            }
            if let Some(b) = &f.body {
                collect_block(file, b, names);
            }
        }
        ast::ItemKind::Items(items) => {
            for sub in items {
                collect_item(file, sub, names);
            }
        }
        _ => {}
    }
}

fn collect_block(file: &SourceFile, b: &ast::Block, names: &mut BTreeSet<String>) {
    for s in &b.stmts {
        if let ast::StmtKind::Let { pat, ty, init, .. } = &s.kind {
            let hashy = ty.is_some_and(|t| span_mentions_hash(file, t))
                || init
                    .as_ref()
                    .is_some_and(|e| init_rooted_at_hash(file, e.span));
            if hashy {
                // Bind every plain ident in the pattern (covers `let m`,
                // `let mut m`, and conservatively tuple patterns).
                for t in &file.toks[pat.lo..pat.hi.min(file.toks.len())] {
                    if t.kind == TokKind::Ident && !matches!(t.text.as_str(), "mut" | "ref") {
                        names.insert(t.text.clone());
                    }
                }
            }
        }
        match &s.kind {
            ast::StmtKind::Item(it) => collect_item(file, it, names),
            ast::StmtKind::Expr(e) => walk_blocks(file, e, names),
            ast::StmtKind::Let { init, els, .. } => {
                if let Some(e) = init {
                    walk_blocks(file, e, names);
                }
                if let Some(b) = els {
                    collect_block(file, b, names);
                }
            }
        }
    }
}

/// Recurse into every nested block of `e` so `let`s inside control flow
/// are collected too.
fn walk_blocks(file: &SourceFile, e: &ast::Expr, names: &mut BTreeSet<String>) {
    match &e.kind {
        ast::ExprKind::If { cond, then, els } => {
            walk_blocks(file, cond, names);
            collect_block(file, then, names);
            if let Some(x) = els {
                walk_blocks(file, x, names);
            }
        }
        ast::ExprKind::Match { scrutinee, arms } => {
            walk_blocks(file, scrutinee, names);
            for a in arms {
                if let Some(g) = &a.guard {
                    walk_blocks(file, g, names);
                }
                walk_blocks(file, &a.body, names);
            }
        }
        ast::ExprKind::Loop { body, .. } | ast::ExprKind::Block(body) => {
            collect_block(file, body, names)
        }
        ast::ExprKind::While { cond, body, .. } => {
            walk_blocks(file, cond, names);
            collect_block(file, body, names);
        }
        ast::ExprKind::For { iter, body, .. } => {
            walk_blocks(file, iter, names);
            collect_block(file, body, names);
        }
        ast::ExprKind::Closure { body, .. } => walk_blocks(file, body, names),
        ast::ExprKind::Macro { subs, .. } | ast::ExprKind::Leaf { subs } => {
            for s in subs {
                walk_blocks(file, s, names);
            }
        }
        ast::ExprKind::Return(x) | ast::ExprKind::Break(x) => {
            if let Some(x) = x {
                walk_blocks(file, x, names);
            }
        }
        ast::ExprKind::Continue => {}
    }
}

/// Is a `let` initializer rooted at `HashMap::…` / `HashSet::…`
/// (`HashMap::new()`, `HashSet::with_capacity(n)`, …)?
fn init_rooted_at_hash(file: &SourceFile, sp: Span) -> bool {
    // Look for `HashMap` / `HashSet` followed by `::` within the init.
    let hi = sp.hi.min(file.toks.len());
    for i in sp.lo..hi {
        let t = &file.toks[i];
        if HASH_TYPES.iter().any(|h| t.is_ident(h)) {
            return true;
        }
    }
    false
}

/// The token index just past the start of the receiver chain ending at
/// the `.` at `dot` (walks back over idents, `.`/`::`, closed groups).
fn receiver_start(file: &SourceFile, dot: usize) -> usize {
    match crate::rules::before_receiver(file, dot) {
        Some(before) => before + 1,
        None => 0,
    }
}

/// The pass.
pub fn check(file: &SourceFile, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    if !cfg.is_engine_path(&file.rel) {
        return out;
    }
    let names = hash_names(file);
    let toks = &file.toks;
    let skip = |i: usize| file.test_mask[i] || file.attr_mask[i] || file.type_mask[i];

    let chain_is_hashy = |lo: usize, hi: usize| {
        toks[lo..hi.min(toks.len())].iter().any(|t| {
            t.kind == TokKind::Ident
                && (HASH_TYPES.contains(&t.text.as_str()) || names.contains(&t.text))
        })
    };

    // Iteration/draining methods on hash receivers.
    for i in 0..toks.len() {
        if skip(i) {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident || !ITER_METHODS.contains(&t.text.as_str()) {
            continue;
        }
        // Must be a method call: `.name(`.
        if !(i >= 1
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('(')))
        {
            continue;
        }
        let start = receiver_start(file, i - 1);
        if chain_is_hashy(start, i - 1) {
            out.push(file.finding(
                NONDETERMINISTIC_ITERATION,
                i,
                format!(
                    ".{}() iterates a HashMap/HashSet — order is randomized per process, \
                     which breaks byte-identical seeded replay; use BTreeMap/\
                     BTreeSet or sort before iterating",
                    t.text
                ),
            ));
        }
    }

    // `for … in <expr mentioning a hash binding>`.
    let mut for_findings: Vec<(usize, String)> = Vec::new();
    ast::walk_tree(&file.tree, &mut |e| {
        if let ast::ExprKind::For { iter, .. } = &e.kind {
            let sp = iter.span;
            if sp.lo < toks.len() && !skip(sp.lo) {
                let hashy = toks[sp.lo..sp.hi.min(toks.len())].iter().any(|t| {
                    t.kind == TokKind::Ident
                        && (HASH_TYPES.contains(&t.text.as_str()) || names.contains(&t.text))
                });
                if hashy {
                    for_findings.push((
                        sp.lo,
                        "for-loop over a HashMap/HashSet — order is randomized per process, \
                         which breaks byte-identical seeded replay; use BTreeMap/\
                         BTreeSet or sort before iterating"
                            .to_string(),
                    ));
                }
            }
        }
    });
    for (i, msg) in for_findings {
        // Avoid double-reporting a `for x in m.iter()` already caught above.
        let line = toks[i].line;
        if !out
            .iter()
            .any(|f| f.rule == NONDETERMINISTIC_ITERATION && f.line == line)
        {
            out.push(file.finding(NONDETERMINISTIC_ITERATION, i, msg));
        }
    }
    out
}
