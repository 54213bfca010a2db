//! `no-panic-hot-path`: the scheduler's per-event code paths must not
//! contain `unwrap`/`expect`, panicking macros, or panicking indexing.
//!
//! The hot paths (configured in [`Config::hot_paths`], by default the
//! executor, the eligible queues, the event set, the LiT discipline, the
//! reference server, the probe hooks, and the statistics histograms)
//! run once or more per simulated packet per hop. A panic there aborts a
//! multi-minute run — or, in the production-scheduler future the ROADMAP
//! names, drops live traffic.
//! Every surviving call must either become a typed error or carry an
//! allow annotation whose justification states the invariant that makes
//! it unreachable.
//!
//! Flagged: `.unwrap()`, `.expect(`, `panic!`, `unreachable!`, `todo!`,
//! `unimplemented!`, and index expressions `recv[...]` (use `.get()` /
//! `.get_mut()` or justify). `assert!`/`debug_assert!` are deliberate
//! precondition checks and stay legal — including panic sources inside
//! their argument lists. Test code is exempt.
//!
//! Syntax-aware precision (the v2 engine):
//!
//! * tokens inside attributes, declared types, and binding patterns are
//!   never code (`let [a, b] = xs;` is a slice pattern, not an index);
//! * an index the tree can *prove in bounds* is not a panic source and
//!   is not flagged, removing the allow it used to need:
//!   - `arr[K]` where `K` is an integer literal or a file-local `const`
//!     and `arr` is declared `[T; N]` with `N` resolvable, `K < N`;
//!   - `arr[i]` where `i` is the loop variable of an enclosing
//!     `for i in 0..M` (or `0..arr.len()`) and `M ≤ N`.
//!
//! The proofs are deliberately closed-world (single file, literal or
//! const lengths): anything the tree cannot resolve stays flagged.

use crate::ast::{self, Span};
use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::source::{matching_close, SourceFile};
use crate::Config;
use std::collections::BTreeMap;

/// Stable rule name.
pub const NO_PANIC_HOT_PATH: &str = "no-panic-hot-path";

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
const ASSERT_MACROS: [&str; 6] = [
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// Parse an integer literal token (`11`, `0x10`, `4usize`, `1_000`).
fn int_value(text: &str) -> Option<u64> {
    let t = text.replace('_', "");
    let t = t
        .trim_end_matches("usize")
        .trim_end_matches("u64")
        .trim_end_matches("u32")
        .trim_end_matches("u16")
        .trim_end_matches("u8");
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        return u64::from_str_radix(hex, 16).ok();
    }
    if let Some(oct) = t.strip_prefix("0o") {
        return u64::from_str_radix(oct, 8).ok();
    }
    if let Some(bin) = t.strip_prefix("0b") {
        return u64::from_str_radix(bin, 2).ok();
    }
    t.parse().ok()
}

/// File-local `const NAME: … = <int literal>;` table, plus one level of
/// `const A: … = B;` aliasing and `1 << K` shifts of resolved values.
fn const_table(file: &SourceFile) -> BTreeMap<String, u64> {
    let mut direct: Vec<(String, Span)> = Vec::new();
    collect_consts(&file.tree.items, &mut direct);
    let mut table = BTreeMap::new();
    // Two passes so aliases of later consts resolve too.
    for _ in 0..2 {
        for (name, value) in &direct {
            if table.contains_key(name) {
                continue;
            }
            if let Some(v) = eval_const_expr(file, *value, &table) {
                table.insert(name.clone(), v);
            }
        }
    }
    table
}

fn collect_consts(items: &[ast::Item], out: &mut Vec<(String, Span)>) {
    for it in items {
        match &it.kind {
            ast::ItemKind::Const { value } => {
                if let Some(n) = &it.name {
                    out.push((n.clone(), *value));
                }
            }
            ast::ItemKind::Items(sub) => collect_consts(sub, out),
            _ => {}
        }
    }
}

/// Evaluate a tiny const-expression grammar: `<int>`, `<const>`, or
/// `<a> << <b>` over those. Anything else is unknown.
fn eval_const_expr(file: &SourceFile, sp: Span, known: &BTreeMap<String, u64>) -> Option<u64> {
    let toks = &file.toks[sp.lo..sp.hi.min(file.toks.len())];
    let atom = |t: &crate::lexer::Tok| -> Option<u64> {
        match t.kind {
            TokKind::Int => int_value(&t.text),
            TokKind::Ident => known.get(&t.text).copied(),
            _ => None,
        }
    };
    match toks {
        [a] => atom(a),
        [a, s1, s2, b] if s1.is_punct('<') && s2.is_punct('<') => {
            let base = atom(a)?;
            let sh = atom(b)?;
            base.checked_shl(u32::try_from(sh).ok()?)
        }
        _ => None,
    }
}

/// A fixed-length array binding: name → length, valid over `scope`
/// (a function body for params and lets, the whole file for struct
/// fields). Scoping matters: a parameter `occ: &[u64; 4]` in one
/// function must not claim a length for a field `occ: [u64; LEVELS]`
/// used in another.
struct ArrayLen {
    name: String,
    len: u64,
    scope: Option<Span>,
}

/// Fixed-length array bindings in this file. Sources: struct fields
/// (file-wide), fn parameters and `let` annotations (scoped to the
/// function body) whose declared type is `[T; LEN]` with `LEN` an int
/// literal or known const.
fn array_lens(file: &SourceFile, consts: &BTreeMap<String, u64>) -> Vec<ArrayLen> {
    let mut tys: Vec<(String, Span, Option<Span>)> = Vec::new();
    collect_typed_bindings(&file.tree.items, file, &mut tys);
    tys.into_iter()
        .filter_map(|(name, ty, scope)| {
            array_len_of_type(file, ty, consts).map(|len| ArrayLen { name, len, scope })
        })
        .collect()
}

fn collect_typed_bindings(
    items: &[ast::Item],
    file: &SourceFile,
    out: &mut Vec<(String, Span, Option<Span>)>,
) {
    for it in items {
        match &it.kind {
            ast::ItemKind::Struct(fields) => {
                for f in fields {
                    out.push((f.name.clone(), f.ty, None));
                }
            }
            ast::ItemKind::Fn(f) => {
                let Some(body) = &f.body else { continue };
                for p in &f.params {
                    if let Some(n) = &p.name {
                        out.push((n.clone(), p.ty, Some(body.span)));
                    }
                }
                // `let name: [T; N] = …;` anywhere in the body.
                ast::stmts_in_block(body, &mut |s| {
                    if let ast::StmtKind::Let {
                        pat, ty: Some(ty), ..
                    } = &s.kind
                    {
                        let pat_toks = &file.toks[pat.lo..pat.hi.min(file.toks.len())];
                        let name = match pat_toks {
                            [t] if t.kind == TokKind::Ident => Some(t.text.clone()),
                            [m, t] if m.is_ident("mut") && t.kind == TokKind::Ident => {
                                Some(t.text.clone())
                            }
                            _ => None,
                        };
                        if let Some(n) = name {
                            out.push((n, *ty, Some(body.span)));
                        }
                    }
                });
            }
            ast::ItemKind::Items(sub) => collect_typed_bindings(sub, file, out),
            _ => {}
        }
    }
}

/// The length in force for `name` at token `i`: the innermost in-scope
/// binding wins; a file-wide struct field is the fallback.
fn len_at(lens: &[ArrayLen], name: &str, i: usize) -> Option<u64> {
    lens.iter()
        .filter(|l| l.name == name && l.scope.is_none_or(|s| s.contains(i)))
        .min_by_key(|l| l.scope.map_or(u64::MAX, |s| (s.hi - s.lo) as u64))
        .map(|l| l.len)
}

/// `[T; LEN]` (with optional leading `&`/`&mut`) → LEN.
fn array_len_of_type(file: &SourceFile, ty: Span, consts: &BTreeMap<String, u64>) -> Option<u64> {
    let hi = ty.hi.min(file.toks.len());
    let mut lo = ty.lo;
    while lo < hi && (file.toks[lo].is_punct('&') || file.toks[lo].is_ident("mut")) {
        lo += 1;
    }
    if lo >= hi || !file.toks[lo].is_punct('[') || !file.toks[hi - 1].is_punct(']') {
        return None;
    }
    // Find the `;` at depth 1.
    let mut depth = 0isize;
    let mut semi = None;
    for i in lo..hi {
        let t = &file.toks[i];
        if t.is_punct('[') || t.is_punct('(') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(']') || t.is_punct(')') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(';') && depth == 1 {
            semi = Some(i);
        }
    }
    let semi = semi?;
    eval_const_expr(
        file,
        Span {
            lo: semi + 1,
            hi: hi - 1,
        },
        consts,
    )
}

/// Enclosing `for <ident> in 0..<bound>` contexts: (loop variable,
/// exclusive upper bound, body span). `0..name.len()` records the bound
/// as the iterated binding's own length when known.
struct ForRange {
    var: String,
    bound: u64,
    body: Span,
}

fn for_ranges(
    file: &SourceFile,
    consts: &BTreeMap<String, u64>,
    lens: &[ArrayLen],
) -> Vec<ForRange> {
    let mut out = Vec::new();
    ast::walk_tree(&file.tree, &mut |e| {
        if let ast::ExprKind::For {
            pat, iter, body, ..
        } = &e.kind
        {
            let pat_toks = &file.toks[pat.lo..pat.hi.min(file.toks.len())];
            let var = match pat_toks {
                [t] if t.kind == TokKind::Ident => t.text.clone(),
                _ => return,
            };
            let it = &file.toks[iter.span.lo..iter.span.hi.min(file.toks.len())];
            // Strip `0 . .` (the lexer splits `..`), then an optional
            // `self .` on the bound.
            let bound = match it {
                [z, d1, d2, rest @ ..] if z.text == "0" && d1.is_punct('.') && d2.is_punct('.') => {
                    let rest = match rest {
                        [s, dot, tail @ ..] if s.is_ident("self") && dot.is_punct('.') => tail,
                        _ => rest,
                    };
                    match rest {
                        // `0..BOUND` with a literal or known-const bound.
                        [b] => match b.kind {
                            TokKind::Int => int_value(&b.text),
                            TokKind::Ident => consts.get(&b.text).copied(),
                            _ => None,
                        },
                        // `0..name.len()` where `name` has a known length.
                        [n, dot, l, po, pc]
                            if n.kind == TokKind::Ident
                                && dot.is_punct('.')
                                && l.is_ident("len")
                                && po.is_punct('(')
                                && pc.is_punct(')') =>
                        {
                            len_at(lens, &n.text, iter.span.lo)
                        }
                        _ => None,
                    }
                }
                _ => None,
            };
            if let Some(bound) = bound {
                out.push(ForRange {
                    var,
                    bound,
                    body: body.span,
                });
            }
        }
    });
    out
}

/// Token spans of assert-macro argument lists (deliberate precondition
/// checks; panic sources inside them are by design).
fn assert_arg_spans(file: &SourceFile) -> Vec<Span> {
    let mut out = Vec::new();
    ast::walk_tree(&file.tree, &mut |e| {
        if let ast::ExprKind::Macro { name, args, .. } = &e.kind {
            if ASSERT_MACROS.contains(&name.as_str()) {
                out.push(*args);
            }
        }
    });
    out
}

/// Is the index at `open`..`close` (exclusive of brackets) provably in
/// bounds for receiver `recv`?
fn index_proven(
    file: &SourceFile,
    recv: &str,
    open: usize,
    close: usize,
    consts: &BTreeMap<String, u64>,
    lens: &[ArrayLen],
    fors: &[ForRange],
) -> bool {
    let Some(len) = len_at(lens, recv, open) else {
        return false;
    };
    let idx = &file.toks[open + 1..close.min(file.toks.len())];
    let [ix] = idx else { return false };
    match ix.kind {
        TokKind::Int => int_value(&ix.text).is_some_and(|v| v < len),
        TokKind::Ident => {
            if let Some(&v) = consts.get(&ix.text) {
                return v < len;
            }
            // Loop-variable proof: innermost enclosing for-range binding
            // this ident (later `for` shadows earlier).
            fors.iter()
                .filter(|f| f.var == ix.text && f.body.contains(open))
                .min_by_key(|f| f.body.hi - f.body.lo)
                .is_some_and(|f| f.bound <= len)
        }
        _ => false,
    }
}

pub(super) fn check(file: &SourceFile, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    if !cfg.is_hot_path(&file.rel) {
        return out;
    }
    let consts = const_table(file);
    let lens = array_lens(file, &consts);
    let fors = for_ranges(file, &consts, &lens);
    let asserts = assert_arg_spans(file);
    let in_assert = |i: usize| asserts.iter().any(|s| s.contains(i));

    let toks = &file.toks;
    for i in 0..toks.len() {
        if file.test_mask[i] || file.attr_mask[i] || file.type_mask[i] || file.pat_mask[i] {
            continue;
        }
        if in_assert(i) {
            continue;
        }
        let t = &toks[i];
        if t.kind == TokKind::Ident {
            let followed_by_call = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
            if (t.text == "unwrap" || t.text == "expect")
                && i >= 1
                && toks[i - 1].is_punct('.')
                && followed_by_call
            {
                out.push(file.finding(
                    NO_PANIC_HOT_PATH,
                    i,
                    format!(
                        "`.{}(…)` on a hot path: return a typed error, restructure so the \
                         value is proven present, or justify the invariant with an allow \
                         annotation",
                        t.text
                    ),
                ));
            }
            if PANIC_MACROS.contains(&t.text.as_str())
                && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            {
                out.push(file.finding(
                    NO_PANIC_HOT_PATH,
                    i,
                    format!(
                        "`{}!` on a hot path: degrade or return an error instead",
                        t.text
                    ),
                ));
            }
        }
        // Index expression: `[` directly after an identifier, `)`, or `]`
        // is indexing (types, attributes, macro brackets and slice
        // patterns are excluded by the context masks above).
        if t.is_punct('[') && i >= 1 {
            let p = &toks[i - 1];
            let indexing = p.kind == TokKind::Ident && !is_keyword_before_bracket(&p.text)
                || p.is_punct(')')
                || p.is_punct(']');
            if indexing {
                // In-bounds proof for simple `name[idx]` shapes.
                if p.kind == TokKind::Ident {
                    if let Some(close) = matching_close(toks, i) {
                        if index_proven(file, &p.text, i, close, &consts, &lens, &fors) {
                            continue;
                        }
                    }
                }
                out.push(
                    file.finding(
                        NO_PANIC_HOT_PATH,
                        i,
                        "panicking index on a hot path: use `.get()`/`.get_mut()` or justify the \
                     bound with an allow annotation"
                            .to_string(),
                    ),
                );
            }
        }
    }
    out
}

/// Keywords that can directly precede `[` without forming an index
/// expression (`return [..]`, `break [..]`, `in [..]`, …).
fn is_keyword_before_bracket(s: &str) -> bool {
    matches!(
        s,
        "return" | "break" | "in" | "mut" | "dyn" | "as" | "if" | "else" | "match" | "impl"
    )
}
