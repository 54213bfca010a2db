//! The rule set. Each rule is a pure function from a [`SourceFile`] (plus
//! the workspace [`Config`]) to findings; `lib.rs` matches findings
//! against allow annotations afterwards.

use crate::diag::Finding;
use crate::source::SourceFile;
use crate::Config;

mod checked_clock;
mod forbid_unsafe;
mod no_panic;
mod nondet_iter;
mod raw_time;

pub use checked_clock::CHECKED_CLOCK_OPS;
pub use forbid_unsafe::FORBID_UNSAFE;
pub use no_panic::NO_PANIC_HOT_PATH;
pub use nondet_iter::NONDETERMINISTIC_ITERATION;
pub use raw_time::RAW_TIME_ARITHMETIC;

/// `stale-allow` is not a pass over source tokens: it fires from the
/// allow-resolution step in `lib.rs` when an annotation suppresses
/// nothing under the precise engine. It still registers here so
/// `lit-lint rules` lists it and `--rule stale-allow` can gate on it.
pub const STALE_ALLOW: &str = "stale-allow";

fn no_pass(_f: &SourceFile, _c: &Config) -> Vec<Finding> {
    Vec::new()
}

/// A lint rule: a stable name, a one-line description, and the pass.
pub struct Rule {
    /// Stable kebab-case name used in reports and allow annotations.
    pub name: &'static str,
    /// One-line description for `lit-lint rules`.
    pub describe: &'static str,
    /// The paper invariant the rule protects (documentation only).
    pub protects: &'static str,
    /// The pass itself.
    pub check: fn(&SourceFile, &Config) -> Vec<Finding>,
}

/// Every rule, in report order.
pub fn all() -> Vec<Rule> {
    vec![
        Rule {
            name: RAW_TIME_ARITHMETIC,
            describe: "no raw u64/f64 arithmetic, narrowing casts, or float literals \
                       flowing into Time/Duration values",
            protects: "exactness of the clock recurrences behind eq. 8-11 and ineq. 12/15/16",
            check: raw_time::check,
        },
        Rule {
            name: NO_PANIC_HOT_PATH,
            describe: "unwrap/expect/panic!/indexing-without-get banned in scheduler hot paths",
            protects: "a production scheduler must degrade, not abort, mid-schedule",
            check: no_panic::check,
        },
        Rule {
            name: FORBID_UNSAFE,
            describe: "every crate root must carry #![forbid(unsafe_code)]",
            protects: "memory safety of every bound computation, statically",
            check: forbid_unsafe::check,
        },
        Rule {
            name: CHECKED_CLOCK_OPS,
            describe: "wrapping_*/overflowing_*/saturating_* on clock-carrying values \
                       must be justified",
            protects: "the fail-loudly overflow contract of sim/src/time.rs",
            check: checked_clock::check,
        },
        Rule {
            name: NONDETERMINISTIC_ITERATION,
            describe: "no HashMap/HashSet iteration or order-dependent draining in the \
                       engine crates (net/core/sim)",
            protects: "seeded replay: one seed reproduces byte-identical results — only \
                       as strong as every iteration order in the event path",
            check: nondet_iter::check,
        },
        Rule {
            name: STALE_ALLOW,
            describe: "an allow annotation whose finding no longer fires is itself a \
                       violation — the allow list can only shrink",
            protects: "the audit trail: every allow justifies a live finding",
            check: no_pass,
        },
    ]
}

/// Walk back from the token *before* a method-call `.name(...)` chain and
/// return the index of the token immediately preceding the whole receiver
/// expression (identifier chains, `::` paths, balanced `(..)`/`[..]`
/// groups). Used to ask "does an arithmetic operator feed this call?".
pub(crate) fn before_receiver(file: &SourceFile, dot: usize) -> Option<usize> {
    let toks = &file.toks;
    let mut i = dot; // index of the `.`
    loop {
        if i == 0 {
            return None;
        }
        let prev = i - 1;
        let t = &toks[prev];
        if t.is_punct(')') || t.is_punct(']') {
            // Skip the balanced group backwards.
            let close = prev;
            let (o, c) = if t.is_punct(')') {
                ('(', ')')
            } else {
                ('[', ']')
            };
            let mut depth = 0usize;
            let mut j = close;
            loop {
                let tj = &toks[j];
                if tj.is_punct(c) {
                    depth += 1;
                } else if tj.is_punct(o) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    return None;
                }
                j -= 1;
            }
            i = j;
            continue;
        }
        if matches!(
            t.kind,
            crate::lexer::TokKind::Ident | crate::lexer::TokKind::Int
        ) {
            i = prev;
            continue;
        }
        if t.is_punct('.') || t.is_punct(':') {
            i = prev;
            continue;
        }
        return Some(prev);
    }
}

use crate::lexer::TokKind;

/// Is token `i` an arithmetic operator (`+ - * / %`) in expression
/// position? `-` and `*` are only counted when the *previous* token could
/// end an operand (so unary minus, deref, and `*const` stay out); `/` and
/// `%` and `+` are always binary in valid Rust expressions (`+` in trait
/// bounds is filtered by the same operand test).
pub(crate) fn is_binary_arith(file: &SourceFile, i: usize) -> bool {
    let t = &file.toks[i];
    if t.kind != TokKind::Punct {
        return false;
    }
    let c = match t.text.chars().next() {
        Some(c) if "+-*/%".contains(c) => c,
        _ => return false,
    };
    // `->`, `*=`-style compound assigns, `/=` etc.: compound assigns still
    // perform arithmetic, keep them; `->` is not arithmetic.
    if c == '-' && file.toks.get(i + 1).is_some_and(|n| n.is_punct('>')) {
        return false;
    }
    let Some(prev) = i.checked_sub(1).map(|p| &file.toks[p]) else {
        return false;
    };
    matches!(prev.kind, TokKind::Ident | TokKind::Int | TokKind::Float)
        || prev.is_punct(')')
        || prev.is_punct(']')
}
