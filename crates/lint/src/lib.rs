//! # lit-lint — workspace static analysis for clock and hot-path discipline
//!
//! A dependency-free, *syntax-aware* static-analysis pass over the whole
//! workspace, run as `cargo run -p lit-lint -- check`. Six rules:
//!
//! * [`rules::RAW_TIME_ARITHMETIC`] — no raw `u64`/`f64` arithmetic,
//!   narrowing casts, or float literals flowing into `Time`/`Duration`;
//! * [`rules::NO_PANIC_HOT_PATH`] — `unwrap`/`expect`/`panic!`/panicking
//!   indexing banned in the scheduler hot paths; indexes the tree can
//!   prove in bounds (const array lengths, for-range loop variables) are
//!   exempt, as are assert-macro argument lists;
//! * [`rules::FORBID_UNSAFE`] — every crate root carries
//!   `#![forbid(unsafe_code)]`;
//! * [`rules::CHECKED_CLOCK_OPS`] — `wrapping_*`/`overflowing_*`/
//!   `saturating_*` in a statement touching clock-carrying values must
//!   be justified;
//! * [`rules::NONDETERMINISTIC_ITERATION`] — no `HashMap`/`HashSet`
//!   iteration or draining in the engine crates (net/core/sim), where
//!   iteration order would leak into the deterministic event path;
//! * [`rules::STALE_ALLOW`] — an allow annotation that suppresses
//!   nothing is itself a violation, so the allow list can only shrink.
//!
//! Escape hatch: `// lit-lint: allow(<rule>, "<justification>")` on (or
//! directly above) the offending line. Justifications are mandatory and
//! non-empty; stale or malformed annotations are themselves violations.
//! Diagnostics are emitted as machine-readable JSON (`--json`, schema
//! `lit-lint-v1`) and SARIF v2.1.0 (`--sarif`), and `--changed-since`
//! restricts a scan to files touched since a git revision.
//!
//! The engine is a hand-rolled lexer ([`lexer`]) and a recursive-descent
//! parser producing a lightweight item/statement/expression tree with
//! spans ([`parser`], [`ast`]), so the linter needs no external crates
//! (no `syn`). The parser never rejects: anything it cannot shape
//! degrades to leaf spans, and a round-trip property test pins
//! lex → parse → span-reassembly ≡ source over every workspace file.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ast;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod sarif;
pub mod source;

use diag::{Finding, Report};
use source::SourceFile;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// What to scan and how rules map onto the tree. Paths are
/// workspace-relative and `/`-separated.
pub struct Config {
    /// Files covered by `no-panic-hot-path`.
    pub hot_paths: Vec<String>,
    /// Path prefixes exempt from the clock rules (`raw-time-arithmetic`,
    /// `checked-clock-ops`): the definitions themselves and the
    /// float-by-design analysis crate.
    pub time_exempt: Vec<String>,
    /// Path prefixes never scanned at all (fixtures of known-bad code).
    pub skip: Vec<String>,
    /// Engine-crate source prefixes where iteration order must be
    /// deterministic (`nondeterministic-iteration`).
    pub engine_paths: Vec<String>,
    /// When non-empty, only these rules run.
    pub only_rules: BTreeSet<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            hot_paths: [
                "crates/net/src/network.rs",
                "crates/net/src/arena.rs",
                "crates/net/src/equeue.rs",
                "crates/net/src/table.rs",
                "crates/sim/src/queue.rs",
                "crates/sim/src/calendar.rs",
                "crates/sim/src/wheel.rs",
                "crates/core/src/discipline.rs",
                "crates/core/src/refserver.rs",
                "crates/core/src/admission/fast.rs",
                "crates/obs/src/probe.rs",
                "crates/analysis/src/hist.rs",
                "crates/net/src/stats.rs",
            ]
            .map(String::from)
            .to_vec(),
            time_exempt: ["crates/analysis/", "crates/sim/src/time.rs", "crates/lint/"]
                .map(String::from)
                .to_vec(),
            skip: ["crates/lint/tests/fixtures/"].map(String::from).to_vec(),
            engine_paths: ["crates/net/src/", "crates/core/src/", "crates/sim/src/"]
                .map(String::from)
                .to_vec(),
            only_rules: BTreeSet::new(),
        }
    }
}

impl Config {
    /// Is `rel` one of the configured hot-path files?
    pub fn is_hot_path(&self, rel: &str) -> bool {
        self.hot_paths.iter().any(|p| p == rel)
    }

    /// Is `rel` exempt from the clock rules?
    pub fn is_time_exempt(&self, rel: &str) -> bool {
        self.time_exempt.iter().any(|p| rel.starts_with(p))
    }

    /// Is `rel` engine-crate source (deterministic iteration required)?
    pub fn is_engine_path(&self, rel: &str) -> bool {
        self.engine_paths.iter().any(|p| rel.starts_with(p))
    }

    /// Production source: anything under a `src/` directory (unit-test
    /// modules inside are masked separately). Integration tests, benches,
    /// and examples are exempt from the clock rules but still crate roots
    /// for `forbid-unsafe-everywhere`.
    pub fn is_production_src(&self, rel: &str) -> bool {
        rel.starts_with("src/") || rel.contains("/src/")
    }

    /// Crate roots: `src/lib.rs`, `src/main.rs`, `src/bin/*.rs`, and the
    /// direct children of `tests/`, `benches/`, `examples/`.
    pub fn is_crate_root(&self, rel: &str) -> bool {
        let parts: Vec<&str> = rel.split('/').collect();
        let Some(&file) = parts.last() else {
            return false;
        };
        let dir = if parts.len() >= 2 {
            parts[parts.len() - 2]
        } else {
            ""
        };
        ((file == "lib.rs" || file == "main.rs") && dir == "src")
            || dir == "bin"
            || dir == "tests"
            || dir == "benches"
            || dir == "examples"
    }

    /// Should the rule run at all under `only_rules`?
    pub fn rule_enabled(&self, name: &str) -> bool {
        self.only_rules.is_empty() || self.only_rules.contains(name)
    }
}

/// Collect every `.rs` file under `root` that the pass should look at,
/// as sorted workspace-relative paths.
pub fn workspace_files(root: &Path, cfg: &Config) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let top = ["src", "crates", "tests", "examples", "benches"];
    for t in top {
        let dir = root.join(t);
        if dir.is_dir() {
            walk(&dir, &mut out)?;
        }
    }
    let mut rels: Vec<PathBuf> = out
        .into_iter()
        .filter_map(|p| p.strip_prefix(root).ok().map(PathBuf::from))
        .filter(|p| {
            let rel = rel_str(p);
            !cfg.skip.iter().any(|s| rel.starts_with(s))
        })
        .collect();
    rels.sort();
    Ok(rels)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// A path as a `/`-separated string (stable across platforms for reports).
pub fn rel_str(p: &Path) -> String {
    p.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Run every enabled rule over one in-memory file and resolve allow
/// annotations. Exposed for the fixture self-tests.
pub fn check_source(rel: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    check_source_counted(rel, src, cfg).0
}

/// Like [`check_source`], also returning the number of allow annotations
/// the file carries (fed into [`diag::Report::allows_total`]).
pub fn check_source_counted(rel: &str, src: &str, cfg: &Config) -> (Vec<Finding>, usize) {
    let file = SourceFile::new(rel, src);
    let mut findings: Vec<Finding> = Vec::new();
    findings.extend(file.allow_errors.iter().cloned());
    for rule in rules::all() {
        if cfg.rule_enabled(rule.name) {
            findings.extend((rule.check)(&file, cfg));
        }
    }
    resolve_allows(&file, &mut findings, cfg);
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    (findings, file.allows.len())
}

/// Match findings against the file's allow annotations: a finding on an
/// annotation's target line with the annotation's rule is suppressed (its
/// justification recorded); an annotation that suppresses nothing becomes
/// a `stale-allow` violation — the burndown signal of the precise engine.
///
/// Annotations for rules that are disabled under `--rule` filtering are
/// left alone (they may well suppress a finding when the full set runs),
/// and `stale-allow` findings are only emitted when that rule is itself
/// enabled.
fn resolve_allows(file: &SourceFile, findings: &mut Vec<Finding>, cfg: &Config) {
    let mut used = vec![false; file.allows.len()];
    for f in findings.iter_mut() {
        for (k, a) in file.allows.iter().enumerate() {
            if a.rule == f.rule && a.target == f.line {
                f.justification = Some(a.justification.clone());
                used[k] = true;
                break;
            }
        }
    }
    if !cfg.rule_enabled(rules::STALE_ALLOW) {
        return;
    }
    for (k, a) in file.allows.iter().enumerate() {
        if !used[k] && cfg.rule_enabled(&a.rule) {
            findings.push(Finding {
                rule: rules::STALE_ALLOW,
                file: file.rel.clone(),
                line: a.line,
                col: 1,
                message: format!(
                    "allow({}, …) suppresses nothing on line {}; remove it so the allow \
                     list only shrinks",
                    a.rule, a.target
                ),
                snippet: file.snippet(a.line),
                justification: None,
            });
        }
    }
}

/// Run the whole pass over the workspace rooted at `root`.
pub fn run_check(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    run_check_filtered(root, cfg, None)
}

/// [`run_check`] restricted to the files in `only` (workspace-relative,
/// `/`-separated) when given — the engine of `--changed-since`
/// diff-aware scans. Files outside the workspace file set are ignored
/// either way, so feeding raw `git diff` output is safe.
pub fn run_check_filtered(
    root: &Path,
    cfg: &Config,
    only: Option<&BTreeSet<String>>,
) -> std::io::Result<Report> {
    let mut report = Report::default();
    let files: Vec<PathBuf> = workspace_files(root, cfg)?
        .into_iter()
        .filter(|p| only.is_none_or(|set| set.contains(&rel_str(p))))
        .collect();
    report.files_scanned = files.len();
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))?;
        let (findings, n_allows) = check_source_counted(&rel_str(&rel), &src, cfg);
        report.findings.extend(findings);
        report.allows_total += n_allows;
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(report)
}

/// Every allow annotation in the workspace, with the file carrying it —
/// the `lit-lint allows` burndown inventory.
pub fn collect_allows(root: &Path, cfg: &Config) -> std::io::Result<Vec<(String, diag::Allow)>> {
    let mut out = Vec::new();
    for rel in workspace_files(root, cfg)? {
        let src = std::fs::read_to_string(root.join(&rel))?;
        let file = SourceFile::new(&rel_str(&rel), &src);
        for a in file.allows {
            out.push((file.rel.clone(), a));
        }
    }
    Ok(out)
}

/// Files changed since `rev`, as workspace-relative paths: committed
/// changes against the merge base (`git diff --name-only rev...HEAD`)
/// plus uncommitted and untracked files. Paths that no longer exist
/// (deletions) are filtered out by the scan itself.
pub fn changed_files(root: &Path, rev: &str) -> std::io::Result<BTreeSet<String>> {
    let run = |args: &[&str]| -> std::io::Result<String> {
        let out = std::process::Command::new("git")
            .arg("-C")
            .arg(root)
            .args(args)
            .output()?;
        if !out.status.success() {
            return Err(std::io::Error::other(format!(
                "git {} failed: {}",
                args.join(" "),
                String::from_utf8_lossy(&out.stderr).trim()
            )));
        }
        Ok(String::from_utf8_lossy(&out.stdout).into_owned())
    };
    let mut set = BTreeSet::new();
    let range = format!("{rev}...HEAD");
    for l in run(&["diff", "--name-only", &range])?.lines() {
        if !l.is_empty() {
            set.insert(l.to_string());
        }
    }
    // Working tree on top: uncommitted modifications and untracked files.
    for l in run(&["status", "--porcelain"])?.lines() {
        // Format: `XY path` or `XY old -> new` for renames.
        let path = l.get(3..).unwrap_or("");
        let path = path.rsplit(" -> ").next().unwrap_or(path).trim();
        if !path.is_empty() {
            set.insert(path.to_string());
        }
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_root_detection() {
        let cfg = Config::default();
        assert!(cfg.is_crate_root("crates/sim/src/lib.rs"));
        assert!(cfg.is_crate_root("crates/repro/src/main.rs"));
        assert!(cfg.is_crate_root("crates/bench/src/bin/fuzz_diff.rs"));
        assert!(cfg.is_crate_root("tests/stress.rs"));
        assert!(cfg.is_crate_root("examples/quickstart.rs"));
        assert!(cfg.is_crate_root("crates/bench/benches/sched_ops.rs"));
        assert!(!cfg.is_crate_root("crates/sim/src/time.rs"));
        assert!(!cfg.is_crate_root("crates/lint/tests/fixtures/clean.rs"));
    }

    #[test]
    fn allow_suppresses_and_unused_allow_fires() {
        let cfg = Config::default();
        let src = "#![forbid(unsafe_code)]\n\
                   fn f(t: Time) -> u64 {\n\
                       // lit-lint: allow(raw-time-arithmetic, \"documented widening\")\n\
                       t.as_ps() * 2\n\
                   }\n\
                   // lit-lint: allow(raw-time-arithmetic, \"nothing here\")\n\
                   fn g() {}\n";
        let fs = check_source("crates/net/src/spec.rs", src, &cfg);
        let raw: Vec<_> = fs
            .iter()
            .filter(|f| f.rule == rules::RAW_TIME_ARITHMETIC)
            .collect();
        assert_eq!(raw.len(), 1);
        assert!(raw[0].allowed());
        assert_eq!(raw[0].justification.as_deref(), Some("documented widening"));
        assert_eq!(fs.iter().filter(|f| f.rule == "stale-allow").count(), 1);
    }

    #[test]
    fn widening_escapes_are_clean() {
        let cfg = Config::default();
        let src = "#![forbid(unsafe_code)]\n\
                   fn f(a: Time, b: Time) -> i128 {\n\
                       a.as_ps() as i128 - b.as_ps() as i128\n\
                   }\n\
                   fn g(d: Duration) -> f64 { d.as_ps() as f64 }\n";
        let fs = check_source("crates/core/src/bounds.rs", src, &cfg);
        assert!(
            fs.iter().all(|f| f.rule != rules::RAW_TIME_ARITHMETIC),
            "{fs:?}"
        );
    }

    #[test]
    fn test_code_is_exempt_from_clock_rules() {
        let cfg = Config::default();
        let src = "#![forbid(unsafe_code)]\n\
                   #[cfg(test)]\nmod tests {\n\
                       fn t(x: Duration) -> u64 { x.as_ps() * 3 }\n\
                   }\n";
        let fs = check_source("crates/net/src/spec.rs", src, &cfg);
        assert!(fs.is_empty(), "{fs:?}");
    }
}
