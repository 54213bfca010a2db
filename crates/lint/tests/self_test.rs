//! Fixture self-tests: each rule must fire on its known-bad fixture (and
//! stay quiet on the known-good one), both through the library API and —
//! for one fixture — through a real `run_check` over an on-disk tree, the
//! same path the CLI takes. This is the negative test for the acceptance
//! criterion "non-zero exit on each bad fixture": the CLI exits non-zero
//! exactly when `Report::violation_count() > 0`.

#![forbid(unsafe_code)]

use lit_lint::rules::{
    CHECKED_CLOCK_OPS, FORBID_UNSAFE, NONDETERMINISTIC_ITERATION, NO_PANIC_HOT_PATH,
    RAW_TIME_ARITHMETIC,
};
use lit_lint::{check_source, run_check, Config};

const RAW_TIME: &str = include_str!("fixtures/raw_time_arithmetic.rs");
const NO_PANIC: &str = include_str!("fixtures/no_panic_hot_path.rs");
const NO_FORBID: &str = include_str!("fixtures/forbid_unsafe.rs");
const CHECKED: &str = include_str!("fixtures/checked_clock_ops.rs");
const NONDET: &str = include_str!("fixtures/nondet_iteration.rs");
const CLEAN: &str = include_str!("fixtures/clean.rs");

/// Unsuppressed findings of `rule` when `src` pretends to live at `rel`.
fn violations(rel: &str, src: &str, rule: &str) -> usize {
    check_source(rel, src, &Config::default())
        .iter()
        .filter(|f| !f.allowed() && f.rule == rule)
        .count()
}

#[test]
fn raw_time_fixture_fires() {
    // Five distinct patterns: bare `as_ps` math, right-operand math, a
    // narrowing cast in a constructor, arithmetic in a constructor, and a
    // float conversion. Presented as ordinary production source.
    let n = violations("crates/net/src/spec.rs", RAW_TIME, RAW_TIME_ARITHMETIC);
    assert!(n >= 5, "want >= 5 raw-time findings, got {n}");
}

#[test]
fn raw_time_fixture_is_silent_in_exempt_crates() {
    // The same file inside the float-by-design analysis crate is legal.
    assert_eq!(
        violations("crates/analysis/src/md1.rs", RAW_TIME, RAW_TIME_ARITHMETIC),
        0
    );
}

#[test]
fn no_panic_fixture_fires_on_hot_paths_only() {
    let cfg = Config::default();
    for hot in &cfg.hot_paths {
        let n = violations(hot, NO_PANIC, NO_PANIC_HOT_PATH);
        assert!(n >= 5, "want >= 5 no-panic findings in {hot}, got {n}");
    }
    // The same source off the hot paths is tolerated by this rule.
    assert_eq!(
        violations("crates/net/src/spec.rs", NO_PANIC, NO_PANIC_HOT_PATH),
        0
    );
}

#[test]
fn forbid_unsafe_fixture_fires_on_crate_roots_only() {
    let n = violations("crates/sim/src/lib.rs", NO_FORBID, FORBID_UNSAFE);
    assert_eq!(n, 1, "a bare crate root must yield exactly one finding");
    // A non-root module never needs the attribute.
    assert_eq!(
        violations("crates/sim/src/time.rs", NO_FORBID, FORBID_UNSAFE),
        0
    );
}

#[test]
fn checked_clock_fixture_fires() {
    let n = violations("crates/net/src/oracle.rs", CHECKED, CHECKED_CLOCK_OPS);
    assert!(n >= 3, "want >= 3 checked-clock findings, got {n}");
}

#[test]
fn nondet_iteration_fixture_fires_in_engine_crates_only() {
    // Six distinct shapes: field .iter(), .keys(), HashSet .drain() (and
    // its for-loop), .retain(), an init-inferred local, a hash-typed
    // parameter iterated by a for loop.
    let n = violations(
        "crates/core/src/registry.rs",
        NONDET,
        NONDETERMINISTIC_ITERATION,
    );
    assert!(n >= 6, "want >= 6 nondet-iteration findings, got {n}");
    // The same code outside the engine crates (analysis, tools) is legal:
    // determinism is an event-path contract, not a workspace-wide one.
    assert_eq!(
        violations(
            "crates/analysis/src/report.rs",
            NONDET,
            NONDETERMINISTIC_ITERATION
        ),
        0
    );
}

#[test]
fn clean_fixture_is_clean_even_on_a_hot_path() {
    let fs = check_source("crates/sim/src/queue.rs", CLEAN, &Config::default());
    let bad: Vec<_> = fs.iter().filter(|f| !f.allowed()).collect();
    assert!(bad.is_empty(), "clean fixture produced {bad:?}");
}

/// End-to-end negative test over a real directory tree, one injection
/// per rule: drop each known-bad fixture into a scratch workspace at a
/// path where its rule applies, run the same `run_check` the CLI calls,
/// and require that rule among the violations (⇒ CLI exit 1). Removing
/// the injection must bring the tree back to zero.
#[test]
fn injected_violation_fails_a_workspace_scan() {
    let root = std::env::temp_dir().join(format!("lit-lint-selftest-{}", std::process::id()));
    let stale_allow_src = "#![forbid(unsafe_code)]\n\
         //! doc\n\
         // lit-lint: allow(no-panic-hot-path, \"nothing here panics — the allow is dead\")\n\
         pub fn fine() -> u64 { 7 }\n";
    // (relative injection path, fixture source, rule that must fire)
    let injections: [(&str, &str, &str); 6] = [
        ("crates/sim/src/bad_time.rs", RAW_TIME, RAW_TIME_ARITHMETIC),
        (
            // A configured hot path: the eligible queue.
            "crates/sim/src/queue.rs",
            NO_PANIC,
            NO_PANIC_HOT_PATH,
        ),
        ("crates/core/src/lib.rs", NO_FORBID, FORBID_UNSAFE),
        ("crates/sim/src/bad_clock.rs", CHECKED, CHECKED_CLOCK_OPS),
        (
            "crates/core/src/bad_iter.rs",
            NONDET,
            NONDETERMINISTIC_ITERATION,
        ),
        (
            "crates/sim/src/dead_allow.rs",
            stale_allow_src,
            lit_lint::rules::STALE_ALLOW,
        ),
    ];

    for (rel, fixture, rule) in injections {
        std::fs::remove_dir_all(&root).ok();
        let src = root.join("crates/sim/src");
        std::fs::create_dir_all(&src).expect("mkdir scratch workspace");
        std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
        std::fs::write(src.join("lib.rs"), "#![forbid(unsafe_code)]\n//! doc\n")
            .expect("write clean root");

        let bad = root.join(rel);
        std::fs::create_dir_all(bad.parent().expect("fixture path has a parent"))
            .expect("mkdir injection dir");
        std::fs::write(&bad, fixture).expect("inject bad fixture");

        let cfg = Config::default();
        let report = run_check(&root, &cfg).expect("scan scratch workspace");
        let hits = report
            .findings
            .iter()
            .filter(|f| !f.allowed() && f.rule == rule)
            .count();
        assert!(
            hits >= 1,
            "injected {rel} must trip `{rule}`; report had {} violation(s): {:?}",
            report.violation_count(),
            report
                .findings
                .iter()
                .filter(|f| !f.allowed())
                .collect::<Vec<_>>()
        );

        std::fs::remove_file(&bad).expect("remove injected fixture");
        let report = run_check(&root, &cfg).expect("re-scan scratch workspace");
        assert_eq!(
            report.violation_count(),
            0,
            "clean tree must pass after removing {rel}"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}
