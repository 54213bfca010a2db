//! Negative controls: the benchmark's correctness checks must be able to
//! fail.

use lit_net::OracleMode;
use lit_repro::scenario::{RunOptions, Scenario};
use lit_sim::Time;
use perfbench::probe::CountingProbe;
use perfbench::report::{oracle_verdict, Fingerprint};
use perfbench::run_failures;
use perfbench::workload::{assemble, Workload};

/// Fingerprint of `w` at `seed` after `secs` simulated seconds.
fn fingerprint(w: Workload, seed: u64, secs: u64, traced: bool) -> Fingerprint {
    let probe = traced.then(|| Box::new(CountingProbe::default()) as Box<dyn lit_net::Probe>);
    let mut built = assemble(w, seed, traced, probe);
    built.net.run_until(Time::from_secs(secs));
    Fingerprint::of(&built.net)
}

#[test]
fn overloaded_fixture_fails_the_oracle_check() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../scenarios/overload_rho120.scn"
    );
    let sc = Scenario::load(path).expect("committed fixture parses");
    let opts = RunOptions {
        oracle: OracleMode::Count,
        ..RunOptions::default()
    };
    let (mut net, _) = sc.run_opts(&opts);
    let fp = Fingerprint::of(&net);
    let oracle = oracle_verdict(&mut net);
    let fail_frac = run_failures(&fp, &oracle) as f64 / fp.hops as f64;
    assert!(fail_frac > 0.0, "rho = 1.2 must trip the oracle");
}

#[test]
fn changed_seed_changes_the_fingerprint() {
    let a = fingerprint(Workload::MixPaper, 1, 5, false);
    assert_eq!(a, fingerprint(Workload::MixPaper, 1, 5, false));
    assert_ne!(a.hash, fingerprint(Workload::MixPaper, 2, 5, false).hash);
}

#[test]
fn tracing_leaves_the_simulation_unchanged() {
    for w in [Workload::MixPaper, Workload::BurstJcOracle] {
        assert_eq!(
            fingerprint(w, 3, 5, false),
            fingerprint(w, 3, 5, true),
            "{}",
            w.name()
        );
    }
}
