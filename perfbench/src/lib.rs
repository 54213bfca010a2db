//! End-to-end benchmark of the default simulation path.
//!
//! One invocation runs one workload repeatedly for a fixed wall-time
//! budget. Untraced repetitions give the end-to-end metrics; a traced
//! invocation interleaves traced repetitions (decorated disciplines and
//! sources, a counting probe) with untraced ones and reports the
//! per-layer ledger and the tracing overhead. Every invocation checks the
//! simulated outputs: repetitions agree, traced equals untraced, the
//! benchmark's own assembly equals the repository's entry point, no
//! session delivers more than it injected, and the oracle stays clean.

#![forbid(unsafe_code)]

pub mod probe;
pub mod report;
pub mod trace;
pub mod workload;

use lit_net::{OracleTotals, Probe};
use probe::CountingProbe;
use report::{median, Fingerprint};
use std::time::Instant;
use trace::{Kind, Ledger, Span};
use workload::{assemble, Built, SetupTimes, Workload};

/// One invocation's settings.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every session's random stream.
    pub seed: u64,
    /// Wall-time budget of the timed repetitions.
    pub seconds: u64,
    /// Report the per-layer ledger instead of the end-to-end metrics.
    pub trace: bool,
}

/// What a traced repetition adds.
pub struct Traced {
    /// Self time per layer inside `run_until`.
    pub ledger: Ledger,
    /// Exact counts from the counting probe.
    pub probe: CountingProbe,
    /// Every span of the repetition.
    pub spans: Vec<Span>,
}

/// One build-and-run repetition.
pub struct Rep {
    /// Set-up timings.
    pub setup: SetupTimes,
    /// Wall time of `run_until`, seconds.
    pub run_s: f64,
    /// The simulated outputs.
    pub fp: Fingerprint,
    /// Events the executor dispatched.
    pub events: u64,
    /// Oracle verdict after the drain-time checks.
    pub oracle: OracleTotals,
    /// Shard workers the built engine used.
    pub shards: usize,
    /// Present on traced repetitions.
    pub traced: Option<Traced>,
}

impl Rep {
    /// Host nanoseconds per simulated packet-hop.
    pub fn ns_per_hop(&self) -> f64 {
        self.run_s * 1e9 / self.fp.hops.max(1) as f64
    }
}

/// Failures one finished run contributes: one per oracle violation and
/// one per session that delivered more packets than it injected.
pub fn run_failures(fp: &Fingerprint, oracle: &OracleTotals) -> u64 {
    oracle.total() + fp.overdelivered
}

/// Build and run one repetition of `w`.
pub fn one_rep(w: Workload, seed: u64, traced: bool, clock_ns: f64) -> Rep {
    let probe = traced.then(|| Box::new(CountingProbe::default()) as Box<dyn Probe>);
    let Built { mut net, setup } = assemble(w, seed, traced, probe);
    let calls0 = trace::calls();
    let t0 = Instant::now();
    let span = traced.then(|| trace::open_span(Kind::RunUntil, t0));
    net.run_until(w.horizon());
    let t1 = Instant::now();
    let calls1 = trace::calls();
    let fp = Fingerprint::of(&net);
    let oracle = report::oracle_verdict(&mut net);
    let traced = span.map(|span| {
        trace::close_span(span, t1);
        let spans = trace::take_spans();
        let calls = std::array::from_fn(|i| calls1[i] - calls0[i]);
        let probe = net
            .take_probe()
            .and_then(|p| {
                p.as_any()
                    .and_then(|a| a.downcast_ref::<CountingProbe>())
                    .cloned()
            })
            .expect("the counting probe was installed");
        Traced {
            ledger: Ledger::from_spans(&spans, span, calls, clock_ns),
            probe,
            spans,
        }
    });
    Rep {
        setup,
        run_s: (t1 - t0).as_secs_f64(),
        fp,
        events: net.event_count(),
        oracle,
        shards: net.shard_count(),
        traced,
    }
}

/// One reported metric.
pub struct Metric {
    /// Fixed metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one invocation.
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Packet-hops attempted over every repetition.
    pub attempted: u64,
    /// Failed operations (all of `attempted` when a check failed).
    pub failed: u64,
    /// Failed correctness checks, described.
    pub problems: Vec<String>,
    /// The metrics the invocation reports.
    pub metrics: Vec<Metric>,
    /// Self-describing record of the configuration.
    pub record: String,
    /// Fingerprint hash of the untraced repetitions.
    pub fingerprint: u64,
    /// Spans of the last traced repetition.
    pub spans: Vec<Span>,
    /// Distributions behind the reported medians, one line each.
    pub summary: Vec<String>,
}

/// `name`: median, quartiles and the highest percentile with at least
/// ten samples beyond it, over the repetitions.
fn distribution(name: &str, unit: &str, mut v: Vec<f64>) -> String {
    let n = v.len();
    let med = median(&mut v);
    let at = |q: f64| v[((n - 1) as f64 * q).round() as usize];
    let mut line = format!(
        "{name} over {n} reps: median {med:.6} {unit}, p25 {:.6}, p75 {:.6}",
        at(0.25),
        at(0.75)
    );
    if n >= 20 {
        let pct = (100 * (n - 10) / n) as f64;
        line += &format!(", p{pct} {:.6}", at(pct / 100.0));
    }
    line
}

/// Run one invocation: repetitions for `cfg.seconds`, then the checks.
pub fn run(cfg: Config) -> Outcome {
    let w = cfg.workload;
    let clock_ns = trace::calibrate_clock_ns();
    let start = Instant::now();
    let min_reps = if cfg.trace { 4 } else { 3 };
    let mut reps: Vec<Rep> = Vec::new();
    let mut spans = Vec::new();
    while reps.len() < min_reps || start.elapsed().as_secs_f64() < cfg.seconds as f64 {
        // Traced first, so the first build in the process (the only one
        // whose RSS growth is not hidden by freed memory) is traced.
        let traced = cfg.trace && reps.len().is_multiple_of(2);
        let mut rep = one_rep(w, cfg.seed, traced, clock_ns);
        if let Some(t) = rep.traced.as_mut() {
            spans = std::mem::take(&mut t.spans);
        }
        reps.push(rep);
    }
    let (traced, plain): (Vec<&Rep>, Vec<&Rep>) = reps.iter().partition(|r| r.traced.is_some());

    let mut problems = Vec::new();
    let base = &plain[0].fp;
    if plain.iter().any(|r| r.fp != *base) {
        problems.push("fingerprint differs between repetitions".to_string());
    }
    if traced.iter().any(|r| r.fp != *base) {
        problems.push("traced fingerprint differs from untraced".to_string());
    }
    if base.overdelivered > 0 {
        problems.push(format!(
            "{} sessions delivered more than they injected",
            base.overdelivered
        ));
    }
    if base.hops == 0 {
        problems.push("no packet-hops simulated".to_string());
    }
    let mut entry = workload::run_entry_point(w, cfg.seed);
    let entry_fp = Fingerprint::of(&entry);
    let entry_oracle = report::oracle_verdict(&mut entry);
    drop(entry);
    if entry_fp != *base || entry_oracle != plain[0].oracle {
        problems.push(format!(
            "assembled network differs from the repository entry point ({:016x} vs {:016x})",
            base.hash, entry_fp.hash
        ));
    }
    if plain[0].oracle.total() > 0 {
        problems.push(format!(
            "oracle reports {} violations",
            plain[0].oracle.total()
        ));
    }

    let attempted: u64 = reps.iter().map(|r| r.fp.hops).sum::<u64>().max(1);
    let failed = if problems.is_empty() {
        reps.iter().map(|r| run_failures(&r.fp, &r.oracle)).sum()
    } else {
        attempted
    };
    let med = |rs: &[&Rep], f: &dyn Fn(&Rep) -> f64| {
        median(&mut rs.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let m = |name: &str, value: f64, unit: &'static str| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    let metrics = if !cfg.trace {
        vec![
            m("ns_per_hop", med(&plain, &Rep::ns_per_hop), "ns"),
            m("setup_s", med(&plain, &|r| r.setup.total_s), "s"),
            m("peak_rss_mb", report::peak_rss_mb(), "MB"),
        ]
    } else {
        layer_metrics(&traced, &plain, clock_ns)
    };
    let record = record(cfg, clock_ns, &reps, plain.len(), traced.len());
    let fingerprint = base.hash;
    let summary = vec![
        distribution(
            "ns_per_hop",
            "ns",
            plain.iter().map(|r| r.ns_per_hop()).collect(),
        ),
        distribution(
            "setup_s",
            "s",
            plain.iter().map(|r| r.setup.total_s).collect(),
        ),
    ];
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        problems,
        metrics,
        record,
        fingerprint,
        spans,
        summary,
    }
}

/// The per-layer ledger of a traced invocation. Set-up times are medians
/// over the traced repetitions. The `run_until` ledger comes whole from
/// the repetition with the median traced `run_until`, so its layers add up
/// to that run's total. Counts are exact and equal in every repetition.
fn layer_metrics(traced: &[&Rep], plain: &[&Rep], clock_ns: f64) -> Vec<Metric> {
    let med =
        |f: &dyn Fn(&Rep) -> f64| median(&mut traced.iter().map(|r| f(r)).collect::<Vec<_>>());
    let ledger = |r: &Rep| r.traced.as_ref().expect("traced rep").ledger;
    let mut by_run = traced.to_vec();
    by_run.sort_by(|a, b| ledger(a).run_until_ns.total_cmp(&ledger(b).run_until_ns));
    let mid = by_run[(by_run.len() - 1) / 2];
    let per_hop = |f: &dyn Fn(&Ledger) -> f64| f(&ledger(mid)) / mid.fp.hops.max(1) as f64;
    let first = traced[0];
    let t = first.traced.as_ref().expect("traced rep");
    let (p, hops) = (&t.probe, first.fp.hops.max(1) as f64);
    let untraced_ns = median(&mut plain.iter().map(|r| r.ns_per_hop()).collect::<Vec<_>>());
    let mut out = vec![
        (
            "repro.parse_expand_s",
            med(&|r| r.setup.parse_expand_s),
            "s",
        ),
        (
            "core.admission_s",
            med(&|r| {
                (r.setup.admission_s - r.setup.admission_calls as f64 * clock_ns * 1e-9).max(0.0)
            }),
            "s",
        ),
        ("net.build_s", med(&|r| r.setup.build_s), "s"),
        ("net.build_rss_mb", first.setup.build_rss_mb, "MB"),
        (
            "core.discipline.calls_per_hop",
            t.ledger.discipline_calls as f64 / hops,
            "calls/hop",
        ),
        (
            "core.discipline.ns_per_hop",
            per_hop(&|l| l.discipline_ns),
            "ns/hop",
        ),
        (
            "traffic.source.calls_per_hop",
            t.ledger.source_calls as f64 / hops,
            "calls/hop",
        ),
        (
            "traffic.source.ns_per_hop",
            per_hop(&|l| l.source_ns),
            "ns/hop",
        ),
        ("obs.probe.ns_per_hop", per_hop(&|l| l.probe_ns), "ns/hop"),
        (
            "net.executor.ns_per_hop",
            per_hop(&Ledger::executor_ns),
            "ns/hop",
        ),
        (
            "trace.run_until_ns_per_hop",
            per_hop(&|l| l.run_until_ns),
            "ns/hop",
        ),
        (
            "sim.events_per_hop",
            first.events as f64 / hops,
            "events/hop",
        ),
        (
            "sim.event_depth_p50",
            probe::quantile(&p.event_depth, 0.5),
            "events",
        ),
        (
            "sim.event_depth_max",
            p.event_depth.len().saturating_sub(1) as f64,
            "events",
        ),
        (
            "net.equeue_depth_p50",
            probe::quantile(&p.equeue_depth, 0.5),
            "packets",
        ),
        (
            "net.equeue_depth_p99",
            probe::quantile(&p.equeue_depth, 0.99),
            "packets",
        ),
        (
            "net.regulator_holds_per_hop",
            p.eligible as f64 / hops,
            "holds/hop",
        ),
        (
            "net.events.arrive_per_hop",
            p.arrive as f64 / hops,
            "events/hop",
        ),
        (
            "net.events.dispatch_per_hop",
            p.dispatch as f64 / hops,
            "events/hop",
        ),
        (
            "net.events.depart_per_hop",
            p.depart as f64 / hops,
            "events/hop",
        ),
        ("net.arrival_run_mean", p.run_mean(), "arrivals"),
        ("net.arrival_run_max", p.run_max as f64, "arrivals"),
        ("net.arrival_group_mean", p.group_mean(), "arrivals"),
        ("net.arrival_group_max", p.group_max as f64, "arrivals"),
        (
            "net.oracle.violations",
            first.oracle.total() as f64,
            "count",
        ),
    ];
    let by_kind: Vec<(String, f64)> = report::violations_by_kind(&first.oracle)
        .iter()
        .map(|(k, v)| (format!("net.oracle.{k}"), *v as f64))
        .collect();
    let traced_ns = med(&Rep::ns_per_hop);
    out.push(("trace.clock_read_ns", clock_ns, "ns"));
    out.push((
        "trace.overhead_frac",
        traced_ns / untraced_ns - 1.0,
        "ratio",
    ));
    let mut metrics: Vec<Metric> = out
        .into_iter()
        .map(|(n, v, u)| Metric {
            name: n.to_string(),
            value: v,
            unit: u,
        })
        .collect();
    metrics.extend(by_kind.into_iter().map(|(name, value)| Metric {
        name,
        value,
        unit: "count",
    }));
    metrics
}

/// The configuration record: what was run, on what, with which defaults.
fn record(cfg: Config, clock_ns: f64, reps: &[Rep], plain: usize, traced: usize) -> String {
    use report::{json_num, json_str};
    let w = cfg.workload;
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"git_sha\": {}, \"nproc\": {nproc}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"params\": {}, \"why\": {}, \"event_backend\": {}, \"shard_count\": {}, \
         \"regulator\": {}, \"oracle\": {}, \"batch_arrivals\": false, \"clock_read_ns\": {}, \
         \"trace_stride\": {}, \"reps_untraced\": {plain}, \"reps_traced\": {traced}}}",
        json_str(&report::git_sha()),
        json_str(w.name()),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        json_str(&w.params()),
        json_str(w.why()),
        json_str(&format!("{:?}", lit_net::EventBackend::default())),
        reps[0].shards,
        json_str(&format!("{:?}", lit_net::RegulatorBackend::default())),
        json_str(&format!("{:?}", w.oracle())),
        json_num(clock_ns),
        trace::STRIDE,
    )
}
