//! The three workloads, each assembled on the default `NetworkBuilder`
//! path (heap event set, scalar engine, no batching, per-session
//! regulator), and each paired with the repository's own entry point that
//! builds the same network, so the benchmark can prove the two agree.

use crate::trace::{self, Kind, TracedDiscipline, TracedSource};
use lit_core::{install_oracle_bounds, ClassedAdmission, DRule, LitDiscipline, SessionRequest};
use lit_net::{
    DelayAssignment, Discipline, LinkParams, Network, NetworkBuilder, OracleConfig, OracleMode,
    Probe, SessionId, SessionSpec,
};
use lit_repro::experiments::common::{build_mix_one_class, fine_stats, T1_BPS, VOICE_BPS};
use lit_repro::scenario::{RunOptions, Scenario};
use lit_repro::topology::{mix_routes, paper_tandem};
use lit_sim::{Duration, Time};
use lit_traffic::{
    BurstSource, DeterministicSource, OnOffConfig, OnOffSource, Source, ATM_CELL_BITS,
};
use std::time::Instant;

/// One benchmark workload. The names are fixed: later changes cite them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figure 7's MIX configuration at a_OFF = 88 ms, oracle off.
    MixPaper,
    /// `generate wan(nodes=64,flows=4000,rho=0.9,len=424)`, oracle off.
    WanLarge,
    /// Jitter-controlled voice plus one-hop bursts on the paper's tandem,
    /// under the counting oracle.
    BurstJcOracle,
}

/// Mean OFF time of the MIX voice sessions (ρ ≈ 0.8).
const MIX_A_OFF: Duration = Duration::from_ms(88);
/// The large WAN's generator stanza.
const WAN_STANZA: &str = "wan(nodes=64,flows=4000,rho=0.9,len=424)";
/// Mean OFF time of the burst workload's jitter-controlled voice sessions.
const BURST_VOICE_A_OFF: Duration = Duration::from_ms(650);
/// Five-hop jitter-controlled voice sessions in the burst workload.
const BURST_VOICE_SESSIONS: usize = 24;
/// Cells per burst of the four one-hop burst sessions on every node.
const BURST_COUNTS: [u32; 4] = [13, 16, 19, 22];
/// Reservation of each burst session: 24·32 + 4·160 = 1408 kb/s ≤ C.
const BURST_RATE_BPS: u64 = 160_000;
/// Burst period of every burst session.
const BURST_PERIOD: Duration = Duration::from_ms(40);

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::MixPaper,
        Workload::WanLarge,
        Workload::BurstJcOracle,
    ];

    /// The fixed name a run selects the workload by.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MixPaper => "mix_paper",
            Workload::WanLarge => "wan_large",
            Workload::BurstJcOracle => "burst_jc_oracle",
        }
    }

    /// Look a workload up by its fixed name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, in one sentence.
    pub fn why(self) -> &'static str {
        match self {
            // ~120 pending events, no regulator holds, arrival runs ~1.
            Workload::MixPaper => {
                "the configuration the paper's figures spend their time on: it loads the \
                 per-event executor and the eq. 8-11 kernel and bypasses event-set scaling, \
                 deep queues and batching"
            }
            // ~74 KB of default-sized histograms per session.
            Workload::WanLarge => {
                "35x the sessions of MIX, so the event set is thousands deep and per-session \
                 state is far larger than the cache: event-set and layout changes show here \
                 and not on mix_paper"
            }
            Workload::BurstJcOracle => {
                "the same executor used differently: regulator holds add Eligible events, \
                 bursts make the eligible queues deep, and every packet passes the oracle's \
                 checks, which must stay at zero violations"
            }
        }
    }

    /// Simulated horizon of one repetition.
    pub fn horizon(self) -> Time {
        match self {
            Workload::MixPaper => Time::from_secs(60),
            Workload::WanLarge => Time::from_secs(10),
            Workload::BurstJcOracle => Time::from_secs(60),
        }
    }

    /// The oracle mode the workload runs under.
    pub fn oracle(self) -> OracleMode {
        match self {
            Workload::BurstJcOracle => OracleMode::Count,
            _ => OracleMode::Off,
        }
    }

    /// The workload's parameters, for the run record.
    pub fn params(self) -> String {
        let secs = self.horizon().as_ps() / 1_000_000_000_000;
        match self {
            Workload::MixPaper => format!(
                "MIX one-class AC1, 116 paper_voice sessions, a_OFF={}ms, 5xT1 tandem, fine_stats, {secs}s simulated",
                MIX_A_OFF.as_ps() / 1_000_000_000
            ),
            Workload::WanLarge => {
                format!("generate {WAN_STANZA}, default stats, {secs}s simulated")
            }
            Workload::BurstJcOracle => format!(
                "{BURST_VOICE_SESSIONS} jc paper_voice a_OFF={}ms five-hop + per node bursts {BURST_COUNTS:?} cells/{}ms at {BURST_RATE_BPS} b/s, oracle count, {secs}s simulated",
                BURST_VOICE_A_OFF.as_ps() / 1_000_000_000,
                BURST_PERIOD.as_ps() / 1_000_000_000
            ),
        }
    }
}

/// Wall time spent in each set-up layer of one build, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Workload inputs to a built `Network`: everything below plus glue.
    pub total_s: f64,
    /// `Scenario::parse` + `expanded` (only timed when traced).
    pub parse_expand_s: f64,
    /// AC1 `try_admit` calls, each span's clock read included (only
    /// timed when traced).
    pub admission_s: f64,
    /// Timed `try_admit` calls.
    pub admission_calls: u64,
    /// `NetworkBuilder::build` (only timed when traced).
    pub build_s: f64,
    /// Resident-set growth across `build`, MB (only measured when traced).
    pub build_rss_mb: f64,
}

/// A built network ready to run, with its set-up timings.
pub struct Built {
    /// The network, not yet run.
    pub net: Network,
    /// Where the set-up time went.
    pub setup: SetupTimes,
}

/// Times `f` as a child span of the set-up span when `traced`.
fn layer<R>(traced: bool, kind: Kind, acc: &mut f64, f: impl FnOnce() -> R) -> R {
    if !traced {
        return f();
    }
    let t0 = Instant::now();
    let r = f();
    let t1 = Instant::now();
    *acc += (t1 - t0).as_secs_f64();
    trace::record_span(kind, t0, t1);
    r
}

/// Assemble `w` at `seed` through `NetworkBuilder`. With `traced`, every
/// discipline and source is wrapped in a timing decorator, `probe` is
/// installed, and each set-up layer is timed as a span.
pub fn assemble(w: Workload, seed: u64, traced: bool, probe: Option<Box<dyn Probe>>) -> Built {
    let mut setup = SetupTimes::default();
    let t0 = Instant::now();
    let setup_span = traced.then(|| trace::open_span(Kind::Setup, t0));
    let source = |s: Box<dyn Source>| -> Box<dyn Source> {
        if traced {
            Box::new(TracedSource(s))
        } else {
            s
        }
    };
    let mut b = NetworkBuilder::new().seed(seed);
    match w {
        Workload::MixPaper => {
            // As `build_mix_one_class` assembles it, with admission timed.
            b = b.stats(fine_stats());
            let nodes = paper_tandem(&mut b);
            let mut admission: Vec<ClassedAdmission> = nodes
                .iter()
                .map(|_| ClassedAdmission::one_class(T1_BPS))
                .collect();
            let req = SessionRequest::new(VOICE_BPS, ATM_CELL_BITS);
            for (route, count) in mix_routes() {
                for _ in 0..count {
                    let hops: Vec<(u32, DelayAssignment)> = route
                        .node_indices()
                        .map(|n| {
                            setup.admission_calls += u64::from(traced);
                            let a = layer(traced, Kind::Admission, &mut setup.admission_s, || {
                                admission[n].try_admit(0, &req, DRule::PerPacket)
                            })
                            .expect("MIX exactly fills every link; admission must pass");
                            (nodes[n].0, a)
                        })
                        .collect();
                    let src = OnOffSource::new(OnOffConfig::paper_voice(MIX_A_OFF));
                    b.add_session_with_hops(
                        SessionSpec::atm(SessionId(0), VOICE_BPS),
                        hops,
                        source(Box::new(src)),
                    );
                }
            }
        }
        Workload::WanLarge => {
            let sc = layer(traced, Kind::ParseExpand, &mut setup.parse_expand_s, || {
                Scenario::parse(&wan_text(seed))
                    .expect("the WAN stanza is valid")
                    .expanded()
            });
            add_cbr_scenario(&mut b, &sc.to_text(), &source);
        }
        Workload::BurstJcOracle => {
            b = b.oracle(OracleConfig::new(OracleMode::Count));
            let nodes = b.tandem(5, LinkParams::paper_t1());
            for _ in 0..BURST_VOICE_SESSIONS {
                let src = OnOffSource::new(OnOffConfig::paper_voice(BURST_VOICE_A_OFF));
                let spec = SessionSpec::atm(SessionId(0), VOICE_BPS).with_jitter_control();
                b.add_session(spec, &nodes, source(Box::new(src)));
            }
            for &node in &nodes {
                for count in BURST_COUNTS {
                    let src = BurstSource::new(BURST_PERIOD, count, ATM_CELL_BITS);
                    let spec = SessionSpec::atm(SessionId(0), BURST_RATE_BPS);
                    b.add_session(spec, &[node], source(Box::new(src)));
                }
            }
        }
    }
    if let Some(p) = probe {
        b = b.probe(p);
    }
    let rss0 = traced.then(crate::report::rss_mb);
    let mut net = layer(traced, Kind::Build, &mut setup.build_s, || {
        if traced {
            b.build(&|l: &LinkParams| {
                Box::new(TracedDiscipline(Box::new(LitDiscipline::new(*l)))) as Box<dyn Discipline>
            })
        } else {
            b.build(&LitDiscipline::factory())
        }
    });
    if let Some(r0) = rss0 {
        setup.build_rss_mb = crate::report::rss_mb() - r0;
    }
    if w.oracle() != OracleMode::Off {
        install_oracle_bounds(&mut net);
    }
    let t1 = Instant::now();
    if let Some(span) = setup_span {
        trace::close_span(span, t1);
    }
    setup.total_s = (t1 - t0).as_secs_f64();
    Built { net, setup }
}

/// The WAN workload as scenario text.
fn wan_text(seed: u64) -> String {
    format!(
        "discipline lit\nseed {seed}\ngenerate {WAN_STANZA}\nrun {}s\n",
        Workload::WanLarge.horizon().as_ps() / 1_000_000_000_000
    )
}

/// The burst workload as scenario text, session for session in the order
/// [`assemble`] adds them, for the entry-point check.
fn burst_text(seed: u64) -> String {
    let ms = |d: Duration| d.as_ps() / 1_000_000_000;
    let mut s = format!(
        "nodes 5 rate={T1_BPS} prop=1ms lmax={ATM_CELL_BITS}\ndiscipline lit\nseed {seed}\n"
    );
    for _ in 0..BURST_VOICE_SESSIONS {
        s += &format!(
            "session route=0..4 rate={VOICE_BPS} jc source=onoff(on=352ms,off={}ms,t=13.25ms,len={ATM_CELL_BITS})\n",
            ms(BURST_VOICE_A_OFF)
        );
    }
    for node in 0..5 {
        for count in BURST_COUNTS {
            s += &format!(
                "session route={node}..{node} rate={BURST_RATE_BPS} source=burst(period={}ms,count={count},len={ATM_CELL_BITS})\n",
                ms(BURST_PERIOD)
            );
        }
    }
    s + &format!(
        "run {}s\n",
        Workload::BurstJcOracle.horizon().as_ps() / 1_000_000_000_000
    )
}

/// Build and run `w` at `seed` through the repository's own entry point:
/// `build_mix_one_class` for MIX, `Scenario::run_opts` for the others.
pub fn run_entry_point(w: Workload, seed: u64) -> Network {
    match w {
        Workload::MixPaper => {
            let (mut net, _) = build_mix_one_class(MIX_A_OFF, seed);
            net.run_until(w.horizon());
            net
        }
        Workload::WanLarge | Workload::BurstJcOracle => {
            let text = if w == Workload::WanLarge {
                wan_text(seed)
            } else {
                burst_text(seed)
            };
            let sc = Scenario::parse(&text).expect("workload scenario text is valid");
            let opts = RunOptions {
                oracle: w.oracle(),
                ..RunOptions::default()
            };
            sc.run_opts(&opts).0
        }
    }
}

/// Add the nodes and sessions of an expanded scenario's canonical text
/// (`Scenario::to_text`) to `b`, the way `Scenario::run_opts` does. Only
/// the forms the generators emit are accepted: CBR sources, `route=` or
/// `path=`, optional `jc`.
fn add_cbr_scenario(
    b: &mut NetworkBuilder,
    text: &str,
    source: &dyn Fn(Box<dyn Source>) -> Box<dyn Source>,
) {
    let mut nodes = Vec::new();
    for line in text.lines() {
        let mut toks = line.split_whitespace();
        match toks.next() {
            Some("nodes") => {
                let n: usize = toks
                    .next()
                    .and_then(|t| t.parse().ok())
                    .expect("node count");
                let mut link = LinkParams::paper_t1();
                for t in toks {
                    match t.split_once('=') {
                        Some(("rate", v)) => link.rate_bps = v.parse().expect("link rate"),
                        Some(("prop", v)) => link.propagation = duration(v),
                        Some(("lmax", v)) => link.lmax_bits = v.parse().expect("lmax"),
                        _ => panic!("unexpected nodes option '{t}'"),
                    }
                }
                nodes = b.tandem(n, link);
            }
            Some("session") => {
                let (mut route, mut rate, mut jc, mut src) = (Vec::new(), 0, false, None);
                for t in toks {
                    match t.split_once('=') {
                        Some(("route", v)) => {
                            let (a, z) = v.split_once("..").expect("route=A..B");
                            let (a, z): (usize, usize) = (
                                a.parse().expect("route start"),
                                z.parse().expect("route end"),
                            );
                            route = (a..=z).collect();
                        }
                        Some(("path", v)) => {
                            route = v
                                .split(',')
                                .map(|n| n.parse().expect("path node"))
                                .collect();
                        }
                        Some(("rate", v)) => rate = v.parse().expect("session rate"),
                        Some(("source", v)) => src = Some(cbr(v)),
                        None if t == "jc" => jc = true,
                        _ => panic!("unexpected session option '{t}'"),
                    }
                }
                let (gap, len, offset) = src.expect("session without source");
                let mut spec = SessionSpec::atm(SessionId(0), rate);
                spec.jitter_control = jc;
                spec.max_len_bits = len;
                spec.min_len_bits = len;
                let route: Vec<_> = route.into_iter().map(|n| nodes[n]).collect();
                let src = DeterministicSource::new(gap, len).with_offset(offset);
                b.add_session(spec, &route, source(Box::new(src)));
            }
            _ => {}
        }
    }
}

/// Parse `cbr(gap=..,len=..[,offset=..])` into `(gap, len, offset)`.
fn cbr(v: &str) -> (Duration, u32, Duration) {
    let args = v
        .strip_prefix("cbr(")
        .and_then(|s| s.strip_suffix(')'))
        .unwrap_or_else(|| panic!("only cbr sources are supported, got '{v}'"));
    let (mut gap, mut len, mut offset) = (None, None, Duration::ZERO);
    for kv in args.split(',') {
        match kv.split_once('=') {
            Some(("gap", d)) => gap = Some(duration(d)),
            Some(("len", n)) => len = Some(n.parse().expect("cbr len")),
            Some(("offset", d)) => offset = duration(d),
            _ => panic!("unexpected cbr option '{kv}'"),
        }
    }
    (gap.expect("cbr gap"), len.expect("cbr len"), offset)
}

/// Parse a canonical duration literal exactly: an integer count of `s`,
/// `ms`, `us` or `ns`, or `N.MMMns`. Exact integer parsing keeps the
/// generator's picosecond values, as the expanded scenario holds them.
fn duration(v: &str) -> Duration {
    let split = v
        .find(|c: char| c.is_ascii_alphabetic())
        .expect("duration unit");
    let (num, unit) = v.split_at(split);
    let scale: u64 = match unit {
        "s" => 1_000_000_000_000,
        "ms" => 1_000_000_000,
        "us" => 1_000_000,
        "ns" => 1_000,
        _ => panic!("unknown duration unit in '{v}'"),
    };
    let ps = match num.split_once('.') {
        Some((whole, frac)) if unit == "ns" && frac.len() == 3 => {
            whole.parse::<u64>().expect("duration") * 1_000 + frac.parse::<u64>().expect("ps")
        }
        Some(_) => panic!("non-canonical duration '{v}'"),
        None => num.parse::<u64>().expect("duration") * scale,
    };
    Duration::from_ps(ps)
}
