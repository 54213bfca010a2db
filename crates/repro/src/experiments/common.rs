//! Shared experiment machinery: run configuration, admission-driven
//! session setup for the MIX and CROSS configurations, and bound helpers.

use crate::topology::{cross_routes, five_hop, mix_routes, paper_tandem};
use lit_analysis::DurationHistogram;
use lit_core::{
    install_oracle_bounds, ClassedAdmission, DRule, DelayClass, LitDiscipline, PathBounds,
    Procedure, SessionRequest,
};
use lit_net::{
    DelayAssignment, DisciplineFactory, Network, NetworkBuilder, OccupancyHistogram, OracleConfig,
    OracleMode, QueueKind, SessionId, SessionSpec, SessionStats, StatsConfig,
};
use lit_sim::{Duration, Time};
use lit_traffic::{DeterministicSource, OnOffConfig, OnOffSource, PoissonSource, ATM_CELL_BITS};
use std::sync::atomic::{AtomicUsize, Ordering};

/// T1 capacity, bits per second.
pub const T1_BPS: u64 = 1_536_000;
/// The standard 32 kbit/s reservation of the paper's ON-OFF/CBR sessions.
pub const VOICE_BPS: u64 = 32_000;

/// How long to simulate, with which master seed, and how to spread
/// independent runs over worker threads.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Override of the experiment's paper-specified duration (seconds of
    /// simulated time); `None` runs the full paper duration.
    pub seconds: Option<u64>,
    /// Master seed; every session derives its own stream from it.
    pub seed: u64,
    /// Worker-thread count for [`run_points`]; `None` uses every
    /// available core. Thread count never changes results — only
    /// wall-clock time.
    pub threads: Option<usize>,
    /// Independent repetitions of the single-run distribution experiments
    /// (Figures 8–13 and the heavy-tail extension), pooled into one set
    /// of histograms. Replica `r` runs with [`replica_seed`]`(seed, r)`,
    /// so replica 0 alone reproduces a `replicas = 1` run exactly.
    pub replicas: u32,
}

impl RunConfig {
    /// Full paper durations (5 or 10 minutes depending on the experiment).
    pub fn paper() -> Self {
        RunConfig {
            seconds: None,
            seed: 0x5EED_1995,
            threads: None,
            replicas: 1,
        }
    }

    /// A fast configuration for tests and smoke runs: reduced horizon,
    /// several pooled replicas so the distribution tails still fill in.
    pub fn quick() -> Self {
        RunConfig {
            seconds: Some(20),
            replicas: 4,
            ..RunConfig::paper()
        }
    }

    /// The horizon for an experiment whose paper duration is
    /// `paper_seconds`.
    pub fn horizon(&self, paper_seconds: u64) -> Time {
        Time::from_secs(self.seconds.unwrap_or(paper_seconds))
    }

    /// Number of worker threads [`run_points`] will use.
    pub fn worker_count(&self) -> usize {
        self.threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(usize::from)
                    .unwrap_or(1)
            })
            .max(1)
    }

    /// The replica master seeds of this configuration, in replica order.
    pub fn replica_seeds(&self) -> Vec<u64> {
        (0..self.replicas.max(1))
            .map(|r| replica_seed(self.seed, r))
            .collect()
    }
}

/// Master seed of replica `r`: the configured seed itself for replica 0
/// (so single-replica runs are unchanged), an independent SplitMix64
/// derivation for the rest.
pub fn replica_seed(master: u64, replica: u32) -> u64 {
    if replica == 0 {
        return master;
    }
    // SplitMix64 output function over (master, replica) — statistically
    // independent streams without any shared state between replicas.
    let mut z = master.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(replica as u64));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run every item of a sweep through `f` on a pool of
/// [`RunConfig::worker_count`] worker threads, preserving input order in
/// the output.
///
/// Determinism: item `i` always computes `f(i, &items[i])` with no shared
/// state, and results are reassembled by index — so the output is
/// byte-identical for any thread count, including 1 (where the pool is
/// skipped entirely). Workers claim items from a shared atomic counter,
/// so an expensive item does not leave a whole stripe of the sweep on
/// one thread.
pub fn run_points<P, R, F>(cfg: &RunConfig, items: &[P], f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(usize, &P) -> R + Sync,
{
    let n = items.len();
    let workers = cfg.worker_count().min(n);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, p)| f(i, p)).collect();
    }
    let next = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i, &items[i])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, r) in per_worker.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every sweep item computed"))
        .collect()
}

/// Distribution statistics of one tagged session, pooled across replicas.
///
/// Histograms add bin-by-bin ([`DurationHistogram::merge`] /
/// [`OccupancyHistogram::merge`]); counters add; extrema take the max.
/// With one replica this is a plain copy of the session's stats.
#[derive(Clone, Debug)]
pub struct PooledSession {
    /// Total delivered packets across replicas.
    pub delivered: u64,
    /// Pooled end-to-end delay distribution.
    pub e2e: DurationHistogram,
    /// Pooled co-simulated reference-server distribution.
    pub reference: DurationHistogram,
    /// Pooled first-hop buffer occupancy.
    pub buffer_first: OccupancyHistogram,
    /// Pooled last-hop buffer occupancy.
    pub buffer_last: OccupancyHistogram,
    /// Largest `D_i − D_i^ref` (signed ps) over all replicas.
    pub max_excess_ps: i128,
}

impl PooledSession {
    /// Snapshot one session's stats from one finished run.
    pub fn from_stats(st: &SessionStats) -> Self {
        let last = st.buffer.len() - 1;
        PooledSession {
            delivered: st.delivered,
            e2e: st.e2e.clone(),
            reference: st.reference.clone(),
            buffer_first: st.buffer[0].clone(),
            buffer_last: st.buffer[last].clone(),
            max_excess_ps: st.max_excess_ps,
        }
    }

    /// Pool another replica's snapshot into this one.
    pub fn absorb(&mut self, other: &PooledSession) {
        self.delivered += other.delivered;
        self.e2e.merge(&other.e2e);
        self.reference.merge(&other.reference);
        self.buffer_first.merge(&other.buffer_first);
        self.buffer_last.merge(&other.buffer_last);
        self.max_excess_ps = self.max_excess_ps.max(other.max_excess_ps);
    }

    /// Pool a whole replica set (one snapshot per replica, `≥ 1`).
    pub fn pool(mut snapshots: Vec<PooledSession>) -> PooledSession {
        let mut first = snapshots.remove(0);
        for s in &snapshots {
            first.absorb(s);
        }
        first
    }

    /// Largest pooled end-to-end delay.
    pub fn max_delay(&self) -> Option<Duration> {
        self.e2e.max()
    }

    /// Pooled jitter (max − min delay).
    pub fn jitter(&self) -> Option<Duration> {
        self.e2e.spread()
    }

    /// Pooled mean delay.
    pub fn mean_delay(&self) -> Option<Duration> {
        self.e2e.mean()
    }
}

/// The a_OFF sweep of Figures 7 and 14–17, in milliseconds (§3: "the same
/// as the ones used in \[25\]").
pub const A_OFF_SWEEP_US: [u64; 7] = [6_500, 18_500, 39_100, 88_000, 150_900, 288_000, 650_000];

/// Statistics sizing used by the delay-distribution experiments.
pub fn fine_stats() -> StatsConfig {
    StatsConfig {
        delay_bin: Duration::from_us(250),
        delay_bins: 8_000, // 2 s of delay headroom
        buffer_bin_bits: ATM_CELL_BITS as u64,
        buffer_bins: 512,
        delivery_log_cap: 0,
    }
}

/// Finish a Leave-in-Time network build, arming the conformance oracle at
/// the process-global mode (the CLI's `--oracle` flag, default off) and
/// installing every session's paper bounds so the pathwise delay, jitter,
/// and CCDF checks run alongside the experiment.
pub fn finish_lit(b: NetworkBuilder) -> Network {
    finish_with_oracle(b, &LitDiscipline::factory())
}

/// [`finish_lit`] with an explicit factory — for call sites that already
/// hold a Leave-in-Time factory by another name. The oracle's invariants
/// are LiT's; do not use this with baseline disciplines.
///
/// Also attaches the process-global observability probe when the CLI's
/// `--metrics` / `--trace` flags armed `lit_obs::hub` — every replica of
/// every experiment then submits its shard and trace ring to the hub.
pub fn finish_with_oracle(b: NetworkBuilder, factory: &DisciplineFactory<'_>) -> Network {
    let mode = lit_net::oracle::global_mode();
    let mut b = b.oracle(OracleConfig::new(mode));
    if let Some(p) = lit_obs::hub::global_probe() {
        b = b.probe(p);
    }
    let mut net = b.build(factory);
    if mode != OracleMode::Off {
        install_oracle_bounds(&mut net);
    }
    net
}

/// Build the MIX configuration, all sessions ON-OFF with the given mean
/// OFF time, under admission control procedure 1 with one class
/// (`d = L/r`). Returns the network and the tagged five-hop session.
pub fn build_mix_one_class(a_off: Duration, seed: u64) -> (Network, SessionId) {
    let mut b = NetworkBuilder::new().seed(seed).stats(fine_stats());
    let nodes = paper_tandem(&mut b);
    let mut admission: Vec<ClassedAdmission> = nodes
        .iter()
        .map(|_| ClassedAdmission::one_class(T1_BPS))
        .collect();
    let req = SessionRequest::new(VOICE_BPS, ATM_CELL_BITS);
    let mut tagged = None;
    for (route, count) in mix_routes() {
        for k in 0..count {
            let hops: Vec<(u32, DelayAssignment)> = route
                .node_indices()
                .map(|n| {
                    let a = admission[n]
                        .try_admit(0, &req, DRule::PerPacket)
                        .expect("MIX exactly fills every link; admission must pass");
                    (nodes[n].0, a)
                })
                .collect();
            let src = OnOffSource::new(OnOffConfig::paper_voice(a_off));
            let id = b.add_session_with_hops(
                SessionSpec::atm(SessionId(0), VOICE_BPS),
                hops,
                Box::new(src),
            );
            if route == five_hop() && k == 0 {
                tagged = Some(id);
            }
        }
    }
    let net = finish_lit(b);
    (net, tagged.expect("MIX contains the five-hop route"))
}

/// The four tagged five-hop sessions of Figures 14–17.
#[derive(Clone, Copy, Debug)]
pub struct Ac2Tagged {
    /// Class 1, without delay-jitter control (Fig. 14).
    pub class1_nojc: SessionId,
    /// Class 1, with delay-jitter control (Fig. 15).
    pub class1_jc: SessionId,
    /// Class 2, without delay-jitter control (Fig. 16).
    pub class2_nojc: SessionId,
    /// Class 2, with delay-jitter control (Fig. 17).
    pub class2_jc: SessionId,
}

/// The paper's two-class AC2 configuration: class 1 (R₁ = 640 kbit/s,
/// σ₁ = 2.77 ms) and class 2 (R₂ = C, σ₂ = 13.25 ms).
pub fn ac2_two_classes() -> Vec<DelayClass> {
    vec![
        DelayClass {
            max_bandwidth_bps: 640_000,
            base_delay: Duration::from_us(2_770),
        },
        DelayClass {
            max_bandwidth_bps: T1_BPS,
            base_delay: Duration::from_us(13_250),
        },
    ]
}

/// Build the MIX configuration under admission control procedure 2 with
/// two classes (Figures 14–17): class 1 holds 5 five-hop (`a-j`) and 5
/// four-hop (`a-i`) sessions with `d = 2.77 ms`; everything else is
/// class 2 with `d ≈ 18.77 ms`. Among the class-1 and class-2 five-hop
/// sessions, one of each is given delay-jitter control.
pub fn build_mix_ac2(a_off: Duration, seed: u64) -> (Network, Ac2Tagged) {
    build_mix_classed(a_off, seed, Procedure::Proc2)
}

/// [`build_mix_ac2`] generalized over the admission procedure. The paper
/// reports having run Figures 14–17 under procedure 1 as well, observing
/// that procedure 2 gives class-1 sessions a lower bound; this builder
/// regenerates both variants from the same class ladder.
pub fn build_mix_classed(a_off: Duration, seed: u64, procedure: Procedure) -> (Network, Ac2Tagged) {
    let mut b = NetworkBuilder::new().seed(seed).stats(fine_stats());
    let nodes = paper_tandem(&mut b);
    let mut admission: Vec<ClassedAdmission> = nodes
        .iter()
        .map(|_| {
            ClassedAdmission::new(procedure, T1_BPS, ac2_two_classes())
                .expect("paper class configuration is valid")
        })
        .collect();
    let req = SessionRequest::new(VOICE_BPS, ATM_CELL_BITS);
    let mut ids: Vec<(String, usize, SessionId)> = Vec::new();
    for (route, count) in mix_routes() {
        for k in 0..count {
            // Class membership: first 5 sessions of a-j and of a-i.
            let class = if (route == five_hop() || route.name() == "a-i") && k < 5 {
                0
            } else {
                1
            };
            // Jitter control for two of the tagged five-hop sessions.
            let jc = route == five_hop() && (k == 1 || k == 6);
            let hops: Vec<(u32, DelayAssignment)> = route
                .node_indices()
                .map(|n| {
                    let a = admission[n]
                        .try_admit(class, &req, DRule::PerSessionMax)
                        .expect("paper AC2 configuration satisfies all tests");
                    (nodes[n].0, a)
                })
                .collect();
            let mut spec = SessionSpec::atm(SessionId(0), VOICE_BPS);
            spec.jitter_control = jc;
            let src = OnOffSource::new(OnOffConfig::paper_voice(a_off));
            let id = b.add_session_with_hops(spec, hops, Box::new(src));
            ids.push((route.name(), k, id));
        }
    }
    let find = |k: usize| {
        ids.iter()
            .find(|(r, kk, _)| r == "a-j" && *kk == k)
            .expect("tagged session exists")
            .2
    };
    let tagged = Ac2Tagged {
        class1_nojc: find(0),
        class1_jc: find(1),
        class2_nojc: find(5),
        class2_jc: find(6),
    };
    let net = finish_lit(b);
    (net, tagged)
}

/// Build the CROSS configuration of Figures 8/12/13: two tagged five-hop
/// ON-OFF sessions (a_OFF = 650 ms; the second with jitter control) plus
/// one 1472 kbit/s Poisson session per one-hop cross route
/// (a_P = 0.28804 ms). One-class admission. Returns
/// `(network, no_jc, jc)`.
pub fn build_cross_onoff(seed: u64) -> (Network, SessionId, SessionId) {
    build_cross_onoff_queued(seed, QueueKind::Exact)
}

/// [`build_cross_onoff`] with an explicit eligible-queue implementation —
/// the knob of the approximate-priority-queue ablation.
pub fn build_cross_onoff_queued(seed: u64, queue: QueueKind) -> (Network, SessionId, SessionId) {
    let mut b = NetworkBuilder::new()
        .seed(seed)
        .stats(fine_stats())
        .queue_kind(queue);
    let nodes = paper_tandem(&mut b);
    let mut admission: Vec<ClassedAdmission> = nodes
        .iter()
        .map(|_| ClassedAdmission::one_class(T1_BPS))
        .collect();
    let add = |b: &mut NetworkBuilder,
               admission: &mut Vec<ClassedAdmission>,
               route: crate::topology::Route,
               rate: u64,
               jc: bool,
               src: Box<dyn lit_traffic::Source>| {
        let req = SessionRequest::new(rate, ATM_CELL_BITS);
        let hops: Vec<(u32, DelayAssignment)> = route
            .node_indices()
            .map(|n| {
                let a = admission[n]
                    .try_admit(0, &req, DRule::PerPacket)
                    .expect("CROSS fills links exactly; admission must pass");
                (nodes[n].0, a)
            })
            .collect();
        let mut spec = SessionSpec::atm(SessionId(0), rate);
        spec.jitter_control = jc;
        b.add_session_with_hops(spec, hops, src)
    };
    let onoff = || {
        Box::new(OnOffSource::new(OnOffConfig::paper_voice(
            Duration::from_ms(650),
        ))) as Box<dyn lit_traffic::Source>
    };
    let no_jc = add(
        &mut b,
        &mut admission,
        five_hop(),
        VOICE_BPS,
        false,
        onoff(),
    );
    let jc = add(&mut b, &mut admission, five_hop(), VOICE_BPS, true, onoff());
    for route in cross_routes() {
        let src = Box::new(PoissonSource::new(
            // lit-lint: allow(raw-time-arithmetic, "paper's Table 1 gives mean gaps in fractional milliseconds; one rounding at config build, sub-ps error")
            Duration::from_secs_f64(0.28804e-3),
            ATM_CELL_BITS,
        ));
        add(&mut b, &mut admission, route, 1_472_000, false, src);
    }
    // A bucketed eligible queue deliberately approximates deadline order,
    // so the oracle's exactness invariants do not apply to the ablation
    // arms — only the exact queue runs under the oracle.
    let net = if queue == QueueKind::Exact {
        finish_lit(b)
    } else {
        b.build(&LitDiscipline::factory())
    };
    (net, no_jc, jc)
}

/// The cross-traffic flavor of the tagged-Poisson experiments.
#[derive(Clone, Copy, Debug)]
pub enum CrossTraffic {
    /// One Poisson session per one-hop route (Figs. 9 and 10).
    Poisson {
        /// Reserved rate of each cross session.
        rate_bps: u64,
        /// Mean interarrival time `a_P`.
        mean_gap: Duration,
    },
    /// `count` phase-staggered 32 kbit/s CBR sessions per one-hop route
    /// (Fig. 11).
    Deterministic {
        /// Sessions per cross route.
        count: usize,
    },
}

/// Build the CROSS configuration with one tagged five-hop **Poisson**
/// session (rate `rate_bps`, mean gap `mean_gap`) and the given cross
/// traffic (Figures 9–11). Returns `(network, tagged)`.
pub fn build_cross_poisson(
    rate_bps: u64,
    mean_gap: Duration,
    cross: CrossTraffic,
    seed: u64,
) -> (Network, SessionId) {
    let mut b = NetworkBuilder::new().seed(seed).stats(fine_stats());
    let nodes = paper_tandem(&mut b);
    let mut admission: Vec<ClassedAdmission> = nodes
        .iter()
        .map(|_| ClassedAdmission::one_class(T1_BPS))
        .collect();
    let add = |b: &mut NetworkBuilder,
               admission: &mut Vec<ClassedAdmission>,
               route: crate::topology::Route,
               rate: u64,
               src: Box<dyn lit_traffic::Source>| {
        let req = SessionRequest::new(rate, ATM_CELL_BITS);
        let hops: Vec<(u32, DelayAssignment)> = route
            .node_indices()
            .map(|n| {
                let a = admission[n]
                    .try_admit(0, &req, DRule::PerPacket)
                    .expect("CROSS rates fit the links; admission must pass");
                (nodes[n].0, a)
            })
            .collect();
        b.add_session_with_hops(SessionSpec::atm(SessionId(0), rate), hops, src)
    };
    let tagged = add(
        &mut b,
        &mut admission,
        five_hop(),
        rate_bps,
        Box::new(PoissonSource::new(mean_gap, ATM_CELL_BITS)),
    );
    for route in cross_routes() {
        match cross {
            CrossTraffic::Poisson { rate_bps, mean_gap } => {
                let src = Box::new(PoissonSource::new(mean_gap, ATM_CELL_BITS));
                add(&mut b, &mut admission, route, rate_bps, src);
            }
            CrossTraffic::Deterministic { count } => {
                for _ in 0..count {
                    // All CBR sessions share the same phase (they all
                    // start at connection time), so each frame delivers
                    // one aligned 47-packet batch — the worst case the
                    // paper's Figure 11 exercises, where the bound tightens
                    // against the observation.
                    let src = Box::new(DeterministicSource::paper_cbr());
                    add(&mut b, &mut admission, route, VOICE_BPS, src);
                }
            }
        }
    }
    let net = finish_lit(b);
    (net, tagged)
}

/// `PathBounds` for a session in a network, plus the token-bucket
/// reference bound `D^ref_max = b₀/r` for a one-cell-deep bucket (the
/// paper's ON-OFF and CBR sessions emit at most one cell per `L/r`).
pub fn voice_bounds(net: &Network, id: SessionId) -> (PathBounds, Duration) {
    let pb = PathBounds::for_session(net, id);
    let dref = Duration::from_bits_at_rate(ATM_CELL_BITS as u64, net.session_spec(id).rate_bps);
    (pb, dref)
}

/// Worst scheduler lateness across all nodes, as a fraction of `L_MAX/C`
/// — the saturation diagnostic. Leave-in-Time guarantees the value stays
/// below 1.
pub fn max_lateness_fraction(net: &Network) -> f64 {
    let lmax = lit_net::LinkParams::paper_t1().lmax_time().as_ps() as f64;
    (0..net.num_nodes())
        .filter_map(|n| net.node_stats(lit_net::NodeId(n as u32)).max_lateness())
        .map(|l| l as f64 / lmax)
        .fold(f64::NEG_INFINITY, f64::max)
}
