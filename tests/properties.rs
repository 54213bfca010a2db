//! Property-based tests for the workspace's core invariants — DESIGN.md §6.
//!
//! Each property drives the real network executor with arbitrary traffic
//! and checks a theorem of the paper (or a structural invariant of the
//! implementation) on the outcome. Debug assertions inside the scheduler
//! (`A ≥ 0`, `F̂ < F + L_MAX/C`) are active here as well, so every run
//! doubles as a regulator-invariant check.
//!
//! Case count: `PROPTEST_CASES` env var (default 24; the nightly CI job
//! sets 256). A failing case prints its seed — replay with
//! `LIT_PROP_SEED=<seed>`. Regression seeds found by the differential
//! fuzz harness (`fuzz_diff`) get pinned via `check_with`.

#![forbid(unsafe_code)]

use leave_in_time::baselines::VirtualClockDiscipline;
use leave_in_time::core::{install_oracle_bounds, Ac3Admission, LitDiscipline, PathBounds};
use leave_in_time::net::{
    DelayAssignment, LinkParams, NetworkBuilder, OracleConfig, OracleMode, SessionId, SessionSpec,
};
use leave_in_time::prelude::*;
use leave_in_time::traffic::{ShapedSource, Source, TokenBucket, TraceSource};
use lit_prop::{check, Gen};

/// An arbitrary packet trace: cumulative arrival times (ps gaps up to
/// 50 ms) and lengths 1..=424 bits.
fn gen_trace(g: &mut Gen, max_len: usize) -> Vec<(Time, u32)> {
    let n = g.size(1, max_len);
    let mut t = Time::ZERO;
    (0..n)
        .map(|_| {
            t += Duration::from_ps(g.below(50_000_000_000));
            (t, g.range(1, 425) as u32)
        })
        .collect()
}

/// The paper's special-case claim: Leave-in-Time with one class,
/// `d = L/r`, and no jitter control *is* VirtualClock — for arbitrary
/// traffic, not just the paper's source models.
#[test]
fn lit_reduces_to_virtualclock() {
    check("lit_reduces_to_virtualclock", |g| {
        let n_traces = g.size(1, 4);
        let traces: Vec<Vec<(Time, u32)>> = (0..n_traces).map(|_| gen_trace(g, 40)).collect();
        let hops = g.size(1, 4);
        let run = |vc: bool| {
            let mut b = NetworkBuilder::new().seed(1);
            let nodes = b.tandem(hops, LinkParams::paper_t1());
            let n = traces.len();
            let mut ids = Vec::new();
            for (i, tr) in traces.iter().enumerate() {
                let rate = 1_536_000 / n as u64 / (i as u64 + 1);
                ids.push(b.add_session(
                    SessionSpec::atm(SessionId(0), rate),
                    &nodes,
                    Box::new(TraceSource::from_pairs(tr.clone())),
                ));
            }
            let mut net = if vc {
                b.build(&|_: &LinkParams| Box::new(VirtualClockDiscipline::new()))
            } else {
                b.build(&LitDiscipline::factory())
            };
            net.run_until(Time::from_secs(3_000));
            ids.into_iter()
                .map(|id| {
                    let st = net.session_stats(id);
                    (st.delivered, st.max_delay(), st.jitter(), st.mean_delay())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    });
}

/// Pathwise ineq. (12): for token-bucket-shaped arbitrary traffic,
/// every packet's end-to-end delay stays below
/// `b₀/r + β + α` — and the per-packet excess over the reference
/// server stays below `β + α`. The conformance oracle runs in `Panic`
/// mode throughout, so every regulator invariant is checked per packet.
#[test]
fn delay_bound_holds_for_shaped_arbitrary_traffic() {
    check("delay_bound_holds_for_shaped_arbitrary_traffic", |g| {
        let trace = gen_trace(g, 60);
        let cross = gen_trace(g, 60);
        let hops = g.size(1, 4);
        let rate = g.range(16_000, 400_000);
        let depth_cells = g.range(1, 6);
        let jc = g.bool();
        let b0 = depth_cells * 424;
        let mut b = NetworkBuilder::new()
            .seed(2)
            .oracle(OracleConfig::new(OracleMode::Panic));
        let nodes = b.tandem(hops, LinkParams::paper_t1());
        let mut spec = SessionSpec::atm(SessionId(0), rate);
        spec.jitter_control = jc;
        spec.min_len_bits = 1; // traces carry lengths in 1..=424
        let tagged = b.add_session(
            spec,
            &nodes,
            Box::new(ShapedSource::new(TraceSource::from_pairs(trace), rate, b0)),
        );
        // Arbitrary (unshaped, possibly misbehaving) cross traffic with
        // the remaining reservation.
        let cross_rate = 1_536_000 - rate;
        b.add_session(
            SessionSpec::atm(SessionId(0), cross_rate),
            &nodes,
            Box::new(TraceSource::from_pairs(cross)),
        );
        let mut net = b.build(&LitDiscipline::factory());
        install_oracle_bounds(&mut net);
        net.run_until(Time::from_secs(3_000));

        let st = net.session_stats(tagged);
        assert!(st.delivered > 0);
        let pb = PathBounds::for_session(&net, tagged);
        let bound = pb.delay_bound_token_bucket(b0);
        assert!(
            st.max_delay().unwrap() < bound,
            "max {} !< bound {}",
            st.max_delay().unwrap(),
            bound
        );
        assert!(st.max_excess().unwrap() < pb.shift_ps());
        // Scheduler saturation is impossible under valid reservations.
        for n in 0..net.num_nodes() {
            if let Some(l) = net.node_stats(lit_net::NodeId(n as u32)).max_lateness() {
                assert!(
                    l < LinkParams::paper_t1().lmax_time().as_ps() as i128,
                    "lateness {l}"
                );
            }
        }
        assert_eq!(net.oracle_violations(), 0);
    });
}

/// Jitter bound (ineq. 17) for shaped traffic, with and without
/// delay-jitter control.
#[test]
fn jitter_bound_holds_for_shaped_arbitrary_traffic() {
    check("jitter_bound_holds_for_shaped_arbitrary_traffic", |g| {
        let trace = gen_trace(g, 60);
        let cross = gen_trace(g, 60);
        let hops = g.size(2, 5);
        let jc = g.bool();
        let (rate, b0) = (32_000u64, 424u64);
        let mut b = NetworkBuilder::new().seed(3);
        let nodes = b.tandem(hops, LinkParams::paper_t1());
        let mut spec = SessionSpec::atm(SessionId(0), rate);
        spec.jitter_control = jc;
        spec.min_len_bits = 1; // traces carry lengths in 1..=424
        let tagged = b.add_session(
            spec,
            &nodes,
            Box::new(ShapedSource::new(TraceSource::from_pairs(trace), rate, b0)),
        );
        b.add_session(
            SessionSpec::atm(SessionId(0), 1_400_000),
            &nodes,
            Box::new(TraceSource::from_pairs(cross)),
        );
        let mut net = b.build(&LitDiscipline::factory());
        net.run_until(Time::from_secs(3_000));
        let st = net.session_stats(tagged);
        assert!(st.delivered > 0);
        let pb = PathBounds::for_session(&net, tagged);
        let dref = Duration::from_bits_at_rate(b0, rate);
        let bound = pb.jitter_bound(dref, jc);
        assert!(
            st.jitter().unwrap() < bound,
            "jitter {} !< bound {} (jc={jc})",
            st.jitter().unwrap(),
            bound
        );
    });
}

/// Buffer bounds hold per hop for shaped traffic.
#[test]
fn buffer_bounds_hold_for_shaped_arbitrary_traffic() {
    check("buffer_bounds_hold_for_shaped_arbitrary_traffic", |g| {
        let trace = gen_trace(g, 60);
        let hops = g.size(1, 5);
        let depth_cells = g.range(1, 6);
        let (rate, b0) = (64_000u64, depth_cells * 424);
        let mut b = NetworkBuilder::new().seed(4);
        let nodes = b.tandem(hops, LinkParams::paper_t1());
        let mut spec = SessionSpec::atm(SessionId(0), rate);
        spec.min_len_bits = 1; // traces carry lengths in 1..=424
        let tagged = b.add_session(
            spec,
            &nodes,
            Box::new(ShapedSource::new(TraceSource::from_pairs(trace), rate, b0)),
        );
        let mut net = b.build(&LitDiscipline::factory());
        net.run_until(Time::from_secs(3_000));
        let st = net.session_stats(tagged);
        let pb = PathBounds::for_session(&net, tagged);
        let dref = Duration::from_bits_at_rate(b0, rate);
        for hop in 0..hops {
            assert!(
                st.buffer[hop].max_bits() <= pb.buffer_bound_bits(dref, hop, false),
                "hop {hop}: {} > {}",
                st.buffer[hop].max_bits(),
                pb.buffer_bound_bits(dref, hop, false)
            );
        }
    });
}

/// The token-bucket shaper's output always conforms to its bucket.
#[test]
fn shaper_output_conforms() {
    check("shaper_output_conforms", |g| {
        let trace = gen_trace(g, 80);
        let rate = g.range(1_000, 2_000_000);
        let depth_cells = g.range(1, 8);
        let b0 = depth_cells * 424;
        let mut shaped = ShapedSource::new(TraceSource::from_pairs(trace), rate, b0);
        let mut checker = TokenBucket::new(rate, b0);
        let mut rng = SimRng::seed_from(0);
        let mut prev = Time::ZERO;
        while let Some(e) = shaped.next_emission(&mut rng) {
            assert!(e.at >= prev, "shaper reordered");
            prev = e.at;
            assert!(checker.try_consume(e.at, e.len_bits));
        }
    });
}

/// After any sequence of successful AC3 admissions, re-checking
/// ineq. (19) from scratch over *every* non-empty subset still passes
/// (the incremental candidate-only test loses nothing).
#[test]
fn ac3_incremental_equals_exhaustive() {
    check("ac3_incremental_equals_exhaustive", |g| {
        let n_reqs = g.size(1, 8);
        let reqs: Vec<(u64, u32)> = (0..n_reqs)
            .map(|_| (g.range(8_000, 400_000), g.range(1, 60) as u32))
            .collect();
        let c = 1_536_000u64;
        let mut ac = Ac3Admission::new(c);
        let mut admitted: Vec<(u64, u32, Duration)> = Vec::new();
        for (rate, d_ms) in reqs {
            let d = Duration::from_ms(d_ms as u64);
            if ac.try_admit(rate, 424, d).is_ok() {
                admitted.push((rate, 424, d));
            }
        }
        // From-scratch exhaustive re-check.
        let n = admitted.len();
        for mask in 1u64..(1 << n) {
            let (mut sl, mut sr, mut srd) = (0u128, 0u128, 0u128);
            for (i, (rate, len, d)) in admitted.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    sl += *len as u128;
                    sr += *rate as u128;
                    srd += *rate as u128 * d.as_ps() as u128;
                }
            }
            assert!(
                c as u128 * srd >= sl * sr * lit_sim::PS_PER_SEC as u128,
                "subset {mask:#b} infeasible after the fact"
            );
        }
    });
}

/// Histograms: ccdf_at is monotone non-increasing and dominates the
/// bin-edge CCDF; quantiles bracket the extrema.
#[test]
fn histogram_invariants() {
    check("histogram_invariants", |g| {
        use leave_in_time::analysis::DurationHistogram;
        let n_samples = g.size(1, 300);
        let samples: Vec<u64> = (0..n_samples).map(|_| g.below(2_000_000_000)).collect();
        let mut h = DurationHistogram::new(Duration::from_us(100), 1000);
        for &s in &samples {
            h.record(Duration::from_ps(s * 1000));
        }
        let mut prev = f64::INFINITY;
        for i in 0..100 {
            let t = Duration::from_us(i * 25);
            let c = h.ccdf_at(t);
            assert!(c <= prev + 1e-12);
            assert!((0.0..=1.0).contains(&c));
            prev = c;
        }
        for &(edge, frac) in h.ccdf().iter() {
            // ccdf() evaluates *after* the bin; ccdf_at at the same point
            // must dominate (it refuses to exclude the boundary bin).
            assert!(h.ccdf_at(edge - Duration::from_ps(1)) + 1e-12 >= frac);
        }
        assert!(h.quantile(1.0).unwrap() >= h.max().unwrap());
        assert_eq!(h.count(), samples.len() as u64);
    });
}

/// Rule (1.3)-style `Linear` assignments (per-packet d with a class
/// base offset) keep every bound for variable-length shaped traffic.
/// This is the delay-shifting path the earlier properties (which use
/// `d = L/r`) never exercise: d may exceed L/r (a "donor" session in
/// a high class), and α is strictly positive.
#[test]
fn linear_assignment_bounds_hold() {
    check("linear_assignment_bounds_hold", |g| {
        let trace = gen_trace(g, 60);
        let cross = gen_trace(g, 60);
        let hops = g.size(1, 4);
        let base_us = g.below(20_000);
        let num_factor = g.range(1, 4); // slope numerator = factor · C
        let (rate, b0) = (48_000u64, 2 * 424u64);
        let c = 1_536_000u64;
        // d_i = L_i · (factor·C)/(r·C) + base = factor·L_i/r + base ≥ L_i/r.
        let assignment = DelayAssignment::Linear {
            num: num_factor * c,
            den: rate as u128 * c as u128,
            base: Duration::from_us(base_us),
        };
        let mut b = NetworkBuilder::new().seed(6);
        let nodes = b.tandem(hops, LinkParams::paper_t1());
        let mut spec = SessionSpec::atm(SessionId(0), rate);
        spec.min_len_bits = 1;
        spec.delay = assignment;
        let tagged = b.add_session(
            spec,
            &nodes,
            Box::new(ShapedSource::new(TraceSource::from_pairs(trace), rate, b0)),
        );
        b.add_session(
            SessionSpec::atm(SessionId(0), c - rate),
            &nodes,
            Box::new(TraceSource::from_pairs(cross)),
        );
        let mut net = b.build(&LitDiscipline::factory());
        net.run_until(Time::from_secs(3_000));
        let st = net.session_stats(tagged);
        assert!(st.delivered > 0);
        let pb = PathBounds::for_session(&net, tagged);
        assert!(pb.alpha_ps() >= 0, "slope >= 1/r means alpha >= 0");
        let bound = pb.delay_bound_token_bucket(b0);
        assert!(
            st.max_delay().unwrap() < bound,
            "max {} !< bound {}",
            st.max_delay().unwrap(),
            bound
        );
        assert!(st.max_excess().unwrap() < pb.shift_ps());
    });
}

/// The dense `Vec<u64>` histogram logic the paged bin store replaced,
/// kept as the reference model. Values and edges are plain `u64` units
/// (picoseconds for delays, bits for occupancy).
#[derive(Clone)]
struct DenseHist {
    w: u64,
    bins: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl DenseHist {
    fn new(w: u64, nbins: usize) -> Self {
        DenseHist {
            w,
            bins: vec![0; nbins],
            overflow: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn record(&mut self, x: u64) {
        self.count += 1;
        self.sum += x as u128;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        let idx = (x / self.w) as usize;
        if idx < self.bins.len() {
            self.bins[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    fn merge(&mut self, o: &DenseHist) {
        for (a, b) in self.bins.iter_mut().zip(&o.bins) {
            *a += b;
        }
        self.overflow += o.overflow;
        self.count += o.count;
        self.sum += o.sum;
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
    }

    fn nonempty(&self) -> Vec<(u64, u64)> {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u64 * self.w, c))
            .collect()
    }

    fn pdf(&self) -> Vec<(u64, f64)> {
        let n = self.count.max(1) as f64;
        self.nonempty()
            .into_iter()
            .map(|(e, c)| (e, c as f64 / n))
            .collect()
    }

    fn ccdf(&self) -> Vec<(u64, f64)> {
        if self.count == 0 {
            return Vec::new();
        }
        let n = self.count as f64;
        let mut remaining = self.count;
        let mut out = Vec::new();
        for (i, &c) in self.bins.iter().enumerate() {
            remaining -= c;
            if c > 0 || i == 0 {
                out.push(((i as u64 + 1) * self.w, remaining as f64 / n));
            }
            if remaining == 0 {
                break;
            }
        }
        if self.overflow > 0 {
            out.push((self.max, 0.0));
        }
        out
    }

    fn ccdf_at(&self, x: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let idx = (x / self.w) as usize;
        let below: u64 = self.bins.iter().take(idx.min(self.bins.len())).sum();
        (self.count - below) as f64 / self.count as f64
    }

    fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut cum = 0;
        for (i, &c) in self.bins.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(self.w * (i as u64 + 1));
            }
        }
        Some(self.max)
    }
}

/// The ineq.-16 drain check as it ran over dense bin slices.
fn dense_ccdf_shift_violation(
    e2e: &DenseHist,
    reference: &DenseHist,
    shift_ps: i128,
) -> Option<(i128, u64, u64)> {
    let w = e2e.w as i128;
    let (eb, rb) = (&e2e.bins, &reference.bins);
    let mut suffix = vec![e2e.overflow; eb.len() + 1];
    for k in (0..eb.len()).rev() {
        suffix[k] = suffix[k + 1] + eb[k];
    }
    let mut prefix = vec![0u64; rb.len() + 1];
    for m in 0..rb.len() {
        prefix[m + 1] = prefix[m] + rb[m];
    }
    for k in 0..eb.len() {
        let lhs = suffix[k + 1];
        if lhs == 0 {
            break;
        }
        let t = k as i128 * w - shift_ps;
        let rhs = if t < 0 {
            reference.count
        } else {
            reference.count - prefix[((t / w) as usize).min(rb.len())]
        };
        if lhs > rhs {
            return Some((k as i128 * w, lhs, rhs));
        }
    }
    None
}

/// Samples clustered around a few random bins (some past the last bin),
/// so histograms touch scattered pages and two histograms' page sets are
/// sometimes disjoint, sometimes overlapping. `shared` seeds one cluster
/// both sides of a merge use.
fn gen_clustered(g: &mut Gen, w: u64, nbins: usize, shared: u64) -> Vec<u64> {
    let clusters: Vec<u64> = (0..g.size(1, 4))
        .map(|_| {
            if g.bool() {
                shared
            } else {
                g.below(nbins as u64 + 80)
            }
        })
        .collect();
    (0..g.size(0, 200))
        .map(|_| {
            let bin = g
                .pick(&clusters)
                .saturating_add(g.below(5))
                .saturating_sub(2);
            bin * w + g.below(w)
        })
        .collect()
}

/// Paged delay and occupancy histograms answer every query exactly as
/// the dense reference does, before and after merges.
#[test]
fn paged_histograms_match_dense_reference() {
    use leave_in_time::analysis::DurationHistogram;
    use leave_in_time::net::oracle::ccdf_shift_violation;
    use leave_in_time::net::OccupancyHistogram;

    fn same_duration(h: &DurationHistogram, d: &DenseHist, probes: &[u64]) {
        let ps = |x: Duration| x.as_ps();
        assert_eq!(h.count(), d.count);
        assert_eq!(h.overflow_count(), d.overflow);
        assert_eq!(h.bin_counts().collect::<Vec<_>>(), d.bins);
        assert_eq!(h.max().map(ps), (d.count > 0).then_some(d.max));
        assert_eq!(h.min().map(ps), (d.count > 0).then_some(d.min));
        let mean = (d.count > 0).then(|| (d.sum / d.count as u128) as u64);
        assert_eq!(h.mean().map(ps), mean);
        let nonempty: Vec<_> = h.nonempty_bins().map(|(e, c)| (ps(e), c)).collect();
        assert_eq!(nonempty, d.nonempty());
        let pdf: Vec<_> = h.pdf().into_iter().map(|(e, f)| (ps(e), f)).collect();
        assert_eq!(pdf, d.pdf());
        let ccdf: Vec<_> = h.ccdf().into_iter().map(|(e, f)| (ps(e), f)).collect();
        assert_eq!(ccdf, d.ccdf());
        for &x in probes {
            assert_eq!(h.ccdf_at(Duration::from_ps(x)), d.ccdf_at(x));
        }
        for q in [1e-9, 0.25, 0.5, 0.9, 0.999, 1.0] {
            assert_eq!(h.quantile(q).map(ps), d.quantile(q));
        }
    }

    fn same_occupancy(h: &OccupancyHistogram, d: &DenseHist, probes: &[u64]) {
        assert_eq!(h.count(), d.count);
        assert_eq!(h.max_bits(), d.max);
        assert_eq!(h.pdf(), d.pdf());
        assert_eq!(h.ccdf(), d.ccdf());
        for &x in probes {
            assert_eq!(h.ccdf_at(x), d.ccdf_at(x));
        }
    }

    check("paged_histograms_match_dense_reference", |g| {
        let w = g.range(1, 2_000);
        let nbins = g.size(1, 700);
        let shared = g.below(nbins as u64 + 10);
        let probes: Vec<u64> = (0..8).map(|_| g.below((nbins as u64 + 90) * w)).collect();
        let sides: Vec<Vec<u64>> = (0..2).map(|_| gen_clustered(g, w, nbins, shared)).collect();

        let mut dur = Vec::new();
        let mut occ = Vec::new();
        let mut dense = Vec::new();
        for samples in &sides {
            let mut h = DurationHistogram::new(Duration::from_ps(w), nbins);
            let mut o = OccupancyHistogram::new(w, nbins);
            let mut d = DenseHist::new(w, nbins);
            for &x in samples {
                h.record(Duration::from_ps(x));
                o.record(x);
                d.record(x);
            }
            same_duration(&h, &d, &probes);
            same_occupancy(&o, &d, &probes);
            dur.push(h);
            occ.push(o);
            dense.push(d);
        }

        for _ in 0..4 {
            let shift = g.below((nbins as u64 + 90) * w) as i128 - (20 * w) as i128;
            assert_eq!(
                ccdf_shift_violation(&dur[0], &dur[1], shift),
                dense_ccdf_shift_violation(&dense[0], &dense[1], shift)
            );
        }

        let (mut h, mut o, mut d) = (dur[0].clone(), occ[0].clone(), dense[0].clone());
        h.merge(&dur[1]);
        o.merge(&occ[1]);
        d.merge(&dense[1]);
        same_duration(&h, &d, &probes);
        same_occupancy(&o, &d, &probes);
        let shift = g.below(nbins as u64 * w) as i128;
        assert_eq!(
            ccdf_shift_violation(&h, &dur[1], shift),
            dense_ccdf_shift_violation(&d, &dense[1], shift)
        );
    });
}
