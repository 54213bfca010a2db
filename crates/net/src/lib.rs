//! # lit-net — packet-switching network substrate
//!
//! The simulated network the paper's evaluation runs on: server nodes with
//! one outgoing link each, fixed routes, connection-oriented sessions, and
//! a pluggable per-node [`Discipline`] (Leave-in-Time lives in `lit-core`;
//! FCFS, VirtualClock, WFQ, SCFQ and Stop-and-Go in `lit-baselines`).
//!
//! ```
//! use lit_net::{LinkParams, NetworkBuilder, SessionSpec, SessionId};
//! # use lit_net::{Discipline, DelayAssignment, Packet, ScheduleDecision};
//! # use lit_sim::Time;
//! # struct Fifo;
//! # impl Discipline for Fifo {
//! #     fn name(&self) -> &'static str { "fifo" }
//! #     fn register_session(&mut self, _: &SessionSpec, _: &DelayAssignment) {}
//! #     fn on_arrival(&mut self, pkt: &mut Packet, now: Time) -> ScheduleDecision {
//! #         pkt.deadline = now;
//! #         ScheduleDecision::at(now, now)
//! #     }
//! #     fn on_departure(&mut self, _: &mut Packet, _: Time) {}
//! # }
//! use lit_traffic::DeterministicSource;
//!
//! let mut b = NetworkBuilder::new().seed(1);
//! let nodes = b.tandem(5, LinkParams::paper_t1());
//! let sid = b.add_session(
//!     SessionSpec::atm(SessionId(0), 32_000),
//!     &nodes,
//!     Box::new(DeterministicSource::paper_cbr()),
//! );
//! let mut net = b.build(&|_link| Box::new(Fifo));
//! net.run_until(Time::from_secs(10));
//! assert!(net.session_stats(sid).delivered > 700);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod arena;
mod discipline;
mod equeue;
mod network;
pub mod oracle;
mod packet;
mod spec;
mod stats;
mod table;

pub use arena::{PacketArena, PacketRef};
pub use discipline::{
    clear_global_regulator, global_regulator, set_global_regulator, Discipline, DisciplineFactory,
    RegulatorBackend, ScheduleDecision,
};
pub use equeue::QueueKind;
pub use lit_obs::{NoopProbe, ObsProbe, PacketView, Probe};
pub use lit_sim::EventBackend;
pub use network::{Network, NetworkBuilder};
pub use oracle::{OracleConfig, OracleMode, OracleTotals, SessionBounds, ViolationKind};
pub use packet::{NodeId, Packet, SessionId};
pub use spec::{DelayAssignment, DelayCoeffs, LinkParams, SessionSpec};
pub use stats::{DeliveryRecord, NodeStats, OccupancyHistogram, SessionStats, StatsConfig};
pub use table::{IdSlab, SessionTable};

#[cfg(test)]
mod tests {
    use super::*;
    use lit_sim::{Duration, Time};
    use lit_traffic::{DeterministicSource, PoissonSource, TraceSource};

    /// Plain FCFS used to exercise the executor machinery.
    struct Fifo {
        /// Optional fixed regulator hold, to exercise the eligibility path.
        hold: Duration,
        /// Deadline slack past eligibility. `fifo_factory` uses zero, which
        /// leaves every finish exactly at the lateness allowance; oracle
        /// tests pick nonzero slack to place packets on either side of it.
        slack: Duration,
    }

    impl Discipline for Fifo {
        fn name(&self) -> &'static str {
            "test-fifo"
        }
        fn register_session(&mut self, _: &SessionSpec, _: &DelayAssignment) {}
        fn on_arrival(&mut self, pkt: &mut Packet, now: Time) -> ScheduleDecision {
            let eligible = now + self.hold;
            pkt.deadline = eligible + self.slack;
            ScheduleDecision::at(eligible, eligible)
        }
        fn on_departure(&mut self, _: &mut Packet, _: Time) {}
    }

    fn fifo_factory(hold: Duration) -> impl Fn(&LinkParams) -> Box<dyn Discipline> {
        slack_fifo_factory(hold, Duration::ZERO)
    }

    fn slack_fifo_factory(
        hold: Duration,
        slack: Duration,
    ) -> impl Fn(&LinkParams) -> Box<dyn Discipline> {
        move |_: &LinkParams| Box::new(Fifo { hold, slack }) as Box<dyn Discipline>
    }

    #[test]
    fn lone_cbr_session_sees_pure_service_delay() {
        // One 32 kbit/s CBR session alone on 5 T1 hops: every packet finds
        // idle links, so its delay is exactly 5·(L/C + Γ).
        let mut b = NetworkBuilder::new();
        let nodes = b.tandem(5, LinkParams::paper_t1());
        let sid = b.add_session(
            SessionSpec::atm(SessionId(0), 32_000),
            &nodes,
            Box::new(DeterministicSource::paper_cbr()),
        );
        let mut net = b.build(&fifo_factory(Duration::ZERO));
        net.run_until(Time::from_secs(30));

        let st = net.session_stats(sid);
        assert!(st.delivered > 2000, "delivered={}", st.delivered);
        let per_hop = LinkParams::paper_t1().lmax_time() + Duration::from_ms(1);
        let want = per_hop * 5;
        assert_eq!(st.max_delay(), Some(want));
        assert_eq!(st.e2e.min(), Some(want));
        assert_eq!(st.jitter(), Some(Duration::ZERO));
    }

    #[test]
    fn conservation_no_packet_lost_or_duplicated() {
        let mut b = NetworkBuilder::new().seed(7);
        let nodes = b.tandem(3, LinkParams::paper_t1());
        let mut sids = Vec::new();
        for _ in 0..10 {
            sids.push(b.add_session(
                SessionSpec::atm(SessionId(0), 100_000),
                &nodes,
                Box::new(PoissonSource::new(Duration::from_ms(8), 424)),
            ));
        }
        let mut net = b.build(&fifo_factory(Duration::ZERO));
        net.run_until(Time::from_secs(20));
        for &sid in &sids {
            let st = net.session_stats(sid);
            assert!(st.injected > 0);
            assert!(st.delivered <= st.injected);
            // Light load: nearly everything injected should have drained.
            assert!(st.injected - st.delivered < 5);
        }
    }

    #[test]
    fn regulator_hold_shifts_delay() {
        let mk = |hold_ms: u64| {
            let mut b = NetworkBuilder::new();
            let nodes = b.tandem(1, LinkParams::paper_t1());
            let sid = b.add_session(
                SessionSpec::atm(SessionId(0), 32_000),
                &nodes,
                Box::new(DeterministicSource::paper_cbr()),
            );
            let mut net = b.build(&fifo_factory(Duration::from_ms(hold_ms)));
            net.run_until(Time::from_secs(5));
            net.session_stats(sid).max_delay().unwrap()
        };
        assert_eq!(mk(3) - mk(0), Duration::from_ms(3));
    }

    #[test]
    fn fifo_order_among_equal_keys() {
        // Two packets arriving at the same instant must depart in arrival
        // (push) order.
        let mut b = NetworkBuilder::new();
        let nodes = b.tandem(1, LinkParams::paper_t1());
        let a = b.add_session(
            SessionSpec::atm(SessionId(0), 100_000),
            &nodes,
            Box::new(TraceSource::from_pairs([(Time::from_ms(1), 424)])),
        );
        let bsid = b.add_session(
            SessionSpec::atm(SessionId(0), 100_000),
            &nodes,
            Box::new(TraceSource::from_pairs([(Time::from_ms(1), 424)])),
        );
        let mut net = b.build(&fifo_factory(Duration::ZERO));
        net.run_until(Time::from_secs(1));
        let tx = LinkParams::paper_t1().lmax_time();
        let prop = Duration::from_ms(1);
        // Session a (injected first at the same instant) transmits first.
        assert_eq!(net.session_stats(a).max_delay(), Some(tx + prop));
        assert_eq!(net.session_stats(bsid).max_delay(), Some(tx + tx + prop));
    }

    #[test]
    fn buffer_occupancy_counts_packet_in_transmission() {
        // Two same-instant packets of one session: the second sample sees
        // both packets (848 bits) queued, per the paper's counting rule.
        let mut b = NetworkBuilder::new();
        let nodes = b.tandem(1, LinkParams::paper_t1());
        let sid = b.add_session(
            SessionSpec::atm(SessionId(0), 100_000),
            &nodes,
            Box::new(TraceSource::from_pairs([
                (Time::from_ms(1), 424),
                (Time::from_ms(1), 424),
            ])),
        );
        let mut net = b.build(&fifo_factory(Duration::ZERO));
        net.run_until(Time::from_secs(1));
        let st = net.session_stats(sid);
        assert_eq!(st.buffer[0].max_bits(), 848);
        assert_eq!(st.buffer[0].count(), 2);
    }

    #[test]
    fn reference_server_cosim_matches_eq1_by_hand() {
        // Arrivals at 0 ms and 1 ms, L = 424, r = 424 kbit/s ⇒ service
        // exactly 1 ms. W1 = 0+1 = 1 ms (delay 1 ms); W2 = max(1,1)+1 =
        // 2 ms (delay 1 ms).
        let mut b = NetworkBuilder::new();
        let nodes = b.tandem(1, LinkParams::paper_t1());
        let sid = b.add_session(
            SessionSpec::atm(SessionId(0), 424_000),
            &nodes,
            Box::new(TraceSource::from_pairs([
                (Time::ZERO, 424),
                (Time::from_ms(1), 424),
            ])),
        );
        let mut net = b.build(&fifo_factory(Duration::ZERO));
        net.run_until(Time::from_secs(1));
        let st = net.session_stats(sid);
        assert_eq!(st.reference.max(), Some(Duration::from_ms(1)));
        assert_eq!(st.reference.min(), Some(Duration::from_ms(1)));
        assert_eq!(st.reference.count(), 2);
    }

    #[test]
    fn utilization_reflects_offered_load() {
        let mut b = NetworkBuilder::new().seed(3);
        let nodes = b.tandem(1, LinkParams::paper_t1());
        // 24 CBR sessions at 32 kbit/s = half a T1.
        for i in 0..24u64 {
            b.add_session(
                SessionSpec::atm(SessionId(0), 32_000),
                &nodes,
                Box::new(DeterministicSource::paper_cbr().with_offset(Duration::from_us(i * 137))),
            );
        }
        let mut net = b.build(&fifo_factory(Duration::ZERO));
        let horizon = Time::from_secs(60);
        net.run_until(horizon);
        let u = net.node_stats(nodes[0]).utilization_at(horizon);
        assert!((u - 0.5).abs() < 0.01, "utilization={u}");
    }

    #[test]
    fn determinism_same_seed_same_results() {
        let run = |seed: u64| {
            let mut b = NetworkBuilder::new().seed(seed);
            let nodes = b.tandem(3, LinkParams::paper_t1());
            let mut sids = Vec::new();
            for _ in 0..8 {
                sids.push(b.add_session(
                    SessionSpec::atm(SessionId(0), 150_000),
                    &nodes,
                    Box::new(PoissonSource::new(Duration::from_ms(4), 424)),
                ));
            }
            let mut net = b.build(&fifo_factory(Duration::ZERO));
            net.run_until(Time::from_secs(10));
            sids.iter()
                .map(|&s| {
                    let st = net.session_stats(s);
                    (st.delivered, st.max_delay(), st.jitter())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn delivery_log_keeps_the_last_n_records() {
        let cfg = StatsConfig {
            delivery_log_cap: 3,
            ..Default::default()
        };
        let mut b = NetworkBuilder::new().stats(cfg);
        let nodes = b.tandem(1, LinkParams::paper_t1());
        let sid = b.add_session(
            SessionSpec::atm(SessionId(0), 32_000),
            &nodes,
            Box::new(DeterministicSource::paper_cbr()),
        );
        let mut net = b.build(&fifo_factory(Duration::ZERO));
        net.run_until(Time::from_secs(1));
        let st = net.session_stats(sid);
        assert!(st.delivered > 60);
        assert_eq!(st.deliveries.len(), 3, "ring capped");
        // The records are the *last* three deliveries, in order.
        let seqs: Vec<u64> = st.deliveries.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![st.delivered - 2, st.delivered - 1, st.delivered]);
        for r in &st.deliveries {
            assert_eq!(r.delay(), st.max_delay().unwrap()); // lone CBR: constant delay
            assert!(r.excess_ps() < 0); // delay < ref delay here (fast link)
        }
        // Off by default: no records without opting in.
        let mut b = NetworkBuilder::new();
        let nodes = b.tandem(1, LinkParams::paper_t1());
        let sid = b.add_session(
            SessionSpec::atm(SessionId(0), 32_000),
            &nodes,
            Box::new(DeterministicSource::paper_cbr()),
        );
        let mut net = b.build(&fifo_factory(Duration::ZERO));
        net.run_until(Time::from_secs(1));
        assert!(net.session_stats(sid).deliveries.is_empty());
    }

    #[test]
    fn incremental_horizons_equal_one_shot() {
        // run_until(10) then run_until(20) must equal run_until(20): the
        // executor's state carries over exactly.
        let build = || {
            let mut b = NetworkBuilder::new().seed(8);
            let nodes = b.tandem(3, LinkParams::paper_t1());
            let mut sids = Vec::new();
            for _ in 0..6 {
                sids.push(b.add_session(
                    SessionSpec::atm(SessionId(0), 200_000),
                    &nodes,
                    Box::new(PoissonSource::new(Duration::from_ms(3), 424)),
                ));
            }
            (b.build(&fifo_factory(Duration::ZERO)), sids)
        };
        let (mut a, sids) = build();
        a.run_until(Time::from_secs(10));
        a.run_until(Time::from_secs(20));
        let (mut b, _) = build();
        b.run_until(Time::from_secs(20));
        for &sid in &sids {
            let (x, y) = (a.session_stats(sid), b.session_stats(sid));
            assert_eq!(x.delivered, y.delivered);
            assert_eq!(x.max_delay(), y.max_delay());
            assert_eq!(x.jitter(), y.jitter());
        }
    }

    #[test]
    fn calendar_event_backend_matches_heap() {
        // The event-set engine is a pure performance knob: both backends
        // must pop the identical (time, seq) sequence, so a whole run —
        // regulator holds, contention, RNG draws and all — is bit-equal.
        let run = |backend: EventBackend| {
            let mut b = NetworkBuilder::new().seed(21).event_backend(backend);
            let nodes = b.tandem(3, LinkParams::paper_t1());
            let mut sids = Vec::new();
            for _ in 0..8 {
                sids.push(b.add_session(
                    SessionSpec::atm(SessionId(0), 150_000),
                    &nodes,
                    Box::new(PoissonSource::new(Duration::from_ms(4), 424)),
                ));
            }
            let mut net = b.build(&fifo_factory(Duration::from_us(30)));
            net.run_until(Time::from_secs(10));
            sids.iter()
                .map(|&s| {
                    let st = net.session_stats(s);
                    (st.delivered, st.max_delay(), st.jitter())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(EventBackend::Heap), run(EventBackend::Calendar));
    }

    #[test]
    fn wheel_event_backend_matches_heap() {
        // Same contract as the calendar test: the hierarchical timer wheel
        // must pop the identical (time, seq) sequence as the binary heap,
        // so whole runs are bit-equal.
        let run = |backend: EventBackend| {
            let mut b = NetworkBuilder::new().seed(34).event_backend(backend);
            let nodes = b.tandem(3, LinkParams::paper_t1());
            let mut sids = Vec::new();
            for _ in 0..8 {
                sids.push(b.add_session(
                    SessionSpec::atm(SessionId(0), 150_000),
                    &nodes,
                    Box::new(PoissonSource::new(Duration::from_ms(4), 424)),
                ));
            }
            let mut net = b.build(&fifo_factory(Duration::from_us(30)));
            net.run_until(Time::from_secs(10));
            sids.iter()
                .map(|&s| {
                    let st = net.session_stats(s);
                    (st.delivered, st.max_delay(), st.jitter())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(EventBackend::Heap), run(EventBackend::Wheel));
    }

    #[test]
    fn tiny_bucket_queue_equals_exact() {
        // A 1-ps bucket quantizes nothing: the bucketed queue must behave
        // identically to the exact heap (both are FIFO among equal keys).
        let run = |kind: QueueKind| {
            let mut b = NetworkBuilder::new().seed(13).queue_kind(kind);
            let nodes = b.tandem(2, LinkParams::paper_t1());
            let mut sids = Vec::new();
            for _ in 0..5 {
                sids.push(b.add_session(
                    SessionSpec::atm(SessionId(0), 280_000),
                    &nodes,
                    Box::new(PoissonSource::new(Duration::from_us(1_800), 424)),
                ));
            }
            let mut net = b.build(&fifo_factory(Duration::ZERO));
            net.run_until(Time::from_secs(20));
            sids.iter()
                .map(|&s| {
                    let st = net.session_stats(s);
                    (st.delivered, st.max_delay(), st.jitter())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            run(QueueKind::Exact),
            run(QueueKind::Bucketed {
                bucket: Duration::from_ps(1)
            })
        );
    }

    #[test]
    fn oracle_clean_on_lone_regulated_session() {
        // A lone CBR session with a fixed hold exercises the Eligible
        // path: release-time and eligibility-order checks must all pass.
        let mut b = NetworkBuilder::new().oracle(OracleConfig::new(OracleMode::Count));
        let nodes = b.tandem(2, LinkParams::paper_t1());
        let sid = b.add_session(
            SessionSpec::atm(SessionId(0), 32_000),
            &nodes,
            Box::new(DeterministicSource::paper_cbr()),
        );
        let mut net = b.build(&slack_fifo_factory(
            Duration::from_ms(2),
            Duration::from_ms(10),
        ));
        net.run_until(Time::from_secs(10));
        assert!(net.session_stats(sid).delivered > 500);
        assert_eq!(net.oracle_drain_check(), 0);
        assert_eq!(net.oracle_violations(), 0);
    }

    #[test]
    fn oracle_counts_lateness_under_fifo_contention() {
        // Three same-instant packets with 500 µs of deadline slack on a T1
        // (tx = 276 µs): packet k finishes (k+1)·tx after eligibility, so
        // only seq 2 exceeds slack + allowance. One violation, exactly.
        let mut b = NetworkBuilder::new().oracle(OracleConfig::new(OracleMode::Count));
        let nodes = b.tandem(1, LinkParams::paper_t1());
        for _ in 0..3 {
            b.add_session(
                SessionSpec::atm(SessionId(0), 100_000),
                &nodes,
                Box::new(TraceSource::from_pairs([(Time::from_ms(1), 424)])),
            );
        }
        let mut net = b.build(&slack_fifo_factory(Duration::ZERO, Duration::from_us(500)));
        net.run_until(Time::from_secs(1));
        assert_eq!(net.oracle_totals().lateness, 1);
        assert_eq!(net.node_stats(nodes[0]).oracle_violations, 1);
    }

    #[test]
    fn oracle_flags_installed_bounds_and_drain_check() {
        // An impossible bound (negative shift) must trip the pathwise
        // delay check on every delivery and the drain-time CCDF check.
        let mut b = NetworkBuilder::new().oracle(OracleConfig::new(OracleMode::Count));
        let nodes = b.tandem(1, LinkParams::paper_t1());
        let sid = b.add_session(
            SessionSpec::atm(SessionId(0), 32_000),
            &nodes,
            Box::new(DeterministicSource::paper_cbr()),
        );
        let mut net = b.build(&fifo_factory(Duration::ZERO));
        net.set_session_bounds(
            sid,
            SessionBounds {
                shift_ps: -1_000_000_000_000,
                jitter_spread_ps: i128::MAX / 2, // jitter check stays quiet
            },
        );
        net.run_until(Time::from_secs(1));
        let delivered = net.session_stats(sid).delivered;
        assert!(delivered > 60);
        assert_eq!(net.oracle_totals().delay_bound, delivered);
        assert_eq!(net.oracle_drain_check(), 1);
        assert_eq!(net.oracle_totals().ccdf_bound, 1);
        assert_eq!(net.session_stats(sid).oracle_violations, delivered + 1);
    }

    #[test]
    #[should_panic(expected = "conformance oracle: delay-bound")]
    fn oracle_panic_mode_panics_with_kind() {
        let mut b = NetworkBuilder::new().oracle(OracleConfig::new(OracleMode::Panic));
        let nodes = b.tandem(1, LinkParams::paper_t1());
        let sid = b.add_session(
            SessionSpec::atm(SessionId(0), 32_000),
            &nodes,
            Box::new(DeterministicSource::paper_cbr()),
        );
        let mut net = b.build(&slack_fifo_factory(Duration::ZERO, Duration::from_ms(10)));
        net.set_session_bounds(
            sid,
            SessionBounds {
                shift_ps: i128::MIN / 2,
                jitter_spread_ps: i128::MAX / 2,
            },
        );
        net.run_until(Time::from_secs(1));
    }

    #[test]
    fn oracle_off_has_no_state_and_no_counts() {
        let mut b = NetworkBuilder::new();
        let nodes = b.tandem(1, LinkParams::paper_t1());
        let sid = b.add_session(
            SessionSpec::atm(SessionId(0), 32_000),
            &nodes,
            Box::new(DeterministicSource::paper_cbr()),
        );
        let mut net = b.build(&fifo_factory(Duration::ZERO));
        // Installing bounds with the oracle off is a documented no-op.
        net.set_session_bounds(sid, SessionBounds::default());
        net.run_until(Time::from_secs(1));
        assert_eq!(net.oracle_violations(), 0);
        assert_eq!(net.oracle_drain_check(), 0);
    }

    #[test]
    fn probe_observes_full_lifecycle_and_violations() {
        // A 2-hop regulated CBR session with an impossible delay bound:
        // the probe must see every arrival/dispatch/departure, one
        // holding sample per held packet, and the same violation count
        // the oracle records.
        let mut b = NetworkBuilder::new()
            .oracle(OracleConfig::new(OracleMode::Count))
            .probe(Box::new(ObsProbe::new(256)));
        let nodes = b.tandem(2, LinkParams::paper_t1());
        let sid = b.add_session(
            SessionSpec::atm(SessionId(0), 32_000),
            &nodes,
            Box::new(DeterministicSource::paper_cbr()),
        );
        let mut net = b.build(&slack_fifo_factory(
            Duration::from_ms(2),
            Duration::from_ms(10),
        ));
        net.set_session_bounds(sid, lit_net_bounds(-1_000_000_000_000, i128::MAX / 2));
        net.run_until(Time::from_secs(2));
        net.oracle_drain_check();
        let oracle_total = net.oracle_violations();
        let delivered = net.session_stats(sid).delivered;
        let transmitted: u64 = (0..2).map(|n| net.node_stats(NodeId(n)).transmitted).sum();

        let probe = net.take_probe().expect("probe installed");
        let obs = probe
            .as_any()
            .and_then(|a| a.downcast_ref::<ObsProbe>())
            .expect("ObsProbe downcasts");
        let s = &obs.shard;
        assert!(delivered > 100);
        assert_eq!(s.sessions[0].delivered, delivered);
        let node_departs: u64 = s.nodes.iter().map(|n| n.departures).sum();
        assert_eq!(node_departs, transmitted);
        let hop_dispatches: u64 = s.sessions[0].hops.iter().map(|h| h.dispatches).sum();
        assert_eq!(hop_dispatches, transmitted);
        // Every packet was held 2 ms at every hop it reached (a packet
        // still sitting in a regulator at the horizon has arrived but
        // not yet released, so held sits between dispatches and arrivals).
        let arrivals: u64 = s.nodes.iter().map(|n| n.arrivals).sum();
        let held: u64 = s.sessions[0].hops.iter().map(|h| h.held).sum();
        assert!(hop_dispatches <= held && held <= arrivals);
        assert_eq!(
            s.sessions[0].hops[0].holding_ps.max(),
            Duration::from_ms(2).as_ps()
        );
        assert_eq!(s.violation_total(), oracle_total);
        assert_eq!(
            s.violations.get(ViolationKind::DelayBound.label()).copied(),
            Some(delivered)
        );
        assert_eq!(
            s.violations.get(ViolationKind::CcdfBound.label()).copied(),
            Some(1)
        );
        // The trace saw exactly one event per recorded lifecycle stage.
        assert_eq!(
            obs.trace.total(),
            arrivals + held + hop_dispatches + node_departs + oracle_total
        );
    }

    fn lit_net_bounds(shift_ps: i128, jitter_spread_ps: i128) -> SessionBounds {
        SessionBounds {
            shift_ps,
            jitter_spread_ps,
        }
    }

    #[test]
    #[should_panic(expected = "route is empty")]
    fn empty_route_rejected() {
        let mut b = NetworkBuilder::new();
        b.add_session_with_hops(
            SessionSpec::atm(SessionId(0), 1000),
            vec![],
            Box::new(DeterministicSource::paper_cbr()),
        );
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn unknown_node_rejected() {
        let mut b = NetworkBuilder::new();
        b.add_session(
            SessionSpec::atm(SessionId(0), 1000),
            &[NodeId(5)],
            Box::new(DeterministicSource::paper_cbr()),
        );
    }
}
