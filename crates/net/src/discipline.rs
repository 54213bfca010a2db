//! The service-discipline interface every scheduler implements.
//!
//! A [`Discipline`] instance is created *per node* and sees three moments
//! in each packet's life at that node:
//!
//! 1. **arrival** of the packet's last bit — the discipline decides when
//!    the packet becomes *eligible* (it may be held in a delay regulator
//!    until then) and with what *priority key* it will compete for the
//!    link once eligible;
//! 2. **departure** (last bit transmitted) — the discipline may stamp
//!    header fields consumed by the next hop (Leave-in-Time stamps the
//!    holding time `A`, eq. 9);
//! 3. **registration** at connection-establishment time, where it learns
//!    the session's reserved rate and service parameters.
//!
//! The node machinery (in [`crate::Network`]) owns the regulator timers and
//! the eligible queue; the discipline owns only per-session scheduling
//! state. Eligible packets are served in increasing key order, ties broken
//! FIFO — the paper's "ties are ordered arbitrarily" made deterministic.

use crate::packet::{Packet, SessionId};
use crate::spec::{DelayAssignment, LinkParams, SessionSpec};
use lit_sim::Time;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};

/// How each node realizes the delay regulator that holds ahead-of-schedule
/// packets until their eligibility instant.
///
/// The paper's construction ([`RegulatorBackend::PerSession`]) gives every
/// session its own conceptual regulator: packets of different sessions are
/// released independently, each exactly at its own eligibility time `E`.
/// The TSN Asynchronous Traffic Shaping alternative
/// ([`RegulatorBackend::Interleaved`]) shares **one FIFO per node** among
/// all jitter-controlled sessions: only the head packet's eligibility gates
/// release, so a packet can additionally wait behind earlier-queued packets
/// of *other* sessions (the head-of-line coupling analyzed by Thomas & Le
/// Boudec, whose service-curve bound the oracle checks).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RegulatorBackend {
    /// One regulator per session per hop (the paper's model; default).
    #[default]
    PerSession,
    /// One shared head-gated FIFO regulator per hop (TSN ATS style).
    Interleaved,
}

impl std::str::FromStr for RegulatorBackend {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "per-session" => Ok(RegulatorBackend::PerSession),
            "interleaved" => Ok(RegulatorBackend::Interleaved),
            other => Err(format!(
                "unknown regulator backend '{other}' (per-session|interleaved)"
            )),
        }
    }
}

impl std::fmt::Display for RegulatorBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RegulatorBackend::PerSession => "per-session",
            RegulatorBackend::Interleaved => "interleaved",
        })
    }
}

/// Process-default regulator backend: 0 = unset, 1 = per-session,
/// 2 = interleaved. Harness-level (what `lit-repro --regulator` sets);
/// explicit builder calls always win.
static GLOBAL_REGULATOR: AtomicU8 = AtomicU8::new(0);

/// Set the process-default regulator backend.
pub fn set_global_regulator(backend: RegulatorBackend) {
    let v = match backend {
        RegulatorBackend::PerSession => 1,
        RegulatorBackend::Interleaved => 2,
    };
    GLOBAL_REGULATOR.store(v, Ordering::Relaxed);
}

/// Clear the process-default regulator backend (test isolation).
pub fn clear_global_regulator() {
    GLOBAL_REGULATOR.store(0, Ordering::Relaxed);
}

/// The process-default regulator backend, if one was set.
pub fn global_regulator() -> Option<RegulatorBackend> {
    match GLOBAL_REGULATOR.load(Ordering::Relaxed) {
        1 => Some(RegulatorBackend::PerSession),
        2 => Some(RegulatorBackend::Interleaved),
        _ => None,
    }
}

/// One queued entry of a node's shared interleaved regulator.
#[derive(Debug)]
pub(crate) struct RegEntry<P> {
    /// The held packet (the executor stores its arena `PacketRef`).
    pub(crate) item: P,
    /// The priority key the discipline assigned on arrival, carried
    /// through the hold so release enqueues with the original key.
    pub(crate) key: u128,
    /// The packet's own eligibility instant `E` (eq. 6–7).
    pub(crate) eligible: Time,
}

/// A node's shared interleaved regulator: one FIFO for all
/// jitter-controlled arrivals, released head-first when the *head*'s
/// eligibility instant passes. Tracks the state the oracle's
/// Thomas–Le Boudec service-curve check needs: the last release instant
/// (releases must be non-decreasing and equal `max(last, head.E)`) and
/// the running maximum self-hold `E − a` over all packets that ever
/// joined (an in-model shaping-delay ceiling: FIFO + head gating cannot
/// hold a packet longer than the largest eligibility offset ahead of or
/// at it).
#[derive(Debug, Default)]
pub(crate) struct RegFifo<P> {
    /// Held packets in join order.
    pub(crate) queue: VecDeque<RegEntry<P>>,
    /// Instant of the most recent release (ZERO before any).
    pub(crate) last_release: Time,
    /// Running max of `E − a` (picoseconds) over every packet that joined.
    pub(crate) max_hold_ps: u64,
}

impl<P> RegFifo<P> {
    pub(crate) fn new() -> Self {
        RegFifo {
            queue: VecDeque::new(),
            last_release: Time::ZERO,
            max_hold_ps: 0,
        }
    }

    /// Join the FIFO at `now` with eligibility `eligible`, folding the
    /// packet's own hold `E − a` into the running shaping ceiling.
    pub(crate) fn join(&mut self, item: P, key: u128, eligible: Time, now: Time) {
        if let Some(hold) = eligible.checked_since(now) {
            self.max_hold_ps = self.max_hold_ps.max(hold.as_ps());
        }
        self.queue.push_back(RegEntry {
            item,
            key,
            eligible,
        });
    }
}

/// The discipline's verdict on an arriving packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleDecision {
    /// When the packet may join the transmission queue (`Eⁿ_{i,s}`).
    /// Must be `≥` the arrival time.
    pub eligible: Time,
    /// Priority key: eligible packets are served in increasing key order.
    /// Time-based disciplines use picoseconds; virtual-time disciplines
    /// use any monotone encoding of their virtual stamp.
    pub key: u128,
}

impl ScheduleDecision {
    /// A decision keyed directly by a deadline instant.
    pub fn at(eligible: Time, deadline: Time) -> Self {
        ScheduleDecision {
            eligible,
            key: deadline.as_ps() as u128,
        }
    }
}

/// A per-node packet scheduler.
///
/// `Send` is a supertrait so a built [`crate::Network`] stays `Send` and
/// can be moved to another thread; disciplines hold plain per-session
/// scheduling state, never shared handles.
pub trait Discipline: Send {
    /// Human-readable name for reports and traces.
    fn name(&self) -> &'static str;

    /// Connection establishment: a session with the given spec will
    /// traverse this node, using `delay` as its per-hop delay assignment
    /// here. Called once per session before any of its packets arrive.
    fn register_session(&mut self, spec: &SessionSpec, delay: &DelayAssignment);

    /// A packet's last bit arrived at `now`. Returns eligibility and
    /// priority; may write `pkt.deadline` / `pkt.d` scratch fields.
    ///
    /// Packets of one session arrive in sequence order (links and the
    /// per-session regulator are FIFO), so per-session recursions like
    /// eq. (10)–(11) may be advanced here.
    fn on_arrival(&mut self, pkt: &mut Packet, now: Time) -> ScheduleDecision;

    /// A batch of packets of **one session** all arrived at `now`, in
    /// sequence order. Pushes one decision per packet onto `out`, in
    /// order, exactly as calling [`Self::on_arrival`] on each packet in
    /// turn does (the default body, and the only implementation here).
    ///
    /// The executor never calls this: it dispatches every arrival through
    /// [`Self::on_arrival`]. The method stays only because the `perfbench`
    /// harness's timing decorator overrides it.
    fn on_arrival_batch(
        &mut self,
        pkts: &mut [Packet],
        now: Time,
        out: &mut Vec<ScheduleDecision>,
    ) {
        for pkt in pkts {
            let dec = self.on_arrival(pkt, now);
            out.push(dec);
        }
    }

    /// Connection teardown: the session's packets have all drained and its
    /// id may be reused by a future establishment (see `IdSlab`). The
    /// discipline drops per-session state so the reused slot starts fresh.
    /// Default: no-op, for stateless disciplines.
    fn unregister_session(&mut self, _id: SessionId) {}

    /// The packet began transmission at `now`. Optional hook; disciplines
    /// that define a virtual time by the packet in service (e.g. SCFQ)
    /// use it.
    fn on_service_start(&mut self, _pkt: &Packet, _now: Time) {}

    /// The packet's last bit left the node at `finish`. The discipline may
    /// stamp `pkt.hold` for the next hop.
    fn on_departure(&mut self, pkt: &mut Packet, finish: Time);
}

/// Creates one discipline instance per node.
///
/// The factory receives the node's outgoing-link parameters, which most
/// disciplines need (e.g. `L_MAX/Cₙ` in Leave-in-Time's holding times).
pub type DisciplineFactory<'a> = dyn Fn(&LinkParams) -> Box<dyn Discipline> + 'a;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regulator_backend_parses_and_displays() {
        assert_eq!("per-session".parse(), Ok(RegulatorBackend::PerSession));
        assert_eq!("interleaved".parse(), Ok(RegulatorBackend::Interleaved));
        assert!("shared".parse::<RegulatorBackend>().is_err());
        assert_eq!(RegulatorBackend::PerSession.to_string(), "per-session");
        assert_eq!(RegulatorBackend::Interleaved.to_string(), "interleaved");
        assert_eq!(RegulatorBackend::default(), RegulatorBackend::PerSession);
    }

    #[test]
    fn global_regulator_roundtrip() {
        clear_global_regulator();
        assert_eq!(global_regulator(), None);
        set_global_regulator(RegulatorBackend::Interleaved);
        assert_eq!(global_regulator(), Some(RegulatorBackend::Interleaved));
        set_global_regulator(RegulatorBackend::PerSession);
        assert_eq!(global_regulator(), Some(RegulatorBackend::PerSession));
        clear_global_regulator();
        assert_eq!(global_regulator(), None);
    }

    #[test]
    fn reg_fifo_tracks_running_max_hold() {
        let mut f: RegFifo<u32> = RegFifo::new();
        assert_eq!(f.max_hold_ps, 0);
        f.join(1, 10, Time::from_ms(5), Time::from_ms(2)); // hold 3 ms
        f.join(2, 11, Time::from_ms(6), Time::from_ms(5)); // hold 1 ms
        f.join(3, 12, Time::from_ms(4), Time::from_ms(6)); // E in the past
        assert_eq!(f.max_hold_ps, lit_sim::Duration::from_ms(3).as_ps());
        assert_eq!(f.queue.len(), 3);
        assert_eq!(f.queue.front().map(|e| e.item), Some(1));
        assert_eq!(f.last_release, Time::ZERO);
    }

    #[test]
    fn decision_key_encodes_deadline() {
        let d = ScheduleDecision::at(Time::from_ms(1), Time::from_ms(5));
        assert_eq!(d.eligible, Time::from_ms(1));
        assert_eq!(d.key, Time::from_ms(5).as_ps() as u128);
    }

    #[test]
    fn default_batch_is_scalar_loop() {
        // A discipline with per-packet state (a running counter): the
        // default batch implementation must advance it exactly like the
        // scalar calls, in order.
        struct Counting {
            seen: u64,
        }
        impl Discipline for Counting {
            fn name(&self) -> &'static str {
                "counting"
            }
            fn register_session(&mut self, _: &SessionSpec, _: &DelayAssignment) {}
            fn on_arrival(&mut self, _pkt: &mut Packet, now: Time) -> ScheduleDecision {
                self.seen += 1;
                ScheduleDecision {
                    eligible: now,
                    key: self.seen as u128,
                }
            }
            fn on_departure(&mut self, _: &mut Packet, _: Time) {}
        }
        let mut d = Counting { seen: 0 };
        let mut pkts: Vec<Packet> = (0..4)
            .map(|i| Packet::new(SessionId(0), i, 424, Time::ZERO))
            .collect();
        let mut out = Vec::new();
        d.on_arrival_batch(&mut pkts, Time::from_ms(1), &mut out);
        let keys: Vec<u128> = out.iter().map(|d| d.key).collect();
        assert_eq!(keys, vec![1, 2, 3, 4]);
        assert!(out.iter().all(|d| d.eligible == Time::from_ms(1)));
        // unregister_session default is a no-op and must not panic.
        d.unregister_session(SessionId(0));
    }
}
