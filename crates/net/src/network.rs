//! The network: nodes in a topology, sessions on routes, and the
//! discrete-event executor that moves packets through them.
//!
//! Model (paper §2–3): each server node owns one outgoing link of capacity
//! `Cₙ` and propagation delay `Γₙ`; a session follows a fixed route of
//! nodes established at connection time; a packet "arrives" at a node when
//! its **last bit** arrives; the node may hold it in a delay regulator
//! until its eligibility time, then serves eligible packets in increasing
//! priority-key order (non-preemptively, one at a time); the last bit
//! leaves at the finish time and reaches the next node one propagation
//! delay later. Delivery past the final node includes that link's
//! propagation delay, matching the `Σ (L_MAX/Cₙ + Γₙ)` structure of the
//! paper's β constant.

use crate::arena::{PacketArena, PacketRef};
use crate::discipline::{
    Discipline, DisciplineFactory, RegFifo, RegulatorBackend, ScheduleDecision,
};
use crate::equeue::{EligibleQueue, QueueKind};
use crate::oracle::{
    ccdf_shift_violation, OracleConfig, OracleMode, OracleRt, OracleTotals, SessionBounds,
    ViolationKind,
};
use crate::packet::{NodeId, Packet, SessionId};
use crate::spec::{DelayAssignment, LinkParams, SessionSpec};
use crate::stats::{DeliveryRecord, NodeStats, SessionStats, StatsConfig};
use lit_obs::{PacketView, Probe};
use lit_sim::{Duration, EventBackend, EventQueue, SeedSeq, SimRng, Time};
use lit_traffic::{Emission, Source};

/// The probe's view of a packet (identity + timing, no scheduler state).
fn pview(pkt: &Packet) -> PacketView {
    PacketView {
        session: pkt.session.0,
        seq: pkt.seq,
        hop: pkt.hop,
        len_bits: pkt.len_bits,
        created: pkt.created,
        arrived: pkt.arrived,
    }
}

/// Runtime state of one server node.
struct NodeRt {
    link: LinkParams,
    discipline: Box<dyn Discipline>,
    queue: EligibleQueue<PacketRef>,
    /// The packet currently being transmitted, if any.
    current: Option<PacketRef>,
    /// The shared head-gated regulator FIFO of this node. Only populated
    /// under [`RegulatorBackend::Interleaved`]; stays empty (and costs
    /// nothing) under the per-session backend.
    fifo: RegFifo<PacketRef>,
}

/// Runtime state of one session.
struct SessionRt {
    spec: SessionSpec,
    /// `(node index, delay assignment at that node)` along the route.
    hops: Vec<(u32, DelayAssignment)>,
    source: Box<dyn Source>,
    rng: SimRng,
    next_seq: u64,
    /// Next emission already pulled from the source, awaiting injection.
    pending: Option<Emission>,
    /// Reference-server clock `W_{i-1,s}` (eq. 1); `None` before packet 1.
    ref_w: Option<Time>,
}

/// Events of the executor. Packets stay in the engine's arena and events
/// name them by reference, so an event is 16 bytes and a future-event
/// entry 32.
enum Event {
    /// Inject the pending emission of session `sid` (arrival at hop 0).
    Inject { sid: u32 },
    /// A packet's last bit arrives at its current hop's node.
    Arrive { p: PacketRef },
    /// A regulated packet becomes eligible at its node. Its priority key
    /// and the eligibility instant the regulator computed are parked with
    /// it in the arena; the oracle verifies the executor releases the
    /// packet exactly then.
    Eligible { p: PacketRef },
    /// The head of `node`'s shared interleaved-regulator FIFO reaches its
    /// eligibility instant `at`: release every leading entry whose own
    /// eligibility has passed, then re-arm at the new head's instant.
    RegFire { node: u32, at: Time },
    /// The node finished transmitting its current packet.
    TxDone { node: u32 },
}

/// A session definition awaiting `build`.
struct SessionDef {
    spec: SessionSpec,
    hops: Vec<(u32, DelayAssignment)>,
    source: Box<dyn Source>,
}

/// Builds a [`Network`]: add nodes, add sessions on routes, then `build`
/// with a discipline factory.
pub struct NetworkBuilder {
    links: Vec<LinkParams>,
    sessions: Vec<SessionDef>,
    stats_cfg: StatsConfig,
    master_seed: u64,
    queue_kind: QueueKind,
    event_backend: EventBackend,
    oracle: OracleConfig,
    probe: Option<Box<dyn Probe>>,
    regulator: RegulatorBackend,
}

impl Default for NetworkBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl NetworkBuilder {
    /// An empty network with seed 0 and default statistics sizing.
    pub fn new() -> Self {
        NetworkBuilder {
            links: Vec::new(),
            sessions: Vec::new(),
            stats_cfg: StatsConfig::default(),
            master_seed: 0,
            queue_kind: QueueKind::Exact,
            event_backend: EventBackend::default(),
            oracle: OracleConfig::off(),
            probe: None,
            regulator: RegulatorBackend::PerSession,
        }
    }

    /// Select how each node realizes its delay regulator (default: the
    /// paper's per-session regulators). Under
    /// [`RegulatorBackend::Interleaved`] every node holds its
    /// ahead-of-schedule packets in **one shared FIFO** gated by the head's
    /// eligibility instant (TSN ATS style): a packet may additionally wait
    /// behind earlier-queued packets of other sessions, so the paper's
    /// per-session lateness allowance no longer applies and the oracle
    /// swaps that check for the interleaved-regulator release-order and
    /// shaping-delay invariants.
    pub fn regulator(mut self, backend: RegulatorBackend) -> Self {
        self.regulator = backend;
        self
    }

    /// Install an observability probe (default: none). With no probe the
    /// executor pays one always-false branch per hook site and never
    /// materializes a [`PacketView`] — the zero-cost-when-off contract.
    pub fn probe(mut self, probe: Box<dyn Probe>) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Enable the online conformance oracle (default: off). See
    /// [`crate::oracle`] for what is checked; per-session bound constants
    /// are installed after `build` via `lit_core::install_oracle_bounds`.
    pub fn oracle(mut self, cfg: OracleConfig) -> Self {
        self.oracle = cfg;
        self
    }

    /// Select the eligible-queue implementation used by every node
    /// (default: exact deadline order). See [`QueueKind`].
    pub fn queue_kind(mut self, kind: QueueKind) -> Self {
        self.queue_kind = kind;
        self
    }

    /// Select the engine of the future-event set (default:
    /// [`EventBackend::Heap`]). Both backends pop the identical event
    /// sequence, so this is purely a performance knob; the calendar pays
    /// off on large event populations.
    pub fn event_backend(mut self, backend: EventBackend) -> Self {
        self.event_backend = backend;
        self
    }

    /// Set the master seed from which every session's RNG stream derives.
    pub fn seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Override statistics sizing.
    pub fn stats(mut self, cfg: StatsConfig) -> Self {
        self.stats_cfg = cfg;
        self
    }

    /// Add a server node with the given outgoing link; returns its id.
    pub fn add_node(&mut self, link: LinkParams) -> NodeId {
        let id = NodeId(self.links.len() as u32);
        self.links.push(link);
        id
    }

    /// Add `n` nodes in tandem with identical links (the paper's Figure 6
    /// topology is `tandem(5, LinkParams::paper_t1())`).
    pub fn tandem(&mut self, n: usize, link: LinkParams) -> Vec<NodeId> {
        (0..n).map(|_| self.add_node(link)).collect()
    }

    /// Add a session traversing `route`, fed by `source`, using the
    /// spec's default delay assignment at every hop. Returns the assigned
    /// session id (the spec's `id` field is overwritten).
    pub fn add_session(
        &mut self,
        spec: SessionSpec,
        route: &[NodeId],
        source: Box<dyn Source>,
    ) -> SessionId {
        let hops = route.iter().map(|n| (n.0, spec.delay)).collect();
        self.add_session_with_hops(spec, hops, source)
    }

    /// Add a session with an explicit per-hop delay assignment (delay
    /// shifting can differ node by node).
    ///
    /// # Panics
    /// Panics on an empty route or an unknown node id.
    pub fn add_session_with_hops(
        &mut self,
        mut spec: SessionSpec,
        hops: Vec<(u32, DelayAssignment)>,
        source: Box<dyn Source>,
    ) -> SessionId {
        assert!(!hops.is_empty(), "session route is empty");
        for &(n, _) in &hops {
            assert!(
                (n as usize) < self.links.len(),
                "route references unknown node {n}"
            );
        }
        let id = SessionId(self.sessions.len() as u32);
        spec.id = id;
        self.sessions.push(SessionDef { spec, hops, source });
        id
    }

    /// Instantiate the network, creating one discipline per node and
    /// registering every session at every node it traverses.
    pub fn build(self, factory: &DisciplineFactory<'_>) -> Network {
        let mut nodes: Vec<NodeRt> = self
            .links
            .iter()
            .map(|link| NodeRt {
                link: *link,
                discipline: factory(link),
                queue: EligibleQueue::new(self.queue_kind),
                current: None,
                fifo: RegFifo::new(),
            })
            .collect();

        let mut seeds = SeedSeq::new(self.master_seed);
        let mut events = EventQueue::with_backend(self.event_backend);
        let mut session_stats = Vec::with_capacity(self.sessions.len());
        let mut sessions: Vec<SessionRt> = Vec::with_capacity(self.sessions.len());
        let session_hops: Vec<usize> = self.sessions.iter().map(|d| d.hops.len()).collect();

        for (i, def) in self.sessions.into_iter().enumerate() {
            for (n, delay) in &def.hops {
                // lit-lint: allow(no-panic-hot-path, "build-time loop; every route id was range-checked by add_session_with_hops")
                nodes[*n as usize]
                    .discipline
                    .register_session(&def.spec, delay);
            }
            session_stats.push(SessionStats::new(&self.stats_cfg, def.hops.len()));
            let mut rt = SessionRt {
                spec: def.spec,
                hops: def.hops,
                source: def.source,
                rng: seeds.next_rng(),
                next_seq: 1, // the paper numbers packets from 1
                pending: None,
                ref_w: None,
            };
            rt.pending = rt.source.next_emission(&mut rt.rng);
            if let Some(e) = rt.pending {
                events.push(e.at, Event::Inject { sid: i as u32 });
            }
            sessions.push(rt);
        }

        let mut probe = self.probe;
        if let Some(p) = probe.as_deref_mut() {
            p.on_build(self.master_seed, self.links.len(), &session_hops);
        }

        let mut oracle = OracleRt::new(self.oracle, &session_hops);
        oracle.interleaved = self.regulator == RegulatorBackend::Interleaved;

        Network {
            nodes,
            sessions,
            events,
            now: Time::ZERO,
            node_stats: (0..self.links.len()).map(|_| NodeStats::new()).collect(),
            session_stats,
            oracle,
            probe,
            arena: PacketArena::new(),
            regulator: self.regulator,
        }
    }
}

/// The network: topology + sessions + future-event set + accumulated
/// statistics, advanced by one sequential discrete-event loop.
pub struct Network {
    nodes: Vec<NodeRt>,
    sessions: Vec<SessionRt>,
    events: EventQueue<Event>,
    now: Time,
    node_stats: Vec<NodeStats>,
    session_stats: Vec<SessionStats>,
    oracle: OracleRt,
    probe: Option<Box<dyn Probe>>,
    /// Every packet in flight, from injection to delivery.
    arena: PacketArena,
    /// How the nodes realize their delay regulators (see
    /// [`NetworkBuilder::regulator`]).
    regulator: RegulatorBackend,
}

impl Network {
    /// Advance the simulation until no event at or before `until` remains.
    /// May be called repeatedly with growing horizons.
    pub fn run_until(&mut self, until: Time) {
        while let Some(t) = self.events.peek_time() {
            if t > until {
                break;
            }
            // Pop cannot come back empty right after a successful peek;
            // the `else` arm keeps the executor panic-free regardless.
            let Some((t, ev)) = self.events.pop() else {
                break;
            };
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.dispatch(ev);
        }
        self.now = self.now.max(until);
    }

    /// Current simulation clock.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Statistics of one session.
    pub fn session_stats(&self, id: SessionId) -> &SessionStats {
        // lit-lint: allow(no-panic-hot-path, "public accessor: panicking on an invalid id is the documented contract")
        &self.session_stats[id.index()]
    }

    /// Statistics of one node.
    pub fn node_stats(&self, id: NodeId) -> &NodeStats {
        // lit-lint: allow(no-panic-hot-path, "public accessor: panicking on an invalid id is the documented contract")
        &self.node_stats[id.index()]
    }

    /// The spec a session was registered with.
    pub fn session_spec(&self, id: SessionId) -> &SessionSpec {
        // lit-lint: allow(no-panic-hot-path, "public accessor: panicking on an invalid id is the documented contract")
        &self.sessions[id.index()].spec
    }

    /// Number of sessions.
    pub fn num_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The per-hop delay assignments of a session (node index, assignment).
    pub fn session_hops(&self, id: SessionId) -> &[(u32, DelayAssignment)] {
        // lit-lint: allow(no-panic-hot-path, "public accessor: panicking on an invalid id is the documented contract")
        &self.sessions[id.index()].hops
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Inject { sid } => self.inject(sid),
            Event::Arrive { p } => self.arrive(p),
            Event::Eligible { p } => self.eligible(p),
            Event::RegFire { node, at } => self.reg_fire(node, at),
            Event::TxDone { node } => self.tx_done(node),
        }
    }

    /// A packet the per-session regulator held reaches its eligibility
    /// instant: hand it to its node's eligible queue.
    fn eligible(&mut self, p: PacketRef) {
        let pkt = *self.arena.packet(p);
        let (key, at) = self.arena.parked(p);
        // Resolved only for reporting; u32::MAX is the probes'
        // "unknown node" convention, so a bad id degrades the
        // report instead of killing the run.
        let node = self
            .sessions
            .get(pkt.session.index())
            .and_then(|s| s.hops.get(pkt.hop as usize))
            .map_or(u32::MAX, |h| h.0);
        if self.oracle.enabled() && self.now != at {
            let now = self.now;
            self.oracle.report(
                self.probe.as_deref_mut(),
                ViolationKind::ReleaseTime,
                now,
                (pkt.session.0, pkt.seq, node),
                || {
                    format!(
                        "session {} seq {} released at {now}, eligibility was {at}",
                        pkt.session.0, pkt.seq
                    )
                },
            );
        }
        // This event only exists for packets the regulator held
        // (`E > arrival`), so `now − arrived` is the holding time
        // of eq. 8–9 and is strictly positive.
        if let Some(probe) = self.probe.as_deref_mut() {
            let held = self
                .now
                .checked_since(pkt.arrived)
                .unwrap_or(Duration::ZERO);
            probe.on_eligible(self.now, node, pview(&pkt), held);
        }
        self.enqueue_eligible(node, p, key);
    }

    /// The head of `node_idx`'s interleaved-regulator FIFO reached its
    /// eligibility instant: release the head and every successor whose own
    /// eligibility has also passed (head gating makes releases cascade),
    /// then re-arm the timer at the new head's instant. On every release
    /// the oracle checks the interleaved regulator's defining equation —
    /// the release instant equals `max(previous release, entry E)` — and
    /// the Thomas–Le Boudec shaping ceiling: a packet is never held past
    /// its own eligibility longer than the largest `E − a` offset any
    /// packet ever brought into this FIFO.
    fn reg_fire(&mut self, node_idx: u32, at: Time) {
        if self.oracle.enabled() && self.now != at {
            let now = self.now;
            self.oracle.violate(ViolationKind::ReleaseTime, || {
                format!("node {node_idx}: regulator timer fired at {now}, was armed for {at}")
            });
        }
        loop {
            // lit-lint: allow(no-panic-hot-path, "executor invariant: RegFire events carry node ids from the build-time topology")
            let node = &mut self.nodes[node_idx as usize];
            let Some(head) = node.fifo.queue.front() else {
                break;
            };
            if head.eligible > self.now {
                let next = head.eligible;
                self.events.push(
                    next,
                    Event::RegFire {
                        node: node_idx,
                        at: next,
                    },
                );
                break;
            }
            // lit-lint: allow(no-panic-hot-path, "front() above proved the queue non-empty")
            let entry = node.fifo.queue.pop_front().expect("non-empty fifo");
            let expected = node.fifo.last_release.max(entry.eligible);
            let ceiling_ps = node.fifo.max_hold_ps;
            node.fifo.last_release = self.now;
            let now = self.now;
            let pkt = *self.arena.packet(entry.item);
            if self.oracle.enabled() {
                if now != expected {
                    self.oracle.report(
                        self.probe.as_deref_mut(),
                        ViolationKind::RegulatorFifo,
                        now,
                        (pkt.session.0, pkt.seq, node_idx),
                        || {
                            format!(
                                "node {node_idx} session {} seq {}: released at {now}, \
                                 interleaved regulator requires max(last release, E) = {expected}",
                                pkt.session.0, pkt.seq
                            )
                        },
                    );
                }
                let shaping_ps = now.checked_since(entry.eligible).map_or(0, |d| d.as_ps());
                if shaping_ps > ceiling_ps {
                    self.oracle.report(
                        self.probe.as_deref_mut(),
                        ViolationKind::ShapingBound,
                        now,
                        (pkt.session.0, pkt.seq, node_idx),
                        || {
                            format!(
                                "node {node_idx} session {} seq {}: held {shaping_ps} ps past \
                                 its eligibility, service-curve ceiling is {ceiling_ps} ps",
                                pkt.session.0, pkt.seq
                            )
                        },
                    );
                }
            }
            if let Some(p) = self.probe.as_deref_mut() {
                let held = now.checked_since(pkt.arrived).unwrap_or(Duration::ZERO);
                p.on_eligible(now, node_idx, pview(&pkt), held);
            }
            self.enqueue_eligible(node_idx, entry.item, entry.key);
        }
    }

    /// Materialize the pending emission of `sid` as a packet at hop 0 and
    /// pull/schedule the next one.
    fn inject(&mut self, sid: u32) {
        // lit-lint: allow(no-panic-hot-path, "executor invariant: Inject events carry indices minted by build over this same vec")
        let s = &mut self.sessions[sid as usize];
        // lit-lint: allow(no-panic-hot-path, "executor invariant: an Inject event is only pushed when `pending` was just filled")
        let e = s.pending.take().expect("Inject without pending emission");
        debug_assert_eq!(e.at, self.now);
        let seq = s.next_seq;
        s.next_seq += 1;
        let mut pkt = Packet::new(s.spec.id, seq, e.len_bits, e.at);

        // Reference-server co-simulation (eq. 1): W_i = max(t_i, W_{i-1})
        // + L_i/r, with W_0 = t_1.
        let service = Duration::from_bits_at_rate(e.len_bits as u64, s.spec.rate_bps);
        let w_prev = s.ref_w.unwrap_or(e.at);
        let w = e.at.max(w_prev) + service;
        s.ref_w = Some(w);

        // Pull the next emission before we lose the borrow.
        s.pending = s.source.next_emission(&mut s.rng);
        if let Some(next) = s.pending {
            debug_assert!(next.at >= e.at, "source emitted into the past");
            self.events.push(next.at, Event::Inject { sid });
        }

        pkt.ref_delay = w - e.at;
        // lit-lint: allow(no-panic-hot-path, "session_stats is built with one entry per session; sid was minted by build")
        let st = &mut self.session_stats[sid as usize];
        st.injected += 1;
        st.reference.record(pkt.ref_delay);

        let p = self.arena.alloc(pkt);
        self.arrive(p);
    }

    /// A packet's last bit arrives at its current hop.
    fn arrive(&mut self, p: PacketRef) {
        let now = self.now;
        let pkt = self.arena.packet_mut(p);
        let sid = pkt.session.index();
        let hop = pkt.hop as usize;
        // lit-lint: allow(no-panic-hot-path, "executor invariant: packets carry the session id and hop index they were routed with at build")
        let node_idx = self.sessions[sid].hops[hop].0 as usize;
        pkt.arrived = now;

        // Buffer occupancy, sampled as the paper does: at last-bit arrival,
        // counting the arriving packet and any packet in transmission.
        // lit-lint: allow(no-panic-hot-path, "session_stats is built with one entry per session; sid comes from the packet's build-time id")
        self.session_stats[sid].occupy(hop, pkt.len_bits as u64);

        if let Some(probe) = self.probe.as_deref_mut() {
            let depth = self.nodes.get(node_idx).map_or(0, |n| n.queue.len());
            let events = self.events.len();
            probe.on_arrive(now, node_idx as u32, pview(pkt), depth, events);
        }

        // lit-lint: allow(no-panic-hot-path, "executor invariant: node ids come from the build-time topology")
        let node = &mut self.nodes[node_idx];
        let decision = node.discipline.on_arrival(pkt, now);
        let seq = pkt.seq;
        debug_assert!(
            decision.eligible >= now,
            "discipline produced an eligibility time in the past"
        );
        if self.oracle.enabled() {
            // Regulator invariants (eq. 6–7): E is per-session monotone
            // at every hop, and never lies in the past.
            // lit-lint: allow(no-panic-hot-path, "oracle state is sized per session and hop at build, same shape as the route")
            let last = &mut self.oracle.last_eligible[sid][hop];
            if decision.eligible < *last {
                let prev = *last;
                self.oracle.report(
                    self.probe.as_deref_mut(),
                    ViolationKind::EligibilityOrder,
                    now,
                    (sid as u32, seq, node_idx as u32),
                    || {
                        format!(
                            "session {sid} hop {hop} seq {seq}: eligibility {} < previous {prev}",
                            decision.eligible
                        )
                    },
                );
            } else {
                *last = decision.eligible;
            }
            if decision.eligible < now {
                self.oracle.report(
                    self.probe.as_deref_mut(),
                    ViolationKind::ReleaseTime,
                    now,
                    (sid as u32, seq, node_idx as u32),
                    || {
                        let e = decision.eligible;
                        format!(
                            "session {sid} hop {hop} seq {seq}: eligibility {e} \
                             before arrival {now}"
                        )
                    },
                );
            }
        }
        if self.regulator == RegulatorBackend::Interleaved {
            // Interleaved join rule: a packet enters the shared FIFO when
            // it must be held (`E > now`) or when it is jitter-controlled
            // and the FIFO already holds earlier packets (overtaking them
            // would break the regulator's FIFO contract). Immediately
            // eligible non-jc packets bypass the regulator, as unshaped
            // traffic does in TSN ATS.
            // lit-lint: allow(no-panic-hot-path, "executor invariant: node ids come from the build-time topology")
            let node = &mut self.nodes[node_idx];
            // lit-lint: allow(no-panic-hot-path, "executor invariant: packets carry the session id they were routed with at build")
            let jc = self.sessions[sid].spec.jitter_control;
            if decision.eligible > now || (jc && !node.fifo.queue.is_empty()) {
                let was_empty = node.fifo.queue.is_empty();
                node.fifo.join(p, decision.key, decision.eligible, now);
                if was_empty {
                    // Joining an empty FIFO implies `E > now`, so the
                    // head timer is always armed strictly in the future.
                    self.events.push(
                        decision.eligible,
                        Event::RegFire {
                            node: node_idx as u32,
                            at: decision.eligible,
                        },
                    );
                }
            } else {
                self.enqueue_eligible(node_idx as u32, p, decision.key);
            }
        } else {
            self.hold_or_enqueue(node_idx as u32, p, decision);
        }
    }

    /// Per-session regulator: park a packet whose eligibility lies ahead
    /// until then, else queue it for transmission now.
    fn hold_or_enqueue(&mut self, node_idx: u32, p: PacketRef, decision: ScheduleDecision) {
        if decision.eligible > self.now {
            self.arena.park(p, decision.key, decision.eligible);
            self.events.push(decision.eligible, Event::Eligible { p });
        } else {
            self.enqueue_eligible(node_idx, p, decision.key);
        }
    }

    /// Put an eligible packet in the node's transmission queue and start
    /// the link if idle.
    fn enqueue_eligible(&mut self, node_idx: u32, p: PacketRef, key: u128) {
        // lit-lint: allow(no-panic-hot-path, "executor invariant: node ids come from the build-time topology")
        let node = &mut self.nodes[node_idx as usize];
        node.queue.push(key, p);
        if node.current.is_none() {
            self.start_tx(node_idx);
        }
    }

    /// Begin transmitting the highest-priority eligible packet.
    fn start_tx(&mut self, node_idx: u32) {
        // lit-lint: allow(no-panic-hot-path, "executor invariant: node ids come from the build-time topology")
        let node = &mut self.nodes[node_idx as usize];
        debug_assert!(node.current.is_none(), "link already busy");
        let Some(p) = node.queue.pop() else {
            return;
        };
        let pkt = self.arena.packet(p);
        let tx = node.link.tx_time(pkt.len_bits);
        node.discipline.on_service_start(pkt, self.now);
        if let Some(probe) = self.probe.as_deref_mut() {
            probe.on_dispatch(self.now, node_idx, pview(pkt));
        }
        node.current = Some(p);
        // lit-lint: allow(no-panic-hot-path, "node_stats is built with one entry per node")
        self.node_stats[node_idx as usize].busy.set_busy(self.now);
        self.events
            .push(self.now + tx, Event::TxDone { node: node_idx });
    }

    /// The node's current packet finished transmission.
    fn tx_done(&mut self, node_idx: u32) {
        // lit-lint: allow(no-panic-hot-path, "executor invariant: node ids come from the build-time topology")
        let node = &mut self.nodes[node_idx as usize];
        let Some(p) = node.current.take() else {
            debug_assert!(false, "TxDone with idle link");
            return;
        };
        let slot = self.arena.packet_mut(p);
        let finish = self.now;
        node.discipline.on_departure(slot, finish);
        let pkt = *slot;
        let propagation = node.link.propagation;
        let lmax_ps = node.link.lmax_time().as_ps() as i128;

        // Node accounting.
        // lit-lint: allow(no-panic-hot-path, "node_stats is built with one entry per node")
        let nst = &mut self.node_stats[node_idx as usize];
        nst.transmitted += 1;
        nst.bits_transmitted += pkt.len_bits as u64;
        let lateness = finish.as_ps() as i128 - pkt.deadline.as_ps() as i128;
        nst.max_lateness_ps = nst.max_lateness_ps.max(lateness);
        // The non-saturation allowance is a *per-session-regulator*
        // lemma: under the interleaved backend a packet can legitimately
        // leave later (it may wait behind other sessions' holds in the
        // shared FIFO), so the check is suspended there and the regulator
        // invariants take over at release time.
        if self.oracle.enabled() && !self.oracle.interleaved && lateness >= lmax_ps {
            // Non-saturation lemma: F̂ < F + L_MAX/C.
            nst.oracle_violations += 1;
            self.oracle.report(
                self.probe.as_deref_mut(),
                ViolationKind::Lateness,
                finish,
                (pkt.session.0, pkt.seq, node_idx),
                || {
                    format!(
                        "node {node_idx} session {} seq {}: finish {finish} is \
                         {lateness} ps past deadline {} (allowance {lmax_ps} ps)",
                        pkt.session.0, pkt.seq, pkt.deadline
                    )
                },
            );
        }

        // Session accounting: the packet no longer occupies this node.
        let sid = pkt.session.index();
        let hop = pkt.hop as usize;
        // lit-lint: allow(no-panic-hot-path, "session_stats is built with one entry per session; sid comes from the packet's build-time id")
        let st = &mut self.session_stats[sid];
        st.release(hop, pkt.len_bits as u64);

        // lit-lint: allow(no-panic-hot-path, "executor invariant: packets carry the session id they were routed with at build")
        let hops = self.sessions[sid].hops.len();
        if let Some(p) = self.probe.as_deref_mut() {
            // Deadline slack F − departure; negative means the packet
            // left late (the oracle's lateness check allows < L_MAX/C).
            let slack = (pkt.deadline.as_ps() as i128 - finish.as_ps() as i128)
                .clamp(i64::MIN as i128, i64::MAX as i128) as i64;
            p.on_depart(finish, node_idx, pview(&pkt), slack, hop + 1 >= hops);
        }
        if hop + 1 < hops {
            self.arena.packet_mut(p).hop += 1;
            self.events.push(finish + propagation, Event::Arrive { p });
        } else {
            self.arena.remove(p);
            // Delivered: end-to-end delay includes the last link's
            // propagation, matching β's Σ(L_MAX/Cₙ + Γₙ) over n = 1..N.
            let delivery = finish + propagation;
            st.delivered += 1;
            let delay = delivery - pkt.created;
            st.e2e.record(delay);
            st.delay_batches.record(delay.as_secs_f64());
            let excess = delay.as_ps() as i128 - pkt.ref_delay.as_ps() as i128;
            st.max_excess_ps = st.max_excess_ps.max(excess);
            st.log_delivery(DeliveryRecord {
                seq: pkt.seq,
                created: pkt.created,
                delivered: delivery,
                ref_delay: pkt.ref_delay,
            });
            if self.oracle.enabled() {
                // lit-lint: allow(no-panic-hot-path, "oracle bounds are sized to the session count at build")
                if let Some(b) = self.oracle.bounds[sid] {
                    // Ineq. 12, pathwise: D_i − D^ref_i < β + α, for any
                    // arrival pattern (the firewall property).
                    if excess >= b.shift_ps {
                        st.oracle_violations += 1;
                        self.oracle.report(
                            self.probe.as_deref_mut(),
                            ViolationKind::DelayBound,
                            finish,
                            (sid as u32, pkt.seq, u32::MAX),
                            || {
                                format!(
                                    "session {sid} seq {}: excess {excess} ps ≥ β+α = {} ps",
                                    pkt.seq, b.shift_ps
                                )
                            },
                        );
                    }
                    // Ineq. 17 family: running jitter stays below the
                    // empirical D^ref_max plus the spread constant. Both
                    // running maxima only grow, so checking per delivery
                    // is equivalent to checking at drain time.
                    let jitter_ps = st.e2e.spread().map_or(0, |j| j.as_ps() as i128);
                    let dref_ps = st.reference.max().map_or(0, |d| d.as_ps() as i128);
                    if jitter_ps >= dref_ps + b.jitter_spread_ps {
                        st.oracle_violations += 1;
                        self.oracle.report(
                            self.probe.as_deref_mut(),
                            ViolationKind::JitterBound,
                            finish,
                            (sid as u32, pkt.seq, u32::MAX),
                            || {
                                format!(
                                    "session {sid} seq {}: jitter {jitter_ps} ps ≥ \
                                     D^ref_max {dref_ps} + spread {} ps",
                                    pkt.seq, b.jitter_spread_ps
                                )
                            },
                        );
                    }
                }
            }
        }

        // Keep the link busy if more eligible work is queued.
        // lit-lint: allow(no-panic-hot-path, "executor invariant: node ids come from the build-time topology")
        let node = &mut self.nodes[node_idx as usize];
        if node.queue.is_empty() {
            // lit-lint: allow(no-panic-hot-path, "node_stats is built with one entry per node")
            self.node_stats[node_idx as usize].busy.set_idle(self.now);
        } else {
            self.start_tx(node_idx);
        }
    }

    /// The outgoing-link parameters of a node.
    pub fn node_link(&self, id: NodeId) -> &LinkParams {
        // lit-lint: allow(no-panic-hot-path, "public accessor: panicking on an invalid id is the documented contract")
        &self.nodes[id.index()].link
    }

    /// Install the conformance-oracle bound constants for one session
    /// (normally done for every session by
    /// `lit_core::install_oracle_bounds`). No-op when the oracle is off.
    pub fn set_session_bounds(&mut self, id: SessionId, bounds: SessionBounds) {
        if self.oracle.enabled() {
            // lit-lint: allow(no-panic-hot-path, "public setter: panicking on an invalid id is the documented contract")
            self.oracle.bounds[id.index()] = Some(bounds);
        }
    }

    /// Total events ever pushed onto the future-event set (a proxy for
    /// simulation work, used by the overhead-guard benchmark).
    pub fn event_count(&self) -> u64 {
        self.events.pushed()
    }

    /// Remove the installed observability probe, finishing it first (a
    /// hub-submitting probe delivers its shard exactly once; `finish` is
    /// idempotent). Callers that install a concrete probe use this plus
    /// `Probe::as_any` to read the recorded registries back.
    pub fn take_probe(&mut self) -> Option<Box<dyn Probe>> {
        let now = self.now;
        let mut p = self.probe.take();
        if let Some(p) = p.as_deref_mut() {
            p.finish(now);
        }
        p
    }

    /// Total conformance-oracle violations recorded by this network.
    pub fn oracle_violations(&self) -> u64 {
        self.oracle.totals.total()
    }

    /// Violation counts by kind.
    pub fn oracle_totals(&self) -> OracleTotals {
        self.oracle.totals
    }

    /// Always 1: the network runs on one sequential event loop. Kept
    /// because the `perfbench` run record still reports a shard count.
    pub fn shard_count(&self) -> usize {
        1
    }

    /// Drain-time checks: (a) ineq. 16 — for every session with installed
    /// bounds, the end-to-end delay histogram must sit under the
    /// reference histogram shifted right by `β + α`, compared on absolute
    /// counts; (b) workload-conservation sanity (the Kruk et al.
    /// heavy-traffic premise) — every node's accumulated busy time must
    /// equal the service time of the bits it transmitted. Returns the
    /// number of sessions plus nodes that failed. Runs automatically (in
    /// counting mode) when the network is dropped, if not called
    /// explicitly first.
    pub fn oracle_drain_check(&mut self) -> u64 {
        self.oracle.drained = true;
        if !self.oracle.enabled() {
            return 0;
        }
        let mut failed = 0;
        for (sid, st) in self.session_stats.iter_mut().enumerate() {
            // lit-lint: allow(no-panic-hot-path, "oracle bounds and session_stats are built to the same length; sid enumerates the latter")
            let Some(b) = self.oracle.bounds[sid] else {
                continue;
            };
            if st.delivered == 0 {
                continue;
            }
            if let Some((d_ps, lhs, rhs)) = ccdf_shift_violation(&st.e2e, &st.reference, b.shift_ps)
            {
                failed += 1;
                st.oracle_violations += 1;
                self.oracle.report(
                    self.probe.as_deref_mut(),
                    ViolationKind::CcdfBound,
                    self.now,
                    (sid as u32, 0, u32::MAX),
                    || {
                        format!(
                            "session {sid}: {lhs} packets with D > {d_ps} ps, but only \
                             {rhs} with D^ref > {} ps (shift {} ps)",
                            d_ps - b.shift_ps,
                            b.shift_ps
                        )
                    },
                );
            }
        }
        // Workload conservation over [0, now], per node: busy time must
        // equal the service time of the transmitted bits. Slack: ±1 ps
        // per packet (each tx time rounds to the nearest picosecond, and
        // so does the recomputed total) plus one L_MAX/C upward for a
        // packet still on the wire at the horizon, whose open busy
        // interval is closed virtually while its bits are not yet
        // counted.
        let now = self.now;
        for (n, nst) in self.node_stats.iter_mut().enumerate() {
            // lit-lint: allow(no-panic-hot-path, "node_stats and nodes are built to the same length; n enumerates the former")
            let link = &self.nodes[n].link;
            let service_ps =
                Duration::from_bits_at_rate(nst.bits_transmitted, link.rate_bps).as_ps() as i128;
            let busy_ps = nst.busy.busy_at(now).as_ps() as i128;
            let count = nst.transmitted as i128;
            let lmax_ps = link.lmax_time().as_ps() as i128;
            if busy_ps < service_ps - count || busy_ps > service_ps + count + lmax_ps {
                failed += 1;
                nst.oracle_violations += 1;
                self.oracle.report(
                    self.probe.as_deref_mut(),
                    ViolationKind::WorkConservation,
                    now,
                    (u32::MAX, 0, n as u32),
                    || {
                        format!(
                            "node {n}: busy {busy_ps} ps over [0, {now}] vs {service_ps} ps \
                             of transmitted service ({} packets, allowance ±{count} ps \
                             + {lmax_ps} ps in flight)",
                            nst.transmitted
                        )
                    },
                );
            }
        }
        failed
    }
}

impl Drop for Network {
    fn drop(&mut self) {
        // Run the drain-time distribution check if the caller didn't.
        // Forced to counting mode: panicking in drop would abort, and the
        // global counter still surfaces the failure (e.g. to `lit-repro`,
        // whose exit code checks it after a sweep).
        if self.oracle.enabled() && !self.oracle.drained && !std::thread::panicking() {
            let mode = self.oracle.mode;
            self.oracle.mode = OracleMode::Count;
            self.oracle_drain_check();
            self.oracle.mode = mode;
        }
        // Finish the probe *after* the drain check so drain-time CCDF
        // violations are part of what a hub-submitting probe delivers.
        if !std::thread::panicking() {
            let now = self.now;
            if let Some(p) = self.probe.as_deref_mut() {
                p.finish(now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lit_traffic::TraceSource;

    /// FIFO with a fixed 1 ms regulator hold, so packets take the
    /// parked-`Eligible` path at every hop.
    struct HeldFifo;

    impl Discipline for HeldFifo {
        fn name(&self) -> &'static str {
            "held-fifo"
        }
        fn register_session(&mut self, _: &SessionSpec, _: &DelayAssignment) {}
        fn on_arrival(&mut self, pkt: &mut Packet, now: Time) -> ScheduleDecision {
            let eligible = now + Duration::from_ms(1);
            pkt.deadline = eligible;
            ScheduleDecision::at(eligible, eligible)
        }
        fn on_departure(&mut self, _: &mut Packet, _: Time) {}
    }

    #[test]
    fn future_event_entries_fit_in_32_bytes() {
        assert!(std::mem::size_of::<Event>() <= 16);
        assert!(std::mem::size_of::<lit_sim::KeyedEntry<Time, Event>>() <= 32);
    }

    #[test]
    fn scalar_arena_drains_and_stays_at_peak_in_flight() {
        // Ten bursts of four same-instant packets, 100 ms apart, over
        // three T1 hops: a burst clears the path in ~6 ms, so at most four
        // packets are ever in flight at once.
        let pairs = (0..10u64).flat_map(|b| (0..4).map(move |_| (Time::from_ms(100 * b), 424)));
        let mut b = NetworkBuilder::new();
        let nodes = b.tandem(3, LinkParams::paper_t1());
        let sid = b.add_session(
            SessionSpec::atm(SessionId(0), 100_000),
            &nodes,
            Box::new(TraceSource::from_pairs(pairs)),
        );
        let mut net = b.build(&|_: &LinkParams| Box::new(HeldFifo) as Box<dyn Discipline>);
        net.run_until(Time::from_secs(2));
        assert_eq!(net.session_stats(sid).delivered, 40);
        assert_eq!(net.arena.live(), 0, "every delivered packet freed its slot");
        assert_eq!(net.arena.capacity(), 4, "capacity is the peak in flight");
    }
}
