//! The sharded executor: per-core event loops coupled through
//! conservative lookahead windows.
//!
//! # Partitioning
//!
//! Each server node owns exactly one outgoing link, so nodes are the unit
//! of parallelism: [`owner_of`] assigns node `n` of `N` to shard
//! `n·S/N` — contiguous blocks, so a tandem route stays on one shard
//! until it genuinely crosses a block boundary. A shard owns, besides its
//! nodes' disciplines/queues/links, the injectors of every session whose
//! *first* hop it owns, the statistics rows it touches, and a private
//! future-event set, packet arena and simulation clock.
//!
//! # The lookahead window (conservative PDES)
//!
//! Let `L` be the minimum propagation delay over every *cross-shard*
//! consecutive hop pair of any route (builder refuses to shard when that
//! minimum is zero). The run loop alternates compute and exchange:
//!
//! 1. every shard publishes the timestamp of its earliest local event;
//!    a barrier makes the global minimum `T_min` common knowledge;
//! 2. every shard processes its local events with `t < T_min + L`
//!    (the *window*, exclusive at the horizon), sending cross-shard
//!    packet handoffs as it goes;
//! 3. a second barrier ends the window; every shard drains its inboxes
//!    into its event set and the loop repeats.
//!
//! This is safe because a handoff sent at `τ ≥ T_min` arrives at
//! `τ + propagation ≥ T_min + L`: nothing received at a barrier can ever
//! be earlier than the horizon the receiver already processed up to.
//!
//! # Determinism
//!
//! Identical results for every shard count is a hard requirement, so
//! within one shard events are *not* processed in future-event-set FIFO
//! order (which would depend on cross-shard push interleavings). Instead
//! the shard drains the whole group of events sharing the current
//! instant and sorts it by a content-derived tie key — `(kind, session,
//! hop, seq)`, with kind ranked Inject < Arrive < Eligible < RegFire <
//! TxDone —
//! which is unique per event and independent of arrival order. Events a
//! shard *generates at the current instant* (zero-propagation forwards,
//! next-emission injects at the same tick) are appended to the group
//! tail in generation order, mirroring the FIFO tail-append of a
//! heap-based loop. By induction over instants, each shard's processing
//! sequence is the restriction of the one canonical global sequence to
//! the events it owns: same-instant causal chains never cross shards
//! (cross-shard hops have propagation ≥ L > 0), so node-local histories
//! — and therefore all statistics, delivery logs and oracle counts —
//! are byte-identical for every admissible shard count **≥ 2**.
//!
//! Versus the *scalar* engine the guarantee is conditional: scalar
//! dispatches same-instant ties in event-queue push order, a global
//! FIFO notion no shard can reconstruct, so two sessions' packets
//! hitting one idle link at the same picosecond may transmit in
//! different orders under the two engines (e.g. phase-aligned CBR
//! fan-in). Scalar ≡ sharded holds exactly when no two network events
//! share an instant — which staggered sources guarantee and
//! `tests/shard_determinism.rs` pins; the repro fuzzer compares shard
//! counts against each other on arbitrary traffic instead.
//!
//! One check is *defined* slightly differently than the scalar engine's:
//! the jitter oracle compares a session's running end-to-end spread
//! against the maximum **delivered** reference delay (tracked on the
//! delivery shard) where the scalar engine uses the maximum *injected*
//! reference delay (which lives on the injector's shard and may run a
//! few packets ahead). The sharded bound is never looser, and it is
//! identical across all shard counts.
//!
//! # Mailboxes
//!
//! Cross-shard handoffs travel by value ([`Packet`] is `Copy`) through a
//! fixed-capacity [`std::sync::mpsc::sync_channel`] per directed shard
//! pair that actually has a route edge. A full channel never blocks the
//! sender mid-window (that could deadlock the barrier): the sender flips
//! to a mutex-guarded spill vector for the rest of the window, and the
//! receiver drains channel-then-spill after the barrier, preserving
//! per-pair FIFO order. Senders and receivers never touch a mailbox
//! concurrently — sends happen strictly between the two barriers,
//! drains strictly after the second — the spill mutex is only ever
//! uncontended, and the channel is merely a bounded SPSC buffer.
//!
//! # Fallbacks
//!
//! [`crate::NetworkBuilder::build`] degrades to the scalar engine
//! whenever sharding cannot reproduce scalar observability: a probe is
//! installed (hooks fire in global dispatch order), the oracle is in
//! panic mode (must stop at the *first* violation globally), a
//! cross-shard hop has zero propagation (empty lookahead), or fewer
//! than two shards survive clamping to the node count. The degrade is
//! not silent: every occurrence bumps the process-global
//! [`shard_fallbacks`] counter, and the built engine is observable via
//! [`crate::Network::shard_count`].

use crate::arena::{PacketArena, PacketRef};
use crate::discipline::{
    Discipline, DisciplineFactory, RegFifo, RegulatorBackend, ScheduleDecision,
};
use crate::equeue::EligibleQueue;
use crate::network::NetworkBuilder;
use crate::oracle::{ccdf_shift_violation, OracleMode, OracleRt, OracleTotals, ViolationKind};
use crate::packet::{NodeId, Packet, SessionId};
use crate::spec::{DelayAssignment, LinkParams, SessionSpec};
use crate::stats::{DeliveryRecord, NodeStats, SessionStats, StatsConfig};
use lit_sim::{Duration, EventQueue, SeedSeq, SimRng, Time};
use lit_traffic::{Emission, Source};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Barrier, Mutex};

/// Which shard owns node `node` of `n_nodes` when running `shards`
/// shards: contiguous blocks of `⌈N/S⌉`-ish size, computed without
/// rounding drift as `node·S/N`.
pub fn owner_of(node: usize, n_nodes: usize, shards: usize) -> usize {
    debug_assert!(node < n_nodes && shards >= 1);
    node * shards / n_nodes
}

/// Process-global default shard count, applied by CLI layers that build
/// many networks from one `--shards` flag (mirrors the oracle's global
/// mode knob). `0` and `1` both mean "scalar".
static GLOBAL_SHARDS: AtomicUsize = AtomicUsize::new(1);

/// Set the process-global default shard count (see [`global_shards`]).
pub fn set_global_shards(n: usize) {
    GLOBAL_SHARDS.store(n.max(1), Ordering::Relaxed);
}

/// The process-global default shard count (1 unless a CLI set it).
pub fn global_shards() -> usize {
    GLOBAL_SHARDS.load(Ordering::Relaxed)
}

/// Process-global count of builds that requested ≥ 2 shards but degraded
/// to the scalar engine (probe installed, panic-mode oracle, a
/// zero-lookahead cross-shard edge, or fewer than two nodes). The
/// fallback keeps results valid, but it silently changes which engine a
/// run measures, so it is counted instead of hidden: harnesses can
/// assert the sharded engine actually ran (see also
/// [`crate::Network::shard_count`]), and `lit-repro` prints a notice
/// when a `--shards` request degraded.
static SHARD_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// How many builds so far degraded a ≥ 2 shard request to the scalar
/// engine (see [`crate::NetworkBuilder::shards`] for the fallback cases).
pub fn shard_fallbacks() -> u64 {
    SHARD_FALLBACKS.load(Ordering::Relaxed)
}

/// Record one degraded build (called by `NetworkBuilder::build`).
pub(crate) fn record_fallback() {
    SHARD_FALLBACKS.fetch_add(1, Ordering::Relaxed);
}

/// Mailbox capacity per directed shard pair; overflow spills to a
/// mutex-guarded vector for the remainder of the window.
const MAILBOX_CAP: usize = 1024;

/// Events of one shard's executor — the scalar engine's events with
/// packets replaced by dense arena references so entries stay `Copy`.
#[derive(Clone, Copy)]
enum Ev {
    /// Inject the pending emission of session `sid` (arrival at hop 0).
    Inject { sid: u32 },
    /// A packet's last bit arrives at its current hop's node.
    Arrive { p: PacketRef },
    /// A regulated packet becomes eligible; `at` is the instant the
    /// regulator computed, re-checked by the oracle on release.
    Eligible { p: PacketRef, key: u128, at: Time },
    /// The head of `node`'s shared interleaved-regulator FIFO reaches its
    /// eligibility instant; `at` is re-checked by the oracle on firing.
    RegFire { node: u32, at: Time },
    /// The node finished transmitting its current packet.
    TxDone { node: u32 },
}

/// A cross-shard packet handoff: arrive at `at` on the receiving shard.
struct Handoff {
    at: Time,
    pkt: Packet,
}

/// The canonical same-instant ordering key: unique per event (a session
/// has one packet per `(hop, seq)` in flight, a node one transmission)
/// and derived from content only, never from queue arrival order.
fn tie_key(arena: &PacketArena, ev: &Ev) -> (u8, u32, u32, u64) {
    match *ev {
        Ev::Inject { sid } => (0, sid, 0, 0),
        Ev::Arrive { p } => arena.get(p).map_or((1, u32::MAX, u32::MAX, u64::MAX), |k| {
            (1, k.session.0, k.hop, k.seq)
        }),
        Ev::Eligible { p, .. } => arena.get(p).map_or((2, u32::MAX, u32::MAX, u64::MAX), |k| {
            (2, k.session.0, k.hop, k.seq)
        }),
        Ev::RegFire { node, .. } => (3, node, 0, 0),
        Ev::TxDone { node } => (4, node, 0, 0),
    }
}

/// Runtime state of one node owned by this shard.
struct NodeSt {
    link: LinkParams,
    discipline: Box<dyn Discipline>,
    queue: EligibleQueue<PacketRef>,
    current: Option<PacketRef>,
    /// Shared per-hop regulator FIFO, used only under
    /// [`RegulatorBackend::Interleaved`] (see the scalar engine's twin).
    fifo: RegFifo<PacketRef>,
}

/// The injector of one session, owned by the shard of its first hop.
struct InjectRt {
    rate_bps: u64,
    source: Box<dyn Source>,
    rng: SimRng,
    next_seq: u64,
    pending: Option<Emission>,
    /// Reference-server clock `W_{i-1,s}` (eq. 1); `None` before packet 1.
    ref_w: Option<Time>,
}

/// One shard: a self-contained executor over its block of nodes.
struct Shard {
    id: usize,
    nshards: usize,
    now: Time,
    events: EventQueue<Ev>,
    arena: PacketArena,
    /// Node runtime state, globally indexed; `Some` only for owned nodes.
    nodes: Vec<Option<NodeSt>>,
    node_stats: Vec<NodeStats>,
    /// Session injectors, globally indexed; `Some` iff hop 0 is owned.
    sessions: Vec<Option<InjectRt>>,
    /// Per-session statistics rows; `Some` iff any hop is owned. Rows are
    /// field-disjoint across shards (each field is written only by the
    /// shard owning the hop that produces it) and merged by
    /// [`SessionStats::absorb`] in shard order.
    stats: Vec<Option<SessionStats>>,
    /// Route table (node, assignment) per session, shared read-only.
    hops: Arc<Vec<Vec<(u32, DelayAssignment)>>>,
    /// Per-session jitter-control flags, shared read-only (the
    /// interleaved join rule needs them without owning the specs).
    jc: Arc<Vec<bool>>,
    /// Regulator backend selected at build, identical on every shard.
    regulator: RegulatorBackend,
    /// Node → owning shard, shared read-only.
    owner: Arc<Vec<u32>>,
    oracle: OracleRt,
    /// Max reference delay over *delivered* packets, per session — the
    /// sharded jitter oracle's `D^ref_max` (see module docs).
    ref_max_ps: Vec<i128>,
    /// Batched-arrival dispatch enabled (oracle off, no probe).
    batch: bool,
    /// Outgoing mailboxes, one per destination shard with a route edge.
    outboxes: Vec<Option<SyncSender<Handoff>>>,
    /// Incoming mailboxes, one per source shard with a route edge.
    inboxes: Vec<Option<Receiver<Handoff>>>,
    /// Spill lanes `[from][to]`, shared by all shards; the sender locks
    /// `[self.id][dest]`, the receiver drains `[src][self.id]`.
    spill: Arc<Vec<Vec<Mutex<Vec<Handoff>>>>>,
    /// Destinations whose channel filled this window (drain resets).
    spilling: Vec<bool>,
    /// Same-instant event group scratch (capacity persists).
    group: Vec<Ev>,
    /// Batched-arrival scratch buffers (capacity persists).
    batch_pkts: Vec<Packet>,
    batch_refs: Vec<PacketRef>,
    batch_out: Vec<ScheduleDecision>,
    /// Handoff drain scratch (capacity persists).
    handoff_buf: Vec<Handoff>,
    /// Same-instant events appended directly to the group tail instead of
    /// the event set; `pushed() + appended` is the scalar-equivalent
    /// event count.
    appended: u64,
}

impl Shard {
    /// Timestamp of the earliest local event, `u64::MAX` if none.
    fn next_event_ps(&self) -> u64 {
        self.events.peek_time().map_or(u64::MAX, |t| t.as_ps())
    }

    /// Process every local event strictly below `horizon_ps` and at or
    /// before `until`, draining and canonically ordering each
    /// same-instant group (see module docs on determinism).
    fn process_window(&mut self, horizon_ps: u64, until: Time) {
        while let Some(t) = self.events.peek_time() {
            if t.as_ps() >= horizon_ps || t > until {
                break;
            }
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            let mut group = std::mem::take(&mut self.group);
            debug_assert!(group.is_empty());
            while let Some((_, ev)) = self.events.pop_if(|at, _| at == t) {
                group.push(ev);
            }
            {
                let arena = &self.arena;
                group.sort_unstable_by_key(|ev| tie_key(arena, ev));
            }
            let mut i = 0;
            while i < group.len() {
                // lit-lint: allow(no-panic-hot-path, "cursor bounded by the length check above; the group only grows")
                let ev = group[i];
                i += 1;
                match ev {
                    Ev::Inject { sid } => self.inject(sid, &mut group),
                    Ev::Arrive { p } if self.batch => i = self.arrive_batched(p, i, &mut group),
                    Ev::Arrive { p } => self.arrive(p, &mut group),
                    Ev::Eligible { p, key, at } => self.eligible(p, key, at, &mut group),
                    Ev::RegFire { node, at } => self.reg_fire(node, at, &mut group),
                    Ev::TxDone { node } => self.tx_done(node, &mut group),
                }
            }
            group.clear();
            self.group = group;
        }
    }

    /// Schedule `ev` at `at`: same-instant events append to the current
    /// group's tail (FIFO, like a heap loop would pop them), future ones
    /// go to the event set.
    fn emit(&mut self, at: Time, ev: Ev, group: &mut Vec<Ev>) {
        debug_assert!(at >= self.now, "scheduled into the past");
        if at == self.now {
            group.push(ev);
            self.appended += 1;
        } else {
            self.events.push(at, ev);
        }
    }

    /// Materialize the pending emission of `sid` at hop 0 and
    /// pull/schedule the next one. Mirrors the scalar engine's `inject`.
    fn inject(&mut self, sid: u32, group: &mut Vec<Ev>) {
        let now = self.now;
        let (pkt, next_at) = {
            // lit-lint: allow(no-panic-hot-path, "executor invariant: Inject events carry indices minted by build over this same vec")
            let s = self.sessions[sid as usize]
                .as_mut()
                // lit-lint: allow(no-panic-hot-path, "build mints an injector for every first-hop session on this shard")
                .expect("Inject on a shard that owns no injector for this session");
            // lit-lint: allow(no-panic-hot-path, "executor invariant: an Inject event is only pushed when `pending` was just filled")
            let e = s.pending.take().expect("Inject without pending emission");
            debug_assert_eq!(e.at, now);
            let seq = s.next_seq;
            s.next_seq += 1;
            let mut pkt = Packet::new(SessionId(sid), seq, e.len_bits, e.at);

            // Reference-server co-simulation (eq. 1): W_i = max(t_i,
            // W_{i-1}) + L_i/r, with W_0 = t_1.
            let service = Duration::from_bits_at_rate(e.len_bits as u64, s.rate_bps);
            let w_prev = s.ref_w.unwrap_or(e.at);
            let w = e.at.max(w_prev) + service;
            s.ref_w = Some(w);

            s.pending = s.source.next_emission(&mut s.rng);
            if let Some(next) = s.pending {
                debug_assert!(next.at >= e.at, "source emitted into the past");
            }
            pkt.ref_delay = w - e.at;
            (pkt, s.pending.map(|n| n.at))
        };
        if let Some(at) = next_at {
            self.emit(at, Ev::Inject { sid }, group);
        }
        // lit-lint: allow(no-panic-hot-path, "stats rows exist for every session with an owned hop; the injector's shard owns hop 0")
        let st = self.stats[sid as usize]
            .as_mut()
            // lit-lint: allow(no-panic-hot-path, "stats row exists: this shard owns hop 0")
            .expect("injector shard missing its stats row");
        st.injected += 1;
        st.reference.record(pkt.ref_delay);
        let p = self.arena.alloc(pkt);
        self.arrive(p, group);
    }

    /// A packet's last bit arrives at its current hop. Mirrors the scalar
    /// engine's `arrive`, minus probe hooks (a probe forces scalar).
    fn arrive(&mut self, p: PacketRef, group: &mut Vec<Ev>) {
        let now = self.now;
        let (sid, hop, len_bits, seq) = {
            let pkt = self.arena.packet_mut(p);
            pkt.arrived = now;
            (pkt.session.index(), pkt.hop as usize, pkt.len_bits, pkt.seq)
        };
        // lit-lint: allow(no-panic-hot-path, "executor invariant: packets carry the session id and hop index they were routed with at build")
        let node_idx = self.hops[sid][hop].0 as usize;
        // lit-lint: allow(no-panic-hot-path, "stats rows exist for every session with an owned hop")
        self.stats[sid]
            .as_mut()
            // lit-lint: allow(no-panic-hot-path, "stats row exists: this shard owns the arriving hop")
            .expect("arrival shard missing its stats row")
            .occupy(hop, len_bits as u64);

        let decision = {
            let (nodes, arena) = (&mut self.nodes, &mut self.arena);
            // lit-lint: allow(no-panic-hot-path, "executor invariant: a packet only arrives at nodes its owner shard holds")
            let node = nodes[node_idx].as_mut().expect("arrival at unowned node");
            let pkt = arena.packet_mut(p);
            node.discipline.on_arrival(pkt, now)
        };
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
                self.oracle.violate(ViolationKind::EligibilityOrder, || {
                    format!(
                        "session {sid} hop {hop} seq {seq}: eligibility {} < previous {prev}",
                        decision.eligible
                    )
                });
            } else {
                *last = decision.eligible;
            }
            if decision.eligible < now {
                self.oracle.violate(ViolationKind::ReleaseTime, || {
                    format!(
                        "session {sid} hop {hop} seq {seq}: eligibility {} before arrival {now}",
                        decision.eligible
                    )
                });
            }
        }
        if self.regulator == RegulatorBackend::Interleaved {
            // Interleaved join rule, mirroring the scalar engine: a packet
            // enters the shared FIFO when it must be held (`E > now`) or
            // when it is jitter-controlled and the FIFO already holds
            // earlier packets (overtaking them would break the
            // regulator's FIFO contract). Immediately eligible non-jc
            // packets bypass the regulator, as unshaped traffic does in
            // TSN ATS.
            // lit-lint: allow(no-panic-hot-path, "jc table has one flag per session, installed at build")
            let jc = self.jc[sid];
            let was_empty = {
                // lit-lint: allow(no-panic-hot-path, "executor invariant: a packet only arrives at nodes its owner shard holds")
                let node = self.nodes[node_idx]
                    .as_mut()
                    // lit-lint: allow(no-panic-hot-path, "arriving packets only target owned nodes")
                    .expect("arrival at unowned node");
                if decision.eligible > now || (jc && !node.fifo.queue.is_empty()) {
                    let was_empty = node.fifo.queue.is_empty();
                    node.fifo.join(p, decision.key, decision.eligible, now);
                    Some(was_empty)
                } else {
                    None
                }
            };
            match was_empty {
                // Joining an empty FIFO implies `E > now`, so the head
                // timer is always armed strictly in the future.
                Some(true) => self.events.push(
                    decision.eligible,
                    Ev::RegFire {
                        node: node_idx as u32,
                        at: decision.eligible,
                    },
                ),
                Some(false) => {}
                None => self.enqueue_eligible(node_idx as u32, p, decision.key, group),
            }
        } else if decision.eligible > now {
            self.events.push(
                decision.eligible,
                Ev::Eligible {
                    p,
                    key: decision.key,
                    at: decision.eligible,
                },
            );
        } else {
            self.enqueue_eligible(node_idx as u32, p, decision.key, group);
        }
    }

    /// Batched arrival dispatch: `first` was just taken from the sorted
    /// group at cursor `i`; the rest of its run — consecutive arrivals of
    /// the same `(session, hop)`, adjacent by canonical order — is
    /// consumed here and pushed through `on_arrival_batch` exactly like
    /// the scalar engine's `arrive_batched`. Returns the new cursor.
    fn arrive_batched(&mut self, first: PacketRef, mut i: usize, group: &mut Vec<Ev>) -> usize {
        let now = self.now;
        let (sid, hop) = {
            let pkt = self.arena.packet(first);
            (pkt.session, pkt.hop)
        };
        let mut refs = std::mem::take(&mut self.batch_refs);
        refs.clear();
        refs.push(first);
        while i < group.len() {
            // lit-lint: allow(no-panic-hot-path, "cursor bounded by the length check above")
            let Ev::Arrive { p } = group[i] else { break };
            let matches = self
                .arena
                .get(p)
                .is_some_and(|k| k.session == sid && k.hop == hop);
            if !matches {
                break;
            }
            refs.push(p);
            i += 1;
        }
        // Copy the run out of the arena ([`Packet`] is `Copy`), batch
        // through the discipline, write the mutated packets back.
        let mut batch = std::mem::take(&mut self.batch_pkts);
        batch.clear();
        for &r in &refs {
            let pkt = self.arena.packet_mut(r);
            pkt.arrived = now;
            batch.push(*pkt);
        }
        let sidx = sid.index();
        let hopx = hop as usize;
        // lit-lint: allow(no-panic-hot-path, "executor invariant: packets carry the session id and hop index they were routed with at build")
        let node_idx = self.hops[sidx][hopx].0 as usize;
        let mut out = std::mem::take(&mut self.batch_out);
        out.clear();
        {
            // lit-lint: allow(no-panic-hot-path, "executor invariant: a packet only arrives at nodes its owner shard holds")
            let node = self.nodes[node_idx]
                .as_mut()
                // lit-lint: allow(no-panic-hot-path, "arriving packets only target owned nodes")
                .expect("arrival at unowned node");
            node.discipline.on_arrival_batch(&mut batch, now, &mut out);
        }
        debug_assert_eq!(out.len(), batch.len(), "one decision per packet");
        for ((&r, pkt), decision) in refs.iter().zip(batch.drain(..)).zip(out.drain(..)) {
            debug_assert!(
                decision.eligible >= now,
                "discipline produced an eligibility time in the past"
            );
            *self.arena.packet_mut(r) = pkt;
            // lit-lint: allow(no-panic-hot-path, "stats rows exist for every session with an owned hop")
            self.stats[sidx]
                .as_mut()
                // lit-lint: allow(no-panic-hot-path, "stats row exists: this shard owns the batched hop")
                .expect("arrival shard missing its stats row")
                .occupy(hopx, pkt.len_bits as u64);
            if decision.eligible > now {
                self.events.push(
                    decision.eligible,
                    Ev::Eligible {
                        p: r,
                        key: decision.key,
                        at: decision.eligible,
                    },
                );
            } else {
                self.enqueue_eligible(node_idx as u32, r, decision.key, group);
            }
        }
        self.batch_refs = refs;
        self.batch_pkts = batch;
        self.batch_out = out;
        i
    }

    /// A regulated packet's eligibility instant fired.
    fn eligible(&mut self, p: PacketRef, key: u128, at: Time, group: &mut Vec<Ev>) {
        let now = self.now;
        let (sid, hop) = {
            let pkt = self.arena.packet(p);
            (pkt.session.index(), pkt.hop as usize)
        };
        // lit-lint: allow(no-panic-hot-path, "executor invariant: packets carry the session id and hop index they were routed with at build")
        let node_idx = self.hops[sid][hop].0;
        if self.oracle.enabled() && now != at {
            let seq = self.arena.get(p).map_or(0, |k| k.seq);
            self.oracle.violate(ViolationKind::ReleaseTime, || {
                format!("session {sid} seq {seq} released at {now}, eligibility was {at}")
            });
        }
        self.enqueue_eligible(node_idx, p, key, group);
    }

    /// The head of `node_idx`'s interleaved-regulator FIFO reached its
    /// eligibility instant: release the head and every successor whose own
    /// eligibility has also passed, then re-arm the timer at the new
    /// head's instant. Mirrors the scalar engine's `reg_fire` — same
    /// release-order and shaping-ceiling checks — minus probe hooks (a
    /// probe forces scalar).
    fn reg_fire(&mut self, node_idx: u32, at: Time, group: &mut Vec<Ev>) {
        if self.oracle.enabled() && self.now != at {
            let now = self.now;
            self.oracle.violate(ViolationKind::ReleaseTime, || {
                format!("node {node_idx}: regulator timer fired at {now}, was armed for {at}")
            });
        }
        loop {
            // lit-lint: allow(no-panic-hot-path, "executor invariant: RegFire events name nodes this shard owns")
            let node = self.nodes[node_idx as usize]
                .as_mut()
                // lit-lint: allow(no-panic-hot-path, "RegFire only targets owned nodes")
                .expect("RegFire at unowned node");
            let Some(head) = node.fifo.queue.front() else {
                break;
            };
            if head.eligible > self.now {
                let next = head.eligible;
                self.events.push(
                    next,
                    Ev::RegFire {
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
            if self.oracle.enabled() {
                let (esid, eseq) = self
                    .arena
                    .get(entry.item)
                    .map_or((u32::MAX, u64::MAX), |k| (k.session.0, k.seq));
                if now != expected {
                    self.oracle.violate(ViolationKind::RegulatorFifo, || {
                        format!(
                            "node {node_idx} session {esid} seq {eseq}: released at {now}, \
                             interleaved regulator requires max(last release, E) = {expected}"
                        )
                    });
                }
                let shaping_ps = now.checked_since(entry.eligible).map_or(0, |d| d.as_ps());
                if shaping_ps > ceiling_ps {
                    self.oracle.violate(ViolationKind::ShapingBound, || {
                        format!(
                            "node {node_idx} session {esid} seq {eseq}: held {shaping_ps} ps \
                             past its eligibility, service-curve ceiling is {ceiling_ps} ps"
                        )
                    });
                }
            }
            self.enqueue_eligible(node_idx, entry.item, entry.key, group);
        }
    }

    /// Put an eligible packet in the node's transmission queue and start
    /// the link if idle.
    fn enqueue_eligible(&mut self, node_idx: u32, p: PacketRef, key: u128, group: &mut Vec<Ev>) {
        // lit-lint: allow(no-panic-hot-path, "executor invariant: a packet only becomes eligible at nodes its owner shard holds")
        let node = self.nodes[node_idx as usize]
            .as_mut()
            // lit-lint: allow(no-panic-hot-path, "eligible packets only reference owned nodes")
            .expect("eligible at unowned node");
        node.queue.push(key, p);
        if node.current.is_none() {
            self.start_tx(node_idx, group);
        }
    }

    /// Begin transmitting the highest-priority eligible packet.
    fn start_tx(&mut self, node_idx: u32, group: &mut Vec<Ev>) {
        let now = self.now;
        let tx = {
            let (nodes, arena) = (&mut self.nodes, &self.arena);
            // lit-lint: allow(no-panic-hot-path, "executor invariant: node ids come from the build-time topology of this shard")
            let node = nodes[node_idx as usize]
                .as_mut()
                // lit-lint: allow(no-panic-hot-path, "start_tx only runs on owned nodes")
                .expect("start_tx at unowned node");
            debug_assert!(node.current.is_none(), "link already busy");
            let Some(p) = node.queue.pop() else {
                return;
            };
            let pkt = arena.packet(p);
            let tx = node.link.tx_time(pkt.len_bits);
            node.discipline.on_service_start(pkt, now);
            node.current = Some(p);
            tx
        };
        // lit-lint: allow(no-panic-hot-path, "node_stats is built with one entry per node")
        self.node_stats[node_idx as usize].busy.set_busy(now);
        self.emit(now + tx, Ev::TxDone { node: node_idx }, group);
    }

    /// The node's current packet finished transmission: account for it,
    /// then forward it (same shard: arena in place; cross shard: by value
    /// through the mailbox) or deliver it.
    fn tx_done(&mut self, node_idx: u32, group: &mut Vec<Ev>) {
        let finish = self.now;
        let (p, propagation, lmax_ps) = {
            let (nodes, arena) = (&mut self.nodes, &mut self.arena);
            // lit-lint: allow(no-panic-hot-path, "executor invariant: TxDone events name nodes this shard owns")
            let node = nodes[node_idx as usize]
                .as_mut()
                // lit-lint: allow(no-panic-hot-path, "TxDone only targets owned nodes")
                .expect("TxDone at unowned node");
            // lit-lint: allow(no-panic-hot-path, "executor invariant: a TxDone event exists only while `current` is occupied")
            let p = node.current.take().expect("TxDone with idle link");
            let pkt = arena.packet_mut(p);
            node.discipline.on_departure(pkt, finish);
            (
                p,
                node.link.propagation,
                node.link.lmax_time().as_ps() as i128,
            )
        };
        let (sid, hop, len_bits, seq, deadline) = {
            let pkt = self.arena.packet(p);
            (
                pkt.session.index(),
                pkt.hop as usize,
                pkt.len_bits,
                pkt.seq,
                pkt.deadline,
            )
        };

        // Node accounting.
        // lit-lint: allow(no-panic-hot-path, "node_stats is built with one entry per node")
        let nst = &mut self.node_stats[node_idx as usize];
        nst.transmitted += 1;
        nst.bits_transmitted += len_bits as u64;
        let lateness = finish.as_ps() as i128 - deadline.as_ps() as i128;
        nst.max_lateness_ps = nst.max_lateness_ps.max(lateness);
        // The non-saturation allowance is a *per-session-regulator*
        // lemma: under the interleaved backend a packet can legitimately
        // leave later (it may wait behind other sessions' holds in the
        // shared FIFO), so the check is suspended there and the regulator
        // invariants take over at release time.
        if self.oracle.enabled() && !self.oracle.interleaved && lateness >= lmax_ps {
            // Non-saturation lemma: F̂ < F + L_MAX/C.
            nst.oracle_violations += 1;
            self.oracle.violate(ViolationKind::Lateness, || {
                format!(
                    "node {node_idx} session {sid} seq {seq}: finish {finish} is \
                     {lateness} ps past deadline {deadline} (allowance {lmax_ps} ps)"
                )
            });
        }

        // Session accounting: the packet no longer occupies this node.
        // lit-lint: allow(no-panic-hot-path, "stats rows exist for every session with an owned hop")
        self.stats[sid]
            .as_mut()
            // lit-lint: allow(no-panic-hot-path, "stats row exists: this shard owns the departing hop")
            .expect("departure shard missing its stats row")
            .release(hop, len_bits as u64);

        // lit-lint: allow(no-panic-hot-path, "executor invariant: packets carry the session id they were routed with at build")
        let hops_len = self.hops[sid].len();
        if hop + 1 < hops_len {
            // lit-lint: allow(no-panic-hot-path, "hop+1 < hops_len bound-checks the route lookup")
            let next_node = self.hops[sid][hop + 1].0 as usize;
            // lit-lint: allow(no-panic-hot-path, "owner is built with one entry per node")
            let dest = self.owner[next_node] as usize;
            if dest == self.id {
                self.arena
                    .get_mut(p)
                    // lit-lint: allow(no-panic-hot-path, "reference taken live at the top of this function")
                    .expect("forwarding packet vanished")
                    .hop += 1;
                self.emit(finish + propagation, Ev::Arrive { p }, group);
            } else {
                let mut pkt = self.arena.remove(p);
                pkt.hop += 1;
                self.send_handoff(
                    dest,
                    Handoff {
                        at: finish + propagation,
                        pkt,
                    },
                );
            }
        } else {
            // Delivered: end-to-end delay includes the last link's
            // propagation, matching β's Σ(L_MAX/Cₙ + Γₙ) over n = 1..N.
            let pkt = self.arena.remove(p);
            let delivery = finish + propagation;
            // lit-lint: allow(no-panic-hot-path, "stats rows exist for every session with an owned hop")
            let st = self.stats[sid]
                .as_mut()
                // lit-lint: allow(no-panic-hot-path, "stats row exists: this shard owns the delivery hop")
                .expect("delivery shard missing its stats row");
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
            // lit-lint: allow(no-panic-hot-path, "ref_max_ps is built with one entry per session")
            let rm = &mut self.ref_max_ps[sid];
            *rm = (*rm).max(pkt.ref_delay.as_ps() as i128);
            let dref_ps = *rm;
            if self.oracle.enabled() {
                // lit-lint: allow(no-panic-hot-path, "oracle bounds are sized to the session count at build")
                if let Some(b) = self.oracle.bounds[sid] {
                    // Ineq. 12, pathwise: D_i − D^ref_i < β + α.
                    if excess >= b.shift_ps {
                        st.oracle_violations += 1;
                        self.oracle.violate(ViolationKind::DelayBound, || {
                            format!(
                                "session {sid} seq {seq}: excess {excess} ps ≥ β+α = {} ps",
                                b.shift_ps
                            )
                        });
                    }
                    // Ineq. 17 family, against the delivered-side
                    // D^ref_max (see module docs on the deviation).
                    let jitter_ps = st.e2e.spread().map_or(0, |j| j.as_ps() as i128);
                    if jitter_ps >= dref_ps + b.jitter_spread_ps {
                        st.oracle_violations += 1;
                        self.oracle.violate(ViolationKind::JitterBound, || {
                            format!(
                                "session {sid} seq {seq}: jitter {jitter_ps} ps ≥ \
                                 D^ref_max {dref_ps} + spread {} ps",
                                b.jitter_spread_ps
                            )
                        });
                    }
                }
            }
        }

        // Keep the link busy if more eligible work is queued.
        // lit-lint: allow(no-panic-hot-path, "executor invariant: TxDone events name nodes this shard owns")
        let node = self.nodes[node_idx as usize]
            .as_mut()
            // lit-lint: allow(no-panic-hot-path, "TxDone only targets owned nodes")
            .expect("TxDone at unowned node");
        if node.queue.is_empty() {
            // lit-lint: allow(no-panic-hot-path, "node_stats is built with one entry per node")
            self.node_stats[node_idx as usize].busy.set_idle(finish);
        } else {
            self.start_tx(node_idx, group);
        }
    }

    /// Send a handoff to shard `dest`: through the bounded channel while
    /// it has room, then through the spill lane for the rest of the
    /// window (per-pair FIFO is preserved: the receiver drains the
    /// channel before the spill).
    fn send_handoff(&mut self, dest: usize, h: Handoff) {
        // lit-lint: allow(no-panic-hot-path, "spilling/outboxes are built with one entry per shard")
        if !self.spilling[dest] {
            // lit-lint: allow(no-panic-hot-path, "build creates an outbox for every shard pair with a route edge; tx_done only targets those")
            let tx = self.outboxes[dest]
                .as_ref()
                // lit-lint: allow(no-panic-hot-path, "build wired a mailbox for every cross-shard route edge")
                .expect("handoff to a shard pair without a mailbox");
            match tx.try_send(h) {
                Ok(()) => {}
                Err(TrySendError::Full(h)) => {
                    // lit-lint: allow(no-panic-hot-path, "spilling is built with one entry per shard")
                    self.spilling[dest] = true;
                    self.spill_push(dest, h);
                }
                Err(TrySendError::Disconnected(_)) => {
                    // Receivers live in `ShardedNet` for the network's
                    // whole lifetime; a closed channel means the engine
                    // is being torn down and the packet can only vanish.
                    debug_assert!(false, "handoff channel disconnected mid-run");
                }
            }
        } else {
            self.spill_push(dest, h);
        }
    }

    fn spill_push(&mut self, dest: usize, h: Handoff) {
        // lit-lint: allow(no-panic-hot-path, "spill is built as a full nshards×nshards matrix")
        let lane = &self.spill[self.id][dest];
        // The lane is uncontended by protocol (sends and drains are
        // separated by a barrier); a poisoned lock means another shard
        // panicked and the run is aborting anyway.
        // lit-lint: allow(no-panic-hot-path, "poisoned only if a sibling shard already panicked; propagating is correct")
        lane.lock().expect("spill lane poisoned").push(h);
    }

    /// Post-barrier: move every received handoff into the local event
    /// set (channel first, then spill, per source shard in id order) and
    /// re-arm the spill flags for the next window.
    fn drain_inboxes(&mut self) {
        for f in self.spilling.iter_mut() {
            *f = false;
        }
        let mut buf = std::mem::take(&mut self.handoff_buf);
        debug_assert!(buf.is_empty());
        for src in 0..self.nshards {
            // lit-lint: allow(no-panic-hot-path, "inboxes is built with one entry per shard")
            if let Some(rx) = self.inboxes[src].as_ref() {
                while let Ok(h) = rx.try_recv() {
                    buf.push(h);
                }
            }
            // lit-lint: allow(no-panic-hot-path, "spill is built as a full nshards×nshards matrix")
            let lane = &self.spill[src][self.id];
            // lit-lint: allow(no-panic-hot-path, "poisoned only if a sibling shard already panicked; propagating is correct")
            let mut lane = lane.lock().expect("spill lane poisoned");
            buf.append(&mut lane);
            drop(lane);
        }
        for h in buf.drain(..) {
            let p = self.arena.alloc(h.pkt);
            self.events.push(h.at, Ev::Arrive { p });
        }
        self.handoff_buf = buf;
    }
}

/// The sharded engine: `S` self-contained [`Shard`] executors plus the
/// merged, facade-visible view of their statistics.
pub(crate) struct ShardedNet {
    shards: Vec<Shard>,
    links: Vec<LinkParams>,
    specs: Vec<SessionSpec>,
    hops: Arc<Vec<Vec<(u32, DelayAssignment)>>>,
    /// Minimum cross-shard propagation delay (the lookahead `L`);
    /// `u64::MAX` when no route crosses shards (windows are unbounded and
    /// the shards run mutually independent).
    lookahead_ps: u64,
    stats_cfg: StatsConfig,
    now: Time,
    merged_sessions: Vec<SessionStats>,
    merged_nodes: Vec<NodeStats>,
    /// Facade-level oracle state: holds the installed bounds and runs the
    /// drain-time CCDF check over the *merged* histograms.
    oracle: OracleRt,
}

impl ShardedNet {
    /// Instantiate the sharded engine. `nshards ≥ 2` and admissibility
    /// were already established by `NetworkBuilder::effective_shards`.
    pub(crate) fn build(
        b: NetworkBuilder,
        factory: &DisciplineFactory<'_>,
        nshards: usize,
    ) -> Self {
        let n_nodes = b.links.len();
        let owner: Arc<Vec<u32>> = Arc::new(
            (0..n_nodes)
                .map(|n| owner_of(n, n_nodes, nshards) as u32)
                .collect(),
        );
        let session_hops: Vec<usize> = b.sessions.iter().map(|d| d.hops.len()).collect();

        // Lookahead: the minimum propagation over cross-shard consecutive
        // hop pairs, plus the directed shard-pair edge set for mailboxes.
        let mut lookahead_ps = u64::MAX;
        let mut edge = vec![vec![false; nshards]; nshards];
        for def in &b.sessions {
            for w in def.hops.windows(2) {
                // lit-lint: allow(no-panic-hot-path, "windows(2) yields exactly two elements")
                let (a, z) = (w[0].0 as usize, w[1].0 as usize);
                // lit-lint: allow(no-panic-hot-path, "owner table has one entry per node; routes validated at add_session")
                let (oa, oz) = (owner[a] as usize, owner[z] as usize);
                if oa != oz {
                    // lit-lint: allow(no-panic-hot-path, "route nodes index the builder's link table by construction")
                    lookahead_ps = lookahead_ps.min(b.links[a].propagation.as_ps());
                    // lit-lint: allow(no-panic-hot-path, "edge matrix is nshards x nshards; owners are < nshards")
                    edge[oa][oz] = true;
                }
            }
        }
        debug_assert!(lookahead_ps > 0, "zero lookahead should have forced scalar");

        // Mailboxes for every directed pair with an edge; spill lanes for
        // every pair (cheap, and keeps indexing uniform).
        let mut txs: Vec<Vec<Option<SyncSender<Handoff>>>> = (0..nshards)
            .map(|_| (0..nshards).map(|_| None).collect())
            .collect();
        let mut rxs: Vec<Vec<Option<Receiver<Handoff>>>> = (0..nshards)
            .map(|_| (0..nshards).map(|_| None).collect())
            .collect();
        for (from, row) in edge.iter().enumerate() {
            for (to, &has) in row.iter().enumerate() {
                if has {
                    let (tx, rx) = std::sync::mpsc::sync_channel(MAILBOX_CAP);
                    // lit-lint: allow(no-panic-hot-path, "mailbox matrices are nshards x nshards by construction")
                    txs[from][to] = Some(tx);
                    // lit-lint: allow(no-panic-hot-path, "mailbox matrices are nshards x nshards by construction")
                    rxs[to][from] = Some(rx);
                }
            }
        }
        let spill: Arc<Vec<Vec<Mutex<Vec<Handoff>>>>> = Arc::new(
            (0..nshards)
                .map(|_| (0..nshards).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
        );

        let batch = b.batch_arrivals
            && b.oracle.mode == OracleMode::Off
            && b.regulator == RegulatorBackend::PerSession;
        let interleaved = b.regulator == RegulatorBackend::Interleaved;
        let mut shards: Vec<Shard> = {
            let mut rx_iter = rxs.into_iter();
            let mut tx_iter = txs.into_iter();
            (0..nshards)
                .map(|id| Shard {
                    id,
                    nshards,
                    now: Time::ZERO,
                    events: EventQueue::with_backend(b.event_backend),
                    arena: PacketArena::new(),
                    nodes: b
                        .links
                        .iter()
                        .enumerate()
                        .map(|(n, link)| {
                            // lit-lint: allow(no-panic-hot-path, "owner table has one entry per node")
                            (owner[n] as usize == id).then(|| NodeSt {
                                link: *link,
                                discipline: factory(link),
                                queue: EligibleQueue::new(b.queue_kind),
                                current: None,
                                fifo: RegFifo::new(),
                            })
                        })
                        .collect(),
                    node_stats: (0..n_nodes).map(|_| NodeStats::new()).collect(),
                    sessions: (0..session_hops.len()).map(|_| None).collect(),
                    stats: (0..session_hops.len()).map(|_| None).collect(),
                    hops: Arc::new(Vec::new()), // installed below
                    jc: Arc::new(Vec::new()),   // installed below
                    regulator: b.regulator,
                    owner: Arc::clone(&owner),
                    oracle: {
                        let mut o = OracleRt::new(b.oracle, &session_hops);
                        o.interleaved = interleaved;
                        o
                    },
                    ref_max_ps: vec![i128::MIN; session_hops.len()],
                    batch,
                    outboxes: tx_iter.next().unwrap_or_default(),
                    inboxes: rx_iter.next().unwrap_or_default(),
                    spill: Arc::clone(&spill),
                    spilling: vec![false; nshards],
                    group: Vec::new(),
                    batch_pkts: Vec::new(),
                    batch_refs: Vec::new(),
                    batch_out: Vec::new(),
                    handoff_buf: Vec::new(),
                    appended: 0,
                })
                .collect()
        };

        // Register sessions: disciplines on each hop's owner shard, the
        // injector (with its RNG from the global per-session seed
        // sequence — identical streams for every shard count) on the
        // first hop's owner, a stats row on every touching shard.
        let mut seeds = SeedSeq::new(b.master_seed);
        let mut specs = Vec::with_capacity(b.sessions.len());
        let mut hops_tab = Vec::with_capacity(b.sessions.len());
        for (i, def) in b.sessions.into_iter().enumerate() {
            let rng = seeds.next_rng();
            for (n, delay) in &def.hops {
                // lit-lint: allow(no-panic-hot-path, "owner table has one entry per node")
                let sh = owner[*n as usize] as usize;
                // lit-lint: allow(no-panic-hot-path, "owners are < nshards; node ids are dense build indices")
                if let Some(node) = shards[sh].nodes[*n as usize].as_mut() {
                    node.discipline.register_session(&def.spec, delay);
                }
                // lit-lint: allow(no-panic-hot-path, "owners are < nshards; session ids are dense build indices")
                if shards[sh].stats[i].is_none() {
                    // lit-lint: allow(no-panic-hot-path, "owners are < nshards; session ids are dense build indices")
                    shards[sh].stats[i] = Some(SessionStats::new(&b.stats_cfg, def.hops.len()));
                }
            }
            // lit-lint: allow(no-panic-hot-path, "routes are non-empty (validated at add_session)")
            let first = owner[def.hops[0].0 as usize] as usize;
            let mut rt = InjectRt {
                rate_bps: def.spec.rate_bps,
                source: def.source,
                rng,
                next_seq: 1, // the paper numbers packets from 1
                pending: None,
                ref_w: None,
            };
            rt.pending = rt.source.next_emission(&mut rt.rng);
            if let Some(e) = rt.pending {
                // lit-lint: allow(no-panic-hot-path, "first-hop owner is < nshards")
                shards[first]
                    .events
                    .push(e.at, Ev::Inject { sid: i as u32 });
            }
            // lit-lint: allow(no-panic-hot-path, "first-hop owner is < nshards; session ids are dense build indices")
            shards[first].sessions[i] = Some(rt);
            specs.push(def.spec);
            hops_tab.push(def.hops);
        }
        let hops = Arc::new(hops_tab);
        let jc: Arc<Vec<bool>> = Arc::new(specs.iter().map(|s| s.jitter_control).collect());
        for sh in &mut shards {
            sh.hops = Arc::clone(&hops);
            sh.jc = Arc::clone(&jc);
        }

        let merged_sessions = specs
            .iter()
            .enumerate()
            // lit-lint: allow(no-panic-hot-path, "hops table has one row per session")
            .map(|(i, _)| SessionStats::new(&b.stats_cfg, hops[i].len()))
            .collect();
        ShardedNet {
            shards,
            links: b.links,
            specs,
            hops,
            lookahead_ps,
            stats_cfg: b.stats_cfg,
            now: Time::ZERO,
            merged_sessions,
            merged_nodes: (0..n_nodes).map(|_| NodeStats::new()).collect(),
            oracle: {
                let mut o = OracleRt::new(b.oracle, &session_hops);
                o.interleaved = interleaved;
                o
            },
        }
    }

    /// Advance every shard until no event at or before `until` remains,
    /// then refresh the merged statistics view.
    pub fn run_until(&mut self, until: Time) {
        let n = self.shards.len();
        let until_ps = until.as_ps();
        let lookahead_ps = self.lookahead_ps;
        let next_ts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
        let barrier = Barrier::new(n);
        let abort = AtomicBool::new(false);
        let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

        let worker = |shard: &mut Shard| {
            loop {
                // Window protocol. Publish my earliest timestamp; after
                // barrier A everyone computes the same global minimum
                // from the same published snapshot, so every shard takes
                // the same branch below — the barriers stay aligned.
                // The break condition must be a pure function of that
                // common snapshot: reading `abort` here could observe a
                // sibling's mid-window store while that sibling already
                // parks on barrier B, and breaking would strand it (and
                // everyone else) on a barrier no one completes. Abort is
                // therefore checked only after barrier B, where the
                // flagging store (sequenced before the flagger's own
                // barrier-B wait) is visible to every shard alike.
                // lit-lint: allow(no-panic-hot-path, "next_ts has one published slot per shard")
                next_ts[shard.id].store(shard.next_event_ps(), Ordering::SeqCst);
                barrier.wait();
                let tmin = next_ts
                    .iter()
                    .map(|a| a.load(Ordering::SeqCst))
                    .min()
                    .unwrap_or(u64::MAX);
                if tmin == u64::MAX || tmin > until_ps {
                    break;
                }
                // lit-lint: allow(checked-clock-ops, "u64::MAX is the no-event sentinel; saturating keeps it a sentinel instead of wrapping")
                let horizon = tmin.saturating_add(lookahead_ps);
                // A panicking shard must not leave siblings parked on a
                // barrier: trap the payload, flag the abort, and keep
                // the protocol moving to the next aligned exit.
                let r = catch_unwind(AssertUnwindSafe(|| shard.process_window(horizon, until)));
                if let Err(payload) = r {
                    let mut slot = match panic_slot.lock() {
                        Ok(s) => s,
                        Err(p) => p.into_inner(),
                    };
                    slot.get_or_insert(payload);
                    abort.store(true, Ordering::SeqCst);
                }
                barrier.wait(); // barrier B: every send of this window is done
                if abort.load(Ordering::SeqCst) {
                    break;
                }
                shard.drain_inboxes();
            }
        };

        if n == 1 {
            // Degenerate single-shard engine (not reachable through the
            // public builder, which routes 1 shard to the scalar engine;
            // kept for the shard-count induction's base case in tests).
            if let Some(shard) = self.shards.first_mut() {
                shard.process_window(u64::MAX, until);
                shard.now = shard.now.max(until);
            }
        } else {
            std::thread::scope(|s| {
                let mut iter = self.shards.iter_mut();
                let first = iter.next();
                for shard in iter {
                    s.spawn(|| worker(shard));
                }
                if let Some(shard) = first {
                    worker(shard); // shard 0 runs on the caller's thread
                }
            });
        }
        if let Some(payload) = panic_slot.into_inner().unwrap_or_else(|p| p.into_inner()) {
            resume_unwind(payload);
        }
        for shard in &mut self.shards {
            shard.now = shard.now.max(until);
        }
        self.now = self.now.max(until);
        self.merge();
    }

    /// Rebuild the merged statistics view from the shards' field-disjoint
    /// rows, in fixed shard order (commutative merges make the order a
    /// formality, but fixing it keeps float accumulations bit-stable).
    fn merge(&mut self) {
        for (i, merged) in self.merged_sessions.iter_mut().enumerate() {
            // lit-lint: allow(no-panic-hot-path, "hops table has one row per session")
            let mut fresh = SessionStats::new(&self.stats_cfg, self.hops[i].len());
            for shard in &self.shards {
                // lit-lint: allow(no-panic-hot-path, "session ids are dense build indices")
                if let Some(st) = shard.stats[i].as_ref() {
                    fresh.absorb(st);
                }
            }
            *merged = fresh;
        }
        for (node, merged) in self.merged_nodes.iter_mut().enumerate() {
            let sh = owner_of(node, self.links.len(), self.shards.len());
            if let Some(shard) = self.shards.get(sh) {
                // lit-lint: allow(no-panic-hot-path, "node_stats is sized to the full node table")
                *merged = shard.node_stats[node].clone();
            }
        }
    }

    pub fn now(&self) -> Time {
        self.now
    }

    pub fn session_stats(&self, id: SessionId) -> &SessionStats {
        // lit-lint: allow(no-panic-hot-path, "public accessor: panicking on an invalid id is the documented contract")
        &self.merged_sessions[id.index()]
    }

    pub fn node_stats(&self, id: NodeId) -> &NodeStats {
        // lit-lint: allow(no-panic-hot-path, "public accessor: panicking on an invalid id is the documented contract")
        &self.merged_nodes[id.index()]
    }

    pub fn session_spec(&self, id: SessionId) -> &SessionSpec {
        // lit-lint: allow(no-panic-hot-path, "public accessor: panicking on an invalid id is the documented contract")
        &self.specs[id.index()]
    }

    pub fn num_sessions(&self) -> usize {
        self.specs.len()
    }

    pub fn num_nodes(&self) -> usize {
        self.links.len()
    }

    pub fn session_hops(&self, id: SessionId) -> &[(u32, DelayAssignment)] {
        // lit-lint: allow(no-panic-hot-path, "public accessor: panicking on an invalid id is the documented contract")
        &self.hops[id.index()]
    }

    pub fn node_link(&self, id: NodeId) -> &LinkParams {
        // lit-lint: allow(no-panic-hot-path, "public accessor: panicking on an invalid id is the documented contract")
        &self.links[id.index()]
    }

    pub fn set_session_bounds(&mut self, id: SessionId, bounds: crate::oracle::SessionBounds) {
        if self.oracle.enabled() {
            // lit-lint: allow(no-panic-hot-path, "public setter: panicking on an invalid id is the documented contract")
            self.oracle.bounds[id.index()] = Some(bounds);
            for shard in &mut self.shards {
                // lit-lint: allow(no-panic-hot-path, "oracle bounds table is sized to the session count")
                shard.oracle.bounds[id.index()] = Some(bounds);
            }
        }
    }

    /// Scalar-equivalent event count: heap pushes plus same-instant group
    /// appends, summed over shards — invariant across shard counts.
    pub fn event_count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.events.pushed() + s.appended)
            .sum()
    }

    pub fn oracle_violations(&self) -> u64 {
        self.oracle_totals().total()
    }

    /// Violation counts by kind: per-shard counters plus the facade's
    /// drain-time CCDF counter, summed field by field.
    pub fn oracle_totals(&self) -> OracleTotals {
        let mut t = self.oracle.totals;
        for shard in &self.shards {
            let o = &shard.oracle.totals;
            t.eligibility_order += o.eligibility_order;
            t.release_time += o.release_time;
            t.lateness += o.lateness;
            t.delay_bound += o.delay_bound;
            t.jitter_bound += o.jitter_bound;
            t.ccdf_bound += o.ccdf_bound;
            t.shaping_bound += o.shaping_bound;
            t.regulator_fifo += o.regulator_fifo;
            t.work_conservation += o.work_conservation;
        }
        t
    }

    /// Drain-time checks over the *merged* view: ineq. 16 on the
    /// per-session histograms and workload conservation on the per-node
    /// busy clocks (both sides of each comparison are whole-run, so they
    /// must run post-merge). Violation marks land on the owning shard's
    /// row so they survive future re-merges.
    pub fn oracle_drain_check(&mut self) -> u64 {
        self.oracle.drained = true;
        if !self.oracle.enabled() {
            return 0;
        }
        let mut failed = 0;
        for sid in 0..self.merged_sessions.len() {
            // lit-lint: allow(no-panic-hot-path, "oracle bounds and merged_sessions are built to the same length")
            let Some(b) = self.oracle.bounds[sid] else {
                continue;
            };
            // lit-lint: allow(no-panic-hot-path, "sid enumerates this very vec")
            let st = &self.merged_sessions[sid];
            if st.delivered == 0 {
                continue;
            }
            if let Some((d_ps, lhs, rhs)) = ccdf_shift_violation(&st.e2e, &st.reference, b.shift_ps)
            {
                failed += 1;
                self.oracle.violate(ViolationKind::CcdfBound, || {
                    format!(
                        "session {sid}: {lhs} packets with D > {d_ps} ps, but only \
                         {rhs} with D^ref > {} ps (shift {} ps)",
                        d_ps - b.shift_ps,
                        b.shift_ps
                    )
                });
                // lit-lint: allow(no-panic-hot-path, "sid enumerates merged_sessions, same length as the shard rows")
                self.merged_sessions[sid].oracle_violations += 1;
                // Persist the mark on the delivery shard's row (hop-owner
                // of the last hop) so re-merging doesn't erase it.
                // lit-lint: allow(no-panic-hot-path, "hops table has one row per session")
                if let Some(&(last_node, _)) = self.hops[sid].last() {
                    let sh = owner_of(last_node as usize, self.links.len(), self.shards.len());
                    // lit-lint: allow(no-panic-hot-path, "session ids are dense build indices")
                    if let Some(row) = self.shards.get_mut(sh).and_then(|s| s.stats[sid].as_mut()) {
                        row.oracle_violations += 1;
                    }
                }
            }
        }
        // Workload conservation over [0, now], per node: busy time must
        // equal the service time of the transmitted bits. Slack: ±1 ps
        // per packet (each tx time rounds to the nearest picosecond, and
        // so does the recomputed total) plus one L_MAX/C upward for a
        // packet still on the wire at the horizon, whose open busy
        // interval is closed virtually while its bits are not yet
        // counted. Mirrors the scalar engine's check; marks persist on
        // the owning shard's row.
        let now = self.now;
        let n_nodes = self.links.len();
        let nshards = self.shards.len();
        for n in 0..n_nodes {
            let (busy_ps, service_ps, count, lmax_ps, transmitted) = {
                // lit-lint: allow(no-panic-hot-path, "merged_nodes and links are built to the same length; n enumerates both")
                let nst = &self.merged_nodes[n];
                // lit-lint: allow(no-panic-hot-path, "links has one entry per node")
                let link = &self.links[n];
                (
                    nst.busy.busy_at(now).as_ps() as i128,
                    Duration::from_bits_at_rate(nst.bits_transmitted, link.rate_bps).as_ps()
                        as i128,
                    nst.transmitted as i128,
                    link.lmax_time().as_ps() as i128,
                    nst.transmitted,
                )
            };
            if busy_ps < service_ps - count || busy_ps > service_ps + count + lmax_ps {
                failed += 1;
                self.oracle.violate(ViolationKind::WorkConservation, || {
                    format!(
                        "node {n}: busy {busy_ps} ps over [0, {now}] vs {service_ps} ps \
                         of transmitted service ({transmitted} packets, allowance ±{count} ps \
                         + {lmax_ps} ps in flight)"
                    )
                });
                // lit-lint: allow(no-panic-hot-path, "n enumerates merged_nodes")
                self.merged_nodes[n].oracle_violations += 1;
                let sh = owner_of(n, n_nodes, nshards);
                if let Some(shard) = self.shards.get_mut(sh) {
                    // lit-lint: allow(no-panic-hot-path, "node_stats is sized to the full node table")
                    shard.node_stats[n].oracle_violations += 1;
                }
            }
        }
        failed
    }

    /// Shard workers in use.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

impl Drop for ShardedNet {
    fn drop(&mut self) {
        // Mirror the scalar engine: run the drain-time check if the
        // caller didn't, forced to counting mode (panicking in drop would
        // abort; the global counter still surfaces the failure).
        if self.oracle.enabled() && !self.oracle.drained && !std::thread::panicking() {
            let mode = self.oracle.mode;
            self.oracle.mode = OracleMode::Count;
            self.oracle_drain_check();
            self.oracle.mode = mode;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_blocks_are_contiguous_and_balanced() {
        for n in 1..40usize {
            for s in 1..=8usize.min(n) {
                let owners: Vec<usize> = (0..n).map(|i| owner_of(i, n, s)).collect();
                // Monotone, starts at 0, ends at s-1, covers every shard.
                assert_eq!(owners[0], 0);
                assert_eq!(*owners.last().unwrap(), s - 1);
                assert!(owners.windows(2).all(|w| w[0] <= w[1]));
                for sh in 0..s {
                    let cnt = owners.iter().filter(|&&o| o == sh).count();
                    assert!(
                        cnt == n / s || cnt == n / s + 1 || cnt == n.div_ceil(s),
                        "shard {sh} owns {cnt} of {n} nodes across {s} shards"
                    );
                }
            }
        }
    }

    #[test]
    fn global_shards_knob_roundtrips() {
        set_global_shards(4);
        assert_eq!(global_shards(), 4);
        set_global_shards(0); // clamps to scalar
        assert_eq!(global_shards(), 1);
        set_global_shards(1);
    }
}
