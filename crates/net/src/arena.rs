//! Generational packet arena: allocation-free packet storage for the
//! executor's hot loop.
//!
//! Both engines park every packet in flight in a [`PacketArena`] slot —
//! the scalar engine one arena for the whole network, the sharded engine
//! one per shard. Events, eligible queues, regulator FIFOs and the
//! in-service slot carry a dense 8-byte [`PacketRef`] instead of the
//! ~72-byte [`Packet`] itself, so a future-event entry fits in 32 bytes
//! and moving it never copies scheduler scratch fields around. In the
//! scalar engine a packet held by a per-session regulator also parks its
//! priority key and eligibility instant here ([`PacketArena::park`]), in
//! a column touched only by held packets. Slots are recycled through an
//! in-place free list on delivery or cross-shard handoff, so steady-state
//! simulation performs **zero** allocator traffic: capacity grows to the
//! high-water mark of concurrently live packets and then stays put, the
//! same bounded-churn contract [`crate::IdSlab`] gives session ids.
//!
//! References are *generational*: each slot carries a generation counter
//! bumped on free, and a [`PacketRef`] embeds the generation it was minted
//! with. A stale reference (use after free/take) is therefore detected
//! instead of silently aliasing an unrelated packet — `get`/`take` return
//! `None`, and the executors' accessors (`packet`, `packet_mut`, `remove`)
//! stop the run on the wiring bug.

use crate::packet::Packet;
use lit_sim::Time;

/// A dense generational handle into a [`PacketArena`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketRef {
    idx: u32,
    gen: u32,
}

impl PacketRef {
    /// The dense slot index (stable while the packet is live).
    #[inline]
    pub fn index(self) -> usize {
        self.idx as usize
    }
}

/// One arena slot: the packet payload plus the slot's current generation.
/// A slot is free iff its index is on the free list; `gen` is bumped when
/// the slot is freed, invalidating outstanding references.
struct Slot {
    gen: u32,
    pkt: Packet,
}

/// A slab of packets with generational references and an in-place free
/// list. See the module docs for the lifetime discipline.
pub struct PacketArena {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    /// `(priority key, eligibility instant)` of a held packet, by slot
    /// index; grown on the first [`Self::park`] that needs the room.
    parked: Vec<(u128, Time)>,
}

impl Default for PacketArena {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketArena {
    /// An empty arena.
    pub fn new() -> Self {
        PacketArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            parked: Vec::new(),
        }
    }

    /// Store `pkt`, reusing a freed slot if one exists.
    pub fn alloc(&mut self, pkt: Packet) -> PacketRef {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            // lit-lint: allow(no-panic-hot-path, "free-list entries are indices of slots this arena pushed; they never dangle")
            let slot = &mut self.slots[idx as usize];
            slot.pkt = pkt;
            return PacketRef { idx, gen: slot.gen };
        }
        let idx = self.slots.len() as u32;
        self.slots.push(Slot { gen: 0, pkt });
        PacketRef { idx, gen: 0 }
    }

    /// Read a live packet; `None` if the reference is stale.
    #[inline]
    pub fn get(&self, r: PacketRef) -> Option<&Packet> {
        self.slots
            .get(r.idx as usize)
            .filter(|s| s.gen == r.gen)
            .map(|s| &s.pkt)
    }

    /// Mutate a live packet; `None` if the reference is stale.
    #[inline]
    pub fn get_mut(&mut self, r: PacketRef) -> Option<&mut Packet> {
        self.slots
            .get_mut(r.idx as usize)
            .filter(|s| s.gen == r.gen)
            .map(|s| &mut s.pkt)
    }

    /// Remove a live packet, returning it by value and recycling its slot.
    /// `None` (and no state change) if the reference is stale.
    pub fn take(&mut self, r: PacketRef) -> Option<Packet> {
        let slot = self
            .slots
            .get_mut(r.idx as usize)
            .filter(|s| s.gen == r.gen)?;
        slot.gen = slot.gen.wrapping_add(1);
        self.live -= 1;
        self.free.push(r.idx);
        Some(slot.pkt)
    }

    /// The live packet behind `r`. Events and queues carry only live
    /// references, so a stale one is an executor wiring bug the run must
    /// not survive.
    #[track_caller]
    pub fn packet(&self, r: PacketRef) -> &Packet {
        // lit-lint: allow(no-panic-hot-path, "executor invariant: events, queues and the in-service slot carry only live references")
        self.get(r).expect("stale packet reference")
    }

    /// Mutable [`Self::packet`].
    #[track_caller]
    pub fn packet_mut(&mut self, r: PacketRef) -> &mut Packet {
        // lit-lint: allow(no-panic-hot-path, "executor invariant: events, queues and the in-service slot carry only live references")
        self.get_mut(r).expect("stale packet reference")
    }

    /// [`Self::take`] for a reference the executor holds live.
    #[track_caller]
    pub fn remove(&mut self, r: PacketRef) -> Packet {
        // lit-lint: allow(no-panic-hot-path, "executor invariant: events, queues and the in-service slot carry only live references")
        self.take(r).expect("stale packet reference")
    }

    /// Park a held packet's priority key and eligibility instant with it
    /// until its release.
    pub fn park(&mut self, r: PacketRef, key: u128, at: Time) {
        if self.parked.len() <= r.index() {
            self.parked.resize(r.index() + 1, (0, Time::ZERO));
        }
        if let Some(slot) = self.parked.get_mut(r.index()) {
            *slot = (key, at);
        }
    }

    /// What [`Self::park`] last stored in `r`'s slot.
    pub fn parked(&self, r: PacketRef) -> (u128, Time) {
        self.parked
            .get(r.index())
            .copied()
            .unwrap_or((0, Time::ZERO))
    }

    /// Packets currently live.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Slots ever created — the high-water mark of concurrent liveness,
    /// *not* the total number of packets that passed through.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::SessionId;
    use lit_sim::Time;

    fn pkt(seq: u64) -> Packet {
        Packet::new(SessionId(1), seq, 424, Time::from_ms(seq))
    }

    #[test]
    fn alloc_get_take_roundtrip() {
        let mut a = PacketArena::new();
        let r1 = a.alloc(pkt(1));
        let r2 = a.alloc(pkt(2));
        assert_eq!(a.live(), 2);
        assert_eq!(a.get(r1).unwrap().seq, 1);
        assert_eq!(a.get(r2).unwrap().seq, 2);
        let p = a.take(r1).unwrap();
        assert_eq!(p.seq, 1);
        assert_eq!(a.live(), 1);
        // Stale after take: every accessor refuses the old reference.
        assert!(a.get(r1).is_none());
        assert!(a.take(r1).is_none());
        assert_eq!(a.live(), 1, "stale take must not corrupt the count");
    }

    #[test]
    fn recycled_slot_gets_fresh_generation() {
        let mut a = PacketArena::new();
        let r1 = a.alloc(pkt(1));
        a.take(r1).unwrap();
        let r2 = a.alloc(pkt(2));
        // Same slot, new generation: old handle dead, new handle live.
        assert_eq!(r1.index(), r2.index());
        assert_ne!(r1, r2);
        assert!(a.get(r1).is_none());
        assert_eq!(a.get(r2).unwrap().seq, 2);
    }

    #[test]
    fn churn_capacity_stays_bounded() {
        // 100k alloc/free cycles with at most 64 live packets: capacity
        // must stop at the high-water mark, like IdSlab's id recycling.
        let mut a = PacketArena::new();
        let mut live = Vec::new();
        for i in 0..100_000u64 {
            live.push((i, a.alloc(pkt(i))));
            if live.len() == 64 {
                for (seq, r) in live.drain(..) {
                    assert_eq!(a.take(r).map(|p| p.seq), Some(seq));
                }
            }
        }
        assert!(
            a.capacity() <= 64,
            "capacity {} grew past the high-water mark",
            a.capacity()
        );
        assert_eq!(a.live(), live.len());
    }

    #[test]
    fn get_mut_writes_through() {
        let mut a = PacketArena::new();
        let r = a.alloc(pkt(7));
        a.get_mut(r).unwrap().hop = 3;
        assert_eq!(a.get(r).unwrap().hop, 3);
    }

    #[test]
    fn parked_key_and_instant_stay_with_the_slot() {
        let mut a = PacketArena::new();
        let r1 = a.alloc(pkt(1));
        let r2 = a.alloc(pkt(2));
        a.park(r2, 42, Time::from_ms(3));
        assert_eq!(a.parked(r2), (42, Time::from_ms(3)));
        assert_eq!(a.parked(r1), (0, Time::ZERO), "never parked");
        assert_eq!(a.packet(r2).seq, 2);
        a.packet_mut(r1).hop = 2;
        assert_eq!(a.remove(r1).hop, 2);
    }

    #[test]
    #[should_panic(expected = "stale packet reference")]
    fn stale_reference_panics_on_the_executor_accessors() {
        let mut a = PacketArena::new();
        let r = a.alloc(pkt(1));
        a.remove(r);
        a.packet(r);
    }
}
