//! Packets and identifiers.

use lit_sim::{Duration, Time};

/// Identifies a session (connection) within one [`crate::Network`].
/// Sessions are numbered densely from 0 in the order they were added.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u32);

impl SessionId {
    /// The dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a server node within one [`crate::Network`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A packet in flight.
///
/// Besides routing bookkeeping, a packet carries the per-hop scheduling
/// fields of the Leave-in-Time header. The paper transmits the holding time
/// `A` "in the packet's header to node n" (eq. 9); `deadline` and `d` are
/// scratch fields written by the discipline at arrival and read back at
/// departure when it stamps `hold` for the next hop. Baseline disciplines
/// that don't need them simply leave them at their defaults.
///
/// Every field is a scalar, so a packet is `Copy`: the executor reads a
/// snapshot out of its [`crate::PacketArena`] slot while it updates
/// statistics and the oracle, with no per-packet heap traffic.
#[derive(Clone, Copy, Debug)]
pub struct Packet {
    /// Owning session.
    pub session: SessionId,
    /// Per-session sequence number (the paper's packet index `i`,
    /// 1-based).
    pub seq: u64,
    /// Length in bits, `L_{i,s}`.
    pub len_bits: u32,
    /// Index into the session's route of the node currently holding the
    /// packet.
    pub hop: u32,
    /// Generation time = arrival time at the first server, `t¹_{i,s}`.
    pub created: Time,
    /// Arrival time (last bit) at the current node, `tⁿ_{i,s}`.
    pub arrived: Time,
    /// Holding time `Aⁿ_{i,s}` for the *current* node, stamped by the
    /// upstream node at departure (zero at the first hop, eq. 8).
    pub hold: Duration,
    /// Transmission deadline `Fⁿ_{i,s}` at the current node, written by the
    /// discipline in `on_arrival`.
    pub deadline: Time,
    /// The per-hop delay increment `dⁿ_{i,s}` used at the current node,
    /// written by the discipline in `on_arrival`.
    pub d: Duration,
    /// This packet's delay in the session's co-simulated reference server
    /// (eq. 1), stamped at injection. Lets delivery-time statistics check
    /// the *pathwise* form of ineq. (12): `D_i − D_i^ref < β + α`.
    pub ref_delay: Duration,
}

impl Packet {
    /// A fresh packet entering the network at `created`.
    pub fn new(session: SessionId, seq: u64, len_bits: u32, created: Time) -> Self {
        Packet {
            session,
            seq,
            len_bits,
            hop: 0,
            created,
            arrived: created,
            hold: Duration::ZERO,
            deadline: created,
            d: Duration::ZERO,
            ref_delay: Duration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_packet_defaults() {
        let p = Packet::new(SessionId(3), 1, 424, Time::from_ms(7));
        assert_eq!(p.session, SessionId(3));
        assert_eq!(p.hop, 0);
        assert_eq!(p.arrived, Time::from_ms(7));
        assert_eq!(p.hold, Duration::ZERO);
        assert_eq!(SessionId(3).index(), 3);
        assert_eq!(NodeId(2).index(), 2);
    }
}
