//! The Leave-in-Time packet scheduler (paper §2, "Final Version").
//!
//! Per received packet, at server node `n`:
//!
//! * **eligibility** (eq. 6–7): `Eⁿ = tⁿ` for sessions without delay-jitter
//!   control; `Eⁿ = tⁿ + Aⁿ` with the holding time `Aⁿ` stamped by the
//!   upstream node for sessions with jitter control (the delay regulator);
//! * **deadline** (eq. 10–11):
//!   `Fⁿᵢ = max{Eⁿᵢ, Kⁿᵢ₋₁} + dⁿᵢ` and `Kⁿᵢ = max{Eⁿᵢ, Kⁿᵢ₋₁} + Lᵢ/r`,
//!   with `Kⁿ₀ = tⁿ₁`;
//! * eligible packets from all sessions are served in increasing deadline
//!   order (ties FIFO);
//! * at departure (eq. 9) the node stamps the next hop's holding time
//!   `Aⁿ⁺¹ = Fⁿ + L_MAX/Cₙ − F̂ⁿ + dⁿ_max − dⁿᵢ`, where `F̂ⁿ` is the actual
//!   finish time. `Aⁿ⁺¹ ≥ 0` and `F̂ⁿ < Fⁿ + L_MAX/Cₙ` are invariants
//!   (proven in the paper's technical report; asserted here in debug
//!   builds and property-tested).
//!
//! With one admission class, `d = L/r`, and no jitter control, the whole
//! construction collapses to VirtualClock (eq. 2) — tested against the
//! independent VirtualClock implementation in `lit-baselines`.
//!
//! **Packet numbering.** The paper numbers a session's packets "in
//! increasing order as they arrive"; this implementation advances the
//! `K`-recursion in per-node arrival order, which coincides with the
//! global packet index whenever per-session service is FIFO (always true
//! for fixed-size packets, and for any configuration where `dᵢ` makes `F`
//! monotone within a session).

use lit_net::{
    DelayAssignment, Discipline, LinkParams, Packet, ScheduleDecision, SessionId, SessionSpec,
};
use lit_sim::{Duration, Time};

/// One session's eq. 8–11 state at this node. Everything a call reads
/// sits in one 80-byte row, so an arrival or departure touches one or two
/// cache lines however many sessions the node carries.
///
/// `k_prev_ps` holds the eq. 11 recursion state with `0` standing in for
/// "no packet yet": the paper sets `K₀ = t₁`, and since `E₁ ≥ t₁ ≥ 0` the
/// first packet's base `max{E₁, K₀}` equals `max{E₁, 0} = E₁` — exactly
/// what the explicit `Option::None` case computed. No sentinel branch.
#[derive(Clone, Copy)]
struct Row {
    /// `K_{i-1,s}` in ps; `0` before the first packet (see above).
    k_prev_ps: u64,
    /// Reserved rate `r_s` in bit/s — the eq. 11 `L/r` clock.
    rate_bps: u64,
    /// Per-hop delay assignment, lowered to fixed-point coefficients.
    coeffs: lit_net::DelayCoeffs,
    /// `d_max,s` at this node — enters the holding-time stamp (eq. 9).
    d_max_ps: u64,
    /// Whether the session requested delay-jitter control (eq. 7 vs 6).
    jitter: bool,
}

/// One Leave-in-Time scheduler instance (one per server node).
pub struct LitDiscipline {
    link: LinkParams,
    /// Per-session rows indexed by dense `SessionId`; `None` is a vacant
    /// slot, and a packet from one is a wiring bug.
    rows: Vec<Option<Row>>,
}

impl LitDiscipline {
    /// A scheduler for a node with the given outgoing link.
    pub fn new(link: LinkParams) -> Self {
        LitDiscipline {
            link,
            rows: Vec::new(),
        }
    }

    /// A boxed factory suitable for [`lit_net::NetworkBuilder::build`].
    pub fn factory() -> impl Fn(&LinkParams) -> Box<dyn Discipline> {
        |link: &LinkParams| Box::new(LitDiscipline::new(*link)) as Box<dyn Discipline>
    }

    /// The row of a registered session; panics on a vacant slot.
    #[inline]
    fn row(&mut self, id: SessionId) -> &mut Row {
        match self.rows.get_mut(id.index()) {
            Some(Some(row)) => row,
            _ => unregistered(),
        }
    }
}

#[cold]
#[track_caller]
fn unregistered() -> ! {
    // lit-lint: allow(no-panic-hot-path, "a packet from a session never registered at this node is a wiring bug the run must not survive")
    panic!("packet from unregistered session")
}

impl Discipline for LitDiscipline {
    fn name(&self) -> &'static str {
        "leave-in-time"
    }

    fn register_session(&mut self, spec: &SessionSpec, delay: &DelayAssignment) {
        let idx = spec.id.index();
        if self.rows.len() <= idx {
            self.rows.resize(idx + 1, None);
        }
        if let Some(slot) = self.rows.get_mut(idx) {
            // A fresh row also restarts the K-recursion at K₀ = t₁.
            *slot = Some(Row {
                k_prev_ps: 0,
                rate_bps: spec.rate_bps,
                coeffs: delay.coeffs(spec.rate_bps),
                d_max_ps: delay.d_max(spec.max_len_bits, spec.rate_bps).as_ps(),
                jitter: spec.jitter_control,
            });
        }
    }

    fn unregister_session(&mut self, id: SessionId) {
        if let Some(slot) = self.rows.get_mut(id.index()) {
            *slot = None;
        }
    }

    fn on_arrival(&mut self, pkt: &mut Packet, now: Time) -> ScheduleDecision {
        let row = self.row(pkt.session);

        // Eligibility: eq. (6) / (7). `pkt.hold` is Aⁿ from upstream
        // (zero at the first hop per eq. 8).
        let eligible = if row.jitter { now + pkt.hold } else { now };

        // Deadline: eq. (10)–(11), with K₀ = t₁ making the first base
        // simply E₁ (since E₁ ≥ t₁ ≥ 0 = the fresh-slot K value).
        let base = eligible.max(Time::from_ps(row.k_prev_ps));
        let d = Duration::from_ps(row.coeffs.d_ps(pkt.len_bits));
        let f = base + d;
        let k = base + Duration::from_bits_at_rate(pkt.len_bits as u64, row.rate_bps);
        row.k_prev_ps = k.as_ps();

        pkt.deadline = f;
        pkt.d = d;
        ScheduleDecision::at(eligible, f)
    }

    fn on_departure(&mut self, pkt: &mut Packet, finish: Time) {
        let d_max = Duration::from_ps(self.row(pkt.session).d_max_ps);
        // Holding time for the next hop, eq. (9):
        //   A = (F + L_MAX/C − F̂) + (d_max − d_i).
        // Both parenthesized terms are provably non-negative; computed in
        // signed 128-bit picoseconds and checked.
        let slack_ps = pkt.deadline.as_ps() as i128 + self.link.lmax_time().as_ps() as i128
            - finish.as_ps() as i128;
        // Under an *exact* eligible queue, F̂ < F + L_MAX/C always (the
        // paper's non-saturation invariant; re-checked by the tests via
        // NodeStats::max_lateness). Under an approximate bucketed queue
        // the finish may run late by up to one bucket — the documented
        // emulation error — so the holding time is clamped instead of
        // asserted.
        let spread_ps = d_max.as_ps() as i128 - pkt.d.as_ps() as i128;
        debug_assert!(spread_ps >= 0, "d_i exceeded d_max");
        let hold_ps = (slack_ps + spread_ps).max(0);
        // Unreachable arm: the hold is bounded by d_max plus one link
        // transmission, both far below u64 picoseconds; saturate rather
        // than panic on the hot path if that ever stops holding.
        pkt.hold = match u64::try_from(hold_ps) {
            Ok(ps) => Duration::from_ps(ps),
            Err(_) => Duration::MAX,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lit_net::SessionId;

    fn spec(rate: u64, jc: bool) -> SessionSpec {
        let s = SessionSpec::atm(SessionId(0), rate);
        if jc {
            s.with_jitter_control()
        } else {
            s
        }
    }

    fn mk(jc: bool) -> LitDiscipline {
        let mut d = LitDiscipline::new(LinkParams::paper_t1());
        d.register_session(&spec(32_000, jc), &DelayAssignment::LenOverRate);
        d
    }

    fn pkt(seq: u64) -> Packet {
        Packet::new(SessionId(0), seq, 424, Time::ZERO)
    }

    #[test]
    fn virtualclock_mode_matches_eq2_by_hand() {
        // d = L/r = 13.25 ms. Arrivals at 0, 1 ms, 40 ms.
        // F1 = 0 + 13.25; F2 = max(1, 13.25) + 13.25 = 26.5;
        // F3 = max(40, 26.5) + 13.25 = 53.25.
        let mut disc = mk(false);
        let mut p = pkt(1);
        let dec = disc.on_arrival(&mut p, Time::ZERO);
        assert_eq!(dec.eligible, Time::ZERO);
        assert_eq!(p.deadline, Time::from_us(13_250));

        let mut p = pkt(2);
        disc.on_arrival(&mut p, Time::from_ms(1));
        assert_eq!(p.deadline, Time::from_us(26_500));

        let mut p = pkt(3);
        disc.on_arrival(&mut p, Time::from_ms(40));
        assert_eq!(p.deadline, Time::from_us(53_250));
    }

    #[test]
    fn no_jitter_control_ignores_hold() {
        let mut disc = mk(false);
        let mut p = pkt(1);
        p.hold = Duration::from_ms(5);
        let dec = disc.on_arrival(&mut p, Time::from_ms(10));
        assert_eq!(dec.eligible, Time::from_ms(10));
    }

    #[test]
    fn jitter_control_delays_eligibility_by_hold() {
        let mut disc = mk(true);
        let mut p = pkt(1);
        p.hold = Duration::from_ms(5);
        let dec = disc.on_arrival(&mut p, Time::from_ms(10));
        assert_eq!(dec.eligible, Time::from_ms(15));
        // And the deadline builds on E, not t: F1 = 15 + 13.25 = 28.25 ms.
        assert_eq!(p.deadline, Time::from_us(28_250));
    }

    #[test]
    fn split_clocks_decouple_d_from_rate() {
        // d fixed at 2 ms but K still advances at L/r: the session's
        // long-run throughput claim is unchanged by a small d.
        let mut disc = LitDiscipline::new(LinkParams::paper_t1());
        disc.register_session(
            &spec(32_000, false),
            &DelayAssignment::Fixed(Duration::from_ms(2)),
        );
        // Burst of three at t = 0:
        // K0 = 0; F1 = 0+2 ms, K1 = 13.25 ms;
        // F2 = max(0, 13.25)+2 = 15.25 ms, K2 = 26.5 ms;
        // F3 = 26.5+2 = 28.5 ms.
        let mut p = pkt(1);
        disc.on_arrival(&mut p, Time::ZERO);
        assert_eq!(p.deadline, Time::from_ms(2));
        let mut p = pkt(2);
        disc.on_arrival(&mut p, Time::ZERO);
        assert_eq!(p.deadline, Time::from_us(15_250));
        let mut p = pkt(3);
        disc.on_arrival(&mut p, Time::ZERO);
        assert_eq!(p.deadline, Time::from_us(28_500));
    }

    #[test]
    fn departure_stamps_hold_per_eq9() {
        let mut disc = mk(false);
        let mut p = pkt(1);
        disc.on_arrival(&mut p, Time::ZERO); // F = 13.25 ms, d = 13.25 ms
                                             // Suppose the packet actually finishes at 13 ms (0.25 ms early).
        disc.on_departure(&mut p, Time::from_ms(13));
        // A = F + L_MAX/C − F̂ + (d_max − d)
        //   = 13.25 ms + 0.276042 ms − 13 ms + 0 = 0.526042 ms.
        assert_eq!(p.hold.as_ps(), 526_041_667);
    }

    #[test]
    fn departure_hold_includes_d_spread() {
        // Variable-length packets under rule (1.3): a short packet gets a
        // smaller d, and the difference (d_max − d_i) is added to A.
        let mut disc = LitDiscipline::new(LinkParams::paper_t1());
        let mut s = SessionSpec::atm(SessionId(0), 32_000);
        s.max_len_bits = 848;
        disc.register_session(&s, &DelayAssignment::LenOverRate);
        let mut p = Packet::new(SessionId(0), 1, 424, Time::ZERO);
        disc.on_arrival(&mut p, Time::ZERO); // d = 13.25 ms; d_max = 26.5 ms
        let f = p.deadline;
        disc.on_departure(&mut p, f); // F̂ = F exactly
                                      // A = L_MAX/C + (26.5 − 13.25) ms.
        let want = LinkParams::paper_t1().lmax_time() + Duration::from_us(13_250);
        assert_eq!(p.hold, want);
    }

    #[test]
    #[should_panic(expected = "unregistered session")]
    fn unregistered_session_panics() {
        let mut disc = LitDiscipline::new(LinkParams::paper_t1());
        let mut p = pkt(1);
        disc.on_arrival(&mut p, Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "unregistered session")]
    fn unregistered_after_teardown_panics() {
        let mut disc = mk(false);
        disc.unregister_session(SessionId(0));
        let mut p = pkt(1);
        disc.on_arrival(&mut p, Time::ZERO);
    }

    #[test]
    fn reregistered_slot_restarts_k_recursion() {
        // Advance the K recursion, tear the session down, and register a
        // new session in the same slot: its first packet must see
        // K₀ = t₁ (deadline = E + d), not the previous tenant's K.
        let mut disc = mk(false);
        let mut p = pkt(1);
        disc.on_arrival(&mut p, Time::ZERO); // K₁ = 13.25 ms
        disc.unregister_session(SessionId(0));
        disc.register_session(&spec(32_000, false), &DelayAssignment::LenOverRate);
        let mut p = pkt(1);
        disc.on_arrival(&mut p, Time::from_ms(1));
        // Fresh recursion: F = 1 + 13.25, not max(1, 13.25) + 13.25.
        assert_eq!(p.deadline, Time::from_us(14_250));
    }

    #[test]
    fn a_session_row_fits_in_80_bytes() {
        // The vacant-slot `None` lives in the `jitter` flag's niche.
        assert!(std::mem::size_of::<Option<Row>>() <= 80);
    }
}
