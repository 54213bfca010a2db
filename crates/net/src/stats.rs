//! Per-session and per-node measurements, mirroring what the paper plots.
//!
//! * end-to-end delay per delivered packet (max, min, jitter = max − min,
//!   full histogram — Figs. 7–11, 14–17);
//! * co-simulated **reference-server** delay per packet (eq. 1) — the
//!   "simulated upper bound" curves of Figs. 9–11 and the right-hand side
//!   of every bound check;
//! * per-hop buffer occupancy in bits, sampled exactly as the paper does:
//!   "at the moment the last bit of a packet arrives at a server node",
//!   counting the packet under transmission (Figs. 12–13);
//! * per-node link utilization and scheduler lateness (finish − deadline),
//!   the saturation diagnostic.

use lit_analysis::{BatchMeans, BusyFraction, DurationHistogram};
use lit_sim::{Duration, Time};

/// Sizing knobs for the statistics collectors.
///
/// Bin counts are paged (see [`lit_analysis::Histogram`]): a histogram
/// allocates a 512-byte page per 64 bins its samples actually touch, so
/// the bin counts below bound resolution and range, not memory. A fresh
/// session holds no bin pages; a typical one touches a few per histogram.
#[derive(Clone, Copy, Debug)]
pub struct StatsConfig {
    /// Bin width of the end-to-end and reference delay histograms.
    pub delay_bin: Duration,
    /// Number of delay bins (delays beyond land in overflow but still
    /// count toward max/jitter exactly). Costs nothing until touched.
    pub delay_bins: usize,
    /// Bin width, in bits, of the buffer-occupancy histograms.
    pub buffer_bin_bits: u64,
    /// Number of buffer bins per hop. Costs nothing until touched.
    pub buffer_bins: usize,
    /// Keep the **last** this-many per-packet delivery records per
    /// session (0 = off, the default). Each record is ~48 bytes; the log
    /// is a ring, so memory is bounded regardless of run length.
    pub delivery_log_cap: usize,
}

impl Default for StatsConfig {
    fn default() -> Self {
        StatsConfig {
            delay_bin: Duration::from_us(250),
            delay_bins: 4_000, // covers 1 s of delay
            buffer_bin_bits: 424,
            buffer_bins: 256,
            delivery_log_cap: 0,
        }
    }
}

/// One delivered packet, as recorded by the optional delivery log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Per-session packet index (1-based, the paper's `i`).
    pub seq: u64,
    /// Injection instant `t¹_i`.
    pub created: Time,
    /// Delivery instant (past the last node, incl. final propagation).
    pub delivered: Time,
    /// The packet's co-simulated reference-server delay `D^ref_i`.
    pub ref_delay: Duration,
}

impl DeliveryRecord {
    /// End-to-end delay of this packet.
    pub fn delay(&self) -> Duration {
        self.delivered - self.created
    }

    /// Pathwise excess `D_i − D^ref_i` in signed picoseconds.
    pub fn excess_ps(&self) -> i128 {
        self.delay().as_ps() as i128 - self.ref_delay.as_ps() as i128
    }
}

/// Histogram over buffer occupancy samples (bits), with exact maximum.
pub type OccupancyHistogram = lit_analysis::Histogram<u64>;

/// Everything measured about one session.
#[derive(Clone, Debug)]
pub struct SessionStats {
    /// Packets injected at the first node.
    pub injected: u64,
    /// Packets delivered past the last node (including final propagation).
    pub delivered: u64,
    /// End-to-end delay distribution (delivery − creation).
    pub e2e: DurationHistogram,
    /// Co-simulated reference-server delay distribution (eq. 1 with the
    /// session's reserved rate, fed by the same arrivals).
    pub reference: DurationHistogram,
    /// Per-hop buffer occupancy distributions, one per route hop.
    pub buffer: Vec<OccupancyHistogram>,
    /// Current per-hop occupancy in bits (bookkeeping).
    pub(crate) occupancy_bits: Vec<u64>,
    /// Largest observed `D_i − D_i^ref` over delivered packets, in signed
    /// picoseconds. The pathwise content of ineq. (12): under
    /// Leave-in-Time this never reaches `β + α`.
    pub max_excess_ps: i128,
    /// Batch-means accumulator over end-to-end delays (seconds), for
    /// autocorrelation-robust confidence intervals on the mean.
    pub delay_batches: BatchMeans,
    /// Ring of the most recent deliveries (empty unless
    /// [`StatsConfig::delivery_log_cap`] > 0).
    pub deliveries: std::collections::VecDeque<DeliveryRecord>,
    pub(crate) delivery_cap: usize,
    /// Conformance-oracle violations attributed to this session (delay,
    /// jitter and CCDF bound checks); always 0 when the oracle is off.
    pub oracle_violations: u64,
}

impl SessionStats {
    pub(crate) fn new(cfg: &StatsConfig, hops: usize) -> Self {
        SessionStats {
            injected: 0,
            delivered: 0,
            e2e: DurationHistogram::new(cfg.delay_bin, cfg.delay_bins),
            reference: DurationHistogram::new(cfg.delay_bin, cfg.delay_bins),
            buffer: (0..hops)
                .map(|_| OccupancyHistogram::new(cfg.buffer_bin_bits, cfg.buffer_bins))
                .collect(),
            occupancy_bits: vec![0; hops],
            max_excess_ps: i128::MIN,
            delay_batches: BatchMeans::default_config(),
            deliveries: std::collections::VecDeque::new(),
            delivery_cap: cfg.delivery_log_cap,
            oracle_violations: 0,
        }
    }

    /// A packet's last bit arrived at `hop`: grow the occupancy gauge and
    /// record the new level — counting the arriving packet, which is how
    /// the paper samples buffer occupancy. Out-of-range hops (a wiring
    /// bug) record nothing rather than panicking mid-simulation.
    pub(crate) fn occupy(&mut self, hop: usize, len_bits: u64) {
        if let (Some(occ), Some(hist)) =
            (self.occupancy_bits.get_mut(hop), self.buffer.get_mut(hop))
        {
            *occ += len_bits;
            hist.record(*occ);
        }
    }

    /// The packet's last bit left `hop`: release its bits from the gauge.
    pub(crate) fn release(&mut self, hop: usize, len_bits: u64) {
        if let Some(occ) = self.occupancy_bits.get_mut(hop) {
            *occ = occ.saturating_sub(len_bits);
        }
    }

    /// Append to the delivery ring (no-op when the log is off).
    pub(crate) fn log_delivery(&mut self, rec: DeliveryRecord) {
        if self.delivery_cap == 0 {
            return;
        }
        if self.deliveries.len() == self.delivery_cap {
            self.deliveries.pop_front();
        }
        self.deliveries.push_back(rec);
    }

    /// Largest observed end-to-end delay.
    pub fn max_delay(&self) -> Option<Duration> {
        self.e2e.max()
    }

    /// Observed end-to-end jitter: max − min delay over delivered packets
    /// (the paper's definition of `J`).
    pub fn jitter(&self) -> Option<Duration> {
        self.e2e.spread()
    }

    /// Mean end-to-end delay.
    pub fn mean_delay(&self) -> Option<Duration> {
        self.e2e.mean()
    }

    /// Largest observed reference-server delay (the empirical
    /// `D^ref_max`).
    pub fn max_reference_delay(&self) -> Option<Duration> {
        self.reference.max()
    }

    /// Largest observed `D_i − D_i^ref` (signed ps), if any packet was
    /// delivered.
    pub fn max_excess(&self) -> Option<i128> {
        (self.delivered > 0).then_some(self.max_excess_ps)
    }

    /// Batch-means ~95 % confidence interval on the mean end-to-end delay
    /// `(mean, half_width)`, if enough batches completed.
    pub fn mean_delay_ci(&self) -> Option<(Duration, Duration)> {
        let (m, h) = self.delay_batches.interval()?;
        // lit-lint: allow(raw-time-arithmetic, "reporting boundary: a batch-means CI is float statistics converted back to a Duration for display")
        Some((Duration::from_secs_f64(m), Duration::from_secs_f64(h)))
    }
}

/// Everything measured about one node.
#[derive(Clone, Debug)]
pub struct NodeStats {
    /// Link busy-time tracker.
    pub busy: BusyFraction,
    /// Packets transmitted.
    pub transmitted: u64,
    /// Bits transmitted.
    pub bits_transmitted: u64,
    /// Largest observed `finish − deadline` in picoseconds (negative =
    /// every packet beat its deadline). For deadline disciplines this is
    /// the scheduler-saturation diagnostic: Leave-in-Time guarantees
    /// `F̂ < F + L_MAX/C`.
    pub max_lateness_ps: i128,
    /// Conformance-oracle violations attributed to this node (regulator
    /// and lateness checks); always 0 when the oracle is off.
    pub oracle_violations: u64,
}

impl NodeStats {
    pub(crate) fn new() -> Self {
        NodeStats {
            busy: BusyFraction::new(),
            transmitted: 0,
            bits_transmitted: 0,
            max_lateness_ps: i128::MIN,
            oracle_violations: 0,
        }
    }

    /// Measured utilization over `[0, now]`.
    pub fn utilization_at(&self, now: Time) -> f64 {
        self.busy.fraction_at(now)
    }

    /// Largest `finish − deadline`, if any packet was transmitted.
    pub fn max_lateness(&self) -> Option<i128> {
        (self.transmitted > 0).then_some(self.max_lateness_ps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_histogram_tracks_max_exactly() {
        let mut h = OccupancyHistogram::new(424, 8);
        h.record(0);
        h.record(424);
        h.record(425);
        h.record(9_999); // overflow
        assert_eq!(h.count(), 4);
        assert_eq!(h.max_bits(), 9_999);
        let pdf = h.pdf();
        assert_eq!(pdf[0], (0, 0.25)); // the single 0-bit sample
                                       // 424 and 425 land in bin 1.
        assert_eq!(pdf[1], (424, 0.5));
    }

    #[test]
    fn occupancy_ccdf_monotone() {
        let mut h = OccupancyHistogram::new(100, 50);
        for i in 0..1000u64 {
            h.record(i * 7 % 4000);
        }
        let c = h.ccdf();
        for w in c.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert_eq!(c.last().unwrap().1, 0.0);
    }

    #[test]
    fn occupancy_merge_pools_counts_and_max() {
        let mut a = OccupancyHistogram::new(100, 4);
        a.record(50);
        a.record(150);
        let mut b = OccupancyHistogram::new(100, 4);
        b.record(150);
        b.record(999); // overflow
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.max_bits(), 999);
        let pdf = a.pdf();
        assert_eq!(pdf[0], (0, 0.25));
        assert_eq!(pdf[1], (100, 0.5));
        // Merging an empty histogram is a no-op.
        let before = a.pdf();
        a.merge(&OccupancyHistogram::new(100, 4));
        assert_eq!(a.pdf(), before);
    }

    #[test]
    #[should_panic(expected = "bin width mismatch")]
    fn occupancy_merge_rejects_mismatched_layout() {
        let mut a = OccupancyHistogram::new(100, 4);
        a.merge(&OccupancyHistogram::new(200, 4));
    }

    #[test]
    fn session_stats_jitter_is_spread() {
        let cfg = StatsConfig::default();
        let mut s = SessionStats::new(&cfg, 2);
        s.e2e.record(Duration::from_ms(10));
        s.e2e.record(Duration::from_ms(4));
        s.e2e.record(Duration::from_ms(7));
        assert_eq!(s.jitter(), Some(Duration::from_ms(6)));
        assert_eq!(s.max_delay(), Some(Duration::from_ms(10)));
        assert_eq!(s.buffer.len(), 2);
    }

    #[test]
    fn node_stats_lateness_gate() {
        let n = NodeStats::new();
        assert_eq!(n.max_lateness(), None);
    }

    #[test]
    fn node_stats_lateness_keeps_sign() {
        // Lateness is signed: a node whose every finish beats its
        // deadline reports a *negative* maximum — collapsing it to zero
        // would hide exactly the margin the paper's invariant promises.
        let mut n = NodeStats::new();
        n.transmitted = 1;
        n.max_lateness_ps = -42;
        assert_eq!(n.max_lateness(), Some(-42));
        n.transmitted = 2;
        n.max_lateness_ps = n.max_lateness_ps.max(7);
        assert_eq!(n.max_lateness(), Some(7));
        // The empty-node sentinel (i128::MIN) never leaks out.
        let empty = NodeStats::new();
        assert!(empty.max_lateness().is_none());
    }

    #[test]
    fn occupancy_ccdf_at_empty_histogram_is_zero() {
        let h = OccupancyHistogram::new(424, 8);
        assert_eq!(h.ccdf_at(0), 0.0);
        assert_eq!(h.ccdf_at(u64::MAX), 0.0);
        assert!(h.pdf().is_empty());
        assert!(h.ccdf().iter().all(|&(_, p)| p == 0.0));
    }

    #[test]
    fn occupancy_ccdf_at_single_bin() {
        // One bin: every sample is either in it or in overflow; ccdf_at
        // conservatively counts the query's own bin as exceeding.
        let mut h = OccupancyHistogram::new(100, 1);
        h.record(10);
        h.record(50);
        h.record(250); // overflow
        assert_eq!(h.ccdf_at(0), 1.0); // query inside bin 0: all 3 count
        assert_eq!(h.ccdf_at(99), 1.0);
        assert_eq!(h.ccdf_at(100), 1.0 / 3.0); // past bin 0: overflow only
        assert_eq!(h.ccdf_at(u64::MAX), 1.0 / 3.0);
    }

    #[test]
    fn fresh_session_stats_hold_no_bin_pages_until_first_sample() {
        let mut s = SessionStats::new(&StatsConfig::default(), 3);
        let pages = |s: &SessionStats| {
            s.e2e.pages_allocated()
                + s.reference.pages_allocated()
                + s.buffer.iter().map(|h| h.pages_allocated()).sum::<usize>()
        };
        assert_eq!(pages(&s), 0);
        s.occupy(1, 424);
        s.e2e.record(Duration::from_ms(40));
        // One page each for the sampled hop and the delay histogram.
        assert_eq!(pages(&s), 2);
        assert_eq!(s.buffer[1].pdf(), vec![(424, 1.0)]);
    }
}
