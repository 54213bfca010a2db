//! Fixed-bin-width histograms with exact extrema.
//!
//! The simulator delivers millions of per-packet delay samples per run;
//! storing them raw is wasteful when every figure in the paper is either a
//! distribution plot (Fig. 8, 12, 13), a CCDF (Figs. 9–11), or a max/jitter
//! summary (Figs. 7, 14–17). A [`Histogram`] keeps counts in fixed bins
//! *plus* the exact minimum, maximum and sum, so bound checks ("observed
//! max below calculated upper bound") are not blurred by binning. One type
//! serves both units the simulator measures: [`DurationHistogram`] for
//! delays and `lit-net`'s `OccupancyHistogram` for buffer bits.
//!
//! Bin counts live in lazily allocated 64-bin pages: a histogram with
//! thousands of configured bins pays only for the pages its samples touch,
//! so a network with thousands of sessions keeps full-resolution
//! distributions in a few kB per session.

use core::marker::PhantomData;
use lit_sim::Duration;

/// Bins per page (512 bytes of counts).
const PAGE_BINS: usize = 64;

fn new_page() -> Box<[u64; PAGE_BINS]> {
    Box::new([0; PAGE_BINS])
}

/// A sample unit a [`Histogram`] bins, as a raw `u64`: picoseconds for a
/// [`Duration`], bits for a buffer occupancy.
pub trait BinUnit: Copy {
    /// The raw value.
    fn raw(self) -> u64;
    /// The unit value of a raw one.
    fn from_raw(raw: u64) -> Self;
}

impl BinUnit for Duration {
    fn raw(self) -> u64 {
        self.as_ps()
    }
    fn from_raw(raw: u64) -> Self {
        Duration::from_ps(raw)
    }
}

impl BinUnit for u64 {
    fn raw(self) -> u64 {
        self
    }
    fn from_raw(raw: u64) -> Self {
        raw
    }
}

/// A fixed-bin-width histogram of `U` samples: bin `i` counts samples in
/// `[i·w, (i+1)·w)`, and samples at or above `nbins · w` land in one
/// overflow bucket (still counted in every aggregate).
#[derive(Clone, Debug)]
pub struct Histogram<U> {
    width: u64,
    nbins: usize,
    /// `pages[p]` counts bins `p·64 .. (p+1)·64`; `None` until touched.
    pages: Vec<Option<Box<[u64; PAGE_BINS]>>>,
    overflow: u64,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    unit: PhantomData<U>,
}

/// A histogram of [`Duration`] samples.
pub type DurationHistogram = Histogram<Duration>;

impl<U: BinUnit> Histogram<U> {
    /// A histogram with `nbins` bins of width `bin_width`; allocates no
    /// bin page until the first sample.
    ///
    /// # Panics
    /// Panics if `bin_width` is zero or `nbins` is zero.
    pub fn new(bin_width: U, nbins: usize) -> Self {
        assert!(bin_width.raw() > 0, "histogram: zero bin width");
        assert!(nbins > 0, "histogram: zero bins");
        Histogram {
            width: bin_width.raw(),
            nbins,
            pages: Vec::new(),
            overflow: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            unit: PhantomData,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, x: U) {
        let x = x.raw();
        self.count += 1;
        self.sum += x as u128;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        let idx = x / self.width;
        if idx >= self.nbins as u64 {
            self.overflow += 1;
            return;
        }
        let (p, j) = (idx as usize / PAGE_BINS, idx as usize % PAGE_BINS);
        if self.pages.len() <= p {
            self.pages.resize_with(p + 1, || None);
        }
        let page = self
            .pages
            .get_mut(p)
            .map(|s| s.get_or_insert_with(new_page));
        if let Some(c) = page.and_then(|b| b.get_mut(j)) {
            *c += 1;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<U> {
        (self.count > 0).then(|| U::from_raw(self.min))
    }

    /// Exact largest sample, or `None` if empty.
    pub fn max(&self) -> Option<U> {
        (self.count > 0).then(|| U::from_raw(self.max))
    }

    /// Exact range `max − min` (the paper's *jitter* of a sample set), or
    /// `None` if empty.
    pub fn spread(&self) -> Option<U> {
        (self.count > 0).then(|| U::from_raw(self.max - self.min))
    }

    /// Mean of all samples, or `None` if empty.
    pub fn mean(&self) -> Option<U> {
        (self.count > 0).then(|| U::from_raw((self.sum / self.count as u128) as u64))
    }

    /// The configured bin width.
    pub fn bin_width(&self) -> U {
        U::from_raw(self.width)
    }

    /// Count in the overflow bucket.
    pub fn overflow_count(&self) -> u64 {
        self.overflow
    }

    /// Bin pages allocated so far (each holds 64 bins).
    pub fn pages_allocated(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Count of bin `i` (0 for an untouched or out-of-range bin).
    fn bin(&self, i: usize) -> u64 {
        let page = self.pages.get(i / PAGE_BINS).and_then(Option::as_deref);
        page.and_then(|b| b.get(i % PAGE_BINS))
            .copied()
            .unwrap_or(0)
    }

    /// The lower edge of bin `i`.
    fn edge(&self, i: u64) -> U {
        U::from_raw(i.saturating_mul(self.width))
    }

    /// Every bin's count in order, zeros included: the `i`-th counts
    /// samples in `[i·w, (i+1)·w)`. Exposed for exact count-based
    /// comparisons (the conformance oracle's ineq.-16 check), where the
    /// f64 CCDF helpers would round.
    pub fn bin_counts(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.nbins).map(|i| self.bin(i))
    }

    /// `(bin index, count)` for every non-empty bin, in index order.
    fn nonempty(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.pages.iter().enumerate().flat_map(|(p, page)| {
            page.iter().flat_map(move |b| {
                b.iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(move |(j, &c)| ((p * PAGE_BINS + j) as u64, c))
            })
        })
    }

    /// Iterate `(bin_lower_edge, count)` for all non-empty bins.
    pub fn nonempty_bins(&self) -> impl Iterator<Item = (U, u64)> + '_ {
        self.nonempty().map(|(i, c)| (self.edge(i), c))
    }

    /// Fraction of samples in each bin, `(bin_lower_edge, fraction)`, for
    /// distribution plots like the paper's Figures 8, 12 and 13.
    pub fn pdf(&self) -> Vec<(U, f64)> {
        let n = self.count.max(1) as f64;
        self.nonempty_bins()
            .map(|(edge, c)| (edge, c as f64 / n))
            .collect()
    }

    /// Empirical complementary CDF evaluated at the *upper edge* of bin 0
    /// and of every non-empty bin: returns `(x, P(sample > x))` pairs,
    /// ending with the exact max if the overflow bucket holds samples.
    ///
    /// Evaluating at upper edges makes the empirical CCDF an exact lower
    /// bound of the true `P(X > x)` staircase, so comparisons against
    /// analytic *upper* bounds (ineq. 16, Figs. 9–11) are conservative in
    /// the right direction.
    pub fn ccdf(&self) -> Vec<(U, f64)> {
        if self.count == 0 {
            return Vec::new();
        }
        let n = self.count as f64;
        let mut remaining = self.count;
        let mut out = Vec::new();
        let rest = self.nonempty().filter(|&(i, _)| i > 0);
        for (i, c) in std::iter::once((0, self.bin(0))).chain(rest) {
            remaining = remaining.saturating_sub(c);
            out.push((self.edge(i + 1), remaining as f64 / n));
            if remaining == 0 {
                break;
            }
        }
        if self.overflow > 0 {
            out.push((U::from_raw(self.max), 0.0));
        }
        out
    }

    /// Upper estimate of `P(sample > t)`: every sample in the bin
    /// containing `t` is counted as exceeding `t`, so the estimate is
    /// always ≥ the true empirical CCDF — the right direction when the
    /// histogram stands in for a distribution being used as an *upper
    /// bound* (the paper's "simulated upper bound" of Figs. 9–11).
    pub fn ccdf_at(&self, t: U) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let idx = t.raw() / self.width;
        let below = self.nonempty().take_while(|&(i, _)| i < idx);
        let below: u64 = below.map(|(_, c)| c).sum();
        self.count.saturating_sub(below) as f64 / self.count as f64
    }

    /// The smallest value `x` (resolved to a bin upper edge, or the exact
    /// max for the last sample) such that at least `q · count` samples are
    /// `≤ x`. `q` must be in `(0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<U> {
        assert!(q > 0.0 && q <= 1.0, "quantile: q out of range");
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut cum = 0;
        for (i, c) in self.nonempty() {
            cum += c;
            if cum >= target {
                return Some(self.edge(i + 1));
            }
        }
        Some(U::from_raw(self.max))
    }

    /// Merge another histogram with identical bin layout into this one
    /// (used to pool shards and replica runs into one distribution),
    /// allocating only the pages `other` touched. Counts saturate at
    /// `u64::MAX` rather than wrapping, so pathological pooling degrades
    /// the distribution instead of corrupting it.
    ///
    /// # Panics
    /// Panics on mismatched bin width or bin count.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.width, other.width, "merge: bin width mismatch");
        assert_eq!(self.nbins, other.nbins, "merge: bin count mismatch");
        if self.pages.len() < other.pages.len() {
            self.pages.resize_with(other.pages.len(), || None);
        }
        for (mine, theirs) in self.pages.iter_mut().zip(&other.pages) {
            if let Some(theirs) = theirs {
                let mine = mine.get_or_insert_with(new_page);
                for (a, b) in mine.iter_mut().zip(theirs.iter()) {
                    *a = a.saturating_add(*b);
                }
            }
        }
        self.overflow = self.overflow.saturating_add(other.overflow);
        self.count = self.count.saturating_add(other.count);
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Histogram<u64> {
    /// Exact largest sample, 0 if empty — the buffer-occupancy reading of
    /// [`Histogram::max`].
    pub fn max_bits(&self) -> u64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Duration {
        Duration::from_ms(x)
    }

    #[test]
    fn records_extrema_exactly() {
        let mut h = DurationHistogram::new(ms(1), 100);
        h.record(Duration::from_us(1_499));
        h.record(Duration::from_us(7_301));
        h.record(Duration::from_us(2));
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Some(Duration::from_us(2)));
        assert_eq!(h.max(), Some(Duration::from_us(7_301)));
        assert_eq!(h.spread(), Some(Duration::from_us(7_299)));
    }

    #[test]
    fn empty_histogram() {
        let h = DurationHistogram::new(ms(1), 10);
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.spread(), None);
        assert!(h.ccdf().is_empty());
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn binning_and_overflow() {
        let mut h = DurationHistogram::new(ms(1), 5);
        h.record(ms(0)); // bin 0
        h.record(Duration::from_us(999)); // bin 0
        h.record(ms(1)); // bin 1
        h.record(ms(4)); // bin 4
        h.record(ms(5)); // overflow
        h.record(ms(100)); // overflow
        let bins: Vec<_> = h.nonempty_bins().collect();
        assert_eq!(bins, vec![(ms(0), 2), (ms(1), 1), (ms(4), 1)]);
        assert_eq!(h.overflow_count(), 2);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn ccdf_is_monotone_nonincreasing_and_reaches_zero() {
        let mut h = DurationHistogram::new(Duration::from_us(100), 1000);
        for i in 0..1000u64 {
            h.record(Duration::from_us(i * 97 % 50_000));
        }
        let c = h.ccdf();
        assert!(!c.is_empty());
        for w in c.windows(2) {
            assert!(w[0].1 >= w[1].1, "ccdf not monotone");
            assert!(w[0].0 <= w[1].0);
        }
        assert_eq!(c.last().unwrap().1, 0.0);
    }

    #[test]
    fn ccdf_at_is_conservative_upper_estimate() {
        let mut h = DurationHistogram::new(ms(1), 10);
        h.record(Duration::from_us(500)); // bin 0
        h.record(Duration::from_us(2_500)); // bin 2
        h.record(Duration::from_us(2_700)); // bin 2
        h.record(ms(50)); // overflow
                          // t inside bin 0: everything counts as above.
        assert_eq!(h.ccdf_at(Duration::from_us(100)), 1.0);
        // t inside bin 2: bin-0 sample excluded, bin-2 samples included.
        assert_eq!(h.ccdf_at(Duration::from_us(2_600)), 0.75);
        // t past all bins: only overflow remains.
        assert_eq!(h.ccdf_at(ms(20)), 0.25);
        // Conservative: true empirical P(X > 2.6ms) is 0.5, estimate 0.75.
        let empty = DurationHistogram::new(ms(1), 4);
        assert_eq!(empty.ccdf_at(ms(1)), 0.0);
    }

    #[test]
    fn quantiles() {
        let mut h = DurationHistogram::new(ms(1), 100);
        for i in 1..=100u64 {
            h.record(ms(i) - Duration::from_us(500)); // bins 0..99
        }
        // Median should land near 50 ms.
        let q50 = h.quantile(0.5).unwrap();
        assert!(q50 >= ms(49) && q50 <= ms(51), "q50={q50}");
        assert_eq!(h.quantile(1.0).unwrap(), h.max().unwrap().max(ms(100)));
    }

    #[test]
    fn mean_is_exact_sum_division() {
        let mut h = DurationHistogram::new(ms(1), 10);
        h.record(ms(2));
        h.record(ms(4));
        assert_eq!(h.mean(), Some(ms(3)));
    }

    #[test]
    fn merge_combines() {
        let mut a = DurationHistogram::new(ms(1), 10);
        let mut b = DurationHistogram::new(ms(1), 10);
        a.record(ms(1));
        b.record(ms(5));
        b.record(ms(20)); // overflow
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), Some(ms(20)));
        assert_eq!(a.overflow_count(), 1);
    }

    #[test]
    fn pdf_sums_to_at_most_one() {
        let mut h = DurationHistogram::new(ms(1), 4);
        for i in 0..10 {
            h.record(ms(i % 6));
        }
        let total: f64 = h.pdf().iter().map(|(_, f)| f).sum();
        assert!(total <= 1.0 + 1e-12);
        assert!(total > 0.5);
    }

    #[test]
    #[should_panic(expected = "bin width mismatch")]
    fn merge_rejects_mismatch() {
        let mut a = DurationHistogram::new(ms(1), 10);
        let b = DurationHistogram::new(ms(2), 10);
        a.merge(&b);
    }

    #[test]
    fn pages_are_allocated_on_first_touch_only() {
        let mut h: Histogram<u64> = Histogram::new(1, 4_000);
        assert_eq!(h.pages_allocated(), 0);
        h.record(130); // page 2
        h.record(131);
        h.record(9_999); // overflow: no page
        assert_eq!(h.pages_allocated(), 1);
        assert_eq!(h.bin(130), 1);
        assert_eq!(h.bin(0), 0);
        assert_eq!(h.nonempty().collect::<Vec<_>>(), vec![(130, 1), (131, 1)]);
        assert_eq!(h.bin_counts().count(), 4_000);
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a: Histogram<u64> = Histogram::new(100, 2);
        a.record(10);
        if let Some(Some(page)) = a.pages.get_mut(0) {
            page[0] = u64::MAX - 1;
        }
        a.count = u64::MAX - 1;
        a.overflow = u64::MAX;
        let mut b = Histogram::new(100, 2);
        b.record(10);
        b.record(10);
        b.record(500); // overflow
        a.merge(&b);
        assert_eq!(a.bin(0), u64::MAX);
        assert_eq!(a.count(), u64::MAX);
        assert_eq!(a.overflow_count(), u64::MAX);
        assert_eq!(a.max_bits(), 500);
        // Still usable afterwards: probabilities stay in [0, 1].
        let p = a.ccdf_at(0);
        assert!((0.0..=1.0).contains(&p));
    }
}
