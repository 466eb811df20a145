//! Online statistics accumulators.
//!
//! The experiment harness streams billions of simulated branch events and
//! cannot retain them, so summary statistics are accumulated online.
//! [`OnlineStats`] implements Welford's numerically stable algorithm for mean
//! and variance; [`Histogram`] offers fixed-bin counting for bias and
//! improvement distributions.

/// Streaming mean / variance / min / max accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use sdbp_util::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; `0.0` with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A fixed-width-bin histogram over a closed interval.
///
/// Out-of-range observations are clamped into the first or last bin so that
/// `total()` always equals the number of `push` calls.
///
/// # Examples
///
/// ```
/// use sdbp_util::stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 1.0, 10).expect("valid bins");
/// h.push(0.95);
/// h.push(0.97);
/// assert_eq!(h.bin_count(9), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram spanning `[lo, hi]` with `bins` equal-width bins.
    ///
    /// Returns `None` if `bins == 0`, the bounds are non-finite, or
    /// `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Option<Self> {
        if bins == 0 || !lo.is_finite() || !hi.is_finite() || lo >= hi {
            return None;
        }
        Some(Self {
            lo,
            hi,
            bins: vec![0; bins],
        })
    }

    /// Adds one observation, clamping it into range.
    pub fn push(&mut self, x: f64) {
        let n = self.bins.len();
        let t = ((x - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0);
        let idx = ((t * n as f64) as usize).min(n - 1);
        self.bins[idx] += 1;
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// The inclusive value range `[lo, hi]` covered by bin `i`.
    pub fn bin_range(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// Fraction of observations at or above `threshold`.
    ///
    /// Computed from bins whose lower edge is ≥ `threshold`; accuracy is
    /// limited by bin width.
    pub fn fraction_at_least(&self, threshold: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let above: u64 = (0..self.bins.len())
            .filter(|&i| self.bin_range(i).0 >= threshold)
            .map(|i| self.bins[i])
            .sum();
        above as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.min().is_none());
        assert!(s.max().is_none());
    }

    #[test]
    fn stats_match_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = OnlineStats::new();
        s.push(1.0);
        s.push(3.0);
        let before = s;
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn histogram_bins_and_clamping() {
        let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
        h.push(-1.0); // clamps to bin 0
        h.push(0.5);
        h.push(9.9);
        h.push(100.0); // clamps to bin 4
        assert_eq!(h.bin_count(0), 2);
        assert_eq!(h.bin_count(4), 2);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn histogram_rejects_bad_parameters() {
        assert!(Histogram::new(0.0, 1.0, 0).is_none());
        assert!(Histogram::new(1.0, 1.0, 4).is_none());
        assert!(Histogram::new(f64::NAN, 1.0, 4).is_none());
    }

    #[test]
    fn histogram_fraction_at_least() {
        let mut h = Histogram::new(0.0, 1.0, 20).unwrap();
        for i in 0..100 {
            h.push(i as f64 / 100.0);
        }
        let frac = h.fraction_at_least(0.95);
        assert!((frac - 0.05).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn histogram_bin_range() {
        let h = Histogram::new(0.0, 1.0, 4).unwrap();
        let (lo, hi) = h.bin_range(1);
        assert!((lo - 0.25).abs() < 1e-12);
        assert!((hi - 0.5).abs() < 1e-12);
    }
}
