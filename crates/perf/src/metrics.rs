//! Derived-metric formulas and summary statistics.
//!
//! These are the formulas the paper's figures are computed with: IPC and
//! MLP (Figure 3), misses per kilo-instruction (Figure 2), hit ratios
//! (Figure 5), and percentage utilizations (Figures 6 and 7). Figure 3 also
//! needs min/max range bars per workload group, provided by
//! [`RunningStat`].

use cs_trace::snap::SnapError;
use serde::Serialize;

/// `numerator / denominator`, or 0 when the denominator is zero.
#[inline]
pub fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Events per kilo-instruction (e.g. L1-I misses per 1000 instructions,
/// the unit of the paper's Figure 2).
#[inline]
pub fn mpki(events: u64, instructions: u64) -> f64 {
    1000.0 * ratio(events, instructions)
}

/// `part / whole` as a percentage, 0 when `whole` is zero.
#[inline]
pub fn percent(part: u64, whole: u64) -> f64 {
    100.0 * ratio(part, whole)
}

/// Streaming mean / min / max over `f64` samples.
///
/// # Example
///
/// ```
/// use cs_perf::RunningStat;
///
/// let mut s = RunningStat::new();
/// for x in [1.0, 3.0, 2.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 3.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct RunningStat {
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl RunningStat {
    /// Creates an empty statistic.
    pub fn new() -> Self {
        Self { count: 0, sum: 0.0, sum_sq: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.sum_sq += x * x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Population standard deviation (0 when empty).
    pub fn stddev(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mean = self.mean();
        (self.sum_sq / self.count as f64 - mean * mean).max(0.0).sqrt()
    }

    /// Sample standard deviation (Bessel-corrected, `n - 1` denominator;
    /// 0 with fewer than two samples). This is the estimator the sampled
    /// simulation's confidence intervals are built on: the measurement
    /// windows are a sample drawn from the run, not the whole population.
    pub fn sample_stddev(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let n = self.count as f64;
        ((self.sum_sq - self.sum * self.sum / n) / (n - 1.0)).max(0.0).sqrt()
    }

    /// Half-width of the CLT-based 95% confidence interval on the mean:
    /// `1.96 * s / sqrt(n)` with `s` the sample standard deviation
    /// ([`RunningStat::sample_stddev`]). Returns 0 with fewer than two
    /// samples — a single window carries no interval.
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        1.96 * self.sample_stddev() / (self.count as f64).sqrt()
    }

    /// The 95% confidence interval on the mean as `(lo, hi)` —
    /// `mean ± ci95_half_width`. Degenerates to `(mean, mean)` with fewer
    /// than two samples.
    pub fn ci95(&self) -> (f64, f64) {
        let h = self.ci95_half_width();
        (self.mean() - h, self.mean() + h)
    }
}

impl FromIterator<f64> for RunningStat {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Self::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

cs_trace::snap_struct! {
    merge;
    check = |h: &Histogram| match h.buckets.len() {
        0 => Err(SnapError::Mismatch("empty histogram".into())),
        _ => Ok(()),
    };
    /// A fixed-bucket histogram over `u64` samples.
    ///
    /// Used for occupancy distributions (MSHR / super-queue occupancy, ROB
    /// occupancy) that back the paper's MLP methodology. Merging two
    /// histograms of different capacities panics.
    #[derive(Debug, Clone, PartialEq, Eq, Serialize)]
    pub struct Histogram {
        buckets: Vec<u64>,
        overflow: u64,
    }
}

impl Histogram {
    /// Creates a histogram with buckets `0..capacity` plus an overflow
    /// bucket.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "histogram needs at least one bucket");
        Self { buckets: vec![0; capacity], overflow: 0 }
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: u64) {
        match self.buckets.get_mut(value as usize) {
            Some(b) => *b += 1,
            None => self.overflow += 1,
        }
    }

    /// Records `weight` observations of `value`.
    pub fn record_n(&mut self, value: u64, weight: u64) {
        match self.buckets.get_mut(value as usize) {
            Some(b) => *b += weight,
            None => self.overflow += weight,
        }
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.overflow
    }

    /// Observations recorded at exactly `value` (overflow excluded).
    pub fn count_at(&self, value: u64) -> u64 {
        self.buckets.get(value as usize).copied().unwrap_or(0)
    }

    /// Observations that exceeded the bucket range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Mean of the distribution, counting overflow at the bucket cap.
    pub fn mean(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, c)| i as u64 * c)
            .sum::<u64>()
            + self.overflow * self.buckets.len() as u64;
        sum as f64 / total as f64
    }

    /// Mean over only the observations with `value >= 1` — the paper's MLP
    /// formula: average outstanding misses over cycles with at least one
    /// outstanding miss.
    pub fn mean_nonzero(&self) -> f64 {
        let total_nonzero = self.total() - self.count_at(0);
        if total_nonzero == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .buckets
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, c)| i as u64 * c)
            .sum::<u64>()
            + self.overflow * self.buckets.len() as u64;
        sum as f64 / total_nonzero as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_trace::snap::Merge;

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(ratio(5, 0), 0.0);
        assert_eq!(ratio(5, 10), 0.5);
    }

    #[test]
    fn mpki_formula() {
        assert_eq!(mpki(30, 1000), 30.0);
        assert_eq!(mpki(3, 2000), 1.5);
    }

    #[test]
    fn percent_formula() {
        assert_eq!(percent(1, 4), 25.0);
        assert_eq!(percent(1, 0), 0.0);
    }

    #[test]
    fn running_stat_empty_is_zero() {
        let s = RunningStat::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn running_stat_collect() {
        let s: RunningStat = [2.0, 4.0].into_iter().collect();
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.count(), 2);
        assert!((s.stddev() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stddev_of_constant_is_zero() {
        let s: RunningStat = [5.0, 5.0, 5.0].into_iter().collect();
        assert!(s.stddev().abs() < 1e-12);
    }

    #[test]
    fn sample_stddev_uses_bessel_correction() {
        let s: RunningStat = [2.0, 4.0].into_iter().collect();
        // Population stddev is 1.0; sample stddev is sqrt(2).
        assert!((s.sample_stddev() - 2f64.sqrt()).abs() < 1e-12);
        let single: RunningStat = [3.0].into_iter().collect();
        assert_eq!(single.sample_stddev(), 0.0);
        assert_eq!(single.ci95_half_width(), 0.0);
        assert_eq!(single.ci95(), (3.0, 3.0));
    }

    #[test]
    fn ci95_brackets_the_mean_symmetrically() {
        let s: RunningStat = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        let (lo, hi) = s.ci95();
        assert!(lo < s.mean() && s.mean() < hi, "CI must contain the mean");
        assert!((hi - s.mean() - (s.mean() - lo)).abs() < 1e-12, "CI is symmetric");
        let expected = 1.96 * s.sample_stddev() / 2.0; // sqrt(4) = 2
        assert!((s.ci95_half_width() - expected).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_adds_buckets_and_overflow() {
        let mut a = Histogram::new(3);
        a.record_n(1, 4);
        a.record(10);
        let mut b = Histogram::new(3);
        b.record_n(1, 2);
        b.record_n(2, 5);
        b.record(99);
        a.merge_from(&b);
        assert_eq!(a.count_at(1), 6);
        assert_eq!(a.count_at(2), 5);
        assert_eq!(a.overflow(), 2);
        assert_eq!(a.total(), 13);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn histogram_merge_rejects_capacity_mismatch() {
        let mut a = Histogram::new(3);
        a.merge_from(&Histogram::new(4));
    }

    #[test]
    fn histogram_counts_and_overflow() {
        let mut h = Histogram::new(4);
        h.record(0);
        h.record(3);
        h.record(100);
        h.record_n(2, 5);
        assert_eq!(h.total(), 8);
        assert_eq!(h.count_at(2), 5);
        assert_eq!(h.overflow(), 1);
    }

    #[test]
    fn histogram_mean_nonzero_is_mlp_formula() {
        let mut h = Histogram::new(8);
        // 10 idle cycles, 5 cycles with 2 outstanding, 5 cycles with 4.
        h.record_n(0, 10);
        h.record_n(2, 5);
        h.record_n(4, 5);
        assert_eq!(h.mean_nonzero(), 3.0);
        assert!((h.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_empty_means_are_zero() {
        let h = Histogram::new(2);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.mean_nonzero(), 0.0);
    }

    #[test]
    fn histogram_decode_rejects_zero_capacity() {
        use cs_trace::snap::{Codec, Dec, Enc};
        let mut e = Enc::new();
        e.len(0); // no buckets
        e.u64(5); // overflow
        let got = Histogram::decode_snap(&mut Dec::new(&e.buf));
        assert!(matches!(got, Err(SnapError::Mismatch(_))), "{got:?}");
    }

    #[test]
    #[should_panic(expected = "bucket")]
    fn histogram_rejects_zero_capacity() {
        let _ = Histogram::new(0);
    }
}
