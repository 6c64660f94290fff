//! Empirical distributions: CDFs, complementary CDFs, histograms.
//!
//! Figure 7 plots log-log complementary distributions (`P[X > x]`) of AS
//! size measures; Figure 9 plots CDFs (`P[X ≤ x]`) of AS convex-hull areas.

use serde::{Deserialize, Serialize};

/// An empirical cumulative distribution function over a sample.
///
/// Construction sorts the sample once; queries are `O(log n)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample. Non-finite values are dropped.
    pub fn new(mut sample: Vec<f64>) -> Self {
        sample.retain(|v| v.is_finite());
        sample.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        Ecdf { sorted: sample }
    }

    /// Number of (finite) sample points.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P[X ≤ x]`. Returns 0 for an empty sample.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// `P[X > x]`.
    pub fn ccdf(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }

    /// Empirical quantile for `q ∈ [0, 1]` (inverse CDF, lower
    /// interpolation). Returns `None` on an empty sample or out-of-range q.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        Some(self.sorted[idx - 1])
    }

    /// The full series of `(x, P[X ≤ x])` steps, one per distinct value —
    /// the data behind a CDF plot like Figure 9.
    pub fn cdf_points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.sorted.len() {
            let v = self.sorted[i];
            let j = self.sorted.partition_point(|&w| w <= v);
            out.push((v, j as f64 / n));
            i = j;
        }
        out
    }

    /// Minimum sample value.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Maximum sample value.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }
}

/// Complementary CDF points `(x, P[X > x])` for a positive-valued sample,
/// one point per distinct value, suitable for the log-log CCDF plots of
/// Figure 7. The final point (largest value, probability 0) is omitted so
/// every returned probability is positive and log-plottable.
pub fn ccdf_points(sample: &[f64]) -> Vec<(f64, f64)> {
    let mut vals: Vec<f64> = sample.iter().copied().filter(|v| v.is_finite()).collect();
    vals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = vals.len() as f64;
    let mut out = Vec::new();
    let mut i = 0;
    while i < vals.len() {
        let v = vals[i];
        let j = vals.partition_point(|&w| w <= v);
        let p_gt = (vals.len() - j) as f64 / n;
        if p_gt > 0.0 {
            out.push((v, p_gt));
        }
        i = j;
    }
    out
}

/// A fixed-width histogram over `[0, max)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    bin_width: f64,
    counts: Vec<u64>,
    /// Number of observations that fell at or beyond `max`.
    pub overflow: u64,
    /// Number of negative or non-finite observations rejected.
    pub rejected: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` bins of width `bin_width` covering
    /// `[0, bins · bin_width)`.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is not positive/finite or `bins` is zero —
    /// these are programming errors, not data errors.
    pub fn new(bin_width: f64, bins: usize) -> Self {
        assert!(bin_width.is_finite() && bin_width > 0.0, "bad bin width");
        assert!(bins > 0, "need at least one bin");
        Histogram {
            bin_width,
            counts: vec![0; bins],
            overflow: 0,
            rejected: 0,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, value: f64) {
        self.add_n(value, 1);
    }

    /// Adds `n` identical observations; the result equals `n` calls to
    /// [`Histogram::add`]. The Section V pair counts use it: a location
    /// (or grid cell) pair contributes `n1·n2` pairs at one distance.
    pub fn add_n(&mut self, value: f64, n: u64) {
        if !value.is_finite() || value < 0.0 {
            self.rejected += n;
            return;
        }
        let idx = (value / self.bin_width) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += n;
        } else {
            self.overflow += n;
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Bin width.
    pub fn bin_width(&self) -> f64 {
        self.bin_width
    }

    /// Midpoint of bin `i`.
    pub fn bin_mid(&self, i: usize) -> f64 {
        (i as f64 + 0.5) * self.bin_width
    }

    /// Lower edge of bin `i`.
    pub fn bin_lo(&self, i: usize) -> f64 {
        i as f64 * self.bin_width
    }

    /// Total in-range count.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    // Tests assert exact expected values; bitwise float equality is the point.
    #![allow(clippy::float_cmp)]

    use super::*;

    #[test]
    fn ecdf_basic() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.cdf(0.5), 0.0);
        assert_eq!(e.cdf(1.0), 0.25);
        assert_eq!(e.cdf(2.5), 0.5);
        assert_eq!(e.cdf(4.0), 1.0);
        assert_eq!(e.ccdf(2.0), 0.5);
    }

    #[test]
    fn ecdf_empty() {
        let e = Ecdf::new(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.cdf(1.0), 0.0);
        assert_eq!(e.quantile(0.5), None);
        assert_eq!(e.min(), None);
    }

    #[test]
    fn ecdf_drops_nonfinite() {
        let e = Ecdf::new(vec![1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn ecdf_quantiles() {
        let e = Ecdf::new((1..=100).map(|i| i as f64).collect());
        assert_eq!(e.quantile(0.5), Some(50.0));
        assert_eq!(e.quantile(0.0), Some(1.0));
        assert_eq!(e.quantile(1.0), Some(100.0));
        assert_eq!(e.quantile(1.5), None);
    }

    #[test]
    fn ecdf_with_ties() {
        let e = Ecdf::new(vec![5.0, 5.0, 5.0, 10.0]);
        assert_eq!(e.cdf(5.0), 0.75);
        let pts = e.cdf_points();
        assert_eq!(pts, vec![(5.0, 0.75), (10.0, 1.0)]);
    }

    #[test]
    fn cdf_points_monotone() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0, 2.0, 8.0]);
        let pts = e.cdf_points();
        for w in pts.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn ccdf_points_positive_and_decreasing() {
        let sample: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let pts = ccdf_points(&sample);
        assert_eq!(pts.len(), 999); // largest value omitted (P=0)
        for w in pts.windows(2) {
            assert!(w[0].1 > w[1].1);
        }
        assert!((pts[0].1 - 0.999).abs() < 1e-12);
    }

    #[test]
    fn ccdf_points_with_ties() {
        let pts = ccdf_points(&[1.0, 1.0, 2.0]);
        assert_eq!(pts, vec![(1.0, 1.0 / 3.0)]);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(10.0, 5);
        h.add(0.0);
        h.add(9.999);
        h.add(10.0);
        h.add(49.999);
        h.add(50.0);
        h.add(-1.0);
        h.add(f64::NAN);
        assert_eq!(h.counts(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.rejected, 2);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn histogram_add_n() {
        let mut h = Histogram::new(1.0, 3);
        h.add_n(1.5, 100);
        assert_eq!(h.counts(), &[0, 100, 0]);
    }

    #[test]
    fn histogram_bin_geometry() {
        let h = Histogram::new(35.0, 100);
        assert_eq!(h.bin_lo(0), 0.0);
        assert_eq!(h.bin_mid(0), 17.5);
        assert_eq!(h.bin_lo(99), 99.0 * 35.0);
    }

    #[test]
    #[should_panic(expected = "bad bin width")]
    fn histogram_rejects_zero_width() {
        let _ = Histogram::new(0.0, 10);
    }
}
