//! Streaming and batch statistics.
//!
//! The detectors and the paper's Eq. 1 threshold calibration need running
//! means/variances (Welford), quantiles, and a chi-square statistic. Everything
//! here is single-pass or operates on caller-owned buffers, in keeping with
//! the O(1)-memory-per-sample design constraint.

use crate::Real;

/// Welford online mean/variance accumulator.
///
/// Numerically stable for long streams (unlike the naive sum-of-squares
/// formula, which catastrophically cancels in f32).
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one observation.
    #[inline]
    pub fn push(&mut self, x: Real) {
        self.n += 1;
        let x = x as f64;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 when empty).
    #[inline]
    pub fn mean(&self) -> Real {
        self.mean as Real
    }

    /// Population variance (divides by n; 0 when fewer than 2 samples).
    ///
    /// The paper's Eq. 1 uses the population form (`1/N`), so that is the
    /// default here.
    #[inline]
    pub fn variance(&self) -> Real {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64) as Real
        }
    }

    /// Population standard deviation.
    #[inline]
    pub fn std(&self) -> Real {
        self.variance().sqrt()
    }

    /// Merges another accumulator (parallel reduction support).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
    }

    /// Resets to the empty state.
    pub fn reset(&mut self) {
        *self = Welford::default();
    }

    /// The raw accumulator `(n, mean, m2)`, for persistence.
    pub fn parts(&self) -> (u64, f64, f64) {
        (self.n, self.mean, self.m2)
    }

    /// Rebuilds an accumulator from [`Welford::parts`]. `None` unless
    /// `mean` and `m2` are finite, `m2 >= 0`, and an empty accumulator
    /// holds zeros.
    pub fn from_parts(n: u64, mean: f64, m2: f64) -> Option<Welford> {
        let consistent = mean.is_finite()
            && m2.is_finite()
            && m2 >= 0.0
            && (n > 0 || (mean == 0.0 && m2 == 0.0));
        consistent.then_some(Welford { n, mean, m2 })
    }
}

/// Mean of a slice (0 for empty input).
pub fn mean(xs: &[Real]) -> Real {
    crate::vector::mean(xs)
}

/// Linear-interpolation quantile of **sorted** data, `q` in `[0, 1]`.
///
/// Matches numpy's default (`linear`) interpolation so Quant Tree split
/// points agree with the reference implementation's behaviour.
pub fn quantile_sorted(sorted: &[Real], q: Real) -> Real {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    let q = q.clamp(0.0, 1.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q as f64 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = (pos - lo as f64) as Real;
        sorted[lo] + (sorted[hi] - sorted[lo]) * frac
    }
}

/// Quantile of unsorted data (sorts a scratch copy).
pub fn quantile(xs: &[Real], q: Real) -> Real {
    let mut copy = xs.to_vec();
    copy.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    quantile_sorted(&copy, q)
}

/// Pearson chi-square statistic between observed counts and expected
/// probabilities over the same bins: `Σ (o_k - n·p_k)² / (n·p_k)`.
///
/// Bins with zero expected probability are skipped when they are also empty,
/// and contribute infinity when observed mass lands in them (any mass in an
/// impossible bin is maximal evidence of change).
pub fn pearson_chi2(observed: &[u64], expected_probs: &[Real]) -> Real {
    debug_assert_eq!(observed.len(), expected_probs.len());
    let n: u64 = observed.iter().sum();
    if n == 0 {
        return 0.0;
    }
    let n = n as Real;
    let mut stat = 0.0;
    for (&o, &p) in observed.iter().zip(expected_probs.iter()) {
        let e = n * p;
        if e <= 0.0 {
            if o > 0 {
                return Real::INFINITY;
            }
            continue;
        }
        let d = o as Real - e;
        stat += d * d / e;
    }
    stat
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_mean_var() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-6);
        assert!((w.variance() - 4.0).abs() < 1e-5);
        assert!((w.std() - 2.0).abs() < 1e-5);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        w.push(3.0);
        assert_eq!(w.mean(), 3.0);
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<Real> = (0..100).map(|i| (i as Real).sin() * 10.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-4);
        assert!((a.variance() - whole.variance()).abs() < 1e-3);
    }

    #[test]
    fn welford_parts_roundtrip_and_reject_non_finite() {
        let mut w = Welford::new();
        for x in [1.5, -2.0, 7.25] {
            w.push(x);
        }
        let (n, mean, m2) = w.parts();
        let back = Welford::from_parts(n, mean, m2).unwrap();
        assert_eq!(back.parts(), w.parts());
        assert!(Welford::from_parts(n, f64::NAN, m2).is_none());
        assert!(Welford::from_parts(n, mean, f64::INFINITY).is_none());
        assert!(Welford::from_parts(n, mean, -1.0).is_none());
        assert!(Welford::from_parts(0, 1.0, 0.0).is_none());
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        let mut b = Welford::new();
        b.push(5.0);
        a.merge(&b);
        assert_eq!(a.mean(), 5.0);
        let empty = Welford::new();
        a.merge(&empty);
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn quantile_median_and_extremes() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert!((quantile(&xs, 0.25) - 2.5).abs() < 1e-6);
        assert!((quantile(&xs, 0.75) - 7.5).abs() < 1e-6);
    }

    #[test]
    fn quantile_single_element() {
        assert_eq!(quantile(&[42.0], 0.3), 42.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        quantile(&[], 0.5);
    }

    #[test]
    fn chi2_zero_when_matching() {
        // Observations exactly proportional to expectations.
        let observed = [25u64, 25, 25, 25];
        let probs = [0.25, 0.25, 0.25, 0.25];
        assert_eq!(pearson_chi2(&observed, &probs), 0.0);
    }

    #[test]
    fn chi2_grows_with_mismatch() {
        let probs = [0.25, 0.25, 0.25, 0.25];
        let mild = pearson_chi2(&[30, 20, 25, 25], &probs);
        let severe = pearson_chi2(&[100, 0, 0, 0], &probs);
        assert!(severe > mild && mild > 0.0);
    }

    #[test]
    fn chi2_impossible_bin_is_infinite() {
        assert!(pearson_chi2(&[1, 9], &[0.0, 1.0]).is_infinite());
        assert_eq!(pearson_chi2(&[0, 10], &[0.0, 1.0]), 0.0);
    }

    #[test]
    fn chi2_empty_observation_is_zero() {
        assert_eq!(pearson_chi2(&[0, 0], &[0.5, 0.5]), 0.0);
    }
}
