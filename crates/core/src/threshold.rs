//! Threshold calibration.
//!
//! * `θ_drift` — Eq. 1 of the paper: over the training samples, compute the
//!   distance between each sample and the centroid of its (predicted)
//!   label; `θ_drift = μ + z·σ` of those distances with `z = 1` by default.
//! * `θ_error` — "a tuning parameter" in the paper; calibrated here as a
//!   quantile of the training anomaly scores so windows open on the tail of
//!   the in-distribution score distribution.
//!
//! Both calibrations are single-pass (Welford / one sort) and reusable
//! during reconstruction, where the distance stream arrives sequentially.

use crate::centroid::CentroidSet;
use crate::detector::DistanceMetric;
use crate::{CoreError, Result};
use seqdrift_linalg::{stats, Real};

/// Default `z` of Eq. 1.
pub const DEFAULT_Z: Real = 1.0;

/// Sequential accumulator for Eq. 1: feed per-sample distances as they
/// occur, read the threshold at the end. O(1) memory — usable on-device
/// during reconstruction.
#[derive(Debug, Clone, Default)]
pub struct DriftThresholdCalibrator {
    welford: stats::Welford,
}

impl DriftThresholdCalibrator {
    /// Fresh calibrator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one sample-to-centroid distance.
    pub fn push(&mut self, dist: Real) {
        self.welford.push(dist);
    }

    /// Number of distances consumed.
    pub fn count(&self) -> u64 {
        self.welford.count()
    }

    /// `θ_drift = μ + z·σ` (Eq. 1). Errors if no distances were fed.
    pub fn threshold(&self, z: Real) -> Result<Real> {
        if self.welford.count() == 0 {
            return Err(CoreError::InvalidConfig(
                "drift threshold calibration saw no samples",
            ));
        }
        Ok(self.welford.mean() + z * self.welford.std())
    }

    /// Resets to empty.
    pub fn reset(&mut self) {
        self.welford.reset();
    }

    /// The running accumulator (persistence).
    pub(crate) fn welford(&self) -> &stats::Welford {
        &self.welford
    }

    /// A calibrator resumed from a persisted accumulator.
    pub(crate) fn from_welford(welford: stats::Welford) -> Self {
        DriftThresholdCalibrator { welford }
    }
}

/// Eq. 1 in one call: distances of `(label, sample)` pairs to their label
/// centroid under `metric`, threshold `μ + z·σ`.
pub fn calibrate_drift_threshold(
    centroids: &CentroidSet,
    data: &[(usize, &[Real])],
    metric: DistanceMetric,
    z: Real,
) -> Result<Real> {
    let mut cal = DriftThresholdCalibrator::new();
    for (label, x) in data {
        let c = centroids.centroid(*label)?;
        cal.push(metric.eval(c, x));
    }
    cal.threshold(z)
}

/// Calibrates `θ_error` as the `q`-quantile of training anomaly scores
/// (`q` in `[0, 1]`; e.g. 0.95 keeps windows shut for 95% of
/// in-distribution samples).
pub fn calibrate_error_threshold(scores: &[Real], q: Real) -> Result<Real> {
    if scores.is_empty() {
        return Err(CoreError::InvalidConfig(
            "error threshold calibration saw no scores",
        ));
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(CoreError::InvalidConfig("quantile must be in [0, 1]"));
    }
    Ok(stats::quantile(scores, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_known_values() {
        // Distances 1, 2, 3: mu = 2, sigma = sqrt(2/3).
        let mut cal = DriftThresholdCalibrator::new();
        for d in [1.0, 2.0, 3.0] {
            cal.push(d);
        }
        let t = cal.threshold(1.0).unwrap();
        let expect = 2.0 + (2.0f64 / 3.0).sqrt() as Real;
        assert!((t - expect).abs() < 1e-5);
        // z = 0 gives the mean.
        assert!((cal.threshold(0.0).unwrap() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn empty_calibration_is_an_error() {
        let cal = DriftThresholdCalibrator::new();
        assert!(cal.threshold(1.0).is_err());
        assert!(calibrate_error_threshold(&[], 0.9).is_err());
    }

    #[test]
    fn calibrate_from_labeled_data() {
        let mut c = CentroidSet::zeros(2, 1);
        c.set_centroid(0, &[0.0]).unwrap();
        c.set_centroid(1, &[10.0]).unwrap();
        let data: Vec<(usize, &[Real])> = vec![
            (0, &[1.0][..]),  // dist 1
            (0, &[-1.0][..]), // dist 1
            (1, &[12.0][..]), // dist 2
            (1, &[8.0][..]),  // dist 2
        ];
        let t = calibrate_drift_threshold(&c, &data, DistanceMetric::L1, 1.0).unwrap();
        // mu = 1.5, sigma = 0.5.
        assert!((t - 2.0).abs() < 1e-5);
    }

    #[test]
    fn calibrate_rejects_bad_label() {
        let c = CentroidSet::zeros(1, 1);
        let data: Vec<(usize, &[Real])> = vec![(3, &[0.0][..])];
        assert!(calibrate_drift_threshold(&c, &data, DistanceMetric::L1, 1.0).is_err());
    }

    #[test]
    fn error_threshold_is_quantile() {
        let scores: Vec<Real> = (1..=100).map(|i| i as Real).collect();
        let t = calibrate_error_threshold(&scores, 0.95).unwrap();
        assert!((t - 95.05).abs() < 0.1, "t = {t}");
        assert!(calibrate_error_threshold(&scores, 1.5).is_err());
    }

    #[test]
    fn larger_z_larger_threshold() {
        let mut cal = DriftThresholdCalibrator::new();
        for d in [1.0, 5.0, 3.0, 2.0] {
            cal.push(d);
        }
        assert!(cal.threshold(2.0).unwrap() > cal.threshold(1.0).unwrap());
    }

    #[test]
    fn reset_clears_state() {
        let mut cal = DriftThresholdCalibrator::new();
        cal.push(1.0);
        cal.reset();
        assert_eq!(cal.count(), 0);
        assert!(cal.threshold(1.0).is_err());
    }
}
