//! Feature normalisation.
//!
//! OS-ELM with sigmoid activations wants inputs in a bounded range; NSL-KDD
//! preprocessing conventionally min-max normalises each numeric column. The
//! fit-on-train / apply-to-stream split matters: normalising with test
//! statistics would leak the drift itself.

use seqdrift_linalg::{stats::Welford, Real};

/// Per-dimension min-max scaler fit on training data, mapping the training
/// range to `[0, 1]` (test values outside the range extrapolate linearly
/// and are *not* clamped — clamping would silently erase drift).
#[derive(Debug, Clone)]
pub struct MinMaxNormalizer {
    mins: Vec<Real>,
    scales: Vec<Real>,
}

impl MinMaxNormalizer {
    /// Fits on training rows. Constant dimensions get scale 1 (pass
    /// through shifted to 0).
    pub fn fit(rows: &[Vec<Real>]) -> Self {
        assert!(!rows.is_empty(), "normalizer: empty training data");
        let dim = rows[0].len();
        let mut mins = vec![Real::INFINITY; dim];
        let mut maxs = vec![Real::NEG_INFINITY; dim];
        for r in rows {
            for ((mn, mx), &v) in mins.iter_mut().zip(maxs.iter_mut()).zip(r.iter()) {
                *mn = mn.min(v);
                *mx = mx.max(v);
            }
        }
        let scales = mins
            .iter()
            .zip(maxs.iter())
            .map(|(&mn, &mx)| {
                let range = mx - mn;
                if range > 1e-12 {
                    1.0 / range
                } else {
                    1.0
                }
            })
            .collect();
        MinMaxNormalizer { mins, scales }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.mins.len()
    }

    /// Normalises in place.
    pub fn apply_inplace(&self, x: &mut [Real]) {
        debug_assert_eq!(x.len(), self.dim());
        for ((v, &mn), &s) in x.iter_mut().zip(self.mins.iter()).zip(self.scales.iter()) {
            *v = (*v - mn) * s;
        }
    }

    /// Normalises a copy.
    pub fn apply(&self, x: &[Real]) -> Vec<Real> {
        let mut out = x.to_vec();
        self.apply_inplace(&mut out);
        out
    }
}

/// Streaming z-score normaliser: statistics update online (Welford per
/// dimension). Useful for open-ended deployments where no training range
/// exists; statistics can be frozen once warmed up.
#[derive(Debug, Clone)]
pub struct OnlineNormalizer {
    stats: Vec<Welford>,
    frozen: bool,
}

impl OnlineNormalizer {
    /// Creates a normaliser for `dim` features.
    pub fn new(dim: usize) -> Self {
        OnlineNormalizer {
            stats: vec![Welford::new(); dim],
            frozen: false,
        }
    }

    /// Stops updating statistics; subsequent `normalize` calls use the
    /// frozen mean/std.
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Observes `x` (unless frozen) and z-scores it in place.
    pub fn normalize_inplace(&mut self, x: &mut [Real]) {
        debug_assert_eq!(x.len(), self.stats.len());
        for (v, w) in x.iter_mut().zip(self.stats.iter_mut()) {
            if !self.frozen {
                w.push(*v);
            }
            let std = w.std();
            *v = if std > 1e-12 {
                (*v - w.mean()) / std
            } else {
                0.0
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minmax_maps_train_to_unit_interval() {
        let rows = vec![vec![0.0, 10.0], vec![5.0, 20.0], vec![10.0, 30.0]];
        let n = MinMaxNormalizer::fit(&rows);
        assert_eq!(n.apply(&rows[0]), vec![0.0, 0.0]);
        assert_eq!(n.apply(&rows[2]), vec![1.0, 1.0]);
        assert_eq!(n.apply(&rows[1]), vec![0.5, 0.5]);
    }

    #[test]
    fn minmax_extrapolates_outside_training_range() {
        let rows = vec![vec![0.0], vec![10.0]];
        let n = MinMaxNormalizer::fit(&rows);
        assert_eq!(n.apply(&[20.0]), vec![2.0]);
        assert_eq!(n.apply(&[-10.0]), vec![-1.0]);
    }

    #[test]
    fn minmax_constant_dimension_passes_through() {
        let rows = vec![vec![7.0, 1.0], vec![7.0, 2.0]];
        let n = MinMaxNormalizer::fit(&rows);
        let out = n.apply(&[7.0, 1.5]);
        assert_eq!(out[0], 0.0);
        assert_eq!(out[1], 0.5);
    }

    #[test]
    fn online_normalizer_zero_scores_converge() {
        let mut n = OnlineNormalizer::new(1);
        let mut rng = seqdrift_linalg::Rng::seed_from(1);
        let mut last = 0.0;
        for _ in 0..5000 {
            let mut x = [rng.normal(5.0, 2.0)];
            n.normalize_inplace(&mut x);
            last = x[0];
        }
        // After convergence, values look standard-normal: occasionally large
        // but not systematically offset.
        assert!(last.abs() < 5.0);
        let mut probe = [5.0];
        n.freeze();
        n.normalize_inplace(&mut probe);
        assert!(probe[0].abs() < 0.1, "mean sample should z-score near 0");
    }

    #[test]
    fn frozen_normalizer_stops_updating() {
        let mut n = OnlineNormalizer::new(1);
        for i in 0..100 {
            n.normalize_inplace(&mut [i as Real]);
        }
        n.freeze();
        let mut a = [50.0];
        n.normalize_inplace(&mut a);
        // Feeding extreme values must not move the statistics now.
        for _ in 0..100 {
            n.normalize_inplace(&mut [1e6]);
        }
        let mut b = [50.0];
        n.normalize_inplace(&mut b);
        assert_eq!(a, b);
    }
}
