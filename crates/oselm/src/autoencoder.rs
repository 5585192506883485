//! OS-ELM autoencoder for unsupervised anomaly scoring.
//!
//! Following Hinton & Salakhutdinov (2006) and ONLAD, the network is trained
//! to reproduce its input through a narrower hidden layer; inputs far from
//! the training distribution reconstruct poorly, so the reconstruction error
//! serves as an anomaly score (Section 3.1 of the paper).

use crate::oselm::{OsElm, OsElmConfig};
use crate::{ModelError, Result};
use seqdrift_linalg::{vector, Real};

/// How reconstruction error is reduced to a scalar anomaly score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoreMetric {
    /// Mean squared error (default; what ONLAD reports).
    #[default]
    MeanSquared,
    /// Mean absolute error — cheaper on an FPU-less MCU, provided for the
    /// firmware-parity configuration.
    MeanAbsolute,
}

impl ScoreMetric {
    /// One feature's term of the score for `d = reconstruction - input`.
    #[inline(always)]
    fn term(self, d: Real) -> Real {
        match self {
            ScoreMetric::MeanSquared => d * d,
            ScoreMetric::MeanAbsolute => d.abs(),
        }
    }
}

/// An OS-ELM autoencoder: reconstruction target = input.
#[derive(Debug, Clone)]
pub struct Autoencoder {
    net: OsElm,
    metric: ScoreMetric,
    scratch_recon: Vec<Real>,
}

impl Autoencoder {
    /// Builds an autoencoder. `cfg.output_dim` is forced to `cfg.input_dim`.
    pub fn new(mut cfg: OsElmConfig) -> Result<Self> {
        cfg.output_dim = cfg.input_dim;
        let net = OsElm::new(cfg)?;
        let scratch_recon = vec![0.0; net.output_dim()];
        Ok(Autoencoder {
            net,
            metric: ScoreMetric::default(),
            scratch_recon,
        })
    }

    /// Overrides the score metric.
    pub fn with_metric(mut self, metric: ScoreMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Input/output dimensionality.
    pub fn dim(&self) -> usize {
        self.net.input_dim()
    }

    /// Whether initial training has run.
    pub fn is_initialized(&self) -> bool {
        self.net.is_initialized()
    }

    /// Total samples consumed.
    pub fn samples_seen(&self) -> u64 {
        self.net.samples_seen()
    }

    /// Access to the underlying network (memory accounting, tests).
    pub fn network(&self) -> &OsElm {
        &self.net
    }

    /// The configured score metric.
    pub fn metric(&self) -> ScoreMetric {
        self.metric
    }

    /// Wraps an existing network as an autoencoder (deserialisation).
    /// The network must be autoencoder-shaped (`output_dim == input_dim`).
    pub fn from_network(net: OsElm, metric: ScoreMetric) -> Result<Autoencoder> {
        if net.output_dim() != net.input_dim() {
            return Err(ModelError::InvalidConfig(
                "from_network: not autoencoder-shaped",
            ));
        }
        let scratch_recon = vec![0.0; net.output_dim()];
        Ok(Autoencoder {
            net,
            metric,
            scratch_recon,
        })
    }

    /// Initial batch training on `xs` (targets are the inputs themselves).
    pub fn init_train(&mut self, xs: &[Vec<Real>]) -> Result<()> {
        self.net.init_train(xs, xs)
    }

    /// One sequential training step on `x`.
    pub fn seq_train(&mut self, x: &[Real]) -> Result<()> {
        if x.len() != self.net.input_dim() {
            return Err(ModelError::DimensionMismatch {
                expected: self.net.input_dim(),
                got: x.len(),
            });
        }
        self.net.seq_train(x, x)
    }

    /// Restores training plasticity (see [`OsElm::reset_plasticity`]).
    pub fn reset_plasticity(&mut self) -> Result<()> {
        self.net.reset_plasticity()
    }

    /// Anomaly score of `x`: reconstruction error under the chosen metric.
    pub fn score(&mut self, x: &[Real]) -> Result<Real> {
        self.reconstruct_stored(x)?;
        Ok(self.stored_score(x))
    }

    /// Reconstructs `x` into the instance's own buffer, which then holds
    /// `βᵀh` while the network's scratch holds `h` (the state
    /// [`Autoencoder::seq_train_predicted`] reuses).
    pub(crate) fn reconstruct_stored(&mut self, x: &[Real]) -> Result<()> {
        self.net.predict_into(x, &mut self.scratch_recon)
    }

    /// The score of `x` from the stored reconstruction of `x`.
    pub(crate) fn stored_score(&self, x: &[Real]) -> Real {
        let d = x.len() as Real;
        match self.metric {
            ScoreMetric::MeanSquared => vector::dist_l2_sq(&self.scratch_recon, x) / d,
            ScoreMetric::MeanAbsolute => vector::dist_l1(&self.scratch_recon, x) / d,
        }
    }

    /// [`Autoencoder::stored_score`] of two instances in one pass. The two
    /// serial sums are interleaved so their add latencies overlap; each
    /// still starts from `Iterator::sum`'s `-0.0` and adds the same terms
    /// in the same order, so both results are bit-identical to separate
    /// calls.
    pub(crate) fn stored_scores_pair(a: &Autoencoder, b: &Autoencoder, x: &[Real]) -> [Real; 2] {
        let (ma, mb) = (a.metric, b.metric);
        let (mut sa, mut sb): (Real, Real) = (-0.0, -0.0);
        for ((&ra, &rb), &xi) in a.scratch_recon.iter().zip(&b.scratch_recon).zip(x) {
            sa += ma.term(ra - xi);
            sb += mb.term(rb - xi);
        }
        let d = x.len() as Real;
        [sa / d, sb / d]
    }

    /// [`Autoencoder::seq_train`] on the `x` this instance last
    /// reconstructed with [`Autoencoder::reconstruct_stored`], with no
    /// mutation since: reuses that pass's `h` and `βᵀh` (the stored
    /// reconstruction becomes the update's residual).
    pub(crate) fn seq_train_predicted(&mut self, x: &[Real]) -> Result<()> {
        if x.len() != self.net.input_dim() {
            return Err(ModelError::DimensionMismatch {
                expected: self.net.input_dim(),
                got: x.len(),
            });
        }
        self.net.seq_train_predicted(x, x, &mut self.scratch_recon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdrift_linalg::Rng;

    fn blob(n: usize, dim: usize, mean: Real, seed: u64) -> Vec<Vec<Real>> {
        let mut rng = Rng::seed_from(seed);
        (0..n)
            .map(|_| {
                let mut x = vec![0.0; dim];
                rng.fill_normal(&mut x, mean, 0.05);
                x
            })
            .collect()
    }

    /// The paired distance sums start from `Iterator::sum`'s `-0.0` like
    /// the single ones, so even an exact-zero score keeps its bits.
    #[test]
    fn paired_scores_keep_the_bits_of_single_scores_down_to_zero() {
        let mut rng = Rng::seed_from(12);
        let metrics = [ScoreMetric::MeanSquared, ScoreMetric::MeanAbsolute];
        for (ma, mb) in metrics.iter().flat_map(|&a| metrics.map(|b| (a, b))) {
            let cfg = OsElmConfig::new(9, 3);
            let mut a = Autoencoder::new(cfg.clone()).unwrap().with_metric(ma);
            let mut b = Autoencoder::new(cfg).unwrap().with_metric(mb);
            let x = blob(1, 9, 0.5, 13).remove(0);
            let mut recons = [x.clone(), x.clone(), x.clone()];
            // Exact reconstruction (zero terms, signed zeros) and a generic one.
            recons[1].iter_mut().step_by(2).for_each(|v| *v = -0.0);
            rng.fill_normal(&mut recons[2], 0.5, 0.2);
            for (i, ra) in recons.iter().enumerate() {
                for rb in &recons {
                    let x = if i == 1 { vec![0.0; 9] } else { x.clone() };
                    a.scratch_recon.copy_from_slice(ra);
                    b.scratch_recon.copy_from_slice(rb);
                    let pair = Autoencoder::stored_scores_pair(&a, &b, &x);
                    let single = [a.stored_score(&x), b.stored_score(&x)];
                    assert_eq!(pair.map(Real::to_bits), single.map(Real::to_bits));
                }
            }
        }
    }

    #[test]
    fn output_dim_forced_to_input_dim() {
        let ae = Autoencoder::new(OsElmConfig::new(6, 3).with_output_dim(9)).unwrap();
        assert_eq!(ae.network().output_dim(), 6);
        assert_eq!(ae.dim(), 6);
    }

    #[test]
    fn in_distribution_scores_lower_than_out_of_distribution() {
        let train = blob(100, 8, 0.3, 1);
        let mut ae = Autoencoder::new(OsElmConfig::new(8, 5).with_seed(3)).unwrap();
        ae.init_train(&train).unwrap();

        let in_dist = blob(20, 8, 0.3, 2);
        let out_dist = blob(20, 8, 0.9, 3);
        let mean_in: Real = in_dist.iter().map(|x| ae.score(x).unwrap()).sum::<Real>() / 20.0;
        let mean_out: Real = out_dist.iter().map(|x| ae.score(x).unwrap()).sum::<Real>() / 20.0;
        assert!(mean_out > mean_in * 2.0, "in {mean_in} vs out {mean_out}");
    }

    #[test]
    fn score_is_nonnegative() {
        let train = blob(50, 4, 0.5, 5);
        for metric in [ScoreMetric::MeanSquared, ScoreMetric::MeanAbsolute] {
            let mut ae = Autoencoder::new(OsElmConfig::new(4, 3))
                .unwrap()
                .with_metric(metric);
            ae.init_train(&train).unwrap();
            let mut rng = Rng::seed_from(8);
            for _ in 0..50 {
                let mut x = vec![0.0; 4];
                rng.fill_uniform(&mut x, -1.0, 2.0);
                assert!(ae.score(&x).unwrap() >= 0.0);
            }
        }
    }

    #[test]
    fn sequential_training_adapts_to_new_concept() {
        let train = blob(80, 6, 0.2, 11);
        let mut ae = Autoencoder::new(OsElmConfig::new(6, 4).with_seed(7)).unwrap();
        ae.init_train(&train).unwrap();

        let new_concept = blob(300, 6, 0.8, 12);
        let before = ae.score(&new_concept[0]).unwrap();
        for x in &new_concept {
            ae.seq_train(x).unwrap();
        }
        let after = ae.score(&new_concept[0]).unwrap();
        assert!(after < before, "before {before}, after {after}");
    }

    #[test]
    fn untrained_autoencoder_rejects_scoring() {
        let mut ae = Autoencoder::new(OsElmConfig::new(4, 2)).unwrap();
        assert!(matches!(
            ae.score(&[0.0; 4]),
            Err(ModelError::NotInitialized)
        ));
    }

    #[test]
    fn wrong_dimension_rejected() {
        let train = blob(30, 4, 0.5, 13);
        let mut ae = Autoencoder::new(OsElmConfig::new(4, 2)).unwrap();
        ae.init_train(&train).unwrap();
        assert!(matches!(
            ae.seq_train(&[0.0; 5]),
            Err(ModelError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            ae.score(&[0.0; 3]),
            Err(ModelError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn mae_and_mse_agree_on_ordering() {
        let train = blob(60, 5, 0.3, 17);
        let mut mse = Autoencoder::new(OsElmConfig::new(5, 3).with_seed(19)).unwrap();
        let mut mae = Autoencoder::new(OsElmConfig::new(5, 3).with_seed(19))
            .unwrap()
            .with_metric(ScoreMetric::MeanAbsolute);
        mse.init_train(&train).unwrap();
        mae.init_train(&train).unwrap();
        let near = blob(1, 5, 0.3, 20).remove(0);
        let far = blob(1, 5, 1.5, 21).remove(0);
        assert!(mse.score(&far).unwrap() > mse.score(&near).unwrap());
        assert!(mae.score(&far).unwrap() > mae.score(&near).unwrap());
    }
}
