//! ONLAD — the paper's passive-approach baseline (method 5 in §4.2).
//!
//! ONLAD (Tsukada, Kondo & Matsutani, 2020) is OS-ELM with a forgetting
//! mechanism, retraining on *every* incoming sample with no drift detector
//! at all. The forgetting factor `α` geometrically discounts old data so the
//! model follows concept changes — but, as the paper's Figure 4 shows, the
//! factor is hard to tune: too small and the model forgets the concept it is
//! still living in; too large and it cannot keep up with the drift.

use crate::multi_instance::{MultiInstanceModel, Prediction};
use crate::oselm::OsElmConfig;
use crate::Result;
use seqdrift_linalg::Real;

/// Passive online anomaly detector: multi-instance OS-ELM with forgetting,
/// trained on every sample it sees.
#[derive(Debug, Clone)]
pub struct Onlad {
    model: MultiInstanceModel,
    forgetting_rate: Real,
}

impl Onlad {
    /// Builds an ONLAD with `classes` instances. The forgetting factor is
    /// applied on top of `cfg` (paper: 0.97 for NSL-KDD, 0.99 for the fan
    /// dataset).
    pub fn new(classes: usize, cfg: OsElmConfig, forgetting_rate: Real) -> Result<Self> {
        let cfg = cfg.with_forgetting(forgetting_rate);
        Ok(Onlad {
            model: MultiInstanceModel::new(classes, cfg)?,
            forgetting_rate,
        })
    }

    /// The configured forgetting factor.
    pub fn forgetting_rate(&self) -> Real {
        self.forgetting_rate
    }

    /// Underlying multi-instance model.
    pub fn model(&self) -> &MultiInstanceModel {
        &self.model
    }

    /// Mutable access to the underlying model (prediction needs `&mut`
    /// for its internal scratch buffers).
    pub fn model_mut(&mut self) -> &mut MultiInstanceModel {
        &mut self.model
    }

    /// Initially trains the per-class instances.
    pub fn init_train_class(&mut self, label: usize, xs: &[Vec<Real>]) -> Result<()> {
        self.model.init_train_class(label, xs)
    }

    /// Processes one sample: predicts its label, then immediately retrains
    /// the winning instance (the passive approach — "retrained whenever a
    /// new data arrives").
    pub fn process(&mut self, x: &[Real]) -> Result<Prediction> {
        let p = self.model.predict(x)?;
        self.model.seq_train_predicted(&p, p.label, x)?;
        Ok(p)
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

    fn trained(alpha: Real) -> Onlad {
        let mut o = Onlad::new(2, OsElmConfig::new(5, 4).with_seed(31), alpha).unwrap();
        o.init_train_class(0, &blob(60, 5, 0.2, 1)).unwrap();
        o.init_train_class(1, &blob(60, 5, 0.8, 2)).unwrap();
        o
    }

    #[test]
    fn processes_and_trains_every_sample() {
        let mut o = trained(0.97);
        let before: u64 = (0..2)
            .map(|c| o.model().instance(c).unwrap().samples_seen())
            .sum();
        for x in blob(20, 5, 0.2, 3) {
            o.process(&x).unwrap();
        }
        let after: u64 = (0..2)
            .map(|c| o.model().instance(c).unwrap().samples_seen())
            .sum();
        assert_eq!(after - before, 20);
    }

    #[test]
    fn tracks_drifting_concept_without_detector() {
        // Slide class-0's blob from 0.2 to 0.5; ONLAD should keep labelling
        // it as class 0 because the instance follows the moving data.
        let mut o = trained(0.95);
        let mut rng = Rng::seed_from(77);
        let mut correct = 0;
        let steps = 400;
        for i in 0..steps {
            let mean = 0.2 + 0.3 * (i as Real / steps as Real);
            let mut x = vec![0.0; 5];
            rng.fill_normal(&mut x, mean, 0.03);
            if o.process(&x).unwrap().label == 0 {
                correct += 1;
            }
        }
        assert!(
            correct as f64 / steps as f64 > 0.9,
            "tracking accuracy {correct}/{steps}"
        );
    }

    #[test]
    fn forgetting_rate_accessor() {
        let o = trained(0.97);
        assert!((o.forgetting_rate() - 0.97).abs() < 1e-6);
    }

    #[test]
    fn aggressive_forgetting_degrades_on_stationary_data() {
        // The paper's observation: a mistuned (too small) α hurts accuracy
        // even before any drift. Compare stationary-stream accuracy.
        let run = |alpha: Real| -> f64 {
            let mut o = trained(alpha);
            let mut rng = Rng::seed_from(99);
            let mut correct = 0;
            for i in 0..300 {
                let (mean, label) = if i % 2 == 0 { (0.2, 0) } else { (0.8, 1) };
                let mut x = vec![0.0; 5];
                rng.fill_normal(&mut x, mean, 0.05);
                if o.process(&x).unwrap().label == label {
                    correct += 1;
                }
            }
            correct as f64 / 300.0
        };
        let gentle = run(0.999);
        let harsh = run(0.55);
        assert!(
            gentle >= harsh,
            "gentle {gentle} should be >= harsh {harsh}"
        );
    }
}
