//! Synthetic NSL-KDD-like network-intrusion stream.
//!
//! The paper selects the two largest NSL-KDD labels ("normal" and
//! "neptune"), takes 2522 samples for initial training and 22701 for the
//! test stream, and identifies a concept drift at the 8333rd test sample
//! (the train→test distribution shift of NSL-KDD). This module reproduces
//! that *shape* synthetically (see DESIGN.md §3):
//!
//! * 38 numeric features in `[0, 1]` (the paper's OS-ELM uses 38 input
//!   nodes — NSL-KDD's numeric columns after preprocessing);
//! * before the drift, both classes match their training distributions;
//! * at the drift, the attack concept shifts *toward the trained normal
//!   pattern* (an evolved attack evading the old signature) while keeping a
//!   new signature of its own — this is what makes a frozen model
//!   misclassify post-drift traffic and gives drift detection its value,
//!   mirroring Figure 4;
//! * the normal concept also shifts slightly (environmental change).
//!
//! Real NSL-KDD CSVs can be substituted via [`crate::loader`].

use crate::stream::{DriftDataset, Sample};
use crate::synth::ClassConcept;
use seqdrift_linalg::{Real, Rng};

/// Configuration for the synthetic NSL-KDD-like dataset.
#[derive(Debug, Clone)]
pub struct NslKddConfig {
    /// Feature dimensionality (paper: 38).
    pub dim: usize,
    /// Initial training samples (paper: 2522).
    pub n_train: usize,
    /// Test-stream length (paper: 22701).
    pub n_test: usize,
    /// Test index where the concept drift occurs (paper: 8333).
    pub drift_point: usize,
    /// Fraction of "normal" samples in both splits.
    pub normal_fraction: Real,
    /// Per-class observation noise.
    pub noise_std: Real,
    /// Master seed.
    pub seed: u64,
}

impl Default for NslKddConfig {
    fn default() -> Self {
        NslKddConfig {
            dim: 38,
            n_train: 2522,
            n_test: 22701,
            drift_point: 8333,
            normal_fraction: 0.65,
            noise_std: 0.06,
            seed: 0x05E1_4D0D,
        }
    }
}

impl NslKddConfig {
    /// The reduced shape for quick runs and smoke tests: 400 training and
    /// 4,000 test samples with the drift at test sample 1,400; every other
    /// field is the paper default.
    pub fn quick() -> Self {
        NslKddConfig {
            n_train: 400,
            n_test: 4000,
            drift_point: 1400,
            ..NslKddConfig::default()
        }
    }
}

/// Class label of normal traffic.
pub const LABEL_NORMAL: usize = 0;
/// Class label of the attack ("neptune") traffic.
pub const LABEL_NEPTUNE: usize = 1;

/// Number of feature dimensions carrying the attack signature.
const SIGNATURE_DIMS: usize = 20;
/// Dimensions carrying the post-drift attack's *new* signature.
const NEW_SIGNATURE_DIMS: usize = 12;
/// Dimensions (inside the signature region) where the attack's two
/// sub-patterns differ.
const SUB_DIMS: std::ops::Range<usize> = 8..16;
/// Sub-pattern offset magnitude.
const SUB_SHIFT: Real = 0.50;
/// Stream-block length of each sub-pattern burst.
const SUB_BLOCK: usize = 250;

/// Generates the dataset.
pub fn generate(cfg: &NslKddConfig) -> DriftDataset {
    assert!(cfg.dim > NEW_SIGNATURE_DIMS + SIGNATURE_DIMS / 2);
    assert!(cfg.drift_point < cfg.n_test);
    let mut rng = Rng::seed_from(cfg.seed);

    // Pre-drift concepts. The attack differs from normal in the first
    // SIGNATURE_DIMS dimensions and alternates between two sub-patterns in
    // bursts (real attack traffic is multi-modal over time — e.g. bursts
    // from different botnet configurations). The sub-pattern alternation is
    // what exposes ONLAD's forgetting mistuning in Figure 4: with an
    // effective memory of ~1/(1-α) samples, the passive model forgets
    // whichever sub-pattern is currently absent.
    let normal0 = ClassConcept::random_pattern(cfg.dim, 0.25, 0.45, cfg.noise_std, &mut rng);
    let sig_dims: Vec<usize> = (0..SIGNATURE_DIMS).collect();
    let sub_dims: Vec<usize> = SUB_DIMS.collect();
    let neptune0 = normal0.shifted(&sig_dims, 0.30);
    let neptune0b = neptune0.shifted(&sub_dims, SUB_SHIFT);

    // Post-drift concepts: the attack evolves to evade the old signature
    // (collapses most of the way back toward the trained normal pattern in
    // the old signature dimensions) while opening a new, disjoint signature;
    // the normal traffic shifts mildly with the environment.
    let collapse: Vec<usize> = (0..SIGNATURE_DIMS).collect();
    let new_sig: Vec<usize> = (cfg.dim - NEW_SIGNATURE_DIMS..cfg.dim).collect();
    let neptune1 = neptune0.shifted(&collapse, -0.26).shifted(&new_sig, 0.70);
    let env_dims: Vec<usize> = (SIGNATURE_DIMS..SIGNATURE_DIMS + 6).collect();
    let normal1 = normal0.shifted(&env_dims, 0.35);

    let mut label_rng = rng.split();
    // concepts = (normal, attack sub-pattern A, attack sub-pattern B);
    // `idx` is the global stream position driving the sub-pattern bursts.
    let draw = |concepts: (&ClassConcept, &ClassConcept, &ClassConcept),
                idx: usize,
                rng: &mut Rng,
                lr: &mut Rng| {
        let is_normal = lr.uniform() < cfg.normal_fraction;
        let (concept, label) = if is_normal {
            (concepts.0, LABEL_NORMAL)
        } else if (idx / SUB_BLOCK).is_multiple_of(2) {
            (concepts.1, LABEL_NEPTUNE)
        } else {
            (concepts.2, LABEL_NEPTUNE)
        };
        Sample::new(concept.sample(rng), label)
    };

    let mut train = Vec::with_capacity(cfg.n_train);
    for i in 0..cfg.n_train {
        train.push(draw(
            (&normal0, &neptune0, &neptune0b),
            i,
            &mut rng,
            &mut label_rng,
        ));
    }
    // Guarantee both classes appear in training (tiny configs in tests).
    if !train.iter().any(|s| s.label == LABEL_NEPTUNE) {
        train.push(Sample::new(neptune0.sample(&mut rng), LABEL_NEPTUNE));
    }
    if !train.iter().any(|s| s.label == LABEL_NORMAL) {
        train.push(Sample::new(normal0.sample(&mut rng), LABEL_NORMAL));
    }

    let mut test = Vec::with_capacity(cfg.n_test);
    for t in 0..cfg.n_test {
        // After the drift the evolved attack is unimodal — the old botnet
        // variants are gone.
        let concepts = if t < cfg.drift_point {
            (&normal0, &neptune0, &neptune0b)
        } else {
            (&normal1, &neptune1, &neptune1)
        };
        test.push(draw(concepts, cfg.n_train + t, &mut rng, &mut label_rng));
    }

    DriftDataset {
        name: "nsl-kdd-synth".into(),
        train,
        test,
        drift_start: cfg.drift_point,
        drift_end: None,
        classes: 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdrift_linalg::vector;

    fn small() -> NslKddConfig {
        NslKddConfig {
            n_train: 300,
            n_test: 2000,
            drift_point: 800,
            ..NslKddConfig::default()
        }
    }

    fn class_mean(samples: &[&Sample]) -> Vec<Real> {
        let dim = samples[0].x.len();
        let mut m = vec![0.0; dim];
        for s in samples {
            vector::axpy(1.0, &s.x, &mut m);
        }
        vector::scale(1.0 / samples.len() as Real, &mut m);
        m
    }

    #[test]
    fn paper_shape_defaults() {
        let cfg = NslKddConfig::default();
        assert_eq!(cfg.dim, 38);
        assert_eq!(cfg.n_train, 2522);
        assert_eq!(cfg.n_test, 22701);
        assert_eq!(cfg.drift_point, 8333);
    }

    #[test]
    fn generated_dataset_validates() {
        let d = generate(&small());
        d.validate().unwrap();
        assert_eq!(d.train.len(), 300);
        assert_eq!(d.test.len(), 2000);
        assert_eq!(d.dim(), 38);
        assert_eq!(d.classes, 2);
    }

    #[test]
    fn both_classes_present_in_train() {
        let d = generate(&small());
        let normals = d.train.iter().filter(|s| s.label == LABEL_NORMAL).count();
        let attacks = d.train.iter().filter(|s| s.label == LABEL_NEPTUNE).count();
        assert!(normals > 0 && attacks > 0);
        // Mix roughly follows normal_fraction.
        let frac = normals as f64 / d.train.len() as f64;
        assert!((frac - 0.65).abs() < 0.1, "normal fraction {frac}");
    }

    #[test]
    fn pre_drift_test_matches_training_distribution() {
        let d = generate(&small());
        let train_norm: Vec<&Sample> = d.train.iter().filter(|s| s.label == 0).collect();
        let pre_norm: Vec<&Sample> = d.test[..800].iter().filter(|s| s.label == 0).collect();
        let dist = vector::dist_l2(&class_mean(&train_norm), &class_mean(&pre_norm));
        assert!(dist < 0.1, "pre-drift normal mean moved by {dist}");
    }

    #[test]
    fn drift_moves_the_attack_concept() {
        let d = generate(&small());
        let pre: Vec<&Sample> = d.test[..800].iter().filter(|s| s.label == 1).collect();
        let post: Vec<&Sample> = d.test[800..].iter().filter(|s| s.label == 1).collect();
        let dist = vector::dist_l2(&class_mean(&pre), &class_mean(&post));
        assert!(dist > 0.5, "attack concept only moved {dist}");
    }

    #[test]
    fn post_drift_attack_is_closer_to_trained_normal_than_old_attack_in_signature() {
        // The evasion property that degrades a frozen model: in the original
        // signature dimensions the evolved attack looks like normal traffic.
        let d = generate(&small());
        let train_norm: Vec<&Sample> = d.train.iter().filter(|s| s.label == 0).collect();
        let train_att: Vec<&Sample> = d.train.iter().filter(|s| s.label == 1).collect();
        let post_att: Vec<&Sample> = d.test[800..].iter().filter(|s| s.label == 1).collect();
        let mn = class_mean(&train_norm);
        let ma = class_mean(&train_att);
        let mp = class_mean(&post_att);
        let sig = &mp[..SIGNATURE_DIMS];
        let d_to_normal = vector::dist_l2(sig, &mn[..SIGNATURE_DIMS]);
        let d_to_old_attack = vector::dist_l2(sig, &ma[..SIGNATURE_DIMS]);
        assert!(
            d_to_normal < d_to_old_attack,
            "evolved attack signature: to-normal {d_to_normal} vs to-old {d_to_old_attack}"
        );
    }

    #[test]
    fn features_stay_bounded() {
        // Patterns in [0.25, 0.45] plus stacked shifts (signature 0.30,
        // sub-pattern 0.50) and Gaussian noise: everything must stay within
        // a sane bounded envelope for the sigmoid OS-ELM.
        let d = generate(&small());
        for s in d.train.iter().chain(d.test.iter()) {
            for &v in &s.x {
                assert!((-0.5..1.75).contains(&v), "feature {v} far out of range");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(&small());
        let b = generate(&small());
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
        let mut cfg = small();
        cfg.seed += 1;
        let c = generate(&cfg);
        assert_ne!(a.test[0], c.test[0]);
    }
}
