//! Discriminative-model reconstruction — Algorithms 2, 3 and 4.
//!
//! Once a drift is detected the model must re-learn the new concept from
//! the stream itself, with no buffering and (in the unsupervised setting)
//! no labels. Reconstruction runs through four sequential phases driven by
//! a single counter:
//!
//! 1. **Coordinate search** (`count < N_search`, Algorithm 3): incoming
//!    samples compete to become label coordinates; a sample replaces the
//!    coordinate whose replacement maximises the summed pairwise L1
//!    distance between coordinates — the k-means++ "spread the seeds" idea
//!    in sequential form.
//! 2. **Coordinate refinement** (`count < N_update`, Algorithm 4):
//!    sequential k-means — each sample moves its nearest coordinate by a
//!    running mean, washing out outlier seeds.
//! 3. **Distance-labelled retraining** (`count < N/2`): the sample is
//!    labelled by its nearest coordinate and the corresponding OS-ELM
//!    instance trains on it.
//! 4. **Prediction-labelled retraining** (`count < N`): the (partially
//!    retrained) model labels the sample itself and trains the winning
//!    instance — weaning the system off the crude distance labels.
//!
//! Phases 1–2 overlap by construction (a sample in phase 1 also refines).
//! The printed Algorithm 2 has phases 3 and 4 as two non-exclusive `if`s;
//! we treat them as exclusive ranges (`[..N/2)` and `[N/2..N)`) — training
//! each early sample twice with two different labels is clearly not
//! intended.
//!
//! While phases 3–4 run, the per-sample distances to the chosen coordinate
//! feed a Welford accumulator so `θ_drift` is recalibrated (Eq. 1) with no
//! extra memory; at `count == N` reconstruction reports the new trained
//! centroids and threshold.

use crate::centroid::CentroidSet;
use crate::threshold::DriftThresholdCalibrator;
use crate::{CoreError, Result};
use seqdrift_linalg::{vector, Real};
use seqdrift_oselm::multi_instance::Prediction;
use seqdrift_oselm::MultiInstanceModel;

/// Configuration of the reconstruction schedule.
#[derive(Debug, Clone, Copy)]
pub struct ReconstructConfig {
    /// Samples participating in coordinate search (`N_search`).
    pub n_search: usize,
    /// Samples participating in coordinate refinement (`N_update`).
    pub n_update: usize,
    /// Total reconstruction length (`N`).
    pub n_total: usize,
    /// Eq. 1 `z` for the recalibrated `θ_drift`.
    pub z: Real,
    /// After coordinate refinement, reorder the coordinates to best match
    /// the previous trained centroids (minimum-cost assignment) so label
    /// identity survives reconstruction when the new concepts are still
    /// attributable to the old ones. The paper leaves label identity
    /// undefined (its pseudocode can permute or even scramble labels —
    /// Algorithm 3 maximises spread with no notion of identity); downstream
    /// consumers of labels almost always want this on.
    pub align_labels: bool,
}

impl ReconstructConfig {
    /// Schedule derived from the total length: search 10%, refine 25%.
    pub fn new(n_total: usize) -> Self {
        ReconstructConfig {
            n_search: (n_total / 10).max(1),
            n_update: (n_total / 4).max(2),
            n_total,
            z: crate::threshold::DEFAULT_Z,
            align_labels: true,
        }
    }

    /// Disables post-refinement label alignment (raw Algorithms 2–4).
    pub fn without_label_alignment(mut self) -> Self {
        self.align_labels = false;
        self
    }

    /// Overrides the search length.
    pub fn with_search(mut self, n: usize) -> Self {
        self.n_search = n;
        self
    }

    /// Overrides the refinement length.
    pub fn with_update(mut self, n: usize) -> Self {
        self.n_update = n;
        self
    }

    /// Overrides `z`.
    pub fn with_z(mut self, z: Real) -> Self {
        self.z = z;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.n_total < 4 {
            return Err(CoreError::InvalidConfig("n_total must be >= 4"));
        }
        if self.n_search == 0 || self.n_search > self.n_update {
            return Err(CoreError::InvalidConfig("need 0 < n_search <= n_update"));
        }
        if self.n_update > self.n_total / 2 {
            return Err(CoreError::InvalidConfig(
                "n_update must not exceed n_total / 2",
            ));
        }
        Ok(())
    }
}

/// Which phase a reconstruction step executed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconPhase {
    /// Phases 1–2 (coordinate search / refinement).
    Coordinates,
    /// Phase 3 (distance-labelled retraining).
    DistanceLabelled,
    /// Phase 4 (prediction-labelled retraining).
    PredictionLabelled,
}

/// Result of one reconstruction step.
#[derive(Debug, Clone)]
pub enum ReconOutcome {
    /// Reconstruction continues.
    InProgress {
        /// Phase this sample was used in.
        phase: ReconPhase,
        /// Label whose instance was trained, if any.
        trained_label: Option<usize>,
    },
    /// Reconstruction finished with this sample.
    Done {
        /// New trained centroids (with their sample counts).
        new_trained: CentroidSet,
        /// Recalibrated `θ_drift` (Eq. 1 over the retraining distances).
        theta_drift: Real,
    },
}

/// Sequential model reconstructor (Algorithm 2 driver).
#[derive(Debug, Clone)]
pub struct Reconstructor {
    cfg: ReconstructConfig,
    cor: CentroidSet,
    /// Coordinates seeded so far (the first C search samples are placed
    /// directly, one per coordinate, before maximin replacement engages).
    seeded: usize,
    /// Trained centroids in force when reconstruction started (label-
    /// alignment reference).
    previous: CentroidSet,
    count: usize,
    calibrator: DriftThresholdCalibrator,
    active: bool,
}

impl Reconstructor {
    /// Creates an inactive reconstructor for `classes x dim`.
    pub fn new(cfg: ReconstructConfig, classes: usize, dim: usize) -> Result<Self> {
        cfg.validate()?;
        if classes == 0 || dim == 0 {
            return Err(CoreError::InvalidConfig("classes and dim must be > 0"));
        }
        Ok(Reconstructor {
            cfg,
            cor: CentroidSet::zeros(classes, dim),
            previous: CentroidSet::zeros(classes, dim),
            seeded: 0,
            count: 0,
            calibrator: DriftThresholdCalibrator::new(),
            active: false,
        })
    }

    /// The schedule.
    pub fn config(&self) -> &ReconstructConfig {
        &self.cfg
    }

    /// Whether a reconstruction is running.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Samples consumed by the current reconstruction.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Current working coordinates (diagnostics).
    pub fn coordinates(&self) -> &CentroidSet {
        &self.cor
    }

    /// Coordinates seeded so far (persistence).
    pub(crate) fn seeded(&self) -> usize {
        self.seeded
    }

    /// The label-alignment reference (persistence checks it equals the
    /// detector's trained set, which is why it is not written).
    pub(crate) fn previous(&self) -> &CentroidSet {
        &self.previous
    }

    /// The `θ_drift` accumulator of phases 3–4 (persistence).
    pub(crate) fn calibrator(&self) -> &DriftThresholdCalibrator {
        &self.calibrator
    }

    /// An active reconstructor resumed from persisted state: `previous` is
    /// the detector's trained set (it does not change while a
    /// reconstruction runs), the rest is what [`Reconstructor::step`]
    /// accumulated. Rejects state no run of `step` can reach: `count` past
    /// `n_total` (a rejected model update on the last sample leaves
    /// `count == n_total` for one more step), a seeding count other than
    /// `min(count, n_search, classes)`, or a calibrator that did not see
    /// exactly the `count - n_update` phase 3–4 distances.
    pub(crate) fn resume(
        cfg: ReconstructConfig,
        previous: CentroidSet,
        cor: CentroidSet,
        seeded: usize,
        count: usize,
        calibrator: DriftThresholdCalibrator,
    ) -> Result<Self> {
        cfg.validate()?;
        if cor.classes() != previous.classes() || cor.dim() != previous.dim() {
            return Err(CoreError::InvalidConfig(
                "resume: coordinate shape does not match",
            ));
        }
        if count > cfg.n_total {
            return Err(CoreError::InvalidConfig("resume: count past n_total"));
        }
        if seeded != count.min(cfg.n_search).min(cor.classes()) {
            return Err(CoreError::InvalidConfig("resume: seeded count"));
        }
        if calibrator.count() != count.saturating_sub(cfg.n_update) as u64 {
            return Err(CoreError::InvalidConfig("resume: calibrator count"));
        }
        Ok(Reconstructor {
            cfg,
            cor,
            seeded,
            previous,
            count,
            calibrator,
            active: true,
        })
    }

    /// Begins a reconstruction: coordinates seed from *zero* so Algorithm
    /// 3's spread-maximisation acts like true k-means++ seeding (seeding
    /// from the old centroids lets an extreme new sample evict a *middle*
    /// coordinate and strand two coordinates on one cluster), the threshold
    /// calibrator clears, and every model instance's plasticity is restored
    /// so sequential retraining can actually move the weights (see lib.rs
    /// interpretation note 3). The old centroids are retained as the
    /// label-alignment reference.
    pub fn start(&mut self, previous: &CentroidSet, model: &mut MultiInstanceModel) -> Result<()> {
        if previous.classes() != self.cor.classes() || previous.dim() != self.cor.dim() {
            return Err(CoreError::InvalidConfig("previous centroid shape mismatch"));
        }
        self.previous = previous.clone();
        self.cor = CentroidSet::zeros(self.cor.classes(), self.cor.dim());
        self.seeded = 0;
        self.count = 0;
        self.calibrator.reset();
        self.active = true;
        model.reset_plasticity()?;
        Ok(())
    }

    /// Feeds one sample (Algorithm 2 body). Errors if not active.
    ///
    /// `prediction` is `model.predict(x)`, taken right before this call:
    /// phase 4 labels the sample with it, and phases 3 and 4 train through
    /// [`MultiInstanceModel::seq_train_predicted`], so the sample costs one
    /// forward pass.
    pub fn step(
        &mut self,
        model: &mut MultiInstanceModel,
        prediction: &Prediction,
        x: &[Real],
    ) -> Result<ReconOutcome> {
        if !self.active {
            return Err(CoreError::InvalidConfig(
                "reconstructor stepped while inactive",
            ));
        }
        debug_assert!(model.is_current(prediction), "stale prediction");
        if x.len() != self.cor.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: self.cor.dim(),
                got: x.len(),
            });
        }
        self.count += 1;
        let count = self.count;

        if count <= self.cfg.n_search {
            self.init_coord(x);
        }
        let mut phase = ReconPhase::Coordinates;
        let mut trained_label = None;
        if count <= self.cfg.n_update {
            self.update_coord(x)?;
        }
        if count == self.cfg.n_update + 1 && self.cfg.align_labels {
            // Refinement just finished: reorder coordinates onto the old
            // label identities before any instance trains.
            let mapping = self.cor.match_to(&self.previous);
            self.cor = self.cor.permuted(&mapping)?;
        }
        if count > self.cfg.n_update && count <= self.cfg.n_total / 2 {
            // Phase 3: nearest-coordinate label.
            let label = self.cor.nearest_label(x);
            self.calibrator
                .push(vector::dist_l1(self.cor.centroid(label)?, x));
            self.cor.update(label, x)?;
            model.seq_train_predicted(prediction, label, x)?;
            phase = ReconPhase::DistanceLabelled;
            trained_label = Some(label);
        } else if count > self.cfg.n_total / 2 {
            // Phase 4: model-predicted label.
            let label = prediction.label;
            self.calibrator
                .push(vector::dist_l1(self.cor.centroid(label)?, x));
            self.cor.update(label, x)?;
            model.seq_train_predicted(prediction, label, x)?;
            phase = ReconPhase::PredictionLabelled;
            trained_label = Some(label);
        }

        if count >= self.cfg.n_total {
            self.active = false;
            let theta_drift = self.calibrator.threshold(self.cfg.z)?.max(Real::EPSILON);
            return Ok(ReconOutcome::Done {
                new_trained: self.cor.clone(),
                theta_drift,
            });
        }
        Ok(ReconOutcome::InProgress {
            phase,
            trained_label,
        })
    }

    /// Algorithm 3, with two repairs documented in the module docs:
    ///
    /// 1. **Forgy bootstrap** — the first `C` search samples take one
    ///    coordinate each. Coordinates start equal (zero), so the
    ///    dispersion objective is pinned at zero until they differ.
    /// 2. **Maximin objective** — replacement competes on the *minimum*
    ///    pairwise distance instead of the printed sum. The sum objective
    ///    is degenerate beyond two classes: an extreme sample evicts a
    ///    *middle* coordinate (that raises the sum most), stranding two
    ///    coordinates on one cluster, and sequential k-means cannot split
    ///    them apart again. For C <= 2 the objectives coincide (at most
    ///    one pair), so the paper's evaluated configurations are
    ///    unaffected.
    fn init_coord(&mut self, data: &[Real]) {
        if self.seeded < self.cor.classes() {
            self.cor
                .set_centroid(self.seeded, data)
                .expect("shape checked");
            self.seeded += 1;
            return;
        }
        let baseline = self.cor.min_pairwise_distance();
        let classes = self.cor.classes();
        let mut best: Option<(usize, Real)> = None;
        let mut tmp = vec![0.0; self.cor.dim()];
        for c in 0..classes {
            tmp.copy_from_slice(self.cor.centroid(c).expect("label in range"));
            self.cor.set_centroid(c, data).expect("shape checked");
            let dist = self.cor.min_pairwise_distance();
            self.cor.set_centroid(c, &tmp).expect("shape checked");
            let beats_baseline = dist > baseline;
            let beats_best = best.is_none_or(|(_, d)| dist > d);
            if beats_baseline && beats_best {
                best = Some((c, dist));
            }
        }
        if let Some((label, _)) = best {
            self.cor.set_centroid(label, data).expect("shape checked");
        }
    }

    /// Algorithm 4: sequential k-means refinement.
    fn update_coord(&mut self, data: &[Real]) -> Result<()> {
        let label = self.cor.nearest_label(data);
        self.cor.update(label, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdrift_linalg::Rng;
    use seqdrift_oselm::OsElmConfig;

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

    fn trained_model() -> MultiInstanceModel {
        let mut m = MultiInstanceModel::new(2, OsElmConfig::new(4, 3).with_seed(5)).unwrap();
        m.init_train_class(0, &blob(60, 4, 0.2, 1)).unwrap();
        m.init_train_class(1, &blob(60, 4, 0.8, 2)).unwrap();
        m
    }

    /// Predicts `x`, then steps with that prediction (the pipeline's order).
    fn step(r: &mut Reconstructor, m: &mut MultiInstanceModel, x: &[Real]) -> Result<ReconOutcome> {
        let p = m.predict(x)?;
        r.step(m, &p, x)
    }

    fn old_centroids() -> CentroidSet {
        let mut c = CentroidSet::zeros(2, 4);
        c.set_centroid(0, &[0.2; 4]).unwrap();
        c.set_centroid(1, &[0.8; 4]).unwrap();
        c.set_count(0, 60);
        c.set_count(1, 60);
        c
    }

    #[test]
    fn config_validation() {
        assert!(ReconstructConfig::new(100).validate().is_ok());
        assert!(ReconstructConfig::new(2).validate().is_err());
        assert!(ReconstructConfig::new(100)
            .with_search(0)
            .validate()
            .is_err());
        assert!(ReconstructConfig::new(100)
            .with_search(30)
            .with_update(20)
            .validate()
            .is_err());
        assert!(ReconstructConfig::new(100)
            .with_update(60)
            .validate()
            .is_err());
    }

    #[test]
    fn step_before_start_is_an_error() {
        let mut r = Reconstructor::new(ReconstructConfig::new(40), 2, 4).unwrap();
        let mut m = trained_model();
        assert!(step(&mut r, &mut m, &[0.0; 4]).is_err());
    }

    #[test]
    fn runs_exactly_n_total_steps() {
        let mut r = Reconstructor::new(ReconstructConfig::new(40), 2, 4).unwrap();
        let mut m = trained_model();
        r.start(&old_centroids(), &mut m).unwrap();
        let data = blob(40, 4, 0.5, 3);
        let mut done_at = None;
        for (i, x) in data.iter().enumerate() {
            match step(&mut r, &mut m, x).unwrap() {
                ReconOutcome::Done { .. } => {
                    done_at = Some(i);
                    break;
                }
                ReconOutcome::InProgress { .. } => {}
            }
        }
        assert_eq!(done_at, Some(39));
        assert!(!r.is_active());
    }

    #[test]
    fn phases_follow_schedule() {
        let cfg = ReconstructConfig::new(40).with_search(4).with_update(10);
        let mut r = Reconstructor::new(cfg, 2, 4).unwrap();
        let mut m = trained_model();
        r.start(&old_centroids(), &mut m).unwrap();
        let data = blob(40, 4, 0.5, 4);
        let mut phases = Vec::new();
        for x in &data {
            match step(&mut r, &mut m, x).unwrap() {
                ReconOutcome::InProgress { phase, .. } => phases.push(phase),
                ReconOutcome::Done { .. } => {}
            }
        }
        // Samples 1..=10 coordinates, 11..=20 distance-labelled, 21..=39
        // prediction-labelled (40th returns Done).
        assert!(phases[..10].iter().all(|&p| p == ReconPhase::Coordinates));
        assert!(phases[10..20]
            .iter()
            .all(|&p| p == ReconPhase::DistanceLabelled));
        assert!(phases[20..]
            .iter()
            .all(|&p| p == ReconPhase::PredictionLabelled));
    }

    #[test]
    fn recovers_two_new_blobs() {
        // Old concept at 0.2 / 0.8; new concept at 0.0 / 1.0 (swapped-ish
        // positions still near old seeds, so labels stay aligned).
        let cfg = ReconstructConfig::new(200).with_search(20).with_update(50);
        let mut r = Reconstructor::new(cfg, 2, 4).unwrap();
        let mut m = trained_model();
        r.start(&old_centroids(), &mut m).unwrap();
        let mut rng = Rng::seed_from(6);
        let mut outcome = None;
        for i in 0..200 {
            let mean = if i % 2 == 0 { 0.05 } else { 0.95 };
            let mut x = vec![0.0; 4];
            rng.fill_normal(&mut x, mean, 0.04);
            if let ReconOutcome::Done {
                new_trained,
                theta_drift,
            } = step(&mut r, &mut m, &x).unwrap()
            {
                outcome = Some((new_trained, theta_drift));
            }
        }
        let (new_trained, theta_drift) = outcome.expect("reconstruction must finish");
        assert!(theta_drift > 0.0);
        // One centroid near 0.05, the other near 0.95.
        let c0 = new_trained.centroid(0).unwrap()[0];
        let c1 = new_trained.centroid(1).unwrap()[0];
        let (lo, hi) = if c0 < c1 { (c0, c1) } else { (c1, c0) };
        assert!((lo - 0.05).abs() < 0.1, "low centroid {lo}");
        assert!((hi - 0.95).abs() < 0.1, "high centroid {hi}");
        // The retrained model separates the new blobs.
        let mut x_lo = vec![0.05; 4];
        let mut x_hi = vec![0.95; 4];
        rng.fill_normal(&mut x_lo, 0.05, 0.02);
        rng.fill_normal(&mut x_hi, 0.95, 0.02);
        assert_ne!(
            m.predict(&x_lo).unwrap().label,
            m.predict(&x_hi).unwrap().label
        );
    }

    #[test]
    fn init_coord_spreads_seeds() {
        let cfg = ReconstructConfig::new(40).with_search(6).with_update(10);
        let mut r = Reconstructor::new(cfg, 2, 1).unwrap();
        let mut m = MultiInstanceModel::new(2, OsElmConfig::new(1, 2).with_seed(9)).unwrap();
        m.init_train_class(0, &blob(30, 1, 0.4, 11)).unwrap();
        m.init_train_class(1, &blob(30, 1, 0.6, 12)).unwrap();
        let mut prev = CentroidSet::zeros(2, 1);
        prev.set_centroid(0, &[0.4]).unwrap();
        prev.set_centroid(1, &[0.6]).unwrap();
        r.start(&prev, &mut m).unwrap();
        // Extreme points arrive: seeds should spread to cover them.
        step(&mut r, &mut m, &[-3.0]).unwrap();
        step(&mut r, &mut m, &[3.0]).unwrap();
        let spread = r.coordinates().pairwise_distance_sum();
        assert!(spread > 3.0, "seeds not spread: {spread}");
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut r = Reconstructor::new(ReconstructConfig::new(40), 2, 4).unwrap();
        let mut m = trained_model();
        r.start(&old_centroids(), &mut m).unwrap();
        let p = m.predict(&[0.0; 4]).unwrap();
        assert!(matches!(
            r.step(&mut m, &p, &[0.0; 3]),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn restart_after_completion_works() {
        let mut r = Reconstructor::new(ReconstructConfig::new(20), 2, 4).unwrap();
        let mut m = trained_model();
        for round in 0..2 {
            r.start(&old_centroids(), &mut m).unwrap();
            let data = blob(20, 4, 0.5, 100 + round);
            let mut finished = false;
            for x in &data {
                if matches!(step(&mut r, &mut m, x).unwrap(), ReconOutcome::Done { .. }) {
                    finished = true;
                }
            }
            assert!(finished, "round {round} did not finish");
        }
    }
}
