//! The complete online loop of Figure 2: discriminative model + proposed
//! detector + model reconstruction.
//!
//! Per sample:
//!
//! 1. the multi-instance OS-ELM predicts a label and an anomaly score
//!    (Algorithm 1 lines 6–7);
//! 2. if no reconstruction is running, the [`CentroidDetector`] consumes
//!    `(label, x, score)` (lines 8–19) and may flag a drift;
//! 3. on a drift flag the [`Reconstructor`] takes over (line 21,
//!    Algorithm 2) until its schedule completes, after which the detector
//!    is rebased onto the new centroids and recalibrated `θ_drift`.
//!
//! Every step is sequential and allocation-free after construction; total
//! resident state is the model parameters plus two centroid sets.

use crate::centroid::CentroidSet;
use crate::detector::{CentroidDetector, DetectorConfig, DetectorOutcome};
use crate::guard::{GuardConfig, GuardCounters, GuardVerdict, SampleGuard};
use crate::reconstruct::{ReconOutcome, ReconstructConfig, Reconstructor};
use crate::threshold::{calibrate_drift_threshold, calibrate_error_threshold};
use crate::{CoreError, Result};
use seqdrift_linalg::Real;
use seqdrift_oselm::{ModelError, MultiInstanceModel};

/// Pipeline configuration beyond the detector's own.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Detector configuration. `theta_error` / `theta_drift` are treated as
    /// "calibrate for me" when left at their `DetectorConfig::new` defaults.
    pub detector: DetectorConfig,
    /// Reconstruction schedule.
    pub reconstruct: ReconstructConfig,
    /// Quantile of training anomaly scores used to calibrate `θ_error`
    /// when it was not set explicitly.
    pub error_quantile: Real,
    /// Multiplier applied on top of the quantile. `θ_error` must sit
    /// *above* the in-distribution score band — any normal sample that
    /// clears the gate opens a spurious window, inflating `num` and
    /// permanently slowing centroid movement — while staying below true
    /// anomaly scores (typically orders of magnitude higher for an
    /// autoencoder). Default: 3x the training maximum (the training max of a small split underestimates the deployment tail).
    pub error_margin: Real,
    /// Eq. 1 `z` for the initial `θ_drift` calibration.
    pub z: Real,
    /// Whether the closest instance keeps sequentially training on samples
    /// that open no detection window (the discriminative model's normal
    /// online learning from §3.1). The paper's evaluation keeps the model
    /// frozen between reconstructions, so this defaults to `false`.
    pub train_on_stable: bool,
    /// Input-guard policy and thresholds (see [`crate::guard`]).
    pub guard: GuardConfig,
}

impl PipelineConfig {
    /// Defaults around a detector config.
    pub fn new(detector: DetectorConfig) -> Self {
        PipelineConfig {
            reconstruct: ReconstructConfig::new(200),
            error_quantile: 1.0,
            error_margin: 3.0,
            z: crate::threshold::DEFAULT_Z,
            detector,
            train_on_stable: false,
            guard: GuardConfig::default(),
        }
    }

    /// Overrides the reconstruction schedule.
    pub fn with_reconstruct(mut self, r: ReconstructConfig) -> Self {
        self.reconstruct = r;
        self
    }

    /// Overrides the `θ_error` calibration quantile.
    pub fn with_error_quantile(mut self, q: Real) -> Self {
        self.error_quantile = q;
        self
    }

    /// Overrides the multiplier applied on top of the `θ_error` quantile.
    pub fn with_error_margin(mut self, margin: Real) -> Self {
        self.error_margin = margin;
        self
    }

    /// Overrides Eq. 1's `z` for the initial `θ_drift` calibration.
    pub fn with_z(mut self, z: Real) -> Self {
        self.z = z;
        self
    }

    /// Enables continuous training of the closest instance on stable
    /// samples.
    pub fn with_train_on_stable(mut self, yes: bool) -> Self {
        self.train_on_stable = yes;
        self
    }

    /// Overrides the input-guard configuration.
    pub fn with_guard(mut self, guard: GuardConfig) -> Self {
        self.guard = guard;
        self
    }
}

/// Per-sample pipeline output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineOutput {
    /// Predicted class label (always produced).
    pub predicted_label: Option<usize>,
    /// Anomaly score of the winning instance.
    pub score: Real,
    /// True exactly on the sample whose window check flagged a drift.
    pub drift_detected: bool,
    /// True while model reconstruction is consuming samples.
    pub reconstructing: bool,
    /// Drift distance after this sample (diagnostics; the Figure-4-style
    /// traces plot this).
    pub drift_distance: Real,
    /// True when the guard repaired this sample (clamped or imputed) before
    /// processing; the pipeline is degraded until enough clean samples
    /// follow.
    pub sanitized: bool,
}

/// Why a pipeline left the `Healthy` state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The guard rejected or repaired input samples (non-finite, oversized,
    /// stuck or mis-sized readings).
    InputFault,
    /// A sequential model update was rejected and rolled back by the
    /// numerical-health layer.
    NumericalFault,
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DegradeReason::InputFault => "input-fault",
            DegradeReason::NumericalFault => "numerical-fault",
        })
    }
}

/// Health state of a pipeline, driven by the guard and the transactional
/// update layer: `Healthy → Degraded(reason) → Healthy` (the transition
/// back is surfaced as [`PipelineEvent::Recovered`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PipelineHealth {
    /// No recent faults.
    #[default]
    Healthy,
    /// A fault was seen and fewer than `guard.recover_after` clean samples
    /// have been processed since. The reason is the *first* fault of the
    /// current degraded episode.
    Degraded(DegradeReason),
}

/// Events the pipeline logs (drift detections and reconstruction
/// completions) for the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PipelineEvent {
    /// Drift flagged at this 0-based sample index.
    DriftDetected {
        /// Stream index.
        index: u64,
        /// Distance that crossed the threshold.
        dist: Real,
    },
    /// Reconstruction finished at this sample index.
    Reconstructed {
        /// Stream index.
        index: u64,
        /// Recalibrated threshold now in force.
        new_theta_drift: Real,
    },
    /// The pipeline left `Healthy` (first fault of a degraded episode).
    Degraded {
        /// Stream index of the faulting sample.
        index: u64,
        /// What went wrong.
        reason: DegradeReason,
    },
    /// The pipeline returned to `Healthy` after `guard.recover_after`
    /// consecutive clean samples.
    Recovered {
        /// Stream index of the sample that completed recovery.
        index: u64,
    },
}

/// The coupled model + detector + reconstructor.
#[derive(Debug, Clone)]
pub struct DriftPipeline {
    model: MultiInstanceModel,
    detector: CentroidDetector,
    reconstructor: Reconstructor,
    cfg: PipelineConfig,
    samples_processed: u64,
    events: Vec<PipelineEvent>,
    guard: SampleGuard,
    /// Scratch for guard-sanitized samples (reused, never reallocated).
    guard_buf: Vec<Real>,
    health: PipelineHealth,
    /// Consecutive clean samples since the last fault (recovery progress).
    clean_streak: u64,
}

// The pipeline holds plain owned data with no interior mutability, so a
// caught panic cannot leave observable shared state behind — supervisors
// (e.g. the fleet's per-session `catch_unwind` wrapper) discard the
// possibly-half-mutated value and restore from a checkpoint. These impls
// state that policy explicitly instead of scattering `AssertUnwindSafe`
// at every call site.
impl std::panic::UnwindSafe for DriftPipeline {}
impl std::panic::RefUnwindSafe for DriftPipeline {}

impl DriftPipeline {
    /// Builds a pipeline from an initially-trained model and labelled
    /// training data, calibrating whatever thresholds the caller left
    /// unset:
    ///
    /// * trained centroids = per-label means of the training data
    ///   (Figure 3(b));
    /// * `θ_drift` = Eq. 1 over sample-to-predicted-label-centroid
    ///   distances;
    /// * `θ_error` = `error_quantile` of training anomaly scores.
    pub fn calibrate(
        model: MultiInstanceModel,
        detector_cfg: DetectorConfig,
        train: &[(usize, &[Real])],
    ) -> Result<DriftPipeline> {
        Self::calibrate_with(model, detector_cfg, train, None)
    }

    /// [`DriftPipeline::calibrate`] with an explicit pipeline config.
    pub fn calibrate_with(
        mut model: MultiInstanceModel,
        detector_cfg: DetectorConfig,
        train: &[(usize, &[Real])],
        pipeline_cfg: Option<PipelineConfig>,
    ) -> Result<DriftPipeline> {
        let mut cfg = pipeline_cfg.unwrap_or_else(|| PipelineConfig::new(detector_cfg.clone()));
        cfg.detector = detector_cfg;
        if train.is_empty() {
            return Err(CoreError::InvalidConfig("empty calibration data"));
        }
        let classes = cfg.detector.classes;
        let dim = cfg.detector.dim;
        if model.classes() != classes || model.dim() != dim {
            return Err(CoreError::InvalidConfig(
                "model shape does not match detector config",
            ));
        }
        if !model.is_initialized() {
            // Convenience: initially train from the calibration data.
            let grouped: Vec<(usize, Vec<Real>)> =
                train.iter().map(|(l, x)| (*l, x.to_vec())).collect();
            model.init_train_labeled(&grouped)?;
        }

        // Trained centroids from ground-truth training labels.
        let trained = CentroidSet::from_labeled(classes, dim, train)?;

        // Predicted labels + scores over the training set drive both
        // threshold calibrations (Eq. 1 uses the *predicted* label's
        // centroid).
        let mut scores = Vec::with_capacity(train.len());
        let mut predicted: Vec<(usize, &[Real])> = Vec::with_capacity(train.len());
        for (_, x) in train {
            let p = model.predict(x)?;
            scores.push(p.score);
            predicted.push((p.label, x));
        }
        if cfg.detector.theta_drift == Real::INFINITY {
            cfg.detector.theta_drift =
                calibrate_drift_threshold(&trained, &predicted, cfg.detector.metric, cfg.z)?
                    .max(Real::EPSILON);
        }
        if cfg.detector.theta_error == 0.0 {
            cfg.detector.theta_error =
                cfg.error_margin * calibrate_error_threshold(&scores, cfg.error_quantile)?;
        }

        let detector = CentroidDetector::new(cfg.detector.clone(), trained)?;
        let reconstructor = Reconstructor::new(cfg.reconstruct, classes, dim)?;
        let guard = SampleGuard::new(cfg.guard, dim)?;
        Ok(DriftPipeline {
            model,
            detector,
            reconstructor,
            cfg,
            samples_processed: 0,
            events: Vec::new(),
            guard,
            guard_buf: Vec::with_capacity(dim),
            health: PipelineHealth::Healthy,
            clean_streak: 0,
        })
    }

    /// Rebuilds a pipeline from persisted parts (see `crate::persist`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_restored_parts(
        model: MultiInstanceModel,
        detector: CentroidDetector,
        reconstructor: Reconstructor,
        cfg: PipelineConfig,
        samples_processed: u64,
        guard: SampleGuard,
        health: PipelineHealth,
        clean_streak: u64,
    ) -> Result<DriftPipeline> {
        if model.classes() != cfg.detector.classes || model.dim() != cfg.detector.dim {
            return Err(CoreError::InvalidConfig(
                "restore: model shape does not match detector config",
            ));
        }
        let dim = cfg.detector.dim;
        Ok(DriftPipeline {
            model,
            detector,
            reconstructor,
            cfg,
            samples_processed,
            events: Vec::new(),
            guard,
            guard_buf: Vec::with_capacity(dim),
            health,
            clean_streak,
        })
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// The underlying model.
    pub fn model(&self) -> &MultiInstanceModel {
        &self.model
    }

    /// The detector.
    pub fn detector(&self) -> &CentroidDetector {
        &self.detector
    }

    /// Replaces the underlying model with a federated merged model.
    ///
    /// Only the model is swapped: the detector's centroids and
    /// thresholds, guard counters, health state, event log and
    /// `samples_processed` are all untouched, so durable resume offsets
    /// and drift bookkeeping stay valid across the install. Refused while
    /// a reconstruction is consuming samples — reconstruction owns the
    /// model during its schedule, and installing over it would corrupt
    /// the rebuild (callers skip the session and retry next round).
    pub fn install_model(&mut self, model: MultiInstanceModel) -> Result<()> {
        if self.reconstructor.is_active() {
            return Err(CoreError::InvalidConfig(
                "install_model: reconstruction in progress",
            ));
        }
        if model.classes() != self.cfg.detector.classes || model.dim() != self.cfg.detector.dim {
            return Err(CoreError::InvalidConfig(
                "install_model: model shape does not match pipeline config",
            ));
        }
        if !model.is_initialized() {
            return Err(CoreError::InvalidConfig(
                "install_model: model not initially trained",
            ));
        }
        self.model = model;
        Ok(())
    }

    /// Logged events.
    pub fn events(&self) -> &[PipelineEvent] {
        &self.events
    }

    /// Removes and returns all events logged since the last drain (or since
    /// construction). Long-running hosts — the fleet engine in particular —
    /// use this to forward events without letting the internal log grow
    /// unboundedly.
    pub fn drain_events(&mut self) -> Vec<PipelineEvent> {
        std::mem::take(&mut self.events)
    }

    /// Samples processed so far.
    pub fn samples_processed(&self) -> u64 {
        self.samples_processed
    }

    /// Whether a reconstruction is currently consuming samples.
    pub fn is_reconstructing(&self) -> bool {
        self.reconstructor.is_active()
    }

    /// Current health state.
    pub fn health(&self) -> PipelineHealth {
        self.health
    }

    /// Lifetime guard tallies for this pipeline.
    pub fn guard_counters(&self) -> GuardCounters {
        self.guard.counters()
    }

    /// The active guard configuration.
    pub fn guard_config(&self) -> &GuardConfig {
        self.guard.config()
    }

    /// Replaces the guard configuration at runtime (counters, health and
    /// imputation state are kept). Used to apply CLI overrides to a
    /// restored pipeline.
    pub fn set_guard_config(&mut self, guard: GuardConfig) -> Result<()> {
        self.guard.set_config(guard)?;
        self.cfg.guard = guard;
        Ok(())
    }

    /// The reconstructor (persistence).
    pub(crate) fn reconstructor(&self) -> &Reconstructor {
        &self.reconstructor
    }

    /// Recovery progress (persistence).
    pub(crate) fn clean_streak(&self) -> u64 {
        self.clean_streak
    }

    /// Guard imputation source (persistence).
    pub(crate) fn guard_last_good(&self) -> &[Real] {
        self.guard.last_good()
    }

    /// Guard stuck-run reference sample (persistence).
    pub(crate) fn guard_last_raw(&self) -> &[Real] {
        self.guard.last_raw()
    }

    /// Guard stuck-run length (persistence).
    pub(crate) fn guard_run_len(&self) -> u64 {
        self.guard.run_len()
    }

    /// Marks the pipeline degraded; emits the event only on the
    /// `Healthy → Degraded` edge (the first fault of an episode keeps its
    /// reason until recovery).
    fn degrade(&mut self, reason: DegradeReason, index: u64) {
        self.clean_streak = 0;
        if self.health == PipelineHealth::Healthy {
            self.health = PipelineHealth::Degraded(reason);
            self.events.push(PipelineEvent::Degraded { index, reason });
        }
    }

    /// Records a fault-free sample; after `guard.recover_after` of them in
    /// a row a degraded pipeline transitions back to `Healthy`.
    fn note_clean(&mut self, index: u64) {
        if let PipelineHealth::Degraded(_) = self.health {
            self.clean_streak += 1;
            if self.clean_streak >= self.cfg.guard.recover_after {
                self.health = PipelineHealth::Healthy;
                self.clean_streak = 0;
                self.events.push(PipelineEvent::Recovered { index });
            }
        }
    }

    /// Processes one sample through the full loop.
    ///
    /// The sample first passes the input guard (see [`crate::guard`]):
    /// under the default [`crate::GuardPolicy::Reject`] a non-finite,
    /// oversized, mis-sized or stuck sample returns a typed error and
    /// touches *no* state (a single NaN would otherwise poison the running
    /// centroids and silently disable detection forever); under `Clamp` /
    /// `ImputeLast` the sample is repaired and processed with
    /// [`PipelineOutput::sanitized`] set. Sequential model updates rejected
    /// by the numerical-health layer (see
    /// [`seqdrift_oselm::ModelError::RejectedUpdate`]) are swallowed — the
    /// update rolls back, the pipeline degrades and keeps running. Both
    /// fault kinds drive the `Healthy → Degraded → Recovered` machine
    /// surfaced through [`PipelineEvent`]s.
    pub fn process(&mut self, x: &[Real]) -> Result<PipelineOutput> {
        let index = self.samples_processed;
        let mut buf = std::mem::take(&mut self.guard_buf);
        let verdict = match self.guard.admit(x, &mut buf) {
            Ok(v) => v,
            Err(e) => {
                self.guard_buf = buf;
                self.degrade(DegradeReason::InputFault, index);
                return Err(e);
            }
        };
        let sanitized = verdict == GuardVerdict::Sanitized;
        let result = self.process_admitted(if sanitized { &buf } else { x }, index, sanitized);
        self.guard_buf = buf;
        result
    }

    /// The post-guard pipeline loop; `x` is guaranteed finite and in-range.
    fn process_admitted(
        &mut self,
        x: &[Real],
        index: u64,
        sanitized: bool,
    ) -> Result<PipelineOutput> {
        if sanitized {
            self.degrade(DegradeReason::InputFault, index);
        }
        self.samples_processed += 1;
        // Tracks whether anything faulted on this sample, for recovery
        // accounting (a repaired sample never counts as clean).
        let mut faulted = sanitized;

        // Always predict: needed for accuracy reporting and as Algorithm 1
        // lines 6–7 (see lib.rs interpretation note 1). This one prediction
        // also labels reconstruction's phase 4, and every update of this
        // sample reuses its forward pass.
        let prediction = self.model.predict(x)?;

        if self.reconstructor.is_active() {
            let mut reconstructing = true;
            match self.reconstructor.step(&mut self.model, &prediction, x) {
                Ok(ReconOutcome::Done {
                    new_trained,
                    theta_drift,
                }) => {
                    self.detector.rebase(new_trained, theta_drift)?;
                    self.events.push(PipelineEvent::Reconstructed {
                        index,
                        new_theta_drift: theta_drift,
                    });
                    reconstructing = false;
                }
                Ok(_) => {}
                Err(CoreError::Model(ModelError::RejectedUpdate(_))) => {
                    // The instance rolled back; the reconstruction schedule
                    // self-heals one sample later. Degrade and keep going.
                    self.degrade(DegradeReason::NumericalFault, index);
                    faulted = true;
                }
                Err(e) => return Err(e),
            }
            if !faulted {
                self.note_clean(index);
            }
            return Ok(PipelineOutput {
                predicted_label: Some(prediction.label),
                score: prediction.score,
                drift_detected: false,
                reconstructing,
                drift_distance: self.detector.last_distance(),
                sanitized,
            });
        }

        let outcome = self
            .detector
            .observe(prediction.label, x, prediction.score)?;
        let mut drift_detected = false;
        if let DetectorOutcome::Checked { dist, drift: true } = outcome {
            drift_detected = true;
            self.events
                .push(PipelineEvent::DriftDetected { index, dist });
            self.reconstructor
                .start(self.detector.trained_centroids(), &mut self.model)?;
        } else if self.cfg.train_on_stable && outcome == DetectorOutcome::Idle {
            // Optional §3.1 behaviour: keep refining the winning instance
            // on in-distribution samples.
            match self
                .model
                .seq_train_predicted(&prediction, prediction.label, x)
            {
                Ok(()) => {}
                Err(ModelError::RejectedUpdate(_)) => {
                    self.degrade(DegradeReason::NumericalFault, index);
                    faulted = true;
                }
                Err(e) => return Err(e.into()),
            }
        }
        if !faulted {
            self.note_clean(index);
        }

        Ok(PipelineOutput {
            predicted_label: Some(prediction.label),
            score: prediction.score,
            drift_detected,
            reconstructing: self.reconstructor.is_active() && drift_detected,
            drift_distance: self.detector.last_distance(),
            sanitized,
        })
    }

    /// Resident scalars of the detection machinery (model excluded):
    /// detector centroids + reconstructor coordinates. The Table 4
    /// comparison for the proposed method.
    pub fn detector_memory_scalars(&self) -> usize {
        self.detector.memory_scalars() + self.reconstructor.coordinates().memory_scalars()
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

    fn build_pipeline(window: usize) -> (DriftPipeline, Vec<Vec<Real>>, Vec<Vec<Real>>) {
        let dim = 6;
        let class0 = blob(150, dim, 0.2, 1);
        let class1 = blob(150, dim, 0.8, 2);
        let mut model = MultiInstanceModel::new(2, OsElmConfig::new(dim, 4).with_seed(7)).unwrap();
        model.init_train_class(0, &class0).unwrap();
        model.init_train_class(1, &class1).unwrap();
        let train: Vec<(usize, &[Real])> = class0
            .iter()
            .map(|x| (0usize, x.as_slice()))
            .chain(class1.iter().map(|x| (1usize, x.as_slice())))
            .collect();
        let det = DetectorConfig::new(2, dim).with_window(window);
        let cfg = PipelineConfig::new(det.clone()).with_reconstruct(
            crate::ReconstructConfig::new(80)
                .with_search(8)
                .with_update(20),
        );
        let p = DriftPipeline::calibrate_with(model, det, &train, Some(cfg)).unwrap();
        (p, class0, class1)
    }

    #[test]
    fn calibration_sets_thresholds() {
        let (p, _, _) = build_pipeline(20);
        assert!(p.detector().config().theta_drift.is_finite());
        assert!(p.detector().config().theta_drift > 0.0);
        assert!(p.detector().config().theta_error > 0.0);
    }

    #[test]
    fn stable_stream_no_drift_and_accurate() {
        let (mut p, _, _) = build_pipeline(20);
        let mut rng = Rng::seed_from(3);
        let mut correct = 0;
        let n = 400;
        for i in 0..n {
            let (mean, label) = if i % 2 == 0 { (0.2, 0) } else { (0.8, 1) };
            let mut x = vec![0.0; 6];
            rng.fill_normal(&mut x, mean, 0.05);
            let out = p.process(&x).unwrap();
            assert!(!out.drift_detected, "false drift at {i}");
            if out.predicted_label == Some(label) {
                correct += 1;
            }
        }
        assert!(correct > n * 95 / 100, "accuracy {correct}/{n}");
        assert!(p.events().is_empty());
    }

    #[test]
    fn sudden_drift_is_detected_and_model_reconstructed() {
        let (mut p, _, _) = build_pipeline(20);
        let mut rng = Rng::seed_from(4);
        // Stable phase.
        for i in 0..100 {
            let mean = if i % 2 == 0 { 0.2 } else { 0.8 };
            let mut x = vec![0.0; 6];
            rng.fill_normal(&mut x, mean, 0.05);
            p.process(&x).unwrap();
        }
        // Drift: both classes move to new positions.
        let mut detected_at = None;
        let mut reconstructed_at = None;
        for i in 0..600 {
            let mean = if i % 2 == 0 { 0.45 } else { 1.1 };
            let mut x = vec![0.0; 6];
            rng.fill_normal(&mut x, mean, 0.05);
            let out = p.process(&x).unwrap();
            if out.drift_detected && detected_at.is_none() {
                detected_at = Some(i);
            }
        }
        for e in p.events() {
            if let PipelineEvent::Reconstructed { index, .. } = e {
                reconstructed_at = Some(*index);
            }
        }
        let d = detected_at.expect("drift not detected");
        assert!(d < 500, "detection delay {d}");
        let r = reconstructed_at.expect("reconstruction never completed");
        assert!(r as usize > d, "reconstruction before detection");
    }

    #[test]
    fn accuracy_recovers_after_reconstruction() {
        let (mut p, _, _) = build_pipeline(20);
        let mut rng = Rng::seed_from(5);
        for i in 0..100 {
            let mean = if i % 2 == 0 { 0.2 } else { 0.8 };
            let mut x = vec![0.0; 6];
            rng.fill_normal(&mut x, mean, 0.05);
            p.process(&x).unwrap();
        }
        // New concept: classes at 0.5 / 1.4 (class 0 moved more than a
        // window of noise, class 1 clearly elsewhere).
        let mut results: Vec<(usize, Option<usize>)> = Vec::new();
        for i in 0..900 {
            let (mean, label) = if i % 2 == 0 { (0.5, 0) } else { (1.4, 1) };
            let mut x = vec![0.0; 6];
            rng.fill_normal(&mut x, mean, 0.05);
            let out = p.process(&x).unwrap();
            results.push((label, out.predicted_label));
        }
        assert!(
            p.events()
                .iter()
                .any(|e| matches!(e, PipelineEvent::Reconstructed { .. })),
            "no reconstruction happened"
        );
        // Post-recovery accuracy over the last 200 samples, allowing label
        // permutation (reconstruction relabels clusters arbitrarily).
        let tail = &results[700..];
        let direct = tail.iter().filter(|(l, p)| Some(*l) == *p).count();
        let swapped = tail.iter().filter(|(l, p)| Some(1 - *l) == *p).count();
        let best = direct.max(swapped);
        assert!(best > 160, "post-recovery accuracy {best}/200");
    }

    #[test]
    fn events_are_ordered_and_indexed() {
        let (mut p, _, _) = build_pipeline(10);
        let mut rng = Rng::seed_from(6);
        for i in 0..600 {
            let mean = if i < 50 {
                if i % 2 == 0 {
                    0.2
                } else {
                    0.8
                }
            } else if i % 2 == 0 {
                0.5
            } else {
                1.2
            };
            let label = i % 2;
            let _ = label;
            let mut x = vec![0.0; 6];
            rng.fill_normal(&mut x, mean, 0.05);
            p.process(&x).unwrap();
        }
        let mut last = 0;
        for e in p.events() {
            let idx = match e {
                PipelineEvent::DriftDetected { index, .. } => *index,
                PipelineEvent::Reconstructed { index, .. } => *index,
                PipelineEvent::Degraded { index, .. } => *index,
                PipelineEvent::Recovered { index } => *index,
            };
            assert!(idx >= last);
            last = idx;
        }
        assert!(!p.events().is_empty());
    }

    #[test]
    fn detector_memory_is_small_and_constant() {
        let (mut p, _, _) = build_pipeline(20);
        let before = p.detector_memory_scalars();
        let mut rng = Rng::seed_from(7);
        for _ in 0..500 {
            let mut x = vec![0.0; 6];
            rng.fill_normal(&mut x, 0.2, 0.05);
            p.process(&x).unwrap();
        }
        assert_eq!(p.detector_memory_scalars(), before);
        // 3 centroid sets of (2 x 6 + 2) + detector bookkeeping.
        assert!(before < 100);
    }

    #[test]
    fn mismatched_model_rejected() {
        let model = MultiInstanceModel::new(3, OsElmConfig::new(6, 4)).unwrap();
        let det = DetectorConfig::new(2, 6);
        let xs = blob(10, 6, 0.2, 8);
        let train: Vec<(usize, &[Real])> = xs.iter().map(|x| (0usize, x.as_slice())).collect();
        assert!(DriftPipeline::calibrate(model, det, &train).is_err());
    }

    #[test]
    fn non_finite_inputs_are_rejected_and_state_preserved() {
        let (mut p, _, _) = build_pipeline(20);
        let mut rng = Rng::seed_from(99);
        let mut good = vec![0.0; 6];
        rng.fill_normal(&mut good, 0.2, 0.05);
        p.process(&good).unwrap();
        let samples_before = p.samples_processed();
        let dist_before = p.detector().last_distance();

        for bad_value in [Real::NAN, Real::INFINITY, Real::NEG_INFINITY] {
            let mut bad = good.clone();
            bad[3] = bad_value;
            match p.process(&bad) {
                Err(crate::CoreError::NonFiniteInput { feature }) => assert_eq!(feature, 3),
                other => panic!("expected NonFiniteInput, got {other:?}"),
            }
        }
        // The rejected samples must not have touched any state.
        assert_eq!(p.samples_processed(), samples_before);
        assert_eq!(p.detector().last_distance(), dist_before);
        // And the pipeline keeps working afterwards.
        let out = p.process(&good).unwrap();
        assert_eq!(out.predicted_label, Some(0));
    }

    #[test]
    fn rejection_degrades_then_clean_samples_recover() {
        let (mut p, _, _) = build_pipeline(20);
        let mut rng = Rng::seed_from(101);
        let mut good = vec![0.0; 6];
        rng.fill_normal(&mut good, 0.2, 0.05);
        p.process(&good).unwrap();
        assert_eq!(p.health(), PipelineHealth::Healthy);

        let mut bad = good.clone();
        bad[0] = Real::NAN;
        assert!(p.process(&bad).is_err());
        assert_eq!(
            p.health(),
            PipelineHealth::Degraded(DegradeReason::InputFault)
        );
        // A second fault while degraded emits no second event.
        assert!(p.process(&bad).is_err());

        let recover_after = p.guard_config().recover_after;
        let mut recovered_at = None;
        for i in 0..recover_after + 2 {
            let mut x = vec![0.0; 6];
            rng.fill_normal(&mut x, if i % 2 == 0 { 0.2 } else { 0.8 }, 0.05);
            p.process(&x).unwrap();
            if p.health() == PipelineHealth::Healthy && recovered_at.is_none() {
                recovered_at = Some(i);
            }
        }
        assert_eq!(recovered_at, Some(recover_after - 1));
        let degraded: Vec<_> = p
            .events()
            .iter()
            .filter(|e| matches!(e, PipelineEvent::Degraded { .. }))
            .collect();
        let recovered: Vec<_> = p
            .events()
            .iter()
            .filter(|e| matches!(e, PipelineEvent::Recovered { .. }))
            .collect();
        assert_eq!(degraded.len(), 1);
        assert_eq!(recovered.len(), 1);
        assert_eq!(p.guard_counters().rejected, 2);
    }

    #[test]
    fn clamp_policy_sanitizes_and_keeps_processing() {
        let dim = 6;
        let class0 = blob(150, dim, 0.2, 1);
        let class1 = blob(150, dim, 0.8, 2);
        let mut model = MultiInstanceModel::new(2, OsElmConfig::new(dim, 4).with_seed(7)).unwrap();
        model.init_train_class(0, &class0).unwrap();
        model.init_train_class(1, &class1).unwrap();
        let train: Vec<(usize, &[Real])> = class0
            .iter()
            .map(|x| (0usize, x.as_slice()))
            .chain(class1.iter().map(|x| (1usize, x.as_slice())))
            .collect();
        let det = DetectorConfig::new(2, dim).with_window(20);
        let cfg = PipelineConfig::new(det.clone())
            .with_guard(crate::GuardConfig::new().with_policy(crate::GuardPolicy::Clamp));
        let mut p = DriftPipeline::calibrate_with(model, det, &train, Some(cfg)).unwrap();

        let bad = [Real::NAN, Real::INFINITY, 0.2, 0.2, 0.2, 0.2];
        let out = p.process(&bad).unwrap();
        assert!(out.sanitized);
        assert!(out.score.is_finite());
        assert!(out.drift_distance.is_finite());
        assert_eq!(p.samples_processed(), 1);
        assert_eq!(p.guard_counters().sanitized, 1);
        assert_eq!(
            p.health(),
            PipelineHealth::Degraded(DegradeReason::InputFault)
        );
    }

    #[test]
    fn guard_config_survives_override_on_live_pipeline() {
        let (mut p, _, _) = build_pipeline(20);
        let cfg = crate::GuardConfig::new()
            .with_policy(crate::GuardPolicy::ImputeLast)
            .with_stuck_threshold(5);
        p.set_guard_config(cfg).unwrap();
        assert_eq!(p.guard_config().policy, crate::GuardPolicy::ImputeLast);
        assert_eq!(p.config().guard.stuck_threshold, 5);
        assert!(p
            .set_guard_config(crate::GuardConfig::new().with_magnitude_limit(-1.0))
            .is_err());
    }

    #[test]
    fn install_model_swaps_model_and_keeps_bookkeeping() {
        let (mut p, class0, _) = build_pipeline(20);
        for x in class0.iter().take(30) {
            p.process(x).unwrap();
        }
        let seen = p.samples_processed();
        // A compatible replacement: the same model, further adapted.
        let mut replacement = p.model().clone();
        for x in class0.iter().take(50) {
            replacement.seq_train_label(0, x).unwrap();
        }
        let expect_seen = replacement.instance(0).unwrap().samples_seen();
        p.install_model(replacement).unwrap();
        assert_eq!(p.samples_processed(), seen);
        assert_eq!(p.model().instance(0).unwrap().samples_seen(), expect_seen);
        // Pipeline still processes normally with the installed model.
        p.process(&class0[0]).unwrap();
        assert_eq!(p.samples_processed(), seen + 1);
    }

    #[test]
    fn install_model_rejects_incompatible_or_midreconstruction() {
        let (mut p, _, _) = build_pipeline(10);
        // Wrong shape: single-class model into a two-class pipeline.
        let mut small = MultiInstanceModel::new(1, OsElmConfig::new(6, 4).with_seed(7)).unwrap();
        small.init_train_class(0, &blob(60, 6, 0.2, 31)).unwrap();
        assert!(matches!(
            p.install_model(small),
            Err(CoreError::InvalidConfig(_))
        ));
        // Uninitialised model.
        let raw = MultiInstanceModel::new(2, OsElmConfig::new(6, 4).with_seed(7)).unwrap();
        assert!(matches!(
            p.install_model(raw),
            Err(CoreError::InvalidConfig(_))
        ));
        // Drive the pipeline into reconstruction, then refuse the install.
        let good = p.model().clone();
        let drifted = blob(400, 6, 0.5, 32);
        let mut i = 0;
        while !p.is_reconstructing() && i < drifted.len() {
            p.process(&drifted[i]).unwrap();
            i += 1;
        }
        assert!(p.is_reconstructing(), "drift stream never opened a window");
        assert!(matches!(
            p.install_model(good),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn train_on_stable_keeps_adapting() {
        let dim = 4;
        let class0 = blob(100, dim, 0.3, 10);
        let mut model = MultiInstanceModel::new(1, OsElmConfig::new(dim, 3).with_seed(11)).unwrap();
        model.init_train_class(0, &class0).unwrap();
        let train: Vec<(usize, &[Real])> = class0.iter().map(|x| (0usize, x.as_slice())).collect();
        let det = DetectorConfig::new(1, dim).with_window(50);
        let cfg = PipelineConfig::new(det.clone()).with_train_on_stable(true);
        let mut p = DriftPipeline::calibrate_with(model, det, &train, Some(cfg)).unwrap();
        let seen_before = p.model().instance(0).unwrap().samples_seen();
        let mut rng = Rng::seed_from(12);
        for _ in 0..50 {
            let mut x = vec![0.0; dim];
            rng.fill_normal(&mut x, 0.3, 0.02);
            p.process(&x).unwrap();
        }
        assert!(p.model().instance(0).unwrap().samples_seen() > seen_before);
    }
}
