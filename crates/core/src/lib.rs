#![warn(missing_docs)]

//! # seqdrift-core
//!
//! The paper's primary contribution: a **fully sequential concept-drift
//! detection method** that pairs with on-device OS-ELM learning so both
//! detection and retraining run in O(1) memory per sample.
//!
//! * [`centroid`] — per-label centroid sets with the sequential
//!   running-mean update of Algorithm 1 line 12 / Algorithm 4;
//! * [`detector`] — the Algorithm 1 state machine
//!   ([`detector::CentroidDetector`]): anomaly-gated windows, sequential
//!   centroid tracking, L1 drift distance against calibrated `θ_drift`;
//! * [`threshold`] — Eq. 1 calibration of `θ_drift` (`μ + z·σ` of
//!   train-sample-to-centroid distances) and quantile calibration of
//!   `θ_error`;
//! * [`reconstruct`] — Algorithms 2–4: k-means++-inspired coordinate
//!   initialisation, sequential coordinate refinement, and two-phase
//!   sequential model retraining;
//! * [`pipeline`] — [`pipeline::DriftPipeline`] wires a
//!   `MultiInstanceModel`, the detector, and the reconstructor into the
//!   complete online loop of Figure 2.
//!
//! ## Standalone detector example
//!
//! The detector works with any model that yields `(label, score)` pairs —
//! here driven directly, without the pipeline:
//!
//! ```
//! use seqdrift_core::centroid::CentroidSet;
//! use seqdrift_core::{CentroidDetector, DetectorConfig, DetectorOutcome};
//!
//! // One class in 2-D, trained centroid at the origin, 50 training samples.
//! let mut trained = CentroidSet::zeros(1, 2);
//! trained.set_centroid(0, &[0.0, 0.0]).unwrap();
//! trained.set_count(0, 50);
//!
//! let cfg = DetectorConfig::new(1, 2)
//!     .with_window(10)
//!     .with_theta_error(0.0)   // no gating in this toy
//!     .with_theta_drift(0.5);  // normally calibrated via Eq. 1
//! let mut det = CentroidDetector::new(cfg, trained).unwrap();
//!
//! // The concept moves to (2, 2): within two windows the accumulated
//! // centroid displacement crosses the threshold.
//! let mut drift_at = None;
//! for i in 0..40 {
//!     if let DetectorOutcome::Checked { drift: true, .. } =
//!         det.observe(0, &[2.0, 2.0], 1.0).unwrap()
//!     {
//!         drift_at = Some(i);
//!         break;
//!     }
//! }
//! assert_eq!(drift_at, Some(9)); // first window close
//! ```
//!
//! ## Interpretation notes (where the pseudocode under-specifies)
//!
//! 1. Algorithm 1 as printed skips label prediction while a detection
//!    window is open (lines 6–7 run only when `check = False`). Prediction
//!    is needed every sample anyway — for the accuracy curves of Figure 4
//!    and for choosing which centroid to update — so this implementation
//!    predicts every sample and updates the centroid of *each sample's own*
//!    predicted label.
//! 2. `cor`/`num` persist across windows (they are inputs to Algorithm 1,
//!    not reset in it). Detection therefore triggers once the *accumulated*
//!    centroid displacement crosses `θ_drift`, which is why the paper's
//!    observed delays (843–1263 samples) exceed the window size.
//! 3. During reconstruction, each OS-ELM instance's covariance `P` is reset
//!    to `(1/λ)·I` (its regularised fresh state) while `β` is kept as a warm
//!    start: after thousands of sequential updates `P` has contracted so far
//!    that new-concept data would barely move the model, and the paper's
//!    reconstruction is explicitly meant to *replace* the old concept.
//!    `θ_drift` is recalibrated from the distances observed during
//!    reconstruction phases 3–4 (sequentially, via Welford — no buffering).

pub mod centroid;
pub mod detector;
pub mod guard;
pub mod persist;
pub mod pipeline;
pub mod reconstruct;
pub mod threshold;

pub use centroid::CentroidSet;
pub use detector::{CentroidDetector, DetectorConfig, DetectorOutcome, DistanceMetric};
pub use guard::{GuardConfig, GuardCounters, GuardPolicy};
pub use pipeline::{DegradeReason, DriftPipeline, PipelineConfig, PipelineHealth, PipelineOutput};
pub use reconstruct::{ReconstructConfig, Reconstructor};

use seqdrift_oselm::ModelError;

/// Errors from the detection pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Underlying model failure.
    Model(ModelError),
    /// Invalid configuration.
    InvalidConfig(&'static str),
    /// Input dimensionality mismatch.
    DimensionMismatch {
        /// Expected dimension.
        expected: usize,
        /// Provided dimension.
        got: usize,
    },
    /// Label out of range.
    BadLabel {
        /// Number of classes.
        classes: usize,
        /// Offending label.
        label: usize,
    },
    /// An input sample contained NaN or infinity. Such values would poison
    /// the running centroids permanently (a single NaN makes every later
    /// distance NaN, silently disabling detection), so the pipeline rejects
    /// them at the boundary — a faulty sensor should surface as an error,
    /// not as a detector that quietly stops working.
    NonFiniteInput {
        /// Index of the offending feature.
        feature: usize,
    },
    /// An input feature is finite but exceeds the guard's magnitude limit.
    /// Squaring such a value (reconstruction error, Welford variance)
    /// overflows `f32` to infinity, so the guard treats it like a
    /// non-finite reading.
    OversizedInput {
        /// Index of the offending feature.
        feature: usize,
    },
    /// The same raw sample arrived more than `stuck_threshold` times in a
    /// row — the signature of a stuck sensor. Feeding the repeats onward
    /// would silently bias the running centroids toward the frozen value.
    StuckSensor {
        /// Length of the identical-sample run, including this sample.
        run: u64,
    },
}

impl From<ModelError> for CoreError {
    fn from(e: ModelError) -> Self {
        CoreError::Model(e)
    }
}

impl core::fmt::Display for CoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CoreError::Model(e) => write!(f, "model error: {e}"),
            CoreError::InvalidConfig(what) => write!(f, "invalid config: {what}"),
            CoreError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            CoreError::BadLabel { classes, label } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            CoreError::NonFiniteInput { feature } => {
                write!(f, "input feature {feature} is NaN or infinite")
            }
            CoreError::OversizedInput { feature } => {
                write!(
                    f,
                    "input feature {feature} exceeds the guard magnitude limit"
                )
            }
            CoreError::StuckSensor { run } => {
                write!(f, "stuck sensor: {run} identical consecutive samples")
            }
        }
    }
}

impl std::error::Error for CoreError {}

/// Result alias for this crate.
pub type Result<T> = core::result::Result<T, CoreError>;
