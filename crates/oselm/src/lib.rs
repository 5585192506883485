#![warn(missing_docs)]

//! # seqdrift-oselm
//!
//! Online Sequential Extreme Learning Machine (OS-ELM, Liang et al. 2006)
//! and the model architecture the paper builds on it:
//!
//! * [`oselm::OsElm`] — a 3-layer network whose input weights are random and
//!   fixed; only the output weights `β` are trained. Initial training solves
//!   a regularised least-squares problem once; afterwards every new sample
//!   updates `β` with a Sherman–Morrison rank-1 step (O(H²), no inversion,
//!   no stored samples) — the property that makes on-device retraining
//!   feasible on a 264 kB MCU.
//! * [`oselm::OsElmConfig::with_forgetting`] — the ONLAD forgetting
//!   mechanism (Tsukada et al. 2020): old knowledge decays geometrically
//!   with factor `α < 1` so the model tracks non-stationary data without
//!   drift detection (the paper's passive baseline).
//! * [`autoencoder::Autoencoder`] — an OS-ELM trained to reconstruct its
//!   input; the reconstruction error is the anomaly score.
//! * [`multi_instance::MultiInstanceModel`] — one autoencoder per class
//!   label; prediction is the label of the instance with the smallest
//!   anomaly score, sequential training updates the closest instance
//!   (Section 3.1 of the paper).
//!
//! ```
//! use seqdrift_oselm::{Autoencoder, OsElmConfig};
//! use seqdrift_linalg::{Real, Rng};
//!
//! // Train an autoencoder on one "normal" pattern...
//! let mut rng = Rng::seed_from(1);
//! let normal: Vec<Vec<Real>> = (0..80).map(|_| {
//!     let mut x = vec![0.0; 8];
//!     rng.fill_normal(&mut x, 0.3, 0.05);
//!     x
//! }).collect();
//! let mut ae = Autoencoder::new(OsElmConfig::new(8, 4).with_seed(7)).unwrap();
//! ae.init_train(&normal).unwrap();
//!
//! // ...in-distribution samples score low, anomalies score high.
//! let in_dist = ae.score(&normal[0]).unwrap();
//! let anomaly = ae.score(&vec![0.9; 8]).unwrap();
//! assert!(anomaly > 10.0 * in_dist);
//!
//! // Sequential training keeps adapting, one sample at a time.
//! ae.seq_train(&normal[1]).unwrap();
//! ```

pub mod activation;
pub mod autoencoder;
pub mod multi_instance;
pub mod onlad;
pub mod oselm;
pub mod persist;
#[cfg(test)]
mod same_bits;

pub use activation::Activation;
pub use autoencoder::Autoencoder;
pub use multi_instance::MultiInstanceModel;
pub use onlad::Onlad;
pub use oselm::{OsElm, OsElmConfig};

use seqdrift_linalg::LinalgError;

/// Errors produced by model construction and training.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A linear-algebra kernel failed (singular Gram matrix, shape bug...).
    Linalg(LinalgError),
    /// Configuration is invalid (zero dimensions, bad forgetting factor...).
    InvalidConfig(&'static str),
    /// Input sample has the wrong dimensionality.
    DimensionMismatch {
        /// Dimension the model expects.
        expected: usize,
        /// Dimension the caller provided.
        got: usize,
    },
    /// Operation requires an initially-trained model.
    NotInitialized,
    /// A class label index is out of range.
    BadLabel {
        /// Number of classes in the model.
        classes: usize,
        /// Offending label.
        label: usize,
    },
    /// Initial training needs enough samples to keep the (regularised) Gram
    /// matrix well conditioned.
    TooFewSamples {
        /// Samples provided.
        got: usize,
        /// Minimum required.
        need: usize,
    },
    /// A sequential update produced numerically unusable state (non-finite
    /// `P`/`β` or a `P`-trace blow-up) and was rolled back; the model is
    /// unchanged and stays usable.
    RejectedUpdate(&'static str),
}

impl From<LinalgError> for ModelError {
    fn from(e: LinalgError) -> Self {
        ModelError::Linalg(e)
    }
}

impl core::fmt::Display for ModelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ModelError::Linalg(e) => write!(f, "linalg error: {e}"),
            ModelError::InvalidConfig(what) => write!(f, "invalid config: {what}"),
            ModelError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            ModelError::NotInitialized => write!(f, "model not initially trained"),
            ModelError::BadLabel { classes, label } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            ModelError::TooFewSamples { got, need } => {
                write!(f, "initial training needs >= {need} samples, got {got}")
            }
            ModelError::RejectedUpdate(why) => {
                write!(f, "sequential update rejected and rolled back: {why}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Result alias for this crate.
pub type Result<T> = core::result::Result<T, ModelError>;
