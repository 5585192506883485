#![warn(missing_docs)]

//! # seqdrift-baselines
//!
//! The concept-drift detectors the paper compares against, plus the
//! clustering substrates they need — all implemented from scratch:
//!
//! * [`quanttree`] — Quant Tree (Boracchi et al., ICML 2018): histogram
//!   change detection with a distribution-free Monte-Carlo threshold.
//!   Batch-based; the paper's method 3.
//! * [`spll`] — SPLL (Kuncheva, TKDE 2013): semi-parametric log-likelihood
//!   change detection over a k-means/GMM model. Batch-based; method 4.
//! * [`ddm`] / [`adwin`] — the error-rate-based family discussed in §2.2.2
//!   (DDM, Gama et al. 2004; ADWIN, Bifet & Gavaldà 2007). These need
//!   labelled data, which is why the paper rules them out for edge devices;
//!   they are provided for completeness and used in the extension ablations.
//! * [`page_hinkley`] — the classic sequential change detector on a
//!   univariate statistic; the residual test inside [`ar`].
//! * [`ar`] — AR(p)-residual detector (cf. arXiv 2203.04769): least-squares
//!   autoregressive fit on a rolling window with Page–Hinkley on the
//!   one-step-ahead residuals; the modern lightweight baseline row.
//! * [`kmeans`] — Lloyd's algorithm with k-means++ seeding; substrate for
//!   SPLL and for unsupervised labelling of initial training data (§3.2).
//! * [`gmm`] — diagonal-covariance Gaussian mixture estimation used by SPLL.
//!
//! ## Detector interfaces
//!
//! Batch detectors ([`BatchDriftDetector`]) buffer `batch_size` samples and
//! emit one verdict per full batch — this buffering is exactly the memory
//! cost the paper's Table 4 charges them for, and
//! [`BatchDriftDetector::memory_scalars`] reports it. Streaming detectors
//! ([`ErrorRateDetector`]) consume one boolean prediction-error per sample.
//!
//! ```
//! use seqdrift_baselines::quanttree::{QuantTree, QuantTreeConfig};
//! use seqdrift_baselines::{BatchDriftDetector, BatchVerdict};
//! use seqdrift_linalg::{Real, Rng};
//!
//! let mut rng = Rng::seed_from(1);
//! let train: Vec<Vec<Real>> = (0..300).map(|_| {
//!     let mut x = vec![0.0; 4];
//!     rng.fill_uniform(&mut x, 0.0, 1.0);
//!     x
//! }).collect();
//! let cfg = QuantTreeConfig { bins: 8, batch_size: 64, alpha: 0.01, mc_reps: 200, seed: 2 };
//! let mut qt = QuantTree::fit(&train, &cfg);
//!
//! // A shifted batch triggers a drift verdict when it completes.
//! let mut verdict = BatchVerdict::Pending;
//! for _ in 0..64 {
//!     let mut x = vec![0.0; 4];
//!     rng.fill_uniform(&mut x, 0.6, 1.6);
//!     verdict = qt.push(&x);
//! }
//! assert_eq!(verdict, BatchVerdict::Drift);
//! ```

pub mod adwin;
pub mod ar;
pub mod ddm;
pub mod gmm;
pub mod kmeans;
pub mod page_hinkley;
pub mod quanttree;
pub mod spll;

pub use adwin::Adwin;
pub use ar::{ArResidual, ArResidualConfig};
pub use ddm::Ddm;
pub use gmm::DiagonalGmm;
pub use kmeans::KMeans;
pub use page_hinkley::PageHinkley;
pub use quanttree::QuantTree;
pub use spll::Spll;

use seqdrift_linalg::Real;

/// Outcome of feeding one sample to a batch detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchVerdict {
    /// The batch buffer is still filling.
    Pending,
    /// A full batch was evaluated: no drift.
    NoDrift,
    /// A full batch was evaluated: drift detected.
    Drift,
}

/// A distribution-based detector that evaluates fixed-size batches
/// (Quant Tree, SPLL).
pub trait BatchDriftDetector {
    /// Number of samples buffered before each evaluation.
    fn batch_size(&self) -> usize;

    /// Feeds one sample; returns `Drift`/`NoDrift` when this sample
    /// completes a batch, `Pending` otherwise.
    fn push(&mut self, x: &[Real]) -> BatchVerdict;

    /// Clears the partially-filled batch buffer (used after a detected
    /// drift once the model is rebuilt).
    fn reset_window(&mut self);

    /// Number of `Real` scalars this detector keeps resident — the batch
    /// buffer plus model state. Drives the Table 4 memory comparison.
    fn memory_scalars(&self) -> usize;
}

/// A streaming detector over a binary error signal (DDM-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorRateVerdict {
    /// In-control: keep using the current model.
    Stable,
    /// Error rate elevated: start preparing a replacement model.
    Warning,
    /// Drift confirmed: replace the model.
    Drift,
}

/// A detector consuming one prediction-error bit per sample.
pub trait ErrorRateDetector {
    /// Feeds one observation (`true` = the model misclassified the sample).
    fn push(&mut self, error: bool) -> ErrorRateVerdict;

    /// Resets all internal statistics (after model replacement).
    fn reset(&mut self);
}
