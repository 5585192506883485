#![warn(missing_docs)]

//! # seqdrift-linalg
//!
//! Allocation-conscious dense linear algebra, deterministic RNG, and
//! streaming statistics kernels used by every other crate in the `seqdrift`
//! workspace.
//!
//! The paper this workspace reproduces runs its arithmetic on a Raspberry Pi
//! Pico (Cortex-M0+, 264 kB RAM), where no BLAS is available and heap
//! allocation inside the per-sample loop is unaffordable. This crate
//! therefore provides:
//!
//! * [`Matrix`] — a heap-backed, row-major dense matrix with `*_into`
//!   variants of every hot kernel so per-sample loops can run with zero
//!   allocations after setup;
//! * [`fixed`] — `const`-generic stack matrices/vectors mirroring what the
//!   MCU firmware would use, with no heap at all;
//! * [`solve`] / [`cholesky`] — LU and Cholesky factorisations for the
//!   one-off OS-ELM initialisation solve;
//! * [`sherman`] — the Sherman–Morrison rank-1 inverse update that makes
//!   batch-size-1 OS-ELM training O(H²) per sample;
//! * [`rng`] — a dependency-free xoshiro256++ generator (seedable,
//!   reproducible across platforms) with uniform/normal helpers;
//! * [`stats`] — Welford accumulators, quantiles and a chi-square statistic used by the
//!   detectors and threshold calibration.
//!
//! The scalar type is [`Real`] (`f32` by default, matching the MCU firmware;
//! enable the `f64` feature for double precision on hosts).

pub mod cholesky;
pub mod fixed;
pub mod matrix;
pub mod rng;
pub mod robust;
pub mod sherman;
pub mod solve;
pub mod stats;
pub mod vector;
pub mod wire;

pub use matrix::Matrix;
pub use rng::Rng;

/// Scalar type used across the workspace.
///
/// `f32` by default: the paper's target device (Cortex-M0+) has no double
/// precision hardware and its firmware stores all model state in `f32`.
#[cfg(not(feature = "f64"))]
pub type Real = f32;
/// Scalar type used across the workspace (double-precision build).
#[cfg(feature = "f64")]
pub type Real = f64;

/// Errors produced by linear-algebra kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// The matrix is singular (or numerically so) and cannot be factorised.
    Singular,
    /// The matrix is not positive definite (Cholesky only).
    NotPositiveDefinite,
    /// An argument was out of its legal domain (e.g. empty input).
    InvalidArgument(&'static str),
    /// A kernel produced a NaN/Inf entry; the result is unusable and the
    /// in-place operand may be left corrupted (callers needing transactional
    /// behaviour must keep their own backup).
    NonFiniteResult,
}

impl core::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs {}x{}, rhs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::Singular => write!(f, "matrix is singular"),
            LinalgError::NotPositiveDefinite => write!(f, "matrix is not positive definite"),
            LinalgError::InvalidArgument(what) => write!(f, "invalid argument: {what}"),
            LinalgError::NonFiniteResult => write!(f, "kernel produced a non-finite result"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience result alias for this crate.
pub type Result<T> = core::result::Result<T, LinalgError>;
