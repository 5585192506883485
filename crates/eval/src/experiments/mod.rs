//! One module per paper artefact. Each returns [`crate::report::Table`]s
//! that the `repro` binary prints and writes under `results/`.
//!
//! | id | artefact | module |
//! |----|----------|--------|
//! | `fig1` | Figure 1: four drift types | [`fig1`] |
//! | `fig4` | Figure 4: accuracy over time on NSL-KDD | [`fig4`] |
//! | `table2` | Accuracy + delay on NSL-KDD | [`table2`] |
//! | `table3` | Window size vs delay on the fan dataset | [`table3`] |
//! | `table4` | Memory utilisation | [`table4`] |
//! | `table5` | Execution time, 700 fan samples | [`table5`] |
//! | `table6` | Per-sample execution breakdown | [`table6`] |
//! | `ablation-*` | extension ablations | [`ablations`] |

pub mod ablations;
pub mod fig1;
pub mod fig4;
pub mod sweep_exp;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;

use seqdrift_datasets::fan::{self, Environment, FanConfig, FanScenario};
use seqdrift_datasets::nslkdd::{self, NslKddConfig};
use seqdrift_datasets::DriftDataset;

/// Experiment scale: `Full` reproduces the paper's sample counts; `Quick`
/// shrinks streams for CI / smoke testing while keeping every code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale streams (NSL-KDD: 22701 test samples).
    Full,
    /// Reduced streams for fast runs.
    Quick,
}

/// The NSL-KDD-like dataset at the requested scale.
pub fn nslkdd_dataset(scale: Scale) -> DriftDataset {
    let cfg = match scale {
        Scale::Full => NslKddConfig::default(),
        Scale::Quick => NslKddConfig::quick(),
    };
    nslkdd::generate(&cfg)
}

/// A fan-scenario dataset. The fan streams are already Table-5-sized (700
/// samples), so there is one size for every [`Scale`]: the default
/// 60-sample training split (see `FanConfig`).
pub fn fan_dataset(scenario: FanScenario) -> DriftDataset {
    fan::generate(&FanConfig::default(), scenario, Environment::Silent)
}

/// Paper hyper-parameters for NSL-KDD (§4.2): QT batch 480 / 32 bins,
/// SPLL batch 480, ONLAD forgetting 0.97, hidden 22.
pub mod nslkdd_params {
    /// Quant Tree batch size.
    pub const QT_BATCH: usize = 480;
    /// Quant Tree histogram count.
    pub const QT_BINS: usize = 32;
    /// SPLL batch size.
    pub const SPLL_BATCH: usize = 480;
    /// ONLAD forgetting rate.
    pub const ONLAD_FORGET: f32 = 0.97;
    /// OS-ELM hidden nodes.
    pub const HIDDEN: usize = 22;
}

/// Paper hyper-parameters for the fan dataset (§4.2): QT batch 235 / 16
/// bins, SPLL batch 235, ONLAD forgetting 0.99, hidden 22.
pub mod fan_params {
    /// Quant Tree batch size.
    pub const QT_BATCH: usize = 235;
    /// Quant Tree histogram count.
    pub const QT_BINS: usize = 16;
    /// SPLL batch size.
    pub const SPLL_BATCH: usize = 235;
    /// ONLAD forgetting rate.
    pub const ONLAD_FORGET: f32 = 0.99;
    /// OS-ELM hidden nodes.
    pub const HIDDEN: usize = 22;
}

/// Quick-scale NSL-KDD batch parameters: the batch detectors need several
/// batches before and after the drift to be meaningful on the shorter
/// stream.
pub fn scaled_batch(scale: Scale, full: usize) -> usize {
    match scale {
        Scale::Full => full,
        Scale::Quick => (full / 3).max(32),
    }
}
