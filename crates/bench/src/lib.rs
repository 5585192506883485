//! # seqdrift-bench
//!
//! Benchmarks regenerating the paper's execution-time artefacts and
//! profiling the hot kernels, built on the in-repo [`harness`] (the
//! workspace builds offline, so there is no criterion):
//!
//! * `table5_pipeline` — end-to-end per-method streaming cost on the
//!   700-sample fan dataset (Table 5);
//! * `table6_breakdown` — the six per-sample operations of Algorithms 1–4
//!   (Table 6);
//! * `detectors` — per-sample `push` cost of the proposed detector vs
//!   Quant Tree vs SPLL vs DDM/ADWIN;
//! * `kernels` — linalg primitives (matvec, Sherman–Morrison update,
//!   centroid update, Quant Tree binning).
//!
//! Fleet and network-ingest throughput are measured end to end by the
//! separate `seqbench` package (`seqbench/README.md`).
//!
//! Run with `cargo bench -p seqdrift-bench`; each bench prints one line per
//! measurement to stdout. Shared fixtures live here in the library so every
//! bench constructs identical workloads.

pub mod harness;
pub mod json;

use seqdrift_datasets::fan::{self, Environment, FanConfig, FanScenario};
use seqdrift_datasets::DriftDataset;
use seqdrift_linalg::{Real, Rng};
use seqdrift_oselm::{MultiInstanceModel, OsElmConfig};

/// The fan dataset used by the timing benches (Table 5/6 configuration).
pub fn fan_fixture() -> DriftDataset {
    fan::generate(
        &FanConfig::default(),
        FanScenario::Sudden,
        Environment::Silent,
    )
}

/// A trained two-instance model at the given dimensionality.
pub fn trained_model(dim: usize, hidden: usize, seed: u64) -> MultiInstanceModel {
    let mut rng = Rng::seed_from(seed);
    let mut model =
        MultiInstanceModel::new(2, OsElmConfig::new(dim, hidden).with_seed(seed)).unwrap();
    for (label, mean) in [(0usize, 0.3), (1usize, 0.7)] {
        let blob: Vec<Vec<Real>> = (0..60)
            .map(|_| {
                let mut x = vec![0.0; dim];
                rng.fill_normal(&mut x, mean, 0.05);
                x
            })
            .collect();
        model.init_train_class(label, &blob).unwrap();
    }
    model
}

/// A reproducible probe sample.
pub fn probe(dim: usize, seed: u64) -> Vec<Real> {
    let mut rng = Rng::seed_from(seed);
    let mut x = vec![0.0; dim];
    rng.fill_normal(&mut x, 0.5, 0.1);
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_consistent() {
        let d = fan_fixture();
        assert_eq!(d.test.len(), 700);
        let m = trained_model(64, 8, 1);
        assert!(m.is_initialized());
        assert_eq!(probe(16, 2).len(), 16);
    }
}
