//! Table 5 — execution time for 700 fan samples.
//!
//! Methods: Quant Tree, SPLL, baseline, proposed. Times are measured on the
//! host (wall clock over the streaming loop, excluding setup) and projected
//! onto the Raspberry Pi 4 with the edgesim slowdown model. The paper's
//! claims are relative — SPLL slowest by far (k-means in the loop),
//! proposed ≈ Quant Tree, baseline fastest — and survive projection
//! unchanged.

use super::{fan_dataset, fan_params as p, Scale};
use crate::methods::MethodSpec;
use crate::report::Table;
use crate::runner::{run_method, RunOptions, RunResult};
use seqdrift_edgesim::{project_duration, PI4};

/// The four Table 5 rows.
pub fn method_specs() -> Vec<(&'static str, MethodSpec)> {
    vec![
        (
            "Quant Tree",
            MethodSpec::QuantTree {
                batch: p::QT_BATCH,
                bins: p::QT_BINS,
            },
        ),
        (
            "SPLL",
            MethodSpec::Spll {
                batch: p::SPLL_BATCH,
            },
        ),
        (
            "Baseline (no concept drift detection)",
            MethodSpec::BaselineNoDetect,
        ),
        ("Proposed method", MethodSpec::Proposed { window: 50 }),
    ]
}

/// Runs the four methods sequentially (timing runs must not share cores).
pub fn run_all(seed: u64) -> Vec<(&'static str, RunResult)> {
    let dataset = fan_dataset(seqdrift_datasets::fan::FanScenario::Sudden);
    let opts = RunOptions {
        hidden: p::HIDDEN,
        seed,
        accuracy_window: 100,
    };
    method_specs()
        .into_iter()
        .map(|(label, spec)| (label, run_method(&spec, &dataset, &opts)))
        .collect()
}

/// Builds Table 5.
pub fn run(_scale: Scale) -> Vec<Table> {
    let results = run_all(42);
    let mut t = Table::new(
        "Table 5: execution time for 700 fan samples (host-measured, Pi 4 projected)",
        &["method", "host (ms)", "Pi 4 projection (s)"],
    );
    for (label, r) in &results {
        let host_ms = r.exec_time.as_secs_f64() * 1e3;
        let pi4_s = project_duration(r.exec_time, &PI4).as_secs_f64();
        t.push_row(vec![
            (*label).into(),
            format!("{host_ms:.1}"),
            format!("{pi4_s:.3}"),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Timing assertions are inherently flaky on shared CI hardware, so the
    /// test asserts only the large, structural gaps the paper reports
    /// (SPLL ~6x slower than the others; baseline no slower than proposed
    /// by more than the detection overhead bound).
    #[test]
    fn relative_ordering_matches_paper() {
        // Median of 3 runs to de-noise.
        let mut spll_over_baseline = Vec::new();
        let mut proposed_over_baseline = Vec::new();
        for seed in [1, 2, 3] {
            let results = run_all(seed);
            let time = |needle: &str| -> f64 {
                results
                    .iter()
                    .find(|(l, _)| l.contains(needle))
                    .unwrap()
                    .1
                    .exec_time
                    .as_secs_f64()
            };
            let base = time("Baseline");
            spll_over_baseline.push(time("SPLL") / base);
            proposed_over_baseline.push(time("Proposed") / base);
        }
        spll_over_baseline.sort_by(|a, b| a.partial_cmp(b).unwrap());
        proposed_over_baseline.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let spll_ratio = spll_over_baseline[1];
        let proposed_ratio = proposed_over_baseline[1];
        // SPLL pays per-sample Mahalanobis against k clusters plus k-means
        // refits; it must be clearly slower than the bare baseline.
        assert!(spll_ratio > 1.2, "SPLL only {spll_ratio:.2}x over baseline");
        // The proposed detection adds bounded overhead (paper: +42.9%
        // over baseline; allow slack for host noise).
        assert!(
            proposed_ratio < 3.0,
            "proposed {proposed_ratio:.2}x over baseline"
        );
    }

    #[test]
    fn table_renders_four_rows() {
        let tables = run(Scale::Quick);
        assert_eq!(tables[0].len(), 4);
    }
}
