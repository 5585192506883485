//! Table 3 — detection delay vs window size on the cooling-fan dataset.
//!
//! Proposed method only, windows {10, 50, 150}, scenarios sudden / gradual /
//! reoccurring. The paper's qualitative findings:
//!
//! 1. sudden: smaller window => shorter delay;
//! 2. gradual: too-small windows chatter, larger stabilise;
//! 3. reoccurring: the 50-sample anomaly burst is caught by W = 10/50 but
//!    *not* by W = 150 (the window closes after the old concept returned).

use super::{fan_dataset, fan_params as p, Scale};
use crate::methods::MethodSpec;
use crate::report::{fmt_delay, Table};
use crate::runner::{run_method, RunOptions, RunResult};
use seqdrift_datasets::fan::FanScenario;

/// Window sizes of the paper's Table 3.
pub const WINDOWS: [usize; 3] = [10, 50, 150];

/// Scenario column order.
pub const SCENARIOS: [FanScenario; 3] = [
    FanScenario::Sudden,
    FanScenario::Gradual,
    FanScenario::Reoccurring,
];

/// Runs the full window x scenario grid; result\[w\]\[s\] is the run for
/// `WINDOWS[w]` on `SCENARIOS[s]`.
pub fn run_grid(seed: u64) -> Vec<Vec<RunResult>> {
    let datasets: Vec<_> = SCENARIOS.iter().map(|&s| fan_dataset(s)).collect();
    let opts = RunOptions {
        hidden: p::HIDDEN,
        seed,
        accuracy_window: 100,
    };
    crate::par::par_map(&WINDOWS, |&w| {
        datasets
            .iter()
            .map(|d| run_method(&MethodSpec::Proposed { window: w }, d, &opts))
            .collect()
    })
}

/// Builds Table 3.
pub fn run(_scale: Scale) -> Vec<Table> {
    let grid = run_grid(42);
    let mut t = Table::new(
        "Table 3: delay for detecting concept drift with different window sizes (cooling fan)",
        &["", "Sudden", "Gradual", "Reoccurring"],
    );
    for (wi, &w) in WINDOWS.iter().enumerate() {
        let mut row = vec![format!("Window size = {w}")];
        for cell in grid[wi].iter().take(SCENARIOS.len()) {
            row.push(fmt_delay(cell.delay));
        }
        t.push_row(row);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sudden_delay_grows_with_window() {
        let grid = run_grid(5);
        let sudden: Vec<Option<usize>> = (0..3).map(|w| grid[w][0].delay).collect();
        let d10 = sudden[0].expect("W=10 must detect the sudden drift");
        let d150 = sudden[2].expect("W=150 must detect the sudden drift");
        assert!(
            d10 <= d150,
            "delay should grow with window: W=10 {d10} vs W=150 {d150}"
        );
    }

    #[test]
    fn small_windows_catch_reoccurring_burst() {
        let grid = run_grid(5);
        let d10 = grid[0][2].delay;
        assert!(
            d10.is_some(),
            "W=10 must catch the 50-sample reoccurring burst"
        );
        // The burst lives in samples 120..170; a small window must fire
        // near it, not hundreds of samples later.
        assert!(d10.unwrap() < 200, "W=10 delay {:?}", d10);
    }

    #[test]
    fn gradual_drift_detected_by_mid_window() {
        let grid = run_grid(5);
        let d50 = grid[1][1].delay;
        assert!(d50.is_some(), "W=50 must detect the gradual drift");
    }

    #[test]
    fn table_is_three_by_three() {
        let tables = run(Scale::Quick);
        assert_eq!(tables[0].len(), 3);
    }
}
