//! Cooling-fan condition-monitoring scenario (§4.1.2 / Table 3).
//!
//! A single OS-ELM autoencoder watches 511-bin vibration spectra of a fan;
//! the detector runs at three window sizes over the paper's three drift
//! scenarios (sudden hole damage, gradually mixing chip damage, and a
//! transient chip-damage burst that reoccurs to normal).
//!
//! ```text
//! cargo run --release --example cooling_fan
//! ```

use seqdrift::datasets::fan::FanScenario;
use seqdrift::eval::experiments::fan_dataset;
use seqdrift::eval::methods::MethodSpec;
use seqdrift::eval::runner::{run_method, RunOptions};

fn main() {
    let scenarios = [
        ("sudden (hole damage @120)", FanScenario::Sudden),
        ("gradual (chip damage 120-600)", FanScenario::Gradual),
        ("reoccurring (chip burst 120-170)", FanScenario::Reoccurring),
    ];
    let windows = [10usize, 50, 150];
    let opts = RunOptions {
        hidden: 22,
        seed: 42,
        accuracy_window: 100,
    };

    println!("detection delay by window size (Table 3 of the paper):\n");
    println!(
        "{:<32} {:>6} {:>6} {:>6}",
        "scenario", "W=10", "W=50", "W=150"
    );
    for (name, scenario) in scenarios {
        let dataset = fan_dataset(scenario);
        let mut cells = Vec::new();
        for w in windows {
            let r = run_method(&MethodSpec::Proposed { window: w }, &dataset, &opts);
            cells.push(match r.delay {
                Some(d) => d.to_string(),
                None => "-".into(),
            });
        }
        println!(
            "{:<32} {:>6} {:>6} {:>6}",
            name, cells[0], cells[1], cells[2]
        );
    }

    println!(
        "\nreading the table like the paper does:\n\
         - sudden: smaller windows check sooner, so delay grows with W;\n\
         - gradual: the old/new mixture needs more evidence for every W;\n\
         - reoccurring: only small windows close a check inside the burst —\n\
           W=150's window spans the burst plus 100 healthy samples, the\n\
           centroid recovers, and the transient is (intentionally) ignored."
    );
}
