//! Experiment driver: regenerates each table/figure of the paper.
//!
//! ```text
//! cargo run --release -p seqdrift-eval --bin repro -- all
//! cargo run --release -p seqdrift-eval --bin repro -- table2
//! cargo run --release -p seqdrift-eval --bin repro -- fig4 --quick
//! cargo run --release -p seqdrift-eval --bin repro -- --scenario drills/sudden.sqsc
//! ```
//!
//! Results print as markdown and are written, markdown + CSV per table,
//! under `--out DIR`. The default is `results/` (the checked-in
//! full-scale tables) at full scale and the gitignored
//! `target/repro-quick/` under `--quick`, so a smoke run never
//! overwrites the checked-in numbers.

use seqdrift_eval::experiments::{self, Scale};
use seqdrift_eval::report::Table;
use std::path::PathBuf;

const EXPERIMENTS: &[&str] = &[
    "fig1",
    "fig4",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "ablation-ensemble",
    "ablation-threshold",
    "ablation-distance",
    "ablation-forgetting",
    "ablation-incremental",
    "ablation-errorrate",
    "ablation-recency",
    "ablation-noisy",
    "sweep",
];

fn run_one(name: &str, scale: Scale) -> Vec<Table> {
    match name {
        "fig1" => experiments::fig1::run(),
        "fig4" => experiments::fig4::run(scale),
        "table2" => experiments::table2::run(scale),
        "table3" => experiments::table3::run(scale),
        "table4" => experiments::table4::run(scale),
        "table5" => experiments::table5::run(scale),
        "table6" => experiments::table6::run(scale),
        "ablation-ensemble" => experiments::ablations::ensemble(scale),
        "ablation-threshold" => experiments::ablations::threshold(scale),
        "ablation-distance" => experiments::ablations::distance(scale),
        "ablation-forgetting" => experiments::ablations::forgetting(scale),
        "ablation-incremental" => experiments::ablations::incremental(scale),
        "ablation-errorrate" => experiments::ablations::error_rate(scale),
        "ablation-recency" => experiments::ablations::recency(scale),
        "ablation-noisy" => experiments::ablations::noisy_env(scale),
        "sweep" => experiments::sweep_exp::run(scale),
        other => {
            eprintln!("unknown experiment {other:?}; known: {EXPERIMENTS:?} or 'all'");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let default_out = if quick {
        "target/repro-quick"
    } else {
        "results"
    };
    let out_dir: PathBuf = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(default_out));
    let scenario_file: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--scenario")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);

    if let Some(path) = scenario_file {
        let opts = seqdrift_eval::RunOptions::default();
        match seqdrift_eval::scenario::run_scenario_file(&path, &opts) {
            Ok(table) => {
                println!("{}", table.to_markdown());
                let stem = format!(
                    "scenario-{}",
                    path.file_stem()
                        .map(|s| s.to_string_lossy().into_owned())
                        .unwrap_or_else(|| "run".to_string())
                );
                if let Err(e) = table.write_to(&out_dir, &stem) {
                    eprintln!("warning: could not write {stem}: {e}");
                }
                eprintln!("results written under {}", out_dir.display());
                return;
            }
            Err(e) => {
                eprintln!("scenario {} failed: {e}", path.display());
                std::process::exit(2);
            }
        }
    }

    let targets: Vec<&str> = {
        let named: Vec<&str> = args
            .iter()
            .map(String::as_str)
            .filter(|a| !a.starts_with("--") && *a != out_dir.to_string_lossy())
            .collect();
        if named.is_empty() || named.contains(&"all") {
            EXPERIMENTS.to_vec()
        } else {
            named
        }
    };

    println!("# seqdrift reproduction ({:?} scale)\n", scale);
    for name in targets {
        eprintln!(">>> running {name} ...");
        let started = std::time::Instant::now();
        let tables = run_one(name, scale);
        eprintln!(
            "<<< {name} finished in {:.1}s",
            started.elapsed().as_secs_f64()
        );
        for (i, t) in tables.iter().enumerate() {
            println!("{}", t.to_markdown());
            let stem = if tables.len() == 1 {
                name.to_string()
            } else {
                format!("{name}-{i}")
            };
            if let Err(e) = t.write_to(&out_dir, &stem) {
                eprintln!("warning: could not write {stem}: {e}");
            }
        }
    }
    eprintln!("results written under {}", out_dir.display());
}
