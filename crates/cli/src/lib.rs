#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # seqdrift-cli
//!
//! The `seqdrift` command-line tool: the adoption path for users who have
//! data in CSV files and want drift detection without writing Rust.
//!
//! ```text
//! seqdrift train --csv train.csv --label-last --window 100 --out model.sqdm
//! seqdrift run   --csv stream.csv --model model.sqdm --out updated.sqdm
//! seqdrift info  --model model.sqdm
//! seqdrift synth --dataset fan-sudden --out data/
//! seqdrift fleet --csv stream.csv --model model.sqdm --sessions 32 --drift-at 100
//! seqdrift serve --model model.sqdm --listen 127.0.0.1:4747 --state-dir state/
//! seqdrift load  --csv stream.csv --addr 127.0.0.1:4747 --sessions 8 --verify --model model.sqdm
//! ```
//!
//! * `train` — calibrate a full [`seqdrift_core::DriftPipeline`] from a
//!   labelled CSV (features + final label column) and checkpoint it;
//! * `run` — stream an unlabelled CSV through a checkpointed pipeline,
//!   reporting drift detections and reconstructions, optionally writing
//!   the adapted checkpoint back out;
//! * `info` — describe a checkpoint (shapes, thresholds, counters);
//! * `synth` — export the paper's synthetic datasets to CSV for
//!   inspection or replay;
//! * `fleet` — replay one CSV across many simulated devices, each an
//!   independent [`seqdrift_fleet::FleetEngine`] session restored from the
//!   same checkpoint, with per-device staggered drift injection; or, with
//!   `--scenario`, the per-session streams of a `.sqsc` file. With
//!   `--state-dir` every rolling checkpoint is flushed to a crash-safe
//!   on-disk store, persisted quarantine verdicts stay in force, and
//!   `--resume` re-homes the surviving sessions after a crash;
//! * `serve` — run the [`seqdrift_server`] TCP ingest server: real
//!   devices connect over the `SQNP` wire protocol and stream into one
//!   fleet engine. Ctrl-C drains gracefully, flushing every session's
//!   final state and stream offset to `--state-dir`;
//! * `load` — multi-threaded load generator: replay a CSV from N
//!   simulated devices against a running server, report samples/sec and
//!   batch round-trip percentiles (optionally merged into a machine-
//!   readable `BENCH_ingest.json`), and `--verify` that the networked
//!   state is bit-identical to a local replay.
//!
//! The argument parser and command implementations live here in the
//! library so they are unit-testable; `main.rs` is a thin shim.

pub mod args;
pub mod bench_json;
pub mod commands;

pub use args::{Cli, Command, ParseError};

/// Runs a parsed command, writing human-readable progress to `out`.
pub fn run(cli: &Cli, out: &mut dyn std::io::Write) -> Result<(), String> {
    match &cli.command {
        Command::Train(a) => commands::train(a, out),
        Command::Run(a) => commands::run_stream(a, out),
        Command::Info(a) => commands::info(a, out),
        Command::Synth(a) => commands::synth(a, out),
        Command::Fleet(a) => commands::fleet(a, out),
        Command::Serve(a) => commands::serve(a, out),
        Command::Load(a) => commands::load(a, out),
    }
}
