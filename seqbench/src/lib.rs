//! # seqbench
//!
//! End-to-end and per-layer benchmark of the seqdrift ingest paths. One
//! workload per process; each measured phase is timed from outside the
//! program through the layers' public calls and its outputs are checked
//! against a single-threaded `DriftPipeline` replay. See `README.md` for
//! the workloads, the metrics and how to run, trace and compare.

pub mod alloc;
pub mod compare;
mod device;
mod fleet;
pub mod hist;
mod inputs;
pub mod json;
mod net;
mod oracle;
pub mod report;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use report::{Outcome, Rep};

/// Every workload, in run order.
pub const WORKLOADS: [&str; 4] = ["device-511", "fleet-mem", "fleet-durable", "net-ingest"];

/// Measured repetitions per run. Each sets the program up afresh and
/// measures one whole phase; a run reports their medians.
pub const REPS: u32 = 8;

/// The untimed warm-up repetition's phase, seconds (before scaling).
const WARMUP_S: f64 = 2.0;

/// Options of one workload run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds, over all repetitions (before scaling).
    pub seconds: f64,
    /// Multiplies every duration; the smoke test runs at 0.005.
    pub scale: f64,
    /// Also run a traced repetition and report per-layer metrics.
    pub trace: bool,
    /// Where spans and durable state go.
    pub out_dir: PathBuf,
}

impl Opts {
    /// The warm-up repetition's phase.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64(WARMUP_S * self.scale)
    }

    /// Measured time over all repetitions.
    pub fn measured(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * self.scale)
    }

    /// Where a traced run writes its spans.
    pub fn spans_path(&self, workload: &str) -> PathBuf {
        self.out_dir
            .join(format!("{workload}-{}.spans.tsv", self.seed))
    }

    /// A fresh directory for durable state, unique to this process.
    pub fn state_dir(&self, what: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        self.out_dir
            .join(format!("{what}-{}-{n}", std::process::id()))
    }
}

/// One repetition of a workload: set up, measure a phase of the given
/// length, check the outputs; traced when the flag is set.
type RepFn = fn(&Opts, Duration, bool) -> Result<Rep, String>;

/// Runs one workload by name: an untimed warm-up repetition, [`REPS`]
/// measured ones, and with `opts.trace` one traced repetition as long as
/// all measured ones together.
pub fn run_workload(name: &str, opts: &Opts) -> Result<Outcome, String> {
    let (workload, rep): (&'static str, RepFn) = match name {
        "device-511" => ("device-511", device::rep),
        "fleet-mem" => ("fleet-mem", |o, t, tr| fleet::rep(o, t, tr, false)),
        "fleet-durable" => ("fleet-durable", |o, t, tr| fleet::rep(o, t, tr, true)),
        "net-ingest" => ("net-ingest", net::rep),
        other => {
            return Err(format!(
                "unknown workload '{other}' (expected one of {WORKLOADS:?})"
            ))
        }
    };
    // Warms caches, the allocator and lazy initialisation; its outputs
    // are checked, its figures dropped.
    let mut mismatch = rep(opts, opts.warmup(), false)?.mismatch;
    let mut reps = Vec::new();
    for _ in 0..REPS {
        let r = rep(opts, opts.measured() / REPS, false)?;
        mismatch = mismatch.or(r.mismatch.clone());
        reps.push(r);
    }
    let (end_to_end, mut notes) = report::end_to_end(&reps);
    notes.splice(0..0, reps[0].notes.iter().cloned());
    let mut outcome = Outcome {
        workload,
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        end_to_end,
        ..Outcome::default()
    };
    if opts.trace {
        let t = rep(opts, opts.measured(), true)?;
        // net-ingest is judged by latency at a fixed offered rate, the
        // others by closed-loop throughput.
        let overhead = if workload == "net-ingest" {
            report::us(t.latency.quantile(0.5)) / outcome.end_to_end["latency_p50_us"].max(1e-9)
        } else {
            outcome.end_to_end["throughput_sps"] / t.throughput().max(1e-9)
        };
        let mut layer = t.layer.clone();
        layer.insert("bench.trace_overhead", overhead);
        layer.insert("bench.error_ratio", t.error_ratio());
        notes.extend(t.notes);
        mismatch = mismatch.or(t.mismatch);
        outcome.per_layer = Some(layer);
        outcome.attempted = t.attempted;
        outcome.failed = t.failed;
    }
    outcome.notes = notes;
    outcome.mismatch = mismatch;
    Ok(outcome)
}
