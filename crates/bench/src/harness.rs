//! Dependency-free timing harness.
//!
//! The workspace builds offline with no external crates, so the benches use
//! this minimal harness instead of criterion: warm up, auto-calibrate the
//! iteration count so one sample is long enough for the OS clock, collect a
//! fixed number of samples, and report the median (robust to scheduler
//! noise) with min/max spread. No statistics framework, no output files —
//! numbers print to stdout in a grep-friendly single line per bench.

use std::time::{Duration, Instant};

/// Samples collected per bench.
const SAMPLES: usize = 11;
/// Target wall-clock length of one sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(10);
/// Warm-up budget before calibration.
const WARMUP: Duration = Duration::from_millis(50);

/// Summary of one bench run.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Bench label.
    pub name: String,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Fastest sample, ns/iter.
    pub min_ns: f64,
    /// Slowest sample, ns/iter.
    pub max_ns: f64,
    /// Iterations per sample after calibration.
    pub iters_per_sample: u64,
    /// Logical elements processed per iteration (for throughput), if any.
    pub elements: Option<u64>,
}

fn fmt_time(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

impl Stats {
    /// Prints the one-line report this harness emits per bench.
    pub fn report(&self) {
        let mut line = format!(
            "{:<50} {:>12}/iter  (min {}, max {}, {} x {} iters)",
            self.name,
            fmt_time(self.median_ns),
            fmt_time(self.min_ns),
            fmt_time(self.max_ns),
            SAMPLES,
            self.iters_per_sample,
        );
        if let Some(elements) = self.elements {
            let per_sec = elements as f64 / (self.median_ns * 1e-9);
            line.push_str(&format!("  [{:.3} Melem/s]", per_sec / 1e6));
        }
        println!("{line}");
    }
}

/// Times `f`, auto-calibrating how many calls make up one sample, and
/// reports the median over `SAMPLES` samples. `elements` is the number of
/// logical items one `f()` call processes (enables the throughput column).
pub fn bench(name: &str, elements: Option<u64>, mut f: impl FnMut()) -> Stats {
    // Warm up (fills caches, triggers lazy init) and estimate the per-call
    // cost at the same time.
    let warm_start = Instant::now();
    let mut warm_iters: u64 = 0;
    while warm_start.elapsed() < WARMUP || warm_iters == 0 {
        f();
        warm_iters += 1;
    }
    let per_call = warm_start.elapsed().as_nanos() as f64 / warm_iters as f64;
    let iters_per_sample = ((SAMPLE_TARGET.as_nanos() as f64 / per_call).ceil() as u64).max(1);

    let mut samples_ns = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        for _ in 0..iters_per_sample {
            f();
        }
        samples_ns.push(start.elapsed().as_nanos() as f64 / iters_per_sample as f64);
    }
    samples_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let stats = Stats {
        name: name.to_string(),
        median_ns: samples_ns[SAMPLES / 2],
        min_ns: samples_ns[0],
        max_ns: samples_ns[SAMPLES - 1],
        iters_per_sample,
        elements,
    };
    stats.report();
    stats
}

/// Like [`bench()`] for routines that consume fresh state per call (streaming
/// a whole dataset through a detector, say): `setup` runs untimed before
/// every timed `routine` call, and each call is one sample — no inner loop,
/// so keep routines in the multi-millisecond range.
pub fn bench_batched<S>(
    name: &str,
    elements: Option<u64>,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(S),
) -> Stats {
    // One warm-up run.
    routine(setup());
    let mut samples_ns = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let state = setup();
        let start = Instant::now();
        routine(state);
        samples_ns.push(start.elapsed().as_nanos() as f64);
    }
    samples_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let stats = Stats {
        name: name.to_string(),
        median_ns: samples_ns[SAMPLES / 2],
        min_ns: samples_ns[0],
        max_ns: samples_ns[SAMPLES - 1],
        iters_per_sample: 1,
        elements,
    };
    stats.report();
    stats
}

/// Prints a section header so multi-group benches stay readable.
pub fn section(title: &str) {
    println!("\n== {title} ==");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_produces_positive_medians() {
        let mut acc = 0u64;
        let s = bench("noop-ish", Some(4), || {
            acc = acc.wrapping_add(std::hint::black_box(1));
        });
        assert!(s.median_ns > 0.0);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.max_ns);
        assert_eq!(s.elements, Some(4));
    }

    #[test]
    fn bench_batched_runs_setup_per_sample() {
        let mut setups = 0u32;
        bench_batched(
            "batched",
            None,
            || {
                setups += 1;
                vec![1u8; 64]
            },
            |v| {
                std::hint::black_box(v.len());
            },
        );
        assert_eq!(setups as usize, SAMPLES + 1);
    }
}
