//! Metric declarations, the figures of one repetition, and the run result.

use std::collections::BTreeMap;

use crate::hist::Hist;
use crate::json::Json;

/// Every end-to-end metric with its unit. `BENCHMARK.json` declares the
/// same names with their directions and bounds; every workload reports
/// every one of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_sps", "samples/s"),
    ("latency_p50_us", "us"),
    ("mem_peak_mib", "MiB"),
    ("detect_delay_samples", "samples"),
    ("accuracy", "ratio"),
];

/// Every per-layer metric with its unit, reported by a traced run. A
/// layer a workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("scenario.synth_s", "s"),
    ("core.calibrate_s", "s"),
    ("core.from_bytes_ms", "ms"),
    ("core.process_us.stable.p50", "us"),
    ("core.process_us.stable.p99", "us"),
    ("core.process_us.recon.p50", "us"),
    ("core.process_us.recon.p99", "us"),
    ("core.recon_share", "ratio"),
    ("core.to_bytes_us.p50", "us"),
    ("core.to_bytes_us.p99", "us"),
    ("core.checkpoint_bytes", "bytes"),
    ("oselm.predict_us.p50", "us"),
    ("oselm.predict_us.p99", "us"),
    ("oselm.seq_train_us.p50", "us"),
    ("oselm.seq_train_us.p99", "us"),
    ("linalg.flops_per_sample", "flops"),
    ("fleet.feed_us.p50", "us"),
    ("fleet.feed_us.p99", "us"),
    ("fleet.producer_busy_share", "ratio"),
    ("fleet.queue_depth.mean", "count"),
    ("fleet.queue_depth.max", "count"),
    ("fleet.drain_ms", "ms"),
    ("fleet.create_ms", "ms"),
    ("fleet.samples_processed", "count"),
    ("fleet.samples_dropped", "count"),
    ("fleet.busy_rejections", "count"),
    ("fleet.feed_timeouts", "count"),
    ("fleet.drifts_flagged", "count"),
    ("fleet.reconstructions", "count"),
    ("store.flushes", "count"),
    ("store.flush_failures", "count"),
    ("store.disk_bytes", "bytes"),
    ("store.put_us.p50", "us"),
    ("store.put_us.p99", "us"),
    ("server.batch_rtt_us.p50", "us"),
    ("server.batch_rtt_us.p99", "us"),
    ("server.gen_lag_us.p99", "us"),
    ("server.gen_lag_us.max", "us"),
    ("server.encode_us", "us"),
    ("server.decode_us", "us"),
    ("server.connect_ms", "ms"),
    ("server.bytes_rx_per_row", "bytes"),
    ("server.busy_replies", "count"),
    ("server.nacks_sent", "count"),
    ("server.admission_rejections", "count"),
    ("server.max_rate_sps", "samples/s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.error_ratio", "ratio"),
];

/// Metric values by name, filled by a workload.
pub type Values = BTreeMap<&'static str, f64>;

/// Latencies up to this many nanoseconds record without allocating.
pub const PREALLOCATED_NS: u64 = 10_000_000;

/// What one repetition of a workload produced: a fresh set-up, then one
/// whole measured phase.
#[derive(Debug, Default)]
pub struct Rep {
    /// Set-up time, seconds.
    pub setup_s: f64,
    /// Work completed in the throughput phase: samples applied, or rows
    /// acknowledged.
    pub work: u64,
    /// Wall time of the throughput phase, seconds, from its first call
    /// until its last one returned (fleets: until `shutdown()` returned).
    pub secs: f64,
    /// Every call timed in the latency phase, ns.
    pub latency: Hist,
    /// Peak live heap above the inputs, MiB.
    pub mem_mib: f64,
    /// Mean onset-to-detection delay, samples.
    pub delay: f64,
    /// Permutation-aware accuracy.
    pub accuracy: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Why the output check failed, naming the session; `None` if it held.
    pub mismatch: Option<String>,
    /// Per-layer values (traced repetitions only).
    pub layer: Values,
    /// Human-readable context lines.
    pub notes: Vec<String>,
}

impl Rep {
    /// Work per second over the throughput phase.
    pub fn throughput(&self) -> f64 {
        self.work as f64 / self.secs.max(1e-9)
    }

    /// Failed over attempted.
    pub fn error_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// End-to-end values of a run's repetitions, with notes.
///
/// Throughput is the work of every phase over their summed wall time, and
/// the latency is the mean of the phases' medians: both move in proportion
/// to the share of phases a slowdown hits. A median over phases, or over
/// every call, jumps between the host's fast and slow states once about
/// half the phases are slow; on a shared 2-vCPU host that made runs of the
/// same code differ by 40%. Set-up is the median of the phases' set-ups.
pub fn end_to_end(reps: &[Rep]) -> (Values, Vec<String>) {
    let med = |f: fn(&Rep) -> f64| median(&mut reps.iter().map(f).collect::<Vec<_>>());
    let sum = |f: fn(&Rep) -> f64| reps.iter().map(f).sum::<f64>();
    let mut latency = Hist::new();
    reps.iter().for_each(|r| latency.merge(&r.latency));
    let mut e2e = Values::new();
    e2e.insert("setup_s", med(|r| r.setup_s));
    e2e.insert(
        "throughput_sps",
        sum(|r| r.work as f64) / sum(|r| r.secs).max(1e-9),
    );
    e2e.insert(
        "latency_p50_us",
        sum(|r| us(r.latency.quantile(0.5))) / reps.len().max(1) as f64,
    );
    e2e.insert("mem_peak_mib", med(|r| r.mem_mib));
    e2e.insert("detect_delay_samples", med(|r| r.delay));
    e2e.insert("accuracy", med(|r| r.accuracy));
    let list = |f: fn(&Rep) -> String| reps.iter().map(f).collect::<Vec<_>>().join(" ");
    let tail = latency.tail().map_or("tail n/a".to_string(), |(q, v)| {
        format!("{} {:.2} us", pct_label(q), us(v))
    });
    let notes = vec![
        format!(
            "setup_s per repetition: {}",
            list(|r| format!("{:.4}", r.setup_s))
        ),
        format!(
            "throughput per repetition: {}",
            list(|r| format!("{:.0}", r.throughput()))
        ),
        format!(
            "latency p50 per repetition: {}",
            list(|r| format!("{:.2}", us(r.latency.quantile(0.5))))
        ),
        format!(
            "latency over {} calls: p50 {:.2} us, p90 {:.2} us, p99 {:.2} us, {tail}",
            latency.count(),
            us(latency.quantile(0.5)),
            us(latency.quantile(0.9)),
            us(latency.quantile(0.99)),
        ),
        format!(
            "error_ratio {}",
            reps.iter().map(|r| r.failed).sum::<u64>() as f64
                / reps.iter().map(|r| r.attempted).sum::<u64>().max(1) as f64
        ),
    ];
    (e2e, notes)
}

/// Nanoseconds as microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// `p99`, `p99.9`: a percentile's label.
pub fn pct_label(q: f64) -> String {
    let s = format!("{:.4}", q * 100.0);
    format!("p{}", s.trim_end_matches('0').trim_end_matches('.'))
}

/// A workload's verdict and figures.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Why the output check failed, naming the session; `None` if it held.
    pub mismatch: Option<String>,
    /// Operations attempted in the reported run.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// End-to-end values (untraced run).
    pub end_to_end: Values,
    /// Per-layer values (traced run only).
    pub per_layer: Option<Values>,
    /// Human-readable context lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Prints every metric as `workload metric value unit`, the notes, and
    /// last the result object as one JSON line.
    pub fn print(&self) {
        for n in &self.notes {
            println!("{} {n}", self.workload);
        }
        for (name, unit) in END_TO_END {
            if let Some(v) = self.end_to_end.get(name) {
                println!("{} {name} {v} {unit}", self.workload);
            }
        }
        if let Some(layer) = &self.per_layer {
            for (name, unit) in PER_LAYER {
                println!(
                    "{} {name} {} {unit}",
                    self.workload,
                    layer.get(name).copied().unwrap_or(0.0)
                );
            }
        }
        if let Some(m) = &self.mismatch {
            println!("{} ORACLE MISMATCH: {m}", self.workload);
        }
        println!("{}", self.result_json());
    }

    /// `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
    /// metrics, or the per-layer ones for a traced run.
    pub fn result_json(&self) -> Json {
        let metric = |name: &str, unit: &str, v: f64| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(v)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            )
        };
        let metrics: Vec<(String, Json)> = match &self.per_layer {
            Some(layer) => PER_LAYER
                .iter()
                .map(|(n, u)| metric(n, u, layer.get(n).copied().unwrap_or(0.0)))
                .collect(),
            None => END_TO_END
                .iter()
                .map(|(n, u)| metric(n, u, self.end_to_end.get(n).copied().unwrap_or(0.0)))
                .collect(),
        };
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.mismatch.is_none())),
            ("attempted".into(), Json::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(work: u64, secs: f64, latency_ns: &[u64]) -> Rep {
        let mut latency = Hist::new();
        latency_ns.iter().for_each(|&v| latency.record(v));
        Rep {
            work,
            secs,
            latency,
            ..Rep::default()
        }
    }

    #[test]
    fn end_to_end_takes_every_whole_phase() {
        // Phases at 40k, 50k and 20k/s: all the work over all the time,
        // not the best or the median phase.
        let reps = [
            rep(40_000, 1.0, &[10_000; 3]),
            rep(100_000, 2.0, &[20_000, 20_000, 90_000]),
            rep(10_000, 0.5, &[60_000; 3]),
        ];
        let (e2e, _) = end_to_end(&reps);
        assert_eq!(e2e["throughput_sps"], 150_000.0 / 3.5);
        // The mean of the phase medians 10, 20 and 60 us (to the
        // histogram's bucket error).
        assert!((e2e["latency_p50_us"] - 30.0).abs() < 0.1);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
