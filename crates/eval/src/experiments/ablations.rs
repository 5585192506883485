//! Extension ablations for the design choices DESIGN.md §6 calls out.
//!
//! * **ensemble** — the paper's stated future work: multiple windows
//!   voting, vs each single window, across the three fan scenarios;
//! * **threshold** — `θ_error` gating on/off and the Eq. 1 `z` sweep;
//! * **distance** — L1 (paper) vs L2 drift distance;
//! * **forgetting** — ONLAD forgetting-rate sensitivity (reproduces the
//!   "parameter tuning of a forgetting rate of ONLAD is difficult" claim).

use super::{fan_dataset, nslkdd_dataset, Scale};
use crate::methods::MethodSpec;
use crate::metrics;
use crate::report::{fmt_delay, Table};
use crate::runner::{run_method, RunOptions};
use seqdrift_core::centroid::CentroidSet;
use seqdrift_core::threshold::calibrate_drift_threshold;
use seqdrift_core::{CentroidDetector, DetectorConfig, DetectorOutcome, DistanceMetric};
use seqdrift_datasets::fan::FanScenario;
use seqdrift_datasets::DriftDataset;
use seqdrift_linalg::Real;
use seqdrift_oselm::{MultiInstanceModel, OsElmConfig};

/// How the members' latched flags combine into one verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VotePolicy {
    /// Drift as soon as any member has flagged.
    Any,
    /// Drift once a strict majority of members have flagged.
    Majority,
}

/// The multi-window detector the paper names as future work: one
/// [`CentroidDetector`] per window size over the same sample stream.
/// Windows of different sizes close at different samples, so a member's
/// flag latches at its first drift verdict.
struct WindowEnsemble {
    members: Vec<CentroidDetector>,
    flagged: Vec<bool>,
    policy: VotePolicy,
}

impl WindowEnsemble {
    /// One member per window size, sharing `base` and the trained
    /// centroids.
    fn new(
        base: &DetectorConfig,
        windows: &[usize],
        trained: &CentroidSet,
        policy: VotePolicy,
    ) -> WindowEnsemble {
        let members: Vec<CentroidDetector> = windows
            .iter()
            .map(|&w| {
                CentroidDetector::new(base.clone().with_window(w), trained.clone())
                    .expect("ensemble member")
            })
            .collect();
        WindowEnsemble {
            flagged: vec![false; members.len()],
            members,
            policy,
        }
    }

    /// Feeds one sample to every member; `true` when the vote holds at
    /// this sample.
    fn observe(&mut self, label: usize, x: &[Real], error: Real) -> bool {
        for (member, flag) in self.members.iter_mut().zip(self.flagged.iter_mut()) {
            let outcome = member.observe(label, x, error).expect("observe");
            if let DetectorOutcome::Checked { drift: true, .. } = outcome {
                *flag = true;
            }
        }
        let yes = self.flagged.iter().filter(|&&f| f).count();
        match self.policy {
            VotePolicy::Any => yes >= 1,
            VotePolicy::Majority => 2 * yes > self.members.len(),
        }
    }
}

/// Trains the fan model + centroids and streams the dataset through an
/// ensemble, returning the first firing index.
fn ensemble_first_fire(
    dataset: &DriftDataset,
    windows: &[usize],
    policy: VotePolicy,
    seed: u64,
) -> Option<usize> {
    let dim = dataset.dim();
    let mut model =
        MultiInstanceModel::new(dataset.classes, OsElmConfig::new(dim, 22).with_seed(seed))
            .expect("model");
    for (label, bucket) in dataset.train_by_class().iter().enumerate() {
        model.init_train_class(label, bucket).expect("train");
    }
    let pairs: Vec<(usize, &[Real])> = dataset
        .train
        .iter()
        .map(|s| (s.label, s.x.as_slice()))
        .collect();
    let trained = CentroidSet::from_labeled(dataset.classes, dim, &pairs).expect("centroids");
    let theta_drift =
        calibrate_drift_threshold(&trained, &pairs, DistanceMetric::L1, 1.0).expect("eq1");
    // Same θ_error policy as the pipeline: a margin above the training
    // score band, so in-distribution samples do not churn windows.
    let max_score = dataset
        .train
        .iter()
        .map(|s| model.predict(&s.x).expect("predict").score)
        .fold(0.0, Real::max);
    let base = DetectorConfig::new(dataset.classes, dim)
        .with_theta_drift(theta_drift)
        .with_theta_error(3.0 * max_score);
    let mut ensemble = WindowEnsemble::new(&base, windows, &trained, policy);

    for (i, s) in dataset.test.iter().enumerate() {
        let p = model.predict(&s.x).expect("predict");
        if ensemble.observe(p.label, &s.x, p.score) {
            return Some(i);
        }
    }
    None
}

/// Ensemble ablation: single windows vs Any/Majority votes on the fan
/// scenarios.
pub fn ensemble(_scale: Scale) -> Vec<Table> {
    let scenarios = [
        FanScenario::Sudden,
        FanScenario::Gradual,
        FanScenario::Reoccurring,
    ];
    let datasets: Vec<_> = scenarios.iter().map(|&s| fan_dataset(s)).collect();

    let rows: Vec<(&str, Vec<usize>, Option<VotePolicy>)> = vec![
        ("single W=10", vec![10], None),
        ("single W=50", vec![50], None),
        ("single W=150", vec![150], None),
        (
            "ensemble any {10,50,150}",
            vec![10, 50, 150],
            Some(VotePolicy::Any),
        ),
        (
            "ensemble majority {10,50,150}",
            vec![10, 50, 150],
            Some(VotePolicy::Majority),
        ),
    ];

    let results: Vec<Vec<Option<usize>>> = crate::par::par_map(&rows, |(_, windows, policy)| {
        datasets
            .iter()
            .map(|d| {
                let pol = policy.unwrap_or(VotePolicy::Any);
                ensemble_first_fire(d, windows, pol, 42).map(|i| i.saturating_sub(d.drift_start))
            })
            .collect()
    });

    let mut t = Table::new(
        "Ablation: multi-window ensemble vs single windows — detection delay (fan)",
        &["configuration", "Sudden", "Gradual", "Reoccurring"],
    );
    for ((name, _, _), delays) in rows.iter().zip(results.iter()) {
        t.push_row(vec![
            (*name).into(),
            fmt_delay(delays[0]),
            fmt_delay(delays[1]),
            fmt_delay(delays[2]),
        ]);
    }
    vec![t]
}

/// θ_error gating and z sweep on NSL-KDD.
pub fn threshold(scale: Scale) -> Vec<Table> {
    let dataset = nslkdd_dataset(match scale {
        Scale::Full => Scale::Quick, // full-scale adds nothing but minutes here
        s => s,
    });
    let opts = RunOptions {
        hidden: 22,
        seed: 42,
        accuracy_window: 500,
    };

    // Gating ablation rides on the pipeline's calibration quantile: q=0
    // forces θ_error to the minimum training score (gate effectively open).
    let mut t = Table::new(
        "Ablation: θ_error gating and Eq. 1 z on NSL-KDD (proposed, W=100)",
        &["variant", "accuracy (%)", "delay", "false positives"],
    );
    let variants: Vec<(String, MethodSpec)> = vec![(
        "margin-gated (3x max), z=1 [default]".into(),
        MethodSpec::Proposed { window: 100 },
    )];
    for (name, spec) in &variants {
        let r = run_method(spec, &dataset, &opts);
        t.push_row(vec![
            name.clone(),
            format!("{:.1}", r.accuracy_pct()),
            fmt_delay(r.delay),
            r.false_positives.to_string(),
        ]);
    }

    // Direct detector-level sweep for gating and z (bypasses the method
    // factory to vary the thresholds).
    for (name, margin, z) in [
        ("ungated (theta_error = 0), z=1", 0.0f32, 1.0f32),
        ("margin-gated (3x max), z=0.5", 3.0, 0.5),
        ("margin-gated (3x max), z=2", 3.0, 2.0),
    ] {
        let r = run_threshold_variant(&dataset, margin as Real, z, &opts);
        t.push_row(vec![
            name.into(),
            format!("{:.1}", r.0 * 100.0),
            fmt_delay(r.1),
            r.2.to_string(),
        ]);
    }
    vec![t]
}

/// Runs the proposed pipeline with an explicit gate margin and z, returning
/// (accuracy, delay, false positives). `margin = 0` disables gating
/// entirely (every sample opens a window).
fn run_threshold_variant(
    dataset: &DriftDataset,
    error_margin: Real,
    z: Real,
    opts: &RunOptions,
) -> (f64, Option<usize>, usize) {
    use seqdrift_core::pipeline::{DriftPipeline, PipelineConfig};
    use seqdrift_core::reconstruct::ReconstructConfig;

    let dim = dataset.dim();
    let mut model = MultiInstanceModel::new(
        dataset.classes,
        OsElmConfig::new(dim, opts.hidden).with_seed(opts.seed),
    )
    .expect("model");
    for (label, bucket) in dataset.train_by_class().iter().enumerate() {
        model.init_train_class(label, bucket).expect("train");
    }
    let pairs: Vec<(usize, &[Real])> = dataset
        .train
        .iter()
        .map(|s| (s.label, s.x.as_slice()))
        .collect();
    // margin = 0 means "no gate": θ_error stays 0 and every sample opens a
    // window (PipelineConfig treats theta_error = 0 as "calibrate", so set
    // a tiny explicit value instead).
    let det = if error_margin == 0.0 {
        DetectorConfig::new(dataset.classes, dim)
            .with_window(100)
            .with_theta_error(Real::MIN_POSITIVE)
    } else {
        DetectorConfig::new(dataset.classes, dim).with_window(100)
    };
    let mut cfg = PipelineConfig::new(det.clone())
        .with_reconstruct(ReconstructConfig::new(200).with_search(20).with_update(50));
    cfg.error_margin = error_margin.max(Real::MIN_POSITIVE);
    cfg.z = z;
    let mut pipe = DriftPipeline::calibrate_with(model, det, &pairs, Some(cfg)).expect("pipeline");

    let mut truth = Vec::new();
    let mut pred = Vec::new();
    let mut detections = Vec::new();
    for (i, s) in dataset.test.iter().enumerate() {
        let out = pipe.process(&s.x).expect("process");
        truth.push(s.label);
        pred.push(out.predicted_label.unwrap());
        if out.drift_detected {
            detections.push(i);
        }
    }
    let retrain: Vec<usize> = pipe
        .events()
        .iter()
        .filter_map(|e| match e {
            seqdrift_core::pipeline::PipelineEvent::Reconstructed { index, .. } => {
                Some(*index as usize)
            }
            _ => None,
        })
        .collect();
    (
        metrics::epoch_permutation_accuracy(&truth, &pred, dataset.classes, &retrain),
        metrics::detection_delay(&detections, dataset.drift_start),
        metrics::false_positives(&detections, dataset.drift_start),
    )
}

/// L1 vs L2 drift distance.
pub fn distance(scale: Scale) -> Vec<Table> {
    let dataset = nslkdd_dataset(match scale {
        Scale::Full => Scale::Quick,
        s => s,
    });
    let mut t = Table::new(
        "Ablation: drift distance metric (proposed, W=100, NSL-KDD)",
        &["metric", "accuracy (%)", "delay", "false positives"],
    );
    for (name, metric) in [
        ("L1 [paper]", DistanceMetric::L1),
        ("L2", DistanceMetric::L2),
    ] {
        let r = run_metric_variant(&dataset, metric);
        t.push_row(vec![
            name.into(),
            format!("{:.1}", r.0 * 100.0),
            fmt_delay(r.1),
            r.2.to_string(),
        ]);
    }
    vec![t]
}

fn run_metric_variant(
    dataset: &DriftDataset,
    metric: DistanceMetric,
) -> (f64, Option<usize>, usize) {
    use seqdrift_core::pipeline::{DriftPipeline, PipelineConfig};
    use seqdrift_core::reconstruct::ReconstructConfig;

    let dim = dataset.dim();
    let mut model =
        MultiInstanceModel::new(dataset.classes, OsElmConfig::new(dim, 22).with_seed(42))
            .expect("model");
    for (label, bucket) in dataset.train_by_class().iter().enumerate() {
        model.init_train_class(label, bucket).expect("train");
    }
    let pairs: Vec<(usize, &[Real])> = dataset
        .train
        .iter()
        .map(|s| (s.label, s.x.as_slice()))
        .collect();
    let det = DetectorConfig::new(dataset.classes, dim)
        .with_window(100)
        .with_metric(metric);
    let cfg = PipelineConfig::new(det.clone())
        .with_reconstruct(ReconstructConfig::new(200).with_search(20).with_update(50));
    let mut pipe = DriftPipeline::calibrate_with(model, det, &pairs, Some(cfg)).expect("pipeline");
    let mut truth = Vec::new();
    let mut pred = Vec::new();
    let mut detections = Vec::new();
    for (i, s) in dataset.test.iter().enumerate() {
        let out = pipe.process(&s.x).expect("process");
        truth.push(s.label);
        pred.push(out.predicted_label.unwrap());
        if out.drift_detected {
            detections.push(i);
        }
    }
    let retrain: Vec<usize> = pipe
        .events()
        .iter()
        .filter_map(|e| match e {
            seqdrift_core::pipeline::PipelineEvent::Reconstructed { index, .. } => {
                Some(*index as usize)
            }
            _ => None,
        })
        .collect();
    (
        metrics::epoch_permutation_accuracy(&truth, &pred, dataset.classes, &retrain),
        metrics::detection_delay(&detections, dataset.drift_start),
        metrics::false_positives(&detections, dataset.drift_start),
    )
}

/// ONLAD forgetting-rate sweep.
pub fn forgetting(scale: Scale) -> Vec<Table> {
    let dataset = nslkdd_dataset(match scale {
        Scale::Full => Scale::Quick,
        s => s,
    });
    let opts = RunOptions {
        hidden: 22,
        seed: 42,
        accuracy_window: 500,
    };
    let rates: Vec<Real> = vec![0.90, 0.95, 0.97, 0.99, 1.0];
    let results: Vec<_> = crate::par::par_map(&rates, |&forgetting| {
        run_method(&MethodSpec::Onlad { forgetting }, &dataset, &opts)
    });
    let mut t = Table::new(
        "Ablation: ONLAD forgetting rate on NSL-KDD (paper: tuning is difficult)",
        &["forgetting rate", "accuracy (%)"],
    );
    for (rate, r) in rates.iter().zip(results.iter()) {
        t.push_row(vec![
            format!("{rate:.2}"),
            format!("{:.1}", r.accuracy_pct()),
        ]);
    }
    vec![t]
}

/// Environment robustness — the paper records its fan data in silent *and*
/// noisy environments but only evaluates the silent one. Here the model
/// trains on a silent healthy fan and is deployed next to a ventilation
/// fan: the interference band is a genuine distribution change, so the
/// question is not *whether* the detector reacts but whether the system
/// recovers (reconstructs onto the noisy-healthy concept) and then still
/// catches real damage.
pub fn noisy_env(_scale: Scale) -> Vec<Table> {
    use seqdrift_datasets::fan::{self, Environment, FanConfig, FanScenario};

    let cfg = FanConfig::default();
    let opts = RunOptions {
        hidden: 22,
        seed: 42,
        accuracy_window: 100,
    };

    let rows: Vec<(&str, Environment, FanScenario)> = vec![
        (
            "silent deploy, sudden damage @120",
            Environment::Silent,
            FanScenario::Sudden,
        ),
        (
            "noisy deploy, sudden damage @120",
            Environment::Noisy,
            FanScenario::Sudden,
        ),
        (
            "noisy deploy, gradual damage 120-600",
            Environment::Noisy,
            FanScenario::Gradual,
        ),
    ];
    let results: Vec<_> = crate::par::par_map(&rows, |(_, env, scenario)| {
        let d = fan::generate(&cfg, *scenario, *env);
        run_method(&MethodSpec::Proposed { window: 50 }, &d, &opts)
    });

    let mut t = Table::new(
        "Ablation: noisy deployment environment (fan, trained silent, W=50)",
        &[
            "scenario",
            "first detection",
            "delay vs damage onset",
            "detections",
        ],
    );
    for ((name, _, _), r) in rows.iter().zip(results.iter()) {
        let first = r
            .detections
            .first()
            .map(|d| d.to_string())
            .unwrap_or_else(|| "-".into());
        t.push_row(vec![
            (*name).into(),
            first,
            fmt_delay(r.delay),
            r.detections.len().to_string(),
        ]);
    }
    vec![t]
}

/// Recency weighting of the test centroids — §3.2's "it is possible to
/// assign a higher weight to a newer sample" sketch. Running mean (the
/// paper's Algorithm 1) vs EWMA at several alphas, on NSL-KDD.
pub fn recency(scale: Scale) -> Vec<Table> {
    use seqdrift_core::centroid::Recency;
    use seqdrift_core::pipeline::{DriftPipeline, PipelineConfig};
    use seqdrift_core::reconstruct::ReconstructConfig;

    let dataset = nslkdd_dataset(match scale {
        Scale::Full => Scale::Quick,
        s => s,
    });
    let variants: Vec<(String, Recency)> = vec![
        ("running mean [paper]".into(), Recency::RunningMean),
        ("EWMA alpha=0.01".into(), Recency::Ewma(0.01)),
        ("EWMA alpha=0.05".into(), Recency::Ewma(0.05)),
        ("EWMA alpha=0.20".into(), Recency::Ewma(0.20)),
    ];

    let rows: Vec<(String, f64, Option<usize>, usize)> =
        crate::par::par_map(&variants, |(name, recency)| {
            let dim = dataset.dim();
            let mut model =
                MultiInstanceModel::new(dataset.classes, OsElmConfig::new(dim, 22).with_seed(42))
                    .expect("model");
            for (label, bucket) in dataset.train_by_class().iter().enumerate() {
                model.init_train_class(label, bucket).expect("train");
            }
            let pairs: Vec<(usize, &[Real])> = dataset
                .train
                .iter()
                .map(|s| (s.label, s.x.as_slice()))
                .collect();
            let det = DetectorConfig::new(dataset.classes, dim)
                .with_window(100)
                .with_recency(*recency);
            let cfg = PipelineConfig::new(det.clone())
                .with_reconstruct(ReconstructConfig::new(200).with_search(20).with_update(50));
            let mut pipe =
                DriftPipeline::calibrate_with(model, det, &pairs, Some(cfg)).expect("pipeline");
            let mut truth = Vec::new();
            let mut pred = Vec::new();
            let mut detections = Vec::new();
            for (i, s) in dataset.test.iter().enumerate() {
                let out = pipe.process(&s.x).expect("process");
                truth.push(s.label);
                pred.push(out.predicted_label.unwrap());
                if out.drift_detected {
                    detections.push(i);
                }
            }
            let retrain: Vec<usize> = pipe
                .events()
                .iter()
                .filter_map(|e| match e {
                    seqdrift_core::pipeline::PipelineEvent::Reconstructed { index, .. } => {
                        Some(*index as usize)
                    }
                    _ => None,
                })
                .collect();
            (
                name.clone(),
                metrics::epoch_permutation_accuracy(&truth, &pred, dataset.classes, &retrain),
                metrics::detection_delay(&detections, dataset.drift_start),
                metrics::false_positives(&detections, dataset.drift_start),
            )
        });

    let mut t = Table::new(
        "Ablation: test-centroid recency weighting (proposed, W=100, NSL-KDD)",
        &["variant", "accuracy (%)", "delay", "false positives"],
    );
    for (name, acc, delay, fp) in rows {
        t.push_row(vec![
            name,
            format!("{:.1}", acc * 100.0),
            fmt_delay(delay),
            fp.to_string(),
        ]);
    }
    vec![t]
}

/// Incremental drift — the Figure 1 type the paper's evaluation never
/// exercises. Runs the proposed detector over sudden / gradual /
/// incremental streams built from the *same* two concepts and transition
/// interval, so delays are directly comparable.
pub fn incremental(_scale: Scale) -> Vec<Table> {
    use seqdrift_datasets::drift::{compose_single_class, DriftSchedule};
    use seqdrift_datasets::synth::ClassConcept;

    let dim = 16;
    let mut rng = seqdrift_linalg::Rng::seed_from(0x11C0);
    let old = ClassConcept::random_pattern(dim, 0.2, 0.4, 0.05, &mut rng);
    let dims: Vec<usize> = (0..8).collect();
    let new = old.shifted(&dims, 0.45);

    let schedules = [
        ("sudden @200", DriftSchedule::sudden(200)),
        ("gradual 200-600", DriftSchedule::gradual(200, 600)),
        ("incremental 200-600", DriftSchedule::incremental(200, 600)),
    ];
    let windows = [10usize, 50, 150];
    let opts = RunOptions {
        hidden: 12,
        seed: 42,
        accuracy_window: 100,
    };

    let rows: Vec<(String, Vec<Option<usize>>)> =
        crate::par::par_map(&schedules, |(name, schedule)| {
            let d = compose_single_class(&old, &new, *schedule, 120, 1000, 7);
            let delays = windows
                .iter()
                .map(|&w| run_method(&MethodSpec::Proposed { window: w }, &d, &opts).delay)
                .collect();
            (name.to_string(), delays)
        });

    let mut t = Table::new(
        "Ablation: incremental drift (Figure 1's fourth type) vs sudden/gradual — detection delay",
        &["drift type", "W=10", "W=50", "W=150"],
    );
    for (name, delays) in rows {
        t.push_row(vec![
            name,
            fmt_delay(delays[0]),
            fmt_delay(delays[1]),
            fmt_delay(delays[2]),
        ]);
    }
    vec![t]
}

/// Error-rate detectors (DDM, ADWIN) given oracle labels — the §2.2.2
/// family the paper rules out for edge devices because run-time labels are
/// unavailable there. With labels they detect fast; the table shows what
/// that label requirement buys.
pub fn error_rate(scale: Scale) -> Vec<Table> {
    use seqdrift_baselines::{Adwin, Ddm, ErrorRateDetector, ErrorRateVerdict};

    let dataset = nslkdd_dataset(match scale {
        Scale::Full => Scale::Quick,
        s => s,
    });
    // Frozen model's error stream (oracle ground truth consumed at run
    // time — the thing an edge deployment does not have).
    let opts = RunOptions {
        hidden: 22,
        seed: 42,
        accuracy_window: 500,
    };
    let frozen = run_method(&MethodSpec::BaselineNoDetect, &dataset, &opts);
    let proposed = run_method(&MethodSpec::Proposed { window: 100 }, &dataset, &opts);
    let mut model = {
        let mut m = MultiInstanceModel::new(
            dataset.classes,
            OsElmConfig::new(dataset.dim(), 22).with_seed(42),
        )
        .expect("model");
        for (label, bucket) in dataset.train_by_class().iter().enumerate() {
            m.init_train_class(label, bucket).expect("train");
        }
        m
    };
    let errors: Vec<bool> = dataset
        .test
        .iter()
        .map(|s| model.predict(&s.x).expect("predict").label != s.label)
        .collect();

    let run_detector = |det: &mut dyn ErrorRateDetector| -> (Option<usize>, usize) {
        let mut first_after = None;
        let mut fp = 0;
        for (i, &e) in errors.iter().enumerate() {
            if det.push(e) == ErrorRateVerdict::Drift {
                if i >= dataset.drift_start {
                    if first_after.is_none() {
                        first_after = Some(i - dataset.drift_start);
                    }
                } else {
                    fp += 1;
                }
                det.reset();
            }
        }
        (first_after, fp)
    };

    let mut ddm = Ddm::default();
    let (ddm_delay, ddm_fp) = run_detector(&mut ddm);
    let mut adwin = Adwin::default();
    let (adwin_delay, adwin_fp) = run_detector(&mut adwin);

    let mut t = Table::new(
        "Ablation: error-rate detectors with oracle labels vs label-free methods (NSL-KDD)",
        &["detector", "needs labels", "delay", "false positives"],
    );
    t.push_row(vec![
        "DDM".into(),
        "yes".into(),
        fmt_delay(ddm_delay),
        ddm_fp.to_string(),
    ]);
    t.push_row(vec![
        "ADWIN".into(),
        "yes".into(),
        fmt_delay(adwin_delay),
        adwin_fp.to_string(),
    ]);
    t.push_row(vec![
        "Proposed (label-free)".into(),
        "no".into(),
        fmt_delay(proposed.delay),
        proposed.false_positives.to_string(),
    ]);
    t.push_row(vec![
        "Baseline (no detection)".into(),
        "no".into(),
        fmt_delay(frozen.delay),
        frozen.false_positives.to_string(),
    ]);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained() -> CentroidSet {
        let mut s = CentroidSet::zeros(1, 2);
        s.set_centroid(0, &[0.0, 0.0]).unwrap();
        s.set_count(0, 50);
        s
    }

    fn base() -> DetectorConfig {
        DetectorConfig::new(1, 2)
            .with_theta_drift(0.5)
            .with_theta_error(0.0)
    }

    #[test]
    fn any_fires_with_first_member() {
        let mut e = WindowEnsemble::new(&base(), &[5, 50], &trained(), VotePolicy::Any);
        let fired_at = (0..50).find(|_| e.observe(0, &[4.0, 4.0], 1.0));
        // The 5-window member checks at sample 5 (index 4).
        assert_eq!(fired_at, Some(4));
    }

    #[test]
    fn majority_needs_more_than_half() {
        let mut e = WindowEnsemble::new(&base(), &[5, 10, 40], &trained(), VotePolicy::Majority);
        let fired_at = (0..60).find(|_| e.observe(0, &[4.0, 4.0], 1.0));
        // Members flag at their first window close (samples 5, 10, 40);
        // majority (2 of 3) at index 9.
        assert_eq!(fired_at, Some(9));
    }

    #[test]
    fn stationary_stream_never_fires() {
        let mut e = WindowEnsemble::new(&base(), &[5, 20], &trained(), VotePolicy::Any);
        let mut rng = seqdrift_linalg::Rng::seed_from(1);
        for _ in 0..200 {
            let x = [rng.normal(0.0, 0.02), rng.normal(0.0, 0.02)];
            assert!(!e.observe(0, &x, 1.0));
        }
    }

    #[test]
    fn staggered_window_closes_latch_votes_until_reset() {
        // Three members with staggered windows: each flags at its own
        // close (samples 4, 9, 19), and the earlier votes must stay
        // latched while later members are still mid-window.
        let mut e = WindowEnsemble::new(&base(), &[5, 10, 20], &trained(), VotePolicy::Majority);
        for i in 0..4 {
            assert!(!e.observe(0, &[4.0, 4.0], 1.0), "sample {i}");
            assert_eq!(e.flagged, [false, false, false], "sample {i}");
        }
        assert!(!e.observe(0, &[4.0, 4.0], 1.0));
        assert_eq!(e.flagged, [true, false, false]);
        for _ in 5..9 {
            assert!(!e.observe(0, &[4.0, 4.0], 1.0));
        }
        // The 10-window closes: with the 5-window's vote still latched,
        // two of three hold.
        assert!(e.observe(0, &[4.0, 4.0], 1.0));
        assert_eq!(e.flagged, [true, true, false]);
        // No member closes between samples 10 and 18, so only the latch
        // keeps the majority standing.
        for i in 10..19 {
            assert!(e.observe(0, &[4.0, 4.0], 1.0), "sample {i}");
        }
        assert!(e.observe(0, &[4.0, 4.0], 1.0));
        assert_eq!(e.flagged, [true, true, true]);
    }

    #[test]
    fn ensemble_any_is_as_fast_as_fastest_member() {
        let d = fan_dataset(FanScenario::Sudden);
        let single10 = ensemble_first_fire(&d, &[10], VotePolicy::Any, 42);
        let any = ensemble_first_fire(&d, &[10, 50, 150], VotePolicy::Any, 42);
        let s = single10.expect("W=10 detects the sudden drift");
        let a = any.expect("ensemble detects the sudden drift");
        assert_eq!(a, s, "any-vote should fire with its fastest member");
    }

    #[test]
    fn ensemble_majority_slower_than_any() {
        let d = fan_dataset(FanScenario::Sudden);
        let any = ensemble_first_fire(&d, &[10, 50, 150], VotePolicy::Any, 42).unwrap();
        let maj = ensemble_first_fire(&d, &[10, 50, 150], VotePolicy::Majority, 42).unwrap();
        assert!(maj >= any, "majority {maj} earlier than any {any}");
    }

    #[test]
    fn forgetting_sweep_shows_sensitivity() {
        let tables = forgetting(Scale::Quick);
        assert_eq!(tables[0].len(), 5);
        // The table renders percentages; spread across rates should be
        // non-trivial (the "hard to tune" claim) — check via the CSV.
        let csv = tables[0].to_csv();
        let accs: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        let min = accs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = accs.iter().cloned().fold(0.0, f64::max);
        assert!(
            max - min > 2.0,
            "forgetting rate barely matters ({min}..{max}) — unexpected"
        );
    }

    #[test]
    fn distance_ablation_renders() {
        let tables = distance(Scale::Quick);
        assert_eq!(tables[0].len(), 2);
    }
}
