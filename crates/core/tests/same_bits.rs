//! Golden cross-version digests of `DriftPipeline`.
//!
//! Every optimisation of the per-sample path (blocked kernels, reused
//! predictions, double-buffered `β`, interleaved distance sums, the guard
//! screen) promises the *same bits* as the straightforward code. The
//! in-crate tests compare the new code against the old code kept beside
//! it; this file is the independent oracle: digests recorded once from a
//! build that predates those optimisations, and checked against every
//! later build.
//!
//! Each case runs a calibrated pipeline over a stream with two sudden
//! drifts (so detection, both reconstructions and the post-reconstruction
//! steady state are covered) and takes the full `to_bytes` checkpoint
//! after every sample. It folds two FNV-1a digests:
//! - `at_rest`: every output (label, score bits, drift-distance bits and
//!   flags) and every checkpoint taken with no detection window open and
//!   no reconstruction running;
//! - `in_motion`: every other checkpoint, taken inside an open window or
//!   mid-reconstruction.
//!
//! The at-rest format predates the in-motion one, so the two are pinned
//! apart: a change to the in-motion format re-records only its digest.
//!
//! A digest mismatch means some sample produced different bits. Bisect
//! with the per-sample outputs, not by editing the constants; they are
//! only ever re-recorded for a deliberate change of numerics.

use seqdrift_core::{DetectorConfig, DriftPipeline, PipelineConfig, ReconstructConfig};
use seqdrift_linalg::{Real, Rng};
use seqdrift_oselm::autoencoder::ScoreMetric;
use seqdrift_oselm::{Autoencoder, MultiInstanceModel, OsElmConfig};

/// One golden case.
struct Case {
    name: &'static str,
    dim: usize,
    hidden: usize,
    /// Score metric per class instance (its length is the class count).
    metrics: &'static [ScoreMetric],
    forgetting: Option<Real>,
    train_on_stable: bool,
    /// Outputs plus at-rest checkpoints.
    at_rest: u64,
    /// Open-window and mid-reconstruction checkpoints.
    in_motion: u64,
}

const SQ: ScoreMetric = ScoreMetric::MeanSquared;
const ABS: ScoreMetric = ScoreMetric::MeanAbsolute;

const CASES: &[Case] = &[
    Case {
        name: "511/22 (paper device shape)",
        dim: 511,
        hidden: 22,
        metrics: &[SQ, SQ],
        forgetting: None,
        train_on_stable: false,
        at_rest: 0x87ba_ba8b_0985_94d4,
        in_motion: 0xee3c_dc86_b245_42ec,
    },
    Case {
        name: "38/16 (NSL-KDD shape), training on stable samples",
        dim: 38,
        hidden: 16,
        metrics: &[SQ, SQ],
        forgetting: None,
        train_on_stable: true,
        at_rest: 0x2c7e_a76d_54fb_b82c,
        in_motion: 0xd39d_a09a_ce69_1d4a,
    },
    Case {
        name: "H = 21, forgetting, training on stable samples",
        dim: 45,
        hidden: 21,
        metrics: &[SQ, SQ],
        forgetting: Some(0.99),
        train_on_stable: true,
        at_rest: 0xc124_5c83_78df_a3d1,
        in_motion: 0x77d2_1636_3d3d_b194,
    },
    Case {
        name: "H = 23",
        dim: 61,
        hidden: 23,
        metrics: &[SQ, SQ],
        forgetting: None,
        train_on_stable: false,
        at_rest: 0x1d5a_e1a3_1180_9581,
        in_motion: 0xc77f_57a7_a6f7_93b3,
    },
    Case {
        name: "C = 3 with MeanAbsolute scoring",
        dim: 29,
        hidden: 12,
        metrics: &[ABS, SQ, ABS],
        forgetting: None,
        train_on_stable: true,
        at_rest: 0x0d2d_786c_7368_34b7,
        in_motion: 0x8dee_614c_2219_6b17,
    },
];

const TRAIN_PER_CLASS: usize = 80;
const SAMPLES: usize = 1_400;
const DRIFTS_AT: [usize; 2] = [300, 850];
const DRIFT_SHIFT: Real = 0.35;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn real(&mut self, v: Real) {
        self.bytes(&v.to_bits().to_le_bytes());
    }
}

/// Per-class concept means in `[0.15, 0.85]`, drawn from `seed`.
fn concept(dim: usize, classes: usize, rng: &mut Rng) -> Vec<Vec<Real>> {
    (0..classes)
        .map(|_| {
            let mut m = vec![0.0; dim];
            rng.fill_uniform(&mut m, 0.15, 0.85);
            m
        })
        .collect()
}

/// A sample of the concept `mean` after `drifts` drifts: the first moves
/// the first half of the features up, the second the other half.
fn sample(mean: &[Real], drifts: usize, rng: &mut Rng) -> Vec<Real> {
    let mut x = vec![0.0; mean.len()];
    rng.fill_normal(&mut x, 0.0, 0.04);
    let half = mean.len() / 2;
    for (i, (v, &m)) in x.iter_mut().zip(mean).enumerate() {
        let moved = if i < half { drifts >= 1 } else { drifts >= 2 };
        *v += m + if moved { DRIFT_SHIFT } else { 0.0 };
    }
    x
}

/// The calibrated pipeline of `case` and its two-drift stream.
fn prepare(case: &Case) -> (DriftPipeline, Vec<Vec<Real>>) {
    let classes = case.metrics.len();
    let mut rng = Rng::seed_from(0x5A3E_B175 ^ case.dim as u64);
    let means = concept(case.dim, classes, &mut rng);
    let mut cfg = OsElmConfig::new(case.dim, case.hidden).with_seed(case.dim as u64);
    if let Some(alpha) = case.forgetting {
        cfg = cfg.with_forgetting(alpha);
    }
    let instances = case
        .metrics
        .iter()
        .enumerate()
        .map(|(c, &metric)| {
            let inst_cfg = cfg.clone().with_seed(cfg.seed.wrapping_add(c as u64));
            Autoencoder::new(inst_cfg).unwrap().with_metric(metric)
        })
        .collect();
    let mut model = MultiInstanceModel::from_instances(instances).unwrap();
    let train: Vec<(usize, Vec<Real>)> = (0..TRAIN_PER_CLASS * classes)
        .map(|i| (i % classes, sample(&means[i % classes], 0, &mut rng)))
        .collect();
    for c in 0..classes {
        let xs: Vec<Vec<Real>> = train
            .iter()
            .filter(|(l, _)| *l == c)
            .map(|(_, x)| x.clone())
            .collect();
        model.init_train_class(c, &xs).unwrap();
    }
    let pairs: Vec<(usize, &[Real])> = train.iter().map(|(l, x)| (*l, x.as_slice())).collect();
    let det = DetectorConfig::new(classes, case.dim).with_window(50);
    let pipe_cfg = PipelineConfig::new(det.clone())
        .with_reconstruct(ReconstructConfig::new(200))
        .with_train_on_stable(case.train_on_stable);
    let pipe = DriftPipeline::calibrate_with(model, det, &pairs, Some(pipe_cfg)).unwrap();
    let stream = (0..SAMPLES)
        .map(|t| {
            let drifts_so_far = DRIFTS_AT.iter().filter(|&&at| t >= at).count();
            sample(&means[t % classes], drifts_so_far, &mut rng)
        })
        .collect();
    (pipe, stream)
}

fn run(case: &Case) -> (u64, u64, usize, usize) {
    let (mut pipe, stream) = prepare(case);
    let (mut at_rest, mut in_motion) = (Fnv::new(), Fnv::new());
    let (mut drifts, mut reconstructing) = (0, 0);
    for x in &stream {
        let out = pipe.process(x).unwrap();
        let label = out.predicted_label.map_or(u64::MAX, |l| l as u64);
        at_rest.bytes(&label.to_le_bytes());
        at_rest.real(out.score);
        at_rest.real(out.drift_distance);
        at_rest.bytes(&[
            out.drift_detected as u8,
            out.reconstructing as u8,
            out.sanitized as u8,
        ]);
        let blob = pipe.to_bytes().unwrap();
        if pipe.is_reconstructing() || pipe.detector().is_checking() {
            in_motion.bytes(&blob);
        } else {
            at_rest.bytes(&blob);
        }
        drifts += out.drift_detected as usize;
        reconstructing += out.reconstructing as usize;
    }
    (at_rest.0, in_motion.0, drifts, reconstructing)
}

#[test]
fn pipeline_outputs_and_checkpoints_match_the_recorded_digests() {
    if std::mem::size_of::<Real>() != 4 {
        // The digests are of f32 bits; the f64 build has its own numerics.
        return;
    }
    let mut mismatches = Vec::new();
    for case in CASES {
        let (at_rest, in_motion, drifts, reconstructing) = run(case);
        assert!(
            drifts >= 2 && reconstructing > 0,
            "{}: stream must drift twice and reconstruct ({drifts} drifts)",
            case.name
        );
        if (at_rest, in_motion) != (case.at_rest, case.in_motion) {
            mismatches.push(format!(
                "{}: got at_rest {at_rest:#018x}, in_motion {in_motion:#018x}",
                case.name
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "digest mismatch:\n{}",
        mismatches.join("\n")
    );
}

/// Every checkpoint is written with one allocation of exactly its
/// length, at rest (kind 16), inside an open window and mid-reconstruction
/// (kind 17), at the paper's device shape and the NSL-KDD shape.
#[test]
fn checkpoints_are_allocated_at_their_exact_length() {
    for case in &CASES[..2] {
        let (mut pipe, stream) = prepare(case);
        let (mut at_rest, mut window, mut reconstruction) = (0, 0, 0);
        for (t, x) in stream.iter().enumerate() {
            pipe.process(x).unwrap();
            let blob = pipe.to_bytes().unwrap();
            assert_eq!(blob.len(), blob.capacity(), "{}: sample {t}", case.name);
            let kind = u16::from_le_bytes([blob[6], blob[7]]);
            if pipe.is_reconstructing() {
                assert_eq!(kind, 17);
                reconstruction += 1;
            } else if pipe.detector().is_checking() {
                assert_eq!(kind, 17);
                window += 1;
            } else {
                assert_eq!(kind, 16);
                at_rest += 1;
            }
        }
        assert!(
            at_rest > 0 && window > 0 && reconstruction > 0,
            "{}: {at_rest} at rest, {window} in a window, {reconstruction} reconstructing",
            case.name
        );
    }
}

/// Two replays of one stream from one checkpoint end in the same state,
/// down to their `Debug` text, which prints every field (scratch buffers
/// included). Replay oracles compare pipelines that way, so nothing
/// per-instance, such as a model's prediction stamp, may show in it.
#[test]
fn replays_of_one_stream_print_the_same_state() {
    let (pipe, stream) = prepare(&CASES[2]);
    let blob = pipe.to_bytes().unwrap();
    let mut a = DriftPipeline::from_bytes(&blob).unwrap();
    let mut b = DriftPipeline::from_bytes(&blob).unwrap();
    for (t, x) in stream.iter().enumerate() {
        assert_eq!(a.process(x).unwrap(), b.process(x).unwrap());
        if t % 100 == 0 {
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "sample {t}");
        }
    }
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}
