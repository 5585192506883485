//! Checkpoint/restore equivalence: interrupting a stream with
//! `to_bytes`/`from_bytes` must be invisible to the pipeline's outputs.
//!
//! A calibrated pipeline processes N samples, is serialised and restored,
//! and then both the restored copy and the uninterrupted original process
//! the same M further samples. Every `PipelineOutput` field must be
//! bit-identical — the wire format stores exact f32 state, so there is no
//! tolerance here. The every-cut tests do this after each sample of a
//! drifting stream, so the cuts land inside open detection windows and in
//! every phase of a reconstruction.

use seqdrift_core::pipeline::PipelineEvent;
use seqdrift_core::{
    DetectorConfig, DriftPipeline, PipelineConfig, PipelineOutput, ReconstructConfig,
};
use seqdrift_linalg::{Real, Rng};
use seqdrift_oselm::{MultiInstanceModel, OsElmConfig};

const DIM: usize = 5;
const N_BEFORE: usize = 180;
const M_AFTER: usize = 220;

fn sample(rng: &mut Rng, mean: Real) -> Vec<Real> {
    let mut x = vec![0.0; DIM];
    rng.fill_normal(&mut x, mean, 0.05);
    x
}

fn calibrated() -> DriftPipeline {
    let mut rng = Rng::seed_from(5);
    let c0: Vec<Vec<Real>> = (0..80).map(|_| sample(&mut rng, 0.25)).collect();
    let c1: Vec<Vec<Real>> = (0..80).map(|_| sample(&mut rng, 0.75)).collect();
    let mut model = MultiInstanceModel::new(2, OsElmConfig::new(DIM, 4).with_seed(2)).unwrap();
    model.init_train_class(0, &c0).unwrap();
    model.init_train_class(1, &c1).unwrap();
    let pairs: Vec<(usize, &[Real])> = c0
        .iter()
        .map(|x| (0usize, x.as_slice()))
        .chain(c1.iter().map(|x| (1usize, x.as_slice())))
        .collect();
    DriftPipeline::calibrate(model, DetectorConfig::new(2, DIM).with_window(25), &pairs).unwrap()
}

/// The stream alternates the two stable classes, then shifts mid-way
/// through the post-restore segment so the comparison also covers drift
/// detection and reconstruction, not just the steady state.
fn stream(n: usize, seed: u64, shift_from: usize, shift: Real) -> Vec<Vec<Real>> {
    let mut rng = Rng::seed_from(seed);
    (0..n)
        .map(|i| {
            let base = if i % 2 == 0 { 0.25 } else { 0.75 };
            let mean = if i >= shift_from { base + shift } else { base };
            sample(&mut rng, mean)
        })
        .collect()
}

#[test]
fn restore_is_bit_identical_to_uninterrupted_run() {
    let mut original = calibrated();

    let before = stream(N_BEFORE, 31, usize::MAX, 0.0);
    for x in &before {
        original.process(x).unwrap();
    }

    let blob = original.to_bytes().unwrap();
    let mut restored = DriftPipeline::from_bytes(&blob).unwrap();
    assert_eq!(restored.samples_processed(), original.samples_processed());

    // The post-restore stream drifts at sample 100 to exercise detection
    // and reconstruction in lockstep on both copies.
    let after = stream(M_AFTER, 37, 100, 0.4);
    let mut saw_drift = false;
    let mut saw_reconstruction = false;
    for x in &after {
        let a = original.process(x).unwrap();
        let b = restored.process(x).unwrap();
        assert_eq!(a, b, "outputs diverged after restore");
        saw_drift |= a.drift_detected;
        saw_reconstruction |= a.reconstructing;
    }
    assert!(saw_drift, "the comparison stream never triggered a drift");
    assert!(saw_reconstruction);
    assert_eq!(original.events(), restored.events());
}

/// The bits of one output, so `-0.0` and `0.0` (equal as floats) differ.
fn output_bits(o: &PipelineOutput) -> (Option<usize>, u64, u64, [bool; 3]) {
    (
        o.predicted_label,
        u64::from(o.score.to_bits()),
        u64::from(o.drift_distance.to_bits()),
        [o.drift_detected, o.reconstructing, o.sanitized],
    )
}

/// Where a cut landed: a detection window open, a coordinate phase
/// (search, refinement), phase 3 or phase 4 of a reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Cut {
    Window,
    Search,
    Refinement,
    DistanceLabelled,
    PredictionLabelled,
}

/// A `classes`-class pipeline with window 25 and a 60-sample
/// reconstruction (search 6, refinement 15), and a stream of `n` samples
/// cycling the classes that shifts every feature by `shift` from
/// sample `drift_at` on.
fn drifting_case(
    classes: usize,
    n: usize,
    drift_at: usize,
    shift: Real,
) -> (DriftPipeline, Vec<Vec<Real>>) {
    let mean = |c: usize| 0.2 + 0.6 * c as Real / (classes - 1) as Real;
    let mut rng = Rng::seed_from(0xC07 + classes as u64);
    let train: Vec<Vec<Vec<Real>>> = (0..classes)
        .map(|c| (0..80).map(|_| sample(&mut rng, mean(c))).collect())
        .collect();
    let mut model =
        MultiInstanceModel::new(classes, OsElmConfig::new(DIM, 4).with_seed(2)).unwrap();
    for (c, xs) in train.iter().enumerate() {
        model.init_train_class(c, xs).unwrap();
    }
    let pairs: Vec<(usize, &[Real])> = train
        .iter()
        .enumerate()
        .flat_map(|(c, xs)| xs.iter().map(move |x| (c, x.as_slice())))
        .collect();
    let det = DetectorConfig::new(classes, DIM).with_window(25);
    let cfg = PipelineConfig::new(det.clone()).with_reconstruct(ReconstructConfig::new(60));
    let pipeline = DriftPipeline::calibrate_with(model, det, &pairs, Some(cfg)).unwrap();
    let stream = (0..n)
        .map(|i| {
            let moved = if i >= drift_at { shift } else { 0.0 };
            sample(&mut rng, mean(i % classes) + moved)
        })
        .collect();
    (pipeline, stream)
}

/// Checkpoints a drifting stream after every sample and restores each
/// checkpoint: every later output, every later event and the final
/// checkpoint match the uninterrupted run bit for bit, whatever state the
/// cut landed in.
fn every_cut_resumes_bit_identically(classes: usize) {
    let (mut original, stream) = drifting_case(classes, 330, 120, 0.4);
    // Reconstruction schedule of `ReconstructConfig::new(60)`.
    let (search, refinement, half) = (6, 15, 30);
    let mut cuts = Vec::new();
    let mut outputs = Vec::new();
    // Reconstruction steps taken: the drift sample starts it at 0.
    let mut count = 0usize;
    for x in &stream {
        let out = original.process(x).unwrap();
        outputs.push(output_bits(&out));
        count = if out.drift_detected { 0 } else { count + 1 };
        let kind = if original.detector().is_checking() {
            Some(Cut::Window)
        } else if original.is_reconstructing() {
            Some(match count {
                c if c <= search => Cut::Search,
                c if c <= refinement => Cut::Refinement,
                c if c <= half => Cut::DistanceLabelled,
                _ => Cut::PredictionLabelled,
            })
        } else {
            None
        };
        cuts.push((original.to_bytes().unwrap(), kind));
    }
    let events = original.events().to_vec();
    let last = original.to_bytes().unwrap();
    let mut covered: Vec<Cut> = cuts.iter().filter_map(|(_, k)| *k).collect();
    covered.sort();
    covered.dedup();
    assert_eq!(
        covered,
        [
            Cut::Window,
            Cut::Search,
            Cut::Refinement,
            Cut::DistanceLabelled,
            Cut::PredictionLabelled
        ],
        "{classes} classes: the cuts must cover every state"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, PipelineEvent::Reconstructed { .. })),
        "{classes} classes: the stream must finish a reconstruction"
    );
    for (t, (blob, kind)) in cuts.iter().enumerate() {
        let mut restored = DriftPipeline::from_bytes(blob).unwrap();
        assert_eq!(&restored.to_bytes().unwrap(), blob, "cut {t} ({kind:?})");
        for (i, x) in stream.iter().enumerate().skip(t + 1) {
            let out = output_bits(&restored.process(x).unwrap());
            assert_eq!(out, outputs[i], "cut {t} ({kind:?}): sample {i} diverged");
        }
        let later: Vec<PipelineEvent> = events
            .iter()
            .copied()
            .filter(|e| event_index(e) > t as u64)
            .collect();
        assert_eq!(restored.events(), later, "cut {t} ({kind:?}): events");
        assert_eq!(
            restored.to_bytes().unwrap(),
            last,
            "cut {t} ({kind:?}): final state"
        );
    }
}

fn event_index(e: &PipelineEvent) -> u64 {
    match *e {
        PipelineEvent::DriftDetected { index, .. }
        | PipelineEvent::Reconstructed { index, .. }
        | PipelineEvent::Degraded { index, .. }
        | PipelineEvent::Recovered { index } => index,
    }
}

#[test]
fn every_cut_of_a_two_class_drift_resumes_bit_identically() {
    every_cut_resumes_bit_identically(2);
}

#[test]
fn every_cut_of_a_three_class_drift_resumes_bit_identically() {
    every_cut_resumes_bit_identically(3);
}
