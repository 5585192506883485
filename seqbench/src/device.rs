//! `device-511`: one `DriftPipeline` on one thread, closed loop, the
//! paper's own device case (Table 6 shape).
//!
//! The input is a pool of 8 scenario sessions of 6,000 rows each, replayed
//! back to back. Each session carries one reoccurring drift (new concept
//! on rows 1,500..3,500), so about 6.7% of samples are reconstruction
//! samples. The workload bypasses `fleet`, `store` and `server`.

use std::time::{Duration, Instant};

use seqdrift_core::DriftPipeline;
use seqdrift_oselm::MultiInstanceModel;

use crate::hist::Hist;
use crate::inputs::{Inputs, DEVICE};
use crate::oracle::{self, Quality};
use crate::report::{us, Rep, Values, PREALLOCATED_NS};
use crate::trace::{Probe, Recorder};
use crate::Opts;

/// Shadow-model probes run on one sample in this many (traced only).
const SHADOW_EVERY: u64 = 16;
/// The shadow model is re-cloned from the live one this often.
const SHADOW_REFRESH: u64 = 1_024;
/// `to_bytes` probes run on one sample in this many (traced only).
const TO_BYTES_EVERY: u64 = 64;
/// Samples between checks of the clock.
const CHECK_EVERY: u64 = 64;

/// What one measured phase produced.
struct Phase {
    latency: Hist,
    attempted: u64,
    failed: u64,
    processed: u64,
    detections: Vec<u64>,
    quality: Quality,
    checkpoint_bytes: usize,
    rec: Recorder,
    started: Instant,
    ended: Instant,
}

/// Replays the pool through `p` for `length`. `latency` and `detections`
/// come preallocated.
fn measure(
    inp: &Inputs,
    mut p: DriftPipeline,
    length: Duration,
    traced: bool,
    mut latency: Hist,
    mut detections: Vec<u64>,
) -> Phase {
    let spec = inp.spec;
    let rows = (spec.sessions * spec.samples) as u64;
    let started = Instant::now();
    let mut rec = Recorder::new(traced, started);
    let mut shadow: Option<MultiInstanceModel> = None;
    let mut checkpoint_bytes = 0;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut quality = Quality::default();
    let mut g: u64 = 0;
    let ended = loop {
        let slot = g % rows;
        let session = (slot / spec.samples as u64) as usize;
        let i = slot % spec.samples as u64;
        let x = inp.row(session, i);
        let was_recon = p.is_reconstructing();
        let was_checking = p.detector().is_checking();
        let t0 = Instant::now();
        let out = p.process(x);
        let t1 = Instant::now();
        attempted += 1;
        latency.record_duration(t1 - t0);
        match out {
            Ok(out) => {
                if traced {
                    let probe = if out.reconstructing {
                        Probe::ProcessRecon
                    } else {
                        Probe::ProcessStable
                    };
                    rec.record(probe, t0, t1, 0, session as u64);
                }
                if out.drift_detected {
                    detections.push(g);
                }
                if g < rows {
                    quality
                        .accuracy
                        .push(inp.label(session, i), out.predicted_label);
                    quality
                        .ops
                        .observe(&p, spec.hidden, was_recon, was_checking, &out);
                    if was_recon && !p.is_reconstructing() {
                        quality.accuracy.close_epoch();
                    }
                }
            }
            Err(_) => failed += 1,
        }
        if traced {
            shadow_probes(
                &mut rec,
                &p,
                &mut shadow,
                &mut checkpoint_bytes,
                g,
                x,
                session,
            );
        }
        g += 1;
        if g.is_multiple_of(spec.samples as u64) {
            p.drain_events();
        }
        if g.is_multiple_of(CHECK_EVERY) && t1 - started >= length {
            break t1;
        }
    };
    Phase {
        latency,
        attempted,
        failed,
        processed: g,
        detections,
        quality,
        checkpoint_bytes,
        rec,
        started,
        ended,
    }
}

/// Times `MultiInstanceModel::predict` / `seq_train_label` on a shadow
/// copy of the live model, and `to_bytes` of the live pipeline.
fn shadow_probes(
    rec: &mut Recorder,
    p: &DriftPipeline,
    shadow: &mut Option<MultiInstanceModel>,
    checkpoint_bytes: &mut usize,
    g: u64,
    x: &[seqdrift_linalg::Real],
    session: usize,
) {
    if g.is_multiple_of(SHADOW_REFRESH) {
        *shadow = Some(p.model().clone());
    }
    if let Some(model) = shadow.as_mut().filter(|_| g.is_multiple_of(SHADOW_EVERY)) {
        let t0 = Instant::now();
        let label = model.predict(x).map(|pr| pr.label);
        let t1 = Instant::now();
        rec.record(Probe::Predict, t0, t1, 0, session as u64);
        if let Ok(label) = label {
            let t0 = Instant::now();
            let _ = model.seq_train_label(label, x);
            rec.record(Probe::SeqTrain, t0, Instant::now(), 0, session as u64);
        }
    }
    if g.is_multiple_of(TO_BYTES_EVERY) && !p.is_reconstructing() {
        let t0 = Instant::now();
        if let Ok(blob) = p.to_bytes() {
            rec.record(Probe::ToBytes, t0, Instant::now(), 0, session as u64);
            *checkpoint_bytes = blob.len();
        }
    }
}

/// Checks exactly one detection per onset and none before the first.
fn check(inp: &Inputs, ph: &Phase) -> Result<(), String> {
    // Sessions sit back to back with identical onsets, so session 0's
    // cycle describes the whole pool.
    let onsets = oracle::onsets(inp, 0, ph.processed);
    oracle::one_detection_per_onset(&ph.detections, &onsets, ph.processed)
        .map_err(|e| format!("pool row offsets: {e}"))
}

/// One repetition of `device-511`.
pub fn rep(opts: &Opts, length: Duration, traced: bool) -> Result<Rep, String> {
    let t = Instant::now();
    let inp = Inputs::synthesize(DEVICE, opts.seed)?;
    // The phase's buffers exist before the heap mark.
    let latency = Hist::with_range(PREALLOCATED_NS);
    let detections = Vec::with_capacity(1 << 16);
    let heap_base = crate::alloc::mark();
    let t1 = Instant::now();
    let p = DriftPipeline::from_bytes(&inp.reference).map_err(|e| e.to_string())?;
    let from_bytes_ms = t1.elapsed().as_secs_f64() * 1e3;
    let setup_s = t.elapsed().as_secs_f64();

    let ph = measure(&inp, p, length, traced, latency, detections);
    let mem_mib = crate::alloc::peak_mib_since(heap_base);
    let onsets = oracle::onsets(
        &inp,
        0,
        ph.processed.min((DEVICE.sessions * DEVICE.samples) as u64),
    );
    let (sum, n) = oracle::delays(&ph.detections, &onsets, u64::MAX);
    let mut rep = Rep {
        setup_s,
        work: ph.attempted - ph.failed,
        secs: (ph.ended - ph.started).as_secs_f64(),
        mem_mib,
        delay: sum as f64 / n.max(1) as f64,
        accuracy: ph.quality.accuracy.value(),
        attempted: ph.attempted,
        failed: ph.failed,
        mismatch: check(&inp, &ph).err(),
        notes: vec![
            format!("input_digest {:016x}", inp.digest()),
            format!(
                "detections {} over {} samples, {n} onsets scored",
                ph.detections.len(),
                ph.processed
            ),
        ],
        ..Rep::default()
    };
    if traced {
        let rec = &ph.rec;
        let mut l = Values::new();
        l.insert("scenario.synth_s", inp.synth_s);
        l.insert("core.calibrate_s", inp.calibrate_s);
        l.insert("core.from_bytes_ms", from_bytes_ms);
        for (probe, p50, p99) in [
            (
                Probe::ProcessStable,
                "core.process_us.stable.p50",
                "core.process_us.stable.p99",
            ),
            (
                Probe::ProcessRecon,
                "core.process_us.recon.p50",
                "core.process_us.recon.p99",
            ),
            (
                Probe::ToBytes,
                "core.to_bytes_us.p50",
                "core.to_bytes_us.p99",
            ),
            (
                Probe::Predict,
                "oselm.predict_us.p50",
                "oselm.predict_us.p99",
            ),
            (
                Probe::SeqTrain,
                "oselm.seq_train_us.p50",
                "oselm.seq_train_us.p99",
            ),
        ] {
            l.insert(p50, us(rec.hist(probe).quantile(0.5)));
            l.insert(p99, us(rec.hist(probe).quantile(0.99)));
        }
        l.insert("core.recon_share", ph.quality.ops.recon_share());
        l.insert("core.checkpoint_bytes", ph.checkpoint_bytes as f64);
        l.insert("linalg.flops_per_sample", ph.quality.ops.flops_per_sample());
        rep.layer = l;
        let parents = [rec.parent_span(DEVICE.name, ph.started, ph.ended, 0)];
        let path = opts.spans_path(DEVICE.name);
        rec.write_spans(&path, &parents)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        rep.notes.push(format!(
            "spans {} ({} dropped)",
            path.display(),
            rec.spans_dropped()
        ));
    }
    rep.latency = ph.latency;
    Ok(rep)
}
