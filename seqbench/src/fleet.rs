//! `fleet-mem` and `fleet-durable`: one producer thread round-robins
//! `FleetEngine::feed_blocking` over 64 sessions (2 workers, 1,024-deep
//! queues, a checkpoint every 64 samples), then calls `shutdown()`.
//!
//! Each sample costs about a microsecond of pipeline work, so the
//! registry locks, the per-sample copy, channel crossings and the rolling
//! checkpoints dominate `fleet-mem`. `fleet-durable` adds a state
//! directory: every checkpoint becomes an fsync'd atomic `Store::put`.

use std::path::Path;
use std::time::{Duration, Instant};

use seqdrift_core::pipeline::PipelineEvent;
use seqdrift_core::DriftPipeline;
use seqdrift_fleet::{FleetConfig, FleetEngine, FleetEvent, MetricsSnapshot, SessionId};
use seqdrift_store::{Store, StoreConfig};

use crate::hist::Hist;
use crate::inputs::{Inputs, FLEET};
use crate::oracle::{self, PermAccuracy, Quality};
use crate::report::{us, Rep, Values, PREALLOCATED_NS};
use crate::trace::{Probe, Recorder};
use crate::Opts;

/// Worker threads.
pub const WORKERS: usize = 2;
/// Per-shard queue bound.
pub const QUEUE: usize = 1_024;
/// Rolling-checkpoint cadence, samples.
pub const CHECKPOINT_EVERY: u64 = 64;
/// Checkpoint generations kept on disk.
const KEEP_GENERATIONS: usize = 2;
/// Sessions the oracle replays.
const ORACLE_SESSIONS: usize = 4;
/// Quality figures cover each session's first stream cycle, which every
/// repetition completes.
const QUALITY_PREFIX: u64 = FLEET.samples as u64;
/// Rounds (one feed per session) between traced shadow probes.
const PROBE_ROUNDS: u64 = 64;
/// `Store::put` calls timed in the sibling store (before scaling).
const SIBLING_PUTS: f64 = 1_000.0;

/// The engine configuration of both fleet workloads.
pub fn config(state_dir: Option<&Path>) -> FleetConfig {
    let cfg = FleetConfig::new(WORKERS)
        .with_queue_capacity(QUEUE)
        .with_checkpoint_interval(CHECKPOINT_EVERY);
    match state_dir {
        Some(dir) => cfg
            .with_state_dir(dir)
            .with_state_keep_generations(KEEP_GENERATIONS),
        None => cfg,
    }
}

/// Starts an engine with every session created from the reference.
fn start(inp: &Inputs, state_dir: Option<&Path>) -> Result<FleetEngine, String> {
    let fleet = FleetEngine::new(config(state_dir)).map_err(|e| e.to_string())?;
    for s in 0..inp.spec.sessions as u64 {
        fleet
            .create_from_bytes(SessionId(s), &inp.reference)
            .map_err(|e| format!("session {s}: {e}"))?;
    }
    Ok(fleet)
}

/// Drift indices per session from drained fleet events.
fn collect_detections(events: Vec<FleetEvent>, into: &mut [Vec<u64>]) {
    for e in events {
        if let FleetEvent::Pipeline {
            id,
            event: PipelineEvent::DriftDetected { index, .. },
        } = e
        {
            if let Some(d) = into.get_mut(id.0 as usize) {
                d.push(index);
            }
        }
    }
}

/// Quality over every session's prefix: mean detection delay from the
/// system's own drift events, accuracy and operation mix from replays.
struct FleetQuality {
    /// Sum and count of onset-to-detection delays.
    pub delay: (u64, u64),
    /// Accuracy over the replayed sessions.
    pub accuracy: PermAccuracy,
    /// Replayed quality, merged.
    pub replayed: Vec<Quality>,
}

/// Checks the oracle sessions of a finished fleet run and computes the
/// quality figures. `finals` are the final pipelines by session id.
fn verify(
    inp: &Inputs,
    received: &[u64],
    detections: &[Vec<u64>],
    finals: &[(SessionId, DriftPipeline)],
    sessions: &[usize],
) -> Result<FleetQuality, String> {
    let mut delay = (0, 0);
    for (s, d) in detections.iter().enumerate() {
        let limit = received[s].min(QUALITY_PREFIX);
        let (sum, n) = oracle::delays(d, &oracle::onsets(inp, s, limit), limit);
        delay.0 += sum;
        delay.1 += n;
    }
    let mut accuracy = PermAccuracy::default();
    let mut replayed = Vec::new();
    for &s in sessions {
        let system = finals
            .iter()
            .find(|(id, _)| id.0 == s as u64)
            .map(|(_, p)| p)
            .ok_or_else(|| format!("session {s}: missing from the final report"))?;
        let q = oracle::check_session(
            inp,
            s,
            received[s],
            system,
            Some(&detections[s]),
            QUALITY_PREFIX,
        )?
        .quality;
        accuracy.merge(&q.accuracy);
        replayed.push(q);
    }
    Ok(FleetQuality {
        delay,
        accuracy,
        replayed,
    })
}

/// What one measured phase produced.
struct Phase {
    latency: Hist,
    attempted: u64,
    failed: u64,
    received: Vec<u64>,
    detections: Vec<Vec<u64>>,
    finals: Vec<(SessionId, DriftPipeline)>,
    metrics: MetricsSnapshot,
    lost: usize,
    busy_share: f64,
    depth: (f64, usize),
    drain_ms: f64,
    disk_bytes: u64,
    checkpoint_bytes: usize,
    /// Session 0's last checkpoint (traced `fleet-durable` only).
    live_blob: Option<Vec<u8>>,
    rec: Recorder,
    started: Instant,
    ended: Instant,
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Times `Store::put` of a live checkpoint blob into a sibling store on
/// the same filesystem.
fn sibling_puts(opts: &Opts, blob: &[u8], rec: &mut Recorder) -> Result<Hist, String> {
    let dir = opts.state_dir("sibling");
    let store = Store::open_with(
        &dir,
        StoreConfig::default().with_keep_generations(KEEP_GENERATIONS),
    )
    .map_err(|e| e.to_string())?;
    let puts = ((SIBLING_PUTS * opts.scale).ceil() as u64).max(10);
    let mut h = Hist::new();
    for k in 0..puts {
        let t0 = Instant::now();
        store.put(k % 64, blob).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        h.record_duration(t1 - t0);
        rec.record(Probe::StorePut, t0, t1, 0, k % 64);
    }
    drop(store);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(h)
}

/// What the producer thread recorded.
struct Produced {
    attempted: u64,
    failed: u64,
    received: Vec<u64>,
    busy: Duration,
    depth: (f64, usize),
    checkpoint_bytes: usize,
    rec: Recorder,
    feed_end: Instant,
}

/// Round-robins `feed_blocking` over every session until `length` has
/// passed since `started`, timing every feed into `latency`.
fn produce(
    inp: &Inputs,
    fleet: &FleetEngine,
    traced: bool,
    started: Instant,
    length: Duration,
    latency: &mut Hist,
    detections: &mut [Vec<u64>],
) -> Produced {
    let sessions = inp.spec.sessions;
    let mut rec = Recorder::new(traced, started);
    let mut received = vec![0u64; sessions];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut busy = Duration::ZERO;
    let (mut depth_sum, mut depth_n, mut depth_max) = (0u64, 0u64, 0usize);
    let mut next_depth_sample = started;
    let mut checkpoint_bytes = 0;
    let mut round: u64 = 0;
    let feed_end = loop {
        for (s, sent) in received.iter_mut().enumerate() {
            let x = inp.row(s, *sent);
            let t0 = Instant::now();
            let res = fleet.feed_blocking(SessionId(s as u64), x);
            let t1 = Instant::now();
            attempted += 1;
            match res {
                Ok(()) => *sent += 1,
                Err(_) => failed += 1,
            }
            latency.record_duration(t1 - t0);
            busy += t1 - t0;
            if traced {
                rec.record(Probe::Feed, t0, t1, 0, s as u64);
                if t1 >= next_depth_sample {
                    next_depth_sample = t1 + Duration::from_millis(1);
                    for shard in 0..WORKERS as u64 {
                        let d = fleet.queue_depth(SessionId(shard));
                        depth_sum += d as u64;
                        depth_n += 1;
                        depth_max = depth_max.max(d);
                    }
                }
            }
        }
        round += 1;
        if round.is_multiple_of(16) {
            collect_detections(fleet.drain_events(), detections);
        }
        if traced && round.is_multiple_of(PROBE_ROUNDS) {
            let s = ((round / PROBE_ROUNDS) % sessions as u64) as usize;
            checkpoint_probes(fleet, inp, s, received[s], &mut rec, &mut checkpoint_bytes);
        }
        let now = Instant::now();
        if now - started >= length {
            break now;
        }
    };
    Produced {
        attempted,
        failed,
        received,
        busy,
        depth: (depth_sum as f64 / depth_n.max(1) as f64, depth_max),
        checkpoint_bytes,
        rec,
        feed_end,
    }
}

/// Feeds `fleet` for `length`, then shuts it down. The phase runs from
/// the first feed until `shutdown()` returns.
fn measure(
    inp: &Inputs,
    fleet: FleetEngine,
    length: Duration,
    traced: bool,
    state_dir: Option<&Path>,
    mut latency: Hist,
    mut detections: Vec<Vec<u64>>,
) -> Phase {
    let started = Instant::now();
    let p = produce(
        inp,
        &fleet,
        traced,
        started,
        length,
        &mut latency,
        &mut detections,
    );
    let live_blob = (traced && state_dir.is_some())
        .then(|| fleet.last_checkpoint(SessionId(0)))
        .flatten();
    let report = fleet.shutdown();
    let ended = Instant::now();
    collect_detections(report.events, &mut detections);
    Phase {
        latency,
        busy_share: p.busy.as_secs_f64() / (p.feed_end - started).as_secs_f64().max(1e-9),
        depth: p.depth,
        drain_ms: (ended - p.feed_end).as_secs_f64() * 1e3,
        attempted: p.attempted,
        failed: p.failed,
        received: p.received,
        detections,
        lost: report.lost.len() + report.quarantined.len(),
        finals: report.sessions,
        metrics: report.metrics,
        disk_bytes: state_dir.map_or(0, dir_bytes),
        checkpoint_bytes: p.checkpoint_bytes,
        live_blob,
        rec: p.rec,
        started,
        ended,
    }
}

/// Times `to_bytes` of a pipeline restored from session `s`'s live
/// checkpoint, and `predict` / `seq_train_label` on a copy of its model.
fn checkpoint_probes(
    fleet: &FleetEngine,
    inp: &Inputs,
    s: usize,
    next_row: u64,
    rec: &mut Recorder,
    checkpoint_bytes: &mut usize,
) {
    let Some(blob) = fleet.last_checkpoint(SessionId(s as u64)) else {
        return;
    };
    let Ok(p) = DriftPipeline::from_bytes(&blob) else {
        return;
    };
    let t0 = Instant::now();
    if let Ok(b) = p.to_bytes() {
        rec.record(Probe::ToBytes, t0, Instant::now(), 0, s as u64);
        *checkpoint_bytes = b.len();
    }
    let mut model = p.model().clone();
    let x = inp.row(s, next_row);
    let t0 = Instant::now();
    let label = model.predict(x).map(|pr| pr.label);
    rec.record(Probe::Predict, t0, Instant::now(), 0, s as u64);
    if let Ok(label) = label {
        let t0 = Instant::now();
        let _ = model.seq_train_label(label, x);
        rec.record(Probe::SeqTrain, t0, Instant::now(), 0, s as u64);
    }
}

/// Whole-run checks of a fleet phase plus the oracle replays.
fn check(inp: &Inputs, seed: u64, ph: &Phase) -> Result<FleetQuality, String> {
    let sent: u64 = ph.received.iter().sum();
    if ph.lost > 0 {
        return Err(format!("{} session(s) lost or quarantined", ph.lost));
    }
    if ph.metrics.samples_processed != sent || ph.metrics.samples_dropped != 0 {
        return Err(format!(
            "fleet applied {} and dropped {} of {sent} samples sent",
            ph.metrics.samples_processed, ph.metrics.samples_dropped
        ));
    }
    let sessions = oracle::pick_sessions(seed, inp.spec.sessions, ORACLE_SESSIONS);
    verify(inp, &ph.received, &ph.detections, &ph.finals, &sessions)
}

/// One repetition of `fleet-mem` (`durable == false`) or `fleet-durable`.
pub fn rep(opts: &Opts, length: Duration, traced: bool, durable: bool) -> Result<Rep, String> {
    let name = if durable {
        "fleet-durable"
    } else {
        "fleet-mem"
    };
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    let t = Instant::now();
    let inp = Inputs::synthesize(FLEET, opts.seed)?;
    // The phase's buffers exist before the heap mark.
    let latency = Hist::with_range(PREALLOCATED_NS);
    let detections = (0..inp.spec.sessions)
        .map(|_| Vec::with_capacity(1 << 10))
        .collect();
    let heap_base = crate::alloc::mark();
    let dir = durable.then(|| opts.state_dir("state"));
    let t1 = Instant::now();
    let fleet = start(&inp, dir.as_deref())?;
    let create_ms = t1.elapsed().as_secs_f64() * 1e3;
    let setup_s = t.elapsed().as_secs_f64();

    let mut ph = measure(
        &inp,
        fleet,
        length,
        traced,
        dir.as_deref(),
        latency,
        detections,
    );
    let mem_mib = crate::alloc::peak_mib_since(heap_base);
    remove_state(dir.as_deref())?;
    let verdict = check(&inp, opts.seed, &ph);
    let failed = ph.failed + ph.metrics.samples_dropped;
    let mut rep = Rep {
        setup_s,
        work: ph.metrics.samples_processed,
        secs: (ph.ended - ph.started).as_secs_f64(),
        mem_mib,
        attempted: ph.attempted,
        failed,
        notes: vec![format!("input_digest {:016x}", inp.digest())],
        ..Rep::default()
    };
    match &verdict {
        Ok(q) => {
            rep.delay = q.delay.0 as f64 / q.delay.1.max(1) as f64;
            rep.accuracy = q.accuracy.value();
            rep.notes.push(format!(
                "{} onsets scored; oracle replayed sessions {:?}",
                q.delay.1,
                oracle::pick_sessions(opts.seed, inp.spec.sessions, ORACLE_SESSIONS)
            ));
        }
        Err(e) => rep.mismatch = Some(e.clone()),
    }
    if traced {
        let put = match ph.live_blob.take() {
            Some(blob) => sibling_puts(opts, &blob, &mut ph.rec)?,
            None => Hist::new(),
        };
        let rec = &ph.rec;
        let m = &ph.metrics;
        let mut l = Values::new();
        l.insert("scenario.synth_s", inp.synth_s);
        l.insert("core.calibrate_s", inp.calibrate_s);
        l.insert("fleet.create_ms", create_ms);
        for (probe, p50, p99) in [
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
            (Probe::Feed, "fleet.feed_us.p50", "fleet.feed_us.p99"),
        ] {
            l.insert(p50, us(rec.hist(probe).quantile(0.5)));
            l.insert(p99, us(rec.hist(probe).quantile(0.99)));
        }
        l.insert("store.put_us.p50", us(put.quantile(0.5)));
        l.insert("store.put_us.p99", us(put.quantile(0.99)));
        l.insert("core.checkpoint_bytes", ph.checkpoint_bytes as f64);
        if let Ok(q) = &verdict {
            let n = q.replayed.len().max(1) as f64;
            l.insert(
                "core.recon_share",
                q.replayed.iter().map(|r| r.ops.recon_share()).sum::<f64>() / n,
            );
            l.insert(
                "linalg.flops_per_sample",
                q.replayed
                    .iter()
                    .map(|r| r.ops.flops_per_sample())
                    .sum::<f64>()
                    / n,
            );
        }
        l.insert("fleet.producer_busy_share", ph.busy_share);
        l.insert("fleet.queue_depth.mean", ph.depth.0);
        l.insert("fleet.queue_depth.max", ph.depth.1 as f64);
        l.insert("fleet.drain_ms", ph.drain_ms);
        l.insert("fleet.samples_processed", m.samples_processed as f64);
        l.insert("fleet.samples_dropped", m.samples_dropped as f64);
        l.insert("fleet.busy_rejections", m.busy_rejections as f64);
        l.insert("fleet.feed_timeouts", m.feed_timeouts as f64);
        l.insert("fleet.drifts_flagged", m.drifts_flagged as f64);
        l.insert("fleet.reconstructions", m.reconstructions_completed as f64);
        l.insert("store.flushes", m.durable_flushes as f64);
        l.insert("store.flush_failures", m.durable_flush_failures as f64);
        l.insert("store.disk_bytes", ph.disk_bytes as f64);
        rep.layer = l;
        let parents = [rec.parent_span(name, ph.started, ph.ended, 0)];
        let path = opts.spans_path(name);
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

fn remove_state(dir: Option<&Path>) -> Result<(), String> {
    match dir {
        Some(d) if d.exists() => {
            std::fs::remove_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))
        }
        _ => Ok(()),
    }
}
