//! Fault-injection e2e: every recovery path of the supervision layer,
//! exercised deterministically through the seeded `FaultInjector`.
//!
//! The headline acceptance scenario: with 1 of 64 sessions panicking
//! mid-stream, the other 63 sessions' drift-event sequences and final
//! serialised states are bit-identical to a fault-free run, the victim
//! auto-restores from its rolling checkpoint, and `shutdown()` returns
//! without panicking.

use seqdrift_core::pipeline::PipelineEvent;
use seqdrift_core::{DetectorConfig, DriftPipeline};
use seqdrift_fleet::{
    Fault, FaultInjector, FeedReply, FleetConfig, FleetEngine, FleetError, FleetEvent,
    QuarantineReason, SessionId,
};
use seqdrift_linalg::{Real, Rng};
use seqdrift_oselm::{MultiInstanceModel, OsElmConfig};
use std::collections::BTreeMap;

const DIM: usize = 4;

fn sample(rng: &mut Rng, mean: Real) -> Vec<Real> {
    let mut x = vec![0.0; DIM];
    rng.fill_normal(&mut x, mean, 0.05);
    x
}

/// One calibrated single-class checkpoint cloned into every session.
fn checkpoint() -> Vec<u8> {
    let mut rng = Rng::seed_from(555);
    let train: Vec<Vec<Real>> = (0..100).map(|_| sample(&mut rng, 0.3)).collect();
    let mut model = MultiInstanceModel::new(1, OsElmConfig::new(DIM, 3).with_seed(4)).unwrap();
    model.init_train_class(0, &train).unwrap();
    let pairs: Vec<(usize, &[Real])> = train.iter().map(|x| (0, x.as_slice())).collect();
    DriftPipeline::calibrate(model, DetectorConfig::new(1, DIM).with_window(15), &pairs)
        .unwrap()
        .to_bytes()
        .unwrap()
}

/// Per-device streams, a pure function of the device id: every fourth
/// device drifts at a staggered onset, the rest stay stable.
fn device_streams(devices: u64, samples: usize) -> Vec<Vec<Vec<Real>>> {
    (0..devices)
        .map(|dev| {
            let mut rng = Rng::seed_from(3_000 + dev);
            let onset = 60 + 2 * dev as usize;
            (0..samples)
                .map(|t| {
                    let mean = if dev % 4 == 0 && t >= onset {
                        0.85
                    } else {
                        0.3
                    };
                    sample(&mut rng, mean)
                })
                .collect()
        })
        .collect()
}

/// Per-session outcome of a replay: ordered pipeline events + final blob.
type SessionOutcomes = BTreeMap<u64, (Vec<PipelineEvent>, Vec<u8>)>;

/// Runs the full replay and returns per-session (pipeline events, final
/// state blob) plus the shutdown report. Quarantined sessions are skipped
/// for the rest of the replay, mirroring a real ingest loop.
fn run(
    cfg: FleetConfig,
    blob: &[u8],
    streams: &[Vec<Vec<Real>>],
) -> (SessionOutcomes, seqdrift_fleet::ShutdownReport) {
    let fleet = FleetEngine::new(cfg).unwrap();
    for dev in 0..streams.len() as u64 {
        fleet.create_from_bytes(SessionId(dev), blob).unwrap();
    }
    let samples = streams[0].len();
    for t in 0..samples {
        for (dev, stream) in streams.iter().enumerate() {
            match fleet.feed_blocking(SessionId(dev as u64), &stream[t]) {
                Ok(()) | Err(FleetError::SessionQuarantined(_)) => {}
                Err(other) => panic!("feed failed: {other}"),
            }
        }
    }
    let report = fleet.shutdown();
    let mut out = SessionOutcomes::new();
    for (id, pipeline) in &report.sessions {
        out.insert(id.0, (Vec::new(), pipeline.to_bytes().unwrap()));
    }
    for fleet_event in &report.events {
        if let FleetEvent::Pipeline { id, event } = fleet_event {
            if let Some(entry) = out.get_mut(&id.0) {
                entry.0.push(*event);
            }
        }
    }
    (out, report)
}

/// The ISSUE acceptance scenario, seed-derived victim and panic point.
#[test]
fn one_panicking_session_of_64_leaves_the_other_63_bit_identical() {
    // Long enough that every drifting device finishes its 200-sample
    // reconstruction before shutdown, so all sessions serialise cleanly.
    const DEVICES: u64 = 64;
    const SAMPLES: usize = 480;
    let mut seed_rng = Rng::seed_from(0xFA17);
    // Seed-derived victim, pinned to a *stable* device (dev % 4 != 0) so
    // its rolling checkpoints are never suspended by a reconstruction and
    // the restore-point bound below is tight.
    let victim = 1 + 4 * seed_rng.below(16);
    let nth = 80 + seed_rng.below(80); // mid-stream, past the first checkpoints

    let blob = checkpoint();
    let streams = device_streams(DEVICES, SAMPLES);

    let base_cfg = FleetConfig::new(4).with_checkpoint_interval(32);
    let (clean, clean_report) = run(base_cfg.clone(), &blob, &streams);

    let injector = FaultInjector::new(vec![Fault::PanicOnSample {
        session: victim,
        nth,
    }]);
    let (faulted, faulted_report) = run(base_cfg.with_fault_injector(injector), &blob, &streams);

    // The workload itself must be non-trivial: the clean run detects drift.
    assert!(clean_report.metrics.drifts_flagged >= 4);

    // All 64 sessions survive in both runs (the victim was restored, not
    // quarantined), and shutdown returned normally to get us here.
    assert_eq!(clean.len(), DEVICES as usize);
    assert_eq!(faulted.len(), DEVICES as usize);
    assert!(faulted_report.quarantined.is_empty());
    assert!(faulted_report.lost.is_empty());

    // Blast-radius one: every non-victim session's event sequence and
    // final serialised state are bit-identical across the two runs.
    for dev in 0..DEVICES {
        if dev == victim {
            continue;
        }
        let (clean_events, clean_state) = &clean[&dev];
        let (faulted_events, faulted_state) = &faulted[&dev];
        assert_eq!(
            clean_events, faulted_events,
            "device {dev}: events disturbed by device {victim}'s panic"
        );
        assert_eq!(
            clean_state, faulted_state,
            "device {dev}: state disturbed by device {victim}'s panic"
        );
    }

    // The victim panicked exactly once and was restored from a checkpoint.
    let m = &faulted_report.metrics;
    assert_eq!(m.panics_caught, 1);
    assert_eq!(m.sessions_restored, 1);
    assert_eq!(m.sessions_quarantined, 0);
    assert!(faulted_report.events.iter().any(|e| matches!(
        e,
        FleetEvent::SessionPanicked { id, at_delivery } if id.0 == victim && *at_delivery == nth
    )));
    let resumed_at = faulted_report.events.iter().find_map(|e| match e {
        FleetEvent::SessionRestored {
            id,
            resumed_at_sample,
            ..
        } if id.0 == victim => Some(*resumed_at_sample),
        _ => None,
    });
    let resumed_at = resumed_at.expect("victim was not restored");
    // The rolling checkpoint it resumed from trails the panic by at most
    // one checkpoint interval.
    assert!(
        resumed_at <= nth && nth - resumed_at <= 32,
        "resumed at {resumed_at}, panic at {nth}"
    );
    // And the victim kept processing after the restore: it ends with more
    // samples than the restore point.
    let victim_state = DriftPipeline::from_bytes(&faulted[&victim].1).unwrap();
    assert!(victim_state.samples_processed() > resumed_at);
}

/// After a checkpoint restore the session keeps *detecting*: a drift whose
/// onset lies beyond the panic point is still flagged.
#[test]
fn restored_session_still_detects_drift() {
    let blob = checkpoint();
    // One device, drifting at t=150; panic at delivery 100 with
    // checkpoints every 25 samples.
    let streams: Vec<Vec<Vec<Real>>> = vec![{
        let mut rng = Rng::seed_from(777);
        (0..400)
            .map(|t| sample(&mut rng, if t >= 150 { 0.9 } else { 0.3 }))
            .collect()
    }];
    let injector = FaultInjector::new(vec![Fault::PanicOnSample {
        session: 0,
        nth: 100,
    }]);
    let cfg = FleetConfig::new(1)
        .with_checkpoint_interval(25)
        .with_fault_injector(injector);
    let (sessions, report) = run(cfg, &blob, &streams);

    assert_eq!(report.metrics.sessions_restored, 1);
    let (events, _) = &sessions[&0];
    let drift_at = events.iter().find_map(|e| match e {
        PipelineEvent::DriftDetected { index, .. } => Some(*index),
        _ => None,
    });
    let drift_at = drift_at.expect("restored session never flagged the post-restore drift");
    // The detection happened on samples processed after the restore.
    assert!(
        drift_at > 100,
        "drift flagged at {drift_at}, before the panic point"
    );
}

/// Exhausting the restart budget permanently quarantines the session —
/// and only that session; a co-sharded neighbour is untouched.
#[test]
fn restart_budget_exhaustion_quarantines_permanently() {
    let blob = checkpoint();
    let mut rng = Rng::seed_from(888);
    let streams: Vec<Vec<Vec<Real>>> = (0..2)
        .map(|_| (0..200).map(|_| sample(&mut rng, 0.3)).collect())
        .collect();
    // Budget of one restart; the second panic inside the window must
    // quarantine. Both sessions share the single shard.
    let injector = FaultInjector::new(vec![
        Fault::PanicOnSample {
            session: 0,
            nth: 40,
        },
        Fault::PanicOnSample {
            session: 0,
            nth: 90,
        },
    ]);
    let cfg = FleetConfig::new(1)
        .with_checkpoint_interval(16)
        .with_restart_budget(1, 1_000)
        .with_fault_injector(injector);

    let fleet = FleetEngine::new(cfg).unwrap();
    for dev in 0..2u64 {
        fleet.create_from_bytes(SessionId(dev), &blob).unwrap();
    }
    #[allow(clippy::needless_range_loop)] // lock-step feed across sessions
    for t in 0..200 {
        for dev in 0..2u64 {
            match fleet.feed_blocking(SessionId(dev), &streams[dev as usize][t]) {
                Ok(()) => {}
                Err(FleetError::SessionQuarantined(id)) => {
                    assert_eq!(id.0, 0, "wrong session quarantined");
                }
                Err(other) => panic!("feed failed: {other}"),
            }
        }
    }
    // Feeds enqueue until the *worker* reaches the second panic and flips
    // the quarantine flag, so the loop above may finish before the flag is
    // set (the queue holds every remaining sample). Wait for the
    // quarantine to land rather than racing the worker.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while fleet.metrics().sessions_quarantined == 0 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(
        fleet.metrics().sessions_quarantined,
        1,
        "restart-budget exhaustion never quarantined the victim"
    );
    // Non-blocking feeds agree.
    assert_eq!(
        fleet.feed(SessionId(0), &[0.3; DIM]),
        FeedReply::Quarantined
    );
    // The last checkpoint survives quarantine for graceful degradation:
    // the caller can resurrect the stream elsewhere.
    let salvage = fleet.last_checkpoint(SessionId(0)).expect("no checkpoint");
    assert!(DriftPipeline::from_bytes(&salvage).is_ok());

    let report = fleet.shutdown();
    assert_eq!(report.metrics.panics_caught, 2);
    assert_eq!(report.metrics.sessions_restored, 1);
    assert_eq!(report.metrics.sessions_quarantined, 1);
    assert_eq!(
        report.quarantined,
        vec![(SessionId(0), QuarantineReason::RestartBudgetExhausted)]
    );
    // Only the neighbour survives, having processed its whole stream.
    assert_eq!(report.sessions.len(), 1);
    assert_eq!(report.sessions[0].0, SessionId(1));
    assert_eq!(report.sessions[0].1.samples_processed(), 200);
}

/// A corrupted checkpoint fails the restore cleanly: the session is
/// quarantined with `CorruptCheckpoint`, nothing panics.
#[test]
fn corrupt_checkpoint_fails_restore_into_quarantine() {
    let blob = checkpoint();
    let mut rng = Rng::seed_from(999);
    let streams: Vec<Vec<Vec<Real>>> = vec![(0..150).map(|_| sample(&mut rng, 0.3)).collect()];
    let injector = FaultInjector::new(vec![
        Fault::CorruptCheckpoint {
            session: 0,
            from_nth: 0,
        },
        Fault::PanicOnSample {
            session: 0,
            nth: 60,
        },
    ]);
    let cfg = FleetConfig::new(1)
        .with_checkpoint_interval(20)
        .with_fault_injector(injector);
    let (sessions, report) = run(cfg, &blob, &streams);

    assert!(sessions.is_empty(), "corrupt-restore session survived");
    assert!(report.metrics.checkpoints_corrupted >= 1);
    assert_eq!(report.metrics.sessions_restored, 0);
    assert_eq!(
        report.quarantined,
        vec![(SessionId(0), QuarantineReason::CorruptCheckpoint)]
    );
}

/// A panic in the worker's own code after the pipeline step (past the
/// row's metrics, events and checkpoint cadence) is caught by the same
/// per-row boundary as a pipeline panic: it costs only its session one
/// checkpoint restore, and the co-sharded sessions never see it.
#[test]
fn a_worker_code_panic_costs_only_its_session() {
    const DEVICES: u64 = 8;
    const SAMPLES: usize = 320;
    const VICTIM: u64 = 3;
    let blob = checkpoint();
    let streams = device_streams(DEVICES, SAMPLES);
    let base_cfg = FleetConfig::new(2).with_checkpoint_interval(16);
    let (clean, _) = run(base_cfg.clone(), &blob, &streams);
    // Session 3 lives on shard 3 % 2 = 1 together with sessions 1, 5, 7.
    let injector = FaultInjector::new(vec![Fault::PanicInWorker {
        session: VICTIM,
        nth: 50,
    }]);
    let (faulted, report) = run(base_cfg.with_fault_injector(injector), &blob, &streams);

    assert_eq!(faulted.len(), DEVICES as usize);
    assert!(report.quarantined.is_empty());
    assert!(report.lost.is_empty());
    let m = &report.metrics;
    assert_eq!((m.panics_caught, m.sessions_restored), (1, 1));
    assert_eq!(m.samples_dropped, 0);
    for dev in (0..DEVICES).filter(|&dev| dev != VICTIM) {
        assert_eq!(
            clean[&dev], faulted[&dev],
            "device {dev}: disturbed by device {VICTIM}'s panic"
        );
        let state = DriftPipeline::from_bytes(&faulted[&dev].1).unwrap();
        assert_eq!(state.samples_processed(), SAMPLES as u64, "device {dev}");
    }
}

/// The ISSUE 3 acceptance scenario: a NaN burst against one session leaves
/// it degraded-then-recovered with finite state — never quarantined — and
/// every clean co-sharded session stays bit-identical to a fault-free run.
#[test]
fn nan_burst_degrades_then_recovers_without_quarantine() {
    const DEVICES: u64 = 8;
    const SAMPLES: usize = 300;
    const BURST_LEN: u64 = 5;
    // Victim 1 is a *stable* device (1 % 4 != 0) on shard 1 % 2 = 1,
    // co-sharded with devices 3, 5 and 7.
    const VICTIM: u64 = 1;

    let blob = checkpoint();
    let streams = device_streams(DEVICES, SAMPLES);
    let base_cfg = FleetConfig::new(2).with_checkpoint_interval(32);

    let (clean, clean_report) = run(base_cfg.clone(), &blob, &streams);
    let injector = FaultInjector::new(vec![Fault::NanBurst {
        session: VICTIM,
        start: 40,
        len: BURST_LEN,
    }]);
    let (faulted, faulted_report) = run(base_cfg.with_fault_injector(injector), &blob, &streams);

    // Nobody is quarantined or lost in either run; the victim survives.
    assert!(clean_report.quarantined.is_empty());
    assert!(faulted_report.quarantined.is_empty());
    assert!(faulted_report.lost.is_empty());
    assert_eq!(faulted.len(), DEVICES as usize);

    // The victim went Degraded (input fault) and then Recovered, in order.
    let (victim_events, victim_blob) = &faulted[&VICTIM];
    let degraded_at = victim_events.iter().position(|e| {
        matches!(
            e,
            PipelineEvent::Degraded {
                reason: seqdrift_core::DegradeReason::InputFault,
                ..
            }
        )
    });
    let recovered_at = victim_events
        .iter()
        .position(|e| matches!(e, PipelineEvent::Recovered { .. }));
    let degraded_at = degraded_at.expect("victim never degraded");
    let recovered_at = recovered_at.expect("victim never recovered");
    assert!(degraded_at < recovered_at, "recovered before degrading");

    // Metrics account for exactly the injected burst: every poisoned
    // delivery was dropped by the guard, nothing else.
    let m = &faulted_report.metrics;
    assert_eq!(clean_report.metrics.samples_dropped, 0);
    assert_eq!(m.samples_dropped, BURST_LEN);
    assert_eq!(m.samples_processed, DEVICES * SAMPLES as u64 - BURST_LEN);
    assert!(m.sessions_degraded >= 1);
    assert!(m.sessions_recovered >= 1);
    assert_eq!(m.sessions_quarantined, 0);
    assert_eq!(m.panics_caught, 0);

    // The victim's final state: healthy, finite, guard counters matching
    // the injected plan, and still serving clean samples.
    let mut victim_state = DriftPipeline::from_bytes(victim_blob).unwrap();
    assert_eq!(victim_state.samples_processed(), SAMPLES as u64 - BURST_LEN);
    assert_eq!(
        victim_state.health(),
        seqdrift_core::PipelineHealth::Healthy
    );
    let counters = victim_state.guard_counters();
    assert_eq!(counters.non_finite, BURST_LEN);
    assert_eq!(counters.rejected, BURST_LEN);
    let o = victim_state.process(&[0.3; DIM]).unwrap();
    assert!(o.score.is_finite() && o.drift_distance.is_finite());

    // Blast-radius zero: every other session's events and final state are
    // bit-identical to the fault-free run.
    for dev in 0..DEVICES {
        if dev == VICTIM {
            continue;
        }
        assert_eq!(
            clean[&dev].0, faulted[&dev].0,
            "device {dev}: events disturbed by the NaN burst"
        );
        assert_eq!(
            clean[&dev].1, faulted[&dev].1,
            "device {dev}: state disturbed by the NaN burst"
        );
    }
}

/// A panic partway through a frame costs the same as it does among the
/// same rows queued one message each: the session restores from the same
/// checkpoint, the rows behind the panicking one are still fed, and the
/// two runs end in the same state.
#[test]
fn a_panic_mid_frame_matches_per_row_sends() {
    const FIRST: usize = 32;
    const PANIC_AT: u64 = 21;
    let blob = checkpoint();
    let mut rng = Rng::seed_from(2024);
    let rows: Vec<Vec<Real>> = (0..2 * FIRST).map(|_| sample(&mut rng, 0.3)).collect();
    let run = |framed: bool| {
        // Session 1 shares the shard and sleeps on its first row, so every
        // row of session 0 is queued before the worker reaches the panic.
        let injector = FaultInjector::new(vec![
            Fault::SlowSession {
                session: 1,
                every: u64::MAX,
                micros: 300_000,
            },
            Fault::PanicInWorker {
                session: 0,
                nth: PANIC_AT,
            },
        ]);
        let fleet = FleetEngine::new(
            FleetConfig::new(1)
                .with_queue_capacity(64)
                .with_checkpoint_interval(8)
                .with_fault_injector(injector),
        )
        .unwrap();
        fleet.create_from_bytes(SessionId(0), &blob).unwrap();
        fleet.create_from_bytes(SessionId(1), &blob).unwrap();
        fleet.feed_blocking(SessionId(1), &rows[0]).unwrap();
        let feed = |part: &[Vec<Real>]| {
            if framed {
                let flat: Vec<Real> = part.concat();
                let (accepted, result) = fleet.feed_frame(SessionId(0), DIM, &flat);
                result.unwrap();
                assert_eq!(accepted, part.len());
            } else {
                for row in part {
                    fleet.feed_blocking(SessionId(0), row).unwrap();
                }
            }
        };
        feed(&rows[..FIRST]);
        feed(&rows[FIRST..]);
        let state = fleet.snapshot(SessionId(0)).unwrap();
        let report = fleet.shutdown();
        (
            state,
            report.metrics.samples_dropped,
            report.metrics.samples_processed,
        )
    };
    let (framed, framed_dropped, framed_processed) = run(true);
    let (per_row, per_row_dropped, per_row_processed) = run(false);
    assert_eq!(framed, per_row, "restored state differs");
    assert_eq!((framed_dropped, per_row_dropped), (0, 0));
    assert_eq!(per_row_processed, framed_processed);
    let resumed = DriftPipeline::from_bytes(&framed).unwrap();
    // Checkpoint at 16 processed samples, then the rest of the first
    // frame behind the panicking row, then the second frame.
    assert_eq!(
        resumed.samples_processed(),
        16 + (FIRST as u64 - PANIC_AT - 1) + FIRST as u64
    );
}

/// Wherever a row panics, in the pipeline step or in the worker code
/// after it, the session keeps its live stream offset: it counts the rows
/// the restore lost, so a replaying device never sends them again.
#[test]
fn a_worker_code_panic_keeps_the_live_stream_offset() {
    let blob = checkpoint();
    let mut rng = Rng::seed_from(150);
    let rows: Vec<Vec<Real>> = (0..150).map(|_| sample(&mut rng, 0.3)).collect();
    for fault in [
        Fault::PanicOnSample {
            session: 0,
            nth: 100,
        },
        Fault::PanicInWorker {
            session: 0,
            nth: 100,
        },
    ] {
        let fleet = FleetEngine::new(
            FleetConfig::new(1)
                .with_checkpoint_interval(64)
                .with_fault_injector(FaultInjector::new(vec![fault])),
        )
        .unwrap();
        fleet.create_from_bytes(SessionId(0), &blob).unwrap();
        for row in &rows {
            fleet.feed_blocking(SessionId(0), row).unwrap();
        }
        assert_eq!(
            fleet.samples_processed(SessionId(0)).unwrap(),
            150,
            "{fault:?}"
        );
        let report = fleet.shutdown();
        assert_eq!(report.metrics.sessions_restored, 1, "{fault:?}");
        assert_eq!(report.metrics.samples_dropped, 0, "{fault:?}");
        // Restored from the checkpoint at 64, then rows 101..150.
        assert_eq!(report.sessions[0].1.samples_processed(), 64 + 49);
    }
}
