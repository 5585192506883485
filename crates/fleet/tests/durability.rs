//! Kill-and-resume end-to-end: a fleet with a durable state store is
//! killed mid-stream, reopened from `--state-dir`, and every resumed
//! session must be bit-identical to an uninterrupted run — modulo the
//! tail of samples after the last durable checkpoint, which the caller
//! replays.

use seqdrift_core::{DetectorConfig, DriftPipeline};
use seqdrift_fleet::{DegradedReason, DurabilityHealth, Fault, FaultInjector, FleetEvent};
use seqdrift_fleet::{
    FeedReply, FleetConfig, FleetEngine, FleetError, QuarantineReason, SessionId,
};
use seqdrift_linalg::{Real, Rng};
use seqdrift_oselm::{MultiInstanceModel, OsElmConfig};
use seqdrift_store::{FaultPlan, FaultVfs, Store, Vfs};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIM: usize = 4;
const INTERVAL: u64 = 64;

fn calibrated_pipeline(seed: u64) -> DriftPipeline {
    let mut rng = Rng::seed_from(seed);
    let class0: Vec<Vec<Real>> = (0..80)
        .map(|_| {
            let mut x = vec![0.0; DIM];
            rng.fill_normal(&mut x, 0.2, 0.05);
            x
        })
        .collect();
    let class1: Vec<Vec<Real>> = (0..80)
        .map(|_| {
            let mut x = vec![0.0; DIM];
            rng.fill_normal(&mut x, 0.8, 0.05);
            x
        })
        .collect();
    let mut model = MultiInstanceModel::new(2, OsElmConfig::new(DIM, 3).with_seed(seed)).unwrap();
    model.init_train_class(0, &class0).unwrap();
    model.init_train_class(1, &class1).unwrap();
    let train: Vec<(usize, &[Real])> = class0
        .iter()
        .map(|x| (0usize, x.as_slice()))
        .chain(class1.iter().map(|x| (1usize, x.as_slice())))
        .collect();
    DriftPipeline::calibrate(model, DetectorConfig::new(2, DIM).with_window(16), &train).unwrap()
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("seqdrift-durability-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Deterministic per-session stream: each session gets its own RNG.
fn stream(session: u64, len: usize) -> Vec<Vec<Real>> {
    let mut rng = Rng::seed_from(1000 + session);
    (0..len)
        .map(|_| {
            let mut x = vec![0.0; DIM];
            rng.fill_normal(&mut x, 0.2, 0.05);
            x
        })
        .collect()
}

fn durable_config(dir: &PathBuf) -> FleetConfig {
    FleetConfig::new(2)
        .with_checkpoint_interval(INTERVAL)
        .with_state_dir(dir)
}

#[test]
fn killed_engine_resumes_bit_identical_modulo_lost_tail() {
    let dir = tmp_dir("kill-resume");
    const SESSIONS: u64 = 5;
    const CUT: usize = 150; // not a checkpoint boundary: a real tail is lost
    const TOTAL: usize = 230;

    // --- Reference: one uninterrupted run over the full streams. ---
    let reference =
        FleetEngine::new(FleetConfig::new(2).with_checkpoint_interval(INTERVAL)).unwrap();
    for s in 0..SESSIONS {
        reference
            .create(SessionId(s), calibrated_pipeline(s))
            .unwrap();
        for x in stream(s, TOTAL) {
            reference.feed_blocking(SessionId(s), &x).unwrap();
        }
    }
    let mut expected = Vec::new();
    for s in 0..SESSIONS {
        expected.push(reference.snapshot(SessionId(s)).unwrap());
    }
    drop(reference);

    // --- Victim: same streams, killed at sample CUT. ---
    {
        let victim = FleetEngine::new(durable_config(&dir)).unwrap();
        for s in 0..SESSIONS {
            victim.create(SessionId(s), calibrated_pipeline(s)).unwrap();
            for x in stream(s, CUT) {
                victim.feed_blocking(SessionId(s), &x).unwrap();
            }
        }
        // Simulated power loss: the engine dies here. Whatever is on disk
        // is all the next process gets.
        drop(victim);
    }
    assert_eq!(
        Store::open(&dir).unwrap().sessions().len(),
        SESSIONS as usize,
        "nothing reached disk"
    );

    // --- Resume from the state dir and replay each lost tail. ---
    let revived = FleetEngine::new(durable_config(&dir)).unwrap();
    let resumed = revived.resume().unwrap();
    assert_eq!(resumed.len(), SESSIONS as usize, "{resumed:?}");
    for &(id, samples_processed) in &resumed {
        // The durable checkpoint can only lag by less than one interval.
        assert!(
            samples_processed <= CUT as u64,
            "{id}: resumed ahead of the crash point"
        );
        assert!(
            CUT as u64 - samples_processed < INTERVAL,
            "{id}: lost more than one checkpoint interval ({samples_processed})"
        );
        let full = stream(id.0, TOTAL);
        for x in &full[samples_processed as usize..] {
            revived.feed_blocking(id, x).unwrap();
        }
    }
    for s in 0..SESSIONS {
        let got = revived.snapshot(SessionId(s)).unwrap();
        assert_eq!(
            got, expected[s as usize],
            "session {s}: resumed state diverged from the uninterrupted run"
        );
    }
    drop(revived);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_skips_sessions_with_no_surviving_checkpoint() {
    let dir = tmp_dir("resume-torn");
    {
        let fleet = FleetEngine::new(durable_config(&dir)).unwrap();
        fleet.create(SessionId(0), calibrated_pipeline(0)).unwrap();
        fleet.create(SessionId(1), calibrated_pipeline(1)).unwrap();
        drop(fleet);
    }
    // Destroy every generation of session 0 (as a crash storm might).
    for entry in fs::read_dir(dir.join("0")).unwrap() {
        fs::write(entry.unwrap().path(), b"torn to shreds").unwrap();
    }
    let revived = FleetEngine::new(durable_config(&dir)).unwrap();
    let resumed = revived.resume().unwrap();
    assert_eq!(
        resumed.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        vec![SessionId(1)]
    );
    drop(revived);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_without_state_dir_is_a_typed_error() {
    let fleet = FleetEngine::new(FleetConfig::new(1)).unwrap();
    assert!(matches!(fleet.resume(), Err(FleetError::InvalidConfig(_))));
}

#[test]
fn federated_write_under_disk_failure_degrades_then_recovers() {
    let dir = tmp_dir("federated-fault");
    let vfs = Arc::new(FaultVfs::new(FaultPlan::new(41).with_enospc(1024)).with_base(&dir));
    let fleet = FleetEngine::new(
        durable_config(&dir)
            .with_state_vfs(Arc::clone(&vfs) as Arc<dyn Vfs>)
            .with_flush_retry(Duration::from_millis(2), Duration::from_millis(20)),
    )
    .unwrap();
    assert_eq!(fleet.durability_health(), DurabilityHealth::Durable);

    // Disk down: the write is absorbed (never a panic, never an Err to
    // the federation path), the fleet degrades, the blob is buffered.
    let blob = calibrated_pipeline(21).to_bytes().unwrap();
    assert_eq!(fleet.persist_federated(&blob), None);
    assert_eq!(
        fleet.durability_health(),
        DurabilityHealth::DegradedDurability(DegradedReason::FederatedWrite)
    );
    // A newer merged model supersedes the buffered one while degraded.
    let blob2 = calibrated_pipeline(22).to_bytes().unwrap();
    assert_eq!(fleet.persist_federated(&blob2), None);

    // Disk heals: the background retry loop drains the newest buffered
    // model and the fleet transitions back to Durable on its own.
    vfs.set_active(false);
    let deadline = Instant::now() + Duration::from_secs(10);
    while fleet.durability_health() != DurabilityHealth::Durable && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(fleet.durability_health(), DurabilityHealth::Durable);
    assert_eq!(fleet.load_federated().unwrap(), Some(blob2));

    let m = fleet.metrics();
    assert_eq!(m.durability_degraded, 1);
    assert_eq!(m.durability_recovered, 1);
    assert!(m.durable_flushes_buffered >= 2, "{m:?}");
    assert!(m.durable_flush_retries >= 1, "{m:?}");
    let report = fleet.shutdown();
    assert!(report.events.iter().any(|e| matches!(
        e,
        FleetEvent::DurabilityDegraded {
            reason: DegradedReason::FederatedWrite
        }
    )));
    assert!(report
        .events
        .iter()
        .any(|e| matches!(e, FleetEvent::DurabilityRestored { .. })));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn quarantine_survives_process_restart() {
    let dir = tmp_dir("quarantine-persists");
    {
        let injector = FaultInjector::new(vec![Fault::PanicOnSample { session: 0, nth: 5 }]);
        let fleet = FleetEngine::new(
            durable_config(&dir)
                .with_restart_budget(0, 1024)
                .with_fault_injector(injector),
        )
        .unwrap();
        fleet.create(SessionId(0), calibrated_pipeline(0)).unwrap();
        let mut rng = Rng::seed_from(3);
        for _ in 0..10 {
            let mut x = vec![0.0; DIM];
            rng.fill_normal(&mut x, 0.2, 0.05);
            match fleet.feed_blocking(SessionId(0), &x) {
                Ok(()) | Err(FleetError::SessionQuarantined(_)) => {}
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while fleet.quarantined_sessions().is_empty() && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(
            fleet.quarantined_sessions(),
            vec![(SessionId(0), QuarantineReason::RestartBudgetExhausted)]
        );
        drop(fleet);
    }
    // A fresh process must inherit the verdict: no resume, no feeding.
    let revived = FleetEngine::new(durable_config(&dir)).unwrap();
    assert_eq!(
        revived.quarantined_sessions(),
        vec![(SessionId(0), QuarantineReason::RestartBudgetExhausted)]
    );
    assert!(revived.resume().unwrap().is_empty());
    assert_eq!(
        revived.feed(SessionId(0), &[0.2; DIM]),
        FeedReply::Quarantined
    );
    // Re-creating the id lifts the quarantine — durably.
    revived
        .create(SessionId(0), calibrated_pipeline(9))
        .unwrap();
    drop(revived);
    let third = FleetEngine::new(durable_config(&dir)).unwrap();
    assert!(third.quarantined_sessions().is_empty());
    assert_eq!(third.resume().unwrap().len(), 1);
    drop(third);
    fs::remove_dir_all(&dir).ok();
}

/// A state dir whose every file fsync stalls `ms` milliseconds, so the
/// flusher lags the workers and checkpoints wait in its queue.
fn slow_disk(dir: &PathBuf, ms: u64) -> FleetConfig {
    let plan = FaultPlan::new(5).with_fsync_delay(1024, Duration::from_millis(ms));
    let vfs = Arc::new(FaultVfs::new(plan).with_base(dir));
    durable_config(dir).with_state_vfs(vfs as Arc<dyn Vfs>)
}

fn wait_processed(fleet: &FleetEngine, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while fleet.metrics().samples_processed < n && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(fleet.metrics().samples_processed, n);
}

#[test]
fn removed_lineage_never_resurfaces_from_a_pending_blob() {
    let dir = tmp_dir("fence");
    const FILLERS: u64 = 8;
    let fresh = calibrated_pipeline(99).to_bytes().unwrap();
    {
        // Session 1 panics on its 5th sample with no restart budget.
        let injector = FaultInjector::new(vec![Fault::PanicOnSample { session: 1, nth: 5 }]);
        let fleet = FleetEngine::new(
            slow_disk(&dir, 20)
                .with_restart_budget(0, 1024)
                .with_fault_injector(injector),
        )
        .unwrap();
        // The fillers' create checkpoints back the flusher up by FILLERS
        // slow puts, so the blobs of sessions 0 and 1 wait behind them.
        for s in 2..2 + FILLERS {
            fleet.create(SessionId(s), calibrated_pipeline(s)).unwrap();
        }
        fleet.create(SessionId(0), calibrated_pipeline(0)).unwrap();
        fleet.create(SessionId(1), calibrated_pipeline(1)).unwrap();
        for x in stream(0, 70) {
            fleet.feed_blocking(SessionId(0), &x).unwrap();
        }
        for x in stream(1, 10) {
            match fleet.feed_blocking(SessionId(1), &x) {
                Ok(()) | Err(FleetError::SessionQuarantined(_)) => {}
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while fleet.quarantined_sessions().is_empty() && Instant::now() < deadline {
            std::thread::yield_now();
        }
        wait_processed(&fleet, 70 + 5);
        // Both removals land while the old lineages' blobs are pending.
        assert_eq!(fleet.evict(SessionId(0)).unwrap().samples_processed(), 70);
        fleet.create_from_bytes(SessionId(1), &fresh).unwrap();
        // Dropping drains the flusher: every pending blob is written.
        drop(fleet);
    }
    let revived = FleetEngine::new(durable_config(&dir)).unwrap();
    assert!(revived.quarantined_sessions().is_empty());
    let resumed = revived.resume().unwrap();
    let ids: Vec<u64> = resumed.iter().map(|(id, _)| id.0).collect();
    assert_eq!(ids, (1..2 + FILLERS).collect::<Vec<_>>(), "{resumed:?}");
    // Session 1 resumes the re-created lineage, not the quarantined one.
    assert_eq!(revived.snapshot(SessionId(1)).unwrap(), fresh);
    drop(revived);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn slow_disk_coalesces_and_resumes_bit_identical() {
    let dir = tmp_dir("slow-disk");
    const SESSIONS: u64 = 5;
    const CUT: usize = 300;
    const TOTAL: usize = 400;
    let reference =
        FleetEngine::new(FleetConfig::new(2).with_checkpoint_interval(INTERVAL)).unwrap();
    let mut expected = Vec::new();
    for s in 0..SESSIONS {
        reference
            .create(SessionId(s), calibrated_pipeline(s))
            .unwrap();
        for x in stream(s, TOTAL) {
            reference.feed_blocking(SessionId(s), &x).unwrap();
        }
        expected.push(reference.snapshot(SessionId(s)).unwrap());
    }
    drop(reference);

    {
        let victim = FleetEngine::new(slow_disk(&dir, 10)).unwrap();
        for s in 0..SESSIONS {
            victim.create(SessionId(s), calibrated_pipeline(s)).unwrap();
        }
        let streams: Vec<_> = (0..SESSIONS).map(|s| stream(s, CUT)).collect();
        for t in 0..CUT {
            for (s, rows) in streams.iter().enumerate() {
                victim.feed_blocking(SessionId(s as u64), &rows[t]).unwrap();
            }
        }
        wait_processed(&victim, SESSIONS * CUT as u64);
        let m = victim.metrics();
        assert!(m.checkpoints_superseded > 0, "{m:?}");
        assert_eq!(m.durable_flush_failures, 0, "{m:?}");
        drop(victim);
    }
    // Generations count up from 1 per session, so the newest one on disk
    // is the number of puts the flusher made for it: fewer than the
    // checkpoints the workers took (one at create, one per interval).
    let store = Store::open(&dir).unwrap();
    let flushed: u64 = (0..SESSIONS)
        .map(|s| store.load(s).unwrap().unwrap().0)
        .sum();
    let taken = SESSIONS * (1 + CUT as u64 / INTERVAL);
    assert!(flushed < taken, "{flushed} flushes for {taken} checkpoints");
    drop(store);

    let revived = FleetEngine::new(durable_config(&dir)).unwrap();
    let resumed = revived.resume().unwrap();
    assert_eq!(resumed.len(), SESSIONS as usize, "{resumed:?}");
    for &(id, samples_processed) in &resumed {
        assert!(samples_processed <= CUT as u64);
        assert!(
            CUT as u64 - samples_processed < INTERVAL,
            "{id}: {samples_processed}"
        );
        for x in &stream(id.0, TOTAL)[samples_processed as usize..] {
            revived.feed_blocking(id, x).unwrap();
        }
    }
    for s in 0..SESSIONS {
        assert_eq!(
            revived.snapshot(SessionId(s)).unwrap(),
            expected[s as usize],
            "session {s}: resumed state diverged from the uninterrupted run"
        );
    }
    drop(revived);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_leaves_every_survivor_final_state_on_disk() {
    let dir = tmp_dir("shutdown-final");
    const SESSIONS: u64 = 4;
    let fleet = FleetEngine::new(slow_disk(&dir, 5)).unwrap();
    for s in 0..SESSIONS {
        fleet.create(SessionId(s), calibrated_pipeline(s)).unwrap();
        // Not a checkpoint boundary: the final state is newer than any
        // rolling checkpoint.
        for x in stream(s, 100 + s as usize) {
            fleet.feed_blocking(SessionId(s), &x).unwrap();
        }
    }
    let report = fleet.shutdown();
    assert_eq!(report.sessions.len(), SESSIONS as usize);
    let store = Store::open(&dir).unwrap();
    for (id, pipeline) in &report.sessions {
        let (_, on_disk, offset) = store.load_pipeline(id.0).unwrap().unwrap();
        assert_eq!(on_disk.samples_processed(), 100 + id.0);
        assert_eq!(offset, Some(100 + id.0));
        assert_eq!(on_disk.to_bytes().unwrap(), pipeline.to_bytes().unwrap());
    }
    drop(store);
    fs::remove_dir_all(&dir).ok();
}

/// A row the input guard refuses advances the session's stream offset
/// like an applied one: the live query and `resume` both report every
/// row fed, so a device replaying from that offset never sends a row
/// twice.
#[test]
fn resume_offsets_count_rows_the_guard_rejected() {
    let dir = tmp_dir("resume-rejected");
    const ROWS: usize = 150;
    let fleet = FleetEngine::new(durable_config(&dir)).unwrap();
    fleet.create(SessionId(0), calibrated_pipeline(0)).unwrap();
    let mut rows = stream(0, ROWS);
    for i in [10, 70, 71, ROWS - 1] {
        rows[i][1] = Real::NAN;
    }
    for x in &rows {
        fleet.feed_blocking(SessionId(0), x).unwrap();
    }
    assert_eq!(fleet.samples_processed(SessionId(0)).unwrap(), ROWS as u64);
    let report = fleet.shutdown();
    assert_eq!(report.sessions[0].1.samples_processed(), ROWS as u64 - 4);
    let revived = FleetEngine::new(durable_config(&dir)).unwrap();
    assert_eq!(revived.resume().unwrap(), vec![(SessionId(0), ROWS as u64)]);
    drop(revived);
    fs::remove_dir_all(&dir).ok();
}

/// A session restored from its rolling checkpoint after a caught panic
/// has lost the rows fed since that checkpoint, but its device sent them:
/// its stream offset keeps counting them, live and across a restart, so
/// a device replaying from the offset never sends a row twice.
#[test]
fn a_panic_restored_session_keeps_the_rows_it_lost_in_its_offset() {
    let dir = tmp_dir("resume-panicked");
    const ROWS: usize = 150;
    let injector = FaultInjector::new(vec![Fault::PanicOnSample {
        session: 0,
        nth: 100,
    }]);
    let fleet = FleetEngine::new(durable_config(&dir).with_fault_injector(injector)).unwrap();
    fleet.create(SessionId(0), calibrated_pipeline(0)).unwrap();
    for x in &stream(0, ROWS) {
        fleet.feed_blocking(SessionId(0), x).unwrap();
    }
    assert_eq!(fleet.samples_processed(SessionId(0)).unwrap(), ROWS as u64);
    let report = fleet.shutdown();
    assert_eq!(report.metrics.sessions_restored, 1);
    // Restored at sample 64, then fed rows 101..150.
    assert_eq!(report.sessions[0].1.samples_processed(), 64 + 49);
    let revived = FleetEngine::new(durable_config(&dir)).unwrap();
    assert_eq!(revived.resume().unwrap(), vec![(SessionId(0), ROWS as u64)]);
    drop(revived);
    fs::remove_dir_all(&dir).ok();
}
