//! The write-behind checkpoint flusher and the durability health
//! machine: `Durable → DegradedDurability(reason) → Durable`.
//!
//! **One writer.** Shard workers never touch the disk for checkpoints.
//! A rolling checkpoint is handed to the [`DurabilityMonitor`] as an
//! `Arc<Vec<u8>>` shared with the in-memory checkpoint table (the hand-off
//! copies no bytes), where it replaces any older blob of the same session
//! that has not reached disk yet. One background thread — the flusher —
//! writes the pending blobs through `Store::put`, one at a time, in the
//! order their sessions started waiting. Under disk pressure the
//! intermediate generations a newer blob supersedes are skipped instead
//! of queued (OS-ELM's sequential state only needs its *newest* state
//! durable), so pending state stays bounded: one blob per live session,
//! plus the one the flusher is writing.
//!
//! **Degraded durability.** The first failed durable write (checkpoint,
//! quarantine ledger, federated model or reputation book) flips the
//! fleet into degraded durability. Ledger, federated and reputation
//! writes are then buffered in memory instead of hitting the failing
//! disk, and the flusher switches from draining continuously to
//! retrying everything buffered with decorrelated-jitter [`Backoff`].
//! When a retry pass lands cleanly, the fleet transitions back to
//! `Durable` and says so: both transitions are [`FleetEvent`]s, counted
//! in the fleet metrics, and surfaced in `seqdrift fleet`/`serve` output.
//!
//! **Ordering invariant.** Only the flusher writes session checkpoint
//! generations, and each session's blobs arrive in stream order from its
//! single shard worker, so an older blob can never land after a newer
//! one. Removing a session's lineage (evict, or re-creating a
//! quarantined id) first discards its pending blob and waits out a write
//! already in flight ([`DurabilityMonitor::remove_session`]); otherwise
//! that write could resurrect the old lineage after the removal. While
//! degraded, buffered ledger operations replay before checkpoints, so a
//! buffered removal never deletes a re-created session's newer
//! generations.
//!
//! **Crash bound.** A crash loses at most one checkpoint interval plus
//! whatever a session processed while its newest blob waited for the
//! flusher. Dropping or shutting down the engine drains every pending
//! blob first.

use crate::metrics::FleetMetrics;
use crate::supervisor::{mutex_lock, FleetEvent};
use seqdrift_linalg::Rng;
use seqdrift_store::{LedgerEntry, ReputationEntry, Store, StoreError};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Which durable write first failed (the reason the fleet degraded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedReason {
    /// A session-checkpoint flush failed.
    CheckpointFlush,
    /// A quarantine-ledger (manifest) write failed.
    LedgerWrite,
    /// A federated merged-model write failed.
    FederatedWrite,
    /// A federation reputation-book write failed.
    ReputationWrite,
}

impl std::fmt::Display for DegradedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradedReason::CheckpointFlush => write!(f, "checkpoint flush failed"),
            DegradedReason::LedgerWrite => write!(f, "quarantine-ledger write failed"),
            DegradedReason::FederatedWrite => write!(f, "federated-model write failed"),
            DegradedReason::ReputationWrite => write!(f, "reputation-book write failed"),
        }
    }
}

/// The fleet's durability state. Memory-only fleets (no
/// `FleetConfig::state_dir`) are always reported `Durable` — there is no
/// disk to degrade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityHealth {
    /// Durable writes are landing on disk.
    Durable,
    /// The disk is failing; writes are buffered in memory and retried in
    /// the background until it heals.
    DegradedDurability(DegradedReason),
}

impl std::fmt::Display for DurabilityHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityHealth::Durable => write!(f, "DURABLE"),
            DurabilityHealth::DegradedDurability(reason) => write!(f, "DEGRADED ({reason})"),
        }
    }
}

/// A quarantine-ledger mutation, replayed in order on recovery.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LedgerOp {
    /// `Store::set_quarantined(session, entry)`.
    Set(u64, LedgerEntry),
    /// `Store::remove_session(session)` (evict, or a quarantined id
    /// re-created).
    Remove(u64),
}

impl LedgerOp {
    fn apply(self, store: &Store) -> Result<(), StoreError> {
        match self {
            LedgerOp::Set(id, entry) => store.set_quarantined(id, entry),
            LedgerOp::Remove(id) => store.remove_session(id),
        }
    }
}

#[derive(Debug, Default)]
struct MonitorState {
    degraded: Option<DegradedReason>,
    /// Newest unflushed checkpoint per session with its stream offset,
    /// the blob shared with the in-memory checkpoint table.
    pending: HashMap<u64, (u64, Arc<Vec<u8>>)>,
    /// The sessions of `pending`, in the order they started waiting; a
    /// superseding blob keeps its session's place, so no session starves.
    order: VecDeque<u64>,
    /// The session whose blob the flusher is writing right now.
    in_flight: Option<u64>,
    /// Ledger mutations buffered while degraded, in arrival order (a
    /// `Set` then `Remove` of the same session must not replay reversed).
    pending_ledger: Vec<LedgerOp>,
    /// Newest federated merged model buffered while degraded.
    pending_federated: Option<(u64, Vec<u8>)>,
    /// Newest reputation book buffered while degraded (full-book
    /// snapshot; newer supersedes like the federated model).
    pending_reputation: Option<(u64, BTreeMap<u64, ReputationEntry>)>,
    /// Sequence of buffered federated/reputation writes: a drain only
    /// retires the exact item it wrote.
    seq: u64,
    /// Work flushed during the current degraded episode, reported in the
    /// `DurabilityRestored` event.
    episode_checkpoints: u32,
    episode_ledger: u32,
}

/// Shared between the workers (who submit checkpoints and write the
/// ledger), the engine (who reads health and removes sessions), and the
/// flusher thread (who writes checkpoints and drains while degraded).
#[derive(Debug)]
pub(crate) struct DurabilityMonitor {
    store: Arc<Store>,
    state: Mutex<MonitorState>,
    /// Wakes the flusher (new work, degradation, stop) and the fences
    /// waiting for an in-flight write to finish.
    wake: Condvar,
    stopped: AtomicBool,
    metrics: Arc<FleetMetrics>,
    events: Arc<Mutex<Vec<FleetEvent>>>,
}

impl DurabilityMonitor {
    pub fn new(
        store: Arc<Store>,
        metrics: Arc<FleetMetrics>,
        events: Arc<Mutex<Vec<FleetEvent>>>,
    ) -> Self {
        DurabilityMonitor {
            store,
            state: Mutex::new(MonitorState::default()),
            wake: Condvar::new(),
            stopped: AtomicBool::new(false),
            metrics,
            events,
        }
    }

    /// Poison tolerance: the state is plain buffers; no invariant spans
    /// a panic window.
    fn lock(&self) -> MutexGuard<'_, MonitorState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, st: MutexGuard<'a, MonitorState>) -> MutexGuard<'a, MonitorState> {
        self.wake.wait(st).unwrap_or_else(PoisonError::into_inner)
    }

    fn count(&self, counter: impl Fn(&FleetMetrics) -> &std::sync::atomic::AtomicU64) {
        counter(&self.metrics).fetch_add(1, Ordering::Relaxed);
    }

    pub fn health(&self) -> DurabilityHealth {
        match self.lock().degraded {
            None => DurabilityHealth::Durable,
            Some(reason) => DurabilityHealth::DegradedDurability(reason),
        }
    }

    /// Enters degraded mode (no-op if already degraded: the *first*
    /// failure names the episode). Must be called with the state lock
    /// held.
    fn degrade_locked(&self, st: &mut MonitorState, reason: DegradedReason) {
        if st.degraded.is_some() {
            return;
        }
        st.degraded = Some(reason);
        st.episode_checkpoints = 0;
        st.episode_ledger = 0;
        self.count(|m| &m.durability_degraded);
        mutex_lock(&self.events).push(FleetEvent::DurabilityDegraded { reason });
        self.wake.notify_all();
    }

    /// Worker path: queues `blob` and the stream `offset` it was taken at
    /// as `id`'s newest checkpoint for the flusher, superseding an older
    /// one that has not reached disk yet. Never touches the disk.
    pub fn submit(&self, id: u64, offset: u64, blob: Arc<Vec<u8>>) {
        let mut st = self.lock();
        if st.degraded.is_some() {
            self.count(|m| &m.durable_flushes_buffered);
        }
        if st.pending.insert(id, (offset, blob)).is_some() {
            self.count(|m| &m.checkpoints_superseded);
            return;
        }
        st.order.push_back(id);
        // A non-empty queue means the flusher is busy (or backing off
        // while degraded): only the first blob needs to wake it.
        if st.order.len() == 1 && st.degraded.is_none() {
            self.wake.notify_all();
        }
    }

    /// Writes the blob of the session that has waited longest. `None`
    /// when nothing is pending, else whether the put landed. A failed
    /// blob goes back to the head of the line (unless a newer one was
    /// submitted meanwhile) and the fleet degrades.
    fn flush_next(&self) -> Option<bool> {
        let (id, (offset, blob)) = {
            let mut st = self.lock();
            let id = st.order.pop_front()?;
            let pending = st.pending.remove(&id)?;
            st.in_flight = Some(id);
            (id, pending)
        };
        let ok = self.store.put_checkpoint(id, offset, &blob).is_ok();
        let mut st = self.lock();
        st.in_flight = None;
        if ok {
            self.count(|m| &m.durable_flushes);
            st.episode_checkpoints += 1;
        } else {
            if st.degraded.is_none() {
                self.count(|m| &m.durable_flush_failures);
            }
            if let std::collections::hash_map::Entry::Vacant(e) = st.pending.entry(id) {
                e.insert((offset, blob));
                st.order.push_front(id);
            }
            self.degrade_locked(&mut st, DegradedReason::CheckpointFlush);
        }
        drop(st);
        // Release any `remove_session` fenced on this write.
        self.wake.notify_all();
        Some(ok)
    }

    /// Runs `write` against the store unless the fleet is degraded. A
    /// degraded fleet, or a failed write (which degrades it with
    /// `reason`), keeps the item for the flusher through `buffer`.
    fn write_or_buffer<T>(
        &self,
        reason: DegradedReason,
        write: impl FnOnce(&Store) -> Result<T, StoreError>,
        buffer: impl FnOnce(&mut MonitorState),
    ) -> Option<T> {
        let degraded = self.lock().degraded.is_some();
        if !degraded {
            match write(&self.store) {
                Ok(v) => return Some(v),
                Err(_) => self.count(|m| &m.durable_flush_failures),
            }
        }
        let mut st = self.lock();
        buffer(&mut st);
        self.count(|m| &m.durable_flushes_buffered);
        self.degrade_locked(&mut st, reason);
        None
    }

    /// Applies a quarantine-ledger mutation, or buffers it while degraded.
    pub fn write_ledger(&self, op: LedgerOp) {
        self.write_or_buffer(
            DegradedReason::LedgerWrite,
            |store| op.apply(store),
            |st| st.pending_ledger.push(op),
        );
    }

    /// Writes a federated merged-model blob as a new durable generation;
    /// `None` when it was buffered instead (degraded, or the write failed).
    pub fn put_federated(&self, blob: &[u8]) -> Option<u64> {
        self.write_or_buffer(
            DegradedReason::FederatedWrite,
            |store| store.put_federated(blob),
            |st| {
                st.seq += 1;
                st.pending_federated = Some((st.seq, blob.to_vec()));
            },
        )
    }

    /// Writes the full federation reputation book; `None` when it was
    /// buffered instead.
    pub fn put_reputations(&self, book: &BTreeMap<u64, ReputationEntry>) -> Option<u64> {
        self.write_or_buffer(
            DegradedReason::ReputationWrite,
            |store| store.put_reputations(book),
            |st| {
                st.seq += 1;
                st.pending_reputation = Some((st.seq, book.clone()));
            },
        )
    }

    /// Engine path: forgets `id`'s durable lineage. Its pending blob is
    /// discarded and a write already in flight is waited out *before* the
    /// session's generations and ledger entry are removed, so no blob of
    /// the old lineage can land afterwards. The caller guarantees no new
    /// blob of `id` is submitted concurrently (the session's worker slot
    /// is gone or quarantined).
    pub fn remove_session(&self, id: u64) {
        let mut st = self.lock();
        loop {
            if st.pending.remove(&id).is_some() {
                st.order.retain(|&s| s != id);
            }
            if st.in_flight != Some(id) {
                break;
            }
            st = self.wait(st);
        }
        drop(st);
        self.write_ledger(LedgerOp::Remove(id));
    }

    /// One retry pass while degraded: replay buffered ledger ops in
    /// order, then write every checkpoint pending at the start of the
    /// pass, then the federated model and the reputation book. Retires
    /// only what it actually wrote. A clean pass transitions back to
    /// `Durable` and emits `DurabilityRestored`; checkpoints submitted
    /// during the pass are left to the flusher. Returns whether the fleet
    /// is durable again.
    pub fn try_drain(&self) -> bool {
        let (ledger_ops, federated, reputation) = {
            let st = self.lock();
            if st.degraded.is_none() {
                return true;
            }
            (
                st.pending_ledger.clone(),
                st.pending_federated.clone(),
                st.pending_reputation.clone(),
            )
        };
        // Ledger ops replay strictly in order; stop at the first failure
        // so a later op can never leapfrog an earlier one.
        let mut applied = 0usize;
        for op in &ledger_ops {
            self.count(|m| &m.durable_flush_retries);
            if op.apply(&self.store).is_err() {
                break;
            }
            applied += 1;
        }
        if applied > 0 {
            let mut st = self.lock();
            // Ops are append-only, so the first `applied` entries are
            // exactly the ones replayed above.
            let n = applied.min(st.pending_ledger.len());
            st.pending_ledger.drain(..n);
            st.episode_ledger += applied as u32;
        }
        // Checkpoints only after the ledger: a buffered `Remove` must not
        // delete a re-created session's newer generations.
        let mut clean = applied == ledger_ops.len();
        if clean {
            let mut budget = self.lock().order.len();
            while budget > 0 {
                budget -= 1;
                self.count(|m| &m.durable_flush_retries);
                if self.flush_next() == Some(false) {
                    clean = false;
                    break;
                }
            }
        }
        if let Some((seq, blob)) = federated {
            self.count(|m| &m.durable_flush_retries);
            if self.store.put_federated(&blob).is_ok() {
                let mut st = self.lock();
                if st
                    .pending_federated
                    .as_ref()
                    .is_some_and(|(s, _)| *s == seq)
                {
                    st.pending_federated = None;
                }
            } else {
                clean = false;
            }
        }
        if let Some((seq, book)) = reputation {
            self.count(|m| &m.durable_flush_retries);
            if self.store.put_reputations(&book).is_ok() {
                let mut st = self.lock();
                if st
                    .pending_reputation
                    .as_ref()
                    .is_some_and(|(s, _)| *s == seq)
                {
                    st.pending_reputation = None;
                }
            } else {
                clean = false;
            }
        }
        let mut st = self.lock();
        if clean
            && st.pending_ledger.is_empty()
            && st.pending_federated.is_none()
            && st.pending_reputation.is_none()
            && st.degraded.is_some()
        {
            st.degraded = None;
            self.count(|m| &m.durability_recovered);
            mutex_lock(&self.events).push(FleetEvent::DurabilityRestored {
                flushed_checkpoints: st.episode_checkpoints,
                drained_ledger_writes: st.episode_ledger,
            });
        }
        st.degraded.is_none()
    }

    /// Signals the flusher to drain what is pending and exit.
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        self.wake.notify_all();
    }

    fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }
}

/// Decorrelated-jitter backoff: each delay is drawn uniformly from
/// `[base, prev * 3]` and clamped to `cap`, so consecutive delays
/// decorrelate instead of marching through the same exponential rungs as
/// every other retrier. Shared by the flusher's degraded-durability
/// retries and the server crate's reconnecting client; the sequence is a
/// pure function of the seed, so a documented seed replays.
#[derive(Debug)]
pub struct Backoff {
    rng: Rng,
    base: Duration,
    cap: Duration,
    prev: Duration,
}

impl Backoff {
    /// A fresh sequence between `base` (at least 1 µs) and `cap` (at
    /// least `base`).
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        Backoff {
            rng: Rng::seed_from(seed),
            base: base.max(Duration::from_micros(1)),
            cap: cap.max(base),
            prev: base,
        }
    }

    /// The next delay in the sequence.
    pub fn next_delay(&mut self) -> Duration {
        let lo = self.base.as_micros() as u64;
        let hi = (self.prev.as_micros() as u64).saturating_mul(3).max(lo + 1);
        let span = hi - lo;
        let drawn = lo + self.rng.below(span + 1);
        let delay = Duration::from_micros(drawn).min(self.cap);
        self.prev = delay;
        delay
    }

    /// Back to the floor (call after a success).
    pub fn reset(&mut self) {
        self.prev = self.base;
    }
}

/// Seed of the flusher's retry backoff.
const FLUSH_BACKOFF_SEED: u64 = 0xD15C_FA11;

/// The flusher thread. While durable it writes pending checkpoints as
/// soon as there are any and sleeps otherwise; once degraded it retries
/// everything buffered with decorrelated-jitter backoff until the disk
/// heals. On `stop()` it drains what is pending (one retry pass when
/// degraded) and exits.
pub(crate) fn flush_loop(monitor: Arc<DurabilityMonitor>, base: Duration, cap: Duration) {
    let mut backoff = Backoff::new(base, cap, FLUSH_BACKOFF_SEED);
    loop {
        let degraded = {
            let mut st = monitor.lock();
            while st.degraded.is_none() && st.order.is_empty() && !monitor.is_stopped() {
                st = monitor.wait(st);
            }
            st.degraded.is_some()
        };
        if monitor.is_stopped() {
            break;
        }
        if !degraded {
            monitor.flush_next();
            continue;
        }
        // Degraded: wait out the backoff (waking early on stop), then
        // attempt a retry pass.
        let delay = backoff.next_delay();
        {
            let st = monitor.lock();
            let _ = monitor
                .wake
                .wait_timeout(st, delay)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if monitor.is_stopped() {
            break;
        }
        if monitor.try_drain() {
            backoff.reset();
        }
    }
    if monitor.try_drain() {
        while monitor.flush_next() == Some(true) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdrift_store::{FaultPlan, FaultVfs, StoreConfig, Vfs};
    use std::path::PathBuf;

    /// A monitor over a fresh store at a per-test temp dir whose every
    /// file write fails (ENOSPC) until the returned `FaultVfs` is
    /// deactivated.
    fn failing(name: &str) -> (DurabilityMonitor, Arc<FaultVfs>, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("seqdrift-durmon-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let vfs = Arc::new(FaultVfs::new(FaultPlan::new(7).with_enospc(1024)).with_base(&dir));
        vfs.set_active(false);
        let store = Store::open_with_vfs(
            &dir,
            StoreConfig::default(),
            Arc::clone(&vfs) as Arc<dyn Vfs>,
        )
        .unwrap();
        vfs.set_active(true);
        let m = DurabilityMonitor::new(
            Arc::new(store),
            Arc::new(FleetMetrics::default()),
            Arc::new(Mutex::new(Vec::new())),
        );
        (m, vfs, dir)
    }

    fn blob(bytes: &[u8]) -> Arc<Vec<u8>> {
        Arc::new(bytes.to_vec())
    }

    #[test]
    fn newer_blobs_supersede_and_keep_their_place_in_line() {
        let (m, vfs, dir) = failing("order");
        vfs.set_active(false);
        m.submit(1, 0, blob(b"a1"));
        m.submit(2, 0, blob(b"b1"));
        m.submit(1, 0, blob(b"a2"));
        assert_eq!(m.metrics.checkpoints_superseded.load(Ordering::Relaxed), 1);
        assert_eq!(m.lock().order, VecDeque::from([1, 2]));
        assert_eq!(m.flush_next(), Some(true));
        assert_eq!(m.flush_next(), Some(true));
        assert_eq!(m.flush_next(), None);
        let (generation, payload) = m.store.load(1).unwrap().unwrap();
        assert!(generation == 1 && payload.ends_with(b"a2"));
        assert_eq!(m.metrics.durable_flushes.load(Ordering::Relaxed), 2);
        // Removal discards what is pending: the old blob never lands.
        m.submit(2, 0, blob(b"b2"));
        m.remove_session(2);
        assert_eq!(m.flush_next(), None);
        assert!(m.store.load(2).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn starts_durable_and_degrades_once_per_episode() {
        let (m, _vfs, dir) = failing("episode");
        assert_eq!(m.health(), DurabilityHealth::Durable);
        m.submit(1, 0, blob(b"x"));
        assert_eq!(m.flush_next(), Some(false));
        assert_eq!(
            m.health(),
            DurabilityHealth::DegradedDurability(DegradedReason::CheckpointFlush)
        );
        // A second failure does not re-enter (or re-label) the episode.
        assert_eq!(m.put_federated(b"y"), None);
        assert_eq!(
            m.health(),
            DurabilityHealth::DegradedDurability(DegradedReason::CheckpointFlush)
        );
        assert_eq!(m.metrics.durability_degraded.load(Ordering::Relaxed), 1);
        // The failed blob waits for the retry; a newer one supersedes it.
        m.submit(1, 0, blob(b"newer"));
        assert_eq!(&*m.lock().pending[&1].1, b"newer");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drain_recovers_and_emits_restored() {
        let (m, vfs, dir) = failing("drain");
        m.submit(3, 0, blob(b"blob"));
        assert_eq!(m.flush_next(), Some(false));
        m.write_ledger(LedgerOp::Set(
            9,
            LedgerEntry {
                reason_code: 1,
                restarts_spent: 2,
            },
        ));
        assert!(!m.try_drain());
        vfs.set_active(false);
        assert!(m.try_drain());
        assert_eq!(m.health(), DurabilityHealth::Durable);
        assert!(m.store.load(3).unwrap().unwrap().1.ends_with(b"blob"));
        assert_eq!(m.store.ledger().len(), 1);
        let events = m.events.lock().unwrap();
        assert!(events.iter().any(|e| matches!(
            e,
            FleetEvent::DurabilityRestored {
                flushed_checkpoints: 1,
                drained_ledger_writes: 1
            }
        )));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reputation_buffers_while_degraded_and_drains() {
        let (m, vfs, dir) = failing("rep");
        let mut book = BTreeMap::new();
        book.insert(1, ReputationEntry::default());
        // A failed write degrades with the reputation reason.
        assert_eq!(m.put_reputations(&book), None);
        assert_eq!(
            m.health(),
            DurabilityHealth::DegradedDurability(DegradedReason::ReputationWrite)
        );
        // A newer book supersedes the buffered one.
        book.insert(
            2,
            ReputationEntry {
                trust: 0.5,
                outlier_rounds: 1,
                clean_rounds: 0,
            },
        );
        vfs.set_active(false);
        assert_eq!(m.put_reputations(&book), None);
        assert!(m.try_drain());
        assert_eq!(m.health(), DurabilityHealth::Durable);
        assert_eq!(m.store.reputations(), book);
        // Durable again: writes go straight to disk.
        assert!(m.put_reputations(&book).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backoff_grows_and_respects_cap() {
        let mut b = Backoff::new(Duration::from_millis(10), Duration::from_millis(200), 42);
        let mut prev = Duration::ZERO;
        let mut grew = false;
        for _ in 0..32 {
            let d = b.next_delay();
            assert!(d >= Duration::from_millis(10));
            assert!(d <= Duration::from_millis(200));
            if d > prev {
                grew = true;
            }
            prev = d;
        }
        assert!(grew);
        b.reset();
        assert!(b.next_delay() <= Duration::from_millis(30));
    }

    #[test]
    fn backoff_golden_sequences_replay() {
        // The flusher's seed under the default `FleetConfig` retry bounds,
        // and the server's reconnect seed under its default policy.
        let first8 = |base_ms: u64, seed: u64| {
            let mut b = Backoff::new(Duration::from_millis(base_ms), Duration::from_secs(2), seed);
            (0..8)
                .map(|_| b.next_delay().as_micros())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            first8(50, FLUSH_BACKOFF_SEED),
            [139_405, 133_776, 198_312, 241_384, 428_338, 1_079_129, 2_000_000, 954_041]
        );
        assert_eq!(
            first8(10, 0x5EED),
            [21_148, 62_990, 26_270, 40_096, 57_676, 73_713, 68_177, 153_799]
        );
    }
}
