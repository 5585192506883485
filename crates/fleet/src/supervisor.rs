//! Session supervision: panic isolation, rolling checkpoints, bounded
//! restart budgets, and the shard worker loop that enforces them.
//!
//! The contract the fleet's north-star demands is *blast-radius one*: a
//! panicking session may lose itself (briefly), never its neighbours.
//! Three mechanisms deliver it:
//!
//! 1. **Panic isolation** — the session is the one supervision boundary.
//!    Each row a worker takes (fault hooks, pipeline step, metrics, event
//!    forwarding, checkpoint cadence) and each control message runs
//!    inside `catch_unwind`; a panic discards only that session's live
//!    pipeline while the shard keeps draining its queue, so no panic ends
//!    a worker thread.
//! 2. **Rolling checkpoints** — each session serialises its state
//!    through `seqdrift_core::persist` every
//!    `FleetConfig::checkpoint_interval` processed samples, whatever state
//!    its pipeline is in, into a shared [`CheckpointStore`] (a durable
//!    fleet also writes it to disk with the session's stream offset); a
//!    panicked session is restored from its last
//!    blob (losing at most one checkpoint interval of samples) and keeps
//!    its live stream offset, so the rows it lost are never sent again.
//! 3. **Bounded restart budget** — at most `max_restarts` restores per
//!    `restart_window` delivered samples; past the budget (or with no
//!    usable checkpoint) the session is *permanently quarantined* and
//!    surfaced to the caller instead of silently retried forever.
//!
//! Checkpoints, restart history and session status live in shared
//! structures owned by the engine: the caller reads a quarantined
//! session's last checkpoint from there, and a durable fleet persists
//! them.

use crate::durability::{DurabilityMonitor, LedgerOp};
use crate::engine::{SessionId, ShardMsg};
use crate::fault::FaultInjector;
use crate::inbox::{InboxReceiver, Taken};
use crate::metrics::FleetMetrics;
use seqdrift_core::pipeline::PipelineEvent;
use seqdrift_core::DriftPipeline;
use seqdrift_linalg::Real;
use seqdrift_store::LedgerEntry;
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Why a session was taken out of service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The session panicked before any checkpoint could be taken.
    NoCheckpoint,
    /// The restart budget (`max_restarts` per `restart_window` delivered
    /// samples) was exhausted.
    RestartBudgetExhausted,
    /// The last checkpoint blob failed to decode (e.g. corrupted bytes).
    CorruptCheckpoint,
}

impl QuarantineReason {
    /// Stable on-disk code for the durable quarantine ledger. New variants
    /// append new codes; existing codes never change meaning.
    pub(crate) fn code(self) -> u8 {
        match self {
            QuarantineReason::NoCheckpoint => 1,
            QuarantineReason::RestartBudgetExhausted => 2,
            QuarantineReason::CorruptCheckpoint => 3,
        }
    }

    /// Decodes a ledger code. Unknown codes (written by a newer fleet)
    /// conservatively read as `CorruptCheckpoint`: the session stays
    /// quarantined either way, which is the safe direction.
    pub(crate) fn from_code(code: u8) -> QuarantineReason {
        match code {
            1 => QuarantineReason::NoCheckpoint,
            2 => QuarantineReason::RestartBudgetExhausted,
            _ => QuarantineReason::CorruptCheckpoint,
        }
    }
}

impl std::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuarantineReason::NoCheckpoint => write!(f, "panicked with no checkpoint"),
            QuarantineReason::RestartBudgetExhausted => write!(f, "restart budget exhausted"),
            QuarantineReason::CorruptCheckpoint => write!(f, "checkpoint failed to decode"),
        }
    }
}

/// Lifecycle status of a registered session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// Live: feeding, snapshotting and evicting all work.
    Active,
    /// Permanently out of service; only visible through the registry,
    /// [`crate::FleetEngine::last_checkpoint`] and the shutdown report.
    Quarantined(QuarantineReason),
}

/// One entry of the fleet's event log. Pipeline events are wrapped;
/// supervision adds its own lifecycle entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetEvent {
    /// A drift detection or reconstruction completion inside a session.
    Pipeline {
        /// Originating session.
        id: SessionId,
        /// The pipeline's own event.
        event: PipelineEvent,
    },
    /// A panic while a worker handled one of the session's rows or
    /// control messages (caught; shard unaffected).
    SessionPanicked {
        /// The panicking session.
        id: SessionId,
        /// Delivery index (samples handed to the session so far) at the
        /// panic.
        at_delivery: u64,
    },
    /// A panicked session was restored from its rolling checkpoint.
    SessionRestored {
        /// The restored session.
        id: SessionId,
        /// `samples_processed` of the checkpoint it resumed from.
        resumed_at_sample: u64,
        /// Restarts consumed inside the current sliding window, this one
        /// included.
        restarts_in_window: u32,
    },
    /// A session was permanently quarantined.
    SessionQuarantined {
        /// The quarantined session.
        id: SessionId,
        /// Why it will not come back.
        reason: QuarantineReason,
    },
    /// A durable write failed and the fleet entered degraded durability:
    /// writes buffer in memory while the flusher retries the disk with
    /// backoff.
    DurabilityDegraded {
        /// The write that first failed.
        reason: crate::durability::DegradedReason,
    },
    /// The disk healed: a retry pass drained every buffered write and the
    /// fleet is durable again.
    DurabilityRestored {
        /// Buffered checkpoints flushed during the degraded episode.
        flushed_checkpoints: u32,
        /// Buffered quarantine-ledger writes drained during the episode.
        drained_ledger_writes: u32,
    },
    /// A federation merge round was rejected wholesale: candidates were
    /// gathered but no merged model was produced, and the baseline was
    /// left untouched. Without this event a poisoned or flaky fleet fails
    /// silently into the next interval.
    MergeRoundRejected {
        /// Contributor snapshots considered this round.
        candidates: u64,
        /// Why the round produced nothing.
        reason: MergeRejectReason,
    },
    /// A session's federation reputation fell below the trust floor; its
    /// contributions are excluded from merges until trust recovers. The
    /// learning-layer sibling of `SessionQuarantined`.
    SessionExcludedLowTrust {
        /// The distrusted session.
        id: SessionId,
        /// Its trust score at round time.
        trust: seqdrift_linalg::Real,
    },
}

/// Why a federation merge round was rejected wholesale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeRejectReason {
    /// Contributors cleared the overt gates, but none survived the
    /// robust pass.
    TooFewContributors,
    /// The merge computed but failed transactional validation
    /// (non-finite or non-positive-definite combined statistics).
    FailedValidation,
}

impl std::fmt::Display for MergeRejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeRejectReason::TooFewContributors => write!(f, "too few contributors"),
            MergeRejectReason::FailedValidation => write!(f, "merge failed validation"),
        }
    }
}

/// A session lost with its worker at shutdown: a panic escaped the
/// supervision boundary (inside the restore itself), the worker died, and
/// its final state could not be collected.
#[derive(Debug)]
pub struct LostSession {
    /// The lost session.
    pub id: SessionId,
    /// Its last rolling checkpoint, when one was taken — the caller can
    /// restore from it (`FleetEngine::create_from_bytes`) elsewhere.
    pub checkpoint: Option<Vec<u8>>,
}

/// Per-session durable state: the rolling checkpoint plus restart history.
/// Lives engine-side so a quarantined session's checkpoint stays readable.
#[derive(Debug)]
pub(crate) struct CheckpointEntry {
    /// Last good serialised state, shared with the flusher's pending
    /// queue until it reaches disk.
    pub blob: Arc<Vec<u8>>,
    /// `DriftPipeline::samples_processed` captured in `blob`.
    pub checkpoint_sample: u64,
    /// Snapshots taken so far (fault-injection ordinal).
    pub snapshots_taken: u64,
    /// Delivery indices at which the session was restarted (pruned to the
    /// sliding window on every decision).
    pub restarts: VecDeque<u64>,
}

/// Shared checkpoint + restart-history table.
#[derive(Debug, Default)]
pub(crate) struct CheckpointStore {
    inner: Mutex<HashMap<u64, CheckpointEntry>>,
}

impl CheckpointStore {
    pub fn lock(&self) -> MutexGuard<'_, HashMap<u64, CheckpointEntry>> {
        // Poison tolerance: a panic inside another holder leaves plain
        // data (no invariants span the lock), so recover the guard.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Clones the last checkpoint blob of a session, if any.
    pub fn blob_of(&self, id: u64) -> Option<Vec<u8>> {
        self.lock().get(&id).map(|e| e.blob.to_vec())
    }

    pub fn remove(&self, id: u64) {
        self.lock().remove(&id);
    }
}

/// Poison-tolerant lock helpers: every engine/worker lock holds plain
/// data whose invariants never span a panic window, so a poisoned lock is
/// recovered rather than propagated — one panicking thread must not turn
/// every later lock access into a second panic.
pub(crate) fn read_lock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn write_lock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn mutex_lock<T>(l: &Mutex<T>) -> MutexGuard<'_, T> {
    l.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The stream offset of a pipeline that comes without one (a plain
/// blob, or a checkpoint frame written before offsets were persisted):
/// the rows it applied plus the rows its input guard refused. A refused
/// row does not advance `samples_processed`, but a replaying device has
/// already sent it, so resume offsets count it too. Rows lost to a panic
/// restore are not in the pipeline at all; only a session's own offset,
/// counted as rows are delivered, includes them.
pub(crate) fn stream_offset(pipeline: &DriftPipeline) -> u64 {
    pipeline.samples_processed() + pipeline.guard_counters().rejected
}

/// Supervision parameters, copied out of `FleetConfig` for the workers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SupervisionPolicy {
    /// Checkpoint every this many processed samples.
    pub checkpoint_interval: u64,
    /// Restarts allowed inside one sliding window.
    pub max_restarts: u32,
    /// Sliding-window width, in delivered samples.
    pub restart_window: u64,
}

/// Everything a worker thread shares with the engine and its siblings.
pub(crate) struct WorkerCtx {
    pub metrics: Arc<FleetMetrics>,
    pub events: Arc<Mutex<Vec<FleetEvent>>>,
    pub registry: Arc<RwLock<HashMap<u64, SessionStatus>>>,
    pub store: Arc<CheckpointStore>,
    /// Checkpoint flusher and durability health machine over the store
    /// behind `FleetConfig::state_dir`; `None` runs the fleet memory-only.
    pub monitor: Option<Arc<DurabilityMonitor>>,
    pub injector: Option<Arc<FaultInjector>>,
    pub policy: SupervisionPolicy,
}

impl WorkerCtx {
    fn log(&self, event: FleetEvent) {
        mutex_lock(&self.events).push(event);
    }
}

/// A worker's live view of one session.
pub(crate) struct SessionSlot {
    pub pipeline: DriftPipeline,
    /// The session's stream offset: `created_at` plus every row delivered
    /// since, applied, refused, or lost to a panic restore. Never moves
    /// back.
    pub offset: u64,
    /// The stream offset the session was created at; fixed for the life
    /// of the slot.
    created_at: u64,
    /// Samples processed since the last checkpoint attempt succeeded.
    since_checkpoint: u64,
}

impl SessionSlot {
    fn new(pipeline: DriftPipeline, offset: u64) -> Self {
        SessionSlot {
            pipeline,
            offset,
            created_at: offset,
            since_checkpoint: 0,
        }
    }

    /// Rows delivered to this session since it was created: the delivery
    /// index of the next row, the coordinate fault plans and the restart
    /// window count in.
    fn delivered(&self) -> u64 {
        self.offset - self.created_at
    }
}

/// Takes (or refreshes) a session's rolling checkpoint. A durable fleet
/// hands it to the flusher with the session's stream offset; the worker
/// never waits on the disk.
fn take_checkpoint(ctx: &WorkerCtx, id: u64, slot: &mut SessionSlot) {
    let Ok(mut blob) = slot.pipeline.to_bytes() else {
        return;
    };
    let mut store = ctx.store.lock();
    let entry = store.entry(id).or_insert_with(|| CheckpointEntry {
        blob: Arc::default(),
        checkpoint_sample: 0,
        snapshots_taken: 0,
        restarts: VecDeque::new(),
    });
    if let Some(injector) = &ctx.injector {
        if injector.corrupt_checkpoint(id, entry.snapshots_taken, &mut blob) {
            ctx.metrics
                .checkpoints_corrupted
                .fetch_add(1, Ordering::Relaxed);
        }
    }
    entry.checkpoint_sample = slot.pipeline.samples_processed();
    entry.snapshots_taken += 1;
    entry.blob = Arc::new(blob);
    slot.since_checkpoint = 0;
    let blob = Arc::clone(&entry.blob);
    drop(store);
    if let Some(monitor) = &ctx.monitor {
        monitor.submit(id, slot.offset, blob);
    }
}

/// Restore-or-quarantine decision for a panicked session.
enum Recovery {
    Restore {
        pipeline: Box<DriftPipeline>,
        resumed_at_sample: u64,
        restarts_in_window: u32,
    },
    Quarantine(QuarantineReason),
}

/// Applies the restart budget and attempts a checkpoint restore.
fn decide_recovery(ctx: &WorkerCtx, id: u64, delivered: u64) -> Recovery {
    let mut store = ctx.store.lock();
    let Some(entry) = store.get_mut(&id) else {
        return Recovery::Quarantine(QuarantineReason::NoCheckpoint);
    };
    let window_start = delivered.saturating_sub(ctx.policy.restart_window);
    while entry.restarts.front().is_some_and(|&t| t < window_start) {
        entry.restarts.pop_front();
    }
    if entry.restarts.len() as u32 >= ctx.policy.max_restarts {
        return Recovery::Quarantine(QuarantineReason::RestartBudgetExhausted);
    }
    match DriftPipeline::from_bytes(&entry.blob) {
        Ok(pipeline) => {
            entry.restarts.push_back(delivered);
            Recovery::Restore {
                pipeline: Box::new(pipeline),
                resumed_at_sample: entry.checkpoint_sample,
                restarts_in_window: entry.restarts.len() as u32,
            }
        }
        Err(_) => Recovery::Quarantine(QuarantineReason::CorruptCheckpoint),
    }
}

/// Handles a panic caught while a worker handled a row or a control
/// message of session `id`, `at_delivery` rows into its stream. A session
/// with a live slot is restored from its last checkpoint within budget,
/// else permanently quarantined; one without (a create that never
/// installed it, an evict that already removed it) has nothing to
/// recover. The restored pipeline keeps the slot's stream offset, so the
/// rows lost to the restore still count as consumed.
fn supervise_panic(
    ctx: &WorkerCtx,
    slots: &mut HashMap<u64, SessionSlot>,
    id: u64,
    at_delivery: u64,
) {
    let Some(slot) = slots.get_mut(&id) else {
        return;
    };
    ctx.metrics.panics_caught.fetch_add(1, Ordering::Relaxed);
    ctx.log(FleetEvent::SessionPanicked {
        id: SessionId(id),
        at_delivery,
    });
    match decide_recovery(ctx, id, at_delivery) {
        Recovery::Restore {
            pipeline,
            resumed_at_sample,
            restarts_in_window,
        } => {
            // The old pipeline may be mid-mutation garbage: replace it.
            slot.pipeline = *pipeline;
            slot.since_checkpoint = 0;
            ctx.metrics
                .sessions_restored
                .fetch_add(1, Ordering::Relaxed);
            ctx.log(FleetEvent::SessionRestored {
                id: SessionId(id),
                resumed_at_sample,
                restarts_in_window,
            });
        }
        Recovery::Quarantine(reason) => {
            slots.remove(&id);
            quarantine(ctx, id, reason);
        }
    }
}

/// Marks a session permanently quarantined in the shared registry and
/// logs it. The caller removes (or never inserts) the live slot.
fn quarantine(ctx: &WorkerCtx, id: u64, reason: QuarantineReason) {
    // Persist the decision so a process restart cannot resurrect a
    // poisoned session: quarantine is a durability fact, not a runtime
    // mood. A failing disk buffers the verdict for the flusher; until it
    // lands it holds in memory, exactly like a memory-only fleet. The
    // verdict is persisted *before* it is published: a `create` that sees
    // the quarantine and replaces the session clears the ledger entry, so
    // that entry must already exist or it would land afterwards and
    // quarantine the replacement on the next restart.
    if let Some(monitor) = &ctx.monitor {
        let restarts_spent = ctx
            .store
            .lock()
            .get(&id)
            .map_or(0, |e| e.restarts.len() as u64);
        let entry = LedgerEntry {
            reason_code: reason.code(),
            restarts_spent,
        };
        monitor.write_ledger(LedgerOp::Set(id, entry));
    }
    write_lock(&ctx.registry).insert(id, SessionStatus::Quarantined(reason));
    ctx.metrics
        .sessions_quarantined
        .fetch_add(1, Ordering::Relaxed);
    ctx.metrics.sessions.fetch_sub(1, Ordering::Relaxed);
    ctx.log(FleetEvent::SessionQuarantined {
        id: SessionId(id),
        reason,
    });
}

/// Tallies freshly drained pipeline events into the fleet metrics and
/// appends them to the shared event log.
fn forward_pipeline_events(ctx: &WorkerCtx, id: u64, fresh: Vec<PipelineEvent>) {
    if fresh.is_empty() {
        return;
    }
    for e in &fresh {
        match e {
            PipelineEvent::DriftDetected { .. } => {
                ctx.metrics.drifts_flagged.fetch_add(1, Ordering::Relaxed);
            }
            PipelineEvent::Reconstructed { .. } => {
                ctx.metrics
                    .reconstructions_completed
                    .fetch_add(1, Ordering::Relaxed);
            }
            PipelineEvent::Degraded { .. } => {
                ctx.metrics
                    .sessions_degraded
                    .fetch_add(1, Ordering::Relaxed);
            }
            PipelineEvent::Recovered { .. } => {
                ctx.metrics
                    .sessions_recovered
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    let mut log = mutex_lock(&ctx.events);
    log.extend(fresh.into_iter().map(|event| FleetEvent::Pipeline {
        id: SessionId(id),
        event,
    }));
}

/// Delivers one sample row to session `id` inside the supervision
/// boundary: fault injection, the pipeline step, metrics, events and the
/// checkpoint cadence. A panic anywhere in the row is the session's.
fn feed_row(ctx: &WorkerCtx, slots: &mut HashMap<u64, SessionSlot>, id: u64, sample: &mut [Real]) {
    let Some(slot) = slots.get_mut(&id) else {
        ctx.metrics.samples_dropped.fetch_add(1, Ordering::Relaxed);
        return;
    };
    let delivered = slot.delivered();
    slot.offset += 1;
    let handled = std::panic::catch_unwind(AssertUnwindSafe(|| {
        if let Some(injector) = &ctx.injector {
            injector.before_process(id, delivered, sample);
        }
        match slot.pipeline.process(sample) {
            Ok(out) => {
                ctx.metrics
                    .samples_processed
                    .fetch_add(1, Ordering::Relaxed);
                if out.sanitized {
                    ctx.metrics
                        .samples_sanitized
                        .fetch_add(1, Ordering::Relaxed);
                }
                slot.since_checkpoint += 1;
                forward_pipeline_events(ctx, id, slot.pipeline.drain_events());
                if slot.since_checkpoint >= ctx.policy.checkpoint_interval {
                    take_checkpoint(ctx, id, slot);
                }
            }
            Err(_) => {
                // A bad sample (e.g. NaN from a faulty sensor) drops; the
                // session itself stays healthy. The guard may have pushed
                // a `Degraded` event — forward it now rather than waiting
                // for the next clean sample.
                ctx.metrics.samples_dropped.fetch_add(1, Ordering::Relaxed);
                forward_pipeline_events(ctx, id, slot.pipeline.drain_events());
            }
        }
        if let Some(injector) = &ctx.injector {
            injector.panic_in_worker(id, delivered);
        }
    }));
    if handled.is_err() {
        supervise_panic(ctx, slots, id, delivered);
    }
}

/// Runs one control message of session `id` inside the supervision
/// boundary. A panic leaves the message's reply unsent, so its caller
/// sees `FleetError::Disconnected` once the sender drops, and is then the
/// session's panic.
fn control(
    ctx: &WorkerCtx,
    slots: &mut HashMap<u64, SessionSlot>,
    id: u64,
    work: impl FnOnce(&mut HashMap<u64, SessionSlot>),
) {
    let at_delivery = slots.get(&id).map_or(0, SessionSlot::delivered);
    if std::panic::catch_unwind(AssertUnwindSafe(|| work(slots))).is_err() {
        supervise_panic(ctx, slots, id, at_delivery);
    }
}

/// One shard's event loop. Exits, after draining the inbox, when the
/// engine hangs it up, and returns the live sessions, sorted by id. Every
/// row and control message runs inside the supervision boundary, so only
/// a panic inside a restore can end the loop.
pub(crate) fn worker_loop(rx: InboxReceiver, ctx: WorkerCtx) -> Vec<(u64, SessionSlot)> {
    let mut slots: HashMap<u64, SessionSlot> = HashMap::new();
    let mut rows_in = Vec::new();
    while let Some(taken) = rx.recv(&mut rows_in) {
        let msg = match taken {
            Taken::Control(msg) => msg,
            Taken::Rows { id, rows } => {
                let row_len = rows_in.len() / rows;
                for r in 0..rows {
                    // The row leaves the queue as the worker takes it.
                    rx.depth().release(1);
                    feed_row(
                        &ctx,
                        &mut slots,
                        id,
                        &mut rows_in[r * row_len..(r + 1) * row_len],
                    );
                }
                continue;
            }
        };
        match msg {
            ShardMsg::Create {
                id,
                pipeline,
                offset,
                reply,
            } => control(&ctx, &mut slots, id, |slots| {
                let result = if let std::collections::hash_map::Entry::Vacant(e) = slots.entry(id) {
                    let mut slot = SessionSlot::new(*pipeline, offset);
                    slot.pipeline.drain_events();
                    // Seed the rolling checkpoint immediately so a panic
                    // on the very first samples is already recoverable.
                    take_checkpoint(&ctx, id, &mut slot);
                    e.insert(slot);
                    ctx.metrics.sessions.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                } else {
                    Err(crate::engine::FleetError::DuplicateSession(SessionId(id)))
                };
                let _ = reply.send(result);
            }),
            ShardMsg::Snapshot { id, reply } => control(&ctx, &mut slots, id, |slots| {
                let result = match slots.get(&id) {
                    Some(slot) => slot
                        .pipeline
                        .to_bytes()
                        .map_err(crate::engine::FleetError::Core),
                    None => Err(crate::engine::FleetError::UnknownSession(SessionId(id))),
                };
                let _ = reply.send(result);
            }),
            ShardMsg::SamplesProcessed { id, reply } => control(&ctx, &mut slots, id, |slots| {
                let result = match slots.get(&id) {
                    Some(slot) => Ok(slot.offset),
                    None => Err(crate::engine::FleetError::UnknownSession(SessionId(id))),
                };
                let _ = reply.send(result);
            }),
            ShardMsg::InstallModel { id, model, reply } => control(&ctx, &mut slots, id, |slots| {
                let result = match slots.get_mut(&id) {
                    Some(slot) => slot
                        .pipeline
                        .install_model(*model)
                        .map_err(crate::engine::FleetError::Core),
                    None => Err(crate::engine::FleetError::UnknownSession(SessionId(id))),
                };
                let _ = reply.send(result);
            }),
            ShardMsg::Evict { id, reply } => control(&ctx, &mut slots, id, |slots| {
                let result = match slots.remove(&id) {
                    Some(slot) => {
                        ctx.metrics.sessions.fetch_sub(1, Ordering::Relaxed);
                        Ok(Box::new(slot.pipeline))
                    }
                    None => Err(crate::engine::FleetError::UnknownSession(SessionId(id))),
                };
                let _ = reply.send(result);
            }),
        }
    }
    let mut out: Vec<(u64, SessionSlot)> = slots.into_iter().collect();
    out.sort_by_key(|(id, _)| *id);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdrift_core::DetectorConfig;
    use seqdrift_linalg::Rng;
    use seqdrift_oselm::{MultiInstanceModel, OsElmConfig};
    use std::sync::mpsc::channel;

    const DIM: usize = 4;

    fn rows(seed: u64, n: usize) -> Vec<Vec<Real>> {
        let mut rng = Rng::seed_from(seed);
        (0..n)
            .map(|_| {
                let mut x = vec![0.0; DIM];
                rng.fill_normal(&mut x, 0.3, 0.05);
                x
            })
            .collect()
    }

    fn pipeline() -> DriftPipeline {
        let train = rows(1, 60);
        let mut model = MultiInstanceModel::new(1, OsElmConfig::new(DIM, 3).with_seed(2)).unwrap();
        model.init_train_class(0, &train).unwrap();
        let pairs: Vec<(usize, &[Real])> = train.iter().map(|x| (0, x.as_slice())).collect();
        DriftPipeline::calibrate(model, DetectorConfig::new(1, DIM).with_window(8), &pairs).unwrap()
    }

    fn ctx(max_restarts: u32) -> WorkerCtx {
        WorkerCtx {
            metrics: Arc::default(),
            events: Arc::default(),
            registry: Arc::default(),
            store: Arc::default(),
            monitor: None,
            injector: None,
            policy: SupervisionPolicy {
                checkpoint_interval: 4,
                max_restarts,
                restart_window: 1024,
            },
        }
    }

    #[test]
    fn a_control_message_panic_costs_its_reply_and_only_its_session() {
        let ctx = ctx(1);
        let mut slots = HashMap::new();
        let mut slot = SessionSlot::new(pipeline(), 10);
        take_checkpoint(&ctx, 7, &mut slot);
        slots.insert(7, slot);
        for mut row in rows(3, 6) {
            feed_row(&ctx, &mut slots, 7, &mut row);
        }

        // A live session: the reply is lost, the pipeline restores from
        // its checkpoint at 4 samples, the stream offset stays live.
        let (reply, rx) = channel::<u64>();
        control(&ctx, &mut slots, 7, |_| {
            let _reply = reply;
            panic!("control message panics");
        });
        assert!(rx.recv().is_err());
        assert_eq!(slots[&7].offset, 16);
        assert_eq!(slots[&7].pipeline.samples_processed(), 4);
        let m = ctx.metrics.snapshot();
        assert_eq!((m.panics_caught, m.sessions_restored), (1, 1));
        assert!(
            mutex_lock(&ctx.events).contains(&FleetEvent::SessionPanicked {
                id: SessionId(7),
                at_delivery: 6,
            })
        );

        // No live slot: the panic costs only the reply.
        let (reply, rx) = channel::<u64>();
        control(&ctx, &mut slots, 9, |_| {
            let _reply = reply;
            panic!("control message panics");
        });
        assert!(rx.recv().is_err());
        assert!(!slots.contains_key(&9));
        assert_eq!(ctx.metrics.snapshot().panics_caught, 1);

        // Past the restart budget, a control panic quarantines.
        control(&ctx, &mut slots, 7, |_| panic!("control message panics"));
        assert!(!slots.contains_key(&7));
        assert_eq!(
            read_lock(&ctx.registry).get(&7),
            Some(&SessionStatus::Quarantined(
                QuarantineReason::RestartBudgetExhausted
            ))
        );
    }
}
