//! The fleet engine: sharded worker threads, bounded ingress queues,
//! session routing, supervised recovery, and deterministic shutdown.
//!
//! Every session is pinned to shard `session_id % workers`; a shard's queue
//! is FIFO, so each session sees its samples in exactly the order they were
//! fed no matter how many shards the engine runs — per-session behaviour is
//! reproducible across 1, 2 or 8 workers. Control operations (create,
//! snapshot, evict) travel through the same queue as samples, so a snapshot
//! observes every sample fed before it.
//!
//! Fault tolerance (see [`crate::supervisor`]): a panicking session is
//! caught, restored from its rolling checkpoint within a bounded restart
//! budget, or permanently quarantined; a dead worker thread is respawned
//! and its shard re-homed; `shutdown` never panics.

use crate::durability::{flush_loop, DurabilityHealth, DurabilityMonitor};
use crate::fault::FaultInjector;
use crate::metrics::{FleetMetrics, MetricsSnapshot, QueueDepth, RejectReasons};
use crate::supervisor::{
    decide_recovery, mutex_lock, quarantine, read_lock, stream_offset, worker_loop, write_lock,
    CheckpointStore, FleetEvent, LostSession, MergeRejectReason, QuarantineReason, Recovery,
    SessionSlot, SessionStatus, SupervisionPolicy, WorkerCtx,
};
use seqdrift_core::{CoreError, DriftPipeline};
use seqdrift_linalg::Real;
use seqdrift_oselm::MultiInstanceModel;
use seqdrift_store::{RecoveryReport, ReputationEntry, Store, StoreConfig, StoreError, Vfs};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Retries a blocking feed spends yielding before it sleeps.
const YIELD_SPINS: u32 = 8;

/// Retries through which a waiting frame that fits in the queue holds out
/// for room for all of its rows: the yields and the first seven sleeps
/// (1 to 64 µs, ~0.13 ms in all). After them it takes whatever prefix
/// fits.
const WHOLE_FRAME_SPINS: u32 = YIELD_SPINS + 7;

/// Identifies one device stream inside the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// Fleet-level failures.
#[derive(Debug)]
pub enum FleetError {
    /// The session id is not registered with the engine.
    UnknownSession(SessionId),
    /// A session with this id already exists (and is not quarantined).
    DuplicateSession(SessionId),
    /// The session is permanently quarantined; it accepts no operations
    /// until it is replaced via [`FleetEngine::create`].
    SessionQuarantined(SessionId),
    /// A blocking feed gave up after `FleetConfig::feed_timeout` of
    /// sustained backpressure. Carries the culprit session and its
    /// shard's queue depth at the deadline so callers (server BUSY
    /// replies, logs) can name what was stuck and how deep.
    Timeout {
        /// The session whose shard stayed full past the deadline.
        id: SessionId,
        /// Depth of that shard's ingress queue, in rows, when the
        /// deadline fired.
        queue_depth: usize,
    },
    /// Bad engine configuration.
    InvalidConfig(&'static str),
    /// An error bubbled up from the pipeline (e.g. a mid-reconstruction
    /// snapshot refusal, or a corrupt restore blob).
    Core(CoreError),
    /// The durable state store failed (opening the state dir, or a
    /// resume-time read).
    Store(StoreError),
    /// The engine's workers are gone (shutdown raced the call).
    Disconnected,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::UnknownSession(id) => write!(f, "unknown {id}"),
            FleetError::DuplicateSession(id) => write!(f, "{id} already exists"),
            FleetError::SessionQuarantined(id) => write!(f, "{id} is quarantined"),
            FleetError::Timeout { id, queue_depth } => write!(
                f,
                "feed to {id} timed out under backpressure (queue depth {queue_depth})"
            ),
            FleetError::InvalidConfig(msg) => write!(f, "invalid fleet config: {msg}"),
            FleetError::Core(e) => write!(f, "pipeline error: {e}"),
            FleetError::Store(e) => write!(f, "state store error: {e}"),
            FleetError::Disconnected => write!(f, "fleet workers disconnected"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<CoreError> for FleetError {
    fn from(e: CoreError) -> Self {
        FleetError::Core(e)
    }
}

impl From<StoreError> for FleetError {
    fn from(e: StoreError) -> Self {
        FleetError::Store(e)
    }
}

/// Reply of a non-blocking [`FleetEngine::feed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedReply {
    /// The sample was queued on the session's shard.
    Enqueued,
    /// The shard's bounded queue is full; the sample was NOT queued. The
    /// caller decides whether to retry, drop, or shed the device.
    Busy,
    /// No such session; the sample was NOT queued.
    UnknownSession,
    /// The session is permanently quarantined; the sample was NOT queued.
    Quarantined,
}

/// Federation (cooperative cross-session model merging) knobs.
///
/// The fleet's pipelines all descend from one reference model, so their
/// OS-ELM sufficient statistics compose analytically (Ito et al.,
/// arXiv 2002.12301). A federation round collects snapshots from healthy
/// sessions whose models have diverged from the current fleet baseline
/// (i.e. sessions that reconstructed after a drift), merges them in
/// closed form, and redistributes the merged model so lagging sessions
/// adapt before their own detector has to fire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FederationConfig {
    /// Fleet-wide processed-sample interval between automatic merge
    /// rounds (pollers call `Federator::maybe_round`; an explicit
    /// `run_round` ignores this).
    pub interval: u64,
    /// Minimum accepted contributions before a merge happens; rounds
    /// with fewer changed healthy sessions are skipped.
    pub min_contributors: usize,
    /// Maximum per-instance trained-sample lag (vs the freshest
    /// contributor) a contribution may have; anything staler is rejected
    /// for the round.
    pub staleness_bound: u64,
    /// Byzantine-robust two-pass merging: score each contributor's
    /// (U, c) statistics against the geometric-median robust centre and
    /// re-admit only those within [`FederationConfig::deviation_bound`].
    /// On outlier-free rounds the admitted set is everyone and the merge
    /// is bit-identical to the plain path, so this defaults to on.
    pub robust: bool,
    /// Deviation-score bound (normalized Frobenius distance from the
    /// robust centre; honest contributors cluster near 1) above which a
    /// contribution is rejected as an outlier.
    pub deviation_bound: Real,
    /// Multiplicative trust decay applied to a session's reputation on
    /// each round it scores as an outlier.
    pub trust_decay: Real,
    /// Fraction of the gap to full trust recovered on each clean round:
    /// `trust += (1 - trust) * trust_recovery`.
    pub trust_recovery: Real,
    /// Reputation floor: sessions whose trust sits below this are
    /// excluded from merging (still scored, so they can recover).
    pub trust_floor: Real,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            interval: 2048,
            min_contributors: 1,
            staleness_bound: 100_000,
            robust: true,
            deviation_bound: 8.0,
            trust_decay: 0.5,
            trust_recovery: 0.25,
            trust_floor: 0.3,
        }
    }
}

impl FederationConfig {
    /// Overrides the automatic-round sample interval.
    pub fn with_interval(mut self, interval: u64) -> Self {
        self.interval = interval;
        self
    }

    /// Overrides the minimum accepted contributions per merge.
    pub fn with_min_contributors(mut self, min: usize) -> Self {
        self.min_contributors = min;
        self
    }

    /// Overrides the contributor staleness bound (in trained samples).
    pub fn with_staleness_bound(mut self, bound: u64) -> Self {
        self.staleness_bound = bound;
        self
    }

    /// Enables or disables Byzantine-robust two-pass merging.
    pub fn with_robust(mut self, robust: bool) -> Self {
        self.robust = robust;
        self
    }

    /// Overrides the robust deviation-score bound.
    pub fn with_deviation_bound(mut self, bound: Real) -> Self {
        self.deviation_bound = bound;
        self
    }

    /// Overrides the outlier-round trust decay factor.
    pub fn with_trust_decay(mut self, decay: Real) -> Self {
        self.trust_decay = decay;
        self
    }

    /// Overrides the clean-round trust recovery rate.
    pub fn with_trust_recovery(mut self, recovery: Real) -> Self {
        self.trust_recovery = recovery;
        self
    }

    /// Overrides the reputation trust floor.
    pub fn with_trust_floor(mut self, floor: Real) -> Self {
        self.trust_floor = floor;
        self
    }

    pub(crate) fn validate(&self) -> Result<(), FleetError> {
        if self.interval == 0 {
            return Err(FleetError::InvalidConfig(
                "federation interval must be positive",
            ));
        }
        if self.min_contributors == 0 {
            return Err(FleetError::InvalidConfig(
                "federation min_contributors must be positive",
            ));
        }
        if self.staleness_bound == 0 {
            return Err(FleetError::InvalidConfig(
                "federation staleness_bound must be positive",
            ));
        }
        if !(self.deviation_bound.is_finite() && self.deviation_bound > 1.0) {
            return Err(FleetError::InvalidConfig(
                "federation deviation_bound must be finite and above 1",
            ));
        }
        if !(self.trust_decay > 0.0 && self.trust_decay < 1.0) {
            return Err(FleetError::InvalidConfig(
                "federation trust_decay must be in (0, 1)",
            ));
        }
        if !(self.trust_recovery > 0.0 && self.trust_recovery <= 1.0) {
            return Err(FleetError::InvalidConfig(
                "federation trust_recovery must be in (0, 1]",
            ));
        }
        if !(self.trust_floor >= 0.0 && self.trust_floor < 1.0) {
            return Err(FleetError::InvalidConfig(
                "federation trust_floor must be in [0, 1)",
            ));
        }
        Ok(())
    }
}

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads (= shards). Each session is pinned to
    /// `session_id % workers`.
    pub workers: usize,
    /// Bound of each shard's ingress queue, in sample rows. When a shard's
    /// queue is full, `feed` returns [`FeedReply::Busy`]; see
    /// [`FleetEngine::feed_frame`] for how a waiting frame is admitted.
    pub queue_capacity: usize,
    /// Rolling-checkpoint cadence: serialise each session's state every
    /// this many processed samples (plus once at create). A restored
    /// session loses at most this many samples.
    pub checkpoint_interval: u64,
    /// Restarts allowed per session inside one sliding window before it
    /// is permanently quarantined.
    pub max_restarts: u32,
    /// Width of the restart sliding window, in delivered samples.
    pub restart_window: u64,
    /// How long [`FleetEngine::feed_blocking`] tolerates sustained
    /// backpressure before returning [`FleetError::Timeout`].
    pub feed_timeout: Duration,
    /// Deterministic fault plan applied by the workers (tests and the
    /// CLI's `--inject-faults`); `None` in production.
    pub fault_injector: Option<Arc<FaultInjector>>,
    /// Root of the crash-safe durable state store. When set, a flusher
    /// thread writes each session's newest rolling checkpoint to disk
    /// behind the workers (atomic temp + fsync + rename; a newer
    /// checkpoint supersedes one still waiting), quarantine decisions
    /// persist across restarts, and [`FleetEngine::resume`] can re-home
    /// every surviving session after a crash or power loss. `None` runs
    /// memory-only.
    pub state_dir: Option<PathBuf>,
    /// Checkpoint generations kept on disk per session (minimum 2, so a
    /// torn newest write always leaves a fallback). Ignored without
    /// `state_dir`.
    pub state_keep_generations: usize,
    /// Filesystem the durable store writes through. `None` uses the real
    /// filesystem; storage-chaos tests inject a
    /// `seqdrift_store::FaultVfs` here. Ignored without `state_dir`.
    pub state_vfs: Option<Arc<dyn Vfs>>,
    /// Base delay of the flusher's decorrelated-jitter backoff while
    /// durability is degraded.
    pub flush_retry_base: Duration,
    /// Delay ceiling of the degraded-durability retry backoff.
    pub flush_retry_cap: Duration,
    /// Cooperative cross-session model merging. `None` (the default)
    /// disables federation entirely.
    pub federation: Option<FederationConfig>,
}

impl FleetConfig {
    /// A config with the given worker count and the defaults: 256-message
    /// queues, checkpoint every 64 samples, 3 restarts per 1024-sample
    /// window, 10-second blocking-feed timeout, no fault injection.
    pub fn new(workers: usize) -> Self {
        FleetConfig {
            workers,
            queue_capacity: 256,
            checkpoint_interval: 64,
            max_restarts: 3,
            restart_window: 1024,
            feed_timeout: Duration::from_secs(10),
            fault_injector: None,
            state_dir: None,
            state_keep_generations: 2,
            state_vfs: None,
            flush_retry_base: Duration::from_millis(50),
            flush_retry_cap: Duration::from_secs(2),
            federation: None,
        }
    }

    /// Overrides the per-shard queue bound.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Overrides the rolling-checkpoint cadence (in processed samples).
    pub fn with_checkpoint_interval(mut self, samples: u64) -> Self {
        self.checkpoint_interval = samples;
        self
    }

    /// Overrides the restart budget: at most `max_restarts` restores per
    /// `window` delivered samples, then permanent quarantine.
    pub fn with_restart_budget(mut self, max_restarts: u32, window: u64) -> Self {
        self.max_restarts = max_restarts;
        self.restart_window = window;
        self
    }

    /// Overrides the blocking-feed timeout.
    pub fn with_feed_timeout(mut self, timeout: Duration) -> Self {
        self.feed_timeout = timeout;
        self
    }

    /// Installs a deterministic fault plan (shared by every shard).
    pub fn with_fault_injector(mut self, injector: FaultInjector) -> Self {
        self.fault_injector = Some(Arc::new(injector));
        self
    }

    /// Enables the crash-safe durable state store rooted at `dir`.
    pub fn with_state_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.state_dir = Some(dir.into());
        self
    }

    /// Overrides how many checkpoint generations the durable store keeps
    /// per session (minimum 2).
    pub fn with_state_keep_generations(mut self, keep: usize) -> Self {
        self.state_keep_generations = keep;
        self
    }

    /// Routes every durable-store disk operation through `vfs` — the
    /// storage-chaos injection point (`seqdrift_store::FaultVfs`).
    pub fn with_state_vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.state_vfs = Some(vfs);
        self
    }

    /// Overrides the degraded-durability retry backoff (base delay and
    /// ceiling of the decorrelated jitter).
    pub fn with_flush_retry(mut self, base: Duration, cap: Duration) -> Self {
        self.flush_retry_base = base;
        self.flush_retry_cap = cap;
        self
    }

    /// Enables cooperative cross-session model merging.
    pub fn with_federation(mut self, federation: FederationConfig) -> Self {
        self.federation = Some(federation);
        self
    }
}

/// What a worker can be asked to do. Control messages carry a reply channel
/// so callers observe completion; samples are fire-and-forget.
pub(crate) enum ShardMsg {
    Create {
        id: u64,
        pipeline: Box<DriftPipeline>,
        reply: Sender<Result<(), FleetError>>,
    },
    /// `rows` (at least one) samples of one session, back to back in
    /// `data`: a single `feed` row, a whole frame, or a piece of one.
    Feed {
        id: u64,
        rows: usize,
        data: Vec<Real>,
    },
    Snapshot {
        id: u64,
        reply: Sender<Result<Vec<u8>, FleetError>>,
    },
    SamplesProcessed {
        id: u64,
        reply: Sender<Result<u64, FleetError>>,
    },
    InstallModel {
        id: u64,
        model: Box<MultiInstanceModel>,
        reply: Sender<Result<(), FleetError>>,
    },
    Evict {
        id: u64,
        reply: Sender<Result<Box<DriftPipeline>, FleetError>>,
    },
}

/// A shard's mutable link to its worker thread. Behind an `RwLock` so a
/// dead worker can be replaced while the engine is shared (`&self`).
struct ShardLink {
    /// `None` once shutdown has begun; dropping the sender is what tells
    /// the worker to drain and exit.
    tx: Option<Sender<ShardMsg>>,
    handle: Option<JoinHandle<Vec<(SessionId, DriftPipeline)>>>,
}

struct Shard {
    link: RwLock<ShardLink>,
    depth: Arc<QueueDepth>,
    /// Serialises respawn attempts racing from multiple caller threads.
    respawn: Mutex<()>,
}

/// Everything the engine hands back on [`FleetEngine::shutdown`].
#[derive(Debug)]
pub struct ShutdownReport {
    /// Final state of every surviving session, sorted by id.
    pub sessions: Vec<(SessionId, DriftPipeline)>,
    /// Sessions permanently quarantined during the run, sorted by id.
    pub quarantined: Vec<(SessionId, QuarantineReason)>,
    /// Sessions lost with a worker that died before shutdown could drain
    /// it, each with its last rolling checkpoint (restorable elsewhere).
    pub lost: Vec<LostSession>,
    /// Events that had not been drained before shutdown.
    pub events: Vec<FleetEvent>,
    /// Final aggregate counters.
    pub metrics: MetricsSnapshot,
}

/// The multi-tenant fleet engine. See the crate docs for the contract.
pub struct FleetEngine {
    shards: Vec<Shard>,
    /// Routing cache of registered sessions and their status; the
    /// per-shard session maps are authoritative for live pipeline state.
    /// Workers flip entries to `Quarantined`; the engine adds/removes.
    registry: Arc<RwLock<HashMap<u64, SessionStatus>>>,
    /// Rolling checkpoints + restart history (survives worker death).
    store: Arc<CheckpointStore>,
    /// Crash-safe on-disk store (survives process death); `None` when the
    /// engine runs memory-only.
    durable: Option<Arc<Store>>,
    /// Checkpoint flusher and durability health machine over `durable`;
    /// `None` when the engine runs memory-only.
    durability: Option<Arc<DurabilityMonitor>>,
    /// The flusher thread: the only writer of session checkpoints.
    flusher: Mutex<Option<JoinHandle<()>>>,
    metrics: Arc<FleetMetrics>,
    events: Arc<Mutex<Vec<FleetEvent>>>,
    cfg: FleetConfig,
}

impl FleetEngine {
    /// Spawns the worker pool.
    pub fn new(cfg: FleetConfig) -> Result<FleetEngine, FleetError> {
        if cfg.workers == 0 {
            return Err(FleetError::InvalidConfig("workers must be positive"));
        }
        if cfg.queue_capacity == 0 {
            return Err(FleetError::InvalidConfig("queue_capacity must be positive"));
        }
        if cfg.checkpoint_interval == 0 {
            return Err(FleetError::InvalidConfig(
                "checkpoint_interval must be positive",
            ));
        }
        if cfg.restart_window == 0 {
            return Err(FleetError::InvalidConfig("restart_window must be positive"));
        }
        if cfg.feed_timeout.is_zero() {
            return Err(FleetError::InvalidConfig("feed_timeout must be positive"));
        }
        if let Some(federation) = &cfg.federation {
            federation.validate()?;
        }
        if cfg.flush_retry_base.is_zero() {
            return Err(FleetError::InvalidConfig(
                "flush_retry_base must be positive",
            ));
        }
        // Opening the durable store runs its recovery scan: stale temps
        // are swept and torn frames discarded before any worker writes.
        let durable = match &cfg.state_dir {
            Some(dir) => {
                let store_cfg =
                    StoreConfig::default().with_keep_generations(cfg.state_keep_generations);
                let store = match &cfg.state_vfs {
                    Some(vfs) => Store::open_with_vfs(dir, store_cfg, Arc::clone(vfs))?,
                    None => Store::open_with(dir, store_cfg)?,
                };
                Some(Arc::new(store))
            }
            None => None,
        };
        let registry = HashMap::new();
        let mut engine = FleetEngine {
            shards: Vec::new(),
            registry: Arc::new(RwLock::new(registry)),
            store: Arc::new(CheckpointStore::default()),
            durable,
            durability: None,
            flusher: Mutex::new(None),
            metrics: Arc::new(FleetMetrics::default()),
            events: Arc::new(Mutex::new(Vec::new())),
            cfg,
        };
        // A durable fleet gets the health machine and its flusher thread.
        if let Some(durable) = &engine.durable {
            let monitor = Arc::new(DurabilityMonitor::new(
                Arc::clone(durable),
                Arc::clone(&engine.metrics),
                Arc::clone(&engine.events),
            ));
            let thread_monitor = Arc::clone(&monitor);
            let (base, cap) = (engine.cfg.flush_retry_base, engine.cfg.flush_retry_cap);
            let handle = std::thread::spawn(move || flush_loop(thread_monitor, base, cap));
            engine.durability = Some(monitor);
            *mutex_lock(&engine.flusher) = Some(handle);
        }
        // Quarantine is a durability fact: sessions the previous process
        // quarantined stay quarantined in this one.
        if let Some(durable) = &engine.durable {
            let mut registry = write_lock(&engine.registry);
            for (id, entry) in durable.ledger() {
                registry.insert(
                    id,
                    SessionStatus::Quarantined(QuarantineReason::from_code(entry.reason_code)),
                );
            }
        }
        for _ in 0..engine.cfg.workers {
            let depth = Arc::new(QueueDepth::new(engine.cfg.queue_capacity));
            let (tx, handle) = engine.spawn_worker(Arc::clone(&depth), Vec::new());
            engine.shards.push(Shard {
                link: RwLock::new(ShardLink {
                    tx: Some(tx),
                    handle: Some(handle),
                }),
                depth,
                respawn: Mutex::new(()),
            });
        }
        Ok(engine)
    }

    /// Builds the shared context a worker thread needs.
    fn worker_ctx(&self, depth: Arc<QueueDepth>) -> WorkerCtx {
        WorkerCtx {
            depth,
            metrics: Arc::clone(&self.metrics),
            events: Arc::clone(&self.events),
            registry: Arc::clone(&self.registry),
            store: Arc::clone(&self.store),
            monitor: self.durability.clone(),
            injector: self.cfg.fault_injector.clone(),
            policy: SupervisionPolicy {
                checkpoint_interval: self.cfg.checkpoint_interval,
                max_restarts: self.cfg.max_restarts,
                restart_window: self.cfg.restart_window,
            },
        }
    }

    /// Spawns one worker thread seeded with `initial` sessions.
    fn spawn_worker(
        &self,
        depth: Arc<QueueDepth>,
        initial: Vec<(u64, SessionSlot)>,
    ) -> (
        Sender<ShardMsg>,
        JoinHandle<Vec<(SessionId, DriftPipeline)>>,
    ) {
        // No slot bound: every `Feed` carries rows reserved in `depth`
        // first, and a control sender waits for its reply before it can
        // send again, so rows bound the channel (DESIGN.md §7).
        let (tx, rx) = channel();
        let ctx = self.worker_ctx(depth);
        let handle = std::thread::spawn(move || worker_loop(rx, initial, ctx));
        (tx, handle)
    }

    /// Number of shards / worker threads.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Current number of live (non-quarantined) sessions.
    pub fn session_count(&self) -> usize {
        read_lock(&self.registry)
            .values()
            .filter(|s| matches!(s, SessionStatus::Active))
            .count()
    }

    /// Sessions permanently quarantined so far, sorted by id.
    pub fn quarantined_sessions(&self) -> Vec<(SessionId, QuarantineReason)> {
        let mut out: Vec<(SessionId, QuarantineReason)> = read_lock(&self.registry)
            .iter()
            .filter_map(|(&id, status)| match status {
                SessionStatus::Quarantined(reason) => Some((SessionId(id), *reason)),
                SessionStatus::Active => None,
            })
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// The session's last rolling checkpoint, if one was taken. Available
    /// for quarantined sessions too — the graceful-degradation hand-off
    /// for callers that want to resurrect the stream elsewhere.
    pub fn last_checkpoint(&self, id: SessionId) -> Option<Vec<u8>> {
        self.store.blob_of(id.0)
    }

    fn shard_index(&self, id: SessionId) -> usize {
        (id.0 % self.shards.len() as u64) as usize
    }

    /// Current depth, in sample rows, of the ingress queue of the shard
    /// `id` is pinned to.
    /// Point-in-time and advisory: the worker drains concurrently.
    pub fn queue_depth(&self, id: SessionId) -> usize {
        self.shards[self.shard_index(id)].depth.get()
    }

    /// Detects and replaces any dead worker threads, re-homing their
    /// shards from the checkpoint store. Returns how many workers were
    /// respawned. `feed`/`create` call this lazily on a disconnected
    /// shard; long-running hosts may also call it periodically.
    pub fn supervise(&self) -> usize {
        (0..self.shards.len())
            .filter(|&idx| self.respawn_shard(idx))
            .count()
    }

    /// Replaces shard `idx`'s worker if (and only if) it is dead: joins
    /// the corpse, restores every Active session of the shard from its
    /// rolling checkpoint (counting against its restart budget), spawns a
    /// fresh worker seeded with the recovered sessions, and logs a
    /// [`FleetEvent::WorkerRespawned`]. Samples queued on the dead
    /// channel are lost (counted as dropped). Returns whether a respawn
    /// happened.
    fn respawn_shard(&self, idx: usize) -> bool {
        let shard = &self.shards[idx];
        let _serial = mutex_lock(&shard.respawn);
        let mut link = write_lock(&shard.link);
        // Respawn only applies to a worker that died while its sender is
        // still installed; `shutdown` takes both before joining.
        let dead = link.tx.is_some() && link.handle.as_ref().is_some_and(|h| h.is_finished());
        if !dead {
            return false;
        }
        let survivors = match link.handle.take() {
            Some(handle) => handle.join().unwrap_or_default(),
            None => Vec::new(),
        };
        // Whatever was still queued on the dead channel is gone.
        let lost_in_queue = shard.depth.reset();
        self.metrics
            .samples_dropped
            .fetch_add(lost_in_queue as u64, Ordering::Relaxed);

        let ctx = self.worker_ctx(Arc::clone(&shard.depth));
        let mut initial: Vec<(u64, SessionSlot)> = Vec::new();
        let mut recovered = 0u32;
        let mut lost = 0u32;
        // A clean exit (only possible in pathological shutdown races)
        // hands back live pipelines; reuse them directly.
        for (id, pipeline) in survivors {
            initial.push((
                id.0,
                SessionSlot {
                    pipeline,
                    delivered: 0,
                    since_checkpoint: 0,
                },
            ));
        }
        let assigned: Vec<u64> = read_lock(&self.registry)
            .iter()
            .filter(|(&id, status)| {
                matches!(status, SessionStatus::Active)
                    && (id % self.shards.len() as u64) as usize == idx
                    && !initial.iter().any(|(s, _)| *s == id)
            })
            .map(|(&id, _)| id)
            .collect();
        for id in assigned {
            let delivered = self.store.lock().get(&id).map_or(0, |e| e.delivered);
            match decide_recovery(&ctx, id, delivered) {
                Recovery::Restore {
                    pipeline,
                    resumed_at_sample,
                    restarts_in_window,
                } => {
                    initial.push((
                        id,
                        SessionSlot {
                            pipeline: *pipeline,
                            delivered,
                            since_checkpoint: 0,
                        },
                    ));
                    self.metrics
                        .sessions_restored
                        .fetch_add(1, Ordering::Relaxed);
                    mutex_lock(&self.events).push(FleetEvent::SessionRestored {
                        id: SessionId(id),
                        resumed_at_sample,
                        restarts_in_window,
                    });
                    recovered += 1;
                }
                Recovery::Quarantine(reason) => {
                    quarantine(&ctx, id, reason);
                    lost += 1;
                }
            }
        }
        let (tx, handle) = self.spawn_worker(Arc::clone(&shard.depth), initial);
        link.tx = Some(tx);
        link.handle = Some(handle);
        self.metrics
            .workers_respawned
            .fetch_add(1, Ordering::Relaxed);
        mutex_lock(&self.events).push(FleetEvent::WorkerRespawned {
            shard: idx,
            recovered,
            lost,
        });
        true
    }

    /// Sends a control message. It queues behind the shard's rows but
    /// never waits for room: rows are the queue's only bound, and control
    /// operations are rare and must not be droppable. A dead worker
    /// triggers one respawn-and-retry before giving up.
    fn control_send(&self, id: SessionId, msg: ShardMsg) -> Result<(), FleetError> {
        let idx = self.shard_index(id);
        let shard = &self.shards[idx];
        let mut msg = msg;
        for attempt in 0..2 {
            {
                let link = read_lock(&shard.link);
                let Some(tx) = link.tx.as_ref() else {
                    return Err(FleetError::Disconnected);
                };
                match tx.send(msg) {
                    Ok(()) => return Ok(()),
                    Err(std::sync::mpsc::SendError(m)) => msg = m,
                }
            }
            if attempt == 0 && !self.respawn_shard(idx) {
                return Err(FleetError::Disconnected);
            }
        }
        Err(FleetError::Disconnected)
    }

    /// Installs a calibrated pipeline as a new session. Blocks until the
    /// owning worker acknowledges, so a `feed` issued after `create`
    /// returns is guaranteed to find the session. Any events still queued
    /// inside the pipeline are discarded: the fleet log covers a session's
    /// life *inside* the fleet, and the caller had full access to
    /// `events()` before handing the pipeline over.
    ///
    /// A quarantined id may be re-created: the replacement starts fresh
    /// (new checkpoint lineage, new restart budget).
    pub fn create(&self, id: SessionId, pipeline: DriftPipeline) -> Result<(), FleetError> {
        {
            let mut registry = write_lock(&self.registry);
            match registry.get(&id.0) {
                Some(SessionStatus::Active) => return Err(FleetError::DuplicateSession(id)),
                Some(SessionStatus::Quarantined(_)) => {
                    registry.remove(&id.0);
                    // The replacement starts a fresh checkpoint lineage
                    // and clears the persisted quarantine verdict.
                    self.forget_lineage(id.0);
                }
                None => {}
            }
        }
        let (reply, rx) = channel();
        self.control_send(
            id,
            ShardMsg::Create {
                id: id.0,
                pipeline: Box::new(pipeline),
                reply,
            },
        )?;
        rx.recv().map_err(|_| FleetError::Disconnected)??;
        write_lock(&self.registry).insert(id.0, SessionStatus::Active);
        Ok(())
    }

    /// Restores a session from a `seqdrift_core::persist` checkpoint blob —
    /// the reboot-recovery path, fleet edition.
    pub fn create_from_bytes(&self, id: SessionId, blob: &[u8]) -> Result<(), FleetError> {
        let pipeline = DriftPipeline::from_bytes(blob)?;
        self.create(id, pipeline)
    }

    /// Queues a prefix of the `rows` rows of `dim` values at the start of
    /// `data` as one message: as many rows as the shard has room for, or
    /// with `whole` (for a frame that fits in the queue) all of them or
    /// none. Returns how many rows were queued, or why none were.
    fn try_feed(
        &self,
        id: SessionId,
        dim: usize,
        rows: usize,
        data: &[Real],
        whole: bool,
        count_busy: bool,
    ) -> Result<usize, FeedReply> {
        match read_lock(&self.registry).get(&id.0) {
            None => return Err(FeedReply::UnknownSession),
            Some(SessionStatus::Quarantined(_)) => return Err(FeedReply::Quarantined),
            Some(SessionStatus::Active) => {}
        }
        let idx = self.shard_index(id);
        let shard = &self.shards[idx];
        for attempt in 0..2 {
            {
                let link = read_lock(&shard.link);
                let Some(tx) = link.tx.as_ref() else {
                    return Err(FeedReply::Busy);
                };
                let admitted = shard.depth.reserve(rows, whole);
                if admitted > 0 {
                    let msg = ShardMsg::Feed {
                        id: id.0,
                        rows: admitted,
                        data: data[..admitted * dim].to_vec(),
                    };
                    if tx.send(msg).is_ok() {
                        return Ok(admitted);
                    }
                    shard.depth.release(admitted);
                } else if !link.handle.as_ref().is_some_and(JoinHandle::is_finished) {
                    // Full, but draining. A full queue behind a dead
                    // worker never drains, so that case falls through.
                    if count_busy {
                        self.metrics.busy_rejections.fetch_add(1, Ordering::Relaxed);
                    }
                    return Err(FeedReply::Busy);
                }
            }
            // The worker died: respawn it and retry the send once.
            if attempt == 0 && !self.respawn_shard(idx) {
                return Err(FeedReply::Busy);
            }
        }
        Err(FeedReply::Busy)
    }

    /// Queues one sample for a session without blocking. A full shard queue
    /// returns [`FeedReply::Busy`] — the engine never buffers unboundedly;
    /// slow consumers surface as explicit backpressure.
    pub fn feed(&self, id: SessionId, sample: &[Real]) -> FeedReply {
        match self.try_feed(id, sample.len(), 1, sample, true, true) {
            Ok(_) => FeedReply::Enqueued,
            Err(reply) => reply,
        }
    }

    /// Cooperative blocking feed of one sample: [`FleetEngine::feed_frame`]
    /// with a single row.
    pub fn feed_blocking(&self, id: SessionId, sample: &[Real]) -> Result<(), FleetError> {
        self.feed_rows(id, sample.len(), 1, sample).1
    }

    /// Cooperative blocking feed of a frame: `data` holds whole samples
    /// (rows) of `dim` values each, queued in order (a trailing partial
    /// row, or `dim == 0`, queues nothing). A frame that does not fit
    /// retries with exponential backoff (a few yields, then sleeps
    /// doubling up to ~1 ms). For its first ~0.13 ms of retries it waits
    /// for room for all of its rows, so under backpressure it still goes
    /// in as one shard message; after that, and from the start for a
    /// frame larger than the queue, it queues whatever prefix fits, so it
    /// makes progress even while other feeders take each freed row. It
    /// retries until every row is queued or `FleetConfig::feed_timeout`
    /// passes without progress, at which point the call returns
    /// [`FleetError::Timeout`]. Returns how many leading rows were queued
    /// alongside the outcome; on an error, exactly that prefix was
    /// queued. Used by replay-style callers and the network server,
    /// which prefer throttling over dropping. `Busy` spins here are not
    /// counted in `busy_rejections`.
    pub fn feed_frame(
        &self,
        id: SessionId,
        dim: usize,
        data: &[Real],
    ) -> (usize, Result<(), FleetError>) {
        if dim == 0 {
            return (0, Ok(()));
        }
        self.feed_rows(id, dim, data.len() / dim, data)
    }

    fn feed_rows(
        &self,
        id: SessionId,
        dim: usize,
        rows: usize,
        data: &[Real],
    ) -> (usize, Result<(), FleetError>) {
        let mut accepted = 0;
        let mut deadline: Option<Instant> = None;
        let mut spins: u32 = 0;
        while accepted < rows {
            let rest = &data[accepted * dim..];
            let whole = spins < WHOLE_FRAME_SPINS;
            match self.try_feed(id, dim, rows - accepted, rest, whole, false) {
                Ok(n) => {
                    accepted += n;
                    deadline = None;
                    spins = 0;
                }
                Err(FeedReply::UnknownSession) => {
                    return (accepted, Err(FleetError::UnknownSession(id)))
                }
                Err(FeedReply::Quarantined) => {
                    return (accepted, Err(FleetError::SessionQuarantined(id)))
                }
                Err(_) => {
                    let now = Instant::now();
                    let at = *deadline.get_or_insert(now + self.cfg.feed_timeout);
                    if now >= at {
                        self.metrics.feed_timeouts.fetch_add(1, Ordering::Relaxed);
                        let queue_depth = self.queue_depth(id);
                        return (accepted, Err(FleetError::Timeout { id, queue_depth }));
                    }
                    if spins < YIELD_SPINS {
                        std::thread::yield_now();
                    } else {
                        // 1 µs doubling to a 1.024 ms ceiling.
                        let exp = (spins - YIELD_SPINS).min(10);
                        std::thread::sleep(Duration::from_micros(1 << exp));
                    }
                    spins = spins.saturating_add(1);
                }
            }
        }
        (accepted, Ok(()))
    }

    /// Re-checks the registry after a worker reported the session missing:
    /// the session may have been quarantined while the request was queued.
    fn refine_missing(&self, id: SessionId) -> FleetError {
        match read_lock(&self.registry).get(&id.0) {
            Some(SessionStatus::Quarantined(_)) => FleetError::SessionQuarantined(id),
            _ => FleetError::UnknownSession(id),
        }
    }

    /// Checkpoints a session through the `seqdrift_core::persist` wire
    /// format. The request travels the same FIFO as samples, so the blob
    /// reflects every sample fed before this call. Mid-reconstruction
    /// sessions refuse to checkpoint (the persist contract); the error
    /// comes back as [`FleetError::Core`].
    pub fn snapshot(&self, id: SessionId) -> Result<Vec<u8>, FleetError> {
        match read_lock(&self.registry).get(&id.0) {
            None => return Err(FleetError::UnknownSession(id)),
            Some(SessionStatus::Quarantined(_)) => return Err(FleetError::SessionQuarantined(id)),
            Some(SessionStatus::Active) => {}
        }
        let (reply, rx) = channel();
        self.control_send(id, ShardMsg::Snapshot { id: id.0, reply })?;
        match rx.recv().map_err(|_| FleetError::Disconnected)? {
            Err(FleetError::UnknownSession(_)) => Err(self.refine_missing(id)),
            other => other,
        }
    }

    /// The session's stream offset: every row it has consumed, applied
    /// (`DriftPipeline::samples_processed`) or refused by its input guard.
    /// The request travels the same FIFO as samples, so the count reflects
    /// every sample fed before this call — this is the replay offset a
    /// reconnecting device should resume its stream from. Cheaper than
    /// [`FleetEngine::snapshot`] (no serialization) and available even
    /// when a mid-reconstruction session would refuse to checkpoint.
    pub fn samples_processed(&self, id: SessionId) -> Result<u64, FleetError> {
        // `recv_timeout` waits without a deadline when `now + timeout`
        // overflows, so this never times out.
        self.samples_processed_within(id, Duration::MAX)
    }

    /// [`FleetEngine::samples_processed`] with a deadline. The query
    /// travels the shard FIFO behind every queued sample, so against a
    /// stalled shard the unbounded variant would block its caller for the
    /// whole backlog — a reconnect storm after a network partition would
    /// pin one server thread per re-HELLO. This variant gives up with
    /// [`FleetError::Timeout`] (carrying the stalled queue's depth) once
    /// `timeout` elapses; the query stays queued (one small message) until
    /// the worker reaches it, and its late answer is harmlessly dropped.
    /// Each timed-out call leaves one such query behind, so repeated calls
    /// against a stalled shard queue one per call until it drains. The
    /// send never waits for queue room, so the whole call is bounded by
    /// `timeout`.
    pub fn samples_processed_within(
        &self,
        id: SessionId,
        timeout: Duration,
    ) -> Result<u64, FleetError> {
        match read_lock(&self.registry).get(&id.0) {
            None => return Err(FleetError::UnknownSession(id)),
            Some(SessionStatus::Quarantined(_)) => return Err(FleetError::SessionQuarantined(id)),
            Some(SessionStatus::Active) => {}
        }
        let (reply, rx) = channel();
        self.control_send(id, ShardMsg::SamplesProcessed { id: id.0, reply })?;
        match rx.recv_timeout(timeout) {
            Ok(Err(FleetError::UnknownSession(_))) => Err(self.refine_missing(id)),
            Ok(other) => other,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                self.metrics.feed_timeouts.fetch_add(1, Ordering::Relaxed);
                Err(FleetError::Timeout {
                    id,
                    queue_depth: self.queue_depth(id),
                })
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => Err(FleetError::Disconnected),
        }
    }

    /// Installs a federated merged model into a session through the same
    /// FIFO as its samples, so the install lands at a well-defined point
    /// in the session's stream. Only the model is replaced — the
    /// session's detector state, counters and resume offsets are
    /// untouched. A mid-reconstruction session refuses the install
    /// (surfaced as [`FleetError::Core`]); callers skip it and retry next
    /// round. Counted in `MetricsSnapshot::redistributions` on success.
    pub fn install_model(
        &self,
        id: SessionId,
        model: MultiInstanceModel,
    ) -> Result<(), FleetError> {
        match read_lock(&self.registry).get(&id.0) {
            None => return Err(FleetError::UnknownSession(id)),
            Some(SessionStatus::Quarantined(_)) => return Err(FleetError::SessionQuarantined(id)),
            Some(SessionStatus::Active) => {}
        }
        let (reply, rx) = channel();
        self.control_send(
            id,
            ShardMsg::InstallModel {
                id: id.0,
                model: Box::new(model),
                reply,
            },
        )?;
        match rx.recv().map_err(|_| FleetError::Disconnected)? {
            Err(FleetError::UnknownSession(_)) => Err(self.refine_missing(id)),
            Ok(()) => {
                self.metrics.redistributions.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            other => other,
        }
    }

    /// Registered sessions and their lifecycle status, sorted by id.
    /// Federation uses this to enumerate candidates; quarantined entries
    /// are listed so the caller can count them as rejected contributors.
    pub fn session_statuses(&self) -> Vec<(SessionId, SessionStatus)> {
        let mut out: Vec<(SessionId, SessionStatus)> = read_lock(&self.registry)
            .iter()
            .map(|(&id, &status)| (SessionId(id), status))
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// The federation configuration, when merging is enabled.
    pub fn federation(&self) -> Option<&FederationConfig> {
        self.cfg.federation.as_ref()
    }

    /// Tallies one federation round into the fleet metrics:
    /// `accepted` and the per-reason reject breakdown always (the
    /// snapshot's `contributions_rejected` is their total),
    /// `merge_rounds` only when the round actually produced a merged
    /// model.
    pub fn record_federation_round(&self, merged: bool, accepted: u64, rejects: RejectReasons) {
        self.metrics
            .contributions_accepted
            .fetch_add(accepted, Ordering::Relaxed);
        self.metrics
            .rejected_health
            .fetch_add(rejects.health, Ordering::Relaxed);
        self.metrics
            .rejected_staleness
            .fetch_add(rejects.staleness, Ordering::Relaxed);
        self.metrics
            .rejected_non_pd
            .fetch_add(rejects.non_pd, Ordering::Relaxed);
        self.metrics
            .rejected_deviation
            .fetch_add(rejects.deviation, Ordering::Relaxed);
        self.metrics
            .rejected_low_trust
            .fetch_add(rejects.low_trust, Ordering::Relaxed);
        if merged {
            self.metrics.merge_rounds.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a merge round rejected wholesale: bumps the metric and
    /// emits [`FleetEvent::MergeRoundRejected`] so operators see the
    /// round fail instead of it dissolving silently into the next
    /// interval.
    pub fn record_merge_round_rejected(&self, candidates: u64, reason: MergeRejectReason) {
        self.metrics
            .merge_rounds_rejected
            .fetch_add(1, Ordering::Relaxed);
        mutex_lock(&self.events).push(FleetEvent::MergeRoundRejected { candidates, reason });
    }

    /// Records a session excluded from merging for low reputation,
    /// emitting [`FleetEvent::SessionExcludedLowTrust`]. (The
    /// contribution itself is tallied under `rejected_low_trust` by
    /// [`FleetEngine::record_federation_round`].)
    pub fn record_low_trust_exclusion(&self, id: SessionId, trust: Real) {
        mutex_lock(&self.events).push(FleetEvent::SessionExcludedLowTrust { id, trust });
    }

    /// Persists a merged-model pipeline blob as a durable federated
    /// generation (`SQCK`-framed, atomic, generational). Returns the
    /// generation written, or `None` when the engine runs memory-only or
    /// the blob was buffered under degraded durability (the flusher
    /// writes the newest buffered model once the disk heals). Disk
    /// failure is absorbed into `durable_flush_failures` — federation
    /// never takes the fleet down with the disk.
    pub fn persist_federated(&self, blob: &[u8]) -> Option<u64> {
        self.durability.as_ref()?.put_federated(blob)
    }

    /// Loads the newest durable federated merged-model blob, when the
    /// engine has a state dir and a generation survived. Resume path for
    /// the fleet-wide model after power loss.
    pub fn load_federated(&self) -> Result<Option<Vec<u8>>, FleetError> {
        let Some(durable) = &self.durable else {
            return Ok(None);
        };
        Ok(durable.load_federated()?.map(|(_, blob)| blob))
    }

    /// Persists the full federation reputation book through the reserved
    /// store manifest (atomic, generational — the quarantine-ledger
    /// path). Returns the generation written, or `None` when the engine
    /// runs memory-only or the book was buffered under degraded
    /// durability (the flusher writes the newest buffered book once the
    /// disk heals).
    pub fn persist_reputations(&self, book: &BTreeMap<u64, ReputationEntry>) -> Option<u64> {
        self.durability.as_ref()?.put_reputations(book)
    }

    /// The durable federation reputation book restored by the store's
    /// recovery scan (empty for memory-only engines or before the first
    /// persisted round).
    pub fn load_reputations(&self) -> BTreeMap<u64, ReputationEntry> {
        self.durable
            .as_ref()
            .map(|d| d.reputations())
            .unwrap_or_default()
    }

    /// Removes a session and returns its live pipeline (with any samples
    /// fed before the call already applied).
    pub fn evict(&self, id: SessionId) -> Result<DriftPipeline, FleetError> {
        match read_lock(&self.registry).get(&id.0) {
            None => return Err(FleetError::UnknownSession(id)),
            Some(SessionStatus::Quarantined(_)) => return Err(FleetError::SessionQuarantined(id)),
            Some(SessionStatus::Active) => {}
        }
        let (reply, rx) = channel();
        self.control_send(id, ShardMsg::Evict { id: id.0, reply })?;
        let pipeline = match rx.recv().map_err(|_| FleetError::Disconnected)? {
            Err(FleetError::UnknownSession(_)) => return Err(self.refine_missing(id)),
            other => other?,
        };
        write_lock(&self.registry).remove(&id.0);
        self.forget_lineage(id.0);
        Ok(*pipeline)
    }

    /// Drops a session's checkpoint lineage from memory and disk: its
    /// pending blob never reaches disk, and its generations and ledger
    /// entry are removed (buffered while degraded). Never fails: the
    /// caller already holds the live pipeline (evict) or is replacing it
    /// (create), and a disk hiccup must not eat either; it degrades the
    /// fleet and retries in the background instead.
    fn forget_lineage(&self, id: u64) {
        self.store.remove(id);
        if let Some(monitor) = &self.durability {
            monitor.remove_session(id);
        }
    }

    /// Re-homes every session that survived in the durable state store:
    /// for each non-quarantined session directory, the newest checkpoint
    /// generation that frames and decodes is installed as a live session.
    /// Returns `(id, offset)` for each resumed session, sorted by id: the
    /// checkpoint's stream offset, every row it consumed (applied or
    /// refused by the input guard). The caller replays its stream from
    /// that offset, losing at most one checkpoint interval to the crash.
    /// Sessions whose every generation was destroyed are skipped (worst
    /// case is losing one session's recent history, never the store).
    /// Requires `FleetConfig::state_dir`.
    pub fn resume(&self) -> Result<Vec<(SessionId, u64)>, FleetError> {
        let Some(durable) = &self.durable else {
            return Err(FleetError::InvalidConfig(
                "resume requires FleetConfig::state_dir",
            ));
        };
        let ledger = durable.ledger();
        let mut resumed = Vec::new();
        for id in durable.sessions() {
            if ledger.contains_key(&id) {
                continue; // stays quarantined
            }
            if matches!(
                read_lock(&self.registry).get(&id),
                Some(SessionStatus::Active)
            ) {
                continue; // already live in this engine
            }
            let Some((_, pipeline)) = durable.load_pipeline(id)? else {
                continue; // every generation torn: session lost, store fine
            };
            let offset = stream_offset(&pipeline);
            self.create(SessionId(id), pipeline)?;
            resumed.push((SessionId(id), offset));
        }
        resumed.sort_by_key(|(id, _)| *id);
        Ok(resumed)
    }

    /// The fleet's current durability health. Memory-only fleets are
    /// always `Durable`; a durable fleet reports
    /// [`DurabilityHealth::DegradedDurability`] from the first failed
    /// write until a retry pass of the flusher drains every buffered write.
    pub fn durability_health(&self) -> DurabilityHealth {
        self.durability
            .as_ref()
            .map_or(DurabilityHealth::Durable, |m| m.health())
    }

    /// What the durable store's open-time recovery scan found and
    /// repaired; `None` for a memory-only fleet.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.durable.as_ref().map(|d| d.recovery_report())
    }

    /// Point-in-time aggregate counters plus per-shard queue depths.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut m = self.metrics.snapshot();
        m.queue_depths = self.shards.iter().map(|s| s.depth.get()).collect();
        m.contributions_rejected = RejectReasons {
            health: m.rejected_health,
            staleness: m.rejected_staleness,
            non_pd: m.rejected_non_pd,
            deviation: m.rejected_deviation,
            low_trust: m.rejected_low_trust,
        }
        .total();
        m
    }

    /// Removes and returns the event log accumulated since the last drain.
    /// The global interleaving across sessions follows worker completion
    /// order; each session's own subsequence is in stream order.
    pub fn drain_events(&self) -> Vec<FleetEvent> {
        std::mem::take(&mut *mutex_lock(&self.events))
    }

    /// Stops the flusher, which writes everything pending on its way out
    /// (one retry pass when degraded), and joins it. Idempotent.
    fn stop_flusher(&self) {
        if let Some(monitor) = &self.durability {
            monitor.stop();
        }
        if let Some(handle) = mutex_lock(&self.flusher).take() {
            let _ = handle.join();
        }
    }

    /// Drains every queue, joins the workers, and returns each surviving
    /// session's final state (sorted by id), the quarantined and lost
    /// sessions, the undrained events, and the final counters. All samples
    /// fed before this call are applied before the report is built.
    ///
    /// Never panics: a worker that died with its sessions is joined
    /// defensively and its Active sessions are reported in
    /// [`ShutdownReport::lost`] with their last checkpoints.
    pub fn shutdown(self) -> ShutdownReport {
        // Drop every sender first so all workers drain concurrently...
        for shard in &self.shards {
            write_lock(&shard.link).tx = None;
        }
        // ...then join and merge their final session maps. A panicked
        // worker (join error) loses its sessions; report, don't unwind.
        let mut sessions = Vec::new();
        let mut lost: Vec<LostSession> = Vec::new();
        for (idx, shard) in self.shards.iter().enumerate() {
            let handle = write_lock(&shard.link).handle.take();
            let Some(handle) = handle else { continue };
            match handle.join() {
                Ok(survivors) => sessions.extend(survivors),
                Err(_) => {
                    let assigned: Vec<u64> = read_lock(&self.registry)
                        .iter()
                        .filter(|(&id, status)| {
                            matches!(status, SessionStatus::Active)
                                && (id % self.shards.len() as u64) as usize == idx
                        })
                        .map(|(&id, _)| id)
                        .collect();
                    for id in assigned {
                        lost.push(LostSession {
                            id: SessionId(id),
                            checkpoint: self.store.blob_of(id),
                        });
                    }
                }
            }
        }
        sessions.sort_by_key(|(id, _)| *id);
        lost.sort_by_key(|s| s.id);
        // Graceful shutdown is the one moment every survivor's full state
        // is in hand: hand it to the flusher so a drain leaves zero tail
        // loss. It supersedes the survivor's rolling checkpoint, which is
        // dropped from memory so the pending queue still holds one blob
        // per session. Mid-reconstruction pipelines refuse to_bytes by
        // contract; their last rolling checkpoint is pending or already
        // on disk. Stopping the flusher then writes everything pending.
        if let Some(monitor) = &self.durability {
            for (id, pipeline) in &sessions {
                if let Ok(blob) = pipeline.to_bytes() {
                    self.store.remove(id.0);
                    monitor.submit(id.0, Arc::new(blob));
                }
            }
        }
        self.stop_flusher();
        let quarantined = self.quarantined_sessions();
        let events = std::mem::take(&mut *mutex_lock(&self.events));
        let metrics = self.metrics();
        ShutdownReport {
            sessions,
            quarantined,
            lost,
            events,
            metrics,
        }
    }
}

impl Drop for FleetEngine {
    /// Dropping without [`FleetEngine::shutdown`] still drains and joins the
    /// workers, then the flusher (every pending checkpoint is written;
    /// final states are discarded; join errors are swallowed).
    fn drop(&mut self) {
        for shard in &self.shards {
            write_lock(&shard.link).tx = None;
        }
        for shard in &self.shards {
            let handle = write_lock(&shard.link).handle.take();
            if let Some(handle) = handle {
                let _ = handle.join();
            }
        }
        self.stop_flusher();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;
    use seqdrift_core::pipeline::PipelineEvent;
    use seqdrift_core::DetectorConfig;
    use seqdrift_linalg::Rng;
    use seqdrift_oselm::{MultiInstanceModel, OsElmConfig};

    const DIM: usize = 4;

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
        let mut model =
            MultiInstanceModel::new(2, OsElmConfig::new(DIM, 3).with_seed(seed)).unwrap();
        model.init_train_class(0, &class0).unwrap();
        model.init_train_class(1, &class1).unwrap();
        let train: Vec<(usize, &[Real])> = class0
            .iter()
            .map(|x| (0usize, x.as_slice()))
            .chain(class1.iter().map(|x| (1usize, x.as_slice())))
            .collect();
        DriftPipeline::calibrate(model, DetectorConfig::new(2, DIM).with_window(16), &train)
            .unwrap()
    }

    fn sample(rng: &mut Rng, mean: Real) -> Vec<Real> {
        let mut x = vec![0.0; DIM];
        rng.fill_normal(&mut x, mean, 0.05);
        x
    }

    #[test]
    fn lifecycle_create_feed_snapshot_evict() {
        let fleet = FleetEngine::new(FleetConfig::new(2)).unwrap();
        fleet.create(SessionId(1), calibrated_pipeline(1)).unwrap();
        assert_eq!(fleet.session_count(), 1);

        let mut rng = Rng::seed_from(9);
        for _ in 0..25 {
            fleet
                .feed_blocking(SessionId(1), &sample(&mut rng, 0.2))
                .unwrap();
        }
        let blob = fleet.snapshot(SessionId(1)).unwrap();
        let restored = DriftPipeline::from_bytes(&blob).unwrap();
        assert_eq!(restored.samples_processed(), 25);

        let evicted = fleet.evict(SessionId(1)).unwrap();
        assert_eq!(evicted.samples_processed(), 25);
        assert_eq!(fleet.session_count(), 0);
        assert!(matches!(
            fleet.evict(SessionId(1)),
            Err(FleetError::UnknownSession(_))
        ));
    }

    #[test]
    fn snapshot_roundtrips_into_new_session() {
        let fleet = FleetEngine::new(FleetConfig::new(2)).unwrap();
        fleet.create(SessionId(0), calibrated_pipeline(2)).unwrap();
        let mut rng = Rng::seed_from(3);
        for _ in 0..10 {
            fleet
                .feed_blocking(SessionId(0), &sample(&mut rng, 0.2))
                .unwrap();
        }
        let blob = fleet.snapshot(SessionId(0)).unwrap();
        fleet.create_from_bytes(SessionId(7), &blob).unwrap();
        assert_eq!(fleet.session_count(), 2);
        let report = fleet.shutdown();
        assert_eq!(report.sessions.len(), 2);
        // The clone resumed from the original's counter.
        assert_eq!(report.sessions[0].1.samples_processed(), 10);
        assert_eq!(report.sessions[1].1.samples_processed(), 10);
    }

    #[test]
    fn duplicate_and_unknown_sessions_are_rejected() {
        let fleet = FleetEngine::new(FleetConfig::new(1)).unwrap();
        fleet.create(SessionId(4), calibrated_pipeline(4)).unwrap();
        assert!(matches!(
            fleet.create(SessionId(4), calibrated_pipeline(5)),
            Err(FleetError::DuplicateSession(_))
        ));
        assert_eq!(
            fleet.feed(SessionId(99), &[0.0; DIM]),
            FeedReply::UnknownSession
        );
        assert!(matches!(
            fleet.snapshot(SessionId(99)),
            Err(FleetError::UnknownSession(_))
        ));
    }

    #[test]
    fn full_queue_returns_busy_not_unbounded_growth() {
        // Capacity 2 on a single shard; the worker is kept busy by stuffing
        // the queue faster than it drains. We must observe at least one
        // Busy, and the queue depth must never exceed the bound.
        let fleet = FleetEngine::new(FleetConfig::new(1).with_queue_capacity(2)).unwrap();
        fleet.create(SessionId(0), calibrated_pipeline(6)).unwrap();
        let mut rng = Rng::seed_from(11);
        let mut busy = 0;
        let mut enqueued = 0;
        for _ in 0..5_000 {
            match fleet.feed(SessionId(0), &sample(&mut rng, 0.2)) {
                FeedReply::Enqueued => enqueued += 1,
                FeedReply::Busy => busy += 1,
                FeedReply::UnknownSession | FeedReply::Quarantined => unreachable!(),
            }
            assert!(fleet.metrics().queue_depths[0] <= 2);
        }
        assert!(busy > 0, "never saw backpressure ({enqueued} enqueued)");
        let m = fleet.metrics();
        assert_eq!(m.busy_rejections, busy as u64);
        let report = fleet.shutdown();
        assert_eq!(report.metrics.samples_processed, enqueued as u64);
    }

    #[test]
    fn flooded_frames_never_queue_more_rows_than_capacity() {
        const CAP: usize = 24;
        const FRAMES: usize = 40;
        const ROWS: usize = 16;
        // Session 0 sleeps on every 8th row, so the producers outrun the
        // worker and the queue sits at its bound.
        let injector = FaultInjector::new(vec![Fault::SlowSession {
            session: 0,
            every: 8,
            micros: 200,
        }]);
        let fleet = FleetEngine::new(
            FleetConfig::new(1)
                .with_queue_capacity(CAP)
                .with_fault_injector(injector),
        )
        .unwrap();
        for s in 0..3u64 {
            fleet
                .create(SessionId(s), calibrated_pipeline(20 + s))
                .unwrap();
        }
        let flooding = std::sync::atomic::AtomicBool::new(true);
        let (deepest, control_calls) = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut deepest = 0;
                while flooding.load(Ordering::Relaxed) {
                    deepest = deepest.max(fleet.queue_depth(SessionId(0)));
                }
                deepest
            });
            // Control traffic on the full shard: it queues behind the
            // rows and is never refused.
            let controllers: Vec<_> = (0..2u64)
                .map(|c| {
                    let (fleet, flooding) = (&fleet, &flooding);
                    scope.spawn(move || {
                        let mut calls = 0u64;
                        let mut last = 0;
                        while flooding.load(Ordering::Relaxed) {
                            if c == 0 {
                                let blob = fleet.snapshot(SessionId(1)).unwrap();
                                DriftPipeline::from_bytes(&blob).unwrap();
                            } else {
                                let n = fleet.samples_processed(SessionId(2)).unwrap();
                                assert!(n >= last, "processed count went back");
                                last = n;
                            }
                            calls += 1;
                        }
                        calls
                    })
                })
                .collect();
            let producers: Vec<_> = (0..3u64)
                .map(|s| {
                    let fleet = &fleet;
                    scope.spawn(move || {
                        let mut rng = Rng::seed_from(40 + s);
                        for _ in 0..FRAMES {
                            let frame: Vec<Real> =
                                (0..ROWS).flat_map(|_| sample(&mut rng, 0.2)).collect();
                            let (accepted, result) = fleet.feed_frame(SessionId(s), DIM, &frame);
                            result.unwrap();
                            assert_eq!(accepted, ROWS);
                        }
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            flooding.store(false, Ordering::Relaxed);
            let calls: Vec<u64> = controllers.into_iter().map(|c| c.join().unwrap()).collect();
            (sampler.join().unwrap(), calls)
        });
        assert!(deepest <= CAP, "{deepest} rows queued on a {CAP}-row shard");
        assert!(
            deepest >= CAP / 2,
            "the flood never filled the queue ({deepest})"
        );
        assert!(
            control_calls.iter().all(|&n| n > 0),
            "a control caller never completed a call: {control_calls:?}"
        );
        let report = fleet.shutdown();
        assert_eq!(report.metrics.samples_processed, (3 * FRAMES * ROWS) as u64);
        assert_eq!(report.metrics.queue_depths, vec![0]);
    }

    #[test]
    fn big_frame_progresses_beside_a_steady_single_row_feeder() {
        const CAP: usize = 32;
        // Ten capacity-sized frames, then one larger than the queue.
        let sizes: Vec<usize> = [CAP; 10].into_iter().chain([3 * CAP + 5]).collect();
        // Session 0's rows each take 100 µs, and its feeder refills every
        // row the worker frees, so the queue never has room for a whole
        // capacity-sized frame at once.
        let injector = FaultInjector::new(vec![Fault::SlowSession {
            session: 0,
            every: 1,
            micros: 100,
        }]);
        let fleet = FleetEngine::new(
            FleetConfig::new(1)
                .with_queue_capacity(CAP)
                .with_feed_timeout(Duration::from_secs(2))
                .with_fault_injector(injector),
        )
        .unwrap();
        fleet.create(SessionId(0), calibrated_pipeline(50)).unwrap();
        fleet.create(SessionId(1), calibrated_pipeline(51)).unwrap();
        let feeding = std::sync::atomic::AtomicBool::new(true);
        let outcomes = std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut rng = Rng::seed_from(52);
                while feeding.load(Ordering::Relaxed) {
                    fleet
                        .feed_blocking(SessionId(0), &sample(&mut rng, 0.2))
                        .unwrap();
                }
            });
            while fleet.queue_depth(SessionId(0)) < CAP {
                std::thread::yield_now();
            }
            let mut rng = Rng::seed_from(53);
            let outcomes: Vec<_> = sizes
                .iter()
                .map(|&rows| {
                    let frame: Vec<Real> = (0..rows).flat_map(|_| sample(&mut rng, 0.8)).collect();
                    let (accepted, result) = fleet.feed_frame(SessionId(1), DIM, &frame);
                    (accepted, result.is_ok())
                })
                .collect();
            feeding.store(false, Ordering::Relaxed);
            outcomes
        });
        assert!(
            outcomes
                .iter()
                .zip(&sizes)
                .all(|(&o, &rows)| o == (rows, true)),
            "a frame timed out: {outcomes:?}"
        );
        assert_eq!(
            fleet.samples_processed(SessionId(1)).unwrap(),
            sizes.iter().sum::<usize>() as u64
        );
        assert_eq!(fleet.metrics().feed_timeouts, 0);
        fleet.shutdown();
    }

    #[test]
    fn control_calls_queue_behind_a_full_gated_shard() {
        const CAP: usize = 8;
        // One shard, a checkpoint after every row: holding the checkpoint
        // store's lock parks the worker at its first row, a gate the test
        // opens by dropping the guard.
        let fleet = FleetEngine::new(
            FleetConfig::new(1)
                .with_queue_capacity(CAP)
                .with_checkpoint_interval(1),
        )
        .unwrap();
        fleet.create(SessionId(0), calibrated_pipeline(30)).unwrap();
        fleet.create(SessionId(1), calibrated_pipeline(31)).unwrap();
        let mut rng = Rng::seed_from(32);
        let gate = fleet.store.lock();
        let mut fed = 0u64;
        while fed < CAP as u64 + 1 {
            match fleet.feed(SessionId(0), &sample(&mut rng, 0.2)) {
                FeedReply::Enqueued => fed += 1,
                FeedReply::Busy => std::thread::yield_now(),
                other => panic!("unexpected {other:?}"),
            }
        }
        // The worker holds one row at the gate; the queue is full.
        assert_eq!(fleet.queue_depth(SessionId(0)), CAP);
        assert_eq!(
            fleet.feed(SessionId(0), &sample(&mut rng, 0.2)),
            FeedReply::Busy
        );
        let done = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let snapshot = scope.spawn(|| {
                let r = fleet.snapshot(SessionId(0));
                done.fetch_add(1, Ordering::SeqCst);
                r
            });
            let processed = scope.spawn(|| {
                let r = fleet.samples_processed(SessionId(0));
                done.fetch_add(1, Ordering::SeqCst);
                r
            });
            let evict = scope.spawn(|| {
                let r = fleet.evict(SessionId(1));
                done.fetch_add(1, Ordering::SeqCst);
                r
            });
            // A control send never waits for room: the deadline variant
            // queues its query behind the full shard and times out on the
            // reply, instead of blocking in the send.
            assert!(matches!(
                fleet.samples_processed_within(SessionId(0), Duration::from_millis(20)),
                Err(FleetError::Timeout {
                    queue_depth: CAP,
                    ..
                })
            ));
            // Nothing is answered while the gate holds.
            assert_eq!(done.load(Ordering::SeqCst), 0);
            assert_eq!(fleet.queue_depth(SessionId(0)), CAP);
            drop(gate);
            let blob = snapshot.join().unwrap().unwrap();
            assert_eq!(
                DriftPipeline::from_bytes(&blob)
                    .unwrap()
                    .samples_processed(),
                fed
            );
            assert_eq!(processed.join().unwrap().unwrap(), fed);
            assert_eq!(evict.join().unwrap().unwrap().samples_processed(), 0);
        });
        assert_eq!(fleet.session_count(), 1);
        assert_eq!(fleet.queue_depth(SessionId(0)), 0);
        let report = fleet.shutdown();
        assert_eq!(report.metrics.samples_processed, fed);
    }

    #[test]
    fn full_queue_behind_a_dead_worker_is_respawned_not_busy() {
        let injector = FaultInjector::new(vec![Fault::KillWorkerOnSample { session: 0, nth: 0 }]);
        let fleet = FleetEngine::new(
            FleetConfig::new(1)
                .with_queue_capacity(4)
                .with_fault_injector(injector),
        )
        .unwrap();
        fleet.create(SessionId(0), calibrated_pipeline(8)).unwrap();
        let mut rng = Rng::seed_from(12);
        assert_eq!(
            fleet.feed(SessionId(0), &sample(&mut rng, 0.2)),
            FeedReply::Enqueued
        );
        let dead = || {
            read_lock(&fleet.shards[0].link)
                .handle
                .as_ref()
                .is_some_and(JoinHandle::is_finished)
        };
        while !dead() {
            std::thread::yield_now();
        }
        // Rows that reached the channel before the dying worker dropped
        // its receiver leave the queue full with nobody to drain it.
        assert_eq!(fleet.shards[0].depth.reserve(4, true), 4);
        assert_eq!(
            fleet.feed(SessionId(0), &sample(&mut rng, 0.2)),
            FeedReply::Enqueued
        );
        let m = fleet.metrics();
        assert_eq!(m.workers_respawned, 1);
        assert_eq!(m.samples_dropped, 4);
    }

    #[test]
    fn metrics_and_events_track_drift() {
        let fleet = FleetEngine::new(FleetConfig::new(2)).unwrap();
        for dev in 0..4u64 {
            fleet
                .create(SessionId(dev), calibrated_pipeline(7))
                .unwrap();
        }
        let mut rng = Rng::seed_from(13);
        // Stable for everyone, then device 2 drifts hard.
        for _ in 0..60 {
            for dev in 0..4u64 {
                let x = sample(&mut rng, if dev % 2 == 0 { 0.2 } else { 0.8 });
                fleet.feed_blocking(SessionId(dev), &x).unwrap();
            }
        }
        for _ in 0..600 {
            fleet
                .feed_blocking(SessionId(2), &sample(&mut rng, 1.6))
                .unwrap();
        }
        let report = fleet.shutdown();
        assert!(report.metrics.drifts_flagged >= 1, "{:?}", report.metrics);
        assert!(
            report.events.iter().any(|e| matches!(
                e,
                FleetEvent::Pipeline {
                    id: SessionId(2),
                    event: PipelineEvent::DriftDetected { .. }
                }
            )),
            "drift not attributed to the drifting device"
        );
        // Devices that stayed stable flagged nothing.
        assert!(report.events.iter().all(|e| matches!(
            e,
            FleetEvent::Pipeline {
                id: SessionId(2),
                ..
            }
        )));
        assert_eq!(report.metrics.samples_processed, 4 * 60 + 600);
    }

    #[test]
    fn shutdown_drains_pending_samples() {
        let fleet = FleetEngine::new(FleetConfig::new(1).with_queue_capacity(512)).unwrap();
        fleet.create(SessionId(0), calibrated_pipeline(8)).unwrap();
        let mut rng = Rng::seed_from(17);
        let mut fed = 0u64;
        for _ in 0..200 {
            if fleet.feed(SessionId(0), &sample(&mut rng, 0.2)) == FeedReply::Enqueued {
                fed += 1;
            }
        }
        // Shut down immediately: everything queued must still be applied.
        let report = fleet.shutdown();
        assert_eq!(report.metrics.samples_processed, fed);
        assert_eq!(report.sessions[0].1.samples_processed(), fed);
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(FleetEngine::new(FleetConfig::new(0)).is_err());
        assert!(FleetEngine::new(FleetConfig::new(1).with_queue_capacity(0)).is_err());
        assert!(FleetEngine::new(FleetConfig::new(1).with_checkpoint_interval(0)).is_err());
        assert!(FleetEngine::new(FleetConfig::new(1).with_restart_budget(3, 0)).is_err());
        assert!(FleetEngine::new(FleetConfig::new(1).with_feed_timeout(Duration::ZERO)).is_err());
    }

    #[test]
    fn bad_samples_drop_without_killing_the_session() {
        let fleet = FleetEngine::new(FleetConfig::new(1)).unwrap();
        fleet.create(SessionId(0), calibrated_pipeline(9)).unwrap();
        let mut rng = Rng::seed_from(19);
        fleet
            .feed_blocking(SessionId(0), &sample(&mut rng, 0.2))
            .unwrap();
        fleet
            .feed_blocking(SessionId(0), &[Real::NAN, 0.0, 0.0, 0.0])
            .unwrap();
        fleet
            .feed_blocking(SessionId(0), &sample(&mut rng, 0.2))
            .unwrap();
        let report = fleet.shutdown();
        assert_eq!(report.metrics.samples_processed, 2);
        assert_eq!(report.metrics.samples_dropped, 1);
        assert_eq!(report.sessions[0].1.samples_processed(), 2);
    }

    #[test]
    fn feed_blocking_times_out_under_sustained_backpressure() {
        // A 100 ms stall per sample against a 30 ms budget: once the
        // 1-deep queue fills behind the stalled worker, the deadline must
        // fire instead of spinning forever.
        let injector = FaultInjector::new(vec![Fault::SlowSession {
            session: 0,
            every: 1,
            micros: 100_000,
        }]);
        let fleet = FleetEngine::new(
            FleetConfig::new(1)
                .with_queue_capacity(1)
                .with_feed_timeout(Duration::from_millis(30))
                .with_fault_injector(injector),
        )
        .unwrap();
        fleet.create(SessionId(0), calibrated_pipeline(10)).unwrap();
        let mut rng = Rng::seed_from(21);
        let started = Instant::now();
        let mut timed_out = false;
        for _ in 0..100 {
            match fleet.feed_blocking(SessionId(0), &sample(&mut rng, 0.2)) {
                Ok(()) => {}
                Err(FleetError::Timeout { id, queue_depth }) => {
                    assert_eq!(id, SessionId(0));
                    // The shard queue (capacity 1) was full at the deadline.
                    assert!(queue_depth >= 1, "timeout should report a backed-up queue");
                    timed_out = true;
                    break;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
            if started.elapsed() > Duration::from_secs(20) {
                break;
            }
        }
        assert!(timed_out, "never hit the blocking-feed timeout");
        assert!(fleet.metrics().feed_timeouts >= 1);
    }

    #[test]
    fn quarantined_id_can_be_recreated() {
        // Panic before any post-create sample: budget allows a restore,
        // so force exhaustion with a zero-restart budget instead.
        let injector = FaultInjector::new(vec![Fault::PanicOnSample { session: 0, nth: 5 }]);
        let fleet = FleetEngine::new(
            FleetConfig::new(1)
                .with_restart_budget(0, 1024)
                .with_fault_injector(injector),
        )
        .unwrap();
        fleet.create(SessionId(0), calibrated_pipeline(11)).unwrap();
        let mut rng = Rng::seed_from(23);
        for _ in 0..10 {
            let x = sample(&mut rng, 0.2);
            match fleet.feed_blocking(SessionId(0), &x) {
                Ok(()) | Err(FleetError::SessionQuarantined(_)) => {}
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        // Wait for the worker to drain and quarantine.
        let deadline = Instant::now() + Duration::from_secs(10);
        while fleet.quarantined_sessions().is_empty() && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(
            fleet.quarantined_sessions(),
            vec![(SessionId(0), QuarantineReason::RestartBudgetExhausted)]
        );
        assert_eq!(
            fleet.feed(SessionId(0), &[0.2; DIM]),
            FeedReply::Quarantined
        );
        assert!(matches!(
            fleet.snapshot(SessionId(0)),
            Err(FleetError::SessionQuarantined(_))
        ));
        // The last checkpoint stays retrievable for graceful degradation.
        assert!(fleet.last_checkpoint(SessionId(0)).is_some());
        // And the id can be replaced with a fresh session.
        fleet.create(SessionId(0), calibrated_pipeline(12)).unwrap();
        assert_eq!(fleet.session_count(), 1);
        fleet
            .feed_blocking(SessionId(0), &sample(&mut rng, 0.2))
            .unwrap();
        let report = fleet.shutdown();
        assert_eq!(report.sessions.len(), 1);
        assert_eq!(report.sessions[0].1.samples_processed(), 1);
    }

    #[test]
    fn contributions_rejected_is_the_sum_of_the_reasons() {
        let fleet = FleetEngine::new(FleetConfig::new(1)).unwrap();
        let rejects = RejectReasons {
            health: 1,
            staleness: 2,
            non_pd: 3,
            deviation: 4,
            low_trust: 5,
        };
        fleet.record_federation_round(true, 6, rejects);
        let m = fleet.metrics();
        assert_eq!(
            [
                m.rejected_health,
                m.rejected_staleness,
                m.rejected_non_pd,
                m.rejected_deviation,
                m.rejected_low_trust,
            ],
            [1, 2, 3, 4, 5]
        );
        assert_eq!(m.contributions_rejected, 15);
        assert_eq!((m.contributions_accepted, m.merge_rounds), (6, 1));
    }
}
