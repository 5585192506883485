//! The ingest server: a `std::net::TcpListener` accept loop spawning one
//! reader thread per device connection, all feeding a single shared
//! [`FleetEngine`].
//!
//! Lifecycle:
//!
//! 1. [`Server::bind`] opens the listener, builds the fleet (resuming
//!    every surviving session from the durable store when
//!    `FleetConfig::state_dir` is set), and decodes the reference model's
//!    dimension once so HELLO handshakes can be validated cheaply.
//! 2. [`Server::run`] accepts connections until the caller's stop
//!    predicate fires (the CLI wires this to its SIGINT flag), then
//!    drains: the listener stops accepting, every connection handler
//!    notices the shared stop flag at its next read tick and closes, the
//!    handlers are joined, and the fleet is shut down — which flushes
//!    each surviving session's final state to the durable store, so a
//!    graceful drain loses zero samples.
//!
//! Backpressure is end-to-end: connection handlers hand each SAMPLE
//! frame to [`FleetEngine::feed_frame`], and a feed deadline exceeded under a
//! full shard queue becomes a `Busy` reply naming the partial progress
//! and the stalled queue's depth — the client retries the remainder.
//! Slow or silent clients are evicted after `idle_timeout` without
//! affecting any other connection.
//!
//! Admission control guards the front door ([`AdmissionConfig`]): a
//! connection cap and a per-IP accept-rate token bucket shed reconnect
//! storms at accept time with a typed `AdmissionLimit` NACK (cheap: no
//! handler thread is ever spawned for a shed connection); a
//! bytes-in-flight cap turns aggregate memory pressure into `Busy`
//! replies before buffers balloon; and a handshake deadline drops
//! sockets that connect but never complete a HELLO, so half-open or
//! deliberately trickling clients cannot pin reader threads.
//!
//! Reconnects are fenced per session: each successful HELLO bumps the
//! session's epoch after waiting out any batch mid-apply, and sample
//! frames carry their connection's epoch implicitly (via the handler's
//! handshake record). A zombie handler — one whose client already
//! re-HELLOed elsewhere after a network fault — that later tries to feed
//! a delayed frame is rejected with a fatal `Superseded` NACK instead of
//! double-applying rows the new connection is about to replay. Combined
//! with the live resume offset in `HelloAck`, this makes delivery
//! exactly-once across arbitrary connection failures: one live
//! connection feeds a session at a time.

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use seqdrift_core::DriftPipeline;
use seqdrift_federate::Federator;
use seqdrift_fleet::{
    DurabilityHealth, FleetConfig, FleetEngine, FleetError, FleetEvent, RecoveryReport, SessionId,
    ShutdownReport,
};
use seqdrift_linalg::Real;

use crate::metrics::{ServerMetrics, ServerMetricsSnapshot};
use crate::proto::{
    decode_frame_owned, header_payload_len, Message, NackCode, CRC_LEN, HEADER_LEN, MAGIC,
};
use crate::recorder::ScenarioRecorder;

/// Session id key for events not attributable to any session (e.g. a
/// durability transition): delivered to whichever connection drains next.
const GLOBAL_EVENTS: u64 = u64::MAX;

/// Front-door limits. Defaults are generous enough that well-behaved
/// fleets never notice them; zero disables an individual limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Hard cap on concurrently open connections; further accepts are
    /// shed with an `AdmissionLimit` NACK before a handler thread is
    /// spawned. 0 = unlimited.
    pub max_connections: usize,
    /// Sustained accepts per second tolerated from one source IP (token
    /// bucket refill rate). 0 = unlimited.
    pub per_ip_accepts_per_sec: f64,
    /// Token bucket capacity: the burst of accepts one IP may spend at
    /// once before the sustained rate applies.
    pub per_ip_accept_burst: u32,
    /// Cap on sample payload bytes concurrently buffered across all
    /// connections (read off the wire, not yet acknowledged). Frames over
    /// the cap get a zero-progress `Busy` reply — except that a frame
    /// arriving when nothing is in flight is always admitted, so the cap
    /// can shed load but never livelock. 0 = unlimited.
    pub max_bytes_in_flight: u64,
    /// A new connection must complete its first HELLO within this window
    /// or it is dropped (counted in `handshake_timeouts`).
    pub handshake_timeout: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_connections: 1024,
            per_ip_accepts_per_sec: 0.0,
            per_ip_accept_burst: 64,
            max_bytes_in_flight: 256 << 20,
            handshake_timeout: Duration::from_secs(10),
        }
    }
}

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Fleet engine parameters (workers, queues, durability, ...).
    pub fleet: FleetConfig,
    /// Reference checkpoint blob: sessions HELLOed for the first time are
    /// created from this calibrated state. `None` means only sessions
    /// resumed from the durable store (or created in-process) exist, and
    /// an unknown HELLO is NACKed.
    pub reference: Option<Vec<u8>>,
    /// Connections silent for longer than this are evicted.
    pub idle_timeout: Duration,
    /// Granularity of the handler read loop: how often a blocked read
    /// wakes to check the stop flag and the idle deadline.
    pub read_tick: Duration,
    /// Front-door admission limits.
    pub admission: AdmissionConfig,
    /// When set, every accepted sample row (plus connection events) is
    /// recorded and written into this directory at drain time as a
    /// replayable `.sqsc` scenario bundle.
    pub record: Option<std::path::PathBuf>,
}

impl ServerConfig {
    /// Defaults: the given fleet config, no reference model, 30-second
    /// idle eviction, 25 ms read tick.
    pub fn new(fleet: FleetConfig) -> Self {
        ServerConfig {
            fleet,
            reference: None,
            idle_timeout: Duration::from_secs(30),
            read_tick: Duration::from_millis(25),
            admission: AdmissionConfig::default(),
            record: None,
        }
    }

    /// Installs the reference checkpoint blob for HELLO auto-creation.
    pub fn with_reference(mut self, blob: Vec<u8>) -> Self {
        self.reference = Some(blob);
        self
    }

    /// Overrides the idle-eviction timeout.
    pub fn with_idle_timeout(mut self, t: Duration) -> Self {
        self.idle_timeout = t;
        self
    }

    /// Overrides the front-door admission limits.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }

    /// Records live ingest into `dir` as a replayable scenario bundle.
    pub fn with_record(mut self, dir: std::path::PathBuf) -> Self {
        self.record = Some(dir);
        self
    }
}

/// Errors raised while binding or running the server.
#[derive(Debug)]
pub enum ServerError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Fleet construction or resume failure.
    Fleet(FleetError),
    /// The reference checkpoint blob did not decode.
    BadReference(String),
    /// Federation was requested (the fleet config carries a
    /// `FederationConfig`) but could not be set up.
    Federation(String),
}

impl core::fmt::Display for ServerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "socket error: {e}"),
            ServerError::Fleet(e) => write!(f, "fleet error: {e}"),
            ServerError::BadReference(e) => write!(f, "reference checkpoint invalid: {e}"),
            ServerError::Federation(e) => write!(f, "federation setup failed: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<FleetError> for ServerError {
    fn from(e: FleetError) -> Self {
        ServerError::Fleet(e)
    }
}

/// Everything the server produced, returned by [`Server::run`] after the
/// drain completes.
#[derive(Debug)]
pub struct ServerReport {
    /// The fleet's own shutdown report (surviving sessions, quarantined,
    /// lost, events, engine counters). On a graceful drain every
    /// survivor's final state has been flushed to the durable store.
    pub fleet: ShutdownReport,
    /// Network-layer counters.
    pub net: ServerMetricsSnapshot,
    /// Sessions resumed from the durable store at bind time, as
    /// `(session, samples_processed)`.
    pub resumed: Vec<(u64, u64)>,
    /// Outcome of the ingest recording, when one was requested: the path
    /// of the written `.sqsc` manifest, or why the bundle write failed
    /// (e.g. nothing was recorded).
    pub recording: Option<std::result::Result<std::path::PathBuf, String>>,
}

/// State shared between the accept loop and every connection handler.
struct Shared {
    fleet: FleetEngine,
    reference: Option<Vec<u8>>,
    /// Feature dimension of the reference model (decoded once at bind).
    ref_dim: Option<u32>,
    /// Sessions known to exist in the engine (resumed or created). HELLO
    /// consults this before attempting creation.
    known: RwLock<HashSet<u64>>,
    /// Stream offset at resume (`FleetEngine::resume`), reported in
    /// `HelloAck::resume_from`.
    resumed: HashMap<u64, u64>,
    /// Per-session event buckets fed from `FleetEngine::drain_events`.
    events: Mutex<HashMap<u64, Vec<String>>>,
    metrics: ServerMetrics,
    stop: AtomicBool,
    idle_timeout: Duration,
    read_tick: Duration,
    admission: AdmissionConfig,
    /// Live-ingest tap writing a replayable scenario bundle at drain.
    recorder: Option<ScenarioRecorder>,
    /// Sample payload bytes read off the wire and not yet acknowledged,
    /// across all connections (the bytes-in-flight admission gauge).
    bytes_in_flight: AtomicU64,
    /// Per-session connection fences (see [`SessionGate`]).
    gates: Mutex<HashMap<u64, SessionGate>>,
}

/// Per-session connection fence. `epoch` names the connection most
/// recently granted the session by a HELLO; `feeding` counts batches
/// currently mid-apply, so a fence can wait for in-flight rows to land
/// before the new connection queries its resume offset.
struct SessionGate {
    feeding: u32,
    epoch: u64,
}

impl Shared {
    /// Moves newly logged fleet events into per-session buckets.
    fn pump_events(&self) {
        let drained = self.fleet.drain_events();
        if drained.is_empty() {
            return;
        }
        let mut buckets = match self.events.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        for event in drained {
            let key = match &event {
                FleetEvent::Pipeline { id, .. }
                | FleetEvent::SessionPanicked { id, .. }
                | FleetEvent::SessionRestored { id, .. }
                | FleetEvent::SessionQuarantined { id, .. }
                | FleetEvent::SessionExcludedLowTrust { id, .. } => id.0,
                _ => GLOBAL_EVENTS,
            };
            buckets.entry(key).or_default().push(format!("{event:?}"));
        }
    }

    /// Takes the session's queued events plus any engine-wide events.
    fn take_events(&self, session: u64) -> Vec<String> {
        let mut buckets = match self.events.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut out = buckets.remove(&session).unwrap_or_default();
        if let Some(global) = buckets.remove(&GLOBAL_EVENTS) {
            out.extend(global);
        }
        out
    }

    /// Whether the session has more events queued after a take.
    fn events_pending(&self, session: u64) -> bool {
        match self.events.lock() {
            Ok(g) => g.contains_key(&session),
            Err(poisoned) => poisoned.into_inner().contains_key(&session),
        }
    }

    fn lock_gates(&self) -> std::sync::MutexGuard<'_, HashMap<u64, SessionGate>> {
        match self.gates.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Claims the session for a new connection: waits (up to `deadline`)
    /// for any batch mid-apply on an older connection to finish, then
    /// bumps the epoch. Frames still buffered on older connections are
    /// rejected by [`Shared::begin_feed`] from this point on. `Err` means
    /// an older handler held the feed past the deadline (it is stuck in
    /// backpressure); the caller turns that into a retryable BUSY.
    fn fence_session(&self, session: u64, deadline: Instant) -> Result<u64, ()> {
        loop {
            {
                let mut gates = self.lock_gates();
                let gate = gates.entry(session).or_insert(SessionGate {
                    feeding: 0,
                    epoch: 0,
                });
                if gate.feeding == 0 {
                    gate.epoch += 1;
                    return Ok(gate.epoch);
                }
            }
            if Instant::now() >= deadline {
                return Err(());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Enters a feed for the given connection epoch. `false` means a
    /// newer connection has fenced this one; the caller must NOT apply
    /// the batch (and must not call [`Shared::end_feed`]).
    fn begin_feed(&self, session: u64, epoch: u64) -> bool {
        let mut gates = self.lock_gates();
        match gates.get_mut(&session) {
            Some(gate) if gate.epoch == epoch => {
                gate.feeding += 1;
                true
            }
            _ => false,
        }
    }

    /// Leaves a feed entered by [`Shared::begin_feed`].
    fn end_feed(&self, session: u64) {
        let mut gates = self.lock_gates();
        if let Some(gate) = gates.get_mut(&session) {
            gate.feeding = gate.feeding.saturating_sub(1);
        }
    }
}

/// The ingest server. Bind, then [`Server::run`] until stopped.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    /// Present when the fleet config carries a `FederationConfig`:
    /// [`Server::run`] spawns a background thread driving merge rounds
    /// against the shared fleet.
    federator: Option<Federator>,
}

impl Server {
    /// Binds the listener, builds the fleet engine, and — when the fleet
    /// config carries a `state_dir` — resumes every surviving session
    /// from the durable store.
    pub fn bind(addr: &str, cfg: ServerConfig) -> Result<Server, ServerError> {
        let ref_dim = match &cfg.reference {
            Some(blob) => Some(
                DriftPipeline::from_bytes(blob)
                    .map_err(|e| ServerError::BadReference(e.to_string()))?
                    .model()
                    .dim() as u32,
            ),
            None => None,
        };
        let durable = cfg.fleet.state_dir.is_some();
        let fleet = FleetEngine::new(cfg.fleet)?;
        let mut resumed = HashMap::new();
        if durable {
            for (id, samples) in fleet.resume()? {
                resumed.insert(id.0, samples);
            }
        }
        let federator = match (fleet.federation().is_some(), &cfg.reference) {
            (false, _) => None,
            (true, None) => {
                return Err(ServerError::Federation(
                    "federation requires a reference checkpoint".into(),
                ))
            }
            (true, Some(blob)) => Some(
                Federator::new(&fleet, blob).map_err(|e| ServerError::Federation(e.to_string()))?,
            ),
        };
        let known: HashSet<u64> = resumed.keys().copied().collect();
        let recorder = cfg.record.as_deref().map(|dir| {
            let rec = ScenarioRecorder::new(dir);
            if let Some(blob) = &cfg.reference {
                rec.set_reference(blob);
            }
            rec
        });
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Server {
            listener,
            local_addr,
            federator,
            shared: Arc::new(Shared {
                fleet,
                reference: cfg.reference,
                ref_dim,
                known: RwLock::new(known),
                resumed,
                events: Mutex::new(HashMap::new()),
                metrics: ServerMetrics::default(),
                stop: AtomicBool::new(false),
                idle_timeout: cfg.idle_timeout,
                read_tick: cfg.read_tick,
                admission: cfg.admission,
                recorder,
                bytes_in_flight: AtomicU64::new(0),
                gates: Mutex::new(HashMap::new()),
            }),
        })
    }

    /// The bound address (use with `127.0.0.1:0` to discover the
    /// ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Point-in-time network counters (the fleet's own counters are in
    /// the final report).
    pub fn metrics(&self) -> ServerMetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// What the durable store's bind-time recovery scan found and
    /// repaired; `None` when the fleet runs memory-only.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.shared.fleet.recovery_report()
    }

    /// The fleet's current durability health (always `Durable` for a
    /// memory-only fleet).
    pub fn durability_health(&self) -> DurabilityHealth {
        self.shared.fleet.durability_health()
    }

    /// Serves until `stop_requested` returns true, then drains: stops
    /// accepting, signals every handler, joins them, and shuts the fleet
    /// down (flushing durable state). Never panics on connection errors —
    /// a failed accept is retried, a failed handler only loses its own
    /// connection.
    pub fn run<F: Fn() -> bool>(mut self, stop_requested: F) -> ServerReport {
        // Non-blocking so the accept loop can poll the stop predicate.
        let nonblocking_ok = self.listener.set_nonblocking(true).is_ok();
        let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        // Federation poller: checks the sample interval every read tick
        // and runs a merge round when it elapses. Holds its own clone of
        // the shared state, so it MUST be joined before the drain's
        // `Arc::try_unwrap` below.
        let federation = self.federator.take().map(|mut federator| {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || {
                while !shared.stop.load(Ordering::Relaxed) {
                    // Engine-level failures (shutdown races) end polling;
                    // per-session outcomes are absorbed into the fleet
                    // counters by the federator itself.
                    if federator.maybe_round(&shared.fleet).is_err() {
                        break;
                    }
                    std::thread::sleep(shared.read_tick);
                }
            })
        });
        // Per-IP accept-rate token buckets. The accept loop is single-
        // threaded, so plain HashMap state suffices — no lock, no atomics.
        let mut buckets: HashMap<IpAddr, TokenBucket> = HashMap::new();
        while !stop_requested() {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    let shared = Arc::clone(&self.shared);
                    shared
                        .metrics
                        .connections_accepted
                        .fetch_add(1, Ordering::Relaxed);
                    if let Some(detail) = admission_verdict(&shared, peer.ip(), &mut buckets) {
                        shed_connection(stream, &shared, &detail);
                        continue;
                    }
                    shared
                        .metrics
                        .connections_active
                        .fetch_add(1, Ordering::Relaxed);
                    handles.push(std::thread::spawn(move || {
                        handle_connection(stream, &shared);
                        shared
                            .metrics
                            .connections_active
                            .fetch_sub(1, Ordering::Relaxed);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => {
                    // Transient accept failure (e.g. EMFILE): back off and
                    // keep serving existing connections.
                    std::thread::sleep(Duration::from_millis(50));
                    if !nonblocking_ok {
                        break;
                    }
                }
            }
            // Reap finished handlers so a long-lived server does not
            // accumulate join handles.
            if handles.iter().any(|h| h.is_finished()) {
                handles = handles
                    .into_iter()
                    .filter_map(|h| {
                        if h.is_finished() {
                            let _ = h.join();
                            None
                        } else {
                            Some(h)
                        }
                    })
                    .collect();
            }
        }
        // Drain: signal the handlers, join them, shut the fleet down.
        self.shared.stop.store(true, Ordering::SeqCst);
        for h in handles {
            let _ = h.join();
        }
        if let Some(h) = federation {
            let _ = h.join();
        }
        let net = self.shared.metrics.snapshot();
        let mut resumed: Vec<(u64, u64)> = self
            .shared
            .resumed
            .iter()
            .map(|(&id, &s)| (id, s))
            .collect();
        resumed.sort_unstable();
        let (fleet_report, recording) = match Arc::try_unwrap(self.shared) {
            Ok(shared) => {
                // The bundle is written before the fleet shuts down so a
                // shutdown panic cannot lose the captured streams.
                let recording = shared.recorder.as_ref().map(ScenarioRecorder::finish);
                (shared.fleet.shutdown(), recording)
            }
            // Unreachable once every handler is joined; returning an
            // empty report keeps this path panic-free regardless.
            Err(shared) => (
                ShutdownReport {
                    sessions: Vec::new(),
                    quarantined: shared.fleet.quarantined_sessions(),
                    lost: Vec::new(),
                    events: shared.fleet.drain_events(),
                    metrics: shared.fleet.metrics(),
                },
                None,
            ),
        };
        ServerReport {
            fleet: fleet_report,
            net,
            resumed,
            recording,
        }
    }
}

/// Token bucket for one source IP's accept rate.
struct TokenBucket {
    tokens: f64,
    last_refill: Instant,
}

/// Checks the connection cap and the per-IP accept rate. Returns the
/// rejection detail when the connection must be shed, `None` to admit.
fn admission_verdict(
    shared: &Shared,
    peer: IpAddr,
    buckets: &mut HashMap<IpAddr, TokenBucket>,
) -> Option<String> {
    let adm = &shared.admission;
    if adm.max_connections > 0 {
        let active = shared.metrics.connections_active.load(Ordering::Relaxed);
        if active >= adm.max_connections as u64 {
            return Some(format!("connection limit {} reached", adm.max_connections));
        }
    }
    if adm.per_ip_accepts_per_sec > 0.0 {
        let burst = f64::from(adm.per_ip_accept_burst.max(1));
        let now = Instant::now();
        // Bound the map against address-hopping sources: drop buckets
        // that have refilled to full (they carry no history worth keeping).
        if buckets.len() > 4096 {
            let rate = adm.per_ip_accepts_per_sec;
            buckets.retain(|_, b| {
                (b.tokens + now.duration_since(b.last_refill).as_secs_f64() * rate) < burst
            });
        }
        let bucket = buckets.entry(peer).or_insert(TokenBucket {
            tokens: burst,
            last_refill: now,
        });
        bucket.tokens = (bucket.tokens
            + now.duration_since(bucket.last_refill).as_secs_f64() * adm.per_ip_accepts_per_sec)
            .min(burst);
        bucket.last_refill = now;
        if bucket.tokens < 1.0 {
            return Some(format!(
                "accept rate limit for {peer} ({}/s, burst {})",
                adm.per_ip_accepts_per_sec, adm.per_ip_accept_burst
            ));
        }
        bucket.tokens -= 1.0;
    }
    None
}

/// Rejects a connection at the front door: best-effort `AdmissionLimit`
/// NACK (short write timeout so a hostile receiver cannot stall the
/// accept loop), then drop. No handler thread is ever spawned.
fn shed_connection(mut stream: TcpStream, shared: &Shared, detail: &str) {
    shared
        .metrics
        .admission_rejections
        .fetch_add(1, Ordering::Relaxed);
    shared.metrics.nacks_sent.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = stream.write_all(
        &Message::Nack {
            code: NackCode::AdmissionLimit,
            detail: detail.into(),
        }
        .encode(0),
    );
}

/// Outcome of an interruptible exact read.
enum Fill {
    /// Buffer filled.
    Done,
    /// Peer closed the connection cleanly before the first byte.
    Eof,
    /// No bytes for longer than the idle timeout (or the peer trickled
    /// and then stalled mid-frame).
    Idle,
    /// The handshake deadline passed before the first HELLO completed.
    Expired,
    /// The server is draining.
    Stopped,
    /// Transport error.
    Failed,
}

/// Reads exactly `buf.len()` bytes, waking every read tick to check the
/// stop flag and the idle deadline. Partial progress is kept across
/// ticks, so a slow-but-live client is fine as long as bytes keep
/// arriving inside the idle window. `deadline` is the absolute handshake
/// deadline: unlike the idle window it does NOT reset on progress, so a
/// client trickling one byte per tick cannot hold a pre-HELLO connection
/// open indefinitely.
fn fill(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shared: &Shared,
    deadline: Option<Instant>,
) -> Fill {
    let mut got = 0usize;
    let mut last_byte = Instant::now();
    while got < buf.len() {
        if shared.stop.load(Ordering::Relaxed) {
            return Fill::Stopped;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Fill::Expired;
        }
        match stream.read(&mut buf[got..]) {
            Ok(0) => return if got == 0 { Fill::Eof } else { Fill::Failed },
            Ok(n) => {
                got += n;
                last_byte = Instant::now();
                shared
                    .metrics
                    .bytes_rx
                    .fetch_add(n as u64, Ordering::Relaxed);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if last_byte.elapsed() >= shared.idle_timeout {
                    return Fill::Idle;
                }
                // If the socket is secretly nonblocking (read timeout
                // ineffective), the read returned instantly — sleep so
                // an idle connection ticks instead of spinning a core.
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Fill::Failed,
        }
    }
    Fill::Done
}

/// Writes a reply frame, counting it. Returns false when the transport
/// failed (the caller drops the connection).
fn send(stream: &mut TcpStream, shared: &Shared, bytes: &[u8]) -> bool {
    if stream.write_all(bytes).is_err() {
        return false;
    }
    shared.metrics.frames_tx.fetch_add(1, Ordering::Relaxed);
    shared
        .metrics
        .bytes_tx
        .fetch_add(bytes.len() as u64, Ordering::Relaxed);
    true
}

/// Sends a NACK; returns whether the connection should stay open.
fn send_nack(
    stream: &mut TcpStream,
    shared: &Shared,
    session: u64,
    code: NackCode,
    detail: String,
) -> bool {
    shared.metrics.nacks_sent.fetch_add(1, Ordering::Relaxed);
    let ok = send(
        stream,
        shared,
        &Message::Nack { code, detail }.encode(session),
    );
    if code.is_fatal() {
        shared
            .metrics
            .connections_dropped_protocol
            .fetch_add(1, Ordering::Relaxed);
        return false;
    }
    ok
}

/// One connection's lifecycle: runs the read-dispatch-reply loop, then —
/// when a recorder is attached — logs a `disconnect` event for every
/// session that was still live on the connection when it ended (an
/// orderly BYE removes the session from the map first).
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let mut helloed: HashMap<u64, (u32, u64)> = HashMap::new();
    connection_loop(stream, shared, &mut helloed);
    if let Some(rec) = &shared.recorder {
        for &session in helloed.keys() {
            rec.on_disconnect(session);
        }
    }
}

/// One connection's read-dispatch-reply loop. Strictly request/response:
/// the handler owns both directions of the stream, so replies (including
/// event push-backs riding on acks) never interleave.
fn connection_loop(mut stream: TcpStream, shared: &Shared, helloed: &mut HashMap<u64, (u32, u64)>) {
    // On some platforms (notably Windows) accepted sockets inherit the
    // listener's nonblocking flag, which would make the read timeout
    // below ineffective; clear it explicitly.
    let _ = stream.set_nonblocking(false);
    // Short read timeout turns blocked reads into ticks of `fill`.
    if stream.set_read_timeout(Some(shared.read_tick)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    // Until the first HELLO completes, every read races this absolute
    // deadline; a half-open or trickling socket is dropped at it.
    let mut handshake_deadline = (shared.admission.handshake_timeout > Duration::ZERO)
        .then(|| Instant::now() + shared.admission.handshake_timeout);
    loop {
        let mut header = [0u8; HEADER_LEN];
        match fill(&mut stream, &mut header, shared, handshake_deadline) {
            Fill::Done => {}
            Fill::Idle => {
                shared
                    .metrics
                    .connections_evicted_idle
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
            Fill::Expired => {
                shared
                    .metrics
                    .handshake_timeouts
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
            Fill::Eof | Fill::Stopped | Fill::Failed => return,
        }
        // Magic and length bound are checked before the payload buffer is
        // allocated, so a hostile length prefix cannot balloon memory.
        if &header[0..4] != MAGIC {
            send_nack(
                &mut stream,
                shared,
                0,
                NackCode::BadMagic,
                "not an SQNP frame".into(),
            );
            return;
        }
        let payload_len = match header_payload_len(&header) {
            Ok(n) => n,
            Err(e) => {
                send_nack(&mut stream, shared, 0, e.nack_code(), e.to_string());
                return;
            }
        };
        let mut rest = vec![0u8; payload_len + CRC_LEN];
        match fill(&mut stream, &mut rest, shared, handshake_deadline) {
            Fill::Done => {}
            Fill::Idle => {
                shared
                    .metrics
                    .connections_evicted_idle
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
            Fill::Expired => {
                shared
                    .metrics
                    .handshake_timeouts
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
            Fill::Eof | Fill::Stopped | Fill::Failed => return,
        }
        let frame = match decode_frame_owned(&header, rest) {
            Ok(f) => f,
            Err(e) => {
                // Framing errors are fatal (the stream cannot resync);
                // send_nack drops the connection for those codes.
                let stay = send_nack(&mut stream, shared, 0, e.nack_code(), e.to_string());
                if stay {
                    continue;
                }
                return;
            }
        };
        shared.metrics.frames_rx.fetch_add(1, Ordering::Relaxed);
        let session = frame.session;
        let msg = match Message::decode(&frame) {
            Ok(m) => m,
            Err(e) => {
                if send_nack(&mut stream, shared, session, e.nack_code(), e.to_string()) {
                    continue;
                }
                return;
            }
        };
        // The decoded message owns everything it needs; free the raw
        // payload before a sample frame blocks on its shard queue.
        drop(frame);
        match msg {
            Message::Hello { dim, scalar_width } => {
                match handle_hello(shared, session, dim, scalar_width) {
                    Ok((reply, epoch)) => {
                        helloed.insert(session, (dim, epoch));
                        if let Some(rec) = &shared.recorder {
                            rec.on_hello(session, dim);
                        }
                        // Handshake complete: from here the idle window
                        // alone governs the connection's lifetime.
                        handshake_deadline = None;
                        if !send(&mut stream, shared, &reply.encode(session)) {
                            return;
                        }
                    }
                    Err((code, detail)) => {
                        if !send_nack(&mut stream, shared, session, code, detail) {
                            return;
                        }
                    }
                }
            }
            Message::Sample { dim, data } => {
                // Bytes-in-flight admission: the frame's payload counts
                // against the aggregate cap from decode until the reply
                // is on the wire. A frame arriving when nothing is in
                // flight is always admitted (progress guarantee), so the
                // cap sheds load without ever livelocking a lone client.
                let frame_bytes = payload_len as u64;
                let cap = shared.admission.max_bytes_in_flight;
                let prior = shared
                    .bytes_in_flight
                    .fetch_add(frame_bytes, Ordering::Relaxed);
                let over_cap = cap > 0 && prior > 0 && prior + frame_bytes > cap;
                let reply = if over_cap {
                    shared
                        .metrics
                        .admission_rejections
                        .fetch_add(1, Ordering::Relaxed);
                    shared.metrics.busy_replies.fetch_add(1, Ordering::Relaxed);
                    Message::Busy {
                        accepted: 0,
                        queue_depth: 0,
                    }
                } else {
                    match helloed.get(&session) {
                        None => Message::Nack {
                            code: NackCode::NotHello,
                            detail: format!("no HELLO for session {session} on this connection"),
                        },
                        Some(&(hello_dim, _)) if dim != hello_dim || dim == 0 => Message::Nack {
                            code: NackCode::DimMismatch,
                            detail: format!("batch dim {dim} != handshake dim {hello_dim}"),
                        },
                        // The fence: a delayed frame from a connection the
                        // session has since re-HELLOed away from must not
                        // be applied — the new connection is replaying the
                        // unacked tail, so applying here would double-feed.
                        Some(&(_, epoch)) => {
                            if shared.begin_feed(session, epoch) {
                                let r = handle_samples(shared, session, dim as usize, &data);
                                shared.end_feed(session);
                                r
                            } else {
                                Message::Nack {
                                    code: NackCode::Superseded,
                                    detail: format!(
                                        "session {session} re-HELLOed on a newer connection"
                                    ),
                                }
                            }
                        }
                    }
                };
                let mut fatal_nack = false;
                if let Message::Nack { code, .. } = &reply {
                    shared.metrics.nacks_sent.fetch_add(1, Ordering::Relaxed);
                    fatal_nack = code.is_fatal();
                }
                let flags = if matches!(reply, Message::SampleAck { .. })
                    && shared.events_pending(session)
                {
                    crate::proto::FLAG_EVENTS_PENDING
                } else {
                    0
                };
                let sent = send(&mut stream, shared, &reply.encode_flagged(session, flags));
                shared
                    .bytes_in_flight
                    .fetch_sub(frame_bytes, Ordering::Relaxed);
                if fatal_nack {
                    shared
                        .metrics
                        .connections_dropped_protocol
                        .fetch_add(1, Ordering::Relaxed);
                    return;
                }
                if !sent {
                    return;
                }
            }
            Message::Ping => {
                if !send(&mut stream, shared, &Message::Pong.encode(session)) {
                    return;
                }
            }
            Message::Drain => {
                shared.pump_events();
                let events = shared.take_events(session);
                if !send(
                    &mut stream,
                    shared,
                    &Message::DrainAck { events }.encode(session),
                ) {
                    return;
                }
            }
            Message::Snapshot => {
                let reply = match shared.fleet.snapshot(SessionId(session)) {
                    Ok(blob) if blob.len() as u32 > crate::proto::MAX_PAYLOAD - 64 => {
                        Message::Nack {
                            code: NackCode::Internal,
                            detail: "snapshot exceeds frame limit".into(),
                        }
                    }
                    Ok(blob) => Message::SnapshotAck { blob },
                    Err(e) => Message::Nack {
                        code: fleet_nack_code(&e),
                        detail: e.to_string(),
                    },
                };
                if matches!(reply, Message::Nack { .. }) {
                    shared.metrics.nacks_sent.fetch_add(1, Ordering::Relaxed);
                }
                if !send(&mut stream, shared, &reply.encode(session)) {
                    return;
                }
            }
            Message::Bye => {
                if let Some(rec) = &shared.recorder {
                    rec.on_bye(session);
                    // An orderly goodbye is not a disconnect.
                    helloed.remove(&session);
                }
                return;
            }
            // A client must not send server-side frame types; treat as a
            // semantic error, not corruption.
            Message::HelloAck { .. }
            | Message::SampleAck { .. }
            | Message::Pong
            | Message::DrainAck { .. }
            | Message::SnapshotAck { .. }
            | Message::Busy { .. }
            | Message::Nack { .. } => {
                if !send_nack(
                    &mut stream,
                    shared,
                    session,
                    NackCode::BadPayload,
                    "server-to-client frame type sent by client".into(),
                ) {
                    return;
                }
            }
        }
    }
}

/// HELLO: validate scalar width and dimension, fence the session to this
/// connection, then find or create it. Creation races between
/// connections are benign: the loser's `DuplicateSession` is treated as
/// "already exists". On success returns the reply plus the fence epoch
/// the connection feeds under.
fn handle_hello(
    shared: &Shared,
    session: u64,
    dim: u32,
    scalar_width: u8,
) -> Result<(Message, u64), (NackCode, String)> {
    let width = core::mem::size_of::<Real>() as u8;
    if scalar_width != width {
        return Err((
            NackCode::ScalarWidth,
            format!("server scalars are {width} bytes, client sent {scalar_width}"),
        ));
    }
    if let Some(ref_dim) = shared.ref_dim {
        if dim != ref_dim {
            return Err((
                NackCode::DimMismatch,
                format!("server model dim {ref_dim}, client declared {dim}"),
            ));
        }
    }
    if shared
        .fleet
        .quarantined_sessions()
        .iter()
        .any(|(id, _)| id.0 == session)
    {
        return Err((
            NackCode::Quarantined,
            format!("session {session} is quarantined"),
        ));
    }
    let query_timeout = shared
        .admission
        .handshake_timeout
        .max(Duration::from_secs(1));
    // Fence BEFORE the resume query: any batch an older connection has
    // mid-apply lands first, so the offset reported below reflects every
    // row the server will ever apply from that connection — and the fence
    // epoch guarantees no later frame from it can be applied afterwards.
    let Ok(epoch) = shared.fence_session(session, Instant::now() + query_timeout) else {
        return Err((
            NackCode::Busy,
            format!("session {session} busy mid-batch; retry handshake"),
        ));
    };
    let already_known = {
        let known = match shared.known.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        known.contains(&session)
    };
    if already_known {
        // Report the session's *live* stream offset (rows applied or
        // refused by its input guard), not the bind-time resume offset:
        // the session may have been fed since it was resumed (or created
        // after bind). The query travels the
        // shard FIFO, so every sample a previous connection fed is
        // reflected — a reconnecting device replays exactly the tail the
        // server has not seen, never re-applying samples. The query is
        // deadline-bounded: during a reconnect storm against a stalled
        // shard, an unbounded wait here would pin one handler thread per
        // re-HELLO; a timeout becomes a non-fatal BUSY NACK instead, and
        // the client retries the handshake with backoff.
        match shared
            .fleet
            .samples_processed_within(SessionId(session), query_timeout)
        {
            Ok(resume_from) => {
                shared.metrics.reconnects.fetch_add(1, Ordering::Relaxed);
                shared
                    .metrics
                    .resumed_samples
                    .fetch_add(resume_from, Ordering::Relaxed);
                return Ok((
                    Message::HelloAck {
                        existing: true,
                        resume_from,
                    },
                    epoch,
                ));
            }
            // The engine lost the session (worker died with no usable
            // checkpoint): fall through and re-create from the reference
            // as for a never-seen id, so the device can start over.
            Err(FleetError::UnknownSession(_)) => {}
            Err(FleetError::Timeout { queue_depth, .. }) => {
                return Err((
                    NackCode::Busy,
                    format!("resume offset query timed out (queue depth {queue_depth})"),
                ))
            }
            Err(e) => return Err((fleet_nack_code(&e), e.to_string())),
        }
    }
    let Some(reference) = &shared.reference else {
        return Err((
            NackCode::UnknownSession,
            format!("session {session} unknown and no reference model is loaded"),
        ));
    };
    match shared
        .fleet
        .create_from_bytes(SessionId(session), reference)
    {
        Ok(()) => {
            shared
                .metrics
                .sessions_created
                .fetch_add(1, Ordering::Relaxed);
        }
        Err(FleetError::DuplicateSession(_)) => {} // raced another conn
        Err(e) => return Err((fleet_nack_code(&e), e.to_string())),
    }
    match shared.known.write() {
        Ok(mut g) => {
            g.insert(session);
        }
        Err(poisoned) => {
            poisoned.into_inner().insert(session);
        }
    }
    Ok((
        Message::HelloAck {
            existing: false,
            resume_from: 0,
        },
        epoch,
    ))
}

/// Feeds a batch through the blocking path as one frame: one registry
/// read and one shard hand-off per frame, not per row. A
/// timeout under backpressure becomes a `Busy` reply carrying the partial
/// progress and the stalled queue's depth; other fleet errors become
/// typed NACKs. Every exit records its accepted prefix with the ingest
/// recorder (when one is attached), so a recorded bundle holds exactly
/// the rows the fleet applied — partial batches included.
fn handle_samples(shared: &Shared, session: u64, dim: usize, data: &[Real]) -> Message {
    if dim == 0 || !data.len().is_multiple_of(dim) {
        return Message::Nack {
            code: NackCode::BadPayload,
            detail: "sample data not a whole number of rows".into(),
        };
    }
    let (accepted, result) = shared.fleet.feed_frame(SessionId(session), dim, data);
    let accepted = accepted as u32;
    shared
        .metrics
        .samples_accepted
        .fetch_add(u64::from(accepted), Ordering::Relaxed);
    if let Some(rec) = &shared.recorder {
        rec.on_rows(session, dim, data, accepted as usize);
    }
    match result {
        Ok(()) => {
            shared.pump_events();
            Message::SampleAck {
                accepted,
                events: shared.take_events(session),
            }
        }
        Err(FleetError::Timeout { queue_depth, .. }) => {
            shared.metrics.busy_replies.fetch_add(1, Ordering::Relaxed);
            Message::Busy {
                accepted,
                queue_depth: queue_depth as u32,
            }
        }
        Err(e) => Message::Nack {
            code: fleet_nack_code(&e),
            detail: e.to_string(),
        },
    }
}

/// Maps fleet-side failures onto protocol NACK codes.
fn fleet_nack_code(e: &FleetError) -> NackCode {
    match e {
        FleetError::UnknownSession(_) => NackCode::UnknownSession,
        FleetError::SessionQuarantined(_) => NackCode::Quarantined,
        _ => NackCode::Internal,
    }
}
