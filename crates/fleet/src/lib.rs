#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # seqdrift-fleet
//!
//! The concurrent-session layer above [`seqdrift_core::DriftPipeline`]: one
//! gateway-class host multiplexing many independent device streams.
//!
//! The paper's detector is O(1)-memory and strictly sequential per stream —
//! exactly the property that makes it cheap to run *thousands* of streams
//! side by side. A [`FleetEngine`] owns a fixed pool of worker threads
//! ("shards"); every session is pinned to the shard `session_id % workers`
//! and processed in feed order, so per-session behaviour is deterministic
//! regardless of how many workers the host runs.
//!
//! Built strictly on `std` (`std::thread`, and one `Mutex` + `Condvar`
//! inbox per worker): the workspace builds offline with no external
//! crates.
//!
//! ## Contract
//!
//! * **Lifecycle** — [`FleetEngine::create`] installs a calibrated pipeline
//!   (or [`FleetEngine::create_from_bytes`] restores one from the
//!   `seqdrift_core::persist` wire format), [`FleetEngine::feed`] streams
//!   samples, [`FleetEngine::snapshot`] checkpoints a session in whatever
//!   state its pipeline is in, and [`FleetEngine::evict`] hands the live
//!   pipeline back.
//! * **Backpressure** — every shard has a bounded ingress queue.
//!   [`FleetEngine::feed`] never blocks: a full queue returns
//!   [`FeedReply::Busy`] so the caller can degrade gracefully (drop, retry,
//!   shed load) instead of growing memory without bound.
//!   [`FleetEngine::feed_blocking`] (one row) and
//!   [`FleetEngine::feed_frame`] (a batch of rows, one shard hand-off per
//!   frame) retry with exponential backoff but give up with
//!   [`FleetError::Timeout`] after a configurable deadline. The bound is
//!   in rows: a waiting frame is admitted whole once the queue has room
//!   for it, or, once it has waited ~0.13 ms (and from the start when it
//!   is larger than the queue), as whatever prefix fits.
//! * **Fault tolerance** — the session is the one supervision boundary
//!   (the `supervisor` module): a panic anywhere in a worker's handling of
//!   one of its rows or control messages is caught, and the session is
//!   restored from its rolling checkpoint within a bounded restart budget,
//!   or permanently quarantined ([`FeedReply::Quarantined`]) — its
//!   co-sharded neighbours never notice, and the worker thread lives on.
//!   Every recovery path is reproducibly exercisable via the seeded
//!   [`FaultInjector`]. [`FleetEngine::shutdown`] never panics.
//! * **Durability** — with [`FleetConfig::state_dir`] set, a single
//!   flusher thread writes each session's newest rolling checkpoint and
//!   its stream offset, in one frame, to a crash-safe on-disk store
//!   (`seqdrift_store`: CRC-framed generations, atomic fsync'd writes)
//!   behind the workers, which never wait on the disk; quarantine
//!   verdicts persist in a store manifest. A graceful shutdown writes
//!   every session's final state. After a crash or power loss,
//!   [`FleetEngine::resume`] re-homes every surviving session from its
//!   newest valid generation at its stream offset; the worst case is losing
//!   one checkpoint interval plus what the session processed while its
//!   newest checkpoint waited for the flusher — never a model, and never
//!   a quarantine decision.
//! * **Observability** — [`FleetEngine::metrics`] reads lock-free aggregate
//!   counters, each declared once in a [`counter_table!`];
//!   [`FleetEngine::drain_events`] returns the [`FleetEvent`] log
//!   so callers can see *which* device drifted, panicked, or recovered.
//! * **Shutdown** — [`FleetEngine::shutdown`] drains every queue, joins the
//!   workers, and returns each surviving session's final pipeline plus the
//!   quarantined and lost ones.
//!
//! ## Example
//!
//! ```
//! use seqdrift_fleet::{FeedReply, FleetConfig, FleetEngine, SessionId};
//! use seqdrift_core::{DetectorConfig, DriftPipeline};
//! use seqdrift_linalg::{Real, Rng};
//! use seqdrift_oselm::{MultiInstanceModel, OsElmConfig};
//!
//! // Calibrate one pipeline and replicate it across 8 simulated devices.
//! let mut rng = Rng::seed_from(7);
//! let blob: Vec<Vec<Real>> = (0..80).map(|_| {
//!     let mut x = vec![0.0; 4];
//!     rng.fill_normal(&mut x, 0.3, 0.05);
//!     x
//! }).collect();
//! let mut model = MultiInstanceModel::new(1, OsElmConfig::new(4, 3).with_seed(1)).unwrap();
//! model.init_train_class(0, &blob).unwrap();
//! let train: Vec<(usize, &[Real])> = blob.iter().map(|x| (0, x.as_slice())).collect();
//! let pipeline = DriftPipeline::calibrate(
//!     model, DetectorConfig::new(1, 4).with_window(16), &train).unwrap();
//! let bytes = pipeline.to_bytes().unwrap();
//!
//! let fleet = FleetEngine::new(FleetConfig::new(2)).unwrap();
//! for dev in 0..8 {
//!     fleet.create_from_bytes(SessionId(dev), &bytes).unwrap();
//! }
//! let mut x = vec![0.0; 4];
//! rng.fill_normal(&mut x, 0.3, 0.05);
//! assert_eq!(fleet.feed(SessionId(3), &x), FeedReply::Enqueued);
//! let report = fleet.shutdown();
//! assert_eq!(report.sessions.len(), 8);
//! assert_eq!(report.metrics.samples_processed, 1);
//! ```

mod durability;
mod engine;
mod fault;
mod inbox;
mod metrics;
mod supervisor;

pub use durability::{Backoff, DegradedReason, DurabilityHealth};
pub use engine::{
    FederationConfig, FeedReply, FleetConfig, FleetEngine, FleetError, SessionId, ShutdownReport,
};
pub use fault::{Fault, FaultInjector};
pub use metrics::{MetricsSnapshot, RejectReasons};
pub use supervisor::{FleetEvent, LostSession, MergeRejectReason, QuarantineReason, SessionStatus};
// Carried in `FleetError::Store`; re-exported so callers can match on it
// without naming the store crate.
pub use seqdrift_store::StoreError;
// Surfaced by `FleetEngine::recovery_report`; re-exported so callers can
// print it without naming the store crate.
pub use seqdrift_store::RecoveryReport;
// Persisted by `FleetEngine::persist_reputations`; re-exported so the
// federation layer can keep its book without naming the store crate.
pub use seqdrift_store::ReputationEntry;
