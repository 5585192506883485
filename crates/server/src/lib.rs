#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(missing_docs)]

//! # seqdrift-server
//!
//! The network ingest layer: a zero-external-dependency TCP server that
//! multiplexes many device connections into one
//! [`seqdrift_fleet::FleetEngine`], plus the matching protocol client.
//!
//! The paper's detector runs per device, but a deployed fleet needs a
//! channel between the devices and the aggregating host. This crate
//! provides that channel over plain `std::net`:
//!
//! * [`proto`] — the versioned, length-prefixed, CRC-sealed `SQNP` frame
//!   format (HELLO handshake, SAMPLE batches, event push-backs,
//!   PING/DRAIN/SNAPSHOT, typed NACKs). Every decode path bounds its
//!   allocations against the bytes actually present, mirroring the
//!   checkpoint hardening.
//! * [`Server`] — accept loop + one reader thread per connection, feeding
//!   each frame through `feed_frame` so fleet backpressure surfaces to clients as `Busy`
//!   replies naming the stalled queue's depth. Idle connections are
//!   evicted; a graceful drain flushes every session's final state to the
//!   durable store.
//! * [`Client`] — the device side: connect, handshake, drain events,
//!   snapshot state, and the one send loop that turns rows into frames
//!   (frame-bounded batches, `Busy` absorbed with a jittered backoff,
//!   one latency per batch).
//!
//! The protocol is strictly request/response per connection, so one
//! hostile or stalled connection can never corrupt another's stream —
//! the blast radius of any single client is exactly itself.
//!
//! Live ingest can be captured for replay: [`recorder`] taps every
//! accepted sample row (plus hello/bye/disconnect events and timing) into
//! a `seqdrift-scenario` recording, and the drain path writes it out as a
//! replayable `.sqsc` bundle — any incident becomes a regression test.
//!
//! Robustness is proven, not assumed: [`chaos`] ships a deterministic
//! in-process fault-injection proxy (resets, short writes, slow-loris
//! stalls, jitter, blackholes — all replayable from one seed), and
//! [`reconnect`] the client-side recovery state machine (decorrelated-
//! jitter backoff, re-HELLO with live resume offsets, idempotent tail
//! replay) that wraps the same send loop and that the chaos suites drive
//! to exactly-once delivery. Every `seqdrift load` device runs it.

pub mod chaos;
pub mod client;
pub mod metrics;
pub mod proto;
pub mod reconnect;
pub mod recorder;
mod server;

pub use chaos::{ChaosConfig, ChaosEvent, ChaosProxy, ConnPlan, Direction, FaultKind};
pub use client::{BatchReply, Client, ClientError, HelloReply, StreamReport};
pub use metrics::{ServerMetrics, ServerMetricsSnapshot};
pub use proto::{FrameType, Message, NackCode, ProtoError};
pub use reconnect::{ReconnectPolicy, ResilientClient};
pub use recorder::ScenarioRecorder;
pub use server::{AdmissionConfig, Server, ServerConfig, ServerError, ServerReport};
