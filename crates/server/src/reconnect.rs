//! The device-side reconnect state machine: wraps [`Client`]'s send loop
//! with automatic recovery so a sample stream survives resets, blackholes,
//! server restarts, and admission pushback — delivering every row
//! **exactly once** from the fleet's point of view. Reconnecting is all it
//! adds: batching, BUSY resends and batch timing are the send loop's, the
//! same on every connection.
//!
//! The invariant that makes this safe is the server's live resume
//! offset: every HELLO is acknowledged with the session's authoritative
//! `samples_processed`. After any connection loss the client re-HELLOs
//! and restarts the stream from that offset, which handles both failure
//! shapes of an in-flight batch:
//!
//! * **sent-but-unapplied** — the cut landed before the server fed the
//!   rows; the offset has not moved, so the rows are resent (replayed);
//! * **acked-but-unseen** — the server applied the rows but the ACK died
//!   on the wire; the offset *has* moved, so the client skips forward
//!   and the rows are never double-applied.
//!
//! Reconnect attempts back off with **decorrelated jitter**
//! (`delay = min(cap, uniform(base, prev * 3))`), seeded from the policy
//! seed and the session so a fleet of clients never stampedes the
//! listener in lockstep after a shared outage, and capped by
//! [`ReconnectPolicy::max_attempts`] consecutive failures before
//! [`ClientError::ReconnectExhausted`].

use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

use seqdrift_fleet::Backoff;
use seqdrift_linalg::rng::splitmix64;
use seqdrift_linalg::Real;

use crate::client::{Client, ClientError, Cursor, StreamReport};
use crate::proto::NackCode;

/// Knobs for the reconnect loop. The seed makes every backoff sequence
/// deterministic for a given `(seed, session)` — two clients jitter
/// apart, one client replays identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconnectPolicy {
    /// Consecutive failed connection attempts tolerated before giving
    /// up with [`ClientError::ReconnectExhausted`]. A successful
    /// exchange resets the count.
    pub max_attempts: u32,
    /// Backoff floor: the first retry waits at least this long.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Seed for the decorrelated jitter draws, mixed with the session.
    pub seed: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            max_attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(2),
            seed: 0x5EED,
        }
    }
}

/// A [`Client`] wrapped in the reconnect state machine. All streaming
/// goes through [`ResilientClient::run_stream`], which owns the resume
/// bookkeeping; direct protocol access is deliberately not exposed so
/// the exactly-once invariant cannot be bypassed by accident.
#[derive(Debug)]
pub struct ResilientClient {
    addr: SocketAddr,
    session: u64,
    dim: u32,
    policy: ReconnectPolicy,
    backoff: Backoff,
    inner: Option<Client>,
    /// Where this session's stream stands; outlives every connection, and
    /// every HELLO resets its acked count to the server's offset.
    cursor: Cursor,
    /// True once the first successful HELLO has completed (so later
    /// successes count as reconnects).
    connected_once: bool,
    /// Read timeout applied to every (re)connection. Shrink it in chaos
    /// runs so blackholes surface quickly.
    pub read_timeout: Option<Duration>,
    /// Zero-progress BUSY budget, mirroring [`Client::busy_stall_timeout`].
    pub busy_stall_timeout: Duration,
    /// Total reconnects over the client's lifetime.
    pub total_reconnects: u64,
}

impl ResilientClient {
    /// Creates the wrapper without touching the network; the first
    /// [`ResilientClient::run_stream`] (or [`ResilientClient::hello`])
    /// connects. `addr` must resolve now so later reconnects cannot fail
    /// on name resolution.
    pub fn new(
        addr: impl ToSocketAddrs,
        session: u64,
        dim: u32,
        policy: ReconnectPolicy,
    ) -> Result<ResilientClient, ClientError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Io(std::io::Error::other("address resolved to nothing")))?;
        let seed = splitmix64(policy.seed ^ splitmix64(session));
        let backoff = Backoff::new(policy.base, policy.cap, seed);
        Ok(ResilientClient {
            addr,
            session,
            dim,
            policy,
            backoff,
            inner: None,
            cursor: Cursor::default(),
            connected_once: false,
            read_timeout: Some(Duration::from_secs(30)),
            busy_stall_timeout: Duration::from_secs(30),
            total_reconnects: 0,
        })
    }

    /// The session this client speaks for.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Rows the server has acknowledged for this session.
    pub fn acked_rows(&self) -> u64 {
        self.cursor.acked
    }

    /// Forces the handshake now (connecting if needed) and returns the
    /// server's live resume offset.
    pub fn hello(&mut self) -> Result<u64, ClientError> {
        self.ensure_connected(&mut StreamReport::default())?;
        Ok(self.cursor.acked)
    }

    /// Streams `rows` (concatenated `dim`-wide rows) to completion in
    /// batches of `batch_rows` through [`Client`]'s send loop, surviving
    /// any number of connection losses within the policy's budget: on a
    /// recoverable error it reconnects, adopts the HELLO's resume offset
    /// and runs the loop again. The stream is addressed absolutely: row
    /// `i` of `rows` is row `i` of the session, so a resume offset from
    /// *any* HELLO maps directly onto it and rows already applied in
    /// earlier calls or connections are skipped, not re-fed.
    pub fn run_stream(
        &mut self,
        rows: &[Real],
        batch_rows: usize,
    ) -> Result<StreamReport, ClientError> {
        let mut report = StreamReport::default();
        self.ensure_connected(&mut report)?;
        self.cursor.begin_call();
        loop {
            self.ensure_connected(&mut report)?;
            let Some(client) = self.inner.as_mut() else {
                continue;
            };
            let acked = self.cursor.acked;
            match client.stream(rows, batch_rows, &mut self.cursor, &mut report) {
                Ok(()) => return Ok(report),
                Err(e) if self.recoverable(&e) => {
                    // Connection is gone (or the server shed us):
                    // reconnect and let the resume offset say where the
                    // stream really stands. A connection that made
                    // progress starts the backoff over.
                    if self.cursor.acked > acked {
                        self.backoff.reset();
                    }
                    self.inner = None;
                    std::thread::sleep(self.backoff.next_delay());
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Fetches the session's checkpoint blob, reconnecting if the
    /// connection died since the last exchange.
    pub fn snapshot(&mut self) -> Result<Vec<u8>, ClientError> {
        let mut report = StreamReport::default();
        let mut attempts: u32 = 0;
        loop {
            self.ensure_connected(&mut report)?;
            let outcome = match self.inner.as_mut() {
                Some(client) => client.snapshot(),
                None => continue,
            };
            match outcome {
                Ok(blob) => return Ok(blob),
                Err(e) if self.recoverable(&e) && attempts < self.policy.max_attempts => {
                    attempts += 1;
                    self.inner = None;
                    std::thread::sleep(self.backoff.next_delay());
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Orderly goodbye; consumes the client. A dead connection is fine —
    /// the point of BYE is courtesy, not correctness.
    pub fn bye(mut self) -> Result<(), ClientError> {
        match self.inner.take() {
            Some(client) => client.bye(),
            None => Ok(()),
        }
    }

    /// Whether an error is worth a reconnect: transport failures,
    /// garbled replies (the proxy may cut a frame in half), transient
    /// admission pushback. Semantic rejections (bad dimension, quarantine,
    /// protocol violations the *server* attributes to us) are not.
    fn recoverable(&self, e: &ClientError) -> bool {
        match e {
            ClientError::Io(_) | ClientError::Proto(_) | ClientError::Unexpected(_) => true,
            ClientError::Nack { code, .. } => {
                matches!(code, NackCode::Busy | NackCode::AdmissionLimit)
            }
            _ => false,
        }
    }

    /// Connects + re-HELLOs until healthy or the attempt budget is
    /// spent. On success, adopts the server's resume offset as the
    /// authoritative acked-row count.
    fn ensure_connected(&mut self, report: &mut StreamReport) -> Result<(), ClientError> {
        if self.inner.is_some() {
            return Ok(());
        }
        let mut attempts: u32 = 0;
        loop {
            match Client::connect(self.addr, self.session, self.dim) {
                Ok((mut client, hello)) => {
                    client.set_read_timeout(self.read_timeout)?;
                    client.busy_stall_timeout = self.busy_stall_timeout;
                    if self.connected_once {
                        report.reconnects += 1;
                        self.total_reconnects += 1;
                    }
                    self.connected_once = true;
                    // The server's offset is the truth. Rows sent past it
                    // on the lost connection are resent. Ahead of our
                    // belief means ACKs died on the wire after the rows
                    // were applied — skip forward, never double-apply.
                    let resume = hello.resume_from;
                    report.replayed_rows += self.cursor.sent.saturating_sub(resume);
                    report.recovered_rows += resume.saturating_sub(self.cursor.acked);
                    self.cursor.acked = resume;
                    self.cursor.sent = resume;
                    self.inner = Some(client);
                    return Ok(());
                }
                Err(e) => {
                    attempts += 1;
                    if attempts >= self.policy.max_attempts {
                        return Err(ClientError::ReconnectExhausted {
                            attempts,
                            last: Box::new(e),
                        });
                    }
                    if !self.recoverable(&e) {
                        return Err(e);
                    }
                    std::thread::sleep(self.backoff.next_delay());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_per_seed_and_bounded() {
        let policy = ReconnectPolicy {
            seed: 99,
            ..ReconnectPolicy::default()
        };
        let seq = |p: &ReconnectPolicy| {
            let mut b = Backoff::new(p.base, p.cap, p.seed);
            (0..32).map(|_| b.next_delay()).collect::<Vec<_>>()
        };
        let a = seq(&policy);
        let b = seq(&policy);
        assert_eq!(a, b, "same seed must replay the same delays");
        for d in &a {
            assert!(*d >= policy.base && *d <= policy.cap, "{d:?} out of bounds");
        }
        let other = seq(&ReconnectPolicy {
            seed: 100,
            ..policy
        });
        assert_ne!(a, other, "different seeds must jitter apart");
    }

    #[test]
    fn backoff_reset_returns_to_the_floor() {
        let policy = ReconnectPolicy::default();
        let mut b = Backoff::new(policy.base, policy.cap, policy.seed);
        for _ in 0..16 {
            let _ = b.next_delay();
        }
        b.reset();
        // After reset the next draw is from [base, base*3].
        let d = b.next_delay();
        assert!(d <= policy.base * 3, "{d:?} should be near the floor");
    }

    #[test]
    fn exhaustion_surfaces_the_terminal_error() {
        // Nothing listens on a reserved port of the discard block.
        let policy = ReconnectPolicy {
            max_attempts: 3,
            base: Duration::from_micros(100),
            cap: Duration::from_millis(1),
            seed: 7,
        };
        let mut rc =
            ResilientClient::new("127.0.0.1:9", 1, 4, policy).expect("loopback addr resolves");
        match rc.run_stream(&[0.0; 8], 2) {
            Err(ClientError::ReconnectExhausted { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }
}
