//! The device-side protocol client: one TCP connection speaking `SQNP`
//! for one session. Used by `seqdrift load` (through
//! [`crate::ResilientClient`]), the loopback tests, and any embedded
//! caller that wants to stream samples to a fleet host.
//!
//! One loop turns a device's rows into `Sample` frames: it cuts them into
//! batches no larger than a frame, resends the unapplied suffix of a batch
//! after each BUSY reply, and times every batch from its first send to the
//! ACK that completes it. [`Client::send_all`] runs it on one connection;
//! [`crate::ResilientClient::run_stream`] runs it again on every
//! reconnection.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use seqdrift_fleet::Backoff;
use seqdrift_linalg::rng::splitmix64;
use seqdrift_linalg::Real;

use crate::proto::{read_frame, Message, NackCode, ProtoError};

/// Errors raised on the client side of a connection.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (includes the server closing mid-exchange).
    Io(std::io::Error),
    /// The reply did not decode as a valid frame.
    Proto(ProtoError),
    /// The server rejected the request with a typed NACK.
    Nack {
        /// Why.
        code: NackCode,
        /// Server-provided detail.
        detail: String,
    },
    /// The server replied with a frame type the request cannot produce.
    Unexpected(&'static str),
    /// The batch would not fit in one `Sample` frame ([`Client::send_batch`]
    /// never sends it — the server would reject the frame as hostile and
    /// drop the connection). The send loop behind [`Client::send_all`] and
    /// [`crate::ResilientClient::run_stream`] splits batches at the frame
    /// bound and never raises this.
    Oversized {
        /// Rows in the rejected batch.
        rows: usize,
        /// Most rows one frame can carry at this client's dimension.
        max_rows: usize,
    },
    /// The send loop saw only zero-progress BUSY replies for the whole
    /// stall deadline: the target shard is not draining. Raised the same
    /// way by [`Client::send_all`] and
    /// [`crate::ResilientClient::run_stream`].
    Stalled {
        /// Rows the server applied during the call that stalled, so the
        /// caller can resume after them.
        rows_sent: usize,
        /// Depth of the stalled shard queue in the last BUSY reply.
        queue_depth: u32,
    },
    /// [`crate::ResilientClient`] exhausted its reconnect budget without
    /// reaching a healthy connection. Carries the terminal failure.
    ReconnectExhausted {
        /// Consecutive failed connection attempts.
        attempts: u32,
        /// The error from the final attempt.
        last: Box<ClientError>,
    },
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Nack { code, detail } => write!(f, "server rejected: {code} ({detail})"),
            ClientError::Unexpected(what) => write!(f, "unexpected reply: {what}"),
            ClientError::Oversized { rows, max_rows } => write!(
                f,
                "batch of {rows} rows exceeds the {max_rows}-row frame limit \
                 (use send_all to split)"
            ),
            ClientError::Stalled {
                rows_sent,
                queue_depth,
            } => write!(
                f,
                "server stayed BUSY past the stall deadline with no progress \
                 ({rows_sent} row(s) applied, stalled queue depth {queue_depth})"
            ),
            ClientError::ReconnectExhausted { attempts, last } => write!(
                f,
                "gave up after {attempts} consecutive failed reconnect attempt(s): {last}"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Io(io) => ClientError::Io(io),
            other => ClientError::Proto(other),
        }
    }
}

/// What the server said in the HELLO acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloReply {
    /// The session already existed (resumed from the durable store or
    /// created by an earlier connection).
    pub existing: bool,
    /// The session's live stream offset at the handshake (0 for a fresh
    /// session): the rows it applied or its input guard refused. Replay
    /// the stream from this offset after any reconnect — everything
    /// before it is already consumed server-side.
    pub resume_from: u64,
}

/// Outcome of one `Sample` frame exchange.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchReply {
    /// The whole batch was applied.
    Ack {
        /// Rows applied.
        accepted: u32,
        /// Drift/fault events pushed back for this session.
        events: Vec<String>,
        /// More events are queued server-side (`drain` to fetch).
        events_pending: bool,
    },
    /// Backpressure: only a prefix was applied; retry the rest.
    Busy {
        /// Rows applied before the stall.
        accepted: u32,
        /// Depth of the stalled shard queue.
        queue_depth: u32,
    },
}

/// What one stream did. The send loop fills the latencies, events and
/// BUSY count; [`crate::ResilientClient`] adds the reconnect counts.
#[derive(Debug, Default, Clone)]
pub struct StreamReport {
    /// One latency per batch, µs: from the batch's first send to the ACK
    /// that completes it, BUSY waits and reconnects inside it included.
    pub latencies_us: Vec<u64>,
    /// Drift/fault events the server pushed back.
    pub events: Vec<String>,
    /// Connections re-established mid-stream.
    pub reconnects: u64,
    /// Rows resent after a connection loss: sent on a connection that
    /// died before the server applied them.
    pub replayed_rows: u64,
    /// Rows the resume offset proved already applied, skipped without
    /// retransmission (acked-but-unseen).
    pub recovered_rows: u64,
    /// BUSY backpressure replies absorbed.
    pub busy_retries: u64,
}

/// Where a stream stands. [`Client::send_all`] keeps one for its call;
/// [`crate::ResilientClient`] keeps one across its connections, so a
/// batch cut by a reconnect resumes, and is timed, as the same batch.
#[derive(Debug, Default)]
pub(crate) struct Cursor {
    /// Rows of the stream the server has applied: the next row to send.
    pub(crate) acked: u64,
    /// `acked` when the caller's call began; [`ClientError::Stalled`]
    /// reports the rows applied since.
    call_start: u64,
    /// Highest row handed to `send_batch` on the current connection.
    pub(crate) sent: u64,
    /// The batch in flight: its rows and its first send.
    batch: Option<(std::ops::Range<u64>, Instant)>,
}

impl Cursor {
    /// Starts a caller's call at the current offset, no batch in flight.
    pub(crate) fn begin_call(&mut self) {
        self.call_start = self.acked;
        self.batch = None;
    }
}

/// Floor of the wait before a BUSY resend.
const BUSY_BASE: Duration = Duration::from_micros(50);
/// Ceiling of the wait before a BUSY resend.
const BUSY_CAP: Duration = Duration::from_millis(2);

/// A connected, HELLOed protocol client for one session.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    session: u64,
    dim: u32,
    /// Cumulative BUSY replies absorbed by this connection's send loop.
    pub busy_retries: u64,
    /// How long the send loop keeps retrying BUSY replies that make
    /// *zero* progress before giving up with [`ClientError::Stalled`].
    /// Any progress resets the clock, so a slow-but-draining server is
    /// never abandoned. Default 30 s.
    pub busy_stall_timeout: Duration,
    /// PING when this long has passed since the last exchange (see
    /// [`Client::keepalive_tick`]). `None` (the default) disables
    /// keepalives.
    keepalive_interval: Option<Duration>,
    /// When the last request/response turn completed.
    last_exchange: std::time::Instant,
}

impl Client {
    /// Connects and performs the HELLO handshake for `session` with the
    /// given feature dimension.
    pub fn connect(
        addr: impl ToSocketAddrs,
        session: u64,
        dim: u32,
    ) -> Result<(Client, HelloReply), ClientError> {
        let stream = TcpStream::connect(addr)?;
        // A generous timeout so a hung server surfaces as an error
        // instead of a deadlock; normal replies arrive in microseconds.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        let mut client = Client {
            stream,
            session,
            dim,
            busy_retries: 0,
            busy_stall_timeout: Duration::from_secs(30),
            keepalive_interval: None,
            last_exchange: std::time::Instant::now(),
        };
        let reply = client.exchange(&Message::Hello {
            dim,
            scalar_width: core::mem::size_of::<Real>() as u8,
        })?;
        match reply.0 {
            Message::HelloAck {
                existing,
                resume_from,
            } => Ok((
                client,
                HelloReply {
                    existing,
                    resume_from,
                },
            )),
            other => Err(unexpected(other)),
        }
    }

    /// The session this client speaks for.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Caps how long a read blocks waiting for a reply (default 30 s).
    /// Chaos/reconnect callers shrink this so a blackholed link surfaces
    /// as a timed-out [`ClientError::Io`] instead of a long hang.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Arms the application-level keepalive: [`Client::keepalive_tick`]
    /// PINGs whenever `interval` has passed since the last exchange.
    /// Devices with bursty send gaps set this to half the server's idle
    /// eviction timeout so a quiet-but-healthy connection is never
    /// evicted as dead.
    pub fn set_keepalive_interval(&mut self, interval: Option<Duration>) {
        self.keepalive_interval = interval;
    }

    /// PINGs if the keepalive interval has elapsed since the last
    /// exchange; a no-op otherwise (and always a no-op when no interval
    /// is armed). Call this from the device's idle loop during send
    /// gaps. Returns `true` when a PING was actually sent.
    pub fn keepalive_tick(&mut self) -> Result<bool, ClientError> {
        match self.keepalive_interval {
            Some(interval) if self.last_exchange.elapsed() >= interval => {
                self.ping()?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Most rows one `Sample` frame can carry at this client's dimension.
    /// Larger batches must go through [`Client::send_all`], which splits.
    pub fn max_rows_per_frame(&self) -> usize {
        crate::proto::max_sample_rows(self.dim)
    }

    /// Sends one batch (rows concatenated, `rows.len() % dim == 0`) and
    /// returns the server's verdict without retrying on BUSY. A batch too
    /// large for one frame is rejected client-side with
    /// [`ClientError::Oversized`] before any bytes hit the wire — the
    /// server would NACK the oversized length prefix as hostile and drop
    /// the connection.
    pub fn send_batch(&mut self, rows: &[Real]) -> Result<BatchReply, ClientError> {
        let max_rows = self.max_rows_per_frame();
        let batch_rows = rows.len() / (self.dim.max(1) as usize);
        if batch_rows > max_rows {
            return Err(ClientError::Oversized {
                rows: batch_rows,
                max_rows,
            });
        }
        let frame = crate::proto::encode_sample(self.session, self.dim, rows);
        let (reply, flags) = self.exchange_frame(&frame)?;
        match reply {
            Message::SampleAck { accepted, events } => Ok(BatchReply::Ack {
                accepted,
                events,
                events_pending: flags & crate::proto::FLAG_EVENTS_PENDING != 0,
            }),
            Message::Busy {
                accepted,
                queue_depth,
            } => Ok(BatchReply::Busy {
                accepted,
                queue_depth,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// Sends a batch of any size to completion on this connection: the
    /// send loop with frame-sized batches (see
    /// [`Client::max_rows_per_frame`]). Gives up with
    /// [`ClientError::Stalled`] — carrying the rows already applied — once
    /// BUSY replies make zero progress for [`Client::busy_stall_timeout`].
    /// Returns every event pushed back along the way.
    pub fn send_all(&mut self, rows: &[Real]) -> Result<Vec<String>, ClientError> {
        let mut report = StreamReport::default();
        let batch_rows = self.max_rows_per_frame();
        self.stream(rows, batch_rows, &mut Cursor::default(), &mut report)?;
        Ok(report.events)
    }

    /// The send loop: streams `rows` from `cursor.acked` on in batches of
    /// `batch_rows`, capped at the frame bound. A BUSY reply resends the
    /// batch's unapplied suffix after a decorrelated-jitter wait between
    /// 50 µs and 2 ms; BUSY replies that make zero progress for
    /// [`Client::busy_stall_timeout`] end it with [`ClientError::Stalled`].
    /// Any other error ends it with `cursor` at the last acknowledged row.
    pub(crate) fn stream(
        &mut self,
        rows: &[Real],
        batch_rows: usize,
        cursor: &mut Cursor,
        report: &mut StreamReport,
    ) -> Result<(), ClientError> {
        let dim = (self.dim as usize).max(1);
        let total = (rows.len() / dim) as u64;
        let batch_rows = batch_rows.clamp(1, self.max_rows_per_frame().max(1)) as u64;
        let mut busy = Backoff::new(BUSY_BASE, BUSY_CAP, splitmix64(self.session));
        let mut last_progress = Instant::now();
        while cursor.acked < total {
            // A batch cut by a reconnect resumes from the new offset.
            let (span, first_sent) = match cursor.batch.take() {
                Some((span, t)) if span.contains(&cursor.acked) => (span, t),
                _ => {
                    let end = (cursor.acked + batch_rows).min(total);
                    (cursor.acked..end, Instant::now())
                }
            };
            let end = span.end;
            cursor.batch = Some((span, first_sent));
            cursor.sent = cursor.sent.max(end);
            let (accepted, busy_depth) =
                match self.send_batch(&rows[cursor.acked as usize * dim..end as usize * dim])? {
                    BatchReply::Ack {
                        accepted, events, ..
                    } => {
                        report.events.extend(events);
                        (accepted, None)
                    }
                    BatchReply::Busy {
                        accepted,
                        queue_depth,
                    } => (accepted, Some(queue_depth)),
                };
            cursor.acked += accepted as u64;
            if accepted > 0 {
                last_progress = Instant::now();
            }
            if cursor.acked >= end {
                report
                    .latencies_us
                    .push(first_sent.elapsed().as_micros() as u64);
                cursor.batch = None;
                busy.reset();
            }
            if let Some(queue_depth) = busy_depth {
                self.busy_retries += 1;
                report.busy_retries += 1;
                if accepted == 0 && last_progress.elapsed() >= self.busy_stall_timeout {
                    return Err(ClientError::Stalled {
                        rows_sent: cursor.acked.saturating_sub(cursor.call_start) as usize,
                        queue_depth,
                    });
                }
                std::thread::sleep(busy.next_delay());
            }
        }
        Ok(())
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.exchange(&Message::Ping)?.0 {
            Message::Pong => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the session's queued drift/fault events.
    pub fn drain(&mut self) -> Result<Vec<String>, ClientError> {
        match self.exchange(&Message::Drain)?.0 {
            Message::DrainAck { events } => Ok(events),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the session's checkpoint blob: its whole pipeline state,
    /// mid-reconstruction included, with every sample acknowledged before
    /// this call reflected.
    pub fn snapshot(&mut self) -> Result<Vec<u8>, ClientError> {
        match self.exchange(&Message::Snapshot)?.0 {
            Message::SnapshotAck { blob } => Ok(blob),
            other => Err(unexpected(other)),
        }
    }

    /// Orderly goodbye; consumes the client.
    pub fn bye(mut self) -> Result<(), ClientError> {
        self.write(&Message::Bye.encode(self.session))
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        use std::io::Write;
        self.stream.write_all(bytes)?;
        Ok(())
    }

    /// One request/response turn. NACK replies become [`ClientError::Nack`].
    fn exchange(&mut self, msg: &Message) -> Result<(Message, u8), ClientError> {
        self.exchange_frame(&msg.encode(self.session))
    }

    /// [`Client::exchange`] for a request already encoded as a frame.
    fn exchange_frame(&mut self, request: &[u8]) -> Result<(Message, u8), ClientError> {
        self.write(request)?;
        let frame = read_frame(&mut self.stream)?;
        let flags = frame.flags;
        self.last_exchange = std::time::Instant::now();
        match Message::decode(&frame)? {
            Message::Nack { code, detail } => Err(ClientError::Nack { code, detail }),
            reply => Ok((reply, flags)),
        }
    }
}

fn unexpected(msg: Message) -> ClientError {
    ClientError::Unexpected(match msg {
        Message::Hello { .. } => "Hello",
        Message::Sample { .. } => "Sample",
        Message::Ping => "Ping",
        Message::Drain => "Drain",
        Message::Snapshot => "Snapshot",
        Message::Bye => "Bye",
        Message::HelloAck { .. } => "HelloAck",
        Message::SampleAck { .. } => "SampleAck",
        Message::Pong => "Pong",
        Message::DrainAck { .. } => "DrainAck",
        Message::SnapshotAck { .. } => "SnapshotAck",
        Message::Busy { .. } => "Busy",
        Message::Nack { .. } => "Nack",
    })
}
