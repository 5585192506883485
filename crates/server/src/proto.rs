//! The `SQNP` wire protocol: versioned, length-prefixed, CRC-sealed
//! binary frames carrying device samples to a fleet host over TCP.
//!
//! Every frame is
//!
//! ```text
//! offset  size  field
//!      0     4  magic "SQNP"
//!      4     2  protocol version (u16 LE)
//!      6     1  frame type
//!      7     1  flags
//!      8     8  session id (u64 LE)
//!     16     4  payload length (u32 LE, bounded by MAX_PAYLOAD)
//!     20     n  payload
//!   20+n     4  CRC-32 over header + payload (u32 LE)
//! ```
//!
//! using the same in-repo zlib-compatible CRC-32 as the checkpoint store
//! (`seqdrift_store::crc32`) and the same little-endian fixed-width
//! conventions as `seqdrift_linalg::wire`. The decode discipline mirrors
//! the checkpoint hardening:
//!
//! * the payload length is bounds-checked **before** any allocation, so a
//!   hostile length prefix can never balloon memory;
//! * the CRC is verified **before** the version field is interpreted, so
//!   a bit-flipped version byte reads as corruption ([`ProtoError::BadCrc`]),
//!   not as skew — only a clean frame can raise
//!   [`ProtoError::VersionSkew`];
//! * every variable-length payload field re-checks its length prefix
//!   against the bytes actually remaining before allocating.
//!
//! Framing-level failures (bad magic, bad CRC, version skew, oversized
//! length, unknown frame type) are *fatal* for a connection — a corrupt
//! byte stream cannot be resynchronised — while semantic failures on a
//! well-framed message (unknown session, dimension mismatch, malformed
//! payload) produce a typed [`Message::Nack`] and leave the connection
//! usable. [`NackCode::is_fatal`] encodes the split.

use std::io::Read;

use seqdrift_linalg::wire::{get_reals, put_reals, REAL_BYTES};
use seqdrift_linalg::Real;
use seqdrift_store::crc32::crc32;

/// Frame magic: "SeQdrift Network Protocol".
pub const MAGIC: &[u8; 4] = b"SQNP";
/// Current protocol version.
pub const VERSION: u16 = 1;
/// Fixed header size in bytes (magic + version + type + flags + session +
/// payload length).
pub const HEADER_LEN: usize = 20;
/// CRC trailer size in bytes.
pub const CRC_LEN: usize = 4;
/// Upper bound on a frame payload. Checked before any allocation; frames
/// claiming more are rejected as hostile without reading the payload.
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// Flag bit on `SampleAck`: the session has further events queued beyond
/// the ones attached to this ack (send `Drain` to fetch them).
pub const FLAG_EVENTS_PENDING: u8 = 0b0000_0001;

/// Frame type tags. Client-to-server types have the high bit clear,
/// server-to-client replies have it set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Handshake: declares protocol version (header), session id (header),
    /// feature dimension and scalar width (payload).
    Hello = 0x01,
    /// A batch of samples for the session in the header.
    Sample = 0x02,
    /// Liveness probe.
    Ping = 0x03,
    /// Fetch queued drift/fault events for the session.
    Drain = 0x04,
    /// Fetch the session's checkpoint blob (its whole pipeline state).
    Snapshot = 0x05,
    /// Orderly goodbye; the server closes the connection.
    Bye = 0x06,
    /// Handshake accepted.
    HelloAck = 0x81,
    /// Sample batch applied (fully); carries pushed-back events.
    SampleAck = 0x82,
    /// Liveness reply.
    Pong = 0x83,
    /// Event fetch reply.
    DrainAck = 0x84,
    /// Checkpoint blob reply.
    SnapshotAck = 0x85,
    /// Backpressure: the session's shard queue stayed full past the feed
    /// deadline. Carries how many rows of the batch were accepted before
    /// the stall so the client can retry the remainder.
    Busy = 0x86,
    /// Typed rejection; [`NackCode`] says why and whether the connection
    /// survives.
    Nack = 0x8F,
}

impl FrameType {
    /// Maps a raw tag byte back to a frame type.
    pub fn from_u8(v: u8) -> Option<FrameType> {
        Some(match v {
            0x01 => FrameType::Hello,
            0x02 => FrameType::Sample,
            0x03 => FrameType::Ping,
            0x04 => FrameType::Drain,
            0x05 => FrameType::Snapshot,
            0x06 => FrameType::Bye,
            0x81 => FrameType::HelloAck,
            0x82 => FrameType::SampleAck,
            0x83 => FrameType::Pong,
            0x84 => FrameType::DrainAck,
            0x85 => FrameType::SnapshotAck,
            0x86 => FrameType::Busy,
            0x8F => FrameType::Nack,
            _ => return None,
        })
    }
}

/// Why a frame was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum NackCode {
    /// Frame did not start with the `SQNP` magic.
    BadMagic = 1,
    /// CRC trailer did not match header + payload.
    BadCrc = 2,
    /// Clean frame from a different protocol version.
    VersionSkew = 3,
    /// Payload length field exceeded [`MAX_PAYLOAD`].
    Oversized = 4,
    /// Unknown frame type tag.
    UnknownType = 5,
    /// Well-framed payload whose fields failed validation.
    BadPayload = 6,
    /// A non-`Hello` frame arrived for a session with no handshake on
    /// this connection.
    NotHello = 7,
    /// The session does not exist and the server has no reference model
    /// to create it from.
    UnknownSession = 8,
    /// The session is permanently quarantined.
    Quarantined = 9,
    /// Declared feature dimension does not match the server's model.
    DimMismatch = 10,
    /// Client and server disagree on the scalar width (f32 vs f64 build).
    ScalarWidth = 11,
    /// The server is draining and no longer accepts work.
    Draining = 12,
    /// Internal server error (details in the message).
    Internal = 13,
    /// Transient overload: the server could not serve the request inside
    /// its deadline (e.g. a HELLO resume-offset query stuck behind a
    /// stalled shard queue). Non-fatal — retry with backoff.
    Busy = 14,
    /// Admission control rejected the connection (connection cap or
    /// per-IP accept-rate limit). Fatal for this connection; reconnect
    /// with backoff.
    AdmissionLimit = 15,
    /// A newer connection has HELLOed this session, fencing this one:
    /// late sample frames from the superseded connection are rejected so
    /// a reconnect can never double-apply in-flight rows. Fatal for this
    /// connection — the client that owns the session is elsewhere now.
    Superseded = 16,
}

impl NackCode {
    /// Framing-level corruption is fatal: the byte stream cannot be
    /// resynchronised, so the server drops the connection after the NACK.
    /// Semantic rejections leave the connection usable.
    pub fn is_fatal(self) -> bool {
        matches!(
            self,
            NackCode::BadMagic
                | NackCode::BadCrc
                | NackCode::VersionSkew
                | NackCode::Oversized
                | NackCode::UnknownType
                | NackCode::Draining
                | NackCode::AdmissionLimit
                | NackCode::Superseded
        )
    }

    /// Maps a raw code byte back to a NACK code.
    pub fn from_u8(v: u8) -> Option<NackCode> {
        Some(match v {
            1 => NackCode::BadMagic,
            2 => NackCode::BadCrc,
            3 => NackCode::VersionSkew,
            4 => NackCode::Oversized,
            5 => NackCode::UnknownType,
            6 => NackCode::BadPayload,
            7 => NackCode::NotHello,
            8 => NackCode::UnknownSession,
            9 => NackCode::Quarantined,
            10 => NackCode::DimMismatch,
            11 => NackCode::ScalarWidth,
            12 => NackCode::Draining,
            13 => NackCode::Internal,
            14 => NackCode::Busy,
            15 => NackCode::AdmissionLimit,
            16 => NackCode::Superseded,
            _ => return None,
        })
    }
}

impl core::fmt::Display for NackCode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            NackCode::BadMagic => "bad magic",
            NackCode::BadCrc => "bad crc",
            NackCode::VersionSkew => "version skew",
            NackCode::Oversized => "oversized payload",
            NackCode::UnknownType => "unknown frame type",
            NackCode::BadPayload => "bad payload",
            NackCode::NotHello => "no handshake for session",
            NackCode::UnknownSession => "unknown session",
            NackCode::Quarantined => "session quarantined",
            NackCode::DimMismatch => "dimension mismatch",
            NackCode::ScalarWidth => "scalar width mismatch",
            NackCode::Draining => "server draining",
            NackCode::Internal => "internal error",
            NackCode::Busy => "server busy, retry",
            NackCode::AdmissionLimit => "admission limit",
            NackCode::Superseded => "superseded by newer connection",
        };
        f.write_str(s)
    }
}

/// Errors raised while reading or decoding a frame.
#[derive(Debug)]
pub enum ProtoError {
    /// Transport failure (or EOF mid-frame).
    Io(std::io::Error),
    /// Frame did not start with the `SQNP` magic.
    BadMagic,
    /// Clean frame (CRC valid) from a different protocol version.
    VersionSkew(u16),
    /// Unknown frame type tag on a clean frame.
    UnknownType(u8),
    /// Payload length field exceeded [`MAX_PAYLOAD`]; nothing was
    /// allocated.
    Oversized(u32),
    /// CRC trailer mismatch: the frame was torn or tampered with.
    BadCrc {
        /// CRC computed over the received header + payload.
        expected: u32,
        /// CRC carried in the trailer.
        got: u32,
    },
    /// A well-framed payload whose fields failed validation.
    BadPayload(&'static str),
}

impl ProtoError {
    /// The NACK code a server should answer this decode failure with.
    pub fn nack_code(&self) -> NackCode {
        match self {
            ProtoError::Io(_) => NackCode::Internal,
            ProtoError::BadMagic => NackCode::BadMagic,
            ProtoError::VersionSkew(_) => NackCode::VersionSkew,
            ProtoError::UnknownType(_) => NackCode::UnknownType,
            ProtoError::Oversized(_) => NackCode::Oversized,
            ProtoError::BadCrc { .. } => NackCode::BadCrc,
            ProtoError::BadPayload(_) => NackCode::BadPayload,
        }
    }
}

impl core::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
            ProtoError::BadMagic => write!(f, "not an SQNP frame"),
            ProtoError::VersionSkew(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::UnknownType(t) => write!(f, "unknown frame type {t:#04x}"),
            ProtoError::Oversized(n) => {
                write!(f, "payload length {n} exceeds limit {MAX_PAYLOAD}")
            }
            ProtoError::BadCrc { expected, got } => {
                write!(
                    f,
                    "frame CRC mismatch: computed {expected:#010x}, trailer {got:#010x}"
                )
            }
            ProtoError::BadPayload(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// A validated frame: magic, length bound and CRC have been checked and
/// the version matched, but the payload has not yet been interpreted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    /// Frame type tag (validated against [`FrameType`]).
    pub kind: FrameType,
    /// Flag bits.
    pub flags: u8,
    /// Session id from the header.
    pub session: u64,
    /// Raw payload bytes (≤ [`MAX_PAYLOAD`]).
    pub payload: Vec<u8>,
}

/// Writes one frame into a single buffer: the header, the payload that
/// `write` appends, then the CRC trailer over both, with the header's
/// length field patched in once the payload is written. The buffer starts
/// with room for `payload_hint` payload bytes (exact for the large frames,
/// so they are allocated once). The transport write is one call.
fn frame(
    kind: FrameType,
    flags: u8,
    session: u64,
    payload_hint: usize,
    write: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload_hint + CRC_LEN);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.push(kind as u8);
    buf.push(flags);
    buf.extend_from_slice(&session.to_le_bytes());
    buf.extend_from_slice(&[0; 4]);
    write(&mut buf);
    let len = (buf.len() - HEADER_LEN) as u32;
    buf[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Assembles one frame: header + payload + CRC trailer, as a single
/// buffer so the transport write is one call.
pub fn encode_frame(kind: FrameType, flags: u8, session: u64, payload: &[u8]) -> Vec<u8> {
    frame(kind, flags, session, payload.len(), |b| {
        b.extend_from_slice(payload)
    })
}

/// Encodes a `Sample` frame straight from borrowed rows: the same bytes
/// as `Message::Sample { dim, data: rows.to_vec() }.encode(session)`,
/// without the copy.
pub(crate) fn encode_sample(session: u64, dim: u32, rows: &[Real]) -> Vec<u8> {
    frame(FrameType::Sample, 0, session, sample_len(rows), |b| {
        put_sample(b, dim, rows)
    })
}

/// Starting payload room of a frame whose size is not worked out first.
const SMALL_PAYLOAD: usize = 32;

/// Payload bytes of a `Sample` frame: count, dim, then the scalars.
fn sample_len(data: &[Real]) -> usize {
    8 + data.len() * REAL_BYTES
}

fn put_sample(p: &mut Vec<u8>, dim: u32, data: &[Real]) {
    let count = (data.len() as u32).checked_div(dim).unwrap_or(0);
    p.extend_from_slice(&count.to_le_bytes());
    p.extend_from_slice(&dim.to_le_bytes());
    put_reals(p, data);
}

/// Validates a frame whose header and payload+CRC bytes have already been
/// read off the transport (the server reads the two parts separately so it
/// can bound the payload allocation first). Checks, in order: magic,
/// length bound (done by the caller before reading `rest`), CRC, version,
/// frame type.
pub fn decode_frame(header: &[u8; HEADER_LEN], rest: &[u8]) -> Result<RawFrame, ProtoError> {
    decode_frame_owned(header, rest.to_vec())
}

/// [`decode_frame`] for a caller that owns the payload+CRC buffer: the
/// payload stays in it (the trailer is cut off) instead of being copied.
pub(crate) fn decode_frame_owned(
    header: &[u8; HEADER_LEN],
    mut rest: Vec<u8>,
) -> Result<RawFrame, ProtoError> {
    if &header[0..4] != MAGIC {
        return Err(ProtoError::BadMagic);
    }
    let declared = header_payload_len(header)?;
    if rest.len() != declared + CRC_LEN {
        return Err(ProtoError::BadPayload("payload/CRC length mismatch"));
    }
    let (payload, trailer) = rest.split_at(declared);
    let mut hasher = seqdrift_store::crc32::Crc32::new();
    hasher.update(header);
    hasher.update(payload);
    let expected = hasher.finish();
    let got = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    if expected != got {
        return Err(ProtoError::BadCrc { expected, got });
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(ProtoError::VersionSkew(version));
    }
    let kind = FrameType::from_u8(header[6]).ok_or(ProtoError::UnknownType(header[6]))?;
    let session = u64::from_le_bytes([
        header[8], header[9], header[10], header[11], header[12], header[13], header[14],
        header[15],
    ]);
    rest.truncate(declared);
    Ok(RawFrame {
        kind,
        flags: header[7],
        session,
        payload: rest,
    })
}

/// The most `dim`-wide rows that fit in one `Sample` frame: the payload
/// is an 8-byte count+dim prefix followed by the scalars, and must stay
/// within [`MAX_PAYLOAD`]. Senders must split batches at this bound —
/// the server rejects an oversized length prefix with a fatal NACK.
pub fn max_sample_rows(dim: u32) -> usize {
    if dim == 0 {
        return 0;
    }
    (MAX_PAYLOAD as usize - 8) / (dim as usize * REAL_BYTES)
}

/// Extracts and bounds the payload length from a header. The caller must
/// reject [`ProtoError::Oversized`] *before* allocating a payload buffer.
pub fn header_payload_len(header: &[u8; HEADER_LEN]) -> Result<usize, ProtoError> {
    let n = u32::from_le_bytes([header[16], header[17], header[18], header[19]]);
    if n > MAX_PAYLOAD {
        return Err(ProtoError::Oversized(n));
    }
    Ok(n as usize)
}

/// Reads one complete frame from a blocking transport (client side; the
/// server uses its interruptible fill loop instead). Bounds the payload
/// allocation before reading it.
pub fn read_frame(r: &mut impl Read) -> Result<RawFrame, ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    if &header[0..4] != MAGIC {
        return Err(ProtoError::BadMagic);
    }
    let len = header_payload_len(&header)?;
    let mut rest = vec![0u8; len + CRC_LEN];
    r.read_exact(&mut rest)?;
    decode_frame_owned(&header, rest)
}

/// A typed protocol message, decoupled from the session id in the header.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Handshake: feature dimension and scalar width (`size_of::<Real>()`)
    /// the client will send.
    Hello {
        /// Feature dimension of every sample on this session.
        dim: u32,
        /// Bytes per scalar; catches f32/f64 build mismatches up front.
        scalar_width: u8,
    },
    /// A batch of `data.len() / dim` samples, rows concatenated.
    Sample {
        /// Feature dimension (must match the HELLO).
        dim: u32,
        /// Row-major concatenated samples.
        data: Vec<Real>,
    },
    /// Liveness probe.
    Ping,
    /// Fetch queued events for the session.
    Drain,
    /// Fetch the session's checkpoint blob, whatever state its pipeline
    /// is in.
    Snapshot,
    /// Orderly goodbye.
    Bye,
    /// Handshake accepted.
    HelloAck {
        /// True when the session already existed on the server (resumed
        /// from the durable store or created by an earlier connection).
        existing: bool,
        /// The session's live stream offset at the handshake: rows
        /// applied, guard-refused or lost to a panic restore (0 for a
        /// freshly created session); the client replays its stream from
        /// this offset after any reconnect.
        resume_from: u64,
    },
    /// Batch fully applied.
    SampleAck {
        /// Rows applied (always the full batch for this reply).
        accepted: u32,
        /// Drift/fault events pushed back for this session, rendered as
        /// diagnostic strings.
        events: Vec<String>,
    },
    /// Liveness reply.
    Pong,
    /// Event fetch reply.
    DrainAck {
        /// Queued events for the session (plus engine-wide events).
        events: Vec<String>,
    },
    /// Checkpoint blob reply.
    SnapshotAck {
        /// The session's `seqdrift_core::persist` checkpoint blob.
        blob: Vec<u8>,
    },
    /// Backpressure reply: the shard queue stayed full past the deadline.
    Busy {
        /// Rows of the batch applied before the stall; retry from here.
        accepted: u32,
        /// Depth of the stalled shard queue at the deadline.
        queue_depth: u32,
    },
    /// Typed rejection.
    Nack {
        /// Why.
        code: NackCode,
        /// Human-readable detail.
        detail: String,
    },
}

impl Message {
    /// The frame type this message travels as.
    pub fn frame_type(&self) -> FrameType {
        match self {
            Message::Hello { .. } => FrameType::Hello,
            Message::Sample { .. } => FrameType::Sample,
            Message::Ping => FrameType::Ping,
            Message::Drain => FrameType::Drain,
            Message::Snapshot => FrameType::Snapshot,
            Message::Bye => FrameType::Bye,
            Message::HelloAck { .. } => FrameType::HelloAck,
            Message::SampleAck { .. } => FrameType::SampleAck,
            Message::Pong => FrameType::Pong,
            Message::DrainAck { .. } => FrameType::DrainAck,
            Message::SnapshotAck { .. } => FrameType::SnapshotAck,
            Message::Busy { .. } => FrameType::Busy,
            Message::Nack { .. } => FrameType::Nack,
        }
    }

    /// Encodes the message as a complete frame for `session`.
    pub fn encode(&self, session: u64) -> Vec<u8> {
        self.encode_flagged(session, 0)
    }

    /// Encodes the message as a complete frame with explicit flag bits.
    pub fn encode_flagged(&self, session: u64, flags: u8) -> Vec<u8> {
        let hint = match self {
            Message::Sample { data, .. } => sample_len(data),
            Message::SnapshotAck { blob } => 4 + blob.len(),
            // Every fixed-size payload and an event-free ack fit; an
            // event list or a long detail grows the buffer.
            _ => SMALL_PAYLOAD,
        };
        frame(self.frame_type(), flags, session, hint, |p| {
            self.put_payload(p)
        })
    }

    fn put_payload(&self, p: &mut Vec<u8>) {
        match self {
            Message::Hello { dim, scalar_width } => {
                p.extend_from_slice(&dim.to_le_bytes());
                p.push(*scalar_width);
            }
            Message::Sample { dim, data } => put_sample(p, *dim, data),
            Message::Ping | Message::Drain | Message::Snapshot | Message::Bye | Message::Pong => {}
            Message::HelloAck {
                existing,
                resume_from,
            } => {
                p.push(u8::from(*existing));
                p.extend_from_slice(&resume_from.to_le_bytes());
            }
            Message::SampleAck { accepted, events } => {
                p.extend_from_slice(&accepted.to_le_bytes());
                put_events(p, events);
            }
            Message::DrainAck { events } => put_events(p, events),
            Message::SnapshotAck { blob } => {
                p.extend_from_slice(&(blob.len() as u32).to_le_bytes());
                p.extend_from_slice(blob);
            }
            Message::Busy {
                accepted,
                queue_depth,
            } => {
                p.extend_from_slice(&accepted.to_le_bytes());
                p.extend_from_slice(&queue_depth.to_le_bytes());
            }
            Message::Nack { code, detail } => {
                p.push(*code as u8);
                put_str(p, detail);
            }
        }
    }

    /// Interprets a validated frame's payload. Every length prefix is
    /// checked against the bytes actually remaining before allocation.
    pub fn decode(frame: &RawFrame) -> Result<Message, ProtoError> {
        let mut c = Cursor::new(&frame.payload);
        let msg = match frame.kind {
            FrameType::Hello => {
                let dim = c.u32()?;
                let scalar_width = c.u8()?;
                Message::Hello { dim, scalar_width }
            }
            FrameType::Sample => {
                let count = c.u32()? as usize;
                let dim = c.u32()?;
                let scalars = count
                    .checked_mul(dim as usize)
                    .ok_or(ProtoError::BadPayload("sample count*dim overflows"))?;
                let bytes = scalars
                    .checked_mul(REAL_BYTES)
                    .ok_or(ProtoError::BadPayload("sample byte length overflows"))?;
                if bytes != c.remaining() {
                    return Err(ProtoError::BadPayload("sample data length mismatch"));
                }
                Message::Sample {
                    dim,
                    data: get_reals(c.take(bytes)?),
                }
            }
            FrameType::Ping => Message::Ping,
            FrameType::Drain => Message::Drain,
            FrameType::Snapshot => Message::Snapshot,
            FrameType::Bye => Message::Bye,
            FrameType::HelloAck => {
                let existing = c.u8()? != 0;
                let resume_from = c.u64()?;
                Message::HelloAck {
                    existing,
                    resume_from,
                }
            }
            FrameType::SampleAck => {
                let accepted = c.u32()?;
                let events = decode_events(&mut c)?;
                Message::SampleAck { accepted, events }
            }
            FrameType::Pong => Message::Pong,
            FrameType::DrainAck => Message::DrainAck {
                events: decode_events(&mut c)?,
            },
            FrameType::SnapshotAck => {
                let n = c.u32()? as usize;
                if n != c.remaining() {
                    return Err(ProtoError::BadPayload("snapshot blob length mismatch"));
                }
                Message::SnapshotAck {
                    blob: c.take(n)?.to_vec(),
                }
            }
            FrameType::Busy => {
                let accepted = c.u32()?;
                let queue_depth = c.u32()?;
                Message::Busy {
                    accepted,
                    queue_depth,
                }
            }
            FrameType::Nack => {
                let code = NackCode::from_u8(c.u8()?)
                    .ok_or(ProtoError::BadPayload("unknown nack code"))?;
                let n = c.u16()? as usize;
                let detail = String::from_utf8_lossy(c.take(n)?).into_owned();
                Message::Nack { code, detail }
            }
        };
        if c.remaining() != 0 {
            return Err(ProtoError::BadPayload("trailing payload bytes"));
        }
        Ok(msg)
    }
}

/// Appends a `u16`-length-prefixed string: at most `u16::MAX` bytes of
/// it (a longer string is cut, possibly mid-character; decoders read it
/// lossily).
fn put_str(p: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let bytes = &bytes[..bytes.len().min(u16::MAX as usize)];
    p.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    p.extend_from_slice(bytes);
}

fn put_events(p: &mut Vec<u8>, events: &[String]) {
    p.extend_from_slice(&(events.len() as u32).to_le_bytes());
    for e in events {
        put_str(p, e);
    }
}

fn decode_events(c: &mut Cursor<'_>) -> Result<Vec<String>, ProtoError> {
    let count = c.u32()? as usize;
    // Each event needs at least its 2-byte length prefix; a hostile count
    // larger than the remaining bytes is rejected before allocation.
    if count.saturating_mul(2) > c.remaining() {
        return Err(ProtoError::BadPayload("event count exceeds payload"));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let n = c.u16()? as usize;
        out.push(String::from_utf8_lossy(c.take(n)?).into_owned());
    }
    Ok(out)
}

/// Bounds-checked payload cursor, following the `linalg::wire::Reader`
/// conventions (every read validates against the remaining bytes).
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if n > self.remaining() {
            return Err(ProtoError::BadPayload("field runs past payload end"));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message, session: u64) {
        let bytes = msg.encode(session);
        let frame = read_frame(&mut bytes.as_slice()).unwrap();
        assert_eq!(frame.session, session);
        assert_eq!(Message::decode(&frame).unwrap(), msg);
    }

    #[test]
    fn every_message_roundtrips() {
        roundtrip(
            Message::Hello {
                dim: 38,
                scalar_width: core::mem::size_of::<Real>() as u8,
            },
            7,
        );
        roundtrip(
            Message::Sample {
                dim: 3,
                data: vec![0.25, -1.5, 3.75, 0.0, 1.0, -2.0],
            },
            42,
        );
        roundtrip(Message::Ping, 1);
        roundtrip(Message::Drain, 1);
        roundtrip(Message::Snapshot, 1);
        roundtrip(Message::Bye, 1);
        roundtrip(
            Message::HelloAck {
                existing: true,
                resume_from: 512,
            },
            7,
        );
        roundtrip(
            Message::SampleAck {
                accepted: 6,
                events: vec!["DriftDetected { at: 3 }".into()],
            },
            7,
        );
        roundtrip(Message::Pong, 0);
        roundtrip(Message::DrainAck { events: vec![] }, 9);
        roundtrip(
            Message::SnapshotAck {
                blob: vec![1, 2, 3, 4, 5],
            },
            9,
        );
        roundtrip(
            Message::Busy {
                accepted: 4,
                queue_depth: 128,
            },
            9,
        );
        roundtrip(
            Message::Nack {
                code: NackCode::DimMismatch,
                detail: "expected 38, got 4".into(),
            },
            9,
        );
    }

    #[test]
    fn borrowed_sample_encoding_matches_the_message() {
        let data: Vec<Real> = (0..12).map(|i| i as Real * 0.5 - 2.0).collect();
        for (dim, n) in [(3, 12), (4, 8), (5, 12), (0, 6), (1, 0)] {
            let rows = &data[..n];
            let msg = Message::Sample {
                dim,
                data: rows.to_vec(),
            };
            assert_eq!(encode_sample(77, dim, rows), msg.encode(77), "dim {dim}");
        }
    }

    #[test]
    fn truncated_frame_is_io_error() {
        let bytes = Message::Ping.encode(1);
        for cut in 0..bytes.len() {
            let err = read_frame(&mut &bytes[..cut]).unwrap_err();
            assert!(matches!(err, ProtoError::Io(_)), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn bit_flips_never_decode() {
        let bytes = Message::Sample {
            dim: 2,
            data: vec![1.0, 2.0],
        }
        .encode(3);
        for bit in 0..bytes.len() * 8 {
            let mut corrupt = bytes.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            match read_frame(&mut corrupt.as_slice()) {
                Err(_) => {}
                // A flip in the length field can shorten the frame so the
                // CRC window moves; anything that still decodes must have
                // been caught... it must not, ever:
                Ok(_) => panic!("bit flip at {bit} decoded cleanly"),
            }
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut bytes = Message::Ping.encode(1);
        bytes[16..20].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, ProtoError::Oversized(_)));
    }

    #[test]
    fn version_skew_on_clean_frame_only() {
        // A frame re-sealed with a future version decodes as skew...
        let mut bytes = Message::Ping.encode(1);
        bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
        let n = bytes.len();
        let crc = crc32(&bytes[..n - CRC_LEN]);
        bytes[n - CRC_LEN..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(ProtoError::VersionSkew(2))
        ));
        // ...but a bit-flipped version byte without a matching CRC is
        // corruption, not skew.
        let mut flipped = Message::Ping.encode(1);
        flipped[4] ^= 0x02;
        assert!(matches!(
            read_frame(&mut flipped.as_slice()),
            Err(ProtoError::BadCrc { .. })
        ));
    }

    #[test]
    fn hostile_sample_counts_rejected() {
        // count*dim overflowing or exceeding the actual bytes must fail
        // without allocating.
        let mut p = Vec::new();
        p.extend_from_slice(&u32::MAX.to_le_bytes());
        p.extend_from_slice(&u32::MAX.to_le_bytes());
        let bytes = encode_frame(FrameType::Sample, 0, 1, &p);
        let frame = read_frame(&mut bytes.as_slice()).unwrap();
        assert!(Message::decode(&frame).is_err());
    }

    #[test]
    fn hostile_event_count_rejected() {
        let mut p = Vec::new();
        p.extend_from_slice(&4u32.to_le_bytes()); // accepted
        p.extend_from_slice(&u32::MAX.to_le_bytes()); // event count
        let bytes = encode_frame(FrameType::SampleAck, 0, 1, &p);
        let frame = read_frame(&mut bytes.as_slice()).unwrap();
        assert!(Message::decode(&frame).is_err());
    }
}
