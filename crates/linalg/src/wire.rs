//! Minimal little-endian wire format shared by every serialisable type in
//! the workspace.
//!
//! Blobs start with a common header — magic `"SQDM"`, `u16` format
//! version, `u16` payload kind — followed by kind-specific fields. The
//! format is deliberately simple enough for a C decoder on a
//! microcontroller: fixed-width little-endian integers and raw scalar
//! runs, no varints, no alignment tricks.

use crate::Real;

/// Format magic shared by all seqdrift blobs.
pub const MAGIC: &[u8; 4] = b"SQDM";
/// Current wire-format version.
pub const VERSION: u16 = 1;

/// Errors produced while decoding a blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Not a seqdrift blob.
    BadMagic,
    /// Blob written by a newer library version.
    UnsupportedVersion(u16),
    /// Payload kind does not match the requested type.
    WrongKind {
        /// Kind tag expected.
        expected: u16,
        /// Kind tag found.
        got: u16,
    },
    /// The blob ended early or has trailing garbage.
    Truncated,
    /// A decoded field failed validation.
    Invalid(&'static str),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "not a seqdrift blob"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            WireError::WrongKind { expected, got } => {
                write!(f, "wrong payload kind: expected {expected}, got {got}")
            }
            WireError::Truncated => write!(f, "blob truncated or has trailing bytes"),
            WireError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bytes per encoded scalar (`Real` in little-endian byte order).
pub const REAL_BYTES: usize = core::mem::size_of::<Real>();

/// Bytes of the header [`Writer::new`] writes.
pub const HEADER_BYTES: usize = 8;

/// Bytes [`Writer::reals`] writes for a run of `n` scalars.
pub const fn reals_len(n: usize) -> usize {
    8 + n * REAL_BYTES
}

/// Bytes [`Writer::u64s`] writes for a run of `n` integers.
pub const fn u64s_len(n: usize) -> usize {
    8 + n * 8
}

/// Appends `vs` to `buf` as a bare run of little-endian scalars (no
/// length prefix): one resize, then one pass over fixed-size chunks.
/// This is the one scalar-run encoder in the workspace; [`Writer::reals`]
/// and the SQNP sample frames both use it.
pub fn put_reals(buf: &mut Vec<u8>, vs: &[Real]) {
    let start = buf.len();
    buf.resize(start + vs.len() * REAL_BYTES, 0);
    for (dst, v) in buf[start..].chunks_exact_mut(REAL_BYTES).zip(vs) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Decodes a bare run of little-endian scalars written by [`put_reals`],
/// bit for bit (NaN payloads, `-0.0` and subnormals included). The caller
/// has already bounded `bytes`; a trailing partial scalar is a caller
/// bug and is ignored.
pub fn get_reals(bytes: &[u8]) -> Vec<Real> {
    debug_assert_eq!(bytes.len() % REAL_BYTES, 0, "partial scalar");
    bytes
        .chunks_exact(REAL_BYTES)
        .map(|c| Real::from_le_bytes(c.try_into().expect("REAL_BYTES-wide chunk")))
        .collect()
}

/// Append-only blob writer.
#[derive(Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts a blob of the given payload kind (writes the header).
    pub fn new(kind: u16) -> Self {
        Writer::with_capacity(kind, 64)
    }

    /// [`Writer::new`] with room for `bytes` bytes, header included: a
    /// blob of exactly that length is written with one allocation.
    pub fn with_capacity(kind: u16, bytes: usize) -> Self {
        let mut buf = Vec::with_capacity(bytes);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&kind.to_le_bytes());
        Writer { buf }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends one scalar.
    pub fn real(&mut self, v: Real) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed scalar run.
    pub fn reals(&mut self, vs: &[Real]) {
        self.u64(vs.len() as u64);
        put_reals(&mut self.buf, vs);
    }

    /// Appends a length-prefixed u64 run.
    pub fn u64s(&mut self, vs: &[u64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v);
        }
    }

    /// Finishes the blob.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-based blob reader.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Opens a blob, validating magic, version and payload kind.
    pub fn new(data: &'a [u8], expected_kind: u16) -> Result<Self, WireError> {
        let mut r = Reader { data, pos: 0 };
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = r.u16()?;
        // Version 0 was never issued; anything above VERSION is from a
        // newer library. Both are unsupported, not silently tolerated.
        if version == 0 || version > VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let kind = r.u16()?;
        if kind != expected_kind {
            return Err(WireError::WrongKind {
                expected: expected_kind,
                got: kind,
            });
        }
        Ok(r)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Bytes not yet consumed. Decoders use this to bound allocations
    /// *before* trusting a length field: a blob can never legitimately
    /// describe more payload than it has bytes left.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads one scalar.
    pub fn real(&mut self) -> Result<Real, WireError> {
        let b = self.take(REAL_BYTES)?;
        Ok(Real::from_le_bytes(b.try_into().expect("REAL_BYTES bytes")))
    }

    /// Reads a length-prefixed scalar run. The length field is checked
    /// against the bytes actually remaining before any allocation, so a
    /// length-lying blob fails with `Truncated` instead of reserving
    /// gigabytes.
    pub fn reals(&mut self) -> Result<Vec<Real>, WireError> {
        let n = self.u64()?;
        if n > (self.remaining() / REAL_BYTES) as u64 {
            return Err(WireError::Truncated);
        }
        Ok(get_reals(self.take(n as usize * REAL_BYTES)?))
    }

    /// Reads a length-prefixed u64 run (length checked against remaining
    /// bytes before allocating, as in [`Reader::reals`]).
    pub fn u64s(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.u64()?;
        if n > (self.remaining() / 8) as u64 {
            return Err(WireError::Truncated);
        }
        let n = n as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    /// Asserts the whole blob was consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(WireError::Truncated)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_field_types() {
        let mut w = Writer::new(7);
        w.u8(9);
        w.u64(123_456_789);
        w.real(1.5);
        w.reals(&[1.0, -2.0, 3.5]);
        w.u64s(&[4, 5]);
        let blob = w.into_bytes();

        let mut r = Reader::new(&blob, 7).unwrap();
        assert_eq!(r.u8().unwrap(), 9);
        assert_eq!(r.u64().unwrap(), 123_456_789);
        assert_eq!(r.real().unwrap(), 1.5);
        assert_eq!(r.reals().unwrap(), vec![1.0, -2.0, 3.5]);
        assert_eq!(r.u64s().unwrap(), vec![4, 5]);
        r.finish().unwrap();
    }

    #[test]
    fn scalar_runs_keep_every_bit() {
        // All-ones with a low-byte payload is a NaN at any scalar width.
        let mut nan = [0xFFu8; REAL_BYTES];
        nan[0] = 0x34;
        let specials = [
            -0.0,
            Real::from_le_bytes(nan),
            Real::MIN_POSITIVE / 4.0,
            Real::INFINITY,
            Real::NEG_INFINITY,
            Real::MAX,
            1.0 / 3.0,
        ];
        for n in 0..=specials.len() {
            let run = &specials[..n];
            let mut bytes = vec![0xAA];
            put_reals(&mut bytes, run);
            // The per-scalar encoding the run codec replaced.
            let mut want = vec![0xAA];
            for v in run {
                want.extend_from_slice(&v.to_le_bytes());
            }
            assert_eq!(bytes, want);
            let back = get_reals(&bytes[1..]);
            let bits = |vs: &[Real]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(run));

            let mut w = Writer::new(5);
            w.reals(run);
            let blob = w.into_bytes();
            let mut r = Reader::new(&blob, 5).unwrap();
            assert_eq!(bits(&r.reals().unwrap()), bits(run));
            r.finish().unwrap();
        }
    }

    #[test]
    fn header_validation() {
        let blob = Writer::new(1).into_bytes();
        assert!(matches!(
            Reader::new(&blob, 2),
            Err(WireError::WrongKind {
                expected: 2,
                got: 1
            })
        ));
        let mut bad = blob.clone();
        bad[0] = b'Z';
        assert!(matches!(Reader::new(&bad, 1), Err(WireError::BadMagic)));
        let mut future = blob.clone();
        future[4] = 0xFF;
        assert!(matches!(
            Reader::new(&future, 1),
            Err(WireError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn truncation_detected_everywhere() {
        let mut w = Writer::new(3);
        w.reals(&[1.0, 2.0, 3.0]);
        let blob = w.into_bytes();
        for cut in 0..blob.len() {
            let r = Reader::new(&blob[..cut], 3);
            let ok = match r {
                Ok(mut rr) => rr.reals().is_ok() && rr.finish().is_ok(),
                Err(_) => false,
            };
            assert!(!ok, "truncation at {cut} went unnoticed");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut blob = Writer::new(1).into_bytes();
        blob.push(0);
        let r = Reader::new(&blob, 1).unwrap();
        assert!(matches!(r.finish(), Err(WireError::Truncated)));
    }

    #[test]
    fn absurd_length_prefix_rejected() {
        let mut w = Writer::new(1);
        w.u64(u64::MAX); // length prefix of a "reals" run
        let blob = w.into_bytes();
        let mut r = Reader::new(&blob, 1).unwrap();
        assert!(r.reals().is_err());
    }

    #[test]
    fn length_lying_prefix_rejected_before_allocation() {
        // Claim barely more scalars than the remaining bytes can hold:
        // the old scalar-count-vs-byte-count guard let this through and
        // over-allocated by sizeof(Real).
        let mut w = Writer::new(1);
        w.reals(&[1.0, 2.0, 3.0]);
        let mut blob = w.into_bytes();
        let lie = (4u64).to_le_bytes(); // 3 scalars present, claim 4
        blob[8..16].copy_from_slice(&lie);
        let mut r = Reader::new(&blob, 1).unwrap();
        assert_eq!(r.reals(), Err(WireError::Truncated));

        // Same for u64 runs.
        let mut w = Writer::new(1);
        w.u64s(&[7, 8]);
        let mut blob = w.into_bytes();
        blob[8..16].copy_from_slice(&(3u64).to_le_bytes());
        let mut r = Reader::new(&blob, 1).unwrap();
        assert_eq!(r.u64s(), Err(WireError::Truncated));
    }

    #[test]
    fn remaining_tracks_cursor() {
        let mut w = Writer::new(2);
        w.u64(5);
        let blob = w.into_bytes();
        let mut r = Reader::new(&blob, 2).unwrap();
        assert_eq!(r.remaining(), 8);
        r.u64().unwrap();
        assert_eq!(r.remaining(), 0);
    }
}
