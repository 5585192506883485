//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), implemented
//! in-repo so the workspace keeps its zero-external-dependency property.
//!
//! Byte-for-byte compatible with zlib's `crc32()`, so frames can be
//! checked by standard tooling off-device. It runs on every SQNP frame
//! (sealed by the sender, verified by the receiver) as well as on every
//! checkpoint frame, so it uses slicing-by-16: sixteen 256-entry tables,
//! built at compile time, fold sixteen input bytes per step with
//! independent lookups instead of one serial lookup per byte. The tail
//! (under sixteen bytes) goes through the classic one-table loop, which
//! is `TABLES[0]`.

/// Reflected CRC-32 polynomial (IEEE 802.3 / zlib / PNG).
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 16] = tables();

const fn tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Advances a raw (pre-inverted) CRC register over `data`.
fn advance(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 of `data` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    !advance(u32::MAX, data)
}

/// Incremental CRC-32 for callers that hash in chunks.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: u32::MAX }
    }

    /// Feeds more bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.state = advance(self.state, data);
    }

    /// Finishes and returns the checksum.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: the plain bit-serial definition folded one byte at
    /// a time through a table built independently of `TABLES`.
    fn oracle(data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        let mut crc = u32::MAX;
        for &b in data {
            crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// Deterministic bytes with every value and no short period.
    fn bytes(n: usize) -> Vec<u8> {
        let mut x: u32 = 0x9E37_79B9;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 11) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard zlib/PNG check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn matches_the_byte_loop_at_every_length_and_alignment() {
        let data = bytes(1024 + 16);
        for start in 0..16 {
            for len in 0..=1024 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), oracle(s), "start {start}, length {len}");
            }
        }
    }

    #[test]
    fn incremental_split_at_every_offset_matches_the_byte_loop() {
        let data = bytes(1024);
        let want = oracle(&data);
        for cut in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            assert_eq!(h.finish(), want, "split at {cut}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0u16..1024).map(|i| (i % 251) as u8).collect();
        let mut h = Crc32::new();
        for chunk in data.chunks(13) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), crc32(&data));
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let data: Vec<u8> = (0u16..256).map(|i| i as u8).collect();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut bad = data.clone();
                bad[byte] ^= 1 << bit;
                assert_ne!(crc32(&bad), base, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
