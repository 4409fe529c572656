//! Length-prefixed, checksummed binary records — the on-disk substrate of
//! the serve journal.
//!
//! Layout of one record:
//!
//! ```text
//! [u32 le: len = 1 + payload.len()] [u8 kind] [payload ...] [u32 le: crc32]
//! ```
//!
//! The CRC-32 (IEEE 802.3 polynomial, the same one zip/gzip/png use) covers
//! the kind byte and the payload, so a torn tail — a record cut anywhere by
//! a crash — is always detectable: either the declared extent runs past the
//! end of the buffer ([`RecordError::Truncated`]) or the checksum of a
//! bit-flipped/short record fails ([`RecordError::BadChecksum`]). Readers
//! scan sequentially; there is no resync marker, so the first bad record
//! ends the parse and the caller decides whether the damage is a discardable
//! tail or mid-file corruption.
//!
//! [`write_all_tagged`] is the shared write-all helper: every byte sink that
//! must not silently drop data (trace files, journal files) routes through
//! it, and a short or failed write surfaces as a structured error carrying
//! the destination path and the exact byte count that made it out.
//!
//! The CRC is table-driven (slicing-by-16, tables built at compile time)
//! and incremental ([`Crc32`]), so [`write_record`] checksums a payload
//! given in pieces and writes the pieces as they are, without assembling
//! the record in a temporary buffer.

use std::fmt;
use std::io::{ErrorKind, Write};
use std::path::Path;

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 tables: `TABLES[0]` is the classic byte-at-a-time table,
/// and `TABLES[k][b]` is the CRC contribution of byte `b` followed by `k`
/// zero bytes, so sixteen input bytes fold into the state with sixteen
/// independent lookups.
static TABLES: [[u32; 256]; 16] = tables();

const fn tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// A running IEEE CRC-32 (reflected, init/xorout `!0`): feed the bytes in
/// any number of [`update`](Self::update)s, then [`finish`](Self::finish).
/// The result equals [`crc32`] of the concatenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// The CRC of no bytes yet.
    pub fn new() -> Self {
        Crc32(!0)
    }

    /// Feeds `bytes` into the running CRC.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.0;
        let mut chunks = bytes.chunks_exact(16);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            crc = t[15][(lo & 0xFF) as usize]
                ^ t[14][((lo >> 8) & 0xFF) as usize]
                ^ t[13][((lo >> 16) & 0xFF) as usize]
                ^ t[12][(lo >> 24) as usize]
                ^ t[11][c[4] as usize]
                ^ t[10][c[5] as usize]
                ^ t[9][c[6] as usize]
                ^ t[8][c[7] as usize]
                ^ t[7][c[8] as usize]
                ^ t[6][c[9] as usize]
                ^ t[5][c[10] as usize]
                ^ t[4][c[11] as usize]
                ^ t[3][c[12] as usize]
                ^ t[2][c[13] as usize]
                ^ t[1][c[14] as usize]
                ^ t[0][c[15] as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    /// The CRC of every byte fed so far.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

/// Computes the IEEE CRC-32 of `bytes` (reflected, init/xorout `!0`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// A structured failure while writing or parsing framed records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// An I/O failure, tagged with the destination path and a detail that
    /// includes how many bytes were written before the failure (so a
    /// partial write — ENOSPC mid-record, a full pipe — is visible, not
    /// silently absorbed).
    Io {
        /// The file (or sink label) being written.
        path: String,
        /// Human-readable failure detail.
        detail: String,
    },
    /// A record's declared extent runs past the end of the buffer — the
    /// classic torn tail left by a crash mid-append.
    Truncated {
        /// Byte offset of the record's length prefix.
        offset: usize,
    },
    /// A record's checksum does not match its content.
    BadChecksum {
        /// Byte offset of the record's length prefix.
        offset: usize,
    },
    /// A record declared a zero length (even an empty payload occupies one
    /// kind byte), which only corruption produces.
    BadLength {
        /// Byte offset of the record's length prefix.
        offset: usize,
    },
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Io { path, detail } => write!(f, "{path}: {detail}"),
            RecordError::Truncated { offset } => {
                write!(
                    f,
                    "record at byte {offset} truncated before its declared end"
                )
            }
            RecordError::BadChecksum { offset } => {
                write!(f, "record at byte {offset} failed its CRC-32 check")
            }
            RecordError::BadLength { offset } => {
                write!(f, "record at byte {offset} declares an impossible length")
            }
        }
    }
}

impl std::error::Error for RecordError {}

impl RecordError {
    /// Builds an [`RecordError::Io`] from a raw I/O error and a path.
    pub fn io(path: &Path, e: &std::io::Error) -> Self {
        RecordError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        }
    }
}

/// Writes every byte of `bytes` to `w`, retrying interrupted writes, and
/// reports any failure — including a stalled sink that accepts zero bytes —
/// as a structured [`RecordError::Io`] naming `path` and the number of
/// bytes that made it out before the failure.
pub fn write_all_tagged<W: Write + ?Sized>(
    w: &mut W,
    bytes: &[u8],
    path: &Path,
) -> Result<(), RecordError> {
    write_all_parts(w, std::iter::once(bytes), path)
}

/// [`write_all_tagged`] over the concatenation of `parts`, written in
/// order without joining them; a failure counts the bytes of every part.
fn write_all_parts<'a, W: Write + ?Sized>(
    w: &mut W,
    parts: impl Iterator<Item = &'a [u8]> + Clone,
    path: &Path,
) -> Result<(), RecordError> {
    let total: usize = parts.clone().map(<[u8]>::len).sum();
    let mut written = 0;
    for part in parts {
        let mut rest = part;
        while !rest.is_empty() {
            match w.write(rest) {
                Ok(0) => {
                    return Err(RecordError::Io {
                        path: path.display().to_string(),
                        detail: format!("write stalled after {written} of {total} bytes"),
                    })
                }
                Ok(n) => {
                    rest = &rest[n..];
                    written += n;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    return Err(RecordError::Io {
                        path: path.display().to_string(),
                        detail: format!("{e} (after {written} of {total} bytes)"),
                    })
                }
            }
        }
    }
    Ok(())
}

/// Appends one framed record to `w`: `kind`, then the payload given as the
/// concatenation of `payload`'s pieces. The pieces are checksummed and
/// written as they are, never copied into one buffer, and the bytes go
/// through the same checked write-all as [`write_all_tagged`] so partial
/// writes surface structurally.
pub fn write_record<W: Write + ?Sized>(
    w: &mut W,
    kind: u8,
    payload: &[&[u8]],
    path: &Path,
) -> Result<(), RecordError> {
    let len = 1 + payload.iter().map(|p| p.len()).sum::<usize>();
    let len = u32::try_from(len).expect("record payload exceeds u32");
    let mut head = [0u8; 5];
    head[..4].copy_from_slice(&len.to_le_bytes());
    head[4] = kind;
    let mut crc = Crc32::new();
    crc.update(&head[4..]);
    for piece in payload {
        crc.update(piece);
    }
    let tail = crc.finish().to_le_bytes();
    let parts = std::iter::once(&head[..])
        .chain(payload.iter().copied())
        .chain(std::iter::once(&tail[..]));
    write_all_parts(w, parts, path)
}

/// One record parsed out of a byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record<'a> {
    /// Byte offset of this record's length prefix within the buffer.
    pub offset: usize,
    /// Byte offset one past this record's trailing checksum — where the
    /// next record starts, and the truncation point that drops this record
    /// and everything after it.
    pub end: usize,
    /// The record kind byte.
    pub kind: u8,
    /// The record payload.
    pub payload: &'a [u8],
}

/// Parses the record starting at `offset` in `buf`. Returns `Ok(None)` at a
/// clean end of buffer (`offset == buf.len()`); a record whose extent runs
/// past the buffer is [`RecordError::Truncated`] (this includes a partial
/// length prefix), and a complete record with a wrong checksum is
/// [`RecordError::BadChecksum`].
pub fn parse_record(buf: &[u8], offset: usize) -> Result<Option<Record<'_>>, RecordError> {
    if offset == buf.len() {
        return Ok(None);
    }
    if buf.len() - offset < 4 {
        return Err(RecordError::Truncated { offset });
    }
    let len = u32::from_le_bytes(buf[offset..offset + 4].try_into().unwrap()) as usize;
    if len == 0 {
        return Err(RecordError::BadLength { offset });
    }
    let body = offset + 4;
    let end = match body.checked_add(len).and_then(|e| e.checked_add(4)) {
        Some(end) if end <= buf.len() => end,
        _ => return Err(RecordError::Truncated { offset }),
    };
    let framed = &buf[body..body + len];
    let stored = u32::from_le_bytes(buf[body + len..end].try_into().unwrap());
    if crc32(framed) != stored {
        return Err(RecordError::BadChecksum { offset });
    }
    Ok(Some(Record {
        offset,
        end,
        kind: framed[0],
        payload: &framed[1..],
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bit-at-a-time CRC the tables are derived from: the reference
    /// the table-driven one must equal.
    fn bitwise_update(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        crc
    }

    fn pseudo_random_bytes(n: usize) -> Vec<u8> {
        let mut rng = crate::SimRng::new(0xC4C32);
        (0..n).map(|_| rng.below(256) as u8).collect()
    }

    /// Every length 0..=4100 at every start alignment 0..16, in one call:
    /// the slicing loop, its remainder, and every mix of the two.
    #[test]
    fn table_crc_equals_the_bitwise_reference_at_every_length_and_alignment() {
        const MAX_LEN: usize = 4100;
        let bytes = pseudo_random_bytes(MAX_LEN + 16);
        for align in 0..16 {
            // The reference state grows one byte at a time, so every prefix
            // length costs one reference step.
            let mut reference = !0u32;
            for len in 0..=MAX_LEN {
                if len > 0 {
                    reference = bitwise_update(reference, &bytes[align + len - 1..align + len]);
                }
                assert_eq!(
                    crc32(&bytes[align..align + len]),
                    !reference,
                    "length {len} at alignment {align}"
                );
            }
        }
    }

    /// Pieces split at random points give the one-call CRC.
    #[test]
    fn crc_in_pieces_equals_the_crc_in_one_call() {
        let bytes = pseudo_random_bytes(4100 + 16);
        let mut rng = crate::SimRng::new(7);
        for _ in 0..2000 {
            let start = rng.below(16) as usize;
            let len = rng.below(4101) as usize;
            let data = &bytes[start..start + len];
            let mut cuts: Vec<usize> = (0..rng.below(6))
                .map(|_| rng.below(len as u64 + 1) as usize)
                .collect();
            cuts.push(0);
            cuts.push(len);
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            for piece in cuts.windows(2) {
                crc.update(&data[piece[0]..piece[1]]);
            }
            assert_eq!(crc.finish(), crc32(data), "{len} bytes cut at {cuts:?}");
            assert_eq!(crc.finish(), !bitwise_update(!0, data));
        }
    }

    /// A record written from pieces is byte for byte the record of the
    /// joined payload.
    #[test]
    fn record_from_pieces_equals_the_record_of_the_joined_payload() {
        let mut joined = Vec::new();
        write_record(&mut joined, 2, &[b"\x05\0\0\0payload"], path()).unwrap();
        let mut pieces = Vec::new();
        write_record(
            &mut pieces,
            2,
            &[b"\x05\0", b"", b"\0\0pay", b"load"],
            path(),
        )
        .unwrap();
        assert_eq!(pieces, joined);
        let rec = parse_record(&pieces, 0).unwrap().unwrap();
        assert_eq!(
            (rec.kind, rec.payload),
            (2, b"\x05\0\0\0payload".as_slice())
        );
    }

    fn path() -> &'static Path {
        Path::new("/test/sink")
    }

    #[test]
    fn record_roundtrip() {
        let mut buf = Vec::new();
        write_record(&mut buf, 7, &[b"hello"], path()).unwrap();
        write_record(&mut buf, 9, &[], path()).unwrap();
        let first = parse_record(&buf, 0).unwrap().unwrap();
        assert_eq!((first.kind, first.payload), (7, b"hello".as_slice()));
        let second = parse_record(&buf, first.end).unwrap().unwrap();
        assert_eq!((second.kind, second.payload), (9, b"".as_slice()));
        assert_eq!(parse_record(&buf, second.end).unwrap(), None);
    }

    #[test]
    fn truncation_at_every_byte_is_detected() {
        let mut buf = Vec::new();
        write_record(&mut buf, 3, &[b"payload bytes"], path()).unwrap();
        for cut in 0..buf.len() {
            let r = parse_record(&buf[..cut], 0);
            assert!(
                matches!(r, Err(RecordError::Truncated { offset: 0 }) | Ok(None)),
                "cut at {cut}: {r:?}"
            );
            // Only the empty prefix parses as a clean end.
            if cut > 0 {
                assert!(r.is_err(), "cut at {cut} silently accepted");
            }
        }
    }

    #[test]
    fn corruption_of_every_byte_fails_the_checksum() {
        let mut buf = Vec::new();
        write_record(&mut buf, 3, &[b"payload"], path()).unwrap();
        for i in 4..buf.len() {
            // Flipping any bit of the framed content or the stored checksum
            // must be caught (length-prefix corruption lands on Truncated
            // or BadLength instead, tested separately).
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            assert!(parse_record(&bad, 0).is_err(), "flip at {i} accepted");
        }
    }

    #[test]
    fn zero_length_is_structurally_rejected() {
        let mut buf = vec![0, 0, 0, 0];
        buf.extend_from_slice(&crc32(b"").to_le_bytes());
        assert_eq!(
            parse_record(&buf, 0).unwrap_err(),
            RecordError::BadLength { offset: 0 }
        );
    }

    #[test]
    fn write_all_tagged_reports_partial_writes_with_path() {
        struct Stall;
        impl Write for Stall {
            fn write(&mut self, _b: &[u8]) -> std::io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = write_all_tagged(&mut Stall, b"abc", Path::new("/var/trace.jsonl")).unwrap_err();
        match err {
            RecordError::Io { path, detail } => {
                assert_eq!(path, "/var/trace.jsonl");
                assert!(detail.contains("0 of 3"), "{detail}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn write_all_tagged_reports_enospc_style_failures() {
        struct Half(bool);
        impl Write for Half {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                if self.0 {
                    Err(std::io::Error::other("no space left"))
                } else {
                    self.0 = true;
                    Ok(b.len() / 2)
                }
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = write_all_tagged(&mut Half(false), b"abcdefgh", path()).unwrap_err();
        match err {
            RecordError::Io { detail, .. } => {
                assert!(detail.contains("no space left"), "{detail}");
                assert!(detail.contains("4 of 8"), "{detail}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}
