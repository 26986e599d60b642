//! Stable binary serialization for packed solver models.
//!
//! SAT models leave the solver as packed 64-lane vector words (lane *k*
//! of every variable's word = model *k*), and the persistence layer
//! wants to write them to disk in a format that is byte-identical
//! across platforms, builds and runs. This module is the shared wire
//! codec: everything is little-endian, lengths are explicit, and a
//! seedless FNV-1a checksum guards payloads against torn writes and
//! bit rot. Readers never panic on malformed input — every accessor
//! returns [`CodecError`] on truncation, so a corrupted file degrades
//! to a clean load failure instead of UB or an abort.

use std::fmt;

/// Truncated or malformed input encountered by a [`ByteReader`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset the failed read started at.
    pub at: usize,
    /// Bytes the read needed.
    pub needed: usize,
    /// Bytes actually available.
    pub available: usize,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "truncated input at byte {}: needed {}, had {}",
            self.at, self.needed, self.available
        )
    }
}

impl std::error::Error for CodecError {}

/// Little-endian byte sink for the knowledge-store writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a slice of little-endian `u64` words (no length prefix —
    /// callers record the count themselves).
    pub fn put_u64s(&mut self, vs: &[u64]) {
        self.buf.reserve(vs.len() * 8);
        for &v in vs {
            self.put_u64(v);
        }
    }

    /// Appends raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Consumes the writer, yielding the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian cursor over a byte slice; every read is bounds-checked.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError {
                at: self.pos,
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads `n` little-endian `u64` words.
    pub fn u64s(&mut self, n: usize) -> Result<Vec<u64>, CodecError> {
        // guard the multiplication so a hostile count cannot wrap into a
        // tiny allocation; the length check in take() does the rest
        let bytes = n.checked_mul(8).ok_or(CodecError {
            at: self.pos,
            needed: usize::MAX,
            available: self.remaining(),
        })?;
        let b = self.take(bytes)?;
        Ok(b.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }
}

/// The FNV-1a offset basis: the hash of no bytes, and the starting
/// state for [`fnv64_extend`].
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Seedless FNV-1a over a byte slice: the payload checksum of the
/// knowledge store and the job journal, and the hash behind every
/// persisted fingerprint. Stable across processes, builds and platforms
/// (unlike `DefaultHasher`, which only promises stability within one
/// program execution).
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(FNV64_OFFSET, bytes)
}

/// Continues an FNV-1a hash `h` over more bytes, so a hash can be fed
/// piecewise without concatenating its input:
/// `fnv64_extend(fnv64(a), b) == fnv64(a ++ b)`.
pub fn fnv64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_width() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_u64s(&[1, u64::MAX, 42]);
        w.put_bytes(b"tail");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.u64s(3).unwrap(), vec![1, u64::MAX, 42]);
        assert_eq!(r.bytes(4).unwrap(), b"tail");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_errors_instead_of_panicking() {
        let bytes = [1u8, 2, 3];
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 1);
        let err = r.u64().unwrap_err();
        assert_eq!(err.at, 1);
        assert_eq!(err.needed, 8);
        assert_eq!(err.available, 2);
        // a failed read consumes nothing
        assert_eq!(r.u8().unwrap(), 2);
        assert!(r.u64s(usize::MAX).is_err(), "count overflow is an error");
    }

    #[test]
    fn fnv64_is_the_documented_function() {
        // pinned vectors: the on-disk checksum must never drift
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv64(b"ab"), fnv64(b"ba"));
        assert_eq!(fnv64_extend(fnv64(b"a"), b"bc"), fnv64(b"abc"));
    }
}
