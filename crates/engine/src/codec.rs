//! Value codecs: turning dynamically-typed job outputs into bytes and
//! back, so the [`crate::DiskStore`] can persist them.
//!
//! The engine is type-agnostic — job values are `Arc<dyn Any>` — so
//! persistence needs help from whoever knows the concrete types: a
//! [`ValueCodec`] supplied by the campaign runner
//! ([`crate::CampaignRunner::codec`]). A codec may decline any value
//! (return `None`), in which case that job simply isn't persisted and
//! will be recomputed by cold processes; deterministic stages make that
//! safe, merely slower.
//!
//! [`ByteWriter`] / [`ByteReader`] are the little-endian primitives both
//! the store's entry headers and downstream codecs are built on. Reads
//! are all checked (`Option`), so a truncated or alien payload decodes
//! to `None` instead of panicking — the cache treats that as a miss.

use crate::graph::{JobKind, JobValue};

/// Encodes/decodes job outputs for on-disk persistence.
///
/// Implementations must be *self-consistent*: `decode(kind,
/// encode(kind, v))` must reproduce a value observationally identical to
/// `v` (dependents downcast it to the same concrete type and read the
/// same contents). When one `JobKind` can carry several concrete types
/// (e.g. different pipelines sharing a cache directory), prefix the
/// payload with a type tag and dispatch on it in `decode`.
pub trait ValueCodec: Send + Sync {
    /// Encode `value`, or `None` when this value should not be
    /// persisted.
    fn encode(&self, kind: JobKind, value: &JobValue) -> Option<Vec<u8>>;

    /// Decode a payload previously produced by `encode` for the same
    /// `kind`. `None` means the payload is unrecognized; the cache
    /// treats the entry as a miss.
    fn decode(&self, kind: JobKind, bytes: &[u8]) -> Option<JobValue>;
}

/// Little-endian byte-stream writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Finish and take the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` (as `u64`, platform-independent).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append an `f32` (raw bits — bit-exact round trip).
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Append an `f64` (raw bits — bit-exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a `bool`.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append length-prefixed raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }
}

/// Checked little-endian byte-stream reader; every method returns
/// `None` on underrun or malformed data.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed (codecs should check this
    /// last to reject trailing garbage).
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes not yet consumed: a bound on how many elements of at
    /// least one byte each the payload can still hold, for sizing an
    /// allocation from a count read off the payload.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `usize` (rejects values over `usize::MAX`).
    pub fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// Read an `f32` (raw bits).
    pub fn f32(&mut self) -> Option<f32> {
        Some(f32::from_bits(self.u32()?))
    }

    /// Read an `f64` (raw bits).
    pub fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    /// Read a `bool` (strictly 0 or 1).
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        let len = self.usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    /// Read length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.usize()?;
        self.take(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.usize(123_456);
        w.f32(-0.25);
        w.f64(std::f64::consts::PI);
        w.bool(true);
        w.str("héllo");
        w.bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u32(), Some(0xdead_beef));
        assert_eq!(r.u64(), Some(u64::MAX));
        assert_eq!(r.usize(), Some(123_456));
        assert_eq!(r.f32(), Some(-0.25));
        assert_eq!(r.f64(), Some(std::f64::consts::PI));
        assert_eq!(r.bool(), Some(true));
        assert_eq!(r.str().as_deref(), Some("héllo"));
        assert_eq!(r.bytes(), Some(&[1u8, 2, 3][..]));
        assert!(r.is_exhausted());
        // Reads past the end fail instead of panicking.
        assert_eq!(r.u8(), None);
    }

    #[test]
    fn truncated_and_malformed_reads_fail() {
        let mut w = ByteWriter::new();
        w.str("payload");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..bytes.len() - 1]);
        assert_eq!(r.str(), None);
        // A bool byte outside {0,1} is malformed.
        let mut r = ByteReader::new(&[9]);
        assert_eq!(r.bool(), None);
        // Absurd length prefix: fails cleanly.
        let absurd_len = u64::MAX.to_le_bytes();
        let mut r = ByteReader::new(&absurd_len);
        assert_eq!(r.bytes(), None);
    }
}
