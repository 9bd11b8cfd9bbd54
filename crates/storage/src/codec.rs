//! The one bounds-checked read cursor every on-disk decoder uses.
//!
//! Bytes coming back from a device are untrusted: a torn write, a bit
//! flip or a hostile image can claim any length. Every read here
//! returns [`StorageError::CorruptData`] instead of panicking, and
//! every length claim is checked against the bytes actually present
//! *before* anything is allocated — element counts through
//! `checked_mul`, so a claim like `1 << 61` eight-byte words cannot
//! wrap to a small number and slip past the guard. The write side stays
//! on plain `Vec<u8>` / `BufMut`; only reading needs the checks.

use crate::compress::varint;
use crate::error::{Result, StorageError};

/// Little-endian read cursor over `buf`, reporting errors as corrupt
/// `codec` data.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    codec: &'static str,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(codec: &'static str, buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0, codec }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A [`StorageError::CorruptData`] for this cursor's codec.
    pub fn corrupt(&self, detail: impl Into<String>) -> StorageError {
        StorageError::CorruptData { codec: self.codec, detail: detail.into() }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(self.corrupt(format!("truncated {what}")));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        Ok(self.take(N, what)?.try_into().expect("take returned N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>("u8")?[0])
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        self.array("u32").map(u32::from_le_bytes)
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        self.array("u64").map(u64::from_le_bytes)
    }

    /// Little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        self.array("i64").map(i64::from_le_bytes)
    }

    /// Little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64> {
        self.array("f64").map(f64::from_le_bytes)
    }

    /// `count` eight-byte little-endian values (`from` is the type's
    /// `from_le_bytes`), length-checked before the vector is allocated.
    /// A byte count that overflows is as truncated as one that merely
    /// exceeds the buffer.
    pub fn vec8<T>(&mut self, count: usize, what: &str, from: fn([u8; 8]) -> T) -> Result<Vec<T>> {
        let Some(bytes) = count.checked_mul(8) else {
            return Err(self.corrupt(format!("truncated {what}")));
        };
        let raw = self.take(bytes, what)?;
        Ok(raw.chunks_exact(8).map(|c| from(c.try_into().expect("8-byte chunk"))).collect())
    }

    /// `len` bytes of UTF-8.
    pub fn utf8(&mut self, len: usize, what: &str) -> Result<String> {
        let raw = self.take(len, what)?;
        match std::str::from_utf8(raw) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => Err(self.corrupt(format!("{what} is not valid UTF-8"))),
        }
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn str_u32(&mut self, what: &str) -> Result<String> {
        let len = self.u32()? as usize;
        self.utf8(len, what)
    }

    /// LEB128 `u64` (see [`varint`]).
    pub fn varint_u64(&mut self) -> Result<u64> {
        varint::get_u64(self.buf, &mut self.pos)
    }

    /// Zigzag LEB128 `i64`.
    pub fn varint_i64(&mut self) -> Result<i64> {
        varint::get_i64(self.buf, &mut self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_advance_and_report_truncation_with_the_codec_name() {
        let mut bytes = vec![7u8];
        bytes.extend_from_slice(&0xAABB_CCDDu32.to_le_bytes());
        bytes.extend_from_slice(&(-3i64).to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice("hé".as_bytes());
        let mut r = Reader::new("demo", &bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xAABB_CCDD);
        assert_eq!(r.i64().unwrap(), -3);
        assert!(r.clone().str_u32("name").is_err(), "length 2 cuts the é in half");
        assert_eq!(r.u32().unwrap(), 2);
        assert_eq!(r.utf8(3, "name").unwrap(), "hé");
        assert_eq!(r.remaining(), 0);
        let e = r.u64().unwrap_err();
        assert_eq!(e.to_string(), "corrupt demo data: truncated u64");
    }

    #[test]
    fn overflowing_length_claims_are_corrupt_not_wrapped() {
        let bytes = [0u8; 16];
        let mut r = Reader::new("demo", &bytes);
        // (1 << 61) * 8 wraps to 0 in usize arithmetic.
        assert!(r.vec8(1 << 61, "words", u64::from_le_bytes).is_err());
        assert!(r.vec8(usize::MAX, "words", u64::from_le_bytes).is_err());
        assert!(r.take(usize::MAX, "blob").is_err());
        // Nothing was consumed by the failed reads.
        assert_eq!(r.vec8(2, "words", u64::from_le_bytes).unwrap(), vec![0, 0]);
    }
}
