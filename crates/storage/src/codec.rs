//! The one bounds-checked read cursor every decoder uses: WAL, page,
//! zonemap, model catalog, the byte codecs in [`crate::compress`], and
//! the server's wire protocol.
//!
//! Bytes coming back from a device or a socket are untrusted: a torn
//! write, a bit flip or a hostile peer can claim any length. Every read
//! here returns [`StorageError::CorruptData`] instead of panicking, and
//! every length claim is checked against the bytes actually present
//! *before* anything is allocated — element counts through
//! `checked_mul`, so a claim like `1 << 61` eight-byte words cannot
//! wrap to a small number and slip past the guard. The write side stays
//! on plain `Vec<u8>`; only reading needs the checks.
//!
//! The module also owns the one encoding of a typed field (name, type
//! tag, nullable flag) that the WAL directory and the wire share; the
//! column bodies behind it are [`crate::page`]'s layout.

use crate::error::{Result, StorageError};
use crate::schema::{DataType, Field};

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

    /// Every byte not yet consumed.
    pub fn rest(&mut self) -> &'a [u8] {
        let out = &self.buf[self.pos..];
        self.pos = self.buf.len();
        out
    }

    /// Succeeds only when every byte has been consumed.
    pub fn end(&self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(self.corrupt(format!("{n} trailing bytes"))),
        }
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

    /// A bool byte: exactly 0 or 1.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.corrupt(format!("bad bool byte {b}"))),
        }
    }

    /// An option: a 0/1 presence byte, then the value when present.
    pub fn opt<T>(&mut self, read: impl FnOnce(&mut Self) -> Result<T>) -> Result<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => read(self).map(Some),
            b => Err(self.corrupt(format!("bad option flag {b}"))),
        }
    }

    /// A `u32` count of elements that each take at least `min_bytes`
    /// bytes, refused when the remaining bytes cannot hold them.
    pub fn count(&mut self, min_bytes: usize, what: &str) -> Result<usize> {
        let n = self.u32()?;
        self.claim(n.into(), min_bytes, what)
    }

    /// Check a count read elsewhere (a varint, say) the same way as
    /// [`Reader::count`].
    pub fn claim(&self, n: u64, min_bytes: usize, what: &str) -> Result<usize> {
        match n.checked_mul(min_bytes as u64) {
            Some(bytes) if bytes <= self.remaining() as u64 => Ok(n as usize),
            _ => Err(self.corrupt(format!("implausible {what} count {n}"))),
        }
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

    /// A `u32`-length-prefixed UTF-8 string (see [`put_str`]).
    pub fn str_u32(&mut self, what: &str) -> Result<String> {
        let len = self.u32()? as usize;
        self.utf8(len, what)
    }

    /// LEB128 `u64` in its shortest form (see
    /// [`crate::compress::varint::put_u64`]), so every value has one
    /// encoding.
    pub fn varint_u64(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.take(1, "varint")?[0];
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(self.corrupt("varint overflows u64"));
            }
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err(self.corrupt("overlong varint"));
                }
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Zigzag LEB128 `i64`.
    pub fn varint_i64(&mut self) -> Result<i64> {
        self.varint_u64().map(crate::compress::varint::unzigzag)
    }

    /// A type tag (see [`type_tag`]).
    pub fn data_type(&mut self) -> Result<DataType> {
        match self.u8()? {
            1 => Ok(DataType::Int64),
            2 => Ok(DataType::Float64),
            3 => Ok(DataType::Str),
            4 => Ok(DataType::Bool),
            other => Err(self.corrupt(format!("unknown type tag {other}"))),
        }
    }

    /// A field written by [`put_field`].
    pub fn field(&mut self) -> Result<Field> {
        let name = self.str_u32("field name")?;
        let data_type = self.data_type()?;
        Ok(Field { name, data_type, nullable: self.bool()? })
    }
}

/// Append `s` with its `u32` length ([`Reader::str_u32`] reads it).
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// The byte a type is stored as, in field and column headers alike.
pub fn type_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int64 => 1,
        DataType::Float64 => 2,
        DataType::Str => 3,
        DataType::Bool => 4,
    }
}

/// Append a field: name, type tag, nullable byte.
pub fn put_field(out: &mut Vec<u8>, f: &Field) {
    put_str(out, &f.name);
    out.push(type_tag(f.data_type));
    out.push(f.nullable as u8);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::varint;

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
        assert!(r.claim(1 << 61, 8, "words").is_err());
        assert!(r.claim(17, 1, "bytes").is_err());
        assert_eq!(r.claim(2, 8, "words").unwrap(), 2);
        // Nothing was consumed by the failed reads.
        assert_eq!(r.vec8(2, "words", u64::from_le_bytes).unwrap(), vec![0, 0]);
        assert!(r.end().is_ok());
    }

    #[test]
    fn flags_options_and_trailing_bytes_are_strict() {
        let mut r = Reader::new("demo", &[1, 0, 2, 1, 9]);
        assert!(r.bool().unwrap());
        assert_eq!(r.opt(Reader::u8).unwrap(), None);
        assert!(r.clone().bool().is_err(), "2 is not a bool");
        assert!(r.opt(Reader::u8).is_err(), "2 is not an option flag");
        assert_eq!(r.opt(Reader::u8).unwrap(), Some(9));
        let r = Reader::new("demo", &[0, 0]);
        assert_eq!(r.end().unwrap_err().to_string(), "corrupt demo data: 2 trailing bytes");
    }

    #[test]
    fn fields_roundtrip_and_unknown_type_tags_are_corrupt() {
        let mut out = Vec::new();
        for dt in [DataType::Int64, DataType::Float64, DataType::Str, DataType::Bool] {
            put_field(&mut out, &Field::nullable(format!("c{dt}"), dt));
            put_field(&mut out, &Field::new("x", dt));
        }
        let mut r = Reader::new("demo", &out);
        for dt in [DataType::Int64, DataType::Float64, DataType::Str, DataType::Bool] {
            assert_eq!(r.field().unwrap(), Field::nullable(format!("c{dt}"), dt));
            assert_eq!(r.field().unwrap(), Field::new("x", dt));
        }
        assert!(Reader::new("demo", &[0, 0, 0, 0, 5, 0]).field().is_err());
    }

    #[test]
    fn varints_roundtrip_and_reject_truncation_and_overflow() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            varint::put_u64(&mut out, v);
            let mut r = Reader::new("demo", &out);
            assert_eq!(r.varint_u64().unwrap(), v);
            assert!(r.end().is_ok());
            assert!(Reader::new("demo", &out[..out.len() - 1]).varint_u64().is_err());
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456789] {
            let mut out = Vec::new();
            varint::put_i64(&mut out, v);
            assert_eq!(Reader::new("demo", &out).varint_i64().unwrap(), v);
        }
        // Ten continuation bytes cannot be a valid u64, and 0 has one
        // encoding.
        assert!(Reader::new("demo", &[0x80; 10]).varint_u64().is_err());
        assert!(Reader::new("demo", &[0x80, 0x00]).varint_u64().is_err());
    }
}
