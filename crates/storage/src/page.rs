//! Column chunk ⇄ byte serialization for the paged store.
//!
//! A column is serialized into one contiguous byte stream — a small
//! header (type tag, row count, validity length) followed by the
//! validity words and the raw value data — and the durable store
//! ([`crate::wal::DurableStore`]) splits that stream across fixed-size
//! pages. Little-endian throughout.

use crate::bitmap::Bitmap;
use crate::codec::Reader;
use crate::column::Column;
use crate::error::Result;
use bytes::{BufMut, BytesMut};

/// Type tags in the serialized header.
const TAG_I64: u8 = 1;
const TAG_F64: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_BOOL: u8 = 4;

/// Size of the fixed stream header (tag + row count + validity words).
pub const HEADER_BYTES: usize = 17;

/// Serialize a column into bytes.
pub fn encode_column(col: &Column) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(col.byte_size() + 64);
    let (len, words) = col.validity().to_parts();
    let tag = match col {
        Column::Int64 { .. } => TAG_I64,
        Column::Float64 { .. } => TAG_F64,
        Column::Str { .. } => TAG_STR,
        Column::Bool { .. } => TAG_BOOL,
    };
    buf.put_u8(tag);
    buf.put_u64_le(len as u64);
    buf.put_u64_le(words.len() as u64);
    for &w in words {
        buf.put_u64_le(w);
    }
    match col {
        Column::Int64 { data, .. } => {
            for &v in data {
                buf.put_i64_le(v);
            }
        }
        Column::Float64 { data, .. } => {
            for &v in data {
                buf.put_f64_le(v);
            }
        }
        Column::Str { data, .. } => {
            for s in data {
                buf.put_u32_le(s.len() as u32);
                buf.put_slice(s.as_bytes());
            }
        }
        Column::Bool { data, .. } => {
            let (blen, bwords) = data.to_parts();
            buf.put_u64_le(blen as u64);
            buf.put_u64_le(bwords.len() as u64);
            for &w in bwords {
                buf.put_u64_le(w);
            }
        }
    }
    buf.to_vec()
}

/// Deserialize a column from bytes produced by [`encode_column`].
/// Total on untrusted bytes: every length claim is checked against the
/// stream before anything is allocated.
pub fn decode_column(bytes: &[u8]) -> Result<Column> {
    let mut r = Reader::new("page", bytes);
    let tag = r.u8()?;
    let len = r.u64()? as usize;
    let nwords = r.u64()? as usize;
    let words = r.vec8(nwords, "validity words", u64::from_le_bytes)?;
    if nwords != len.div_ceil(64) {
        return Err(r.corrupt("validity word count does not match row count"));
    }
    let validity = Bitmap::from_parts(len, words);
    match tag {
        TAG_I64 => {
            let data = r.vec8(len, "i64 data", i64::from_le_bytes)?;
            Ok(Column::Int64 { data: data.into(), validity })
        }
        TAG_F64 => {
            let data = r.vec8(len, "f64 data", f64::from_le_bytes)?;
            Ok(Column::Float64 { data: data.into(), validity })
        }
        TAG_STR => {
            // Every string needs at least its 4-byte length prefix.
            let mut data = Vec::with_capacity(len.min(r.remaining() / 4));
            for _ in 0..len {
                data.push(r.str_u32("string")?);
            }
            Ok(Column::Str { data: data.into(), validity })
        }
        TAG_BOOL => {
            let blen = r.u64()? as usize;
            let bwordn = r.u64()? as usize;
            let bwords = r.vec8(bwordn, "bool words", u64::from_le_bytes)?;
            if blen != len || bwordn != blen.div_ceil(64) {
                return Err(r.corrupt("bool bitmap length mismatch"));
            }
            Ok(Column::Bool { data: Bitmap::from_parts(blen, bwords), validity })
        }
        other => Err(r.corrupt(format!("unknown type tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;

    fn roundtrip(c: &Column) {
        let bytes = encode_column(c);
        let back = decode_column(&bytes).unwrap();
        assert_eq!(&back, c);
    }

    #[test]
    fn roundtrips_all_types() {
        roundtrip(&Column::from_i64(vec![1, -5, i64::MAX, i64::MIN]));
        roundtrip(&Column::from_f64(vec![0.0, -1.5, f64::INFINITY, 1e-300]));
        roundtrip(&Column::from_str(vec!["".into(), "héllo".into(), "x".repeat(1000)]));
        roundtrip(&Column::from_bool(&[true, false, true, true]));
    }

    #[test]
    fn roundtrips_nulls() {
        roundtrip(&Column::from_f64_opt(vec![Some(1.0), None, Some(3.0)]));
        roundtrip(&Column::from_i64_opt(vec![None, None]));
    }

    #[test]
    fn roundtrips_nan_payload() {
        let c = Column::from_f64(vec![f64::NAN]);
        let bytes = encode_column(&c);
        let back = decode_column(&bytes).unwrap();
        assert!(back.f64_data().unwrap()[0].is_nan());
    }

    #[test]
    fn empty_column_roundtrips() {
        roundtrip(&Column::from_i64(vec![]));
    }

    #[test]
    fn corrupt_inputs_are_rejected_not_panicking() {
        assert!(decode_column(&[]).is_err());
        assert!(decode_column(&[9, 0, 0]).is_err());
        // Valid header, truncated body.
        let good = encode_column(&Column::from_i64(vec![1, 2, 3]));
        assert!(decode_column(&good[..good.len() - 4]).is_err());
        // Unknown tag.
        let mut bad = good.clone();
        bad[0] = 99;
        assert!(decode_column(&bad).is_err());
    }

    #[test]
    fn overflowing_length_claims_are_corrupt_data() {
        // `(1 << 61) * 8` wraps to 0: an unchecked multiply lets the
        // claim past the length guard and into `Vec::with_capacity`.
        let huge = (1u64 << 61).to_le_bytes();
        for tag in [TAG_I64, TAG_F64, TAG_STR, TAG_BOOL] {
            // Validity word count claims 2^61 words.
            let mut bytes = vec![tag];
            bytes.extend_from_slice(&64u64.to_le_bytes());
            bytes.extend_from_slice(&huge);
            bytes.extend_from_slice(&[0u8; 64]);
            let got = decode_column(&bytes);
            assert!(matches!(got, Err(StorageError::CorruptData { codec: "page", .. })), "tag {tag}");
        }
        // Row count claims 2^61 rows over a consistent 2^55 words.
        let mut bytes = vec![TAG_I64];
        bytes.extend_from_slice(&huge);
        bytes.extend_from_slice(&(1u64 << 55).to_le_bytes());
        assert!(matches!(decode_column(&bytes), Err(StorageError::CorruptData { .. })));
        // Bool payload word count claims 2^61 words.
        let mut bytes = encode_column(&Column::from_bool(&[true, false]));
        let at = HEADER_BYTES + 8 + 8;
        bytes[at..at + 8].copy_from_slice(&huge);
        assert!(matches!(decode_column(&bytes), Err(StorageError::CorruptData { .. })));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut bytes = encode_column(&Column::from_str(vec!["ab".into()]));
        // Corrupt the string payload (last two bytes).
        let n = bytes.len();
        bytes[n - 2] = 0xFF;
        bytes[n - 1] = 0xFE;
        assert!(decode_column(&bytes).is_err());
    }
}
