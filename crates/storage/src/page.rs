//! Column ⇄ byte serialization: the one column layout.
//!
//! A column is serialized into one contiguous byte stream — a small
//! header (type tag, row count, validity word count) followed by the
//! validity words and the raw value data (a Bool column's data is words
//! too). The durable store ([`crate::wal::DurableStore`]) splits that
//! stream across fixed-size pages, and the server's wire protocol
//! writes the same bytes into a result frame. Little-endian throughout.

use crate::bitmap::Bitmap;
use crate::codec::{put_str, type_tag, Reader};
use crate::column::Column;
use crate::error::Result;
use crate::schema::DataType;

/// Size of the fixed stream header (tag + row count + validity words).
pub const HEADER_BYTES: usize = 17;

fn put_words(out: &mut Vec<u8>, bits: &Bitmap) {
    let (len, words) = bits.to_parts();
    out.extend_from_slice(&(len as u64).to_le_bytes());
    out.extend_from_slice(&(words.len() as u64).to_le_bytes());
    for &w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Append a column's stream to `out`.
pub fn put_column(out: &mut Vec<u8>, col: &Column) {
    out.reserve(col.byte_size() + 64);
    out.push(type_tag(col.data_type()));
    put_words(out, col.validity());
    match col {
        Column::Int64 { data, .. } => {
            for &v in data.iter() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Column::Float64 { data, .. } => {
            for &v in data.iter() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Column::Str { data, .. } => {
            for s in data.iter() {
                put_str(out, s);
            }
        }
        Column::Bool { data, .. } => put_words(out, data),
    }
}

/// Serialize a column into bytes.
pub fn encode_column(col: &Column) -> Vec<u8> {
    let mut out = Vec::new();
    put_column(&mut out, col);
    out
}

/// A bitmap written by `put_words`, of `rows` bits when given. Bits
/// past the length must be clear, so every bitmap has one encoding.
fn read_words(r: &mut Reader<'_>, rows: Option<usize>, what: &str) -> Result<Bitmap> {
    let len = r.u64()? as usize;
    let nwords = r.u64()? as usize;
    let words = r.vec8(nwords, what, u64::from_le_bytes)?;
    if nwords != len.div_ceil(64) || rows.is_some_and(|rows| rows != len) {
        return Err(r.corrupt(format!("{what} do not match the row count")));
    }
    if words.last().is_some_and(|&w| !len.is_multiple_of(64) && w >> (len % 64) != 0) {
        return Err(r.corrupt(format!("{what} set bits past the row count")));
    }
    Ok(Bitmap::from_parts(len, words))
}

/// Read one column written by [`put_column`]. Total on untrusted bytes:
/// every length claim is checked against the stream before anything is
/// allocated.
pub fn read_column(r: &mut Reader<'_>) -> Result<Column> {
    let dtype = r.data_type()?;
    let validity = read_words(r, None, "validity words")?;
    let len = validity.len();
    Ok(match dtype {
        DataType::Int64 => {
            let data = r.vec8(len, "i64 data", i64::from_le_bytes)?;
            Column::Int64 { data: data.into(), validity }
        }
        DataType::Float64 => {
            let data = r.vec8(len, "f64 data", f64::from_le_bytes)?;
            Column::Float64 { data: data.into(), validity }
        }
        DataType::Str => {
            // Every string needs at least its 4-byte length prefix.
            let mut data = Vec::with_capacity(r.claim(len as u64, 4, "string")?);
            for _ in 0..len {
                data.push(r.str_u32("string")?);
            }
            Column::Str { data: data.into(), validity }
        }
        DataType::Bool => {
            let data = read_words(r, Some(len), "bool words")?;
            Column::Bool { data, validity }
        }
    })
}

/// Deserialize a column from exactly the bytes [`encode_column`]
/// produced.
pub fn decode_column(bytes: &[u8]) -> Result<Column> {
    let mut r = Reader::new("page", bytes);
    let col = read_column(&mut r)?;
    r.end()?;
    Ok(col)
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
        // A validity bit past the three rows, and a trailing byte: each
        // column has exactly one encoding.
        let mut bad = good.clone();
        bad[HEADER_BYTES] |= 1 << 3;
        assert!(decode_column(&bad).is_err());
        let mut bad = good.clone();
        bad.push(0);
        assert!(decode_column(&bad).is_err());
    }

    #[test]
    fn overflowing_length_claims_are_corrupt_data() {
        // `(1 << 61) * 8` wraps to 0: an unchecked multiply lets the
        // claim past the length guard and into `Vec::with_capacity`.
        let huge = (1u64 << 61).to_le_bytes();
        for tag in 1..=4u8 {
            // Validity word count claims 2^61 words.
            let mut bytes = vec![tag];
            bytes.extend_from_slice(&64u64.to_le_bytes());
            bytes.extend_from_slice(&huge);
            bytes.extend_from_slice(&[0u8; 64]);
            let got = decode_column(&bytes);
            assert!(matches!(got, Err(StorageError::CorruptData { codec: "page", .. })), "tag {tag}");
        }
        // Row count claims 2^61 rows over a consistent 2^55 words.
        let mut bytes = vec![type_tag(DataType::Int64)];
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
