//! Column chunk ⇄ byte serialization for the paged store.
//!
//! A column is serialized into one contiguous byte stream — a small
//! header (type tag, row count, validity length) followed by the
//! validity words and the raw value data — and the pager splits that
//! stream across fixed-size pages. Little-endian throughout.

use crate::bitmap::Bitmap;
use crate::codec::Reader;
use crate::column::Column;
use crate::error::{Result, StorageError};
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

/// The three byte ranges of an encoded fixed-width (Int64/Float64)
/// column stream needed to materialize rows `[row0, row1)`: header,
/// covering validity words, and value data. The pager reads exactly
/// these ranges — pages outside them are never touched, which is what
/// makes zone-map pruning zero-IO at page granularity.
pub fn partial_read_plan(
    total_rows: usize,
    row0: usize,
    row1: usize,
) -> [(usize, usize); 3] {
    debug_assert!(row0 <= row1 && row1 <= total_rows);
    let w0 = row0 / 64;
    let w1 = row1.div_ceil(64);
    let validity = (HEADER_BYTES + w0 * 8, HEADER_BYTES + w1 * 8);
    let data_start = HEADER_BYTES + total_rows.div_ceil(64) * 8;
    [
        (0, HEADER_BYTES),
        validity,
        (data_start + row0 * 8, data_start + row1 * 8),
    ]
}

/// Assemble rows `[row0, row1)` of a fixed-width column from the bytes
/// of a [`partial_read_plan`]. `header`/`validity`/`data` must be the
/// exact ranges the plan named.
pub fn decode_partial_column(
    header: &[u8],
    validity: &[u8],
    data: &[u8],
    total_rows: usize,
    row0: usize,
    row1: usize,
) -> Result<Column> {
    let mut h = Reader::new("page", header);
    let tag = h.u8()?;
    let len = h.u64()? as usize;
    let nwords = h.u64()? as usize;
    if len != total_rows || nwords != len.div_ceil(64) {
        return Err(h.corrupt("header does not match catalog row count"));
    }
    if tag != TAG_I64 && tag != TAG_F64 {
        return Err(StorageError::TypeMismatch {
            op: "partial column read",
            expected: "fixed-width numeric",
            got: if tag == TAG_STR { "Str" } else { "Bool/unknown" },
        });
    }
    let n = row1 - row0;
    let w0 = row0 / 64;
    let nwords = row1.div_ceil(64).saturating_sub(w0);
    if validity.len() != nwords * 8 {
        return Err(h.corrupt("validity byte range does not match plan"));
    }
    let words = Reader::new("page", validity).vec8(nwords, "validity words", u64::from_le_bytes)?;
    let vbits = Bitmap::from_parts(words.len() * 64, words);
    let vslice = if n == 0 {
        Bitmap::new()
    } else {
        vbits.slice(row0 - w0 * 64, n)
    };
    if data.len() != n * 8 {
        return Err(h.corrupt("value byte range does not match plan"));
    }
    let mut d = Reader::new("page", data);
    if tag == TAG_I64 {
        let out = d.vec8(n, "i64 data", i64::from_le_bytes)?;
        Ok(Column::Int64 { data: out.into(), validity: vslice })
    } else {
        let out = d.vec8(n, "f64 data", f64::from_le_bytes)?;
        Ok(Column::Float64 { data: out.into(), validity: vslice })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn partial_decode_matches_full_decode() {
        let cols = [
            Column::from_i64((0..300).collect()),
            Column::from_f64((0..300).map(|i| i as f64 * 0.25).collect()),
            Column::from_f64_opt((0..300).map(|i| (i % 7 != 0).then_some(i as f64)).collect()),
        ];
        for c in &cols {
            let bytes = encode_column(c);
            for &(r0, r1) in &[(0, 300), (0, 0), (1, 2), (60, 70), (63, 65), (128, 300), (299, 300)] {
                let [h, v, d] = partial_read_plan(300, r0, r1);
                let got = decode_partial_column(
                    &bytes[h.0..h.1],
                    &bytes[v.0..v.1],
                    &bytes[d.0..d.1],
                    300,
                    r0,
                    r1,
                )
                .unwrap();
                let want = c.slice(r0, r1 - r0).unwrap();
                assert_eq!(got, want, "rows [{r0},{r1})");
            }
        }
    }

    #[test]
    fn partial_decode_rejects_strings_and_bad_headers() {
        let s = encode_column(&Column::from_str(vec!["a".into(), "b".into()]));
        let [h, v, d] = partial_read_plan(2, 0, 1);
        assert!(decode_partial_column(&s[h.0..h.1], &s[v.0..v.1], &s[d.0..d.1.min(s.len())], 2, 0, 1)
            .is_err());
        let i = encode_column(&Column::from_i64(vec![1, 2]));
        // Catalog says 3 rows but the stream was encoded with 2.
        assert!(decode_partial_column(&i[0..17], &[0u8; 8], &[0u8; 8], 3, 0, 1).is_err());
        assert!(decode_partial_column(&[], &[], &[], 0, 0, 0).is_err());
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
