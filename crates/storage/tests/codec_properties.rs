//! Property tests over the byte codecs: round-trips for arbitrary
//! inputs, including adversarial edge values. What they do with hostile
//! bytes is the root `tests/hostile_bytes.rs` driver's job.

use lawsdb_storage::codec::Reader;
use lawsdb_storage::compress::{float, huffman, lzss, varint};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn varint_u64_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        varint::put_u64(&mut buf, v);
        let mut r = Reader::new("varint", &buf);
        prop_assert_eq!(r.varint_u64().unwrap(), v);
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn varint_i64_roundtrip(v in any::<i64>()) {
        let mut buf = Vec::new();
        varint::put_i64(&mut buf, v);
        prop_assert_eq!(Reader::new("varint", &buf).varint_i64().unwrap(), v);
    }

    #[test]
    fn float_xor_roundtrip(values in prop::collection::vec(any::<f64>(), 0..300)) {
        let back = float::decode(&float::encode(&values)).unwrap();
        prop_assert_eq!(back.len(), values.len());
        for (a, b) in back.iter().zip(&values) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn huffman_roundtrip(data in prop::collection::vec(any::<u8>(), 0..3000)) {
        prop_assert_eq!(huffman::decode(&huffman::encode(&data)).unwrap(), data);
    }

    #[test]
    fn lzss_roundtrip(data in prop::collection::vec(any::<u8>(), 0..3000)) {
        prop_assert_eq!(lzss::decompress(&lzss::compress(&data)).unwrap(), data);
    }
}
