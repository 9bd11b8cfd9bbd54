//! Compression codecs.
//!
//! Two families, mirroring the paper's Section 4.1 comparison (E4):
//!
//! * **Generic** codecs — what a database applies without understanding
//!   the data: the Gorilla-style XOR [`float`] codec and a from-scratch
//!   [`lzss`] + [`huffman`] pipeline standing in for gzip (the SPARTAN
//!   paper's baseline; this environment has no zlib), over
//!   [`varint`]/zigzag integers.
//! * **Semantic** codec — [`residual`]: store only the differences
//!   between model-predicted and observed values. With a well-fitted
//!   model the residual stream is near-zero and compresses far better
//!   than any generic transform, and reconstruction is bit-exact
//!   ("recompute the original dataset without loss of information").
//!
//! Every decoder reads through [`crate::codec::Reader`], the cursor the
//! page, WAL, zonemap, model-catalog and wire decoders share, so each
//! is total on hostile bytes the same way.

pub mod float;
pub mod huffman;
pub mod lzss;
pub mod residual;
pub mod varint;

/// Outcome of compressing one buffer, for benchmark reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionStats {
    /// Input size in bytes.
    pub raw_bytes: usize,
    /// Output size in bytes.
    pub compressed_bytes: usize,
}

impl CompressionStats {
    /// `compressed / raw` — smaller is better; the paper's Table 1
    /// reports ≈ 0.05 for the LOFAR model parameters.
    pub fn ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            return 1.0;
        }
        self.compressed_bytes as f64 / self.raw_bytes as f64
    }
}

/// Compress a byte stream with the deflate-like generic pipeline
/// (LZSS then canonical Huffman). The baseline for experiment E4.
pub fn generic_compress(data: &[u8]) -> Vec<u8> {
    huffman::encode(&lzss::compress(data))
}

/// Inverse of [`generic_compress`].
pub fn generic_decompress(data: &[u8]) -> crate::Result<Vec<u8>> {
    lzss::decompress(&huffman::decode(data)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generic_pipeline_roundtrip() {
        let mut data = Vec::new();
        for i in 0..10_000u32 {
            data.extend_from_slice(&(i / 7).to_le_bytes());
        }
        let c = generic_compress(&data);
        assert!(c.len() < data.len() / 2, "repetitive data should compress well");
        assert_eq!(generic_decompress(&c).unwrap(), data);
    }

    #[test]
    fn generic_pipeline_handles_incompressible_data() {
        // A pseudo-random byte soup: must round-trip even if it grows.
        let data: Vec<u8> = (0..4096u64)
            .map(|i| (i.wrapping_mul(6364136223846793005).rotate_left(17) >> 32) as u8)
            .collect();
        let c = generic_compress(&data);
        assert_eq!(generic_decompress(&c).unwrap(), data);
    }

    #[test]
    fn ratio_math() {
        let s = CompressionStats { raw_bytes: 100, compressed_bytes: 5 };
        assert!((s.ratio() - 0.05).abs() < 1e-12);
        let z = CompressionStats { raw_bytes: 0, compressed_bytes: 0 };
        assert_eq!(z.ratio(), 1.0);
    }
}
