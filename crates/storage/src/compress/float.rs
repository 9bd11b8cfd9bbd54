//! XOR-previous float codec (Gorilla-style, byte granularity).
//!
//! Each value is XORed with its predecessor; when consecutive floats are
//! close, the sign, exponent and high mantissa bits agree, so the XOR is
//! a *small* u64 and LEB128 shrinks it. This is the strongest *generic*
//! float codec in the suite — the semantic residual codec beats it
//! exactly when the model predicts better than "same as last time".

use super::varint;
use crate::codec::Reader;
use crate::error::Result;

/// Encode an f64 slice.
pub fn encode(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 3 + 9);
    varint::put_u64(&mut out, values.len() as u64);
    let mut prev = 0u64;
    for &v in values {
        let bits = v.to_bits();
        varint::put_u64(&mut out, bits ^ prev);
        prev = bits;
    }
    out
}

/// Decode a buffer produced by [`encode`].
pub fn decode(buf: &[u8]) -> Result<Vec<f64>> {
    let mut r = Reader::new("float-xor", buf);
    // Every value takes at least one varint byte.
    let n = r.varint_u64()?;
    let n = r.claim(n, 1, "value")?;
    let mut out = Vec::with_capacity(n);
    let mut prev = 0u64;
    for _ in 0..n {
        prev ^= r.varint_u64()?;
        out.push(f64::from_bits(prev));
    }
    r.end()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_exact_including_specials() {
        let values = vec![0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE, -1e300];
        let back = decode(&encode(&values)).unwrap();
        assert_eq!(back.len(), values.len());
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-exact roundtrip");
        }
    }

    #[test]
    fn constant_series_is_tiny() {
        let values = vec![std::f64::consts::PI; 10_000];
        let enc = encode(&values);
        // First value ~10 bytes, every subsequent xor is 0 → 1 byte.
        assert!(enc.len() < 10_050, "got {}", enc.len());
    }

    #[test]
    fn slowly_varying_beats_raw() {
        let values: Vec<f64> = (0..10_000).map(|i| 1000.0 + (i as f64) * 1e-8).collect();
        let enc = encode(&values);
        assert!(enc.len() < values.len() * 8, "{} vs {}", enc.len(), values.len() * 8);
    }

    #[test]
    fn empty_roundtrip() {
        assert_eq!(decode(&encode(&[])).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn truncation_detected() {
        let enc = encode(&[1.0, 2.0]);
        assert!(decode(&enc[..enc.len() - 1]).is_err());
    }
}
