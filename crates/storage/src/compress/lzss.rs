//! LZSS: sliding-window match compression.
//!
//! Standing in for gzip's LZ77 stage in the SPARTAN-style baseline of
//! experiment E4 (no zlib available offline). Greedy longest-match via
//! 4-byte hash chains over a 64 KiB window; matches of 4..=259 bytes.
//!
//! Token format: a flag byte precedes each group of 8 tokens (bit i set
//! → token i is a match). Literal = 1 raw byte. Match = 3 bytes:
//! `len − 4`, then distance as little-endian u16 (1..=65535).

use crate::codec::Reader;

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 259;
const WINDOW: usize = 65_535;
/// Cap on chain walks per position; bounds worst-case compress time.
const MAX_CHAIN: usize = 64;

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(2654435761) >> 16) as usize & 0xFFFF
}

/// Compress a byte stream.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    // Header: original length (needed to size the decode buffer).
    super::varint::put_u64(&mut out, data.len() as u64);
    if data.is_empty() {
        return out;
    }
    // head[h] = most recent position with hash h; prev[i] = previous
    // position in i's chain. usize::MAX = empty.
    let mut head = vec![usize::MAX; 65_536];
    let mut prev = vec![usize::MAX; data.len()];

    let mut flags_at = out.len();
    out.push(0);
    let mut flag_count = 0u8;

    let mut i = 0;
    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= data.len() {
            let h = hash4(data, i);
            let mut cand = head[h];
            let mut chains = 0;
            while cand != usize::MAX && i - cand <= WINDOW && chains < MAX_CHAIN {
                let max_len = (data.len() - i).min(MAX_MATCH);
                let mut l = 0;
                while l < max_len && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - cand;
                    if l == max_len {
                        break;
                    }
                }
                cand = prev[cand];
                chains += 1;
            }
        }

        if flag_count == 8 {
            flags_at = out.len();
            out.push(0);
            flag_count = 0;
        }

        if best_len >= MIN_MATCH {
            out[flags_at] |= 1 << flag_count;
            out.push((best_len - MIN_MATCH) as u8);
            out.extend_from_slice(&(best_dist as u16).to_le_bytes());
            // Insert every covered position into the chains.
            let end = (i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1));
            for j in i..end {
                let h = hash4(data, j);
                prev[j] = head[h];
                head[h] = j;
            }
            i += best_len;
        } else {
            out.push(data[i]);
            if i + MIN_MATCH <= data.len() {
                let h = hash4(data, i);
                prev[i] = head[h];
                head[h] = i;
            }
            i += 1;
        }
        flag_count += 1;
    }
    out
}

/// Decompress a buffer produced by [`compress`].
pub fn decompress(buf: &[u8]) -> crate::Result<Vec<u8>> {
    let mut r = Reader::new("lzss", buf);
    // No input byte yields more than MAX_MATCH output bytes.
    let n = r.varint_u64()?;
    if n > (r.remaining() as u64).saturating_mul(MAX_MATCH as u64) {
        return Err(r.corrupt(format!("implausible length {n}")));
    }
    let n = n as usize;
    let mut out = Vec::with_capacity(n);
    let mut flags = 0u8;
    let mut flag_count = 8u8; // force a flag-byte read first
    while out.len() < n {
        if flag_count == 8 {
            flags = r.u8()?;
            flag_count = 0;
        }
        let is_match = flags & (1 << flag_count) != 0;
        flag_count += 1;
        if is_match {
            let token = r.take(3, "match token")?;
            let len = token[0] as usize + MIN_MATCH;
            let dist = u16::from_le_bytes([token[1], token[2]]) as usize;
            if dist == 0 || dist > out.len() {
                return Err(r.corrupt("match distance out of range"));
            }
            if out.len() + len > n {
                return Err(r.corrupt("match overruns declared length"));
            }
            // Byte-by-byte copy: overlapping matches (dist < len) are
            // legal and meaningful, so no memcpy.
            let start = out.len() - dist;
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        } else {
            out.push(r.u8()?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        assert_eq!(decompress(&c).unwrap(), data, "roundtrip failed for {} bytes", data.len());
    }

    #[test]
    fn roundtrips() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abcabcabcabcabcabc");
        roundtrip("ératos —thène — ünïcode bytes".as_bytes());
        roundtrip(&[0u8; 100_000]);
    }

    #[test]
    fn overlapping_match_rle_style() {
        // "aaaa..." exercises dist=1 < len copies.
        let data = vec![b'a'; 1000];
        let c = compress(&data);
        assert!(c.len() < 50, "run should compress hard, got {}", c.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn repetitive_text_compresses() {
        let data: Vec<u8> = "SELECT intensity FROM measurements WHERE source = 42; "
            .repeat(200)
            .into_bytes();
        let c = compress(&data);
        assert!(c.len() * 5 < data.len(), "{} vs {}", c.len(), data.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn pseudo_random_data_roundtrips() {
        let data: Vec<u8> = (0..50_000u64)
            .map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(31) >> 24) as u8)
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn long_range_matches_within_window() {
        // Two identical 10KB blocks 20KB apart: second block should
        // match the first (distance < 64KB window).
        let block: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let mut data = block.clone();
        data.extend(std::iter::repeat_n(7u8, 20_000));
        data.extend_from_slice(&block);
        let c = compress(&data);
        assert!(c.len() < data.len() / 2);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let c = compress(b"hello hello hello hello");
        assert!(decompress(&c[..c.len() - 1]).is_err());
        assert!(decompress(&[]).is_err());
        // Declared length with no body.
        let mut bad = Vec::new();
        super::super::varint::put_u64(&mut bad, 10);
        assert!(decompress(&bad).is_err());
        // Match with distance 0.
        let mut bad2 = Vec::new();
        super::super::varint::put_u64(&mut bad2, 5);
        bad2.push(0b0000_0001); // first token is a match
        bad2.extend_from_slice(&[0, 0, 0]); // len 4, dist 0
        assert!(decompress(&bad2).is_err());
    }
}
