//! Canonical Huffman coding over bytes — the entropy stage of the
//! deflate-like generic baseline.
//!
//! Header: 256 code-length bytes + varint symbol count; body: the
//! bitstream, LSB-first within each byte. Code lengths come from a
//! standard two-queue Huffman construction; canonical code assignment
//! makes the decoder table-driven and the header compact.

use super::varint;
use crate::codec::Reader;
use crate::error::Result;

/// Encode a byte stream.
pub fn encode(data: &[u8]) -> Vec<u8> {
    let mut freq = [0u64; 256];
    for &b in data {
        freq[b as usize] += 1;
    }
    let lengths = code_lengths(&freq);
    let codes = canonical_codes(&lengths);

    let mut out = Vec::with_capacity(data.len() / 2 + 300);
    out.extend_from_slice(&lengths);
    varint::put_u64(&mut out, data.len() as u64);
    let mut acc: u64 = 0;
    let mut nbits: u32 = 0;
    for &b in data {
        let (code, len) = codes[b as usize];
        acc |= (code as u64) << nbits;
        nbits += len as u32;
        while nbits >= 8 {
            out.push((acc & 0xFF) as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        out.push((acc & 0xFF) as u8);
    }
    out
}

/// Decode a buffer produced by [`encode`].
pub fn decode(buf: &[u8]) -> Result<Vec<u8>> {
    let mut r = Reader::new("huffman", buf);
    let lengths: [u8; 256] =
        r.take(256, "code-length table")?.try_into().expect("took 256 bytes");
    // A code fits the decoder's `u32` only up to 32 bits, and lengths
    // over-subscribing the code space (Kraft sum > 1) would overflow
    // the canonical assignment: neither comes from `encode`.
    let kraft: u64 = lengths.iter().filter(|&&l| l > 0).map(|&l| 1u64 << (32 - l.min(32))).sum();
    if lengths.iter().any(|&l| l > 32) || kraft > 1 << 32 {
        return Err(r.corrupt("code lengths do not form a prefix code"));
    }
    let n = r.varint_u64()?;
    let body = r.rest();
    // Every symbol takes at least one bit.
    if n > body.len() as u64 * 8 {
        return Err(r.corrupt(format!("{n} symbols cannot fit {} bytes", body.len())));
    }
    let n = n as usize;
    if n == 0 {
        return Ok(Vec::new());
    }
    let codes = canonical_codes(&lengths);
    // Decoding table: for each (length, canonical code) → symbol. A
    // sorted lookup per length keeps this simple and fast enough for
    // the baseline.
    let mut by_len: Vec<Vec<(u32, u8)>> = vec![Vec::new(); 33];
    for sym in 0..256usize {
        let (code, len) = codes[sym];
        if len > 0 {
            by_len[len as usize].push((code, sym as u8));
        }
    }
    for v in &mut by_len {
        v.sort_unstable();
    }
    let mut out = Vec::with_capacity(n);
    let mut bitpos = 0usize;
    let total_bits = body.len() * 8;
    'outer: while out.len() < n {
        let mut code: u32 = 0;
        for len in 1..=32 {
            if bitpos >= total_bits {
                return Err(r.corrupt("bitstream exhausted mid-symbol"));
            }
            let bit = (body[bitpos / 8] >> (bitpos % 8)) & 1;
            bitpos += 1;
            // Our writer emits code LSB-first, so bit k of the code is
            // the k-th bit read.
            code |= (bit as u32) << (len - 1);
            if let Ok(idx) = by_len[len].binary_search_by_key(&code, |&(c, _)| c) {
                out.push(by_len[len][idx].1);
                continue 'outer;
            }
        }
        return Err(r.corrupt("bits match no code"));
    }
    Ok(out)
}

/// Huffman code lengths from frequencies (two-queue algorithm on a
/// sorted leaf list). Symbols with zero frequency get length 0; a
/// single-symbol alphabet gets length 1.
fn code_lengths(freq: &[u64; 256]) -> [u8; 256] {
    let mut lengths = [0u8; 256];
    let mut nodes: Vec<(u64, usize)> = freq
        .iter()
        .enumerate()
        .filter(|(_, &f)| f > 0)
        .map(|(s, &f)| (f, s))
        .collect();
    match nodes.len() {
        0 => return lengths,
        1 => {
            lengths[nodes[0].1] = 1;
            return lengths;
        }
        _ => {}
    }
    // Tree as parent pointers; leaves 0..k, internals k...
    nodes.sort_unstable();
    let k = nodes.len();
    let mut weight: Vec<u64> = nodes.iter().map(|&(f, _)| f).collect();
    let mut parent: Vec<usize> = vec![usize::MAX; k];
    let mut leaf_q = 0usize; // next unconsumed leaf
    let mut int_q = k; // next unconsumed internal node
    let mut next_int = k;
    while next_int < 2 * k - 1 {
        // Pick the two smallest among remaining leaves and internals.
        let mut picks = [0usize; 2];
        for pick in &mut picks {
            let take_leaf = if leaf_q < k && int_q < next_int {
                weight[leaf_q] <= weight[int_q]
            } else {
                leaf_q < k
            };
            *pick = if take_leaf {
                leaf_q += 1;
                leaf_q - 1
            } else {
                int_q += 1;
                int_q - 1
            };
        }
        weight.push(weight[picks[0]] + weight[picks[1]]);
        parent.push(usize::MAX);
        parent[picks[0]] = next_int;
        parent[picks[1]] = next_int;
        next_int += 1;
    }
    for (i, &(_, sym)) in nodes.iter().enumerate() {
        let mut depth = 0u8;
        let mut node = i;
        while parent[node] != usize::MAX {
            node = parent[node];
            depth += 1;
        }
        lengths[sym] = depth;
    }
    lengths
}

/// Canonical code assignment from lengths; returns `(code, length)` per
/// symbol, with codes stored LSB-first-readable (bit-reversed canonical).
fn canonical_codes(lengths: &[u8; 256]) -> [(u32, u8); 256] {
    let mut codes = [(0u32, 0u8); 256];
    // Sort symbols by (length, symbol).
    let mut order: Vec<usize> = (0..256).filter(|&s| lengths[s] > 0).collect();
    order.sort_by_key(|&s| (lengths[s], s));
    let mut code: u64 = 0;
    let mut prev_len = 0u8;
    for &sym in &order {
        let len = lengths[sym];
        code <<= len - prev_len;
        // Reverse the canonical code's bits so the LSB-first bit writer
        // and reader agree on prefix-freeness.
        let rev = (code as u32).reverse_bits() >> (32 - len as u32);
        codes[sym] = (rev, len);
        code += 1;
        prev_len = len;
    }
    codes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = encode(data);
        assert_eq!(decode(&c).unwrap(), data);
    }

    #[test]
    fn roundtrips() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"aaaaaaaaaa");
        roundtrip(b"abracadabra");
        roundtrip(&(0..=255u8).collect::<Vec<u8>>());
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 90% one symbol → strongly below 8 bits/symbol.
        let mut data = vec![b'x'; 9000];
        data.extend((0..1000u32).map(|i| (i % 256) as u8));
        let c = encode(&data);
        assert!(c.len() < data.len() / 2 + 300, "{} vs {}", c.len(), data.len());
        assert_eq!(decode(&c).unwrap(), data);
    }

    #[test]
    fn uniform_bytes_roundtrip_with_little_gain() {
        let data: Vec<u8> = (0..10_000u64)
            .map(|i| (i.wrapping_mul(0x2545F4914F6CDD1D) >> 56) as u8)
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn long_pathological_tree_roundtrips() {
        // Fibonacci-like frequencies create maximal code-length skew.
        let mut data = Vec::new();
        let mut f = 1u64;
        let mut g = 1u64;
        for sym in 0..20u8 {
            for _ in 0..f.min(100_000) {
                data.push(sym);
            }
            let h = f + g;
            f = g;
            g = h;
        }
        roundtrip(&data);
    }

    #[test]
    fn corrupt_input_errors() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[0u8; 100]).is_err());
        let c = encode(b"hello world hello world");
        assert!(decode(&c[..c.len() - 1]).is_err());
    }

    #[test]
    fn code_lengths_satisfy_kraft() {
        let mut freq = [0u64; 256];
        for (i, f) in freq.iter_mut().enumerate() {
            *f = (i as u64 * 13) % 97;
        }
        let lengths = code_lengths(&freq);
        let kraft: f64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-12, "Kraft inequality violated: {kraft}");
    }
}
