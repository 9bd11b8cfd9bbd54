//! CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).
//!
//! The durability layer checksums every WAL record, superblock and data
//! blob so recovery can tell a torn or bit-flipped write from a good
//! one. Implemented from scratch (offline build, no `crc` crate) with
//! compile-time lookup tables; CRC-32 detects all single-bit errors and
//! every burst error up to 32 bits, which covers the fault models the
//! crash-matrix harness injects.
//!
//! The kernel is slicing-by-8: eight tables, where `TABLES[k][b]` is the
//! CRC contribution of byte `b` followed by `k` zero bytes, fold eight
//! input bytes per step with eight independent lookups instead of eight
//! dependent ones. The tail (fewer than eight bytes) runs bytewise
//! through `TABLES[0]`, the classic table.

/// Slicing-by-8 lookup tables, built at compile time.
const TABLES: [[u32; 256]; 8] = make_tables();

const fn make_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    t
}

/// CRC-32 of `bytes` (init `0xFFFFFFFF`, final xor `0xFFFFFFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop the sliced kernel must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn known_vectors() {
        // The standard check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sliced_kernel_equals_the_bytewise_definition() {
        // xorshift64*: deterministic bytes without a dependency.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let buf: Vec<u8> = (0..4096).map(|_| next() as u8).collect();
        // Every length 0..=64, so every tail length meets every chunk count.
        for len in 0..=64 {
            assert_eq!(crc32(&buf[..len]), crc32_bytewise(&buf[..len]), "len {len}");
        }
        // Random unaligned windows.
        for _ in 0..500 {
            let start = (next() % 4096) as usize;
            let len = (next() % (4096 - start as u64 + 1)) as usize;
            let window = &buf[start..start + len];
            assert_eq!(crc32(window), crc32_bytewise(window), "[{start}, +{len})");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let base = b"the laws of data nature".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn zero_runs_are_distinguished_from_empty() {
        assert_ne!(crc32(&[0u8; 16]), crc32(&[0u8; 17]));
        assert_ne!(crc32(&[0u8; 16]), 0);
    }
}
