//! Legal parameter combinations via a Bloom filter.
//!
//! Parameter-space enumeration can produce `(source, ν)` combinations
//! that never occurred in the base data — "we would violate relational
//! semantics due to additional results that were not in the original
//! data set" (Section 4.2). The paper proposes two remedies: a
//! user-supplied filter function (implemented as
//! `CapturedModel::legal_filter`) and "a compressed lookup structure
//! (e.g. Bloom filters) to encode all legal parameter combinations" —
//! implemented here from scratch.

/// A classic Bloom filter over 64-bit element hashes, using
/// double hashing (Kirsch–Mitzenmacher) to derive k probe positions.
/// Two filters are equal when they hold the same bits, shape and count.
#[derive(Debug, Clone, PartialEq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    nbits: u64,
    k: u32,
    items: usize,
}

impl BloomFilter {
    /// Size a filter for `expected_items` at the given false-positive
    /// rate (clamped to [1e-9, 0.5]).
    pub fn with_rate(expected_items: usize, fp_rate: f64) -> BloomFilter {
        let n = expected_items.max(1) as f64;
        let p = fp_rate.clamp(1e-9, 0.5);
        let ln2 = std::f64::consts::LN_2;
        let nbits = (-(n * p.ln()) / (ln2 * ln2)).ceil().max(64.0) as u64;
        let k = ((nbits as f64 / n) * ln2).round().clamp(1.0, 30.0) as u32;
        BloomFilter { bits: vec![0; nbits.div_ceil(64) as usize], nbits, k, items: 0 }
    }

    /// Filter with an explicit bits-per-key budget (the E9 sweep).
    pub fn with_bits_per_key(expected_items: usize, bits_per_key: usize) -> BloomFilter {
        let nbits = (expected_items.max(1) * bits_per_key.max(1)).max(64) as u64;
        BloomFilter::with_bits(nbits, bits_per_key)
    }

    /// Filter with a bits-per-key budget, its bit count rounded up to a
    /// power of two: the filters of every row count up to that power
    /// have one shape, so such a filter grows with its rows by
    /// insertion alone ([`BloomFilter::has_power_of_two_shape`]).
    pub fn with_power_of_two_bits(expected_items: usize, bits_per_key: usize) -> BloomFilter {
        BloomFilter::with_bits(power_of_two_bits(expected_items, bits_per_key), bits_per_key)
    }

    /// Whether this filter has the shape
    /// [`BloomFilter::with_power_of_two_bits`] gives `expected_items`.
    pub fn has_power_of_two_shape(&self, expected_items: usize, bits_per_key: usize) -> bool {
        let shape = (power_of_two_bits(expected_items, bits_per_key), probes(bits_per_key));
        (self.nbits, self.k) == shape
    }

    fn with_bits(nbits: u64, bits_per_key: usize) -> BloomFilter {
        let k = probes(bits_per_key);
        BloomFilter { bits: vec![0; nbits.div_ceil(64) as usize], nbits, k, items: 0 }
    }

    /// Insert an element hash.
    pub fn insert(&mut self, hash: u64) {
        let (h1, h2) = split_hash(hash);
        for i in 0..self.k {
            let pos = self.probe(h1, h2, i);
            self.bits[(pos / 64) as usize] |= 1 << (pos % 64);
        }
        self.items += 1;
    }

    /// Insert one entry per observed (group, variables…) row: row `i`
    /// is `groups`' item `i` with item `i` of each input column. A row
    /// whose group key is `None` (NULL) belongs to no group and adds
    /// nothing. Insertion ORs bits in, so inserting a table's rows in
    /// two parts sets the bits inserting them at once does.
    pub fn insert_rows(
        &mut self,
        groups: impl Iterator<Item = Option<i64>>,
        input_columns: &[&[f64]],
    ) {
        let mut point = vec![0.0; input_columns.len()];
        for (row, group) in groups.enumerate() {
            let Some(group) = group else { continue };
            for (d, c) in input_columns.iter().enumerate() {
                point[d] = c[row];
            }
            self.insert(combo_hash(group, &point));
        }
    }

    /// Membership test: false means *definitely absent*; true means
    /// probably present.
    pub fn contains(&self, hash: u64) -> bool {
        let (h1, h2) = split_hash(hash);
        (0..self.k).all(|i| {
            let pos = self.probe(h1, h2, i);
            self.bits[(pos / 64) as usize] & (1 << (pos % 64)) != 0
        })
    }

    /// Probe `i`'s bit position: a mask when the bit count is a power
    /// of two, which is the same position as the remainder.
    fn probe(&self, h1: u64, h2: u64, i: u32) -> u64 {
        let h = h1.wrapping_add(h2.wrapping_mul(i as u64));
        if self.nbits.is_power_of_two() {
            h & (self.nbits - 1)
        } else {
            h % self.nbits
        }
    }

    /// Elements inserted.
    pub fn len(&self) -> usize {
        self.items
    }

    /// True when nothing was inserted.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Size of the bit array in bytes.
    pub fn byte_size(&self) -> usize {
        self.bits.len() * 8
    }

    /// Empirically measure the false-positive rate against a probe set
    /// known to be absent.
    pub fn measure_fp_rate(&self, absent_hashes: &[u64]) -> f64 {
        if absent_hashes.is_empty() {
            return 0.0;
        }
        let fp = absent_hashes.iter().filter(|&&h| self.contains(h)).count();
        fp as f64 / absent_hashes.len() as f64
    }
}

fn split_hash(hash: u64) -> (u64, u64) {
    // Finalize with splitmix64 so weak input hashes still spread.
    let mut z = hash.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    (z, z.rotate_left(32) | 1)
}

/// Probes per element at `bits_per_key` bits per element: `bits_per_key
/// · ln 2`, the count that minimises false positives.
fn probes(bits_per_key: usize) -> u32 {
    ((bits_per_key as f64) * std::f64::consts::LN_2).round().clamp(1.0, 30.0) as u32
}

/// `expected_items × bits_per_key` bits, at least 64, rounded up to a
/// power of two.
fn power_of_two_bits(expected_items: usize, bits_per_key: usize) -> u64 {
    ((expected_items.max(1) * bits_per_key.max(1)).max(64) as u64).next_power_of_two()
}

/// Hash a legal parameter combination: group key + input values. Floats
/// hash by bit pattern, matching the equality semantics of enumeration
/// (domains are enumerated from the exact stored values).
pub fn combo_hash(group: i64, inputs: &[f64]) -> u64 {
    let mut h = 0xcbf29ce484222325u64; // FNV-1a
    for byte in group.to_le_bytes() {
        h = (h ^ byte as u64).wrapping_mul(0x100000001b3);
    }
    for v in inputs {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Build the legal-combination filter for a table at `bits_per_key`
/// bits per row ([`BloomFilter::with_bits_per_key`], the E9 sweep's
/// sizing): one entry per observed (group, variables…) row, as
/// [`BloomFilter::insert_rows`] adds them.
pub fn build_legal_filter(
    groups: impl ExactSizeIterator<Item = Option<i64>>,
    input_columns: &[&[f64]],
    bits_per_key: usize,
) -> BloomFilter {
    let mut bf = BloomFilter::with_bits_per_key(groups.len(), bits_per_key);
    bf.insert_rows(groups, input_columns);
    bf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut bf = BloomFilter::with_rate(1000, 0.01);
        for i in 0..1000u64 {
            bf.insert(combo_hash(i as i64, &[i as f64 * 0.5]));
        }
        for i in 0..1000u64 {
            assert!(bf.contains(combo_hash(i as i64, &[i as f64 * 0.5])), "item {i}");
        }
        assert_eq!(bf.len(), 1000);
    }

    #[test]
    fn fp_rate_near_target() {
        let mut bf = BloomFilter::with_rate(10_000, 0.01);
        for i in 0..10_000u64 {
            bf.insert(combo_hash(i as i64, &[]));
        }
        let absent: Vec<u64> =
            (0..20_000u64).map(|i| combo_hash((i + 1_000_000) as i64, &[])).collect();
        let fp = bf.measure_fp_rate(&absent);
        assert!(fp < 0.03, "fp rate {fp} should be near 1%");
    }

    #[test]
    fn more_bits_per_key_means_fewer_false_positives() {
        let absent: Vec<u64> =
            (0..20_000u64).map(|i| combo_hash((i + 9_000_000) as i64, &[])).collect();
        let mut rates = Vec::new();
        for bpk in [4usize, 8, 12, 16] {
            let mut bf = BloomFilter::with_bits_per_key(5000, bpk);
            for i in 0..5000u64 {
                bf.insert(combo_hash(i as i64, &[]));
            }
            rates.push(bf.measure_fp_rate(&absent));
        }
        // Monotone (with slack for noise at the tiny end).
        assert!(rates[0] > rates[2], "{rates:?}");
        assert!(rates[3] < 0.01, "{rates:?}");
    }

    #[test]
    fn combo_hash_distinguishes_structure() {
        // (1, [2.0]) vs (2, [1.0]) must differ; order matters.
        assert_ne!(combo_hash(1, &[2.0]), combo_hash(2, &[1.0]));
        assert_ne!(combo_hash(1, &[1.0, 2.0]), combo_hash(1, &[2.0, 1.0]));
        assert_eq!(combo_hash(5, &[0.12]), combo_hash(5, &[0.12]));
    }

    #[test]
    fn build_from_columns() {
        let groups = [Some(1i64), Some(1), Some(2), None];
        let nu = [0.12, 0.15, 0.12, 0.18];
        let bf = build_legal_filter(groups.into_iter(), &[&nu], 10);
        assert!(bf.contains(combo_hash(1, &[0.12])));
        assert!(bf.contains(combo_hash(2, &[0.12])));
        assert_eq!(bf.len(), 3, "a NULL key is no combination");
        // (2, 0.15) never occurred; overwhelmingly likely to be absent
        // at 10 bits/key with 3 items.
        assert!(!bf.contains(combo_hash(2, &[0.15])));
    }

    #[test]
    fn a_filter_grown_by_its_new_rows_is_the_filter_of_every_row() {
        let groups: Vec<Option<i64>> = (0..300).map(|i| (i % 7 != 3).then_some(i % 41)).collect();
        let nu: Vec<f64> = (0..300).map(|i| [0.12, 0.15, 0.16, 0.18][i % 4]).collect();
        let built = |rows: usize| {
            let mut bf = BloomFilter::with_power_of_two_bits(rows, 10);
            bf.insert_rows(groups[..rows].iter().copied(), &[&nu[..rows]]);
            bf
        };
        // 210 rows at 10 bits per row round up to 4,096 bits, which hold
        // up to 409 rows: every count from 205 to 300 has that shape.
        let mut grown = built(210);
        assert!(grown.has_power_of_two_shape(300, 10) && grown.has_power_of_two_shape(205, 10));
        assert!(!grown.has_power_of_two_shape(410, 10) && !grown.has_power_of_two_shape(204, 10));
        grown.insert_rows(groups[210..].iter().copied(), &[&nu[210..]]);
        assert_eq!(grown, built(300));
        assert_eq!(grown.byte_size(), 4096 / 8);
        assert_ne!(grown, built(299), "one row more is another filter");
        // A masked probe finds what it inserted.
        let found =
            |(g, &v): (&Option<i64>, &f64)| g.is_none_or(|g| grown.contains(combo_hash(g, &[v])));
        assert!(groups.iter().zip(&nu).all(found));
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let bf = BloomFilter::with_rate(10, 0.01);
        assert!(bf.is_empty());
        assert!(!bf.contains(combo_hash(1, &[1.0])));
    }
}
