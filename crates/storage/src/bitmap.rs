//! Validity bitmap: one bit per row, set = valid (non-null).

use std::sync::Arc;

/// A growable bitmap, LSB-first within each word.
///
/// The word storage is `Arc`'d so cloning a bitmap (e.g. cloning a
/// column's validity during a zero-copy `Scan`) is O(1); mutation is
/// copy-on-write through `Arc::make_mut`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitmap {
    words: Arc<Vec<u64>>,
    len: usize,
}

impl Bitmap {
    /// Empty bitmap.
    pub fn new() -> Self {
        Bitmap::default()
    }

    /// Bitmap of `len` bits, all set to `value`.
    pub fn filled(len: usize, value: bool) -> Self {
        let nwords = len.div_ceil(64);
        let word = if value { u64::MAX } else { 0 };
        let mut b = Bitmap { words: Arc::new(vec![word; nwords]), len };
        b.mask_tail();
        b
    }

    /// Bitmap of `len` bits where bit `i` is `f(i)`. Builds whole words
    /// locally, so it is the preferred constructor inside kernels (no
    /// per-bit copy-on-write checks).
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut words = vec![0u64; len.div_ceil(64)];
        for i in 0..len {
            if f(i) {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        Bitmap { words: Arc::new(words), len }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one bit.
    pub fn push(&mut self, value: bool) {
        let word = self.len / 64;
        let bit = self.len % 64;
        let words = Arc::make_mut(&mut self.words);
        if word == words.len() {
            words.push(0);
        }
        if value {
            words[word] |= 1 << bit;
        }
        self.len += 1;
    }

    /// Append every bit of `other`. In place when this bitmap solely
    /// owns its words (amortised `Vec` growth); otherwise the words are
    /// copied once into room for the result.
    pub fn extend(&mut self, other: &Bitmap) {
        let need = (self.len + other.len).div_ceil(64);
        if Arc::get_mut(&mut self.words).is_none() {
            let mut words = Vec::with_capacity(need);
            words.extend_from_slice(&self.words);
            self.words = Arc::new(words);
        }
        let words = Arc::get_mut(&mut self.words).expect("unshared above");
        words.reserve(need.saturating_sub(words.len()));
        for i in 0..other.len {
            let at = self.len + i;
            if at / 64 == words.len() {
                words.push(0);
            }
            if other.get(i) {
                words[at / 64] |= 1 << (at % 64);
            }
        }
        self.len += other.len;
    }

    /// True when no other bitmap shares these words, so
    /// [`Bitmap::extend`] grows them in place.
    pub(crate) fn is_unique(&self) -> bool {
        Arc::strong_count(&self.words) == 1 && Arc::weak_count(&self.words) == 0
    }

    /// Read bit `i`; panics when out of range.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range ({} bits)", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i` to `value`; panics when out of range.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit {i} out of range ({} bits)", self.len);
        let words = Arc::make_mut(&mut self.words);
        if value {
            words[i / 64] |= 1 << (i % 64);
        } else {
            words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Number of set bits.
    pub fn count_set(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of set bits among `[start, end)`, a word at a time.
    pub fn count_set_in(&self, start: usize, end: usize) -> usize {
        assert!(start <= end && end <= self.len, "bits [{start}, {end}) out of range");
        let mut count = 0;
        let mut at = start;
        while at < end {
            let (word, bit) = (at / 64, at % 64);
            let take = (64 - bit).min(end - at);
            let mask = if take == 64 { u64::MAX } else { ((1u64 << take) - 1) << bit };
            count += (self.words[word] & mask).count_ones() as usize;
            at += take;
        }
        count
    }

    /// True when every bit is set (an all-valid column can skip null
    /// checks on the scan fast path).
    pub fn all_set(&self) -> bool {
        self.count_set() == self.len
    }

    /// Bitwise AND of two equal-length bitmaps.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let words =
            self.words.iter().zip(other.words.iter()).map(|(a, b)| a & b).collect();
        Bitmap { words: Arc::new(words), len: self.len }
    }

    /// Bitwise OR of two equal-length bitmaps.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let words =
            self.words.iter().zip(other.words.iter()).map(|(a, b)| a | b).collect();
        Bitmap { words: Arc::new(words), len: self.len }
    }

    /// Bits set in `self` but not in `other` (`self AND NOT other`).
    pub fn and_not(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let words =
            self.words.iter().zip(other.words.iter()).map(|(a, b)| a & !b).collect();
        Bitmap { words: Arc::new(words), len: self.len }
    }

    /// Bits `[offset, offset + len)` as a new bitmap. Word-level
    /// shift-copy: O(len/64), used when splitting columns into morsels.
    pub fn slice(&self, offset: usize, len: usize) -> Bitmap {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len),
            "bitmap slice [{offset}, {offset}+{len}) out of range ({} bits)",
            self.len
        );
        let shift = offset % 64;
        let first = offset / 64;
        let nwords = len.div_ceil(64);
        let mut words = Vec::with_capacity(nwords);
        for i in 0..nwords {
            let lo = self.words.get(first + i).copied().unwrap_or(0) >> shift;
            let hi = if shift == 0 {
                0
            } else {
                self.words.get(first + i + 1).copied().unwrap_or(0) << (64 - shift)
            };
            words.push(lo | hi);
        }
        let mut b = Bitmap { words: Arc::new(words), len };
        b.mask_tail();
        b
    }

    /// Iterator over the indices of set bits.
    pub fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let len = self.len;
            let mut w = w;
            std::iter::from_fn(move || {
                while w != 0 {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    let idx = wi * 64 + bit;
                    if idx < len {
                        return Some(idx);
                    }
                }
                None
            })
        })
    }

    /// Clear bits beyond `len` so whole-word operations stay exact.
    fn mask_tail(&mut self) {
        let tail_bits = self.len % 64;
        if tail_bits != 0 {
            if let Some(last) = Arc::make_mut(&mut self.words).last_mut() {
                *last &= (1u64 << tail_bits) - 1;
            }
        }
    }

    /// Serialize to `(len, words)`, used by the page layer.
    pub fn to_parts(&self) -> (usize, &[u64]) {
        (self.len, &self.words)
    }

    /// Rebuild from serialized parts.
    pub fn from_parts(len: usize, words: Vec<u64>) -> Self {
        let mut b = Bitmap { words: Arc::new(words), len };
        b.mask_tail();
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_set_roundtrip() {
        let mut b = Bitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        for i in 0..130 {
            assert_eq!(b.get(i), i % 3 == 0, "bit {i}");
        }
        b.set(1, true);
        assert!(b.get(1));
        b.set(0, false);
        assert!(!b.get(0));
    }

    #[test]
    fn filled_and_counts() {
        let t = Bitmap::filled(100, true);
        assert_eq!(t.count_set(), 100);
        assert!(t.all_set());
        let f = Bitmap::filled(100, false);
        assert_eq!(f.count_set(), 0);
        assert!(!f.all_set());
        assert!(Bitmap::filled(0, true).all_set()); // vacuously
    }

    #[test]
    fn filled_true_masks_tail_bits() {
        // 65 bits: second word must only have 1 bit set.
        let t = Bitmap::filled(65, true);
        assert_eq!(t.count_set(), 65);
    }

    #[test]
    fn and_intersects() {
        let mut a = Bitmap::new();
        let mut b = Bitmap::new();
        for i in 0..10 {
            a.push(i % 2 == 0);
            b.push(i % 3 == 0);
        }
        let c = a.and(&b);
        let set: Vec<usize> = c.iter_set().collect();
        assert_eq!(set, vec![0, 6]);
    }

    #[test]
    fn iter_set_crosses_word_boundaries() {
        let mut b = Bitmap::filled(200, false);
        for &i in &[0, 63, 64, 127, 128, 199] {
            b.set(i, true);
        }
        let got: Vec<usize> = b.iter_set().collect();
        assert_eq!(got, vec![0, 63, 64, 127, 128, 199]);
    }

    #[test]
    fn or_and_not() {
        let mut a = Bitmap::new();
        let mut b = Bitmap::new();
        for i in 0..10 {
            a.push(i % 2 == 0);
            b.push(i % 3 == 0);
        }
        assert_eq!(a.or(&b).iter_set().collect::<Vec<_>>(), vec![0, 2, 3, 4, 6, 8, 9]);
        assert_eq!(a.and_not(&b).iter_set().collect::<Vec<_>>(), vec![2, 4, 8]);
    }

    #[test]
    fn slice_at_arbitrary_offsets() {
        let mut b = Bitmap::new();
        for i in 0..200 {
            b.push(i % 7 == 0);
        }
        for &(offset, len) in &[(0, 200), (1, 64), (63, 65), (64, 64), (100, 0), (130, 70)] {
            let s = b.slice(offset, len);
            assert_eq!(s.len(), len);
            for i in 0..len {
                assert_eq!(s.get(i), b.get(offset + i), "offset {offset} bit {i}");
            }
        }
    }

    #[test]
    fn extend_appends_in_place_or_copies_once() {
        let bits = |n: usize, f: fn(usize) -> bool| Bitmap::from_fn(n, f);
        for (a, b) in [(0, 5), (63, 2), (64, 64), (70, 130), (5, 0)] {
            let mut x = bits(a, |i| i % 3 == 0);
            let shared = x.clone();
            x.extend(&bits(b, |i| i % 5 != 1));
            let want = Bitmap::from_fn(a + b, |i| {
                if i < a { i % 3 == 0 } else { (i - a) % 5 != 1 }
            });
            assert_eq!(x, want, "{a} + {b}");
            assert_eq!(shared.len(), a, "the shared copy is untouched");
            for end in 0..=x.len() {
                for start in [0, end / 2, end] {
                    let naive = (start..end).filter(|&i| x.get(i)).count();
                    assert_eq!(x.count_set_in(start, end), naive, "[{start}, {end})");
                }
            }
        }
        let mut owned = bits(10, |_| true);
        assert!(owned.is_unique());
        let ptr = owned.words.as_ptr();
        owned.extend(&bits(1, |_| false));
        assert!(!owned.get(10));
        assert_eq!(owned.words.as_ptr(), ptr, "an unshared bitmap grows in place");
    }

    #[test]
    fn clone_is_shared_until_mutated() {
        let mut a = Bitmap::filled(100, true);
        let b = a.clone();
        a.set(5, false);
        assert!(!a.get(5));
        assert!(b.get(5), "clone must not observe copy-on-write mutation");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        Bitmap::filled(3, true).get(3);
    }

    #[test]
    fn parts_roundtrip() {
        let mut b = Bitmap::new();
        for i in 0..77 {
            b.push(i % 5 == 1);
        }
        let (len, words) = b.to_parts();
        let b2 = Bitmap::from_parts(len, words.to_vec());
        assert_eq!(b, b2);
    }
}
