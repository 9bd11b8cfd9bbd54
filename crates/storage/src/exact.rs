//! Exactly-rounded floating-point summation.
//!
//! [`ExactSum`] is R. M. Neal's *small superaccumulator* ("Fast exact
//! summation using small and large superaccumulators", arXiv:1505.05571):
//! the sum of a set of f64 values is kept as an exact fixed-point integer
//! and rounded to f64 once, half-to-even, when it is read. The result is
//! the correctly rounded exact sum, so it is a function of the multiset
//! of inputs alone: any order, any split into partials and any merge
//! tree give the same bits.
//!
//! **Layout.** Bit `i` of the integer weighs `2^(i - 1074)`, so bit 0 is
//! the smallest subnormal. The integer is cut into 32-bit *chunks*, each
//! held in its own `i64`: chunk `j` holds bits `32j .. 32j + 32` plus a
//! signed excess. An input's 53-bit significand lands in two chunks —
//! its low 32 bits (after the shift to its exponent) in one, the rest in
//! the next — and an add never carries; carries move up lazily, once
//! every `CARRY_EVERY` adds, long before an `i64` could overflow.
//! `FULL_CHUNKS` chunks cover every finite double plus one chunk of
//! carry room above `f64::MAX`.
//!
//! **Inline window.** Most sums stay inside a narrow exponent range, so
//! an accumulator holds `WINDOW` chunks (64 B) inline, placed around the
//! first value it sees. An input whose chunks fall outside the window
//! spills the accumulator to the full width on the heap.
//!
//! **Specials.** ±inf and NaN inputs set flags beside the chunks: a NaN,
//! or both infinities, reads as NaN; one infinity reads as itself. A
//! finite sum that rounds past `f64::MAX` reads as ±inf, and an exact
//! zero reads as `+0.0`.

/// Chunks spanning bit 0 (2^-1074) to past the top of `f64::MAX`
/// (2^1024), plus one chunk that only ever receives carries.
const FULL_CHUNKS: usize = 67;
/// Inline chunks: 64 bytes.
const WINDOW: usize = 8;
/// Bits of the integer each chunk owns.
const CHUNK_BITS: u32 = 32;
/// Adds between carry passes. An add puts less than 2^53 into a chunk,
/// and a merge adds two accumulators' chunks, so chunks stay below 2^63.
const CARRY_EVERY: u32 = 1 << 8;
/// `base` of an accumulator that has not placed its window yet.
const UNPLACED: u8 = u8::MAX;
const POS_INF: u8 = 1;
const NEG_INF: u8 = 2;
const NAN: u8 = 4;

/// An exactly-rounded sum of f64 values (see the module docs).
#[derive(Debug, Clone)]
pub struct ExactSum {
    /// Chunks `base .. base + WINDOW`, unless spilled.
    window: [i64; WINDOW],
    /// All chunks, once an input fell outside the window.
    full: Option<Box<[i64; FULL_CHUNKS]>>,
    /// Absolute index of `window[0]`; `UNPLACED` before the first value
    /// and after a spill.
    base: u8,
    /// Adds since the last carry pass.
    pending: u32,
    /// `POS_INF | NEG_INF | NAN` flags.
    special: u8,
}

impl Default for ExactSum {
    fn default() -> ExactSum {
        ExactSum::new()
    }
}

impl ExactSum {
    /// The empty sum (reads as `+0.0`).
    pub const fn new() -> ExactSum {
        ExactSum {
            window: [0; WINDOW],
            full: None,
            base: UNPLACED,
            pending: 0,
            special: 0,
        }
    }

    /// Add one value.
    #[inline]
    pub fn add(&mut self, v: f64) {
        let bits = v.to_bits();
        let biased = (bits >> 52) & 0x7ff;
        if biased == 0x7ff {
            self.special |= if v.is_nan() {
                NAN
            } else if v > 0.0 {
                POS_INF
            } else {
                NEG_INF
            };
            return;
        }
        let frac = bits & ((1 << 52) - 1);
        // |v| = mant · 2^(pos - 1074); subnormals share the lowest binade.
        let (mant, pos) = if biased == 0 {
            (frac, 0)
        } else {
            (frac | 1 << 52, biased - 1)
        };
        if mant == 0 {
            return;
        }
        let (chunk, shift) = ((pos / 32) as usize, pos % 32);
        // `mant << shift`, split at bit 32: the low 32 bits go to
        // `chunk`, the rest (below 2^53) to `chunk + 1`.
        let lo = (mant << shift) as u32 as i64;
        let hi = (mant >> (32 - shift)) as i64;
        // 0 for positive inputs, -1 for negative: `(x ^ s) - s` negates.
        let s = (bits as i64) >> 63;
        // An unplaced or spilled window has `base == UNPLACED`, which no
        // chunk index reaches: one test picks the inline fast path.
        let at = chunk.wrapping_sub(self.base as usize);
        let slots = if at < WINDOW - 1 {
            &mut self.window[at..at + 2]
        } else {
            self.slots(chunk)
        };
        slots[0] += (lo ^ s) - s;
        slots[1] += (hi ^ s) - s;
        self.pending += 1;
        if self.pending >= CARRY_EVERY {
            self.carry();
        }
    }

    /// Add every value another accumulator holds.
    pub fn merge(&mut self, other: &ExactSum) {
        self.special |= other.special;
        let (start, theirs) = other.chunks();
        let Some(lo) = theirs.iter().position(|&c| c != 0) else {
            return;
        };
        let hi = theirs.iter().rposition(|&c| c != 0).unwrap_or(lo) + 1;
        if self.full.is_none() && self.base == UNPLACED {
            let special = self.special;
            *self = other.clone();
            self.special = special;
            return;
        }
        let (lo, hi) = (start + lo, start + hi);
        let base = self.base as usize;
        let mine = if self.full.is_none() && lo >= base && hi <= base + WINDOW {
            &mut self.window[lo - base..hi - base]
        } else {
            &mut self.spill()[lo..hi]
        };
        for (m, t) in mine.iter_mut().zip(&theirs[lo - start..hi - start]) {
            *m += t;
        }
        self.pending += other.pending + 1;
        if self.pending >= CARRY_EVERY {
            self.carry();
        }
    }

    /// The exact sum rounded to the nearest f64, ties to even.
    pub fn value(&self) -> f64 {
        match self.special {
            0 => {}
            POS_INF => return f64::INFINITY,
            NEG_INF => return f64::NEG_INFINITY,
            _ => return f64::NAN,
        }
        let (negative, digits) = self.canonical();
        let (start, mine) = self.chunks();
        let magnitude = round_magnitude(&digits, start..start + mine.len() + 2);
        if negative {
            -magnitude
        } else {
            magnitude
        }
    }

    /// Two chunks starting at absolute index `chunk` when they are not
    /// in the window: place the window on first use, else spill.
    fn slots(&mut self, chunk: usize) -> &mut [i64] {
        if self.full.is_none() && self.base == UNPLACED {
            // Three chunks of room below the value, three above.
            let base = chunk.saturating_sub(3).min(FULL_CHUNKS - WINDOW);
            self.base = base as u8;
            return &mut self.window[chunk - base..chunk - base + 2];
        }
        &mut self.spill()[chunk..chunk + 2]
    }

    /// Move to the full width (once) and return it.
    fn spill(&mut self) -> &mut [i64; FULL_CHUNKS] {
        let (window, base) = (self.window, self.base as usize);
        self.base = UNPLACED;
        self.full.get_or_insert_with(|| {
            let mut full = Box::new([0; FULL_CHUNKS]);
            if base != UNPLACED as usize {
                full[base..base + WINDOW].copy_from_slice(&window);
            }
            full
        })
    }

    /// `(absolute index of the first chunk, the chunks)` in use.
    fn chunks(&self) -> (usize, &[i64]) {
        match &self.full {
            Some(full) => (0, &full[..]),
            None if self.base == UNPLACED => (0, &[]),
            None => (self.base as usize, &self.window[..]),
        }
    }

    /// Move carries up. The window's top chunk has nothing above it, so
    /// once it outgrows 32 bits the accumulator spills.
    fn carry(&mut self) {
        self.pending = 0;
        if self.full.is_none() {
            propagate(&mut self.window);
            let excess = self.window[WINDOW - 1] >> CHUNK_BITS;
            if excess == 0 || excess == -1 {
                return;
            }
        }
        propagate(&mut self.spill()[..]);
    }

    /// `(sum < 0, |sum|)`, the magnitude as base-2^32 digits in
    /// absolute chunk positions. Equal exact sums give equal results.
    fn canonical(&self) -> (bool, [i64; FULL_CHUNKS + 2]) {
        let mut c = [0; FULL_CHUNKS + 2];
        let (start, mine) = self.chunks();
        let end = start + mine.len();
        c[start..end].copy_from_slice(mine);
        // Two chunks above the top one absorb its excess; then every
        // chunk but the last is a digit, and the last holds the sign.
        let digits = &mut c[start..end + 2];
        propagate(digits);
        let negative = digits[digits.len() - 1] < 0;
        if negative {
            digits.iter_mut().for_each(|x| *x = -*x);
            propagate(digits);
        }
        (negative, c)
    }
}

impl PartialEq for ExactSum {
    /// Equal when the exact sums are equal (not merely their roundings).
    fn eq(&self, other: &ExactSum) -> bool {
        self.special == other.special
            && (self.special != 0 || self.canonical() == other.canonical())
    }
}

/// Carry every chunk's excess into the next one up.
fn propagate(c: &mut [i64]) {
    for i in 0..c.len().saturating_sub(1) {
        let carry = c[i] >> CHUNK_BITS;
        c[i] -= carry << CHUNK_BITS;
        c[i + 1] += carry;
    }
}

/// Round a magnitude in base-2^32 digits (units of 2^-1074) to f64;
/// digits outside `used` are zero.
fn round_magnitude(c: &[i64], used: std::ops::Range<usize>) -> f64 {
    let Some(t) = c[used.clone()]
        .iter()
        .rposition(|&x| x != 0)
        .map(|t| used.start + t)
    else {
        return 0.0;
    };
    if t >= FULL_CHUNKS - 1 {
        // The carry chunk weighs 2^1038.
        return f64::INFINITY;
    }
    // The 64 bits of the integer starting at bit `lo`.
    let bits_from = |lo: usize| -> u64 {
        let k = lo / 32;
        let w = (0..3).fold(0u128, |w, i| {
            w | u128::from(c.get(k + i).map_or(0, |&x| x as u32)) << (32 * i)
        });
        (w >> (lo % 32)) as u64
    };
    let top = 32 * t + 31 - (c[t] as u32).leading_zeros() as usize;
    if top < 53 {
        // Below 2^53 units the integer is exactly representable, and its
        // bit pattern is the double's (subnormal or first binade).
        return f64::from_bits(bits_from(0));
    }
    // Keep 53 bits from `top` down; `shift` bits fall off.
    let shift = top - 52;
    let mut q = bits_from(shift) & ((1 << 53) - 1);
    let half = bits_from(shift - 1) & 1 == 1;
    let below = shift - 1;
    let k = below / 32;
    let sticky =
        c[used.start.min(k)..k].iter().any(|&x| x != 0) || c[k] & ((1 << (below % 32)) - 1) != 0;
    let mut biased = shift as u64 + 1;
    if half && (sticky || q & 1 == 1) {
        q += 1;
        if q == 1 << 53 {
            q >>= 1;
            biased += 1;
        }
    }
    if biased >= 0x7ff {
        return f64::INFINITY;
    }
    f64::from_bits(biased << 52 | (q & ((1 << 52) - 1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum(values: &[f64]) -> f64 {
        let mut s = ExactSum::new();
        values.iter().for_each(|&v| s.add(v));
        s.value()
    }

    #[test]
    fn cancellation_is_exact() {
        // A row-order fold gives 0.0 here; the exact sum is 1.0.
        assert_eq!(sum(&[1e16, 1.0, -1e16]), 1.0);
        assert_eq!(sum(&[1e16, -1e16, 1.0]), 1.0);
    }

    #[test]
    fn empty_and_zero_sums_read_positive_zero() {
        assert_eq!(ExactSum::new().value().to_bits(), 0.0f64.to_bits());
        assert_eq!(sum(&[-0.0, -0.0]).to_bits(), 0.0f64.to_bits());
        assert_eq!(sum(&[2.5, -2.5]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn ties_round_to_even() {
        let half_ulp = f64::EPSILON / 2.0;
        assert_eq!(sum(&[1.0, half_ulp]), 1.0);
        let odd = 1.0 + f64::EPSILON;
        assert_eq!(sum(&[odd, half_ulp]), 1.0 + 2.0 * f64::EPSILON);
        // Anything past the tie rounds up.
        assert_eq!(sum(&[1.0, half_ulp, f64::MIN_POSITIVE]), odd);
    }

    #[test]
    fn overflow_that_cancels_is_not_infinite() {
        assert_eq!(sum(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX);
        assert_eq!(sum(&[f64::MAX, f64::MAX]), f64::INFINITY);
        assert_eq!(sum(&[-f64::MAX, -f64::MAX]), f64::NEG_INFINITY);
    }

    #[test]
    fn specials_are_tracked_beside_the_chunks() {
        assert_eq!(sum(&[1.0, f64::INFINITY]), f64::INFINITY);
        assert!(sum(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
        assert!(sum(&[f64::NAN, 1.0]).is_nan());
    }

    #[test]
    fn subnormals_sum_exactly() {
        let tiny = f64::from_bits(1);
        assert_eq!(sum(&[tiny, tiny, tiny]), f64::from_bits(3));
        assert_eq!(
            sum(&[f64::MIN_POSITIVE, -tiny]),
            f64::from_bits((1 << 52) - 1)
        );
    }

    #[test]
    fn wide_inputs_spill_and_still_merge_exactly() {
        let mut a = ExactSum::new();
        a.add(1.0);
        a.add(1e-300);
        assert!(
            a.full.is_some(),
            "1e-300 lies far below a window placed at 1.0"
        );
        let mut b = ExactSum::new();
        b.add(-1.0);
        b.merge(&a);
        assert_eq!(b.value(), 1e-300);
        let mut c = ExactSum::new();
        c.merge(&b);
        assert_eq!(c, b);
    }

    #[test]
    fn carry_passes_keep_the_value() {
        let mut s = ExactSum::new();
        for v in [-1.5, 3.25, -0.125, 7.0] {
            s.add(v);
        }
        let before = s.clone();
        // The next add reaches the carry threshold.
        s.pending = CARRY_EVERY - 1;
        s.add(0.5);
        assert_eq!(s.pending, 0);
        assert_eq!(s.value(), 9.125);
        let mut again = before;
        again.add(0.5);
        assert_eq!(again, s, "equality compares exact sums, carried or not");
    }
}
