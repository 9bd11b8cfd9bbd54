//! Property test for `ExactSum`, the accumulator behind every exact SUM
//! and AVG: its value is the exact sum of a multiset of doubles,
//! correctly rounded half-to-even, whatever the order of the adds or the
//! split/merge tree — checked against a deliberately naive big-integer
//! reference on multisets built to break a float fold (subnormals, ±0,
//! ±inf, overflow that cancels, 1e±300, heavy cancellation, exact ties).
//!
//! Seeded: `LAWSDB_FAULT_SEED=<seed>` is printed, and re-running with it
//! set reproduces every case.

use lawsdb_storage::column::NumericAggState;
use lawsdb_storage::ExactSum;

const CASES: usize = 300;

fn seed() -> u64 {
    let s = lawsdb_storage::fault::fault_seed();
    println!("LAWSDB_FAULT_SEED={s} (set to reproduce)");
    s
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn sign(&mut self) -> f64 {
        if self.next() & 1 == 0 {
            1.0
        } else {
            -1.0
        }
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One value from a mix of shapes a float fold gets wrong.
fn value(rng: &mut Rng) -> f64 {
    match rng.below(10) {
        0 => f64::from_bits(rng.next() % (1 << 52)) * rng.sign(), // subnormal
        1 => 0.0 * rng.sign(),
        2 => f64::MAX * (1.0 - rng.below(4) as f64 * f64::EPSILON) * rng.sign(),
        3 => 1e300 * (1.0 + rng.below(1000) as f64 / 7.0) * rng.sign(),
        4 => 1e-300 * (1.0 + rng.below(1000) as f64 / 7.0) * rng.sign(),
        5 => f64::from_bits(rng.next() >> 2) * rng.sign(), // any magnitude below 2
        _ => (rng.below(2000) as f64 - 1000.0) / 3.0 + rng.below(7) as f64 * 1e16,
    }
}

/// A multiset: random values, plus the negations of some of them (heavy
/// cancellation), plus a value and half its ulp (an exact tie).
fn multiset(rng: &mut Rng) -> Vec<f64> {
    let n = 1 + rng.below(12);
    let mut v: Vec<f64> = (0..n).map(|_| value(rng)).collect();
    for i in 0..n {
        if rng.below(3) == 0 {
            v.push(-v[i]);
        }
    }
    if rng.below(4) == 0 {
        let x = value(rng);
        let ulp = f64::from_bits(x.abs().to_bits() + 1) - x.abs();
        if ulp.is_finite() && ulp > f64::from_bits(1) {
            v.push(x);
            v.push(ulp / 2.0 * rng.sign());
        }
    }
    rng.shuffle(&mut v);
    v
}

fn fold(values: &[f64]) -> ExactSum {
    let mut s = ExactSum::new();
    values.iter().for_each(|&v| s.add(v));
    s
}

/// Sum over a random binary split/merge tree.
fn tree(values: &[f64], rng: &mut Rng) -> ExactSum {
    if values.len() <= 1 || rng.below(4) == 0 {
        return fold(values);
    }
    let cut = rng.below(values.len() + 1);
    let (mut a, b) = (tree(&values[..cut], rng), tree(&values[cut..], rng));
    if rng.below(2) == 0 {
        a.merge(&b);
        a
    } else {
        let mut b = b;
        b.merge(&a);
        b
    }
}

// ---------------------------------------------------------- reference

/// Unsigned big integer, one bit per `bool`, least significant first.
/// Deliberately naive: nothing here shares code or layout with
/// `ExactSum`.
#[derive(Clone, Default)]
struct Big(Vec<bool>);

impl Big {
    /// `mant · 2^shift`.
    fn shifted(mant: u64, shift: usize) -> Big {
        let mut bits = vec![false; shift];
        bits.extend((0..64).map(|i| mant >> i & 1 == 1));
        Big(bits)
    }

    fn add(&self, o: &Big) -> Big {
        let n = self.0.len().max(o.0.len()) + 1;
        let mut out = Vec::with_capacity(n);
        let mut carry = false;
        for i in 0..n {
            let (a, b) = (self.bit(i), o.bit(i));
            out.push(a ^ b ^ carry);
            carry = (a && b) || (carry && (a ^ b));
        }
        Big(out)
    }

    /// `self - o`, requires `self >= o`.
    fn sub(&self, o: &Big) -> Big {
        let mut out = Vec::with_capacity(self.0.len());
        let mut borrow = false;
        for i in 0..self.0.len() {
            let (a, b) = (self.bit(i), o.bit(i));
            out.push(a ^ b ^ borrow);
            borrow = (!a && (b || borrow)) || (b && borrow);
        }
        Big(out)
    }

    fn bit(&self, i: usize) -> bool {
        self.0.get(i).copied().unwrap_or(false)
    }

    fn top(&self) -> Option<usize> {
        self.0.iter().rposition(|&b| b)
    }

    fn cmp(&self, o: &Big) -> std::cmp::Ordering {
        let n = self.0.len().max(o.0.len());
        for i in (0..n).rev() {
            match (self.bit(i), o.bit(i)) {
                (true, false) => return std::cmp::Ordering::Greater,
                (false, true) => return std::cmp::Ordering::Less,
                _ => {}
            }
        }
        std::cmp::Ordering::Equal
    }
}

/// `2^k` as a double, for `-1074 <= k <= 1023`.
fn pow2(k: i64) -> f64 {
    if k >= -1022 {
        f64::from_bits(((k + 1023) as u64) << 52)
    } else {
        f64::from_bits(1 << (k + 1074))
    }
}

/// The exact sum of `values`, rounded half-to-even, the slow way.
fn reference(values: &[f64]) -> f64 {
    let (pos_inf, neg_inf) = (
        values.contains(&f64::INFINITY),
        values.contains(&f64::NEG_INFINITY),
    );
    if values.iter().any(|v| v.is_nan()) || (pos_inf && neg_inf) {
        return f64::NAN;
    }
    if pos_inf || neg_inf {
        return if pos_inf {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        };
    }
    // Positive and negative parts in units of 2^-1074.
    let (mut pos, mut neg) = (Big::default(), Big::default());
    for &v in values {
        let bits = v.to_bits();
        let exp = (bits >> 52 & 0x7ff) as usize;
        let frac = bits & ((1 << 52) - 1);
        let (mant, shift) = if exp == 0 {
            (frac, 0)
        } else {
            (frac | 1 << 52, exp - 1)
        };
        let term = Big::shifted(mant, shift);
        if v.is_sign_negative() {
            neg = neg.add(&term);
        } else {
            pos = pos.add(&term);
        }
    }
    let (negative, mag) = match pos.cmp(&neg) {
        std::cmp::Ordering::Less => (true, neg.sub(&pos)),
        _ => (false, pos.sub(&neg)),
    };
    let Some(top) = mag.top() else { return 0.0 };
    // Keep 53 bits below the top; round on the rest.
    let low = top.saturating_sub(52);
    let mut q: u64 = (low..=top).rev().fold(0, |q, i| q << 1 | mag.bit(i) as u64);
    if low > 0 {
        let half = mag.bit(low - 1);
        let sticky = (0..low - 1).any(|i| mag.bit(i));
        if half && (sticky || q & 1 == 1) {
            q += 1;
        }
    }
    let k = low as i64 - 1074;
    let m = if k > 1023 {
        f64::INFINITY
    } else {
        q as f64 * pow2(k)
    };
    if negative {
        -m
    } else {
        m
    }
}

fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

#[test]
fn every_order_and_merge_tree_gives_the_reference_bits() {
    let mut rng = Rng(seed());
    for case in 0..CASES {
        let values = multiset(&mut rng);
        let want = reference(&values);
        let got = fold(&values).value();
        assert!(
            same(got, want),
            "case {case}: {values:?}: got {got:e}, reference {want:e}"
        );
        for _ in 0..8 {
            let mut shuffled = values.clone();
            rng.shuffle(&mut shuffled);
            let t = tree(&shuffled, &mut rng).value();
            assert!(
                same(t, want),
                "case {case}: tree over {shuffled:?}: {t:e} vs {want:e}"
            );
        }
    }
}

#[test]
fn every_permutation_of_a_small_multiset_agrees() {
    let mut rng = Rng(seed() ^ 1);
    for case in 0..40 {
        let mut values: Vec<f64> = (0..6).map(|_| value(&mut rng)).collect();
        values[rng.below(6)] = -values[rng.below(6)];
        let want = fold(&values).value();
        // Heap's algorithm over all 720 orders.
        let mut c = [0usize; 6];
        let mut i = 0;
        while i < values.len() {
            if c[i] < i {
                values.swap(if i % 2 == 0 { 0 } else { c[i] }, i);
                let got = fold(&values).value();
                assert!(
                    same(got, want),
                    "case {case}: {values:?}: {got:e} vs {want:e}"
                );
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
    }
}

#[test]
fn both_infinities_read_as_nan() {
    let mut rng = Rng(seed() ^ 2);
    for _ in 0..50 {
        let mut values = multiset(&mut rng);
        values.push(f64::INFINITY);
        values.insert(rng.below(values.len()), f64::NEG_INFINITY);
        assert!(fold(&values).value().is_nan(), "{values:?}");
        assert!(tree(&values, &mut rng).value().is_nan(), "{values:?}");
    }
    let mut one = fold(&[1.0, f64::INFINITY]);
    assert_eq!(one.value(), f64::INFINITY);
    one.merge(&fold(&[f64::NEG_INFINITY]));
    assert!(one.value().is_nan());
}

#[test]
fn signed_zero_bounds_are_order_free() {
    let orders: [&[f64]; 4] = [
        &[0.0, -0.0],
        &[-0.0, 0.0],
        &[0.0, 0.0, -0.0],
        &[-0.0, 0.0, -0.0],
    ];
    for values in orders {
        let mut s = NumericAggState::default();
        values.iter().for_each(|&v| s.update(v));
        assert_eq!(s.min.to_bits(), (-0.0f64).to_bits(), "{values:?}");
        assert_eq!(s.max.to_bits(), 0.0f64.to_bits(), "{values:?}");
        // Split into one-value states, merged back in reverse.
        let mut merged = NumericAggState::default();
        for &v in values.iter().rev() {
            let mut one = NumericAggState::default();
            one.update(v);
            merged.merge(&one);
        }
        assert_eq!(merged, s, "{values:?}");
        assert_eq!(merged.min.to_bits(), (-0.0f64).to_bits(), "{values:?}");
        assert_eq!(merged.max.to_bits(), 0.0f64.to_bits(), "{values:?}");
        assert_eq!(
            s.sum.value().to_bits(),
            0.0f64.to_bits(),
            "an exact zero reads +0.0"
        );
    }
}
