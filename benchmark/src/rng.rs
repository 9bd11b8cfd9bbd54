//! A small seeded generator (SplitMix64). Every input the benchmark
//! makes — fixture seed, literal pools, op order, append batches —
//! derives from `--seed` through it, so one seed is one set of inputs.

/// SplitMix64: a full-period 64-bit generator, one `u64` of state.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose: `seed` is the run's seed and
    /// `stream` tells the purposes apart (client, block, pool …), so
    /// no two of them draw the same sequence.
    pub fn new(seed: u64, stream: &[u64]) -> Rng {
        let mut rng = Rng(seed ^ 0x9E37_79B9_7F4A_7C15);
        for s in stream {
            rng.0 = rng.next_u64() ^ s.wrapping_mul(0xD134_2543_DE82_EF95);
        }
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One standard-normal draw (Box-Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.unit().max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_and_stream_repeat_and_others_differ() {
        let draw = |seed, stream: &[u64]| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, &[1, 2]), draw(7, &[1, 2]));
        assert_ne!(draw(7, &[1, 2]), draw(8, &[1, 2]));
        assert_ne!(draw(7, &[1, 2]), draw(7, &[2, 1]));
    }

    #[test]
    fn shuffle_keeps_every_item() {
        let mut v: Vec<u32> = (0..50).collect();
        Rng::new(3, &[]).shuffle(&mut v);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }
}
