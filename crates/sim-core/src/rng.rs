//! Deterministic, splittable pseudo-random number generation.
//!
//! Experiments must be reproducible bit-for-bit, and a run resumed from a
//! checkpoint must produce exactly the same trace as the uninterrupted one.
//! We therefore avoid any global or thread-local RNG state: every component that
//! needs randomness derives its own independent stream from the run seed and
//! a stable stream identifier via [`DeterministicRng::derive`].
//!
//! The generator is xoshiro256\*\* (public domain, Blackman & Vigna) seeded
//! through SplitMix64, the standard seeding recipe for the xoshiro family.
//! It is small, fast (≈1 ns per `u64`), and passes BigCrush — more than
//! adequate for workload jitter.

/// A 256-bit-state xoshiro256\*\* generator with SplitMix64 seeding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterministicRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DeterministicRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DeterministicRng { s }
    }

    /// Derive an independent stream for component `stream_id` of run `seed`.
    ///
    /// Streams with different ids never share state: the id is folded into
    /// the seed through an avalanche step before normal seeding, so e.g.
    /// chiplet 0 / core 3 and chiplet 1 / core 0 see unrelated sequences.
    pub fn derive(seed: u64, stream_id: u64) -> Self {
        let mut sm = seed ^ stream_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // One extra scramble so adjacent stream ids decorrelate fully.
        let folded = splitmix64(&mut sm) ^ seed.rotate_left(17);
        DeterministicRng::new(folded)
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let s2 = s2 ^ s0;
        let s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        let s2 = s2 ^ t;
        let s3 = s3.rotate_left(45);
        self.s = [s0, s1, s2, s3];
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)` (Lemire's unbiased method simplified to
    /// modulo; bias is ≤ 2⁻⁵³·n which is negligible for simulation use).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        (self.next_f64() * n as f64) as u64
    }

    /// Standard normal variate (Marsaglia polar method).
    pub fn gauss(&mut self) -> f64 {
        loop {
            let u = self.uniform(-1.0, 1.0);
            let v = self.uniform(-1.0, 1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Normal variate with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gauss()
    }

    /// Exponential variate with the given mean (used for burst inter-arrival
    /// times in the bursty workload generators).
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // 1 - next_f64() is in (0, 1], so ln() is finite.
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

impl crate::state::Snapshot for DeterministicRng {
    fn save_state(&self, w: &mut crate::state::StateWriter) {
        w.u64_slice("rng.s", &self.s);
    }

    fn load_state(&mut self, r: &mut crate::state::StateReader<'_>) -> Option<()> {
        let s = r.u64_vec("rng.s")?;
        self.s = s.try_into().ok()?;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = DeterministicRng::new(42);
        let mut b = DeterministicRng::new(42);
        for _ in 0..1_000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DeterministicRng::new(1);
        let mut b = DeterministicRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derived_streams_are_independent() {
        let mut a = DeterministicRng::derive(7, 0);
        let mut b = DeterministicRng::derive(7, 1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
        // Same (seed, id) must reproduce.
        let mut c = DeterministicRng::derive(7, 1);
        let mut d = DeterministicRng::derive(7, 1);
        assert_eq!(c.next_u64(), d.next_u64());
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = DeterministicRng::new(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            let y = rng.uniform(2.0, 5.0);
            assert!((2.0..5.0).contains(&y));
        }
    }

    #[test]
    fn uniform_mean_is_centered() {
        let mut rng = DeterministicRng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gauss_moments() {
        let mut rng = DeterministicRng::new(5);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.gauss()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = DeterministicRng::new(9);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = DeterministicRng::new(13);
        for _ in 0..10_000 {
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    fn chance_rate() {
        let mut rng = DeterministicRng::new(17);
        let hits = (0..100_000).filter(|_| rng.chance(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }
}
