//! Small deterministic pseudo-random number generators.
//!
//! The kernel and the workload generators need reproducible randomness whose
//! stream is stable across library upgrades (an experiment rerun a year later
//! must produce the same instruction streams and host-schedule perturbations).
//! We therefore ship a self-contained [SplitMix64] seeder and a
//! [xoshiro256\*\*] generator instead of depending on an external RNG crate.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c
//! [xoshiro256\*\*]: https://prng.di.unimi.it/xoshiro256starstar.c

/// SplitMix64: a tiny, high-quality 64-bit mixer used to expand a single
/// `u64` seed into the xoshiro state (and usable as a generator on its own).
///
/// # Examples
///
/// ```
/// use slacksim_core::rng::SplitMix64;
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Any seed, including 0, is valid.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64 pseudo-random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A stateless draw: SplitMix64 run over `words`, each folded into the
/// state before the next step. The value depends on the words alone, not
/// on where, when or on which thread it is computed, nor on how many draws
/// came before it.
///
/// # Examples
///
/// ```
/// use slacksim_core::rng::{below, hash_words};
///
/// let h = hash_words(&[7, 3, 1000]);
/// assert_eq!(h, hash_words(&[7, 3, 1000]));
/// assert_ne!(h, hash_words(&[7, 3, 1001]));
/// assert!(below(h, 16) < 16);
/// ```
#[inline]
pub fn hash_words(words: &[u64]) -> u64 {
    words
        .iter()
        .fold(0, |h, &w| SplitMix64::new(h ^ w).next_u64())
}

/// Maps 64 random bits onto `0..bound` by multiply-shift (bias below
/// `bound / 2^64`).
///
/// # Panics
///
/// Panics if `bound` is zero.
#[inline]
pub fn below(bits: u64, bound: u64) -> u64 {
    assert!(bound > 0, "bound must be non-zero");
    ((u128::from(bits) * u128::from(bound)) >> 64) as u64
}

/// xoshiro256\*\* — the workhorse generator for workload streams and the
/// deterministic engine's burst scheduler.
///
/// Deterministic: two generators created with the same seed produce the same
/// sequence forever.
///
/// # Examples
///
/// ```
/// use slacksim_core::rng::Xoshiro256;
///
/// let mut rng = Xoshiro256::new(42);
/// let in_range = rng.next_below(10);
/// assert!(in_range < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator seeded via SplitMix64 expansion of `seed`.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256 {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Returns the next 64 pseudo-random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `0..bound` using Lemire's
    /// multiply-shift rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        // Lemire (2019): unbiased bounded generation without division in the
        // common case.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "invalid range");
        lo + self.next_below(hi - lo + 1)
    }

    /// Returns `true` with probability `num / den`.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    #[inline]
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_below(den) < num
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The raw generator state (persistence).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from raw state captured via
    /// [`state`](Self::state); the stream continues exactly where it left
    /// off.
    pub const fn from_state(s: [u64; 4]) -> Self {
        Xoshiro256 { s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values from the canonical C implementation with seed 0.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(sm.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256::new(123);
        let mut b = Xoshiro256::new(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256::new(1);
        let mut b = Xoshiro256::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_below_stays_in_range() {
        let mut rng = Xoshiro256::new(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..200 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut rng = Xoshiro256::new(99);
        let mut buckets = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            buckets[rng.next_below(8) as usize] += 1;
        }
        let expected = n / 8;
        for &b in &buckets {
            // 5% tolerance is generous at this sample size.
            assert!((b as i64 - expected as i64).unsigned_abs() < expected as u64 / 20);
        }
    }

    #[test]
    fn next_range_inclusive() {
        let mut rng = Xoshiro256::new(5);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2000 {
            let v = rng.next_range(3, 5);
            assert!((3..=5).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 5;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Xoshiro256::new(11);
        for _ in 0..100 {
            assert!(!rng.chance(0, 10));
            assert!(rng.chance(10, 10));
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256::new(13);
        for _ in 0..1000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    #[should_panic(expected = "bound must be non-zero")]
    fn next_below_zero_panics() {
        Xoshiro256::new(1).next_below(0);
    }
}
