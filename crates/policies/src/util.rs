//! Small hardware-flavoured utilities shared by the policies: saturating
//! counters, a deterministic pseudo-random generator, and hash mixers.

/// An `n`-bit saturating counter, the workhorse of hardware predictors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SatCounter {
    value: u16,
    max: u16,
}

impl SatCounter {
    /// Creates a counter of `bits` bits initialized to `init`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 15, or `init` exceeds the
    /// maximum value.
    pub fn new(bits: u32, init: u16) -> Self {
        assert!((1..=15).contains(&bits), "counter width must be 1..=15 bits");
        let max = (1u16 << bits) - 1;
        assert!(init <= max, "init exceeds counter maximum");
        SatCounter { value: init, max }
    }

    /// Current value.
    #[inline]
    pub fn get(self) -> u16 {
        self.value
    }

    /// Maximum representable value.
    #[inline]
    pub fn max(self) -> u16 {
        self.max
    }

    /// Saturating increment.
    #[inline]
    pub fn inc(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
    }

    /// Saturating decrement.
    #[inline]
    pub fn dec(&mut self) {
        if self.value > 0 {
            self.value -= 1;
        }
    }

    /// `true` if the most significant bit is set, i.e. the value is in the
    /// upper half of its range (`value >= 2^(bits-1)`).
    #[inline]
    pub fn msb(self) -> bool {
        self.value >= self.max.div_ceil(2)
    }
}

/// SplitMix64: a tiny, fast, deterministic PRNG used where hardware would
/// employ an LFSR (DRRIP's bimodal insertions).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift; bias is negligible for the small bounds used here.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Bernoulli event with probability `1/denom`.
    #[inline]
    pub fn one_in(&mut self, denom: u64) -> bool {
        self.below(denom) == 0
    }
}

/// Finalizing 64-bit hash (xxHash/Murmur-style avalanche). Used to index
/// predictor tables from PCs and addresses.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

/// Hashes `x` down to `bits` bits.
#[inline]
pub fn hash_bits(x: u64, bits: u32) -> u64 {
    mix64(x) & ((1u64 << bits) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sat_counter_saturates_both_ends() {
        let mut c = SatCounter::new(2, 0);
        c.dec();
        assert_eq!(c.get(), 0);
        for _ in 0..10 {
            c.inc();
        }
        assert_eq!(c.get(), 3);
        assert!(c.msb());
    }

    #[test]
    fn sat_counter_msb_threshold() {
        let mut c = SatCounter::new(3, 0); // max 7
        assert!(!c.msb());
        for _ in 0..4 {
            c.inc();
        }
        assert!(c.msb()); // 4 > 3
    }

    #[test]
    #[should_panic(expected = "counter width must be 1..=15 bits")]
    fn zero_width_counter_rejected() {
        let _ = SatCounter::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "init exceeds counter maximum")]
    fn oversized_init_rejected() {
        let _ = SatCounter::new(2, 4);
    }

    #[test]
    fn splitmix_below_is_in_range_and_varied() {
        let mut r = SplitMix64::new(42);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = r.below(8) as usize;
            assert!(v < 8);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn one_in_32_has_plausible_rate() {
        let mut r = SplitMix64::new(7);
        let hits = (0..32_000).filter(|_| r.one_in(32)).count();
        assert!((700..1300).contains(&hits), "rate {hits}/32000 far from 1/32");
    }

    #[test]
    fn mix64_spreads_sequential_inputs() {
        let a = hash_bits(1, 13);
        let b = hash_bits(2, 13);
        let c = hash_bits(3, 13);
        assert!(a != b || b != c, "consecutive hashes should differ");
        assert!(a < (1 << 13) && b < (1 << 13));
    }
}
