//! Uniform random replacement.

use crate::policy::{AccessInfo, ReplacementPolicy, Victim};
use crate::util::SplitMix64;

/// Evicts a uniformly random way. The cheapest possible policy and a useful
/// statistical baseline: any policy that cannot beat random on a workload is
/// extracting no signal from it.
#[derive(Debug)]
pub struct RandomPolicy {
    ways: u32,
    rng: SplitMix64,
}

impl RandomPolicy {
    /// Creates a random policy for a cache with `ways` ways.
    pub fn new(_sets: u32, ways: u32) -> Self {
        assert!(ways > 0, "cache geometry must be non-zero");
        RandomPolicy { ways, rng: SplitMix64::new(0xCC51_u64) }
    }

    /// Overrides the eviction RNG seed (for reproducibility studies).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = SplitMix64::new(seed);
        self
    }
}

impl ReplacementPolicy for RandomPolicy {
    fn name(&self) -> &'static str {
        "random"
    }

    #[inline]
    fn victim(&mut self, _set: u32, _info: &AccessInfo) -> Victim {
        Victim::Way(self.rng.below(self.ways as u64) as u32)
    }

    #[inline]
    fn on_hit(&mut self, _set: u32, _way: u32, _info: &AccessInfo) {}

    #[inline]
    fn on_fill(&mut self, _set: u32, _way: u32, _info: &AccessInfo, _evicted: Option<u64>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AccessType;

    #[test]
    fn victims_cover_all_ways() {
        let mut p = RandomPolicy::new(1, 8).with_seed(3);
        let info = AccessInfo { pc: 0, block: 0, set: 0, kind: AccessType::Load };
        let mut seen = [false; 8];
        for _ in 0..500 {
            let Victim::Way(w) = p.victim(0, &info) else { unreachable!() };
            assert!(w < 8);
            seen[w as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn deterministic_with_same_seed() {
        let info = AccessInfo { pc: 0, block: 0, set: 0, kind: AccessType::Load };
        let seq = |seed| {
            let mut p = RandomPolicy::new(1, 4).with_seed(seed);
            (0..16).map(|_| p.victim(0, &info)).collect::<Vec<_>>()
        };
        assert_eq!(seq(9), seq(9));
    }
}
