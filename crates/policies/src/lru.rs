//! The LRU baseline: true least-recently-used replacement.

use crate::policy::{AccessInfo, ReplacementPolicy, Victim};

/// True LRU via monotone timestamps: every touch stamps the line with a
/// global counter; the victim is the smallest stamp in the set.
///
/// This is the paper's baseline policy. Writeback hits refresh recency just
/// like demand hits, matching ChampSim's base LRU.
#[derive(Debug)]
pub struct Lru {
    ways: u32,
    stamp: u64,
    stamps: Vec<u64>,
}

impl Lru {
    /// Creates LRU state for a `sets x ways` cache.
    pub fn new(sets: u32, ways: u32) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be non-zero");
        Lru { ways, stamp: 0, stamps: vec![0; (sets * ways) as usize] }
    }

    #[inline]
    fn idx(&self, set: u32, way: u32) -> usize {
        (set * self.ways + way) as usize
    }

    #[inline]
    fn touch(&mut self, set: u32, way: u32) {
        self.stamp += 1;
        let i = self.idx(set, way);
        self.stamps[i] = self.stamp;
    }
}

impl ReplacementPolicy for Lru {
    fn name(&self) -> &'static str {
        "lru"
    }

    #[inline]
    fn victim(&mut self, set: u32, _info: &AccessInfo) -> Victim {
        let base = self.idx(set, 0);
        let slice = &self.stamps[base..base + self.ways as usize];
        let (way, _) = slice.iter().enumerate().min_by_key(|&(_, &s)| s).expect("ways > 0");
        Victim::Way(way as u32)
    }

    #[inline]
    fn on_hit(&mut self, set: u32, way: u32, _info: &AccessInfo) {
        self.touch(set, way);
    }

    #[inline]
    fn on_fill(&mut self, set: u32, way: u32, _info: &AccessInfo, _evicted: Option<u64>) {
        self.touch(set, way);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AccessType;

    fn info(set: u32) -> AccessInfo {
        AccessInfo { pc: 0x400, block: 0xAB, set, kind: AccessType::Load }
    }

    #[test]
    fn victim_is_least_recently_touched() {
        let mut p = Lru::new(4, 4);
        for w in 0..4 {
            p.on_fill(1, w, &info(1), None);
        }
        p.on_hit(1, 0, &info(1)); // way 0 becomes MRU; way 1 is now LRU
        assert_eq!(p.victim(1, &info(1)), Victim::Way(1));
    }

    #[test]
    fn stack_property_sequence() {
        // Fill 0,1,2,3 then hit 2: eviction order must be 0,1,3,2.
        let mut p = Lru::new(1, 4);
        for w in 0..4 {
            p.on_fill(0, w, &info(0), None);
        }
        p.on_hit(0, 2, &info(0));
        let mut order = Vec::new();
        for _ in 0..4 {
            let Victim::Way(v) = p.victim(0, &info(0)) else { panic!("lru never bypasses") };
            order.push(v);
            p.on_fill(0, v, &info(0), Some(0)); // refill makes it MRU
        }
        assert_eq!(order, vec![0, 1, 3, 2]);
    }

    #[test]
    fn sets_are_independent() {
        let mut p = Lru::new(2, 2);
        p.on_fill(0, 0, &info(0), None);
        p.on_fill(0, 1, &info(0), None);
        p.on_fill(1, 1, &info(1), None);
        p.on_fill(1, 0, &info(1), None);
        assert_eq!(p.victim(0, &info(0)), Victim::Way(0));
        assert_eq!(p.victim(1, &info(1)), Victim::Way(1));
    }

    #[test]
    #[should_panic(expected = "cache geometry must be non-zero")]
    fn zero_ways_rejected() {
        let _ = Lru::new(4, 0);
    }
}
