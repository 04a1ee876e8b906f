//! FIFO replacement: evict the oldest *fill*, ignoring hits.

use crate::policy::{AccessInfo, ReplacementPolicy, Victim};

/// First-in/first-out replacement. Identical bookkeeping to LRU except only
/// fills advance a line's stamp — a useful contrast policy in ablations
/// (shows how much of LRU's value is hit promotion).
#[derive(Debug)]
pub struct Fifo {
    ways: u32,
    stamp: u64,
    stamps: Vec<u64>,
}

impl Fifo {
    /// Creates FIFO state for a `sets x ways` cache.
    pub fn new(sets: u32, ways: u32) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be non-zero");
        Fifo { ways, stamp: 0, stamps: vec![0; (sets * ways) as usize] }
    }
}

impl ReplacementPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    #[inline]
    fn victim(&mut self, set: u32, _info: &AccessInfo) -> Victim {
        let base = (set * self.ways) as usize;
        let slice = &self.stamps[base..base + self.ways as usize];
        let (way, _) = slice.iter().enumerate().min_by_key(|&(_, &s)| s).expect("ways > 0");
        Victim::Way(way as u32)
    }

    #[inline]
    fn on_hit(&mut self, _set: u32, _way: u32, _info: &AccessInfo) {
        // Hits do not refresh FIFO age.
    }

    #[inline]
    fn on_fill(&mut self, set: u32, way: u32, _info: &AccessInfo, _evicted: Option<u64>) {
        self.stamp += 1;
        self.stamps[(set * self.ways + way) as usize] = self.stamp;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AccessType;

    fn info(set: u32) -> AccessInfo {
        AccessInfo { pc: 1, block: 2, set, kind: AccessType::Load }
    }

    #[test]
    fn hits_do_not_save_a_line() {
        let mut p = Fifo::new(1, 3);
        for w in 0..3 {
            p.on_fill(0, w, &info(0), None);
        }
        // Hit way 0 many times; it is still the oldest fill.
        for _ in 0..10 {
            p.on_hit(0, 0, &info(0));
        }
        assert_eq!(p.victim(0, &info(0)), Victim::Way(0));
    }

    #[test]
    fn eviction_follows_fill_order() {
        let mut p = Fifo::new(1, 3);
        for w in [2u32, 0, 1] {
            p.on_fill(0, w, &info(0), None);
        }
        assert_eq!(p.victim(0, &info(0)), Victim::Way(2));
        p.on_fill(0, 2, &info(0), None);
        assert_eq!(p.victim(0, &info(0)), Victim::Way(0));
    }
}
