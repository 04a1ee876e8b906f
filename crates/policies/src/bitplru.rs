//! Bit-PLRU (MRU-bit) replacement, a common hardware LRU approximation.

use crate::policy::{AccessInfo, ReplacementPolicy, Victim};

/// Bit-PLRU: each line carries an MRU bit, set on every touch. The victim is
/// the first line whose bit is clear; when setting the last clear bit would
/// leave none, all other bits are cleared instead (starting a new
/// generation). Works for any associativity, unlike tree-PLRU.
#[derive(Debug)]
pub struct BitPlru {
    ways: u32,
    mru: Vec<bool>,
}

impl BitPlru {
    /// Creates bit-PLRU state for a `sets x ways` cache.
    pub fn new(sets: u32, ways: u32) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be non-zero");
        BitPlru { ways, mru: vec![false; (sets * ways) as usize] }
    }

    fn touch(&mut self, set: u32, way: u32) {
        let base = (set * self.ways) as usize;
        let n = self.ways as usize;
        self.mru[base + way as usize] = true;
        if self.mru[base..base + n].iter().all(|&b| b) {
            for (i, b) in self.mru[base..base + n].iter_mut().enumerate() {
                *b = i == way as usize;
            }
        }
    }
}

impl ReplacementPolicy for BitPlru {
    fn name(&self) -> &'static str {
        "bitplru"
    }

    #[inline]
    fn victim(&mut self, set: u32, _info: &AccessInfo) -> Victim {
        let base = (set * self.ways) as usize;
        let n = self.ways as usize;
        let way = self.mru[base..base + n].iter().position(|&b| !b).unwrap_or(0);
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

    fn info() -> AccessInfo {
        AccessInfo { pc: 0, block: 0, set: 0, kind: AccessType::Load }
    }

    #[test]
    fn victim_is_first_non_mru() {
        let mut p = BitPlru::new(1, 4);
        p.on_fill(0, 0, &info(), None);
        p.on_fill(0, 1, &info(), None);
        assert_eq!(p.victim(0, &info()), Victim::Way(2));
    }

    #[test]
    fn generation_reset_keeps_last_touch() {
        let mut p = BitPlru::new(1, 3);
        p.on_fill(0, 0, &info(), None);
        p.on_fill(0, 1, &info(), None);
        p.on_fill(0, 2, &info(), None); // reset: only way 2 MRU
        assert_eq!(p.victim(0, &info()), Victim::Way(0));
        p.on_hit(0, 0, &info());
        assert_eq!(p.victim(0, &info()), Victim::Way(1));
    }

    #[test]
    fn recently_touched_line_protected() {
        let mut p = BitPlru::new(1, 4);
        for w in 0..3 {
            p.on_fill(0, w, &info(), None);
        }
        let Victim::Way(v) = p.victim(0, &info()) else { unreachable!() };
        assert_eq!(v, 3);
        p.on_fill(0, 3, &info(), None); // triggers generation reset
        let Victim::Way(v2) = p.victim(0, &info()) else { unreachable!() };
        assert_ne!(v2, 3, "just-filled line must not be the next victim");
    }
}
