//! Recency stamps: the backend of LRU, the paper's baseline.
//!
//! Every line carries a stamp from the policy's monotone clock, issued on
//! every hit and fill; the victim is the minimum stamp in the set, lowest
//! way on ties.

use crate::policy::{AccessInfo, ReplacementPolicy, Victim};

/// True LRU: hits and fills stamp the line most recent. Writeback hits
/// refresh recency like demand hits, matching ChampSim's base LRU.
#[derive(Debug)]
pub struct Lru {
    ways: u32,
    clock: u64,
    stamps: Vec<u64>,
}

impl Lru {
    /// Creates LRU state for a `sets x ways` cache.
    pub fn new(sets: u32, ways: u32) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be non-zero");
        Lru { ways, clock: 0, stamps: vec![0; (sets * ways) as usize] }
    }

    /// Stamps `set`/`way` most recent.
    #[inline]
    fn touch(&mut self, set: u32, way: u32) {
        self.clock += 1;
        self.stamps[(set * self.ways + way) as usize] = self.clock;
    }
}

impl ReplacementPolicy for Lru {
    fn name(&self) -> &'static str {
        "lru"
    }

    #[inline]
    fn victim(&mut self, set: u32, _info: &AccessInfo) -> Victim {
        let base = (set * self.ways) as usize;
        let stamps = &self.stamps[base..base + self.ways as usize];
        let (way, _) = stamps.iter().enumerate().min_by_key(|&(_, &s)| s).expect("ways > 0");
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

    fn load(set: u32) -> AccessInfo {
        AccessInfo { pc: 0x400, block: 0xAB, set, kind: AccessType::Load }
    }

    #[test]
    #[should_panic(expected = "cache geometry must be non-zero")]
    fn zero_ways_rejected() {
        let _ = Lru::new(4, 0);
    }

    /// What one conformance row does to a set before it reads the
    /// victim order.
    #[derive(Clone, Copy)]
    enum Op {
        Fill(u32),
        Hit(u32),
    }

    /// Applies `ops` to `set`, then evicts `ways` times (each victim is
    /// refilled) and returns the order.
    fn victim_order(p: &mut Lru, set: u32, ways: u32, ops: &[Op]) -> Vec<u32> {
        for &op in ops {
            match op {
                Op::Fill(w) => p.on_fill(set, w, &load(set), None),
                Op::Hit(w) => p.on_hit(set, w, &load(set)),
            }
        }
        (0..ways)
            .map(|_| {
                let Victim::Way(w) = p.victim(set, &load(set)) else { panic!("no bypass") };
                p.on_fill(set, w, &load(set), Some(0));
                w
            })
            .collect()
    }

    /// Conformance rows of the stamp store: the victim order after each
    /// row's operations, one set per row, so the rows also show that sets
    /// are independent.
    #[test]
    fn stamp_victim_order_rows_hold_for_lru() {
        use Op::{Fill, Hit};
        let fill4_hit2 = [Fill(0), Fill(1), Fill(2), Fill(3), Hit(2)];
        let scrambled = [Fill(2), Fill(0), Fill(3), Fill(1), Hit(0), Hit(2)];
        let rows: [(u32, &[Op], [u32; 4]); 3] = [
            // Never-stamped ways tie at 0: lowest way first.
            (1, &[], [0, 1, 2, 3]),
            (2, &fill4_hit2, [0, 1, 3, 2]),
            (3, &scrambled, [3, 1, 0, 2]),
        ];
        let mut p = Lru::new(128, 4);
        for (set, ops, order) in rows {
            assert_eq!(victim_order(&mut p, set, 4, ops), order, "set {set}");
        }
    }
}
