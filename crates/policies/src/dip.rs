//! DIP: Dynamic Insertion Policy (Qureshi et al., ISCA 2007).
//!
//! The precursor of DRRIP: set-dueling between traditional LRU insertion
//! and *Bimodal* insertion (BIP — insert at LRU position except for a 1/32
//! trickle at MRU), which protects against thrashing working sets. DIP is
//! the missing link between the LRU baseline and the RRIP family, so it is
//! included for ablations even though the paper does not evaluate it.

use crate::policy::{AccessInfo, ReplacementPolicy, Victim};
use crate::util::{SatCounter, SplitMix64};

/// One LRU leader set and one BIP leader set per this many sets.
const LEADER_PERIOD: u32 = 64;
/// Offset of the BIP leader within each region.
const BIP_LEADER_OFFSET: u32 = 33;
/// PSEL width.
const PSEL_BITS: u32 = 10;
/// BIP inserts at MRU once every this many fills.
const BIP_EPSILON: u64 = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SetRole {
    LeaderLru,
    LeaderBip,
    Follower,
}

/// Dynamic Insertion Policy over a true-LRU stack.
#[derive(Debug)]
pub struct Dip {
    ways: u32,
    stamp: u64,
    stamps: Vec<u64>,
    /// Minimum stamp per set, tracked so "insert at LRU" can place a line
    /// *below* every resident line.
    psel: SatCounter,
    rng: SplitMix64,
}

impl Dip {
    /// Creates DIP state for a `sets x ways` cache.
    pub fn new(sets: u32, ways: u32) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be non-zero");
        Dip {
            ways,
            stamp: 1,
            stamps: vec![0; (sets * ways) as usize],
            psel: SatCounter::new(PSEL_BITS, 0),
            rng: SplitMix64::new(0xD1B2),
        }
    }

    fn role(set: u32) -> SetRole {
        match set % LEADER_PERIOD {
            0 => SetRole::LeaderLru,
            BIP_LEADER_OFFSET => SetRole::LeaderBip,
            _ => SetRole::Follower,
        }
    }

    fn bip_winning(&self) -> bool {
        self.psel.msb()
    }

    #[inline]
    fn idx(&self, set: u32, way: u32) -> usize {
        (set * self.ways + way) as usize
    }

    /// Stamp of the current LRU line in `set` (insertion *below* it uses
    /// `lru_stamp - 1`; stamps start at 1 so this cannot underflow past 0).
    fn min_stamp(&self, set: u32) -> u64 {
        let base = self.idx(set, 0);
        self.stamps[base..base + self.ways as usize].iter().copied().min().expect("ways > 0")
    }
}

impl ReplacementPolicy for Dip {
    fn name(&self) -> &'static str {
        "dip"
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
        self.stamp += 1;
        let i = self.idx(set, way);
        self.stamps[i] = self.stamp;
    }

    #[inline]
    fn on_fill(&mut self, set: u32, way: u32, info: &AccessInfo, _evicted: Option<u64>) {
        if info.kind.is_demand() {
            match Self::role(set) {
                SetRole::LeaderLru => self.psel.inc(),
                SetRole::LeaderBip => self.psel.dec(),
                SetRole::Follower => {}
            }
        }
        let use_bip = match Self::role(set) {
            SetRole::LeaderLru => false,
            SetRole::LeaderBip => true,
            SetRole::Follower => self.bip_winning(),
        };
        let i = self.idx(set, way);
        if use_bip && !self.rng.one_in(BIP_EPSILON) {
            // Insert at LRU: stamped just below the set's current minimum,
            // so the next miss evicts this line unless it hits first.
            self.stamps[i] = self.min_stamp(set).saturating_sub(1);
        } else {
            self.stamp += 1;
            self.stamps[i] = self.stamp;
        }
    }

    fn diag(&self) -> String {
        format!("psel={} ({})", self.psel.get(), if self.bip_winning() { "bip" } else { "lru" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AccessType;

    fn load(set: u32) -> AccessInfo {
        AccessInfo { pc: 1, block: 2, set, kind: AccessType::Load }
    }

    #[test]
    fn leader_mapping() {
        assert_eq!(Dip::role(0), SetRole::LeaderLru);
        assert_eq!(Dip::role(33), SetRole::LeaderBip);
        assert_eq!(Dip::role(7), SetRole::Follower);
    }

    #[test]
    fn followers_default_to_lru_insertion() {
        let mut p = Dip::new(128, 4);
        for w in 0..4 {
            p.on_fill(1, w, &load(1), None);
        }
        // Newest fill must be MRU: victim is way 0.
        assert_eq!(p.victim(1, &load(1)), Victim::Way(0));
    }

    #[test]
    fn bip_insertion_lands_at_lru() {
        let mut p = Dip::new(128, 4);
        // Drive PSEL toward BIP by missing in the LRU leader set 0.
        for _ in 0..600 {
            p.on_fill(0, 0, &load(0), None);
        }
        assert!(p.bip_winning());
        // Fill a follower set; the new line should mostly be the next victim.
        let mut inserted_at_lru = 0;
        for t in 0..100u32 {
            for w in 0..4 {
                p.on_hit(2, w, &load(2)); // refresh others
            }
            p.on_fill(2, t % 4, &load(2), None);
            if p.victim(2, &load(2)) == Victim::Way(t % 4) {
                inserted_at_lru += 1;
            }
        }
        assert!(inserted_at_lru > 80, "bip must insert at lru: {inserted_at_lru}/100");
    }

    #[test]
    fn bip_leaders_pull_back_toward_lru() {
        let mut p = Dip::new(128, 4);
        for _ in 0..600 {
            p.on_fill(0, 0, &load(0), None);
        }
        assert!(p.bip_winning());
        for _ in 0..600 {
            p.on_fill(33, 0, &load(33), None);
        }
        assert!(!p.bip_winning());
    }

    #[test]
    fn hits_always_promote_to_mru() {
        let mut p = Dip::new(128, 2);
        p.on_fill(5, 0, &load(5), None);
        p.on_fill(5, 1, &load(5), None);
        p.on_hit(5, 0, &load(5));
        assert_eq!(p.victim(5, &load(5)), Victim::Way(1));
    }

    #[test]
    fn diag_reports_winner() {
        let p = Dip::new(128, 4);
        assert!(p.diag().contains("lru"));
    }
}
