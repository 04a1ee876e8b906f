//! Dynamic RRIP: set-dueling between SRRIP and BRRIP insertion
//! (Jaleel et al., ISCA 2010).

use crate::policy::{AccessInfo, ReplacementPolicy, Victim};
use crate::rrip::{RrpvTable, BRRIP_EPSILON, RRPV_BITS, RRPV_LONG, RRPV_MAX};
use crate::util::{SatCounter, SplitMix64};

/// Distance between leader sets: one SRRIP leader and one BRRIP leader per
/// 64-set region (32 + 32 leaders for a 2048-set LLC, as in the paper).
const LEADER_PERIOD: u32 = 64;
/// Offset of the BRRIP leader within each region.
const BRRIP_LEADER_OFFSET: u32 = 33;
/// PSEL width (10 bits, values 0..=1023, per the DRRIP paper).
const PSEL_BITS: u32 = 10;

/// Which dueling pool a set belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SetRole {
    LeaderSrrip,
    LeaderBrrip,
    Follower,
}

/// DRRIP: dedicated SRRIP and BRRIP leader sets vote through a PSEL
/// saturating counter; follower sets adopt the winning insertion policy.
///
/// Misses in SRRIP leaders increment PSEL, misses in BRRIP leaders decrement
/// it; followers use BRRIP insertion when PSEL's MSB is set (SRRIP is
/// missing more) and SRRIP insertion otherwise.
#[derive(Debug)]
pub struct Drrip {
    table: RrpvTable,
    psel: SatCounter,
    rng: SplitMix64,
    srrip_leader_misses: u64,
    brrip_leader_misses: u64,
}

impl Drrip {
    /// Creates DRRIP state for a `sets x ways` cache.
    pub fn new(sets: u32, ways: u32) -> Self {
        Drrip {
            table: RrpvTable::new(sets, ways, RRPV_BITS),
            // PSEL starts at zero: followers begin with SRRIP insertion and
            // only switch to BRRIP once SRRIP leaders accumulate more misses.
            psel: SatCounter::new(PSEL_BITS, 0),
            rng: SplitMix64::new(0xD441),
            srrip_leader_misses: 0,
            brrip_leader_misses: 0,
        }
    }

    fn role(set: u32) -> SetRole {
        match set % LEADER_PERIOD {
            0 => SetRole::LeaderSrrip,
            BRRIP_LEADER_OFFSET => SetRole::LeaderBrrip,
            _ => SetRole::Follower,
        }
    }

    /// `true` if followers should currently use BRRIP insertion.
    fn brrip_winning(&self) -> bool {
        self.psel.msb()
    }

    fn insertion(&mut self, set: u32) -> u8 {
        let use_brrip = match Self::role(set) {
            SetRole::LeaderSrrip => false,
            SetRole::LeaderBrrip => true,
            SetRole::Follower => self.brrip_winning(),
        };
        if use_brrip {
            if self.rng.one_in(BRRIP_EPSILON) {
                RRPV_LONG
            } else {
                RRPV_MAX
            }
        } else {
            RRPV_LONG
        }
    }
}

impl ReplacementPolicy for Drrip {
    fn name(&self) -> &'static str {
        "drrip"
    }

    #[inline]
    fn victim(&mut self, set: u32, _info: &AccessInfo) -> Victim {
        Victim::Way(self.table.find_victim(set))
    }

    #[inline]
    fn on_hit(&mut self, set: u32, way: u32, info: &AccessInfo) {
        if info.kind.is_demand() {
            self.table.set(set, way, 0);
        }
    }

    #[inline]
    fn on_fill(&mut self, set: u32, way: u32, info: &AccessInfo, _evicted: Option<u64>) {
        // A fill is a miss: leaders vote. Writeback fills don't vote (they
        // say nothing about demand locality).
        if info.kind.is_demand() {
            match Self::role(set) {
                SetRole::LeaderSrrip => {
                    self.psel.inc();
                    self.srrip_leader_misses += 1;
                }
                SetRole::LeaderBrrip => {
                    self.psel.dec();
                    self.brrip_leader_misses += 1;
                }
                SetRole::Follower => {}
            }
        }
        let v = self.insertion(set);
        self.table.set(set, way, v);
    }

    fn diag(&self) -> String {
        format!(
            "psel={} ({}) leader_misses: srrip={} brrip={}",
            self.psel.get(),
            if self.brrip_winning() { "brrip" } else { "srrip" },
            self.srrip_leader_misses,
            self.brrip_leader_misses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AccessType;

    fn load(set: u32) -> AccessInfo {
        AccessInfo { pc: 3, block: 5, set, kind: AccessType::Load }
    }

    #[test]
    fn leader_set_mapping() {
        assert_eq!(Drrip::role(0), SetRole::LeaderSrrip);
        assert_eq!(Drrip::role(64), SetRole::LeaderSrrip);
        assert_eq!(Drrip::role(33), SetRole::LeaderBrrip);
        assert_eq!(Drrip::role(97), SetRole::LeaderBrrip);
        assert_eq!(Drrip::role(1), SetRole::Follower);
    }

    #[test]
    fn psel_moves_toward_brrip_when_srrip_leaders_miss() {
        let mut p = Drrip::new(128, 4);
        assert!(!p.brrip_winning());
        // Many misses in the SRRIP leader set 0.
        for _ in 0..(1 << PSEL_BITS) {
            p.on_fill(0, 0, &load(0), None);
        }
        assert!(p.brrip_winning());
        // Followers now insert distant almost always.
        let mut distant = 0;
        for _ in 0..100 {
            p.on_fill(1, 0, &load(1), None);
            if p.table.get(1, 0) == RRPV_MAX {
                distant += 1;
            }
        }
        assert!(distant > 80, "followers not using brrip: {distant}/100");
    }

    #[test]
    fn followers_default_to_srrip_insertion() {
        let mut p = Drrip::new(128, 4);
        p.on_fill(1, 2, &load(1), None);
        assert_eq!(p.table.get(1, 2), RRPV_LONG);
    }

    #[test]
    fn brrip_leader_misses_pull_back_to_srrip() {
        let mut p = Drrip::new(128, 4);
        for _ in 0..600 {
            p.on_fill(0, 0, &load(0), None); // srrip leader misses
        }
        assert!(p.brrip_winning());
        for _ in 0..400 {
            p.on_fill(33, 0, &load(33), None); // brrip leader misses
        }
        assert!(!p.brrip_winning());
    }

    #[test]
    fn diag_mentions_current_winner() {
        let p = Drrip::new(128, 4);
        assert!(p.diag().contains("srrip"));
    }
}
