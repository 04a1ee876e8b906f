//! Re-Reference Interval Prediction: SRRIP and BRRIP
//! (Jaleel et al., ISCA 2010).
//!
//! Each line carries an M-bit *re-reference prediction value* (RRPV);
//! larger means "predicted to be re-used further in the future". Victims
//! are lines holding the maximum RRPV (`2^M - 1`); if none exists, all
//! RRPVs in the set are aged up until one does.

use crate::policy::{AccessInfo, ReplacementPolicy, Victim};
use crate::util::SplitMix64;

/// RRPV width used by SRRIP/BRRIP/DRRIP/SHiP (2 bits, per the papers).
pub const RRPV_BITS: u32 = 2;
/// Maximum ("distant future") RRPV.
pub const RRPV_MAX: u8 = (1 << RRPV_BITS) - 1;
/// "Long re-reference interval" insertion value (`2^M - 2`).
pub const RRPV_LONG: u8 = RRPV_MAX - 1;
/// BRRIP inserts with `RRPV_LONG` once every this many fills, otherwise
/// `RRPV_MAX` (the paper's epsilon = 1/32).
pub const BRRIP_EPSILON: u64 = 32;

/// Shared RRPV array with the standard victim-search/aging loop.
#[derive(Debug, Clone)]
pub struct RrpvTable {
    ways: u32,
    rrpv: Vec<u8>,
    max: u8,
}

impl RrpvTable {
    /// Creates a table of `sets x ways` RRPVs of `bits` width, all
    /// initialized to the maximum (invalid lines are distant by default).
    pub fn new(sets: u32, ways: u32, bits: u32) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be non-zero");
        assert!((1..=7).contains(&bits), "rrpv width must be 1..=7");
        let max = (1u8 << bits) - 1;
        RrpvTable { ways, rrpv: vec![max; (sets * ways) as usize], max }
    }

    /// Maximum RRPV value for this table.
    pub fn max(&self) -> u8 {
        self.max
    }

    /// Current RRPV of `set`/`way`.
    pub fn get(&self, set: u32, way: u32) -> u8 {
        self.rrpv[(set * self.ways + way) as usize]
    }

    /// Sets the RRPV of `set`/`way`.
    pub fn set(&mut self, set: u32, way: u32, v: u8) {
        debug_assert!(v <= self.max);
        self.rrpv[(set * self.ways + way) as usize] = v;
    }

    /// Standard RRIP victim search: find a way at max RRPV, aging the whole
    /// set until one exists. Returns the lowest-indexed such way.
    pub fn find_victim(&mut self, set: u32) -> u32 {
        let base = (set * self.ways) as usize;
        let n = self.ways as usize;
        loop {
            if let Some(w) = self.rrpv[base..base + n].iter().position(|&r| r >= self.max) {
                return w as u32;
            }
            for r in &mut self.rrpv[base..base + n] {
                *r += 1;
            }
        }
    }
}

/// Static RRIP with hit-priority promotion: insert at "long" (`2^M - 2`),
/// promote to 0 on hit.
#[derive(Debug)]
pub struct Srrip {
    table: RrpvTable,
}

impl Srrip {
    /// Creates SRRIP state for a `sets x ways` cache.
    pub fn new(sets: u32, ways: u32) -> Self {
        Srrip { table: RrpvTable::new(sets, ways, RRPV_BITS) }
    }
}

impl ReplacementPolicy for Srrip {
    fn name(&self) -> &'static str {
        "srrip"
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
    fn on_fill(&mut self, set: u32, way: u32, _info: &AccessInfo, _evicted: Option<u64>) {
        self.table.set(set, way, RRPV_LONG);
    }
}

/// Bimodal RRIP: like SRRIP but inserts at the *distant* RRPV except for a
/// 1-in-32 trickle at "long", protecting against thrashing working sets.
#[derive(Debug)]
pub struct Brrip {
    table: RrpvTable,
    fills: u64,
    rng: SplitMix64,
}

impl Brrip {
    /// Creates BRRIP state for a `sets x ways` cache.
    pub fn new(sets: u32, ways: u32) -> Self {
        Brrip {
            table: RrpvTable::new(sets, ways, RRPV_BITS),
            fills: 0,
            rng: SplitMix64::new(0xB441),
        }
    }

    /// Insertion RRPV for the next fill (advances the bimodal state).
    fn insertion_rrpv(&mut self) -> u8 {
        self.fills += 1;
        if self.rng.one_in(BRRIP_EPSILON) {
            RRPV_LONG
        } else {
            RRPV_MAX
        }
    }
}

impl ReplacementPolicy for Brrip {
    fn name(&self) -> &'static str {
        "brrip"
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
    fn on_fill(&mut self, set: u32, way: u32, _info: &AccessInfo, _evicted: Option<u64>) {
        let v = self.insertion_rrpv();
        self.table.set(set, way, v);
    }
}

/// The insertion behaviours shared by DRRIP/SHiP, factored for reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RripInsertion {
    /// SRRIP-style: always "long".
    Long,
    /// BRRIP-style: "distant" with a 1/32 trickle of "long".
    Bimodal,
    /// Distant future (predicted dead).
    Distant,
    /// Immediate reuse predicted (RRPV 0).
    Near,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AccessType;

    fn load(set: u32) -> AccessInfo {
        AccessInfo { pc: 7, block: 9, set, kind: AccessType::Load }
    }

    fn wb(set: u32) -> AccessInfo {
        AccessInfo { pc: 0, block: 9, set, kind: AccessType::Writeback }
    }

    #[test]
    fn rrpv_table_ages_until_victim_found() {
        let mut t = RrpvTable::new(1, 4, 2);
        for w in 0..4 {
            t.set(0, w, w as u8 % 3); // values 0,1,2,0 — no 3 present
        }
        let v = t.find_victim(0);
        assert_eq!(v, 2, "way holding rrpv 2 ages to 3 first");
        assert_eq!(t.get(0, 0), 1, "aging bumped everyone");
    }

    #[test]
    fn srrip_inserts_long_and_promotes_to_zero() {
        let mut p = Srrip::new(1, 4);
        p.on_fill(0, 1, &load(0), None);
        assert_eq!(p.table.get(0, 1), RRPV_LONG);
        p.on_hit(0, 1, &load(0));
        assert_eq!(p.table.get(0, 1), 0);
    }

    #[test]
    fn srrip_ignores_writeback_hits_for_promotion() {
        let mut p = Srrip::new(1, 4);
        p.on_fill(0, 1, &load(0), None);
        p.on_hit(0, 1, &wb(0));
        assert_eq!(p.table.get(0, 1), RRPV_LONG, "writeback must not promote");
    }

    #[test]
    fn srrip_scan_resistance() {
        // A never-rereferenced streaming block (still at LONG) is evicted
        // before a block that has hit (at 0), even if the streamer is newer.
        let mut p = Srrip::new(1, 2);
        p.on_fill(0, 0, &load(0), None);
        p.on_hit(0, 0, &load(0)); // way 0 hot
        p.on_fill(0, 1, &load(0), None); // way 1 streaming
        let Victim::Way(v) = p.victim(0, &load(0)) else { unreachable!() };
        assert_eq!(v, 1);
    }

    #[test]
    fn brrip_mostly_inserts_distant() {
        let mut p = Brrip::new(1, 16);
        let mut distant = 0;
        for i in 0..1600u32 {
            p.on_fill(0, i % 16, &load(0), None);
            if p.table.get(0, i % 16) == RRPV_MAX {
                distant += 1;
            }
        }
        assert!(distant > 1400, "only {distant}/1600 distant inserts");
        assert!(distant < 1600, "epsilon trickle never fired");
    }

    #[test]
    fn find_victim_prefers_lowest_way_on_tie() {
        let mut t = RrpvTable::new(1, 4, 2);
        for w in 0..4 {
            t.set(0, w, 3);
        }
        assert_eq!(t.find_victim(0), 0);
    }
}
