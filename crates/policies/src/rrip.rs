//! Re-Reference Interval Prediction (Jaleel et al., ISCA 2010): the RRPV
//! backend of SRRIP, DRRIP, SHiP and MPPPB, and the [`Rrip`] policy that
//! is SRRIP or DRRIP.
//!
//! Each line carries an M-bit *re-reference prediction value* (RRPV);
//! larger means "predicted to be re-used further in the future". Victims
//! are lines holding the maximum RRPV (`2^M - 1`); if none exists, all
//! RRPVs in the set are aged up until one does.

use crate::duel::{bimodal_cold, SetDuel};
use crate::policy::{AccessInfo, ReplacementPolicy, Victim};
use crate::util::SplitMix64;

/// RRPV width used by SRRIP/DRRIP/SHiP (2 bits, per the papers).
pub const RRPV_BITS: u32 = 2;
/// Maximum ("distant future") RRPV.
pub const RRPV_MAX: u8 = (1 << RRPV_BITS) - 1;
/// "Long re-reference interval" insertion value (`2^M - 2`).
pub const RRPV_LONG: u8 = RRPV_MAX - 1;

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

/// SRRIP or DRRIP: 2-bit RRPVs, hit-priority promotion to 0 on demand
/// hits, and "long" insertion — except where DRRIP's set duel picks
/// BRRIP's bimodal rule: "distant" with a 1/32 trickle of "long".
#[derive(Debug)]
pub struct Rrip {
    table: RrpvTable,
    /// DRRIP's monitor; `None` is SRRIP.
    duel: Option<SetDuel>,
    /// Drawn only by DRRIP's bimodal fills.
    rng: SplitMix64,
}

impl Rrip {
    fn new(sets: u32, ways: u32, duel: Option<SetDuel>) -> Self {
        Rrip { table: RrpvTable::new(sets, ways, RRPV_BITS), duel, rng: SplitMix64::new(0xD441) }
    }

    /// Static RRIP: every fill inserts at "long" (`2^M - 2`).
    pub fn srrip(sets: u32, ways: u32) -> Self {
        Rrip::new(sets, ways, None)
    }

    /// Dynamic RRIP: SRRIP and BRRIP leader sets duel; followers adopt
    /// the winner. BRRIP's bimodal rule, which protects against
    /// thrashing working sets, draws the RNG on each fill it applies to.
    pub fn drrip(sets: u32, ways: u32) -> Self {
        Rrip::new(sets, ways, Some(SetDuel::new()))
    }
}

impl ReplacementPolicy for Rrip {
    fn name(&self) -> &'static str {
        if self.duel.is_some() {
            "drrip"
        } else {
            "srrip"
        }
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
        let bimodal = self.duel.as_mut().is_some_and(|duel| duel.fill(set, info.kind.is_demand()));
        let rrpv = if bimodal && bimodal_cold(&mut self.rng) { RRPV_MAX } else { RRPV_LONG };
        self.table.set(set, way, rrpv);
    }

    fn diag(&self) -> String {
        let Some(duel) = &self.duel else {
            return String::new();
        };
        let [srrip, brrip] = duel.leader_misses();
        format!("{} leader_misses: srrip={srrip} brrip={brrip}", duel.diag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AccessType;

    fn access(set: u32, kind: AccessType) -> AccessInfo {
        AccessInfo { pc: 7, block: 9, set, kind }
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
    fn find_victim_prefers_lowest_way_on_tie() {
        let mut t = RrpvTable::new(1, 4, 2);
        for w in 0..4 {
            t.set(0, w, 3);
        }
        assert_eq!(t.find_victim(0), 0);
    }

    /// Conformance rows of the RRIP backend, run against SRRIP and each
    /// kind of DRRIP set: what a fill inserts (a twin RNG seeded like the
    /// policy and drawn only where the rule draws predicts every bimodal
    /// fill), that demand hits promote to 0 and writeback hits do not,
    /// and that the victim search ages the set to the first way at max.
    #[test]
    fn insert_promote_age_rows_hold_for_srrip_and_drrip() {
        // (policy, set, seed of its RNG if this set's fills draw it)
        let rows: [(Rrip, u32, Option<u64>); 4] = [
            (Rrip::srrip(128, 4), 1, None),
            (Rrip::drrip(128, 4), 0, None),          // SRRIP leader
            (Rrip::drrip(128, 4), 1, None),          // follower, PSEL 0
            (Rrip::drrip(128, 4), 33, Some(0xD441)), // BRRIP leader
        ];
        for (mut p, set, seed) in rows {
            let name = p.name();
            let mut twin = seed.map(SplitMix64::new);
            let mut distant = 0;
            for i in 0..320u32 {
                p.on_fill(set, i % 4, &access(set, AccessType::Load), None);
                let cold = twin.as_mut().is_some_and(bimodal_cold);
                distant += u32::from(cold);
                let want = if cold { RRPV_MAX } else { RRPV_LONG };
                assert_eq!(p.table.get(set, i % 4), want, "{name} set {set} fill {i}");
            }
            if seed.is_some() {
                assert!((280..320).contains(&distant), "{name}: {distant}/320 distant");
            }
            // Promotion: demand hits to 0, writeback hits leave the RRPV.
            p.table.set(set, 1, RRPV_LONG);
            p.on_hit(set, 1, &access(set, AccessType::Writeback));
            assert_eq!(p.table.get(set, 1), RRPV_LONG, "{name}");
            p.on_hit(set, 1, &access(set, AccessType::Rfo));
            assert_eq!(p.table.get(set, 1), 0, "{name}");
            // Aging: RRPVs [1, 0, 2, 1] age once, to the first way at max.
            for (w, r) in [1, 0, 2, 1].into_iter().enumerate() {
                p.table.set(set, w as u32, r);
            }
            assert_eq!(p.victim(set, &access(set, AccessType::Load)), Victim::Way(2), "{name}");
            let aged: Vec<u8> = (0..4).map(|w| p.table.get(set, w)).collect();
            assert_eq!(aged, [2, 1, 3, 2], "{name}");
        }
    }

    #[test]
    fn drrip_followers_insert_distant_once_brrip_wins() {
        let mut p = Rrip::drrip(128, 4);
        let load = |set| access(set, AccessType::Load);
        for _ in 0..512 {
            p.on_fill(0, 0, &load(0), None);
        }
        let mut twin = SplitMix64::new(0xD441);
        for i in 0..100 {
            p.on_fill(1, i % 4, &load(1), None);
            let want = if bimodal_cold(&mut twin) { RRPV_MAX } else { RRPV_LONG };
            assert_eq!(p.table.get(1, i % 4), want);
        }
        assert_eq!(p.diag(), "psel=512 (brrip) leader_misses: srrip=512 brrip=0");
        assert_eq!(Rrip::srrip(1, 1).diag(), "");
    }

    #[test]
    fn srrip_scan_resistance() {
        // A never-rereferenced streaming block (still at LONG) is evicted
        // before a block that has hit (at 0), even if the streamer is newer.
        let mut p = Rrip::srrip(1, 2);
        let load = access(0, AccessType::Load);
        p.on_fill(0, 0, &load, None);
        p.on_hit(0, 0, &load); // way 0 hot
        p.on_fill(0, 1, &load, None); // way 1 streaming
        assert_eq!(p.victim(0, &load), Victim::Way(1));
    }
}
