//! Hawkeye: learning from Belady's OPT
//! (Jain & Lin, ISCA 2016).
//!
//! Hawkeye reconstructs what OPT *would have done* on a sample of the access
//! stream ([`OptGen`]) and trains a PC-indexed predictor from those
//! decisions: PCs whose loads OPT retains are *cache-friendly*, PCs whose
//! loads OPT discards are *cache-averse*. Friendly fills insert at RRPV 0
//! and age gradually; averse fills insert at RRPV 7 and are evicted first.
//! When a friendly line must be evicted anyway, the PC that inserted it is
//! detrained. The 3-bit age store (`Ages`) is Glider's backend too.

pub mod optgen;
pub mod sampler;

pub use optgen::OptGen;
pub use sampler::{SampleResult, Sampler, HISTORY_FACTOR, SAMPLED_SETS};

use crate::policy::{AccessInfo, ReplacementPolicy, Victim};
use crate::util::{hash_bits, SatCounter};

/// RRPV width of the OPT-trained backends (3 bits, per the Hawkeye
/// paper); MPPPB's RRPVs share it.
pub const HAWKEYE_RRPV_BITS: u32 = 3;
/// Maximum RRPV: cache-averse lines live here.
pub const HAWKEYE_RRPV_MAX: u8 = (1 << HAWKEYE_RRPV_BITS) - 1;

/// The 3-bit age store of Hawkeye and Glider. Averse lines sit at
/// [`HAWKEYE_RRPV_MAX`]; a friendly fill ages the set's other lines but
/// never past `MAX - 1`, which stays reserved for averse lines.
#[derive(Debug)]
pub(crate) struct Ages {
    ways: u32,
    ages: Vec<u8>,
}

impl Ages {
    /// Every age starts at 0; a fill always overwrites its way's age, and
    /// no way is a victim before its set is full.
    pub(crate) fn new(sets: u32, ways: u32) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be non-zero");
        Ages { ways, ages: vec![0; (sets * ways) as usize] }
    }

    /// Index of `set`/`way`, for per-line state kept beside the ages.
    #[inline]
    pub(crate) fn idx(&self, set: u32, way: u32) -> usize {
        (set * self.ways + way) as usize
    }

    #[inline]
    pub(crate) fn get(&self, set: u32, way: u32) -> u8 {
        self.ages[self.idx(set, way)]
    }

    #[inline]
    pub(crate) fn set(&mut self, set: u32, way: u32, age: u8) {
        let i = self.idx(set, way);
        self.ages[i] = age;
    }

    /// Inserts `way` at age 0 and ages every other line of `set`, capped
    /// at `MAX - 1`, so older friendly lines become the preferred victims
    /// when no averse line exists.
    pub(crate) fn insert_friendly(&mut self, set: u32, way: u32) {
        let base = (set * self.ways) as usize;
        for (w, age) in self.ages[base..base + self.ways as usize].iter_mut().enumerate() {
            if w == way as usize {
                *age = 0;
            } else if *age < HAWKEYE_RRPV_MAX - 1 {
                *age += 1;
            }
        }
    }

    /// The first way at [`HAWKEYE_RRPV_MAX`], else the oldest way (the
    /// highest-indexed one on ties).
    #[inline]
    pub(crate) fn victim(&self, set: u32) -> u32 {
        let base = (set * self.ways) as usize;
        let ages = &self.ages[base..base + self.ways as usize];
        let way = match ages.iter().position(|&a| a == HAWKEYE_RRPV_MAX) {
            Some(w) => w,
            None => ages.iter().enumerate().max_by_key(|&(_, &a)| a).expect("ways > 0").0,
        };
        way as u32
    }
}

/// Predictor index width: 2^13 = 8192 entries of 3-bit counters.
const PREDICTOR_INDEX_BITS: u32 = 13;
/// Predictor counter width.
const PREDICTOR_COUNTER_BITS: u32 = 3;

/// The PC-indexed occupancy predictor: 3-bit counters, friendly when the
/// counter is in the upper half.
#[derive(Debug)]
pub struct OccupancyPredictor {
    counters: Vec<SatCounter>,
}

impl OccupancyPredictor {
    /// Creates a predictor with all counters weakly friendly.
    pub fn new() -> Self {
        OccupancyPredictor {
            counters: vec![
                SatCounter::new(
                    PREDICTOR_COUNTER_BITS,
                    1 << (PREDICTOR_COUNTER_BITS - 1)
                );
                1 << PREDICTOR_INDEX_BITS
            ],
        }
    }

    #[inline]
    fn idx(pc: u64) -> usize {
        hash_bits(pc, PREDICTOR_INDEX_BITS) as usize
    }

    /// `true` if loads from `pc` are predicted cache-friendly.
    pub fn predict(&self, pc: u64) -> bool {
        self.counters[Self::idx(pc)].msb()
    }

    /// Strengthens the friendly prediction for `pc`.
    pub fn train_friendly(&mut self, pc: u64) {
        self.counters[Self::idx(pc)].inc();
    }

    /// Strengthens the averse prediction for `pc`.
    pub fn train_averse(&mut self, pc: u64) {
        self.counters[Self::idx(pc)].dec();
    }
}

impl Default for OccupancyPredictor {
    fn default() -> Self {
        Self::new()
    }
}

/// The Hawkeye replacement policy.
#[derive(Debug)]
pub struct Hawkeye {
    ages: Ages,
    /// PC of the access that last touched each line (for detraining).
    last_pc: Vec<u64>,
    predictor: OccupancyPredictor,
    sampler: Sampler<u64>,
    detrained_evictions: u64,
}

impl Hawkeye {
    /// Creates Hawkeye state for a `sets x ways` cache.
    pub fn new(sets: u32, ways: u32) -> Self {
        Hawkeye {
            ages: Ages::new(sets, ways),
            last_pc: vec![0; (sets * ways) as usize],
            predictor: OccupancyPredictor::new(),
            sampler: Sampler::new(sets, ways),
            detrained_evictions: 0,
        }
    }

    /// Runs the sampled-OPT training pipeline for one demand access.
    fn train(&mut self, set: u32, info: &AccessInfo) {
        if let Some(result) = self.sampler.observe(set, info.block, info.pc) {
            if let Some((prev_pc, opt_hit)) = result.reuse {
                if opt_hit {
                    self.predictor.train_friendly(prev_pc);
                } else {
                    self.predictor.train_averse(prev_pc);
                }
            }
            if let Some(evicted_pc) = result.evicted {
                self.predictor.train_averse(evicted_pc);
            }
        }
    }

    /// Applies the prediction for `info` to `set`/`way`: averse lines go
    /// to [`HAWKEYE_RRPV_MAX`], friendly ones to 0 — ageing the rest of
    /// the set when this is a fill.
    fn touch(&mut self, set: u32, way: u32, info: &AccessInfo, is_fill: bool) {
        let i = self.ages.idx(set, way);
        self.last_pc[i] = info.pc;
        if !self.predictor.predict(info.pc) {
            self.ages.set(set, way, HAWKEYE_RRPV_MAX);
        } else if is_fill {
            self.ages.insert_friendly(set, way);
        } else {
            self.ages.set(set, way, 0);
        }
    }
}

impl ReplacementPolicy for Hawkeye {
    fn name(&self) -> &'static str {
        "hawkeye"
    }

    #[inline]
    fn victim(&mut self, set: u32, _info: &AccessInfo) -> Victim {
        let way = self.ages.victim(set);
        if self.ages.get(set, way) < HAWKEYE_RRPV_MAX {
            // No averse line: the oldest friendly one goes, and the PC
            // that put it there is detrained — the predictor was too
            // optimistic.
            self.predictor.train_averse(self.last_pc[self.ages.idx(set, way)]);
            self.detrained_evictions += 1;
        }
        Victim::Way(way)
    }

    #[inline]
    fn on_hit(&mut self, set: u32, way: u32, info: &AccessInfo) {
        if !info.kind.is_demand() {
            return;
        }
        self.train(set, info);
        self.touch(set, way, info, false);
    }

    #[inline]
    fn on_fill(&mut self, set: u32, way: u32, info: &AccessInfo, _evicted: Option<u64>) {
        if !info.kind.is_demand() {
            // Writebacks are inserted averse and never train the predictor
            // (an averse victim detrains nothing, so its PC is never read).
            self.ages.set(set, way, HAWKEYE_RRPV_MAX);
            return;
        }
        self.train(set, info);
        self.touch(set, way, info, true);
    }

    fn diag(&self) -> String {
        let (h, m) = self.sampler.optgen_stats();
        format!(
            "optgen hits={h} misses={m} friendly_evictions_detrained={}",
            self.detrained_evictions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AccessType;

    fn load(pc: u64, block: u64, set: u32) -> AccessInfo {
        AccessInfo { pc, block, set, kind: AccessType::Load }
    }

    fn wb(block: u64, set: u32) -> AccessInfo {
        AccessInfo { pc: 0, block, set, kind: AccessType::Writeback }
    }

    #[test]
    fn predictor_learns_friendly_and_averse() {
        let mut p = OccupancyPredictor::new();
        let pc = 0x400;
        for _ in 0..4 {
            p.train_averse(pc);
        }
        assert!(!p.predict(pc));
        for _ in 0..8 {
            p.train_friendly(pc);
        }
        assert!(p.predict(pc));
    }

    #[test]
    fn averse_lines_are_preferred_victims() {
        let mut hk = Hawkeye::new(64, 4);
        let averse_pc = 0x100;
        // Detrain averse_pc hard via direct predictor access.
        for _ in 0..8 {
            hk.predictor.train_averse(averse_pc);
        }
        // Fill ways 0..3: way 2 filled by the averse PC.
        for w in 0..4u32 {
            let pc = if w == 2 { averse_pc } else { 0x200 + w as u64 };
            hk.on_fill(3, w, &load(pc, w as u64, 3), None);
        }
        assert_eq!(hk.victim(3, &load(0x300, 9, 3)), Victim::Way(2));
    }

    #[derive(Clone, Copy)]
    enum Fill {
        Friendly(u32),
        Averse(u32),
    }

    /// Conformance rows of the age backend, run against both policies
    /// that use it. Each row primes a PC friendly (tight reuse in sampled
    /// set 0 — enough for Glider's confident, ageing insertion), fills
    /// set 1 — friendly fills are fresh blocks from that PC, averse ones
    /// writebacks — and reads the next victim.
    #[test]
    fn age_rows_hold_for_hawkeye_and_glider() {
        use Fill::{Averse, Friendly};
        let four = [Friendly(0), Friendly(1), Friendly(2), Friendly(3)];
        let rows: [(&str, Vec<Fill>, u32); 4] = [
            ("friendly fills age the others: the oldest goes", four.to_vec(), 0),
            (
                "an averse line sits at 7, ahead of older ones",
                [&four[..], &[Averse(1)]].concat(),
                1,
            ),
            ("the first way at 7 goes", [&four[..], &[Averse(3), Averse(1)]].concat(), 1),
            (
                "ageing stops at 6; ties go to the highest way",
                [&four[..], &[Friendly(3); 8]].concat(),
                2,
            ),
        ];
        for kind in [crate::PolicyKind::Hawkeye, crate::PolicyKind::Glider] {
            for (row, fills, victim) in &rows {
                let mut p = kind.build_dispatch(64, 4);
                let pc = 0x777;
                for _ in 0..30 {
                    p.on_hit(0, 0, &load(pc, 0xAB, 0));
                }
                for (block, fill) in (0x1000..).zip(fills) {
                    match *fill {
                        Friendly(way) => p.on_fill(1, way, &load(pc, block, 1), None),
                        Averse(way) => p.on_fill(1, way, &wb(block, 1), None),
                    }
                }
                assert_eq!(p.victim(1, &load(pc, 1, 1)), Victim::Way(*victim), "{kind}: {row}");
            }
        }
    }

    #[test]
    fn friendly_eviction_detrains_inserting_pc() {
        let mut hk = Hawkeye::new(64, 2);
        let pc = 0x500;
        hk.on_fill(5, 0, &load(pc, 1, 5), None);
        hk.on_fill(5, 1, &load(pc, 2, 5), None);
        let before = hk.predictor.counters[OccupancyPredictor::idx(pc)].get();
        let _ = hk.victim(5, &load(0x600, 3, 5));
        let after = hk.predictor.counters[OccupancyPredictor::idx(pc)].get();
        assert_eq!(after, before - 1, "friendly eviction must detrain");
        assert_eq!(hk.detrained_evictions, 1);
    }

    #[test]
    fn fills_age_other_friendly_lines_and_hits_do_not() {
        let mut hk = Hawkeye::new(64, 3);
        hk.on_fill(0, 0, &load(0x1, 1, 0), None);
        hk.on_fill(0, 1, &load(0x2, 2, 0), None);
        hk.on_hit(0, 0, &load(0x1, 1, 0));
        hk.on_fill(0, 2, &load(0x3, 3, 0), None);
        // Way 0 reset by its hit, then aged once; way 1 aged by the third
        // fill only (not by the hit); way 2 fresh.
        assert_eq!([0, 1, 2].map(|w| hk.ages.get(0, w)), [1, 1, 0]);
    }

    #[test]
    fn writeback_fill_is_averse_and_untrained() {
        let mut hk = Hawkeye::new(64, 2);
        let (h0, m0) = hk.sampler.optgen_stats();
        hk.on_fill(0, 0, &wb(7, 0), None);
        assert_eq!(hk.ages.get(0, 0), HAWKEYE_RRPV_MAX);
        assert_eq!(hk.sampler.optgen_stats(), (h0, m0));
    }

    #[test]
    fn sampled_reuse_trains_toward_friendly() {
        let mut hk = Hawkeye::new(64, 4);
        let pc = 0x777;
        let before = hk.predictor.counters[OccupancyPredictor::idx(pc)].get();
        // Set 0 is sampled; tight reuse of one block trains friendly.
        for _ in 0..6 {
            hk.on_hit(0, 0, &load(pc, 0xAB, 0));
        }
        let after = hk.predictor.counters[OccupancyPredictor::idx(pc)].get();
        assert!(after > before, "tight reuse should train friendly");
    }

    #[test]
    fn diag_reports_optgen() {
        let mut hk = Hawkeye::new(64, 2);
        hk.on_fill(0, 0, &load(1, 2, 0), None);
        assert!(hk.diag().contains("optgen"));
    }
}
