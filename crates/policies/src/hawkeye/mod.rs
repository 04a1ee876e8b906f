//! Hawkeye: learning from Belady's OPT
//! (Jain & Lin, ISCA 2016).
//!
//! Hawkeye reconstructs what OPT *would have done* on a sample of the access
//! stream ([`OptGen`]) and trains a PC-indexed predictor from those
//! decisions: PCs whose loads OPT retains are *cache-friendly*, PCs whose
//! loads OPT discards are *cache-averse*. Friendly fills insert at RRPV 0
//! and age gradually; averse fills insert at RRPV 7 and are evicted first.
//! When a friendly line must be evicted anyway, the PC that inserted it is
//! detrained.

pub mod optgen;
pub mod sampler;

pub use optgen::OptGen;
pub use sampler::{SampleResult, Sampler, HISTORY_FACTOR, SAMPLED_SETS};

use crate::policy::{AccessInfo, ReplacementPolicy, Victim};
use crate::util::{hash_bits, SatCounter};

/// RRPV width for Hawkeye's backend (3 bits, per the paper).
pub const HAWKEYE_RRPV_BITS: u32 = 3;
/// Maximum RRPV: cache-averse lines live here.
pub const HAWKEYE_RRPV_MAX: u8 = (1 << HAWKEYE_RRPV_BITS) - 1;
/// Friendly lines age up to this value only (7 is reserved for averse).
const FRIENDLY_AGE_CAP: u8 = HAWKEYE_RRPV_MAX - 1;
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

/// Per-line Hawkeye metadata.
#[derive(Debug, Clone, Copy, Default)]
struct LineMeta {
    rrpv: u8,
    /// PC of the access that last touched this line (for detraining).
    last_pc: u64,
    /// Whether the line was predicted friendly at its last touch.
    friendly: bool,
    valid: bool,
}

/// The Hawkeye replacement policy.
#[derive(Debug)]
pub struct Hawkeye {
    ways: u32,
    meta: Vec<LineMeta>,
    predictor: OccupancyPredictor,
    sampler: Sampler<u64>,
    detrained_evictions: u64,
}

impl Hawkeye {
    /// Creates Hawkeye state for a `sets x ways` cache.
    pub fn new(sets: u32, ways: u32) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be non-zero");
        Hawkeye {
            ways,
            meta: vec![LineMeta::default(); (sets * ways) as usize],
            predictor: OccupancyPredictor::new(),
            sampler: Sampler::new(sets, ways),
            detrained_evictions: 0,
        }
    }

    #[inline]
    fn idx(&self, set: u32, way: u32) -> usize {
        (set * self.ways + way) as usize
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

    /// Applies the insertion/promotion decision shared by hits and fills.
    fn touch(&mut self, set: u32, way: u32, info: &AccessInfo, is_fill: bool) {
        let friendly = self.predictor.predict(info.pc);
        let i = self.idx(set, way);
        self.meta[i].last_pc = info.pc;
        self.meta[i].friendly = friendly;
        self.meta[i].valid = true;
        if !friendly {
            self.meta[i].rrpv = HAWKEYE_RRPV_MAX;
            return;
        }
        self.meta[i].rrpv = 0;
        if is_fill {
            // Age every other friendly line so older friendly lines become
            // the preferred victims when no averse line exists.
            let base = self.idx(set, 0);
            for w in 0..self.ways as usize {
                if w != way as usize {
                    let m = &mut self.meta[base + w];
                    if m.valid && m.rrpv < FRIENDLY_AGE_CAP {
                        m.rrpv += 1;
                    }
                }
            }
        }
    }
}

impl ReplacementPolicy for Hawkeye {
    fn name(&self) -> &'static str {
        "hawkeye"
    }

    #[inline]
    fn victim(&mut self, set: u32, _info: &AccessInfo) -> Victim {
        let base = self.idx(set, 0);
        let metas = &self.meta[base..base + self.ways as usize];
        // Prefer a cache-averse line.
        if let Some(w) = metas.iter().position(|m| m.rrpv == HAWKEYE_RRPV_MAX) {
            return Victim::Way(w as u32);
        }
        // Otherwise evict the oldest friendly line and detrain the PC that
        // put it there: the predictor was too optimistic.
        let (w, _) = metas.iter().enumerate().max_by_key(|(_, m)| m.rrpv).expect("ways > 0");
        let pc = metas[w].last_pc;
        self.predictor.train_averse(pc);
        self.detrained_evictions += 1;
        Victim::Way(w as u32)
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
            // Writebacks are inserted averse and never train the predictor.
            let i = self.idx(set, way);
            self.meta[i] =
                LineMeta { rrpv: HAWKEYE_RRPV_MAX, last_pc: 0, friendly: false, valid: true };
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
    fn fills_age_other_friendly_lines() {
        let mut hk = Hawkeye::new(64, 3);
        hk.on_fill(0, 0, &load(0x1, 1, 0), None);
        hk.on_fill(0, 1, &load(0x2, 2, 0), None);
        hk.on_fill(0, 2, &load(0x3, 3, 0), None);
        // Way 0 aged twice, way 1 once, way 2 fresh.
        assert_eq!(hk.meta[hk.idx(0, 0)].rrpv, 2);
        assert_eq!(hk.meta[hk.idx(0, 1)].rrpv, 1);
        assert_eq!(hk.meta[hk.idx(0, 2)].rrpv, 0);
        // Victim with no averse line: the oldest friendly (way 0).
        assert_eq!(hk.victim(0, &load(0x4, 4, 0)), Victim::Way(0));
    }

    #[test]
    fn writeback_fill_is_averse_and_untrained() {
        let mut hk = Hawkeye::new(64, 2);
        let (h0, m0) = hk.sampler.optgen_stats();
        hk.on_fill(0, 0, &wb(7, 0), None);
        assert_eq!(hk.meta[hk.idx(0, 0)].rrpv, HAWKEYE_RRPV_MAX);
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
