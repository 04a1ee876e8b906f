//! Glider: the practical online variant of the deep-learning-inspired cache
//! replacement policy (Shi, Huang, Jain & Lin, MICRO 2019).
//!
//! Glider's offline study showed an LSTM can predict OPT's decisions from
//! the *sequence of past PCs*; its hardware-friendly distillation replaces
//! the LSTM with one Integer SVM per PC whose features are the k most
//! recent distinct PCs (an order-free set, the *PC History Register*).
//! Training labels come from the same OPTgen sampler Hawkeye uses; the
//! cache backend (RRIP ages, aging-on-fill, averse insertion at RRPV 7) is
//! inherited from Hawkeye.

pub mod isvm;

pub use isvm::{IsvmBank, ISVM_WEIGHTS, TRAINING_THRESHOLD};

use crate::hawkeye::sampler::Sampler;
use crate::hawkeye::{Ages, HAWKEYE_RRPV_MAX};
use crate::policy::{AccessInfo, ReplacementPolicy, Victim};
use crate::util::hash_bits;

/// Depth of the PC history register (k most recent distinct PCs).
pub const PCHR_DEPTH: usize = 5;
/// Number of ISVM tables (indexed by hashed current PC).
const ISVM_TABLES: usize = 2048;
/// Decision sums at or above this insert with high confidence (RRPV 0).
const CONFIDENT_FRIENDLY: i32 = 60;

/// The features of one access: its ISVM table plus the weight indices
/// selected by the PCHR contents at access time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GliderFeatures {
    table: u16,
    feats: [u8; PCHR_DEPTH],
}

/// PC history register: the most recent distinct PCs, most recent first.
#[derive(Debug, Default)]
pub struct PcHistoryRegister {
    pcs: Vec<u64>,
}

impl PcHistoryRegister {
    /// Creates an empty PCHR.
    pub fn new() -> Self {
        PcHistoryRegister { pcs: Vec::with_capacity(PCHR_DEPTH + 1) }
    }

    /// Inserts `pc` as most recent, deduplicating and truncating to depth.
    pub fn push(&mut self, pc: u64) {
        self.pcs.retain(|&p| p != pc);
        self.pcs.insert(0, pc);
        self.pcs.truncate(PCHR_DEPTH);
    }

    /// Current contents, most recent first.
    pub fn pcs(&self) -> &[u64] {
        &self.pcs
    }

    /// Weight indices selected by the current history. Slots the history
    /// has not filled yet hash PC 0, so cold-start decisions are driven by
    /// a single shared weight and stay near zero.
    fn features(&self) -> [u8; PCHR_DEPTH] {
        std::array::from_fn(|i| {
            let pc = self.pcs.get(i).copied().unwrap_or(0);
            hash_bits(pc, 4) as u8
        })
    }
}

/// The Glider replacement policy.
#[derive(Debug)]
pub struct Glider {
    ages: Ages,
    bank: IsvmBank,
    pchr: PcHistoryRegister,
    sampler: Sampler<GliderFeatures>,
    confident_fills: u64,
    averse_fills: u64,
}

impl Glider {
    /// Creates Glider state for a `sets x ways` cache.
    pub fn new(sets: u32, ways: u32) -> Self {
        Glider {
            ages: Ages::new(sets, ways),
            bank: IsvmBank::new(ISVM_TABLES),
            pchr: PcHistoryRegister::new(),
            sampler: Sampler::new(sets, ways),
            confident_fills: 0,
            averse_fills: 0,
        }
    }

    fn snapshot(&self, pc: u64) -> GliderFeatures {
        GliderFeatures { table: hash_bits(pc, 11) as u16, feats: self.pchr.features() }
    }

    /// Updates PCHR, runs the sampler and returns the decision sum for the
    /// current access.
    fn observe(&mut self, set: u32, info: &AccessInfo) -> i32 {
        self.pchr.push(info.pc);
        let snap = self.snapshot(info.pc);
        if let Some(result) = self.sampler.observe(set, info.block, snap) {
            if let Some((prev, opt_hit)) = result.reuse {
                self.bank.train(prev.table as usize, &prev.feats, opt_hit);
            }
            if let Some(evicted) = result.evicted {
                self.bank.train(evicted.table as usize, &evicted.feats, false);
            }
        }
        self.bank.predict(snap.table as usize, &snap.feats)
    }
}

impl ReplacementPolicy for Glider {
    fn name(&self) -> &'static str {
        "glider"
    }

    #[inline]
    fn victim(&mut self, set: u32, _info: &AccessInfo) -> Victim {
        Victim::Way(self.ages.victim(set))
    }

    #[inline]
    fn on_hit(&mut self, set: u32, way: u32, info: &AccessInfo) {
        if !info.kind.is_demand() {
            return;
        }
        let sum = self.observe(set, info);
        self.ages.set(set, way, if sum < 0 { HAWKEYE_RRPV_MAX } else { 0 });
    }

    #[inline]
    fn on_fill(&mut self, set: u32, way: u32, info: &AccessInfo, _evicted: Option<u64>) {
        if !info.kind.is_demand() {
            self.ages.set(set, way, HAWKEYE_RRPV_MAX);
            return;
        }
        let sum = self.observe(set, info);
        if sum >= CONFIDENT_FRIENDLY {
            self.confident_fills += 1;
            self.ages.insert_friendly(set, way);
        } else if sum >= 0 {
            // Low-confidence friendly: insert cool so it ages out unless
            // promoted by a real hit.
            self.ages.set(set, way, 1);
        } else {
            self.averse_fills += 1;
            self.ages.set(set, way, HAWKEYE_RRPV_MAX);
        }
    }

    fn diag(&self) -> String {
        let (h, m) = self.sampler.optgen_stats();
        format!(
            "optgen hits={h} misses={m} fills: confident={} averse={}",
            self.confident_fills, self.averse_fills
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

    #[test]
    fn pchr_dedupes_and_truncates() {
        let mut r = PcHistoryRegister::new();
        for pc in [1u64, 2, 3, 2, 4, 5, 6] {
            r.push(pc);
        }
        assert_eq!(r.pcs(), &[6, 5, 4, 2, 3]);
        r.push(3);
        assert_eq!(r.pcs(), &[3, 6, 5, 4, 2]);
    }

    #[test]
    fn negative_sum_inserts_averse() {
        let mut g = Glider::new(64, 4);
        let pc = 0x42;
        // Pre-train the ISVM negatively for this PC's table/features.
        g.pchr.push(pc);
        let snap = g.snapshot(pc);
        for _ in 0..20 {
            g.bank.train(snap.table as usize, &snap.feats, false);
        }
        g.on_fill(1, 0, &load(pc, 5, 1), None);
        assert_eq!(g.ages.get(1, 0), HAWKEYE_RRPV_MAX);
        assert_eq!(g.averse_fills, 1);
    }

    #[test]
    fn cold_predictor_inserts_low_confidence_friendly() {
        let mut g = Glider::new(64, 4);
        g.on_fill(1, 0, &load(0x10, 5, 1), None);
        assert_eq!(g.ages.get(1, 0), 1);
    }

    #[test]
    fn sampled_tight_reuse_trains_friendly() {
        let mut g = Glider::new(64, 4);
        let pc = 0x999;
        // Set 0 is sampled. Repeated hits to the same block with the same
        // PC: OPTgen says hit, ISVM trains toward friendly — far enough
        // for the confident, ageing insertion (the age rows rely on it).
        for _ in 0..30 {
            g.on_hit(0, 0, &load(pc, 0xAB, 0));
        }
        g.on_fill(1, 0, &load(pc, 0xCD, 1), None);
        assert_eq!((g.confident_fills, g.ages.get(1, 0), g.ages.get(1, 1)), (1, 0, 1));
    }

    #[test]
    fn writeback_fill_is_averse() {
        let mut g = Glider::new(64, 2);
        let wb = AccessInfo { pc: 0, block: 1, set: 0, kind: AccessType::Writeback };
        g.on_fill(0, 1, &wb, None);
        assert_eq!(g.ages.get(0, 1), HAWKEYE_RRPV_MAX);
    }
}
