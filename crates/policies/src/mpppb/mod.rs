//! MPPPB: Multiperspective Placement, Promotion and Bypass
//! (Jiménez & Teran, MICRO 2017).
//!
//! A perceptron-like predictor sums small signed weights drawn from several
//! *feature tables*, each indexed by a different hash ("perspective") of the
//! access: the PC, recent PC history, address bits and miss-path
//! correlations. The sign convention is **positive = predicted dead**. The
//! prediction steers three decisions:
//!
//! * **Bypass** — very confident dead-on-arrival fills are not cached;
//! * **Placement** — fills insert at an RRPV chosen by confidence band;
//! * **Promotion** — hits promote to an RRPV chosen by the (re-computed)
//!   prediction rather than unconditionally to 0.
//!
//! Training is sampler-based (dead-block style, as in the paper): sampled
//! sets keep shadow entries remembering each access's feature indices; a
//! shadow hit trains "live", a shadow LRU eviction trains "dead".

pub mod features;

pub use features::{feature_indices, FeatureContext, FEATURE_COUNT, TABLE_INDEX_BITS};

use crate::hawkeye::{HAWKEYE_RRPV_BITS, HAWKEYE_RRPV_MAX};
use crate::policy::{AccessInfo, ReplacementPolicy, Victim};
use crate::rrip::RrpvTable;

/// Weight clamp (6-bit signed).
const WEIGHT_MAX: i8 = 31;
/// Weight clamp lower bound.
const WEIGHT_MIN: i8 = -32;
/// Predictions at or above this sum bypass the cache entirely.
const BYPASS_THRESHOLD: i32 = 60;
/// Predictions at or above this sum insert at the distant RRPV.
const DEAD_THRESHOLD: i32 = 15;
/// Training margin: only update weights when the sum is inside the margin
/// or the prediction was wrong.
const TRAINING_MARGIN: i32 = 70;
/// Sampled sets used for dead-block training.
const SAMPLED_SETS: u32 = 64;

/// Feature snapshot stored in sampler shadow entries.
type Snapshot = [u16; FEATURE_COUNT];

#[derive(Debug, Clone, Copy)]
struct ShadowEntry {
    partial_tag: u64,
    lru: u64,
    snapshot: Snapshot,
}

/// The MPPPB replacement policy.
#[derive(Debug)]
pub struct Mpppb {
    table: RrpvTable,
    ways: u32,
    weights: Vec<[i8; 1 << TABLE_INDEX_BITS]>,
    // Global context.
    pc_history: [u64; 3],
    last_miss_pc: u64,
    // Sampler.
    sample_ratio: u32,
    shadow: std::collections::HashMap<u32, Vec<ShadowEntry>>,
    shadow_clock: u64,
    // Statistics.
    bypasses: u64,
    dead_inserts: u64,
    live_inserts: u64,
}

impl Mpppb {
    /// Creates MPPPB state for a `sets x ways` cache.
    pub fn new(sets: u32, ways: u32) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be non-zero");
        Mpppb {
            table: RrpvTable::new(sets, ways, HAWKEYE_RRPV_BITS),
            ways,
            weights: vec![[0; 1 << TABLE_INDEX_BITS]; FEATURE_COUNT],
            pc_history: [0; 3],
            last_miss_pc: 0,
            sample_ratio: (sets / SAMPLED_SETS).max(1),
            shadow: std::collections::HashMap::new(),
            shadow_clock: 0,
            bypasses: 0,
            dead_inserts: 0,
            live_inserts: 0,
        }
    }

    fn context(&self, info: &AccessInfo) -> FeatureContext {
        FeatureContext {
            pc: info.pc,
            block: info.block,
            pc_history: self.pc_history,
            last_miss_pc: self.last_miss_pc,
        }
    }

    fn predict(&self, snap: &Snapshot) -> i32 {
        snap.iter().enumerate().map(|(f, &i)| self.weights[f][i as usize] as i32).sum()
    }

    /// Pushes the selected weights toward dead (`true`) or live (`false`).
    fn train(&mut self, snap: &Snapshot, dead: bool) {
        let sum = self.predict(snap);
        if dead && sum >= TRAINING_MARGIN {
            return;
        }
        if !dead && sum <= -TRAINING_MARGIN {
            return;
        }
        for (f, &i) in snap.iter().enumerate() {
            let w = &mut self.weights[f][i as usize];
            *w = if dead { (*w + 1).min(WEIGHT_MAX) } else { (*w - 1).max(WEIGHT_MIN) };
        }
    }

    fn push_history(&mut self, pc: u64) {
        self.pc_history = [pc, self.pc_history[0], self.pc_history[1]];
    }

    /// Dead-block sampler: returns nothing; trains internally.
    fn sample(&mut self, set: u32, info: &AccessInfo, snap: Snapshot) {
        if set % self.sample_ratio != 0 {
            return;
        }
        self.shadow_clock += 1;
        let clock = self.shadow_clock;
        let ways = self.ways as usize;
        let entries = self.shadow.entry(set).or_default();
        // Collect the training event while `entries` is borrowed, apply after.
        let trained: Option<(Snapshot, bool)>;
        if let Some(e) = entries.iter_mut().find(|e| e.partial_tag == info.block) {
            // Shadow hit: the *previous* access's features led to reuse.
            trained = Some((e.snapshot, false));
            e.lru = clock;
            e.snapshot = snap;
        } else {
            if entries.len() >= ways {
                let (i, _) =
                    entries.iter().enumerate().min_by_key(|(_, e)| e.lru).expect("non-empty");
                let dead = entries.swap_remove(i);
                trained = Some((dead.snapshot, true));
            } else {
                trained = None;
            }
            entries.push(ShadowEntry { partial_tag: info.block, lru: clock, snapshot: snap });
        }
        if let Some((s, dead)) = trained {
            self.train(&s, dead);
        }
    }
}

impl ReplacementPolicy for Mpppb {
    fn name(&self) -> &'static str {
        "mpppb"
    }

    #[inline]
    fn victim(&mut self, set: u32, info: &AccessInfo) -> Victim {
        if info.kind.is_demand() {
            let snap = feature_indices(&self.context(info));
            if self.predict(&snap) >= BYPASS_THRESHOLD {
                self.bypasses += 1;
                return Victim::Bypass;
            }
        }
        Victim::Way(self.table.find_victim(set))
    }

    #[inline]
    fn forced_victim(&mut self, set: u32, _info: &AccessInfo) -> u32 {
        // Bypass is off the table: evict by the RRPV aging order, exactly
        // as a non-bypassed victim would be chosen.
        self.table.find_victim(set)
    }

    #[inline]
    fn on_hit(&mut self, set: u32, way: u32, info: &AccessInfo) {
        if !info.kind.is_demand() {
            return;
        }
        let snap = feature_indices(&self.context(info));
        self.sample(set, info, snap);
        // Promotion by prediction: predicted-dead hits are parked near the
        // eviction point instead of being fully promoted.
        let sum = self.predict(&snap);
        let rrpv = if sum >= DEAD_THRESHOLD { HAWKEYE_RRPV_MAX - 1 } else { 0 };
        self.table.set(set, way, rrpv);
        self.push_history(info.pc);
    }

    #[inline]
    fn on_fill(&mut self, set: u32, way: u32, info: &AccessInfo, _evicted: Option<u64>) {
        if !info.kind.is_demand() {
            self.table.set(set, way, HAWKEYE_RRPV_MAX);
            return;
        }
        let snap = feature_indices(&self.context(info));
        self.sample(set, info, snap);
        let sum = self.predict(&snap);
        let rrpv = if sum >= DEAD_THRESHOLD {
            self.dead_inserts += 1;
            HAWKEYE_RRPV_MAX
        } else if sum >= 0 {
            HAWKEYE_RRPV_MAX - 1
        } else {
            self.live_inserts += 1;
            0
        };
        self.table.set(set, way, rrpv);
        self.last_miss_pc = info.pc;
        self.push_history(info.pc);
    }

    fn diag(&self) -> String {
        format!(
            "bypasses={} dead_inserts={} live_inserts={}",
            self.bypasses, self.dead_inserts, self.live_inserts
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

    /// Saturates the predictor toward dead for one access shape.
    fn make_dead(p: &mut Mpppb, info: &AccessInfo) {
        let snap = feature_indices(&p.context(info));
        for _ in 0..40 {
            p.train(&snap, true);
        }
    }

    #[test]
    fn confident_dead_predictions_bypass() {
        let mut p = Mpppb::new(128, 4);
        let info = load(0xDEAD, 0x99, 1);
        make_dead(&mut p, &info);
        assert_eq!(p.victim(1, &info), Victim::Bypass);
        assert_eq!(p.bypasses, 1);
    }

    #[test]
    fn writebacks_never_bypass() {
        let mut p = Mpppb::new(128, 4);
        let wb = AccessInfo { pc: 0, block: 0x99, set: 1, kind: AccessType::Writeback };
        make_dead(&mut p, &load(0, 0x99, 1));
        assert!(matches!(p.victim(1, &wb), Victim::Way(_)));
    }

    #[test]
    fn cold_predictor_inserts_cool_not_dead() {
        let mut p = Mpppb::new(128, 4);
        p.on_fill(2, 0, &load(0x10, 0x5, 2), None);
        // Sum 0 -> HAWKEYE_RRPV_MAX - 1 (cool but not immediately dead).
        assert_eq!(p.table.get(2, 0), HAWKEYE_RRPV_MAX - 1);
    }

    #[test]
    fn trained_live_inserts_at_zero() {
        let mut p = Mpppb::new(128, 4);
        let info = load(0x42, 0x7, 2);
        let snap = feature_indices(&p.context(&info));
        for _ in 0..40 {
            p.train(&snap, false);
        }
        p.on_fill(2, 1, &info, None);
        assert_eq!(p.table.get(2, 1), 0);
        assert_eq!(p.live_inserts, 1);
    }

    #[test]
    fn shadow_sampler_learns_streaming_is_dead() {
        let mut p = Mpppb::new(64, 4);
        // Stream distinct blocks from one PC through sampled set 0: every
        // shadow entry dies unused.
        for b in 0..200u64 {
            p.on_fill(0, (b % 4) as u32, &load(0xAAA, b, 0), None);
        }
        let info = load(0xAAA, 10_000, 0);
        let snap = feature_indices(&p.context(&info));
        assert!(p.predict(&snap) > 0, "streaming PC should be predicted dead");
    }

    #[test]
    fn shadow_sampler_learns_reuse_is_live() {
        let mut p = Mpppb::new(64, 4);
        // Hit the same two blocks over and over in sampled set 0.
        for i in 0..200u64 {
            p.on_hit(0, (i % 2) as u32, &load(0xBBB, i % 2, 0));
        }
        let info = load(0xBBB, 0, 0);
        let snap = feature_indices(&p.context(&info));
        assert!(p.predict(&snap) < 0, "reused PC should be predicted live");
    }

    #[test]
    fn promotion_demotes_predicted_dead_hits() {
        let mut p = Mpppb::new(128, 4);
        let info = load(0xCCC, 0x3, 5);
        p.on_fill(5, 2, &info, None);
        make_dead(&mut p, &info);
        p.on_hit(5, 2, &info);
        assert_eq!(p.table.get(5, 2), HAWKEYE_RRPV_MAX - 1, "dead hit parks near eviction");
    }

    #[test]
    fn pc_history_shifts() {
        let mut p = Mpppb::new(128, 4);
        p.on_fill(1, 0, &load(11, 1, 1), None);
        p.on_fill(1, 1, &load(22, 2, 1), None);
        p.on_fill(1, 2, &load(33, 3, 1), None);
        assert_eq!(p.pc_history, [33, 22, 11]);
    }
}
