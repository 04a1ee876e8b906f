//! Set-associative cache level with pluggable replacement.

mod mshr;
mod stats;

pub use mshr::{MshrBank, MshrGrant, MshrSlots};
pub use stats::CacheStats;

use ccsim_policies::{AccessInfo, AccessType, PolicyDispatch, ReplacementPolicy, Victim};

use crate::config::CacheConfig;

/// Tag word of an empty slot. Tags are 64-byte block addresses (full
/// addresses shifted right by 6), so bit 63 of a real tag is never set
/// and the sentinel collides with no storable block.
pub const TAG_INVALID: u64 = u64::MAX;

/// Result of a fill: what (if anything) was displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillOutcome {
    /// The block was cached; a dirty victim (if any) must be written back.
    Filled {
        /// Way of the set the block now occupies.
        way: u32,
        /// Displaced dirty block that must be written to the level below.
        writeback: Option<u64>,
    },
    /// The policy bypassed the fill (block not cached).
    Bypassed,
}

/// One cache level: tag array + replacement policy + statistics + MSHRs.
///
/// The cache is *write-back, write-allocate* and stores full block
/// addresses as tags. The set index is the block address modulo the set
/// count (sets are a power of two, validated by
/// [`CacheConfig::validate`]).
///
/// The level is generic over its policy `P`. The default,
/// [`PolicyDispatch`], is what a level under study holds (the LLC): one
/// enum over every built-in policy, dispatched per hook. A level that
/// always runs one policy names it — the simulator's L1D and L2 are
/// `Cache<Lru>` — and its hooks inline with no dispatch at all.
///
/// # Hot-path contract
///
/// Steady-state accesses (lookup + fill, including victim queries) perform
/// **zero heap allocations**. The tag store is a struct-of-arrays: one
/// contiguous `Vec<u64>` of packed tag words (block address, or
/// [`TAG_INVALID`] for an empty slot) plus a one-bit-per-slot dirty
/// bitmap, so `probe`'s way scan reads one contiguous `u64` slice and
/// stops at the hit. The policy is driven through statically dispatched
/// [`ReplacementPolicy`] hooks and sees only set, way and access — never
/// the tag store.
/// `tests/alloc_free.rs` enforces the allocation-free property with a
/// counting allocator.
#[derive(Debug)]
pub struct Cache<P: ReplacementPolicy = PolicyDispatch> {
    name: &'static str,
    sets: u32,
    ways: u32,
    latency: u64,
    /// SoA tag store, set-major: slot `set * ways + way` holds the block
    /// address resident in that way, or [`TAG_INVALID`].
    tags: Vec<u64>,
    /// Dirty bits, one per tag slot, packed 64 slots per word.
    dirty: Vec<u64>,
    policy: P,
    mshrs: MshrBank,
    stats: CacheStats,
    /// Valid lines per set. Lines are never invalidated (the hierarchy is
    /// non-inclusive, without back-invalidation), so the valid ways of a
    /// set are always a prefix and this counter *is* the first free way —
    /// fills skip the invalid-way scan entirely.
    occupied: Vec<u16>,
}

impl<P: ReplacementPolicy> Cache<P> {
    /// Builds a cache from `config` with the given `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (callers validate configs at
    /// the simulator boundary; this is a defence in depth).
    pub fn new(name: &'static str, config: CacheConfig, policy: P) -> Self {
        config.validate().expect("invalid cache config");
        let slots = (config.sets * config.ways) as usize;
        Cache {
            name,
            sets: config.sets,
            ways: config.ways,
            latency: config.latency,
            tags: vec![TAG_INVALID; slots],
            dirty: vec![0; slots.div_ceil(64)],
            policy,
            mshrs: MshrBank::new(config.mshrs),
            stats: CacheStats::default(),
            occupied: vec![0; config.sets as usize],
        }
    }

    /// Cache name (for reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Access (hit) latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Set index for `block`.
    #[inline]
    pub fn set_of(&self, block: u64) -> u32 {
        (block & (self.sets as u64 - 1)) as u32
    }

    /// The MSHR bank (the hierarchy drives miss timing through it).
    pub fn mshrs(&mut self) -> &mut MshrBank {
        &mut self.mshrs
    }

    /// Policy diagnostic line.
    pub fn policy_diag(&self) -> String {
        self.policy.diag()
    }

    /// Index of `(set, way)` in the set-major slot order of the tag store
    /// (and of any per-slot column kept beside it).
    #[inline]
    pub fn slot(&self, set: u32, way: u32) -> u32 {
        set * self.ways + way
    }

    #[inline]
    fn idx(&self, set: u32, way: u32) -> usize {
        self.slot(set, way) as usize
    }

    #[inline]
    fn dirty_bit(&self, slot: usize) -> bool {
        self.dirty[slot >> 6] >> (slot & 63) & 1 != 0
    }

    #[inline]
    fn write_dirty(&mut self, slot: usize, dirty: bool) {
        let bit = 1u64 << (slot & 63);
        let word = &mut self.dirty[slot >> 6];
        *word = (*word & !bit) | (u64::from(dirty) * bit);
    }

    /// Looks up `block` without changing any state: an early-exit scan of
    /// the set's tag words. Empty slots hold [`TAG_INVALID`], which matches
    /// no block, and a block sits in at most one way. The scan measured
    /// faster than a branch-free match mask, hits and misses alike: the
    /// default x86-64 target has no packed 64-bit compare (`pcmpeqq` is
    /// SSE4.1), so the mask compiled to a serial chain.
    #[inline]
    pub fn probe(&self, block: u64) -> Option<u32> {
        debug_assert_ne!(block, TAG_INVALID, "block collides with the empty-slot sentinel");
        let base = self.idx(self.set_of(block), 0);
        let tags = &self.tags[base..base + self.ways as usize];
        tags.iter().position(|&tag| tag == block).map(|way| way as u32)
    }

    /// Processes a lookup: returns `Some(way)` and updates policy/stats on a
    /// hit, or `None` after counting a miss.
    ///
    /// Store (RFO) hits and writeback hits mark the line dirty. Always
    /// inlined: every level calls it once per access, and as a call it
    /// passes the access through memory (measured 15 % slower on the
    /// front end's walk of a miss-heavy trace).
    #[inline(always)]
    pub fn lookup(&mut self, info: &AccessInfo) -> Option<u32> {
        debug_assert_eq!(info.set, self.set_of(info.block));
        let hit = self.probe(info.block);
        match info.kind {
            AccessType::Writeback => {
                self.stats.writeback_accesses += 1;
                if hit.is_some() {
                    self.stats.writeback_hits += 1;
                }
            }
            _ => {
                self.stats.demand_accesses += 1;
                if hit.is_some() {
                    self.stats.demand_hits += 1;
                } else {
                    self.stats.demand_misses += 1;
                }
            }
        }
        if let Some(way) = hit {
            if matches!(info.kind, AccessType::Rfo | AccessType::Writeback) {
                self.mark_dirty(self.slot(info.set, way));
            }
            self.policy.on_hit(info.set, way, info);
        }
        hit
    }

    /// Marks the line in `slot` dirty: the part of a store hit's
    /// [`Cache::lookup`] that a caller serving the hit without one (the
    /// front end's L1D, on its set's most recent line) still owes.
    #[inline]
    pub(crate) fn mark_dirty(&mut self, slot: u32) {
        let slot = slot as usize;
        self.dirty[slot >> 6] |= 1 << (slot & 63);
    }

    /// Counts `hits` demand hits that the caller served without a
    /// [`Cache::lookup`] each, as `hits` lookups would have counted them.
    #[inline]
    pub(crate) fn count_demand_hits(&mut self, hits: u64) {
        self.stats.demand_accesses += hits;
        self.stats.demand_hits += hits;
    }

    /// Allocates `info.block`, consulting the policy for a victim when the
    /// set is full. Returns what was displaced, or [`FillOutcome::Bypassed`]
    /// if the policy declined a demand fill.
    ///
    /// The line is installed clean for loads and dirty for RFOs/writebacks.
    pub fn fill(&mut self, info: &AccessInfo) -> FillOutcome {
        debug_assert_eq!(info.set, self.set_of(info.block));
        debug_assert!(self.probe(info.block).is_none(), "fill of resident block");
        let set = info.set;
        let way = if (self.occupied[set as usize] as u32) < self.ways {
            // Valid lines form a prefix (nothing ever invalidates a line),
            // so the occupancy counter is the first free way.
            self.occupied[set as usize] as u32
        } else {
            match self.policy.victim(set, info) {
                Victim::Way(w) => {
                    assert!(w < self.ways, "{}: policy victim out of range", self.name);
                    w
                }
                Victim::Bypass => {
                    if info.kind.is_demand() {
                        self.stats.bypasses += 1;
                        return FillOutcome::Bypassed;
                    }
                    // Writebacks cannot bypass (the incoming dirty block
                    // must land somewhere): re-query with bypassing
                    // forbidden so the eviction follows the policy's own
                    // aging order, and count the override.
                    self.stats.writeback_bypass_overrides += 1;
                    let w = self.policy.forced_victim(set, info);
                    assert!(w < self.ways, "{}: forced victim out of range", self.name);
                    w
                }
            }
        };
        let i = self.idx(set, way);
        let old_tag = self.tags[i];
        let mut writeback = None;
        if old_tag != TAG_INVALID {
            self.stats.evictions += 1;
            if self.dirty_bit(i) {
                self.stats.writebacks_out += 1;
                writeback = Some(old_tag);
            }
        } else {
            self.occupied[set as usize] += 1;
        }
        self.tags[i] = info.block;
        self.write_dirty(i, matches!(info.kind, AccessType::Rfo | AccessType::Writeback));
        self.stats.fills += 1;
        self.policy.on_fill(set, way, info, (old_tag != TAG_INVALID).then_some(old_tag));
        FillOutcome::Filled { way, writeback }
    }

    /// Number of valid lines (for tests and occupancy reports).
    pub fn occupancy(&self) -> usize {
        self.occupied.iter().map(|&o| o as usize).sum()
    }

    /// Bytes of hot per-access state: the packed tag words, the dirty
    /// bitmap and the occupancy counters — everything a probe or fill
    /// touches besides policy metadata.
    pub fn hot_state_bytes(&self) -> u64 {
        (self.tags.len() * 8 + self.dirty.len() * 8 + self.occupied.len() * 2) as u64
    }

    /// Notes a demand miss that merged into an outstanding MSHR.
    pub fn note_mshr_merge(&mut self) {
        self.stats.mshr_merges += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_policies::util::SplitMix64;
    use ccsim_policies::{Lru, PolicyKind};

    fn small() -> Cache {
        let cfg = CacheConfig { sets: 4, ways: 2, latency: 1, mshrs: 2 };
        Cache::new("test", cfg, PolicyKind::Lru.build_dispatch(cfg.sets, cfg.ways))
    }

    fn load<P: ReplacementPolicy>(cache: &Cache<P>, block: u64) -> AccessInfo {
        AccessInfo { pc: 0x400, block, set: cache.set_of(block), kind: AccessType::Load }
    }

    fn rfo<P: ReplacementPolicy>(cache: &Cache<P>, block: u64) -> AccessInfo {
        AccessInfo { pc: 0x404, block, set: cache.set_of(block), kind: AccessType::Rfo }
    }

    fn wb<P: ReplacementPolicy>(cache: &Cache<P>, block: u64) -> AccessInfo {
        AccessInfo { pc: 0, block, set: cache.set_of(block), kind: AccessType::Writeback }
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        let a = load(&c, 0x100);
        assert_eq!(c.lookup(&a), None);
        assert_eq!(c.fill(&a), FillOutcome::Filled { way: 0, writeback: None });
        assert!(c.lookup(&a).is_some());
        assert_eq!(c.stats().demand_misses, 1);
        assert_eq!(c.stats().demand_hits, 1);
    }

    #[test]
    fn set_mapping_uses_low_bits() {
        let c = small();
        assert_eq!(c.set_of(0), 0);
        assert_eq!(c.set_of(5), 1);
        assert_eq!(c.set_of(7), 3);
        assert_eq!(c.set_of(8), 0);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        // Blocks 0, 4, 8 all map to set 0 (sets=4).
        let w = rfo(&c, 0);
        c.fill(&w); // dirty
        c.fill(&load(&c, 4));
        // Set full; filling 8 evicts LRU = block 0 (dirty).
        let out = c.fill(&load(&c, 8));
        assert_eq!(out, FillOutcome::Filled { way: 0, writeback: Some(0) });
        assert_eq!(c.stats().writebacks_out, 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small();
        c.fill(&load(&c, 0));
        c.fill(&load(&c, 4));
        let out = c.fill(&load(&c, 8));
        assert_eq!(out, FillOutcome::Filled { way: 0, writeback: None });
    }

    #[test]
    fn rfo_hit_marks_dirty() {
        let mut c = small();
        c.fill(&load(&c, 0x20));
        assert!(c.lookup(&rfo(&c, 0x20)).is_some());
        c.fill(&load(&c, 0x24));
        // Evicting 0x20 must now produce a writeback.
        let out = c.fill(&load(&c, 0x28));
        assert_eq!(out, FillOutcome::Filled { way: 0, writeback: Some(0x20) });
    }

    #[test]
    fn writeback_lookup_counts_separately() {
        let mut c = small();
        c.fill(&load(&c, 0x30));
        assert!(c.lookup(&wb(&c, 0x30)).is_some());
        assert_eq!(c.stats().writeback_accesses, 1);
        assert_eq!(c.stats().writeback_hits, 1);
        assert_eq!(c.stats().demand_accesses, 0);
    }

    #[test]
    fn occupancy_counts_valid_lines() {
        let mut c = small();
        assert_eq!(c.occupancy(), 0);
        c.fill(&load(&c, 1));
        c.fill(&load(&c, 2));
        assert_eq!(c.occupancy(), 2);
    }

    /// The check is a `debug_assert!` on the fill path: a release build
    /// does not make it, so there the test is reported as ignored.
    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "checks a debug assertion")]
    #[should_panic(expected = "fill of resident block")]
    fn double_fill_rejected_in_debug() {
        let mut c = small();
        c.fill(&load(&c, 9));
        c.fill(&load(&c, 9));
    }

    #[test]
    fn dirty_bitmap_tracks_slots_beyond_the_first_word() {
        // 64 sets x 2 ways = 128 slots: set 40 lives in slots 80/81,
        // past the first 64-bit dirty word.
        let cfg = CacheConfig { sets: 64, ways: 2, latency: 1, mshrs: 2 };
        let mut c = Cache::new("wide", cfg, PolicyKind::Lru.build_dispatch(cfg.sets, cfg.ways));
        c.fill(&rfo(&c, 40)); // dirty
        c.fill(&load(&c, 40 + 64)); // clean, same set
        let out = c.fill(&load(&c, 40 + 128)); // evicts LRU = dirty block 40
        assert_eq!(out, FillOutcome::Filled { way: 0, writeback: Some(40) });
        let out = c.fill(&load(&c, 40 + 192)); // evicts clean block 104
        assert_eq!(out, FillOutcome::Filled { way: 1, writeback: None });
    }

    #[test]
    fn hot_state_bytes_counts_tags_dirty_words_and_occupancy() {
        // 4 sets x 2 ways: 8 tag words + 1 dirty word + 4 u16 counters.
        assert_eq!(small().hot_state_bytes(), 8 * 8 + 8 + 4 * 2);
    }

    #[test]
    fn probe_agrees_with_a_linear_scan() {
        for ways in [1, 11, crate::config::MAX_WAYS] {
            let cfg = CacheConfig { sets: 4, ways, latency: 1, mshrs: 2 };
            let mut c: Cache<Lru> = Cache::new("probe", cfg, Lru::new(cfg.sets, cfg.ways));
            // Set 1 fills up to full and then evicts; set 2 stays empty.
            for n in 0..u64::from(ways) + 3 {
                for block in (0..u64::from(ways) + 4).map(|b| 4 * b + 1).chain([2, 6]) {
                    let set = c.set_of(block);
                    let valid = u32::from(c.occupied[set as usize]);
                    let scan = (0..valid).find(|&w| c.tags[c.idx(set, w)] == block);
                    let at = format!("ways {ways}, {n} fills, block {block}");
                    assert_eq!(c.probe(block), scan, "{at}");
                    if set == 1 {
                        assert_eq!(c.lookup(&load(&c, block)), scan, "{at}");
                    }
                }
                c.fill(&load(&c, 4 * n + 1));
            }
            assert_eq!(u32::from(c.occupied[1]), ways, "set 1 ends full");
            assert!(c.stats().evictions > 0, "ways {ways}: full set 1 evicted");
        }
    }

    /// A level that names its policy, `Cache<Lru>`, answers exactly as one
    /// that dispatches to the same policy through `PolicyDispatch`.
    #[test]
    fn static_lru_matches_dispatched_lru() {
        let geometries = [
            crate::config::SimConfig::cascade_lake().l1d,
            crate::config::SimConfig::cascade_lake().l2,
        ];
        for cfg in geometries {
            let mut fixed: Cache<Lru> = Cache::new("fixed", cfg, Lru::new(cfg.sets, cfg.ways));
            let mut dispatched =
                Cache::new("dispatched", cfg, PolicyKind::Lru.build_dispatch(cfg.sets, cfg.ways));
            let mut rng = SplitMix64::new(0x1DE5);
            let blocks = 3 * u64::from(cfg.sets * cfg.ways);
            for n in 0..200_000 {
                let block = rng.below(blocks);
                let kind = match rng.below(10) {
                    0 | 1 => AccessType::Rfo,
                    2 => AccessType::Writeback,
                    _ => AccessType::Load,
                };
                let info = AccessInfo { pc: 0x400, block, set: fixed.set_of(block), kind };
                let hit = fixed.lookup(&info);
                assert_eq!(hit, dispatched.lookup(&info), "{cfg:?}: lookup {n}");
                if hit.is_none() {
                    assert_eq!(fixed.fill(&info), dispatched.fill(&info), "{cfg:?}: fill {n}");
                }
            }
            assert_eq!(fixed.stats(), dispatched.stats(), "{cfg:?}");
            let stats = fixed.stats();
            assert!(stats.demand_hits > 0 && stats.writeback_hits > 0, "{cfg:?}: {stats:?}");
            assert!(stats.writebacks_out > 0, "{cfg:?}: {stats:?}");
        }
    }
}
