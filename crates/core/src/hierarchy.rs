//! The three-level memory hierarchy: L1D -> L2 -> LLC -> DRAM.
//!
//! The hierarchy is *non-inclusive* with fill-on-miss at every level (the
//! ChampSim model): a demand miss walks down until it hits (or reaches
//! DRAM) and fills every level on the way back. Dirty victims become
//! posted writebacks to the level below; they update state and occupy DRAM
//! banks but do not lengthen the demand path that displaced them.
//!
//! Timing composes per level: a lookup costs the level's hit latency; a
//! miss acquires an MSHR (merging with an outstanding miss to the same
//! block, or waiting when the bank is exhausted) and then pays the
//! downstream path.

use ccsim_policies::{AccessInfo, AccessType, PolicyDispatch, PolicyKind};

use crate::cache::{Cache, CacheStats, FillOutcome, MshrGrant};
use crate::config::{CacheConfig, SimConfig};
use crate::dram::{Dram, DramStats};

/// Identifies the cache levels for stats queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// First-level data cache.
    L1d,
    /// Unified second-level cache.
    L2,
    /// Last-level cache.
    Llc,
}

/// The memory hierarchy. L1D and L2 always use true LRU (as in the paper's
/// setup); the LLC runs the policy under study.
#[derive(Debug)]
pub struct Hierarchy {
    /// The cache levels, indexed by [`Level`]; index `levels.len()` is DRAM.
    levels: [Cache; 3],
    dram: Dram,
    /// Optional capture of the LLC demand stream (set, block) for offline
    /// OPT analysis.
    llc_log: Option<Vec<(u32, u64)>>,
}

impl Hierarchy {
    /// Builds the hierarchy with `llc_policy` at the last level.
    pub fn new(config: &SimConfig, llc_policy: PolicyDispatch) -> Self {
        let lru = |c: CacheConfig| PolicyKind::Lru.build_dispatch(c.sets, c.ways);
        Hierarchy {
            levels: [
                Cache::new("L1D", config.l1d, lru(config.l1d)),
                Cache::new("L2", config.l2, lru(config.l2)),
                Cache::new("LLC", config.llc, llc_policy),
            ],
            dram: Dram::new(config.dram),
            llc_log: None,
        }
    }

    /// Enables recording of the LLC demand stream (for Belady analysis).
    pub fn enable_llc_log(&mut self) {
        self.llc_log = Some(Vec::new());
    }

    /// Takes the recorded LLC demand stream, if logging was enabled.
    pub fn take_llc_log(&mut self) -> Option<Vec<(u32, u64)>> {
        self.llc_log.take()
    }

    /// Stats of one cache level.
    pub fn cache_stats(&self, level: Level) -> &CacheStats {
        self.levels[level as usize].stats()
    }

    /// DRAM statistics.
    pub fn dram_stats(&self) -> &DramStats {
        self.dram.stats()
    }

    /// Diagnostic line from the LLC policy.
    pub fn llc_policy_diag(&self) -> String {
        self.levels[Level::Llc as usize].policy_diag()
    }

    /// Combined hot tag-state footprint of the three levels (see
    /// [`Cache::hot_state_bytes`]) — what one replay engine keeps warm
    /// per record.
    pub fn hot_state_bytes(&self) -> u64 {
        self.levels.iter().map(Cache::hot_state_bytes).sum()
    }

    /// Issues a demand access (load or store) at cycle `at`; returns the
    /// cycle its data is available.
    pub fn demand_access(&mut self, pc: u64, vaddr: u64, is_store: bool, at: u64) -> u64 {
        let block = vaddr >> ccsim_trace::BLOCK_SHIFT;
        let kind = if is_store { AccessType::Rfo } else { AccessType::Load };
        self.access(Level::L1d as usize, pc, block, kind, at)
    }

    /// The demand walk: looks `block` up at `level` and, on a miss, fetches
    /// it from the level below and fills on the way back. Level
    /// `levels.len()` is the DRAM read. Returns the cycle the data is
    /// available at `level`.
    fn access(&mut self, level: usize, pc: u64, block: u64, kind: AccessType, at: u64) -> u64 {
        let Some(cache) = self.levels.get_mut(level) else {
            return self.dram.access(block, at, false);
        };
        let info = AccessInfo { pc, block, set: cache.set_of(block), kind };
        if level == Level::Llc as usize {
            if let Some(log) = &mut self.llc_log {
                log.push((info.set, block));
            }
        }
        let after_tag = at + cache.latency();
        if cache.lookup(&info).is_some() {
            // A tag hit on a block whose fill is still in flight must wait
            // for the fill (fills update tags eagerly, timing lags).
            let fill_ready = cache.mshrs().pending(block).unwrap_or(0);
            return after_tag.max(fill_ready);
        }
        match cache.mshrs().acquire(block, after_tag) {
            MshrGrant::Merged { completes_at } => {
                cache.note_mshr_merge();
                completes_at
            }
            MshrGrant::Issue { slot, start_at } => {
                let done = self.access(level + 1, pc, block, kind, start_at);
                if let FillOutcome::Filled { writeback: Some(victim) } =
                    self.levels[level].fill(&info)
                {
                    self.writeback(level + 1, victim, done);
                }
                self.levels[level].mshrs().complete(slot, block, done);
                done
            }
        }
    }

    /// Posted writeback of a dirty victim into `level` (updates in place on
    /// a hit, allocates otherwise, cascading its own dirty victim down).
    /// Level `levels.len()` is the DRAM write, which occupies a bank at
    /// `at` but is on no demand path.
    fn writeback(&mut self, level: usize, block: u64, at: u64) {
        let Some(cache) = self.levels.get_mut(level) else {
            let _ = self.dram.access(block, at, true);
            return;
        };
        let info =
            AccessInfo { pc: 0, block, set: cache.set_of(block), kind: AccessType::Writeback };
        if cache.lookup(&info).is_some() {
            return;
        }
        if let FillOutcome::Filled { writeback: Some(victim) } = cache.fill(&info) {
            self.writeback(level + 1, victim, at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> Hierarchy {
        let cfg = SimConfig::tiny();
        Hierarchy::new(&cfg, PolicyKind::Lru.build_dispatch(cfg.llc.sets, cfg.llc.ways))
    }

    #[test]
    fn cold_miss_walks_all_levels_and_fills() {
        let mut h = hierarchy();
        let t = h.demand_access(0x400, 0x10_000, false, 0);
        // Full path: L1 tag + L2 tag + LLC tag + DRAM(empty row).
        let cfg = SimConfig::tiny();
        let dram_lat = cfg.dram.t_controller + cfg.dram.t_rcd + cfg.dram.t_cas + cfg.dram.t_burst;
        assert_eq!(t, cfg.l1d.latency + cfg.l2.latency + cfg.llc.latency + dram_lat);
        assert_eq!(h.cache_stats(Level::L1d).demand_misses, 1);
        assert_eq!(h.cache_stats(Level::L2).demand_misses, 1);
        assert_eq!(h.cache_stats(Level::Llc).demand_misses, 1);
        // Second access: L1 hit.
        let t2 = h.demand_access(0x400, 0x10_000, false, t);
        assert_eq!(t2, t + cfg.l1d.latency);
        assert_eq!(h.cache_stats(Level::L1d).demand_hits, 1);
    }

    #[test]
    fn fills_populate_every_level() {
        let mut h = hierarchy();
        h.demand_access(0x400, 0x20_000, false, 0);
        // Evict from L1 by touching conflicting blocks; the block must
        // still hit in L2.
        let block = 0x20_000u64 >> 6;
        assert!(h.levels.iter().all(|cache| cache.probe(block).is_some()));
    }

    #[test]
    fn access_during_outstanding_fill_waits_for_it() {
        let mut h = hierarchy();
        let t1 = h.demand_access(0x400, 0x30_000, false, 0);
        // A second access to the same block issued before the fill arrives
        // hits in the (eagerly updated) tags but cannot complete before the
        // in-flight fill, and must not issue a second DRAM read.
        let reads_before = h.dram_stats().reads;
        let t2 = h.demand_access(0x404, 0x30_010, false, 1);
        assert_eq!(t2, t1, "must wait for the outstanding fill");
        assert_eq!(h.dram_stats().reads, reads_before);
    }

    #[test]
    fn store_misses_issue_rfo_and_dirty_the_line() {
        let mut h = hierarchy();
        h.demand_access(0x400, 0x40_000, true, 0);
        assert_eq!(h.cache_stats(Level::L1d).demand_misses, 1);
        // Force the dirty line out of L1: two more conflicting blocks in
        // the same L1 set (l1 tiny: 2 sets, 2 ways).
        let base = 0x40_000u64;
        let step = 64 * 2; // same set every 2 blocks
        h.demand_access(0x400, base + step, false, 100);
        h.demand_access(0x400, base + 2 * step, false, 200);
        // The dirty block was written back to L2 (writeback hit there).
        assert!(h.cache_stats(Level::L2).writeback_accesses >= 1);
    }

    #[test]
    fn llc_log_captures_demand_stream() {
        let mut h = hierarchy();
        h.enable_llc_log();
        h.demand_access(0x400, 0x50_000, false, 0);
        h.demand_access(0x400, 0x50_000, false, 1000); // L1 hit: no LLC access
        let log = h.take_llc_log().unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].1, 0x50_000 >> 6);
    }

    #[test]
    fn dram_reached_only_on_llc_miss() {
        let mut h = hierarchy();
        h.demand_access(0x400, 0x60_000, false, 0);
        assert_eq!(h.dram_stats().reads, 1);
        // Evict from L1+L2 but not LLC is hard to arrange in tiny config;
        // instead verify an immediate re-access stays out of DRAM.
        h.demand_access(0x400, 0x60_000, false, 5000);
        assert_eq!(h.dram_stats().reads, 1);
    }
}
