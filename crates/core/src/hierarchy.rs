//! The three-level memory hierarchy: L1D -> L2 -> LLC -> DRAM, split at
//! the L2/LLC boundary into a shared [`FrontEnd`] and a per-cell
//! [`BackEnd`].
//!
//! The hierarchy is *non-inclusive* with fill-on-miss at every level (the
//! ChampSim model): a demand miss walks down until it hits (or reaches
//! DRAM) and fills every level on the way back. Dirty victims become
//! posted writebacks to the level below; they update state and occupy DRAM
//! banks but do not lengthen the demand path that displaced them.
//!
//! **What is shared.** L1D and L2 always run LRU and their tag store is
//! the only source of their state: which block sits in which slot is a
//! pure function of the trace, never of timing. A block evicted while its
//! fill is still in flight re-misses as a fresh miss; nothing merges at
//! those two levels. So the [`FrontEnd`] walks L1D and L2 once per record
//! and emits a 16-byte [`UpperEvent`] — the slots it touched, whether
//! each level hit, and how many dirty L2 victims it sends to the LLC —
//! while the victims themselves go, in walk order, into the [`Walk`]'s
//! one victim buffer. Every grid cell with the same L1D and L2 geometry
//! replays that one walk, taking each stepped event's victims through a
//! cursor.
//!
//! **What the front end pays for.** Its levels never depend on the policy
//! under study, so they are `Cache<Lru>`: the LRU hooks inline, with no
//! enum dispatch on hits, fills or victim queries. And most L1D hits land
//! on the block their set touched last, so the front end keeps that way
//! per L1D set and checks its tag before scanning the set
//! ([`Cache::probe_hinted`]); the policy still sees every hit.
//!
//! **What each cell keeps.** A [`BackEnd`] holds the timing of the upper
//! levels — a `ready_at` cycle per L1D/L2 slot and the `free_at` cycle of
//! each MSHR — plus its own LLC (policy under study, MSHRs that merge
//! same-block misses) and DRAM. Timing composes per level: a lookup costs
//! the level's hit latency, a tag hit on a line whose fill has not landed
//! waits for that slot's `ready_at`, and a miss waits for a free MSHR and
//! then pays the downstream path.
//!
//! [`Hierarchy`] is one front end plus one back end, stepped together —
//! the same walk the grid driver runs, at width one.

use ccsim_policies::{AccessInfo, AccessType, Lru, PolicyDispatch};
use ccsim_trace::TraceRecord;

use crate::cache::{Cache, CacheStats, FillOutcome, MshrGrant, MshrSlots};
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

/// The `l2_writeback_slot` of an event whose L1D victim caused no L2
/// fill. Slots index a `sets * ways` array, so no real slot is this.
const NO_SLOT: u32 = u32::MAX;

/// What the front end did for one demand access: everything a cell needs
/// to time it. Sixteen bytes: the dirty L2 victims it sends to the LLC
/// (at most two) go out of line, into the [`Walk`]'s victim buffer, and
/// the event keeps only their count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct UpperEvent {
    /// The L1D slot the access hit, or filled on a miss.
    l1_slot: u32,
    /// The L2 slot the L1D miss hit or filled (unused on an L1D hit).
    l2_slot: u32,
    /// The L2 slot the L1D victim's writeback filled, or [`NO_SLOT`].
    l2_writeback_slot: u32,
    l1_hit: bool,
    l2_hit: bool,
    /// How many dirty L2 victims the access sends to the LLC (0 to 2):
    /// its entries of the walk's victim buffer — the victim of the L2
    /// demand fill, then that of the L1D writeback's L2 fill.
    victims: u8,
}

impl UpperEvent {
    /// An L1D hit in `l1_slot`.
    fn l1_hit(l1_slot: u32) -> UpperEvent {
        UpperEvent {
            l1_slot,
            l2_slot: 0,
            l2_writeback_slot: NO_SLOT,
            l1_hit: true,
            l2_hit: false,
            victims: 0,
        }
    }

    /// Whether the access missed L1D and L2 and so looks up the LLC.
    pub(crate) fn reaches_llc(&self) -> bool {
        !self.l1_hit && !self.l2_hit
    }
}

/// A front end's walk over a piece of records: one [`UpperEvent`] per
/// record, and the dirty L2 victims of all of them in walk order — each
/// event's `victims` consecutive entries, consumed through a cursor as a
/// cell replays the events in order.
#[derive(Debug, Default)]
pub(crate) struct Walk {
    pub(crate) events: Vec<UpperEvent>,
    pub(crate) victims: Vec<u64>,
}

impl Walk {
    /// Empties both buffers, then reserves room for a walk of `records`
    /// records — in that order, so a buffer that still holds the last
    /// walk does not grow.
    fn reset(&mut self, records: usize) {
        self.events.clear();
        self.victims.clear();
        self.events.reserve_exact(records);
        self.victims.reserve_exact(2 * records);
    }
}

/// The functional L1D and L2: LRU tag stores and their statistics, shared
/// by every cell of a grid with the same L1D and L2 geometry.
#[derive(Debug)]
pub(crate) struct FrontEnd {
    l1d: Cache<Lru>,
    l2: Cache<Lru>,
    /// Per L1D set, the way it last hit or filled: the way
    /// [`FrontEnd::step`] checks before it scans the set. A way fits in a
    /// byte (see the assertion below).
    l1_last_way: Vec<u8>,
    /// The L1D and L2 geometry it was built from.
    geometry: [(u32, u32); 2],
}

const _: () = assert!(crate::config::MAX_WAYS <= 1 << u8::BITS, "L1D ways must fit a u8 hint");

/// The `(sets, ways)` of `config`'s L1D and L2: all that the front end's
/// events depend on (latencies and MSHR counts are each cell's timing).
fn upper_geometry(config: &SimConfig) -> [(u32, u32); 2] {
    [(config.l1d.sets, config.l1d.ways), (config.l2.sets, config.l2.ways)]
}

impl FrontEnd {
    /// The L1D and L2 of `config`.
    pub(crate) fn new(config: &SimConfig) -> FrontEnd {
        let lru = |c: CacheConfig| Lru::new(c.sets, c.ways);
        FrontEnd {
            l1d: Cache::new("L1D", config.l1d, lru(config.l1d)),
            l2: Cache::new("L2", config.l2, lru(config.l2)),
            l1_last_way: vec![0; config.l1d.sets as usize],
            geometry: upper_geometry(config),
        }
    }

    /// Whether a cell on `config` can replay this front end's events.
    pub(crate) fn serves(&self, config: &SimConfig) -> bool {
        self.geometry == upper_geometry(config)
    }

    /// Replaces `walk` with the walk of `records`. Both buffers are
    /// reserved, after the clear, for the longest piece walked so far, so
    /// a grid's fixed-length chunks reuse them without allocating.
    pub(crate) fn walk(&mut self, records: &[TraceRecord], walk: &mut Walk) {
        walk.reset(records.len());
        for rec in records {
            self.step(rec.pc, rec.block(), demand_kind(rec), walk);
        }
    }

    /// Replaces `walk` with the walk of one demand access.
    pub(crate) fn walk_one(&mut self, pc: u64, block: u64, kind: AccessType, walk: &mut Walk) {
        walk.reset(1);
        self.step(pc, block, kind, walk);
    }

    /// Walks one demand access through L1D and L2 — lookups, fills and the
    /// L1D victim's writeback into L2 — and appends its event, and the
    /// dirty L2 victims it sends to the LLC, to `walk`.
    ///
    /// Each branch pushes its own event, so an L1D hit's is stored
    /// straight into the buffer: an event returned to one shared push is
    /// built on the stack by narrow stores and re-read as one 16-byte
    /// copy, which store forwarding cannot serve, stalling every hit. It
    /// is inlined into both walks: as a call it costs a frame per record.
    #[inline(always)]
    fn step(&mut self, pc: u64, block: u64, kind: AccessType, walk: &mut Walk) {
        let info = AccessInfo { pc, block, set: self.l1d.set_of(block), kind };
        let last_way = &mut self.l1_last_way[info.set as usize];
        let hit = self.l1d.probe_hinted(block, u32::from(*last_way));
        match self.l1d.record_lookup(&info, hit) {
            Some(way) => {
                *last_way = way as u8;
                walk.events.push(UpperEvent::l1_hit(self.l1d.slot(info.set, way)));
            }
            None => self.l1_miss(&info, walk),
        }
    }

    /// The L1D miss path of [`FrontEnd::step`], kept out of the hit loop.
    #[inline(never)]
    fn l1_miss(&mut self, info: &AccessInfo, walk: &mut Walk) {
        let victims = &mut walk.victims;
        let before = victims.len();
        let l2_info = AccessInfo { set: self.l2.set_of(info.block), ..*info };
        let l2_hit = self.l2.lookup(&l2_info);
        let l2_way = l2_hit.unwrap_or_else(|| fill(&mut self.l2, &l2_info, victims));
        let (l1_slot, l1_victim) = match self.l1d.fill(info) {
            FillOutcome::Filled { way, writeback } => {
                self.l1_last_way[info.set as usize] = way as u8;
                (self.l1d.slot(info.set, way), writeback)
            }
            FillOutcome::Bypassed => unreachable!("L1D: LRU never bypasses"),
        };
        let mut l2_writeback_slot = NO_SLOT;
        if let Some(victim) = l1_victim {
            let wb = AccessInfo {
                pc: 0,
                block: victim,
                set: self.l2.set_of(victim),
                kind: AccessType::Writeback,
            };
            if self.l2.lookup(&wb).is_none() {
                let way = fill(&mut self.l2, &wb, victims);
                l2_writeback_slot = self.l2.slot(wb.set, way);
            }
        }
        walk.events.push(UpperEvent {
            l1_slot,
            l2_slot: self.l2.slot(l2_info.set, l2_way),
            l2_writeback_slot,
            l1_hit: false,
            l2_hit: l2_hit.is_some(),
            victims: (victims.len() - before) as u8,
        });
    }

    pub(crate) fn stats(&self, level: Level) -> &CacheStats {
        match level {
            Level::L1d => self.l1d.stats(),
            _ => self.l2.stats(),
        }
    }

    /// The L1D and L2 tag stores plus the L1D's last-way hints.
    fn hot_state_bytes(&self) -> u64 {
        self.l1d.hot_state_bytes() + self.l2.hot_state_bytes() + self.l1_last_way.len() as u64
    }
}

/// The access type of a record's demand access.
pub(crate) fn demand_kind(rec: &TraceRecord) -> AccessType {
    if rec.kind.is_store() {
        AccessType::Rfo
    } else {
        AccessType::Load
    }
}

/// Fills the LRU L2 (which never bypasses): returns the way the block
/// landed in, and pushes the dirty victim it displaced onto `victims`.
fn fill(l2: &mut Cache<Lru>, info: &AccessInfo, victims: &mut Vec<u64>) -> u32 {
    match l2.fill(info) {
        FillOutcome::Filled { way, writeback } => {
            victims.extend(writeback);
            way
        }
        FillOutcome::Bypassed => unreachable!("L2: LRU never bypasses"),
    }
}

/// Timing of one upper level inside one cell: when each slot's fill lands
/// and when each MSHR frees.
#[derive(Debug)]
struct UpperTiming {
    latency: u64,
    ready_at: Vec<u64>,
    mshrs: MshrSlots,
}

impl UpperTiming {
    fn new(config: CacheConfig) -> UpperTiming {
        UpperTiming {
            latency: config.latency,
            ready_at: vec![0; (config.sets * config.ways) as usize],
            mshrs: MshrSlots::new(config.mshrs),
        }
    }
}

/// A cursor over a [`Walk`]'s victims: each L1D miss that
/// [`BackEnd::access`] times takes its event's entries from the front.
pub(crate) type Victims<'a> = std::slice::Iter<'a, u64>;

/// One cell's half of the hierarchy: the upper levels' timing, the LLC
/// under study and DRAM.
#[derive(Debug)]
pub(crate) struct BackEnd {
    l1d: UpperTiming,
    l2: UpperTiming,
    llc: Cache,
    dram: Dram,
}

impl BackEnd {
    pub(crate) fn new(config: &SimConfig, llc_policy: PolicyDispatch) -> BackEnd {
        BackEnd {
            l1d: UpperTiming::new(config.l1d),
            l2: UpperTiming::new(config.l2),
            llc: Cache::new("LLC", config.llc, llc_policy),
            dram: Dram::new(config.dram),
        }
    }

    pub(crate) fn llc_stats(&self) -> &CacheStats {
        self.llc.stats()
    }

    pub(crate) fn dram_stats(&self) -> &DramStats {
        self.dram.stats()
    }

    pub(crate) fn llc_policy_diag(&self) -> String {
        self.llc.policy_diag()
    }

    fn hot_state_bytes(&self) -> u64 {
        let columns = (self.l1d.ready_at.len() + self.l2.ready_at.len()) as u64 * 8;
        columns + self.llc.hot_state_bytes()
    }

    /// When the line of an L1D hit lands, all that [`BackEnd::access`]
    /// reads for one; `None` on an L1D miss.
    #[inline]
    pub(crate) fn l1_hit_ready(&self, event: &UpperEvent) -> Option<u64> {
        event.l1_hit.then(|| self.l1d.ready_at[event.l1_slot as usize])
    }

    /// Times the demand access the front end walked as `event`, issued at
    /// cycle `at`; returns the cycle its data is available. `victims` is
    /// the walk's victim cursor: the access takes its event's entries.
    #[inline]
    pub(crate) fn access(
        &mut self,
        pc: u64,
        block: u64,
        kind: AccessType,
        event: &UpperEvent,
        victims: &mut Victims<'_>,
        at: u64,
    ) -> u64 {
        let l1_tag = at + self.l1d.latency;
        if event.l1_hit {
            return l1_tag.max(self.l1d.ready_at[event.l1_slot as usize]);
        }
        self.l1_miss(pc, block, kind, event, victims, l1_tag)
    }

    /// The L1D miss path of [`BackEnd::access`], kept out of the hit loop.
    #[inline(never)]
    fn l1_miss(
        &mut self,
        pc: u64,
        block: u64,
        kind: AccessType,
        event: &UpperEvent,
        victims: &mut Victims<'_>,
        l1_tag: u64,
    ) -> u64 {
        let (l1_mshr, l1_start) = self.l1d.mshrs.issue(l1_tag);
        let l2_tag = l1_start + self.l2.latency;
        let done = if event.l2_hit {
            l2_tag.max(self.l2.ready_at[event.l2_slot as usize])
        } else {
            let (l2_mshr, l2_start) = self.l2.mshrs.issue(l2_tag);
            let done = self.llc_access(pc, block, kind, l2_start);
            self.l2.ready_at[event.l2_slot as usize] = done;
            self.l2.mshrs.complete(l2_mshr, done);
            done
        };
        self.l1d.ready_at[event.l1_slot as usize] = done;
        self.l1d.mshrs.complete(l1_mshr, done);
        if event.l2_writeback_slot != NO_SLOT {
            // The written-back line is the L1D's own data: nothing to wait for.
            self.l2.ready_at[event.l2_writeback_slot as usize] = 0;
        }
        for &victim in victims.by_ref().take(event.victims.into()) {
            self.llc_writeback(victim, done);
        }
        done
    }

    /// The LLC demand lookup at cycle `at`, fetching from DRAM on a miss;
    /// returns the cycle the data is available.
    fn llc_access(&mut self, pc: u64, block: u64, kind: AccessType, at: u64) -> u64 {
        let info = AccessInfo { pc, block, set: self.llc.set_of(block), kind };
        let after_tag = at + self.llc.latency();
        if self.llc.lookup(&info).is_some() {
            // A tag hit on a block whose fill is still in flight must wait
            // for the fill (fills update tags eagerly, timing lags).
            let fill_ready = self.llc.mshrs().pending(block).unwrap_or(0);
            return after_tag.max(fill_ready);
        }
        match self.llc.mshrs().acquire(block, after_tag) {
            MshrGrant::Merged { completes_at } => {
                self.llc.note_mshr_merge();
                completes_at
            }
            MshrGrant::Issue { slot, start_at } => {
                let done = self.dram.access(block, start_at, false);
                if let FillOutcome::Filled { writeback: Some(victim), .. } = self.llc.fill(&info) {
                    let _ = self.dram.access(victim, done, true);
                }
                self.llc.mshrs().complete(slot, block, done);
                done
            }
        }
    }

    /// Posted writeback of a dirty L2 victim into the LLC at cycle `at`
    /// (updates in place on a hit, allocates otherwise); the LLC's own
    /// dirty victim is a DRAM write, which occupies a bank at `at` but is
    /// on no demand path.
    fn llc_writeback(&mut self, block: u64, at: u64) {
        let info =
            AccessInfo { pc: 0, block, set: self.llc.set_of(block), kind: AccessType::Writeback };
        if self.llc.lookup(&info).is_some() {
            return;
        }
        if let FillOutcome::Filled { writeback: Some(victim), .. } = self.llc.fill(&info) {
            let _ = self.dram.access(victim, at, true);
        }
    }
}

/// The memory hierarchy of one cell: a `FrontEnd` of its own plus its
/// `BackEnd`. L1D and L2 always use true LRU (as in the paper's setup);
/// the LLC runs the policy under study.
#[derive(Debug)]
pub struct Hierarchy {
    front: FrontEnd,
    back: BackEnd,
    /// The front end's walk of the current access.
    walk: Walk,
}

impl Hierarchy {
    /// Builds the hierarchy with `llc_policy` at the last level.
    pub fn new(config: &SimConfig, llc_policy: PolicyDispatch) -> Self {
        Hierarchy {
            front: FrontEnd::new(config),
            back: BackEnd::new(config, llc_policy),
            walk: Walk::default(),
        }
    }

    /// Stats of one cache level.
    pub fn cache_stats(&self, level: Level) -> &CacheStats {
        match level {
            Level::Llc => self.back.llc_stats(),
            upper => self.front.stats(upper),
        }
    }

    /// DRAM statistics.
    pub fn dram_stats(&self) -> &DramStats {
        self.back.dram_stats()
    }

    /// Diagnostic line from the LLC policy.
    pub fn llc_policy_diag(&self) -> String {
        self.back.llc_policy_diag()
    }

    /// Hot per-access state of the three levels: the L1D/L2 tag stores
    /// (see [`Cache::hot_state_bytes`]) and the L1D's last-way hints (a
    /// byte per set), the cell's `ready_at` columns and
    /// the LLC's tag store — what one replay engine keeps warm per record.
    pub fn hot_state_bytes(&self) -> u64 {
        self.front.hot_state_bytes() + self.back.hot_state_bytes()
    }

    /// Issues a demand access (load or store) at cycle `at`; returns the
    /// cycle its data is available.
    pub fn demand_access(&mut self, pc: u64, vaddr: u64, is_store: bool, at: u64) -> u64 {
        let block = vaddr >> ccsim_trace::BLOCK_SHIFT;
        let kind = if is_store { AccessType::Rfo } else { AccessType::Load };
        self.front.walk_one(pc, block, kind, &mut self.walk);
        let Walk { events, victims } = &self.walk;
        self.back.access(pc, block, kind, &events[0], &mut victims.iter(), at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_policies::{PolicyKind, ReplacementPolicy, Victim};

    fn hierarchy() -> Hierarchy {
        let cfg = SimConfig::tiny();
        Hierarchy::new(&cfg, PolicyKind::Lru.build_dispatch(cfg.llc.sets, cfg.llc.ways))
    }

    #[test]
    fn an_event_fits_in_sixteen_bytes() {
        assert!(std::mem::size_of::<UpperEvent>() <= 16, "{}", std::mem::size_of::<UpperEvent>());
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
        let block = 0x20_000u64 >> 6;
        assert!(h.front.l1d.probe(block).is_some());
        assert!(h.front.l2.probe(block).is_some());
        assert!(h.back.llc.probe(block).is_some());
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

    /// An LLC policy that caches nothing it is asked to place.
    #[derive(Debug)]
    struct BypassAll;

    impl ReplacementPolicy for BypassAll {
        fn name(&self) -> &'static str {
            "bypass-all"
        }
        fn victim(&mut self, _: u32, _: &AccessInfo) -> Victim {
            Victim::Bypass
        }
        fn on_hit(&mut self, _: u32, _: u32, _: &AccessInfo) {}
        fn on_fill(&mut self, _: u32, _: u32, _: &AccessInfo, _: Option<u64>) {}
    }

    #[test]
    fn a_bypassed_block_requested_again_in_flight_merges_at_the_llc() {
        // Blocks 8 and 16 fill the tiny LLC's set 0, so block 32 is
        // bypassed. Blocks 36 and 44 share L1D and L2 set 0 with it and
        // push it out of both before its fill lands; the next request for
        // 32 misses everywhere and merges into the LLC's outstanding miss.
        // Eight L1D/L2 MSHRs keep those misses from queueing behind it.
        let mut cfg = SimConfig::tiny();
        (cfg.l1d.mshrs, cfg.l2.mshrs) = (8, 8);
        let mut h = Hierarchy::new(&cfg, PolicyDispatch::Custom(Box::new(BypassAll)));
        h.demand_access(0x400, 8 << 6, false, 0);
        h.demand_access(0x400, 16 << 6, false, 1000);
        let reads_before = h.dram_stats().reads;
        for (block, at) in [(32u64, 5000u64), (36, 5001), (44, 5002), (32, 5003)] {
            h.demand_access(0x400, block << 6, false, at);
        }
        let llc = h.cache_stats(Level::Llc);
        assert_eq!((llc.mshr_merges, llc.bypasses), (1, 1));
        assert_eq!(h.dram_stats().reads - reads_before, 3);
    }

    #[test]
    fn block_evicted_in_flight_re_misses_as_a_fresh_miss() {
        // Blocks 0, 2 and 4 share the tiny L1D's two-way set 0: the third
        // fill evicts block 0 while its data is still on the way, and the
        // second access to block 0 is a new L1D miss that refills — it
        // does not merge into the outstanding one.
        let mut h = hierarchy();
        for (block, at) in [(0u64, 0u64), (2, 1), (4, 2), (0, 3)] {
            h.demand_access(0x400, block << 6, false, at);
        }
        let l1d = h.cache_stats(Level::L1d);
        assert_eq!((l1d.demand_misses, l1d.fills, l1d.mshr_merges), (4, 4, 0));
        assert_eq!(h.cache_stats(Level::L2).demand_accesses, 4);
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
