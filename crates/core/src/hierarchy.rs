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
//! and emits an [`UpperEvent`] for each record a cell must time — the
//! slots it touched, whether each level hit, and how many dirty L2
//! victims it sends to the LLC — while the victims themselves go, in walk
//! order, into the [`Walk`]'s one victim buffer. Every grid cell with the
//! same L1D and L2 geometry replays that one walk, taking each stepped
//! event's victims through a cursor.
//!
//! **What a cell must time.** Every L1D miss, and each L1D load hit on a
//! line whose last fill was an RFO. Only an L1D miss writes a slot's
//! `ready_at`, and a load miss's is its own completion, which the core
//! has already taken into its latest completion; so a load hit on a
//! load-filled line never waits for its line beyond anything the core
//! waits for, and only its dispatch cycle plus the L1D latency counts. A
//! store hit retires through the store buffer. Such *quiet* records fold
//! into the next event's [`Gap`] — their instructions, and where the last
//! quiet load falls — or, after the last event, into the walk's tail: a
//! cell loops over events, not records. A front end serving a cell that
//! batches no hits at all (its L1D latency exceeds its core's slack)
//! emits every load hit, and the one-access walk behind
//! [`Hierarchy::demand_access`] emits every access.
//!
//! **What the front end pays for.** Its levels never depend on the policy
//! under study, so they are `Cache<Lru>`: the LRU hooks inline, with no
//! enum dispatch on hits, fills or victim queries. And most L1D hits land
//! on the block their set touched last (96.8 % of the records of the
//! benchmark's `tc.kron` trace, 54 % of its Kronecker BFS trace's), so
//! the front end keeps one [`Mru`] record per L1D set — that block, its
//! slot and whether a load hit on it is an event — and serves a record
//! whose block is its set's MRU block in a tight loop: no probe, no LRU
//! touch and no statistics write per hit (a store hit only sets the
//! line's dirty bit; the hits are counted once per walk). Every other
//! record takes [`FrontEnd::step`], a plain lookup, and rewrites its
//! set's record. The loop is exact, not a model: see [`Mru`]. What is
//! left is the load of each record: an in-memory trace (168 MB for
//! `tc.kron`) streams from DRAM, and a hit-heavy walk, a few instructions
//! per record, waits on it. So the walk prefetches the record
//! [`PREFETCH_RECORDS`] ahead of each one it walks, within the piece it
//! is handed.
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

use crate::cache::{Cache, CacheStats, FillOutcome, MshrGrant, MshrSlots, TAG_INVALID};
use crate::config::{CacheConfig, SimConfig};
use crate::dram::{Dram, DramStats};
use crate::experiment::grid::MAX_CHUNK_RECORDS;

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

/// The quiet records between two events: how many instructions they
/// hold, and how many of those run up to and include the last quiet load
/// (0: no load among them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Gap {
    pub(crate) instructions: u64,
    pub(crate) last_load: u64,
}

impl Gap {
    /// The gap of `rec` alone.
    #[inline(always)]
    pub(crate) fn of(rec: &TraceRecord) -> Gap {
        let instructions = rec.instructions();
        Gap { instructions, last_load: if rec.kind.is_store() { 0 } else { instructions } }
    }

    /// Appends `next` to this gap.
    #[inline(always)]
    pub(crate) fn extend(&mut self, next: Gap) {
        if next.last_load > 0 {
            self.last_load = self.instructions + next.last_load;
        }
        self.instructions += next.instructions;
    }
}

/// What the front end did for one demand access a cell must time, and
/// the quiet records before it. Twenty-eight bytes: the dirty L2 victims
/// it sends to the LLC (at most two) go out of line, into the [`Walk`]'s
/// victim buffer, and the event keeps only their count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct UpperEvent {
    /// The L1D slot the access hit, or filled on a miss.
    l1_slot: u32,
    /// The L2 slot the L1D miss hit or filled (unused on an L1D hit).
    l2_slot: u32,
    /// The L2 slot the L1D victim's writeback filled, or [`NO_SLOT`].
    l2_writeback_slot: u32,
    /// The access's record: its index in the walked piece.
    pub(crate) index: u32,
    /// The gap before the record: [`Gap::instructions`] and
    /// [`Gap::last_load`]. A piece holds at most
    /// [`MAX_CHUNK_RECORDS`] records of at most 2^16 instructions each,
    /// so a gap, which excludes the record, fits.
    gap_instructions: u32,
    gap_last_load: u32,
    l1_hit: bool,
    l2_hit: bool,
    /// How many dirty L2 victims the access sends to the LLC (0 to 2):
    /// its entries of the walk's victim buffer — the victim of the L2
    /// demand fill, then that of the L1D writeback's L2 fill.
    victims: u8,
}

const _: () = assert!(
    (MAX_CHUNK_RECORDS as u64 - 1) << 16 <= u32::MAX as u64,
    "a gap must fit its u32 fields"
);

impl UpperEvent {
    /// An L1D hit in `l1_slot` by record `index`, after `gap`.
    fn l1_hit(l1_slot: u32, index: u32, gap: Gap) -> UpperEvent {
        UpperEvent {
            l1_slot,
            l2_slot: 0,
            l2_writeback_slot: NO_SLOT,
            index,
            gap_instructions: gap.instructions as u32,
            gap_last_load: gap.last_load as u32,
            l1_hit: true,
            l2_hit: false,
            victims: 0,
        }
    }

    /// The quiet records between the previous event and this one.
    #[inline]
    pub(crate) fn gap(&self) -> Gap {
        Gap { instructions: self.gap_instructions.into(), last_load: self.gap_last_load.into() }
    }

    /// Whether the access missed L1D and L2 and so looks up the LLC.
    pub(crate) fn reaches_llc(&self) -> bool {
        !self.l1_hit && !self.l2_hit
    }
}

/// A front end's walk over a piece of records: one [`UpperEvent`] per
/// record a cell must time, the quiet records after the last of them, and
/// the dirty L2 victims of all of them in walk order — each event's
/// `victims` consecutive entries, consumed through a cursor as a cell
/// replays the events in order.
#[derive(Debug, Default)]
pub(crate) struct Walk {
    pub(crate) events: Vec<UpperEvent>,
    pub(crate) victims: Vec<u64>,
    /// The quiet records after the last event.
    pub(crate) tail: Gap,
}

impl Walk {
    /// Empties both buffers, then reserves room for a walk of `records`
    /// records — in that order, so a buffer that still holds the last
    /// walk does not grow.
    fn reset(&mut self, records: usize) {
        self.events.clear();
        self.victims.clear();
        self.tail = Gap::default();
        self.events.reserve_exact(records);
        self.victims.reserve_exact(2 * records);
    }
}

/// How many records ahead of the one it walks [`FrontEnd::walk`]
/// prefetches: 6 KB of records. Measured on the benchmark's `hit_resident`
/// shape, 48 records ahead gained less, and 128 to 1,024 gained the same
/// within the noise.
const PREFETCH_RECORDS: usize = 256;

/// Hints the CPU to load `records[index]`, if there is one, into L1D.
#[inline(always)]
#[allow(unsafe_code)]
fn prefetch(records: &[TraceRecord], index: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(rec) = records.get(index) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: a prefetch is a hint: it never faults, and it reads
        // nothing in the abstract machine. The pointer is in bounds anyway.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(rec).cast()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (records, index);
}

/// An L1D set's most recently used line: the line its last hit or fill
/// touched. A record whose block is its set's MRU block is an L1D hit
/// that [`FrontEnd::walk`] serves without a lookup. That is exact:
///
/// - The L1D is a `Cache<Lru>`, and every L1D hit and fill goes through
///   [`FrontEnd::step`] or [`FrontEnd::l1_miss`], which rewrite the set's
///   record. So the record's line is the set's most recently stamped
///   line, and stamping it again — the LRU touch the loop skips — leaves
///   the set's recency order, and so every later victim, unchanged.
/// - Only a fill evicts, and a fill rewrites its set's record. So the
///   record's block is always resident, at its slot: the loop's hit is
///   the hit a lookup would find (debug builds check it on every one).
/// - `timed` mirrors [`FrontEnd::l1_timed`] at `slot`, which changes only
///   at a fill and in [`FrontEnd::time_load_hits`]; both update the record.
///
/// Sixteen bytes: a front end at Cascade Lake geometry keeps 1 KB of them.
#[derive(Debug, Clone, Copy)]
struct Mru {
    /// The line's block, or [`TAG_INVALID`] (matching no block) before
    /// the set's first fill.
    block: u64,
    /// The line's L1D slot.
    slot: u32,
    /// Whether a load hit on the line is an event.
    timed: bool,
}

/// The functional L1D and L2: LRU tag stores and their statistics, shared
/// by every cell of a grid with the same L1D and L2 geometry.
#[derive(Debug)]
pub(crate) struct FrontEnd {
    l1d: Cache<Lru>,
    l2: Cache<Lru>,
    /// Per L1D set, its most recently used line.
    l1_mru: Vec<Mru>,
    /// Per L1D slot, whether a load hit on its line is an event: its last
    /// fill was an RFO, or the front end times every load hit.
    l1_timed: Vec<bool>,
    /// Whether every L1D load hit is an event.
    time_load_hits: bool,
    /// The L1D and L2 geometry it was built from.
    geometry: [(u32, u32); 2],
}

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
            l1_mru: vec![
                Mru { block: TAG_INVALID, slot: 0, timed: false };
                config.l1d.sets as usize
            ],
            l1_timed: vec![false; (config.l1d.sets * config.l1d.ways) as usize],
            time_load_hits: false,
            geometry: upper_geometry(config),
        }
    }

    /// Whether a cell on `config` can replay this front end's events.
    pub(crate) fn serves(&self, config: &SimConfig) -> bool {
        self.geometry == upper_geometry(config)
    }

    /// Makes every later L1D load hit an event, for a cell that steps
    /// each one (its L1D latency exceeds its core's slack).
    pub(crate) fn time_load_hits(&mut self) {
        self.time_load_hits = true;
        self.l1_timed.fill(true);
        for line in &mut self.l1_mru {
            line.timed = true;
        }
    }

    /// Replaces `walk` with the walk of `records`, at most
    /// [`MAX_CHUNK_RECORDS`] of them. Both buffers are reserved, after the
    /// clear, for the longest piece walked so far, so a grid's
    /// fixed-length pieces reuse them without allocating.
    ///
    /// Records whose block is their set's MRU block run through the inner
    /// loop (see [`Mru`]): a load emits its event if the line is timed and
    /// joins the gap otherwise, a store sets the line's dirty bit and joins
    /// the gap. Their L1D hits are counted once, at the end. Every other
    /// record takes [`FrontEnd::step`]. Either way the walk first
    /// prefetches the record [`PREFETCH_RECORDS`] further on in the piece.
    pub(crate) fn walk(&mut self, records: &[TraceRecord], walk: &mut Walk) {
        assert!(records.len() <= MAX_CHUNK_RECORDS, "{} records in one walk", records.len());
        walk.reset(records.len());
        let set_mask = self.l1_mru.len() as u64 - 1;
        let (mut gap, mut mru_hits, mut index) = (Gap::default(), 0, 0);
        while index < records.len() {
            let mru = &self.l1_mru[..];
            for rec in &records[index..] {
                // Before the break, so a record bound for `step` has its
                // prefetch too: one per record walked.
                prefetch(records, index + PREFETCH_RECORDS);
                let block = rec.block();
                let line = mru[(block & set_mask) as usize];
                if line.block != block {
                    break;
                }
                debug_assert_eq!(
                    self.l1d.probe(block).map(|way| self.l1d.slot(self.l1d.set_of(block), way)),
                    Some(line.slot),
                    "L1D: block {block} is not resident at its MRU slot"
                );
                debug_assert_eq!(line.timed, self.l1_timed[line.slot as usize]);
                if rec.kind.is_store() {
                    self.l1d.mark_dirty(line.slot);
                }
                fold_hit(rec, index as u32, line.slot, line.timed, &mut gap, walk);
                mru_hits += 1;
                index += 1;
            }
            let Some(rec) = records.get(index) else { break };
            let at = index as u32;
            match self.step(rec.pc, rec.block(), demand_kind(rec), at, gap, walk) {
                Some(slot) => fold_hit(rec, at, slot, self.l1_timed[slot as usize], &mut gap, walk),
                // The miss pushed its event.
                None => gap = Gap::default(),
            }
            index += 1;
        }
        self.l1d.count_demand_hits(mru_hits);
        walk.tail = gap;
    }

    /// Replaces `walk` with the walk of one demand access: an event, even
    /// for a hit.
    pub(crate) fn walk_one(&mut self, pc: u64, block: u64, kind: AccessType, walk: &mut Walk) {
        walk.reset(1);
        if let Some(slot) = self.step(pc, block, kind, 0, Gap::default(), walk) {
            walk.events.push(UpperEvent::l1_hit(slot, 0, Gap::default()));
        }
    }

    /// Walks one demand access, record `index` after `gap`, through L1D
    /// and L2 — lookups, fills and the L1D victim's writeback into L2 —
    /// and makes the line it hit or filled its set's [`Mru`] record. On
    /// an L1D hit it returns the slot hit and pushes nothing; on a miss it
    /// appends the event, and the dirty L2 victims the access sends to
    /// the LLC, to `walk`. It is inlined into both walks: as a call it
    /// costs a frame per record.
    #[inline(always)]
    fn step(
        &mut self,
        pc: u64,
        block: u64,
        kind: AccessType,
        index: u32,
        gap: Gap,
        walk: &mut Walk,
    ) -> Option<u32> {
        let info = AccessInfo { pc, block, set: self.l1d.set_of(block), kind };
        match self.l1d.lookup(&info) {
            Some(way) => {
                let slot = self.l1d.slot(info.set, way);
                let timed = self.l1_timed[slot as usize];
                self.l1_mru[info.set as usize] = Mru { block, slot, timed };
                Some(slot)
            }
            None => {
                self.l1_miss(&info, index, gap, walk);
                None
            }
        }
    }

    /// The L1D miss path of [`FrontEnd::step`], kept out of the hit loop.
    #[inline(never)]
    fn l1_miss(&mut self, info: &AccessInfo, index: u32, gap: Gap, walk: &mut Walk) {
        let victims = &mut walk.victims;
        let before = victims.len();
        let l2_info = AccessInfo { set: self.l2.set_of(info.block), ..*info };
        let l2_hit = self.l2.lookup(&l2_info);
        let l2_way = l2_hit.unwrap_or_else(|| fill(&mut self.l2, &l2_info, victims));
        let (l1_slot, l1_victim) = match self.l1d.fill(info) {
            FillOutcome::Filled { way, writeback } => (self.l1d.slot(info.set, way), writeback),
            FillOutcome::Bypassed => unreachable!("L1D: LRU never bypasses"),
        };
        let timed = self.time_load_hits || info.kind == AccessType::Rfo;
        self.l1_timed[l1_slot as usize] = timed;
        self.l1_mru[info.set as usize] = Mru { block: info.block, slot: l1_slot, timed };
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
            index,
            gap_instructions: gap.instructions as u32,
            gap_last_load: gap.last_load as u32,
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

    /// The L1D and L2 tag stores plus the L1D's MRU records and
    /// timed-line flags.
    fn hot_state_bytes(&self) -> u64 {
        let l1_bytes = self.l1_mru.len() * std::mem::size_of::<Mru>() + self.l1_timed.len();
        self.l1d.hot_state_bytes() + self.l2.hot_state_bytes() + l1_bytes as u64
    }
}

/// Folds the L1D hit of `rec`, record `index`, in `slot` into `walk`: an
/// event after `gap` if it is a load and the line is `timed`, part of
/// `gap` otherwise.
#[inline(always)]
fn fold_hit(rec: &TraceRecord, index: u32, slot: u32, timed: bool, gap: &mut Gap, walk: &mut Walk) {
    if timed && !rec.kind.is_store() {
        walk.events.push(UpperEvent::l1_hit(slot, index, *gap));
        *gap = Gap::default();
    } else {
        gap.extend(Gap::of(rec));
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
    /// (see [`Cache::hot_state_bytes`]), the L1D's most-recent-line
    /// records (16 bytes per set) and timed-line flags (a byte per slot),
    /// the cell's `ready_at` columns and the LLC's tag store — what one
    /// replay engine keeps warm per record.
    pub fn hot_state_bytes(&self) -> u64 {
        self.front.hot_state_bytes() + self.back.hot_state_bytes()
    }

    /// Issues a demand access (load or store) at cycle `at`; returns the
    /// cycle its data is available.
    pub fn demand_access(&mut self, pc: u64, vaddr: u64, is_store: bool, at: u64) -> u64 {
        let block = vaddr >> ccsim_trace::BLOCK_SHIFT;
        let kind = if is_store { AccessType::Rfo } else { AccessType::Load };
        self.front.walk_one(pc, block, kind, &mut self.walk);
        let Walk { events, victims, .. } = &self.walk;
        self.back.access(pc, block, kind, &events[0], &mut victims.iter(), at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_policies::{PolicyKind, ReplacementPolicy, Victim};
    use ccsim_trace::AccessKind;
    use proptest::prelude::*;

    fn hierarchy() -> Hierarchy {
        let cfg = SimConfig::tiny();
        Hierarchy::new(&cfg, PolicyKind::Lru.build_dispatch(cfg.llc.sets, cfg.llc.ways))
    }

    #[test]
    fn an_event_fits_in_thirty_two_bytes() {
        assert!(std::mem::size_of::<UpperEvent>() <= 32, "{}", std::mem::size_of::<UpperEvent>());
    }

    fn record(block: u64, store: bool, nonmem_before: u16) -> TraceRecord {
        let kind = if store { AccessKind::Store } else { AccessKind::Load };
        TraceRecord { pc: 0x400, vaddr: block << 6, size: 8, kind, nonmem_before }
    }

    /// `(index, l1_hit, gap)` of each event of `walk`.
    fn events(walk: &Walk) -> Vec<(u32, bool, Gap)> {
        walk.events.iter().map(|e| (e.index, e.l1_hit, e.gap())).collect()
    }

    fn gap(instructions: u64, last_load: u64) -> Gap {
        Gap { instructions, last_load }
    }

    #[test]
    fn a_walk_emits_only_the_records_a_cell_must_time() {
        // Blocks 0 and 1 sit in the tiny L1D's two sets.
        let records = [
            record(0, false, 2), // a load miss
            record(0, false, 3), // quiet: a load hit on a load-filled line
            record(0, true, 1),  // quiet: a store hit
            record(1, true, 0),  // a store miss: an RFO fill
            record(1, false, 4), // a load hit on the RFO-filled line
            record(1, true, 0),  // quiet: a store hit
            record(0, false, 5), // quiet: a load hit
            record(1, true, 2),  // quiet: a store hit
        ];
        let mut front = FrontEnd::new(&SimConfig::tiny());
        let mut walk = Walk::default();
        front.walk(&records, &mut walk);
        let expected = [(0, false, gap(0, 0)), (3, false, gap(4 + 2, 4)), (4, true, gap(0, 0))];
        assert_eq!(events(&walk), expected);
        assert_eq!(walk.tail, gap(1 + 6 + 3, 1 + 6));
        assert!(walk.events.iter().all(|e| e.victims == 0) && walk.victims.is_empty());

        // A front end that times every load hit also emits the quiet
        // loads — from its next walk on — but never a store hit.
        front.time_load_hits();
        front.walk(&records, &mut walk);
        let indices: Vec<u32> = walk.events.iter().map(|e| e.index).collect();
        assert_eq!(indices, [0, 1, 4, 6]);
        assert_eq!(walk.tail, gap(3, 0));
    }

    #[test]
    fn a_miss_event_carries_its_gap_and_victims() {
        // Stores to blocks 2, 10 and 18 share one set of the tiny L1D, L2
        // and LLC: the third misses with two dirty L2 victims, 2 then 10
        // (see `grid::tests`). Quiet accesses to block 1, in the other
        // L1D set, come before it.
        let records = [
            record(2, true, 0),
            record(10, true, 1),
            record(1, false, 0),
            record(1, false, 3), // quiet
            record(1, true, 2),  // quiet
            record(18, true, 7),
            record(18, false, 0), // a load hit on the RFO-filled line
            record(1, false, 0),  // quiet
        ];
        let mut front = FrontEnd::new(&SimConfig::tiny());
        let mut walk = Walk::default();
        front.walk(&records, &mut walk);
        let expected = [
            (0, false, gap(0, 0)),
            (1, false, gap(0, 0)),
            (2, false, gap(0, 0)),
            (5, false, gap(4 + 3, 4)),
            (6, true, gap(0, 0)),
        ];
        assert_eq!(events(&walk), expected);
        let miss = walk.events[3];
        assert_eq!((miss.l2_hit, miss.victims), (false, 2));
        assert_ne!(miss.l2_writeback_slot, NO_SLOT, "the L1D victim's writeback filled L2");
        assert_eq!(walk.victims, [2, 10]);
        assert_eq!(walk.tail, gap(1, 1));
    }

    /// Hit-heavy records, shaped like `tests/grid_replay.rs`'s
    /// `arb_hit_trace`: 1..64 blocks 1, 2 or 64 apart, any share of
    /// stores, 0..20 non-memory instructions per record.
    fn arb_hit_records() -> impl Strategy<Value = Vec<TraceRecord>> {
        let layout = (0u32..7, 0usize..3, 0u32..=100);
        let draws = proptest::collection::vec((0u64..64, 0u32..100, 0u16..20), 0..400);
        (layout, draws).prop_map(|((pool_log2, stride, store_pct), draws)| {
            let (pool, stride) = (1 << pool_log2, [1, 2, 64][stride]);
            let draw = |(i, r, nonmem)| record(i % pool * stride, r < store_pct, nonmem);
            draws.into_iter().map(draw).collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A walk accounts for every instruction of its piece exactly
        /// once: in an event's gap, in an event's record, or in the tail —
        /// on the tiny and Cascade Lake hierarchies, with and without
        /// every load hit timed.
        #[test]
        fn gaps_events_and_tail_add_up_to_the_piece(
            records in arb_hit_records(),
            cascade_lake in any::<bool>(),
            time_load_hits in any::<bool>(),
        ) {
            let config = if cascade_lake { SimConfig::cascade_lake() } else { SimConfig::tiny() };
            let mut front = FrontEnd::new(&config);
            if time_load_hits {
                front.time_load_hits();
            }
            let mut walk = Walk::default();
            for piece in records.chunks(64) {
                front.walk(piece, &mut walk);
                let event_instructions = |e: &UpperEvent| {
                    e.gap().instructions + piece[e.index as usize].instructions()
                };
                let timed: u64 = walk.events.iter().map(event_instructions).sum();
                let total: u64 = piece.iter().map(TraceRecord::instructions).sum();
                prop_assert_eq!(timed + walk.tail.instructions, total);
                prop_assert!(walk.events.windows(2).all(|w| w[0].index < w[1].index));
                let victims: usize = walk.events.iter().map(|e| usize::from(e.victims)).sum();
                prop_assert_eq!(victims, walk.victims.len());
            }
        }
    }

    /// What a front end did for a trace: its events, each as
    /// `(index in the trace, l1 slot, l2 slot, l2 writeback slot, l1 hit,
    /// l2 hit, victims)`, and the dirty L2 victims in walk order.
    type Run = (Vec<(usize, u32, u32, u32, bool, bool, u8)>, Vec<u64>);

    fn push_events(run: &mut Run, walk: &Walk, offset: usize) {
        run.0.extend(walk.events.iter().map(|e| {
            let index = offset + e.index as usize;
            (index, e.l1_slot, e.l2_slot, e.l2_writeback_slot, e.l1_hit, e.l2_hit, e.victims)
        }));
        run.1.extend(&walk.victims);
    }

    /// A fresh front end on `config`, timing every load hit if asked.
    fn front_end(config: &SimConfig, time_load_hits: bool) -> FrontEnd {
        let mut front = FrontEnd::new(config);
        if time_load_hits {
            front.time_load_hits();
        }
        front
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The MRU loop is exact. The reference walks one record at a
        /// time through `walk_one`, which always takes `step` and never
        /// the loop; the chunked walk's events must be the reference's
        /// events at the same indices — every miss, and exactly the load
        /// hits on lines whose last fill was an RFO (every load hit, when
        /// the front end times them all) — with the same stats, victims
        /// and L1D tag store, at chunk lengths that split MRU runs: shorter
        /// than the prefetch distance, near it on either side, or the
        /// whole trace.
        #[test]
        fn the_mru_loop_matches_a_walk_one_per_record(
            records in arb_hit_records(),
            cascade_lake in any::<bool>(),
            time_load_hits in any::<bool>(),
            length in 0usize..3,
            short in 1usize..64,
        ) {
            let config = if cascade_lake { SimConfig::cascade_lake() } else { SimConfig::tiny() };
            let chunk = [short, PREFETCH_RECORDS - 32 + short, MAX_CHUNK_RECORDS][length];
            let (mut reference, mut chunked) =
                (front_end(&config, time_load_hits), front_end(&config, time_load_hits));
            let (mut expected, mut got): (Run, Run) = Default::default();
            let mut walk = Walk::default();
            for (index, rec) in records.iter().enumerate() {
                reference.walk_one(rec.pc, rec.block(), demand_kind(rec), &mut walk);
                push_events(&mut expected, &walk, index);
            }
            for (n, piece) in records.chunks(chunk).enumerate() {
                chunked.walk(piece, &mut walk);
                push_events(&mut got, &walk, n * chunk);
            }

            // The events a cell must time, from the reference alone: a
            // slot is timed from a fill on, if that fill was an RFO.
            let mut timed = vec![false; (config.l1d.sets * config.l1d.ways) as usize];
            let mut must_time = Vec::new();
            for (event, rec) in expected.0.iter().zip(&records) {
                let &(_, l1_slot, _, _, l1_hit, _, _) = event;
                if !l1_hit {
                    timed[l1_slot as usize] = time_load_hits || rec.kind.is_store();
                }
                if !l1_hit || (!rec.kind.is_store() && timed[l1_slot as usize]) {
                    must_time.push(*event);
                }
            }
            prop_assert_eq!(&got.0, &must_time);
            prop_assert_eq!(&got.1, &expected.1);
            for level in [Level::L1d, Level::L2] {
                prop_assert_eq!(chunked.stats(level), reference.stats(level));
            }
            for rec in &records {
                prop_assert_eq!(chunked.l1d.probe(rec.block()), reference.l1d.probe(rec.block()));
            }
        }
    }

    #[test]
    fn a_store_hit_on_the_mru_line_dirties_it_and_its_eviction_writes_back_into_l2() {
        // Blocks 0, 2 and 4 share the tiny L1D's two-way set 0. The store
        // hits block 0 while it is its set's most recent line; the fill of
        // block 4 then evicts it, dirty, and its writeback hits L2.
        let walk_of = |records: &[TraceRecord]| {
            let mut front = FrontEnd::new(&SimConfig::tiny());
            front.walk(records, &mut Walk::default());
            (*front.stats(Level::L1d), *front.stats(Level::L2))
        };
        let (l1d, l2) = walk_of(&[
            record(0, false, 0),
            record(0, true, 0), // the MRU store hit
            record(2, false, 0),
            record(4, false, 0),
        ]);
        assert_eq!((l1d.demand_hits, l1d.evictions, l1d.writebacks_out), (1, 1, 1), "{l1d:?}");
        assert_eq!((l2.writeback_accesses, l2.writeback_hits), (1, 1), "{l2:?}");
        // A load hit in its place leaves the line clean.
        let (l1d, l2) = walk_of(&[
            record(0, false, 0),
            record(0, false, 0),
            record(2, false, 0),
            record(4, false, 0),
        ]);
        assert_eq!((l1d.demand_hits, l1d.evictions, l1d.writebacks_out), (1, 1, 0), "{l1d:?}");
        assert_eq!(l2.writeback_accesses, 0, "{l2:?}");
    }

    #[test]
    fn a_load_hit_on_an_rfo_filled_mru_line_is_an_event() {
        let mut front = FrontEnd::new(&SimConfig::tiny());
        let mut walk = Walk::default();
        front.walk(&[record(1, true, 0), record(1, false, 2), record(1, false, 3)], &mut walk);
        assert_eq!(
            events(&walk),
            [(0, false, gap(0, 0)), (1, true, gap(0, 0)), (2, true, gap(0, 0))]
        );
        let slot = walk.events[0].l1_slot;
        assert!(walk.events.iter().all(|e| e.l1_slot == slot));
        assert_eq!(front.stats(Level::L1d).demand_hits, 2);
    }

    #[test]
    fn after_time_load_hits_every_mru_load_hit_is_an_event() {
        // Block 0's load fill makes it set 0's quiet MRU line; timing
        // every load hit must reach that record as well as the slot.
        let mut front = FrontEnd::new(&SimConfig::tiny());
        let mut walk = Walk::default();
        front.walk(&[record(0, false, 0), record(0, false, 1)], &mut walk);
        assert_eq!(events(&walk), [(0, false, gap(0, 0))]);
        front.time_load_hits();
        let records = [record(0, false, 1), record(0, true, 2), record(0, false, 0)];
        front.walk(&records, &mut walk);
        assert_eq!(events(&walk), [(0, true, gap(0, 0)), (2, true, gap(3, 0))]);
        assert_eq!(front.stats(Level::L1d).demand_hits, 4);
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
