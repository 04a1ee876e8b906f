//! One-pass grid replay: drive every (config × policy) cell of a
//! workload from a single pass over its trace — **the** replay driver.
//!
//! The paper's characterization grids replay one workload under many
//! (replacement policy × LLC size) cells. [`GridReplay`] decodes records
//! once into a reusable chunk buffer and replays each chunk in two
//! stages. The `FrontEnd` of each distinct `(l1d, l2)` geometry walks
//! it once through L1D and L2, whose state is a pure function of the
//! trace, writing one `UpperEvent` per record a cell must time — every
//! L1D miss, and each L1D load hit on a line an RFO filled — plus the
//! dirty L2 victims bound for the LLC, into a `Walk` beside the chunk.
//! The other records fold into the events' gaps and the walk's tail. Then
//! each cell's engine (its own upper-level timing, LLC, DRAM and core)
//! replays the chunk's events against that walk. Same-block misses merge
//! only at each cell's LLC. A front end serving a cell whose L1D latency
//! exceeds its core's slack emits every load hit, since that cell steps
//! each one.
//!
//! [`GridReplay::step_records`] hands each chunk to every cell's
//! `Engine::replay`, the crate's one replay loop, which dispatches the
//! gaps and the L1D hits that cannot stall the core in runs, one batch
//! each, and steps every other event alone. [`GridReplay::cell_events`]
//! and the `grid_cell_events` counter say how many events the cells
//! replayed. [`simulate_grid`] / [`simulate_grid_stream`] take N cells;
//! [`crate::simulate`] and its siblings are a grid of one cell plus the
//! `sim_*` run accounting.
//!
//! Every engine observes the exact record sequence, so per-cell results
//! depend neither on the chunk size nor on the other cells of the grid
//! (`tests/grid_replay.rs`). The steady state allocates nothing: the chunk
//! buffer is reserved on first use, and each walk buffer by its first
//! full walk (`tests/alloc_free.rs`).

use std::io::Read;

use ccsim_policies::PolicyKind;
use ccsim_trace::{DecodeTraceError, Trace, TraceReader, TraceRecord};

use crate::config::SimConfig;
use crate::hierarchy::{FrontEnd, Walk};
use crate::result::SimResult;
use crate::simulator::Engine;

/// Default records per lockstep chunk: 4096 records (80 KB of CCTR
/// bytes) keep decode amortization high while the chunk itself stays
/// L2-resident alongside the active engine's hot tag state.
pub const DEFAULT_CHUNK_RECORDS: usize = 4096;

/// The most records a streamed replay decodes per chunk, whatever chunk
/// length was asked for: longer chunks only grow the decode buffer.
pub const MAX_CHUNK_RECORDS: usize = 65_536;

/// The most records one front-end walk covers: a chunk is walked in
/// pieces of this length. A record pushes at most one event and two
/// victims, so each front end's walk buffers hold at most 28 KB of events
/// and 16 KB of victims, whatever the chunk length. Most walks need far
/// less (`tc.kron` fills about 1 % of a walk with events), and results do
/// not depend on where a chunk is cut.
const WALK_RECORDS: usize = 1024;

/// The chunk length `GridReplay::new(cells, 0)` uses: always
/// [`DEFAULT_CHUNK_RECORDS`]. Kept for the benchmark, which records it.
pub fn autotune_chunk_records(_combined_tag_bytes: u64) -> usize {
    DEFAULT_CHUNK_RECORDS
}

/// A one-pass lockstep replay over N grid cells.
///
/// Build one with the `(config, policy)` of every cell, feed it records
/// — chunked from a stream ([`GridReplay::replay_reader`]), from memory
/// ([`GridReplay::replay_trace`]), or directly ([`GridReplay::step_records`])
/// — then [`GridReplay::finish`] into per-cell [`SimResult`]s in cell
/// order.
///
/// # Examples
///
/// ```
/// use ccsim_core::experiment::grid::simulate_grid;
/// use ccsim_core::{simulate, SimConfig};
/// use ccsim_policies::PolicyKind;
/// use ccsim_trace::{synth::{PatternGen, SequentialStream}, TraceBuffer};
///
/// let mut buf = TraceBuffer::new("stream");
/// SequentialStream::new(0x1000_0000, 1 << 14).emit(&mut buf);
/// let trace = buf.finish();
///
/// let config = SimConfig::tiny();
/// let cells =
///     [(config, PolicyKind::Lru), (config.with_llc_scale(2), PolicyKind::Srrip)];
/// let results = simulate_grid(&trace, &cells, 0);
/// assert_eq!(results[0], simulate(&trace, &cells[0].0, cells[0].1));
/// assert_eq!(results[1], simulate(&trace, &cells[1].0, cells[1].1));
/// ```
pub struct GridReplay {
    /// One front end per distinct `(l1d, l2)` geometry, with its walk of
    /// the current piece of records.
    fronts: Vec<(FrontEnd, Walk)>,
    /// Each cell's engine and the index of its front end.
    engines: Vec<(Engine, usize)>,
    chunk: Vec<TraceRecord>,
    chunk_records: usize,
    /// Events replayed so far, summed over cells.
    cell_events: u64,
}

impl GridReplay {
    /// Builds one replay engine per `(config, policy)` cell with the
    /// given chunk size; `0` means [`DEFAULT_CHUNK_RECORDS`].
    ///
    /// # Panics
    ///
    /// Panics on an invalid [`SimConfig`], like [`crate::simulate`].
    pub fn new(cells: &[(SimConfig, PolicyKind)], chunk_records: usize) -> GridReplay {
        // Walk buffers are reserved by the first full walk.
        let mut fronts: Vec<(FrontEnd, Walk)> = Vec::new();
        let mut front_of = |config: &SimConfig| {
            fronts.iter().position(|(f, _)| f.serves(config)).unwrap_or_else(|| {
                fronts.push((FrontEnd::new(config), Walk::default()));
                fronts.len() - 1
            })
        };
        let engines: Vec<(Engine, usize)> =
            cells.iter().map(|(c, p)| (Engine::new(c, *p), front_of(c))).collect();
        for (engine, front) in &engines {
            if !engine.batches_load_hits() {
                fronts[*front].0.time_load_hits();
            }
        }
        GridReplay {
            fronts,
            engines,
            // Only streamed replay decodes: `replay_reader` reserves it.
            chunk: Vec::new(),
            chunk_records: if chunk_records == 0 { DEFAULT_CHUNK_RECORDS } else { chunk_records },
            cell_events: 0,
        }
    }

    /// Number of grid cells driven in lockstep.
    pub fn cells(&self) -> usize {
        self.engines.len()
    }

    /// Records per lockstep chunk.
    pub fn chunk_records(&self) -> usize {
        self.chunk_records
    }

    /// Events the cells have replayed so far, summed over cells: the
    /// records a cell times one at a time (every L1D miss, and the L1D
    /// load hits whose timing it can observe). The other records reach
    /// each core in runs.
    pub fn cell_events(&self) -> u64 {
        self.cell_events
    }

    /// Advances every cell through `records`, in order, a chunk at a time:
    /// each front end walks the chunk once, at most 1,024 records per
    /// walk, and every engine replays each walk. A walk prefetches the
    /// records ahead of it in its piece: an in-memory trace streams from
    /// DRAM, and a hit-heavy walk would otherwise wait on each record's
    /// load. Allocation-free in the steady state (the first full walk
    /// reserves the walk buffers; counters are atomics).
    pub fn step_records(&mut self, records: &[TraceRecord]) {
        let piece = self.chunk_records.min(MAX_CHUNK_RECORDS);
        for records in records.chunks(piece) {
            let mut events = 0;
            for records in records.chunks(WALK_RECORDS) {
                for (front, walk) in &mut self.fronts {
                    front.walk(records, walk);
                }
                for (engine, front) in &mut self.engines {
                    let walk = &self.fronts[*front].1;
                    engine.replay(records, walk);
                    events += walk.events.len() as u64;
                }
            }
            self.cell_events += events;
            let m = ccsim_obs::metrics();
            m.grid_chunks.inc();
            m.grid_records.add((records.len() * self.engines.len()) as u64);
            m.grid_cell_events.add(events);
            m.grid_frontend_records.add((records.len() * self.fronts.len()) as u64);
        }
    }

    /// Replays an in-memory trace through every cell, chunked.
    pub fn replay_trace(&mut self, trace: &Trace) {
        self.step_records(trace.records());
    }

    /// Replays a `CCTR` stream through every cell: each chunk is decoded
    /// once into the reusable buffer, then every engine replays it. The
    /// buffer is reserved on the first call, for at most
    /// [`MAX_CHUNK_RECORDS`] records — a longer requested chunk streams
    /// in pieces of that length, which results cannot observe.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeTraceError`] on a truncated or corrupt record;
    /// the partial replay state is unusable and should be dropped.
    pub fn replay_reader<R: Read>(
        &mut self,
        reader: &mut TraceReader<R>,
    ) -> Result<(), DecodeTraceError> {
        let chunk_records = self.chunk_records.min(MAX_CHUNK_RECORDS);
        // The buffer is always put back empty, so this reserves once.
        let mut chunk = std::mem::take(&mut self.chunk);
        chunk.reserve_exact(chunk_records);
        loop {
            reader.read_chunk(&mut chunk, chunk_records)?;
            self.step_records(&chunk);
            let exhausted = chunk.len() < chunk_records; // short chunk
            chunk.clear();
            if exhausted {
                self.chunk = chunk;
                return Ok(());
            }
        }
    }

    /// Finishes every cell into its [`SimResult`], in cell order.
    pub fn finish(self, workload: &str, trailing_nonmem: u64) -> Vec<SimResult> {
        ccsim_obs::metrics().grid_cells.add(self.engines.len() as u64);
        let fronts = &self.fronts;
        let finish =
            |(engine, f): (Engine, usize)| engine.finish(&fronts[f].0, workload, trailing_nonmem);
        self.engines.into_iter().map(finish).collect()
    }
}

impl std::fmt::Debug for GridReplay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GridReplay")
            .field("cells", &self.engines.len())
            .field("front_ends", &self.fronts.len())
            .field("chunk_records", &self.chunk_records)
            .finish()
    }
}

/// One-pass replay of an in-memory trace over every `(config, policy)`
/// cell; results in cell order, bit-identical to [`crate::simulate`]
/// per cell. `chunk_records = 0` means [`DEFAULT_CHUNK_RECORDS`].
pub fn simulate_grid(
    trace: &Trace,
    cells: &[(SimConfig, PolicyKind)],
    chunk_records: usize,
) -> Vec<SimResult> {
    let mut grid = GridReplay::new(cells, chunk_records);
    grid.replay_trace(trace);
    grid.finish(trace.name(), trace.trailing_nonmem())
}

/// One-pass replay of a `CCTR` stream over every `(config, policy)`
/// cell; results in cell order, bit-identical to
/// [`crate::simulate_stream`] per cell (workload name and trailing
/// non-memory count come from the stream header). `chunk_records = 0`
/// means [`DEFAULT_CHUNK_RECORDS`].
///
/// # Errors
///
/// Returns [`DecodeTraceError`] on a truncated or corrupt record; the
/// partial simulation is discarded.
pub fn simulate_grid_stream<R: Read>(
    mut reader: TraceReader<R>,
    cells: &[(SimConfig, PolicyKind)],
    chunk_records: usize,
) -> Result<Vec<SimResult>, DecodeTraceError> {
    let mut grid = GridReplay::new(cells, chunk_records);
    grid.replay_reader(&mut reader)?;
    let header = reader.header();
    Ok(grid.finish(&header.name, header.trailing_nonmem))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::demand_kind;
    use crate::simulate;
    use ccsim_trace::synth::{PatternGen, RandomAccess};
    use ccsim_trace::{write_trace, TraceBuffer};

    fn mixed_trace() -> Trace {
        let mut buf = TraceBuffer::new("grid");
        RandomAccess::new(0x1000_0000, 1 << 12, 64, 6_000)
            .store_fraction(0.2)
            .seed(7)
            .emit(&mut buf);
        buf.finish()
    }

    fn paper_cells() -> Vec<(SimConfig, PolicyKind)> {
        let policies = [PolicyKind::Lru, PolicyKind::Ship, PolicyKind::Hawkeye];
        let configs = [1u32, 2, 4].map(|scale| SimConfig::tiny().with_llc_scale(scale));
        configs.iter().flat_map(|c| policies.map(|p| (*c, p))).collect()
    }

    /// The driver-free reference: one bare engine stepped over the
    /// records, no `GridReplay` involved.
    fn bare_engine(trace: &Trace, (config, policy): &(SimConfig, PolicyKind)) -> SimResult {
        let (mut front, mut walk) = (FrontEnd::new(config), Walk::default());
        let mut engine = Engine::new(config, *policy);
        for rec in trace {
            front.walk_one(rec.pc, rec.block(), demand_kind(rec), &mut walk);
            engine.step(rec, &walk.events[0], &mut walk.victims.iter());
        }
        engine.finish(&front, trace.name(), trace.trailing_nonmem())
    }

    #[test]
    fn grid_replay_matches_a_bare_engine_per_cell_for_any_chunk_size() {
        let trace = mixed_trace();
        let cells = paper_cells();
        let reference: Vec<SimResult> = cells.iter().map(|c| bare_engine(&trace, c)).collect();
        for chunk in [1, 7, 512, 1 << 20] {
            assert_eq!(simulate_grid(&trace, &cells, chunk), reference, "chunk={chunk}");
        }
        // The single-cell entry point is the same driver at width one.
        for ((cfg, policy), reference) in cells.iter().zip(&reference) {
            assert_eq!(&simulate(&trace, cfg, *policy), reference);
        }
    }

    #[test]
    fn walk_buffers_are_reserved_once_at_the_walk_length() {
        // Each walk buffer is reserved once, for the shorter of the chunk
        // and `WALK_RECORDS`, and two victims per record; a longer chunk is
        // walked in pieces, which results cannot observe. The walk clears
        // its buffers before reserving: reserving first would find the
        // last walk still in them and double the room.
        let trace = mixed_trace();
        let cells = paper_cells();
        let reference = simulate_grid(&trace, &cells, 64);
        for chunk in [64, 4096, MAX_CHUNK_RECORDS] {
            let mut grid = GridReplay::new(&cells, chunk);
            grid.replay_trace(&trace);
            let walk = &grid.fronts[0].1;
            let capacity = (walk.events.capacity(), walk.victims.capacity());
            let records = chunk.min(WALK_RECORDS);
            assert_eq!(capacity, (records, 2 * records), "chunk={chunk}");
            assert_eq!(grid.finish(trace.name(), trace.trailing_nonmem()), reference);
        }
    }

    /// Three stores to blocks 2, 10 and 18 of the tiny hierarchy: one L1D
    /// set, one L2 set and one LLC set. The third misses everywhere; its
    /// L2 fill evicts dirty block 2, and its L1D fill evicts dirty block 2
    /// too, whose writeback misses L2 and evicts dirty block 10.
    fn two_victim_stores(base: u64) -> [TraceRecord; 3] {
        [2, 10, 18].map(|block| TraceRecord::store(0x400, (base + block) << 6, 8))
    }

    #[test]
    fn an_access_with_two_dirty_l2_victims_writes_both_back_in_walk_order() {
        let config = SimConfig::tiny();
        let (mut front, mut walk) = (FrontEnd::new(&config), Walk::default());
        let stores = two_victim_stores(0);
        front.walk(&stores[..2], &mut walk);
        assert_eq!(walk.victims, []);
        front.walk(&stores[2..], &mut walk);
        assert_eq!(walk.victims, [2, 10], "the L2 demand fill's victim first");

        // In walk order, victim 2 misses the LLC and evicts block 10, so
        // victim 10 misses too; the other order would hit on 10.
        let trace = Trace::from_parts("two victims", two_victim_stores(0).to_vec(), 0);
        let llc = simulate(&trace, &config, PolicyKind::Lru).llc;
        assert_eq!((llc.writeback_accesses, llc.writeback_hits), (2, 0), "{llc:?}");

        // Forty such groups, each followed by a load, at chunk lengths
        // that split the groups every way.
        let mut records = Vec::new();
        for base in (0..40).map(|g| g * 64) {
            records.extend(two_victim_stores(base));
            records.push(TraceRecord::load(0x404, base << 6, 8));
        }
        front.walk(&records, &mut walk);
        assert!(walk.victims.len() >= 2 * 40, "{} victims", walk.victims.len());
        let trace = Trace::from_parts("two victims", records, 0);
        let cells = paper_cells();
        let reference: Vec<SimResult> = cells.iter().map(|c| bare_engine(&trace, c)).collect();
        for chunk in [1, 7, 0] {
            assert_eq!(simulate_grid(&trace, &cells, chunk), reference, "chunk={chunk}");
        }
    }

    #[test]
    fn unbounded_chunk_request_reserves_no_unbounded_buffer() {
        // Nothing is reserved until a stream is replayed, and then at most
        // `MAX_CHUNK_RECORDS` (reserving `usize::MAX` would overflow).
        let trace = mixed_trace();
        let cells = paper_cells();
        let mut grid = GridReplay::new(&cells, usize::MAX);
        assert_eq!(grid.chunk_records(), usize::MAX);
        assert_eq!(grid.chunk.capacity(), 0);
        grid.replay_trace(&trace);
        let reference = simulate_grid(&trace, &cells, 64);
        assert_eq!(grid.finish(trace.name(), trace.trailing_nonmem()), reference);

        let mut bytes = Vec::new();
        write_trace(&trace, &mut bytes).unwrap();
        let mut grid = GridReplay::new(&cells, usize::MAX);
        grid.replay_reader(&mut TraceReader::new(&bytes[..]).unwrap()).unwrap();
        assert_eq!(grid.chunk.capacity(), MAX_CHUNK_RECORDS);
        assert_eq!(grid.finish(trace.name(), trace.trailing_nonmem()), reference);
    }

    #[test]
    fn the_decode_buffer_is_reserved_once_across_streamed_replays() {
        // 6000 records end in a short chunk: the buffer must go back
        // empty, or the next replay's reserve would grow it.
        let mut bytes = Vec::new();
        write_trace(&mixed_trace(), &mut bytes).unwrap();
        let mut grid = GridReplay::new(&paper_cells(), 512);
        for _ in 0..2 {
            grid.replay_reader(&mut TraceReader::new(&bytes[..]).unwrap()).unwrap();
            assert_eq!(grid.chunk.capacity(), 512);
        }
    }

    #[test]
    fn grid_replay_surfaces_decode_errors() {
        let trace = mixed_trace();
        let mut bytes = Vec::new();
        write_trace(&trace, &mut bytes).unwrap();
        bytes.truncate(bytes.len() - 5);
        let cells = [(SimConfig::tiny(), PolicyKind::Lru)];
        let err = simulate_grid_stream(TraceReader::new(&bytes[..]).unwrap(), &cells, 64);
        assert!(err.is_err(), "truncated stream must not produce results");
    }

    #[test]
    fn empty_grid_and_empty_trace_are_fine() {
        let trace = mixed_trace();
        assert!(simulate_grid(&trace, &[], 0).is_empty());
        let empty = Trace::from_parts("empty", Vec::new(), 3);
        let results = simulate_grid(&empty, &[(SimConfig::tiny(), PolicyKind::Lru)], 0);
        assert_eq!(results[0], simulate(&empty, &SimConfig::tiny(), PolicyKind::Lru));
    }

    #[test]
    fn chunk_zero_means_the_default_chunk() {
        let grid = GridReplay::new(&[(SimConfig::tiny(), PolicyKind::Lru)], 0);
        assert_eq!(grid.chunk_records(), DEFAULT_CHUNK_RECORDS);
        assert_eq!(grid.cells(), 1);
        assert!(format!("{grid:?}").contains("cells: 1"));
    }
}
