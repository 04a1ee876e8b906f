//! One-pass grid replay: drive every (config × policy) cell of a
//! workload from a single pass over its trace — **the** replay driver.
//!
//! The paper's characterization grids replay one workload under many
//! (replacement policy × LLC size) cells. [`GridReplay`] decodes records
//! once into a reusable chunk buffer and replays each chunk in two
//! stages. The `FrontEnd` of each distinct `(l1d, l2)` geometry walks
//! it once through L1D and L2, whose state is a pure function of the
//! trace, writing one `UpperEvent` per record into an event buffer beside
//! the chunk. Then each cell's engine (its own upper-level timing, LLC,
//! DRAM and core) replays the chunk against those events. Same-block
//! misses merge only at each cell's LLC.
//!
//! [`GridReplay::step_records`] hands each chunk to every cell's
//! `Engine::replay`, the crate's one record loop, which dispatches runs of
//! L1D hits that cannot stall the core as one batch and steps every other
//! record alone. [`simulate_grid`] / [`simulate_grid_stream`] take N cells;
//! [`crate::simulate`] and its siblings are a grid of one cell plus the
//! `sim_*` run accounting.
//!
//! Every engine observes the exact record sequence, so per-cell results
//! depend neither on the chunk size nor on the other cells of the grid
//! (`tests/grid_replay.rs`). The steady state allocates nothing: chunk and
//! event buffers are reserved on first use (`tests/alloc_free.rs`).

use std::io::Read;

use ccsim_policies::PolicyKind;
use ccsim_trace::{DecodeTraceError, Trace, TraceReader, TraceRecord};

use crate::config::SimConfig;
use crate::hierarchy::{FrontEnd, UpperEvent};
use crate::result::SimResult;
use crate::simulator::Engine;

/// Default records per lockstep chunk: 4096 records (80 KB of CCTR
/// bytes) keep decode amortization high while the chunk itself stays
/// L2-resident alongside the active engine's hot tag state.
pub const DEFAULT_CHUNK_RECORDS: usize = 4096;

/// The most records a streamed replay decodes per chunk, whatever chunk
/// length was asked for: longer chunks only grow the decode buffer.
pub const MAX_CHUNK_RECORDS: usize = 65_536;

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
    /// One front end per distinct `(l1d, l2)` geometry, with the
    /// events it emitted for the current piece of records.
    fronts: Vec<(FrontEnd, Vec<UpperEvent>)>,
    /// Each cell's engine and the index of its front end.
    engines: Vec<(Engine, usize)>,
    chunk: Vec<TraceRecord>,
    chunk_records: usize,
}

impl GridReplay {
    /// Builds one replay engine per `(config, policy)` cell with the
    /// given chunk size; `0` means [`DEFAULT_CHUNK_RECORDS`].
    ///
    /// # Panics
    ///
    /// Panics on an invalid [`SimConfig`], like [`crate::simulate`].
    pub fn new(cells: &[(SimConfig, PolicyKind)], chunk_records: usize) -> GridReplay {
        // Event buffers are reserved by the first `step_records`.
        let mut fronts: Vec<(FrontEnd, Vec<UpperEvent>)> = Vec::new();
        let mut front_of = |config: &SimConfig| {
            fronts.iter().position(|(f, _)| f.serves(config)).unwrap_or_else(|| {
                fronts.push((FrontEnd::new(config), Vec::new()));
                fronts.len() - 1
            })
        };
        let engines = cells.iter().map(|(c, p)| (Engine::new(c, *p), front_of(c))).collect();
        GridReplay {
            fronts,
            engines,
            // Only streamed replay decodes: `replay_reader` reserves it.
            chunk: Vec::new(),
            chunk_records: if chunk_records == 0 { DEFAULT_CHUNK_RECORDS } else { chunk_records },
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

    /// Advances every cell through `records`, in order, a chunk at a time:
    /// each front end walks the chunk once, then every engine replays it
    /// against its front end's events. Allocation-free in the steady state
    /// (the first call reserves the event buffers; counters are atomics).
    pub fn step_records(&mut self, records: &[TraceRecord]) {
        let piece = self.chunk_records.min(MAX_CHUNK_RECORDS);
        for records in records.chunks(piece) {
            for (front, events) in &mut self.fronts {
                events.reserve_exact(piece);
                front.walk(records, events);
            }
            for (engine, front) in &mut self.engines {
                engine.replay(records, &self.fronts[*front].1);
            }
            let m = ccsim_obs::metrics();
            m.grid_chunks.inc();
            m.grid_records.add((records.len() * self.engines.len()) as u64);
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
            while chunk.len() < chunk_records {
                let Some(rec) = reader.next_record()? else { break };
                chunk.push(rec);
            }
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
        let (mut front, mut event) = (FrontEnd::new(config), Vec::new());
        let mut engine = Engine::new(config, *policy);
        for rec in trace {
            front.walk(std::slice::from_ref(rec), &mut event);
            engine.step(rec, &event[0]);
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
