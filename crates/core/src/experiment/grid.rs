//! One-pass grid replay: drive every (config × policy) cell of a
//! workload from a single pass over its trace — **the** replay driver.
//!
//! The paper's characterization grids replay one workload under many
//! (replacement policy × LLC size) cells. Replaying per cell reads and
//! decodes the identical byte stream once *per cell* — a 12-policy ×
//! 4-size grid makes 48 passes over the same records. [`GridReplay`]
//! makes one: records are decoded into a fixed-size, reusable chunk
//! buffer, and N independent replay engines (one [`crate::Hierarchy`] +
//! core pair per cell) advance in lockstep through each chunk.
//!
//! Nothing else in the crate advances an engine.
//! [`GridReplay::step_records`] holds the only `Engine::step` call;
//! [`GridReplay::replay_trace`] feeds it slices of a resident trace and
//! [`GridReplay::replay_reader`] the chunk it just decoded. The five
//! entry points are this driver at two grid widths: [`simulate_grid`] /
//! [`simulate_grid_stream`] take N cells, and [`crate::simulate`] /
//! [`crate::simulate_with_llc_log`] / [`crate::simulate_stream`] are a
//! grid of one cell plus the `sim_*` run accounting.
//!
//! Chunking matters twice over. It amortizes every per-record decode
//! across all cells, and it keeps each engine's working state
//! cache-resident while it burns through a chunk instead of alternating
//! engines record by record. Because every engine still observes the
//! exact record sequence in order, per-cell results do not depend on
//! the chunk size or on which other cells share the grid
//! (`tests/grid_replay.rs` pins every entry point against a
//! record-at-a-time drive, with proptests and the ingest golden
//! fixture).
//!
//! The steady state allocates nothing: the chunk buffer is reserved by
//! the first streamed replay and reused, and the per-engine hot path is
//! already allocation-free (`tests/alloc_free.rs` pins both).

use std::io::Read;

use ccsim_policies::PolicyKind;
use ccsim_trace::{DecodeTraceError, Trace, TraceReader, TraceRecord};

use crate::config::SimConfig;
use crate::result::SimResult;
use crate::simulator::{Engine, LlcLog};

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
    engines: Vec<Engine>,
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
        GridReplay {
            engines: cells.iter().map(|(cfg, policy)| Engine::new(cfg, *policy)).collect(),
            // Only streamed replay decodes: `replay_reader` reserves it.
            chunk: Vec::new(),
            chunk_records: if chunk_records == 0 { DEFAULT_CHUNK_RECORDS } else { chunk_records },
        }
    }

    /// A grid of one cell that records its LLC demand stream
    /// ([`GridReplay::finish_logged`] returns it).
    pub(crate) fn logging_llc(config: &SimConfig, policy: PolicyKind) -> GridReplay {
        let mut grid = GridReplay::new(&[(*config, policy)], 0);
        grid.engines[0].enable_llc_log();
        grid
    }

    /// Number of grid cells driven in lockstep.
    pub fn cells(&self) -> usize {
        self.engines.len()
    }

    /// Records per lockstep chunk.
    pub fn chunk_records(&self) -> usize {
        self.chunk_records
    }

    /// Advances every cell through `records`, in order — one lockstep
    /// chunk, and the only place an engine steps. Allocation-free in
    /// the steady state (the chunk counters are pre-registered sharded
    /// atomics).
    pub fn step_records(&mut self, records: &[TraceRecord]) {
        for engine in &mut self.engines {
            for rec in records {
                engine.step(rec);
            }
        }
        let m = ccsim_obs::metrics();
        m.grid_chunks.inc();
        m.grid_records.add((records.len() * self.engines.len()) as u64);
    }

    /// Replays an in-memory trace through every cell, chunked.
    pub fn replay_trace(&mut self, trace: &Trace) {
        // The records are already resident; chunking still bounds how
        // much engine state is cycled between consecutive touches.
        let chunk_records = self.chunk_records;
        for chunk in trace.records().chunks(chunk_records) {
            self.step_records(chunk);
        }
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
                match reader.next_record()? {
                    Some(rec) => chunk.push(rec),
                    None => break,
                }
            }
            if !chunk.is_empty() {
                self.step_records(&chunk);
            }
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
        self.finish_logged(workload, trailing_nonmem)
            .into_iter()
            .map(|(result, _)| result)
            .collect()
    }

    /// [`GridReplay::finish`] with each cell's LLC demand log (empty
    /// unless the grid came from [`GridReplay::logging_llc`]).
    pub(crate) fn finish_logged(
        self,
        workload: &str,
        trailing_nonmem: u64,
    ) -> Vec<(SimResult, LlcLog)> {
        ccsim_obs::metrics().grid_cells.add(self.engines.len() as u64);
        self.engines.into_iter().map(|engine| engine.finish(workload, trailing_nonmem)).collect()
    }
}

impl std::fmt::Debug for GridReplay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GridReplay")
            .field("cells", &self.engines.len())
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
        let mut cells = Vec::new();
        for scale in [1u32, 2, 4] {
            let config = SimConfig::tiny().with_llc_scale(scale);
            for policy in [PolicyKind::Lru, PolicyKind::Ship, PolicyKind::Hawkeye] {
                cells.push((config, policy));
            }
        }
        cells
    }

    /// The driver-free reference: one bare engine stepped over the
    /// records, no `GridReplay` involved.
    fn bare_engine(trace: &Trace, (config, policy): &(SimConfig, PolicyKind)) -> SimResult {
        let mut engine = Engine::new(config, *policy);
        for rec in trace {
            engine.step(rec);
        }
        engine.finish(trace.name(), trace.trailing_nonmem()).0
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
        // `usize::MAX` records used to be reserved eagerly in `new`
        // (capacity overflow); now nothing is reserved until a stream is
        // replayed, and then at most `MAX_CHUNK_RECORDS`.
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
