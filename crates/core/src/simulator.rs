//! Trace replay: ties the core model to the memory hierarchy.
//!
//! This module owns the [`Engine`] and the single-cell entry points.
//! Every replay in the crate is a grid (`experiment::grid`):
//! `GridReplay::step_records` hands each chunk to every cell's
//! [`Engine::replay`], the one replay loop, and [`simulate`] and
//! [`simulate_stream`] build a grid of one cell and add the `sim_*`
//! accounting:
//!
//! * [`simulate`] replays an in-memory [`Trace`];
//! * [`simulate_stream`] replays records straight from a
//!   [`ccsim_trace::TraceReader`], so a multi-gigabyte `CCTR` file on
//!   disk simulates in bounded memory (one decoded chunk) without ever
//!   materializing.
//!
//! [`llc_demand_stream`] is not a replay: it walks the front end alone,
//! since which accesses reach the LLC is a pure function of the trace.
//!
//! `Engine::replay` loops over the walk's events — one per record the cell
//! must time — not over the records. The quiet records between events
//! (store hits, and load hits on lines a load filled) arrive as each
//! event's gap, and join the run of L1D hits that can never hold the core
//! back, together with each event's load hit on a line that lands within
//! the core's horizon; a run is dispatched as one batch, and an L1D hit
//! changes no state of the memory system. Any other event ends the run
//! and takes [`Engine::step`].
//!
//! `tests/grid_replay.rs` pins all of them, and the N-cell helpers,
//! against a record-at-a-time drive of the same driver and against a
//! per-record reference built on the public `Core` and `Hierarchy`.

use std::io::Read;

use ccsim_obs::Span;
use ccsim_policies::{AccessType, PolicyKind};
use ccsim_trace::{DecodeTraceError, Trace, TraceReader, TraceRecord};

use crate::config::SimConfig;
use crate::cpu::Core;
use crate::experiment::grid::{GridReplay, DEFAULT_CHUNK_RECORDS};
use crate::hierarchy::{demand_kind, BackEnd, FrontEnd, Gap, Level, UpperEvent, Victims, Walk};
use crate::result::SimResult;

/// The replay engine of one grid cell: one core driving the cell's
/// [`BackEnd`]. `GridReplay` advances one engine per grid cell in lockstep
/// through shared record chunks, each against the [`Walk`] its cell's
/// shared [`FrontEnd`] made of the chunk.
pub(crate) struct Engine {
    memory: BackEnd,
    core: Core,
    llc_policy: PolicyKind,
    l1_latency: u64,
}

impl Engine {
    pub(crate) fn new(config: &SimConfig, llc_policy: PolicyKind) -> Engine {
        config.validate().expect("invalid simulator config");
        let memory =
            BackEnd::new(config, llc_policy.build_dispatch(config.llc.sets, config.llc.ways));
        Engine { memory, core: Core::new(config.core), llc_policy, l1_latency: config.l1d.latency }
    }

    /// Whether the engine batches L1D load hits at all: not if its L1D
    /// latency exceeds its core's slack, when it steps every one.
    pub(crate) fn batches_load_hits(&self) -> bool {
        self.core.hit_horizon(self.l1_latency).is_some()
    }

    /// Replays `records`, whose L1D/L2 walk the front end recorded as
    /// `walk`: the quiet records between events, and the events' L1D hits
    /// that cannot be kept in the ROB, go to the core in runs, and every
    /// other event takes [`Engine::step`]. An L1D hit sends no victim to
    /// the LLC, so only stepped events move the victim cursor.
    pub(crate) fn replay(&mut self, records: &[TraceRecord], walk: &Walk) {
        let latency = self.l1_latency;
        let mut horizon = self.core.hit_horizon(latency);
        let (mut run, mut ready) = (Gap::default(), 0);
        let mut victims = walk.victims.iter();
        for event in &walk.events {
            run.extend(event.gap());
            let rec = &records[event.index as usize];
            match self.memory.l1_hit_ready(event) {
                Some(r) if horizon.is_some_and(|h| r <= h) => {
                    debug_assert!(!rec.kind.is_store(), "a store hit is quiet");
                    run.extend(Gap::of(rec));
                    ready = ready.max(r);
                }
                _ => {
                    self.core.dispatch_run(run.instructions, run.last_load, latency, ready);
                    (run, ready) = (Gap::default(), 0);
                    self.step(rec, event, &mut victims);
                    horizon = self.core.hit_horizon(latency);
                }
            }
        }
        run.extend(walk.tail);
        self.core.dispatch_run(run.instructions, run.last_load, latency, ready);
        debug_assert!(victims.next().is_none(), "a victim no event claimed");
    }

    /// Replays `rec`, whose L1D/L2 walk the front end recorded as `event`,
    /// taking its dirty L2 victims from the `victims` cursor.
    #[inline]
    pub(crate) fn step(
        &mut self,
        rec: &TraceRecord,
        event: &UpperEvent,
        victims: &mut Victims<'_>,
    ) {
        if rec.nonmem_before > 0 {
            self.core.dispatch_nonmem(rec.nonmem_before as u64);
        }
        let (pc, block, kind) = (rec.pc, rec.block(), demand_kind(rec));
        let memory = &mut self.memory;
        self.core.dispatch_mem(|at| {
            let done = memory.access(pc, block, kind, event, victims, at);
            if kind == AccessType::Rfo {
                // Stores retire through the store buffer: the RFO proceeds
                // in the background and does not stall the core.
                at + 1
            } else {
                done
            }
        });
    }

    /// The cell's result, with L1D/L2 statistics from `front`, the front
    /// end it replayed.
    pub(crate) fn finish(
        mut self,
        front: &FrontEnd,
        workload: &str,
        trailing_nonmem: u64,
    ) -> SimResult {
        if trailing_nonmem > 0 {
            self.core.dispatch_nonmem(trailing_nonmem);
        }
        let (instructions, cycles) = self.core.finish();
        SimResult {
            workload: workload.to_owned(),
            policy: self.llc_policy.name().to_owned(),
            instructions,
            cycles,
            l1d: *front.stats(Level::L1d),
            l2: *front.stats(Level::L2),
            llc: *self.memory.llc_stats(),
            dram: *self.memory.dram_stats(),
            llc_diag: self.memory.llc_policy_diag(),
        }
    }
}

/// Simulates `trace` on `config` with `llc_policy` at the last level.
///
/// # Examples
///
/// ```
/// use ccsim_core::{simulate, SimConfig};
/// use ccsim_policies::PolicyKind;
/// use ccsim_trace::{synth::{PatternGen, SequentialStream}, TraceBuffer};
///
/// let mut buf = TraceBuffer::new("stream");
/// SequentialStream::new(0x1000_0000, 1 << 14).emit(&mut buf);
/// let trace = buf.finish();
/// let result = simulate(&trace, &SimConfig::cascade_lake(), PolicyKind::Lru);
/// assert!(result.ipc() > 0.0);
/// assert_eq!(result.instructions, trace.instructions());
/// ```
pub fn simulate(trace: &Trace, config: &SimConfig, llc_policy: PolicyKind) -> SimResult {
    let span = ccsim_obs::metrics().sim_wall_ns.span();
    let mut grid = GridReplay::new(&[(*config, llc_policy)], 0);
    grid.replay_trace(trace);
    finish_one(grid, trace.name(), trace.trailing_nonmem(), trace.len() as u64, span)
}

/// The LLC demand stream of `trace` on `config`, for offline OPT
/// analysis: one `(llc set, block)` pair per record whose demand access
/// misses both L1D and L2, in record order. L1D and L2 state is a pure
/// function of the trace, so every LLC policy sees this stream; only the
/// front end is walked (no timing, LLC or DRAM), a chunk at a time as
/// the grid walks it.
///
/// # Panics
///
/// Panics on an invalid [`SimConfig`], like [`simulate`].
pub fn llc_demand_stream(trace: &Trace, config: &SimConfig) -> Vec<(u32, u64)> {
    config.validate().expect("invalid simulator config");
    let (mut front, mut walk) = (FrontEnd::new(config), Walk::default());
    let set_mask = u64::from(config.llc.sets) - 1;
    let mut stream = Vec::new();
    for chunk in trace.records().chunks(DEFAULT_CHUNK_RECORDS) {
        front.walk(chunk, &mut walk);
        let llc_access = |event: &UpperEvent| {
            let block = chunk[event.index as usize].block();
            event.reaches_llc().then_some(((block & set_mask) as u32, block))
        };
        stream.extend(walk.events.iter().filter_map(llc_access));
    }
    stream
}

/// Replays a `CCTR` stream straight from `reader` — one decoded chunk in
/// memory at a time, so multi-gigabyte ingested traces never
/// materialize. Produces a [`SimResult`] byte-identical to [`simulate`]
/// over the same records (workload name and trailing non-memory count
/// come from the stream header).
///
/// # Errors
///
/// Returns [`DecodeTraceError`] on a truncated or corrupt record; the
/// partial simulation is discarded.
///
/// # Examples
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use ccsim_core::{simulate, simulate_stream, SimConfig};
/// use ccsim_policies::PolicyKind;
/// use ccsim_trace::{write_trace, TraceBuffer, TraceReader};
///
/// let mut buf = TraceBuffer::new("demo");
/// for i in 0..512u64 {
///     buf.load(0x400, i * 64, 8);
/// }
/// let trace = buf.finish();
/// let mut bytes = Vec::new();
/// write_trace(&trace, &mut bytes)?;
///
/// let config = SimConfig::tiny();
/// let streamed = simulate_stream(TraceReader::new(&bytes[..])?, &config, PolicyKind::Lru)?;
/// assert_eq!(streamed, simulate(&trace, &config, PolicyKind::Lru));
/// # Ok(())
/// # }
/// ```
pub fn simulate_stream<R: Read>(
    mut reader: TraceReader<R>,
    config: &SimConfig,
    llc_policy: PolicyKind,
) -> Result<SimResult, DecodeTraceError> {
    let span = ccsim_obs::metrics().sim_wall_ns.span();
    let mut grid = GridReplay::new(&[(*config, llc_policy)], 0);
    grid.replay_reader(&mut reader)?;
    let header = reader.header();
    Ok(finish_one(grid, &header.name, header.trailing_nonmem, header.count, span))
}

/// Finishes a grid of one cell and accounts the run in the `sim_*`
/// metrics.
fn finish_one(
    grid: GridReplay,
    workload: &str,
    trailing_nonmem: u64,
    records: u64,
    span: Span<'_>,
) -> SimResult {
    let cell = grid.finish(workload, trailing_nonmem).pop().expect("a grid of one cell");
    let m = ccsim_obs::metrics();
    m.sim_runs.inc();
    m.sim_records.add(records);
    span.stop();
    cell
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_trace::synth::{PatternGen, PointerChase, RandomAccess, SequentialStream};
    use ccsim_trace::{write_trace, TraceBuffer};

    fn trace_of(gen: &dyn PatternGen, name: &str) -> Trace {
        let mut buf = TraceBuffer::new(name);
        gen.emit(&mut buf);
        buf.finish()
    }

    #[test]
    fn cache_resident_loop_has_high_ipc_and_low_mpki() {
        // 8 KB working set looped 50 times: fits in L1D.
        let t = trace_of(&SequentialStream::new(0x1000_0000, 8 << 10).laps(50), "hot");
        let r = simulate(&t, &SimConfig::cascade_lake(), PolicyKind::Lru);
        assert!(r.l1d.hit_rate() > 0.95, "l1 hit rate {}", r.l1d.hit_rate());
        assert!(r.mpki_llc() < 1.0, "llc mpki {}", r.mpki_llc());
        assert!(r.ipc() > 1.0, "ipc {}", r.ipc());
    }

    #[test]
    fn dram_bound_random_access_has_low_ipc() {
        // 64 MB of random accesses: misses everywhere.
        let t = trace_of(&RandomAccess::new(0x1000_0000, 1 << 20, 64, 50_000).seed(1), "rand");
        let r = simulate(&t, &SimConfig::cascade_lake(), PolicyKind::Lru);
        assert!(r.l1d.hit_rate() < 0.1, "l1 hit rate {}", r.l1d.hit_rate());
        assert!(r.dram_reach_fraction() > 0.9, "reach {}", r.dram_reach_fraction());
        assert!(r.ipc() < 1.0, "random dram-bound ipc {}", r.ipc());
    }

    #[test]
    fn pointer_chase_is_slower_than_stream_per_access() {
        let cfg = SimConfig::cascade_lake();
        let chase =
            trace_of(&PointerChase::new(0x2000_0000, 1 << 16, 64).steps(30_000).seed(2), "chase");
        // One access per block so both traces have 30 000 records.
        let stream =
            trace_of(&SequentialStream::new(0x1000_0000, 30_000 * 64).stride(64), "stream");
        let rc = simulate(&chase, &cfg, PolicyKind::Lru);
        let rs = simulate(&stream, &cfg, PolicyKind::Lru);
        // Same record count; the chase misses everywhere while the stream
        // enjoys row-buffer locality, so the chase takes more cycles.
        assert!(rc.cycles > rs.cycles, "chase {} vs stream {}", rc.cycles, rs.cycles);
    }

    #[test]
    fn instruction_count_matches_trace() {
        let t = trace_of(&SequentialStream::new(0, 1 << 12).work(7), "w");
        let r = simulate(&t, &SimConfig::tiny(), PolicyKind::Srrip);
        assert_eq!(r.instructions, t.instructions());
    }

    #[test]
    fn policies_differ_only_at_llc() {
        // L1/L2 behaviour must be identical across LLC policies.
        let t = trace_of(&RandomAccess::new(0, 1 << 18, 64, 20_000).seed(4), "r");
        let cfg = SimConfig::cascade_lake();
        let a = simulate(&t, &cfg, PolicyKind::Lru);
        let b = simulate(&t, &cfg, PolicyKind::Hawkeye);
        assert_eq!(a.l1d.demand_misses, b.l1d.demand_misses);
        assert_eq!(a.l2.demand_accesses, b.l2.demand_accesses);
    }

    /// A header may claim up to 2^48 trailing non-memory instructions;
    /// 2^40 of them must cost window-sized work, not 2^40 dispatches.
    #[test]
    fn huge_trailing_nonmem_streams_in_bounded_time() {
        let body = trace_of(&SequentialStream::new(0, 1 << 12).work(3), "w");
        let records = body.records().to_vec();
        let record_instructions: u64 = records.iter().map(TraceRecord::instructions).sum();
        let hostile = Trace::from_parts("w", records, 1 << 40);
        let mut bytes = Vec::new();
        write_trace(&hostile, &mut bytes).unwrap();
        let start = std::time::Instant::now();
        let reader = TraceReader::new(&bytes[..]).unwrap();
        let r = simulate_stream(reader, &SimConfig::cascade_lake(), PolicyKind::Lru).unwrap();
        assert!(start.elapsed().as_secs_f64() < 1.0, "took {:?}", start.elapsed());
        assert_eq!(r.instructions, record_instructions + (1 << 40));
        // Four per cycle at the Cascade Lake width.
        assert!(r.cycles >= 1 << 38, "cycles {}", r.cycles);
    }

    #[test]
    fn stream_replay_surfaces_decode_errors() {
        let t = trace_of(&SequentialStream::new(0, 1 << 12), "w");
        let mut bytes = Vec::new();
        write_trace(&t, &mut bytes).unwrap();
        bytes.truncate(bytes.len() - 3);
        let reader = TraceReader::new(&bytes[..]).unwrap();
        let err = simulate_stream(reader, &SimConfig::tiny(), PolicyKind::Lru);
        assert!(err.is_err(), "truncated stream must not produce a result");
    }
}
