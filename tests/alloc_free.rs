//! Enforces the hot-path contract: steady-state simulation performs
//! **zero heap allocations per trace record**, for every built-in policy.
//!
//! The binary installs a counting global allocator and drives a warmed
//! grid of one cell — the driver `simulate` runs — across a second full
//! pass of an eviction-heavy trace, asserting the allocation counter
//! does not move at all. The same is then asserted for the bare
//! `Hierarchy::demand_access` walk and for a lockstep grid of several
//! cells, including the streamed chunk-decode loop.
//! Telemetry is explicitly enabled for the measurement, and the
//! `ccsim-obs` primitives themselves (counter, gauge, histogram, span)
//! are hammered inside the measured region: the zero-alloc contract is
//! pinned *with instrumentation on*, not on a stripped build.
//!
//! Everything lives in one `#[test]`: the counter is process-global, so
//! concurrent tests in the same binary would pollute the measurement.

use ccsim::core::Hierarchy;
use ccsim::prelude::*;
use ccsim::trace::synth::{PatternGen, RandomAccess, SequentialStream};
use ccsim::trace::TraceBuffer;

mod alloc_track;
use alloc_track::{allocations, counting_enabled, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_replay_allocates_nothing() {
    assert!(counting_enabled(), "the counting allocator must be installed in this binary");
    // Telemetry stays ON for the whole measurement: the zero-alloc
    // contract covers the instrumented hot path, not a stripped one.
    ccsim::obs::set_enabled(true);

    let config = SimConfig::cascade_lake();
    // Eviction-heavy: twice the LLC, so every level evicts on every fill;
    // 10% stores so writeback fills (and their victim queries) run too.
    let mut buf = TraceBuffer::new("thrash");
    SequentialStream::new(0x1000_0000, 2 * config.llc.capacity_bytes())
        .stride(64)
        .store_every(10)
        .laps(2)
        .emit(&mut buf);
    let thrash = buf.finish();
    // And a random mix, for set-index entropy and MSHR-merge variety.
    let mut buf = TraceBuffer::new("mix");
    RandomAccess::new(0x4000_0000, 2 * config.llc.capacity_bytes() / 64, 64, 60_000)
        .store_fraction(0.2)
        .seed(9)
        .emit(&mut buf);
    let mix = buf.finish();

    for kind in PolicyKind::ALL {
        let mut cell = GridReplay::new(&[(config, kind)], 0);
        // Warm pass: fills every set, saturates MSHR maps, policy
        // samplers and the ROB ring to their steady-state footprint.
        cell.replay_trace(&thrash);
        cell.replay_trace(&mix);

        let before = allocations();
        cell.replay_trace(&thrash);
        cell.replay_trace(&mix);
        let during = allocations() - before;
        assert_eq!(
            during,
            0,
            "{kind}: {during} heap allocations across {} steady-state records",
            thrash.len() + mix.len(),
        );
    }

    // The hierarchy alone, driven as the benchmark's
    // `core.hierarchy.demand_access_ns` rung drives it (a blocking
    // in-order clock, no core in front): a warmed L1D/L2/LLC/DRAM walk
    // allocates nothing either.
    let lru = PolicyKind::Lru.build_dispatch(config.llc.sets, config.llc.ways);
    let mut hierarchy = Hierarchy::new(&config, lru);
    let mut now = 0u64;
    let mut walk = |hierarchy: &mut Hierarchy| {
        for rec in thrash.iter().chain(mix.iter()) {
            now += rec.instructions();
            let is_store = rec.kind.is_store();
            let done = hierarchy.demand_access(rec.pc, rec.vaddr, is_store, now);
            if !is_store {
                now = done;
            }
        }
    };
    walk(&mut hierarchy);
    let before = allocations();
    walk(&mut hierarchy);
    let during = allocations() - before;
    assert_eq!(during, 0, "hierarchy: {during} heap allocations across a warmed walk");

    // Wider grids inherit the contract: advancing N warmed lockstep
    // engines through further records — including the streamed
    // chunk-decode loop, whose chunk buffer is reserved by the first
    // streamed replay and reused, and the front ends' event buffers,
    // reserved by the first chunk — must not allocate either. Two L2
    // geometries make two front ends, each with its own event buffer.
    // The streamed trace ends in a short chunk (60 000 records), so a
    // decode buffer that is not handed back empty would regrow here.
    let mut bytes = Vec::new();
    ccsim::trace::write_trace(&mix, &mut bytes).unwrap();
    let mut half_l2 = config;
    half_l2.l2.sets /= 2;
    let cells = [
        (config, PolicyKind::Lru),
        (half_l2, PolicyKind::Ship),
        (config.with_llc_scale(2), PolicyKind::Hawkeye),
        (half_l2.with_llc_scale(4), PolicyKind::Mpppb),
    ];
    let mut grid = GridReplay::new(&cells, 0);
    // Warm pass: every engine fills its sets and samplers, and the chunk
    // and event buffers reach their full capacity.
    let mut reader = ccsim::trace::TraceReader::new(&bytes[..]).unwrap();
    grid.replay_reader(&mut reader).unwrap();
    grid.replay_trace(&thrash);

    // Readers are constructed outside the measured region (the CCTR
    // header carries an owned workload name).
    let mut reader = ccsim::trace::TraceReader::new(&bytes[..]).unwrap();
    let before = allocations();
    // replay_reader and replay_trace bump the grid chunk/record counters
    // internally; hammer every telemetry primitive directly as well —
    // sharded counter, gauge, histogram and span timer must all stay
    // allocation-free with telemetry enabled.
    let metrics = ccsim::obs::metrics();
    for _ in 0..10_000 {
        metrics.sim_records.add(3);
        metrics.cache_hits.inc();
        metrics.dist_held_leases.inc();
        metrics.dist_held_leases.dec();
        metrics.sim_wall_ns.record(1_234);
        metrics.cache_ensure_ns.span().stop();
    }
    grid.replay_reader(&mut reader).unwrap();
    grid.replay_trace(&thrash);
    let during = allocations() - before;
    assert_eq!(
        during,
        0,
        "grid driver: {during} heap allocations across {} steady-state records x {} cells",
        thrash.len() + mix.len(),
        cells.len(),
    );
    let results = grid.finish(thrash.name(), thrash.trailing_nonmem());
    assert_eq!(results.len(), cells.len());
    assert!(results.iter().all(|r| r.instructions > 0));
}
