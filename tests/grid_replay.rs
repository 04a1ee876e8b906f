//! The differential replay suite: every replay entry point against one
//! obviously-right oracle.
//!
//! All replay goes through `GridReplay` (`simulate` and
//! `simulate_stream` are a grid of one cell), so what can go wrong is
//! the mechanics around the per-record step: chunking, the
//! streamed decode buffer, lockstep cells sharing a pass. The oracle has
//! none of them — one cell, one record per `step_records` call, built
//! from public API only. Every other way to replay the same records must
//! produce an indistinguishable `SimResult` (every counter of every
//! level): single cell or grid, in memory or streamed, any chunk size,
//! whatever the other cells of the grid are.
//!
//! The oracle still replays through the engine's replay loop, which
//! skips quiet L1D hits and dispatches runs of them in bulk. A second
//! reference, `per_record`, shares nothing with that loop: a public
//! `Core` and `Hierarchy` stepped one demand access per record, on
//! hit-heavy traces.

use std::io::BufReader;
use std::path::Path;

use ccsim::core::{Core, Hierarchy, Level};
use ccsim::prelude::*;
use ccsim::trace::synth::{PatternGen, RandomAccess, SequentialStream};
use ccsim::trace::{write_trace, AccessKind, TraceReader, TraceRecord, TraceWriter};
use proptest::prelude::*;

/// The reference: `cell` alone, fed one record at a time.
fn oracle(trace: &Trace, cell: &(SimConfig, PolicyKind)) -> SimResult {
    let mut grid = GridReplay::new(std::slice::from_ref(cell), 1);
    for rec in trace.records() {
        grid.step_records(std::slice::from_ref(rec));
    }
    grid.finish(trace.name(), trace.trailing_nonmem()).remove(0)
}

fn cctr_bytes(trace: &Trace) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_trace(trace, &mut bytes).unwrap();
    bytes
}

fn file_reader(path: &Path) -> TraceReader<BufReader<std::fs::File>> {
    TraceReader::new(BufReader::new(std::fs::File::open(path).unwrap())).unwrap()
}

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (0u64..1 << 40, 0u64..1 << 44, 1u8..=8, any::<bool>(), 0u16..2000).prop_map(
        |(pc, vaddr, size, store, nonmem)| TraceRecord {
            pc,
            vaddr,
            size,
            kind: if store { AccessKind::Store } else { AccessKind::Load },
            nonmem_before: nonmem,
        },
    )
}

fn arb_trace(max_len: usize) -> impl Strategy<Value = Trace> {
    (proptest::collection::vec(arb_record(), 0..max_len), 0u64..1000)
        .prop_map(|(records, trailing)| Trace::from_parts("prop", records, trailing))
}

/// A grid cell drawn from the full policy set, LLC scales 1/2/4 and two
/// L2 geometries (so grids mix cells with and without a shared front end).
fn arb_cell() -> impl Strategy<Value = (SimConfig, PolicyKind)> {
    (0usize..PolicyKind::ALL.len(), 0u32..3, 0u32..2).prop_map(
        |(policy_idx, scale_log2, l2_log2)| {
            let mut config = SimConfig::tiny().with_llc_scale(1 << scale_log2);
            config.l2.sets <<= l2_log2;
            (config, PolicyKind::ALL[policy_idx])
        },
    )
}

/// 0 = the default chunk, 1 = record-at-a-time, 2 = beyond any trace (and any
/// buffer that could be reserved); everything else a small explicit
/// chunk.
fn chunk_records(sel: usize) -> usize {
    match sel {
        2 => usize::MAX,
        n => n,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// In memory: the lockstep grid, and `simulate` / `simulate_stream`
    /// on each cell alone, equal the oracle cell for cell — arbitrary
    /// traces, grids of 1..6 mixed cells, any chunk size.
    #[test]
    fn grid_replay_equals_per_cell_replay(
        trace in arb_trace(300),
        cells in proptest::collection::vec(arb_cell(), 1..6),
        chunk_sel in 0usize..64,
    ) {
        let grid = simulate_grid(&trace, &cells, chunk_records(chunk_sel));
        prop_assert_eq!(grid.len(), cells.len());
        let bytes = cctr_bytes(&trace);
        for (cell, result) in cells.iter().zip(&grid) {
            let reference = oracle(&trace, cell);
            prop_assert_eq!(result, &reference);
            prop_assert_eq!(&simulate(&trace, &cell.0, cell.1), &reference);
            let reader = TraceReader::new(&bytes[..]).unwrap();
            prop_assert_eq!(&simulate_stream(reader, &cell.0, cell.1).unwrap(), &reference);
        }
    }

    /// The streaming front end (`TraceReader` → decoded chunks) equals
    /// the in-memory driver and the oracle, so the campaign's file-backed
    /// path inherits the equivalence.
    #[test]
    fn grid_stream_equals_grid_in_memory(
        trace in arb_trace(200),
        cells in proptest::collection::vec(arb_cell(), 1..5),
        chunk_sel in 0usize..48,
    ) {
        let reference: Vec<SimResult> = cells.iter().map(|cell| oracle(&trace, cell)).collect();
        let bytes = cctr_bytes(&trace);
        let reader = TraceReader::new(&bytes[..]).unwrap();
        let streamed = simulate_grid_stream(reader, &cells, chunk_records(chunk_sel)).unwrap();
        prop_assert_eq!(&streamed, &reference);
        prop_assert_eq!(&simulate_grid(&trace, &cells, chunk_records(chunk_sel)), &reference);
    }

    /// Duplicate cells in one grid stay independent: each copy's engine
    /// must evolve exactly as if it ran alone.
    #[test]
    fn duplicated_cells_do_not_interfere(
        trace in arb_trace(200),
        cell in arb_cell(),
    ) {
        let reference = oracle(&trace, &cell);
        for result in &simulate_grid(&trace, &[cell, cell, cell], 7) {
            prop_assert_eq!(result, &reference);
        }
    }
}

/// The per-record reference: a `Core` and a `Hierarchy`, one demand
/// access per record, a store retiring the cycle after its dispatch
/// (its RFO proceeds in the background).
fn per_record(trace: &Trace, (config, policy): &(SimConfig, PolicyKind)) -> SimResult {
    let llc = policy.build_dispatch(config.llc.sets, config.llc.ways);
    let (mut memory, mut core) = (Hierarchy::new(config, llc), Core::new(config.core));
    for rec in trace.records() {
        core.dispatch_nonmem(u64::from(rec.nonmem_before));
        let store = rec.kind.is_store();
        core.dispatch_mem(|at| {
            let done = memory.demand_access(rec.pc, rec.vaddr, store, at);
            if store {
                at + 1
            } else {
                done
            }
        });
    }
    core.dispatch_nonmem(trace.trailing_nonmem());
    let (instructions, cycles) = core.finish();
    SimResult {
        workload: trace.name().to_owned(),
        policy: policy.name().to_owned(),
        instructions,
        cycles,
        l1d: *memory.cache_stats(Level::L1d),
        l2: *memory.cache_stats(Level::L2),
        llc: *memory.cache_stats(Level::Llc),
        dram: *memory.dram_stats(),
        llc_diag: memory.llc_policy_diag(),
    }
}

/// `tiny`, `cascade_lake`, and `tiny` with an L1D latency beyond the
/// core's slack (`rob_size / width` = 8), where no load hit may join a run.
fn hit_configs() -> [SimConfig; 3] {
    let mut slow_l1d = SimConfig::tiny();
    slow_l1d.l1d.latency = 12;
    [SimConfig::tiny(), SimConfig::cascade_lake(), slow_l1d]
}

/// Hit-heavy traces: every access goes to one of 1, 2, 4, ... 64 blocks,
/// laid out 1, 2 or 64 blocks apart (64 apart, they share a Cascade Lake
/// L1D set), so hits on lines still in flight and loads on lines a store
/// brought in are common. Any share of stores, 0..20 non-memory
/// instructions per record, 0..50 trailing.
fn arb_hit_trace() -> impl Strategy<Value = Trace> {
    let layout = (0u32..7, 0usize..3, 0u32..=100, 0u64..50);
    let records = proptest::collection::vec((0u64..64, 0u32..100, 0u16..20), 0..400);
    (layout, records).prop_map(|((pool_log2, stride, store_pct, trailing), draws)| {
        let (pool, stride) = (1 << pool_log2, [1, 2, 64][stride]);
        let records = draws.into_iter().map(|(i, r, nonmem)| TraceRecord {
            pc: 0x400 + i % pool,
            vaddr: i % pool * stride * 64,
            size: 8,
            kind: if r < store_pct { AccessKind::Store } else { AccessKind::Load },
            nonmem_before: nonmem,
        });
        Trace::from_parts("hits", records.collect(), trailing)
    })
}

/// `trace` replays to `per_record`'s result on `config` under LRU at
/// chunk sizes 1, 7 and the default.
fn assert_matches_per_record(trace: &Trace, config: SimConfig) {
    let cell = (config, PolicyKind::Lru);
    let reference = per_record(trace, &cell);
    for chunk in [1, 7, 0] {
        assert_eq!(simulate_grid(trace, &[cell], chunk)[0], reference, "chunk {chunk}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The engine's replay loop — quiet records and L1D hits in runs,
    /// every other event stepped — equals the per-record reference: instructions, cycles
    /// and every statistic, at chunk sizes 1, 7 and the default.
    #[test]
    fn replay_equals_a_per_record_core_and_hierarchy(
        trace in arb_hit_trace(),
        config_sel in 0usize..3,
        policy_idx in 0usize..PolicyKind::ALL.len(),
    ) {
        let cell = (hit_configs()[config_sel], PolicyKind::ALL[policy_idx]);
        let reference = per_record(&trace, &cell);
        for chunk in [1, 7, 0] {
            let result = &simulate_grid(&trace, &[cell], chunk)[0];
            prop_assert!(result == &reference, "chunk {chunk}: {result:?} != {reference:?}");
        }
    }
}

/// A store misses, and a load hits its line before the RFO's data lands:
/// the load completes beyond the core's horizon, so it must not join a
/// run. The 400 trailing instructions reach its waiter, which must stall.
#[test]
fn a_load_on_a_line_still_in_flight_is_stepped() {
    let mut buf = TraceBuffer::new("in-flight");
    buf.store(0x400, 0x1_0000, 8);
    buf.load(0x404, 0x1_0000, 8);
    let trace = Trace::from_parts("in-flight", buf.finish().records().to_vec(), 400);
    for config in hit_configs() {
        assert_matches_per_record(&trace, config);
    }
    let cascade_lake = per_record(&trace, &(SimConfig::cascade_lake(), PolicyKind::Lru));
    assert_eq!(cascade_lake.l1d.demand_hits, 1);
}

/// A load hit, then a store hit eight non-memory instructions later, end
/// the trace: the finish cycle is the load's completion, four cycles
/// after the load's own dispatch cycle — not after the run's last one.
#[test]
fn a_run_remembers_its_last_load_completion() {
    let record = |vaddr, store, nonmem_before| TraceRecord {
        pc: 0x400,
        vaddr,
        size: 8,
        kind: if store { AccessKind::Store } else { AccessKind::Load },
        nonmem_before,
    };
    // The first load misses; the 1,999 instructions after it stall on it
    // and place the second load first in its cycle, on the landed line.
    let records =
        vec![record(0x1_0000, false, 0), record(0x1_0000, false, 1999), record(0x1_0000, true, 8)];
    let trace = Trace::from_parts("last-load", records, 0);
    for config in hit_configs() {
        assert_matches_per_record(&trace, config);
    }
    let cascade_lake = per_record(&trace, &(SimConfig::cascade_lake(), PolicyKind::Lru));
    assert_eq!(cascade_lake.l1d.demand_hits, 2);
}

/// A front end shared by a Cascade Lake cell and a cell whose L1D latency
/// is beyond its core's slack emits every load hit: the slow cell steps
/// each one, and the other replays them in runs. Both cells equal
/// `per_record`, and the shared walk costs each cell as many events as
/// the slow cell alone.
#[test]
fn a_front_end_with_a_cell_that_steps_every_hit_emits_every_load_hit() {
    let mut slow = SimConfig::cascade_lake();
    slow.l1d.latency = u64::from(slow.core.rob_size / slow.core.width) + 1;
    let cells = [(SimConfig::cascade_lake(), PolicyKind::Lru), (slow, PolicyKind::Lru)];
    let replay = |trace: &Trace, cells: &[(SimConfig, PolicyKind)]| {
        let mut grid = GridReplay::new(cells, 0);
        grid.replay_trace(trace);
        (grid.cell_events(), grid.finish(trace.name(), trace.trailing_nonmem()))
    };

    // Loads over 64 blocks: after the first lap, every record is a load
    // hit on a load-filled line.
    let mut buf = TraceBuffer::new("loads");
    for i in 0..4_000u64 {
        buf.nonmem(i % 5);
        buf.load(0x400, (i * 7 % 64) << 6, 8);
    }
    let loads = buf.finish();
    let (shared, results) = replay(&loads, &cells);
    assert_eq!(shared, 2 * loads.len() as u64, "every record is an event in both cells");
    assert_eq!(replay(&loads, &cells[..1]).0, 64, "alone, the fast cell times its misses");
    for (cell, result) in cells.iter().zip(&results) {
        assert_eq!(result, &per_record(&loads, cell));
    }

    // Stores too: a store hit is never an event.
    let mut buf = TraceBuffer::new("mixed");
    RandomAccess::new(0x1000_0000, 1 << 12, 64, 6_000).store_fraction(0.2).seed(7).emit(&mut buf);
    let mixed = buf.finish();
    let (shared, results) = replay(&mixed, &cells);
    let (alone, _) = replay(&mixed, &cells[1..]);
    assert!(alone < mixed.len() as u64, "{alone} events for {} records", mixed.len());
    assert_eq!(shared, 2 * alone);
    for (cell, result) in cells.iter().zip(&results) {
        assert_eq!(result, &per_record(&mixed, cell));
    }
}

/// Regression: the pinned ingest golden fixture (a real converted
/// ChampSim trace) on the full platform model replays to the oracle's
/// result bit for bit — as a policies × LLC-scales grid under three
/// chunkings, in memory and streamed straight from the fixture file
/// like a campaign band, and as single cells through `simulate` /
/// `simulate_stream`.
#[test]
fn golden_ingest_fixture_grid_replays_identically() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ingest_golden_v1.cctr");
    let trace = ccsim::trace::read_trace(&std::fs::read(&path).unwrap()[..]).unwrap();
    assert!(!trace.is_empty(), "golden fixture must carry records");

    let mut cells: Vec<(SimConfig, PolicyKind)> = Vec::new();
    for scale in [1u32, 4] {
        let config = SimConfig::cascade_lake().with_llc_scale(scale);
        for policy in PolicyKind::ALL {
            cells.push((config, policy));
        }
    }
    let reference: Vec<SimResult> = cells.iter().map(|cell| oracle(&trace, cell)).collect();

    for chunk_records in [0usize, 1, 1000] {
        let grid = simulate_grid(&trace, &cells, chunk_records);
        assert_eq!(grid, reference, "in-memory grid diverged at chunk {chunk_records}");
        let streamed = simulate_grid_stream(file_reader(&path), &cells, chunk_records).unwrap();
        assert_eq!(streamed, reference, "streamed grid diverged at chunk {chunk_records}");
    }
    for ((config, policy), reference) in cells.iter().zip(&reference) {
        assert_eq!(&simulate(&trace, config, *policy), reference, "{policy}");
        let streamed = simulate_stream(file_reader(&path), config, *policy).unwrap();
        assert_eq!(&streamed, reference, "{policy} streamed");
    }

    // The replay is real work, not a stub: the golden trace must reach
    // the LLC. (The fixture is small enough that it never *evicts*, so
    // scales and policies agree on it — the proptests above cover
    // divergent grids.)
    assert!(reference[0].llc.demand_misses > 0, "golden fixture never reached the LLC");
}

/// Cells that differ in L2 sets (so in front end) and in LLC scale,
/// interleaved in cell order: every cell of the grid is bit-equal to its
/// grid-of-one oracle and the results come back in cell order, in memory
/// and streamed, whatever the chunking.
#[test]
fn mixed_geometry_grid_equals_the_oracle_cell_for_cell() {
    let mut buf = TraceBuffer::new("mixed-geometry");
    RandomAccess::new(0x1000_0000, 1 << 10, 64, 20_000).store_fraction(0.25).seed(5).emit(&mut buf);
    let trace = buf.finish();
    let mut half_l2 = SimConfig::tiny();
    half_l2.l2.sets /= 2;
    let cells = [
        (SimConfig::tiny(), PolicyKind::Lru),
        (half_l2, PolicyKind::Lru),
        (SimConfig::tiny().with_llc_scale(2), PolicyKind::Ship),
        (half_l2.with_llc_scale(4), PolicyKind::Hawkeye),
        (SimConfig::tiny(), PolicyKind::Drrip),
        (half_l2.with_llc_scale(2), PolicyKind::Mpppb),
    ];
    let reference: Vec<SimResult> = cells.iter().map(|cell| oracle(&trace, cell)).collect();
    assert_ne!(reference[0].l2, reference[1].l2, "the two L2 geometries must differ");
    let bytes = cctr_bytes(&trace);
    for chunk_records in [0usize, 1, 333] {
        assert_eq!(
            simulate_grid(&trace, &cells, chunk_records),
            reference,
            "chunk {chunk_records}"
        );
        let reader = TraceReader::new(&bytes[..]).unwrap();
        let streamed = simulate_grid_stream(reader, &cells, chunk_records).unwrap();
        assert_eq!(streamed, reference, "streamed, chunk {chunk_records}");
    }
}

/// Differential golden for the tag-store layout: a deterministic
/// eviction-heavy trace replayed through **all 7 policies** on a
/// mixed-scale grid must reproduce the committed per-cell counter table
/// exactly. The fixture was blessed from the array-of-structs line-table engine
/// immediately before the SoA tag-array refactor, so any drift in
/// probe/fill/victim behaviour — however subtle — fails here at the
/// first diverging counter. Rebless with
/// `CCSIM_BLESS=1 cargo test --test grid_replay` only for an intentional
/// behavioural change.
#[test]
fn tag_store_differential_golden_pins_all_policies() {
    use std::fmt::Write as _;

    let mut buf = TraceBuffer::new("tag-golden");
    // Two laps over 2x the scaled-LLC footprint force evictions (and
    // dirty writebacks) at every level and scale...
    SequentialStream::new(0x1000_0000, 8 * 1024).stride(64).store_every(7).laps(3).emit(&mut buf);
    // ...and a seeded random mix drives victim queries, bypass decisions
    // and writeback-bypass overrides across set-index entropy.
    RandomAccess::new(0x8000_0000, 512, 64, 20_000)
        .store_fraction(0.25)
        .seed(0xC0FFEE)
        .emit(&mut buf);
    let trace = buf.finish();

    let mut cells: Vec<(SimConfig, PolicyKind)> = Vec::new();
    for scale in [1u32, 2, 4] {
        let config = SimConfig::tiny().with_llc_scale(scale);
        for policy in PolicyKind::ALL {
            cells.push((config, policy));
        }
    }
    let results = simulate_grid(&trace, &cells, 0);

    let mut table = String::new();
    for ((config, policy), r) in cells.iter().zip(&results) {
        writeln!(
            table,
            "{policy} x{} cycles={} llc_miss={} llc_hit={} evict={} wb_out={} bypass={} \
             wb_override={}",
            config.llc.sets / SimConfig::tiny().llc.sets,
            r.cycles,
            r.llc.demand_misses,
            r.llc.demand_hits,
            r.llc.evictions,
            r.llc.writebacks_out,
            r.llc.bypasses,
            r.llc.writeback_bypass_overrides,
        )
        .unwrap();
    }

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tag_store_golden_v1.txt");
    if std::env::var_os("CCSIM_BLESS").is_some() {
        std::fs::write(&path, &table).unwrap();
    }
    let pinned = std::fs::read_to_string(&path)
        .expect("fixture missing; run with CCSIM_BLESS=1 to create it");
    assert_eq!(table, pinned, "tag-store behaviour drifted from the pre-SoA golden");
}

/// The `GridReplay` driver is usable directly: stepping record slices by
/// hand then finishing equals the one-shot helper and the oracle (this
/// is the API the benchmark's allocation rung builds on).
#[test]
fn manual_chunk_feeding_matches_one_shot_helpers() {
    let mut buf = TraceBuffer::new("manual");
    for i in 0..5000u64 {
        if i % 3 == 0 {
            buf.store(0x400 + i % 13, 0x1000 + 64 * (i % 700), 8);
        } else {
            buf.load(0x400 + i % 13, 0x2000 + 64 * (i % 211), 8);
        }
    }
    let trace = buf.finish();
    let cells = vec![(SimConfig::tiny(), PolicyKind::Lru), (SimConfig::tiny(), PolicyKind::Drrip)];

    let mut driver = GridReplay::new(&cells, 0);
    assert_eq!(driver.cells(), 2);
    for chunk in trace.records().chunks(333) {
        driver.step_records(chunk);
    }
    let manual = driver.finish(trace.name(), trace.trailing_nonmem());
    assert_eq!(manual, simulate_grid(&trace, &cells, 333));
    assert_eq!(manual, cells.iter().map(|cell| oracle(&trace, cell)).collect::<Vec<_>>());
}

/// A million-record on-disk trace — hundreds of decoded chunks —
/// streams to the oracle's result, as does its materialized twin: the
/// scale regime campaigns rely on for ingested traces (the stream side
/// holds one chunk in memory at a time; `TraceWriter` keeps the
/// generation side bounded too).
#[test]
fn million_record_file_streams_identically() {
    let dir = std::env::temp_dir().join(format!("ccsim_stream_big_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("big.cctr");
    const RECORDS: u64 = 1_000_000;

    // Write straight to disk and build the in-memory twin in lockstep:
    // a zipfian-ish mix of a hot region and a cold sweep.
    let mut writer =
        TraceWriter::new(std::io::BufWriter::new(std::fs::File::create(&path).unwrap()), "big")
            .unwrap();
    let mut records = Vec::with_capacity(RECORDS as usize);
    for i in 0..RECORDS {
        let vaddr = if i % 3 == 0 { 0x100_0000 + (i % 512) * 64 } else { 0x800_0000 + i * 64 };
        let mut rec = if i % 7 == 0 {
            TraceRecord::store(0x400 + (i % 97) * 4, vaddr, 8)
        } else {
            TraceRecord::load(0x400 + (i % 97) * 4, vaddr, 8)
        };
        rec.nonmem_before = (i % 5) as u16;
        writer.write_record(&rec).unwrap();
        records.push(rec);
    }
    drop(writer.finish(11).unwrap());
    let trace = Trace::from_parts("big", records, 11);

    let cell = (SimConfig::cascade_lake(), PolicyKind::Ship);
    let reference = oracle(&trace, &cell);
    assert_eq!(simulate_stream(file_reader(&path), &cell.0, cell.1).unwrap(), reference);
    assert_eq!(simulate(&trace, &cell.0, cell.1), reference);
    assert_eq!(reference.instructions, trace.instructions());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Campaigns stream `trace:` bands from the converted file; the reported
/// cell results must equal the oracle over the same converted trace.
#[test]
fn campaign_streams_external_cells_identically() {
    use ccsim::ingest::champsim::{ChampSimRecord, ChampSimWriter};

    let dir = std::env::temp_dir().join(format!("ccsim_stream_campaign_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let source = dir.join("ext.champsim");
    let mut w = ChampSimWriter::new(std::fs::File::create(&source).unwrap());
    for i in 0..600u64 {
        w.write(&ChampSimRecord::nonmem(0x400 + 4 * i)).unwrap();
        w.write(&ChampSimRecord::load(0x600 + 4 * i, 0x10000 + 64 * (i % 48))).unwrap();
    }
    drop(w);

    let selector = format!("trace:{}", source.display());
    let spec = CampaignSpec::from_json_str(&format!(
        r#"{{"name": "stream", "base_config": "tiny",
             "workloads": ["{selector}"], "policies": ["lru", "srrip"]}}"#
    ))
    .unwrap();
    let cache = TraceCache::new(dir.join("cache")).unwrap();
    let outcome = Campaign::new(spec).threads(2).cache(cache).run().unwrap();

    // Reference: materialize the cached conversion and run the oracle.
    let cache = TraceCache::new(dir.join("cache")).unwrap();
    let opts = IngestOptions { name: Some(selector.clone()), ..Default::default() };
    let entry = cache.ensure_ingested(&source, &opts).unwrap();
    let reference_trace = ccsim::trace::read_trace(&std::fs::read(entry).unwrap()[..]).unwrap();
    assert_eq!(cache.hits(), 1, "campaign must have converted the trace already");
    for cell in &outcome.report.cells {
        let policy: PolicyKind = cell.policy.parse().unwrap();
        let reference = oracle(&reference_trace, &(SimConfig::tiny(), policy));
        assert_eq!(cell.result, reference, "{}", cell.policy);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
