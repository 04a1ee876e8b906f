//! Isolation ladders: one rung per layer operation, timed from outside
//! through the layer's public functions, plus the cost model that prices
//! one replayed record from them.
//!
//! The in-situ per-layer numbers (per-policy cells, the grid, the campaign
//! stages) are set by the traced workload runs in [`crate::workloads`];
//! this module adds what only an isolated loop can give and then asks how
//! much of `core.simulate_ns_per_record` the rungs explain.

use std::fs::File;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::Path;

use ccsim_campaign::Json;
use ccsim_core::{cache::MshrGrant, simulate};
use ccsim_core::{Cache, Core, Dram, GridReplay, Hierarchy, SimConfig, SimResult};
use ccsim_ingest::{digest_file, ingest_file, IngestOptions};
use ccsim_policies::util::SplitMix64;
use ccsim_policies::{AccessInfo, AccessType, PolicyKind};
use ccsim_trace::{write_trace, Trace};
use ccsim_workloads::build_workload_seeded;

use crate::alloc;
use crate::at_path;
use crate::checks::Checks;
use crate::inputs::{Inputs, Scale, SetupTimes};
use crate::metrics::{Layers, GAP_POLICIES};
use crate::spans::Tracer;
use crate::timing::{min_of, time, try_min_of};
use crate::workloads::{load_trace, open_reader, CAMPAIGN_SYNTHETIC};

/// Operations per micro rung: enough for the timer to dwarf its own cost.
fn micro_ops(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 2_000_000,
        Scale::Smoke => 50_000,
    }
}

fn access(cache: &Cache, pc: u64, block: u64, kind: AccessType) -> AccessInfo {
    AccessInfo { pc, block, set: cache.set_of(block), kind }
}

/// `trace.*`: streaming decode, whole-file read, encode.
fn trace_rungs(
    inputs: &Inputs,
    bfs: &Trace,
    scratch: &Path,
    reps: u32,
    layers: &mut Layers,
) -> Result<(), String> {
    let path = &inputs.bfs.path;
    let records = inputs.bfs.records as f64;

    let (decode_s, ()) = try_min_of(reps, || {
        let mut reader = open_reader(&inputs.bfs)?;
        while let Some(rec) = reader.next_record().map_err(|e| at_path(path, e))? {
            black_box(rec);
        }
        Ok::<(), String>(())
    })?;
    let (read_s, _) = try_min_of(reps, || load_trace(&inputs.bfs).map(black_box))?;
    let encoded = scratch.join("ladder-encode.cctr");
    let (encode_s, ()) = try_min_of(reps, || {
        let mut writer = BufWriter::new(File::create(&encoded)?);
        write_trace(bfs, &mut writer)?;
        writer.flush()
    })
    .map_err(|e| at_path(&encoded, e))?;
    let bytes = std::fs::metadata(path).map_err(|e| at_path(path, e))?.len();
    layers.set("trace.decode_ns_per_record", 1e9 * decode_s / records);
    layers.set("trace.read_trace_ns_per_record", 1e9 * read_s / records);
    layers.set("trace.encode_ns_per_record", 1e9 * encode_s / records);
    layers.set("trace.bytes_per_record", bytes as f64 / records);
    Ok(())
}

/// `workloads.build_ns_per_record` and `ingest.*`: what `campaign_cold`
/// pays inside `acquire`.
fn acquisition_rungs(
    inputs: &Inputs,
    scratch: &Path,
    reps: u32,
    layers: &mut Layers,
) -> Result<(), String> {
    let (mut build_s, mut built_records) = (0.0, 0u64);
    for name in CAMPAIGN_SYNTHETIC {
        let (trace, wall) = time(|| build_workload_seeded(name, inputs.scale.suite(), inputs.seed));
        build_s += wall.as_secs_f64();
        built_records += trace?.len() as u64;
    }
    layers.set("workloads.build_ns_per_record", 1e9 * build_s / built_records as f64);

    let source = &inputs.foreign;
    let out = scratch.join("ladder-ingest.cctr");
    let (ingest_s, report) =
        try_min_of(reps, || ingest_file(source, &out, &IngestOptions::default()))
            .map_err(|e| at_path(source, e))?;
    layers.set("ingest.ns_per_instr", 1e9 * ingest_s / report.source_instructions as f64);
    layers.set("ingest.instrs", report.source_instructions as f64);
    layers.set("ingest.records_out", report.records as f64);
    layers.set("ingest.operands_clamped", report.clamped as f64);
    layers.set("ingest.skipped", report.skipped as f64);

    let (digest_s, _) = try_min_of(reps, || digest_file(source)).map_err(|e| at_path(source, e))?;
    let bytes = std::fs::metadata(source).map_err(|e| at_path(source, e))?.len();
    layers.set("ingest.digest_ns_per_byte", 1e9 * digest_s / bytes as f64);
    Ok(())
}

/// `policies.<p>.llc_direct_*`: a bare LLC-geometry cache under policy `p`
/// fed the trace's (pc, block) stream — `lookup`, `fill` on a miss.
fn policy_rungs(bfs: &Trace, reps: u32, layers: &mut Layers) {
    let llc = SimConfig::cascade_lake().llc;
    for p in GAP_POLICIES {
        let mut hit_ratio = 0.0;
        let wall = min_of(reps, || {
            let mut cache = Cache::new("LLC", llc, p.build_dispatch(llc.sets, llc.ways));
            for rec in bfs {
                let kind = if rec.kind.is_store() { AccessType::Rfo } else { AccessType::Load };
                let info = access(&cache, rec.pc, rec.block(), kind);
                if cache.lookup(&info).is_none() {
                    black_box(cache.fill(&info));
                }
            }
            let stats = cache.stats();
            hit_ratio = stats.demand_hits as f64 / stats.demand_accesses as f64;
        });
        layers.set(format!("policies.{p}.llc_direct_ns_per_access"), 1e9 * wall / bfs.len() as f64);
        layers.set(format!("policies.{p}.llc_hit_ratio"), hit_ratio);
    }
}

/// `core.cache.*`, `core.mshr.*`, `core.cpu.*`, `core.dram.*`: one
/// operation each, in a loop over a resident or always-missing block set.
fn micro_rungs(scale: Scale, reps: u32, layers: &mut Layers) {
    let config = SimConfig::cascade_lake();
    let ops = micro_ops(scale);
    let per_op = |seconds: f64| 1e9 * seconds / ops as f64;
    let lru = |c: ccsim_core::CacheConfig| PolicyKind::Lru.build_dispatch(c.sets, c.ways);

    // An L1D with every way valid, and a shuffled order to visit it in.
    let resident = u64::from(config.l1d.sets * config.l1d.ways);
    let mut l1d = Cache::new("L1D", config.l1d, lru(config.l1d));
    for block in 0..resident {
        l1d.fill(&access(&l1d, 0x400, block, AccessType::Load));
    }
    let mut rng = SplitMix64::new(0x5EED);
    let order: Vec<u64> = (0..4096).map(|_| rng.below(resident)).collect();
    let visit = |i: u64| order[(i % order.len() as u64) as usize];

    layers.set(
        "core.cache.probe_ns",
        per_op(min_of(reps, || {
            for i in 0..ops {
                black_box(l1d.probe(visit(i)));
            }
        })),
    );
    layers.set(
        "core.cache.lookup_hit_ns",
        per_op(min_of(reps, || {
            for i in 0..ops {
                let info = access(&l1d, 0x400, visit(i), AccessType::Load);
                black_box(l1d.lookup(&info));
            }
        })),
    );

    // An L2 whose sets are full, filled with blocks it has never seen:
    // every fill is a victim query, an eviction and an insert.
    let mut l2 = Cache::new("L2", config.l2, lru(config.l2));
    let mut next_block = 0u64;
    for _ in 0..config.l2.sets * config.l2.ways {
        l2.fill(&access(&l2, 0x400, next_block, AccessType::Load));
        next_block += 1;
    }
    layers.set(
        "core.cache.fill_evict_ns",
        per_op(min_of(reps, || {
            for _ in 0..ops {
                black_box(l2.fill(&access(&l2, 0x400, next_block, AccessType::Load)));
                next_block += 1;
            }
        })),
    );

    // The hit path's probe of the outstanding-miss map: half the visited
    // blocks have a recorded miss, half do not.
    for block in 0..resident / 2 {
        if let MshrGrant::Issue { slot, .. } = l1d.mshrs().acquire(block, 0) {
            l1d.mshrs().complete(slot, block, u64::MAX);
        }
    }
    layers.set(
        "core.mshr.pending_ns",
        per_op(min_of(reps, || {
            for i in 0..ops {
                black_box(l1d.mshrs().pending(visit(i)));
            }
        })),
    );
    let mut l2_miss = Cache::new("L2", config.l2, lru(config.l2));
    let (mut block, mut now) = (1u64 << 32, 0u64);
    layers.set(
        "core.mshr.acquire_complete_ns",
        per_op(min_of(reps, || {
            for _ in 0..ops {
                if let MshrGrant::Issue { slot, start_at } = l2_miss.mshrs().acquire(block, now) {
                    l2_miss.mshrs().complete(slot, block, start_at + 200);
                }
                block += 1;
                now += 10;
            }
        })),
    );

    layers.set(
        "core.cpu.dispatch_mem_ns",
        per_op(min_of(reps, || {
            let mut core = Core::new(config.core);
            for _ in 0..ops {
                core.dispatch_mem(|at| at + 4);
            }
            black_box(core.finish());
        })),
    );
    layers.set(
        "core.cpu.dispatch_nonmem_ns",
        per_op(min_of(reps, || {
            let mut core = Core::new(config.core);
            for _ in 0..ops {
                core.dispatch_nonmem(4);
            }
            black_box(core.finish());
        })),
    );

    let mut dram = Dram::new(config.dram);
    let mut now = 0u64;
    layers.set(
        "core.dram.access_ns",
        per_op(min_of(reps, || {
            for _ in 0..ops {
                black_box(dram.access(rng.below(1 << 24), now, false));
                now += 50;
            }
        })),
    );
}

/// `core.hierarchy.demand_access_ns.<regime>`: the three cache levels and
/// DRAM driven over the trace without a `Core` in front. The stand-in clock
/// is a blocking in-order core — a load's data must arrive before the next
/// access issues — because with no window to fill, an unthrottled stream
/// would pile misses onto the MSHRs in a way no replay ever does.
fn hierarchy_rung(trace: &Trace, regime: &str, reps: u32, layers: &mut Layers) {
    let config = SimConfig::cascade_lake();
    let wall = min_of(reps, || {
        let lru = PolicyKind::Lru.build_dispatch(config.llc.sets, config.llc.ways);
        let mut hierarchy = Hierarchy::new(&config, lru);
        let mut now = 0u64;
        for rec in trace {
            now += rec.instructions();
            let is_store = rec.kind.is_store();
            let done = hierarchy.demand_access(rec.pc, rec.vaddr, is_store, now);
            if !is_store {
                now = done;
            }
        }
        black_box(now);
    });
    let per_record = 1e9 * wall / trace.len() as f64;
    layers.set(format!("core.hierarchy.demand_access_ns.{regime}"), per_record);
    if let Some(simulate) = layers.get(&format!("core.simulate_ns_per_record.{regime}")) {
        layers.set(format!("core.cpu.self_ns_per_record.{regime}"), simulate - per_record);
    }
}

/// `core.steady_allocs_per_record`: heap allocations per record once the
/// engine is warm (the first half of the trace), counted exactly.
fn steady_allocs_rung(bfs: &Trace, layers: &mut Layers) {
    let mut grid = GridReplay::new(&[(SimConfig::cascade_lake(), PolicyKind::Lru)], 0);
    let (warm, steady) = bfs.records().split_at(bfs.len() / 2);
    grid.step_records(warm);
    let before = alloc::allocations();
    grid.step_records(steady);
    let allocs = alloc::allocations() - before;
    black_box(grid.finish(bfs.name(), bfs.trailing_nonmem()));
    layers.set("core.steady_allocs_per_record", allocs as f64 / steady.len().max(1) as f64);
}

/// `obs.overhead_pct`: the `gap_miss` LRU unit with telemetry off vs on,
/// interleaved, fastest of each.
fn obs_rung(bfs: &Trace, reps: u32, layers: &mut Layers) {
    let config = SimConfig::cascade_lake();
    let was_enabled = ccsim_obs::enabled();
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps.max(2) {
        for (enabled, best) in [(false, &mut off), (true, &mut on)] {
            ccsim_obs::set_enabled(enabled);
            let wall = time(|| black_box(simulate(bfs, &config, PolicyKind::Lru))).1;
            *best = best.min(wall.as_secs_f64());
        }
    }
    ccsim_obs::set_enabled(was_enabled);
    layers.set("obs.overhead_pct", 100.0 * (on / off - 1.0));
}

/// Runs every isolation rung and returns, per regime of
/// [`crate::metrics::REGIMES`], the [`nonmem_calls`] of its trace (the one
/// count the cost model needs that no `SimResult` carries). Call after the
/// traced workload runs: the derived `core.cpu.self_ns_per_record` needs
/// their in-situ numbers.
///
/// # Errors
///
/// Returns a message when an input or scratch file cannot be read or
/// written.
pub fn run(
    inputs: &Inputs,
    setup: &SetupTimes,
    scratch: &Path,
    tracer: &mut Tracer,
    layers: &mut Layers,
    checks: &mut Checks,
) -> Result<[u64; 2], String> {
    let reps = match inputs.scale {
        Scale::Full => 3,
        Scale::Smoke => 1,
    };
    tracer.workload = "ladder";
    tracer.rep = -1;
    layers.set("graph.generate_ns_per_edge", 1e9 * setup.generate_s / setup.edges as f64);
    layers.set(
        "graph.traced_kernel_ns_per_record",
        1e9 * setup.kernel_s / setup.kernel_records as f64,
    );

    let bfs = load_trace(&inputs.bfs)?;
    tracer.span("trace", "ladder", |_| trace_rungs(inputs, &bfs, scratch, reps, layers))?;
    tracer.span("ingest", "ladder", |_| acquisition_rungs(inputs, scratch, reps, layers))?;
    tracer.span("policies", "ladder", |_| policy_rungs(&bfs, reps.min(2), layers));
    tracer.span("core", "ladder", |_| {
        micro_rungs(inputs.scale, reps, layers);
        hierarchy_rung(&bfs, "gap", reps.min(2), layers);
        steady_allocs_rung(&bfs, layers);
    });
    tracer.span("obs", "ladder", |_| obs_rung(&bfs, reps, layers));
    let tc = load_trace(&inputs.tc)?;
    tracer.span("core", "ladder", |_| hierarchy_rung(&tc, "hit", reps.min(2), layers));

    for name in crate::metrics::INVARIANTS {
        // Allocation counts only exist under the counting allocator.
        if name == "core.steady_allocs_per_record" && alloc::allocations() == 0 {
            continue;
        }
        checks.check(layers.get(name) == Some(0.0), || {
            format!("invariant {name} = {:?}, expected 0", layers.get(name))
        });
    }
    Ok([nonmem_calls(&bfs), nonmem_calls(&tc)])
}

/// The "where one record's host time goes" table of `regime`: Σ(exact
/// per-level counts of its LRU `cell` × ladder ns per op) against the
/// measured `core.simulate_ns_per_record`, with the residual also set in
/// `layers`. `nonmem_calls` is the number of records preceded by non-memory
/// instructions (one `dispatch_nonmem` call each).
pub fn cost_model(cell: &SimResult, nonmem_calls: u64, regime: &str, layers: &mut Layers) -> Json {
    let records = cell.l1d.demand_accesses as f64;
    let levels = [&cell.l1d, &cell.l2, &cell.llc];
    let sum = |f: fn(&ccsim_core::CacheStats) -> u64| levels.iter().map(|l| f(l)).sum::<u64>();
    // (the ladder metric that prices the operation, what is counted, count)
    let rows = [
        ("core.cpu.dispatch_mem_ns", "memory instructions dispatched", cell.l1d.demand_accesses),
        ("core.cpu.dispatch_nonmem_ns", "non-memory batches dispatched", nonmem_calls),
        (
            "core.cache.lookup_hit_ns",
            "tag lookups, all levels",
            sum(|l| l.demand_accesses + l.writeback_accesses),
        ),
        ("core.mshr.pending_ns", "outstanding-miss probes on hits", sum(|l| l.demand_hits)),
        (
            "core.mshr.acquire_complete_ns",
            "MSHR acquire+complete on misses",
            sum(|l| l.demand_misses),
        ),
        ("core.cache.fill_evict_ns", "fills, all levels", sum(|l| l.fills)),
        ("core.dram.access_ns", "DRAM reads and writes", cell.dram.reads + cell.dram.writes),
    ];
    let mut model = 0.0;
    let rows = rows
        .into_iter()
        .map(|(rung, what, count)| {
            let per_record = count as f64 / records;
            let ns_per_op = layers.get(rung).unwrap_or(f64::NAN);
            model += per_record * ns_per_op;
            Json::obj(vec![
                ("rung", Json::str(rung)),
                ("what", Json::str(what)),
                ("per_record", Json::num(per_record)),
                ("ns_per_op", Json::num(ns_per_op)),
                ("ns_per_record", Json::num(per_record * ns_per_op)),
            ])
        })
        .collect();
    let measured = layers.get(&format!("core.simulate_ns_per_record.{regime}")).unwrap_or(f64::NAN);
    let residual = 100.0 * (model - measured) / measured;
    layers.set(format!("core.model_residual_pct.{regime}"), residual);
    Json::obj(vec![
        ("rows", Json::Arr(rows)),
        ("model_ns_per_record", Json::num(model)),
        ("measured_ns_per_record", Json::num(measured)),
        ("residual_pct", Json::num(residual)),
    ])
}

/// Records with at least one preceding non-memory instruction.
fn nonmem_calls(trace: &Trace) -> u64 {
    trace.iter().filter(|r| r.nonmem_before > 0).count() as u64
}
