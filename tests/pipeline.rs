//! End-to-end integration: graph generation -> instrumented kernel ->
//! trace -> simulation -> statistics, checking cross-crate invariants.

use ccsim::prelude::*;
use ccsim::workloads::{GapGraph, GapKernel};

fn quick_trace(kernel: GapKernel, graph: GapGraph) -> Trace {
    GapWorkload { kernel, graph }.trace(GapScale::Quick)
}

/// Every L1D demand miss becomes exactly one L2 demand access, and every
/// L2 demand miss one LLC demand access (nothing merges at L1D or L2: a
/// miss there is always a fresh miss).
#[test]
fn miss_traffic_cascades_exactly() {
    let config = SimConfig::cascade_lake();
    for (kernel, graph) in [
        (GapKernel::Bfs, GapGraph::Kron),
        (GapKernel::Pr, GapGraph::Urand),
        (GapKernel::Cc, GapGraph::Web),
    ] {
        let trace = quick_trace(kernel, graph);
        let r = simulate(&trace, &config, PolicyKind::Lru);
        assert_eq!(r.l2.demand_accesses, r.l1d.demand_misses, "{kernel:?}.{graph:?}");
        assert_eq!(r.llc.demand_accesses, r.l2.demand_misses, "{kernel:?}.{graph:?}");
        assert_eq!(r.dram.reads, r.llc.demand_misses, "{kernel:?}.{graph:?}");
    }
}

#[test]
fn instruction_count_flows_from_trace_to_result() {
    let trace = quick_trace(GapKernel::Bfs, GapGraph::Road);
    let r = simulate(&trace, &SimConfig::cascade_lake(), PolicyKind::Srrip);
    assert_eq!(r.instructions, trace.instructions());
    assert_eq!(r.l1d.demand_accesses, trace.len() as u64, "every memory record is one L1D access");
}

#[test]
fn ipc_bounded_by_core_width() {
    let config = SimConfig::cascade_lake();
    let trace = quick_trace(GapKernel::Cc, GapGraph::Twitter);
    let r = simulate(&trace, &config, PolicyKind::Lru);
    assert!(r.ipc() > 0.0);
    assert!(r.ipc() <= config.core.width as f64 + 1e-9);
}

#[test]
fn simulation_is_deterministic() {
    let trace = quick_trace(GapKernel::Sssp, GapGraph::Urand);
    let config = SimConfig::cascade_lake();
    for kind in [PolicyKind::Lru, PolicyKind::Drrip, PolicyKind::Hawkeye, PolicyKind::Mpppb] {
        let a = simulate(&trace, &config, kind);
        let b = simulate(&trace, &config, kind);
        assert_eq!(a, b, "{kind}");
    }
}

/// L1D and L2 state is a pure function of the trace, so every counter of
/// both levels is identical under every LLC policy — however differently
/// the policies time their LLC misses.
#[test]
fn llc_policies_do_not_perturb_upper_levels() {
    let trace = quick_trace(GapKernel::Bc, GapGraph::Kron);
    let config = SimConfig::cascade_lake();
    let base = simulate(&trace, &config, PolicyKind::Lru);
    for kind in PolicyKind::PAPER_POLICIES {
        let r = simulate(&trace, &config, kind);
        assert_eq!(r.l1d, base.l1d, "{kind}");
        assert_eq!(r.l2, base.l2, "{kind}");
    }
}

#[test]
fn fill_accounting_balances() {
    let trace = quick_trace(GapKernel::Pr, GapGraph::Friendster);
    let config = SimConfig::cascade_lake();
    for kind in [PolicyKind::Lru, PolicyKind::Mpppb] {
        let r = simulate(&trace, &config, kind);
        let writeback_fills = r.llc.writeback_accesses - r.llc.writeback_hits;
        assert_eq!(
            r.llc.fills + r.llc.bypasses + r.llc.mshr_merges,
            r.llc.demand_misses + writeback_fills,
            "{kind}: every miss fills, bypasses or merges"
        );
    }
}

#[test]
fn larger_llc_never_increases_misses() {
    let trace = quick_trace(GapKernel::Bfs, GapGraph::Urand);
    let small = simulate(&trace, &SimConfig::cascade_lake(), PolicyKind::Lru);
    let big = simulate(&trace, &SimConfig::cascade_lake().with_llc_scale(8), PolicyKind::Lru);
    // LRU set-associative caches with more sets are not strictly inclusive
    // of smaller ones, but an 8x LLC on the same trace should never lose.
    assert!(big.llc.demand_misses <= small.llc.demand_misses);
    assert!(big.ipc() >= small.ipc() * 0.99);
}
