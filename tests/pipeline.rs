//! End-to-end integration: graph generation -> instrumented kernel ->
//! trace -> simulation -> statistics, checking cross-crate invariants.

use std::cell::RefCell;
use std::rc::Rc;

use ccsim::core::{llc_demand_stream, CacheStats, Hierarchy, Level};
use ccsim::policies::{AccessInfo, PolicyDispatch, Victim};
use ccsim::prelude::*;
use ccsim::trace::synth::{PatternGen, RandomAccess, SequentialStream};
use ccsim::workloads::build_workload_seeded;

fn quick_trace(name: &str) -> Trace {
    build_workload_seeded(name, SuiteScale::Quick, 0).unwrap()
}

/// Every L1D demand miss becomes exactly one L2 demand access, and every
/// L2 demand miss one LLC demand access (nothing merges at L1D or L2: a
/// miss there is always a fresh miss).
#[test]
fn miss_traffic_cascades_exactly() {
    let config = SimConfig::cascade_lake();
    for name in ["bfs.kron", "pr.urand", "cc.web"] {
        let trace = quick_trace(name);
        let r = simulate(&trace, &config, PolicyKind::Lru);
        assert_eq!(r.l2.demand_accesses, r.l1d.demand_misses, "{name}");
        assert_eq!(r.llc.demand_accesses, r.l2.demand_misses, "{name}");
        assert_eq!(r.dram.reads, r.llc.demand_misses, "{name}");
    }
}

#[test]
fn instruction_count_flows_from_trace_to_result() {
    let trace = quick_trace("bfs.road");
    let r = simulate(&trace, &SimConfig::cascade_lake(), PolicyKind::Srrip);
    assert_eq!(r.instructions, trace.instructions());
    assert_eq!(r.l1d.demand_accesses, trace.len() as u64, "every memory record is one L1D access");
}

#[test]
fn ipc_bounded_by_core_width() {
    let config = SimConfig::cascade_lake();
    let trace = quick_trace("cc.twitter");
    let r = simulate(&trace, &config, PolicyKind::Lru);
    assert!(r.ipc() > 0.0);
    assert!(r.ipc() <= config.core.width as f64 + 1e-9);
}

#[test]
fn simulation_is_deterministic() {
    let trace = quick_trace("sssp.urand");
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
    let trace = quick_trace("bc.kron");
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
    let trace = quick_trace("pr.friendster");
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
    let trace = quick_trace("bfs.urand");
    let small = simulate(&trace, &SimConfig::cascade_lake(), PolicyKind::Lru);
    let big = simulate(&trace, &SimConfig::cascade_lake().with_llc_scale(8), PolicyKind::Lru);
    // LRU set-associative caches with more sets are not strictly inclusive
    // of smaller ones, but an 8x LLC on the same trace should never lose.
    assert!(big.llc.demand_misses <= small.llc.demand_misses);
    assert!(big.ipc() >= small.ipc() * 0.99);
}

/// An LLC policy that never bypasses and records every demand access it
/// is told about: a hit (`on_hit`) or a fill (`on_fill`).
#[derive(Debug)]
struct DemandRecorder {
    seen: Rc<RefCell<Vec<(u32, u64)>>>,
    ways: u32,
    next: u32,
}

impl DemandRecorder {
    fn record(&self, set: u32, info: &AccessInfo) {
        if info.kind.is_demand() {
            self.seen.borrow_mut().push((set, info.block));
        }
    }
}

impl ReplacementPolicy for DemandRecorder {
    fn name(&self) -> &'static str {
        "demand-recorder"
    }

    fn victim(&mut self, _set: u32, _info: &AccessInfo) -> Victim {
        self.next = (self.next + 1) % self.ways;
        Victim::Way(self.next)
    }

    fn on_hit(&mut self, set: u32, _way: u32, info: &AccessInfo) {
        self.record(set, info);
    }

    fn on_fill(&mut self, set: u32, _way: u32, info: &AccessInfo, _evicted: Option<u64>) {
        self.record(set, info);
    }
}

/// `llc_demand_stream` walks only L1D and L2, yet it is exactly the
/// sequence of demand accesses a real LLC's policy sees, and exactly as
/// long as every policy's `llc.demand_accesses`.
#[test]
fn llc_demand_stream_is_what_a_real_llc_sees() {
    let mut traces = Vec::new();
    for stores in [0.1, 0.5, 0.9] {
        let mut buf = TraceBuffer::new("random");
        RandomAccess::new(0x1000_0000, 1 << 15, 64, 30_000)
            .store_fraction(stores)
            .seed(3)
            .emit(&mut buf);
        traces.push(buf.finish());
    }
    // 48 blocks 4096 blocks apart: one set at every level of every
    // config below, so each lap conflicts all the way down.
    let mut buf = TraceBuffer::new("conflict");
    SequentialStream::new(0, 48 << 18).stride(1 << 18).laps(6).store_every(3).emit(&mut buf);
    traces.push(buf.finish());

    for config in
        [SimConfig::tiny(), SimConfig::cascade_lake(), SimConfig::tiny().with_llc_scale(2)]
    {
        let mut covered = CacheStats::default();
        for trace in &traces {
            let stream = llc_demand_stream(trace, &config);
            let seen = Rc::new(RefCell::new(Vec::new()));
            let recorder =
                DemandRecorder { seen: Rc::clone(&seen), ways: config.llc.ways, next: 0 };
            let mut hierarchy = Hierarchy::new(&config, PolicyDispatch::Custom(Box::new(recorder)));
            // Each access issues when the previous one's data arrives, so
            // no fill is ever in flight and no LLC miss merges: every LLC
            // demand access reaches the policy as a hit or a fill.
            let mut at = 0;
            for rec in trace {
                at = hierarchy.demand_access(rec.pc, rec.vaddr, rec.kind.is_store(), at);
            }
            let llc = hierarchy.cache_stats(Level::Llc);
            assert_eq!((llc.mshr_merges, llc.bypasses), (0, 0), "{}", trace.name());
            covered.demand_hits += llc.demand_hits;
            covered.demand_misses += llc.demand_misses;
            covered.writeback_accesses += llc.writeback_accesses;
            assert_eq!(*seen.borrow(), stream, "{} on {config:?}", trace.name());
            for kind in PolicyKind::ALL {
                let r = simulate(trace, &config, kind);
                assert_eq!(r.llc.demand_accesses, stream.len() as u64, "{kind} {}", trace.name());
            }
        }
        // The recorder saw hits, fills and writeback traffic on each config.
        assert!(covered.demand_hits > 0 && covered.demand_misses > 0, "{config:?}: {covered:?}");
        assert!(covered.writeback_accesses > 0, "{config:?}: {covered:?}");
    }
}
