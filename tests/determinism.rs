//! Determinism regression tests.
//!
//! Simulating the same seeded synthetic trace twice with the same
//! `PolicyKind` must yield *identical* `SimResult`s — every counter, cycle
//! count and diagnostic string. This guards every future performance
//! refactor (parallel sweeps, batching, policy rewrites) against silently
//! introducing nondeterminism, which would make the paper's figures
//! unreproducible.

use std::sync::Arc;

use ccsim::prelude::*;
use ccsim::trace::synth::{AccessDistribution, PatternGen, PointerChase, RandomAccess, Zipf};

fn seeded_trace(seed: u64) -> Trace {
    let mut buf = TraceBuffer::new("determinism");
    RandomAccess::new(0x1000_0000, 1 << 12, 64, 6_000)
        .distribution(AccessDistribution::Zipf(Arc::new(Zipf::new(1 << 12, 0.8))))
        .store_fraction(0.2)
        .seed(seed)
        .emit(&mut buf);
    PointerChase::new(0x4000_0000, 1 << 10, 64).seed(seed ^ 0xABCD).emit(&mut buf);
    buf.finish()
}

#[test]
fn trace_synthesis_is_deterministic() {
    let a = seeded_trace(42);
    let b = seeded_trace(42);
    assert_eq!(a, b, "same seed must synthesize the identical trace");
    let c = seeded_trace(43);
    assert_ne!(a, c, "different seeds should differ");
}

#[test]
fn simulation_is_deterministic_for_every_policy() {
    let trace = seeded_trace(7);
    let config = SimConfig::tiny();
    for kind in PolicyKind::ALL {
        let first = simulate(&trace, &config, kind);
        let second = simulate(&trace, &config, kind);
        assert_eq!(first, second, "{kind}: two runs of the same trace diverged");
        // Catch drift PartialEq could miss if fields are ever skipped:
        // the full Debug rendering (all counters + diagnostics) must match.
        assert_eq!(
            format!("{first:?}"),
            format!("{second:?}"),
            "{kind}: Debug renderings diverged"
        );
    }
}

#[test]
fn simulation_is_deterministic_across_configs() {
    let trace = seeded_trace(11);
    for config in [SimConfig::tiny(), SimConfig::cascade_lake()] {
        let a = simulate(&trace, &config, PolicyKind::Drrip);
        let b = simulate(&trace, &config, PolicyKind::Drrip);
        assert_eq!(a, b);
    }
}
