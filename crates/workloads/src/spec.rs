//! SPEC CPU 2006/2017-like workload proxies.
//!
//! We cannot redistribute SPEC traces; these proxies reproduce the property
//! the paper's argument rests on: *many distinct PCs, each with a stable,
//! learnable reuse behaviour*. Streaming PCs produce dead-on-arrival
//! blocks, loop-blocked PCs produce near reuse, pointer-chasing PCs produce
//! far reuse — exactly the signal SHiP/Hawkeye/Glider/MPPPB were designed
//! to exploit (and which graph kernels lack).
//!
//! Each proxy models the dominant behaviours reported for a real SPEC
//! benchmark (named in its constructor) rather than claiming instruction-
//! level fidelity.

use std::sync::Arc;

use ccsim_trace::synth::{
    AccessDistribution, PatternGen, PointerChase, RandomAccess, SequentialStream, StackWalk, Zipf,
};
use ccsim_trace::TraceBuffer;

use crate::SuiteScale;

/// Names of the SPEC-like proxy workloads, in suite order.
pub const SPEC_NAMES: [&str; 8] = [
    "spec.stream",
    "spec.blocked",
    "spec.chase",
    "spec.hotcold",
    "spec.stack",
    "spec.scanreuse",
    "spec.blocked2",
    "spec.phased",
];

/// Builds one member of the SPEC-like suite by name into `buf`, or
/// returns `false` if the name is not in [`SPEC_NAMES`]. `seed` perturbs
/// the stochastic phases of the proxy (0 reproduces the paper's traces);
/// purely streaming members are seed-insensitive by construction.
pub(crate) fn spec_workload(
    name: &str,
    scale: SuiteScale,
    seed: u64,
    buf: &mut TraceBuffer,
) -> bool {
    let r = match scale {
        SuiteScale::Full => 8,
        SuiteScale::Quick => 1,
    };
    match name {
        "spec.stream" => stream_heavy(buf, r),
        "spec.blocked" => blocked_loops(buf, r),
        "spec.chase" => pointer_chaser(buf, r, seed),
        "spec.hotcold" => hot_cold(buf, r, seed),
        "spec.stack" => stack_and_scan(buf, r, seed),
        "spec.scanreuse" => scan_with_reuse(buf, r),
        "spec.blocked2" => blocked_loops_large(buf, r),
        "spec.phased" => mixed_phases(buf, r, seed),
        _ => return false,
    }
    true
}

/// Base of the synthetic data segment for proxy workloads.
const DATA: u64 = 0x1000_0000;
/// Code-region stride separating each phase's PC sites.
const CODE_STRIDE: u64 = 0x1000;

fn pcs(phase: u64) -> (u64, u64) {
    let base = 0x40_0000 + phase * CODE_STRIDE;
    (base, base + 4)
}

/// `libquantum`/`lbm`-like: several long unit-stride streams, each from its
/// own PC, with a store stream. Dead-on-arrival at the LLC.
fn stream_heavy(buf: &mut TraceBuffer, reps: u64) {
    for _ in 0..reps {
        for arr in 0..4u64 {
            let (pl, ps) = pcs(arr);
            SequentialStream::new(DATA + arr * (8 << 20), 4 << 20)
                .stride(8)
                .store_every(if arr % 2 == 1 { 4 } else { 0 })
                .work(3)
                .sites(pl, ps)
                .emit(buf);
        }
    }
}

/// `gcc`/`gems`-like: a working set slightly larger than the LLC swept
/// repeatedly — the cyclic-thrash pattern where LRU gets zero hits but
/// scan-resistant policies retain a useful fraction.
fn blocked_loops(buf: &mut TraceBuffer, reps: u64) {
    // 2 MB working set vs 1.375 MB LLC, swept one access per block, split
    // across four arrays each owned by its own loop (distinct PCs).
    for _ in 0..12 * reps {
        for arr in 0..4u64 {
            let (pl, ps) = pcs(10 + arr);
            SequentialStream::new(DATA + arr * (512 << 10), 512 << 10)
                .stride(64)
                .store_every(if arr == 2 { 8 } else { 0 })
                .work(6)
                .sites(pl, ps)
                .emit(buf);
        }
    }
}

/// Larger blocked variant (4 MB): deeper into the thrash regime.
fn blocked_loops_large(buf: &mut TraceBuffer, reps: u64) {
    for _ in 0..6 * reps {
        for arr in 0..4u64 {
            let (pl, ps) = pcs(15 + arr);
            SequentialStream::new(DATA + arr * (1 << 20), 1 << 20)
                .stride(64)
                .store_every(if arr == 1 { 6 } else { 0 })
                .work(6)
                .sites(pl, ps)
                .emit(buf);
        }
    }
}

/// `mcf`/`xalancbmk`-like: dominant pointer chase over an 8 MB pool with a
/// hot stack and a small streaming side-channel.
fn pointer_chaser(buf: &mut TraceBuffer, reps: u64, seed: u64) {
    let (pc_chase, _) = pcs(20);
    for phase in 0..reps {
        PointerChase::new(DATA, 1 << 17, 64)
            .steps(120_000)
            .seed(phase ^ seed)
            .work(5)
            .site(pc_chase)
            .emit(buf);
        StackWalk::new(0x7FFF_0000_0000, 8)
            .calls(4_000)
            .seed(phase ^ seed)
            .sites(0x40_2000, 0x40_2004)
            .emit(buf);
        let (pl, ps) = pcs(21 + phase);
        SequentialStream::new(DATA + (64 << 20), 256 << 10).work(2).sites(pl, ps).emit(buf);
    }
}

/// `omnetpp`-like: Zipf-skewed random access over 16 MB — the hot head fits
/// in the LLC if the policy can keep it there against the cold tail.
fn hot_cold(buf: &mut TraceBuffer, reps: u64, seed: u64) {
    let (pl, ps) = pcs(30);
    RandomAccess::new(DATA, 1 << 18, 64, 250_000 * reps)
        .distribution(AccessDistribution::Zipf(Arc::new(Zipf::new(1 << 18, 0.9))))
        .store_fraction(0.2)
        .work(5)
        .seed(7 ^ seed)
        .sites(pl, ps)
        .emit(buf);
}

/// `perlbench`-like: deep call stacks and small-footprint scans — high
/// baseline hit rate, little for any policy to improve.
fn stack_and_scan(buf: &mut TraceBuffer, reps: u64, seed: u64) {
    for phase in 0..reps {
        StackWalk::new(0x7FFF_0000_0000, 16)
            .calls(30_000)
            .max_depth(24)
            .seed(phase ^ seed)
            .sites(0x40_4000, 0x40_4004)
            .emit(buf);
        let (pl, ps) = pcs(40 + phase % 4);
        SequentialStream::new(DATA + phase % 4 * (1 << 20), 128 << 10)
            .laps(4)
            .work(4)
            .sites(pl, ps)
            .emit(buf);
    }
}

/// `lbm`-like with re-reference: one big stream plus a second PC that
/// re-reads a fixed 512 KB subset every lap (learnable near reuse).
fn scan_with_reuse(buf: &mut TraceBuffer, reps: u64) {
    for _ in 0..reps {
        let (pl, ps) = pcs(50);
        SequentialStream::new(DATA, 8 << 20).stride(64).work(3).sites(pl, ps).emit(buf);
        let (pl2, ps2) = pcs(51);
        SequentialStream::new(DATA + (32 << 20), 512 << 10)
            .stride(64)
            .laps(4)
            .store_every(8)
            .work(3)
            .sites(pl2, ps2)
            .emit(buf);
    }
}

/// Multi-phase composite alternating all behaviours (phase-change stress
/// for adaptive policies like DRRIP's dueling).
fn mixed_phases(buf: &mut TraceBuffer, reps: u64, seed: u64) {
    for phase in 0..3 * reps {
        let (pl, ps) = pcs(60 + phase % 8);
        match phase % 3 {
            0 => SequentialStream::new(DATA, 2 << 20)
                .stride(64)
                .laps(4)
                .work(4)
                .sites(pl, ps)
                .emit(buf),
            1 => RandomAccess::new(DATA + (16 << 20), 1 << 15, 64, 80_000)
                .work(4)
                .seed(phase ^ seed)
                .sites(pl, ps)
                .emit(buf),
            _ => PointerChase::new(DATA + (32 << 20), 1 << 14, 64)
                .steps(60_000)
                .seed(phase ^ seed)
                .work(4)
                .site(pl)
                .emit(buf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_trace::stats::TraceStats;
    use ccsim_trace::Trace;

    fn quick(name: &str) -> Trace {
        crate::build_workload_seeded(name, SuiteScale::Quick, 0).unwrap()
    }

    #[test]
    fn suite_has_eight_named_workloads() {
        assert_eq!(SPEC_NAMES.len(), 8);
        for name in SPEC_NAMES {
            assert!(name.starts_with("spec."));
            assert_eq!(quick(name).name(), name);
        }
        let mut dedup = SPEC_NAMES.to_vec();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), SPEC_NAMES.len(), "names must be unique");
    }

    #[test]
    fn spec_proxies_have_pc_diversity() {
        // The decisive contrast with GAP: an order of magnitude more PCs.
        let total_pcs: u64 =
            SPEC_NAMES.iter().map(|n| TraceStats::compute(&quick(n)).distinct_pcs).sum();
        assert!(total_pcs >= 20, "suite pcs {total_pcs}");
    }

    #[test]
    fn blocked_working_set_exceeds_llc() {
        let mut buf = TraceBuffer::new("x");
        blocked_loops(&mut buf, 1);
        let t = buf.finish();
        let stats = TraceStats::compute(&t);
        assert!(stats.footprint_bytes > 1_375_000 && stats.footprint_bytes < (4 << 20));
    }

    #[test]
    fn full_scale_is_larger() {
        for name in SPEC_NAMES {
            let full = crate::build_workload_seeded(name, SuiteScale::Full, 0).unwrap();
            assert!(full.len() > quick(name).len(), "{name}");
        }
    }
}
