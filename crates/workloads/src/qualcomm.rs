//! Qualcomm-server-like workload proxies.
//!
//! The paper's fourth suite comes from the Qualcomm Server traces
//! (CVP-1-style datacenter binaries): very large code footprints, hundreds
//! of active PCs, and a mixture of regular and irregular data accesses with
//! modest per-PC footprints — learnable, but noisier than SPEC. We model
//! that middle ground: many phases, each with its own PC set, alternating
//! hot structures, streams, chases and stack traffic.

use std::sync::Arc;

use ccsim_trace::synth::{
    AccessDistribution, PatternGen, PointerChase, RandomAccess, SequentialStream, StackWalk, Zipf,
};
use ccsim_trace::TraceBuffer;

use crate::SuiteScale;

/// Names of the Qualcomm-server-like proxy workloads, in suite order.
pub const QUALCOMM_NAMES: [&str; 5] =
    ["qcom.srv0", "qcom.srv1", "qcom.srv2", "qcom.srv3", "qcom.srv4"];

/// Builds one member of the Qualcomm-like suite by name into `buf`, or
/// returns `false` if the name is not in [`QUALCOMM_NAMES`]. `seed`
/// perturbs the stochastic request mix (0 reproduces the paper's traces).
pub(crate) fn qualcomm_workload(
    name: &str,
    scale: SuiteScale,
    seed: u64,
    buf: &mut TraceBuffer,
) -> bool {
    let reps = match scale {
        SuiteScale::Full => 6,
        SuiteScale::Quick => 1,
    };
    let Some(variant) = QUALCOMM_NAMES.iter().position(|n| *n == name) else {
        return false;
    };
    server_workload(buf, variant as u64, reps, seed);
    true
}

/// One server workload: interleaved request-processing phases. Each phase
/// uses its own code region (distinct PCs), touches a per-request buffer,
/// consults shared hot tables (Zipf), and walks session objects.
fn server_workload(buf: &mut TraceBuffer, variant: u64, reps: u64, seed: u64) {
    let data = 0x4000_0000 + variant * (1 << 30);
    // Per-variant service characteristics: table skew and sizes differ so
    // the five servers stress the hierarchy differently.
    let theta = 0.75 + 0.1 * variant as f64;
    let table_entries = 1u64 << (15 + variant % 3);
    let session_nodes = 1u64 << (12 + variant % 3);
    let req_buffer = (16 << 10) << (variant % 2);
    // Every request phase samples the same tables: one CDF per trace.
    let hot = Arc::new(Zipf::new(table_entries as usize, theta));
    for r in 0..reps {
        for req in 0..12u64 {
            let code = 0x50_0000 + (variant * 101 + req * 13) % 97 * 0x200;
            // Request buffer: small stream, new address each request.
            SequentialStream::new(data + (r * 12 + req) % 64 * (256 << 10), req_buffer)
                .store_every(3)
                .work(3)
                .sites(code, code + 4)
                .emit(buf);
            // Shared lookup tables: Zipf-hot.
            RandomAccess::new(data + (1 << 28), table_entries, 64, 2_000)
                .distribution(AccessDistribution::Zipf(Arc::clone(&hot)))
                .work(6)
                .seed((variant * 1000 + r * 12 + req) ^ seed)
                .sites(code + 8, code + 12)
                .emit(buf);
            // Session-object walk.
            PointerChase::new(data + (1 << 29), session_nodes, 128)
                .steps(1_500)
                .seed(req ^ seed)
                .work(4)
                .site(code + 16)
                .emit(buf);
        }
        StackWalk::new(0x7FFF_4000_0000 + (variant << 20), 12)
            .calls(5_000)
            .seed(r ^ seed)
            .emit(buf);
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
    fn suite_has_five_servers() {
        assert_eq!(QUALCOMM_NAMES.len(), 5);
        for name in QUALCOMM_NAMES {
            assert_eq!(quick(name).name(), name);
        }
    }

    #[test]
    fn many_pcs_distinguish_from_gap_and_xsbench() {
        for name in QUALCOMM_NAMES {
            let s = TraceStats::compute(&quick(name));
            assert!(s.distinct_pcs > 30, "{name}: pcs {}", s.distinct_pcs);
        }
    }

    #[test]
    fn variants_differ() {
        let (a, b) = (quick(QUALCOMM_NAMES[0]), quick(QUALCOMM_NAMES[1]));
        assert_ne!(a.records()[..100], b.records()[..100]);
    }
}
