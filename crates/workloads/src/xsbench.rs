//! XSBench-like workload proxies.
//!
//! XSBench (the Monte Carlo neutron-transport mini-app) is dominated by a
//! single loop: sample a particle energy, binary-search the unionized
//! energy grid, then gather cross-section data for every nuclide at that
//! grid point. The result is a tiny PC set probing a multi-hundred-MB
//! table uniformly at random — no policy can do much, which is exactly the
//! paper's point for this suite.

use ccsim_trace::synth::{BinarySearchProbe, PatternGen};
use ccsim_trace::TraceBuffer;

use crate::SuiteScale;

/// Names of the XSBench-like proxy workloads, in suite order.
pub const XSBENCH_NAMES: [&str; 3] = ["xsbench.small", "xsbench.large", "xsbench.xl"];

/// Builds one member of the XSBench-like suite by name into `buf`, or
/// returns `false` if the name is not in [`XSBENCH_NAMES`]. `seed`
/// perturbs the lookup sequence (0 reproduces the paper's traces).
pub(crate) fn xsbench_workload(
    name: &str,
    scale: SuiteScale,
    seed: u64,
    buf: &mut TraceBuffer,
) -> bool {
    let probes = match scale {
        SuiteScale::Full => 60_000,
        SuiteScale::Quick => 3_000,
    };
    match name {
        "xsbench.small" => lookup_workload(buf, 1 << 17, probes, seed),
        "xsbench.large" => lookup_workload(buf, 1 << 20, probes, seed),
        "xsbench.xl" => lookup_workload(buf, 1 << 22, probes / 2, seed),
        _ => return false,
    }
    true
}

/// One XSBench configuration: `grid_points` grid entries (8 B keys) and a
/// nuclide payload region; each lookup binary-searches the grid then reads
/// a 128 B cross-section bundle.
fn lookup_workload(buf: &mut TraceBuffer, grid_points: u64, probes: u64, seed: u64) {
    let grid_base = 0x2000_0000;
    let payload_base = grid_base + grid_points * 8 + (1 << 20);
    BinarySearchProbe::new(grid_base, grid_points, 8, payload_base, 128)
        .probes(probes)
        .seed(grid_points ^ seed) // distinct but deterministic per size
        .emit(buf);
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
    fn suite_has_three_sizes() {
        assert_eq!(XSBENCH_NAMES.len(), 3);
        for name in XSBENCH_NAMES {
            assert!(name.starts_with("xsbench."));
            assert_eq!(quick(name).name(), name);
        }
    }

    #[test]
    fn tiny_pc_set_like_graph_workloads() {
        for name in XSBENCH_NAMES {
            let s = TraceStats::compute(&quick(name));
            assert!(s.distinct_pcs <= 3, "{name}: {}", s.distinct_pcs);
        }
    }

    #[test]
    fn footprint_grows_with_problem_size() {
        let f: Vec<u64> =
            XSBENCH_NAMES.iter().map(|n| TraceStats::compute(&quick(n)).footprint_bytes).collect();
        assert!(f[1] > f[0], "large > small");
    }
}
