//! GAP benchmark suite workload assembly: kernel x input-graph
//! combinations matching the paper's Figure 2 x-axis.

use std::fmt;
use std::str::FromStr;

use ccsim_graph::{generators, traced, Graph};
use ccsim_trace::TraceBuffer;

use crate::SuiteScale;

/// The six GAP kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GapKernel {
    /// Betweenness centrality (Brandes).
    Bc,
    /// Breadth-first search (direction-optimizing).
    Bfs,
    /// Connected components (Shiloach–Vishkin).
    Cc,
    /// PageRank (pull).
    Pr,
    /// Single-source shortest paths (delta-stepping).
    Sssp,
    /// Triangle counting (ordered merge).
    Tc,
}

impl GapKernel {
    /// All kernels in the paper's figure order.
    pub const ALL: [GapKernel; 6] = [
        GapKernel::Bc,
        GapKernel::Bfs,
        GapKernel::Cc,
        GapKernel::Pr,
        GapKernel::Sssp,
        GapKernel::Tc,
    ];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            GapKernel::Bc => "bc",
            GapKernel::Bfs => "bfs",
            GapKernel::Cc => "cc",
            GapKernel::Pr => "pr",
            GapKernel::Sssp => "sssp",
            GapKernel::Tc => "tc",
        }
    }
}

/// The six GAP input graphs, reproduced as scaled synthetic classes (see
/// `ccsim_graph::generators` for the class mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GapGraph {
    /// Friendster social network: power law, highest degree.
    Friendster,
    /// Graph500 Kronecker.
    Kron,
    /// USA road network: constant degree 4, huge diameter.
    Road,
    /// Twitter follower graph: heavy power law.
    Twitter,
    /// Uniform random.
    Urand,
    /// Web crawl (sk-2005): power law with host locality.
    Web,
}

impl GapGraph {
    /// All graphs in the paper's figure order.
    pub const ALL: [GapGraph; 6] = [
        GapGraph::Friendster,
        GapGraph::Kron,
        GapGraph::Road,
        GapGraph::Twitter,
        GapGraph::Urand,
        GapGraph::Web,
    ];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            GapGraph::Friendster => "friendster",
            GapGraph::Kron => "kron",
            GapGraph::Road => "road",
            GapGraph::Twitter => "twitter",
            GapGraph::Urand => "urand",
            GapGraph::Web => "web",
        }
    }

    /// Builds the synthetic stand-in at `2^scale` vertices. Degrees are
    /// kept moderate (5-6) so that, at fixed trace length, vertex counts —
    /// and with them the randomly-accessed property-array footprints — are
    /// as large as the simulation budget allows.
    pub fn build(self, scale: u32, seed: u64) -> Graph {
        match self {
            GapGraph::Friendster => generators::power_law(scale, 6, 1.85, seed),
            GapGraph::Kron => generators::kronecker(scale, 6, seed),
            GapGraph::Road => generators::road(scale, seed),
            GapGraph::Twitter => generators::power_law(scale, 5, 1.8, seed),
            GapGraph::Urand => generators::uniform(scale, 6, seed),
            GapGraph::Web => generators::web(scale, 6, seed),
        }
    }
}

/// One GAP workload: a kernel applied to an input graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GapWorkload {
    /// The kernel.
    pub kernel: GapKernel,
    /// The input graph.
    pub graph: GapGraph,
}

impl fmt::Display for GapWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.kernel.name(), self.graph.name())
    }
}

impl FromStr for GapWorkload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (k, g) = s.split_once('.').ok_or_else(|| format!("expected kernel.graph: {s}"))?;
        let kernel = GapKernel::ALL
            .into_iter()
            .find(|x| x.name() == k)
            .ok_or_else(|| format!("unknown kernel {k}"))?;
        let graph = GapGraph::ALL
            .into_iter()
            .find(|x| x.name() == g)
            .ok_or_else(|| format!("unknown graph {g}"))?;
        Ok(GapWorkload { kernel, graph })
    }
}

impl GapWorkload {
    /// Graph scale (log2 vertices) for this kernel at the given preset.
    /// Heavier kernels get smaller graphs so trace lengths stay comparable.
    pub fn scale(&self, preset: SuiteScale) -> u32 {
        let full = match self.kernel {
            GapKernel::Bfs => 20,
            GapKernel::Cc => 18,
            GapKernel::Pr => 19,
            GapKernel::Sssp => 17,
            GapKernel::Bc => 17,
            GapKernel::Tc => 13,
        };
        match preset {
            SuiteScale::Full => full,
            SuiteScale::Quick => full.saturating_sub(6).max(8),
        }
    }

    /// Runs the instrumented kernel, recording into `buf` (which names
    /// the trace: `kernel.graph` by convention); `extra_seed` perturbs
    /// graph synthesis (0 reproduces the paper's graphs exactly).
    pub(crate) fn trace_into(&self, preset: SuiteScale, extra_seed: u64, buf: &mut TraceBuffer) {
        const GAP_SEED: u64 = 0x6A50_5EED;
        let seed = GAP_SEED
            ^ ((self.kernel as u64) << 8)
            ^ self.graph as u64
            ^ extra_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let scale = self.scale(preset);
        let g = self.graph.build(scale, seed);
        let source = hub_vertex(&g);
        match self.kernel {
            GapKernel::Bfs => {
                traced::bfs_into(&g, source, buf);
            }
            GapKernel::Cc => {
                traced::connected_components_into(&g, buf);
            }
            GapKernel::Pr => {
                let t = g.transpose();
                traced::pagerank_into(&g, &t, 2, 0.85, buf);
            }
            GapKernel::Sssp => {
                let gw = g.with_random_weights(64, seed);
                traced::sssp_into(&gw, source, 16, buf);
            }
            GapKernel::Bc => {
                traced::betweenness_into(&g, &[source], buf);
            }
            GapKernel::Tc => {
                traced::triangle_count_into(&g, buf);
            }
        }
    }
}

/// The 35 kernel/graph combinations of the paper's Figure 2 (every pair
/// except `sssp.friendster`, absent from the figure).
pub(crate) fn paper_workloads() -> Vec<GapWorkload> {
    let mut v = Vec::new();
    for kernel in GapKernel::ALL {
        for graph in GapGraph::ALL {
            if kernel == GapKernel::Sssp && graph == GapGraph::Friendster {
                continue;
            }
            v.push(GapWorkload { kernel, graph });
        }
    }
    v
}

/// Highest-degree vertex: a deterministic "interesting" traversal source
/// (GAP samples random non-isolated sources; hubs maximize coverage).
fn hub_vertex(g: &Graph) -> u32 {
    (0..g.num_vertices()).max_by_key(|&v| g.degree(v)).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_trace::stats::TraceStats;
    use ccsim_trace::Trace;

    fn quick(w: GapWorkload) -> Trace {
        crate::build_workload_seeded(&w.to_string(), SuiteScale::Quick, 0).unwrap()
    }

    #[test]
    fn paper_workload_list_matches_figure() {
        let w = paper_workloads();
        assert_eq!(w.len(), 35);
        assert!(!w.iter().any(|x| x.to_string() == "sssp.friendster"));
        assert!(w.iter().any(|x| x.to_string() == "bc.friendster"));
        assert!(w.iter().any(|x| x.to_string() == "tc.web"));
    }

    #[test]
    fn workload_names_parse_roundtrip() {
        for w in paper_workloads() {
            let parsed: GapWorkload = w.to_string().parse().unwrap();
            assert_eq!(parsed, w);
        }
        assert!("bogus".parse::<GapWorkload>().is_err());
        assert!("bfs.mars".parse::<GapWorkload>().is_err());
    }

    #[test]
    fn quick_traces_have_graph_signature() {
        let w = GapWorkload { kernel: GapKernel::Bfs, graph: GapGraph::Kron };
        let t = quick(w);
        assert_eq!(t.name(), "bfs.kron");
        let stats = TraceStats::compute(&t);
        assert!(stats.distinct_pcs <= 12, "pcs {}", stats.distinct_pcs);
        assert!(t.len() > 1000);
    }

    #[test]
    fn every_kernel_produces_a_quick_trace() {
        for kernel in GapKernel::ALL {
            let w = GapWorkload { kernel, graph: GapGraph::Urand };
            let t = quick(w);
            assert!(!t.is_empty(), "{w} produced an empty trace");
        }
    }

    #[test]
    fn graph_builders_honor_scale() {
        for graph in GapGraph::ALL {
            let g = graph.build(10, 1);
            assert_eq!(g.num_vertices(), 1024, "{}", graph.name());
        }
    }
}
