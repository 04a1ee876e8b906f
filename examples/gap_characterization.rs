//! GAP characterization walkthrough: reproduce a slice of the paper's
//! Figure 2 — per-level MPKI for one kernel across all six input-graph
//! classes — at a reduced scale that runs in seconds.
//!
//! Run with `cargo run --release --example gap_characterization`.

use ccsim::prelude::*;
use ccsim::workloads::{GapGraph, GapKernel};

fn main() {
    let config = SimConfig::cascade_lake();
    println!("BFS across the six GAP input-graph classes (quick scale)\n");
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>9} {:>7}",
        "graph", "L1D", "L2C", "LLC", "reach_%", "ipc"
    );
    for graph in GapGraph::ALL {
        let workload = GapWorkload { kernel: GapKernel::Bfs, graph };
        let trace = workload.trace(GapScale::Quick);
        let r = simulate(&trace, &config, PolicyKind::Lru);
        println!(
            "{:<12} {:>8.1} {:>8.1} {:>8.1} {:>9.1} {:>7.3}",
            graph.name(),
            r.mpki_l1d(),
            r.mpki_l2(),
            r.mpki_llc(),
            100.0 * r.dram_reach_fraction(),
            r.ipc()
        );
    }
    println!(
        "\nThe paper's observation: graph inputs with power-law structure \
         (kron, twitter, friendster, urand) miss at every level, while the \
         high-diameter road network retains locality. Run \
         `cargo run --release -p ccsim-figures --bin fig2` for the full grid."
    );
}
