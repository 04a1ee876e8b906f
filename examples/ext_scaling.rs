//! Extension F: substitution validation — as the synthetic graphs grow
//! toward the paper's input sizes, the MPKI profile converges to the
//! published regime (L1D ~ L2C ~ LLC, most L1D misses served by DRAM).
//!
//! Our default experiments run scaled-down graphs for simulation-time
//! reasons; this experiment demonstrates the scaling trend that justifies
//! the substitution: each doubling of the vertex count pushes the L2C and
//! LLC MPKI toward the L1D MPKI and raises the DRAM-reach fraction toward
//! the paper's 78.6 %.
//!
//! Run with `cargo run --release --example ext_scaling` (a few seconds).

use ccsim::graph::{generators, traced};
use ccsim::obs::Table;
use ccsim::prelude::*;

fn main() {
    let config = SimConfig::cascade_lake();
    let mut table = Table::new(
        ["scale", "vertices", "L1D", "L2C", "LLC", "dram_reach_%", "ipc"]
            .map(str::to_owned)
            .to_vec(),
    );
    for scale in (12..=20).step_by(2) {
        // Uniform random graph at degree 4: footprint doubles per step at
        // near-constant trace length per vertex.
        let g = generators::uniform(scale, 4, 7);
        let (trace, _) = traced::bfs(&g, 0);
        let r = simulate(&trace, &config, PolicyKind::Lru);
        table.row(vec![
            scale.to_string(),
            (1u64 << scale).to_string(),
            format!("{:.1}", r.mpki_l1d()),
            format!("{:.1}", r.mpki_l2()),
            format!("{:.1}", r.mpki_llc()),
            format!("{:.1}", 100.0 * r.dram_reach_fraction()),
            format!("{:.3}", r.ipc()),
        ]);
    }
    println!("Extension F: MPKI convergence with graph scale (bfs.urand, LRU)\n");
    println!("{}", table.render());
    println!(
        "Paper regime (full-size inputs): L1D 53.2 ~ L2C 44.2 ~ LLC 41.8, \
         reach 78.6%."
    );
    println!("\nCSV:\n{}", table.to_csv());
}
