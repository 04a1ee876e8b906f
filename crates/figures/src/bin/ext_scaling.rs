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
//! Run with `cargo run --release -p ccsim-figures --bin ext_scaling`
//! (`--quick` caps the sweep at scale 16).

use ccsim_core::experiment::{report::fmt_f, Table};
use ccsim_core::{simulate, SimConfig};
use ccsim_figures::Options;
use ccsim_graph::{generators, traced};
use ccsim_policies::PolicyKind;

fn main() {
    let opts = Options::from_args();
    let config = SimConfig::cascade_lake();
    let max_scale = if opts.quick { 16 } else { 20 };
    let mut table = Table::new(vec![
        "scale".into(),
        "vertices".into(),
        "L1D".into(),
        "L2C".into(),
        "LLC".into(),
        "dram_reach_%".into(),
        "ipc".into(),
    ]);
    for scale in (12..=max_scale).step_by(2) {
        // Uniform random graph at degree 4: footprint doubles per step at
        // near-constant trace length per vertex.
        let g = generators::uniform(scale, 4, 7);
        let (trace, _) = traced::bfs(&g, 0);
        let r = simulate(&trace, &config, PolicyKind::Lru);
        eprintln!(
            "scale {scale}: {} records, reach {:.1}%",
            trace.len(),
            100.0 * r.dram_reach_fraction()
        );
        table.row(vec![
            scale.to_string(),
            (1u64 << scale).to_string(),
            fmt_f(r.mpki_l1d(), 1),
            fmt_f(r.mpki_l2(), 1),
            fmt_f(r.mpki_llc(), 1),
            fmt_f(100.0 * r.dram_reach_fraction(), 1),
            fmt_f(r.ipc(), 3),
        ]);
    }
    println!("\nExtension F: MPKI convergence with graph scale (bfs.urand, LRU)\n");
    println!("{}", table.render());
    println!(
        "Paper regime (full-size inputs): L1D 53.2 ~ L2C 44.2 ~ LLC 41.8, \
         reach 78.6%."
    );
    println!("\nCSV:\n{}", table.to_csv());
}
