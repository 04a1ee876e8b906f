//! Figure 2: MPKI at L1D / L2C / LLC for every GAP workload under the
//! baseline LRU policy, plus the paper's in-text headline numbers
//! (mean MPKI per level; fraction of L1D misses served by DRAM).
//!
//! A thin wrapper over the `fig2` campaign preset (`ccsim-campaign`).
//!
//! Run with `cargo run --release -p ccsim-figures --bin fig2` (add `--quick`
//! for a fast smoke run).

use ccsim_campaign::{presets, Campaign};
use ccsim_figures::Options;

fn main() {
    let opts = Options::from_args();
    let spec = presets::fig2_spec(opts.suite_scale());
    let outcome = Campaign::new(spec)
        .threads(opts.threads)
        .verbose(true)
        .run()
        .unwrap_or_else(|e| panic!("fig2 campaign failed: {e}"));
    let table = outcome.report.mpki_table("llc_x1");
    println!("\nFigure 2: GAP MPKI by cache level (LRU baseline)\n");
    println!("{}", table.render());
    println!(
        "Paper reference: mean MPKI L1D 53.2 / L2C 44.2 / LLC 41.8; \
         78.6% of L1D misses reach DRAM."
    );
    println!("\nCSV:\n{}", table.to_csv());
}
