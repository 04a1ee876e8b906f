//! Figure 3: geometric-mean speed-up (%) over LRU of the six
//! state-of-the-art LLC replacement policies, per benchmark suite.
//!
//! A thin wrapper over the `fig3` campaign preset (`ccsim-campaign`);
//! the same grid is checked in as `campaigns/fig3_quick.json` for
//! `ccsim campaign`.
//!
//! Run with `cargo run --release -p ccsim-figures --bin fig3` (add `--quick`
//! for a fast smoke run).

use ccsim_campaign::{presets, Campaign};
use ccsim_figures::Options;

fn main() {
    let opts = Options::from_args();
    let spec = presets::fig3_spec(opts.suite_scale());
    let outcome = Campaign::new(spec)
        .threads(opts.threads)
        .verbose(true)
        .run()
        .unwrap_or_else(|e| panic!("fig3 campaign failed: {e}"));
    let table = outcome.report.speedup_by_suite_table("llc_x1");
    println!("\nFigure 3: geomean speed-up (%) over LRU per suite\n");
    println!("{}", table.render());
    println!(
        "Paper shape: all policies positive on SPEC; Hawkeye/Glider/MPPPB \
         fail to generalize to GAPBS (near-zero or negative) while \
         SRRIP/DRRIP/SHiP stay modestly positive."
    );
    println!("\nCSV:\n{}", table.to_csv());
}
