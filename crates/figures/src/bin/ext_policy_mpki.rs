//! Extension A: LLC MPKI per policy on the GAP suite — shows how little
//! any policy dents graph-workload miss rates (the quantitative core of
//! the paper's conclusion).
//!
//! Run with `cargo run --release -p ccsim-figures --bin ext_policy_mpki`.

use ccsim_core::experiment::{report::fmt_f, Table};
use ccsim_core::SimConfig;
use ccsim_figures::{lru_plus_paper_policies, Options};
use ccsim_workloads::paper_workloads;

fn main() {
    let opts = Options::from_args();
    let config = SimConfig::cascade_lake();
    let policies = lru_plus_paper_policies();
    let mut table = Table::new(
        std::iter::once("workload".to_owned())
            .chain(policies.iter().map(|p| p.name().to_owned()))
            .collect(),
    );
    let mut sums = vec![0.0f64; policies.len()];
    let workloads = paper_workloads();
    let n = workloads.len();
    for (i, w) in workloads.into_iter().enumerate() {
        let trace = w.trace(opts.gap_scale());
        let results = ccsim_figures::run_policies(&trace, &policies, &config, opts.threads);
        eprintln!("[{}/{}] {}", i + 1, n, w);
        let mut row = vec![w.to_string()];
        for (k, r) in results.iter().enumerate() {
            sums[k] += r.mpki_llc();
            row.push(fmt_f(r.mpki_llc(), 2));
        }
        table.row(row);
    }
    let mut mean = vec!["mean".to_owned()];
    for s in &sums {
        mean.push(fmt_f(s / n as f64, 2));
    }
    table.row(mean);
    println!("\nExtension A: LLC MPKI per policy on GAP\n");
    println!("{}", table.render());
    println!("\nCSV:\n{}", table.to_csv());
}
