//! Extension C: PC-diversity characterization — distinct memory PCs and
//! blocks-per-PC for every suite. This is the paper's §I-D causal
//! argument made quantitative: graph kernels (and XSBench) concentrate
//! their footprint on a handful of PCs, which starves PC-indexed
//! predictors of signal; SPEC/Qualcomm spread it over many.
//!
//! Run with `cargo run --release -p ccsim-figures --bin ext_pc_diversity`.

use ccsim_core::experiment::{report::fmt_f, Table};
use ccsim_figures::Options;
use ccsim_trace::stats::TraceStats;
use ccsim_workloads::Suite;

fn main() {
    let opts = Options::from_args();
    let mut table = Table::new(vec![
        "suite".into(),
        "workload".into(),
        "distinct_pcs".into(),
        "mean_blocks_per_pc".into(),
        "max_blocks_per_pc".into(),
        "footprint_mb".into(),
    ]);
    for suite in Suite::ALL {
        let mut suite_pcs = Vec::new();
        suite.for_each_trace(opts.suite_scale(), |t| {
            let s = TraceStats::compute(&t);
            suite_pcs.push(s.distinct_pcs);
            table.row(vec![
                suite.name().into(),
                t.name().into(),
                s.distinct_pcs.to_string(),
                fmt_f(s.mean_blocks_per_pc, 1),
                s.max_blocks_per_pc.to_string(),
                fmt_f(s.footprint_bytes as f64 / (1 << 20) as f64, 2),
            ]);
            eprintln!("{}: {} pcs={}", suite.name(), t.name(), s.distinct_pcs);
        });
        let mean = suite_pcs.iter().sum::<u64>() as f64 / suite_pcs.len().max(1) as f64;
        table.row(vec![
            suite.name().into(),
            "(suite mean)".into(),
            fmt_f(mean, 1),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    println!("\nExtension C: PC diversity per suite\n");
    println!("{}", table.render());
    println!("\nCSV:\n{}", table.to_csv());
}
