//! Extension C: PC-diversity characterization — distinct memory PCs and
//! blocks-per-PC for every suite. This is the paper's §I-D causal
//! argument made quantitative: graph kernels (and XSBench) concentrate
//! their footprint on a handful of PCs, which starves PC-indexed
//! predictors of signal; SPEC/Qualcomm spread it over many.
//!
//! Run with `cargo run --release --example ext_pc_diversity` (quick-scale
//! inputs).

use ccsim::obs::Table;
use ccsim::prelude::*;
use ccsim::trace::stats::TraceStats;
use ccsim::workloads::build_workload_seeded;

fn main() {
    let mut table = Table::new(
        [
            "suite",
            "workload",
            "distinct_pcs",
            "mean_blocks_per_pc",
            "max_blocks_per_pc",
            "footprint_mb",
        ]
        .map(str::to_owned)
        .to_vec(),
    );
    for suite in Suite::ALL {
        let mut suite_pcs = Vec::new();
        // One trace alive at a time: the GAP members are the largest.
        for name in suite.member_names() {
            let t = build_workload_seeded(&name, SuiteScale::Quick, 0).expect("a suite member");
            let s = TraceStats::compute(&t);
            suite_pcs.push(s.distinct_pcs);
            table.row(vec![
                suite.name().into(),
                t.name().into(),
                s.distinct_pcs.to_string(),
                format!("{:.1}", s.mean_blocks_per_pc),
                s.max_blocks_per_pc.to_string(),
                format!("{:.2}", s.footprint_bytes as f64 / (1 << 20) as f64),
            ]);
        }
        let mean = suite_pcs.iter().sum::<u64>() as f64 / suite_pcs.len().max(1) as f64;
        table.row(vec![
            suite.name().into(),
            "(suite mean)".into(),
            format!("{mean:.1}"),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    println!("Extension C: PC diversity per suite\n");
    println!("{}", table.render());
    println!("\nCSV:\n{}", table.to_csv());
}
