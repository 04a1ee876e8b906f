//! Extension B: LLC capacity sensitivity — GAP MPKI under LRU as the LLC
//! scales from the paper's 1.375 MB up to 11 MB (x1, x2, x4, x8 sets).
//! Demonstrates that graph working sets defeat any realistic LLC size.
//!
//! Run with `cargo run --release -p ccsim-figures --bin ext_llc_sweep`.

use ccsim_core::experiment::{report::fmt_f, Table};
use ccsim_core::{simulate, SimConfig};
use ccsim_figures::Options;
use ccsim_policies::PolicyKind;
use ccsim_workloads::{GapGraph, GapKernel, GapWorkload};

fn main() {
    let opts = Options::from_args();
    let factors = [1u32, 2, 4, 8];
    let workloads = [
        GapWorkload { kernel: GapKernel::Bfs, graph: GapGraph::Kron },
        GapWorkload { kernel: GapKernel::Bfs, graph: GapGraph::Urand },
        GapWorkload { kernel: GapKernel::Pr, graph: GapGraph::Twitter },
        GapWorkload { kernel: GapKernel::Sssp, graph: GapGraph::Road },
        GapWorkload { kernel: GapKernel::Cc, graph: GapGraph::Web },
    ];
    let mut table = Table::new(
        std::iter::once("workload".to_owned())
            .chain(factors.iter().map(|f| format!("{:.3}MB", 1.375 * *f as f64)))
            .collect(),
    );
    for w in workloads {
        let trace = w.trace(opts.gap_scale());
        let mut row = vec![w.to_string()];
        for f in factors {
            let config = SimConfig::cascade_lake().with_llc_scale(f);
            let r = simulate(&trace, &config, PolicyKind::Lru);
            row.push(fmt_f(r.mpki_llc(), 2));
            eprintln!("{w} x{f}: llc mpki {:.2} ipc {:.3}", r.mpki_llc(), r.ipc());
        }
        table.row(row);
    }
    println!("\nExtension B: LLC MPKI vs capacity (LRU)\n");
    println!("{}", table.render());
    println!("\nCSV:\n{}", table.to_csv());
}
