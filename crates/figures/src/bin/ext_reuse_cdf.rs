//! Extension E: reuse-distance CDFs — per suite, the fraction of accesses
//! a fully-associative LRU cache of a given block capacity would hit. The
//! vertical lines to read off are L1D (512 blocks), L2 (16 384) and LLC
//! (22 528 ~ 2^14.5): graph suites stay flat far past the LLC, SPEC rises
//! early.
//!
//! Run with `cargo run --release -p ccsim-figures --bin ext_reuse_cdf`.

use ccsim_core::experiment::{report::fmt_f, Table};
use ccsim_figures::Options;
use ccsim_trace::stats::ReuseProfile;
use ccsim_workloads::{GapGraph, GapKernel, GapWorkload, Suite};

/// Capacities (in 64 B blocks) at which the CDF is reported; chosen to
/// bracket L1D (512), L2 (16K) and the LLC (22K).
const CAPS: [u64; 8] = [64, 512, 2048, 8192, 16384, 32768, 262144, 1 << 21];

fn main() {
    let opts = Options::from_args();
    let mut table = Table::new(
        std::iter::once("workload".to_owned())
            .chain(CAPS.iter().map(|c| format!("<{c}")))
            .chain(std::iter::once("cold_%".to_owned()))
            .collect(),
    );
    // One representative per suite plus contrasting GAP entries.
    let mut entries: Vec<(String, ccsim_trace::Trace)> = Vec::new();
    for suite in [Suite::Spec, Suite::XsBench, Suite::Qualcomm] {
        let mut traces = suite.traces(opts.suite_scale());
        traces.truncate(2);
        for t in traces {
            entries.push((format!("{}:{}", suite.name(), t.name()), t));
        }
    }
    for w in [
        GapWorkload { kernel: GapKernel::Bfs, graph: GapGraph::Kron },
        GapWorkload { kernel: GapKernel::Pr, graph: GapGraph::Twitter },
        GapWorkload { kernel: GapKernel::Bfs, graph: GapGraph::Road },
    ] {
        entries.push((format!("GAPBS:{w}"), w.trace(opts.gap_scale())));
    }
    for (name, trace) in entries {
        let p = ReuseProfile::compute(&trace);
        let mut row = vec![name.clone()];
        for c in CAPS {
            row.push(fmt_f(100.0 * p.hit_fraction_within(c), 1));
        }
        row.push(fmt_f(100.0 * p.cold() as f64 / p.total().max(1) as f64, 1));
        table.row(row);
        eprintln!("{name}: profiled {} accesses", p.total());
    }
    println!("\nExtension E: reuse-distance CDF (% of accesses within capacity)\n");
    println!("{}", table.render());
    println!("\nCSV:\n{}", table.to_csv());
}
