//! Reuse-distance CDFs (extension E): the fraction of accesses a
//! fully-associative LRU cache of a given block capacity would hit — the
//! cache-size-independent locality view that explains the paper's MPKI
//! results. Two synthetic extremes bracket one or two representatives of
//! every suite; the columns to read off are L1D (512 blocks), L2 (16 384)
//! and the LLC (22 528 ~ 2^14.5): SPEC rises early; graph traversals sit
//! between the extremes, with a long tail far beyond any LLC — which is
//! why bigger caches and smarter policies both disappoint on them.
//!
//! Run with `cargo run --release --example reuse_distance`.

use ccsim::obs::Table;
use ccsim::prelude::*;
use ccsim::trace::stats::ReuseProfile;
use ccsim::trace::synth::{PatternGen, PointerChase, SequentialStream};
use ccsim::workloads::build_workload_seeded;

/// Capacities (in 64 B blocks) at which the CDF is reported; chosen to
/// bracket L1D (512), L2 (16K) and the LLC (22K).
const CAPS: [u64; 8] = [64, 512, 2048, 8192, 16384, 32768, 262144, 1 << 21];

fn main() {
    let mut entries: Vec<(String, Trace)> = Vec::new();
    // A tight loop: everything within a tiny working set.
    let mut hot = TraceBuffer::new("hot-loop");
    SequentialStream::new(0, 16 << 10).laps(20).emit(&mut hot);
    entries.push(("synthetic:hot-loop".into(), hot.finish()));
    // A pointer chase over 8 MB: reuse exists but only at huge distances.
    let mut chase = TraceBuffer::new("chase-8mb");
    PointerChase::new(0, 1 << 17, 64).steps(1 << 18).emit(&mut chase);
    entries.push(("synthetic:chase-8mb".into(), chase.finish()));
    let mut names: Vec<String> = [Suite::Spec, Suite::XsBench, Suite::Qualcomm]
        .into_iter()
        .flat_map(|suite| suite.member_names().into_iter().take(2))
        .collect();
    names.extend(["bfs.kron", "pr.twitter", "bfs.road"].map(String::from));
    for name in names {
        let trace = build_workload_seeded(&name, SuiteScale::Quick, 0).expect("a suite member");
        entries.push((format!("{}:{name}", Suite::of_workload(&name).name()), trace));
    }

    let mut table = Table::new(
        std::iter::once("workload".to_owned())
            .chain(CAPS.iter().map(|c| format!("<{c}")))
            .chain(std::iter::once("cold_%".to_owned()))
            .collect(),
    );
    for (name, trace) in entries {
        let p = ReuseProfile::compute(&trace);
        let mut row = vec![name];
        for c in CAPS {
            row.push(format!("{:.1}", 100.0 * p.hit_fraction_within(c)));
        }
        row.push(format!("{:.1}", 100.0 * p.cold() as f64 / p.total().max(1) as f64));
        table.row(row);
    }
    println!("Reuse-distance CDF (% of accesses within capacity, quick scale)\n");
    println!("{}", table.render());
    println!("CSV:\n{}", table.to_csv());
}
