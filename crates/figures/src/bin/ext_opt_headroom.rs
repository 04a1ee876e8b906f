//! Extension D: Belady headroom — replays each workload's recorded LLC
//! demand stream through the offline OPT oracle and compares its hit rate
//! against LRU and the best online policy. Shows how much of the
//! (small) OPT-LRU gap the learned policies actually capture on graphs.
//!
//! Run with `cargo run --release -p ccsim-figures --bin ext_opt_headroom`.

use ccsim_core::experiment::{report::fmt_f, Table};
use ccsim_core::{simulate, simulate_with_llc_log, SimConfig};
use ccsim_figures::Options;
use ccsim_policies::{belady::belady_replay, PolicyKind};
use ccsim_workloads::{GapGraph, GapKernel, GapWorkload};

fn main() {
    let opts = Options::from_args();
    let config = SimConfig::cascade_lake();
    let workloads = [
        GapWorkload { kernel: GapKernel::Bfs, graph: GapGraph::Kron },
        GapWorkload { kernel: GapKernel::Bfs, graph: GapGraph::Road },
        GapWorkload { kernel: GapKernel::Pr, graph: GapGraph::Urand },
        GapWorkload { kernel: GapKernel::Cc, graph: GapGraph::Twitter },
        GapWorkload { kernel: GapKernel::Sssp, graph: GapGraph::Web },
        GapWorkload { kernel: GapKernel::Bc, graph: GapGraph::Friendster },
    ];
    let mut table = Table::new(vec![
        "workload".into(),
        "lru_hit_%".into(),
        "hawkeye_hit_%".into(),
        "ship_hit_%".into(),
        "opt_hit_%".into(),
        "headroom_pts".into(),
        "captured_by_hawkeye_%".into(),
    ]);
    for w in workloads {
        let trace = w.trace(opts.gap_scale());
        // The LLC demand stream is policy-independent (L1/L2 are fixed
        // LRU), so one logging run serves the oracle.
        let (lru, log) = simulate_with_llc_log(&trace, &config, PolicyKind::Lru);
        let hawkeye = simulate(&trace, &config, PolicyKind::Hawkeye);
        let ship = simulate(&trace, &config, PolicyKind::Ship);
        let opt = belady_replay(&log, config.llc.sets, config.llc.ways);
        let lru_hr = lru.llc.hit_rate();
        let hk_hr = hawkeye.llc.hit_rate();
        let ship_hr = ship.llc.hit_rate();
        let opt_hr = opt.hit_rate();
        let headroom = opt_hr - lru_hr;
        let captured =
            if headroom.abs() < 1e-9 { 0.0 } else { 100.0 * (hk_hr - lru_hr) / headroom };
        eprintln!(
            "{w}: lru {:.3} hawkeye {:.3} ship {:.3} opt {:.3}",
            lru_hr, hk_hr, ship_hr, opt_hr
        );
        table.row(vec![
            w.to_string(),
            fmt_f(100.0 * lru_hr, 1),
            fmt_f(100.0 * hk_hr, 1),
            fmt_f(100.0 * ship_hr, 1),
            fmt_f(100.0 * opt_hr, 1),
            fmt_f(100.0 * headroom, 1),
            fmt_f(captured, 1),
        ]);
    }
    println!("\nExtension D: OPT headroom at the LLC (GAP workloads)\n");
    println!("{}", table.render());
    println!("\nCSV:\n{}", table.to_csv());
}
