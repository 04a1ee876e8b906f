//! Extension D: Belady headroom — replays each workload's LLC demand
//! stream through the offline OPT oracle and compares its hit rate
//! against LRU and the best online policy. Shows how much of the
//! (small) OPT-LRU gap the learned policies actually capture on graphs.
//!
//! Run with `cargo run --release --example ext_opt_headroom` (quick-scale
//! inputs).

use ccsim::core::llc_demand_stream;
use ccsim::obs::Table;
use ccsim::policies::belady::belady_replay;
use ccsim::prelude::*;
use ccsim::workloads::build_workload_seeded;

fn main() {
    let config = SimConfig::cascade_lake();
    let workloads = ["bfs.kron", "bfs.road", "pr.urand", "cc.twitter", "sssp.web", "bc.friendster"];
    let mut table = Table::new(
        [
            "workload",
            "lru_hit_%",
            "hawkeye_hit_%",
            "ship_hit_%",
            "opt_hit_%",
            "headroom_pts",
            "captured_by_hawkeye_%",
        ]
        .map(str::to_owned)
        .to_vec(),
    );
    for name in workloads {
        let trace = build_workload_seeded(name, SuiteScale::Quick, 0).expect("a GAP workload");
        // The LLC demand stream is policy-independent (L1/L2 are fixed
        // LRU), so the front end alone computes it for the oracle.
        let stream = llc_demand_stream(&trace, &config);
        let opt = belady_replay(&stream, config.llc.sets, config.llc.ways);
        let cells = [PolicyKind::Lru, PolicyKind::Hawkeye, PolicyKind::Ship].map(|p| (config, p));
        let results = simulate_grid(&trace, &cells, 0);
        let (lru, hawkeye, ship) = (&results[0], &results[1], &results[2]);
        let lru_hr = lru.llc.hit_rate();
        let hk_hr = hawkeye.llc.hit_rate();
        let headroom = opt.hit_rate() - lru_hr;
        let captured =
            if headroom.abs() < 1e-9 { 0.0 } else { 100.0 * (hk_hr - lru_hr) / headroom };
        let mut row = vec![name.to_owned()];
        for pct in [lru_hr, hk_hr, ship.llc.hit_rate(), opt.hit_rate(), headroom] {
            row.push(format!("{:.1}", 100.0 * pct));
        }
        row.push(format!("{captured:.1}"));
        table.row(row);
    }
    println!("Extension D: OPT headroom at the LLC (GAP workloads)\n");
    println!("{}", table.render());
    println!("\nCSV:\n{}", table.to_csv());
}
