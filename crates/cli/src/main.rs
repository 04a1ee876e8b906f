//! `ccsim` — command-line front end for the simulation suite.
//!
//! ```text
//! ccsim trace-gen <workload> <out.cctr>   capture a workload trace to disk
//! ccsim trace-stats <in>                  footprint / PC / reuse statistics
//! ccsim ingest <in> <out.cctr>            convert a ChampSim/CVP trace to CCTR
//! ccsim sim <in> [--policy P]...          one-trace campaign: simulate a file
//! ccsim campaign <spec.json>              run a declarative campaign
//! ccsim campaign worker <spec.json>       drain a shared dir cooperatively
//! ccsim campaign assemble <spec.json>     merge worker journals into a report
//! ccsim campaign status <spec.json>       distributed-campaign progress
//! ccsim campaign watch <spec.json>        live distributed-campaign dashboard
//! ccsim report-diff <a.json> <b.json>     per-cell deltas of two reports
//! ccsim trends record|table|check|gc      cross-revision performance ledger
//! ccsim workloads                         list available workload names
//! ccsim policies                          list available policy names
//! ```
//!
//! Workload names: any GAP pair (`bfs.kron`, `pr.twitter`, ...) or a
//! synthetic suite member (`spec.stream`, `xsbench.large`, `qcom.srv0`).
//! Add `--quick` to `trace-gen` for reduced-scale captures. `trace-stats`,
//! `ingest` and `sim` auto-detect foreign formats; campaign specs accept
//! external trace files as `trace:<path>` workload selectors. This is
//! the workspace's only executable: the paper's figures are specs under
//! `campaigns/` run by `ccsim campaign`.

use std::process::ExitCode;

mod commands;

fn dispatch(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("trace-gen") => commands::trace_gen(&args[1..]),
        Some("trace-stats") => commands::trace_stats(&args[1..]),
        Some("ingest") => commands::ingest(&args[1..]),
        Some("sim") => commands::sim(&args[1..]),
        Some("campaign") => commands::campaign(&args[1..]),
        Some("report-diff") => commands::report_diff(&args[1..]),
        Some("trends") => commands::trends(&args[1..]),
        Some("workloads") => commands::list_workloads(),
        Some("policies") => commands::list_policies(),
        Some("--help") | Some("-h") | None => {
            print!("{}", commands::USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}\n\n{}", commands::USAGE)),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn bench_is_an_unknown_command() {
        // Performance is measured by `benchmark/run.sh`, not by this binary.
        let err = super::dispatch(&["bench".into(), "--quick".into()]).unwrap_err();
        assert!(err.starts_with("unknown command \"bench\""), "{err}");
    }
}
