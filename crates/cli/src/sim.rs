//! `sim`: a one-workload campaign over a trace file.

use crate::args::{Args, Command, Flag};
use crate::campaign::threads;
use ccsim_campaign::{Campaign, CampaignReport, CampaignSpec, Json};

pub const SIM: Command = Command {
    path: &["sim"],
    positionals: &["<in>"],
    flags: &[
        Flag::repeat("--policy", "name"),
        Flag::value("--llc-scale", "power-of-two"),
        Flag::value("--threads", "n"),
        Flag::switch("--json"),
    ],
    about: "one-trace campaign: simulate a file

`sim` is a one-workload campaign over `trace:<in>` (CCTR, ChampSim or
CVP; default policy lru) with no journal or cache: the file streams
through the band executor (a native CCTR input in place), policies
shard over `--threads` (default: available cores, max 8), and it prints
the per-cell table or, with `--json`, the report document `campaign`
writes and `report-diff` reads.",
    run: sim,
};

fn sim(args: &Args) -> Result<(), String> {
    let report = sim_report(args)?;
    if args.has("--json") {
        println!("{}", report.to_json_string().trim_end());
    } else {
        println!("platform: {}", report.spec.configs()[0].1);
        println!("{}", report.cells_table().render());
    }
    Ok(())
}

/// `sim` is a one-workload campaign over `trace:<in>` with no journal,
/// cache or obs dir. Its spec goes through the spec parser, so policies,
/// scale and selector are validated exactly as a checked-in spec's are.
fn sim_report(args: &Args) -> Result<CampaignReport, String> {
    let mut policies: Vec<Json> = args.all("--policy").map(Json::str).collect();
    if policies.is_empty() {
        policies.push(Json::str("lru"));
    }
    let llc_scale: u32 = args.get("--llc-scale")?.unwrap_or(1);
    let spec = Json::obj(vec![
        ("name", Json::str("sim")),
        ("llc_scales", Json::Arr(vec![Json::int(llc_scale.into())])),
        ("workloads", Json::Arr(vec![Json::str(format!("trace:{}", args.pos(0)))])),
        ("policies", Json::Arr(policies)),
    ]);
    let spec = CampaignSpec::from_json_str(&spec.to_string())?;
    Ok(Campaign::new(spec).threads(threads(args)?).run()?.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::ccsim;
    use ccsim_campaign::ReportDiff;
    use ccsim_policies::PolicyKind;

    /// `sim` is a campaign of one workload: at any thread count, and
    /// whether the trace is native CCTR streamed in place or a ChampSim
    /// file converted on the fly, every cell is bit-equal to simulating
    /// it alone, and the `--json` document is one `report-diff` reads.
    #[test]
    fn sim_cells_equal_per_cell_simulate_and_its_json_diffs_clean() {
        use ccsim_core::{simulate, SimConfig, SimResult};
        use ccsim_ingest::{ingest, IngestOptions};
        use ccsim_trace::read_trace;
        let dir = std::env::temp_dir().join(format!("ccsim_cli_sim_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cctr: String = dir.join("t.cctr").to_str().unwrap().into();
        ccsim(&["trace-gen", "xsbench.small", &cctr, "--quick"]).unwrap();
        let champsim =
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/ingest_v1.champsim");
        let policies = [PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::Hawkeye, PolicyKind::Mpppb];
        let config = SimConfig::cascade_lake().with_llc_scale(2);
        // Flags may precede the trace path (flag values are not
        // positionals), and repeated `--policy` keeps argv order.
        let report = |input: &str, threads: &str| {
            let mut argv: Vec<String> = vec!["--llc-scale".into(), "2".into()];
            argv.extend(policies.iter().flat_map(|p| ["--policy".into(), p.name().into()]));
            argv.extend(["--threads".into(), threads.into(), input.into()]);
            sim_report(&Args::parse(&SIM, &argv).unwrap().unwrap()).unwrap()
        };
        for input in [cctr.as_str(), champsim] {
            // The oracle's trace: the input through the ingest fold
            // (a CCTR input passes through), read back whole.
            let mut converted = std::io::Cursor::new(Vec::new());
            let source = std::fs::File::open(input).unwrap();
            ingest(source, &mut converted, &IngestOptions::default()).unwrap();
            let trace = read_trace(&converted.into_inner()[..]).unwrap();
            let oracle: Vec<SimResult> = policies
                .iter()
                .map(|&p| SimResult {
                    workload: format!("trace:{input}"),
                    ..simulate(&trace, &config, p)
                })
                .collect();
            for threads in ["1", "4"] {
                let cells: Vec<SimResult> =
                    report(input, threads).cells.into_iter().map(|c| c.result).collect();
                assert_eq!(cells, oracle, "{input} at --threads {threads}");
            }
        }
        let json = |threads| report(&cctr, threads).to_json_string();
        let diff = ReportDiff::from_json_strs(&json("1"), &json("4")).unwrap();
        assert!(diff.same_grid());
        assert_eq!((diff.cells.len(), diff.cells_over(0.0)), (policies.len(), 0));
        assert_eq!(diff.max_abs_mpki_delta(), 0.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sim_rejects_bad_policy_and_scale() {
        assert!(ccsim(&["sim", "x.cctr", "--policy", "bogus"]).is_err());
        assert!(ccsim(&["sim", "x.cctr", "--llc-scale", "3"]).is_err());
        let twice = ccsim(&["sim", "x.cctr", "--policy", "lru", "--policy", "lru"]);
        assert!(twice.unwrap_err().contains("duplicate policy"));
        // A power of two whose set count overflows u32 is an error
        // naming the scale, not a panic in `Engine::new`.
        let err = ccsim(&["sim", "x.cctr", "--llc-scale", "2097152"]).unwrap_err();
        assert!(err.contains("llc scale 2097152 overflows"), "{err}");
        assert!(ccsim(&["sim", "x.cctr", "--threads", "zero"]).is_err());
        assert!(ccsim(&["sim", "x.cctr", "--threads", "0"]).is_err());
        assert!(ccsim(&["sim", "x.cctr", "--frobnicate"]).is_err());
    }
}
