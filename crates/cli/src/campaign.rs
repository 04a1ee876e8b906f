//! `campaign`: run (or dry-run) a declarative spec in this process, plus
//! the report epilogue and `--metrics-out` it shares with `dist`.

use std::path::{Path, PathBuf};

use ccsim_campaign::{Campaign, CampaignReport, CampaignSpec, TraceCache};
use ccsim_core::experiment::default_threads;

use crate::args::{Args, Command, Flag};

pub const CAMPAIGN: Command = Command {
    path: &["campaign"],
    positionals: &["<spec.json>"],
    flags: &[
        Flag::value("--threads", "n"),
        Flag::value("--out", "dir"),
        Flag::value("--cache-dir", "dir"),
        Flag::switch("--no-cache"),
        Flag::switch("--fresh"),
        Flag::switch("--json"),
        Flag::switch("--quiet"),
        Flag::switch("--dry-run"),
        Flag::value("--metrics-out", "file"),
    ],
    about: "run a declarative campaign

`campaign` runs a declarative spec (see campaigns/*.json): traces are
generated once into a content-addressed cache, every completed cell is
checkpointed to <out>/journal.jsonl so an interrupted campaign resumes
where it stopped (`--fresh` discards the journal), and the report is
written to <out>/report.json and <out>/report.csv. Each workload's
pending cells replay in one lockstep pass over its trace per thread
(one decode feeds every cell of the shard); the report is
byte-identical for any --threads. After the per-cell table (grids of
up to 64 cells) the run prints the paper's view of the grid, one table
per LLC scale: per-level MPKI with a `mean` row when lru is the only
policy (Figure 2: campaigns/fig2*.json), geomean speed-up over lru per
suite when lru is swept with others (Figure 3: campaigns/fig3*.json).
`--dry-run` prints the resolved grid and each cell's predicted fate
(journaled / cached-trace / needs-trace) without simulating anything;
`--dry-run --fresh --cache-dir <shared>/trace-cache` predicts a
distributed directory's trace cache, and `campaign watch --once` shows
its progress and leases.
Campaign specs accept external traces as `trace:<path>` workload
selectors, converted once into the trace cache.

Observability: every campaign run and worker writes a JSONL telemetry
event log plus an atomically-rewritten manifest (run.obs.jsonl /
manifest.json in the output dir, obs.<id>.jsonl / manifest.<id>.json
in the shared dir) with a pinned schema (\"ccsim_obs\": 2; manifest
histograms carry p50/p90/p99/min/max quantile summaries);
`--metrics-out <file>` additionally dumps the process-wide metric
catalog as Prometheus-style text exposition on exit (histograms
include `_quantile` gauges).",
    run: campaign,
};

/// The spec every campaign command takes as its one positional.
pub(crate) fn load_spec(args: &Args) -> Result<CampaignSpec, String> {
    CampaignSpec::from_file(Path::new(args.pos(0)))
}

/// `--threads`, defaulting to the available cores (at most 8).
pub(crate) fn threads(args: &Args) -> Result<usize, String> {
    Ok(args.positive("--threads")?.unwrap_or_else(default_threads))
}

fn open_cache(dir: &Path) -> Result<TraceCache, String> {
    TraceCache::new(dir).map_err(|e| format!("opening trace cache {}: {e}", dir.display()))
}

fn campaign(args: &Args) -> Result<(), String> {
    let spec = load_spec(args)?;
    let threads = threads(args)?;
    let out_dir: PathBuf = args
        .get::<PathBuf>("--out")?
        .unwrap_or_else(|| PathBuf::from("campaign-out").join(&spec.name));
    let cache_dir: PathBuf = args
        .get::<PathBuf>("--cache-dir")?
        .unwrap_or_else(|| PathBuf::from("campaign-out").join("trace-cache"));
    let journal_path = out_dir.join("journal.jsonl");
    let name = spec.name.clone();

    if args.has("--dry-run") {
        // Inspect only: no output dir, no journal, no cache mutation
        // beyond creating the cache directory. With --fresh the real run
        // would discard the journal first, so the plan must not count
        // its cells as journaled either.
        let mut campaign = Campaign::new(spec);
        if !args.has("--fresh") {
            campaign = campaign.journal(&journal_path);
        }
        if !args.has("--no-cache") {
            campaign = campaign.cache(open_cache(&cache_dir)?);
        }
        let plan = campaign.plan()?;
        if !args.has("--quiet") {
            println!("{}", plan.table().render());
        }
        let (journaled, cached, needs, missing) = plan.counts();
        println!(
            "campaign {name} (dry run): {} cells — {journaled} journaled, \
             {cached} trace-cache hits, {needs} to generate/ingest, {missing} missing \
             sources",
            plan.cells.len()
        );
        if missing > 0 {
            return Err(format!("{missing} cell(s) reference missing trace: source files"));
        }
        return Ok(());
    }

    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    if args.has("--fresh") && journal_path.exists() {
        std::fs::remove_file(&journal_path)
            .map_err(|e| format!("removing {}: {e}", journal_path.display()))?;
    }

    let mut campaign = Campaign::new(spec)
        .threads(threads)
        .journal(&journal_path)
        .verbose(!args.has("--quiet"))
        .obs_dir(&out_dir);
    if !args.has("--no-cache") {
        campaign = campaign.cache(open_cache(&cache_dir)?);
    }
    let outcome = campaign.run()?;
    write_metrics_out(args)?;
    let summary = format!(
        "campaign {name}: {} cells ({} resumed from journal), trace cache {} hit(s) / {} miss(es)",
        outcome.cells_total, outcome.cells_resumed, outcome.cache_hits, outcome.cache_misses
    );
    emit_report(&outcome.report, &out_dir, args, &summary)
}

/// The one epilogue of `campaign` and `campaign assemble`: writes
/// `report.json` / `report.csv` into `out_dir`, then prints the report
/// document alone (`--json`) or the per-cell table (up to 64 cells), the
/// grid's [`CampaignReport::paper_views`] (`--quiet` drops both),
/// `summary` and the report paths.
pub(crate) fn emit_report(
    report: &CampaignReport,
    out_dir: &Path,
    args: &Args,
    summary: &str,
) -> Result<(), String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let report_json = out_dir.join("report.json");
    let report_csv = out_dir.join("report.csv");
    let json = report.to_json_string();
    std::fs::write(&report_json, &json)
        .map_err(|e| format!("writing {}: {e}", report_json.display()))?;
    std::fs::write(&report_csv, report.to_csv())
        .map_err(|e| format!("writing {}: {e}", report_csv.display()))?;
    if args.has("--json") {
        println!("{}", json.trim_end());
        return Ok(());
    }
    if !args.has("--quiet") {
        if report.cells.len() <= 64 {
            println!("{}", report.cells_table().render());
        }
        for (title, table) in report.paper_views() {
            println!("{title}\n\n{}", table.render());
        }
    }
    println!("{summary}");
    println!("report: {} and {}", report_json.display(), report_csv.display());
    Ok(())
}

/// Honors `--metrics-out <file>`: dumps the process-wide metric catalog
/// as Prometheus-style text exposition. Run *after* the instrumented
/// work so the dump reflects it.
pub(crate) fn write_metrics_out(args: &Args) -> Result<(), String> {
    if let Some(path) = args.get::<PathBuf>("--metrics-out")? {
        ccsim_obs::write_exposition(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::tests::{ccsim, spec_dir};

    #[test]
    fn campaign_command_runs_spec_end_to_end() {
        let (dir, spec) = spec_dir(
            "campaign",
            r#"{"name": "cli_smoke", "base_config": "tiny",
                "workloads": ["xsbench.small"], "policies": ["lru", "srrip"]}"#,
        );
        let (out, cache) = (dir.join("out"), dir.join("cache"));
        let (out, cache) = (out.to_str().unwrap(), cache.to_str().unwrap());
        let argv =
            ["campaign", &spec, "--threads", "2", "--out", out, "--cache-dir", cache, "--quiet"];
        ccsim(&argv).unwrap();
        assert!(dir.join("out/report.json").exists());
        assert!(dir.join("out/report.csv").exists());
        assert!(dir.join("out/journal.jsonl").exists());
        // Second invocation: everything resumes, nothing regenerates.
        ccsim(&argv).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn campaign_rejects_missing_spec() {
        assert!(ccsim(&["campaign", "/nonexistent/spec.json"]).is_err());
        assert!(ccsim(&["campaign"]).is_err());
    }

    #[test]
    fn campaign_dry_run_predicts_without_running() {
        let (dir, spec) = spec_dir(
            "dry",
            r#"{"name": "dry", "base_config": "tiny",
                "workloads": ["xsbench.small"], "policies": ["lru", "srrip"]}"#,
        );
        let (out, cache) = (dir.join("out"), dir.join("cache"));
        let (out, cache) = (out.to_str().unwrap(), cache.to_str().unwrap());
        let base = ["campaign", &spec, "--out", out, "--cache-dir", cache, "--quiet"];
        let dry = [&base[..], &["--dry-run"]].concat();
        ccsim(&dry).unwrap();
        assert!(!dir.join("out").exists(), "dry run must not create outputs");
        ccsim(&base).unwrap();
        ccsim(&dry).unwrap(); // everything journaled now
                              // --dry-run --fresh models the journal discard without doing it.
        ccsim(&[&dry[..], &["--fresh"]].concat()).unwrap();
        assert!(
            dir.join("out/journal.jsonl").exists(),
            "--dry-run --fresh must not delete the journal"
        );
        // A damaged header is reported, not shown as cells to run; with
        // --fresh the plan ignores the journal, as the run would.
        let journal = dir.join("out/journal.jsonl");
        let text = std::fs::read_to_string(&journal).unwrap();
        std::fs::write(&journal, format!("not a header\n{}", text.split_once('\n').unwrap().1))
            .unwrap();
        let err = ccsim(&dry).unwrap_err();
        assert!(err.contains("journal.jsonl") && err.contains("not a campaign journal"), "{err}");
        ccsim(&[&dry[..], &["--fresh"]].concat()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
