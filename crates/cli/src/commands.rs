//! Subcommand implementations for the `ccsim` binary.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};

use ccsim_campaign::{Campaign, CampaignReport, CampaignSpec, Json, ReportDiff, TraceCache};
use ccsim_core::experiment::default_threads;
use ccsim_ingest::{ingest_file, ingest_file_to_trace, IngestOptions, IngestReport, SourceFormat};
use ccsim_policies::PolicyKind;
use ccsim_trace::stats::{ReuseProfile, TraceStats};
use ccsim_trace::{read_trace, write_trace, Trace};
use ccsim_workloads::{paper_workloads, qualcomm_suite, spec_suite, xsbench_suite, SuiteScale};

/// Top-level usage text.
pub const USAGE: &str = "\
ccsim — trace-driven LLC replacement-policy characterization

USAGE:
    ccsim trace-gen <workload> <out.cctr> [--quick]
    ccsim trace-stats <in>
    ccsim ingest <in> <out.cctr> [--format <cctr|champsim|cvp>]
              [--name <name>] [--lossy] [--stats]
    ccsim sim <in> [--policy <name>]... [--llc-scale <power-of-two>]
              [--threads <n>] [--json]
    ccsim campaign <spec.json> [--threads <n>] [--out <dir>]
              [--cache-dir <dir>] [--no-cache] [--fresh] [--json] [--quiet]
              [--dry-run] [--shared-dir <dir>] [--metrics-out <file>]
    ccsim campaign worker <spec.json> --shared-dir <dir>
              [--worker-id <id>] [--ttl-secs <n>] [--threads <n>]
              [--backoff-ms <n>] [--max-cells <n>] [--quiet]
              [--metrics-out <file>]
    ccsim campaign assemble <spec.json> --shared-dir <dir> [--out <dir>]
              [--json] [--quiet]
    ccsim campaign status <spec.json> --shared-dir <dir>
    ccsim campaign watch <spec.json> --shared-dir <dir>
              [--max-idle-ms <n>] [--once] [--json]
    ccsim report-diff <a/report.json> <b/report.json> [--threshold <mpki>]
              [--json]
    ccsim trends record [--rev <rev>] [--ledger <file>] [--label <s>]
              [--timestamp <s>] [--from-bench <file>] [--from-diff <file>]
              [--from-manifest <file>]... [--from-watch <file>]
    ccsim trends table [--ledger <file>] [--last <n>]
    ccsim trends check [--ledger <file>] [--window <n>] [--min-history <n>]
              [--max-drop-pct <f>] [--max-rise-pct <f>]
              [--max-overhead-rise-pp <f>] [--max-mpki-delta <f>] [--json]
    ccsim trends gc [--ledger <file>] --keep <n>
    ccsim workloads
    ccsim policies

`ingest` converts an external simulator trace (ChampSim 64-byte
instruction records or a CVP-style load/store stream; auto-detected
unless --format is given) into the native CCTR format, streaming —
multi-GB inputs never materialize in memory. `--stats` additionally
prints the `trace-stats` summary block, computed in the same single
pass (the source is never read twice and the output is never read
back; note the reuse profile itself needs memory proportional to the
record count, unlike the plain conversion). `trace-stats` accepts the
same foreign formats directly.
Campaign specs accept external traces as `trace:<path>` workload
selectors, converted once into the trace cache.

`sim` is a one-workload campaign over `trace:<in>` (CCTR, ChampSim or
CVP; default policy lru) with no journal or cache: the file streams
through the band executor (a native CCTR input in place), policies
shard over `--threads` (default: available cores, max 8), and it prints
the per-cell table or, with `--json`, the report document `campaign`
writes and `report-diff` reads.

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
with `--shared-dir` it reads that distributed directory instead —
merged worker journals count as journaled, and claimed cells report
as leased(<worker>) or stale-lease(<worker>).

Distributed campaigns: N `campaign worker` processes — same host or
many hosts over a shared filesystem — drain one grid cooperatively
through <shared-dir>. Claims are lease files (atomic create, TTL'd,
heartbeat-renewed; a crashed worker's leases expire and its cells are
reclaimed), each worker journals to its own journal.<id>.jsonl
segment, and traces convert once into the shared trace-cache/.
`campaign assemble` merges any worker set's segments into a report
byte-identical to a single-process run (failing loudly on incomplete
grids or conflicting results); `campaign status` shows per-worker
progress, live claims and stale leases. See the Distributed-campaigns
runbook in PAPER.md.

Observability: every campaign run and worker writes a JSONL telemetry
event log plus an atomically-rewritten manifest (run.obs.jsonl /
manifest.json in the output dir, obs.<id>.jsonl / manifest.<id>.json
in the shared dir) with a pinned schema (\"ccsim_obs\": 2; manifest
histograms carry p50/p90/p99/min/max quantile summaries);
`--metrics-out <file>` additionally dumps the process-wide metric
catalog as Prometheus-style text exposition on exit (histograms
include `_quantile` gauges). `campaign watch` renders a live dashboard
— completed / leased / stale cells per worker, records/sec, cell-time
quantiles and ETA from the manifests' completed-cell timings; `--once`
prints one frame and exits, `--json` emits a machine document
(byte-identical across polls of an unchanged directory). The loop
long-polls a cheap stat-level fingerprint of the shared dir with
jittered exponential backoff (up to --max-idle-ms, default 2000) and
re-collects when it moves or the backoff has reached that cap, so
activity re-renders within tens of ms, an idle fleet costs one scan
per cap, and a dead worker's lease still turns stale on screen.
Watch polling is incremental: completed journal segments are never
re-read. See the Observability runbook in PAPER.md.

`trends` maintains an append-only cross-revision performance ledger
(trends.jsonl, one entry per revision): `record` tags --rev/--label
(--rev defaults to `git rev-parse HEAD`, or \"unknown\" outside a
repository) and distills any of a `benchmark/run.sh --out` document
(--from-bench), `report-diff --json` (--from-diff), obs manifests
(--from-manifest, repeatable) and `watch --once --json`
(--from-watch) into one line; `table` renders
tracked series across the last N revisions with sparklines (byte-
deterministic for a fixed ledger); `check` is the regression gate —
the newest entry is judged against the rolling median of the previous
--window entries (throughput drop, latency/overhead creep, absolute
MPKI budget) and the command exits non-zero on any failing series,
with --json emitting the pinned verdict document; `gc` compacts the
ledger to its most recent --keep entries. See the Continuous
benchmarking runbook in PAPER.md.

`report-diff` compares two report.json files over the same grid and
prints per-cell LLC MPKI / miss-ratio / IPC deltas; it exits non-zero
when any |MPKI delta| exceeds --threshold (default 0, i.e. any change).
`--json` emits the same comparison in a pinned machine schema for CI
dashboards (summary fields mirror the exit-code conditions).

One-pass campaign chunks are autotuned from the grid's combined
tag-state footprint (CCSIM_HOST_LLC_BYTES overrides the assumed host
LLC budget).

Simulator performance is measured outside this binary, by
`benchmark/run.sh` (see benchmark/README.md); `trends record
--from-bench` ingests the document it writes.
";

/// Builds the named workload's trace.
fn build_workload(name: &str, quick: bool) -> Result<Trace, String> {
    let scale = if quick { SuiteScale::Quick } else { SuiteScale::Full };
    ccsim_workloads::build_workload(name, scale)
}

/// Parses an optional `--flag <n>` usize argument.
fn parse_flag_value<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a valid value")),
    }
}

/// Splits `args` into positional arguments, skipping the values consumed
/// by `value_flags` and rejecting any flag in neither list.
fn positionals<'a>(
    args: &'a [String],
    value_flags: &[&str],
    bool_flags: &[&str],
) -> Result<Vec<&'a String>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if value_flags.contains(&a.as_str()) {
            it.next();
        } else if a.starts_with("--") {
            if !bool_flags.contains(&a.as_str()) {
                return Err(format!("unknown flag {a:?}\n\n{USAGE}"));
            }
        } else {
            out.push(a);
        }
    }
    Ok(out)
}

/// `ccsim trace-gen <workload> <out> [--quick]`
pub fn trace_gen(args: &[String]) -> Result<(), String> {
    let positional = positionals(args, &[], &["--quick"])?;
    let [workload, out] = positional[..] else {
        return Err(format!("expected <workload> <out.cctr>\n\n{USAGE}"));
    };
    let quick = args.iter().any(|a| a == "--quick");
    let trace = build_workload(workload, quick)?;
    let file = File::create(out).map_err(|e| format!("creating {out}: {e}"))?;
    write_trace(&trace, BufWriter::new(file)).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {}: {} records, {} instructions", out, trace.len(), trace.instructions());
    Ok(())
}

fn load_trace(path: &str) -> Result<Trace, String> {
    let file = File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
    read_trace(BufReader::new(file)).map_err(|e| format!("decoding {path}: {e}"))
}

/// Loads a trace of any supported format: native `CCTR` directly,
/// foreign formats (ChampSim/CVP) through the ingest pipeline. Returns
/// the trace plus the ingest report for foreign inputs.
fn load_any_trace(path: &str) -> Result<(Trace, Option<IngestReport>), String> {
    let p = std::path::Path::new(path);
    let format = ccsim_ingest::detect_file(p).map_err(|e| format!("{path}: {e}"))?;
    if format == SourceFormat::Cctr {
        return Ok((load_trace(path)?, None));
    }
    let opts = IngestOptions { format: Some(format), ..Default::default() };
    let (trace, report) =
        ingest_file_to_trace(p, &opts).map_err(|e| format!("ingesting {path}: {e}"))?;
    Ok((trace, Some(report)))
}

/// `ccsim ingest <in> <out.cctr> [--format F] [--name N] [--lossy]
/// [--stats]`
pub fn ingest(args: &[String]) -> Result<(), String> {
    let positional = positionals(args, &["--format", "--name"], &["--lossy", "--stats"])?;
    let [input, output] = positional[..] else {
        return Err(format!("expected <in> <out.cctr>\n\n{USAGE}"));
    };
    let opts = IngestOptions {
        format: parse_flag_value::<SourceFormat>(args, "--format")?,
        name: parse_flag_value::<String>(args, "--name")?,
        lossy: args.iter().any(|a| a == "--lossy"),
    };
    let stats = args.iter().any(|a| a == "--stats");
    if !stats {
        let report = ingest_file(std::path::Path::new(input), std::path::Path::new(output), &opts)
            .map_err(|e| format!("ingesting {input}: {e}"))?;
        println!("wrote {output} [{}]", report.name);
        println!("  {}", report.summary());
        return Ok(());
    }
    // One-pass convert + characterize: the streaming stats builders ride
    // the emit path, so the source is read once and the output is never
    // read back — the summary block below is identical to running
    // `trace-stats` on the converted file.
    let mut stats_b = TraceStats::builder();
    let mut reuse_b = ReuseProfile::builder();
    let (report, trailing) = ccsim_ingest::ingest_file_observed(
        std::path::Path::new(input),
        std::path::Path::new(output),
        &opts,
        |r| {
            stats_b.push(r);
            reuse_b.push_block(r.block());
        },
    )
    .map_err(|e| format!("ingesting {input}: {e}"))?;
    println!("wrote {output} [{}]", report.name);
    println!("  {}", report.summary());
    print_stats_block(&report.name, report.records, &stats_b.finish(trailing), &reuse_b.finish());
    Ok(())
}

/// The characterization block shared by `trace-stats` and
/// `ingest --stats` — identical rendering whether the statistics came
/// from a materialized trace or from the streaming builders.
fn print_stats_block(name: &str, records: u64, s: &TraceStats, p: &ReuseProfile) {
    println!("workload            : {name}");
    println!("memory records      : {records}");
    println!("instructions        : {}", s.instructions);
    println!("loads / stores      : {} / {}", s.loads, s.stores);
    println!("mem per kinstr      : {:.1}", s.mem_per_kilo_instruction());
    println!(
        "footprint           : {} blocks ({:.2} MB)",
        s.footprint_blocks,
        s.footprint_bytes as f64 / (1 << 20) as f64
    );
    println!("distinct PCs        : {}", s.distinct_pcs);
    println!("blocks per PC       : mean {:.1}, max {}", s.mean_blocks_per_pc, s.max_blocks_per_pc);
    println!("cold accesses       : {:.1}%", 100.0 * p.cold() as f64 / p.total().max(1) as f64);
    for (cap, label) in [(512u64, "L1D-sized"), (16_384, "L2-sized"), (22_528, "LLC-sized")] {
        println!(
            "reuse within {:>6} blocks ({label:>9}): {:.1}%",
            cap,
            100.0 * p.hit_fraction_within(cap)
        );
    }
}

/// `ccsim report-diff <a.json> <b.json> [--threshold <mpki>] [--json]`
pub fn report_diff(args: &[String]) -> Result<(), String> {
    let positional = positionals(args, &["--threshold"], &["--json"])?;
    let [a_path, b_path] = positional[..] else {
        return Err(format!("expected <a/report.json> <b/report.json>\n\n{USAGE}"));
    };
    let threshold: f64 = parse_flag_value(args, "--threshold")?.unwrap_or(0.0);
    if !threshold.is_finite() || threshold < 0.0 {
        return Err("--threshold must be a non-negative number".into());
    }
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
    let diff = ReportDiff::from_json_strs(&read(a_path)?, &read(b_path)?)?;
    if args.iter().any(|a| a == "--json") {
        // Machine output for CI dashboards; the summary fields mirror the
        // exit-code conditions below, which still apply.
        println!("{}", diff.to_json(threshold).to_pretty().trim_end());
        if !diff.same_grid() {
            return Err("grids differ — same-grid reports required".into());
        }
        let over = diff.cells_over(threshold);
        if over > 0 {
            return Err(format!("{over} cell(s) exceed the LLC-MPKI delta threshold {threshold}"));
        }
        return Ok(());
    }
    println!(
        "comparing {} (a) vs {} (b): {} common cells",
        diff.campaign_a,
        diff.campaign_b,
        diff.cells.len()
    );
    println!("{}", diff.table().render());
    if !diff.same_grid() {
        return Err(format!(
            "grids differ: {} cell(s) only in a, {} only in b — same-grid reports required",
            diff.only_in_a.len(),
            diff.only_in_b.len()
        ));
    }
    let over = diff.cells_over(threshold);
    println!(
        "max |llc_mpki delta| = {:.4} over {} cells (threshold {threshold})",
        diff.max_abs_mpki_delta(),
        diff.cells.len()
    );
    if over > 0 {
        return Err(format!("{over} cell(s) exceed the LLC-MPKI delta threshold {threshold}"));
    }
    Ok(())
}

/// `ccsim trace-stats <in>`
pub fn trace_stats(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err(format!("expected <in>\n\n{USAGE}"));
    };
    let (trace, ingested) = load_any_trace(path)?;
    if let Some(report) = &ingested {
        println!("ingested            : {}", report.summary());
    }
    let s = TraceStats::compute(&trace);
    let p = ReuseProfile::compute(&trace);
    print_stats_block(trace.name(), trace.len() as u64, &s, &p);
    Ok(())
}

/// `ccsim sim <in> [--policy P]... [--llc-scale N] [--threads N] [--json]`
pub fn sim(args: &[String]) -> Result<(), String> {
    let report = sim_report(args)?;
    if args.iter().any(|a| a == "--json") {
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
fn sim_report(args: &[String]) -> Result<CampaignReport, String> {
    let positional = positionals(args, &["--policy", "--llc-scale", "--threads"], &["--json"])?;
    let path = positional.first().ok_or_else(|| format!("expected <in>\n\n{USAGE}"))?;
    let mut policies = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--policy" {
            policies.push(Json::str(it.next().ok_or("--policy needs a value")?));
        }
    }
    if policies.is_empty() {
        policies.push(Json::str("lru"));
    }
    let llc_scale: u32 = parse_flag_value(args, "--llc-scale")?.unwrap_or(1);
    let threads = parse_flag_value(args, "--threads")?.unwrap_or_else(default_threads);
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    let spec = Json::obj(vec![
        ("name", Json::str("sim")),
        ("llc_scales", Json::Arr(vec![Json::int(llc_scale.into())])),
        ("workloads", Json::Arr(vec![Json::str(format!("trace:{path}"))])),
        ("policies", Json::Arr(policies)),
    ]);
    let spec = CampaignSpec::from_json_str(&spec.to_string())?;
    Ok(Campaign::new(spec).threads(threads).run()?.report)
}

/// `ccsim campaign <spec.json> [--threads N] [--out DIR] [--cache-dir DIR]
/// [--no-cache] [--fresh] [--json] [--quiet] [--dry-run]
/// [--shared-dir DIR]` — plus the distributed subcommands
/// `campaign worker`, `campaign assemble` and `campaign status`.
pub fn campaign(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("worker") => return campaign_worker(&args[1..]),
        Some("assemble") => return campaign_assemble(&args[1..]),
        Some("status") => return campaign_status(&args[1..]),
        Some("watch") => return campaign_watch(&args[1..]),
        _ => {}
    }
    let positional = positionals(
        args,
        &["--threads", "--out", "--cache-dir", "--shared-dir", "--metrics-out"],
        &["--no-cache", "--fresh", "--json", "--quiet", "--dry-run"],
    )?;
    let [spec_path] = positional[..] else {
        return Err(format!("expected <spec.json>\n\n{USAGE}"));
    };
    let spec = CampaignSpec::from_file(std::path::Path::new(spec_path))?;
    let threads = parse_flag_value(args, "--threads")?.unwrap_or_else(default_threads);
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    let out_dir: PathBuf = parse_flag_value::<PathBuf>(args, "--out")?
        .unwrap_or_else(|| PathBuf::from("campaign-out").join(&spec.name));
    let cache_dir: PathBuf = parse_flag_value::<PathBuf>(args, "--cache-dir")?
        .unwrap_or_else(|| PathBuf::from("campaign-out").join("trace-cache"));
    let shared_dir: Option<PathBuf> = parse_flag_value(args, "--shared-dir")?;
    let quiet = args.iter().any(|a| a == "--quiet");
    let dry_run = args.iter().any(|a| a == "--dry-run");
    let journal_path = out_dir.join("journal.jsonl");
    if shared_dir.is_some() && !dry_run {
        return Err("--shared-dir only applies to --dry-run here; to execute against a shared \
                    directory use `ccsim campaign worker`"
            .into());
    }

    if dry_run {
        // Inspect only: no output dir, no journal, no cache mutation
        // beyond creating the (possibly shared) cache directory. With
        // --fresh the real run would discard the journal first, so the
        // plan must not count its cells as journaled either.
        let name = spec.name.clone();
        let digest = spec.digest();
        let mut campaign = Campaign::new(spec);
        if let Some(shared) = &shared_dir {
            // Distributed view: completion comes from merging every
            // worker's journal segment; claims overlay as leased /
            // stale-lease. Strictly read-only — nothing under the shared
            // dir is created or touched.
            let merged = ccsim_campaign::journal::merge_dir(shared, &name, &digest)?;
            campaign = campaign.mark_completed(merged.completed.into_keys());
            let leases_root = ccsim_dist::leases_dir(shared);
            if leases_root.is_dir() {
                let leases = ccsim_dist::LeaseDir::open(leases_root)
                    .map_err(|e| format!("opening lease dir: {e}"))?;
                // Workers claim workload bands; the per-cell plan wants
                // per-cell fates, so expand each band lease over the
                // cells it covers.
                let grid = campaign.grid()?;
                campaign = campaign.leases(ccsim_dist::cell_lease_views(&grid, &leases.views()));
            }
            let shared_cache = ccsim_dist::trace_cache_dir(shared);
            if shared_cache.is_dir() && !args.iter().any(|a| a == "--no-cache") {
                let cache = TraceCache::new(&shared_cache)
                    .map_err(|e| format!("opening trace cache {}: {e}", shared_cache.display()))?;
                campaign = campaign.cache(cache);
            }
        } else {
            if !args.iter().any(|a| a == "--fresh") {
                campaign = campaign.journal(&journal_path);
            }
            if !args.iter().any(|a| a == "--no-cache") {
                let cache = TraceCache::new(&cache_dir)
                    .map_err(|e| format!("opening trace cache {}: {e}", cache_dir.display()))?;
                campaign = campaign.cache(cache);
            }
        }
        let plan = campaign.plan()?;
        if !quiet {
            println!("{}", plan.table().render());
        }
        let (journaled, cached, needs, missing, leased, stale) = plan.counts();
        let lease_part = if shared_dir.is_some() {
            format!(", {leased} leased, {stale} stale-leased")
        } else {
            String::new()
        };
        println!(
            "campaign {name} (dry run): {} cells — {journaled} journaled, \
             {cached} trace-cache hits, {needs} to generate/ingest, {missing} missing \
             sources{lease_part}",
            plan.cells.len()
        );
        if missing > 0 {
            return Err(format!("{missing} cell(s) reference missing trace: source files"));
        }
        return Ok(());
    }

    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    if args.iter().any(|a| a == "--fresh") && journal_path.exists() {
        std::fs::remove_file(&journal_path)
            .map_err(|e| format!("removing {}: {e}", journal_path.display()))?;
    }

    let mut campaign = Campaign::new(spec)
        .threads(threads)
        .journal(&journal_path)
        .verbose(!quiet)
        .obs_dir(&out_dir);
    if !args.iter().any(|a| a == "--no-cache") {
        let cache = TraceCache::new(&cache_dir)
            .map_err(|e| format!("opening trace cache {}: {e}", cache_dir.display()))?;
        campaign = campaign.cache(cache);
    }
    let name = campaign.spec().name.clone();
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
fn emit_report(
    report: &CampaignReport,
    out_dir: &Path,
    args: &[String],
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
    if args.iter().any(|a| a == "--json") {
        println!("{}", json.trim_end());
        return Ok(());
    }
    if !args.iter().any(|a| a == "--quiet") {
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
fn write_metrics_out(args: &[String]) -> Result<(), String> {
    if let Some(path) = parse_flag_value::<PathBuf>(args, "--metrics-out")? {
        ccsim_obs::write_exposition(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Shared front end of the distributed subcommands: the spec positional
/// plus the mandatory `--shared-dir`.
fn dist_spec_and_shared_dir(
    args: &[String],
    value_flags: &[&str],
    bool_flags: &[&str],
    subcommand: &str,
) -> Result<(CampaignSpec, PathBuf), String> {
    let positional = positionals(args, value_flags, bool_flags)?;
    let [spec_path] = positional[..] else {
        return Err(format!("expected <spec.json>\n\n{USAGE}"));
    };
    let spec = CampaignSpec::from_file(std::path::Path::new(spec_path))?;
    let shared: PathBuf = parse_flag_value(args, "--shared-dir")?
        .ok_or_else(|| format!("campaign {subcommand} needs --shared-dir <dir>\n\n{USAGE}"))?;
    Ok((spec, shared))
}

/// `ccsim campaign worker <spec.json> --shared-dir <dir> [--worker-id ID]
/// [--ttl-secs N] [--threads N] [--backoff-ms N] [--max-cells N]
/// [--quiet]`
fn campaign_worker(args: &[String]) -> Result<(), String> {
    let (spec, shared) = dist_spec_and_shared_dir(
        args,
        &[
            "--shared-dir",
            "--worker-id",
            "--ttl-secs",
            "--threads",
            "--backoff-ms",
            "--max-cells",
            "--metrics-out",
        ],
        &["--quiet"],
        "worker",
    )?;
    let mut opts = ccsim_dist::WorkerOptions::new(
        parse_flag_value::<String>(args, "--worker-id")?
            .unwrap_or_else(ccsim_dist::default_worker_id),
    );
    if let Some(ttl) = parse_flag_value::<u64>(args, "--ttl-secs")? {
        if ttl == 0 {
            return Err("--ttl-secs must be at least 1".into());
        }
        opts.ttl = std::time::Duration::from_secs(ttl);
    }
    opts.threads = parse_flag_value(args, "--threads")?.unwrap_or_else(default_threads);
    if opts.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    if let Some(ms) = parse_flag_value::<u64>(args, "--backoff-ms")? {
        opts.backoff = std::time::Duration::from_millis(ms.max(1));
    }
    opts.max_cells = parse_flag_value(args, "--max-cells")?;
    opts.verbose = !args.iter().any(|a| a == "--quiet");
    let worker_id = ccsim_dist::sanitize_worker_id(&opts.worker_id);
    let outcome = ccsim_dist::run_worker(&spec, &shared, &opts)?;
    write_metrics_out(args)?;
    println!(
        "worker {worker_id}: {} cell(s) completed ({} reclaimed from stale leases), \
         {} backoff(s), campaign {}",
        outcome.completed,
        outcome.reclaimed,
        outcome.backoffs,
        if outcome.campaign_done { "complete" } else { "still pending (cell limit reached)" }
    );
    Ok(())
}

/// `ccsim campaign assemble <spec.json> --shared-dir <dir> [--out DIR]
/// [--json] [--quiet]`
fn campaign_assemble(args: &[String]) -> Result<(), String> {
    let (spec, shared) = dist_spec_and_shared_dir(
        args,
        &["--shared-dir", "--out"],
        &["--json", "--quiet"],
        "assemble",
    )?;
    let name = spec.name.clone();
    let outcome = ccsim_dist::assemble(&spec, &shared)?;
    let out_dir: PathBuf = parse_flag_value::<PathBuf>(args, "--out")?
        .unwrap_or_else(|| PathBuf::from("campaign-out").join(&name));
    let summary = format!(
        "assembled campaign {name}: {} cells from {} segment(s), {} journal entries, \
         {} duplicate(s)",
        outcome.report.cells.len(),
        outcome.segments.len(),
        outcome.entries,
        outcome.duplicates
    );
    emit_report(&outcome.report, &out_dir, args, &summary)
}

/// `ccsim campaign status <spec.json> --shared-dir <dir>`
fn campaign_status(args: &[String]) -> Result<(), String> {
    let (spec, shared) = dist_spec_and_shared_dir(args, &["--shared-dir"], &[], "status")?;
    let status = ccsim_dist::status(&spec, &shared)?;
    println!("{}", status.render());
    Ok(())
}

/// `ccsim campaign watch <spec.json> --shared-dir <dir>
/// [--max-idle-ms N] [--once] [--json]`
///
/// One loop: stat the shared directory ([`ccsim_dist::dir_fingerprint`]),
/// re-collect the view when [`ccsim_dist::WatchPacing::due`] says so
/// (the fingerprint moved, or the idle backoff reached `--max-idle-ms`:
/// a dead worker's lease turns stale without any write), sleep the
/// jittered backoff.
fn campaign_watch(args: &[String]) -> Result<(), String> {
    let (spec, shared) = dist_spec_and_shared_dir(
        args,
        &["--shared-dir", "--max-idle-ms"],
        &["--once", "--json"],
        "watch",
    )?;
    let max_idle_ms = parse_flag_value::<u64>(args, "--max-idle-ms")?.unwrap_or(2000);
    let once = args.iter().any(|a| a == "--once");
    let json = args.iter().any(|a| a == "--json");
    // One watcher for the whole loop: its merge cursor makes each poll
    // read only journal bytes appended since the previous poll.
    let mut watcher = ccsim_dist::Watcher::new();
    let mut pacing = ccsim_dist::WatchPacing::new(max_idle_ms, u64::from(std::process::id()));
    loop {
        if pacing.due(ccsim_dist::dir_fingerprint(&shared)) {
            let view = watcher.poll(&spec, &shared)?;
            if json {
                print!("{}", view.to_json());
            } else {
                println!("{}", view.render());
            }
            if once {
                return Ok(());
            }
            if view.done() {
                println!("campaign complete");
                return Ok(());
            }
        }
        std::thread::sleep(pacing.idle_delay());
    }
}

/// `ccsim trends <record|table|check|gc> ...` — the cross-revision
/// performance ledger.
pub fn trends(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("record") => trends_record(&args[1..]),
        Some("table") => trends_table(&args[1..]),
        Some("check") => trends_check(&args[1..]),
        Some("gc") => trends_gc(&args[1..]),
        _ => Err(format!("expected trends record|table|check|gc\n\n{USAGE}")),
    }
}

/// The ledger path from `--ledger` (default `trends.jsonl`).
fn trends_ledger_path(args: &[String]) -> Result<PathBuf, String> {
    Ok(parse_flag_value::<PathBuf>(args, "--ledger")?
        .unwrap_or_else(|| PathBuf::from(ccsim_trends::LEDGER_FILE)))
}

/// Reads and parses one JSON source document for `trends record`.
fn trends_source_doc(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Resolves the revision `trends record` tags its entry with when
/// `--rev` is omitted: `git rev-parse HEAD` in the current directory,
/// falling back to `"unknown"` outside a git repository (or when git
/// itself is unavailable) so recording never fails on the tag.
fn default_trends_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_owned())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `ccsim trends record [--rev <rev>] [--ledger <file>] [--label <s>]
/// [--timestamp <s>] [--from-bench <f>] [--from-diff <f>]
/// [--from-manifest <f>]... [--from-watch <f>]`
fn trends_record(args: &[String]) -> Result<(), String> {
    let positional = positionals(
        args,
        &[
            "--ledger",
            "--rev",
            "--label",
            "--timestamp",
            "--from-bench",
            "--from-diff",
            "--from-manifest",
            "--from-watch",
        ],
        &[],
    )?;
    if let Some(extra) = positional.first() {
        return Err(format!("unexpected argument {extra:?}\n\n{USAGE}"));
    }
    let ledger = trends_ledger_path(args)?;
    let rev = parse_flag_value::<String>(args, "--rev")?.unwrap_or_else(default_trends_rev);
    let label = parse_flag_value::<String>(args, "--label")?.unwrap_or_default();
    let timestamp = match parse_flag_value::<String>(args, "--timestamp")? {
        Some(t) => t,
        None => std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or_else(|_| "0".to_owned(), |d| d.as_secs().to_string()),
    };
    let mut entry = ccsim_trends::TrendEntry::new(&rev, &label, &timestamp);
    if let Some(path) = parse_flag_value::<String>(args, "--from-bench")? {
        entry.bench = Some(
            ccsim_trends::BenchSummary::from_doc(&trends_source_doc(&path)?)
                .map_err(|e| format!("{path}: {e}"))?,
        );
    }
    if let Some(path) = parse_flag_value::<String>(args, "--from-diff")? {
        entry.diff = Some(
            ccsim_trends::DiffSummary::from_doc(&trends_source_doc(&path)?)
                .map_err(|e| format!("{path}: {e}"))?,
        );
    }
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--from-manifest" {
            let path = it.next().ok_or("--from-manifest needs a value")?;
            entry.manifests.push(
                ccsim_trends::ManifestSummary::from_doc(&trends_source_doc(path)?)
                    .map_err(|e| format!("{path}: {e}"))?,
            );
        }
    }
    if let Some(path) = parse_flag_value::<String>(args, "--from-watch")? {
        entry.watch = Some(
            ccsim_trends::WatchSummary::from_doc(&trends_source_doc(&path)?)
                .map_err(|e| format!("{path}: {e}"))?,
        );
    }
    ccsim_trends::Ledger::append(&ledger, &entry)?;
    println!(
        "recorded {} to {}: bench={}, diff={}, manifests={}, watch={}",
        entry.rev,
        ledger.display(),
        if entry.bench.is_some() { "yes" } else { "no" },
        if entry.diff.is_some() { "yes" } else { "no" },
        entry.manifests.len(),
        if entry.watch.is_some() { "yes" } else { "no" },
    );
    Ok(())
}

/// `ccsim trends table [--ledger <file>] [--last <n>]`
fn trends_table(args: &[String]) -> Result<(), String> {
    let positional = positionals(args, &["--ledger", "--last"], &[])?;
    if let Some(extra) = positional.first() {
        return Err(format!("unexpected argument {extra:?}\n\n{USAGE}"));
    }
    let last = parse_flag_value::<usize>(args, "--last")?.unwrap_or(10).max(1);
    let ledger = ccsim_trends::Ledger::load(&trends_ledger_path(args)?)?;
    if ledger.torn_tail() {
        eprintln!("warning: ledger ended in a torn line (crashed writer?); it was skipped");
    }
    print!("{}", ccsim_trends::render_table(ledger.last_n(last)));
    Ok(())
}

/// `ccsim trends check [--ledger <file>] [--window <n>]
/// [--min-history <n>] [--max-drop-pct <f>] [--max-rise-pct <f>]
/// [--max-overhead-rise-pp <f>] [--max-mpki-delta <f>] [--json]` —
/// exits non-zero when any tracked series regresses.
fn trends_check(args: &[String]) -> Result<(), String> {
    let positional = positionals(
        args,
        &[
            "--ledger",
            "--window",
            "--min-history",
            "--max-drop-pct",
            "--max-rise-pct",
            "--max-overhead-rise-pp",
            "--max-mpki-delta",
        ],
        &["--json"],
    )?;
    if let Some(extra) = positional.first() {
        return Err(format!("unexpected argument {extra:?}\n\n{USAGE}"));
    }
    let mut options = ccsim_trends::CheckOptions::default();
    if let Some(v) = parse_flag_value(args, "--window")? {
        options.window = v;
    }
    if let Some(v) = parse_flag_value(args, "--min-history")? {
        options.min_history = v;
    }
    if let Some(v) = parse_flag_value(args, "--max-drop-pct")? {
        options.max_drop_pct = v;
    }
    if let Some(v) = parse_flag_value(args, "--max-rise-pct")? {
        options.max_rise_pct = v;
    }
    if let Some(v) = parse_flag_value(args, "--max-overhead-rise-pp")? {
        options.max_overhead_rise_pp = v;
    }
    if let Some(v) = parse_flag_value(args, "--max-mpki-delta")? {
        options.max_mpki_delta = v;
    }
    if options.window == 0 || options.min_history == 0 {
        return Err("--window and --min-history must be at least 1".into());
    }
    let ledger = ccsim_trends::Ledger::load(&trends_ledger_path(args)?)?;
    let verdict = ccsim_trends::run_check(&ledger.entries, &options)?;
    if args.iter().any(|a| a == "--json") {
        println!("{}", verdict.to_json().to_pretty().trim_end());
    } else {
        println!("trends check @ {} (window {}):", verdict.rev, options.window);
        for s in &verdict.series {
            let fmt = |v: Option<f64>| v.map_or("-".to_owned(), |v| format!("{v:.3}"));
            println!(
                "  {:<28} {:<20} value {} median {} bound {}",
                s.name,
                s.status,
                fmt(s.value),
                fmt(s.median),
                fmt(s.bound),
            );
        }
    }
    if verdict.pass() {
        Ok(())
    } else {
        let failing: Vec<&str> =
            verdict.series.iter().filter(|s| s.status == "fail").map(|s| s.name.as_str()).collect();
        Err(format!("trends check failed: {} regressed", failing.join(", ")))
    }
}

/// `ccsim trends gc [--ledger <file>] --keep <n>`
fn trends_gc(args: &[String]) -> Result<(), String> {
    let positional = positionals(args, &["--ledger", "--keep"], &[])?;
    if let Some(extra) = positional.first() {
        return Err(format!("unexpected argument {extra:?}\n\n{USAGE}"));
    }
    let keep: usize = parse_flag_value(args, "--keep")?
        .ok_or_else(|| format!("trends gc needs --keep <n>\n\n{USAGE}"))?;
    if keep == 0 {
        return Err("--keep must be at least 1 (use `rm` to discard a ledger)".into());
    }
    let ledger = trends_ledger_path(args)?;
    let dropped = ccsim_trends::Ledger::gc(&ledger, keep)?;
    println!(
        "gc {}: dropped {dropped} entr{}",
        ledger.display(),
        if dropped == 1 { "y" } else { "ies" }
    );
    Ok(())
}

/// `ccsim workloads`
pub fn list_workloads() -> Result<(), String> {
    println!("GAP (kernel.graph):");
    for w in paper_workloads() {
        println!("  {w}");
    }
    println!("SPEC-like:");
    for t in spec_suite(SuiteScale::Quick) {
        println!("  {}", t.name());
    }
    println!("XSBench-like:");
    for t in xsbench_suite(SuiteScale::Quick) {
        println!("  {}", t.name());
    }
    println!("Qualcomm-like:");
    for t in qualcomm_suite(SuiteScale::Quick) {
        println!("  {}", t.name());
    }
    Ok(())
}

/// `ccsim policies`
pub fn list_policies() -> Result<(), String> {
    for k in PolicyKind::ALL {
        println!("{}", k.name());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_workload_accepts_gap_and_suite_names() {
        assert!(build_workload("bfs.kron", true).is_ok());
        assert!(build_workload("spec.stream", true).is_ok());
        assert!(build_workload("xsbench.small", true).is_ok());
        assert!(build_workload("qcom.srv0", true).is_ok());
        assert!(build_workload("nope.nothing", true).is_err());
        assert!(build_workload("spec.nothing", true).is_err());
    }

    #[test]
    fn trace_gen_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join("ccsim_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.cctr");
        let path_s = path.to_str().unwrap().to_owned();
        trace_gen(&["xsbench.small".into(), path_s.clone(), "--quick".into()]).unwrap();
        trace_stats(std::slice::from_ref(&path_s)).unwrap();
        sim(&[path_s.clone(), "--policy".into(), "srrip".into()]).unwrap();
        sim(&["--json".into(), path_s.clone()]).unwrap();
        std::fs::remove_file(path).unwrap();
    }

    /// `sim` is a campaign of one workload: at any thread count, and
    /// whether the trace is native CCTR streamed in place or a ChampSim
    /// file converted on the fly, every cell is bit-equal to simulating
    /// it alone, and the `--json` document is one `report-diff` reads.
    #[test]
    fn sim_cells_equal_per_cell_simulate_and_its_json_diffs_clean() {
        use ccsim_core::{simulate, SimConfig, SimResult};
        let dir = std::env::temp_dir().join(format!("ccsim_cli_sim_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cctr: String = dir.join("t.cctr").to_str().unwrap().into();
        trace_gen(&["xsbench.small".into(), cctr.clone(), "--quick".into()]).unwrap();
        let champsim =
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/ingest_v1.champsim");
        let policies = [PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::Hawkeye, PolicyKind::Mpppb];
        let config = SimConfig::cascade_lake().with_llc_scale(2);
        // Flags may precede the trace path (flag values are not positionals).
        let args = |input: &str, threads: &str| {
            let mut args: Vec<String> = vec!["--llc-scale".into(), "2".into()];
            args.extend(policies.iter().flat_map(|p| ["--policy".into(), p.name().into()]));
            args.extend(["--threads".into(), threads.into(), input.into()]);
            args
        };
        for input in [cctr.as_str(), champsim] {
            let (trace, _) = load_any_trace(input).unwrap();
            let oracle: Vec<SimResult> = policies
                .iter()
                .map(|&p| SimResult {
                    workload: format!("trace:{input}"),
                    ..simulate(&trace, &config, p)
                })
                .collect();
            for threads in ["1", "4"] {
                let report = sim_report(&args(input, threads)).unwrap();
                let cells: Vec<SimResult> = report.cells.into_iter().map(|c| c.result).collect();
                assert_eq!(cells, oracle, "{input} at --threads {threads}");
            }
        }
        let json = |threads| sim_report(&args(&cctr, threads)).unwrap().to_json_string();
        let diff = ReportDiff::from_json_strs(&json("1"), &json("4")).unwrap();
        assert!(diff.same_grid());
        assert_eq!((diff.cells.len(), diff.cells_over(0.0)), (policies.len(), 0));
        assert_eq!(diff.max_abs_mpki_delta(), 0.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sim_rejects_bad_policy_and_scale() {
        assert!(sim(&["x.cctr".into(), "--policy".into(), "bogus".into()]).is_err());
        assert!(sim(&["x.cctr".into(), "--llc-scale".into(), "3".into()]).is_err());
        let twice = ["x.cctr", "--policy", "lru", "--policy", "lru"].map(String::from);
        assert!(sim(&twice).unwrap_err().contains("duplicate policy"));
        // A power of two whose set count overflows u32 is an error
        // naming the scale, not a panic in `Engine::new`.
        let err = sim(&["x.cctr".into(), "--llc-scale".into(), "2097152".into()]).unwrap_err();
        assert!(err.contains("llc scale 2097152 overflows"), "{err}");
        assert!(sim(&["x.cctr".into(), "--threads".into(), "zero".into()]).is_err());
        assert!(sim(&["x.cctr".into(), "--threads".into(), "0".into()]).is_err());
        assert!(sim(&["x.cctr".into(), "--frobnicate".into()]).is_err());
        // trace-gen shares the flag check: a typo fails before anything
        // is generated or written.
        let err = trace_gen(&["xsbench.small".into(), "x.cctr".into(), "--bogus".into()]);
        assert!(err.unwrap_err().contains("unknown flag \"--bogus\""));
    }

    #[test]
    fn campaign_command_runs_spec_end_to_end() {
        let dir = std::env::temp_dir().join(format!("ccsim_cli_campaign_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("spec.json");
        std::fs::write(
            &spec_path,
            r#"{"name": "cli_smoke", "base_config": "tiny",
                "workloads": ["xsbench.small"], "policies": ["lru", "srrip"]}"#,
        )
        .unwrap();
        let args: Vec<String> = vec![
            spec_path.to_str().unwrap().into(),
            "--threads".into(),
            "2".into(),
            "--out".into(),
            dir.join("out").to_str().unwrap().into(),
            "--cache-dir".into(),
            dir.join("cache").to_str().unwrap().into(),
            "--quiet".into(),
        ];
        campaign(&args).unwrap();
        assert!(dir.join("out/report.json").exists());
        assert!(dir.join("out/report.csv").exists());
        assert!(dir.join("out/journal.jsonl").exists());
        // Second invocation: everything resumes, nothing regenerates.
        campaign(&args).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn campaign_rejects_missing_spec() {
        assert!(campaign(&["/nonexistent/spec.json".into()]).is_err());
        assert!(campaign(&[]).is_err());
    }

    #[test]
    fn campaign_worker_assemble_status_drain_a_shared_dir() {
        let dir = std::env::temp_dir().join(format!("ccsim_cli_dist_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("spec.json");
        std::fs::write(
            &spec_path,
            r#"{"name": "cli_dist", "base_config": "tiny",
                "workloads": ["xsbench.small"], "policies": ["lru", "srrip"]}"#,
        )
        .unwrap();
        let spec_s: String = spec_path.to_str().unwrap().into();
        let shared: String = dir.join("shared").to_str().unwrap().into();

        // The distributed subcommands demand a shared dir.
        assert!(campaign(&["worker".into(), spec_s.clone()]).is_err());
        assert!(campaign(&["assemble".into(), spec_s.clone()]).is_err());
        assert!(campaign(&["status".into(), spec_s.clone()]).is_err());
        // --shared-dir on a *run* is rejected (that's what worker is for).
        assert!(campaign(&[spec_s.clone(), "--shared-dir".into(), shared.clone()]).is_err());
        // Assembling before any worker ran names the missing cells.
        let err =
            campaign(&["assemble".into(), spec_s.clone(), "--shared-dir".into(), shared.clone()])
                .unwrap_err();
        assert!(err.contains("2 of 2 cells"), "{err}");

        // Status and lease-aware dry-run work on the empty dir too.
        campaign(&["status".into(), spec_s.clone(), "--shared-dir".into(), shared.clone()])
            .unwrap();
        campaign(&[
            spec_s.clone(),
            "--dry-run".into(),
            "--shared-dir".into(),
            shared.clone(),
            "--quiet".into(),
        ])
        .unwrap();

        // One worker drains the whole grid; assemble matches a
        // single-process run byte for byte.
        campaign(&[
            "worker".into(),
            spec_s.clone(),
            "--shared-dir".into(),
            shared.clone(),
            "--worker-id".into(),
            "cli-w1".into(),
            "--threads".into(),
            "2".into(),
            "--quiet".into(),
        ])
        .unwrap();
        campaign(&[
            "assemble".into(),
            spec_s.clone(),
            "--shared-dir".into(),
            shared.clone(),
            "--out".into(),
            dir.join("assembled").to_str().unwrap().into(),
            "--quiet".into(),
        ])
        .unwrap();
        campaign(&[
            spec_s.clone(),
            "--out".into(),
            dir.join("solo").to_str().unwrap().into(),
            "--cache-dir".into(),
            dir.join("cache").to_str().unwrap().into(),
            "--quiet".into(),
        ])
        .unwrap();
        let assembled = std::fs::read(dir.join("assembled/report.json")).unwrap();
        let solo = std::fs::read(dir.join("solo/report.json")).unwrap();
        assert_eq!(assembled, solo, "assemble must be byte-identical to a solo run");
        campaign(&["status".into(), spec_s, "--shared-dir".into(), shared]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn write_champsim(path: &std::path::Path, loads: u64) {
        use ccsim_ingest::champsim::{ChampSimRecord, ChampSimWriter};
        let mut w = ChampSimWriter::new(File::create(path).unwrap());
        for i in 0..loads {
            w.write(&ChampSimRecord::nonmem(0x400 + 8 * i)).unwrap();
            w.write(&ChampSimRecord::load(0x404 + 8 * i, 0x10000 + 64 * (i % 16))).unwrap();
        }
    }

    #[test]
    fn ingest_command_converts_and_stats_reads_foreign_directly() {
        let dir = std::env::temp_dir().join(format!("ccsim_cli_ingest_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("mini.champsim");
        write_champsim(&input, 50);
        let out = dir.join("mini.cctr");
        let in_s: String = input.to_str().unwrap().into();
        let out_s: String = out.to_str().unwrap().into();

        ingest(&[in_s.clone(), out_s.clone()]).unwrap();
        let trace = load_trace(&out_s).unwrap();
        assert_eq!(trace.name(), "mini");
        assert_eq!(trace.len(), 50);
        assert_eq!(trace.instructions(), 100);

        // trace-stats accepts the foreign file and the converted one.
        trace_stats(std::slice::from_ref(&in_s)).unwrap();
        trace_stats(std::slice::from_ref(&out_s)).unwrap();
        // --stats characterizes in the same pass; the converted file and
        // the report are unchanged.
        let out3 = dir.join("stats.cctr");
        ingest(&[in_s.clone(), out3.to_str().unwrap().into(), "--stats".into()]).unwrap();
        assert_eq!(
            std::fs::read(&out3).unwrap(),
            std::fs::read(&out).unwrap(),
            "--stats must not change the emitted bytes"
        );

        // Explicit name + format flags are honored.
        let out2 = dir.join("renamed.cctr");
        ingest(&[
            in_s.clone(),
            out2.to_str().unwrap().into(),
            "--format".into(),
            "champsim".into(),
            "--name".into(),
            "bespoke".into(),
        ])
        .unwrap();
        assert_eq!(load_trace(out2.to_str().unwrap()).unwrap().name(), "bespoke");

        assert!(ingest(std::slice::from_ref(&in_s)).is_err(), "missing output path");
        assert!(ingest(&[in_s, out_s, "--format".into(), "elf".into()]).is_err(), "unknown format");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn campaign_dry_run_predicts_without_running() {
        let dir = std::env::temp_dir().join(format!("ccsim_cli_dry_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("spec.json");
        std::fs::write(
            &spec_path,
            r#"{"name": "dry", "base_config": "tiny",
                "workloads": ["xsbench.small"], "policies": ["lru", "srrip"]}"#,
        )
        .unwrap();
        let base: Vec<String> = vec![
            spec_path.to_str().unwrap().into(),
            "--out".into(),
            dir.join("out").to_str().unwrap().into(),
            "--cache-dir".into(),
            dir.join("cache").to_str().unwrap().into(),
            "--quiet".into(),
        ];
        let mut dry = base.clone();
        dry.push("--dry-run".into());
        campaign(&dry).unwrap();
        assert!(!dir.join("out").exists(), "dry run must not create outputs");
        campaign(&base).unwrap();
        campaign(&dry).unwrap(); // everything journaled now
                                 // --dry-run --fresh models the journal discard without doing it.
        let mut dry_fresh = dry.clone();
        dry_fresh.push("--fresh".into());
        campaign(&dry_fresh).unwrap();
        assert!(
            dir.join("out/journal.jsonl").exists(),
            "--dry-run --fresh must not delete the journal"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_diff_flags_regressions_above_threshold() {
        let dir = std::env::temp_dir().join(format!("ccsim_cli_diff_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("spec.json");
        std::fs::write(
            &spec_path,
            r#"{"name": "d", "base_config": "tiny",
                "workloads": ["xsbench.small"], "policies": ["lru"]}"#,
        )
        .unwrap();
        for out in ["a", "b"] {
            campaign(&[
                spec_path.to_str().unwrap().into(),
                "--out".into(),
                dir.join(out).to_str().unwrap().into(),
                "--no-cache".into(),
                "--quiet".into(),
            ])
            .unwrap();
        }
        let a: String = dir.join("a/report.json").to_str().unwrap().into();
        let b: String = dir.join("b/report.json").to_str().unwrap().into();
        // Identical runs diff clean at threshold 0, in both renderings.
        report_diff(&[a.clone(), b.clone()]).unwrap();
        report_diff(&[a.clone(), b.clone(), "--json".into()]).unwrap();

        // Perturb b's llc mpki: the default threshold trips, a loose one
        // does not.
        let text = std::fs::read_to_string(&b).unwrap();
        let needle = "\"llc\": ";
        let pos = text.find("\"mpki\"").unwrap();
        let llc = pos + text[pos..].find(needle).unwrap() + needle.len();
        let end = llc + text[llc..].find([',', '}']).unwrap();
        let bumped: f64 = text[llc..end].trim().parse::<f64>().unwrap() + 3.0;
        let patched = format!("{}{}{}", &text[..llc], bumped, &text[end..]);
        std::fs::write(&b, patched).unwrap();
        let err = report_diff(&[a.clone(), b.clone()]).unwrap_err();
        assert!(err.contains("threshold"), "{err}");
        let err = report_diff(&[a.clone(), b.clone(), "--json".into()]).unwrap_err();
        assert!(err.contains("threshold"), "--json must keep the exit contract: {err}");
        report_diff(&[a.clone(), b.clone(), "--threshold".into(), "5".into()]).unwrap();
        assert!(report_diff(&[a, b, "--threshold".into(), "-1".into()]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn listings_do_not_fail() {
        list_workloads().unwrap();
        list_policies().unwrap();
    }

    #[test]
    fn trends_record_table_check_gc_round_trip() {
        let dir = std::env::temp_dir().join(format!("ccsim_cli_trends_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let ledger: String = dir.join("trends.jsonl").to_str().unwrap().into();
        let bench_doc = |rps: f64| {
            let s = 1000.0 / rps;
            format!(
                r#"{{"ccsim_benchmark": 1, "smoke": true,
                    "workloads": {{"gap_miss": {{"units": [{{"name": "lru", "cell_records": 1000,
                        "min_s": {s}, "median_s": {s}}}]}}}},
                    "traced": {{"per_layer": {{"obs.overhead_pct": {{"value": 1.0}}}}}}}}"#
            )
        };
        let bench_path = dir.join("bench.json");
        for (i, rps) in [100.0, 101.0, 99.0].iter().enumerate() {
            std::fs::write(&bench_path, bench_doc(*rps)).unwrap();
            trends(&[
                "record".into(),
                "--ledger".into(),
                ledger.clone(),
                "--rev".into(),
                format!("rev{i}"),
                "--label".into(),
                "main".into(),
                "--timestamp".into(),
                format!("{i}"),
                "--from-bench".into(),
                bench_path.to_str().unwrap().into(),
            ])
            .unwrap();
        }
        trends(&["table".into(), "--ledger".into(), ledger.clone()]).unwrap();
        trends(&["check".into(), "--ledger".into(), ledger.clone(), "--json".into()]).unwrap();

        // A synthetic 50% regression must flip the gate to a hard error.
        std::fs::write(&bench_path, bench_doc(50.0)).unwrap();
        trends(&[
            "record".into(),
            "--ledger".into(),
            ledger.clone(),
            "--rev".into(),
            "bad".into(),
            "--timestamp".into(),
            "9".into(),
            "--from-bench".into(),
            bench_path.to_str().unwrap().into(),
        ])
        .unwrap();
        let err = trends(&["check".into(), "--ledger".into(), ledger.clone()]).unwrap_err();
        assert!(err.contains("bench.smoke/gap_miss/median_rps"), "{err}");

        trends(&["gc".into(), "--ledger".into(), ledger.clone(), "--keep".into(), "2".into()])
            .unwrap();
        let text = std::fs::read_to_string(&ledger).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"rev\":\"bad\""));

        // `--rev` is now optional: omitting it tags the entry with the
        // repository HEAD (or "unknown" outside a repository) instead of
        // failing.
        let expected_rev = default_trends_rev();
        assert!(!expected_rev.is_empty());
        trends(&[
            "record".into(),
            "--ledger".into(),
            ledger.clone(),
            "--timestamp".into(),
            "10".into(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&ledger).unwrap();
        let last = text.lines().last().unwrap();
        assert!(last.contains(&format!("\"rev\":\"{expected_rev}\"")), "{last}");

        // Flag hygiene: missing --keep and unknown subcommands fail.
        assert!(trends(&["gc".into(), "--ledger".into(), ledger.clone()]).is_err());
        assert!(trends(&["frobnicate".into()]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn default_trends_rev_resolves_head_or_unknown() {
        let rev = default_trends_rev();
        // Inside this repository the fallback resolves a full commit
        // hash; anywhere else it degrades to the sentinel. Either way it
        // is non-empty and single-line.
        assert!(
            rev == "unknown" || (rev.len() == 40 && rev.chars().all(|c| c.is_ascii_hexdigit())),
            "{rev}"
        );
    }
}
