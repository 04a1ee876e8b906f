//! `trends record|table|check|gc`: the cross-revision performance ledger.

use std::path::PathBuf;

use ccsim_campaign::Json;
use ccsim_trends::{Ledger, SeriesList, TrendEntry};

use crate::args::{Args, Command, Flag};

const LEDGER: Flag = Flag::value("--ledger", "file");

pub const RECORD: Command = Command {
    path: &["trends", "record"],
    positionals: &[],
    flags: &[
        Flag::value("--rev", "rev"),
        LEDGER,
        Flag::value("--label", "s"),
        Flag::value("--timestamp", "s"),
        Flag::value("--from-bench", "file"),
        Flag::value("--from-watch", "file"),
        Flag::value("--from-diff", "file"),
    ],
    about: "append this revision's numbers to the ledger

`trends` maintains an append-only cross-revision performance ledger
(trends.jsonl, one entry per revision): `record` tags --rev/--label
(--rev defaults to `git rev-parse HEAD`, or \"unknown\" outside a
repository) and turns any of a `benchmark/run.sh --out` document
(--from-bench), a `campaign watch --once --json` document over a
shared dir or a campaign's --out dir (--from-watch) and
`report-diff --json` (--from-diff) into one line of named series
(`ccsim_trends` 2); a quantity a document does not carry is no series,
never a zero. See the Continuous benchmarking runbook in PAPER.md.

Simulator performance is measured outside this binary, by
`benchmark/run.sh` (see benchmark/README.md); `trends record
--from-bench` ingests the document it writes.",
    run: record,
};

pub const TABLE: Command = Command {
    path: &["trends", "table"],
    positionals: &[],
    flags: &[LEDGER, Flag::value("--last", "n")],
    about: "tracked series across recent revisions

`table` renders tracked series across the last N revisions with
sparklines (byte-deterministic for a fixed ledger).",
    run: table,
};

pub const CHECK: Command = Command {
    path: &["trends", "check"],
    positionals: &[],
    flags: &[
        LEDGER,
        Flag::value("--window", "n"),
        Flag::value("--min-history", "n"),
        Flag::value("--max-drop-pct", "f"),
        Flag::value("--max-rise-pct", "f"),
        Flag::value("--max-overhead-rise-pp", "f"),
        Flag::value("--max-mpki-delta", "f"),
        Flag::switch("--json"),
    ],
    about: "the regression gate over the ledger

`check` is the regression gate — the newest entry is judged against
the rolling median of the previous --window entries (throughput drop,
latency/overhead creep, absolute MPKI budget) and the command exits
non-zero on any failing series, with --json emitting the pinned
verdict document.",
    run: check,
};

pub const GC: Command = Command {
    path: &["trends", "gc"],
    positionals: &[],
    flags: &[LEDGER, Flag::required("--keep", "n")],
    about: "compact the ledger

`gc` compacts the ledger to its most recent --keep entries.",
    run: gc,
};

/// The ledger path from `--ledger` (default `trends.jsonl`).
fn ledger_path(args: &Args) -> Result<PathBuf, String> {
    Ok(args.get("--ledger")?.unwrap_or_else(|| PathBuf::from(ccsim_trends::LEDGER_FILE)))
}

/// A source document's series reader (`ccsim_trends::*_series`).
type SeriesReader = fn(&Json) -> Result<SeriesList, String>;

/// Reads one JSON source document for `trends record` into its series;
/// a value that is not a finite number would not survive the ledger
/// line, so it is an error here.
fn read_series(path: &str, read: SeriesReader) -> Result<SeriesList, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let series = read(&doc).map_err(|e| format!("{path}: {e}"))?;
    match series.iter().find(|(_, v)| !v.is_finite()) {
        Some((name, v)) => Err(format!("{path}: {name} is {v}, not a finite number")),
        None => Ok(series),
    }
}

/// Resolves the revision `trends record` tags its entry with when
/// `--rev` is omitted: `git rev-parse HEAD` in the current directory,
/// falling back to `"unknown"` outside a git repository (or when git
/// itself is unavailable) so recording never fails on the tag.
fn default_rev() -> String {
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

fn record(args: &Args) -> Result<(), String> {
    let ledger = ledger_path(args)?;
    let rev = args.get::<String>("--rev")?.unwrap_or_else(default_rev);
    let label = args.get::<String>("--label")?.unwrap_or_default();
    let timestamp = match args.get::<String>("--timestamp")? {
        Some(t) => t,
        None => std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or_else(|_| "0".to_owned(), |d| d.as_secs().to_string()),
    };
    let mut entry = TrendEntry::new(&rev, &label, &timestamp);
    // Bench, watch, diff: the line order tables and verdicts list rows in.
    let sources: [(&str, SeriesReader); 3] = [
        ("--from-bench", ccsim_trends::bench_series),
        ("--from-watch", ccsim_trends::watch_series),
        ("--from-diff", ccsim_trends::diff_series),
    ];
    for (flag, read) in sources {
        if let Some(path) = args.all(flag).next() {
            entry.series.extend(read_series(path, read)?);
        }
    }
    Ledger::append(&ledger, &entry)?;
    println!("recorded {} to {}: {} series", entry.rev, ledger.display(), entry.series.len());
    Ok(())
}

fn table(args: &Args) -> Result<(), String> {
    let last = args.get::<usize>("--last")?.unwrap_or(10).max(1);
    let ledger = Ledger::load(&ledger_path(args)?)?;
    if ledger.torn_tail() {
        eprintln!("warning: ledger ended in a torn line (crashed writer?); it was skipped");
    }
    print!("{}", ccsim_trends::render_table(ledger.last_n(last)));
    Ok(())
}

fn check(args: &Args) -> Result<(), String> {
    let default = ccsim_trends::CheckOptions::default();
    let options = ccsim_trends::CheckOptions {
        window: args.positive("--window")?.unwrap_or(default.window),
        min_history: args.positive("--min-history")?.unwrap_or(default.min_history),
        max_drop_pct: args.non_negative("--max-drop-pct")?.unwrap_or(default.max_drop_pct),
        max_rise_pct: args.non_negative("--max-rise-pct")?.unwrap_or(default.max_rise_pct),
        max_overhead_rise_pp: args
            .non_negative("--max-overhead-rise-pp")?
            .unwrap_or(default.max_overhead_rise_pp),
        max_mpki_delta: args.non_negative("--max-mpki-delta")?.unwrap_or(default.max_mpki_delta),
    };
    let ledger = Ledger::load(&ledger_path(args)?)?;
    let verdict = ccsim_trends::run_check(&ledger.entries, &options)?;
    if args.has("--json") {
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

fn gc(args: &Args) -> Result<(), String> {
    let keep: usize = args.required("--keep")?;
    if keep == 0 {
        return Err(args.error("--keep must be at least 1 (use `rm` to discard a ledger)"));
    }
    let ledger = ledger_path(args)?;
    let dropped = Ledger::gc(&ledger, keep)?;
    println!(
        "gc {}: dropped {dropped} entr{}",
        ledger.display(),
        if dropped == 1 { "y" } else { "ies" }
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccsim;

    #[test]
    fn trends_record_table_check_gc_round_trip() {
        let dir = std::env::temp_dir().join(format!("ccsim_cli_trends_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let ledger = dir.join("trends.jsonl");
        let ledger = ledger.to_str().unwrap();
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
        let bench = bench_path.to_str().unwrap();
        let record = ["trends", "record", "--ledger", ledger, "--from-bench", bench];
        for (i, rps) in [100.0, 101.0, 99.0].iter().enumerate() {
            std::fs::write(&bench_path, bench_doc(*rps)).unwrap();
            let (rev, i) = (format!("rev{i}"), format!("{i}"));
            ccsim(&[&record[..], &["--rev", &rev, "--label", "main", "--timestamp", &i]].concat())
                .unwrap();
        }
        ccsim(&["trends", "table", "--ledger", ledger]).unwrap();
        ccsim(&["trends", "check", "--ledger", ledger, "--json"]).unwrap();

        // A synthetic 50% regression must flip the gate to a hard error.
        std::fs::write(&bench_path, bench_doc(50.0)).unwrap();
        ccsim(&[&record[..], &["--rev", "bad", "--timestamp", "9"]].concat()).unwrap();
        let err = ccsim(&["trends", "check", "--ledger", ledger]).unwrap_err();
        assert!(err.contains("bench.smoke/gap_miss/median_rps"), "{err}");

        // 1000 records in 1e-320 s overflows to a value no ledger line holds.
        let instant = bench_doc(100.0).replace(r#""median_s": 10"#, r#""median_s": 1e-320"#);
        std::fs::write(&bench_path, instant).unwrap();
        let err = ccsim(&[&record[..], &["--rev", "inf"]].concat()).unwrap_err();
        assert!(err.contains("median_rps is inf, not a finite number"), "{err}");

        ccsim(&["trends", "gc", "--ledger", ledger, "--keep", "2"]).unwrap();
        let text = std::fs::read_to_string(ledger).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"rev\":\"bad\""));

        // `--rev` is now optional: omitting it tags the entry with the
        // repository HEAD (or "unknown" outside a repository) instead of
        // failing.
        let expected_rev = default_rev();
        assert!(!expected_rev.is_empty());
        ccsim(&["trends", "record", "--ledger", ledger, "--timestamp", "10"]).unwrap();
        let text = std::fs::read_to_string(ledger).unwrap();
        let last = text.lines().last().unwrap();
        assert!(last.contains(&format!("\"rev\":\"{expected_rev}\"")), "{last}");

        // Flag hygiene: missing --keep and unknown subcommands fail.
        assert!(ccsim(&["trends", "gc", "--ledger", ledger]).is_err());
        assert!(ccsim(&["trends", "gc", "--ledger", ledger, "--keep", "0"]).is_err());
        assert!(ccsim(&["trends", "check", "--ledger", ledger, "--window", "0"]).is_err());
        assert!(ccsim(&["trends", "frobnicate"]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Absent is not zero: an untraced bench document records no
    /// overhead, so three of them do not anchor the gate at 0 % and the
    /// first traced run bootstraps instead of failing.
    #[test]
    fn untraced_runs_leave_the_overhead_unmeasured() {
        let dir = std::env::temp_dir().join(format!("ccsim_cli_untraced_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (ledger, bench) = (dir.join("trends.jsonl"), dir.join("bench.json"));
        let (ledger, bench) = (ledger.to_str().unwrap(), bench.to_str().unwrap());
        let traced = r#", "traced": {"per_layer": {"obs.overhead_pct": {"value": 2.8}}}"#;
        for (i, traced) in ["", "", "", traced].iter().enumerate() {
            let doc = format!(
                r#"{{"ccsim_benchmark": 1, "smoke": true, "workloads": {{"gap_miss": {{"units":
                    [{{"name": "lru", "cell_records": 1000, "min_s": 1, "median_s": 1}}]}}}}{traced}}}"#
            );
            std::fs::write(bench, doc).unwrap();
            let rev = format!("r{i}");
            ccsim(&["trends", "record", "--ledger", ledger, "--rev", &rev, "--from-bench", bench])
                .unwrap();
        }
        ccsim(&["trends", "check", "--ledger", ledger]).expect("no median of fake zeros");
        let text = std::fs::read_to_string(ledger).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines[0].contains("obs_overhead_pct"), "{}", lines[0]);
        assert!(lines[3].contains(r#""bench.smoke/obs_overhead_pct":2.8"#), "{}", lines[3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn default_trends_rev_resolves_head_or_unknown() {
        let rev = default_rev();
        // Inside this repository the fallback resolves a full commit
        // hash; anywhere else it degrades to the sentinel. Either way it
        // is non-empty and single-line.
        assert!(
            rev == "unknown" || (rev.len() == 40 && rev.chars().all(|c| c.is_ascii_hexdigit())),
            "{rev}"
        );
    }
}
