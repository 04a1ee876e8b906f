//! `campaign worker|assemble|watch`: one grid drained by many
//! processes through a shared directory.

use std::path::PathBuf;
use std::time::Duration;

use crate::args::{Args, Command, Flag};
use crate::campaign::{emit_report, load_spec, threads, write_metrics_out};

pub const WORKER: Command = Command {
    path: &["campaign", "worker"],
    positionals: &["<spec.json>"],
    flags: &[
        Flag::required("--shared-dir", "dir"),
        Flag::value("--worker-id", "id"),
        Flag::value("--ttl-secs", "n"),
        Flag::value("--threads", "n"),
        Flag::value("--backoff-ms", "n"),
        Flag::value("--max-cells", "n"),
        Flag::switch("--quiet"),
        Flag::value("--metrics-out", "file"),
    ],
    about: "drain a shared dir cooperatively

Distributed campaigns: N `campaign worker` processes — same host or
many hosts over a shared filesystem — drain one grid cooperatively
through <shared-dir>. Claims are lease files (atomic create, TTL'd,
heartbeat-renewed; a crashed worker's leases expire and its cells are
reclaimed), each worker journals to its own journal.<id>.jsonl
segment, and traces convert once into the shared trace-cache/.
`campaign assemble` merges the segments into the report, `campaign
watch` shows progress and leases; telemetry and `--metrics-out` are as
for `campaign`. See the Distributed-campaigns runbook in PAPER.md.",
    run: worker,
};

pub const ASSEMBLE: Command = Command {
    path: &["campaign", "assemble"],
    positionals: &["<spec.json>"],
    flags: &[
        Flag::required("--shared-dir", "dir"),
        Flag::value("--out", "dir"),
        Flag::switch("--json"),
        Flag::switch("--quiet"),
    ],
    about: "merge worker journals into a report

`campaign assemble` merges any worker set's segments into a report
byte-identical to a single-process run (failing loudly on incomplete
grids or conflicting results).",
    run: assemble,
};

pub const WATCH: Command = Command {
    path: &["campaign", "watch"],
    positionals: &["<spec.json>"],
    flags: &[
        Flag::required("--shared-dir", "dir"),
        Flag::value("--max-idle-ms", "n"),
        Flag::switch("--once"),
        Flag::switch("--json"),
    ],
    about: "live distributed-campaign dashboard

`campaign watch` renders a live dashboard — completed / leased / stale
cells, duplicate journal entries, per-worker completed cells and
claims, records/sec, cell-time quantiles and ETA from the manifests'
completed-cell timings (see `ccsim campaign --help`), and one line per
lease blocking a pending cell (holder, epoch, age, ttl); `--once`
prints one frame and exits, `--json` emits a machine document
(byte-identical across polls of an unchanged directory). The loop
re-reads the whole shared dir and prints a frame once every
--max-idle-ms (default 2000, at least 1): an active campaign re-renders
once per period, not on each write, and a dead worker's lease turns
stale on screen with nothing writing. It exits once the grid is
complete. See the Observability runbook in PAPER.md.",
    run: watch,
};

fn worker(args: &Args) -> Result<(), String> {
    let spec = load_spec(args)?;
    let shared: PathBuf = args.required("--shared-dir")?;
    let mut opts = ccsim_dist::WorkerOptions::new(
        args.get::<String>("--worker-id")?.unwrap_or_else(ccsim_dist::default_worker_id),
    );
    if let Some(ttl) = args.positive("--ttl-secs")? {
        opts.ttl = Duration::from_secs(ttl);
    }
    opts.threads = threads(args)?;
    if let Some(ms) = args.get::<u64>("--backoff-ms")? {
        opts.backoff = Duration::from_millis(ms.max(1));
    }
    opts.max_cells = args.get("--max-cells")?;
    opts.verbose = !args.has("--quiet");
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

fn assemble(args: &Args) -> Result<(), String> {
    let spec = load_spec(args)?;
    let shared: PathBuf = args.required("--shared-dir")?;
    let name = spec.name.clone();
    let outcome = ccsim_dist::assemble(&spec, &shared)?;
    let out_dir: PathBuf =
        args.get::<PathBuf>("--out")?.unwrap_or_else(|| PathBuf::from("campaign-out").join(&name));
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

/// One loop: collect, print, return on `--once` or a complete grid,
/// sleep `--max-idle-ms`.
fn watch(args: &Args) -> Result<(), String> {
    let period = Duration::from_millis(args.positive("--max-idle-ms")?.unwrap_or(2000));
    let spec = load_spec(args)?;
    let shared: PathBuf = args.required("--shared-dir")?;
    loop {
        let view = ccsim_dist::watch(&spec, &shared)?;
        if args.has("--json") {
            print!("{}", view.to_json());
        } else {
            println!("{}", view.render());
        }
        if args.has("--once") {
            return Ok(());
        }
        if view.done() {
            println!("campaign complete");
            return Ok(());
        }
        std::thread::sleep(period);
    }
}

#[cfg(test)]
mod tests {
    use crate::tests::{ccsim, spec_dir};

    #[test]
    fn campaign_worker_assemble_watch_drain_a_shared_dir() {
        let (dir, spec) = spec_dir(
            "dist",
            r#"{"name": "cli_dist", "base_config": "tiny",
                "workloads": ["xsbench.small"], "policies": ["lru", "srrip"]}"#,
        );
        let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
        let shared = path("shared");

        // The distributed subcommands demand a shared dir.
        assert!(ccsim(&["campaign", "worker", &spec]).is_err());
        assert!(ccsim(&["campaign", "assemble", &spec]).is_err());
        assert!(ccsim(&["campaign", "watch", &spec, "--once"]).is_err());
        // A run takes no shared dir (that's what worker is for).
        let err = ccsim(&["campaign", &spec, "--shared-dir", &shared]).unwrap_err();
        assert!(err.starts_with("ccsim campaign: unknown flag \"--shared-dir\""), "{err}");
        // Assembling before any worker ran names the missing cells.
        let err = ccsim(&["campaign", "assemble", &spec, "--shared-dir", &shared]).unwrap_err();
        assert!(err.contains("2 of 2 cells"), "{err}");

        // Watch works on the empty dir too.
        ccsim(&["campaign", "watch", &spec, "--shared-dir", &shared, "--once"]).unwrap();

        // One worker drains the whole grid; assemble matches a
        // single-process run byte for byte.
        let worker = ["campaign", "worker", &spec, "--shared-dir", &shared];
        ccsim(&[&worker[..], &["--worker-id", "cli-w1", "--threads", "2", "--quiet"]].concat())
            .unwrap();
        let assembled_out = path("assembled");
        let assembled_args =
            ["assemble", &spec, "--shared-dir", &shared, "--out", &assembled_out, "--quiet"];
        ccsim(&[&["campaign"][..], &assembled_args].concat()).unwrap();
        let (solo, cache) = (path("solo"), path("cache"));
        ccsim(&["campaign", &spec, "--out", &solo, "--cache-dir", &cache, "--quiet"]).unwrap();
        let assembled = std::fs::read(dir.join("assembled/report.json")).unwrap();
        let solo = std::fs::read(dir.join("solo/report.json")).unwrap();
        assert_eq!(assembled, solo, "assemble must be byte-identical to a solo run");
        ccsim(&["campaign", "watch", &spec, "--shared-dir", &shared, "--once"]).unwrap();
        ccsim(&["campaign", "watch", &spec, "--shared-dir", &shared, "--once", "--json"]).unwrap();

        // A segment whose header is damaged is named, not read as 0 cells.
        let segment = dir.join("shared/journal.cli-w1.jsonl");
        let text = std::fs::read_to_string(&segment).unwrap();
        std::fs::write(&segment, format!("not a header\n{}", text.split_once('\n').unwrap().1))
            .unwrap();
        for view in [&["watch", &spec, "--shared-dir", &shared, "--once"][..], &assembled_args] {
            let err = ccsim(&[&["campaign"][..], view].concat()).unwrap_err();
            assert!(err.contains("damaged journal segment"), "{err}");
            assert!(err.contains("journal.cli-w1.jsonl"), "{err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
