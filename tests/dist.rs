//! Distributed-campaign integration tests: band-lease-arbitrated
//! sharding, mid-band crash/resume healing, and byte-identical report
//! assembly.
//!
//! Workers claim **workload bands** (`band:<workload>` — every pending
//! cell sharing a trace, simulated in one lockstep pass) rather than
//! individual cells, but the distribution contract is unchanged:
//! however many workers drain the grid, in whatever interleaving, with
//! however many crashes and reclaims along the way, `assemble` produces
//! the same bytes as one uninterrupted single-process run — or fails
//! loudly rather than guess.

use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

use ccsim::campaign::{Campaign, CampaignSpec, Journal};
use ccsim::dist::{
    assemble, band_lease_id, leases_dir, run_worker, sanitize_worker_id, watch, Claim, LeaseDir,
    WorkerOptions,
};

/// 2 workloads x 2 policies x 2 LLC sizes on the tiny platform: enough
/// cells to shard meaningfully, fast enough for debug builds.
const SPEC: &str = r#"{
    "name": "dist_itest",
    "scale": "quick",
    "base_config": "tiny",
    "llc_scales": [1, 2],
    "workloads": ["xsbench.small", "spec.stack"],
    "policies": ["lru", "srrip"]
}"#;

fn spec() -> CampaignSpec {
    CampaignSpec::from_json_str(SPEC).unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccsim_dist_itest_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `worker` claimed `id` an hour ago and died: a leaked claim, never
/// renewed, long past its TTL.
fn plant_dead_lease(leases: &LeaseDir, id: &str, worker: &str) {
    let Claim::Acquired(guard) = leases.claim(id, worker, Duration::from_secs(60)).unwrap() else {
        panic!("{id} is already held");
    };
    std::mem::forget(guard); // crash: no release, no renewal
    let lease = std::fs::File::options().write(true).open(leases.path_for(id)).unwrap();
    lease.set_modified(SystemTime::now() - Duration::from_secs(3600)).unwrap();
}

/// The single-process reference bytes for the grid.
fn solo_report_json() -> String {
    Campaign::new(spec()).threads(4).run().unwrap().report.to_json_string()
}

#[test]
fn one_worker_drains_the_grid_and_assembles_identically() {
    let dir = temp_dir("one");
    let shared = dir.join("shared");
    let outcome = run_worker(&spec(), &shared, &WorkerOptions::new("w1")).unwrap();
    assert!(outcome.campaign_done);
    assert_eq!(outcome.completed, 8);
    assert_eq!(outcome.reclaimed, 0);

    let assembled = assemble(&spec(), &shared).unwrap();
    assert_eq!(assembled.report.to_json_string(), solo_report_json());
    assert_eq!(assembled.entries, 8, "no duplicated cell simulations");
    assert_eq!(assembled.duplicates, 0);
    assert_eq!(assembled.segments, vec![("journal.w1.jsonl".to_owned(), 8)]);

    // All leases were released on completion.
    assert!(LeaseDir::open(leases_dir(&shared)).unwrap().scan().is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Two live workers racing over band-granularity leases: each band is
/// simulated by exactly one of them, so the union covers the grid with
/// zero duplicated cells.
#[test]
fn two_concurrent_workers_share_the_grid_without_duplicates() {
    let dir = temp_dir("two");
    let shared = dir.join("shared");
    let (a, b) = std::thread::scope(|s| {
        let shared_a = shared.clone();
        let shared_b = shared.clone();
        let ta = s.spawn(move || {
            let mut opts = WorkerOptions::new("alpha");
            opts.threads = 2;
            opts.backoff = Duration::from_millis(20);
            run_worker(&spec(), &shared_a, &opts).unwrap()
        });
        let tb = s.spawn(move || {
            let mut opts = WorkerOptions::new("beta");
            opts.threads = 2;
            opts.backoff = Duration::from_millis(20);
            run_worker(&spec(), &shared_b, &opts).unwrap()
        });
        (ta.join().unwrap(), tb.join().unwrap())
    });
    assert!(a.campaign_done && b.campaign_done);
    assert_eq!(a.completed + b.completed, 8, "every cell done exactly once across workers");

    let assembled = assemble(&spec(), &shared).unwrap();
    assert_eq!(assembled.report.to_json_string(), solo_report_json());
    assert_eq!(assembled.entries, 8, "zero duplicated cell simulations");
    assert_eq!(assembled.duplicates, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Kill-a-worker-mid-band drill: a worker claims a workload band,
/// journals one of its four cells (a real result), dies mid-append on
/// the next (torn journal line) and never releases. While the band
/// lease is live every pending cell it covers reports leased; once it
/// expires they report stale; and a healer must reclaim the band with a
/// bumped epoch, **resume mid-band from the journaled cells** (re-running
/// only the seven missing ones), and assemble bytes identical to the
/// single-process run.
#[test]
fn crashed_worker_band_lease_expires_and_a_second_worker_resumes_mid_band() {
    let dir = temp_dir("crash");
    let shared = dir.join("shared");
    let spec = spec();
    let digest = spec.digest();
    std::fs::create_dir_all(&shared).unwrap();

    // The victim claims the whole xsbench.small band (4 cells), journals
    // its first cell's real result, then "crashes" mid-append on the
    // second — leaked claim, torn tail, no release.
    let campaign = Campaign::new(spec.clone());
    let grid = campaign.grid().unwrap();
    let victim_cell = grid.cells_of("xsbench.small").next().unwrap();
    let leases = LeaseDir::open(leases_dir(&shared)).unwrap();
    let band = band_lease_id("xsbench.small");
    let guard = match leases.claim(&band, "dead", Duration::from_secs(60)).unwrap() {
        Claim::Acquired(g) => g,
        Claim::Held(h) => panic!("fresh dir already held: {h:?}"),
    };
    std::mem::forget(guard); // crash: no release, no renewal
    {
        let trace = campaign.acquire("xsbench.small").unwrap();
        let cell = (grid.configs[victim_cell.config_index].1, victim_cell.policy);
        let result = trace.simulate_cells(&[cell], 1, 0).unwrap().remove(0);
        let mut j = Journal::open_segment(&shared, "dead", &spec.name, &digest).unwrap();
        j.record(&victim_cell.id, &result).unwrap();
        drop(j);
        let torn = "{\"cell\":\"xsbench.small|llc_x2|lru\",\"result\":{\"workload\":\"xs";
        let seg = Journal::segment_path(&shared, "dead");
        let mut text = std::fs::read_to_string(&seg).unwrap();
        text.push_str(torn);
        std::fs::write(&seg, text).unwrap();
    }

    // While the band lease is live, a peer cannot claim the band, and
    // watch counts every *pending* cell it covers as leased (3 of the
    // band's 4 — the journaled one is completed, not leased) and lists
    // the one live lease.
    let view = watch(&spec, &shared).unwrap();
    let st = &view.status;
    assert_eq!((st.completed, st.leased, st.stale), (1, 3, 0));
    assert_eq!(st.leases.len(), 1, "one live lease file covers the three cells");
    assert_eq!((st.leases[0].worker.as_str(), st.leases[0].cell.as_str()), ("dead", &*band));
    assert!(!st.leases[0].stale);
    let rendered = view.render();
    assert!(
        rendered.contains("\nlease: band:xsbench.small held by dead (epoch 1, age "),
        "{rendered}"
    );
    assert!(rendered.ends_with("s, ttl 60s)"), "{rendered}");
    assert!(matches!(
        leases.claim(&band, "other", Duration::from_secs(60)).unwrap(),
        Claim::Held(h) if h.worker == "dead"
    ));

    // The holder dies: backdate the band lease past its TTL.
    let lease_path = leases.path_for(&band);
    std::fs::File::options()
        .write(true)
        .open(&lease_path)
        .unwrap()
        .set_modified(SystemTime::now() - Duration::from_secs(3600))
        .unwrap();
    let view = watch(&spec, &shared).unwrap();
    let st = &view.status;
    assert_eq!((st.leased, st.stale), (0, 3), "expired band lease reported stale per cell");
    assert_eq!(st.leases.len(), 1, "one stale lease file covers the three cells");
    assert_eq!(st.leases[0].worker, "dead");
    assert_eq!(st.leases[0].cell, band);
    assert!(st.leases[0].stale);
    let rendered = view.render();
    assert!(
        rendered.contains("\nstale lease: band:xsbench.small held by dead (epoch 1"),
        "{rendered}"
    );

    // A healer worker reclaims the band and finishes everything — but
    // does NOT redo the victim's journaled cell.
    let healer = run_worker(&spec, &shared, &WorkerOptions::new("healer")).unwrap();
    assert!(healer.campaign_done);
    assert_eq!(healer.completed, 7, "mid-band resume: the journaled cell is not re-run");
    assert_eq!(healer.reclaimed, 1, "exactly the victim's band was reclaimed");

    let assembled = assemble(&spec, &shared).unwrap();
    assert_eq!(assembled.report.to_json_string(), solo_report_json());
    assert_eq!(assembled.duplicates, 0);
    // The dead worker's segment contributes its one journaled cell; the
    // torn tail is dropped.
    assert!(assembled.segments.contains(&("journal.dead.jsonl".to_owned(), 1)));
    assert!(assembled.segments.contains(&("journal.healer.jsonl".to_owned(), 7)));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every worker died: nothing writes to the shared directory, yet a
/// lease turns stale by the clock alone. Each watch poll re-collects
/// the whole directory, so it sees the dead band as stale.
#[test]
fn watch_recollects_a_silent_directory_and_sees_the_stale_lease() {
    let dir = temp_dir("watch_idle");
    let shared = dir.join("shared");
    let spec = spec();
    let leases = LeaseDir::open(leases_dir(&shared)).unwrap();
    plant_dead_lease(&leases, &band_lease_id("xsbench.small"), "dead");

    let view = watch(&spec, &shared).unwrap();
    assert_eq!((view.status.leased, view.status.stale), (0, 4), "the dead band shows stale");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn partial_grids_refuse_to_assemble_and_report_progress() {
    let dir = temp_dir("partial");
    let shared = dir.join("shared");
    let mut opts = WorkerOptions::new("limited");
    opts.max_cells = Some(3);
    let outcome = run_worker(&spec(), &shared, &opts).unwrap();
    assert_eq!(outcome.completed, 3);
    assert!(!outcome.campaign_done);

    let err = assemble(&spec(), &shared).unwrap_err();
    assert!(err.contains("5 of 8 cells"), "{err}");

    let view = watch(&spec(), &shared).unwrap();
    let st = &view.status;
    assert_eq!((st.cells_total, st.completed, st.unclaimed), (8, 3, 5));
    assert_eq!(view.workers.len(), 1);
    assert_eq!(view.workers[0].worker, "limited");
    assert_eq!(view.workers[0].completed, 3);
    let rendered = view.render();
    assert!(rendered.contains("3/8 cells"), "{rendered}");

    // A second worker whose limit exactly covers the remainder must
    // still notice the campaign finished under its last batch.
    let mut rest_opts = WorkerOptions::new("finisher");
    rest_opts.max_cells = Some(5);
    let rest = run_worker(&spec(), &shared, &rest_opts).unwrap();
    assert!(rest.campaign_done, "a cell limit that drains the grid reports completion");
    assert_eq!(rest.completed, 5);
    let assembled = assemble(&spec(), &shared).unwrap();
    assert_eq!(assembled.report.to_json_string(), solo_report_json());
    assert_eq!(assembled.entries, 8);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `max_cells` smaller than a band truncates the band: the worker
/// claims the whole workload's lease but simulates and journals only
/// its budget, releasing the rest for any peer. (An 8-cell single-
/// workload grid with a budget of 4 leaves half pending and unclaimed.)
#[test]
fn a_cell_budget_truncates_a_band_leaving_the_rest_pending() {
    let dir = temp_dir("cap");
    let shared = dir.join("shared");
    let spec = CampaignSpec::from_json_str(
        r#"{"name": "dist_cap", "scale": "quick", "base_config": "tiny",
            "llc_scales": [1, 2],
            "workloads": ["xsbench.small"],
            "policies": ["lru", "srrip", "drrip", "ship"]}"#,
    )
    .unwrap();
    let mut opts = WorkerOptions::new("capped");
    opts.max_cells = Some(4); // half the single 8-cell band
    let first = run_worker(&spec, &shared, &opts).unwrap();
    assert_eq!(first.completed, 4);
    // After the truncated band, half the grid is pending and fully
    // unclaimed — a peer starting now has cells to take immediately.
    let st = watch(&spec, &shared).unwrap().status;
    assert_eq!((st.completed, st.leased, st.unclaimed), (4, 0, 4));
    let rest = run_worker(&spec, &shared, &WorkerOptions::new("peer")).unwrap();
    assert!(rest.campaign_done);
    assert_eq!(rest.completed, 4);
    assert_eq!(
        assemble(&spec, &shared).unwrap().report.to_json_string(),
        Campaign::new(spec).threads(4).run().unwrap().report.to_json_string()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A worker that crashes *between* journaling its band and releasing
/// the lease leaves a stale lease covering only completed cells. It
/// blocks nothing, so watch must neither count it nor list it — the
/// summary line and the stale-lease listing can never contradict each
/// other. A stale lease file that is not a band of this grid is ignored
/// too, as a foreign spec's is.
#[test]
fn stale_leases_covering_only_completed_cells_are_not_reported() {
    let dir = temp_dir("stale_done");
    let shared = dir.join("shared");
    run_worker(&spec(), &shared, &WorkerOptions::new("w")).unwrap();

    let leases = LeaseDir::open(leases_dir(&shared)).unwrap();
    for id in [band_lease_id("xsbench.small"), "spec.stack|llc_x1|lru".to_owned()] {
        plant_dead_lease(&leases, &id, "crashed-late");
    }

    let view = watch(&spec(), &shared).unwrap();
    let st = &view.status;
    assert_eq!((st.completed, st.leased, st.stale, st.unclaimed), (8, 0, 0, 0));
    assert!(st.leases.is_empty(), "leases on completed cells must not be listed");
    let late = view.workers.iter().find(|w| w.worker == "crashed-late").unwrap();
    assert_eq!(late.claims, 1, "only the band lease is this grid's; the other file is ignored");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn conflicting_worker_results_fail_assembly_loudly() {
    let dir = temp_dir("conflict");
    let shared = dir.join("shared");
    run_worker(&spec(), &shared, &WorkerOptions::new("honest")).unwrap();

    // A corrupted (or mixed-binary) segment disagrees on one cell.
    let victim = "xsbench.small|llc_x1|lru";
    let seg = Journal::segment_path(&shared, "honest");
    let text = std::fs::read_to_string(&seg).unwrap();
    let line = text.lines().find(|l| l.contains(victim)).unwrap();
    // Prepending a digit to the cycle count keeps the JSON valid but
    // changes the result.
    let forged = line.replace("\"cycles\":", "\"cycles\":1");
    std::fs::write(
        Journal::segment_path(&shared, "liar"),
        format!("{}\n{}\n", text.lines().next().unwrap(), forged),
    )
    .unwrap();

    let err = assemble(&spec(), &shared).unwrap_err();
    assert!(err.contains("conflicting results"), "{err}");
    assert!(err.contains(victim), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checked_in_dist_spec_parses_and_matches_the_ci_smoke() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let spec = CampaignSpec::from_file(&root.join("campaigns/dist_quick.json")).unwrap();
    assert_eq!(spec.name, "dist_quick");
    assert_eq!(spec.expand_workloads().unwrap().len(), 3);
    assert_eq!(spec.policies.len(), 4);
    assert_eq!(spec.llc_scales, vec![1, 2]);
    // The CI dist-smoke step greps for this exact cell count.
    let grid = Campaign::new(spec).grid().unwrap();
    assert_eq!(grid.cells.len(), 24);
}

#[test]
fn worker_ids_sanitize_to_lease_and_segment_safe_names() {
    assert_eq!(sanitize_worker_id("host-1"), "host-1");
    assert_eq!(sanitize_worker_id("a b/c:d"), "a-b-c-d");
    assert_eq!(sanitize_worker_id(""), "worker");
}
