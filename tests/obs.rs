//! Observability integration tests: the pinned `ccsim_obs` schema
//! (version 2: manifest histograms carry precomputed quantile
//! summaries) for event logs and run manifests, exact concurrent
//! metric accounting, and the `campaign watch` determinism contract.
//!
//! The event-log and manifest goldens are **structural** (key order and
//! value kinds), since timings are machine-dependent; regenerate with
//! `CCSIM_BLESS=1 cargo test --test obs` after an intentional schema
//! change (and bump `ccsim_obs::OBS_SCHEMA_VERSION`). The watch
//! document, by contrast, is a pure function of the shared directory's
//! contents, so it is pinned **byte-identically** across re-polls.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use ccsim::campaign::{Campaign, CampaignSpec, Json};
use ccsim::dist::{run_worker, watch, WorkerOptions};
use ccsim::obs::{Manifest, RunMeta, Snapshot, HISTOGRAM_BUCKETS};

/// 2 workloads x 2 policies on the tiny platform: two bands, four
/// cells — enough for two workers to split meaningfully.
const SPEC: &str = r#"{
    "name": "obs_itest",
    "scale": "quick",
    "base_config": "tiny",
    "workloads": ["xsbench.small", "spec.stack"],
    "policies": ["lru", "srrip"]
}"#;

/// Manifests are baseline-deltas of the *process-global* metric catalog,
/// so two campaigns running at once in this binary would count each
/// other's bands. Every test that runs a campaign and then asserts exact
/// manifest counts holds this for its whole body.
static CAMPAIGN_METRICS: Mutex<()> = Mutex::new(());

fn exclusive_campaign_metrics() -> MutexGuard<'static, ()> {
    // A poisoned lock only means the other campaign test failed; the
    // guarded state is `()`, so there is nothing to find half-updated.
    CAMPAIGN_METRICS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn spec() -> CampaignSpec {
    CampaignSpec::from_json_str(SPEC).unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccsim_obs_itest_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// Structural signature of an obs JSON document: object keys in order
/// and scalar kinds. Arrays collapse to a single token — histogram
/// bucket lists vary with timing (and may be empty), so only their
/// presence is pinned.
fn shape(v: &Json) -> String {
    match v {
        Json::Null | Json::Num(_) => "num?".into(),
        Json::Bool(_) => "bool".into(),
        Json::Str(_) => "str".into(),
        Json::Arr(_) => "[..]".into(),
        Json::Obj(pairs) => {
            let fields: Vec<String> =
                pairs.iter().map(|(k, v)| format!("{k}:{}", shape(v))).collect();
            format!("{{{}}}", fields.join(","))
        }
    }
}

/// One line of the event-log signature: the event name (or `header`)
/// followed by its keys in order. Values are dropped — timings vary.
fn event_signature(line: &str) -> String {
    let doc = Json::parse(line).expect("event log lines must parse as JSON");
    let Json::Obj(pairs) = &doc else { panic!("event log lines must be objects: {line}") };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    let ev = doc.get("ev").and_then(Json::as_str).unwrap_or("header");
    format!("{ev}({})", keys.join(","))
}

fn compare_or_bless(fixture: &str, actual: &str, what: &str) {
    let path = fixture_path(fixture);
    if std::env::var_os("CCSIM_BLESS").is_some() {
        std::fs::write(&path, actual).unwrap();
    }
    let pinned = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("{fixture} missing; run with CCSIM_BLESS=1 to create it"));
    assert_eq!(
        actual, pinned,
        "{what} diverged from {fixture}; if intentional, bump OBS_SCHEMA_VERSION and rebless"
    );
}

#[test]
fn solo_run_emits_pinned_event_log_and_manifest_schemas() {
    let _exclusive = exclusive_campaign_metrics();
    let dir = temp_dir("golden");
    let outcome = Campaign::new(spec()).threads(2).obs_dir(&dir).run().unwrap();
    assert_eq!(outcome.report.cells.len(), 4);

    // Event log: header line + run_start + (band_start, band_done) per
    // band + run_end, every line parseable, schema-versioned header.
    let log = std::fs::read_to_string(dir.join("run.obs.jsonl")).unwrap();
    let lines: Vec<&str> = log.lines().collect();
    assert_eq!(lines.len(), 2 + 2 * 2 + 1, "header + run_start + 2 bands x 2 + run_end: {log}");
    let header = Json::parse(lines[0]).unwrap();
    assert_eq!(ccsim::obs::check_document(&header, "events"), Ok(()), "{}", lines[0]);
    let signature: String = lines.iter().map(|l| format!("{}\n", event_signature(l))).collect();
    compare_or_bless("obs_events_v1.txt", &signature, "the event-log line schema");

    // Manifest: pinned document shape (keys in order, scalar kinds),
    // plus the run accounting the watch dashboard consumes.
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert!(manifest.ends_with("}\n"));
    let doc = Json::parse(&manifest).unwrap();
    let read = Manifest::from_json(&doc).expect("the manifest reads back");
    assert_eq!((read.meta.worker.as_str(), read.cells_done, read.bands_done), ("(solo)", 4, 2));
    assert!(read.records_simulated > 0 && read.sim_wall_ns > 0);
    compare_or_bless(
        "obs_manifest_v2.json",
        &format!("{}\n", shape(&doc)),
        "the manifest document shape",
    );

    // The cell-sim histogram records one per-cell estimate per band (2
    // bands here); its quantile summary is ordered and non-trivial.
    let q = read.metrics.histogram("campaign_cell_sim_ns").unwrap().quantiles();
    assert_eq!(q.count, 2);
    assert!(0 < q.p50 && q.min <= q.p50 && q.p50 <= q.p99 && q.p99 <= q.max, "{q:?}");

    // A re-run into the same directory truncates and rewrites both
    // files with the same schema (fresh baseline, not accumulation).
    let again = Campaign::new(spec()).threads(2).obs_dir(&dir).run().unwrap();
    assert_eq!(again.report.cells.len(), 4);
    let doc2 = Json::parse(&std::fs::read_to_string(dir.join("manifest.json")).unwrap()).unwrap();
    assert_eq!(doc2.get("cells_done").and_then(Json::as_u64), Some(4));
    assert_eq!(shape(&doc2), shape(&doc));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A solo campaign's obs dir holds its `manifest.json`; `campaign watch`
/// over that dir aggregates it as a fleet of one, carrying the manifest's
/// throughput and cell-sim p99 unchanged.
#[test]
fn freshly_produced_v2_manifest_ingests_end_to_end() {
    let _exclusive = exclusive_campaign_metrics();
    let dir = temp_dir("v2_ingest");
    let spec = CampaignSpec::from_json_str(
        r#"{
            "name": "obs_ingest_itest",
            "scale": "quick",
            "base_config": "tiny",
            "workloads": ["xsbench.small"],
            "policies": ["lru", "srrip"]
        }"#,
    )
    .unwrap();
    Campaign::new(spec.clone())
        .threads(2)
        .journal(dir.join("journal.jsonl"))
        .obs_dir(&dir)
        .run()
        .unwrap();

    let text = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    let m = Manifest::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(m.meta.worker, "(solo)");
    assert_eq!(m.cells_done, 2);
    assert!(m.records_simulated > 0 && m.sim_wall_ns > 0);
    let q = m.metrics.histogram("campaign_cell_sim_ns").unwrap().quantiles();
    assert!(q.count > 0 && q.p50 <= q.p99 && q.min <= q.max);

    let view = Json::parse(&watch(&spec, &dir).unwrap().to_json()).unwrap();
    assert_eq!(ccsim::obs::check_document(&view, "watch"), Ok(()));
    let agg = view.get("aggregate").unwrap();
    let rps = ccsim::obs::records_per_sec(m.records_simulated, m.sim_wall_ns);
    assert_eq!(agg.get("records_per_sec").and_then(Json::as_u64), Some(rps));
    let p99 = agg.get("cell_sim_ns").and_then(|q| q.get("p99")).and_then(Json::as_u64);
    assert_eq!(p99, Some(q.p99));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_counter_and_histogram_increments_are_exact() {
    // ingest_* metrics are untouched by every other test in this binary
    // (no external traces anywhere), so exact deltas are assertable
    // even with tests running concurrently.
    ccsim::obs::set_enabled(true);
    let m = ccsim::obs::metrics();
    let count0 = m.ingest_records.get();
    let h_count0 = m.ingest_wall_ns.count();
    let h_sum0 = m.ingest_wall_ns.sum();
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                for _ in 0..10_000 {
                    m.ingest_records.add(3);
                    m.ingest_wall_ns.record(7);
                }
            });
        }
    });
    assert_eq!(m.ingest_records.get() - count0, 8 * 10_000 * 3, "sharded counter lost updates");
    assert_eq!(m.ingest_wall_ns.count() - h_count0, 8 * 10_000, "histogram lost samples");
    assert_eq!(m.ingest_wall_ns.sum() - h_sum0, 8 * 10_000 * 7, "histogram sum drifted");
}

/// `grid_frontend_records` counts each record once per distinct L1D/L2
/// geometry of a grid, `grid_records` once per cell: a 14-cell band
/// (the benchmark's `grid_band` shape) walks its upper levels once, not 14
/// times, and a second L1D/L2 geometry adds exactly one more walk.
#[test]
fn grid_walks_the_upper_levels_once_per_geometry() {
    use ccsim::core::{simulate_grid, SimConfig};
    use ccsim::policies::PolicyKind;

    let _exclusive = exclusive_campaign_metrics();
    ccsim::obs::set_enabled(true);
    let mut buf = ccsim::trace::TraceBuffer::new("counted");
    for i in 0..5_000u64 {
        buf.load(0x400, (i * 7 % 1_000) << 6, 8);
    }
    let trace = buf.finish();
    let n = trace.len() as u64;
    let m = ccsim::obs::metrics();
    let walks = |cells: &[(SimConfig, PolicyKind)]| {
        let (grid0, front0) = (m.grid_records.get(), m.grid_frontend_records.get());
        assert_eq!(simulate_grid(&trace, cells, 0).len(), cells.len());
        (m.grid_records.get() - grid0, m.grid_frontend_records.get() - front0)
    };

    let policies = std::iter::once(PolicyKind::Lru).chain(PolicyKind::PAPER_POLICIES);
    let band: Vec<(SimConfig, PolicyKind)> = policies
        .flat_map(|p| [1, 4].map(|scale| (SimConfig::tiny().with_llc_scale(scale), p)))
        .collect();
    assert_eq!(band.len(), 14);
    assert_eq!(walks(&band), (14 * n, n), "(grid records, front-end records)");

    // L2 latency is each cell's own timing: it shares the tiny front end.
    let (mut bigger_l2, mut slower_l2) = (SimConfig::tiny(), SimConfig::tiny());
    bigger_l2.l2.sets *= 2;
    slower_l2.l2.latency += 10;
    let two_geometries = [
        band[0],
        (bigger_l2, PolicyKind::Lru),
        band[1],
        (bigger_l2, PolicyKind::Ship),
        (slower_l2, PolicyKind::Lru),
    ];
    assert_eq!(walks(&two_geometries), (5 * n, 2 * n), "(grid records, front-end records)");
}

/// `grid_cell_events` counts the records each cell times one at a time:
/// its L1D misses and its L1D load hits on lines an RFO filled. Fifty laps
/// over 100 blocks that fit the Cascade Lake L1D, the first ten of them
/// stored on the first lap, cost each cell 100 misses plus 49 × 10 loads
/// on RFO-filled lines, out of 5,000 records.
#[test]
fn grid_cell_events_count_the_timed_records() {
    use ccsim::core::{simulate_grid, SimConfig};
    use ccsim::policies::PolicyKind;

    let _exclusive = exclusive_campaign_metrics();
    ccsim::obs::set_enabled(true);
    let mut buf = ccsim::trace::TraceBuffer::new("laps");
    for lap in 0..50u64 {
        for block in 0..100u64 {
            if lap == 0 && block < 10 {
                buf.store(0x404, block << 6, 8);
            } else {
                buf.load(0x400, block << 6, 8);
            }
        }
    }
    let trace = buf.finish();
    let cells =
        [1, 4].map(|scale| (SimConfig::cascade_lake().with_llc_scale(scale), PolicyKind::Lru));
    let m = ccsim::obs::metrics();
    let (records0, events0) = (m.grid_records.get(), m.grid_cell_events.get());
    simulate_grid(&trace, &cells, 0);
    let counted = (m.grid_records.get() - records0, m.grid_cell_events.get() - events0);
    assert_eq!(counted, (2 * 5_000, 2 * (100 + 49 * 10)), "(grid records, cell events)");
}

#[test]
fn watch_json_over_a_two_worker_dir_is_byte_identical_across_polls() {
    let _exclusive = exclusive_campaign_metrics();
    let dir = temp_dir("watch");
    let shared = dir.join("shared");
    let spec = spec();

    // Two *sequential* workers so the division of labor is fixed: w1
    // stops after one band (cell limit), w2 drains the rest.
    let mut w1 = WorkerOptions::new("w1");
    w1.max_cells = Some(2);
    w1.threads = 2;
    let first = run_worker(&spec, &shared, &w1).unwrap();
    assert!(!first.campaign_done);
    assert_eq!(first.completed, 2);
    let second = run_worker(&spec, &shared, &WorkerOptions::new("w2")).unwrap();
    assert!(second.campaign_done);
    assert_eq!(second.completed, 2);
    for f in ["obs.w1.jsonl", "manifest.w1.json", "obs.w2.jsonl", "manifest.w2.json"] {
        assert!(shared.join(f).exists(), "worker telemetry file {f} missing");
    }
    // One band step: a worker's band events are the solo log's pinned
    // lines, between its own `claim` and `run_end`.
    let log = std::fs::read_to_string(shared.join("obs.w1.jsonl")).unwrap();
    let signature: Vec<String> = log.lines().map(event_signature).collect();
    let pinned = std::fs::read_to_string(fixture_path("obs_events_v1.txt")).unwrap();
    let band: Vec<&str> = pinned.lines().filter(|l| l.starts_with("band_")).take(2).collect();
    assert_eq!(signature[2], "claim(ev,t_ns,workload,cells,epoch)", "{log}");
    assert_eq!(signature[3..5], band[..], "{log}");

    // The watch document is a pure function of the directory: two
    // collects of it produce identical bytes.
    let view = watch(&spec, &shared).unwrap();
    let json = view.to_json();
    assert_eq!(watch(&spec, &shared).unwrap().to_json(), json, "re-poll diverged");

    assert!(view.done());
    let doc = Json::parse(&json).unwrap();
    assert_eq!(ccsim::obs::check_document(&doc, "watch"), Ok(()), "{json}");
    let cells = doc.get("cells").unwrap();
    assert_eq!(cells.get("total").and_then(Json::as_u64), Some(4));
    assert_eq!(cells.get("completed").and_then(Json::as_u64), Some(4));
    assert_eq!(cells.get("leased").and_then(Json::as_u64), Some(0));
    let workers = doc.get("workers").unwrap().as_array().unwrap();
    assert_eq!(workers.len(), 2);
    for w in workers {
        assert_eq!(w.get("manifest"), Some(&Json::Bool(true)));
        assert_eq!(w.get("completed").and_then(Json::as_u64), Some(2));
        assert_eq!(w.get("cells_done").and_then(Json::as_u64), Some(2));
        assert!(w.get("records_per_sec").and_then(Json::as_u64).unwrap() > 0);
    }
    let agg = doc.get("aggregate").unwrap();
    assert!(agg.get("records_simulated").and_then(Json::as_u64).unwrap() > 0);
    assert!(agg.get("records_per_sec").and_then(Json::as_u64).unwrap() > 0);
    assert!(agg.get("mean_cell_sim_ns").and_then(Json::as_u64).unwrap() > 0);
    // Fleet-wide cell-sim quantiles, summed over both workers' buckets:
    // one per-cell sample per band, one band per worker here, ordered
    // p50 <= p99.
    let cs = agg.get("cell_sim_ns").expect("watch aggregate carries cell_sim_ns quantiles");
    assert_eq!(cs.get("count").and_then(Json::as_u64), Some(2));
    let (p50, p99) = (
        cs.get("p50").and_then(Json::as_u64).unwrap(),
        cs.get("p99").and_then(Json::as_u64).unwrap(),
    );
    assert!(p50 > 0 && p50 <= p99, "p50 {p50} / p99 {p99}");
    assert_eq!(agg.get("eta_seconds").and_then(Json::as_u64), Some(0), "grid is drained");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Manifests are files in a shared directory: anyone can plant one.
/// Every cell-sim bucket at 2^53 (the largest integer JSON carries)
/// makes the sample count 65 x 2^53, whose product with a percentile
/// overflows `u64`: the summary must widen, not wrap or panic, from the
/// manifest reader through `watch --once --json`.
#[test]
fn planted_histogram_counts_saturate_from_manifest_to_watch() {
    let dir = temp_dir("planted");
    let spec = CampaignSpec::from_json_str(
        r#"{"name": "planted", "base_config": "tiny",
            "workloads": ["xsbench.small"], "policies": ["lru"]}"#,
    )
    .unwrap();
    let meta =
        RunMeta { campaign: spec.name.clone(), spec_digest: spec.digest(), worker: "evil".into() };
    let mut planted = Manifest { meta, metrics: Snapshot::take(), ..Manifest::default() };
    let cell_sim =
        planted.metrics.histograms.iter_mut().find(|(n, _)| *n == "campaign_cell_sim_ns");
    cell_sim.unwrap().1.buckets = [Json::MAX_INT; HISTOGRAM_BUCKETS];
    let text = format!("{}\n", planted.to_json());
    std::fs::write(dir.join("manifest.evil.json"), &text).unwrap();

    let read = Manifest::from_json(&Json::parse(&text).unwrap()).unwrap();
    let q = read.metrics.histogram("campaign_cell_sim_ns").unwrap().quantiles();
    assert_eq!(q.count, 65 << 53);
    assert_eq!((q.p50, q.p90, q.p99), ((1 << 32) - 1, (1 << 58) - 1, u64::MAX));

    let doc = Json::parse(&watch(&spec, &dir).unwrap().to_json()).unwrap();
    let fleet = doc.get("aggregate").and_then(|a| a.get("cell_sim_ns")).unwrap();
    let field = |name| fleet.get(name).and_then(Json::as_u64);
    assert_eq!((field("p50"), field("count")), (Some((1 << 32) - 1), Some(Json::MAX_INT)));
    assert_eq!(field("p99"), Some(Json::MAX_INT), "clamped, not wrapped");
    std::fs::remove_dir_all(&dir).unwrap();
}
