//! Trends integration tests: the pinned `ccsim_trends` ledger-line,
//! table and check-verdict formats, rolling-median gate behavior over
//! a realistic multi-source history, torn-tail recovery with
//! byte-preserving gc, a real campaign's manifest reaching the ledger
//! through the watch document, and a hostile manifest's way there.
//!
//! Unlike the obs goldens, every trends artifact is a pure function of
//! its inputs — no clocks, no timing — so all three fixtures are
//! pinned **byte-identically**. Regenerate with
//! `CCSIM_BLESS=1 cargo test --test trends` after an intentional
//! format change (and bump the relevant schema constant).

use std::path::PathBuf;

use ccsim::campaign::{Campaign, CampaignSpec, Json};
use ccsim::dist::watch;
use ccsim::obs::{Manifest, RunMeta, Snapshot, HISTOGRAM_BUCKETS};
use ccsim::trends::{render_table, run_check, watch_series, CheckOptions, Ledger, TrendEntry};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccsim_trends_itest_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
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
        "{what} diverged from {fixture}; if intentional, bump the schema constant and rebless"
    );
}

/// One fully populated synthetic revision, as `trends record` writes
/// it from a traced smoke bench document (two workloads x two units), a
/// two-worker watch aggregate and a clean golden diff. `step` drifts
/// throughput mildly upward and overhead mildly upward, both inside the
/// default gate budgets.
fn revision(step: u64) -> TrendEntry {
    let rps = 1_200_000.0 + step as f64 * 10_000.0;
    let mut e = TrendEntry::new(
        &format!("feedc0de{step:08}"),
        "main",
        &format!("{}", 1_754_600_000 + step * 3600),
    );
    let series = [
        ("bench.smoke/llc_thrash/median_rps", (rps + rps * 0.98) / 2.0),
        ("bench.smoke/l1_hot/median_rps", (rps * 3.0 + rps * 3.1) / 2.0),
        ("bench.smoke/obs_overhead_pct", 1.0 + step as f64 * 0.05),
        ("bench.smoke/wall/decode_pct", 10.0),
        ("bench.smoke/wall/simulate_pct", 80.0),
        ("bench.smoke/wall/report_pct", 10.0),
        ("fleet/records_per_sec", 2_500_000.0),
        ("fleet/cell_sim_p99_ns", 8_589_934_591.0),
        ("diff/max_abs_mpki_delta", 0.0),
    ];
    e.series = series.iter().map(|&(name, v)| (name.to_owned(), v)).collect();
    e
}

/// Sets series `name` of `e`, which must have recorded it.
fn set(e: &mut TrendEntry, name: &str, f: impl Fn(f64) -> f64) {
    let slot = e.series.iter_mut().find(|(n, _)| n == name).expect(name);
    slot.1 = f(slot.1);
}

fn history() -> Vec<TrendEntry> {
    (0..5).map(revision).collect()
}

#[test]
fn golden_ledger_pins_the_line_format_and_round_trips() {
    let dir = temp_dir("ledger");
    let path = dir.join("trends.jsonl");
    for e in history() {
        Ledger::append(&path, &e).unwrap();
    }
    let text = std::fs::read_to_string(&path).unwrap();
    compare_or_bless("trends_ledger_v2.jsonl", &text, "the ledger line format");

    // Loading the pinned fixture reconstructs the exact in-memory
    // entries: nothing is lost or reinterpreted across the line format.
    let ledger = Ledger::load(&fixture_path("trends_ledger_v2.jsonl")).unwrap();
    assert!(!ledger.torn_tail());
    assert_eq!(ledger.entries, history());
    assert_eq!(ledger.entries[0].short_rev(), "feedc0de00");
    assert_eq!(ledger.entries[4].value("fleet/records_per_sec"), Some(2_500_000.0));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn golden_table_is_byte_deterministic() {
    let entries = history();
    let table = render_table(&entries);
    assert_eq!(render_table(&entries), table, "same slice, same bytes");
    compare_or_bless("trends_table_v1.txt", &table, "the trend table");
    // Every gated series plus the wall-split rows render a column per
    // revision and a sparkline.
    // (The synthetic history is `quick`, so its bench rows live under
    // `bench.smoke/`.)
    for row in [
        "bench.smoke/llc_thrash/median_rps",
        "bench.smoke/l1_hot/median_rps",
        "bench.smoke/obs_overhead_pct",
        "fleet/records_per_sec",
        "fleet/cell_sim_p99_ns",
        "diff/max_abs_mpki_delta",
        "bench.smoke/wall/simulate_pct",
    ] {
        assert!(table.contains(row), "missing {row} in:\n{table}");
    }
    assert!(table.contains("feedc0de00 (main)"), "{table}");

    // The committed seed -> soa history predates `benchmark/`; its two
    // lines are in the current schema, and the seed, measured without
    // an overhead rung, shows no overhead rather than 0 %.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("BENCH_history.jsonl");
    let ledger = Ledger::load(&path).unwrap();
    let labels: Vec<&str> = ledger.entries.iter().map(|e| e.label.as_str()).collect();
    assert_eq!(labels, ["boxed_dyn_v0", "soa_tags_v2"]);
    let table = render_table(&ledger.entries);
    let row = |name: &str| {
        let line = table.lines().find(|l| l.starts_with(name)).unwrap();
        line.split_whitespace().skip(1).collect::<Vec<_>>()
    };
    assert_eq!(row("bench/llc_thrash/median_rps"), ["1.45M", "4.72M", "▁█"], "{table}");
    assert_eq!(row("bench/obs_overhead_pct"), ["-", "-3.71", "·▄"], "{table}");
}

#[test]
fn golden_check_verdict_pins_the_schema_and_passes_on_mild_drift() {
    let verdict = run_check(&history(), &CheckOptions::default()).unwrap();
    assert!(verdict.pass(), "mild upward drift is inside every budget");
    let json = verdict.to_json().to_pretty();
    compare_or_bless("trends_check_v1.json", &json, "the check verdict document");
    let doc = Json::parse(&json).unwrap();
    assert_eq!(doc.get("ccsim_trends_check").and_then(Json::as_u64), Some(1));
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("pass"));
    assert_eq!(doc.get("rev").and_then(Json::as_str), Some("feedc0de00000004"));
    let series = doc.get("series").unwrap().as_array().unwrap();
    assert_eq!(series.len(), 6, "4 bench-suite/overhead + 2 fleet + 1 diff minus none");
    for s in series {
        assert_eq!(s.get("status").and_then(Json::as_str), Some("pass"), "{json}");
    }
}

#[test]
fn gate_fails_on_throughput_collapse_and_latency_spike() {
    // A 20% throughput drop on one bench suite: that series (and only
    // the bench series it hits) fails.
    let mut entries = history();
    let mut bad = revision(5);
    set(&mut bad, "bench.smoke/llc_thrash/median_rps", |v| v * 0.8);
    entries.push(bad);
    let verdict = run_check(&entries, &CheckOptions::default()).unwrap();
    assert!(!verdict.pass());
    let failed: Vec<&str> =
        verdict.series.iter().filter(|s| s.status == "fail").map(|s| s.name.as_str()).collect();
    assert_eq!(failed, ["bench.smoke/llc_thrash/median_rps"]);

    // A fleet per-cell p99 spike past the 25% rise budget fails the
    // latency series.
    let mut entries = history();
    let mut slow = revision(5);
    set(&mut slow, "fleet/cell_sim_p99_ns", |_| 17_179_869_183.0);
    entries.push(slow);
    let verdict = run_check(&entries, &CheckOptions::default()).unwrap();
    let p99 = verdict.series.iter().find(|s| s.name == "fleet/cell_sim_p99_ns").unwrap();
    assert_eq!(p99.status, "fail", "2x the median p99");

    // An entry recorded with no sources at all reports no_data
    // everywhere and does not fail the gate.
    let mut entries = history();
    entries.push(TrendEntry::new("feedc0de00000005", "main", "0"));
    let verdict = run_check(&entries, &CheckOptions::default()).unwrap();
    assert!(verdict.pass());
    assert!(verdict.series.iter().all(|s| s.status == "no_data"));

    // Two entries only: one prior value is below the default
    // min_history, so relative series bootstrap instead of failing.
    let verdict = run_check(&history()[..2], &CheckOptions::default()).unwrap();
    assert!(verdict.pass());
    let rps = verdict.series.iter().find(|s| s.name == "fleet/records_per_sec").unwrap();
    assert_eq!(rps.status, "insufficient_history");
}

#[test]
fn torn_tail_recovers_and_gc_preserves_surviving_bytes() {
    let dir = temp_dir("torn");
    let path = dir.join("trends.jsonl");
    let pinned = std::fs::read_to_string(fixture_path("trends_ledger_v2.jsonl")).unwrap();
    // A recorder died mid-append after the pinned history.
    std::fs::write(&path, format!("{pinned}{{\"ccsim_trends\":2,\"rev\":\"fe")).unwrap();

    let ledger = Ledger::load(&path).unwrap();
    assert!(ledger.torn_tail(), "partial final line is a torn append");
    assert_eq!(ledger.entries, history(), "intact prefix fully recovered");

    // gc drops the torn tail and keeps survivors byte-for-byte, so the
    // compacted file equals the pinned fixture again.
    let dropped = Ledger::gc(&path, 5).unwrap();
    assert_eq!(dropped, 1, "just the torn tail");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), pinned);

    // Appending after recovery continues the line protocol cleanly.
    Ledger::append(&path, &revision(5)).unwrap();
    let ledger = Ledger::load(&path).unwrap();
    assert!(!ledger.torn_tail());
    assert_eq!(ledger.entries.len(), 6);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A solo campaign's obs dir holds its `manifest.json`; the watch
/// document over that dir is how its numbers reach the ledger.
#[test]
fn freshly_produced_v2_manifest_ingests_end_to_end() {
    let dir = temp_dir("v2_ingest");
    let spec = CampaignSpec::from_json_str(
        r#"{
            "name": "trends_itest",
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

    let watch_doc = Json::parse(&watch(&spec, &dir).unwrap().to_json()).unwrap();
    let series = watch_series(&watch_doc).unwrap();
    assert_eq!(
        series,
        [
            (
                "fleet/records_per_sec".to_owned(),
                ccsim::obs::records_per_sec(m.records_simulated, m.sim_wall_ns) as f64
            ),
            ("fleet/cell_sim_p99_ns".to_owned(), q.p99 as f64),
        ]
    );

    // Record it and gate a single-entry ledger: relative series report
    // insufficient history, nothing fails.
    let path = dir.join("trends.jsonl");
    let mut e = TrendEntry::new("e2e0000001", "itest", "0");
    e.series = series;
    Ledger::append(&path, &e).unwrap();
    let ledger = Ledger::load(&path).unwrap();
    assert_eq!(ledger.entries, [e]);
    let verdict = run_check(&ledger.entries, &CheckOptions::default()).unwrap();
    assert!(verdict.pass());
    assert!(verdict.series.iter().all(|s| s.status == "insufficient_history"));
    assert!(render_table(ledger.last_n(10)).contains("fleet/records_per_sec"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Manifests are files in a shared directory: anyone can plant one.
/// Every cell-sim bucket at 2^53 (the largest integer JSON carries)
/// makes the sample count 65 x 2^53, whose product with a percentile
/// overflows `u64`: the summary must widen, not wrap or panic, from the
/// manifest reader through `watch --once --json` into a ledger line.
#[test]
fn planted_histogram_counts_saturate_from_manifest_to_watch_to_ledger() {
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

    let doc = Json::parse(&text).unwrap();
    let read = Manifest::from_json(&doc).unwrap();
    let q = read.metrics.histogram("campaign_cell_sim_ns").unwrap().quantiles();
    assert_eq!(q.count, 65 << 53);
    assert_eq!((q.p50, q.p90, q.p99), ((1 << 32) - 1, (1 << 58) - 1, u64::MAX));

    let watch_doc = Json::parse(&watch(&spec, &dir).unwrap().to_json()).unwrap();
    let fleet = watch_doc.get("aggregate").and_then(|a| a.get("cell_sim_ns")).unwrap();
    let field = |name| fleet.get(name).and_then(Json::as_u64);
    assert_eq!((field("p50"), field("count")), (Some((1 << 32) - 1), Some(Json::MAX_INT)));

    let mut e = TrendEntry::new("feedface", "itest", "0");
    e.series = watch_series(&watch_doc).unwrap();
    assert_eq!(
        e.value("fleet/cell_sim_p99_ns"),
        Some(Json::MAX_INT as f64),
        "clamped, not wrapped"
    );
    let path = dir.join("trends.jsonl");
    Ledger::append(&path, &e).unwrap();
    assert_eq!(Ledger::load(&path).unwrap().entries, [e]);
    std::fs::remove_dir_all(&dir).unwrap();
}
