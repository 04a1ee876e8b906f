//! Campaign subsystem integration tests: determinism, trace caching,
//! journal resume, and the pinned JSON report schema.
//!
//! The determinism contract mirrors `tests/determinism.rs` one level up:
//! the same spec and seed must yield a *byte-identical* JSON report, and
//! a campaign that is killed part-way and resumed from its journal must
//! produce the same bytes as an uninterrupted run.

use ccsim::campaign::{Campaign, CampaignReport, CampaignSpec, RawCell, TraceCache};
use ccsim::core::{CacheStats, DramStats};
use ccsim::prelude::*;

use std::path::{Path, PathBuf};

/// A small but non-trivial grid: 2 workloads x 2 policies x 2 LLC sizes,
/// on the tiny platform so simulation stays fast in debug builds.
const SPEC: &str = r#"{
    "name": "itest",
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
    let dir =
        std::env::temp_dir().join(format!("ccsim_campaign_itest_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn same_spec_and_seed_yield_byte_identical_reports() {
    let a = Campaign::new(spec()).threads(4).run().unwrap();
    let b = Campaign::new(spec()).threads(1).run().unwrap();
    assert_eq!(
        a.report.to_json_string(),
        b.report.to_json_string(),
        "thread count must not leak into the report"
    );
    assert_eq!(a.report.to_csv(), b.report.to_csv());
    assert_eq!(a.cells_total, 8);
}

#[test]
fn second_run_hits_the_trace_cache_without_regenerating() {
    let dir = temp_dir("cache");
    let first = Campaign::new(spec())
        .threads(4)
        .cache(TraceCache::new(dir.join("traces")).unwrap())
        .run()
        .unwrap();
    assert_eq!((first.cache_hits, first.cache_misses), (0, 2), "one miss per workload");

    // Poison-pill check: cached traces must be read, not regenerated. We
    // prove it by counting cache files and by the hit/miss counters of a
    // second run over the same cache directory.
    let cctr_files = std::fs::read_dir(dir.join("traces"))
        .unwrap()
        .filter(|e| e.as_ref().unwrap().path().extension().is_some_and(|x| x == "cctr"))
        .count();
    assert_eq!(cctr_files, 2);

    let second = Campaign::new(spec())
        .threads(4)
        .cache(TraceCache::new(dir.join("traces")).unwrap())
        .run()
        .unwrap();
    assert_eq!((second.cache_hits, second.cache_misses), (2, 0), "no regeneration");
    assert_eq!(first.report.to_json_string(), second.report.to_json_string());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A damaged synthetic cache entry is regenerated, not replayed: a
/// flipped kind byte (header and length intact, so only the record scan
/// sees it) and, separately, a truncation each cost the next run one
/// miss, and the report does not change by a byte.
#[test]
fn damaged_synthetic_cache_entries_are_regenerated() {
    let dir = temp_dir("damaged");
    let run = || {
        Campaign::new(spec())
            .threads(2)
            .cache(TraceCache::new(dir.join("traces")).unwrap())
            .run()
            .unwrap()
    };
    let reference = run().report.to_json_string();
    let cache = TraceCache::new(dir.join("traces")).unwrap();
    let entry = cache.path_for("spec.stack", spec().scale, spec().seed);
    let good = std::fs::read(&entry).unwrap();
    let mut flipped = good.clone();
    let kind_byte = good.len() - 20 + 17; // the last record's
    flipped[kind_byte] = 7;
    for (what, bytes) in [("kind byte", flipped), ("truncated", good[..good.len() - 9].to_vec())] {
        std::fs::write(&entry, bytes).unwrap();
        let healed = run();
        assert_eq!((healed.cache_hits, healed.cache_misses), (1, 1), "{what}");
        assert_eq!(healed.report.to_json_string(), reference, "{what}");
        assert!(std::fs::read(&entry).unwrap() == good, "{what}: entry repaired");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn killed_then_resumed_campaign_reproduces_the_uninterrupted_report() {
    let dir = temp_dir("resume");
    let journal = dir.join("journal.jsonl");
    let uninterrupted = Campaign::new(spec()).threads(2).run().unwrap();

    // Run once with a journal to produce the full cell log...
    let full = Campaign::new(spec()).threads(2).journal(&journal).run().unwrap();
    assert_eq!(full.cells_resumed, 0);
    let text = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1 + 8, "header plus one line per cell");

    // ...then simulate a kill after three completed cells plus a torn
    // fourth line (the write the "kill" interrupted).
    let half: String = lines[..4].join("\n") + "\n" + &lines[4][..lines[4].len() / 2];
    std::fs::write(&journal, half).unwrap();

    let resumed = Campaign::new(spec()).threads(2).journal(&journal).run().unwrap();
    assert_eq!(resumed.cells_resumed, 3, "three journaled cells skip simulation");
    assert_eq!(
        resumed.report.to_json_string(),
        uninterrupted.report.to_json_string(),
        "resume must not change a single byte of the report"
    );
    assert_eq!(resumed.report.to_csv(), uninterrupted.report.to_csv());

    // A third run resumes everything and simulates nothing.
    let third = Campaign::new(spec()).threads(2).journal(&journal).run().unwrap();
    assert_eq!(third.cells_resumed, 8);
    assert_eq!(third.report.to_json_string(), uninterrupted.report.to_json_string());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every figure grid is checked-in data: each file under `campaigns/`
/// parses, is named after its file, and the paper's two grids keep
/// their sizes (Figure 2: the 35 GAP workloads under LRU; Figure 3: all
/// 51 workloads under LRU plus the six policies).
#[test]
fn checked_in_specs_parse_and_pin_their_grid_sizes() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut cells = std::collections::BTreeMap::new();
    for entry in std::fs::read_dir(root.join("campaigns")).unwrap() {
        let path = entry.unwrap().path();
        let spec = CampaignSpec::from_file(&path).unwrap();
        assert_eq!(Some(spec.name.as_str()), path.file_stem().and_then(|s| s.to_str()));
        cells.insert(spec.name.clone(), Campaign::new(spec).grid().unwrap().cells.len());
    }
    assert!(cells.len() >= 8, "{cells:?}");
    assert_eq!((cells["fig2"], cells["fig2_quick"]), (35, 35));
    assert_eq!((cells["fig3"], cells["fig3_quick"]), (357, 357));
    assert_eq!((cells["ext_llc_sweep"], cells["ext_llc_sweep_quick"]), (5 * 4, 5 * 4));

    // The ingest demo spec references the checked-in ChampSim fixture by
    // a repo-root-relative path; keep the selector and fixture in sync.
    let ingest =
        CampaignSpec::from_file(&root.join("campaigns/ingest_fixture_quick.json")).unwrap();
    let workloads = ingest.expand_workloads().unwrap();
    assert_eq!(workloads[0], "trace:tests/fixtures/ingest_v1.champsim");
    assert!(root.join("tests/fixtures/ingest_v1.champsim").exists());
}

/// The report printer picks the paper's view from the grid alone: LRU
/// only is Figure 2's per-level MPKI table with its `mean` row, LRU plus
/// other policies is Figure 3's suite table, no LRU baseline is
/// neither — one table per config variant either way.
#[test]
fn paper_views_follow_the_swept_policies() {
    let views = |policies: &str| {
        let spec = CampaignSpec::from_json_str(&format!(
            r#"{{"name": "views", "base_config": "tiny", "llc_scales": [1, 2],
                 "workloads": ["xsbench.small", "spec.stack"], "policies": {policies}}}"#
        ))
        .unwrap();
        let views = Campaign::new(spec).threads(4).run().unwrap().report.paper_views();
        views.into_iter().map(|(title, table)| (title, table.to_csv())).collect::<Vec<_>>()
    };
    let mpki = views(r#"["lru"]"#);
    let speedup = views(r#"["srrip", "lru", "ship"]"#);
    assert_eq!((mpki.len(), speedup.len()), (2, 2), "one table per LLC scale");
    for (i, config) in ["llc_x1", "llc_x2"].into_iter().enumerate() {
        let (title, csv) = &mpki[i];
        assert!(title.starts_with(config) && title.contains("MPKI"), "{title}");
        assert!(csv.starts_with("workload,L1D,L2C,LLC,dram_reach_%,ipc\nxsbench.small,"), "{csv}");
        assert!(csv.lines().nth(3).unwrap().starts_with("mean,"), "{csv}");
        let (title, csv) = &speedup[i];
        assert!(title.starts_with(config) && title.contains("speed-up"), "{title}");
        assert!(csv.starts_with("suite,srrip,ship\nSPEC,") && csv.contains("\nXSBench,"), "{csv}");
    }
    assert!(views(r#"["srrip", "ship"]"#).is_empty(), "no LRU baseline, no paper view");
}

/// Pins the v2 JSON report schema byte-for-byte, the way
/// `tests/golden_trace.rs` pins the CCTR format: the report below is
/// assembled from hand-written counters (no simulation), so this fixture
/// only changes when the *schema* changes. If it does, bump
/// `REPORT_SCHEMA_VERSION` and regenerate with
/// `CCSIM_BLESS=1 cargo test --test campaign`.
#[test]
fn golden_report_schema_fixture() {
    let spec = CampaignSpec::from_json_str(
        r#"{
            "name": "golden",
            "seed": 7,
            "scale": "quick",
            "base_config": "tiny",
            "llc_scales": [1],
            "workloads": ["bfs.kron", "spec.stream"],
            "policies": ["lru", "srrip"]
        }"#,
    )
    .unwrap();

    let mk = |workload: &str, policy: &str, cycles: u64, llc_misses: u64| RawCell {
        config: "llc_x1".to_owned(),
        llc_scale: 1,
        result: SimResult {
            workload: workload.to_owned(),
            policy: policy.to_owned(),
            instructions: 200_000,
            cycles,
            l1d: CacheStats {
                demand_accesses: 50_000,
                demand_hits: 40_000,
                demand_misses: 10_000,
                mshr_merges: 1_200,
                writeback_accesses: 0,
                writeback_hits: 0,
                fills: 10_000,
                evictions: 9_488,
                writebacks_out: 3_000,
                bypasses: 0,
                writeback_bypass_overrides: 0,
            },
            l2: CacheStats {
                demand_accesses: 10_000,
                demand_hits: 2_500,
                demand_misses: 7_500,
                mshr_merges: 800,
                writeback_accesses: 3_000,
                writeback_hits: 2_900,
                fills: 7_500,
                evictions: 7_100,
                writebacks_out: 1_000,
                bypasses: 0,
                writeback_bypass_overrides: 0,
            },
            llc: CacheStats {
                demand_accesses: 7_500,
                demand_hits: 7_500 - llc_misses,
                demand_misses: llc_misses,
                mshr_merges: 40,
                writeback_accesses: 1_000,
                writeback_hits: 950,
                fills: llc_misses,
                evictions: llc_misses.saturating_sub(352),
                writebacks_out: 500,
                bypasses: 12,
                writeback_bypass_overrides: 2,
            },
            dram: DramStats {
                reads: llc_misses,
                writes: 500,
                row_hits: llc_misses / 2,
                row_empty: llc_misses / 4,
                row_conflicts: llc_misses / 4,
                queue_cycles: 31_415,
            },
            llc_diag: format!("{policy}: diag"),
        },
    };

    let report = CampaignReport::build(
        &spec,
        vec![
            mk("bfs.kron", "lru", 400_000, 6_000),
            mk("bfs.kron", "srrip", 380_000, 5_400),
            mk("spec.stream", "lru", 300_000, 7_000),
            mk("spec.stream", "srrip", 290_000, 6_200),
        ],
    );
    let rendered = report.to_json_string();

    let fixture_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/campaign_report_v2.json");
    if std::env::var_os("CCSIM_BLESS").is_some() {
        std::fs::write(&fixture_path, &rendered).unwrap();
    }
    let fixture = std::fs::read_to_string(&fixture_path)
        .expect("fixture missing; run with CCSIM_BLESS=1 to create it");
    assert_eq!(
        rendered, fixture,
        "the v2 report schema changed; bump REPORT_SCHEMA_VERSION and \
         add a new fixture rather than editing this one"
    );

    // The fixture is also valid JSON that round-trips through the parser.
    let parsed = ccsim::campaign::Json::parse(&fixture).unwrap();
    assert_eq!(parsed.get("schema_version").and_then(ccsim::campaign::Json::as_u64), Some(2));
    assert_eq!(parsed.get("cells").unwrap().as_array().unwrap().len(), 4);
}

#[test]
fn report_cells_follow_spec_order_and_carry_speedups() {
    let outcome = Campaign::new(spec()).threads(4).run().unwrap();
    let cells = &outcome.report.cells;
    assert_eq!(cells.len(), 8);
    // Workload-major, config-middle, policy-minor — the spec grid order.
    assert_eq!(cells[0].workload, "xsbench.small");
    assert_eq!((cells[0].config.as_str(), cells[0].policy.as_str()), ("llc_x1", "lru"));
    assert_eq!((cells[1].config.as_str(), cells[1].policy.as_str()), ("llc_x1", "srrip"));
    assert_eq!((cells[2].config.as_str(), cells[2].policy.as_str()), ("llc_x2", "lru"));
    assert_eq!(cells[4].workload, "spec.stack");
    for c in cells {
        if c.policy == "lru" {
            assert_eq!(c.speedup_vs_lru, None);
        } else {
            assert!(c.speedup_vs_lru.is_some(), "{}|{}|{}", c.workload, c.config, c.policy);
        }
    }
    // The grid is real: a doubled LLC must not lower any hit rate.
    for (small, big) in cells.iter().zip(&cells[2..]).filter(|(a, _)| a.config == "llc_x1") {
        assert!(
            big.result.llc.demand_hits >= small.result.llc.demand_hits,
            "{}: bigger LLC lost hits",
            small.workload
        );
    }
}
