//! The whole benchmark at `--smoke` scale: inputs are a pure function of the
//! seed, every metric of the catalogue is produced, and the result has the
//! shape the driver and `compare.sh` rely on.

use std::path::PathBuf;

use ccsim_benchmark::compare::compare;
use ccsim_benchmark::inputs::{self, Scale};
use ccsim_benchmark::metrics;
use ccsim_benchmark::suite::{self, Options};
use ccsim_benchmark::workloads::Workload;
use ccsim_campaign::Json;

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/test-scratch").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn keys(json: &Json) -> Vec<&str> {
    match json {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object: {json}"),
    }
}

#[test]
fn the_same_seed_builds_byte_identical_inputs() {
    let build = |name: &str, seed| {
        let dir = test_dir(name);
        let (built, _) = inputs::build(seed, Scale::Smoke, &dir).unwrap();
        let files = [built.bfs.path, built.tc.path, built.foreign];
        files.map(|p| std::fs::read(p).unwrap())
    };
    let first = build("inputs-a", 7);
    assert_eq!(first, build("inputs-b", 7));
    let other = build("inputs-c", 8);
    assert_ne!(first[0], other[0], "the seed must reach the BFS trace");
    assert_ne!(first[2], other[2], "the seed must reach the foreign trace");
    // Rebuilding over a longer leftover cuts the file to its new length.
    let dir = test_dir("inputs-d");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("cc10.champsim"), vec![0u8; 4 << 20]).unwrap();
    let (built, _) = inputs::build(7, Scale::Smoke, &dir).unwrap();
    assert_eq!(std::fs::read(built.foreign).unwrap(), first[2]);
}

/// One test, because campaign runs count trace-cache hits and misses
/// through the process-wide telemetry counters and must not overlap.
#[test]
fn a_smoke_run_produces_every_metric_and_the_contract_shapes() {
    whole_suite();
    single_workload_lines();
}

fn whole_suite() {
    let options = Options {
        seed: 42,
        workload: None,
        seconds: 0.0,
        traced: true,
        smoke: true,
        dir: test_dir("suite"),
    };
    let document = suite::run(&options).unwrap();
    let json = document.to_json().unwrap();
    assert_eq!(json.get("smoke"), Some(&Json::Bool(true)));
    assert_eq!(keys(&json).last(), Some(&"claim"));
    assert_eq!(json.get("claim"), Some(&Json::Null));

    // Untraced: one result per workload, every end-to-end metric, no
    // failed check.
    let workloads = json.get("workloads").unwrap();
    assert_eq!(keys(workloads), Workload::ALL.map(Workload::name));
    let end_to_end: Vec<String> = metrics::end_to_end().into_iter().map(|m| m.name).collect();
    for name in keys(workloads) {
        let w = workloads.get(name).unwrap();
        assert_eq!(w.get("failed").and_then(Json::as_u64), Some(0), "{name}");
        assert!(w.get("attempted").and_then(Json::as_u64).unwrap() > 0, "{name}");
        assert_eq!(keys(w.get("metrics").unwrap()), end_to_end, "{name}");
        assert_eq!(w.get("stats_digest").and_then(Json::as_str).map(str::len), Some(16));
    }

    // Traced: every per-layer metric, the invariants, both cost models,
    // one span file per workload.
    let traced = json.get("traced").unwrap();
    assert_eq!(traced.get("failed").and_then(Json::as_u64), Some(0), "{traced}");
    let per_layer: Vec<String> = metrics::per_layer().into_iter().map(|m| m.name).collect();
    assert_eq!(keys(traced.get("per_layer").unwrap()), per_layer);
    assert_eq!(keys(traced.get("cost_model").unwrap()), metrics::REGIMES);
    for w in Workload::ALL {
        let path = options.dir.join("out").join(format!("spans-{}.json", w.name()));
        let spans = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert!(!spans.as_array().unwrap().is_empty(), "{}", w.name());
    }
    assert!(!options.scratch().exists(), "working files are removed when the run ends");

    // compare.sh refuses smoke documents.
    assert!(compare(&json, &json).is_err());
}

fn single_workload_lines() {
    for traced in [false, true] {
        let options = Options {
            seed: 3,
            workload: Some(Workload::HitResident),
            seconds: 0.0,
            traced,
            smoke: true,
            dir: test_dir(if traced { "line-traced" } else { "line" }),
        };
        let line = suite::run(&options).unwrap().contract_line().unwrap();
        assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
        let catalogue = if traced { metrics::per_layer() } else { metrics::end_to_end() };
        let names: Vec<String> = catalogue.into_iter().map(|m| m.name).collect();
        let reported = line.get("metrics").unwrap();
        assert_eq!(keys(reported), names);
        for name in keys(reported) {
            assert_eq!(keys(reported.get(name).unwrap()), ["value", "unit"], "{name}");
        }
        assert!(!line.to_string().contains('\n'));
    }
}
