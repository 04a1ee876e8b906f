//! Ingest: turning the workspace's machine-readable documents into the
//! named series a ledger entry stores.
//!
//! Each reader is strict about schema identity — a document is read at
//! exactly the version this revision writes, and a wrong kind or version
//! is an error — and emits a series only for a quantity the document
//! carries: an untraced bench run has no overhead, not a 0 % one.

use ccsim_obs::{check_document, Json};

use crate::check::median;

/// The `ccsim_benchmark` result-document schema (`benchmark/run.sh
/// --out`) this crate ingests.
pub const BENCHMARK_SCHEMA: u64 = 1;
/// The `report-diff --json` schema this crate ingests.
pub const DIFF_SCHEMA: u64 = 1;

/// `(series name, value)` pairs, in the order a reader emits them.
pub type SeriesList = Vec<(String, f64)>;

fn schema_is(doc: &Json, field: &str, version: u64) -> Result<(), String> {
    let v =
        doc.get(field).and_then(Json::as_u64).ok_or_else(|| format!("not a `{field}` document"))?;
    if v == version {
        Ok(())
    } else {
        Err(format!("unsupported {field} schema {v} (supported: {version})"))
    }
}

/// The series of one `ccsim_benchmark` result document, under
/// `bench.smoke/` for a `--smoke` run and `bench/` otherwise (the two
/// scales replay different inputs, so a gate only ever compares like
/// against like):
///
/// * `<workload>/median_rps` per workload, in document order: the mean
///   of its units' `cell_records / median_s`;
/// * `setup_s`, the median of `setup_samples_s` (the input-set builds);
/// * from a `--traced` run, `acquire_s` (the cold campaign's trace
///   acquisition: digest, ingest, generation, cache writes),
///   `obs_overhead_pct`, and
///   `wall/{decode,simulate,report}_pct` — the cold campaign's acquire,
///   simulate and report-build shares of their sum, recorded only when
///   all three stage times are present.
///
/// # Errors
///
/// Returns a message when the document is not a benchmark result of
/// the supported schema or a unit is malformed.
pub fn bench_series(doc: &Json) -> Result<SeriesList, String> {
    schema_is(doc, "ccsim_benchmark", BENCHMARK_SCHEMA)?;
    let suite =
        if matches!(doc.get("smoke"), Some(Json::Bool(true))) { "bench.smoke" } else { "bench" };
    let Some(Json::Obj(workloads)) = doc.get("workloads") else {
        return Err("missing object `workloads`".to_owned());
    };
    let mut out = Vec::new();
    for (workload, body) in workloads {
        let mut rps = Vec::new();
        for unit in body.get("units").and_then(Json::as_array).unwrap_or(&[]) {
            let records = unit
                .get("cell_records")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{workload}: missing integer `cell_records`"))?;
            match unit.get("median_s").and_then(Json::as_f64) {
                Some(s) if s > 0.0 => rps.push(records as f64 / s),
                _ => return Err(format!("{workload}: missing positive number `median_s`")),
            }
        }
        if !rps.is_empty() {
            let mean = rps.iter().sum::<f64>() / rps.len() as f64;
            out.push((format!("{suite}/{workload}/median_rps"), mean));
        }
    }
    let setup = doc.get("setup_samples_s").and_then(Json::as_array);
    let setup: Vec<f64> = setup.unwrap_or(&[]).iter().filter_map(Json::as_f64).collect();
    if let Some(s) = median(&setup) {
        out.push((format!("{suite}/setup_s"), s));
    }
    let layer = |key: &str| doc.get("traced")?.get("per_layer")?.get(key)?.get("value")?.as_f64();
    if let Some(s) = layer("campaign.acquire_s") {
        out.push((format!("{suite}/acquire_s"), s));
    }
    if let Some(pct) = layer("obs.overhead_pct") {
        out.push((format!("{suite}/obs_overhead_pct"), pct));
    }
    let stages = [
        ("decode", "campaign.acquire_s", 1e9),
        ("simulate", "campaign.simulate_s", 1e9),
        ("report", "campaign.report.build_ms", 1e6),
    ];
    let ns: Option<Vec<f64>> =
        stages.iter().map(|&(_, key, unit_ns)| Some((layer(key)? * unit_ns).round())).collect();
    if let Some(ns) = ns {
        let total: f64 = ns.iter().sum();
        if total > 0.0 {
            for ((stage, _, _), part) in stages.iter().zip(ns) {
                out.push((format!("{suite}/wall/{stage}_pct"), 100.0 * part / total));
            }
        }
    }
    Ok(out)
}

/// The series of one `campaign watch --once --json` document:
/// `fleet/records_per_sec` and `fleet/cell_sim_p99_ns` from its
/// aggregate block.
///
/// # Errors
///
/// Returns a message when the document is not a watch view of the
/// current obs schema or lacks the aggregate block.
pub fn watch_series(doc: &Json) -> Result<SeriesList, String> {
    check_document(doc, "watch").map_err(|e| e.to_string())?;
    let agg = doc.get("aggregate").ok_or("watch document lacks `aggregate`")?;
    let rps = agg.get("records_per_sec").and_then(Json::as_u64);
    let p99 = agg.get("cell_sim_ns").and_then(|q| q.get("p99")).and_then(Json::as_u64);
    let named = [("fleet/records_per_sec", rps), ("fleet/cell_sim_p99_ns", p99)];
    Ok(named.into_iter().filter_map(|(name, v)| Some((name.to_owned(), v? as f64))).collect())
}

/// The series of one `report-diff --json` document:
/// `diff/max_abs_mpki_delta`.
///
/// # Errors
///
/// Returns a message when the document is not a diff of the supported
/// schema.
pub fn diff_series(doc: &Json) -> Result<SeriesList, String> {
    schema_is(doc, "ccsim_report_diff", DIFF_SCHEMA)?;
    let delta = doc.get("max_abs_mpki_delta").and_then(Json::as_f64);
    Ok(delta.map(|d| ("diff/max_abs_mpki_delta".to_owned(), d)).into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(series: &SeriesList) -> Vec<&str> {
        series.iter().map(|(n, _)| n.as_str()).collect()
    }

    #[test]
    fn committed_benchmark_baseline_becomes_series() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmark/results/baseline.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let s = bench_series(&doc).unwrap();
        assert_eq!(
            names(&s),
            [
                "bench/gap_miss/median_rps",
                "bench/hit_resident/median_rps",
                "bench/grid_band/median_rps",
                "bench/campaign_cold/median_rps",
                "bench/setup_s",
                "bench/acquire_s",
                "bench/obs_overhead_pct",
                "bench/wall/decode_pct",
                "bench/wall/simulate_pct",
                "bench/wall/report_pct",
            ]
        );
        assert_eq!(s[2].1, 42_088_186.0 / 3.4399131250000003, "one unit is its own mean");
        assert_eq!(s[4].1, 1.035123444, "the middle of three set-up samples");
        assert_eq!(s[5].1, 1.214492744, "the traced acquire stage");
        assert!(s[6].1 != 0.0);
        let total = (1_214_492_744u64 + 2_545_565_310 + 267_656) as f64;
        assert_eq!(s[7].1, 100.0 * 1_214_492_744.0 / total);
        assert!((s[7].1 + s[8].1 + s[9].1 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn untraced_smoke_document_has_no_overhead_and_wrong_kinds_fail() {
        let doc = Json::parse(
            r#"{"ccsim_benchmark": 1, "smoke": true,
                "workloads": {"gap_miss": {"units": [
                    {"name": "lru", "cell_records": 10, "min_s": 2.0, "median_s": 2.5},
                    {"name": "srrip", "cell_records": 10, "min_s": 1.0, "median_s": 5.0}]}}}"#,
        )
        .unwrap();
        let s = bench_series(&doc).unwrap();
        assert_eq!(s, [("bench.smoke/gap_miss/median_rps".to_owned(), 3.0)], "no 0 % overhead");

        let err = |text: &str| bench_series(&Json::parse(text).unwrap()).unwrap_err();
        assert!(err(r#"{"ccsim_benchmark": 9}"#).contains("unsupported"));
        assert!(err("{}").contains("ccsim_benchmark"));
        assert!(err(r#"{"ccsim_report_diff": 1, "cells": []}"#).contains("ccsim_benchmark"));
        assert!(err(r#"{"ccsim_benchmark": 1}"#).contains("workloads"));
        let zero = r#"{"ccsim_benchmark": 1, "workloads": {"w": {"units": [
            {"name": "u", "cell_records": 1, "min_s": 1, "median_s": 0}]}}}"#;
        assert!(err(zero).contains("median_s"));
    }

    #[test]
    fn diff_doc_becomes_one_series() {
        let doc = Json::parse(
            r#"{"ccsim_report_diff": 1, "campaign_a": "m1", "campaign_b": "m2",
                "same_grid": true, "threshold": 0.5, "max_abs_mpki_delta": 0.25,
                "cells_over_threshold": 0,
                "cells": [{"id": "x"}, {"id": "y"}], "only_in_a": [], "only_in_b": []}"#,
        )
        .unwrap();
        assert_eq!(diff_series(&doc).unwrap(), [("diff/max_abs_mpki_delta".to_owned(), 0.25)]);
        let watch = Json::parse(r#"{"ccsim_obs": 2, "kind": "watch"}"#).unwrap();
        assert!(diff_series(&watch).unwrap_err().contains("ccsim_report_diff"));
    }

    #[test]
    fn watch_doc_becomes_fleet_series() {
        let doc = Json::parse(
            r#"{"ccsim_obs": 2, "kind": "watch", "campaign": "demo", "done": true,
                "cells": {"total": 2, "completed": 2},
                "workers": [],
                "aggregate": {"records_simulated": 4000, "sim_wall_ns": 1000000000,
                    "records_per_sec": 4000, "mean_cell_sim_ns": 250,
                    "cell_sim_ns": {"p50": 255, "p90": 511, "p99": 511,
                                    "min": 128, "max": 511, "count": 4},
                    "eta_seconds": 0}}"#,
        )
        .unwrap();
        let s = watch_series(&doc).unwrap();
        assert_eq!(names(&s), ["fleet/records_per_sec", "fleet/cell_sim_p99_ns"]);
        assert_eq!((s[0].1, s[1].1), (4000.0, 511.0));
        let v1 = Json::parse(r#"{"ccsim_obs": 1, "kind": "watch", "campaign": "demo"}"#).unwrap();
        assert!(watch_series(&v1).unwrap_err().contains("unsupported"));
    }
}
