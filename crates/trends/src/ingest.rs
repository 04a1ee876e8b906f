//! Ingest: distilling the workspace's machine-readable documents into
//! the compact summaries a ledger entry stores.
//!
//! Each summary has two JSON faces: `from_doc` parses the *source*
//! document (a `benchmark/run.sh --out` result, `report-diff --json`,
//! an obs manifest, or a watch view) and keeps only the fields trend tables
//! and gates consume; `to_json` / `from_entry_json` round-trip the
//! summary through the ledger line. Source parsing is strict about
//! schema identity: each document kind is read at exactly the version
//! this revision writes, and wrong kinds or versions are errors, not
//! zeros.

use ccsim_obs::{check_document, records_per_sec, Json, Manifest, QuantileSummary};

/// The `ccsim_benchmark` result-document schema (`benchmark/run.sh
/// --out`) this crate ingests.
pub const BENCHMARK_SCHEMA: u64 = 1;
/// The `report-diff --json` schema this crate ingests.
pub const DIFF_SCHEMA: u64 = 1;

fn req_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing integer `{key}`"))
}

fn opt_u64(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn opt_f64(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn req_str(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string `{key}`"))
}

fn schema_is(doc: &Json, field: &str, version: u64) -> Result<(), String> {
    let v =
        doc.get(field).and_then(Json::as_u64).ok_or_else(|| format!("not a `{field}` document"))?;
    if v == version {
        Ok(())
    } else {
        Err(format!("unsupported {field} schema {v} (supported: {version})"))
    }
}

/// One timed benchmark unit, as stored in the ledger. The ledger keys
/// stay `pattern` / `policy`, the names of the first bench surface, so
/// lines recorded from it still load.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCellSummary {
    /// Workload name (`gap_miss`, `hit_resident`, `grid_band`,
    /// `campaign_cold`).
    pub pattern: String,
    /// Unit name within the workload (a policy, `grid` or `campaign`).
    pub policy: String,
    /// Cell-records replayed per repetition.
    pub records: u64,
    /// Records/second of the fastest repetition.
    pub best_rps: f64,
    /// Records/second of the median repetition.
    pub median_rps: f64,
}

/// What a ledger entry keeps of one `benchmark/run.sh` result document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSummary {
    /// Whether this was a `--smoke` run (smoke and full-scale runs are
    /// different suites; gates only compare like against like).
    pub quick: bool,
    /// Telemetry hot-path overhead, percent (0 for an untraced run).
    pub overhead_pct: f64,
    /// Wall clock acquiring the cold campaign's traces, nanoseconds
    /// (this and the next two are 0 for an untraced run).
    pub decode_ns: u64,
    /// Wall clock simulating the cold campaign's cells, nanoseconds.
    pub simulate_ns: u64,
    /// Wall clock building the cold campaign's report, nanoseconds.
    pub report_ns: u64,
    /// Timed units, in document order.
    pub cells: Vec<BenchCellSummary>,
}

impl BenchSummary {
    /// Distills a `ccsim_benchmark` result document: one cell per
    /// `workloads.<w>.units[]`, `traced.per_layer` for the overhead and
    /// the campaign wall split.
    ///
    /// # Errors
    ///
    /// Returns a message when the document is not a benchmark result of
    /// the supported schema or a unit is malformed.
    pub fn from_doc(doc: &Json) -> Result<BenchSummary, String> {
        schema_is(doc, "ccsim_benchmark", BENCHMARK_SCHEMA)?;
        let Some(Json::Obj(workloads)) = doc.get("workloads") else {
            return Err("missing object `workloads`".to_owned());
        };
        let mut cells = Vec::new();
        for (workload, body) in workloads {
            for unit in body.get("units").and_then(Json::as_array).unwrap_or(&[]) {
                let records = req_u64(unit, "cell_records")?;
                let rps = |key: &str| match unit.get(key).and_then(Json::as_f64) {
                    Some(s) if s > 0.0 => Ok(records as f64 / s),
                    _ => Err(format!("{workload}: missing positive number `{key}`")),
                };
                cells.push(BenchCellSummary {
                    pattern: workload.clone(),
                    policy: req_str(unit, "name")?,
                    records,
                    best_rps: rps("min_s")?,
                    median_rps: rps("median_s")?,
                });
            }
        }
        let layer = |key: &str| {
            let metric = doc.get("traced")?.get("per_layer")?.get(key)?;
            metric.get("value")?.as_f64()
        };
        let layer_ns =
            |key: &str, unit_ns: f64| (layer(key).unwrap_or(0.0) * unit_ns).round() as u64;
        Ok(BenchSummary {
            quick: matches!(doc.get("smoke"), Some(Json::Bool(true))),
            overhead_pct: layer("obs.overhead_pct").unwrap_or(0.0),
            decode_ns: layer_ns("campaign.acquire_s", 1e9),
            simulate_ns: layer_ns("campaign.simulate_s", 1e9),
            report_ns: layer_ns("campaign.report.build_ms", 1e6),
            cells,
        })
    }

    /// The ledger representation.
    pub fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("pattern", Json::str(&c.pattern)),
                    ("policy", Json::str(&c.policy)),
                    ("records", Json::int(c.records)),
                    ("best_rps", Json::num(c.best_rps)),
                    ("median_rps", Json::num(c.median_rps)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("quick", Json::Bool(self.quick)),
            ("overhead_pct", Json::num(self.overhead_pct)),
            ("decode_ns", Json::int(self.decode_ns)),
            ("simulate_ns", Json::int(self.simulate_ns)),
            ("report_ns", Json::int(self.report_ns)),
            ("cells", Json::Arr(cells)),
        ])
    }

    /// Parses the ledger representation back.
    ///
    /// # Errors
    ///
    /// Returns a message on a malformed cell.
    pub fn from_entry_json(doc: &Json) -> Result<BenchSummary, String> {
        let mut cells = Vec::new();
        for cell in doc.get("cells").and_then(Json::as_array).unwrap_or(&[]) {
            cells.push(BenchCellSummary {
                pattern: req_str(cell, "pattern")?,
                policy: req_str(cell, "policy")?,
                records: opt_u64(cell, "records"),
                best_rps: opt_f64(cell, "best_rps"),
                median_rps: opt_f64(cell, "median_rps"),
            });
        }
        Ok(BenchSummary {
            quick: matches!(doc.get("quick"), Some(Json::Bool(true))),
            overhead_pct: opt_f64(doc, "overhead_pct"),
            decode_ns: opt_u64(doc, "decode_ns"),
            simulate_ns: opt_u64(doc, "simulate_ns"),
            report_ns: opt_u64(doc, "report_ns"),
            cells,
        })
    }
}

/// What a ledger entry keeps of one `report-diff --json` comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffSummary {
    /// First campaign name.
    pub campaign_a: String,
    /// Second campaign name.
    pub campaign_b: String,
    /// Whether both reports covered exactly the same grid.
    pub same_grid: bool,
    /// The MPKI threshold the diff was taken at.
    pub threshold: f64,
    /// Largest absolute per-cell LLC-MPKI delta.
    pub max_abs_mpki_delta: f64,
    /// Cells whose absolute delta exceeded the threshold.
    pub cells_over_threshold: u64,
    /// Common cells compared.
    pub cells: u64,
}

impl DiffSummary {
    /// Distills a `report-diff --json` document.
    ///
    /// # Errors
    ///
    /// Returns a message when the document is not a diff of the
    /// supported schema.
    pub fn from_doc(doc: &Json) -> Result<DiffSummary, String> {
        schema_is(doc, "ccsim_report_diff", DIFF_SCHEMA)?;
        Ok(DiffSummary {
            campaign_a: req_str(doc, "campaign_a")?,
            campaign_b: req_str(doc, "campaign_b")?,
            same_grid: matches!(doc.get("same_grid"), Some(Json::Bool(true))),
            threshold: opt_f64(doc, "threshold"),
            max_abs_mpki_delta: opt_f64(doc, "max_abs_mpki_delta"),
            cells_over_threshold: opt_u64(doc, "cells_over_threshold"),
            cells: doc.get("cells").and_then(Json::as_array).map_or(0, |c| c.len() as u64),
        })
    }

    /// The ledger representation.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("campaign_a", Json::str(&self.campaign_a)),
            ("campaign_b", Json::str(&self.campaign_b)),
            ("same_grid", Json::Bool(self.same_grid)),
            ("threshold", Json::num(self.threshold)),
            ("max_abs_mpki_delta", Json::num(self.max_abs_mpki_delta)),
            ("cells_over_threshold", Json::int(self.cells_over_threshold)),
            ("cells", Json::int(self.cells)),
        ])
    }

    /// Parses the ledger representation back.
    ///
    /// # Errors
    ///
    /// Returns a message on missing campaign names.
    pub fn from_entry_json(doc: &Json) -> Result<DiffSummary, String> {
        Ok(DiffSummary {
            campaign_a: req_str(doc, "campaign_a")?,
            campaign_b: req_str(doc, "campaign_b")?,
            same_grid: matches!(doc.get("same_grid"), Some(Json::Bool(true))),
            threshold: opt_f64(doc, "threshold"),
            max_abs_mpki_delta: opt_f64(doc, "max_abs_mpki_delta"),
            cells_over_threshold: opt_u64(doc, "cells_over_threshold"),
            cells: opt_u64(doc, "cells"),
        })
    }
}

/// What a ledger entry keeps of one per-worker obs manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestSummary {
    /// Worker id (`(solo)` for single-process runs).
    pub worker: String,
    /// Cells the worker simulated.
    pub cells_done: u64,
    /// Engine-records advanced.
    pub records_simulated: u64,
    /// Simulation wall-clock, nanoseconds.
    pub sim_wall_ns: u64,
    /// Per-cell simulation-time quantiles (`campaign_cell_sim_ns`);
    /// `None` when the manifest carried no histogram.
    pub cell_sim: Option<QuantileSummary>,
}

impl ManifestSummary {
    /// Records per second over this worker's simulation wall-clock.
    pub fn records_per_sec(&self) -> u64 {
        records_per_sec(self.records_simulated, self.sim_wall_ns)
    }

    /// Distills an obs manifest document, read by
    /// [`Manifest::from_json`].
    ///
    /// # Errors
    ///
    /// Returns a message when the document is not a manifest of the
    /// current obs schema.
    pub fn from_doc(doc: &Json) -> Result<ManifestSummary, String> {
        let m = Manifest::from_json(doc).map_err(|e| e.to_string())?;
        Ok(ManifestSummary {
            worker: m.meta.worker,
            cells_done: m.cells_done,
            records_simulated: m.records_simulated,
            sim_wall_ns: m.sim_wall_ns,
            cell_sim: m.metrics.histogram("campaign_cell_sim_ns").map(|h| h.quantiles()),
        })
    }

    /// The ledger representation.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("worker", Json::str(&self.worker)),
            ("cells_done", Json::int(self.cells_done)),
            ("records_simulated", Json::int(self.records_simulated)),
            ("sim_wall_ns", Json::int(self.sim_wall_ns)),
            ("records_per_sec", Json::int_saturating(self.records_per_sec())),
            ("cell_sim", self.cell_sim.as_ref().map_or(Json::Null, QuantileSummary::to_json)),
        ])
    }

    /// Parses the ledger representation back.
    ///
    /// # Errors
    ///
    /// Returns a message on a missing worker id.
    pub fn from_entry_json(doc: &Json) -> Result<ManifestSummary, String> {
        Ok(ManifestSummary {
            worker: req_str(doc, "worker")?,
            cells_done: opt_u64(doc, "cells_done"),
            records_simulated: opt_u64(doc, "records_simulated"),
            sim_wall_ns: opt_u64(doc, "sim_wall_ns"),
            cell_sim: doc.get("cell_sim").and_then(QuantileSummary::from_json),
        })
    }
}

/// What a ledger entry keeps of one `campaign watch --once --json`
/// aggregate view.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchSummary {
    /// Campaign name.
    pub campaign: String,
    /// Whether the grid was fully journaled at capture time.
    pub done: bool,
    /// Engine-records simulated across the fleet.
    pub records_simulated: u64,
    /// Summed fleet simulation wall-clock, nanoseconds.
    pub sim_wall_ns: u64,
    /// Mean simulation wall-clock per completed cell, nanoseconds.
    pub mean_cell_sim_ns: u64,
    /// Fleet-wide per-cell sim-time quantiles (`None` for a ledger line
    /// or document whose aggregate carries no `cell_sim_ns` block).
    pub cell_sim: Option<QuantileSummary>,
}

impl WatchSummary {
    /// Fleet records per second over the summed simulation wall-clock.
    pub fn records_per_sec(&self) -> u64 {
        records_per_sec(self.records_simulated, self.sim_wall_ns)
    }

    /// Distills a watch document.
    ///
    /// # Errors
    ///
    /// Returns a message when the document is not a watch view of the
    /// current obs schema or lacks the aggregate block.
    pub fn from_doc(doc: &Json) -> Result<WatchSummary, String> {
        check_document(doc, "watch").map_err(|e| e.to_string())?;
        let agg = doc.get("aggregate").ok_or("watch document lacks `aggregate`")?;
        Ok(WatchSummary {
            campaign: req_str(doc, "campaign")?,
            done: matches!(doc.get("done"), Some(Json::Bool(true))),
            records_simulated: opt_u64(agg, "records_simulated"),
            sim_wall_ns: opt_u64(agg, "sim_wall_ns"),
            mean_cell_sim_ns: opt_u64(agg, "mean_cell_sim_ns"),
            cell_sim: agg.get("cell_sim_ns").and_then(QuantileSummary::from_json),
        })
    }

    /// The ledger representation.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("campaign", Json::str(&self.campaign)),
            ("done", Json::Bool(self.done)),
            ("records_simulated", Json::int(self.records_simulated)),
            ("sim_wall_ns", Json::int(self.sim_wall_ns)),
            ("records_per_sec", Json::int_saturating(self.records_per_sec())),
            ("mean_cell_sim_ns", Json::int(self.mean_cell_sim_ns)),
            ("cell_sim", self.cell_sim.as_ref().map_or(Json::Null, QuantileSummary::to_json)),
        ])
    }

    /// Parses the ledger representation back.
    ///
    /// # Errors
    ///
    /// Returns a message on a missing campaign name.
    pub fn from_entry_json(doc: &Json) -> Result<WatchSummary, String> {
        Ok(WatchSummary {
            campaign: req_str(doc, "campaign")?,
            done: matches!(doc.get("done"), Some(Json::Bool(true))),
            records_simulated: opt_u64(doc, "records_simulated"),
            sim_wall_ns: opt_u64(doc, "sim_wall_ns"),
            mean_cell_sim_ns: opt_u64(doc, "mean_cell_sim_ns"),
            cell_sim: doc.get("cell_sim").and_then(QuantileSummary::from_json),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_baseline_distills_to_summary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmark/results/baseline.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let s = BenchSummary::from_doc(&doc).unwrap();
        assert!(!s.quick);
        assert!(s.overhead_pct != 0.0);
        let units = |w: &str| s.cells.iter().filter(|c| c.pattern == w).count();
        let per_workload = ["gap_miss", "hit_resident", "grid_band", "campaign_cold"].map(units);
        assert_eq!(per_workload, [5, 3, 1, 1]);
        assert_eq!(s.cells.len(), 10, "four workloads and nothing else");
        let lru = &s.cells[0];
        assert_eq!((lru.pattern.as_str(), lru.policy.as_str()), ("gap_miss", "lru"));
        assert_eq!(lru.records, 3_006_299);
        assert_eq!(lru.best_rps, 3_006_299.0 / 0.199335025);
        assert_eq!(lru.median_rps, 3_006_299.0 / 0.233802734);
        assert_eq!(
            (s.decode_ns, s.simulate_ns, s.report_ns),
            (1_214_492_744, 2_545_565_310, 267_656)
        );
        let round = BenchSummary::from_entry_json(&Json::parse(&s.to_json().to_string()).unwrap());
        assert_eq!(round.unwrap(), s);
    }

    #[test]
    fn untraced_smoke_document_and_wrong_kinds() {
        let doc = Json::parse(
            r#"{"ccsim_benchmark": 1, "smoke": true,
                "workloads": {"gap_miss": {"units": [{"name": "lru", "cell_records": 10,
                                                      "min_s": 2.0, "median_s": 2.5}]}}}"#,
        )
        .unwrap();
        let s = BenchSummary::from_doc(&doc).unwrap();
        assert!(s.quick);
        assert_eq!((s.overhead_pct, s.simulate_ns), (0.0, 0));
        assert_eq!((s.cells[0].best_rps, s.cells[0].median_rps), (5.0, 4.0));

        let err = |text: &str| BenchSummary::from_doc(&Json::parse(text).unwrap()).unwrap_err();
        assert!(err(r#"{"ccsim_benchmark": 9}"#).contains("unsupported"));
        assert!(err("{}").contains("ccsim_benchmark"));
        assert!(err(r#"{"ccsim_report_diff": 1, "cells": []}"#).contains("ccsim_benchmark"));
        assert!(err(r#"{"ccsim_benchmark": 1}"#).contains("workloads"));
        let zero = r#"{"ccsim_benchmark": 1, "workloads": {"w": {"units": [
            {"name": "u", "cell_records": 1, "min_s": 0, "median_s": 1}]}}}"#;
        assert!(err(zero).contains("min_s"));
    }

    #[test]
    fn diff_doc_distills_to_summary() {
        let doc = Json::parse(
            r#"{"ccsim_report_diff": 1, "campaign_a": "m1", "campaign_b": "m2",
                "same_grid": true, "threshold": 0.5, "max_abs_mpki_delta": 0.25,
                "cells_over_threshold": 0,
                "cells": [{"id": "x"}, {"id": "y"}], "only_in_a": [], "only_in_b": []}"#,
        )
        .unwrap();
        let s = DiffSummary::from_doc(&doc).unwrap();
        assert!(s.same_grid);
        assert_eq!(s.cells, 2);
        assert_eq!(s.max_abs_mpki_delta, 0.25);
        let round = DiffSummary::from_entry_json(&Json::parse(&s.to_json().to_string()).unwrap());
        assert_eq!(round.unwrap(), s);
    }

    #[test]
    fn watch_doc_distills_to_summary() {
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
        let s = WatchSummary::from_doc(&doc).unwrap();
        assert!(s.done);
        assert_eq!(s.records_per_sec(), 4000);
        assert_eq!(s.cell_sim.unwrap().p90, 511);
        let round = WatchSummary::from_entry_json(&Json::parse(&s.to_json().to_string()).unwrap());
        assert_eq!(round.unwrap(), s);
        let v1 = Json::parse(r#"{"ccsim_obs": 1, "kind": "watch", "campaign": "demo"}"#).unwrap();
        assert!(WatchSummary::from_doc(&v1).unwrap_err().contains("unsupported"));
    }
}
