//! Cross-campaign report diffing.
//!
//! A [`ReportDiff`] compares two campaign `report.json` files over the
//! same grid — typically the same spec run at two code revisions — and
//! surfaces per-cell deltas of the metrics that matter for regression
//! hunting: LLC MPKI, LLC miss ratio and IPC. `ccsim report-diff` is a
//! thin wrapper that prints the table and exits non-zero when any
//! absolute LLC-MPKI delta exceeds a threshold (default 0: byte-level
//! determinism checking).

use ccsim_obs::Table;

use crate::json::Json;

/// Version of the `report-diff --json` output schema.
pub const DIFF_SCHEMA_VERSION: u64 = 1;

/// The comparable metrics of one report cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMetrics {
    /// LLC misses per kilo-instruction.
    pub llc_mpki: f64,
    /// LLC demand miss ratio (1 − hit rate), in [0, 1].
    pub llc_miss_ratio: f64,
    /// Instructions per cycle.
    pub ipc: f64,
}

/// One grid cell present in both reports.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffCell {
    /// `workload|config|policy` identity.
    pub id: String,
    /// Metrics from the first report.
    pub a: CellMetrics,
    /// Metrics from the second report.
    pub b: CellMetrics,
}

impl DiffCell {
    /// `b − a` LLC MPKI.
    pub fn mpki_delta(&self) -> f64 {
        self.b.llc_mpki - self.a.llc_mpki
    }

    /// `b − a` LLC miss ratio, in percentage points.
    pub fn miss_ratio_delta_pp(&self) -> f64 {
        100.0 * (self.b.llc_miss_ratio - self.a.llc_miss_ratio)
    }

    /// Relative IPC change, percent.
    pub fn ipc_delta_percent(&self) -> f64 {
        if self.a.ipc == 0.0 {
            0.0
        } else {
            100.0 * (self.b.ipc / self.a.ipc - 1.0)
        }
    }
}

/// The comparison of two campaign reports over their common grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportDiff {
    /// Campaign name of the first report.
    pub campaign_a: String,
    /// Campaign name of the second report.
    pub campaign_b: String,
    /// Cells present in both reports, in the first report's order.
    pub cells: Vec<DiffCell>,
    /// Cell ids only the first report contains.
    pub only_in_a: Vec<String>,
    /// Cell ids only the second report contains.
    pub only_in_b: Vec<String>,
}

impl ReportDiff {
    /// Parses and compares two `report.json` texts.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first structural problem (not JSON,
    /// wrong schema version, malformed cell).
    pub fn from_json_strs(a_text: &str, b_text: &str) -> Result<ReportDiff, String> {
        let a = parse_report(a_text).map_err(|e| format!("first report: {e}"))?;
        let b = parse_report(b_text).map_err(|e| format!("second report: {e}"))?;
        let mut cells = Vec::new();
        let mut only_in_a = Vec::new();
        for (id, metrics) in &a.cells {
            match b.cells.iter().find(|(bid, _)| bid == id) {
                Some((_, bm)) => cells.push(DiffCell { id: id.clone(), a: *metrics, b: *bm }),
                None => only_in_a.push(id.clone()),
            }
        }
        let only_in_b = b
            .cells
            .iter()
            .filter(|(id, _)| !a.cells.iter().any(|(aid, _)| aid == id))
            .map(|(id, _)| id.clone())
            .collect();
        Ok(ReportDiff {
            campaign_a: a.campaign,
            campaign_b: b.campaign,
            cells,
            only_in_a,
            only_in_b,
        })
    }

    /// `true` when both reports cover exactly the same grid cells.
    pub fn same_grid(&self) -> bool {
        self.only_in_a.is_empty() && self.only_in_b.is_empty()
    }

    /// The largest absolute per-cell LLC-MPKI delta (0 for no cells).
    pub fn max_abs_mpki_delta(&self) -> f64 {
        self.cells.iter().map(|c| c.mpki_delta().abs()).fold(0.0, f64::max)
    }

    /// Cells whose absolute LLC-MPKI delta exceeds `threshold`.
    pub fn cells_over(&self, threshold: f64) -> usize {
        self.cells.iter().filter(|c| c.mpki_delta().abs() > threshold).count()
    }

    /// Machine-readable rendering (`ccsim report-diff --json`): schema
    /// [`DIFF_SCHEMA_VERSION`], one object per common cell with both
    /// sides' metrics and the signed deltas, plus the summary fields CI
    /// dashboards gate on (`max_abs_mpki_delta`, `cells_over_threshold`,
    /// `same_grid`).
    pub fn to_json(&self, threshold: f64) -> Json {
        let metrics = |m: &CellMetrics| {
            Json::obj(vec![
                ("llc_mpki", Json::num(m.llc_mpki)),
                ("llc_miss_ratio", Json::num(m.llc_miss_ratio)),
                ("ipc", Json::num(m.ipc)),
            ])
        };
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("id", Json::str(&c.id)),
                    ("a", metrics(&c.a)),
                    ("b", metrics(&c.b)),
                    (
                        "delta",
                        Json::obj(vec![
                            ("llc_mpki", Json::num(c.mpki_delta())),
                            ("llc_miss_ratio_pp", Json::num(c.miss_ratio_delta_pp())),
                            ("ipc_percent", Json::num(c.ipc_delta_percent())),
                        ]),
                    ),
                ])
            })
            .collect();
        let ids = |v: &[String]| Json::Arr(v.iter().map(Json::str).collect());
        Json::obj(vec![
            ("ccsim_report_diff", Json::int(DIFF_SCHEMA_VERSION)),
            ("campaign_a", Json::str(&self.campaign_a)),
            ("campaign_b", Json::str(&self.campaign_b)),
            ("same_grid", Json::Bool(self.same_grid())),
            ("threshold", Json::num(threshold)),
            ("max_abs_mpki_delta", Json::num(self.max_abs_mpki_delta())),
            ("cells_over_threshold", Json::int(self.cells_over(threshold) as u64)),
            ("cells", Json::Arr(cells)),
            ("only_in_a", ids(&self.only_in_a)),
            ("only_in_b", ids(&self.only_in_b)),
        ])
    }

    /// Per-cell delta table (also the CSV layout of `report-diff`).
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            [
                "cell",
                "llc_mpki_a",
                "llc_mpki_b",
                "mpki_delta",
                "miss_%_a",
                "miss_%_b",
                "miss_delta_pp",
                "ipc_delta_%",
            ]
            .iter()
            .map(|s| (*s).to_owned())
            .collect(),
        );
        for c in &self.cells {
            t.row(vec![
                c.id.clone(),
                format!("{:.3}", c.a.llc_mpki),
                format!("{:.3}", c.b.llc_mpki),
                format!("{:.3}", c.mpki_delta()),
                format!("{:.2}", 100.0 * c.a.llc_miss_ratio),
                format!("{:.2}", 100.0 * c.b.llc_miss_ratio),
                format!("{:.2}", c.miss_ratio_delta_pp()),
                format!("{:.3}", c.ipc_delta_percent()),
            ]);
        }
        t
    }
}

struct ParsedReport {
    campaign: String,
    cells: Vec<(String, CellMetrics)>,
}

fn parse_report(text: &str) -> Result<ParsedReport, String> {
    let root = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let schema = root
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing \"schema_version\" (not a campaign report?)")?;
    if schema != crate::report::REPORT_SCHEMA_VERSION {
        return Err(format!("unsupported report schema version {schema}"));
    }
    let campaign =
        root.get("campaign").and_then(Json::as_str).ok_or("missing \"campaign\" name")?.to_owned();
    let cells = root
        .get("cells")
        .and_then(Json::as_array)
        .ok_or("missing \"cells\" array")?
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let field = |path: &[&str]| {
                let mut v = cell;
                for key in path {
                    v = v.get(key)?;
                }
                v.as_f64()
            };
            let text = |key: &str| cell.get(key).and_then(Json::as_str);
            let id = format!(
                "{}|{}|{}",
                text("workload").ok_or(format!("cell {i}: missing workload"))?,
                text("config").ok_or(format!("cell {i}: missing config"))?,
                text("policy").ok_or(format!("cell {i}: missing policy"))?,
            );
            let hit_rate =
                field(&["hit_rate", "llc"]).ok_or(format!("cell {i}: missing hit_rate.llc"))?;
            Ok((
                id,
                CellMetrics {
                    llc_mpki: field(&["mpki", "llc"])
                        .ok_or(format!("cell {i}: missing mpki.llc"))?,
                    llc_miss_ratio: 1.0 - hit_rate,
                    ipc: field(&["ipc"]).ok_or(format!("cell {i}: missing ipc"))?,
                },
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ParsedReport { campaign, cells })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal current-schema report with one knob per metric.
    fn report(name: &str, mpki: f64, hit: f64, ipc: f64, extra_cell: bool) -> String {
        let cell = |workload: &str, mpki: f64| {
            format!(
                r#"{{"workload": "{workload}", "config": "llc_x1", "policy": "lru",
                     "ipc": {ipc}, "mpki": {{"l1d": 1.0, "l2": 1.0, "llc": {mpki}}},
                     "hit_rate": {{"l1d": 0.9, "l2": 0.5, "llc": {hit}}},
                     "dram_reach_fraction": 0.1}}"#
            )
        };
        let mut cells = vec![cell("bfs.kron", mpki)];
        if extra_cell {
            cells.push(cell("pr.twitter", mpki));
        }
        format!(
            r#"{{"schema_version": 2, "campaign": "{name}", "spec": {{}},
                 "cells": [{}]}}"#,
            cells.join(",")
        )
    }

    #[test]
    fn identical_reports_have_zero_deltas() {
        let a = report("x", 5.0, 0.4, 1.5, false);
        let d = ReportDiff::from_json_strs(&a, &a).unwrap();
        assert!(d.same_grid());
        assert_eq!(d.cells.len(), 1);
        assert_eq!(d.max_abs_mpki_delta(), 0.0);
        assert_eq!(d.cells_over(0.0), 0);
    }

    #[test]
    fn deltas_are_signed_b_minus_a() {
        let a = report("x", 5.0, 0.4, 1.5, false);
        let b = report("y", 6.5, 0.5, 1.2, false);
        let d = ReportDiff::from_json_strs(&a, &b).unwrap();
        assert_eq!(d.campaign_a, "x");
        assert_eq!(d.campaign_b, "y");
        let c = &d.cells[0];
        assert!((c.mpki_delta() - 1.5).abs() < 1e-12);
        assert!((c.miss_ratio_delta_pp() - -10.0).abs() < 1e-9, "hit 0.4→0.5 is −10pp misses");
        assert!((c.ipc_delta_percent() - -20.0).abs() < 1e-9);
        assert!((d.max_abs_mpki_delta() - 1.5).abs() < 1e-12);
        assert_eq!(d.cells_over(1.0), 1);
        assert_eq!(d.cells_over(2.0), 0);
        let csv = d.table().to_csv();
        assert!(csv.contains("bfs.kron|llc_x1|lru,5.000,6.500,1.500"), "{csv}");
    }

    #[test]
    fn grid_mismatch_is_reported_not_fatal() {
        let a = report("x", 5.0, 0.4, 1.5, false);
        let b = report("x", 5.0, 0.4, 1.5, true);
        let d = ReportDiff::from_json_strs(&a, &b).unwrap();
        assert!(!d.same_grid());
        assert!(d.only_in_a.is_empty());
        assert_eq!(d.only_in_b, ["pr.twitter|llc_x1|lru"]);
    }

    #[test]
    fn json_rendering_carries_summary_and_cell_deltas() {
        let a = report("x", 5.0, 0.4, 1.5, false);
        let b = report("y", 6.5, 0.5, 1.2, true);
        let d = ReportDiff::from_json_strs(&a, &b).unwrap();
        let j = d.to_json(1.0);
        assert_eq!(j.get("ccsim_report_diff").and_then(Json::as_u64), Some(DIFF_SCHEMA_VERSION));
        assert_eq!(j.get("campaign_b").and_then(Json::as_str), Some("y"));
        assert_eq!(j.get("same_grid"), Some(&Json::Bool(false)));
        assert_eq!(j.get("cells_over_threshold").and_then(Json::as_u64), Some(1));
        let cells = j.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), 1);
        let delta = cells[0].get("delta").unwrap();
        assert!((delta.get("llc_mpki").unwrap().as_f64().unwrap() - 1.5).abs() < 1e-12);
        assert!((delta.get("ipc_percent").unwrap().as_f64().unwrap() - -20.0).abs() < 1e-9);
        let only_b = j.get("only_in_b").unwrap().as_array().unwrap();
        assert_eq!(only_b.len(), 1);
        // The document is valid JSON and round-trips.
        let text = j.to_pretty();
        assert_eq!(Json::parse(&text).unwrap(), j);
    }

    #[test]
    fn malformed_reports_are_rejected_with_context() {
        let good = report("x", 5.0, 0.4, 1.5, false);
        let err = ReportDiff::from_json_strs("{}", &good).unwrap_err();
        assert!(err.contains("first report"), "{err}");
        assert!(err.contains("schema_version"), "{err}");
        for version in [1, 99] {
            let wrong =
                good.replace("\"schema_version\": 2", &format!("\"schema_version\": {version}"));
            let err = ReportDiff::from_json_strs(&good, &wrong).unwrap_err();
            assert!(err.contains(&format!("version {version}")), "{err}");
        }
        assert!(ReportDiff::from_json_strs("not json", &good).is_err());
    }
}
