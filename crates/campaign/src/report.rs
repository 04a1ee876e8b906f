//! Machine-readable campaign reports.
//!
//! A [`CampaignReport`] is the deterministic output of a campaign run:
//! one [`CampaignCell`] per grid cell (in spec order) carrying the raw
//! [`SimResult`] counters plus derived metrics (IPC, MPKI and hit rate per
//! level, DRAM reach, speed-up over LRU). It renders as:
//!
//! * canonical JSON ([`CampaignReport::to_json`], schema pinned by
//!   `tests/fixtures/campaign_report_v2.json`; v2 added the
//!   `writeback_bypass_overrides` cache counter),
//! * per-cell CSV ([`CampaignReport::to_csv`]),
//! * the paper's pretty tables ([`CampaignReport::cells_table`],
//!   [`CampaignReport::speedup_by_suite_table`],
//!   [`CampaignReport::mpki_table`]; [`CampaignReport::paper_views`]
//!   picks the one the grid supports).
//!
//! Determinism contract: the same spec and seed produce byte-identical
//! JSON and CSV, whether or not the run was interrupted and resumed.

use ccsim_core::{geomean_speedup_percent, SimResult};
use ccsim_obs::Table;
use ccsim_policies::PolicyKind;
use ccsim_workloads::Suite;

use crate::journal::sim_result_to_json;
use crate::json::Json;
use crate::spec::CampaignSpec;

/// Version of the JSON report schema — the one version this revision
/// writes and `report-diff` reads. v2 added the
/// `writeback_bypass_overrides` counter to each per-level stats object.
pub const REPORT_SCHEMA_VERSION: u64 = 2;

/// One completed grid cell, ready for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCell {
    /// Canonical workload name.
    pub workload: String,
    /// Display name of the suite the workload belongs to.
    pub suite: String,
    /// Config-variant label (`llc_x<scale>`).
    pub config: String,
    /// LLC capacity multiplier of the variant.
    pub llc_scale: u32,
    /// Policy name.
    pub policy: String,
    /// The full simulation result.
    pub result: SimResult,
    /// Percentage IPC speed-up over the LRU cell of the same
    /// (workload, config), when the grid contains one.
    pub speedup_vs_lru: Option<f64>,
}

/// A raw completed cell as produced by the executor, before derived
/// metrics are attached.
#[derive(Debug, Clone)]
pub struct RawCell {
    /// Config-variant label.
    pub config: String,
    /// LLC capacity multiplier.
    pub llc_scale: u32,
    /// The simulation result (carries workload and policy names).
    pub result: SimResult,
}

/// The deterministic, machine-readable outcome of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Canonical spec echo (grid identity).
    pub spec: CampaignSpec,
    /// One cell per grid point, in spec order.
    pub cells: Vec<CampaignCell>,
}

impl CampaignReport {
    /// Assembles a report from executor output, computing per-cell
    /// speed-ups against the LRU cell of the same (workload, config).
    pub fn build(spec: &CampaignSpec, raw: Vec<RawCell>) -> CampaignReport {
        let cells = raw
            .iter()
            .map(|c| {
                let speedup_vs_lru = raw
                    .iter()
                    .find(|b| {
                        b.result.policy == "lru"
                            && b.result.workload == c.result.workload
                            && b.config == c.config
                    })
                    .filter(|b| b.result.policy != c.result.policy)
                    .map(|b| c.result.speedup_over(&b.result));
                CampaignCell {
                    workload: c.result.workload.clone(),
                    suite: suite_name(&c.result.workload),
                    config: c.config.clone(),
                    llc_scale: c.llc_scale,
                    policy: c.result.policy.clone(),
                    result: c.result.clone(),
                    speedup_vs_lru,
                }
            })
            .collect();
        CampaignReport { spec: spec.clone(), cells }
    }

    /// Canonical JSON rendering (schema v1): spec echo plus one object per
    /// cell with derived metrics and the exact counters.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::int(REPORT_SCHEMA_VERSION)),
            ("campaign", Json::str(&self.spec.name)),
            ("spec", self.spec.canonical_json()),
            ("cells", Json::Arr(self.cells.iter().map(cell_to_json).collect())),
        ])
    }

    /// Pretty-printed canonical JSON (the on-disk `report.json`).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Per-cell CSV with the headline metrics, one row per grid cell.
    pub fn to_csv(&self) -> String {
        self.cells_table().to_csv()
    }

    /// Per-cell metrics table (also the CSV layout).
    pub fn cells_table(&self) -> Table {
        let mut t = Table::new(
            [
                "workload",
                "suite",
                "config",
                "policy",
                "ipc",
                "l1d_mpki",
                "l2_mpki",
                "llc_mpki",
                "llc_hit_%",
                "dram_reach_%",
                "speedup_vs_lru_%",
            ]
            .iter()
            .map(|s| (*s).to_owned())
            .collect(),
        );
        for c in &self.cells {
            let r = &c.result;
            t.row(vec![
                c.workload.clone(),
                c.suite.clone(),
                c.config.clone(),
                c.policy.clone(),
                format!("{:.4}", r.ipc()),
                format!("{:.2}", r.mpki_l1d()),
                format!("{:.2}", r.mpki_l2()),
                format!("{:.2}", r.mpki_llc()),
                format!("{:.2}", 100.0 * r.llc.hit_rate()),
                format!("{:.2}", 100.0 * r.dram_reach_fraction()),
                c.speedup_vs_lru.map(|s| format!("{s:.3}")).unwrap_or_default(),
            ]);
        }
        t
    }

    /// Figure 3's table: geometric-mean speed-up (%) over LRU per suite,
    /// one column per non-LRU policy, for the cells of `config`.
    ///
    /// Suites appear in the paper's order, followed by an `external` row
    /// for ingested `trace:` workloads; a suite absent from the grid is
    /// skipped. Per-workload IPC ratios enter the geomean in spec
    /// (figure) order.
    pub fn speedup_by_suite_table(&self, config: &str) -> Table {
        let policies: Vec<&str> =
            self.spec.policies.iter().map(|p| p.name()).filter(|p| *p != "lru").collect();
        let mut table = Table::new(
            std::iter::once("suite".to_owned())
                .chain(policies.iter().map(|p| (*p).to_owned()))
                .collect(),
        );
        for suite in Suite::ALL.map(Suite::name).into_iter().chain([EXTERNAL]) {
            let suite_cells: Vec<&CampaignCell> =
                self.cells.iter().filter(|c| c.config == config && c.suite == suite).collect();
            if suite_cells.is_empty() {
                continue;
            }
            let mut row = vec![suite.to_owned()];
            for p in &policies {
                // Per-workload IPC ratios, computed straight from the two
                // cells' IPCs (no round-trip through the percentage, which
                // could move a geomean by an ulp).
                let ratios: Vec<f64> = suite_cells
                    .iter()
                    .filter(|c| c.policy == *p)
                    .filter_map(|c| {
                        let base = suite_cells
                            .iter()
                            .find(|b| b.policy == "lru" && b.workload == c.workload)?;
                        let base_ipc = base.result.ipc();
                        (base_ipc > 0.0).then(|| c.result.ipc() / base_ipc)
                    })
                    .collect();
                row.push(if ratios.is_empty() {
                    String::new()
                } else {
                    format!("{:.2}", geomean_speedup_percent(&ratios))
                });
            }
            table.row(row);
        }
        table
    }

    /// Figure 2's table: per-workload MPKI at each level under LRU, DRAM
    /// reach and IPC, with the paper's mean row, for the cells of
    /// `config`.
    pub fn mpki_table(&self, config: &str) -> Table {
        let mut table = Table::new(
            ["workload", "L1D", "L2C", "LLC", "dram_reach_%", "ipc"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
        );
        let mut sums = [0.0f64; 3];
        let mut reach_num = 0u64;
        let mut reach_den = 0u64;
        let rows: Vec<&CampaignCell> =
            self.cells.iter().filter(|c| c.config == config && c.policy == "lru").collect();
        for c in &rows {
            let r = &c.result;
            sums[0] += r.mpki_l1d();
            sums[1] += r.mpki_l2();
            sums[2] += r.mpki_llc();
            reach_num += r.llc.demand_misses;
            reach_den += r.l1d.demand_misses;
            table.row(vec![
                c.workload.clone(),
                format!("{:.1}", r.mpki_l1d()),
                format!("{:.1}", r.mpki_l2()),
                format!("{:.1}", r.mpki_llc()),
                format!("{:.1}", 100.0 * r.dram_reach_fraction()),
                format!("{:.3}", r.ipc()),
            ]);
        }
        if !rows.is_empty() {
            let k = rows.len() as f64;
            table.row(vec![
                "mean".into(),
                format!("{:.1}", sums[0] / k),
                format!("{:.1}", sums[1] / k),
                format!("{:.1}", sums[2] / k),
                format!("{:.1}", 100.0 * reach_num as f64 / reach_den.max(1) as f64),
                String::new(),
            ]);
        }
        table
    }

    /// The paper's view of this grid, one titled table per config
    /// variant, chosen from the swept policies alone: LRU only is a
    /// characterization ([`CampaignReport::mpki_table`], Figure 2), LRU
    /// plus others a comparison
    /// ([`CampaignReport::speedup_by_suite_table`], Figure 3), and a grid
    /// without the LRU baseline has neither.
    pub fn paper_views(&self) -> Vec<(String, Table)> {
        let policies = &self.spec.policies;
        let configs = self.spec.configs().into_iter().map(|(config, _)| config);
        if !policies.contains(&PolicyKind::Lru) {
            Vec::new()
        } else if policies.len() == 1 {
            let title = |c: &str| format!("{c}: MPKI by cache level under LRU");
            configs.map(|c| (title(&c), self.mpki_table(&c))).collect()
        } else {
            let title = |c: &str| format!("{c}: geomean speed-up (%) over LRU per suite");
            configs.map(|c| (title(&c), self.speedup_by_suite_table(&c))).collect()
        }
    }
}

/// The display suite of ingested `trace:` workloads.
const EXTERNAL: &str = "external";

/// The display suite of a workload: ingested `trace:` selectors report
/// as [`EXTERNAL`], everything else by its benchmark suite.
fn suite_name(workload: &str) -> String {
    if workload.starts_with("trace:") {
        EXTERNAL.to_owned()
    } else {
        Suite::of_workload(workload).name().to_owned()
    }
}

fn cell_to_json(c: &CampaignCell) -> Json {
    let r = &c.result;
    Json::obj(vec![
        ("workload", Json::str(&c.workload)),
        ("suite", Json::str(&c.suite)),
        ("config", Json::str(&c.config)),
        ("llc_scale", Json::int(c.llc_scale as u64)),
        ("policy", Json::str(&c.policy)),
        ("ipc", Json::num(r.ipc())),
        (
            "mpki",
            Json::obj(vec![
                ("l1d", Json::num(r.mpki_l1d())),
                ("l2", Json::num(r.mpki_l2())),
                ("llc", Json::num(r.mpki_llc())),
            ]),
        ),
        (
            "hit_rate",
            Json::obj(vec![
                ("l1d", Json::num(r.l1d.hit_rate())),
                ("l2", Json::num(r.l2.hit_rate())),
                ("llc", Json::num(r.llc.hit_rate())),
            ]),
        ),
        ("dram_reach_fraction", Json::num(r.dram_reach_fraction())),
        ("speedup_vs_lru_percent", c.speedup_vs_lru.map(Json::num).unwrap_or(Json::Null)),
        ("counters", sim_result_to_json(r)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_core::CacheStats;

    fn raw_cell(
        workload: &str,
        config: &str,
        llc_scale: u32,
        policy: &str,
        cycles: u64,
    ) -> RawCell {
        RawCell {
            config: config.to_owned(),
            llc_scale,
            result: SimResult {
                workload: workload.to_owned(),
                policy: policy.to_owned(),
                instructions: 10_000,
                cycles,
                l1d: CacheStats {
                    demand_accesses: 100,
                    demand_hits: 80,
                    demand_misses: 20,
                    ..Default::default()
                },
                l2: CacheStats::default(),
                llc: CacheStats {
                    demand_accesses: 20,
                    demand_hits: 5,
                    demand_misses: 15,
                    ..Default::default()
                },
                dram: Default::default(),
                llc_diag: String::new(),
            },
        }
    }

    fn spec() -> CampaignSpec {
        CampaignSpec::from_json_str(
            r#"{"name": "t", "workloads": ["bfs.kron"], "policies": ["lru", "srrip"]}"#,
        )
        .unwrap()
    }

    #[test]
    fn speedup_is_relative_to_lru_of_same_workload_and_config() {
        let report = CampaignReport::build(
            &spec(),
            vec![
                raw_cell("bfs.kron", "llc_x1", 1, "lru", 1000),
                raw_cell("bfs.kron", "llc_x1", 1, "srrip", 800),
                raw_cell("bfs.kron", "llc_x2", 2, "lru", 500),
                raw_cell("bfs.kron", "llc_x2", 2, "srrip", 500),
            ],
        );
        assert_eq!(report.cells[0].speedup_vs_lru, None, "lru has no self-speedup");
        assert!((report.cells[1].speedup_vs_lru.unwrap() - 25.0).abs() < 1e-9);
        assert!((report.cells[3].speedup_vs_lru.unwrap() - 0.0).abs() < 1e-9);
        assert_eq!(report.cells[0].suite, "GAPBS");
    }

    #[test]
    fn json_contains_schema_version_and_counters() {
        let report =
            CampaignReport::build(&spec(), vec![raw_cell("bfs.kron", "llc_x1", 1, "lru", 1000)]);
        let j = report.to_json();
        assert_eq!(j.get("schema_version").and_then(Json::as_u64), Some(REPORT_SCHEMA_VERSION));
        let cells = j.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), 1);
        let counters = cells[0].get("counters").unwrap();
        assert_eq!(
            counters.get("l1d").unwrap().get("demand_misses").and_then(Json::as_u64),
            Some(20)
        );
        assert_eq!(cells[0].get("speedup_vs_lru_percent"), Some(&Json::Null));
    }

    #[test]
    fn csv_has_one_row_per_cell() {
        let report = CampaignReport::build(
            &spec(),
            vec![
                raw_cell("bfs.kron", "llc_x1", 1, "lru", 1000),
                raw_cell("bfs.kron", "llc_x1", 1, "srrip", 900),
            ],
        );
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("workload,suite,config,policy,ipc"));
    }

    #[test]
    fn suite_speedup_table_matches_geomean_semantics() {
        let report = CampaignReport::build(
            &spec(),
            vec![
                raw_cell("bfs.kron", "llc_x1", 1, "lru", 1000),
                raw_cell("bfs.kron", "llc_x1", 1, "srrip", 800),
            ],
        );
        let t = report.speedup_by_suite_table("llc_x1");
        let csv = t.to_csv();
        assert!(csv.contains("GAPBS,25.00"), "{csv}");
        assert!(!csv.contains("SPEC"), "absent suites are skipped");
    }

    #[test]
    fn suite_speedup_table_keeps_external_traces() {
        let report = CampaignReport::build(
            &spec(),
            vec![
                raw_cell("bfs.kron", "llc_x1", 1, "lru", 1000),
                raw_cell("bfs.kron", "llc_x1", 1, "srrip", 800),
                raw_cell("trace:t.cctr", "llc_x1", 1, "lru", 1000),
                raw_cell("trace:t.cctr", "llc_x1", 1, "srrip", 500),
            ],
        );
        let csv = report.speedup_by_suite_table("llc_x1").to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert_eq!(rows, ["GAPBS,25.00", "external,100.00"], "{csv}");
    }

    #[test]
    fn mpki_table_appends_mean_row() {
        let report = CampaignReport::build(
            &spec(),
            vec![
                raw_cell("bfs.kron", "llc_x1", 1, "lru", 1000),
                raw_cell("pr.twitter", "llc_x1", 1, "lru", 1000),
            ],
        );
        let t = report.mpki_table("llc_x1");
        assert_eq!(t.len(), 3);
        let csv = t.to_csv();
        assert!(csv.lines().last().unwrap().starts_with("mean,2.0,0.0,1.5,75.0"), "{csv}");
    }
}
