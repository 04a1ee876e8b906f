//! One ledger entry: everything recorded about a single revision.

use ccsim_obs::Json;

use crate::ingest::{BenchSummary, DiffSummary, ManifestSummary, WatchSummary};
use crate::TRENDS_SCHEMA_VERSION;

/// One line of `trends.jsonl`: a revision tag plus the distilled
/// summaries of whichever source documents were recorded for it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrendEntry {
    /// Git revision (or any unique build identifier).
    pub rev: String,
    /// Free-form label (branch, tag, CI run id); may be empty.
    pub label: String,
    /// Capture timestamp, an opaque string chosen by the recorder
    /// (unix seconds from the CLI). Never interpreted — entry order in
    /// the ledger, not timestamps, defines history.
    pub timestamp: String,
    /// `benchmark/run.sh` result summary, when recorded.
    pub bench: Option<BenchSummary>,
    /// `report-diff --json` summary, when recorded.
    pub diff: Option<DiffSummary>,
    /// Per-worker obs-manifest summaries, in recording order.
    pub manifests: Vec<ManifestSummary>,
    /// `campaign watch --once --json` summary, when recorded.
    pub watch: Option<WatchSummary>,
}

impl TrendEntry {
    /// A bare entry tagged with a revision.
    pub fn new(rev: &str, label: &str, timestamp: &str) -> TrendEntry {
        TrendEntry {
            rev: rev.to_owned(),
            label: label.to_owned(),
            timestamp: timestamp.to_owned(),
            ..TrendEntry::default()
        }
    }

    /// The short revision used in table headers (first 10 characters).
    pub fn short_rev(&self) -> &str {
        let end = self.rev.char_indices().nth(10).map_or(self.rev.len(), |(i, _)| i);
        &self.rev[..end]
    }

    /// The bench summary, when one was recorded at the given scale
    /// (`quick`: a smoke run).
    pub(crate) fn bench_at(&self, quick: bool) -> Option<&BenchSummary> {
        self.bench.as_ref().filter(|b| b.quick == quick)
    }

    /// Fleet records/sec for this entry: the watch aggregate when
    /// recorded, else the sum over recorded worker manifests (`None`
    /// when neither source is present).
    pub fn fleet_records_per_sec(&self) -> Option<u64> {
        if let Some(w) = &self.watch {
            return Some(w.records_per_sec());
        }
        if self.manifests.is_empty() {
            return None;
        }
        let records: u64 = self.manifests.iter().map(|m| m.records_simulated).sum();
        let wall: u64 = self.manifests.iter().map(|m| m.sim_wall_ns).sum();
        Some(ccsim_obs::records_per_sec(records, wall))
    }

    /// Fleet per-cell sim-time p99, nanoseconds: from the watch
    /// aggregate when recorded, else the worst recorded worker p99.
    pub fn fleet_cell_sim_p99_ns(&self) -> Option<u64> {
        if let Some(q) = self.watch.as_ref().and_then(|w| w.cell_sim.as_ref()) {
            return Some(q.p99);
        }
        self.manifests.iter().filter_map(|m| m.cell_sim.as_ref().map(|q| q.p99)).max()
    }

    /// The single-line ledger representation (compact JSON, no
    /// trailing newline).
    pub fn to_json_line(&self) -> String {
        let manifests = self.manifests.iter().map(ManifestSummary::to_json).collect();
        Json::obj(vec![
            ("ccsim_trends", Json::int(TRENDS_SCHEMA_VERSION)),
            ("rev", Json::str(&self.rev)),
            ("label", Json::str(&self.label)),
            ("timestamp", Json::str(&self.timestamp)),
            ("bench", self.bench.as_ref().map_or(Json::Null, BenchSummary::to_json)),
            ("diff", self.diff.as_ref().map_or(Json::Null, DiffSummary::to_json)),
            ("manifests", Json::Arr(manifests)),
            ("watch", self.watch.as_ref().map_or(Json::Null, WatchSummary::to_json)),
        ])
        .to_string()
    }

    /// Parses one ledger line.
    ///
    /// # Errors
    ///
    /// Returns a message when the line is not JSON, not a
    /// `ccsim_trends` entry of a supported schema, or a nested summary
    /// is malformed.
    pub fn from_json_line(line: &str) -> Result<TrendEntry, String> {
        let doc = Json::parse(line).map_err(|e| format!("not JSON: {e}"))?;
        match doc.get("ccsim_trends").and_then(Json::as_u64) {
            Some(v) if v == TRENDS_SCHEMA_VERSION => {}
            Some(v) => return Err(format!("unsupported ccsim_trends schema {v}")),
            None => return Err("not a ccsim_trends entry".to_owned()),
        }
        let rev = doc.get("rev").and_then(Json::as_str).ok_or("entry lacks `rev`")?.to_owned();
        let opt_str = |k: &str| doc.get(k).and_then(Json::as_str).unwrap_or_default().to_owned();
        let bench = match doc.get("bench") {
            None | Some(Json::Null) => None,
            Some(b) => Some(BenchSummary::from_entry_json(b).map_err(|e| format!("bench: {e}"))?),
        };
        let diff = match doc.get("diff") {
            None | Some(Json::Null) => None,
            Some(d) => Some(DiffSummary::from_entry_json(d).map_err(|e| format!("diff: {e}"))?),
        };
        let watch = match doc.get("watch") {
            None | Some(Json::Null) => None,
            Some(w) => Some(WatchSummary::from_entry_json(w).map_err(|e| format!("watch: {e}"))?),
        };
        let mut manifests = Vec::new();
        for m in doc.get("manifests").and_then(Json::as_array).unwrap_or(&[]) {
            manifests
                .push(ManifestSummary::from_entry_json(m).map_err(|e| format!("manifest: {e}"))?);
        }
        Ok(TrendEntry {
            rev,
            label: opt_str("label"),
            timestamp: opt_str("timestamp"),
            bench,
            diff,
            manifests,
            watch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::BenchCellSummary;

    fn sample_entry() -> TrendEntry {
        let mut e = TrendEntry::new("0123456789abcdef", "main", "1754600000");
        e.bench = Some(BenchSummary {
            quick: true,
            overhead_pct: 1.5,
            decode_ns: 100,
            simulate_ns: 900,
            report_ns: 50,
            cells: vec![BenchCellSummary {
                pattern: "llc_thrash".into(),
                policy: "lru".into(),
                records: 10,
                best_rps: 100.5,
                median_rps: 90.25,
            }],
        });
        e.diff = Some(DiffSummary {
            campaign_a: "golden".into(),
            campaign_b: "golden".into(),
            same_grid: true,
            threshold: 0.0,
            max_abs_mpki_delta: 0.0,
            cells_over_threshold: 0,
            cells: 6,
        });
        e
    }

    #[test]
    fn entry_round_trips_through_a_ledger_line() {
        let e = sample_entry();
        let line = e.to_json_line();
        assert!(line.starts_with(r#"{"ccsim_trends":1,"rev":"0123456789abcdef""#), "{line}");
        assert!(!line.contains('\n'), "one line");
        assert_eq!(TrendEntry::from_json_line(&line).unwrap(), e);
        assert_eq!(e.short_rev(), "0123456789");
    }

    #[test]
    fn bad_lines_are_named_errors() {
        assert!(TrendEntry::from_json_line("not json").unwrap_err().contains("not JSON"));
        assert!(TrendEntry::from_json_line("{}").unwrap_err().contains("not a ccsim_trends"));
        let future = r#"{"ccsim_trends": 99, "rev": "x"}"#;
        assert!(TrendEntry::from_json_line(future).unwrap_err().contains("unsupported"));
        let no_rev = r#"{"ccsim_trends": 1}"#;
        assert!(TrendEntry::from_json_line(no_rev).unwrap_err().contains("rev"));
    }

    #[test]
    fn fleet_rollups_prefer_watch_over_manifests() {
        let mut e = TrendEntry::new("r", "", "");
        assert_eq!(e.fleet_records_per_sec(), None);
        assert_eq!(e.fleet_cell_sim_p99_ns(), None);
        e.manifests.push(ManifestSummary {
            worker: "w1".into(),
            cells_done: 1,
            records_simulated: 500,
            sim_wall_ns: 1_000_000_000,
            cell_sim: Some(ccsim_obs::QuantileSummary { p99: 77, ..Default::default() }),
        });
        assert_eq!(e.fleet_records_per_sec(), Some(500));
        assert_eq!(e.fleet_cell_sim_p99_ns(), Some(77));
        e.watch = Some(WatchSummary {
            campaign: "c".into(),
            done: true,
            records_simulated: 4000,
            sim_wall_ns: 1_000_000_000,
            mean_cell_sim_ns: 9,
            cell_sim: Some(ccsim_obs::QuantileSummary { p99: 31, ..Default::default() }),
        });
        assert_eq!(e.fleet_records_per_sec(), Some(4000), "watch aggregate wins");
        assert_eq!(e.fleet_cell_sim_p99_ns(), Some(31));
    }
}
