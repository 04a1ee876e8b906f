//! The regression gate: the newest ledger entry judged against the
//! rolling median of the entries before it.
//!
//! Every gated series has a direction ([`kind_of`]): throughput
//! must not drop, latencies and overhead must not rise, golden-campaign
//! MPKI drift must stay inside an absolute budget. Medians — not means
//! — anchor the comparison so one noisy historical entry cannot move
//! the gate, and a series the history cannot yet support reports
//! `insufficient_history` instead of guessing.

use ccsim_obs::Json;

use crate::entry::TrendEntry;
use crate::CHECK_SCHEMA_VERSION;

/// What kind of quantity a tracked series is, which fixes the
/// direction and form of its regression test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Higher is better; fails when the value drops more than
    /// `max_drop_pct` below the rolling median.
    Throughput,
    /// Lower is better; fails when the value rises more than
    /// `max_rise_pct` above the rolling median. The rule is relative, so
    /// it gates durations in any unit (`setup_s` and `acquire_s` are
    /// seconds).
    LatencyNs,
    /// Lower is better; fails when the value exceeds the rolling
    /// median by more than `max_overhead_rise_pp` percentage points.
    OverheadPct,
    /// An absolute budget, not a relative drift: fails when the value
    /// exceeds `max_mpki_delta` outright (no history required).
    MpkiDelta,
}

impl SeriesKind {
    /// Stable label used in the verdict document.
    pub fn label(&self) -> &'static str {
        match self {
            SeriesKind::Throughput => "throughput",
            SeriesKind::LatencyNs => "latency_ns",
            SeriesKind::OverheadPct => "overhead_pct",
            SeriesKind::MpkiDelta => "mpki_delta",
        }
    }
}

/// The gate rule of series `name`, read from its last path segment —
/// the one place that knows it, so a new ledger series is one name and
/// one arm here. `None` is an informational series (the bench wall
/// split): tables render it last and the gate skips it.
pub fn kind_of(name: &str) -> Option<SeriesKind> {
    match name.rsplit('/').next()? {
        "median_rps" | "records_per_sec" => Some(SeriesKind::Throughput),
        "cell_sim_p99_ns" | "setup_s" | "acquire_s" => Some(SeriesKind::LatencyNs),
        "obs_overhead_pct" => Some(SeriesKind::OverheadPct),
        "max_abs_mpki_delta" => Some(SeriesKind::MpkiDelta),
        _ => None,
    }
}

/// One series over a window of ledger entries, one value slot per
/// entry (in entry order; `None` where an entry did not record it).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Stable series name (`bench/gap_miss/median_rps`, …).
    pub name: String,
    /// Its gate rule, [`kind_of`] the name.
    pub kind: Option<SeriesKind>,
    /// One slot per entry, oldest first.
    pub values: Vec<Option<f64>>,
}

/// Every series `entries` (oldest first) recorded: the first-seen union
/// of their names, gated series before informational ones. Entries list
/// bench, watch, diff series in that order, so rows come out as bench
/// throughput per workload, overhead, fleet, diff, then the wall split.
pub fn extract_series(entries: &[TrendEntry]) -> Vec<Series> {
    let mut names: Vec<&str> = Vec::new();
    for (name, _) in entries.iter().flat_map(|e| &e.series) {
        if !names.contains(&name.as_str()) {
            names.push(name);
        }
    }
    let mut out: Vec<Series> = names
        .into_iter()
        .map(|name| Series {
            name: name.to_owned(),
            kind: kind_of(name),
            values: entries.iter().map(|e| e.value(name)).collect(),
        })
        .collect();
    out.sort_by_key(|s| s.kind.is_none());
    out
}

/// Gate thresholds and history requirements.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOptions {
    /// Rolling-median window: how many previous entries anchor the
    /// baseline.
    pub window: usize,
    /// Minimum prior values a relative series needs before the gate
    /// judges it (below this: `insufficient_history`).
    pub min_history: usize,
    /// Tolerated throughput drop below the median, percent.
    pub max_drop_pct: f64,
    /// Tolerated latency rise above the median, percent.
    pub max_rise_pct: f64,
    /// Tolerated overhead rise above the median, percentage points.
    pub max_overhead_rise_pp: f64,
    /// Absolute budget for golden-campaign MPKI drift.
    pub max_mpki_delta: f64,
}

impl Default for CheckOptions {
    fn default() -> CheckOptions {
        CheckOptions {
            window: 5,
            min_history: 2,
            max_drop_pct: 10.0,
            max_rise_pct: 25.0,
            max_overhead_rise_pp: 1.0,
            max_mpki_delta: 0.0,
        }
    }
}

/// Gate outcome for one series.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesVerdict {
    /// Series name.
    pub name: String,
    /// Series direction.
    pub kind: SeriesKind,
    /// The newest entry's value (`None`: the entry lacks the source).
    pub value: Option<f64>,
    /// Rolling median of the previous window (relative kinds only).
    pub median: Option<f64>,
    /// The computed pass/fail bound the value was compared against.
    pub bound: Option<f64>,
    /// `pass`, `fail`, `insufficient_history`, or `no_data`.
    pub status: &'static str,
}

/// The whole gate outcome for the newest ledger entry.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckVerdict {
    /// Revision judged.
    pub rev: String,
    /// Window / thresholds the gate ran with.
    pub options: CheckOptions,
    /// Per-series outcomes, in [`extract_series`] order.
    pub series: Vec<SeriesVerdict>,
}

impl CheckVerdict {
    /// Whether every judged series passed (`insufficient_history` and
    /// `no_data` do not fail the gate — they are reported, not
    /// punished, so a fresh ledger can bootstrap).
    pub fn pass(&self) -> bool {
        self.series.iter().all(|s| s.status != "fail")
    }

    /// The pinned verdict document ([`CHECK_SCHEMA_VERSION`]).
    pub fn to_json(&self) -> Json {
        let opt_num = |v: Option<f64>| v.map_or(Json::Null, Json::num);
        let series = self
            .series
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::str(&s.name)),
                    ("kind", Json::str(s.kind.label())),
                    ("value", opt_num(s.value)),
                    ("median", opt_num(s.median)),
                    ("bound", opt_num(s.bound)),
                    ("status", Json::str(s.status)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("ccsim_trends_check", Json::int(CHECK_SCHEMA_VERSION)),
            ("rev", Json::str(&self.rev)),
            ("window", Json::int(self.options.window as u64)),
            ("min_history", Json::int(self.options.min_history as u64)),
            ("status", Json::str(if self.pass() { "pass" } else { "fail" })),
            ("series", Json::Arr(series)),
        ])
    }
}

/// Median of an unsorted sample (mean of the middle two for even
/// sizes); `None` when empty.
pub(crate) fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// Runs the gate: the last of `entries` judged against the rolling
/// median of up to `window` entries before it.
///
/// # Errors
///
/// Returns a message when `entries` is empty.
pub fn run_check(entries: &[TrendEntry], options: &CheckOptions) -> Result<CheckVerdict, String> {
    let Some(newest) = entries.last() else {
        return Err("empty ledger: record an entry before checking".to_owned());
    };
    let mut verdicts = Vec::new();
    for s in extract_series(entries) {
        let Some(kind) = s.kind else { continue };
        let (history, value_slot) = s.values.split_at(s.values.len() - 1);
        let value = value_slot[0];
        let prior: Vec<f64> =
            history.iter().rev().filter_map(|v| *v).take(options.window).collect();
        let fail_if = |failed: bool| if failed { "fail" } else { "pass" };
        let (median, bound, status) = match (kind, value) {
            (_, None) => (None, None, "no_data"),
            (SeriesKind::MpkiDelta, Some(v)) => {
                (None, Some(options.max_mpki_delta), fail_if(v > options.max_mpki_delta))
            }
            (_, Some(_)) if prior.len() < options.min_history => {
                (median(&prior), None, "insufficient_history")
            }
            (kind, Some(v)) => {
                let m = median(&prior).expect("min_history >= 1 checked above");
                let (bound, failed) = match kind {
                    SeriesKind::Throughput => {
                        let b = m * (1.0 - options.max_drop_pct / 100.0);
                        (b, v < b)
                    }
                    SeriesKind::LatencyNs => {
                        let b = m * (1.0 + options.max_rise_pct / 100.0);
                        (b, v > b)
                    }
                    SeriesKind::OverheadPct => {
                        let b = m + options.max_overhead_rise_pp;
                        (b, v > b)
                    }
                    SeriesKind::MpkiDelta => unreachable!("handled above"),
                };
                (Some(m), Some(bound), fail_if(failed))
            }
        };
        verdicts.push(SeriesVerdict { name: s.name, kind, value, median, bound, status });
    }
    Ok(CheckVerdict { rev: newest.rev.clone(), options: options.clone(), series: verdicts })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(rev: &str, series: &[(&str, f64)]) -> TrendEntry {
        let mut e = TrendEntry::new(rev, "", "");
        e.series = series.iter().map(|&(name, v)| (name.to_owned(), v)).collect();
        e
    }

    /// A full-scale traced bench entry, its wall split included.
    fn bench_entry(rev: &str, rps: f64, overhead: f64) -> TrendEntry {
        entry(
            rev,
            &[
                ("bench/llc_thrash/median_rps", rps),
                ("bench/obs_overhead_pct", overhead),
                ("bench/wall/simulate_pct", 80.0),
            ],
        )
    }

    #[test]
    fn kind_of_reads_the_last_path_segment() {
        assert_eq!(kind_of("bench.smoke/gap_miss/median_rps"), Some(SeriesKind::Throughput));
        assert_eq!(kind_of("fleet/records_per_sec"), Some(SeriesKind::Throughput));
        assert_eq!(kind_of("fleet/cell_sim_p99_ns"), Some(SeriesKind::LatencyNs));
        assert_eq!(kind_of("bench/setup_s"), Some(SeriesKind::LatencyNs));
        assert_eq!(kind_of("bench/acquire_s"), Some(SeriesKind::LatencyNs));
        assert_eq!(kind_of("bench/obs_overhead_pct"), Some(SeriesKind::OverheadPct));
        assert_eq!(kind_of("diff/max_abs_mpki_delta"), Some(SeriesKind::MpkiDelta));
        assert_eq!(kind_of("bench/wall/decode_pct"), None);
    }

    #[test]
    fn informational_series_come_last_and_are_never_gated() {
        let mut entries: Vec<TrendEntry> =
            (0..3).map(|i| bench_entry(&format!("r{i}"), 100.0, 1.0)).collect();
        entries.push(entry(
            "r3",
            &[("bench/wall/simulate_pct", 10.0), ("diff/max_abs_mpki_delta", 0.0)],
        ));
        let names: Vec<String> = extract_series(&entries).into_iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "bench/llc_thrash/median_rps",
                "bench/obs_overhead_pct",
                "diff/max_abs_mpki_delta",
                "bench/wall/simulate_pct"
            ]
        );
        let verdict = run_check(&entries, &CheckOptions::default()).unwrap();
        assert!(verdict.pass());
        assert_eq!(verdict.series.len(), 3, "the wall row is not judged");
    }

    #[test]
    fn untraced_entries_do_not_anchor_the_overhead_gate() {
        let untraced = |rev: &str| entry(rev, &[("bench.smoke/gap_miss/median_rps", 100.0)]);
        let mut entries = vec![untraced("r0"), untraced("r1"), untraced("r2")];
        entries.push(entry(
            "traced",
            &[("bench.smoke/gap_miss/median_rps", 100.0), ("bench.smoke/obs_overhead_pct", 2.8)],
        ));
        let verdict = run_check(&entries, &CheckOptions::default()).unwrap();
        assert!(verdict.pass(), "{:?}", verdict.series);
        let overhead = &verdict.series[1];
        assert_eq!(overhead.name, "bench.smoke/obs_overhead_pct");
        assert_eq!((overhead.status, overhead.median), ("insufficient_history", None));
    }

    #[test]
    fn doubled_setup_time_fails_the_gate() {
        let setup = |rev: &str, s: f64| entry(rev, &[("bench/setup_s", s)]);
        let mut entries = vec![setup("r0", 1.0), setup("r1", 1.1), setup("r2", 0.9)];
        entries.push(setup("steady", 1.2));
        assert!(run_check(&entries, &CheckOptions::default()).unwrap().pass());
        entries.pop();
        entries.push(setup("doubled", 2.0));
        let verdict = run_check(&entries, &CheckOptions::default()).unwrap();
        assert!(!verdict.pass());
        let s = &verdict.series[0];
        assert_eq!((s.kind, s.median, s.status), (SeriesKind::LatencyNs, Some(1.0), "fail"));
    }

    #[test]
    fn doubled_acquire_time_fails_the_gate() {
        let acquire = |rev: &str, s: f64| entry(rev, &[("bench/acquire_s", s)]);
        let mut entries = vec![acquire("r0", 0.40), acquire("r1", 0.44), acquire("r2", 0.38)];
        entries.push(acquire("steady", 0.45));
        assert!(run_check(&entries, &CheckOptions::default()).unwrap().pass());
        entries.pop();
        entries.push(acquire("doubled", 0.80));
        let verdict = run_check(&entries, &CheckOptions::default()).unwrap();
        assert!(!verdict.pass());
        let s = &verdict.series[0];
        assert_eq!((s.kind, s.median, s.status), (SeriesKind::LatencyNs, Some(0.40), "fail"));
    }

    #[test]
    fn median_is_robust_to_order_and_parity() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[3.0, 1.0]), Some(2.0));
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
    }

    #[test]
    fn gate_passes_within_threshold_and_fails_beyond_it() {
        let entries: Vec<TrendEntry> = [100.0, 102.0, 98.0, 101.0, 95.0]
            .iter()
            .enumerate()
            .map(|(i, &rps)| bench_entry(&format!("r{i}"), rps, 1.0))
            .collect();
        // Median of the previous four is 100.5; 95 is a 5.5% drop —
        // inside the default 10% budget.
        let verdict = run_check(&entries, &CheckOptions::default()).unwrap();
        assert!(verdict.pass());
        let rps = &verdict.series[0];
        assert_eq!(rps.name, "bench/llc_thrash/median_rps");
        assert_eq!(rps.status, "pass");
        assert_eq!(rps.median, Some(100.5));

        // An 80-rps entry is a 20% drop: fail, and the verdict
        // document says so.
        let mut bad = entries.clone();
        bad.push(bench_entry("r5", 80.0, 1.0));
        let verdict = run_check(&bad, &CheckOptions::default()).unwrap();
        assert!(!verdict.pass());
        let json = verdict.to_json().to_string();
        assert!(json.starts_with(r#"{"ccsim_trends_check":1,"rev":"r5""#), "{json}");
        assert!(json.contains(r#""status":"fail""#));
    }

    #[test]
    fn overhead_creep_fails_in_percentage_points() {
        let mut entries: Vec<TrendEntry> =
            (0..4).map(|i| bench_entry(&format!("r{i}"), 100.0, 1.0)).collect();
        entries.push(bench_entry("r4", 100.0, 1.9));
        let verdict = run_check(&entries, &CheckOptions::default()).unwrap();
        assert!(verdict.pass(), "0.9pp rise is inside the 1pp budget");
        entries.push(bench_entry("r5", 100.0, 2.5));
        let verdict = run_check(&entries, &CheckOptions::default()).unwrap();
        let overhead = verdict.series.iter().find(|s| s.name == "bench/obs_overhead_pct").unwrap();
        assert_eq!(overhead.status, "fail", "1.5pp over a ~1.0 median");
    }

    #[test]
    fn short_history_reports_insufficient_not_fail() {
        let entries = vec![bench_entry("r0", 100.0, 1.0), bench_entry("r1", 10.0, 1.0)];
        let verdict = run_check(&entries, &CheckOptions::default()).unwrap();
        assert!(verdict.pass(), "one prior entry < min_history 2");
        assert_eq!(verdict.series[0].status, "insufficient_history");
        assert!(run_check(&[], &CheckOptions::default()).is_err());
    }

    #[test]
    fn smoke_and_full_scale_entries_are_separate_series() {
        // Three full-scale entries, then a smoke run at a tenth of the
        // throughput and a higher overhead: different inputs, not a
        // regression.
        let mut entries: Vec<TrendEntry> =
            (0..3).map(|i| bench_entry(&format!("r{i}"), 100.0, 1.0)).collect();
        entries.push(entry(
            "smoke",
            &[("bench.smoke/llc_thrash/median_rps", 10.0), ("bench.smoke/obs_overhead_pct", 4.0)],
        ));
        let verdict = run_check(&entries, &CheckOptions::default()).unwrap();
        assert!(verdict.pass(), "{:?}", verdict.series);
        let status = |name: &str| verdict.series.iter().find(|s| s.name == name).unwrap().status;
        assert_eq!(status("bench/llc_thrash/median_rps"), "no_data");
        assert_eq!(status("bench.smoke/llc_thrash/median_rps"), "insufficient_history");
        assert_eq!(status("bench.smoke/obs_overhead_pct"), "insufficient_history");

        // The next full-scale entry is still judged against the full
        // history, across the smoke entry in between.
        entries.push(bench_entry("r4", 80.0, 1.0));
        let verdict = run_check(&entries, &CheckOptions::default()).unwrap();
        let rps = verdict.series.iter().find(|s| s.name == "bench/llc_thrash/median_rps").unwrap();
        assert_eq!((rps.status, rps.median), ("fail", Some(100.0)));
    }

    #[test]
    fn mpki_budget_is_absolute_and_needs_no_history() {
        let mut e = entry("r0", &[("diff/max_abs_mpki_delta", 0.0)]);
        let verdict = run_check(std::slice::from_ref(&e), &CheckOptions::default()).unwrap();
        assert!(verdict.pass());
        e.series[0].1 = 0.001;
        let verdict = run_check(std::slice::from_ref(&e), &CheckOptions::default()).unwrap();
        assert!(!verdict.pass(), "any drift over the 0.0 budget fails");
        let opts = CheckOptions { max_mpki_delta: 0.01, ..CheckOptions::default() };
        assert!(run_check(std::slice::from_ref(&e), &opts).unwrap().pass());
    }

    #[test]
    fn missing_sources_report_no_data() {
        let mut entries: Vec<TrendEntry> =
            (0..3).map(|i| bench_entry(&format!("r{i}"), 100.0, 1.0)).collect();
        entries.push(TrendEntry::new("r3", "", ""));
        let verdict = run_check(&entries, &CheckOptions::default()).unwrap();
        assert!(verdict.pass());
        assert!(verdict.series.iter().all(|s| s.status == "no_data"));
    }

    #[test]
    fn window_bounds_the_baseline() {
        // Nine ancient fast entries, then four slow ones, then a slow
        // candidate: with window 4 the median is the recent regime and
        // the candidate passes.
        let mut entries: Vec<TrendEntry> =
            (0..9).map(|i| bench_entry(&format!("old{i}"), 1000.0, 1.0)).collect();
        entries.extend((0..4).map(|i| bench_entry(&format!("new{i}"), 100.0, 1.0)));
        entries.push(bench_entry("cand", 98.0, 1.0));
        let opts = CheckOptions { window: 4, ..CheckOptions::default() };
        assert!(run_check(&entries, &opts).unwrap().pass());
        // A window spanning the old regime fails the same candidate.
        let opts = CheckOptions { window: 12, ..CheckOptions::default() };
        assert!(!run_check(&entries, &opts).unwrap().pass());
    }
}
