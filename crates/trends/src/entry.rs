//! One ledger entry: everything recorded about a single revision.

use ccsim_obs::Json;

use crate::ingest::SeriesList;
use crate::TRENDS_SCHEMA_VERSION;

/// One line of `trends.jsonl`: a revision tag plus the named series
/// recorded for it.
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
    /// `(series name, value)` pairs in recording order: bench, watch,
    /// diff ([`crate::ingest`]). A quantity no document carried is
    /// absent, not zero.
    pub series: SeriesList,
}

impl TrendEntry {
    /// A bare entry tagged with a revision.
    pub fn new(rev: &str, label: &str, timestamp: &str) -> TrendEntry {
        TrendEntry {
            rev: rev.to_owned(),
            label: label.to_owned(),
            timestamp: timestamp.to_owned(),
            series: Vec::new(),
        }
    }

    /// The short revision used in table headers (first 10 characters).
    pub fn short_rev(&self) -> &str {
        let end = self.rev.char_indices().nth(10).map_or(self.rev.len(), |(i, _)| i);
        &self.rev[..end]
    }

    /// The value of series `name`, when this entry recorded it.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.series.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The single-line ledger representation (compact JSON, no
    /// trailing newline).
    pub fn to_json_line(&self) -> String {
        let series = self.series.iter().map(|(name, v)| (name.clone(), Json::num(*v))).collect();
        Json::obj(vec![
            ("ccsim_trends", Json::int(TRENDS_SCHEMA_VERSION)),
            ("rev", Json::str(&self.rev)),
            ("label", Json::str(&self.label)),
            ("timestamp", Json::str(&self.timestamp)),
            ("series", Json::Obj(series)),
        ])
        .to_string()
    }

    /// Parses one ledger line.
    ///
    /// # Errors
    ///
    /// Returns a message when the line is not JSON, not a
    /// `ccsim_trends` entry of the current schema, or a series value is
    /// not a number.
    pub fn from_json_line(line: &str) -> Result<TrendEntry, String> {
        let doc = Json::parse(line).map_err(|e| format!("not JSON: {e}"))?;
        match doc.get("ccsim_trends").and_then(Json::as_u64) {
            Some(v) if v == TRENDS_SCHEMA_VERSION => {}
            Some(v) => return Err(format!("unsupported ccsim_trends schema {v}")),
            None => return Err("not a ccsim_trends entry".to_owned()),
        }
        let rev = doc.get("rev").and_then(Json::as_str).ok_or("entry lacks `rev`")?.to_owned();
        let opt_str = |k: &str| doc.get(k).and_then(Json::as_str).unwrap_or_default().to_owned();
        let Some(Json::Obj(pairs)) = doc.get("series") else {
            return Err("entry lacks object `series`".to_owned());
        };
        let series = pairs
            .iter()
            .map(|(name, v)| {
                v.as_f64()
                    .map(|v| (name.clone(), v))
                    .ok_or(format!("series `{name}` is not a number"))
            })
            .collect::<Result<_, _>>()?;
        Ok(TrendEntry { rev, label: opt_str("label"), timestamp: opt_str("timestamp"), series })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_round_trips_through_a_ledger_line() {
        let mut e = TrendEntry::new("0123456789abcdef", "main", "1754600000");
        e.series = vec![
            ("bench.smoke/gap_miss/median_rps".to_owned(), 90.25),
            ("bench.smoke/obs_overhead_pct".to_owned(), 1.5),
            ("diff/max_abs_mpki_delta".to_owned(), 0.0),
        ];
        let line = e.to_json_line();
        assert!(line.starts_with(r#"{"ccsim_trends":2,"rev":"0123456789abcdef""#), "{line}");
        assert!(line.ends_with(r#""series":{"bench.smoke/gap_miss/median_rps":90.25,"bench.smoke/obs_overhead_pct":1.5,"diff/max_abs_mpki_delta":0}}"#), "{line}");
        assert!(!line.contains('\n'), "one line");
        assert_eq!(TrendEntry::from_json_line(&line).unwrap(), e);
        assert_eq!(e.short_rev(), "0123456789");
        assert_eq!(e.value("bench.smoke/obs_overhead_pct"), Some(1.5));
        assert_eq!(e.value("bench/obs_overhead_pct"), None);
    }

    #[test]
    fn bad_lines_are_named_errors() {
        let err = |line: &str| TrendEntry::from_json_line(line).unwrap_err();
        assert!(err("not json").contains("not JSON"));
        assert!(err("{}").contains("not a ccsim_trends"));
        assert!(err(r#"{"ccsim_trends": 99, "rev": "x"}"#).contains("unsupported"));
        let v1 = r#"{"ccsim_trends":1,"rev":"seed","bench":null,"diff":null,"manifests":[]}"#;
        assert_eq!(err(v1), "unsupported ccsim_trends schema 1");
        assert!(err(r#"{"ccsim_trends": 2}"#).contains("rev"));
        assert!(err(r#"{"ccsim_trends": 2, "rev": "x"}"#).contains("series"));
        let null = r#"{"ccsim_trends": 2, "rev": "x", "series": {"a/b": null}}"#;
        assert!(err(null).contains("a/b"));
    }
}
