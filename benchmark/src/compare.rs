//! `compare.sh A.json B.json`: is B worse than A by more than a bound?
//!
//! The tool for the two-set stability check of one commit, and for
//! parent-vs-change rows later. Every workload × end-to-end metric gets its
//! own row; there is no combined score.

use std::fmt::Write as _;

use ccsim_campaign::Json;

/// One workload × end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Value in A (the reference).
    pub a: f64,
    /// Value in B.
    pub b: f64,
    /// How much worse B is than A, as a share of A (negative: better).
    pub worse: f64,
    /// The share the metric may worsen by.
    pub bound: f64,
}

impl Row {
    /// `true` when B is not worse than A by more than the bound.
    pub fn within(&self) -> bool {
        self.worse <= self.bound
    }
}

/// The outcome of comparing two result documents.
#[derive(Debug, Default)]
pub struct Comparison {
    /// One row per workload × end-to-end metric present in both.
    pub rows: Vec<Row>,
    /// Things a reader should know that do not fail the comparison.
    pub warnings: Vec<String>,
    /// Failed checks in either document.
    pub failures: Vec<String>,
}

impl Comparison {
    /// `true` when every row is within its bound and no check failed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty() && self.rows.iter().all(Row::within)
    }

    /// The table, warnings and verdict as text.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<14} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict\n",
            "workload", "metric", "A", "B", "worse", "bound"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<14} {:<14} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}%  {}",
                r.workload,
                r.metric,
                r.a,
                r.b,
                100.0 * r.worse,
                100.0 * r.bound,
                if r.within() { "within" } else { "OUTSIDE" }
            );
        }
        for w in &self.warnings {
            let _ = writeln!(out, "warning: {w}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "failure: {f}");
        }
        let _ = writeln!(out, "{}", if self.ok() { "ok: every bound holds" } else { "FAILED" });
        out
    }
}

fn workloads_of<'a>(doc: &'a Json, which: &str) -> Result<&'a [(String, Json)], String> {
    if doc.get("smoke") != Some(&Json::Bool(false)) {
        return Err(format!(
            "{which} is a --smoke result (or not a result document): its numbers mean nothing"
        ));
    }
    match doc.get("workloads") {
        Some(Json::Obj(pairs)) => Ok(pairs),
        _ => Err(format!("{which} has no \"workloads\" object")),
    }
}

/// Compares result document `b` against the reference `a`.
///
/// # Errors
///
/// Refuses `--smoke` documents and anything that is not a result document.
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    let mut out = Comparison::default();
    let b_workloads = workloads_of(b, "B")?;
    for (name, wa) in workloads_of(a, "A")? {
        let Some((_, wb)) = b_workloads.iter().find(|(n, _)| n == name) else {
            out.warnings.push(format!("{name}: only in A"));
            continue;
        };
        for (which, w) in [("A", wa), ("B", wb)] {
            if w.get("failed").and_then(Json::as_u64) != Some(0) {
                out.failures.push(format!("{name}: {which} has failed checks"));
            }
        }
        if wa.get("stats_digest") != wb.get("stats_digest") {
            out.warnings
                .push(format!("{name}: simulated statistics changed (stats_digest differs)"));
        }
        let Some(Json::Obj(metrics)) = wa.get("metrics") else {
            return Err(format!("A: {name} has no metrics"));
        };
        for (metric, ma) in metrics {
            let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_f64);
            let b_value =
                wb.get("metrics").and_then(|m| m.get(metric)).and_then(|m| field(m, "value"));
            let (Some(a_value), Some(bound), Some(better), Some(b_value)) = (
                field(ma, "value"),
                field(ma, "bound"),
                ma.get("better").and_then(Json::as_str),
                b_value,
            ) else {
                return Err(format!("{name}.{metric}: value, better or bound missing"));
            };
            let worse = match better {
                "lower" => (b_value - a_value) / a_value,
                "higher" => (a_value - b_value) / a_value,
                other => return Err(format!("{name}.{metric}: better is {other:?}")),
            };
            out.rows.push(Row {
                workload: name.clone(),
                metric: metric.clone(),
                a: a_value,
                b: b_value,
                worse,
                bound,
            });
        }
    }
    for (name, _) in b_workloads {
        if !out.rows.iter().any(|r| &r.workload == name) {
            out.warnings.push(format!("{name}: only in B"));
        }
    }
    if out.rows.is_empty() {
        return Err("the documents share no workload".to_owned());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(smoke: bool, rps: f64, heap: f64, digest: &str, failed: u64) -> Json {
        Json::parse(&format!(
            r#"{{"smoke": {smoke}, "workloads": {{"gap_miss": {{
                "failed": {failed}, "stats_digest": "{digest}",
                "metrics": {{
                  "records_per_s": {{"value": {rps}, "unit": "1/s", "better": "higher", "bound": 0.1}},
                  "peak_heap_mb": {{"value": {heap}, "unit": "MB", "better": "lower", "bound": 0.02}}
                }}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let a = doc(false, 100.0, 50.0, "d", 0);
        // 5 % slower and 1 % more heap: both inside.
        let inside = compare(&a, &doc(false, 95.0, 50.5, "d", 0)).unwrap();
        assert!(inside.ok(), "{}", inside.render());
        assert!((inside.rows[0].worse - 0.05).abs() < 1e-12);
        // Faster and leaner is never a regression.
        assert!(compare(&a, &doc(false, 150.0, 10.0, "d", 0)).unwrap().ok());
        // 12 % slower breaks the 10 % bound; 3 % more heap breaks 2 %.
        let slower = compare(&a, &doc(false, 88.0, 50.0, "d", 0)).unwrap();
        assert!(!slower.ok() && !slower.rows[0].within() && slower.rows[1].within());
        let fatter = compare(&a, &doc(false, 100.0, 51.5, "d", 0)).unwrap();
        assert!(!fatter.ok() && fatter.render().contains("OUTSIDE"));
    }

    #[test]
    fn a_changed_digest_warns_but_failed_checks_fail() {
        let a = doc(false, 100.0, 50.0, "d1", 0);
        let changed = compare(&a, &doc(false, 100.0, 50.0, "d2", 0)).unwrap();
        assert!(changed.ok());
        assert!(changed.warnings.iter().any(|w| w.contains("simulated statistics changed")));
        let failed = compare(&a, &doc(false, 100.0, 50.0, "d1", 2)).unwrap();
        assert!(!failed.ok());
    }

    #[test]
    fn smoke_documents_are_refused() {
        let a = doc(false, 100.0, 50.0, "d", 0);
        let smoke = doc(true, 100.0, 50.0, "d", 0);
        assert!(compare(&a, &smoke).is_err());
        assert!(compare(&smoke, &a).is_err());
        assert!(compare(&a, &Json::Null).is_err());
    }
}
