//! Deterministic trend tables: tracked series × the last N revisions,
//! with a unicode sparkline per row.
//!
//! Output is a pure function of the ledger slice — no clocks, no
//! locale, no float-formatting ambiguity (fixed precision everywhere)
//! — so a fixed ledger renders byte-identically forever, which is what
//! `tests/trends.rs` pins and what makes the table diffable as a CI
//! artifact.

use crate::check::{extract_series, SeriesKind};
use crate::entry::TrendEntry;

/// Sparkline glyphs, low to high.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Scales a non-negative quantity with G/M/k suffixes at fixed
/// two-decimal precision (`1234567` → `1.23M`), plain integers under
/// 1000 rendered exactly.
fn fmt_scaled(v: f64) -> String {
    let a = v.abs();
    if a >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if a >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if a >= 1e3 {
        format!("{:.2}k", v / 1e3)
    } else if v == v.trunc() {
        format!("{v}")
    } else {
        format!("{v:.2}")
    }
}

/// Formats one cell of a series row (`None`: an informational
/// percentage, one decimal).
fn fmt_value(kind: Option<SeriesKind>, v: f64) -> String {
    match kind {
        Some(SeriesKind::Throughput | SeriesKind::LatencyNs) => fmt_scaled(v),
        Some(SeriesKind::OverheadPct) => format!("{v:.2}"),
        Some(SeriesKind::MpkiDelta) => format!("{v:.4}"),
        None => format!("{v:.1}"),
    }
}

/// A sparkline over a row's present values, scaled to its own
/// min..max ( `·` marks a revision with no value; a flat row renders
/// mid-scale).
fn sparkline(values: &[Option<f64>]) -> String {
    let present: Vec<f64> = values.iter().filter_map(|v| *v).collect();
    let (min, max) = present
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    values
        .iter()
        .map(|v| match v {
            None => '·',
            Some(v) if max == min => SPARKS[3],
            Some(v) => {
                let t = (v - min) / (max - min);
                SPARKS[((t * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// Renders the trend table for `entries` (oldest first; pass
/// [`crate::Ledger::last_n`]). One column per revision, one row per
/// series in [`extract_series`] order (gated, then informational),
/// ending in a sparkline column; `-` marks a revision that did not
/// record the series. Empty input renders a one-line notice.
pub fn render_table(entries: &[TrendEntry]) -> String {
    if entries.is_empty() {
        return "trends: empty ledger (run `ccsim trends record` first)\n".to_owned();
    }
    let mut rows: Vec<(String, Vec<Option<String>>, String)> = Vec::new();
    for s in extract_series(entries) {
        let cells = s.values.iter().map(|v| v.map(|v| fmt_value(s.kind, v))).collect();
        rows.push((s.name.clone(), cells, sparkline(&s.values)));
    }

    let mut headers: Vec<String> = vec!["series".to_owned()];
    headers.extend(entries.iter().map(|e| {
        if e.label.is_empty() {
            e.short_rev().to_owned()
        } else {
            format!("{} ({})", e.short_rev(), e.label)
        }
    }));
    headers.push("trend".to_owned());

    // Column widths over header + body (sparkline width = char count).
    let width = |s: &str| s.chars().count();
    let mut widths: Vec<usize> = headers.iter().map(|h| width(h)).collect();
    for (name, cells, spark) in &rows {
        widths[0] = widths[0].max(width(name));
        for (i, cell) in cells.iter().enumerate() {
            let text = cell.as_deref().unwrap_or("-");
            widths[i + 1] = widths[i + 1].max(width(text));
        }
        let last = widths.len() - 1;
        widths[last] = widths[last].max(width(spark));
    }

    let mut out = String::new();
    let mut push_row = |cells: Vec<String>| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let pad = widths[i] - width(cell);
            if i == 0 {
                // Series names left-align; numeric columns right-align.
                out.push_str(cell);
                out.push_str(&" ".repeat(pad));
            } else {
                out.push_str(&" ".repeat(pad));
                out.push_str(cell);
            }
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    push_row(headers);
    for (name, cells, spark) in rows {
        let mut line = vec![name];
        line.extend(cells.into_iter().map(|c| c.unwrap_or_else(|| "-".to_owned())));
        line.push(spark);
        push_row(line);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(rev: &str, rps: f64) -> TrendEntry {
        let mut e = TrendEntry::new(rev, "", "100");
        e.series = vec![
            ("bench/llc_thrash/median_rps".to_owned(), rps),
            ("bench/wall/simulate_pct".to_owned(), 80.0),
        ];
        e
    }

    #[test]
    fn scaled_formatting_is_fixed_precision() {
        assert_eq!(fmt_scaled(0.0), "0");
        assert_eq!(fmt_scaled(12.5), "12.50");
        assert_eq!(fmt_scaled(999.0), "999");
        assert_eq!(fmt_scaled(1_234.0), "1.23k");
        assert_eq!(fmt_scaled(1_234_567.0), "1.23M");
        assert_eq!(fmt_scaled(2_500_000_000.0), "2.50G");
    }

    #[test]
    fn sparkline_scales_per_row_and_marks_gaps() {
        assert_eq!(sparkline(&[Some(1.0), Some(8.0)]), "▁█");
        assert_eq!(sparkline(&[Some(5.0), Some(5.0)]), "▄▄");
        assert_eq!(sparkline(&[Some(1.0), None, Some(8.0)]), "▁·█");
    }

    #[test]
    fn table_renders_deterministically_with_columns_per_revision() {
        let entries = vec![entry("aaaaaaaaaaaa", 1_000_000.0), entry("bbbbbbbbbbbb", 1_200_000.0)];
        let a = render_table(&entries);
        let b = render_table(&entries);
        assert_eq!(a, b, "byte-deterministic");
        let lines: Vec<&str> = a.lines().collect();
        assert!(lines[0].starts_with("series"), "{a}");
        assert!(lines[0].contains("aaaaaaaaaa") && lines[0].contains("bbbbbbbbbb"), "{a}");
        assert!(lines[0].contains("trend"));
        assert!(a.contains("bench/llc_thrash/median_rps"), "{a}");
        assert!(a.contains("1.00M") && a.contains("1.20M"), "{a}");
        assert!(a.contains("bench/wall/simulate_pct"), "{a}");
        assert!(a.contains("80.0"), "{a}");
        let mut untraced = entry("cccccccccccc", 1_100_000.0);
        untraced.series.pop();
        let c = render_table(&[untraced, entries[1].clone()]);
        let wall = c.lines().find(|l| l.starts_with("bench/wall/simulate_pct")).unwrap();
        assert_eq!(
            wall.split_whitespace().collect::<Vec<_>>(),
            ["bench/wall/simulate_pct", "-", "80.0", "·▄"]
        );
        assert!(a.contains('▁') && a.contains('█'), "{a}");
        assert!(render_table(&[]).contains("empty ledger"));
    }
}
