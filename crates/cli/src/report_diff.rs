//! `report-diff`: per-cell deltas of two campaign reports.

use ccsim_campaign::ReportDiff;

use crate::args::{Args, Command, Flag};

pub const REPORT_DIFF: Command = Command {
    path: &["report-diff"],
    positionals: &["<a/report.json>", "<b/report.json>"],
    flags: &[Flag::value("--threshold", "mpki"), Flag::switch("--json")],
    about: "per-cell deltas of two reports

`report-diff` compares two report.json files over the same grid and
prints per-cell LLC MPKI / miss-ratio / IPC deltas; it exits non-zero
when any |MPKI delta| exceeds --threshold (default 0, i.e. any change).
`--json` emits the same comparison in a pinned machine schema for CI
dashboards (summary fields mirror the exit-code conditions).",
    run: report_diff,
};

fn report_diff(args: &Args) -> Result<(), String> {
    let threshold = args.non_negative("--threshold")?.unwrap_or(0.0);
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
    let diff = ReportDiff::from_json_strs(&read(args.pos(0))?, &read(args.pos(1))?)?;
    let json = args.has("--json");
    if json {
        // Machine output for CI dashboards; the summary fields mirror the
        // exit-code conditions below, which still apply.
        println!("{}", diff.to_json(threshold).to_pretty().trim_end());
    } else {
        println!(
            "comparing {} (a) vs {} (b): {} common cells",
            diff.campaign_a,
            diff.campaign_b,
            diff.cells.len()
        );
        println!("{}", diff.table().render());
    }
    if !diff.same_grid() {
        return Err(format!(
            "grids differ: {} cell(s) only in a, {} only in b — same-grid reports required",
            diff.only_in_a.len(),
            diff.only_in_b.len()
        ));
    }
    if !json {
        println!(
            "max |llc_mpki delta| = {:.4} over {} cells (threshold {threshold})",
            diff.max_abs_mpki_delta(),
            diff.cells.len()
        );
    }
    let over = diff.cells_over(threshold);
    if over > 0 {
        return Err(format!("{over} cell(s) exceed the LLC-MPKI delta threshold {threshold}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::tests::{ccsim, spec_dir};

    #[test]
    fn report_diff_flags_regressions_above_threshold() {
        let (dir, spec) = spec_dir(
            "diff",
            r#"{"name": "d", "base_config": "tiny",
                "workloads": ["xsbench.small"], "policies": ["lru"]}"#,
        );
        for out in ["a", "b"] {
            let out = dir.join(out);
            ccsim(&["campaign", &spec, "--out", out.to_str().unwrap(), "--no-cache", "--quiet"])
                .unwrap();
        }
        let (a, b) = (dir.join("a/report.json"), dir.join("b/report.json"));
        let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());
        // Identical runs diff clean at threshold 0, in both renderings.
        ccsim(&["report-diff", a, b]).unwrap();
        ccsim(&["report-diff", a, b, "--json"]).unwrap();

        // Perturb b's llc mpki: the default threshold trips, a loose one
        // does not.
        let text = std::fs::read_to_string(b).unwrap();
        let needle = "\"llc\": ";
        let pos = text.find("\"mpki\"").unwrap();
        let llc = pos + text[pos..].find(needle).unwrap() + needle.len();
        let end = llc + text[llc..].find([',', '}']).unwrap();
        let bumped: f64 = text[llc..end].trim().parse::<f64>().unwrap() + 3.0;
        let patched = format!("{}{}{}", &text[..llc], bumped, &text[end..]);
        std::fs::write(b, patched).unwrap();
        let err = ccsim(&["report-diff", a, b]).unwrap_err();
        assert!(err.contains("threshold"), "{err}");
        let err = ccsim(&["report-diff", a, b, "--json"]).unwrap_err();
        assert!(err.contains("threshold"), "--json must keep the exit contract: {err}");
        ccsim(&["report-diff", a, b, "--threshold", "5"]).unwrap();
        assert!(ccsim(&["report-diff", a, b, "--threshold", "-1"]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
