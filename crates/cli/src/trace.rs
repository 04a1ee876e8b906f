//! `trace-gen`, `trace-stats`, `ingest`: making and characterizing traces.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;

use ccsim_ingest::{ingest_file_to_trace, IngestOptions, IngestReport, SourceFormat};
use ccsim_trace::stats::{ReuseProfile, TraceStats};
use ccsim_trace::{read_trace, Trace};
use ccsim_workloads::{write_workload, SuiteScale};

use crate::args::{Args, Command, Flag};

pub const GEN: Command = Command {
    path: &["trace-gen"],
    positionals: &["<workload>", "<out.cctr>"],
    flags: &[Flag::switch("--quick")],
    about: "capture a workload trace to disk

Workload names: any GAP pair (`bfs.kron`, `pr.twitter`, ...) or a
synthetic suite member (`spec.stream`, `xsbench.large`, `qcom.srv0`);
`ccsim workloads` lists them. `--quick` captures at reduced scale.",
    run: trace_gen,
};

pub const STATS: Command = Command {
    path: &["trace-stats"],
    positionals: &["<in>"],
    flags: &[],
    about: "footprint / PC / reuse statistics

`trace-stats` accepts the same foreign formats as `ingest` directly.",
    run: trace_stats,
};

pub const INGEST: Command = Command {
    path: &["ingest"],
    positionals: &["<in>", "<out.cctr>"],
    flags: &[
        Flag::value("--format", "cctr|champsim|cvp"),
        Flag::value("--name", "name"),
        Flag::switch("--lossy"),
        Flag::switch("--stats"),
    ],
    about: "convert a ChampSim/CVP trace to CCTR

`ingest` converts an external simulator trace (ChampSim 64-byte
instruction records or a CVP-style load/store stream; auto-detected
unless --format is given) into the native CCTR format, streaming —
multi-GB inputs never materialize in memory. `--stats` additionally
prints the `trace-stats` summary block, computed in the same single
pass (the source is never read twice and the output is never read
back; note the reuse profile itself needs memory proportional to the
record count, unlike the plain conversion).",
    run: ingest,
};

fn trace_gen(args: &Args) -> Result<(), String> {
    let (workload, out) = (args.pos(0), args.pos(1));
    let scale = if args.has("--quick") { SuiteScale::Quick } else { SuiteScale::Full };
    // Streams: the generator writes each chunk as it runs.
    let written = write_workload(workload, scale, 0, Path::new(out))?;
    println!("wrote {}: {} records, {} instructions", out, written.records, written.instructions);
    Ok(())
}

fn load_trace(path: &str) -> Result<Trace, String> {
    let file = File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
    read_trace(BufReader::new(file)).map_err(|e| format!("decoding {path}: {e}"))
}

/// Loads a trace of any supported format: native `CCTR` directly,
/// foreign formats (ChampSim/CVP) through the ingest pipeline. Returns
/// the trace plus the ingest report for foreign inputs.
pub(crate) fn load_any_trace(path: &str) -> Result<(Trace, Option<IngestReport>), String> {
    let p = Path::new(path);
    let format = ccsim_ingest::detect_file(p).map_err(|e| format!("{path}: {e}"))?;
    if format == SourceFormat::Cctr {
        return Ok((load_trace(path)?, None));
    }
    let opts = IngestOptions { format: Some(format), ..Default::default() };
    let (trace, report) =
        ingest_file_to_trace(p, &opts).map_err(|e| format!("ingesting {path}: {e}"))?;
    Ok((trace, Some(report)))
}

fn ingest(args: &Args) -> Result<(), String> {
    let (input, output) = (args.pos(0), args.pos(1));
    let opts = IngestOptions {
        format: args.get::<SourceFormat>("--format")?,
        name: args.get::<String>("--name")?,
        lossy: args.has("--lossy"),
    };
    // One-pass convert + characterize: with `--stats` the streaming stats
    // builders ride the emit path, so the source is read once and the
    // output is never read back — the summary block below is identical
    // to running `trace-stats` on the converted file.
    let stats = args.has("--stats");
    let mut stats_b = TraceStats::builder();
    let mut reuse_b = ReuseProfile::builder();
    let (report, trailing) =
        ccsim_ingest::ingest_file_observed(Path::new(input), Path::new(output), &opts, |r| {
            if stats {
                stats_b.push(r);
                reuse_b.push_block(r.block());
            }
        })
        .map_err(|e| format!("ingesting {input}: {e}"))?;
    println!("wrote {output} [{}]", report.name);
    println!("  {}", report.summary());
    if stats {
        let (s, p) = (stats_b.finish(trailing), reuse_b.finish());
        print_stats_block(&report.name, report.records, &s, &p);
    }
    Ok(())
}

/// The characterization block shared by `trace-stats` and
/// `ingest --stats` — identical rendering whether the statistics came
/// from a materialized trace or from the streaming builders.
fn print_stats_block(name: &str, records: u64, s: &TraceStats, p: &ReuseProfile) {
    println!("workload            : {name}");
    println!("memory records      : {records}");
    println!("instructions        : {}", s.instructions);
    println!("loads / stores      : {} / {}", s.loads, s.stores);
    println!("mem per kinstr      : {:.1}", s.mem_per_kilo_instruction());
    println!(
        "footprint           : {} blocks ({:.2} MB)",
        s.footprint_blocks,
        s.footprint_bytes as f64 / (1 << 20) as f64
    );
    println!("distinct PCs        : {}", s.distinct_pcs);
    println!("blocks per PC       : mean {:.1}, max {}", s.mean_blocks_per_pc, s.max_blocks_per_pc);
    println!("cold accesses       : {:.1}%", 100.0 * p.cold() as f64 / p.total().max(1) as f64);
    for (cap, label) in [(512u64, "L1D-sized"), (16_384, "L2-sized"), (22_528, "LLC-sized")] {
        println!(
            "reuse within {:>6} blocks ({label:>9}): {:.1}%",
            cap,
            100.0 * p.hit_fraction_within(cap)
        );
    }
}

fn trace_stats(args: &Args) -> Result<(), String> {
    let (trace, ingested) = load_any_trace(args.pos(0))?;
    if let Some(report) = &ingested {
        println!("ingested            : {}", report.summary());
    }
    let s = TraceStats::compute(&trace);
    let p = ReuseProfile::compute(&trace);
    print_stats_block(trace.name(), trace.len() as u64, &s, &p);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccsim;

    #[test]
    fn trace_gen_accepts_gap_and_suite_names_only() {
        let path =
            std::env::temp_dir().join(format!("ccsim_cli_names_{}.cctr", std::process::id()));
        let write = |name| write_workload(name, SuiteScale::Quick, 0, &path);
        for name in ["bfs.kron", "spec.stream", "xsbench.small", "qcom.srv0"] {
            assert!(write(name).is_ok_and(|w| w.records > 0), "{name}");
        }
        std::fs::remove_file(&path).unwrap();
        for name in ["nope.nothing", "spec.nothing"] {
            assert!(write(name).is_err(), "{name}");
            assert!(!path.exists(), "{name}: nothing written");
        }
    }

    #[test]
    fn trace_gen_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join("ccsim_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.cctr");
        let path_s = path.to_str().unwrap();
        ccsim(&["trace-gen", "xsbench.small", path_s, "--quick"]).unwrap();
        ccsim(&["trace-stats", path_s]).unwrap();
        ccsim(&["sim", path_s, "--policy", "srrip"]).unwrap();
        ccsim(&["sim", "--json", path_s]).unwrap();
        std::fs::remove_file(&path).unwrap();
        // A typo fails before anything is generated or written.
        let err = ccsim(&["trace-gen", "xsbench.small", path_s, "--bogus"]).unwrap_err();
        assert!(err.contains("unknown flag \"--bogus\""), "{err}");
        assert!(!path.exists());
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn trace_gen_reports_a_failed_write() {
        let err = ccsim(&["trace-gen", "xsbench.small", "/dev/full", "--quick"]).unwrap_err();
        assert!(err.starts_with("writing /dev/full: "), "{err}");
    }

    fn write_champsim(path: &Path, loads: u64) {
        use ccsim_ingest::champsim::{ChampSimRecord, ChampSimWriter};
        let mut w = ChampSimWriter::new(File::create(path).unwrap());
        for i in 0..loads {
            w.write(&ChampSimRecord::nonmem(0x400 + 8 * i)).unwrap();
            w.write(&ChampSimRecord::load(0x404 + 8 * i, 0x10000 + 64 * (i % 16))).unwrap();
        }
    }

    #[test]
    fn ingest_command_converts_and_stats_reads_foreign_directly() {
        let dir = std::env::temp_dir().join(format!("ccsim_cli_ingest_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("mini.champsim");
        write_champsim(&input, 50);
        let out = dir.join("mini.cctr");
        let (in_s, out_s) = (input.to_str().unwrap(), out.to_str().unwrap());

        ccsim(&["ingest", in_s, out_s]).unwrap();
        let trace = load_trace(out_s).unwrap();
        assert_eq!(trace.name(), "mini");
        assert_eq!(trace.len(), 50);
        assert_eq!(trace.instructions(), 100);

        // trace-stats accepts the foreign file and the converted one.
        ccsim(&["trace-stats", in_s]).unwrap();
        ccsim(&["trace-stats", out_s]).unwrap();
        // --stats characterizes in the same pass; the converted file and
        // the report are unchanged.
        let out3 = dir.join("stats.cctr");
        ccsim(&["ingest", in_s, out3.to_str().unwrap(), "--stats"]).unwrap();
        assert_eq!(
            std::fs::read(&out3).unwrap(),
            std::fs::read(&out).unwrap(),
            "--stats must not change the emitted bytes"
        );

        // Explicit name + format flags are honored.
        let out2 = dir.join("renamed.cctr");
        let out2_s = out2.to_str().unwrap();
        ccsim(&["ingest", in_s, out2_s, "--format", "champsim", "--name", "bespoke"]).unwrap();
        assert_eq!(load_trace(out2_s).unwrap().name(), "bespoke");

        assert!(ccsim(&["ingest", in_s]).is_err(), "missing output path");
        assert!(ccsim(&["ingest", in_s, out_s, "--format", "elf"]).is_err(), "unknown format");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
