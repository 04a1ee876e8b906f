//! `trace-gen`, `trace-stats`, `ingest`: making and characterizing traces.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;

use ccsim_ingest::{ingest_file_observed, IngestOptions, IngestReport, SourceFormat};
use ccsim_trace::stats::{ReuseProfile, ReuseProfileBuilder, TraceStats, TraceStatsBuilder};
use ccsim_trace::{TraceReader, TraceRecord};
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

`trace-stats` streams the trace once through the statistics builders
`ingest --stats` uses, so no trace is held in memory (the reuse profile
itself grows with the record count). It accepts the same foreign
formats as `ingest` directly, folding them as `ingest` would without
writing the conversion.",
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

/// Records per `read_chunk` when `trace-stats` streams a `CCTR` file.
const STATS_CHUNK_RECORDS: usize = 4096;

fn trace_gen(args: &Args) -> Result<(), String> {
    let (workload, out) = (args.pos(0), args.pos(1));
    let scale = if args.has("--quick") { SuiteScale::Quick } else { SuiteScale::Full };
    // Streams: the generator writes each chunk as it runs.
    let written = write_workload(workload, scale, 0, Path::new(out))?;
    println!("wrote {}: {} records, {} instructions", out, written.records, written.instructions);
    Ok(())
}

/// The statistics builders `trace-stats` and `ingest --stats` feed, one
/// record at a time.
#[derive(Default)]
struct StatsBuilders {
    records: u64,
    stats: TraceStatsBuilder,
    reuse: ReuseProfileBuilder,
}

impl StatsBuilders {
    fn push(&mut self, r: &TraceRecord) {
        self.records += 1;
        self.stats.push(r);
        self.reuse.push_block(r.block());
    }

    fn finish(self, name: &str, trailing_nonmem: u64) -> Characterization {
        Characterization {
            name: name.to_owned(),
            records: self.records,
            stats: self.stats.finish(trailing_nonmem),
            reuse: self.reuse.finish(),
        }
    }
}

/// What the stats block prints about one trace.
struct Characterization {
    name: String,
    records: u64,
    stats: TraceStats,
    reuse: ReuseProfile,
}

/// Streams the trace at `path` through the statistics builders: a
/// `CCTR` file chunk by chunk, a foreign one through the ingest fold
/// with its output discarded (returning that fold's report too).
fn characterize_file(path: &str) -> Result<(Characterization, Option<IngestReport>), String> {
    let p = Path::new(path);
    // Opened before detection, so a missing or unreadable input is named
    // as such and not as a failed ingest.
    let file = File::open(p).map_err(|e| format!("cannot open {path}: {e}"))?;
    let format = ccsim_ingest::detect_file(p).map_err(|e| format!("{path}: {e}"))?;
    let mut builders = StatsBuilders::default();
    if format != SourceFormat::Cctr {
        let opts = IngestOptions { format: Some(format), ..Default::default() };
        let (report, trailing) = ingest_file_observed(p, None, &opts, |r| builders.push(r))
            .map_err(|e| format!("ingesting {path}: {e}"))?;
        return Ok((builders.finish(&report.name, trailing), Some(report)));
    }
    let decoding = |e| format!("decoding {path}: {e}");
    let mut reader = TraceReader::new(BufReader::new(file)).map_err(decoding)?;
    let mut chunk = Vec::with_capacity(STATS_CHUNK_RECORDS);
    while reader.read_chunk(&mut chunk, STATS_CHUNK_RECORDS).map_err(decoding)? > 0 {
        chunk.iter().for_each(|r| builders.push(r));
        chunk.clear();
    }
    let header = reader.header();
    Ok((builders.finish(&header.name, header.trailing_nonmem), None))
}

/// Converts `input` to `CCTR` at `output`. With `stats` the builders
/// ride the emit path, so the source is read once and the output is
/// never read back.
fn convert(
    input: &str,
    output: &str,
    opts: &IngestOptions,
    stats: bool,
) -> Result<(IngestReport, Option<Characterization>), String> {
    let mut builders = StatsBuilders::default();
    let (report, trailing) =
        ingest_file_observed(Path::new(input), Some(Path::new(output)), opts, |r| {
            if stats {
                builders.push(r);
            }
        })
        .map_err(|e| format!("ingesting {input}: {e}"))?;
    let characterized = stats.then(|| builders.finish(&report.name, trailing));
    Ok((report, characterized))
}

fn ingest(args: &Args) -> Result<(), String> {
    let (input, output) = (args.pos(0), args.pos(1));
    let opts = IngestOptions {
        format: args.get::<SourceFormat>("--format")?,
        name: args.get::<String>("--name")?,
        lossy: args.has("--lossy"),
    };
    let (report, characterized) = convert(input, output, &opts, args.has("--stats"))?;
    println!("wrote {output} [{}]", report.name);
    println!("  {}", report.summary());
    if let Some(c) = &characterized {
        print_stats_block(c);
    }
    Ok(())
}

/// The characterization block shared by `trace-stats` and
/// `ingest --stats`.
fn print_stats_block(c: &Characterization) {
    let (s, p) = (&c.stats, &c.reuse);
    println!("workload            : {}", c.name);
    println!("memory records      : {}", c.records);
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
    let (characterized, ingested) = characterize_file(args.pos(0))?;
    if let Some(report) = &ingested {
        println!("ingested            : {}", report.summary());
    }
    print_stats_block(&characterized);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::ccsim;
    use ccsim_trace::{read_trace, Trace};

    fn load_trace(path: &str) -> Trace {
        read_trace(BufReader::new(File::open(path).unwrap())).unwrap()
    }

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
        let trace = load_trace(out_s);
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
        assert_eq!(load_trace(out2_s).name(), "bespoke");

        assert!(ccsim(&["ingest", in_s]).is_err(), "missing output path");
        assert!(ccsim(&["ingest", in_s, out_s, "--format", "elf"]).is_err(), "unknown format");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One stats path: on a ChampSim, a CVP and a CCTR input,
    /// `trace-stats` on the input, `ingest --stats`, and `trace-stats` on
    /// the converted file all equal the in-memory reference computed over
    /// `read_trace` of the conversion.
    #[test]
    fn every_stats_path_equals_the_in_memory_reference() {
        let dir = std::env::temp_dir().join(format!("ccsim_cli_one_stats_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for fixture in ["ingest_v1.champsim", "ingest_v1.cvp", "golden_v1.cctr"] {
            let input = format!("{}/../../tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
            let output = dir.join(format!("{fixture}.cctr"));
            let output = output.to_str().unwrap();
            let (on_input, _) = characterize_file(&input).unwrap();
            let opts = IngestOptions::default();
            let (report, on_ingest) = convert(&input, output, &opts, true).unwrap();
            let on_output = characterize_file(output).unwrap();
            assert!(on_output.1.is_none(), "{fixture}: the conversion streams as CCTR");

            let trace = load_trace(output);
            let reference = (TraceStats::compute(&trace), ReuseProfile::compute(&trace));
            assert_eq!(report.records, trace.len() as u64, "{fixture}");
            for (path, c) in
                [("input", on_input), ("ingest", on_ingest.unwrap()), ("output", on_output.0)]
            {
                assert_eq!(c.records, trace.len() as u64, "{fixture} {path}");
                assert_eq!(c.stats, reference.0, "{fixture} {path}");
                assert!(c.reuse == reference.1, "{fixture} {path}: the reuse profiles differ");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
