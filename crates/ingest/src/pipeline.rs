//! The one ingest fold: detect the format, decode batches, fold them
//! into `CCTR` records, and write each record as soon as it exists.
//!
//! Every public entry point runs `fold_into`. A decoder yields one
//! `Batch` at a time (one memory instruction plus the non-memory run
//! before it); the fold turns it into records under the
//! [`TraceBuffer`](ccsim_trace::TraceBuffer) `nonmem_before` splitting
//! invariant, with operands normalized to the 64-byte block rule, and
//! hands each record to the observer and then to a [`TraceWriter`].
//! Peak memory is one batch plus the writer's buffer: a multi-gigabyte
//! source never materializes.

use std::io::{Read, Seek, Write};
use std::path::Path;

use ccsim_trace::{AccessKind, TraceReader, TraceRecord, TraceWriter, BLOCK_BYTES};

use crate::champsim::ChampSimDecoder;
use crate::cvp::CvpDecoder;
use crate::{IngestError, SourceFormat};

/// One memory operand of a source instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemOp {
    /// Virtual byte address.
    pub(crate) vaddr: u64,
    /// Access size in bytes (normalized by the fold).
    pub(crate) size: u8,
    /// Load or store.
    pub(crate) kind: AccessKind,
}

/// A decoded unit of source trace: `nonmem` non-memory instructions
/// followed by (at most) one memory instruction at `pc` touching `ops`.
/// The fold reuses one `Batch` across reads, so decoding is
/// allocation-free in the steady state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Batch {
    /// Non-memory instructions preceding `ops`.
    pub(crate) nonmem: u64,
    /// Program counter of the memory instruction (meaningless when `ops`
    /// is empty).
    pub(crate) pc: u64,
    /// The memory operands; empty for a trailing non-memory-only batch.
    pub(crate) ops: Vec<MemOp>,
}

impl Batch {
    /// Resets the batch for reuse.
    pub(crate) fn clear(&mut self) {
        self.nonmem = 0;
        self.pc = 0;
        self.ops.clear();
    }
}

/// Pass-through decoder over a native `CCTR` stream: each record becomes
/// a batch of its `nonmem_before` run plus its one operand.
#[derive(Debug)]
struct CctrSource<R: Read> {
    reader: TraceReader<R>,
    trailing_emitted: bool,
}

impl<R: Read> CctrSource<R> {
    fn read_batch(&mut self, out: &mut Batch) -> Result<bool, IngestError> {
        out.clear();
        match self.reader.next_record()? {
            Some(r) => {
                out.nonmem = r.nonmem_before as u64;
                out.pc = r.pc;
                out.ops.push(MemOp { vaddr: r.vaddr, size: r.size, kind: r.kind });
                Ok(true)
            }
            None => {
                if self.trailing_emitted {
                    return Ok(false);
                }
                self.trailing_emitted = true;
                out.nonmem = self.reader.header().trailing_nonmem;
                Ok(out.nonmem > 0)
            }
        }
    }
}

/// The decoder of each format, dispatched statically per batch. Each
/// `read_batch` fills `out` with the next batch and returns `false` once
/// the stream is exhausted.
#[derive(Debug)]
enum Source<R: Read> {
    ChampSim(ChampSimDecoder<R>),
    Cvp(CvpDecoder<R>),
    Cctr(CctrSource<R>),
}

impl<R: Read> Source<R> {
    fn open(reader: R, format: SourceFormat, strict: bool) -> Result<Source<R>, IngestError> {
        Ok(match format {
            SourceFormat::ChampSim => Source::ChampSim(ChampSimDecoder::new(reader, strict)),
            SourceFormat::Cvp => Source::Cvp(CvpDecoder::new(reader, strict)),
            SourceFormat::Cctr => Source::Cctr(CctrSource {
                reader: TraceReader::new(reader)?,
                trailing_emitted: false,
            }),
        })
    }

    fn read_batch(&mut self, out: &mut Batch) -> Result<bool, IngestError> {
        match self {
            Source::ChampSim(s) => s.read_batch(out),
            Source::Cvp(s) => s.read_batch(out),
            Source::Cctr(s) => s.read_batch(out),
        }
    }

    /// Malformed items skipped or coerced so far (lossy mode).
    fn skipped(&self) -> u64 {
        match self {
            Source::ChampSim(s) => s.skipped(),
            Source::Cvp(s) => s.skipped(),
            Source::Cctr(_) => 0,
        }
    }
}

/// How to decode and fold a source trace.
///
/// The option set is part of the campaign trace-cache key
/// ([`IngestOptions::cache_key`]): any field that changes the emitted
/// bytes must be represented there.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IngestOptions {
    /// Source format; `None` auto-detects ([`SourceFormat::detect`]).
    pub format: Option<SourceFormat>,
    /// Lossy mode: skip/coerce malformed source items (counted in the
    /// report) instead of failing. Default is strict.
    pub lossy: bool,
    /// Output trace name. When it is `None`, [`ingest`] keeps a `CCTR`
    /// source's embedded name and names a foreign source `"ingested"`;
    /// the path entry points, [`ingest_file`] and
    /// [`ingest_file_observed`] (what every CLI command and the campaign
    /// trace cache call), first replace it with the input file stem, so
    /// there a `CCTR` source is renamed after its file too.
    pub name: Option<String>,
}

impl IngestOptions {
    /// Canonical key fragment for content-addressed caching of ingest
    /// results. Combined by the campaign cache with the source-file
    /// digest, the *resolved* format, and the `CCTR` format version.
    pub fn cache_key(&self) -> String {
        format!("lossy={}&name={}", self.lossy as u8, self.name.as_deref().unwrap_or(""))
    }
}

/// Exact accounting of one ingest run.
///
/// `CCTR` counts every record as one instruction. A foreign instruction
/// with *k > 1* memory operands becomes *k* records, which would
/// over-count by *k − 1*; the fold tracks that as debt and repays it
/// from later non-memory instructions before they accrue to
/// `nonmem_before`. Debt still open at end-of-stream is
/// [`IngestReport::residual_debt`], so
/// `instructions = source_instructions + residual_debt` always holds
/// exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// The (possibly auto-detected) source format.
    pub format: SourceFormat,
    /// The name embedded in the emitted trace.
    pub name: String,
    /// Instructions decoded from the source (memory + non-memory).
    pub source_instructions: u64,
    /// `CCTR` records emitted (one per memory operand).
    pub records: u64,
    /// Instructions the emitted trace represents
    /// (`source_instructions + residual_debt`).
    pub instructions: u64,
    /// Malformed source items skipped or coerced (lossy mode; 0 in
    /// strict mode).
    pub skipped: u64,
    /// Operands whose size was clamped to the 64-byte block invariant.
    pub clamped: u64,
    /// Multi-operand over-count not repaid by later non-memory
    /// instructions.
    pub residual_debt: u64,
}

impl IngestReport {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{}: {} source instructions -> {} records ({} instructions)",
            self.format, self.source_instructions, self.records, self.instructions
        );
        if self.skipped > 0 {
            s.push_str(&format!(", {} skipped", self.skipped));
        }
        if self.clamped > 0 {
            s.push_str(&format!(", {} operands clamped", self.clamped));
        }
        if self.residual_debt > 0 {
            s.push_str(&format!(", {} instructions over-counted", self.residual_debt));
        }
        s
    }
}

/// The folding state machine (see [`IngestReport`] for the accounting).
#[derive(Debug, Default)]
struct Fold {
    pending_nonmem: u64,
    debt: u64,
    source_instructions: u64,
    records: u64,
    emitted_nonmem: u64,
    clamped: u64,
}

impl Fold {
    fn nonmem(&mut self, n: u64) {
        self.source_instructions += n;
        let repaid = self.debt.min(n);
        self.debt -= repaid;
        self.pending_nonmem += n - repaid;
    }

    fn mem_instr(
        &mut self,
        pc: u64,
        ops: &[MemOp],
        mut emit: impl FnMut(TraceRecord) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        debug_assert!(!ops.is_empty());
        self.source_instructions += 1;
        self.debt += ops.len() as u64 - 1;
        for op in ops {
            let mut size = op.size.max(1) as u64;
            let offset = op.vaddr % BLOCK_BYTES;
            if op.size == 0 || offset + size > BLOCK_BYTES {
                size = size.min(BLOCK_BYTES - offset);
                self.clamped += 1;
            }
            let take = self.pending_nonmem.min(u16::MAX as u64);
            self.pending_nonmem -= take;
            self.emitted_nonmem += take;
            self.records += 1;
            emit(TraceRecord {
                pc,
                vaddr: op.vaddr,
                size: size as u8,
                kind: op.kind,
                nonmem_before: take as u16,
            })?;
        }
        Ok(())
    }

    fn report(&self, format: SourceFormat, name: String, skipped: u64) -> IngestReport {
        IngestReport {
            format,
            name,
            source_instructions: self.source_instructions,
            records: self.records,
            instructions: self.records + self.emitted_nonmem + self.pending_nonmem,
            skipped,
            clamped: self.clamped,
            residual_debt: self.debt,
        }
    }
}

/// A reader with its peeked detection prefix stitched back on.
type ReplayReader<R> = std::io::Chain<std::io::Cursor<Vec<u8>>, R>;

/// Resolves `format`, peeking up to 512 bytes of `reader` when
/// auto-detecting, and returns `(format, replayable reader)`.
fn resolve_format<R: Read>(
    mut reader: R,
    format: Option<SourceFormat>,
    file_len: Option<u64>,
) -> Result<(SourceFormat, ReplayReader<R>), IngestError> {
    let mut prefix = Vec::new();
    let format = match format {
        Some(f) => f,
        None => {
            let mut buf = [0u8; 512];
            while prefix.len() < buf.len() {
                let want = buf.len() - prefix.len();
                let n = reader.read(&mut buf[..want])?;
                if n == 0 {
                    break;
                }
                prefix.extend_from_slice(&buf[..n]);
            }
            SourceFormat::detect(&prefix, file_len)?
        }
    };
    Ok((format, std::io::Cursor::new(prefix).chain(reader)))
}

/// The one ingest loop: decodes `reader` as `format`, folds every batch,
/// and hands each record to `observe` and then to a `CCTR` writer on
/// `writer`. Returns the report and the trailing non-memory epilogue.
fn fold_into<R: Read, W: Write + Seek>(
    format: SourceFormat,
    reader: R,
    writer: W,
    opts: &IngestOptions,
    mut observe: impl FnMut(&TraceRecord),
) -> Result<(IngestReport, u64), IngestError> {
    let mut source = Source::open(reader, format, !opts.lossy)?;
    // The CCTR header precedes the records, so the name is resolved up
    // front.
    let name = match (&opts.name, &source) {
        (Some(n), _) => n.clone(),
        (None, Source::Cctr(s)) => s.reader.header().name.clone(),
        (None, _) => "ingested".to_owned(),
    };
    let mut out = TraceWriter::new(writer, &name)?;
    // Telemetry is totals-only, accounted once after the fold — the
    // per-record path stays untouched.
    let span = ccsim_obs::metrics().ingest_wall_ns.span();
    let mut fold = Fold::default();
    let mut batch = Batch::default();
    while source.read_batch(&mut batch)? {
        fold.nonmem(batch.nonmem);
        if !batch.ops.is_empty() {
            fold.mem_instr(batch.pc, &batch.ops, |rec| {
                observe(&rec);
                out.write_record(&rec)
            })?;
        }
    }
    let trailing = fold.pending_nonmem;
    let report = fold.report(format, name, source.skipped());
    let m = ccsim_obs::metrics();
    m.ingest_runs.inc();
    m.ingest_records.add(report.records);
    m.ingest_skipped.add(report.skipped);
    span.stop();
    out.finish(trailing)?;
    Ok((report, trailing))
}

/// Streams `reader` (any supported format) into `writer` as `CCTR`.
///
/// Decoding, folding and emission are fully incremental: peak memory is
/// one source batch, independent of trace length.
///
/// # Errors
///
/// Returns [`IngestError`] on I/O failure, undetectable format, or
/// (strict mode) corrupt source records.
pub fn ingest<R: Read, W: Write + Seek>(
    reader: R,
    writer: W,
    opts: &IngestOptions,
) -> Result<IngestReport, IngestError> {
    let (format, reader) = resolve_format(reader, opts.format, None)?;
    fold_into(format, reader, writer, opts, |_| {}).map(|(report, _)| report)
}

/// Ingests the file at `input` into a `CCTR` file at `output`.
///
/// Auto-detection gets the file length (sharpening the ChampSim
/// heuristic), the default output name is the input file stem, and the
/// conversion streams — a multi-gigabyte input is never resident.
///
/// # Errors
///
/// Returns [`IngestError`] on I/O failure or malformed input; the
/// partially-written output is removed on error.
pub fn ingest_file(
    input: &Path,
    output: &Path,
    opts: &IngestOptions,
) -> Result<IngestReport, IngestError> {
    ingest_file_observed(input, Some(output), opts, |_| {}).map(|(report, _)| report)
}

/// [`ingest_file`] with a per-record observer: `observe` sees every
/// emitted [`TraceRecord`], in order, before it is written, and the
/// second return value is the trailing non-memory epilogue
/// ([`ccsim_trace::Trace::trailing_nonmem`] of the emitted trace). With
/// no `output` the records are folded and observed but written nowhere.
///
/// This is how `ccsim ingest --stats` characterizes a conversion in the
/// pass that writes it, and how `ccsim trace-stats` characterizes a
/// foreign file without converting it.
///
/// # Errors
///
/// Returns [`IngestError`] exactly as [`ingest_file`] does.
pub fn ingest_file_observed(
    input: &Path,
    output: Option<&Path>,
    opts: &IngestOptions,
    observe: impl FnMut(&TraceRecord),
) -> Result<(IngestReport, u64), IngestError> {
    let file = std::fs::File::open(input)?;
    let len = file.metadata()?.len();
    let mut opts = opts.clone();
    if opts.name.is_none() {
        opts.name = Some(
            input
                .file_stem()
                .map_or_else(|| "ingested".to_owned(), |s| s.to_string_lossy().into_owned()),
        );
    }
    let (format, reader) = resolve_format(std::io::BufReader::new(file), opts.format, Some(len))?;
    let Some(output) = output else {
        return fold_into(format, reader, std::io::empty(), &opts, observe);
    };
    let out = std::io::BufWriter::new(std::fs::File::create(output)?);
    let result = fold_into(format, reader, out, &opts, observe);
    if result.is_err() {
        let _ = std::fs::remove_file(output);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::champsim::{ChampSimRecord, ChampSimWriter};
    use crate::cvp::{CvpRecord, CvpWriter, InstClass};
    use ccsim_trace::{read_trace, write_trace, Trace, TraceBuffer};

    fn champsim_sample() -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut w = ChampSimWriter::new(&mut bytes);
        w.write(&ChampSimRecord::nonmem(0x10)).unwrap();
        w.write(&ChampSimRecord::nonmem(0x14)).unwrap();
        w.write(&ChampSimRecord::load(0x18, 0x1000)).unwrap();
        w.write(&ChampSimRecord::store(0x1c, 0x2000)).unwrap();
        w.write(&ChampSimRecord::nonmem(0x20)).unwrap();
        bytes
    }

    /// Ingests `bytes` into an in-memory `CCTR` stream and reads it back.
    fn ingest_bytes(bytes: &[u8], opts: &IngestOptions) -> (Trace, IngestReport) {
        let mut out = std::io::Cursor::new(Vec::new());
        let report = ingest(bytes, &mut out, opts).unwrap();
        (read_trace(&out.into_inner()[..]).unwrap(), report)
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ccsim_ingest_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn nonmem_runs_fold_into_the_next_record() {
        let opts = IngestOptions { name: Some("t".into()), ..Default::default() };
        let (trace, report) = ingest_bytes(&champsim_sample(), &opts);
        assert_eq!(trace.name(), "t");
        assert_eq!(trace.instructions(), 5);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.records()[0].nonmem_before, 2);
        assert_eq!(trace.trailing_nonmem(), 1);
        assert_eq!(report.source_instructions, 5);
        assert_eq!(report.records, 2);
        assert_eq!(report.residual_debt, 0);
    }

    #[test]
    fn multi_operand_debt_is_repaid_by_later_nonmem() {
        // One instruction with 3 operands, then 5 ALU instructions: the
        // 2 extra records borrow 2 of the 5 trailing non-memory slots.
        let mut rec = ChampSimRecord::nonmem(0x40);
        rec.source_memory = [0x1000, 0x2000, 0, 0];
        rec.destination_memory = [0x3000, 0];
        let mut bytes = rec.encode().to_vec();
        for i in 0..5u64 {
            bytes.extend_from_slice(&ChampSimRecord::nonmem(0x44 + 4 * i).encode());
        }
        let (trace, report) = ingest_bytes(&bytes, &IngestOptions::default());
        assert_eq!(trace.len(), 3);
        assert_eq!(report.source_instructions, 6);
        assert_eq!(report.residual_debt, 0);
        assert_eq!(trace.instructions(), 6, "debt repayment keeps totals exact");
        assert_eq!(trace.trailing_nonmem(), 3);
    }

    #[test]
    fn unrepaid_debt_is_reported() {
        let mut rec = ChampSimRecord::nonmem(0x40);
        rec.source_memory = [0x1000, 0x2000, 0x3000, 0];
        let (trace, report) = ingest_bytes(&rec.encode(), &IngestOptions::default());
        assert_eq!(trace.len(), 3);
        assert_eq!(report.source_instructions, 1);
        assert_eq!(report.residual_debt, 2);
        assert_eq!(trace.instructions(), report.source_instructions + report.residual_debt);
    }

    #[test]
    fn operands_are_clamped_to_the_block_invariant() {
        let mut bytes = Vec::new();
        let mut w = CvpWriter::new(&mut bytes);
        w.write(&CvpRecord::load(0x18, 60, 16)).unwrap(); // straddles
        w.write(&CvpRecord::store(0x1c, 128, 0)).unwrap(); // zero size
        w.write(&CvpRecord::load(0x20, 8, 8)).unwrap(); // fine
        let (trace, report) = ingest_bytes(&bytes, &IngestOptions::default());
        assert_eq!(report.clamped, 2);
        assert_eq!(trace.records()[0].size, 4, "60 + 16 clamps to the block end");
        assert_eq!(trace.records()[1].size, 1, "zero size becomes one byte");
        assert_eq!(trace.records()[2].size, 8);
        for r in trace.records() {
            assert!(r.vaddr % 64 + r.size as u64 <= 64);
        }
    }

    #[test]
    fn cctr_passthrough_preserves_and_renames() {
        let mut b = TraceBuffer::new("orig");
        b.nonmem(70_000); // forces a nonmem split across the records
        b.load(1, 0x1000, 8);
        b.store(2, 0x2040, 4);
        b.nonmem(9);
        let t = b.finish();
        let mut bytes = Vec::new();
        write_trace(&t, &mut bytes).unwrap();

        // Without a name override the embedded name survives.
        let (same, report) = ingest_bytes(&bytes, &IngestOptions::default());
        assert_eq!(report.format, SourceFormat::Cctr);
        assert_eq!(same, t);

        // With an override the records stay identical under the new name.
        let opts = IngestOptions { name: Some("renamed".into()), ..Default::default() };
        let (renamed, _) = ingest_bytes(&bytes, &opts);
        assert_eq!(renamed.name(), "renamed");
        assert_eq!(renamed.records(), t.records());
        assert_eq!(renamed.trailing_nonmem(), t.trailing_nonmem());
    }

    #[test]
    fn explicit_format_overrides_detection() {
        // A CVP stream whose length happens to be a multiple of 64 would
        // auto-detect as ChampSim only if the flag bytes cooperate; an
        // explicit format sidesteps the question entirely.
        let mut bytes = Vec::new();
        let mut w = CvpWriter::new(&mut bytes);
        for i in 0..64u64 {
            w.write(&CvpRecord::nonmem(i, InstClass::Alu)).unwrap();
        }
        w.write(&CvpRecord::load(0x99, 0x1000, 8)).unwrap();
        let opts = IngestOptions { format: Some(SourceFormat::Cvp), ..Default::default() };
        let (trace, report) = ingest_bytes(&bytes, &opts);
        assert_eq!(report.format, SourceFormat::Cvp);
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.records()[0].nonmem_before, 64);
    }

    #[test]
    fn ingest_file_names_after_the_stem_and_cleans_up_on_error() {
        let dir = temp_dir("file");
        let input = dir.join("workload.champsim");
        std::fs::write(&input, champsim_sample()).unwrap();
        let output = dir.join("out.cctr");
        let report = ingest_file(&input, &output, &IngestOptions::default()).unwrap();
        assert_eq!(report.name, "workload");
        assert_eq!(report.format, SourceFormat::ChampSim);
        let trace = read_trace(std::fs::File::open(&output).unwrap()).unwrap();
        assert_eq!(trace.name(), "workload");
        assert_eq!(trace.len(), 2);

        // Garbage input: error out and leave no output file behind.
        let bad = dir.join("junk.bin");
        std::fs::write(&bad, [0xABu8; 37]).unwrap();
        let out2 = dir.join("out2.cctr");
        assert!(ingest_file(&bad, &out2, &IngestOptions::default()).is_err());
        assert!(!out2.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn huge_nonmem_gaps_split_like_tracebuffer() {
        // 200_000 ALU instructions then two loads: the gap must split
        // 65535 / 65535 / remainder across records + trailing, exactly
        // as TraceBuffer would.
        let mut bytes = Vec::new();
        let mut w = CvpWriter::new(&mut bytes);
        for i in 0..200_000u64 {
            w.write(&CvpRecord::nonmem(i, InstClass::Alu)).unwrap();
        }
        w.write(&CvpRecord::load(1, 0x1000, 8)).unwrap();
        w.write(&CvpRecord::load(2, 0x2000, 8)).unwrap();
        let (trace, report) = ingest_bytes(&bytes, &IngestOptions::default());
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.records()[0].nonmem_before, u16::MAX);
        assert_eq!(trace.records()[1].nonmem_before, u16::MAX);
        assert_eq!(trace.trailing_nonmem(), 200_000 - 2 * u16::MAX as u64);
        assert_eq!(trace.instructions(), 200_002);
        assert_eq!(report.instructions, 200_002);
    }

    #[test]
    fn cache_key_reflects_every_option_that_changes_bytes() {
        let base = IngestOptions::default();
        let lossy = IngestOptions { lossy: true, ..base.clone() };
        let named = IngestOptions { name: Some("x".into()), ..base.clone() };
        assert_ne!(base.cache_key(), lossy.cache_key());
        assert_ne!(base.cache_key(), named.cache_key());
        assert_eq!(base.cache_key(), IngestOptions::default().cache_key());
    }

    #[test]
    fn observer_sees_every_record_in_one_pass_with_or_without_an_output() {
        // The observer must see exactly the records the CCTR file holds,
        // in order, and the trailing epilogue must match — the contract
        // `ccsim ingest --stats` and `ccsim trace-stats` characterize
        // through. Without an output the same records are observed.
        let dir = temp_dir("observed");
        let input = dir.join("sample.champsim");
        std::fs::write(&input, champsim_sample()).unwrap();
        let output = dir.join("sample.cctr");
        let observe = |out: Option<&Path>| {
            let mut seen = Vec::new();
            let opts = IngestOptions::default();
            let (report, trailing) =
                ingest_file_observed(&input, out, &opts, |r| seen.push(*r)).unwrap();
            (report, trailing, seen)
        };
        let (report, trailing, seen) = observe(Some(&output));
        let trace = read_trace(std::fs::File::open(&output).unwrap()).unwrap();
        assert_eq!(seen, trace.records());
        assert_eq!(trailing, trace.trailing_nonmem());
        assert_eq!(report.records, seen.len() as u64);
        assert_eq!(observe(None), (report, trailing, seen));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
