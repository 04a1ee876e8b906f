//! Integration suite for the `ccsim-ingest` subsystem: golden foreign
//! fixtures, ingestion determinism, streaming bounded-memory conversion,
//! and campaign `trace:` selectors riding the trace cache.
//!
//! The ChampSim/CVP fixtures under `tests/fixtures/` are generated by
//! the crate's own fixture encoders from the record sequences spelled
//! out below, and the golden `.cctr` is the pinned result of ingesting
//! the ChampSim one. Regenerate all three with
//! `CCSIM_BLESS=1 cargo test --test ingest` after an intentional format
//! change (ingest fold or `CCTR` encoding), never by hand.

use std::io::Read;
use std::path::{Path, PathBuf};

use ccsim::campaign::{Campaign, CampaignSpec, TraceCache};
use ccsim::ingest::champsim::{ChampSimRecord, ChampSimWriter};
use ccsim::ingest::cvp::{CvpRecord, CvpWriter, InstClass};
use ccsim::ingest::{ingest, ingest_file, IngestError, IngestOptions, SourceFormat};
use ccsim::prelude::*;
use ccsim::trace::{read_trace, read_trace_header, TraceRecord};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// Compares `bytes` against the checked-in fixture, blessing it first
/// when `CCSIM_BLESS` is set.
fn assert_matches_fixture(bytes: &[u8], name: &str) {
    let path = fixture_path(name);
    if std::env::var_os("CCSIM_BLESS").is_some() {
        std::fs::write(&path, bytes).unwrap();
    }
    let fixture = std::fs::read(&path)
        .unwrap_or_else(|_| panic!("{name} missing; run with CCSIM_BLESS=1 to create it"));
    assert_eq!(bytes, fixture, "{name} drifted; bless only after an intentional format change");
}

/// The ChampSim fixture: 96 instructions exercising non-memory runs,
/// branches, plain loads/stores and a multi-operand instruction.
fn champsim_fixture_bytes() -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut w = ChampSimWriter::new(&mut bytes);
    for i in 0..24u64 {
        let pc = 0x40_0000 + 16 * i;
        w.write(&ChampSimRecord::nonmem(pc)).unwrap();
        w.write(&ChampSimRecord::branch(pc + 4, i % 3 == 0)).unwrap();
        w.write(&ChampSimRecord::load(pc + 8, 0x1000_0000 + 64 * (i % 7))).unwrap();
        if i % 4 == 0 {
            let mut multi = ChampSimRecord::store(pc + 12, 0x2000_0000 + 64 * i);
            multi.source_memory[0] = 0x1000_0000 + 64 * ((i + 1) % 7);
            w.write(&multi).unwrap();
        } else {
            w.write(&ChampSimRecord::store(pc + 12, 0x2000_0000 + 64 * i)).unwrap();
        }
    }
    bytes
}

/// The CVP fixture: 72 variable-length instructions with explicit sizes,
/// including one that straddles a block boundary (exercises clamping).
fn cvp_fixture_bytes() -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut w = CvpWriter::new(&mut bytes);
    for i in 0..24u64 {
        let pc = 0x50_0000 + 12 * i;
        w.write(&CvpRecord::nonmem(pc, InstClass::Alu)).unwrap();
        w.write(&CvpRecord::load(pc + 4, 0x3000_0000 + 8 * i, 4)).unwrap();
        if i == 11 {
            w.write(&CvpRecord::store(pc + 8, 0x4000_003C, 16)).unwrap(); // straddler
        } else {
            w.write(&CvpRecord::store(pc + 8, 0x4000_0000 + 64 * i, 8)).unwrap();
        }
    }
    bytes
}

#[test]
fn foreign_fixtures_are_pinned() {
    assert_matches_fixture(&champsim_fixture_bytes(), "ingest_v1.champsim");
    assert_matches_fixture(&cvp_fixture_bytes(), "ingest_v1.cvp");
}

#[test]
fn champsim_fixture_ingests_to_the_golden_cctr_byte_identically() {
    let source = champsim_fixture_bytes();
    let opts = IngestOptions { name: Some("ingest_v1".into()), ..Default::default() };

    let run = |input: &[u8]| {
        let mut cursor = std::io::Cursor::new(Vec::new());
        let report = ingest(input, &mut cursor, &opts).unwrap();
        (cursor.into_inner(), report)
    };
    let (first, report) = run(&source);
    let (second, _) = run(&source);
    assert_eq!(first, second, "ingestion must be deterministic");
    assert_matches_fixture(&first, "ingest_golden_v1.cctr");

    assert_eq!(report.format, SourceFormat::ChampSim);
    assert_eq!(report.source_instructions, 96);
    assert_eq!(report.records, 24 + 24 + 6, "6 multi-operand instructions add an extra record");
    assert_eq!(report.residual_debt, 0, "every extra operand repaid from later ALU runs");
    assert_eq!(report.skipped, 0);

    let trace = read_trace(&first[..]).unwrap();
    assert_eq!(trace.name(), "ingest_v1");
    assert_eq!(trace.instructions(), 96);
    let r = simulate(&trace, &SimConfig::tiny(), PolicyKind::Lru);
    assert_eq!(r.instructions, 96, "ingested traces drive the simulator");
}

#[test]
fn cvp_fixture_ingests_deterministically_with_clamping() {
    let source = cvp_fixture_bytes();
    let opts = IngestOptions::default();
    let run = || {
        let mut cursor = std::io::Cursor::new(Vec::new());
        let report = ingest(&source[..], &mut cursor, &opts).unwrap();
        (cursor.into_inner(), report)
    };
    let (a, report) = run();
    let (b, _) = run();
    assert_eq!(a, b);
    assert_eq!(report.format, SourceFormat::Cvp);
    assert_eq!(report.source_instructions, 72);
    assert_eq!(report.records, 48);
    assert_eq!(report.clamped, 1, "exactly the block-straddling store");
    let trace = read_trace(&a[..]).unwrap();
    assert_eq!(trace.instructions(), 72);
    for r in trace.records() {
        assert!(r.vaddr % 64 + r.size as u64 <= 64, "block invariant after clamping");
    }
}

/// Hostile bytes: every cut and every one-bit flip of the two foreign
/// fixtures goes through `ingest` in strict and lossy mode, with the
/// format given and auto-detected. Nothing panics; lossy mode fails only
/// where auto-detection declines to guess; the output stays within a
/// fixed multiple of the input; and a cut that succeeds emits a prefix
/// of the uncut fixture's records.
#[test]
fn every_cut_and_bit_flip_of_the_foreign_fixtures_is_handled() {
    for (bytes, format) in [
        (champsim_fixture_bytes(), SourceFormat::ChampSim),
        (cvp_fixture_bytes(), SourceFormat::Cvp),
    ] {
        let full = ingested_records(&bytes, &IngestOptions::default());
        // The records of every mode that succeeded on `input`.
        let ingest_all_ways = |input: &[u8], case: &str| {
            let mut emitted = Vec::new();
            for (lossy, format) in
                [(false, None), (false, Some(format)), (true, None), (true, Some(format))]
            {
                let case = format!("{case}, lossy {lossy}, format {format:?}");
                let opts = IngestOptions { format, lossy, name: None };
                let mut out = std::io::Cursor::new(Vec::new());
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    ingest(input, &mut out, &opts)
                }))
                .unwrap_or_else(|_| panic!("{case}: panicked"));
                let out = out.into_inner();
                assert!(out.len() <= 64 + 3 * input.len(), "{case}: {} bytes out", out.len());
                match result {
                    Ok(_) => emitted.push(read_trace(&out[..]).unwrap().records().to_vec()),
                    Err(IngestError::UnknownFormat) if format.is_none() => {}
                    Err(e) => assert!(!lossy, "{case}: {e}"),
                }
            }
            emitted
        };
        for cut in 0..=bytes.len() {
            for records in ingest_all_ways(&bytes[..cut], &format!("{format} cut at {cut}")) {
                assert!(full.starts_with(&records), "{format} cut at {cut}: not a prefix");
            }
        }
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 1 << (at % 8);
            ingest_all_ways(&flipped, &format!("{format} flip at {at}"));
        }
    }
}

/// The records `ingest` emits for `bytes`, read back from memory.
fn ingested_records(bytes: &[u8], opts: &IngestOptions) -> Vec<TraceRecord> {
    let mut out = std::io::Cursor::new(Vec::new());
    ingest(bytes, &mut out, opts).unwrap();
    read_trace(&out.into_inner()[..]).unwrap().records().to_vec()
}

/// A `Read` that synthesizes ChampSim records on the fly: the "file"
/// never exists anywhere, so ingesting it proves the pipeline itself is
/// streaming — only the emitted CCTR ever touches disk.
struct ChampSimGenerator {
    remaining: u64,
    next: u64,
    buf: [u8; 64],
    pos: usize,
}

impl ChampSimGenerator {
    fn new(records: u64) -> ChampSimGenerator {
        ChampSimGenerator { remaining: records, next: 0, buf: [0; 64], pos: 64 }
    }
}

impl Read for ChampSimGenerator {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == 64 {
            if self.remaining == 0 {
                return Ok(0);
            }
            let i = self.next;
            self.next += 1;
            self.remaining -= 1;
            let rec = match i % 4 {
                0 => ChampSimRecord::load(0x400000 + 4 * i, 0x1000_0000 + 64 * (i % 50_000)),
                1 => ChampSimRecord::store(0x400000 + 4 * i, 0x7000_0000 + 64 * (i % 1_000)),
                _ => ChampSimRecord::nonmem(0x400000 + 4 * i),
            };
            self.buf = rec.encode();
            self.pos = 0;
        }
        let n = out.len().min(64 - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[test]
fn million_record_champsim_stream_converts_without_materializing() {
    const RECORDS: u64 = 1_000_000;
    let dir = temp_dir("stream1m");
    let out_path = dir.join("big.cctr");
    let opts = IngestOptions {
        format: Some(SourceFormat::ChampSim),
        name: Some("big".into()),
        ..Default::default()
    };
    // 64 MB of synthetic ChampSim flows through; neither source nor
    // record vector is ever resident (the generator holds one 64-byte
    // record, the pipeline one batch, the writer one record).
    let writer = std::io::BufWriter::new(std::fs::File::create(&out_path).unwrap());
    let report = ingest(ChampSimGenerator::new(RECORDS), writer, &opts).unwrap();
    assert_eq!(report.source_instructions, RECORDS);
    assert_eq!(report.records, RECORDS / 2, "half the instructions touch memory");
    assert_eq!(report.instructions, RECORDS);

    // Probe the header without decoding 500k records.
    let header = read_trace_header(std::fs::File::open(&out_path).unwrap()).unwrap();
    assert_eq!(header.name, "big");
    assert_eq!(header.count, RECORDS / 2);
    assert_eq!(
        header.expected_file_len(),
        std::fs::metadata(&out_path).unwrap().len(),
        "streaming writer patched the header to the exact length"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccsim_ingest_itest_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A campaign spec over the checked-in ChampSim fixture plus a synthetic
/// workload, on the tiny platform.
fn external_spec() -> CampaignSpec {
    let fixture = fixture_path("ingest_v1.champsim");
    CampaignSpec::from_json_str(&format!(
        r#"{{"name": "external", "base_config": "tiny",
             "workloads": ["trace:{}", "xsbench.small"],
             "policies": ["lru", "srrip"]}}"#,
        fixture.display()
    ))
    .unwrap()
}

#[test]
fn campaign_trace_selector_converts_once_and_reuses_the_cache() {
    let dir = temp_dir("campaign");
    let cache = || TraceCache::new(dir.join("traces")).unwrap();

    let first = Campaign::new(external_spec()).threads(4).cache(cache()).run().unwrap();
    assert_eq!(first.cells_total, 4);
    assert_eq!(
        (first.cache_hits, first.cache_misses),
        (0, 2),
        "one ingest miss + one generation miss"
    );
    let selector = &first.report.cells[0].workload;
    assert!(selector.starts_with("trace:"), "spec order puts the external trace first");
    assert_eq!(first.report.cells[0].suite, "external");
    assert_eq!(first.report.cells[0].result.instructions, 96);

    // Re-run with a fresh campaign: the foreign trace must be served
    // from the cache (no re-ingestion) and the report must not change
    // by a byte.
    let second = Campaign::new(external_spec()).threads(1).cache(cache()).run().unwrap();
    assert_eq!((second.cache_hits, second.cache_misses), (2, 0), "no reconversion");
    assert_eq!(first.report.to_json_string(), second.report.to_json_string());
    assert_eq!(first.report.to_csv(), second.report.to_csv());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A `trace:` selector whose file already is native `CCTR`, run with no
/// cache attached, is streamed where it lies — no second copy of a
/// multi-GB trace in `$TMPDIR` — and the report carries the selector as
/// the workload, byte-equal to the same spec run through a cache.
#[test]
fn native_cctr_selector_streams_in_place_without_a_cache() {
    // One-shot conversions are `ccsim-stream-<pid>-<seq>-<selector hash>.cctr`.
    let stream_temps = |selector: &str| {
        let prefix = format!("ccsim-stream-{}-", std::process::id());
        let suffix = format!("{:016x}.cctr", ccsim::campaign::spec::fnv1a64(selector.as_bytes()));
        let names = std::fs::read_dir(std::env::temp_dir()).unwrap().flatten();
        let ours = |n: &str| n.starts_with(&prefix) && n.ends_with(&suffix);
        names.filter(|e| e.file_name().to_str().is_some_and(ours)).count()
    };
    let spec_over = |fixture: &str| {
        CampaignSpec::from_json_str(&format!(
            r#"{{"name": "inplace", "base_config": "tiny",
                 "workloads": ["trace:{}"], "policies": ["lru", "srrip"]}}"#,
            fixture_path(fixture).display()
        ))
        .unwrap()
    };
    let spec = spec_over("ingest_golden_v1.cctr");
    let selector = spec.workloads[0].clone();

    let held = Campaign::new(spec.clone()).acquire(&selector).unwrap();
    assert_eq!(stream_temps(&selector), 0, "a CCTR source is not converted");
    // The probe does see the temporary a foreign source needs.
    let foreign = spec_over("ingest_v1.champsim");
    let converted = Campaign::new(foreign.clone()).acquire(&foreign.workloads[0]).unwrap();
    assert_eq!(stream_temps(&foreign.workloads[0]), 1);
    drop((held, converted));
    assert_eq!(stream_temps(&foreign.workloads[0]), 0);

    let in_place = Campaign::new(spec.clone()).threads(2).run().unwrap().report;
    assert_eq!(in_place.cells[0].workload, selector, "not the name embedded in the file");
    let dir = temp_dir("inplace");
    let cache = TraceCache::new(dir.join("traces")).unwrap();
    let cached = Campaign::new(spec).threads(2).cache(cache).run().unwrap();
    assert_eq!(cached.cache_misses, 1, "the cache-attached route still converts");
    assert_eq!(in_place.to_json_string(), cached.report.to_json_string());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_cached_conversion_is_regenerated_not_propagated() {
    let dir = temp_dir("poison");
    let cache = || TraceCache::new(dir.join("traces")).unwrap();
    let baseline = Campaign::new(external_spec()).threads(2).cache(cache()).run().unwrap();

    // Corrupt every cached entry three ways: truncation, magic damage,
    // and zero-fill. Each must be detected and regenerated, and the
    // report must come out identical — a poisoned cache entry must never
    // leak into downstream cells.
    let entries: Vec<PathBuf> = std::fs::read_dir(dir.join("traces"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "cctr"))
        .collect();
    assert_eq!(entries.len(), 2);
    for (i, entry) in entries.iter().enumerate() {
        let bytes = std::fs::read(entry).unwrap();
        match i % 2 {
            0 => std::fs::write(entry, &bytes[..bytes.len().min(30)]).unwrap(),
            _ => {
                let mut b = bytes.clone();
                b[0] = b'X';
                std::fs::write(entry, b).unwrap()
            }
        }
        assert!(!TraceCache::entry_is_valid(entry), "{}", entry.display());
    }
    let recovered = Campaign::new(external_spec()).threads(2).cache(cache()).run().unwrap();
    assert_eq!(recovered.cache_misses, 2, "both corrupt entries regenerated");
    assert_eq!(baseline.report.to_json_string(), recovered.report.to_json_string());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn dry_run_plan_tracks_cache_and_journal_lifecycle_for_external_traces() {
    let dir = temp_dir("plan");
    let journal = dir.join("journal.jsonl");
    let cache = || TraceCache::new(dir.join("traces")).unwrap();
    let campaign = || Campaign::new(external_spec()).cache(cache()).journal(&journal);

    assert_eq!(campaign().plan().unwrap().counts(), (0, 0, 4, 0));
    campaign().threads(4).run().unwrap();
    assert_eq!(campaign().plan().unwrap().counts(), (4, 0, 0, 0));
    std::fs::remove_file(&journal).unwrap();
    let plan = campaign().plan().unwrap();
    assert_eq!(plan.counts(), (0, 4, 0, 0), "cache survives the journal");
    assert!(plan.cells.iter().all(|c| c.status.name() == "cached-trace"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn ingest_file_and_in_memory_agree_on_the_fixture() {
    let dir = temp_dir("file_vs_mem");
    let out = dir.join("fixture.cctr");
    let report =
        ingest_file(&fixture_path("ingest_v1.champsim"), &out, &IngestOptions::default()).unwrap();
    assert_eq!(report.name, "ingest_v1", "default name is the file stem");
    let on_disk = std::fs::read(&out).unwrap();
    let mut in_memory = std::io::Cursor::new(Vec::new());
    let opts = IngestOptions { name: Some("ingest_v1".into()), ..Default::default() };
    ingest(&champsim_fixture_bytes()[..], &mut in_memory, &opts).unwrap();
    assert_eq!(on_disk, in_memory.into_inner());
    assert_eq!(read_trace(&on_disk[..]).unwrap().len() as u64, report.records);
    std::fs::remove_dir_all(&dir).unwrap();
}
