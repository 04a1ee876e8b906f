//! Per-cell checkpoint journal for resumable campaigns.
//!
//! A campaign appends one JSON line per completed cell to its journal
//! file. When a run is interrupted and restarted with the same spec, the
//! journal is replayed and completed cells are skipped — the resumed run
//! reconstructs the exact [`SimResult`] of every finished cell, so the
//! final report is byte-identical to an uninterrupted run's.
//!
//! File layout (JSON Lines):
//!
//! ```text
//! {"ccsim_campaign_journal":1,"campaign":"<name>","spec":"<digest>"}
//! {"cell":"<workload>|<config>|<policy>","result":{...}}
//! ...
//! ```
//!
//! A header mismatch (different spec digest — the grid changed) restarts
//! the journal from scratch; a torn trailing line (the process died
//! mid-write) is dropped, and so is everything from the first cell line
//! that lacks a field this revision writes — there is one cell-line
//! schema, and a cell it cannot read exactly is re-simulated.
//!
//! # Concurrent writers: per-worker segments
//!
//! Two processes appending to one journal file could interleave partial
//! lines, so distributed campaigns give every worker its **own segment**
//! — `journal.<worker-id>.jsonl` next to the solo `journal.jsonl`, same
//! format ([`Journal::open_segment`]). Each file has exactly one writer
//! for its lifetime; [`merge_dir`] folds any set of segments (plus the
//! solo journal, if present) back into one completed-cell map, dropping
//! torn tails per segment and **failing loudly when two segments record
//! conflicting results for the same cell**. Identical duplicates (a
//! lease expired mid-cell and the cell was re-run — results are
//! deterministic, so re-runs agree) merge cleanly and are counted.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use ccsim_core::{CacheStats, DramStats, SimResult};

use crate::json::Json;

/// Journal format version.
const JOURNAL_VERSION: u64 = 1;

/// An append-only record of completed campaign cells.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    completed: BTreeMap<String, SimResult>,
    resumed: usize,
}

impl Journal {
    /// Opens the journal at `path`, replaying any completed cells recorded
    /// by a previous run of the same campaign (matching `spec_digest`).
    /// A missing, foreign or unreadable journal starts fresh.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn open(
        path: impl Into<PathBuf>,
        campaign: &str,
        spec_digest: &str,
    ) -> std::io::Result<Journal> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let (completed, valid_bytes) = match std::fs::read_to_string(&path) {
            Ok(text) => replay(&text, campaign, spec_digest),
            Err(_) => (BTreeMap::new(), 0),
        };
        let resumed = completed.len();
        let file = if valid_bytes == 0 {
            let mut f = File::create(&path)?;
            let header = Json::obj(vec![
                ("ccsim_campaign_journal", Json::int(JOURNAL_VERSION)),
                ("campaign", Json::str(campaign)),
                ("spec", Json::str(spec_digest)),
            ]);
            writeln!(f, "{header}")?;
            f.flush()?;
            f
        } else {
            // Drop any torn tail so new records append after the last
            // fully-written line, where the next replay will find them.
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(valid_bytes as u64)?;
            let mut f = OpenOptions::new().append(true).open(&path)?;
            f.flush()?;
            f
        };
        Ok(Journal { path, file, completed, resumed })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Cells replayed from a previous run at open time.
    pub fn resumed(&self) -> usize {
        self.resumed
    }

    /// The completed-cell map (cell id to result), including cells
    /// recorded during this run.
    pub fn completed(&self) -> &BTreeMap<String, SimResult> {
        &self.completed
    }

    /// Records a completed cell and flushes it to disk so a kill after
    /// this call can never lose the cell.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn record(&mut self, cell: &str, result: &SimResult) -> std::io::Result<()> {
        let line =
            Json::obj(vec![("cell", Json::str(cell)), ("result", sim_result_to_json(result))]);
        writeln!(self.file, "{line}")?;
        self.file.flush()?;
        self.completed.insert(cell.to_owned(), result.clone());
        Ok(())
    }

    /// Read-only replay: the completed cells the journal at `path` holds
    /// for this campaign/spec, creating and truncating nothing (campaign
    /// dry-runs inspect journals through this). A missing, foreign or
    /// torn journal simply yields fewer (or no) cells.
    pub fn peek_completed(
        path: &Path,
        campaign: &str,
        spec_digest: &str,
    ) -> BTreeMap<String, SimResult> {
        match std::fs::read_to_string(path) {
            Ok(text) => replay(&text, campaign, spec_digest).0,
            Err(_) => BTreeMap::new(),
        }
    }

    /// The journal-segment path of `worker` under `dir`:
    /// `journal.<worker>.jsonl`.
    pub fn segment_path(dir: &Path, worker: &str) -> PathBuf {
        dir.join(format!("journal.{worker}.jsonl"))
    }

    /// Opens (or resumes) the per-worker journal segment of `worker`
    /// under `dir` — the concurrent-writer-safe form of [`Journal::open`]:
    /// each worker appends only to its own file, so two workers can never
    /// interleave partial lines no matter how the shared filesystem
    /// orders their writes.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn open_segment(
        dir: &Path,
        worker: &str,
        campaign: &str,
        spec_digest: &str,
    ) -> std::io::Result<Journal> {
        Journal::open(Self::segment_path(dir, worker), campaign, spec_digest)
    }
}

/// The result of merging every journal segment in a directory
/// ([`merge_dir`]).
#[derive(Debug, Default)]
pub struct MergedJournal {
    /// The union of completed cells across all segments.
    pub completed: BTreeMap<String, SimResult>,
    /// Valid cell lines read across all segments (>= `completed.len()`).
    pub entries: usize,
    /// Cells recorded by more than one segment with **identical** results
    /// (`entries - completed.len()`); conflicting duplicates are an error
    /// instead.
    pub duplicates: usize,
    /// `(file name, valid cell lines)` per matching segment, sorted by
    /// file name.
    pub segments: Vec<(String, usize)>,
    /// Segments (re)parsed this merge — fully on first sight, suffix-only
    /// on growth.
    pub segments_scanned: usize,
    /// Segments served straight from the [`MergeCursor`] because their
    /// length was unchanged — zero bytes read.
    pub segments_reused: usize,
}

/// Per-segment offset cursors for incremental [`merge_dir_cached`]
/// polling.
///
/// Each tracked segment remembers how many bytes of valid prefix were
/// already parsed and the cells they held. On the next merge, an
/// unchanged file is served from the cursor with **zero I/O**, and a
/// grown file is read **from its previous valid offset only** — turning
/// an N-segment poll loop (`ccsim campaign watch`, the worker's merge
/// rounds) from O(total journal bytes) per poll into O(new bytes). A
/// shrunk or rewritten file falls back to a full re-read, so semantics
/// stay byte-identical to [`merge_dir`].
#[derive(Debug, Default)]
pub struct MergeCursor {
    /// The (campaign, spec digest) this cursor's state belongs to;
    /// reusing the cursor for a different grid resets it.
    key: Option<(String, String)>,
    segments: BTreeMap<String, SegmentCursor>,
}

impl MergeCursor {
    /// An empty cursor: the first merge through it reads everything.
    pub fn new() -> MergeCursor {
        MergeCursor::default()
    }
}

#[derive(Debug)]
struct SegmentCursor {
    /// Bytes of this segment observed at the last parse.
    seen_len: u64,
    /// Byte length of the valid prefix (header + whole cell lines); 0
    /// when the header did not match this campaign/spec.
    valid_bytes: usize,
    /// Completed cells parsed from the valid prefix.
    cells: BTreeMap<String, SimResult>,
}

/// Merges the solo `journal.jsonl` plus every `journal.<worker>.jsonl`
/// segment under `dir` for (campaign, spec digest) into one
/// completed-cell map, read-only. Missing directories yield an empty
/// merge; foreign-spec and torn-tail content is skipped per segment
/// exactly as [`Journal::open`] would.
///
/// # Errors
///
/// Returns a message naming the first cell for which two segments hold
/// **different** results — the distributed-campaign invariant that every
/// cell is a deterministic function of the spec has been violated (mixed
/// binaries or a corrupted segment), and assembling a report would
/// silently pick one of the two.
pub fn merge_dir(dir: &Path, campaign: &str, spec_digest: &str) -> Result<MergedJournal, String> {
    merge_dir_cached(dir, campaign, spec_digest, &mut MergeCursor::new())
}

/// [`merge_dir`] with a [`MergeCursor`]: repeated merges of the same
/// directory skip unchanged segments entirely and read only the
/// appended suffix of grown ones. Same output as [`merge_dir`] for any
/// sequence of calls; new, deleted, truncated and rewritten segments
/// are all picked up.
///
/// # Errors
///
/// Exactly as [`merge_dir`]: the first cross-segment result conflict.
pub fn merge_dir_cached(
    dir: &Path,
    campaign: &str,
    spec_digest: &str,
    cursor: &mut MergeCursor,
) -> Result<MergedJournal, String> {
    let _span = ccsim_obs::metrics().journal_merge_ns.span();
    let key = (campaign.to_owned(), spec_digest.to_owned());
    if cursor.key.as_ref() != Some(&key) {
        cursor.segments.clear();
        cursor.key = Some(key);
    }
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Err(_) => Vec::new(),
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                // Matches worker segments (`journal.<id>.jsonl`) and the
                // solo `journal.jsonl` alike.
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("journal.") && n.ends_with(".jsonl"))
            })
            .collect(),
    };
    paths.sort();
    let mut merged = MergedJournal::default();
    let mut present: Vec<String> = Vec::with_capacity(paths.len());
    for path in paths {
        let name = path.file_name().unwrap_or_default().to_string_lossy().into_owned();
        let Some(seg) = advance_segment_cursor(&path, &name, campaign, spec_digest, cursor) else {
            continue;
        };
        present.push(name.clone());
        if seg.reused {
            merged.segments_reused += 1;
            ccsim_obs::metrics().journal_segments_reused.inc();
        } else {
            merged.segments_scanned += 1;
            ccsim_obs::metrics().journal_segments_scanned.inc();
        }
        let cells = &cursor.segments[&name].cells;
        merged.entries += cells.len();
        merged.segments.push((name.clone(), cells.len()));
        for (cell, result) in cells {
            match merged.completed.get(cell) {
                None => {
                    merged.completed.insert(cell.clone(), result.clone());
                }
                Some(existing) if existing == result => merged.duplicates += 1,
                Some(_) => {
                    return Err(format!(
                        "conflicting results for cell {cell:?}: segment {name} disagrees with an \
                         earlier segment — refusing to assemble (were the segments produced by \
                         different binaries or a corrupted file?)"
                    ));
                }
            }
        }
    }
    // Forget segments whose files are gone, so a recreated file is
    // re-read from scratch.
    cursor.segments.retain(|name, _| present.iter().any(|p| p == name));
    Ok(merged)
}

/// How [`advance_segment_cursor`] refreshed one segment.
struct SegmentAdvance {
    reused: bool,
}

/// Brings `cursor`'s entry for `name` up to date with the file at
/// `path`: zero I/O when the length is unchanged, suffix-only parse
/// when it grew, full re-read otherwise. Returns `None` when the file
/// vanished or is unreadable (the segment is skipped this round, as
/// [`merge_dir`] always did).
fn advance_segment_cursor(
    path: &Path,
    name: &str,
    campaign: &str,
    spec_digest: &str,
    cursor: &mut MergeCursor,
) -> Option<SegmentAdvance> {
    let file_len = std::fs::metadata(path).ok()?.len();
    if let Some(seg) = cursor.segments.get_mut(name) {
        if file_len == seg.seen_len {
            return Some(SegmentAdvance { reused: true });
        }
        // Grown with a matching header: parse the appended suffix only.
        // (A previously mismatched header — valid_bytes 0 — always falls
        // through to a full re-read: the file may have been rewritten
        // for this spec since.)
        if file_len > seg.seen_len && seg.valid_bytes > 0 {
            use std::io::{Read as _, Seek as _};
            let mut file = File::open(path).ok()?;
            file.seek(std::io::SeekFrom::Start(seg.valid_bytes as u64)).ok()?;
            let mut suffix = String::new();
            if file.read_to_string(&mut suffix).is_err() {
                // Non-UTF-8 tail: treat like a torn line — keep what was
                // valid, note the observed length so an unchanged file
                // is not re-probed.
                seg.seen_len = file_len;
                return Some(SegmentAdvance { reused: false });
            }
            // Bytes actually observed: the old valid prefix plus
            // everything the suffix read returned (the file may have
            // grown past the stat in the meantime).
            let observed = (seg.valid_bytes + suffix.len()) as u64;
            seg.valid_bytes += replay_body(&suffix, &mut seg.cells);
            seg.seen_len = observed;
            return Some(SegmentAdvance { reused: false });
        }
    }
    // First sight, shrunk, or header previously foreign: full re-read.
    let text = std::fs::read_to_string(path).ok()?;
    let (cells, valid_bytes) = replay(&text, campaign, spec_digest);
    cursor
        .segments
        .insert(name.to_owned(), SegmentCursor { seen_len: text.len() as u64, valid_bytes, cells });
    Some(SegmentAdvance { reused: false })
}

/// Replays journal `text` for (campaign, spec digest): the completed-cell
/// map plus the byte length of the valid prefix (header + whole lines).
fn replay(text: &str, campaign: &str, spec_digest: &str) -> (BTreeMap<String, SimResult>, usize) {
    let mut completed = BTreeMap::new();
    let mut valid_bytes = 0usize;
    let header_line = text.split_inclusive('\n').next().unwrap_or("");
    let header_ok = header_line.ends_with('\n')
        && Json::parse(header_line.trim_end()).ok().is_some_and(|h| {
            h.get("ccsim_campaign_journal").and_then(Json::as_u64) == Some(JOURNAL_VERSION)
                && h.get("campaign").and_then(Json::as_str) == Some(campaign)
                && h.get("spec").and_then(Json::as_str) == Some(spec_digest)
        });
    if header_ok {
        valid_bytes = header_line.len();
        valid_bytes += replay_body(&text[header_line.len()..], &mut completed);
    }
    (completed, valid_bytes)
}

/// Replays cell lines (no header) from `text` into `into`, returning
/// the byte length of the fully-valid prefix consumed. A torn final
/// line (or any corruption) ends the replay: everything after it will
/// simply be re-simulated.
fn replay_body(text: &str, into: &mut BTreeMap<String, SimResult>) -> usize {
    let mut consumed = 0usize;
    for line in text.split_inclusive('\n') {
        let Some((cell, result)) = parse_cell_line(line.trim_end()) else { break };
        if !line.ends_with('\n') {
            break;
        }
        into.insert(cell, result);
        consumed += line.len();
    }
    consumed
}

fn parse_cell_line(line: &str) -> Option<(String, SimResult)> {
    let v = Json::parse(line).ok()?;
    let cell = v.get("cell")?.as_str()?.to_owned();
    let result = sim_result_from_json(v.get("result")?)?;
    Some((cell, result))
}

/// Serializes every counter of a [`SimResult`] (exact integers, no derived
/// metrics) so the journal can reconstruct it bit-for-bit.
pub fn sim_result_to_json(r: &SimResult) -> Json {
    Json::obj(vec![
        ("workload", Json::str(&r.workload)),
        ("policy", Json::str(&r.policy)),
        ("instructions", Json::int(r.instructions)),
        ("cycles", Json::int(r.cycles)),
        ("l1d", cache_stats_to_json(&r.l1d)),
        ("l2", cache_stats_to_json(&r.l2)),
        ("llc", cache_stats_to_json(&r.llc)),
        ("dram", dram_stats_to_json(&r.dram)),
        ("llc_diag", Json::str(&r.llc_diag)),
    ])
}

/// Inverse of [`sim_result_to_json`]; `None` on any missing field.
pub fn sim_result_from_json(v: &Json) -> Option<SimResult> {
    Some(SimResult {
        workload: v.get("workload")?.as_str()?.to_owned(),
        policy: v.get("policy")?.as_str()?.to_owned(),
        instructions: v.get("instructions")?.as_u64()?,
        cycles: v.get("cycles")?.as_u64()?,
        l1d: cache_stats_from_json(v.get("l1d")?)?,
        l2: cache_stats_from_json(v.get("l2")?)?,
        llc: cache_stats_from_json(v.get("llc")?)?,
        dram: dram_stats_from_json(v.get("dram")?)?,
        llc_diag: v.get("llc_diag")?.as_str()?.to_owned(),
    })
}

fn cache_stats_to_json(s: &CacheStats) -> Json {
    Json::obj(vec![
        ("demand_accesses", Json::int(s.demand_accesses)),
        ("demand_hits", Json::int(s.demand_hits)),
        ("demand_misses", Json::int(s.demand_misses)),
        ("mshr_merges", Json::int(s.mshr_merges)),
        ("writeback_accesses", Json::int(s.writeback_accesses)),
        ("writeback_hits", Json::int(s.writeback_hits)),
        ("fills", Json::int(s.fills)),
        ("evictions", Json::int(s.evictions)),
        ("writebacks_out", Json::int(s.writebacks_out)),
        ("bypasses", Json::int(s.bypasses)),
        ("writeback_bypass_overrides", Json::int(s.writeback_bypass_overrides)),
    ])
}

fn cache_stats_from_json(v: &Json) -> Option<CacheStats> {
    let f = |k: &str| v.get(k)?.as_u64();
    Some(CacheStats {
        demand_accesses: f("demand_accesses")?,
        demand_hits: f("demand_hits")?,
        demand_misses: f("demand_misses")?,
        mshr_merges: f("mshr_merges")?,
        writeback_accesses: f("writeback_accesses")?,
        writeback_hits: f("writeback_hits")?,
        fills: f("fills")?,
        evictions: f("evictions")?,
        writebacks_out: f("writebacks_out")?,
        bypasses: f("bypasses")?,
        writeback_bypass_overrides: f("writeback_bypass_overrides")?,
    })
}

fn dram_stats_to_json(s: &DramStats) -> Json {
    Json::obj(vec![
        ("reads", Json::int(s.reads)),
        ("writes", Json::int(s.writes)),
        ("row_hits", Json::int(s.row_hits)),
        ("row_empty", Json::int(s.row_empty)),
        ("row_conflicts", Json::int(s.row_conflicts)),
        ("queue_cycles", Json::int(s.queue_cycles)),
    ])
}

fn dram_stats_from_json(v: &Json) -> Option<DramStats> {
    let f = |k: &str| v.get(k)?.as_u64();
    Some(DramStats {
        reads: f("reads")?,
        writes: f("writes")?,
        row_hits: f("row_hits")?,
        row_empty: f("row_empty")?,
        row_conflicts: f("row_conflicts")?,
        queue_cycles: f("queue_cycles")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result(cycles: u64) -> SimResult {
        SimResult {
            workload: "w".into(),
            policy: "lru".into(),
            instructions: 123_456,
            cycles,
            l1d: CacheStats {
                demand_accesses: 9,
                demand_hits: 5,
                demand_misses: 4,
                ..Default::default()
            },
            l2: CacheStats { fills: 7, evictions: 3, ..Default::default() },
            llc: CacheStats { bypasses: 2, writebacks_out: 1, ..Default::default() },
            dram: DramStats {
                reads: 11,
                writes: 6,
                row_hits: 4,
                row_empty: 3,
                row_conflicts: 4,
                queue_cycles: 99,
            },
            llc_diag: "diag: ok".into(),
        }
    }

    fn temp_journal_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ccsim_journal_{}_{tag}.jsonl", std::process::id()))
    }

    #[test]
    fn sim_result_roundtrips_exactly() {
        let r = sample_result(777);
        let back = sim_result_from_json(&sim_result_to_json(&r)).unwrap();
        assert_eq!(back, r);
    }

    /// One cell-line schema: a line written before
    /// `writeback_bypass_overrides` existed is unparsable like any other,
    /// so its cell is re-simulated — a resumed report stays byte-equal
    /// to a fresh one instead of carrying a guessed zero.
    #[test]
    fn cell_line_missing_a_counter_is_not_resumed() {
        let path = temp_journal_path("strict");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open(&path, "camp", "abcd").unwrap();
            j.record("w|c|lru", &sample_result(1)).unwrap();
            j.record("w|c|srrip", &sample_result(2)).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let old = text.replacen(",\"writeback_bypass_overrides\":0", "", 1);
        assert_ne!(old, text);
        std::fs::write(&path, old).unwrap();
        assert!(Journal::peek_completed(&path, "camp", "abcd").is_empty());
        let j = Journal::open(&path, "camp", "abcd").unwrap();
        assert_eq!(j.resumed(), 0, "the replay stops at the first line of another schema");
        drop(j);
        let header = text.lines().next().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), format!("{header}\n"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn journal_replays_recorded_cells() {
        let path = temp_journal_path("replay");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open(&path, "camp", "abcd").unwrap();
            assert_eq!(j.resumed(), 0);
            j.record("w|llc_x1|lru", &sample_result(10)).unwrap();
            j.record("w|llc_x1|srrip", &sample_result(20)).unwrap();
        }
        let j = Journal::open(&path, "camp", "abcd").unwrap();
        assert_eq!(j.resumed(), 2);
        assert_eq!(j.completed()["w|llc_x1|lru"], sample_result(10));
        assert_eq!(j.completed()["w|llc_x1|srrip"], sample_result(20));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn peek_is_read_only_and_spec_aware() {
        let path = temp_journal_path("peek");
        let _ = std::fs::remove_file(&path);
        // Peeking a missing journal creates nothing.
        assert!(Journal::peek_completed(&path, "camp", "abcd").is_empty());
        assert!(!path.exists());
        {
            let mut j = Journal::open(&path, "camp", "abcd").unwrap();
            j.record("w|c|lru", &sample_result(5)).unwrap();
        }
        let before = std::fs::read(&path).unwrap();
        let peeked = Journal::peek_completed(&path, "camp", "abcd");
        assert_eq!(peeked.len(), 1);
        assert_eq!(peeked["w|c|lru"], sample_result(5));
        assert!(Journal::peek_completed(&path, "camp", "zzzz").is_empty(), "foreign spec");
        assert_eq!(std::fs::read(&path).unwrap(), before, "peek must not modify the file");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn spec_digest_mismatch_starts_fresh() {
        let path = temp_journal_path("mismatch");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open(&path, "camp", "aaaa").unwrap();
            j.record("w|c|p", &sample_result(1)).unwrap();
        }
        let j = Journal::open(&path, "camp", "bbbb").unwrap();
        assert_eq!(j.resumed(), 0, "a different grid must not reuse cells");
        std::fs::remove_file(&path).unwrap();
    }

    fn temp_journal_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ccsim_journal_dir_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn segments_merge_with_solo_journal_and_count_duplicates() {
        let dir = temp_journal_dir("merge");
        {
            let mut solo = Journal::open(dir.join("journal.jsonl"), "camp", "abcd").unwrap();
            solo.record("w|c|lru", &sample_result(1)).unwrap();
            let mut a = Journal::open_segment(&dir, "worker-a", "camp", "abcd").unwrap();
            a.record("w|c|srrip", &sample_result(2)).unwrap();
            // worker-b re-ran a cell worker-a already finished (lease
            // expiry race): identical results merge cleanly.
            let mut b = Journal::open_segment(&dir, "worker-b", "camp", "abcd").unwrap();
            b.record("w|c|srrip", &sample_result(2)).unwrap();
            b.record("w|c|drrip", &sample_result(3)).unwrap();
        }
        let merged = merge_dir(&dir, "camp", "abcd").unwrap();
        assert_eq!(merged.completed.len(), 3);
        assert_eq!(merged.entries, 4);
        assert_eq!(merged.duplicates, 1);
        assert_eq!(
            merged.segments,
            vec![
                ("journal.jsonl".to_owned(), 1),
                ("journal.worker-a.jsonl".to_owned(), 1),
                ("journal.worker-b.jsonl".to_owned(), 2),
            ]
        );
        assert_eq!(merged.completed["w|c|drrip"], sample_result(3));
        // A foreign spec digest sees none of it.
        assert!(merge_dir(&dir, "camp", "zzzz").unwrap().completed.is_empty());
        // A missing directory is an empty merge, not an error.
        assert!(merge_dir(&dir.join("nope"), "camp", "abcd").unwrap().completed.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn conflicting_segment_results_fail_the_merge_loudly() {
        let dir = temp_journal_dir("conflict");
        {
            let mut a = Journal::open_segment(&dir, "a", "camp", "abcd").unwrap();
            a.record("w|c|lru", &sample_result(1)).unwrap();
            let mut b = Journal::open_segment(&dir, "b", "camp", "abcd").unwrap();
            b.record("w|c|lru", &sample_result(999)).unwrap();
        }
        let err = merge_dir(&dir, "camp", "abcd").unwrap_err();
        assert!(err.contains("conflicting results"), "{err}");
        assert!(err.contains("w|c|lru"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_drops_torn_tail_per_segment_and_keeps_the_rest() {
        // A worker killed mid-append leaves a torn final line in *its*
        // segment only; the merge must recover every fully-written line
        // of every segment.
        let dir = temp_journal_dir("merge_torn");
        {
            let mut a = Journal::open_segment(&dir, "a", "camp", "abcd").unwrap();
            a.record("w|c|lru", &sample_result(1)).unwrap();
            a.record("w|c|srrip", &sample_result(2)).unwrap();
            let mut b = Journal::open_segment(&dir, "b", "camp", "abcd").unwrap();
            b.record("w|c|drrip", &sample_result(3)).unwrap();
        }
        let a_path = Journal::segment_path(&dir, "a");
        let text = std::fs::read_to_string(&a_path).unwrap();
        std::fs::write(&a_path, &text[..text.len() - 25]).unwrap();
        let merged = merge_dir(&dir, "camp", "abcd").unwrap();
        assert_eq!(merged.completed.len(), 2, "torn cell dropped, both others kept");
        assert!(merged.completed.contains_key("w|c|lru"));
        assert!(merged.completed.contains_key("w|c|drrip"));
        assert_eq!(
            merged.segments,
            vec![("journal.a.jsonl".to_owned(), 1), ("journal.b.jsonl".to_owned(), 1)]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cursored_merge_skips_unchanged_segments_and_reads_only_growth() {
        let dir = temp_journal_dir("cursor");
        let mut a = Journal::open_segment(&dir, "a", "camp", "abcd").unwrap();
        a.record("w|c|lru", &sample_result(1)).unwrap();
        let mut b = Journal::open_segment(&dir, "b", "camp", "abcd").unwrap();
        b.record("w|c|srrip", &sample_result(2)).unwrap();

        let mut cursor = MergeCursor::new();
        let first = merge_dir_cached(&dir, "camp", "abcd", &mut cursor).unwrap();
        assert_eq!(first.completed.len(), 2);
        assert_eq!((first.segments_scanned, first.segments_reused), (2, 0), "cold cursor");

        // Nothing changed: both segments served from the cursor.
        let second = merge_dir_cached(&dir, "camp", "abcd", &mut cursor).unwrap();
        assert_eq!(second.completed.len(), 2);
        assert_eq!(second.entries, first.entries);
        assert_eq!(second.segments, first.segments);
        assert_eq!((second.segments_scanned, second.segments_reused), (0, 2));

        // One segment grows: only it is rescanned, and only its suffix.
        a.record("w|c|drrip", &sample_result(3)).unwrap();
        let third = merge_dir_cached(&dir, "camp", "abcd", &mut cursor).unwrap();
        assert_eq!(third.completed.len(), 3);
        assert_eq!((third.segments_scanned, third.segments_reused), (1, 1));
        assert_eq!(third.completed["w|c|drrip"], sample_result(3));

        // The cursored result always matches a cold full merge.
        let cold = merge_dir(&dir, "camp", "abcd").unwrap();
        assert_eq!(cold.completed, third.completed);
        assert_eq!(cold.segments, third.segments);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cursored_merge_handles_torn_growth_truncation_and_new_segments() {
        let dir = temp_journal_dir("cursor_edges");
        let mut a = Journal::open_segment(&dir, "a", "camp", "abcd").unwrap();
        a.record("w|c|lru", &sample_result(1)).unwrap();
        drop(a);
        let a_path = Journal::segment_path(&dir, "a");

        let mut cursor = MergeCursor::new();
        assert_eq!(merge_dir_cached(&dir, "camp", "abcd", &mut cursor).unwrap().entries, 1);

        // A torn append (no trailing newline) is growth, but nothing of
        // it is valid yet.
        let full = std::fs::read_to_string(&a_path).unwrap();
        let cell_line = full.lines().nth(1).unwrap();
        let torn = &cell_line.replace("w|c|lru", "w|c|ship")[..cell_line.len() - 20];
        std::fs::write(&a_path, format!("{full}{torn}")).unwrap();
        let merged = merge_dir_cached(&dir, "camp", "abcd", &mut cursor).unwrap();
        assert_eq!(merged.completed.len(), 1, "torn tail not merged");

        // Completing the line merges it from the suffix alone.
        std::fs::write(&a_path, format!("{full}{}\n", cell_line.replace("w|c|lru", "w|c|ship")))
            .unwrap();
        let merged = merge_dir_cached(&dir, "camp", "abcd", &mut cursor).unwrap();
        assert!(merged.completed.contains_key("w|c|ship"), "{:?}", merged.completed.keys());

        // Truncation back to the original forces a full, correct re-read.
        std::fs::write(&a_path, &full).unwrap();
        let merged = merge_dir_cached(&dir, "camp", "abcd", &mut cursor).unwrap();
        assert_eq!(merged.completed.len(), 1);
        assert!(merged.completed.contains_key("w|c|lru"));

        // A brand-new segment appears mid-polling.
        let mut b = Journal::open_segment(&dir, "b", "camp", "abcd").unwrap();
        b.record("w|c|hawkeye", &sample_result(9)).unwrap();
        drop(b);
        let merged = merge_dir_cached(&dir, "camp", "abcd", &mut cursor).unwrap();
        assert_eq!(merged.completed.len(), 2);

        // A deleted segment disappears from the merge (and the cursor).
        std::fs::remove_file(Journal::segment_path(&dir, "b")).unwrap();
        let merged = merge_dir_cached(&dir, "camp", "abcd", &mut cursor).unwrap();
        assert_eq!(merged.completed.len(), 1);
        assert_eq!(merged.segments.len(), 1);

        // Switching spec through the same cursor resets it safely.
        assert!(merge_dir_cached(&dir, "camp", "zzzz", &mut cursor).unwrap().completed.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_trailing_line_is_dropped() {
        let path = temp_journal_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open(&path, "camp", "cccc").unwrap();
            j.record("w|c|lru", &sample_result(1)).unwrap();
            j.record("w|c|srrip", &sample_result(2)).unwrap();
        }
        // Simulate a kill mid-write: chop the file inside the last line.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 25]).unwrap();
        let mut j = Journal::open(&path, "camp", "cccc").unwrap();
        assert_eq!(j.resumed(), 1);
        // The torn tail is truncated and the journal stays appendable...
        j.record("w|c|drrip", &sample_result(3)).unwrap();
        assert_eq!(j.completed().len(), 2);
        drop(j);
        // ...and a later replay sees the record appended after the tear.
        let j = Journal::open(&path, "camp", "cccc").unwrap();
        assert_eq!(j.resumed(), 2);
        assert_eq!(j.completed()["w|c|drrip"], sample_result(3));
        std::fs::remove_file(&path).unwrap();
    }
}
