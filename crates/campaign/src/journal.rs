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
//! the journal from scratch. A first line that is no header at all, with
//! whole lines after it, is damage: every reader refuses the file —
//! [`Journal::open`] rather than truncate its cells,
//! [`Journal::peek_completed`] and [`merge_dir`] rather than report them
//! as never run. A torn trailing line (the process died mid-write,
//! possibly inside a multi-byte character) is dropped, and so is
//! everything from the first cell line that lacks a field this revision
//! writes — there is one cell-line schema, and a cell it cannot read
//! exactly is re-simulated.
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
//! deterministic, so re-runs agree) merge cleanly and are counted. A
//! merge keeps no state between calls: it re-reads every segment in
//! full, which for the largest checked-in grid (`fig3`, 357 cells, about
//! 340 KB of journal) takes a few milliseconds.

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
    /// A missing journal, one whose header names another campaign or
    /// spec, and one torn inside its header start fresh.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures. A journal whose first line is
    /// no journal header but has whole lines after it is damage, not a
    /// foreign grid: that is an [`std::io::ErrorKind::InvalidData`] error
    /// naming the path, and the file is left as it is.
    pub fn open(
        path: impl Into<PathBuf>,
        campaign: &str,
        spec_digest: &str,
    ) -> std::io::Result<Journal> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let (completed, valid_bytes) = match read_journal(&path, campaign, spec_digest) {
            Ok(read) => read,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => return Err(refuse(e)),
            Err(_) => Default::default(),
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
    ///
    /// # Errors
    ///
    /// A journal [`Journal::open`] would refuse (its first line is no
    /// header, but whole lines follow it) is the same
    /// [`std::io::ErrorKind::InvalidData`] error; other read failures
    /// than a missing file propagate.
    pub fn peek_completed(
        path: &Path,
        campaign: &str,
        spec_digest: &str,
    ) -> std::io::Result<BTreeMap<String, SimResult>> {
        match read_journal(path, campaign, spec_digest) {
            Ok((completed, _)) => Ok(completed),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(BTreeMap::new()),
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => Err(refuse(e)),
            Err(e) => Err(e),
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
}

/// Merges the solo `journal.jsonl` plus every `journal.<worker>.jsonl`
/// segment under `dir` for (campaign, spec digest) into one
/// completed-cell map, read-only. Every call reads every segment in
/// full. Missing directories yield an empty merge; foreign-spec and
/// torn-tail content is skipped per segment exactly as [`Journal::open`]
/// would.
///
/// # Errors
///
/// Returns a message naming the first cell for which two segments hold
/// **different** results — the distributed-campaign invariant that every
/// cell is a deterministic function of the spec has been violated (mixed
/// binaries or a corrupted segment), and assembling a report would
/// silently pick one of the two. Returns a message naming the segment
/// when one is damaged the way [`Journal::open`] refuses (its first line
/// is no header, but whole lines follow it): merging without its cells
/// would show them as never run.
pub fn merge_dir(dir: &Path, campaign: &str, spec_digest: &str) -> Result<MergedJournal, String> {
    let _span = ccsim_obs::metrics().journal_merge_ns.span();
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
    for path in paths {
        let cells = match read_journal(&path, campaign, spec_digest) {
            Ok((cells, _)) => cells,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                return Err(format!(
                    "damaged journal segment {e}; refusing to merge without its cells (move \
                     the file aside to re-simulate them)"
                ));
            }
            // A segment that vanished or is unreadable is skipped this merge.
            Err(_) => continue,
        };
        ccsim_obs::metrics().journal_segments_scanned.inc();
        let name = path.file_name().unwrap_or_default().to_string_lossy().into_owned();
        merged.entries += cells.len();
        merged.segments.push((name.clone(), cells.len()));
        for (cell, result) in cells {
            match merged.completed.get(&cell) {
                None => {
                    merged.completed.insert(cell, result);
                }
                Some(existing) if *existing == result => merged.duplicates += 1,
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
    Ok(merged)
}

/// Reads the journal file at `path` and [`replay`]s it.
///
/// # Errors
///
/// Read failures, and an [`std::io::ErrorKind::InvalidData`] error naming
/// the path when the header is damaged ([`header_is_damaged`]).
fn read_journal(
    path: &Path,
    campaign: &str,
    spec_digest: &str,
) -> std::io::Result<(BTreeMap<String, SimResult>, usize)> {
    let bytes = std::fs::read(path)?;
    if header_is_damaged(&bytes) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "{}: the first line is not a campaign journal header, but lines follow it",
                path.display()
            ),
        ));
    }
    Ok(replay(valid_utf8_prefix(&bytes), campaign, spec_digest))
}

/// A solo journal's damage error, with what a campaign run does about it.
fn refuse(damage: std::io::Error) -> std::io::Error {
    std::io::Error::new(
        damage.kind(),
        format!(
            "{damage}; refusing to overwrite them (move the file aside, or run with --fresh to \
             discard it)"
        ),
    )
}

/// The longest valid UTF-8 prefix of `bytes`: a kill that tears an
/// append inside a multi-byte character leaves a tail that is dropped
/// like any other torn line.
fn valid_utf8_prefix(bytes: &[u8]) -> &str {
    bytes.utf8_chunks().next().map_or("", |chunk| chunk.valid())
}

/// The header fields a journal's first line must carry to be read at
/// all (whether they match this campaign is [`replay`]'s question).
fn header_fields(line: &str) -> Option<(u64, String, String)> {
    let h = Json::parse(line.trim_end()).ok()?;
    Some((
        h.get("ccsim_campaign_journal")?.as_u64()?,
        h.get("campaign")?.as_str()?.to_owned(),
        h.get("spec")?.as_str()?.to_owned(),
    ))
}

/// `true` when the first line of `bytes` is whole but no readable
/// header, and at least one whole line follows it: a damaged journal
/// whose cells a fresh start would discard.
fn header_is_damaged(bytes: &[u8]) -> bool {
    let mut lines = bytes.split_inclusive(|&b| b == b'\n');
    let (Some(first), Some(second)) = (lines.next(), lines.next()) else { return false };
    second.ends_with(b"\n") && std::str::from_utf8(first).ok().and_then(header_fields).is_none()
}

/// Replays journal `text` for (campaign, spec digest): the completed-cell
/// map plus the byte length of the valid prefix (header + whole lines).
/// A torn final line (or any corruption) ends the replay: everything
/// after it will simply be re-simulated.
fn replay(text: &str, campaign: &str, spec_digest: &str) -> (BTreeMap<String, SimResult>, usize) {
    let mut completed = BTreeMap::new();
    let mut lines = text.split_inclusive('\n');
    let header_line = lines.next().unwrap_or("");
    let header_ok = header_line.ends_with('\n')
        && header_fields(header_line).is_some_and(|(version, name, spec)| {
            version == JOURNAL_VERSION && name == campaign && spec == spec_digest
        });
    if !header_ok {
        return (completed, 0);
    }
    let mut valid_bytes = header_line.len();
    for line in lines {
        let Some((cell, result)) = parse_cell_line(line.trim_end()) else { break };
        if !line.ends_with('\n') {
            break;
        }
        completed.insert(cell, result);
        valid_bytes += line.len();
    }
    (completed, valid_bytes)
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
        assert!(Journal::peek_completed(&path, "camp", "abcd").unwrap().is_empty());
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
        assert!(Journal::peek_completed(&path, "camp", "abcd").unwrap().is_empty());
        assert!(!path.exists());
        {
            let mut j = Journal::open(&path, "camp", "abcd").unwrap();
            j.record("w|c|lru", &sample_result(5)).unwrap();
        }
        let before = std::fs::read(&path).unwrap();
        let peeked = Journal::peek_completed(&path, "camp", "abcd").unwrap();
        assert_eq!(peeked.len(), 1);
        assert_eq!(peeked["w|c|lru"], sample_result(5));
        assert!(Journal::peek_completed(&path, "camp", "zzzz").unwrap().is_empty(), "foreign spec");
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

    /// An unreadable header with cell lines after it is damage: `open`
    /// refuses it and keeps the file, and `peek_completed` refuses it with
    /// the same error (`merge_dir`'s refusal is in the bit-flip test). With
    /// nothing whole after it, the header is torn or the lone line is
    /// junk, and the journal starts fresh.
    #[test]
    fn unreadable_header_with_lines_after_it_is_refused_and_kept() {
        let path = temp_journal_path("bad_header");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open(&path, "camp", "abcd").unwrap();
            j.record("w|c|lru", &sample_result(1)).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let cells = text.split_once('\n').unwrap().1;
        let damaged = format!("not a header\n{cells}");
        std::fs::write(&path, &damaged).unwrap();
        let err = Journal::open(&path, "camp", "abcd").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(&*path.to_string_lossy()), "{err}");
        assert!(err.to_string().contains("--fresh"), "{err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), damaged);
        let peek_err = Journal::peek_completed(&path, "camp", "abcd").unwrap_err();
        assert_eq!(peek_err.to_string(), err.to_string());

        for fresh in ["not a header\n", "{\"ccsim_campaign_jour", "not a header\n{\"cell\""] {
            std::fs::write(&path, fresh).unwrap();
            let j = Journal::open(&path, "camp", "abcd").unwrap();
            assert_eq!(j.resumed(), 0, "{fresh:?}");
            drop(j);
            let header = text.lines().next().unwrap();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), format!("{header}\n"));
        }
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

    /// A kill that tears an append inside a multi-byte character (a
    /// `trace:` selector naming a non-ASCII path) drops only the torn
    /// line: every reader keeps the cells before it.
    #[test]
    fn append_torn_inside_a_multibyte_character_drops_only_the_tail() {
        let dir = temp_journal_dir("torn_utf8");
        let path = Journal::segment_path(&dir, "a");
        {
            let mut j = Journal::open(&path, "camp", "abcd").unwrap();
            j.record("w|c|lru", &sample_result(1)).unwrap();
            j.record("w|c|srrip", &sample_result(2)).unwrap();
            j.record("trace:/data/caf\u{e9}.champsim|c|lru", &sample_result(3)).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let tear = bytes.iter().rposition(|&b| b == 0xC3).unwrap() + 1;
        std::fs::write(&path, &bytes[..tear]).unwrap();

        assert_eq!(Journal::peek_completed(&path, "camp", "abcd").unwrap().len(), 2);
        let merged = merge_dir(&dir, "camp", "abcd").unwrap();
        assert_eq!(merged.completed.len(), 2);
        assert_eq!(merged.completed["w|c|srrip"], sample_result(2));
        let mut j = Journal::open(&path, "camp", "abcd").unwrap();
        assert_eq!(j.resumed(), 2, "the torn line is dropped, the journal kept");
        j.record("w|c|drrip", &sample_result(4)).unwrap();
        drop(j);
        let j = Journal::open(&path, "camp", "abcd").unwrap();
        assert_eq!(j.resumed(), 3, "appends after the tear replay");
        assert_eq!(j.completed()["w|c|drrip"], sample_result(4));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Hostile bytes: every truncation and every one-bit flip of a 3-cell
    /// journal (one cell names a non-ASCII `trace:` path) reads without a
    /// panic, all three readers agree, and no damage costs a cell whose
    /// line ends before it — a cut keeps exactly those cells. A flip that
    /// leaves the header unreadable makes all three readers refuse the
    /// file — `Journal::open` leaves it as it is, `peek_completed` fails
    /// with the same error and `merge_dir` names the segment; one that
    /// leaves it readable names another grid, which starts fresh.
    #[test]
    fn every_truncation_and_bit_flip_keeps_the_lines_before_it() {
        let dir = temp_journal_dir("hostile");
        let path = dir.join("journal.jsonl");
        let cells = ["w|c|lru", "w|c|srrip", "trace:/data/caf\u{e9}.champsim|c|lru"];
        let results: Vec<SimResult> = (0..3).map(|i| sample_result(100 + i)).collect();
        {
            let mut j = Journal::open(&path, "camp", "abcd").unwrap();
            for (cell, result) in cells.iter().zip(&results) {
                j.record(cell, result).unwrap();
            }
        }
        let bytes = std::fs::read(&path).unwrap();
        let line_ends: Vec<usize> =
            (0..bytes.len()).filter(|&i| bytes[i] == b'\n').map(|i| i + 1).collect();
        let (header_end, line_ends) = (line_ends[0], &line_ends[1..]);
        assert_eq!(line_ends.len(), cells.len());
        // The cells of the lines that end at or before `offset`.
        let whole_before = |offset: usize| -> BTreeMap<String, SimResult> {
            let whole = line_ends.iter().filter(|&&end| end <= offset).count();
            cells[..whole].iter().map(|c| (*c).to_owned()).zip(results.clone()).collect()
        };
        // The cells every reader agrees on, or the error every reader
        // refused the file with (`Journal::open`'s).
        let read = |content: &[u8]| {
            std::fs::write(&path, content).unwrap();
            let peeked = Journal::peek_completed(&path, "camp", "abcd");
            let merged = merge_dir(&dir, "camp", "abcd");
            match Journal::open(&path, "camp", "abcd") {
                Ok(j) => {
                    let peeked = peeked.unwrap();
                    assert_eq!(merged.unwrap().completed, peeked);
                    assert_eq!(j.completed(), &peeked);
                    Ok(peeked)
                }
                Err(e) => {
                    let peek_err = peeked.unwrap_err();
                    assert_eq!((peek_err.kind(), peek_err.to_string()), (e.kind(), e.to_string()));
                    let merge_err = merged.unwrap_err();
                    assert!(merge_err.contains(&*path.to_string_lossy()), "{merge_err}");
                    assert!(merge_err.contains("damaged journal segment"), "{merge_err}");
                    assert_eq!(std::fs::read(&path).unwrap(), content, "a refused file is kept");
                    Err(e)
                }
            }
        };
        for cut in 0..=bytes.len() {
            assert_eq!(read(&bytes[..cut]).unwrap(), whole_before(cut), "cut at {cut}");
        }
        // A first line is readable when it is a JSON object carrying the
        // three header fields, whatever their values.
        let readable = |content: &[u8]| {
            let first = content.split(|&b| b == b'\n').next().unwrap();
            let header = std::str::from_utf8(first).ok().and_then(|l| Json::parse(l).ok());
            header.is_some_and(|h| {
                h.get("ccsim_campaign_journal").and_then(Json::as_u64).is_some()
                    && h.get("campaign").and_then(Json::as_str).is_some()
                    && h.get("spec").and_then(Json::as_str).is_some()
            })
        };
        let mut refused = 0;
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 1 << (at % 8);
            match read(&flipped) {
                Ok(kept) => {
                    assert!(at >= header_end || readable(&flipped), "flip at {at} was not refused");
                    assert!(kept.len() <= cells.len(), "flip at {at}");
                    for (cell, result) in whole_before(at) {
                        assert_eq!(kept.get(&cell), Some(&result), "flip at {at} lost {cell}");
                    }
                }
                Err(e) => {
                    assert!(at < header_end && !readable(&flipped), "flip at {at}: {e}");
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "flip at {at}");
                    let message = e.to_string();
                    assert!(message.contains(&*path.to_string_lossy()), "{message}");
                    assert!(message.contains("--fresh"), "{message}");
                    refused += 1;
                }
            }
        }
        assert!(refused > header_end / 2, "most header flips are refused: {refused}");
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
