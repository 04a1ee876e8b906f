//! The append-only ledger file: load, append, compact.
//!
//! Durability contract: `record` appends exactly one `line + "\n"` in
//! a single write to an append-mode handle, after dropping any torn
//! final line, so concurrent recorders on a POSIX filesystem interleave
//! at line granularity. A reader therefore treats an unparsable
//! **final** line as a torn in-flight append — tolerated and reported
//! via [`Ledger::torn_tail`] — while a bad line anywhere earlier means
//! real corruption and fails loudly with its line number. `gc` never
//! rewrites surviving entries: it copies their original bytes into a
//! temp file and renames it over the ledger, so a gc'd ledger stays
//! byte-comparable to its source.

use std::fs::OpenOptions;
use std::io::{Read, Write};
use std::path::Path;

use ccsim_obs::Json;

use crate::entry::TrendEntry;

/// An in-memory view of one `trends.jsonl` file.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Parsed entries, oldest first.
    pub entries: Vec<TrendEntry>,
    /// The verbatim source line of each entry (no newline).
    raw: Vec<String>,
    /// Whether the file ended in an unparsable line (a torn append
    /// from a crashed writer), which `load` skipped.
    torn_tail: bool,
}

impl Ledger {
    /// Loads a ledger file; a missing file is an empty ledger.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first corrupt non-final line, or
    /// the I/O failure.
    pub fn load(path: &Path) -> Result<Ledger, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Ledger::default()),
            Err(e) => return Err(format!("reading {}: {e}", path.display())),
        };
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        let mut ledger = Ledger::default();
        for (i, line) in lines.iter().enumerate() {
            match TrendEntry::from_json_line(line) {
                Ok(entry) => {
                    ledger.entries.push(entry);
                    ledger.raw.push((*line).to_owned());
                }
                Err(_) if i + 1 == lines.len() && Json::parse(line).is_err() => {
                    // A torn final line is a crashed writer, not
                    // corruption: everything before it is intact. A
                    // whole line of another schema is no torn append.
                    ledger.torn_tail = true;
                }
                Err(e) => {
                    return Err(format!("{} line {}: {e}", path.display(), i + 1));
                }
            }
        }
        Ok(ledger)
    }

    /// Whether `load` skipped a torn final line.
    pub fn torn_tail(&self) -> bool {
        self.torn_tail
    }

    /// The last `n` entries, oldest first.
    pub fn last_n(&self, n: usize) -> &[TrendEntry] {
        &self.entries[self.entries.len().saturating_sub(n)..]
    }

    /// Appends one entry to the ledger file (creating it if needed)
    /// as a single write that starts on a line boundary: a torn final
    /// line left by a crashed writer is dropped first, as `load` and `gc`
    /// drop it. Glued onto the fragment the entry would be unreadable,
    /// and the append after it would turn the pair into mid-file
    /// corruption that fails every later `load`.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure.
    pub fn append(path: &Path, entry: &TrendEntry) -> Result<(), String> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("creating {}: {e}", parent.display()))?;
        }
        let mut line = entry.to_json_line();
        line.push('\n');
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("opening {}: {e}", path.display()))?;
        let mut existing = Vec::new();
        file.read_to_end(&mut existing).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let boundary = existing.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        if boundary < existing.len() {
            file.set_len(boundary as u64)
                .map_err(|e| format!("truncating {}: {e}", path.display()))?;
        }
        file.write_all(line.as_bytes()).map_err(|e| format!("appending to {}: {e}", path.display()))
    }

    /// Compacts the ledger file to its most recent `keep` entries
    /// (dropping any torn tail), through a temp file and an atomic
    /// rename. Surviving lines keep their original bytes. Returns the
    /// number of entries dropped.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Ledger::load`], plus I/O failures of
    /// the rewrite.
    pub fn gc(path: &Path, keep: usize) -> Result<usize, String> {
        let ledger = Ledger::load(path)?;
        let dropped = ledger.entries.len().saturating_sub(keep) + usize::from(ledger.torn_tail);
        let survivors = &ledger.raw[ledger.raw.len().saturating_sub(keep)..];
        let mut text = String::new();
        for line in survivors {
            text.push_str(line);
            text.push('\n');
        }
        let tmp = path.with_extension("jsonl.tmp");
        std::fs::write(&tmp, text).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| format!("renaming over {}: {e}", path.display()))?;
        Ok(dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_ledger(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ccsim_trends_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join("trends.jsonl")
    }

    #[test]
    fn append_then_load_round_trips() {
        let path = temp_ledger("roundtrip");
        assert!(Ledger::load(&path).unwrap().entries.is_empty(), "missing file = empty");
        for rev in ["aaa", "bbb", "ccc"] {
            Ledger::append(&path, &TrendEntry::new(rev, "main", "0")).unwrap();
        }
        let ledger = Ledger::load(&path).unwrap();
        assert_eq!(ledger.entries.len(), 3);
        assert!(!ledger.torn_tail());
        assert_eq!(ledger.entries[0].rev, "aaa");
        assert_eq!(ledger.last_n(2)[0].rev, "bbb");
        assert_eq!(ledger.last_n(99).len(), 3);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn torn_tail_is_tolerated_mid_file_corruption_is_not() {
        let path = temp_ledger("torn");
        Ledger::append(&path, &TrendEntry::new("aaa", "", "")).unwrap();
        Ledger::append(&path, &TrendEntry::new("bbb", "", "")).unwrap();
        // Simulate a writer that died mid-line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"ccsim_trends\":2,\"rev\":\"ccc\",\"la");
        std::fs::write(&path, &text).unwrap();
        let ledger = Ledger::load(&path).unwrap();
        assert_eq!(ledger.entries.len(), 2, "intact prefix survives");
        assert!(ledger.torn_tail());

        // The same garbage mid-file is corruption and fails with its
        // line number.
        let corrupt = text.replace(
            "{\"ccsim_trends\":2,\"rev\":\"bbb\"",
            "{\"ccsim_trends\":oops,\"rev\":\"bbb\"",
        );
        std::fs::write(&path, corrupt).unwrap();
        let err = Ledger::load(&path).unwrap_err();
        assert!(err.contains("line 2"), "{err}");

        // A whole final line of the retired schema is not a torn append.
        std::fs::write(&path, "{\"ccsim_trends\":1,\"rev\":\"seed\",\"bench\":null}\n").unwrap();
        let err = Ledger::load(&path).unwrap_err();
        assert!(err.ends_with("line 1: unsupported ccsim_trends schema 1"), "{err}");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn append_after_a_torn_tail_starts_on_a_line_boundary() {
        let path = temp_ledger("torn_append");
        Ledger::append(&path, &TrendEntry::new("aaa", "", "")).unwrap();
        let intact = std::fs::read_to_string(&path).unwrap();
        // A writer died mid-line; the next two records must both land.
        std::fs::write(&path, format!("{intact}{{\"ccsim_trends\":2,\"rev\":\"torn")).unwrap();
        Ledger::append(&path, &TrendEntry::new("bbb", "", "")).unwrap();
        Ledger::append(&path, &TrendEntry::new("ccc", "", "")).unwrap();
        let ledger = Ledger::load(&path).unwrap();
        let revs: Vec<&str> = ledger.entries.iter().map(|e| e.rev.as_str()).collect();
        assert_eq!(revs, ["aaa", "bbb", "ccc"]);
        assert!(!ledger.torn_tail(), "the fragment is gone, not carried along");
        assert!(std::fs::read_to_string(&path).unwrap().starts_with(&intact));
        assert_eq!(Ledger::gc(&path, 2).unwrap(), 1);
        assert_eq!(Ledger::load(&path).unwrap().entries[0].rev, "bbb");
        // A ledger that is one torn line and nothing else is appendable too.
        std::fs::write(&path, "{\"ccsim_trends\":2,\"re").unwrap();
        Ledger::append(&path, &TrendEntry::new("ddd", "", "")).unwrap();
        assert_eq!(Ledger::load(&path).unwrap().entries.len(), 1);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn gc_keeps_recent_entries_byte_for_byte_and_drops_torn_tails() {
        let path = temp_ledger("gc");
        for rev in ["aaa", "bbb", "ccc", "ddd"] {
            Ledger::append(&path, &TrendEntry::new(rev, "main", "7")).unwrap();
        }
        let before = std::fs::read_to_string(&path).unwrap();
        let expected_tail: String = before.lines().skip(2).map(|l| format!("{l}\n")).collect();
        // Add a torn tail; gc must drop it too.
        std::fs::write(&path, format!("{before}{{\"ccsim_trends\":2,\"re")).unwrap();

        let dropped = Ledger::gc(&path, 2).unwrap();
        assert_eq!(dropped, 3, "two old entries + the torn tail");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expected_tail);
        let ledger = Ledger::load(&path).unwrap();
        assert_eq!(ledger.entries.len(), 2);
        assert_eq!(ledger.entries[0].rev, "ccc");
        assert!(!path.with_extension("jsonl.tmp").exists());

        // gc with a generous keep is a no-op on entries.
        let dropped = Ledger::gc(&path, 10).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expected_tail);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
