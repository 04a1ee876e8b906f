//! On-disk content-addressed trace cache.
//!
//! Workload traces dominate campaign cost, yet every (policy x config)
//! cell of a grid reuses the same trace. The cache stores each generated
//! trace once under a filename derived from its full identity — workload
//! name, scale, synthesis seed and `CCTR` format version — so traces are
//! shared across cells, campaigns and repeated runs, and a key change
//! (new scale, new seed, format bump) can never alias an old file.
//! [`TraceCache::ensure_generated`] fills an entry by streaming the
//! generator straight into it ([`ccsim_workloads::write_workload`]) and
//! returns its path for callers to stream: no trace is ever resident.
//!
//! Ingested external traces (`trace:<path>` selectors) follow the same
//! discipline with a different identity: the **content digest** of the
//! source file, the resolved source format, the ingest options and the
//! `CCTR` version ([`TraceCache::ensure_ingested`], which returns the
//! entry's path for callers to stream). A foreign trace is therefore
//! decoded exactly once across cells, campaigns and repeated runs, and
//! editing the source file in place changes the key. The content digest is
//! [`ccsim_ingest::digest_file`]'s four-lane word digest, and the key
//! string names that scheme (`lanes64`): entries keyed by the older
//! byte-wise FNV-1a digest can never be looked up again, so each source
//! is re-ingested once and the old file is left orphaned.
//!
//! Both kinds of entry are validated the same way before they count as a
//! hit: header, exact length, embedded name and a scan of every record.
//! A failing entry is refilled. Every write goes through a temporary file
//! named by `temp_tag` and an atomic rename, so concurrent fillers of one
//! key — processes or threads — never share a half-written file.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ccsim_ingest::{detect_file, digest_file, ingest_file, IngestOptions};
use ccsim_trace::{read_trace_header, TraceHeader, TraceReader};
use ccsim_workloads::{write_workload, SuiteScale};

use crate::spec::fnv1a64;

/// Version suffix baked into every cache key; bump when
/// [`ccsim_trace::write_trace`]'s format version changes.
const FORMAT_VERSION: u32 = 1;

/// Records decoded per call by the entry scan.
const SCAN_RECORDS: usize = 4096;

/// A name fragment unique to this call within this host's processes: the
/// pid plus a process-wide counter, so two threads filling the same cache
/// key (dist workers run as threads in tests) never share a temp file.
pub(crate) fn temp_tag() -> String {
    static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
    format!("{}-{}", std::process::id(), TEMP_SEQ.fetch_add(1, Ordering::Relaxed))
}

/// A content-addressed store of generated workload traces.
#[derive(Debug)]
pub struct TraceCache {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TraceCache {
    /// Opens (creating if needed) a cache rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn new(root: impl Into<PathBuf>) -> std::io::Result<TraceCache> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(TraceCache { root, hits: AtomicU64::new(0), misses: AtomicU64::new(0) })
    }

    /// The cache directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Cache reads served from disk since this handle was opened.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache reads that fell through to generation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The on-disk path for a trace identity.
    pub fn path_for(&self, workload: &str, scale: SuiteScale, seed: u64) -> PathBuf {
        let key = format!("{workload}@{scale}#s{seed}#v{FORMAT_VERSION}");
        let sanitized: String = workload
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '.' || c == '-' { c } else { '_' })
            .collect();
        self.root.join(format!("{sanitized}-{scale}-{:016x}.cctr", fnv1a64(key.as_bytes())))
    }

    /// Ensures a cached trace of the synthetic workload `workload` (at
    /// `scale`, synthesized with `seed`) exists on disk and returns its
    /// path. A missing, truncated, misnamed or record-corrupt entry is
    /// regenerated: the generator streams into a temporary file
    /// ([`write_workload`]), which an atomic rename puts in place, so a
    /// killed campaign never leaves a truncated trace behind for the
    /// resumed run to read.
    ///
    /// # Errors
    ///
    /// Returns a message on unknown workloads and cache I/O failures.
    pub fn ensure_generated(
        &self,
        workload: &str,
        scale: SuiteScale,
        seed: u64,
    ) -> Result<PathBuf, String> {
        let _span = ccsim_obs::metrics().cache_ensure_ns.span();
        let path = self.path_for(workload, scale, seed);
        self.ensure(path, Some(workload), |tmp| {
            write_workload(workload, scale, seed, tmp).map(drop)
        })
    }

    /// The on-disk path an ingested conversion of `source` would use:
    /// keyed by the file's content digest (named by its scheme, so a digest
    /// change can never alias an old entry), the resolved source format,
    /// the ingest options and the `CCTR` version. Reads (digests) the
    /// whole source file, in bounded memory.
    ///
    /// # Errors
    ///
    /// Returns a message on unreadable or format-undetectable sources.
    pub fn path_for_ingested(
        &self,
        source: &Path,
        opts: &IngestOptions,
    ) -> Result<PathBuf, String> {
        let digest = digest_file(source)
            .map_err(|e| format!("digesting trace file {}: {e}", source.display()))?;
        let format = match opts.format {
            Some(f) => f,
            None => detect_file(source).map_err(|e| format!("{}: {e}", source.display()))?,
        };
        let key =
            format!("ingest#lanes64:{digest:016x}#{format}#{}#v{FORMAT_VERSION}", opts.cache_key());
        Ok(self.root.join(format!("ingest-{:016x}.cctr", fnv1a64(key.as_bytes()))))
    }

    /// Ensures a cached conversion of the external trace `source` exists
    /// on disk and returns its path — without materializing the records,
    /// so callers can stream the entry through
    /// [`ccsim_core::simulate_stream`] in O(1) memory. A missing,
    /// truncated, magic-damaged, misnamed or record-corrupt entry is
    /// re-ingested (the validation [`TraceCache::ensure_generated`]
    /// runs, which decodes every record in bounded memory) with the
    /// usual tmp-file + atomic-rename discipline.
    ///
    /// # Errors
    ///
    /// Returns a message on unreadable sources, undetectable formats,
    /// corrupt source records (strict mode) and cache I/O failures.
    pub fn ensure_ingested(&self, source: &Path, opts: &IngestOptions) -> Result<PathBuf, String> {
        let _span = ccsim_obs::metrics().cache_ensure_ns.span();
        let path = self.path_for_ingested(source, opts)?;
        self.ensure(path, opts.name.as_deref(), |tmp| {
            ingest_file(source, tmp, opts)
                .map(drop)
                .map_err(|e| format!("ingesting {}: {e}", source.display()))
        })
    }

    /// The one cache step: a sound entry at `path` (see [`entry_is_sound`])
    /// is a hit; anything else is a miss that `fill` writes into a
    /// temporary file, renamed over `path` once complete.
    fn ensure(
        &self,
        path: PathBuf,
        name: Option<&str>,
        fill: impl FnOnce(&Path) -> Result<(), String>,
    ) -> Result<PathBuf, String> {
        if entry_is_sound(&path, name) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            ccsim_obs::metrics().cache_hits.inc();
            return Ok(path);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        ccsim_obs::metrics().cache_misses.inc();
        let tmp = path.with_extension(format!("tmp.{}", temp_tag()));
        let filled = fill(&tmp).and_then(|()| {
            std::fs::rename(&tmp, &path)
                .map_err(|e| format!("caching trace to {}: {e}", path.display()))
        });
        filled.inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })?;
        Ok(path)
    }

    /// `true` if `path` holds a structurally valid `CCTR` file: good
    /// magic and header, and exactly the length the header promises.
    /// Used by campaign dry-runs to predict cache hits cheaply (the
    /// actual acquisition, [`TraceCache::ensure_generated`] or
    /// [`TraceCache::ensure_ingested`], also checks the name and scans
    /// the records).
    pub fn entry_is_valid(path: &Path) -> bool {
        valid_entry_header(path).is_some()
    }
}

/// Shared structural probe: the parsed header of `path` if its magic,
/// header and exact file length check out; `None` otherwise.
fn valid_entry_header(path: &Path) -> Option<TraceHeader> {
    let file = File::open(path).ok()?;
    let meta = file.metadata().ok()?;
    let header = read_trace_header(BufReader::new(file)).ok()?;
    (header.expected_file_len() == meta.len()).then_some(header)
}

/// `true` if `path` is an entry a cell can replay: a valid header and
/// exact length ([`valid_entry_header`]), the embedded name `name` (any
/// name when `None`), and every record decodes — a flipped byte mid-file
/// must fall through to a refill here, not abort every downstream cell
/// at replay time. One sequential pass in bounded memory.
fn entry_is_sound(path: &Path, name: Option<&str>) -> bool {
    let Some(header) = valid_entry_header(path) else {
        return false;
    };
    if name.is_some_and(|n| n != header.name) {
        return false;
    }
    let Ok(file) = File::open(path) else {
        return false;
    };
    let Ok(mut reader) = TraceReader::new(BufReader::new(file)) else {
        return false;
    };
    let mut chunk = Vec::with_capacity(SCAN_RECORDS);
    loop {
        chunk.clear();
        match reader.read_chunk(&mut chunk, SCAN_RECORDS) {
            Ok(0) => return true,
            Ok(_) => {}
            Err(_) => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_trace::{read_trace, write_trace, Trace};
    use ccsim_workloads::build_workload_seeded;

    /// A quick synthetic workload: small, and seed-sensitive.
    const W: &str = "xsbench.small";

    fn temp_cache(tag: &str) -> TraceCache {
        let dir =
            std::env::temp_dir().join(format!("ccsim_cache_test_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TraceCache::new(dir).unwrap()
    }

    /// The `CCTR` bytes of the in-memory build of `W`.
    fn built_bytes(seed: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_trace(&build_workload_seeded(W, SuiteScale::Quick, seed).unwrap(), &mut bytes)
            .unwrap();
        bytes
    }

    #[test]
    fn second_ensure_is_a_hit_and_the_entry_is_the_built_trace() {
        let cache = temp_cache("hit");
        let first = cache.ensure_generated(W, SuiteScale::Quick, 0).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        assert_eq!(first, cache.path_for(W, SuiteScale::Quick, 0));
        let modified = std::fs::metadata(&first).unwrap().modified().unwrap();
        let second = cache.ensure_generated(W, SuiteScale::Quick, 0).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(first, second);
        assert_eq!(std::fs::metadata(&second).unwrap().modified().unwrap(), modified);
        assert!(std::fs::read(&second).unwrap() == built_bytes(0), "byte-identical to a build");
        std::fs::remove_dir_all(cache.root()).unwrap();
    }

    #[test]
    fn keys_separate_scale_and_seed() {
        let cache = temp_cache("keys");
        let p1 = cache.path_for("w", SuiteScale::Quick, 0);
        assert_ne!(p1, cache.path_for("w", SuiteScale::Full, 0));
        assert_ne!(p1, cache.path_for("w", SuiteScale::Quick, 1));
        assert_ne!(p1, cache.path_for("w2", SuiteScale::Quick, 0));
        assert!(p1.file_name().unwrap().to_str().unwrap().ends_with(".cctr"));
        std::fs::remove_dir_all(cache.root()).unwrap();
    }

    #[test]
    fn unsound_entries_are_regenerated() {
        let cache = temp_cache("corrupt");
        let path = cache.ensure_generated(W, SuiteScale::Quick, 0).unwrap();
        let good = std::fs::read(&path).unwrap();
        let header = good.len() - 20 * read_trace(&good[..]).unwrap().len();
        let mut flipped = good.clone();
        flipped[header + 17] = 9; // the first record's kind byte
        let mut misnamed = Vec::new();
        let mut other = read_trace(&good[..]).unwrap();
        other.set_name("xsbench.large");
        write_trace(&other, &mut misnamed).unwrap();
        let damaged: [(&str, Vec<u8>); 4] = [
            ("garbage", b"CCTRgarbage".to_vec()),
            ("truncated", good[..good.len() - 7].to_vec()),
            ("kind byte", flipped),
            ("misnamed", misnamed),
        ];
        for (i, (what, bytes)) in damaged.into_iter().enumerate() {
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(cache.ensure_generated(W, SuiteScale::Quick, 0).unwrap(), path);
            assert_eq!(cache.misses(), 2 + i as u64, "{what}: regenerated");
            assert!(std::fs::read(&path).unwrap() == good, "{what}: repaired in place");
        }
        assert_eq!(cache.hits(), 0);
        cache.ensure_generated(W, SuiteScale::Quick, 0).unwrap();
        assert_eq!(cache.hits(), 1, "cached now");
        std::fs::remove_dir_all(cache.root()).unwrap();
    }

    #[test]
    fn generation_errors_propagate_and_leave_no_file() {
        let cache = temp_cache("err");
        let err = cache.ensure_generated("nope.nothing", SuiteScale::Quick, 0).unwrap_err();
        assert!(err.contains("unknown workload \"nope.nothing\""), "{err}");
        assert_eq!(std::fs::read_dir(cache.root()).unwrap().count(), 0, "no file, no temp");
        std::fs::remove_dir_all(cache.root()).unwrap();
    }

    #[test]
    fn two_threads_filling_one_key_both_succeed() {
        // Both generators run at once, so both write and rename their
        // temp files at about the same time; a shared temp name made one
        // rename fail.
        let cache = temp_cache("race");
        for seed in 0..4u64 {
            let results = std::thread::scope(|s| {
                let fill = || cache.ensure_generated(W, SuiteScale::Quick, seed);
                let handles = [s.spawn(fill), s.spawn(fill)];
                handles.map(|h| h.join().unwrap())
            });
            for r in results {
                let path = r.unwrap();
                assert!(std::fs::read(&path).unwrap() == built_bytes(seed), "seed {seed}");
            }
        }
        let leftovers = std::fs::read_dir(cache.root())
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().to_string_lossy().contains(".tmp."))
            .count();
        assert_eq!(leftovers, 0, "no temp file survives");
        std::fs::remove_dir_all(cache.root()).unwrap();
    }

    /// `ensure_ingested`, then the entry read back whole.
    fn ingest(cache: &TraceCache, source: &Path, opts: &IngestOptions) -> Trace {
        let path = cache.ensure_ingested(source, opts).unwrap();
        read_trace(BufReader::new(File::open(path).unwrap())).unwrap()
    }

    fn write_champsim_sample(path: &Path, records: u64) {
        use ccsim_ingest::champsim::{ChampSimRecord, ChampSimWriter};
        let mut w = ChampSimWriter::new(std::fs::File::create(path).unwrap());
        for i in 0..records {
            w.write(&ChampSimRecord::nonmem(0x400 + 4 * i)).unwrap();
            w.write(&ChampSimRecord::load(0x404 + 4 * i, 0x1000 + 64 * i)).unwrap();
        }
    }

    #[test]
    fn ingested_trace_is_converted_once_then_served_from_disk() {
        let cache = temp_cache("ingest");
        let source = cache.root().join("sample.champsim");
        write_champsim_sample(&source, 10);
        let opts = IngestOptions { name: Some("ext".into()), ..Default::default() };

        let first = ingest(&cache, &source, &opts);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        assert_eq!(first.name(), "ext");
        assert_eq!(first.len(), 10);
        assert_eq!(first.instructions(), 20);

        let second = ingest(&cache, &source, &opts);
        assert_eq!((cache.hits(), cache.misses()), (1, 1), "second read is a hit");
        assert_eq!(first, second);

        // The cache entry passes the structural validity probe.
        assert!(TraceCache::entry_is_valid(&cache.path_for_ingested(&source, &opts).unwrap()));
        std::fs::remove_dir_all(cache.root()).unwrap();
    }

    #[test]
    fn ingest_key_tracks_content_options_and_format() {
        let cache = temp_cache("ingest_keys");
        let source = cache.root().join("a.champsim");
        write_champsim_sample(&source, 4);
        let opts = IngestOptions::default();
        let p1 = cache.path_for_ingested(&source, &opts).unwrap();

        let named = IngestOptions { name: Some("other".into()), ..Default::default() };
        assert_ne!(p1, cache.path_for_ingested(&source, &named).unwrap());

        // Editing the file in place changes the digest, hence the key.
        write_champsim_sample(&source, 5);
        assert_ne!(p1, cache.path_for_ingested(&source, &opts).unwrap());
        std::fs::remove_dir_all(cache.root()).unwrap();
    }

    #[test]
    fn record_corrupt_ingest_entry_is_detected_and_reingested() {
        let cache = temp_cache("ingest_bitflip");
        let source = cache.root().join("sample.champsim");
        write_champsim_sample(&source, 8);
        let opts = IngestOptions { name: Some("ext".into()), ..Default::default() };
        let good = ingest(&cache, &source, &opts);
        let entry = cache.path_for_ingested(&source, &opts).unwrap();

        // Flip one record's access-kind byte mid-file: header and length
        // stay intact, so only the record scan can catch it — and it
        // must heal the entry rather than poison downstream streaming
        // cells.
        let mut bytes = std::fs::read(&entry).unwrap();
        let kind_off = bytes.len() - 3 * 20 + 17; // third-from-last record
        bytes[kind_off] = 9;
        std::fs::write(&entry, &bytes).unwrap();
        assert!(TraceCache::entry_is_valid(&entry), "header probe alone cannot see this");

        let path = cache.ensure_ingested(&source, &opts).unwrap();
        assert_eq!(cache.misses(), 2, "record corruption fell through to re-ingest");
        let healed = read_trace(BufReader::new(File::open(path).unwrap())).unwrap();
        assert_eq!(healed, good, "entry repaired in place");
        std::fs::remove_dir_all(cache.root()).unwrap();
    }

    #[test]
    fn truncated_ingest_entry_is_detected_and_reingested() {
        let cache = temp_cache("ingest_trunc");
        let source = cache.root().join("sample.champsim");
        write_champsim_sample(&source, 8);
        let opts = IngestOptions { name: Some("ext".into()), ..Default::default() };
        let good = ingest(&cache, &source, &opts);
        let entry = cache.path_for_ingested(&source, &opts).unwrap();

        // Truncate the cached CCTR mid-records: the magic/length check
        // must reject it and the next read must regenerate, not poison
        // downstream cells.
        let bytes = std::fs::read(&entry).unwrap();
        std::fs::write(&entry, &bytes[..bytes.len() - 7]).unwrap();
        assert!(!TraceCache::entry_is_valid(&entry));
        let recovered = ingest(&cache, &source, &opts);
        assert_eq!(recovered, good);
        assert_eq!(cache.misses(), 2, "truncated entry fell through to re-ingest");
        assert!(TraceCache::entry_is_valid(&entry), "entry was repaired in place");
        std::fs::remove_dir_all(cache.root()).unwrap();
    }
}
