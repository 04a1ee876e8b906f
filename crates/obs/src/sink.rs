//! Run-scoped sinks: the per-run JSONL event log and the end-of-run
//! manifest (stamped with [`OBS_SCHEMA_VERSION`]).
//!
//! A [`RunObs`] captures a catalog [`Snapshot`] when the run begins and
//! manifests the **delta**, so process-wide totals stay correctly
//! scoped even when several runs share one process. Event writes are
//! best-effort (telemetry must never fail a run) and line-buffered;
//! manifests go through a temp file and an atomic rename so `campaign
//! watch` can poll them while a worker is mid-run.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::json::Json;
use crate::metrics::HISTOGRAM_BUCKETS;
use crate::snapshot::{HistogramSnapshot, Snapshot};
use crate::OBS_SCHEMA_VERSION;

/// Why a JSON value was refused as an obs document of some kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DocumentError {
    /// `ccsim_obs` is absent (`None`: not an obs document at all) or
    /// names a schema other than [`OBS_SCHEMA_VERSION`].
    Version(Option<u64>),
    /// An obs document of another `kind` (the expected one is carried).
    Kind(&'static str),
    /// A field the schema requires is missing or has the wrong type.
    Field(String),
}

impl fmt::Display for DocumentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DocumentError::Version(None) => f.write_str("not a `ccsim_obs` document"),
            DocumentError::Version(Some(v)) => {
                write!(f, "unsupported ccsim_obs schema {v} (supported: {OBS_SCHEMA_VERSION})")
            }
            DocumentError::Kind(kind) => write!(f, "not a {kind} document (kind != \"{kind}\")"),
            DocumentError::Field(name) => write!(f, "missing or ill-typed `{name}`"),
        }
    }
}

impl std::error::Error for DocumentError {}

/// The two fields every obs document (event-log header, manifest,
/// `campaign watch --json`) starts with.
pub fn document_header(kind: &'static str) -> Vec<(&'static str, Json)> {
    vec![("ccsim_obs", Json::int(OBS_SCHEMA_VERSION)), ("kind", Json::str(kind))]
}

/// Checks that `doc` is an obs document of the current schema and the
/// given `kind` — the one place the header is read back.
pub fn check_document(doc: &Json, kind: &'static str) -> Result<(), DocumentError> {
    let version = doc.get("ccsim_obs").and_then(Json::as_u64);
    if version != Some(OBS_SCHEMA_VERSION) {
        Err(DocumentError::Version(version))
    } else if doc.get("kind").and_then(Json::as_str) != Some(kind) {
        Err(DocumentError::Kind(kind))
    } else {
        Ok(())
    }
}

/// The integer field `name` of `doc` (a non-object has no fields).
fn uint(doc: Option<&Json>, name: &str) -> Result<u64, DocumentError> {
    let v = doc.and_then(|d| d.get(name)).and_then(Json::as_u64);
    v.ok_or_else(|| DocumentError::Field(name.to_owned()))
}

fn text(doc: &Json, name: &str) -> Result<String, DocumentError> {
    let v = doc.get(name).and_then(Json::as_str).map(str::to_owned);
    v.ok_or_else(|| DocumentError::Field(name.to_owned()))
}

/// Identity of one run, stamped into the event-log header and the
/// manifest.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunMeta {
    /// Campaign name from the spec.
    pub campaign: String,
    /// Campaign spec digest (grid identity).
    pub spec_digest: String,
    /// Worker id, or `"(solo)"` for single-process runs.
    pub worker: String,
}

impl RunMeta {
    fn to_json_fields(&self) -> [(&'static str, Json); 3] {
        [("campaign", &self.campaign), ("spec", &self.spec_digest), ("worker", &self.worker)]
            .map(|(name, v)| (name, Json::str(v)))
    }
}

/// A run manifest: who ran, how much simulation work the run did, and
/// the catalog delta it accrued. [`RunObs::write_manifest`] renders one;
/// [`Manifest::from_json`] is the one reader (`campaign watch` goes
/// through it). Integers above 2^53 render clamped — the top histogram
/// bucket's bound is `u64::MAX`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Manifest {
    /// The run's identity.
    pub meta: RunMeta,
    /// Cells simulated this run (journal-resumed cells do not count).
    pub cells_done: u64,
    /// Workload bands completed this run.
    pub bands_done: u64,
    /// Engine-records advanced (trace records × cells per band).
    pub records_simulated: u64,
    /// Simulation wall-clock spent, in nanoseconds.
    pub sim_wall_ns: u64,
    /// The metric catalog's change over the run.
    pub metrics: Snapshot,
}

impl Manifest {
    /// The run totals as document fields (also a `campaign watch
    /// --json` worker row's).
    pub fn totals(&self) -> [(&'static str, Json); 4] {
        [
            ("cells_done", self.cells_done),
            ("bands_done", self.bands_done),
            ("records_simulated", self.records_simulated),
            ("sim_wall_ns", self.sim_wall_ns),
        ]
        .map(|(name, v)| (name, Json::int_saturating(v)))
    }

    /// The manifest document.
    pub fn to_json(&self) -> Json {
        let scalars = |pairs: &[(&'static str, u64)]| {
            Json::obj(pairs.iter().map(|&(name, v)| (name, Json::int_saturating(v))).collect())
        };
        let histograms =
            self.metrics.histograms.iter().map(|(name, h)| (*name, histogram_to_json(h)));
        let mut doc = document_header("manifest");
        doc.extend(self.meta.to_json_fields());
        doc.extend(self.totals());
        doc.extend([
            ("counters", scalars(&self.metrics.counters)),
            ("gauges", scalars(&self.metrics.gauges)),
            ("histograms", Json::obj(histograms.collect())),
        ]);
        Json::obj(doc)
    }

    /// Reads a manifest document back (each histogram's `quantiles`
    /// block is a function of its buckets and is re-derived, not read).
    ///
    /// # Errors
    ///
    /// A header naming another schema or kind, or the first field
    /// [`Manifest::to_json`] writes that is missing or ill-typed.
    pub fn from_json(doc: &Json) -> Result<Manifest, DocumentError> {
        check_document(doc, "manifest")?;
        // A snapshot of the live catalog, for its names and their order;
        // every value is overwritten from the document.
        let mut metrics = Snapshot::take();
        for (name, v) in &mut metrics.counters {
            *v = uint(doc.get("counters"), name)?;
        }
        for (name, v) in &mut metrics.gauges {
            *v = uint(doc.get("gauges"), name)?;
        }
        for (name, h) in &mut metrics.histograms {
            let hist = doc.get("histograms").and_then(|hs| hs.get(name));
            *h = histogram_from_json(hist)
                .map_err(|field| DocumentError::Field(format!("{name}.{field}")))?;
        }
        Ok(Manifest {
            meta: RunMeta {
                campaign: text(doc, "campaign")?,
                spec_digest: text(doc, "spec")?,
                worker: text(doc, "worker")?,
            },
            cells_done: uint(Some(doc), "cells_done")?,
            bands_done: uint(Some(doc), "bands_done")?,
            records_simulated: uint(Some(doc), "records_simulated")?,
            sim_wall_ns: uint(Some(doc), "sim_wall_ns")?,
            metrics,
        })
    }
}

/// `count`, `sum`, the bucket-derived quantile summary (without its
/// own `count`: the histogram's sits beside it), and the non-empty
/// buckets as sparse `[index, count]` pairs.
fn histogram_to_json(h: &HistogramSnapshot) -> Json {
    let mut quantiles = h.quantiles().fields();
    quantiles.pop();
    let buckets = h.buckets.iter().enumerate().filter(|&(_, &c)| c > 0);
    let pair =
        |(i, &c): (usize, &u64)| Json::Arr(vec![Json::int(i as u64), Json::int_saturating(c)]);
    Json::obj(vec![
        ("count", Json::int_saturating(h.count)),
        ("sum", Json::int_saturating(h.sum)),
        ("quantiles", Json::obj(quantiles)),
        ("buckets", Json::Arr(buckets.map(pair).collect())),
    ])
}

/// Reads [`histogram_to_json`] back; the error is the offending field.
fn histogram_from_json(doc: Option<&Json>) -> Result<HistogramSnapshot, &'static str> {
    let count = uint(doc, "count").map_err(|_| "count")?;
    let sum = uint(doc, "sum").map_err(|_| "sum")?;
    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
    let pairs = doc.and_then(|d| d.get("buckets")).and_then(Json::as_array).ok_or("buckets")?;
    for pair in pairs {
        let (i, c) = match pair.as_array() {
            Some([i, c]) => (i.as_u64(), c.as_u64()),
            _ => (None, None),
        };
        let slot = i.and_then(|i| buckets.get_mut(usize::try_from(i).ok()?));
        *slot.ok_or("buckets")? = c.ok_or("buckets")?;
    }
    Ok(HistogramSnapshot { count, sum, buckets })
}

/// A live run: event log plus manifest accounting.
pub struct RunObs {
    dir: PathBuf,
    manifest_file: String,
    events: BufWriter<File>,
    started: Instant,
    baseline: Snapshot,
    /// Identity and totals so far; `metrics` is refilled per manifest.
    run: Manifest,
}

impl RunObs {
    /// Starts a run: creates `dir` if needed, truncates and headers the
    /// event log, and snapshots the catalog as the manifest baseline.
    pub fn begin(
        dir: &Path,
        meta: RunMeta,
        event_file: &str,
        manifest_file: &str,
    ) -> io::Result<RunObs> {
        fs::create_dir_all(dir)?;
        let mut events = BufWriter::new(File::create(dir.join(event_file))?);
        let mut header = document_header("events");
        header.extend(meta.to_json_fields());
        writeln!(events, "{}", Json::obj(header))?;
        events.flush()?;
        Ok(RunObs {
            dir: dir.to_path_buf(),
            manifest_file: manifest_file.to_owned(),
            events,
            started: Instant::now(),
            run: Manifest { meta, ..Manifest::default() },
            baseline: Snapshot::take(),
        })
    }

    /// Appends one event line (`ev`, nanoseconds since run start, then
    /// `fields` in order). Best-effort: write failures are swallowed —
    /// telemetry never fails the run it observes.
    pub fn event(&mut self, ev: &str, fields: Vec<(&str, Json)>) {
        let t_ns = self.started.elapsed().as_nanos() as u64;
        let mut line = vec![("ev", Json::str(ev)), ("t_ns", Json::int_saturating(t_ns))];
        line.extend(fields);
        let _ = writeln!(self.events, "{}", Json::obj(line));
        let _ = self.events.flush();
    }

    /// Accounts one finished band: `cells` simulated cells advancing
    /// `records_simulated` engine-records over `sim_wall_ns` of
    /// simulation wall-clock.
    pub fn add_band(&mut self, cells: u64, records_simulated: u64, sim_wall_ns: u64) {
        self.run.bands_done += 1;
        self.run.cells_done += cells;
        self.run.records_simulated += records_simulated;
        self.run.sim_wall_ns += sim_wall_ns;
    }

    /// The manifest of the run so far.
    pub fn manifest(&self) -> Manifest {
        Manifest { metrics: Snapshot::take().delta(&self.baseline), ..self.run.clone() }
    }

    /// Writes the manifest (one compact line) atomically — temp file +
    /// rename — so watchers polling the directory never observe a torn
    /// document.
    pub fn write_manifest(&self) -> io::Result<()> {
        let tmp = self.dir.join(format!("{}.tmp", self.manifest_file));
        fs::write(&tmp, format!("{}\n", self.manifest().to_json()))?;
        fs::rename(&tmp, self.dir.join(&self.manifest_file))
    }

    /// Ends the run: logs `run_end` and writes the final manifest.
    pub fn finish(mut self) -> io::Result<()> {
        self.event("run_end", self.run.totals().into());
        self.events.flush()?;
        self.write_manifest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::metrics;
    use crate::snapshot::QuantileSummary;
    use crate::test_support::enabled_lock;

    fn begin(tag: &str) -> (PathBuf, RunObs) {
        let dir = std::env::temp_dir().join(format!("ccsim_obs_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let meta =
            RunMeta { campaign: "demo".into(), spec_digest: "abc123".into(), worker: "w".into() };
        let obs = RunObs::begin(&dir, meta, "run.obs.jsonl", "manifest.json").unwrap();
        (dir, obs)
    }

    #[test]
    fn run_obs_writes_header_events_and_a_manifest_that_reads_back() {
        let _guard = enabled_lock();
        let (dir, mut obs) = begin("sink");
        obs.event("band_start", vec![("workload", Json::str("w")), ("cells", Json::int(2))]);
        metrics().cache_hits.add(3);
        metrics().dist_held_leases.set(2);
        for ns in [0, 5, 900, 1_000_000] {
            metrics().campaign_cell_sim_ns.record(ns);
        }
        obs.add_band(2, 1000, 5_000);

        // Every counter, gauge, bucket and (derived) quantile survives
        // the document, and the quantile block foreign readers consume
        // is the one the buckets imply.
        let written = obs.manifest();
        metrics().dist_held_leases.set(0);
        assert!(written.metrics.counter("cache_hits") >= 3);
        assert!(written.metrics.histogram("campaign_cell_sim_ns").unwrap().buckets[10] >= 1);
        let doc = Json::parse(&written.to_json().to_string()).unwrap();
        let read = Manifest::from_json(&doc).unwrap();
        assert_eq!(read, written);
        // A counter the catalog no longer has (the journal merge's reuse
        // count, deleted within schema 2) is ignored, not an error. Its
        // name is spelled in two halves so that CI's stays-gone guard
        // matches only live uses.
        let Json::Obj(mut pairs) = written.to_json() else { unreachable!() };
        let Some((_, Json::Obj(counters))) = pairs.iter_mut().find(|(k, _)| k == "counters") else {
            unreachable!()
        };
        counters.push((concat!("journal_segments_", "reused").to_owned(), Json::int(4)));
        assert_eq!(Manifest::from_json(&Json::Obj(pairs)).unwrap(), written);
        for (name, h) in &read.metrics.histograms {
            let block = doc.get("histograms").unwrap().get(name).unwrap().get("quantiles").unwrap();
            let implied = QuantileSummary { count: 0, ..h.quantiles() };
            assert_eq!(QuantileSummary::from_json(block), Some(implied), "{name}");
        }

        obs.finish().unwrap();
        let log = fs::read_to_string(dir.join("run.obs.jsonl")).unwrap();
        let lines: Vec<Json> = log.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 3, "header + 2 events: {log}");
        assert_eq!(check_document(&lines[0], "events"), Ok(()));
        assert_eq!(lines[0].get("worker").and_then(Json::as_str), Some("w"));
        assert_eq!(lines[1].get("ev").and_then(Json::as_str), Some("band_start"));
        assert_eq!(lines[1].get("cells").and_then(Json::as_u64), Some(2));
        assert_eq!(lines[2].get("ev").and_then(Json::as_str), Some("run_end"));
        assert_eq!(lines[2].get("records_simulated").and_then(Json::as_u64), Some(1000));

        let text = fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert!(text.ends_with("}\n") && text.lines().count() == 1, "one line: {text}");
        let on_disk = Manifest::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(on_disk.totals(), written.totals());
        assert_eq!(on_disk.meta, written.meta);
        assert!(!dir.join("manifest.json.tmp").exists(), "temp file renamed away");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn other_versions_kinds_and_missing_fields_are_typed_errors() {
        let (dir, obs) = begin("errors");
        let with = |key: &str, value: Option<Json>| {
            let Json::Obj(mut pairs) = obs.manifest().to_json() else { unreachable!() };
            pairs.retain(|(k, _)| k != key);
            pairs.extend(value.map(|v| (key.to_owned(), v)));
            Manifest::from_json(&Json::Obj(pairs)).unwrap_err()
        };
        assert_eq!(with("ccsim_obs", None), DocumentError::Version(None));
        for other in [OBS_SCHEMA_VERSION - 1, OBS_SCHEMA_VERSION + 1] {
            let err = with("ccsim_obs", Some(Json::int(other)));
            assert_eq!(err, DocumentError::Version(Some(other)));
            assert!(err.to_string().contains("unsupported ccsim_obs schema"));
        }
        assert_eq!(with("kind", Some(Json::str("watch"))), DocumentError::Kind("manifest"));
        assert_eq!(with("worker", None), DocumentError::Field("worker".into()));
        assert_eq!(
            with("cells_done", Some(Json::num(1.5))),
            DocumentError::Field("cells_done".into())
        );
        assert_eq!(with("counters", None), DocumentError::Field("ingest_runs".into()));
        let torn = Json::obj(vec![("ingest_wall_ns", Json::obj(vec![("count", Json::int(1))]))]);
        assert_eq!(
            with("histograms", Some(torn)),
            DocumentError::Field("ingest_wall_ns.sum".into())
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn integers_beyond_two_to_the_53_render_clamped() {
        // A sample in the top bucket: its bound, and so `max`, is u64::MAX.
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        buckets[64] = 1;
        let doc = histogram_to_json(&HistogramSnapshot { count: 1, sum: u64::MAX, buckets });
        assert_eq!(
            doc.to_string(),
            "{\"count\":1,\"sum\":9007199254740992,\"quantiles\":{\"p50\":9007199254740992,\
             \"p90\":9007199254740992,\"p99\":9007199254740992,\"min\":9007199254740992,\
             \"max\":9007199254740992},\"buckets\":[[64,1]]}"
        );
        let read = histogram_from_json(Some(&doc)).unwrap();
        assert_eq!((read.count, read.sum, read.buckets), (1, Json::MAX_INT, buckets));
    }
}
