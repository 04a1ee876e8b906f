//! The campaign engine: grid expansion, cached trace acquisition,
//! one-pass band execution and journaled checkpointing.
//!
//! There is one execution path: a workload's pending cells form a band,
//! [`AcquiredTrace::simulate_cells`] shards the band over the worker
//! threads, and each shard is one lockstep pass of
//! [`ccsim_core::GridReplay`] over the trace.
//! [`Campaign::run_band`] is the one band step — acquire,
//! simulate, account, journal — that [`Campaign::run`] and the
//! distributed worker (`ccsim-dist`) both loop over.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};

use ccsim_core::experiment::run_jobs;
use ccsim_core::{simulate_grid_stream, SimConfig, SimResult};
use ccsim_ingest::{detect_file, ingest_file, IngestOptions, SourceFormat};
use ccsim_obs::Table;
use ccsim_policies::PolicyKind;
use ccsim_trace::{read_trace_header, TraceReader};
use ccsim_workloads::{write_workload, SuiteScale};

use crate::cache::TraceCache;
use crate::journal::Journal;
use crate::json::Json;
use crate::report::{CampaignReport, RawCell};
use crate::spec::CampaignSpec;

/// The ingest options every `trace:` selector resolves with: strict
/// decoding, auto-detected format, the full selector as the workload
/// name (so cells, journals and reports all key consistently).
fn ingest_options_for(selector: &str) -> IngestOptions {
    IngestOptions { format: None, lossy: false, name: Some(selector.to_owned()) }
}

/// The acquired trace of one workload, ready to simulate cells against.
///
/// Every trace stays **on disk**: each shard of cells streams a `CCTR`
/// file through [`simulate_grid_stream`], so no trace is ever resident,
/// however long it is and however many (policy × config) cells replay
/// it. The file is a trace-cache entry when a cache is attached
/// (generated, or converted from a `trace:` source, on first use); an
/// external `CCTR` source itself when no cache is attached; else a
/// one-shot temporary file the generator or the conversion streamed
/// into.
///
/// This is the workload-band granularity the campaign runner and the
/// distributed worker (`ccsim-dist`) build on: acquire a workload once
/// via [`Campaign::acquire`], then run all its pending (config × policy)
/// cells in one pass with [`AcquiredTrace::simulate_cells`] — each cell
/// is still journaled individually, so kill/resume and lease semantics
/// are per cell.
///
/// The fields stay private: one-shot files are deleted when the handle
/// drops, a contract callers must not be able to point at arbitrary
/// paths.
#[derive(Debug)]
pub struct AcquiredTrace {
    path: PathBuf,
    /// The workload results carry, whatever name the file embeds.
    selector: String,
    records: u64,
    /// A one-shot file (no cache attached), deleted on drop.
    temp: bool,
}

impl AcquiredTrace {
    /// Memory-access records per replay (for progress lines).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Runs a whole band of grid cells over this trace in one pass per
    /// shard: the cells are split into `min(threads, cells)` shards, and
    /// each shard replays the trace **once**, advancing all its cells in
    /// lockstep ([`ccsim_core::GridReplay`]) — a streamed multi-gigabyte
    /// trace is read and decoded `threads` times instead of once per
    /// cell. Cells are ordered by descending LLC capacity (the dominant
    /// cost proxy — a scaled-up LLC means proportionally more tag state
    /// and victim work) and dealt round-robin across shards, so one
    /// shard never inherits all the giant-LLC cells of a heterogeneous
    /// band. Results come back in `cells` order; each cell's engine is
    /// independent, so neither shard assignment nor chunk length ever
    /// affects them.
    ///
    /// `chunk_records` is the lockstep chunk length per shard; `0`
    /// means [`ccsim_core::DEFAULT_CHUNK_RECORDS`].
    ///
    /// # Errors
    ///
    /// Returns a message on I/O or decode failures of streamed traces
    /// (the whole band fails; nothing partial is returned).
    pub fn simulate_cells(
        &self,
        cells: &[(SimConfig, PolicyKind)],
        threads: usize,
        chunk_records: usize,
    ) -> Result<Vec<SimResult>, String> {
        if cells.is_empty() {
            return Ok(Vec::new());
        }
        let shards = threads.clamp(1, cells.len());
        let mut order: Vec<usize> = (0..cells.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(cells[i].0.llc.capacity_bytes()));
        let assignment: Vec<Vec<usize>> =
            (0..shards).map(|s| order[s..].iter().step_by(shards).copied().collect()).collect();
        let shard_results = run_jobs(shards, shards, |s| -> Result<Vec<SimResult>, String> {
            let shard: Vec<(SimConfig, PolicyKind)> =
                assignment[s].iter().map(|&i| cells[i]).collect();
            let path = &self.path;
            let file =
                File::open(path).map_err(|e| format!("opening trace {}: {e}", path.display()))?;
            let reader = TraceReader::new(BufReader::new(file))
                .map_err(|e| format!("decoding trace {}: {e}", path.display()))?;
            let mut results = simulate_grid_stream(reader, &shard, chunk_records)
                .map_err(|e| format!("streaming trace {}: {e}", path.display()))?;
            results.iter_mut().for_each(|r| r.workload.clone_from(&self.selector));
            Ok(results)
        });
        // Scatter shard results back into `cells` order.
        let mut results: Vec<Option<SimResult>> = (0..cells.len()).map(|_| None).collect();
        for (indices, shard) in assignment.iter().zip(shard_results) {
            for (&cell, result) in indices.iter().zip(shard?) {
                results[cell] = Some(result);
            }
        }
        Ok(results.into_iter().map(|r| r.expect("every cell lands in exactly one shard")).collect())
    }
}

impl Drop for AcquiredTrace {
    fn drop(&mut self) {
        if self.temp {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Probes the header of a `CCTR` file for its record count.
fn cctr_record_count(path: &Path) -> Result<u64, String> {
    let file = File::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    read_trace_header(BufReader::new(file))
        .map(|h| h.count)
        .map_err(|e| format!("reading header of {}: {e}", path.display()))
}

/// Acquires the trace file of one workload selector, to stream per
/// shard: from the trace cache when one is attached (external `trace:`
/// sources converted, synthetic workloads generated, on first use); else
/// an external `CCTR` source in place; else a one-shot temporary file
/// that the conversion or the generator streams into.
fn acquire_trace(
    cache: Option<&TraceCache>,
    workload: &str,
    scale: SuiteScale,
    seed: u64,
) -> Result<AcquiredTrace, String> {
    let (path, temp) = match (workload.strip_prefix("trace:").map(Path::new), cache) {
        (Some(source), Some(cache)) => {
            (cache.ensure_ingested(source, &ingest_options_for(workload))?, false)
        }
        // Nothing to convert and nowhere to keep a copy.
        (Some(source), None) if matches!(detect_file(source), Ok(SourceFormat::Cctr)) => {
            (source.to_owned(), false)
        }
        (Some(source), None) => (
            one_shot(workload, |tmp| {
                ingest_file(source, tmp, &ingest_options_for(workload))
                    .map(drop)
                    .map_err(|e| format!("ingesting {}: {e}", source.display()))
            })?,
            true,
        ),
        (None, Some(cache)) => (cache.ensure_generated(workload, scale, seed)?, false),
        (None, None) => {
            (one_shot(workload, |tmp| write_workload(workload, scale, seed, tmp).map(drop))?, true)
        }
    };
    let mut acquired = AcquiredTrace { path, selector: workload.to_owned(), records: 0, temp };
    // On failure the handle drops, taking a one-shot file with it.
    acquired.records = cctr_record_count(&acquired.path)?;
    Ok(acquired)
}

/// Fills a one-shot temporary `CCTR` file for `workload` with `fill` and
/// returns its path; a failed fill leaves no file behind. The temp tag
/// keeps the name unique even across concurrent campaigns in one process
/// acquiring the same selector.
fn one_shot(
    workload: &str,
    fill: impl FnOnce(&Path) -> Result<(), String>,
) -> Result<PathBuf, String> {
    let tmp = std::env::temp_dir().join(format!(
        "ccsim-stream-{}-{:016x}.cctr",
        crate::cache::temp_tag(),
        crate::spec::fnv1a64(workload.as_bytes()),
    ));
    fill(&tmp).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })?;
    Ok(tmp)
}

/// A configured, runnable campaign.
///
/// Traces are acquired per workload as files (via the [`TraceCache`]
/// when one is attached, into a one-shot temporary file otherwise) and
/// streamed, so no trace is ever resident: a campaign's heap does not
/// grow with trace length. Within a workload, all pending
/// (policy x config) cells advance in lockstep through one pass over the
/// trace file per thread shard ([`AcquiredTrace::simulate_cells`]), so
/// reports are byte-identical for any thread count.
///
/// # Examples
///
/// ```no_run
/// use ccsim_campaign::{Campaign, CampaignSpec};
///
/// let spec = CampaignSpec::from_json_str(
///     r#"{"name": "demo", "workloads": ["xsbench.small"],
///         "policies": ["lru", "srrip"], "base_config": "tiny"}"#,
/// ).unwrap();
/// let outcome = Campaign::new(spec).threads(4).run().unwrap();
/// println!("{}", outcome.report.cells_table().render());
/// ```
#[derive(Debug)]
pub struct Campaign {
    spec: CampaignSpec,
    threads: usize,
    cache: Option<TraceCache>,
    journal_path: Option<PathBuf>,
    obs_dir: Option<PathBuf>,
    verbose: bool,
}

/// The predicted fate of one grid cell, as reported by
/// [`Campaign::plan`] (the engine behind `ccsim campaign --dry-run`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// Already completed in the journal — a run replays it for free.
    Journaled,
    /// Pending, and its workload's trace is a valid cache entry — a run
    /// simulates it without generating or ingesting anything.
    CachedTrace,
    /// Pending, and its workload's trace must first be generated (or
    /// ingested, for `trace:` selectors).
    NeedsTrace,
    /// A `trace:` selector whose source file does not exist — the run
    /// would fail at this workload.
    MissingSource,
}

impl CellStatus {
    /// Stable display label.
    pub fn name(self) -> &'static str {
        match self {
            CellStatus::Journaled => "journaled",
            CellStatus::CachedTrace => "cached-trace",
            CellStatus::NeedsTrace => "needs-trace",
            CellStatus::MissingSource => "missing-source!",
        }
    }
}

/// One grid cell of a [`CampaignPlan`].
#[derive(Debug, Clone)]
pub struct PlanCell {
    /// Canonical workload selector.
    pub workload: String,
    /// Config-variant label (`llc_x<scale>`).
    pub config: String,
    /// Policy name.
    pub policy: String,
    /// What a run would do with this cell.
    pub status: CellStatus,
}

/// The resolved grid of a campaign, with per-cell predictions — what
/// `--dry-run` prints so a big spec can be inspected before committing
/// hours of simulation. Computing a plan simulates nothing and writes
/// nothing (journals are peeked read-only; caches are only probed).
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    /// Every grid cell in spec order (workload-major, config-middle,
    /// policy-minor).
    pub cells: Vec<PlanCell>,
}

impl CampaignPlan {
    /// Cell count with each [`CellStatus`], in enum order:
    /// `(journaled, cached_trace, needs_trace, missing_source)`.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let of = |s: CellStatus| self.cells.iter().filter(|c| c.status == s).count();
        (
            of(CellStatus::Journaled),
            of(CellStatus::CachedTrace),
            of(CellStatus::NeedsTrace),
            of(CellStatus::MissingSource),
        )
    }

    /// The plan as a printable table, one row per cell.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            ["workload", "config", "policy", "status"].iter().map(|s| (*s).to_owned()).collect(),
        );
        for c in &self.cells {
            let status = c.status.name().to_owned();
            t.row(vec![c.workload.clone(), c.config.clone(), c.policy.clone(), status]);
        }
        t
    }
}

/// One cell of a resolved campaign grid, in spec order — the unit of
/// work a distributed worker claims, simulates and journals.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Canonical workload selector.
    pub workload: String,
    /// Index into [`CampaignGrid::configs`].
    pub config_index: usize,
    /// LLC capacity multiplier of the config variant.
    pub llc_scale: u32,
    /// Policy of this cell.
    pub policy: PolicyKind,
    /// Journal/lease identity: `<workload>|<config>|<policy>`.
    pub id: String,
}

/// The fully resolved grid of a campaign: expanded workloads, config
/// variants and every cell in spec order (workload-major, config-middle,
/// policy-minor) — the order reports render in.
#[derive(Debug, Clone)]
pub struct CampaignGrid {
    /// Expanded workload selectors, in declaration order.
    pub workloads: Vec<String>,
    /// `(label, config)` variants, one per LLC scale.
    pub configs: Vec<(String, SimConfig)>,
    /// Every grid cell, in spec order.
    pub cells: Vec<GridCell>,
}

impl CampaignGrid {
    /// The cells of `workload`, in grid order.
    pub fn cells_of<'a>(&'a self, workload: &'a str) -> impl Iterator<Item = &'a GridCell> + 'a {
        self.cells.iter().filter(move |c| c.workload == workload)
    }

    /// The stderr progress prefix of `workload`'s band: `[i/n] <workload>`.
    fn progress_label(&self, workload: &str) -> String {
        let at = self.workloads.iter().position(|w| w == workload).map_or(0, |i| i + 1);
        format!("[{at}/{}] {workload:<16}", self.workloads.len())
    }
}

/// What a campaign run produced, beyond the report itself.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The deterministic report.
    pub report: CampaignReport,
    /// Total grid cells.
    pub cells_total: usize,
    /// Cells replayed from the journal instead of simulated.
    pub cells_resumed: usize,
    /// Trace-cache reads served from disk (0 without a cache).
    pub cache_hits: u64,
    /// Trace-cache misses that triggered generation (0 without a cache).
    pub cache_misses: u64,
}

impl Campaign {
    /// Wraps a spec with default execution settings: one worker thread,
    /// no trace cache, no journal, quiet.
    pub fn new(spec: CampaignSpec) -> Campaign {
        Campaign {
            spec,
            threads: 1,
            cache: None,
            journal_path: None,
            obs_dir: None,
            verbose: false,
        }
    }

    /// The spec this campaign will run.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// Sets the worker-thread count (clamped to at least 1).
    pub fn threads(mut self, threads: usize) -> Campaign {
        self.threads = threads.max(1);
        self
    }

    /// Attaches an on-disk trace cache.
    pub fn cache(mut self, cache: TraceCache) -> Campaign {
        self.cache = Some(cache);
        self
    }

    /// Attaches a checkpoint journal at `path`; an existing journal for
    /// the same spec is resumed.
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Campaign {
        self.journal_path = Some(path.into());
        self
    }

    /// Writes run telemetry into `dir`: a `run.obs.jsonl` event log and
    /// an end-of-run `manifest.json` (schema
    /// [`ccsim_obs::OBS_SCHEMA_VERSION`]), the same documents
    /// distributed workers publish per worker into the shared dir.
    pub fn obs_dir(mut self, dir: impl Into<PathBuf>) -> Campaign {
        self.obs_dir = Some(dir.into());
        self
    }

    /// Enables per-workload progress lines on stderr.
    pub fn verbose(mut self, verbose: bool) -> Campaign {
        self.verbose = verbose;
        self
    }

    /// Predicts what [`Campaign::run`] would do, cell by cell, without
    /// simulating, generating or writing anything: which cells the
    /// journal already holds, which workload traces are valid cache
    /// entries, and which `trace:` sources are missing outright.
    ///
    /// # Errors
    ///
    /// Returns a message on invalid workload selectors, and on a journal
    /// [`Journal::open`] would refuse (see [`Journal::peek_completed`]).
    pub fn plan(&self) -> Result<CampaignPlan, String> {
        let grid = self.grid()?;
        let journaled = match &self.journal_path {
            Some(path) => Journal::peek_completed(path, &self.spec.name, &self.spec.digest())
                .map_err(|e| e.to_string())?,
            None => Default::default(),
        };
        let mut cells = Vec::new();
        for band in grid.cells.chunk_by(|a, b| a.workload == b.workload) {
            let workload_status = self.plan_workload_status(&band[0].workload);
            for cell in band {
                let status = if journaled.contains_key(&cell.id) {
                    CellStatus::Journaled
                } else {
                    workload_status
                };
                cells.push(PlanCell {
                    workload: cell.workload.clone(),
                    config: grid.configs[cell.config_index].0.clone(),
                    policy: cell.policy.name().to_owned(),
                    status,
                });
            }
        }
        Ok(CampaignPlan { cells })
    }

    /// The non-journaled status every cell of `workload` shares: is its
    /// trace a valid cache entry, absent, or (for `trace:` selectors) is
    /// the source file itself missing?
    fn plan_workload_status(&self, workload: &str) -> CellStatus {
        if let Some(path) = workload.strip_prefix("trace:") {
            if !Path::new(path).exists() {
                return CellStatus::MissingSource;
            }
            let cached = self.cache.as_ref().is_some_and(|cache| {
                cache
                    .path_for_ingested(Path::new(path), &ingest_options_for(workload))
                    .is_ok_and(|entry| TraceCache::entry_is_valid(&entry))
            });
            return if cached { CellStatus::CachedTrace } else { CellStatus::NeedsTrace };
        }
        let cached = self.cache.as_ref().is_some_and(|cache| {
            TraceCache::entry_is_valid(&cache.path_for(workload, self.spec.scale, self.spec.seed))
        });
        if cached {
            CellStatus::CachedTrace
        } else {
            CellStatus::NeedsTrace
        }
    }

    /// Resolves the full grid: expanded workloads, config variants, and
    /// every cell (with its journal/lease id) in spec order.
    ///
    /// # Errors
    ///
    /// Returns a message on invalid workload selectors.
    pub fn grid(&self) -> Result<CampaignGrid, String> {
        let workloads = self.spec.expand_workloads()?;
        let configs = self.spec.configs();
        let cells = workloads
            .iter()
            .flat_map(|workload| {
                configs.iter().enumerate().flat_map(move |(ci, (label, _))| {
                    self.spec.policies.iter().map(move |&policy| GridCell {
                        workload: workload.clone(),
                        config_index: ci,
                        llc_scale: self.spec.llc_scales[ci],
                        policy,
                        id: format!("{workload}|{label}|{}", policy.name()),
                    })
                })
            })
            .collect();
        Ok(CampaignGrid { workloads, configs, cells })
    }

    /// Acquires the trace of one workload — the cache-aware entry point
    /// behind [`Campaign::run`], exposed so distributed workers can
    /// simulate a claimed band of a workload's cells in one pass
    /// ([`AcquiredTrace::simulate_cells`]) without running the whole
    /// grid.
    ///
    /// # Errors
    ///
    /// Returns a message on invalid selectors, generation/ingest failures
    /// and cache I/O errors.
    pub fn acquire(&self, workload: &str) -> Result<AcquiredTrace, String> {
        acquire_trace(self.cache.as_ref(), workload, self.spec.scale, self.spec.seed)
    }

    /// Assembles the deterministic report from a complete cell-result
    /// map (cell id → result), in spec order — the same construction
    /// [`Campaign::run`] uses, so any source of results (one process, a
    /// resumed journal, or merged distributed journal segments) yields
    /// byte-identical reports.
    ///
    /// # Errors
    ///
    /// Returns a message naming missing cells — a partial map means the
    /// campaign has not finished and no report must be written.
    pub fn report_from_completed(
        &self,
        completed: &std::collections::BTreeMap<String, SimResult>,
    ) -> Result<CampaignReport, String> {
        let grid = self.grid()?;
        let missing: Vec<&str> = grid
            .cells
            .iter()
            .filter(|c| !completed.contains_key(&c.id))
            .map(|c| c.id.as_str())
            .collect();
        if !missing.is_empty() {
            let shown = missing.iter().take(5).cloned().collect::<Vec<_>>().join(", ");
            return Err(format!(
                "{} of {} cells have no journaled result yet (e.g. {shown}) — run more workers \
                 or wait for the campaign to finish",
                missing.len(),
                grid.cells.len()
            ));
        }
        let raw = grid
            .cells
            .iter()
            .map(|c| RawCell {
                config: grid.configs[c.config_index].0.clone(),
                llc_scale: c.llc_scale,
                result: completed[&c.id].clone(),
            })
            .collect();
        Ok(CampaignReport::build(&self.spec, raw))
    }

    /// The one band step, shared by [`Campaign::run`] and the distributed
    /// worker: acquires `workload`'s trace (only now — a fully-journaled
    /// workload costs no generation at all), replays its `pending` cells
    /// in one pass per shard over this campaign's threads, accounts the
    /// band in the metric catalog and in `obs` (`band_start` / `band_done`
    /// events, manifest rewrite), prints the progress line when verbose,
    /// and journals every cell. Results come back in `pending` order.
    ///
    /// # Errors
    ///
    /// Returns a message on trace acquisition, replay or journal I/O
    /// failure; cells journaled before the failure stay journaled.
    pub fn run_band(
        &self,
        grid: &CampaignGrid,
        workload: &str,
        pending: &[&GridCell],
        journal: Option<&mut Journal>,
        mut obs: Option<&mut ccsim_obs::RunObs>,
    ) -> Result<Vec<SimResult>, String> {
        let cells = Json::int_saturating(pending.len() as u64);
        if let Some(o) = obs.as_mut() {
            o.event(
                "band_start",
                vec![("workload", Json::str(workload)), ("cells", cells.clone())],
            );
        }
        let trace = self.acquire(workload)?;
        let band_start = std::time::Instant::now();
        let band: Vec<(SimConfig, PolicyKind)> =
            pending.iter().map(|cell| (grid.configs[cell.config_index].1, cell.policy)).collect();
        let results = trace.simulate_cells(&band, self.threads, 0)?;
        let band_ns = band_start.elapsed().as_nanos() as u64;
        let records_simulated = trace.records() * pending.len() as u64;
        // The global metric catalog: band/cell/record counters, the band
        // wall-clock histogram and the per-cell wall estimate (band ÷ cells).
        let m = ccsim_obs::metrics();
        m.campaign_bands.inc();
        m.campaign_cells.add(pending.len() as u64);
        m.campaign_records.add(records_simulated);
        m.campaign_band_sim_ns.record(band_ns);
        if let Some(per_cell) = band_ns.checked_div(pending.len() as u64) {
            m.campaign_cell_sim_ns.record(per_cell);
        }
        if let Some(o) = obs {
            o.add_band(pending.len() as u64, records_simulated, band_ns);
            o.event(
                "band_done",
                vec![
                    ("workload", Json::str(workload)),
                    ("cells", cells),
                    ("trace_records", Json::int_saturating(trace.records())),
                    ("sim_ns", Json::int_saturating(band_ns)),
                ],
            );
            let _ = o.write_manifest();
        }
        if self.verbose {
            eprintln!(
                "{} {} records, {} cells in {} pass(es)",
                grid.progress_label(workload),
                trace.records(),
                pending.len(),
                self.threads.min(pending.len()),
            );
        }
        if let Some(j) = journal {
            for (cell, result) in pending.iter().zip(&results) {
                j.record(&cell.id, result)
                    .map_err(|e| format!("writing journal {}: {e}", j.path().display()))?;
            }
        }
        Ok(results)
    }

    /// Runs every pending cell of the grid and assembles the report.
    ///
    /// # Errors
    ///
    /// Returns a message on invalid workload selectors, trace generation
    /// failures, or cache/journal I/O errors.
    pub fn run(self) -> Result<CampaignOutcome, String> {
        let grid = self.grid()?;
        let mut journal = match &self.journal_path {
            Some(path) => Some(
                Journal::open(path, &self.spec.name, &self.spec.digest())
                    .map_err(|e| format!("opening journal {}: {e}", path.display()))?,
            ),
            None => None,
        };
        let mut obs = match &self.obs_dir {
            Some(dir) => {
                let meta = ccsim_obs::RunMeta {
                    campaign: self.spec.name.clone(),
                    spec_digest: self.spec.digest(),
                    worker: ccsim_obs::SOLO_WORKER.to_owned(),
                };
                Some(
                    ccsim_obs::RunObs::begin(dir, meta, "run.obs.jsonl", "manifest.json")
                        .map_err(|e| format!("opening obs sink in {}: {e}", dir.display()))?,
                )
            }
            None => None,
        };
        if let Some(o) = obs.as_mut() {
            o.event(
                "run_start",
                vec![
                    ("cells_total", Json::int_saturating(grid.cells.len() as u64)),
                    ("workloads", Json::int_saturating(grid.workloads.len() as u64)),
                ],
            );
        }

        let mut completed: std::collections::BTreeMap<String, SimResult> =
            journal.as_ref().map(|j| j.completed().clone()).unwrap_or_default();
        let mut cells_resumed = 0usize;
        for workload in &grid.workloads {
            let cells: Vec<&GridCell> = grid.cells_of(workload).collect();
            let pending: Vec<&GridCell> =
                cells.iter().copied().filter(|c| !completed.contains_key(&c.id)).collect();
            cells_resumed += cells.len() - pending.len();

            if !pending.is_empty() {
                let results =
                    self.run_band(&grid, workload, &pending, journal.as_mut(), obs.as_mut())?;
                completed.extend(pending.iter().map(|c| c.id.clone()).zip(results));
            } else {
                if let Some(o) = obs.as_mut() {
                    o.event(
                        "band_resumed",
                        vec![
                            ("workload", Json::str(workload)),
                            ("cells", Json::int_saturating(cells.len() as u64)),
                        ],
                    );
                }
                if self.verbose {
                    eprintln!("{} resumed from journal", grid.progress_label(workload));
                }
            }
        }

        ccsim_obs::metrics().campaign_runs.inc();
        if let Some(o) = obs.take() {
            // Best-effort: a failed manifest write must not fail the
            // campaign the telemetry merely observes.
            let _ = o.finish();
        }
        let cells_total = grid.cells.len();
        Ok(CampaignOutcome {
            report: self.report_from_completed(&completed)?,
            cells_total,
            cells_resumed,
            cache_hits: self.cache.as_ref().map_or(0, TraceCache::hits),
            cache_misses: self.cache.as_ref().map_or(0, TraceCache::misses),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_core::GridReplay;

    /// The reference every execution shape is judged against: each cell
    /// alone over the in-memory build of `workload`, one record at a time.
    fn oracle(
        campaign: &Campaign,
        workload: &str,
        cells: &[(SimConfig, PolicyKind)],
    ) -> Vec<SimResult> {
        let spec = campaign.spec();
        let trace =
            ccsim_workloads::build_workload_seeded(workload, spec.scale, spec.seed).unwrap();
        let one = |cell: &(SimConfig, PolicyKind)| {
            let mut grid = GridReplay::new(std::slice::from_ref(cell), 1);
            for rec in trace.records() {
                grid.step_records(std::slice::from_ref(rec));
            }
            grid.finish(trace.name(), trace.trailing_nonmem()).remove(0)
        };
        cells.iter().map(one).collect()
    }

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec::from_json_str(
            r#"{"name": "unit", "base_config": "tiny",
                "workloads": ["xsbench.small"],
                "policies": ["lru", "srrip"], "llc_scales": [1, 2]}"#,
        )
        .unwrap()
    }

    #[test]
    fn grid_covers_workloads_times_policies_times_configs() {
        let outcome = Campaign::new(tiny_spec()).threads(4).run().unwrap();
        assert_eq!(outcome.cells_total, 4);
        assert_eq!(outcome.report.cells.len(), 4);
        assert_eq!(outcome.cells_resumed, 0);
        assert_eq!(outcome.cache_hits + outcome.cache_misses, 0);
        // Spec order: config-major within the workload, policy-minor.
        let ids: Vec<String> = outcome
            .report
            .cells
            .iter()
            .map(|c| format!("{}|{}|{}", c.workload, c.config, c.policy))
            .collect();
        assert_eq!(
            ids,
            [
                "xsbench.small|llc_x1|lru",
                "xsbench.small|llc_x1|srrip",
                "xsbench.small|llc_x2|lru",
                "xsbench.small|llc_x2|srrip"
            ]
        );
    }

    #[test]
    fn parallel_run_equals_serial_run() {
        let serial = Campaign::new(tiny_spec()).threads(1).run().unwrap();
        let parallel = Campaign::new(tiny_spec()).threads(8).run().unwrap();
        assert_eq!(serial.report, parallel.report);
    }

    #[test]
    fn campaign_run_reports_the_oracle_result_of_every_cell() {
        let campaign = Campaign::new(tiny_spec());
        let grid = campaign.grid().unwrap();
        let band: Vec<(SimConfig, PolicyKind)> =
            grid.cells.iter().map(|c| (grid.configs[c.config_index].1, c.policy)).collect();
        let report = Campaign::new(tiny_spec()).threads(3).run().unwrap().report;
        let reported: Vec<SimResult> = report.cells.into_iter().map(|c| c.result).collect();
        assert_eq!(reported, oracle(&campaign, "xsbench.small", &band));
    }

    #[test]
    fn simulate_cells_matches_the_oracle_for_any_shard_count_and_chunk() {
        let campaign = Campaign::new(tiny_spec());
        let grid = campaign.grid().unwrap();
        let trace = campaign.acquire("xsbench.small").unwrap();
        let band: Vec<(SimConfig, PolicyKind)> =
            grid.cells.iter().map(|c| (grid.configs[c.config_index].1, c.policy)).collect();
        let reference = oracle(&campaign, "xsbench.small", &band);
        for threads in [1, 2, 3, 16] {
            for chunk in [0, 17] {
                let results = trace.simulate_cells(&band, threads, chunk).unwrap();
                assert_eq!(results, reference, "threads={threads} chunk={chunk}");
            }
        }
        assert!(trace.simulate_cells(&[], 4, 0).unwrap().is_empty());
    }

    #[test]
    fn heterogeneous_band_balancing_preserves_cell_order_and_results() {
        // A band mixing LLC scales 1/2/4 across policies: balancing
        // orders cells by descending LLC capacity and deals them
        // round-robin, so every shard gets at most one more giant-LLC
        // cell than any other — and the scatter must restore results to
        // `cells` order exactly.
        let campaign = Campaign::new(tiny_spec());
        let trace = campaign.acquire("xsbench.small").unwrap();
        let mut band = Vec::new();
        for scale in [4u32, 1, 2, 1, 4, 2, 1] {
            for policy in [PolicyKind::Lru, PolicyKind::Mpppb] {
                band.push((SimConfig::tiny().with_llc_scale(scale), policy));
            }
        }
        let reference = oracle(&campaign, "xsbench.small", &band);
        for threads in [1, 2, 3, 5, 14, 100] {
            assert_eq!(trace.simulate_cells(&band, threads, 0).unwrap(), reference, "{threads}");
        }
    }

    #[test]
    fn without_a_cache_a_synthetic_trace_streams_from_a_one_shot_file() {
        let campaign = Campaign::new(tiny_spec());
        let trace = campaign.acquire("xsbench.small").unwrap();
        assert!(trace.temp && trace.path.starts_with(std::env::temp_dir()));
        let bytes = std::fs::read(&trace.path).unwrap();
        let built = ccsim_workloads::build_workload_seeded(
            "xsbench.small",
            campaign.spec().scale,
            campaign.spec().seed,
        )
        .unwrap();
        let mut want = Vec::new();
        ccsim_trace::write_trace(&built, &mut want).unwrap();
        assert!(bytes == want, "the file is the built trace");
        assert_eq!(trace.records(), built.len() as u64);
        let path = trace.path.clone();
        drop(trace);
        assert!(!path.exists(), "a one-shot file goes with its handle");
        assert!(campaign.acquire("nope.nothing").is_err());
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ccsim_runner_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn plan_predicts_journal_and_cache_state() {
        let dir = temp_dir("plan");
        let journal = dir.join("journal.jsonl");
        let cache_dir = dir.join("cache");

        let fresh = Campaign::new(tiny_spec())
            .cache(TraceCache::new(&cache_dir).unwrap())
            .journal(&journal)
            .plan()
            .unwrap();
        assert_eq!(fresh.cells.len(), 4);
        assert_eq!(fresh.counts(), (0, 0, 4, 0), "nothing exists yet");
        assert!(!journal.exists(), "planning must not create the journal");

        Campaign::new(tiny_spec())
            .cache(TraceCache::new(&cache_dir).unwrap())
            .journal(&journal)
            .run()
            .unwrap();
        let done = Campaign::new(tiny_spec())
            .cache(TraceCache::new(&cache_dir).unwrap())
            .journal(&journal)
            .plan()
            .unwrap();
        assert_eq!(done.counts(), (4, 0, 0, 0), "everything journaled after a run");

        // Journal gone, cache intact: cells pend but the trace is cached.
        std::fs::remove_file(&journal).unwrap();
        let cached = Campaign::new(tiny_spec())
            .cache(TraceCache::new(&cache_dir).unwrap())
            .journal(&journal)
            .plan()
            .unwrap();
        assert_eq!(cached.counts(), (0, 4, 0, 0));
        let table = cached.table().to_csv();
        assert!(table.contains("xsbench.small,llc_x1,lru,cached-trace"), "{table}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_trace_source_is_flagged_in_the_plan_and_fails_the_run() {
        let spec = CampaignSpec::from_json_str(
            r#"{"name": "ext", "base_config": "tiny",
                "workloads": ["trace:/nonexistent/foo.champsim"],
                "policies": ["lru"]}"#,
        )
        .unwrap();
        let plan = Campaign::new(spec.clone()).plan().unwrap();
        assert_eq!(plan.counts(), (0, 0, 0, 1));
        assert_eq!(plan.cells[0].status.name(), "missing-source!");
        let err = Campaign::new(spec).run().unwrap_err();
        assert!(err.contains("/nonexistent/foo.champsim"), "{err}");
    }

    #[test]
    fn grid_and_report_from_completed_match_a_full_run() {
        let campaign = Campaign::new(tiny_spec());
        let grid = campaign.grid().unwrap();
        assert_eq!(grid.cells.len(), 4);
        assert_eq!(grid.cells[0].id, "xsbench.small|llc_x1|lru");
        assert_eq!(grid.cells[3].id, "xsbench.small|llc_x2|srrip");

        // Simulate every band through the claim-one-band API and
        // assemble: byte-identical to the monolithic run.
        let mut completed = std::collections::BTreeMap::new();
        for workload in &grid.workloads {
            let trace = campaign.acquire(workload).unwrap();
            let cells: Vec<&GridCell> = grid.cells_of(workload).collect();
            let band: Vec<(SimConfig, PolicyKind)> =
                cells.iter().map(|c| (grid.configs[c.config_index].1, c.policy)).collect();
            for (cell, result) in cells.iter().zip(trace.simulate_cells(&band, 1, 0).unwrap()) {
                completed.insert(cell.id.clone(), result);
            }
        }
        let assembled = campaign.report_from_completed(&completed).unwrap();
        let monolithic = Campaign::new(tiny_spec()).threads(4).run().unwrap();
        assert_eq!(assembled.to_json_string(), monolithic.report.to_json_string());

        // A partial map refuses to assemble, naming what's missing.
        completed.remove("xsbench.small|llc_x2|srrip");
        let err = campaign.report_from_completed(&completed).unwrap_err();
        assert!(err.contains("1 of 4 cells"), "{err}");
        assert!(err.contains("xsbench.small|llc_x2|srrip"), "{err}");
    }
}
