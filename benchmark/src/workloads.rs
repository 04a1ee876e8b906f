//! The four workloads: what each replays, how it is timed, what it checks.
//!
//! Every workload is a list of *units* (one public call into the program
//! each). Units run interleaved rep-major (`for rep { for unit }`),
//! single-process and single-threaded — the box has two shared vCPUs and a
//! second thread would measure the neighbour. There are no warm-up reps: the
//! estimator is each unit's fastest rep, so a cold first rep simply is not
//! it, and the seconds a warm-up would burn buy another sample instead.
//! Checks run untimed after the reps.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ccsim_campaign::{Campaign, CampaignSpec, Journal, Json, TraceCache};
use ccsim_core::{
    autotune_chunk_records, simulate, simulate_grid_stream, simulate_stream, Hierarchy, SimConfig,
    SimResult,
};
use ccsim_policies::PolicyKind;
use ccsim_trace::{read_trace, Trace, TraceReader};

use crate::alloc;
use crate::at_path;
use crate::checks::{stats_digest, Checks};
use crate::inputs::{Inputs, Scale, TraceFile};
use crate::metrics::{Layers, GAP_POLICIES};
use crate::spans::Tracer;
use crate::timing::{self, time};

/// Policies of the `hit_resident` units.
pub const HIT_POLICIES: [PolicyKind; 3] = [PolicyKind::Lru, PolicyKind::Hawkeye, PolicyKind::Mpppb];

/// LLC capacity multipliers of the `grid_band` cells.
const GRID_LLC_SCALES: [u32; 2] = [1, 4];

/// Synthetic members of the `campaign_cold` spec, beside the foreign trace.
pub const CAMPAIGN_SYNTHETIC: [&str; 3] = ["bc.kron", "xsbench.large", "qcom.srv2"];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Irregular graph traversal that misses at every level.
    GapMiss,
    /// A real GAP kernel whose working set is L1/L2-resident.
    HitResident,
    /// One trace pass feeding 14 lockstep cells.
    GridBand,
    /// A campaign's first contact with four new traces.
    CampaignCold,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] =
        [Workload::GapMiss, Workload::HitResident, Workload::GridBand, Workload::CampaignCold];

    /// Stable name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GapMiss => "gap_miss",
            Workload::HitResident => "hit_resident",
            Workload::GridBand => "grid_band",
            Workload::CampaignCold => "campaign_cold",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How long a workload is measured.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Timed reps made whatever the clock says.
    pub min_reps: u32,
    /// Timed reps continue until this many seconds have passed.
    pub seconds: f64,
}

impl Budget {
    /// The end-to-end budget: at least three timed reps, and as many more
    /// as fit in `seconds`.
    pub fn timed(seconds: f64) -> Budget {
        Budget { min_reps: 3, seconds }
    }

    /// The traced run's budget: per-layer numbers need far fewer reps than
    /// a gated end-to-end metric.
    pub fn traced(workload: Workload) -> Budget {
        let min_reps = match workload {
            Workload::GapMiss | Workload::HitResident => 3,
            Workload::GridBand | Workload::CampaignCold => 2,
        };
        Budget { min_reps, seconds: 0.0 }
    }

    /// One rep (`--smoke`).
    pub fn smoke() -> Budget {
        Budget { min_reps: 1, seconds: 0.0 }
    }
}

/// What one call of a unit produced.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitOutput {
    /// The simulated cells, in the unit's cell order.
    pub cells: Vec<SimResult>,
    /// `campaign_cold` only: the report text and the run's counters.
    pub campaign: Option<CampaignOutput>,
}

/// The campaign-level outputs of one `campaign_cold` rep.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutput {
    /// `report.json`, as written.
    pub report: String,
    /// Grid cells.
    pub cells_total: u64,
    /// Trace-cache misses (traces generated or ingested).
    pub cache_misses: u64,
}

impl UnitOutput {
    fn cells(cells: Vec<SimResult>) -> UnitOutput {
        UnitOutput { cells, campaign: None }
    }

    /// Trace records replayed, summed over cells (every record is exactly
    /// one L1D demand access).
    pub fn cell_records(&self) -> u64 {
        self.cells.iter().map(|c| c.l1d.demand_accesses).sum()
    }
}

type RunFn<'a> = Box<dyn FnMut(&mut Tracer) -> Result<UnitOutput, String> + 'a>;

/// One timed call into the program.
struct Unit<'a> {
    name: String,
    /// Untimed work a rep needs first (fresh directories).
    prepare: Box<dyn FnMut() -> Result<(), String> + 'a>,
    run: RunFn<'a>,
}

impl<'a> Unit<'a> {
    fn new(name: impl Into<String>, run: RunFn<'a>) -> Unit<'a> {
        Unit { name: name.into(), prepare: Box::new(|| Ok(())), run }
    }
}

/// Wall-clock samples of one unit.
#[derive(Debug, Clone)]
pub struct UnitTiming {
    /// Unit name (the policy, `grid` or `campaign`).
    pub name: String,
    /// Cell-records one call replays.
    pub cell_records: u64,
    /// Seconds per timed rep, in rep order.
    pub samples_s: Vec<f64>,
}

impl UnitTiming {
    /// The gated estimator: the fastest rep.
    pub fn min_s(&self) -> f64 {
        timing::min(&self.samples_s)
    }

    /// Host nanoseconds per cell-record at the fastest rep.
    pub fn ns_per_cell_record(&self) -> f64 {
        1e9 * self.min_s() / self.cell_records as f64
    }

    /// Summary for the result document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(&*self.name)),
            ("cell_records", Json::int(self.cell_records)),
            ("reps", Json::int(self.samples_s.len() as u64)),
            ("min_s", Json::num(self.min_s())),
            ("median_s", Json::num(timing::median(&self.samples_s))),
            ("max_s", Json::num(timing::max(&self.samples_s))),
            ("rep_spread_pct", Json::num(timing::rep_spread_pct(&self.samples_s))),
            ("records_per_s", Json::num(self.cell_records as f64 / self.min_s())),
            ("samples_s", Json::Arr(self.samples_s.iter().map(|&s| Json::num(s)).collect())),
        ])
    }
}

/// Everything one run of one workload measured.
#[derive(Debug)]
pub struct WorkloadRun {
    /// Which workload.
    pub workload: Workload,
    /// Per-unit samples.
    pub units: Vec<UnitTiming>,
    /// Each unit's output at the first timed rep.
    pub first: Vec<UnitOutput>,
    /// Peak live heap during the timed reps (0 unless the counting
    /// allocator is installed).
    pub peak_heap_bytes: usize,
    /// Checks made.
    pub checks: Checks,
}

impl WorkloadRun {
    /// Σ cell-records ÷ Σ per-unit minimum wall time.
    pub fn records_per_s(&self) -> f64 {
        let records: u64 = self.units.iter().map(|u| u.cell_records).sum();
        records as f64 / self.min_wall_s()
    }

    /// Σ per-unit minimum wall time.
    pub fn min_wall_s(&self) -> f64 {
        self.units.iter().map(UnitTiming::min_s).sum()
    }

    /// Digest of every cell's exact counters at the first timed rep.
    pub fn stats_digest(&self) -> String {
        stats_digest(self.first.iter().flat_map(|o| &o.cells))
    }
}

/// Runs `units` under `budget` and checks that every rep repeats the first.
fn measure(
    workload: Workload,
    mut units: Vec<Unit<'_>>,
    budget: Budget,
    tracer: &mut Tracer,
) -> Result<WorkloadRun, String> {
    let mut checks = Checks::default();
    tracer.workload = workload.name();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); units.len()];
    let mut first: Vec<Option<UnitOutput>> = vec![None; units.len()];
    alloc::reset_peak();
    let start = Instant::now();
    let mut rep = 0u32;
    while rep < budget.min_reps || start.elapsed().as_secs_f64() < budget.seconds {
        tracer.rep = rep as i32;
        tracer.span("bench", "rep", |t| -> Result<(), String> {
            for (i, unit) in units.iter_mut().enumerate() {
                (unit.prepare)()?;
                let (out, wall) = time(|| (unit.run)(t));
                match out {
                    Err(e) => {
                        checks.fail(format!("{} {} rep {rep}: {e}", workload.name(), unit.name))
                    }
                    Ok(out) => {
                        samples[i].push(wall.as_secs_f64());
                        match &first[i] {
                            None => first[i] = Some(out),
                            Some(want) => checks.check(&out == want, || {
                                format!(
                                    "{} {} rep {rep} differs from rep 0",
                                    workload.name(),
                                    unit.name
                                )
                            }),
                        }
                    }
                }
            }
            Ok(())
        })?;
        rep += 1;
    }
    let peak_heap_bytes = alloc::peak_bytes();
    tracer.rep = -1;

    let mut timings = Vec::new();
    let mut outputs = Vec::new();
    for ((unit, samples_s), out) in units.iter().zip(samples).zip(first) {
        let out =
            out.ok_or_else(|| format!("{} {}: no rep succeeded", workload.name(), unit.name))?;
        timings.push(UnitTiming {
            name: unit.name.clone(),
            cell_records: out.cell_records(),
            samples_s,
        });
        outputs.push(out);
    }
    Ok(WorkloadRun { workload, units: timings, first: outputs, peak_heap_bytes, checks })
}

fn open(file: &TraceFile) -> Result<BufReader<File>, String> {
    File::open(&file.path).map(BufReader::new).map_err(|e| at_path(&file.path, e))
}

/// Opens an input trace for streaming.
///
/// # Errors
///
/// Returns a message when the file is missing or its header does not decode.
pub fn open_reader(file: &TraceFile) -> Result<TraceReader<BufReader<File>>, String> {
    TraceReader::new(open(file)?).map_err(|e| at_path(&file.path, e))
}

/// Loads a whole input trace into memory.
///
/// # Errors
///
/// Returns a message when the file is missing or does not decode.
pub fn load_trace(file: &TraceFile) -> Result<Trace, String> {
    read_trace(open(file)?).map_err(|e| at_path(&file.path, e))
}

/// Sets the exact model counts of an LRU cell for `regime`.
fn set_model_counts(layers: &mut Layers, regime: &str, lru: &SimResult) {
    let mut set = |name: &str, v: f64| layers.set(format!("core.model.{name}.{regime}"), v);
    set("l1d_mpki", lru.mpki_l1d());
    set("l2_mpki", lru.mpki_l2());
    set("llc_mpki", lru.mpki_llc());
    set("dram_reach_pct", 100.0 * lru.dram_reach_fraction());
    set("dram_row_hit_pct", 100.0 * lru.dram.row_hit_rate());
    set("ipc", lru.ipc());
}

/// `gap_miss` and `hit_resident`: `simulate(&trace, cascade_lake, p)` per
/// policy over an in-memory trace.
fn single_cells(
    workload: Workload,
    file: &TraceFile,
    policies: &[PolicyKind],
    regime: &str,
    budget: Budget,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<WorkloadRun, String> {
    let trace = load_trace(file)?;
    let config = SimConfig::cascade_lake();
    let units = policies
        .iter()
        .map(|&p| {
            let trace = &trace;
            Unit::new(
                p.name(),
                Box::new(move |t: &mut Tracer| {
                    let cell = t.span("core", "simulate", |_| simulate(trace, &config, p));
                    Ok(UnitOutput::cells(vec![cell]))
                }),
            )
        })
        .collect();
    let mut run = measure(workload, units, budget, tracer)?;

    // The streaming driver over the same records must agree bit for bit.
    for (&p, out) in policies.iter().zip(&run.first) {
        match open_reader(file).and_then(|r| {
            tracer
                .span("core", "simulate_stream", |_| simulate_stream(r, &config, p))
                .map_err(|e| e.to_string())
        }) {
            Ok(streamed) => {
                run.checks.cells_equal(&format!("{p} vs stream"), &[streamed], &out.cells)
            }
            Err(e) => run.checks.fail(format!("{} {p} stream: {e}", workload.name())),
        }
    }
    // L1D and L2 always run LRU and see only trace order.
    let lru = &run.first[0].cells[0];
    for out in &run.first[1..] {
        let cell = &out.cells[0];
        run.checks.check(cell.l1d == lru.l1d && cell.l2 == lru.l2, || {
            format!("{}: L1D/L2 stats of {} differ from lru", workload.name(), cell.policy)
        });
    }

    if workload == Workload::GapMiss {
        for (p, unit) in policies.iter().zip(&run.units) {
            layers.set(format!("policies.{p}.cell_ns_per_record"), unit.ns_per_cell_record());
        }
    }
    layers.set(format!("core.simulate_ns_per_record.{regime}"), run.units[0].ns_per_cell_record());
    set_model_counts(layers, regime, lru);
    Ok(run)
}

/// The 14 `grid_band` cells: {lru + the paper's six} × LLC scales {1, 4}.
pub fn grid_cells() -> Vec<(SimConfig, PolicyKind)> {
    let policies = std::iter::once(PolicyKind::Lru).chain(PolicyKind::PAPER_POLICIES);
    policies
        .flat_map(|p| {
            GRID_LLC_SCALES.map(|scale| (SimConfig::cascade_lake().with_llc_scale(scale), p))
        })
        .collect()
}

/// `grid_band`: one streamed trace pass over 14 lockstep engines.
fn grid_band(
    inputs: &Inputs,
    budget: Budget,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<WorkloadRun, String> {
    let cells = grid_cells();
    let unit = Unit::new(
        "grid",
        Box::new(|t: &mut Tracer| {
            let reader = open_reader(&inputs.bfs)?;
            t.span("core", "simulate_grid_stream", |_| simulate_grid_stream(reader, &cells, 0))
                .map(UnitOutput::cells)
                .map_err(|e| e.to_string())
        }),
    );
    let mut run = measure(Workload::GridBand, vec![unit], budget, tracer)?;

    // Every lockstep cell must equal an independent pass; the independent
    // passes are also the denominator of `core.grid.vs_single_ratio`.
    let mut singles_s = 0.0;
    for (i, (config, p)) in cells.iter().enumerate() {
        let reader = open_reader(&inputs.bfs)?;
        let (single, wall) = time(|| {
            tracer.span("core", "simulate_stream", |_| simulate_stream(reader, config, *p))
        });
        singles_s += wall.as_secs_f64();
        match single {
            Ok(single) => run.checks.cells_equal(
                &format!("grid cell {i} vs single"),
                &[single],
                &run.first[0].cells[i..=i],
            ),
            Err(e) => run.checks.fail(format!("grid_band single {p}: {e}")),
        }
    }

    let grid = &run.units[0];
    layers.set("core.grid.ns_per_cell_record", grid.ns_per_cell_record());
    layers.set("core.grid.vs_single_ratio", grid.min_s() / singles_s);
    let hot_bytes: u64 = cells
        .iter()
        .map(|(c, p)| Hierarchy::new(c, p.build_dispatch(c.llc.sets, c.llc.ways)).hot_state_bytes())
        .sum();
    layers.set("core.grid.hot_state_mb", hot_bytes as f64 / 1e6);
    // What `GridReplay::new(cells, 0)` picks for this footprint.
    layers.set("core.grid.chunk_records", autotune_chunk_records(hot_bytes) as f64);
    Ok(run)
}

/// The `campaign_cold` spec: two cells per trace over one foreign and
/// three synthetic traces.
///
/// # Errors
///
/// Returns the spec parser's message (a path with a `"` in it).
pub fn campaign_spec(inputs: &Inputs) -> Result<CampaignSpec, String> {
    let scale = match inputs.scale {
        Scale::Full => "full",
        Scale::Smoke => "quick",
    };
    let synthetic = CAMPAIGN_SYNTHETIC.iter().map(|w| format!(", \"{w}\"")).collect::<String>();
    CampaignSpec::from_json_str(&format!(
        r#"{{"name": "bench_cold", "seed": {}, "scale": "{scale}", "llc_scales": [1],
            "policies": ["lru", "hawkeye"],
            "workloads": ["trace:{}"{synthetic}]}}"#,
        inputs.seed,
        inputs.foreign.display(),
    ))
}

fn campaign_in(spec: &CampaignSpec, dir: &Path) -> Result<Campaign, String> {
    let cache = TraceCache::new(dir.join("cache")).map_err(|e| at_path(dir, e))?;
    Ok(Campaign::new(spec.clone()).threads(1).cache(cache))
}

fn journal_path(dir: &Path) -> PathBuf {
    dir.join("journal.jsonl")
}

/// The untraced unit: `Campaign::run()` plus the report written to disk.
fn campaign_run(spec: &CampaignSpec, dir: &Path) -> Result<UnitOutput, String> {
    let outcome = campaign_in(spec, dir)?.journal(journal_path(dir)).run()?;
    let report = outcome.report.to_json_string();
    std::fs::write(dir.join("report.json"), &report).map_err(|e| e.to_string())?;
    Ok(UnitOutput {
        cells: outcome.report.cells.into_iter().map(|c| c.result).collect(),
        campaign: Some(CampaignOutput {
            report,
            cells_total: outcome.cells_total as u64,
            cache_misses: outcome.cache_misses,
        }),
    })
}

/// The traced unit: the same public pieces `Campaign::run()` composes,
/// driven from here so that each gets a span.
fn campaign_pieces(spec: &CampaignSpec, dir: &Path, t: &mut Tracer) -> Result<UnitOutput, String> {
    let misses_before = ccsim_obs::metrics().cache_misses.get();
    let campaign = campaign_in(spec, dir)?;
    let grid = t.span("campaign", "grid", |_| campaign.grid())?;
    let mut journal = t
        .span("campaign", "journal_open", |_| {
            Journal::open(journal_path(dir), &spec.name, &spec.digest())
        })
        .map_err(|e| e.to_string())?;
    for workload in &grid.workloads {
        let band: Vec<_> = grid.cells_of(workload).collect();
        let cells: Vec<(SimConfig, PolicyKind)> =
            band.iter().map(|c| (grid.configs[c.config_index].1, c.policy)).collect();
        let trace = t.span("campaign", "acquire", |_| campaign.acquire(workload))?;
        let results =
            t.span("campaign", "simulate_cells", |_| trace.simulate_cells(&cells, 1, 0))?;
        for (cell, result) in band.iter().zip(&results) {
            t.span("campaign", "journal_record", |_| journal.record(&cell.id, result))
                .map_err(|e| e.to_string())?;
        }
    }
    let built = t.span("campaign", "report_build", |_| {
        campaign.report_from_completed(journal.completed())
    })?;
    let report = t.span("campaign", "report_to_json", |_| built.to_json_string());
    t.span("bench", "write_report", |_| std::fs::write(dir.join("report.json"), &report))
        .map_err(|e| e.to_string())?;
    Ok(UnitOutput {
        cells: built.cells.into_iter().map(|c| c.result).collect(),
        campaign: Some(CampaignOutput {
            report,
            cells_total: grid.cells.len() as u64,
            cache_misses: ccsim_obs::metrics().cache_misses.get() - misses_before,
        }),
    })
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum::<u64>()
        })
        .unwrap_or(0)
}

/// `campaign_cold`: a cold campaign over fresh cache and journal.
fn campaign_cold(
    inputs: &Inputs,
    scratch: &Path,
    budget: Budget,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<WorkloadRun, String> {
    let spec = campaign_spec(inputs)?;
    let dir = scratch.join("campaign");
    let traced = tracer.enabled();
    let unit = Unit {
        name: "campaign".to_owned(),
        prepare: Box::new(|| {
            if dir.exists() {
                std::fs::remove_dir_all(&dir).map_err(|e| at_path(&dir, e))?;
            }
            std::fs::create_dir_all(&dir).map_err(|e| at_path(&dir, e))
        }),
        run: Box::new(|t: &mut Tracer| {
            if traced {
                campaign_pieces(&spec, &dir, t)
            } else {
                campaign_run(&spec, &dir)
            }
        }),
    };
    let mut run = measure(Workload::CampaignCold, vec![unit], budget, tracer)?;

    let cold = run.first[0].campaign.clone().expect("campaign units carry campaign output");
    let expected_cells = 2 * (1 + CAMPAIGN_SYNTHETIC.len() as u64);
    run.checks.check(Json::parse(&cold.report).is_ok(), || "report.json does not parse".to_owned());
    run.checks.check(cold.cells_total == expected_cells, || {
        format!("cells_total {} != {expected_cells}", cold.cells_total)
    });
    run.checks.check(cold.cache_misses == expected_cells / 2, || {
        format!("cache_misses {} != {}", cold.cache_misses, expected_cells / 2)
    });

    // The last rep's directories are still there: the journal's read path
    // (beside the cold run's writes), then an immediate second run, which
    // must resume every cell and rebuild the identical report.
    let (reopened, resume) = time(|| Journal::open(journal_path(&dir), &spec.name, &spec.digest()));
    run.checks.check(reopened.as_ref().is_ok_and(|j| j.resumed() as u64 == expected_cells), || {
        "journal does not replay every cell".to_owned()
    });
    drop(reopened);
    let cache_bytes = dir_bytes(&dir.join("cache"));
    let mut resumed_cells = 0;
    match campaign_in(&spec, &dir)?.journal(journal_path(&dir)).run() {
        Ok(second) => {
            resumed_cells = second.cells_resumed as u64;
            run.checks.check(resumed_cells == expected_cells, || {
                format!("second run resumed {resumed_cells} of {expected_cells} cells")
            });
            run.checks.check(second.report.to_json_string() == cold.report, || {
                "resumed report differs from the cold report".to_owned()
            });
        }
        Err(e) => run.checks.fail(format!("second campaign run: {e}")),
    }

    if traced {
        let hits_before = ccsim_obs::metrics().cache_hits.get();
        let campaign = campaign_in(&spec, &dir)?;
        let (reacquired, acquire_hit) = time(|| {
            tracer.span("campaign", "acquire_hit", |_| {
                campaign.grid()?.workloads.iter().try_for_each(|w| campaign.acquire(w).map(drop))
            })
        });
        reacquired?;
        let cache_hits = ccsim_obs::metrics().cache_hits.get() - hits_before;

        // Stage costs come from the spans of the fastest rep.
        let unit = &run.units[0];
        let best = unit
            .samples_s
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(rep, _)| rep as i32);
        let stage_s = |op: &str| -> f64 {
            tracer
                .spans()
                .iter()
                .filter(|s| s.workload == run.workload.name() && s.rep == best && s.op == op)
                .map(|s| s.duration_ns() as f64 / 1e9)
                .sum()
        };
        let simulate_s = stage_s("simulate_cells");
        layers.set("campaign.acquire_s", stage_s("acquire"));
        layers.set("campaign.acquire_hit_s", acquire_hit.as_secs_f64());
        layers.set("campaign.simulate_s", simulate_s);
        layers.set(
            "campaign.journal.record_us_per_cell",
            1e6 * stage_s("journal_record") / expected_cells as f64,
        );
        layers.set("campaign.journal.resume_ms", 1e3 * resume.as_secs_f64());
        layers.set(
            "campaign.report.build_ms",
            1e3 * (stage_s("report_build") + stage_s("report_to_json")),
        );
        layers.set("campaign.report.json_bytes", cold.report.len() as f64);
        layers.set("campaign.cache.bytes_written", cache_bytes as f64);
        layers.set("campaign.nonsim_share_pct", 100.0 * (1.0 - simulate_s / unit.min_s()));
        layers.set("campaign.cells", cold.cells_total as f64);
        layers.set("campaign.cache_misses", cold.cache_misses as f64);
        layers.set("campaign.cache_hits", cache_hits as f64);
        layers.set("campaign.cells_resumed", resumed_cells as f64);
    }
    Ok(run)
}

/// Runs one workload over the built inputs.
///
/// With `tracer` enabled every call into a layer is recorded as a span and
/// the workload's per-layer metrics are set in `layers`.
///
/// # Errors
///
/// Returns a message when an input cannot be read or a unit never
/// succeeds; failed *checks* are counted in the result instead.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    scratch: &Path,
    budget: Budget,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<WorkloadRun, String> {
    match workload {
        Workload::GapMiss => {
            single_cells(workload, &inputs.bfs, &GAP_POLICIES, "gap", budget, tracer, layers)
        }
        Workload::HitResident => {
            single_cells(workload, &inputs.tc, &HIT_POLICIES, "hit", budget, tracer, layers)
        }
        Workload::GridBand => grid_band(inputs, budget, tracer, layers),
        Workload::CampaignCold => campaign_cold(inputs, scratch, budget, tracer, layers),
    }
}
