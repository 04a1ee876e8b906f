//! A whole benchmark run: set-up, the untraced workloads that give the
//! end-to-end metrics, the traced pass that gives the per-layer ones, and
//! the result document.

use std::collections::BTreeMap;
use std::path::PathBuf;

use ccsim_campaign::Json;

use crate::at_path;
use crate::checks::Checks;
use crate::inputs::{self, Inputs, Scale, SetupTimes};
use crate::ladder;
use crate::metrics::{self, Layers, MetricDef, INVARIANTS, REGIMES};
use crate::spans::{self, Tracer};
use crate::timing::{self, time};
use crate::workloads::{self, Budget, Workload, WorkloadRun};

/// Result-document format version.
pub const DOCUMENT_VERSION: u64 = 1;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seed of every input.
    pub seed: u64,
    /// One workload, or all four.
    pub workload: Option<Workload>,
    /// Seconds of timed reps per workload.
    pub seconds: f64,
    /// Make the traced pass (per-layer metrics, spans, cost model).
    pub traced: bool,
    /// Tiny inputs, one rep: a functional pass whose numbers mean nothing.
    pub smoke: bool,
    /// Where files go: inputs and campaign output under `scratch/` (removed
    /// when the run ends), span files under `out/`.
    pub dir: PathBuf,
}

impl Options {
    /// Working files of the run. Removed at the end: files left behind would
    /// be written back to disk by the kernel during the *next* run, and on a
    /// two-vCPU box that writeback slows the replay it runs beside by half.
    pub fn scratch(&self) -> PathBuf {
        self.dir.join("scratch")
    }
}

/// What the traced pass produced.
#[derive(Debug)]
pub struct Traced {
    /// Every per-layer metric and invariant measured.
    pub layers: Layers,
    /// Checks of the traced runs and the ladder.
    pub checks: Checks,
    /// Self seconds per `layer.op`, per workload.
    pub self_seconds: Vec<(Workload, BTreeMap<String, f64>)>,
    /// The cost-model table of each regime.
    pub cost_models: Vec<(&'static str, Json)>,
    /// Span files written.
    pub span_files: Vec<PathBuf>,
}

/// Everything one invocation measured.
#[derive(Debug)]
pub struct Document {
    /// The options it ran with.
    pub options: Options,
    /// Wall time of each whole-set input build.
    pub setup_samples_s: Vec<f64>,
    /// Untraced runs, in workload order.
    pub runs: Vec<WorkloadRun>,
    /// The traced pass, when one was made.
    pub traced: Option<Traced>,
}

fn host_json() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_owned());
    Json::obj(vec![
        ("nproc", Json::int(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64)),
        ("cpu_model", Json::str(cpu_model)),
        ("rustc", Json::str(env("CCSIM_BENCH_RUSTC"))),
        ("git_rev", Json::str(env("CCSIM_BENCH_GIT_REV"))),
    ])
}

/// `{"value", "unit"}`, plus — in the document `compare.sh` reads, not in
/// the driver's one-line result — the direction and bound of a gated metric.
fn metric_json(def: &MetricDef, value: f64, with_bound: bool) -> (String, Json) {
    let mut fields = vec![("value", Json::num(value)), ("unit", Json::str(def.unit))];
    if let (true, Some(bound)) = (with_bound, def.bound) {
        fields.push(("better", Json::str(def.better.name())));
        fields.push(("bound", Json::num(bound)));
    }
    (def.name.clone(), Json::obj(fields))
}

impl Document {
    /// `setup_s`: the median whole-set build.
    pub fn setup_s(&self) -> f64 {
        timing::median(&self.setup_samples_s)
    }

    fn end_to_end_json(&self, run: &WorkloadRun, with_bound: bool) -> Json {
        let pairs = metrics::end_to_end()
            .iter()
            .map(|def| {
                let value = match def.name.as_str() {
                    "records_per_s" => run.records_per_s(),
                    "peak_heap_mb" => run.peak_heap_bytes as f64 / 1e6,
                    "setup_s" => self.setup_s(),
                    other => unreachable!("no measurement for end-to-end metric {other}"),
                };
                metric_json(def, value, with_bound)
            })
            .collect();
        Json::Obj(pairs)
    }

    /// Every per-layer metric of the traced pass, in catalogue order.
    ///
    /// # Errors
    ///
    /// Names the first metric the traced pass did not measure.
    fn per_layer_json(traced: &Traced) -> Result<Json, String> {
        metrics::per_layer()
            .iter()
            .map(|def| {
                let value = traced
                    .layers
                    .get(&def.name)
                    .filter(|v| v.is_finite())
                    .ok_or_else(|| format!("per-layer metric {} was not measured", def.name))?;
                Ok(metric_json(def, value, false))
            })
            .collect::<Result<Vec<_>, String>>()
            .map(Json::Obj)
    }

    /// The one-line result the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics` — the end-to-end metrics of the
    /// selected workload, or every per-layer metric for a traced run.
    ///
    /// # Errors
    ///
    /// Returns a message when a per-layer metric is missing.
    pub fn contract_line(&self) -> Result<Json, String> {
        let (checks, metrics) = match (&self.traced, self.runs.first()) {
            (Some(traced), _) => (&traced.checks, Document::per_layer_json(traced)?),
            (None, Some(run)) => (&run.checks, self.end_to_end_json(run, false)),
            (None, None) => return Err("nothing was run".to_owned()),
        };
        Ok(Json::obj(vec![
            ("correct", Json::Bool(checks.failed == 0)),
            ("attempted", Json::int(checks.attempted.max(1))),
            ("failed", Json::int(checks.failed)),
            ("metrics", metrics),
        ]))
    }

    /// The whole result document.
    ///
    /// # Errors
    ///
    /// Returns a message when a per-layer metric is missing.
    pub fn to_json(&self) -> Result<Json, String> {
        let o = &self.options;
        let runs = self
            .runs
            .iter()
            .map(|run| {
                let checks = &run.checks;
                let fields = vec![
                    ("correct", Json::Bool(checks.failed == 0)),
                    ("attempted", Json::int(checks.attempted)),
                    ("failed", Json::int(checks.failed)),
                    ("failed_share", Json::num(checks.failed_share())),
                    ("failures", Json::Arr(checks.failures.iter().map(Json::str).collect())),
                    ("stats_digest", Json::str(run.stats_digest())),
                    ("metrics", self.end_to_end_json(run, true)),
                    ("units", Json::Arr(run.units.iter().map(|u| u.to_json()).collect())),
                ];
                (run.workload.name().to_owned(), Json::obj(fields))
            })
            .collect();
        let mut doc = vec![
            ("ccsim_benchmark", Json::int(DOCUMENT_VERSION)),
            ("smoke", Json::Bool(o.smoke)),
            ("seed", Json::int(o.seed)),
            ("seconds", Json::num(o.seconds)),
            ("host", host_json()),
            (
                "setup_samples_s",
                Json::Arr(self.setup_samples_s.iter().map(|&s| Json::num(s)).collect()),
            ),
            ("workloads", Json::Obj(runs)),
        ];
        if let Some(traced) = &self.traced {
            let invariants = INVARIANTS
                .iter()
                .filter_map(|&name| Some((name, Json::num(traced.layers.get(name)?))))
                .collect();
            let self_seconds = traced
                .self_seconds
                .iter()
                .map(|(w, by_op)| {
                    let ops = by_op.iter().map(|(op, &s)| (op.clone(), Json::num(s))).collect();
                    (w.name().to_owned(), Json::Obj(ops))
                })
                .collect();
            let files = traced.span_files.iter().map(|p| Json::str(p.display().to_string()));
            doc.push((
                "traced",
                Json::obj(vec![
                    ("attempted", Json::int(traced.checks.attempted)),
                    ("failed", Json::int(traced.checks.failed)),
                    ("failures", Json::Arr(traced.checks.failures.iter().map(Json::str).collect())),
                    ("per_layer", Document::per_layer_json(traced)?),
                    ("invariants", Json::obj(invariants)),
                    ("self_seconds", Json::Obj(self_seconds)),
                    ("cost_model", Json::obj(traced.cost_models.clone())),
                    ("span_files", Json::Arr(files.collect())),
                ]),
            ));
        }
        // This benchmark measures; it claims no gain.
        doc.push(("claim", Json::Null));
        Ok(Json::obj(doc))
    }
}

/// Builds the whole input set `times` times; keeps the last build.
fn set_up(o: &Options, scale: Scale, times: u32) -> Result<(Inputs, SetupTimes, Vec<f64>), String> {
    let dir = o.scratch().join("inputs");
    let mut samples = Vec::new();
    let mut last = None;
    for _ in 0..times {
        let (built, wall) = time(|| inputs::build(o.seed, scale, &dir));
        last = Some(built?);
        samples.push(wall.as_secs_f64());
    }
    let (inputs, setup_times) = last.ok_or("set-up must run at least once")?;
    Ok((inputs, setup_times, samples))
}

/// The traced pass: all four workloads under the tracer, the isolation
/// ladder, the cost models. For each *selected* workload an untraced twin
/// with the same few reps runs first, so `bench.trace_overhead_pct`
/// compares like with like and both must simulate the same statistics.
fn traced_pass(
    o: &Options,
    inputs: &Inputs,
    setup_times: &SetupTimes,
    selected: &[Workload],
) -> Result<Traced, String> {
    let mut tracer = Tracer::new(true);
    let mut layers = Layers::default();
    let mut checks = Checks::default();
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let mut lru_cells = Vec::new();
    for w in Workload::ALL {
        let budget = if o.smoke { Budget::smoke() } else { Budget::traced(w) };
        let twin = if selected.contains(&w) {
            let mut off = Tracer::new(false);
            Some(workloads::run(w, inputs, &o.scratch(), budget, &mut off, &mut Layers::default())?)
        } else {
            None
        };
        let run = workloads::run(w, inputs, &o.scratch(), budget, &mut tracer, &mut layers)?;
        eprintln!("[traced {}] {:.3} s per rep", w.name(), run.min_wall_s());
        if let Some(twin) = twin {
            traced_s += run.min_wall_s();
            untraced_s += twin.min_wall_s();
            checks.check(run.stats_digest() == twin.stats_digest(), || {
                format!("{}: traced and untraced runs simulate different statistics", w.name())
            });
            checks.absorb(twin.checks);
        }
        if matches!(w, Workload::GapMiss | Workload::HitResident) {
            lru_cells.push(run.first[0].cells[0].clone());
        }
        checks.absorb(run.checks);
    }
    layers.set("bench.trace_overhead_pct", 100.0 * (traced_s / untraced_s - 1.0));

    let (nonmem_calls, wall) = time(|| {
        ladder::run(inputs, setup_times, &o.scratch(), &mut tracer, &mut layers, &mut checks)
    });
    let nonmem_calls = nonmem_calls?;
    eprintln!("[ladder] {:.1} s", wall.as_secs_f64());
    let cost_models = REGIMES
        .iter()
        .zip(lru_cells.iter().zip(nonmem_calls))
        .map(|(&regime, (cell, calls))| {
            (regime, ladder::cost_model(cell, calls, regime, &mut layers))
        })
        .collect();

    let out_dir = o.dir.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| at_path(&out_dir, e))?;
    let mut span_files = Vec::new();
    let mut self_seconds = Vec::new();
    for w in Workload::ALL {
        let path = out_dir.join(format!("spans-{}.json", w.name()));
        std::fs::write(&path, spans::spans_to_json(tracer.spans(), w.name()).to_pretty())
            .map_err(|e| at_path(&path, e))?;
        span_files.push(path);
        self_seconds.push((w, spans::self_seconds_by_op(tracer.spans(), w.name())));
    }
    Ok(Traced { layers, checks, self_seconds, cost_models, span_files })
}

/// Runs what `o` asks for.
///
/// A single workload with `traced` makes only the traced pass (the driver
/// asks for end-to-end and per-layer metrics in separate runs); otherwise
/// the selected workloads run untraced first, and the traced pass follows
/// when asked for.
///
/// # Errors
///
/// Returns a message when inputs cannot be built or read, or a unit never
/// succeeds. Failed checks are reported in the document instead.
pub fn run(o: &Options) -> Result<Document, String> {
    let document = measure(o);
    let _ = std::fs::remove_dir_all(o.scratch());
    document
}

fn measure(o: &Options) -> Result<Document, String> {
    let scale = if o.smoke { Scale::Smoke } else { Scale::Full };
    let selected: Vec<Workload> = o.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let untraced = !(o.traced && o.workload.is_some());
    // `setup_s` is the median of three whole-set builds; runs that do not
    // report it build once.
    let builds = if untraced && !o.smoke { 3 } else { 1 };
    let (inputs, setup_times, setup_samples_s) = set_up(o, scale, builds)?;
    eprintln!("[setup] {setup_samples_s:.3?} s");

    let mut runs = Vec::new();
    if untraced {
        for &w in &selected {
            let budget = if o.smoke { Budget::smoke() } else { Budget::timed(o.seconds) };
            let mut off = Tracer::new(false);
            let run =
                workloads::run(w, &inputs, &o.scratch(), budget, &mut off, &mut Layers::default())?;
            eprintln!(
                "[{}] {:.0} records/s, {} reps, {:.3} s per rep",
                w.name(),
                run.records_per_s(),
                run.units[0].samples_s.len(),
                run.min_wall_s()
            );
            runs.push(run);
        }
    }
    let traced =
        if o.traced { Some(traced_pass(o, &inputs, &setup_times, &selected)?) } else { None };
    Ok(Document { options: o.clone(), setup_samples_s, runs, traced })
}
