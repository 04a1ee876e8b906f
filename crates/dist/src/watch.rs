//! The one view of a shared campaign directory: grid progress, leases
//! and every worker's telemetry manifest.
//!
//! `ccsim campaign watch` calls [`watch`] once per poll period (`--once`:
//! a single frame). Each call is read-only and keeps no state between
//! calls: journals are merged in full with [`merge_dir`], lease files are
//! scanned without touching any file, and the per-worker
//! `manifest.<worker>.json` documents written by [`crate::run_worker`]
//! (or `manifest.json` for a single-process run) are parsed for
//! throughput and timing.
//!
//! Determinism contract: a [`WatchView`] — including its
//! [`WatchView::to_json`] document — is a pure function of the shared
//! directory's contents. No wall-clock reading enters the view;
//! throughput and ETA derive solely from the manifests'
//! `records_simulated` / `sim_wall_ns` accounting. Two calls over an
//! unchanged directory therefore yield byte-identical JSON, which is
//! what `tests/obs.rs` pins and what makes `watch --once --json` usable
//! in scripts.

use std::collections::BTreeMap;
use std::path::Path;

use ccsim_campaign::{merge_dir, Campaign, CampaignSpec};
use ccsim_obs::{
    document_header, records_per_sec, Json, Manifest, QuantileSummary, Table, HISTOGRAM_BUCKETS,
    SOLO_WORKER,
};

use crate::lease::{band_workload, Lease, LeaseDir};
use crate::leases_dir;

/// A campaign's grid progress over a shared directory.
#[derive(Debug)]
pub struct DistStatus {
    /// Campaign name.
    pub campaign: String,
    /// Total grid cells.
    pub cells_total: usize,
    /// Cells with a journaled result.
    pub completed: usize,
    /// Pending cells under a live lease — a band lease counts every
    /// pending cell of its workload.
    pub leased: usize,
    /// Pending cells under a stale lease (holder presumed crashed).
    pub stale: usize,
    /// Cells with neither a result nor a lease.
    pub unclaimed: usize,
    /// Duplicate (identical) journal entries across segments.
    pub duplicates: usize,
    /// Every lease, live or stale, still covering at least one pending
    /// cell, sorted by lease id (a lease covering only completed cells
    /// blocks nothing and is omitted, so this list and the counters
    /// can't contradict each other).
    pub leases: Vec<Lease>,
}

/// One worker row of the dashboard: its journal segment and lease files
/// joined with its own manifest (when present).
#[derive(Debug, Clone, PartialEq)]
pub struct WatchWorker {
    /// Worker id (`(solo)` for a single-process run).
    pub worker: String,
    /// Cells journaled by this worker (authoritative, from the merge).
    pub completed: usize,
    /// Band lease files of this grid this worker currently holds,
    /// including stale ones.
    pub claims: usize,
    /// The worker's telemetry manifest; `None` when it has not written
    /// one (pre-telemetry runs, or a crash before the first band).
    pub manifest: Option<Manifest>,
}

impl WatchWorker {
    /// Records per second over this worker's own simulation wall-clock
    /// (0 when no manifest or no time accrued yet).
    pub fn records_per_sec(&self) -> u64 {
        self.manifest.as_ref().map_or(0, |m| records_per_sec(m.records_simulated, m.sim_wall_ns))
    }
}

/// One poll of the dashboard: campaign progress plus per-worker and
/// aggregate throughput.
#[derive(Debug)]
pub struct WatchView {
    /// Grid progress and lease occupancy.
    pub status: DistStatus,
    /// Per-worker rows, sorted by worker id.
    pub workers: Vec<WatchWorker>,
}

/// Collects one view of `spec` under `shared_dir`.
///
/// # Errors
///
/// Returns a message on invalid specs or conflicting journal segments.
/// Unparsable or foreign manifest files are skipped, not errors — a
/// watcher must tolerate mid-write and mixed-version directories.
pub fn watch(spec: &CampaignSpec, shared_dir: &Path) -> Result<WatchView, String> {
    let grid = Campaign::new(spec.clone()).grid()?;
    let merged = merge_dir(shared_dir, &spec.name, &spec.digest())?;
    let leases_root = leases_dir(shared_dir);
    let leases: Vec<Lease> = if leases_root.is_dir() {
        LeaseDir::open(leases_root)
            .map_err(|e| format!("opening lease dir: {e}"))?
            .scan()
            .into_iter()
            // Only leases naming workload bands of *this* grid; an
            // aborted older spec under the same dir must not pollute the
            // counts.
            .filter(|l| {
                band_workload(&l.cell).is_some_and(|w| grid.workloads.iter().any(|g| g == w))
            })
            .collect()
    } else {
        Vec::new()
    };

    // One row per worker id that has a journal segment, a lease or a
    // manifest (e.g. a worker that died before journaling its first
    // cell).
    let mut workers: BTreeMap<String, WatchWorker> = BTreeMap::new();
    fn row(workers: &mut BTreeMap<String, WatchWorker>, worker: String) -> &mut WatchWorker {
        let blank = WatchWorker { worker: worker.clone(), completed: 0, claims: 0, manifest: None };
        workers.entry(worker).or_insert(blank)
    }
    for (segment, cells) in &merged.segments {
        let worker = segment
            .strip_prefix("journal.")
            .and_then(|s| s.strip_suffix(".jsonl"))
            .filter(|s| !s.is_empty())
            .unwrap_or(SOLO_WORKER);
        row(&mut workers, worker.to_owned()).completed += cells;
    }
    for lease in &leases {
        row(&mut workers, lease.worker.clone()).claims += 1;
    }
    for (worker, manifest) in read_manifests(shared_dir, &spec.name, &spec.digest()) {
        row(&mut workers, worker).manifest = Some(manifest);
    }

    let completed = grid.cells.iter().filter(|c| merged.completed.contains_key(&c.id)).count();
    // A band lease covers every pending cell of its workload. One
    // covering only completed cells (a worker crashed between journaling
    // and releasing) blocks nothing: it drops out of the counters *and*
    // the lease listing.
    let (mut leased, mut stale) = (0, 0);
    let mut blocking = Vec::new();
    for lease in leases {
        let workload = band_workload(&lease.cell).unwrap_or_default();
        let pending = grid.cells_of(workload).filter(|c| !merged.completed.contains_key(&c.id));
        match pending.count() {
            0 => continue,
            n if lease.stale => stale += n,
            n => leased += n,
        }
        blocking.push(lease);
    }
    let status = DistStatus {
        campaign: spec.name.clone(),
        cells_total: grid.cells.len(),
        completed,
        leased,
        stale,
        unclaimed: grid.cells.len() - completed - leased - stale,
        duplicates: merged.duplicates,
        leases: blocking,
    };
    Ok(WatchView { status, workers: workers.into_values().collect() })
}

/// Reads every `manifest.json` / `manifest.<worker>.json` under `dir`
/// that matches this campaign and spec digest, keyed by worker id.
fn read_manifests(dir: &Path, campaign: &str, spec_digest: &str) -> BTreeMap<String, Manifest> {
    let mut out = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        // `manifest.json` (solo) or `manifest.<worker>.json`.
        if !(name.starts_with("manifest.") && name.ends_with(".json")) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(entry.path()) else { continue };
        let Ok(doc) = Json::parse(&text) else { continue };
        let Ok(manifest) = Manifest::from_json(&doc) else { continue };
        if manifest.meta.campaign == campaign && manifest.meta.spec_digest == spec_digest {
            out.insert(manifest.meta.worker.clone(), manifest);
        }
    }
    out
}

impl WatchView {
    /// One manifest field summed over every worker, saturating: anyone can plant a manifest.
    fn manifest_total(&self, field: impl Fn(&Manifest) -> u64) -> u64 {
        let manifests = self.workers.iter().filter_map(|w| w.manifest.as_ref());
        manifests.fold(0, |total, m| total.saturating_add(field(m)))
    }

    /// Whether the whole grid is journaled — the watch loop's exit
    /// condition.
    pub fn done(&self) -> bool {
        self.status.completed >= self.status.cells_total
    }

    /// Engine-records simulated across all worker manifests.
    pub fn records_simulated(&self) -> u64 {
        self.manifest_total(|m| m.records_simulated)
    }

    /// Simulation wall-clock summed across all worker manifests, in
    /// nanoseconds.
    pub fn sim_wall_ns(&self) -> u64 {
        self.manifest_total(|m| m.sim_wall_ns)
    }

    /// Aggregate records per second over the summed simulation
    /// wall-clock of all workers.
    pub fn records_per_sec(&self) -> u64 {
        records_per_sec(self.records_simulated(), self.sim_wall_ns())
    }

    /// Mean simulation wall-clock per completed cell, in nanoseconds
    /// (from the manifests' completed-cell timings; 0 until a band
    /// lands).
    pub fn mean_cell_sim_ns(&self) -> u64 {
        self.sim_wall_ns().checked_div(self.manifest_total(|m| m.cells_done)).unwrap_or(0)
    }

    /// Fleet-wide per-cell simulation-time quantiles: the
    /// `campaign_cell_sim_ns` buckets of every worker manifest summed,
    /// then summarized. All-zero while nothing has been simulated (or
    /// with telemetry disabled).
    pub fn cell_sim_quantiles(&self) -> QuantileSummary {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        let manifests = self.workers.iter().filter_map(|w| w.manifest.as_ref());
        for h in manifests.filter_map(|m| m.metrics.histogram("campaign_cell_sim_ns")) {
            for (slot, &c) in buckets.iter_mut().zip(&h.buckets) {
                *slot = slot.saturating_add(c);
            }
        }
        QuantileSummary::from_buckets(&buckets)
    }

    /// Estimated seconds of simulation left: pending cells × mean cell
    /// time, assuming one simulation stream (divide by your worker count
    /// for fleet ETA). Rounded **up**, so a nonzero backlog with a known
    /// cell timing never reads as "0 s"; 0 until a completed cell
    /// provides a timing (and once the grid is drained).
    pub fn eta_seconds(&self) -> u64 {
        let remaining = (self.status.cells_total - self.status.completed) as u64;
        (remaining as u128 * self.mean_cell_sim_ns() as u128).div_ceil(1_000_000_000) as u64
    }

    /// The machine-readable dashboard document (`watch --once --json`):
    /// byte-identical across collects of an unchanged directory.
    pub fn to_json(&self) -> String {
        let s = &self.status;
        let int = |n: usize| Json::int_saturating(n as u64);
        let no_manifest = Manifest::default();
        let workers = self.workers.iter().map(|w| {
            let mut row = vec![
                ("worker", Json::str(&w.worker)),
                ("completed", int(w.completed)),
                ("claims", int(w.claims)),
                ("manifest", Json::Bool(w.manifest.is_some())),
            ];
            row.extend(w.manifest.as_ref().unwrap_or(&no_manifest).totals());
            row.push(("records_per_sec", Json::int_saturating(w.records_per_sec())));
            Json::obj(row)
        });
        let cells = Json::obj(vec![
            ("total", int(s.cells_total)),
            ("completed", int(s.completed)),
            ("leased", int(s.leased)),
            ("stale", int(s.stale)),
            ("unclaimed", int(s.unclaimed)),
            ("duplicates", int(s.duplicates)),
        ]);
        let aggregate = Json::obj(vec![
            ("records_simulated", Json::int_saturating(self.records_simulated())),
            ("sim_wall_ns", Json::int_saturating(self.sim_wall_ns())),
            ("records_per_sec", Json::int_saturating(self.records_per_sec())),
            ("mean_cell_sim_ns", Json::int_saturating(self.mean_cell_sim_ns())),
            ("cell_sim_ns", self.cell_sim_quantiles().to_json()),
            ("eta_seconds", Json::int_saturating(self.eta_seconds())),
        ]);
        let mut doc = document_header("watch");
        doc.extend([
            ("campaign", Json::str(&s.campaign)),
            ("done", Json::Bool(self.done())),
            ("cells", cells),
            ("workers", Json::Arr(workers.collect())),
            ("aggregate", aggregate),
        ]);
        format!("{}\n", Json::obj(doc))
    }

    /// The human-readable dashboard frame the polling loop prints.
    pub fn render(&self) -> String {
        let s = &self.status;
        let mut out = format!(
            "campaign {}: {}/{} cells — {} leased, {} stale, {} unclaimed",
            s.campaign, s.completed, s.cells_total, s.leased, s.stale, s.unclaimed
        );
        if s.duplicates > 0 {
            out.push_str(&format!(" ({} duplicates)", s.duplicates));
        }
        let mut t = Table::new(
            ["worker", "completed", "claims", "cells_done", "records", "rec/s"]
                .iter()
                .map(|h| (*h).to_owned())
                .collect(),
        );
        for w in &self.workers {
            let m = w.manifest.as_ref();
            t.row(vec![
                w.worker.clone(),
                w.completed.to_string(),
                w.claims.to_string(),
                m.map_or(0, |m| m.cells_done).to_string(),
                m.map_or(0, |m| m.records_simulated).to_string(),
                w.records_per_sec().to_string(),
            ]);
        }
        if !self.workers.is_empty() {
            out.push('\n');
            out.push_str(&t.render());
        }
        let q = self.cell_sim_quantiles();
        out.push_str(&format!(
            "\naggregate: {} records/s, mean cell {} ms (p50 {} / p99 {} ms), eta {} s",
            self.records_per_sec(),
            self.mean_cell_sim_ns() / 1_000_000,
            q.p50 / 1_000_000,
            q.p99 / 1_000_000,
            self.eta_seconds()
        ));
        for l in &s.leases {
            out.push_str(&format!(
                "\n{}lease: {} held by {} (epoch {}, age {}s, ttl {}s)",
                if l.stale { "stale " } else { "" },
                l.cell,
                l.worker,
                l.epoch,
                l.age_secs,
                l.ttl_secs
            ));
        }
        out
    }
}
