//! Campaign-wide progress view over a shared distributed directory.
//!
//! `ccsim campaign status` renders this: how much of the grid is done,
//! which workers contributed what, who currently claims which cells, and
//! which leases have gone stale (crashed holders awaiting reclaim).
//! Collection is entirely read-only — journals are merged in full with
//! [`merge_dir`] and leases scanned without touching any file.

use std::collections::BTreeMap;
use std::path::Path;

use ccsim_campaign::{merge_dir, Campaign, CampaignSpec};
use ccsim_obs::Table;

use crate::lease::{band_workload, Lease, LeaseDir};
use crate::leases_dir;

/// One worker's contribution, from its journal segment and live claims.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStatus {
    /// Worker id (`(solo)` for the single-process `journal.jsonl`).
    pub worker: String,
    /// Cells journaled by this worker.
    pub completed: usize,
    /// Band lease files this worker currently holds, including stale
    /// ones.
    pub claims: usize,
}

/// A read-only snapshot of a distributed campaign's progress.
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
    /// Per-worker contributions, sorted by worker id.
    pub workers: Vec<WorkerStatus>,
    /// Every stale lease still covering at least one pending cell, for
    /// operator attention (stale leases covering only completed cells
    /// block nothing and are omitted).
    pub stale_leases: Vec<Lease>,
}

/// Collects the status of `spec` under `shared_dir`.
///
/// # Errors
///
/// Returns a message on invalid specs or conflicting journal segments.
pub fn status(spec: &CampaignSpec, shared_dir: &Path) -> Result<DistStatus, String> {
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

    let mut workers: BTreeMap<String, WorkerStatus> = BTreeMap::new();
    for (segment, cells) in &merged.segments {
        let worker = segment
            .strip_prefix("journal.")
            .and_then(|s| s.strip_suffix(".jsonl"))
            .filter(|s| !s.is_empty())
            .map_or_else(|| "(solo)".to_owned(), str::to_owned);
        let entry = workers.entry(worker.clone()).or_insert(WorkerStatus {
            worker,
            completed: 0,
            claims: 0,
        });
        entry.completed += cells;
    }
    for lease in &leases {
        let entry = workers.entry(lease.worker.clone()).or_insert(WorkerStatus {
            worker: lease.worker.clone(),
            completed: 0,
            claims: 0,
        });
        entry.claims += 1;
    }

    let completed = grid.cells.iter().filter(|c| merged.completed.contains_key(&c.id)).count();
    // Expand leases to the *pending cells* they cover: a band lease
    // covers every pending cell of its workload. Leases covering only
    // completed cells (a worker crashed between journaling and
    // releasing) block nothing: they drop out of the counters *and* the
    // stale listing so the two can't contradict.
    let mut covered: BTreeMap<&str, &Lease> = BTreeMap::new();
    for lease in &leases {
        if let Some(workload) = band_workload(&lease.cell) {
            for cell in grid.cells_of(workload) {
                if !merged.completed.contains_key(&cell.id) {
                    covered.insert(cell.id.as_str(), lease);
                }
            }
        }
    }
    let leased = covered.values().filter(|l| !l.stale).count();
    let stale = covered.values().filter(|l| l.stale).count();
    let stale_ids: std::collections::BTreeSet<&str> =
        covered.values().filter(|l| l.stale).map(|l| l.cell.as_str()).collect();
    let stale_leases = leases.iter().filter(|l| stale_ids.contains(l.cell.as_str())).cloned();
    Ok(DistStatus {
        campaign: spec.name.clone(),
        cells_total: grid.cells.len(),
        completed,
        leased,
        stale,
        unclaimed: grid.cells.len() - completed - leased - stale,
        duplicates: merged.duplicates,
        workers: workers.into_values().collect(),
        stale_leases: stale_leases.collect(),
    })
}

impl DistStatus {
    /// Per-worker table: completed cells and live claims.
    pub fn workers_table(&self) -> Table {
        let mut t =
            Table::new(["worker", "completed", "claims"].iter().map(|s| (*s).to_owned()).collect());
        for w in &self.workers {
            t.row(vec![w.worker.clone(), w.completed.to_string(), w.claims.to_string()]);
        }
        t
    }

    /// The human-readable rendering `ccsim campaign status` prints.
    pub fn render(&self) -> String {
        let mut out = format!(
            "campaign {}: {} cells — {} completed, {} leased, {} stale-leased, {} unclaimed",
            self.campaign,
            self.cells_total,
            self.completed,
            self.leased,
            self.stale,
            self.unclaimed
        );
        if self.duplicates > 0 {
            out.push_str(&format!(
                "\n{} duplicate journal entr{} (lease-expiry re-runs; results identical)",
                self.duplicates,
                if self.duplicates == 1 { "y" } else { "ies" }
            ));
        }
        if !self.workers.is_empty() {
            out.push('\n');
            out.push_str(&self.workers_table().render());
        }
        for l in &self.stale_leases {
            out.push_str(&format!(
                "\nstale lease: {} held by {} (epoch {}, age {}s, ttl {}s)",
                l.cell, l.worker, l.epoch, l.age_secs, l.ttl_secs
            ));
        }
        out
    }
}
