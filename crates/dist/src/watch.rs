//! Live campaign dashboard: merge [`DistStatus`] with every worker's
//! telemetry manifest.
//!
//! `ccsim campaign watch` polls this. Each poll is read-only and cheap:
//! journals are merged through a persistent [`MergeCursor`] (completed
//! segments are never re-read), lease files are `stat`ed, and the
//! per-worker `manifest.<worker>.json` documents written by
//! [`crate::run_worker`] (or `manifest.json` for a single-process run)
//! are parsed for throughput and timing.
//!
//! Determinism contract: a [`WatchView`] — including its
//! [`WatchView::to_json`] document — is a pure function of the shared
//! directory's contents. No wall-clock reading enters the view;
//! throughput and ETA derive solely from the manifests'
//! `records_simulated` / `sim_wall_ns` accounting. Polling an unchanged
//! directory therefore yields byte-identical JSON, which is what
//! `tests/obs.rs` pins and what makes `watch --once --json` usable in
//! scripts.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use ccsim_campaign::{CampaignSpec, MergeCursor};
use ccsim_ingest::Fnv64;
use ccsim_obs::{
    document_header, records_per_sec, Json, Manifest, QuantileSummary, Table, HISTOGRAM_BUCKETS,
};

use crate::status::{status_with_cursor, DistStatus};

/// One worker row of the dashboard: journal + lease facts from
/// [`DistStatus`] joined with the worker's own manifest (when present).
#[derive(Debug, Clone, PartialEq)]
pub struct WatchWorker {
    /// Worker id (`(solo)` for a single-process run).
    pub worker: String,
    /// Cells journaled by this worker (authoritative, from the merge).
    pub completed: usize,
    /// Lease files this worker currently holds.
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

/// Polls a shared campaign directory, carrying a journal merge cursor
/// between polls so each [`Watcher::poll`] reads only what changed.
#[derive(Debug, Default)]
pub struct Watcher {
    cursor: MergeCursor,
}

/// A cheap stat-level fingerprint of a shared campaign directory: an
/// FNV-1a hash over the (name, len, mtime) of every top-level entry and
/// every lease file. Workers touch the directory on every journal
/// append, manifest rewrite, and lease claim/heartbeat/release, so the
/// fingerprint moves whenever a *write* could show anything new. What it
/// cannot see is time: a dead worker's lease goes stale without a byte
/// changing, which is why [`WatchPacing::due`] also re-collects whenever
/// the idle backoff sits at its cap.
pub fn dir_fingerprint(shared_dir: &Path) -> u64 {
    let mut hash = Fnv64::new();
    let mut stat_dir = |dir: &Path| {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        // read_dir order is platform-arbitrary; sort so an unchanged
        // directory always hashes identically.
        let mut names: Vec<std::ffi::OsString> = entries.flatten().map(|e| e.file_name()).collect();
        names.sort();
        for name in names {
            hash.update(name.as_encoded_bytes());
            let Ok(meta) = std::fs::metadata(dir.join(&name)) else { continue };
            hash.update(&meta.len().to_le_bytes());
            if let Ok(mtime) = meta.modified() {
                if let Ok(age) = mtime.duration_since(std::time::UNIX_EPOCH) {
                    hash.update(&age.as_nanos().to_le_bytes());
                }
            }
        }
    };
    stat_dir(shared_dir);
    stat_dir(&crate::leases_dir(shared_dir));
    hash.finish()
}

/// Pacing of the watch loop (`if due(fingerprint) { poll }
/// sleep(idle_delay())`): exponential backoff from
/// [`WatchPacing::MIN_MS`] up to a cap while the directory fingerprint
/// is unchanged, reset to the floor the moment it moves, plus a small
/// deterministic jitter so a fleet of watchers never stats the shared
/// (often NFS) directory in lockstep.
#[derive(Debug, Clone)]
pub struct WatchPacing {
    cap_ms: u64,
    cur_ms: u64,
    tick: u64,
    seed: u64,
    last_fingerprint: Option<u64>,
}

impl WatchPacing {
    /// Backoff floor: the delay right after observed activity.
    pub const MIN_MS: u64 = 25;

    /// A fresh pacer that backs off up to `cap_ms` between directory
    /// stats (floored at [`WatchPacing::MIN_MS`]). `seed` decorrelates
    /// jitter across watcher processes (pass the pid).
    pub fn new(cap_ms: u64, seed: u64) -> WatchPacing {
        WatchPacing {
            cap_ms: cap_ms.max(Self::MIN_MS),
            cur_ms: Self::MIN_MS,
            tick: 0,
            seed,
            last_fingerprint: None,
        }
    }

    /// Whether the view must be re-collected now: `fingerprint` moved
    /// since the last call (which resets the backoff to the floor), or
    /// the backoff has reached its cap — lease staleness is a function of
    /// the clock, so a silent directory is still re-scanned once per cap.
    pub fn due(&mut self, fingerprint: u64) -> bool {
        let moved = self.last_fingerprint.replace(fingerprint) != Some(fingerprint);
        if moved {
            self.cur_ms = Self::MIN_MS;
        }
        moved || self.cur_ms >= self.cap_ms
    }

    /// The next idle delay: current backoff plus up to 25% jitter.
    /// Advances the backoff (doubling toward the cap), so call once per
    /// loop iteration.
    pub fn idle_delay(&mut self) -> Duration {
        let base = self.cur_ms;
        self.cur_ms = (self.cur_ms * 2).min(self.cap_ms);
        self.tick = self.tick.wrapping_add(1);
        // splitmix64-style scramble of (seed, tick): deterministic per
        // watcher, uncorrelated across watchers.
        let mut z = self.seed.wrapping_add(self.tick.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let jitter = z % (base / 4).max(1);
        Duration::from_millis(base + jitter)
    }
}

impl Watcher {
    /// A fresh watcher with a cold merge cursor.
    pub fn new() -> Watcher {
        Watcher::default()
    }

    /// Collects one view of `spec` under `shared_dir`.
    ///
    /// # Errors
    ///
    /// Returns a message on invalid specs or conflicting journal
    /// segments. Unparsable or foreign manifest files are skipped, not
    /// errors — a watcher must tolerate mid-write and mixed-version
    /// directories.
    pub fn poll(&mut self, spec: &CampaignSpec, shared_dir: &Path) -> Result<WatchView, String> {
        let status = status_with_cursor(spec, shared_dir, &mut self.cursor)?;
        let manifests = read_manifests(shared_dir, &spec.name, &spec.digest());

        // Join on worker id: status rows first (journal + leases are the
        // authority on progress), then any manifest-only workers (e.g. a
        // worker that died before journaling its first cell).
        let mut workers: BTreeMap<String, WatchWorker> = BTreeMap::new();
        for w in &status.workers {
            workers.insert(
                w.worker.clone(),
                WatchWorker {
                    worker: w.worker.clone(),
                    completed: w.completed,
                    claims: w.claims,
                    manifest: manifests.get(&w.worker).cloned(),
                },
            );
        }
        for (worker, manifest) in &manifests {
            workers.entry(worker.clone()).or_insert(WatchWorker {
                worker: worker.clone(),
                completed: 0,
                claims: 0,
                manifest: Some(manifest.clone()),
            });
        }
        Ok(WatchView { status, workers: workers.into_values().collect() })
    }
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
    /// byte-identical across polls of an unchanged directory.
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
        for l in &s.stale_leases {
            out.push_str(&format!(
                "\nstale lease: {} held by {} (epoch {}, age {}s)",
                l.cell, l.worker, l.epoch, l.age_secs
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacing_backs_off_and_resets() {
        let mut p = WatchPacing::new(400, 7);
        assert!(p.due(1), "first observation");
        let d1 = p.idle_delay();
        assert!(d1 >= Duration::from_millis(WatchPacing::MIN_MS));
        assert!(d1 < Duration::from_millis(WatchPacing::MIN_MS + WatchPacing::MIN_MS / 4 + 1));
        assert!(!p.due(1), "silent and still backing off");
        // Unchanged polls double toward the cap (jitter ≤ 25%).
        let mut last = d1;
        for _ in 0..6 {
            last = p.idle_delay();
        }
        assert!(last >= Duration::from_millis(400), "reached cap: {last:?}");
        assert!(last <= Duration::from_millis(500), "cap + 25% jitter: {last:?}");
        // At the cap a silent directory is due on every tick; movement
        // is due at once and resets the backoff to the floor.
        assert!(p.due(1), "silent, but the backoff sits at its cap");
        p.idle_delay();
        assert!(p.due(1), "and stays there");
        assert!(p.due(2), "moved");
        assert!(p.idle_delay() < Duration::from_millis(2 * WatchPacing::MIN_MS));
        assert!(!p.due(2));
    }

    #[test]
    fn pacing_cap_is_floored() {
        let mut p = WatchPacing::new(1, 0);
        let d = p.idle_delay();
        assert!(d >= Duration::from_millis(WatchPacing::MIN_MS));
    }

    #[test]
    fn fingerprint_tracks_shared_dir_writes() {
        let dir = std::env::temp_dir().join(format!("ccsim_watch_fp_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(crate::leases_dir(&dir)).unwrap();
        let empty = dir_fingerprint(&dir);
        assert_eq!(empty, dir_fingerprint(&dir), "stat-stable dir hashes identically");

        std::fs::write(dir.join("journal.w1.jsonl"), "line\n").unwrap();
        let with_journal = dir_fingerprint(&dir);
        assert_ne!(empty, with_journal, "new top-level file moves the fingerprint");

        std::fs::write(crate::leases_dir(&dir).join("cell-abc.lease"), "w1 1").unwrap();
        assert_ne!(with_journal, dir_fingerprint(&dir), "lease churn moves the fingerprint");

        std::fs::write(dir.join("journal.w1.jsonl"), "line\nline2\n").unwrap();
        assert_ne!(with_journal, dir_fingerprint(&dir), "append moves the fingerprint");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
