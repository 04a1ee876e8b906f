//! The distributed campaign worker: claim a band → simulate it in one
//! pass → journal each cell → release.
//!
//! N workers (processes on one host, or many hosts over a shared
//! filesystem) each run this loop against one shared campaign directory.
//! There is no coordinator: the pending set is re-derived every round by
//! merging every worker's journal segment, claims are arbitrated by the
//! lease files alone, and a worker that finds nothing claimable backs
//! off and polls until the grid is drained (leases held by live peers
//! either complete or expire). A worker merges the journals once at the
//! start of each round and once after each acquired claim, and each
//! merge re-reads every segment in full.
//!
//! Claims are **workload bands** ([`crate::lease::band_lease_id`]): one
//! lease covers every pending cell sharing a trace, and the holder
//! replays that trace once for all of them
//! ([`ccsim_campaign::Campaign::run_band`], the band step of a solo run)
//! instead of once per cell. Each cell is still journaled individually,
//! so a worker that dies mid-band loses only its unjournaled cells — the
//! reclaiming peer re-derives the band's pending remainder from the
//! merged journals and resumes there. Sharding granularity is therefore
//! the workload: peers parallelize across workloads (and across shards
//! *within* a band via [`WorkerOptions::threads`]), not across cells of
//! one workload.

use std::path::{Path, PathBuf};
use std::time::Duration;

use ccsim_campaign::spec::fnv1a64;
use ccsim_campaign::{merge_dir, Campaign, CampaignSpec, GridCell, Journal, TraceCache};
use ccsim_obs::{Json, RunMeta, RunObs};

use crate::lease::{band_lease_id, Claim, LeaseDir};
use crate::{leases_dir, trace_cache_dir};

/// How a worker executes: identity, lease TTL, parallelism and patience.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Worker identity — names the journal segment and every lease this
    /// worker takes. Must be unique per live worker
    /// ([`default_worker_id`] derives host + pid).
    pub worker_id: String,
    /// Lease TTL. A heartbeat renews the held band lease at `ttl / 3`
    /// while the band simulates, so the TTL only needs to exceed
    /// worst-case *stall* (swap, NFS hiccup, clock skew), not band
    /// runtime.
    pub ttl: Duration,
    /// Worker threads: the cells of one claimed band shard into this
    /// many lockstep one-pass replays.
    pub threads: usize,
    /// Sleep between polls when every pending band is leased by a live
    /// peer.
    pub backoff: Duration,
    /// Stop after completing this many cells (testing and drain-limits);
    /// `None` runs until the campaign is done. A limit smaller than a
    /// band truncates the band — the rest stays pending for any worker.
    pub max_cells: Option<usize>,
    /// Per-band progress lines on stderr.
    pub verbose: bool,
}

impl WorkerOptions {
    /// Defaults: the given identity, 300 s TTL, 1 thread, 500 ms backoff,
    /// no cell limit, quiet.
    pub fn new(worker_id: impl Into<String>) -> WorkerOptions {
        WorkerOptions {
            worker_id: worker_id.into(),
            ttl: Duration::from_secs(300),
            threads: 1,
            backoff: Duration::from_millis(500),
            max_cells: None,
            verbose: false,
        }
    }
}

/// A filename- and lease-safe worker identity derived from host + pid:
/// `<hostname>-<pid>`, sanitized to `[A-Za-z0-9_-]`.
///
/// The hostname comes from the kernel (`/proc/sys/kernel/hostname`)
/// rather than the `HOSTNAME` shell variable, which is rarely exported
/// to systemd/cron/ssh-spawned workers — two hosts silently sharing a
/// fallback id (plus a pid collision) would share a journal segment.
pub fn default_worker_id() -> String {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .ok()
        .map(|h| h.trim().to_owned())
        .filter(|h| !h.is_empty())
        .or_else(|| std::env::var("HOSTNAME").ok().filter(|h| !h.is_empty()))
        .unwrap_or_else(|| "host".to_owned());
    sanitize_worker_id(&format!("{host}-{}", std::process::id()))
}

/// Maps `id` to the filename- and lease-safe alphabet `[A-Za-z0-9_-]`
/// (everything else becomes `-`); empty input becomes `"worker"`.
pub fn sanitize_worker_id(id: &str) -> String {
    let s: String = id
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || "_-".contains(c) { c } else { '-' })
        .collect();
    if s.is_empty() {
        "worker".to_owned()
    } else {
        s
    }
}

/// What one worker run did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerOutcome {
    /// Cells this worker simulated and journaled.
    pub completed: usize,
    /// Workload bands claimed by reclaiming a stale (crashed-holder)
    /// lease; the band resumes from whatever cells the dead worker had
    /// journaled.
    pub reclaimed: usize,
    /// Backoff sleeps while every pending band was held by live peers.
    pub backoffs: usize,
    /// The whole grid was completed (by any worker set) when this worker
    /// exited; `false` only when `max_cells` stopped it early.
    pub campaign_done: bool,
}

/// Runs one worker against the shared campaign directory until the
/// campaign's grid is fully journaled (or `max_cells` is reached).
///
/// Layout used under `shared_dir`: `leases/` for claims,
/// `journal.<worker>.jsonl` for this worker's results, `trace-cache/`
/// for the shared content-addressed trace cache (digest-keyed, so
/// rsync/NFS-safe; concurrent converters race benignly via tmp-file +
/// atomic rename).
///
/// # Errors
///
/// Returns a message on spec/selector errors, trace acquisition
/// failures, and journal or lease I/O errors. Held leases are released
/// on error exit (guards drop); journaled cells are never lost.
pub fn run_worker(
    spec: &CampaignSpec,
    shared_dir: &Path,
    opts: &WorkerOptions,
) -> Result<WorkerOutcome, String> {
    let worker = sanitize_worker_id(&opts.worker_id);
    let digest = spec.digest();
    std::fs::create_dir_all(shared_dir)
        .map_err(|e| format!("creating {}: {e}", shared_dir.display()))?;
    let campaign = Campaign::new(spec.clone()).threads(opts.threads).verbose(opts.verbose).cache(
        TraceCache::new(trace_cache_dir(shared_dir))
            .map_err(|e| format!("opening shared trace cache: {e}"))?,
    );
    let grid = campaign.grid()?;
    let leases =
        LeaseDir::open(leases_dir(shared_dir)).map_err(|e| format!("opening lease dir: {e}"))?;
    let mut journal = Journal::open_segment(shared_dir, &worker, &spec.name, &digest)
        .map_err(|e| format!("opening journal segment: {e}"))?;
    // Per-worker telemetry: `obs.<worker>.jsonl` events plus a
    // `manifest.<worker>.json` rewritten after every band, which is what
    // `ccsim campaign watch` merges across workers. Best-effort — a
    // read-only or full shared dir must not stop the worker.
    let mut obs = RunObs::begin(
        shared_dir,
        RunMeta {
            campaign: spec.name.clone(),
            spec_digest: digest.clone(),
            worker: worker.clone(),
        },
        &format!("obs.{worker}.jsonl"),
        &format!("manifest.{worker}.json"),
    )
    .ok();

    let mut outcome =
        WorkerOutcome { completed: 0, reclaimed: 0, backoffs: 0, campaign_done: false };
    if let Some(o) = &mut obs {
        o.event(
            "run_start",
            vec![
                ("cells_total", Json::int_saturating(grid.cells.len() as u64)),
                ("workloads", Json::int_saturating(grid.workloads.len() as u64)),
            ],
        );
    }
    // Start each worker at a different workload so N workers spread over
    // the grid instead of stampeding the same cells (claims stay correct
    // regardless; this only reduces contention).
    let offset = (fnv1a64(worker.as_bytes()) as usize) % grid.workloads.len().max(1);

    loop {
        // The authoritative pending set: everything any worker has
        // journaled so far, merged read-only across segments.
        let mut done = merge_dir(shared_dir, &spec.name, &digest)?.completed;
        outcome.campaign_done = grid.cells.iter().all(|c| done.contains_key(&c.id));
        // The one exit: the grid is drained, or the cell limit is reached
        // (the campaign may nonetheless be complete — this worker's last
        // band can have drained it — so `campaign_done` is re-derived).
        if outcome.campaign_done || opts.max_cells.is_some_and(|max| outcome.completed >= max) {
            if let Some(o) = obs.take() {
                let _ = o.finish();
            }
            return Ok(outcome);
        }

        let mut progressed = false;
        for wi in 0..grid.workloads.len() {
            let workload = &grid.workloads[(wi + offset) % grid.workloads.len()];
            let budget = opts.max_cells.map(|m| m.saturating_sub(outcome.completed));
            if budget == Some(0) {
                break;
            }
            // The band is every cell of the workload still pending in the
            // latest merge. A peer may have finished it since; the
            // re-merge after the claim below finds that out.
            let mut pending: Vec<&GridCell> =
                grid.cells_of(workload).filter(|c| !done.contains_key(&c.id)).collect();
            if pending.is_empty() {
                continue;
            }
            // One lease claims the whole band: all pending cells sharing
            // this workload's trace, to be replayed in one pass.
            let guard = match leases.claim(&band_lease_id(workload), &worker, opts.ttl)? {
                Claim::Acquired(guard) => guard,
                Claim::Held(_) => {
                    ccsim_obs::metrics().dist_lease_contention.inc();
                    continue;
                }
            };
            let m = ccsim_obs::metrics();
            m.dist_lease_claims.inc();
            m.dist_held_leases.inc();
            // Close the merge→claim race: a peer may have journaled band
            // cells and released its lease between our merge and our
            // claim. Peers journal (flushed) *before* releasing, so a
            // re-merge after claiming sees every such cell — dropping
            // them makes duplicate simulation impossible on a coherent
            // filesystem. This is also how a reclaimed band resumes
            // mid-band: the dead holder's journaled cells drop out here.
            // The merge stands in for the round's until the next claim.
            done = merge_dir(shared_dir, &spec.name, &digest)?.completed;
            let band_size = pending.len();
            pending.retain(|c| !done.contains_key(&c.id));
            if pending.len() < band_size {
                progressed = true; // the campaign advanced under us
            }
            if pending.is_empty() {
                m.dist_held_leases.dec();
                guard.release();
                continue;
            }
            if guard.epoch() > 1 {
                outcome.reclaimed += 1;
                m.dist_stale_reclaims.inc();
            }
            if let Some(budget) = budget {
                pending.truncate(budget);
            }
            if let Some(o) = &mut obs {
                o.event(
                    "claim",
                    vec![
                        ("workload", Json::str(workload)),
                        ("cells", Json::int_saturating(pending.len() as u64)),
                        ("epoch", Json::int_saturating(guard.epoch())),
                    ],
                );
            }

            if opts.verbose {
                // Band attribution: which worker runs it, at which lease
                // epoch (>1 = reclaimed from a crash, resuming mid-band).
                eprintln!("[{worker} e{}] claimed {workload}", guard.epoch());
            }

            // The band step runs under a heartbeat renewing the band lease
            // at ttl/3. Acquisition is covered too: a first-time
            // conversion of a multi-GB `trace:` source can easily outlive
            // the TTL, and losing the lease there would hand the same
            // conversion to a peer.
            let stop = std::sync::atomic::AtomicBool::new(false);
            let band = std::thread::scope(|scope| {
                let (guard, stop) = (&guard, &stop);
                scope.spawn(move || {
                    let tick = Duration::from_millis(50);
                    let mut since_renew = Duration::ZERO;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        std::thread::sleep(tick);
                        since_renew += tick;
                        if since_renew >= opts.ttl / 3 {
                            since_renew = Duration::ZERO;
                            ccsim_obs::metrics().dist_heartbeats.inc();
                            let _ = guard.renew();
                        }
                    }
                });
                let out =
                    campaign.run_band(&grid, workload, &pending, Some(&mut journal), obs.as_mut());
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
                out
            });
            m.dist_held_leases.dec();
            // Every cell is journaled (flushed) before the release below. On
            // failure the guard drops here instead and releases the band;
            // everything already journaled stays journaled.
            outcome.completed += band?.len();
            guard.release();
            progressed = true;
        }

        if !progressed {
            // Every pending band is leased by someone else (or a claim
            // race was lost this round): wait for peers to finish,
            // crash-expire, or release.
            outcome.backoffs += 1;
            ccsim_obs::metrics().dist_backoffs.inc();
            if let Some(o) = &mut obs {
                o.event("backoff", vec![("round", Json::int_saturating(outcome.backoffs as u64))]);
            }
            std::thread::sleep(opts.backoff);
        }
    }
}

/// The shared-directory path a worker journals to, for status/logs.
pub fn segment_path_for(shared_dir: &Path, worker_id: &str) -> PathBuf {
    Journal::segment_path(shared_dir, &sanitize_worker_id(worker_id))
}
