//! # ccsim-dist
//!
//! Coordinator-free **distributed campaign execution**: N worker
//! processes — on one host or many hosts sharing a filesystem — drain
//! one campaign's pending cells cooperatively, with crash healing and
//! byte-identical report assembly.
//!
//! The paper's characterization sweeps (policies × LLC configs ×
//! workloads) are embarrassingly parallel, and big-data-scale inputs
//! (multi-GB ingested traces, full-suite grids) exceed what one box
//! turns around interactively. This crate shards those grids with **no
//! coordinator, no network protocol and no new state**: everything rides
//! on the campaign journal and a directory of lease files.
//!
//! * [`lease`] — atomic, TTL'd claims (`leases/<id>.lease`, hard-link
//!   creation, mtime-based staleness, epoch-bumped reclaims). Workers
//!   claim **workload bands** (`band:<workload>` — every pending cell
//!   sharing a trace) so each claim is one one-pass replay;
//! * [`worker`] — the claim-band → simulate-in-one-pass → journal →
//!   release loop behind `ccsim campaign worker`, with contention
//!   backoff and a lease heartbeat; each worker writes its own journal
//!   segment (`journal.<worker>.jsonl`), so concurrent appends can
//!   never interleave, and each band cell is journaled individually, so
//!   a reclaimed band resumes from the dead holder's last journaled
//!   cell;
//! * [`mod@assemble`] — merges any worker set's partial journals into the
//!   same byte-identical report a single-process run produces, failing
//!   loudly on conflicts or an unfinished grid;
//! * [`watch()`] — the one read-only view of a shared directory, one
//!   frame of `ccsim campaign watch`: grid progress, per-worker
//!   contributions and claims, every lease blocking a pending cell, and
//!   each worker's telemetry manifest (throughput, cell timings, ETA).
//!   It re-reads the whole directory on every call and keeps no state
//!   between calls.
//!
//! The shared trace cache (`trace-cache/`) is content-addressed
//! (digest-keyed filenames, tmp-file + atomic-rename writes), so workers
//! racing to convert the same trace are benign and the directory is
//! rsync/NFS-safe.
//!
//! # Shared directory layout
//!
//! ```text
//! <shared>/
//!   leases/<id>-<hash>.lease     live band claims (TTL'd,
//!                                crash-healing)
//!   journal.<worker>.jsonl       one append-only segment per worker
//!   obs.<worker>.jsonl           per-worker telemetry event log
//!   manifest.<worker>.json       per-worker telemetry manifest
//!                                (rewritten atomically after each band)
//!   trace-cache/*.cctr           content-addressed shared traces
//! ```
//!
//! # Example
//!
//! ```
//! use ccsim_campaign::CampaignSpec;
//! use ccsim_dist::{assemble, run_worker, WorkerOptions};
//!
//! let spec = CampaignSpec::from_json_str(r#"{
//!     "name": "demo", "base_config": "tiny",
//!     "workloads": ["xsbench.small"], "policies": ["lru", "srrip"]
//! }"#).unwrap();
//! let shared = std::env::temp_dir().join(format!("ccsim_dist_doc_{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&shared);
//! let outcome = run_worker(&spec, &shared, &WorkerOptions::new("w1")).unwrap();
//! assert!(outcome.campaign_done);
//! let assembled = assemble(&spec, &shared).unwrap();
//! assert_eq!(assembled.report.cells.len(), 2);
//! # std::fs::remove_dir_all(&shared).unwrap();
//! ```

#![warn(missing_docs)]

pub mod assemble;
pub mod lease;
pub mod watch;
pub mod worker;

pub use assemble::{assemble, AssembleOutcome};
pub use lease::{band_lease_id, band_workload, Claim, Lease, LeaseDir, LeaseGuard};
pub use watch::{watch, DistStatus, WatchView, WatchWorker};
pub use worker::{default_worker_id, run_worker, sanitize_worker_id, WorkerOptions, WorkerOutcome};

use std::path::{Path, PathBuf};

/// The lease directory under a shared campaign directory.
pub fn leases_dir(shared_dir: &Path) -> PathBuf {
    shared_dir.join("leases")
}

/// The shared trace-cache directory under a shared campaign directory.
pub fn trace_cache_dir(shared_dir: &Path) -> PathBuf {
    shared_dir.join("trace-cache")
}
