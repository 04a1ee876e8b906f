//! # ccsim-obs
//!
//! Zero-allocation telemetry for the whole workspace: a process-wide
//! catalog of atomic [`Counter`]s, [`Gauge`]s, and log₂-bucketed
//! [`Histogram`]s with drop-guard [`Span`] timers, plus two pinned-schema
//! sinks — a per-run JSONL event log + end-of-run manifest
//! ([`RunObs`], [`Manifest`], [`OBS_SCHEMA_VERSION`]) and
//! Prometheus-style text exposition ([`Snapshot::exposition`],
//! `--metrics-out`) — and the workspace's presentation layer: the one
//! JSON tree, parser and emitter ([`json`]) and the one ASCII/CSV table
//! renderer ([`Table`]).
//!
//! Design constraints, in priority order:
//!
//! 1. **Zero steady-state allocations on instrumented hot paths.** The
//!    catalog is a `const`-constructed `static` (no lazy init, no
//!    registration), and recording is a handful of relaxed atomics.
//!    `tests/alloc_free.rs` pins replay at 0 allocations per record
//!    *with telemetry enabled*.
//! 2. **No dependencies.** This crate sits below every other workspace
//!    crate (core, ingest, campaign, dist, cli all instrument
//!    through it), so it depends on nothing but `std` — which is why
//!    the workspace's JSON module ([`json`]) and [`Table`] live here
//!    (the simulator crates stay records in, results out), and why
//!    this crate can read back the manifest it writes.
//! 3. **Run-scoped accuracy.** Process totals are global; a [`RunObs`]
//!    snapshots the catalog at run start and manifests the delta, so
//!    concurrent or consecutive runs in one process stay separable.
//!
//! # Example
//!
//! ```
//! use ccsim_obs::{metrics, Snapshot};
//!
//! let before = Snapshot::take();
//! metrics().sim_runs.inc();
//! metrics().sim_wall_ns.record(1_250);
//! let delta = Snapshot::take().delta(&before);
//! assert_eq!(delta.counter("sim_runs"), 1);
//! assert!(delta.exposition().contains("ccsim_sim_runs_total"));
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod sink;
pub mod snapshot;
pub mod table;

pub use json::{Json, JsonError};
pub use metrics::{
    enabled, metrics, set_enabled, Counter, Gauge, Histogram, Metrics, Span, HISTOGRAM_BUCKETS,
};
pub use sink::{check_document, document_header, DocumentError, Manifest, RunMeta, RunObs};
pub use snapshot::{write_exposition, HistogramSnapshot, QuantileSummary, Snapshot};
pub use table::Table;

/// Schema version stamped into every obs document: the event-log
/// header, the run manifest, and the `campaign watch --json` view.
///
/// v2 added bucket-derived quantile summaries ([`QuantileSummary`]) to
/// every manifest histogram, `_quantile` gauges to the Prometheus
/// exposition, and the aggregate `cell_sim_ns` quantile block to the
/// watch document. [`check_document`] (which [`Manifest::from_json`]
/// calls) accepts exactly this version.
pub const OBS_SCHEMA_VERSION: u64 = 2;

/// Worker id used by single-process (non-dist) runs in obs documents.
pub const SOLO_WORKER: &str = "(solo)";

/// Integer records-per-second over a nanosecond wall clock (0 when no
/// time has accrued). The **one** rate rule every consumer shares —
/// worker manifests and `campaign watch` rows and aggregates all derive
/// throughput through here, so two views of the same accounting can
/// never round differently.
pub fn records_per_sec(records: u64, wall_ns: u64) -> u64 {
    if wall_ns == 0 {
        0
    } else {
        ((records as u128 * 1_000_000_000) / wall_ns as u128) as u64
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::{Mutex, MutexGuard};

    /// Serializes unit tests that read or toggle the global enabled
    /// flag — they would otherwise race `disabled_metrics_freeze`.
    static ENABLED_LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn enabled_lock() -> MutexGuard<'static, ()> {
        ENABLED_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}
