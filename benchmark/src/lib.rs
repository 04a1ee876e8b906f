//! # ccsim-benchmark
//!
//! The repo's benchmark: four real-trace workloads, end-to-end metrics a
//! user of the simulator pays for (host seconds per simulated cell-record,
//! peak heap, set-up time), per-layer isolation ladders, a span-traced run
//! and a cost model of one replayed record. Every layer is measured from
//! outside, by timing calls into its public functions. See `README.md`.

#![warn(missing_docs)]

pub mod alloc;
pub mod checks;
pub mod compare;
pub mod inputs;
pub mod ladder;
pub mod metrics;
pub mod spans;
pub mod suite;
pub mod timing;
pub mod workloads;

/// `"<path>: <error>"` — every I/O failure names the file it happened on.
pub(crate) fn at_path(path: &std::path::Path, e: impl std::fmt::Display) -> String {
    format!("{}: {e}", path.display())
}
