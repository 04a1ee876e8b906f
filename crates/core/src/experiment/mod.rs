//! Experiment harness: a grid of cells replayed from one pass over a
//! trace, and the thread pool that shards grids.
//!
//! [`grid`] replays every cell of a (config × policy) grid from one pass
//! over the trace; [`run_jobs`] executes independent jobs with
//! work-stealing and lock-free per-slot result collection — the
//! campaign's band executor shards cells over it, one [`grid`] pass per
//! shard. Records in, [`crate::SimResult`] out: rendering lives with the
//! JSON module in `ccsim-obs`.

pub mod grid;
mod runner;

pub use runner::{default_threads, run_jobs};
