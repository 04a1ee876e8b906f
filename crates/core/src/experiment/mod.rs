//! Experiment harness: parallel sweeps and report formatting.
//!
//! The binaries in `ccsim-figures` and the `ccsim-campaign` engine use this
//! module to regenerate the paper's figures: [`run_jobs`] executes
//! independent jobs with work-stealing and lock-free per-slot result
//! collection, [`run_matrix`] specializes it to (trace x policy) sweeps,
//! [`grid`] replays every cell of a (config × policy) grid from one pass
//! over the trace, and [`report`] renders aligned ASCII tables and CSV
//! for the results.

pub mod grid;
pub mod report;
mod runner;

pub use grid::{simulate_grid, simulate_grid_stream, GridReplay};
pub use report::Table;
pub use runner::{default_threads, run_jobs, run_matrix, MatrixEntry};
