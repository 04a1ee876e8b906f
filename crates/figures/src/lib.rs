//! # ccsim-figures
//!
//! Shared plumbing for the figure-regeneration binaries. Each binary in
//! `src/bin/` regenerates one of the paper's figures/tables (`fig2`,
//! `fig3`) or an extension experiment (`ext_*`); its module docs name
//! the figure and the run line. Performance is measured elsewhere, by
//! `benchmark/` at the workspace root.
//!
//! All binaries accept `--quick` to run scaled-down inputs (useful for
//! smoke-testing the harness) and print the same tables at reduced
//! fidelity.

#![warn(missing_docs)]

use ccsim_core::experiment::{run_matrix, MatrixEntry};
use ccsim_core::{SimConfig, SimResult};
use ccsim_policies::PolicyKind;
use ccsim_trace::Trace;
use ccsim_workloads::{GapScale, SuiteScale};

/// Parsed command-line options shared by all figure binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Options {
    /// Run scaled-down inputs.
    pub quick: bool,
    /// Worker threads for policy sweeps.
    pub threads: usize,
}

impl Options {
    /// Parses `std::env::args`: recognizes `--quick` and `--threads N`.
    pub fn from_args() -> Options {
        let args: Vec<String> = std::env::args().collect();
        let quick = args.iter().any(|a| a == "--quick");
        let threads = args
            .iter()
            .position(|a| a == "--threads")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(default_threads);
        Options { quick, threads }
    }

    /// The GAP scale preset implied by the options.
    pub fn gap_scale(&self) -> GapScale {
        if self.quick {
            GapScale::Quick
        } else {
            GapScale::Full
        }
    }

    /// The synthetic-suite scale preset implied by the options.
    pub fn suite_scale(&self) -> SuiteScale {
        if self.quick {
            SuiteScale::Quick
        } else {
            SuiteScale::Full
        }
    }
}

/// Default worker count for sweeps; see
/// [`ccsim_core::experiment::default_threads`].
pub fn default_threads() -> usize {
    ccsim_core::experiment::default_threads()
}

/// Runs one trace under every given policy (in parallel) and returns the
/// results in policy order.
pub fn run_policies(
    trace: &Trace,
    policies: &[PolicyKind],
    config: &SimConfig,
    threads: usize,
) -> Vec<SimResult> {
    let traces = std::slice::from_ref(trace);
    run_matrix(traces, policies, config, threads)
        .into_iter()
        .map(|MatrixEntry { result, .. }| result)
        .collect()
}

/// LRU first, then the paper's six policies: the column layout of every
/// speed-up table.
pub fn lru_plus_paper_policies() -> Vec<PolicyKind> {
    let mut v = vec![PolicyKind::Lru];
    v.extend(PolicyKind::PAPER_POLICIES);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_trace::synth::{PatternGen, RandomAccess};
    use ccsim_trace::TraceBuffer;

    #[test]
    fn policy_column_layout() {
        let p = lru_plus_paper_policies();
        assert_eq!(p.len(), 7);
        assert_eq!(p[0], PolicyKind::Lru);
        assert_eq!(p[1], PolicyKind::Srrip);
    }

    #[test]
    fn run_policies_orders_results() {
        let mut b = TraceBuffer::new("t");
        RandomAccess::new(0, 1 << 10, 64, 1000).emit(&mut b);
        let t = b.finish();
        let results =
            run_policies(&t, &[PolicyKind::Lru, PolicyKind::Srrip], &SimConfig::tiny(), 2);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].policy, "lru");
        assert_eq!(results[1].policy, "srrip");
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
