//! Parallel (trace x policy) sweep execution.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use ccsim_policies::PolicyKind;
use ccsim_trace::Trace;

use crate::config::SimConfig;
use crate::result::SimResult;
use crate::simulator::simulate;

/// Default worker count for sweeps: available parallelism capped at 8
/// (simulation is memory-bandwidth-bound; more threads rarely help).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get().min(8)).unwrap_or(4)
}

/// Runs `jobs` independent jobs on `threads` worker threads with
/// work-stealing (an atomic job counter), collecting each result lock-free
/// into its own slot. Results are returned in job order.
///
/// This is the generic engine behind [`run_matrix`] and the campaign's
/// band sharding: jobs may be heterogeneous (different traces, configs
/// and policies) as long as `f(j)` computes job `j` independently.
///
/// # Examples
///
/// ```
/// use ccsim_core::experiment::run_jobs;
///
/// let squares = run_jobs(5, 2, |j| j * j);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn run_jobs<T, F>(jobs: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    assert!(threads > 0, "need at least one worker thread");
    let next = AtomicUsize::new(0);
    // One slot per job: each index is claimed by exactly one worker via the
    // atomic counter, so every OnceLock is set exactly once and no lock is
    // shared across completed cells.
    let mut slots: Vec<OnceLock<T>> = Vec::new();
    slots.resize_with(jobs, OnceLock::new);
    std::thread::scope(|scope| {
        let (next, slots, f) = (&next, &slots, &f);
        for _ in 0..threads.min(jobs) {
            scope.spawn(move || loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                if j >= jobs {
                    break;
                }
                assert!(slots[j].set(f(j)).is_ok(), "job claimed twice");
            });
        }
    });
    slots.into_iter().map(|s| s.into_inner().expect("all jobs completed")).collect()
}

/// One completed cell of a sweep.
#[derive(Debug, Clone)]
pub struct MatrixEntry {
    /// Index of the trace in the input slice.
    pub trace_index: usize,
    /// The policy simulated.
    pub policy: PolicyKind,
    /// The simulation result.
    pub result: SimResult,
}

/// Simulates every trace under every policy, in parallel across OS threads,
/// and returns results ordered by `(trace_index, policy order)`.
///
/// The function is deterministic: simulation is single-threaded per cell
/// and cells are independent.
///
/// # Examples
///
/// ```
/// use ccsim_core::{experiment::run_matrix, SimConfig};
/// use ccsim_policies::PolicyKind;
/// use ccsim_trace::{synth::{PatternGen, SequentialStream}, TraceBuffer};
///
/// let mut buf = TraceBuffer::new("t");
/// SequentialStream::new(0, 1 << 12).emit(&mut buf);
/// let traces = vec![buf.finish()];
/// let out = run_matrix(&traces, &[PolicyKind::Lru, PolicyKind::Srrip],
///                      &SimConfig::tiny(), 2);
/// assert_eq!(out.len(), 2);
/// ```
pub fn run_matrix(
    traces: &[Trace],
    policies: &[PolicyKind],
    config: &SimConfig,
    threads: usize,
) -> Vec<MatrixEntry> {
    let jobs: Vec<(usize, PolicyKind)> = traces
        .iter()
        .enumerate()
        .flat_map(|(i, _)| policies.iter().map(move |&p| (i, p)))
        .collect();
    run_jobs(jobs.len(), threads, |j| {
        let (trace_index, policy) = jobs[j];
        MatrixEntry { trace_index, policy, result: simulate(&traces[trace_index], config, policy) }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_trace::synth::{PatternGen, RandomAccess};
    use ccsim_trace::TraceBuffer;

    fn traces(n: usize) -> Vec<Trace> {
        (0..n)
            .map(|i| {
                let mut b = TraceBuffer::new(format!("t{i}"));
                RandomAccess::new(0, 1 << 10, 64, 2000).seed(i as u64).emit(&mut b);
                b.finish()
            })
            .collect()
    }

    #[test]
    fn matrix_covers_all_cells_in_order() {
        let ts = traces(3);
        let ps = [PolicyKind::Lru, PolicyKind::Srrip];
        let out = run_matrix(&ts, &ps, &SimConfig::tiny(), 4);
        assert_eq!(out.len(), 6);
        for (k, e) in out.iter().enumerate() {
            assert_eq!(e.trace_index, k / 2);
            assert_eq!(e.policy, ps[k % 2]);
            assert_eq!(e.result.workload, format!("t{}", k / 2));
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let ts = traces(2);
        let ps = [PolicyKind::Lru, PolicyKind::Drrip];
        let serial = run_matrix(&ts, &ps, &SimConfig::tiny(), 1);
        let parallel = run_matrix(&ts, &ps, &SimConfig::tiny(), 8);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.result, b.result);
        }
    }

    #[test]
    fn empty_traces_yield_empty_results() {
        let out = run_matrix(&[], &[PolicyKind::Lru], &SimConfig::tiny(), 2);
        assert!(out.is_empty());
    }

    #[test]
    fn run_jobs_orders_heterogeneous_results() {
        let out = run_jobs(100, 7, |j| 3 * j + 1);
        assert_eq!(out.len(), 100);
        for (j, v) in out.iter().enumerate() {
            assert_eq!(*v, 3 * j + 1);
        }
    }

    #[test]
    fn run_jobs_with_more_threads_than_jobs() {
        assert_eq!(run_jobs(1, 64, |j| j), vec![0]);
        assert_eq!(run_jobs(0, 4, |j| j), Vec::<usize>::new());
    }
}
