//! The work-stealing job pool sweeps are sharded over.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Default worker count for sweeps: available parallelism capped at 8
/// (simulation is memory-bandwidth-bound; more threads rarely help).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get().min(8)).unwrap_or(4)
}

/// Runs `jobs` independent jobs on `threads` worker threads with
/// work-stealing (an atomic job counter), collecting each result lock-free
/// into its own slot. Results are returned in job order.
///
/// This is the pool behind the campaign's band sharding: jobs may be
/// heterogeneous (different configs and policies) as long as `f(j)`
/// computes job `j` independently.
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

#[cfg(test)]
mod tests {
    use super::*;

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
