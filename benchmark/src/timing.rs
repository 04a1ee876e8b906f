//! Wall-clock sample summaries.
//!
//! The gated estimator is the per-unit **minimum**: on the shared 2-vCPU
//! box this suite was written on, medians of identical runs swing 14–30 %
//! between back-to-back sets while per-unit minima hold within a few
//! percent (README, "Noise"). Median, maximum, sample count and spread are
//! printed beside it so a reader can see how noisy a run was.

use std::time::{Duration, Instant};

/// Times one call.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Fastest of `reps` calls of `f`, in seconds (at least one call).
pub fn min_of(reps: u32, mut f: impl FnMut()) -> f64 {
    (0..reps.max(1)).map(|_| time(&mut f).1.as_secs_f64()).fold(f64::INFINITY, f64::min)
}

/// [`min_of`] for a call that can fail: the fastest call's seconds and the
/// last call's value, or the first error.
///
/// # Errors
///
/// Returns the first `Err` `f` returns; later reps are not made.
pub fn try_min_of<T, E>(reps: u32, mut f: impl FnMut() -> Result<T, E>) -> Result<(f64, T), E> {
    let (mut best, mut last) = (f64::INFINITY, None);
    for _ in 0..reps.max(1) {
        let (out, wall) = time(&mut f);
        last = Some(out?);
        best = best.min(wall.as_secs_f64());
    }
    Ok((best, last.expect("at least one rep ran")))
}

/// Smallest sample.
///
/// # Panics
///
/// Panics on an empty slice: every caller times at least one rep.
pub fn min(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "min of no samples");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest sample.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn max(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "max of no samples");
    samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `(max - min) / min` in percent: how far the slowest rep fell from the
/// fastest.
pub fn rep_spread_pct(samples: &[f64]) -> f64 {
    let lo = min(samples);
    100.0 * (max(samples) - lo) / lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries_of_odd_and_even_sample_counts() {
        let odd = [3.0, 1.0, 2.0];
        assert_eq!(min(&odd), 1.0);
        assert_eq!(max(&odd), 3.0);
        assert_eq!(median(&odd), 2.0);
        let even = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&even), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn spread_is_relative_to_the_fastest_rep() {
        assert_eq!(rep_spread_pct(&[2.0, 3.0, 2.5]), 50.0);
        assert_eq!(rep_spread_pct(&[1.5]), 0.0);
    }

    #[test]
    fn min_of_runs_at_least_once() {
        let mut calls = 0;
        let s = min_of(0, || calls += 1);
        assert_eq!(calls, 1);
        assert!(s >= 0.0);
    }
}
