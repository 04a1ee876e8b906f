//! The metric primitives and the process-wide catalog.
//!
//! Everything here is constructed in `const` context: the catalog is a
//! plain `static`, handles are pre-registered fields, and the record
//! path takes no locks and performs no allocation — a counter is one
//! relaxed atomic, and histogram buckets are fixed arrays indexed by bit
//! length. `tests/alloc_free.rs` pins the zero-allocation contract with
//! telemetry enabled.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Buckets per [`Histogram`]: one per value bit length (0..=64), so
/// bucket `i` holds samples in `[2^(i-1), 2^i - 1]` (bucket 0 holds 0).
pub const HISTOGRAM_BUCKETS: usize = 65;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enables or disables metric updates. Disabled metrics freeze
/// at their current values; handles stay valid. Used by the bench
/// harness to measure the instrumentation overhead against a
/// telemetry-off baseline.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether metric updates are currently applied.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A monotonically increasing atomic counter.
///
/// `add` is one relaxed atomic — no locks, no allocation. One word
/// shared by every thread: the most frequent update in the tree is once
/// per lockstep chunk of replayed records (`grid_chunks`,
/// `grid_records`, `grid_cell_events`, `grid_frontend_records`), every
/// other once per run, band, lease or cache lookup.
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter, constructible in `const` context.
    pub const fn new() -> Counter {
        Counter { value: AtomicU64::new(0) }
    }

    /// Adds `n`. No-op while telemetry is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one. No-op while telemetry is disabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Counter {
        Counter::new()
    }
}

/// A last-write-wins gauge (e.g. currently held leases).
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge, constructible in `const` context.
    pub const fn new() -> Gauge {
        Gauge { value: AtomicU64::new(0) }
    }

    /// Sets the gauge. No-op while telemetry is disabled.
    #[inline]
    pub fn set(&self, v: u64) {
        if enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Increments the gauge.
    #[inline]
    pub fn inc(&self) {
        if enabled() {
            self.value.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Decrements the gauge, saturating at zero.
    #[inline]
    pub fn dec(&self) {
        if enabled() {
            let _ = self
                .value
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(1)));
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge::new()
    }
}

/// A log₂-bucketed histogram: bucket = bit length of the sample, so 65
/// fixed buckets cover the full `u64` range with ~2× resolution —
/// plenty for latency/throughput distributions, and recording is one
/// `leading_zeros` plus three relaxed atomics.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// A zeroed histogram, constructible in `const` context.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Bucket index for a sample: its bit length.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `i` (`2^i - 1`).
    pub fn bucket_bound(i: usize) -> u64 {
        if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one sample. No-op while telemetry is disabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Starts a span timer that records elapsed nanoseconds into this
    /// histogram when stopped or dropped.
    #[inline]
    pub fn span(&self) -> Span<'_> {
        Span { hist: self, start: Instant::now() }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Raw count of bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// A drop-guard span timer over a [`Histogram`]; allocation-free.
pub struct Span<'a> {
    hist: &'a Histogram,
    start: Instant,
}

impl Span<'_> {
    /// Stops the span, records the elapsed nanoseconds, and returns
    /// them (also recorded on drop if never stopped explicitly).
    pub fn stop(self) -> u64 {
        let ns = self.start.elapsed().as_nanos() as u64;
        self.hist.record(ns);
        std::mem::forget(self);
        ns
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_nanos() as u64);
    }
}

macro_rules! catalog {
    (
        counters { $($(#[doc = $cdoc:literal])* $cfield:ident => $cname:literal,)* }
        gauges { $($(#[doc = $gdoc:literal])* $gfield:ident => $gname:literal,)* }
        histograms { $($(#[doc = $hdoc:literal])* $hfield:ident => $hname:literal,)* }
    ) => {
        /// The process-wide metric catalog: every instrumented layer
        /// holds a pre-registered handle into this one `static` — no
        /// registration step, no lazy initialization, no lookup on the
        /// hot path.
        pub struct Metrics {
            $($(#[doc = $cdoc])* pub $cfield: Counter,)*
            $($(#[doc = $gdoc])* pub $gfield: Gauge,)*
            $($(#[doc = $hdoc])* pub $hfield: Histogram,)*
        }

        impl Metrics {
            const fn new() -> Metrics {
                Metrics {
                    $($cfield: Counter::new(),)*
                    $($gfield: Gauge::new(),)*
                    $($hfield: Histogram::new(),)*
                }
            }

            /// Visits every counter in catalog (declaration) order.
            pub fn visit_counters(&self, f: &mut dyn FnMut(&'static str, &Counter)) {
                $(f($cname, &self.$cfield);)*
            }

            /// Visits every gauge in catalog order.
            pub fn visit_gauges(&self, f: &mut dyn FnMut(&'static str, &Gauge)) {
                $(f($gname, &self.$gfield);)*
            }

            /// Visits every histogram in catalog order.
            pub fn visit_histograms(&self, f: &mut dyn FnMut(&'static str, &Histogram)) {
                $(f($hname, &self.$hfield);)*
            }
        }
    };
}

catalog! {
    counters {
        /// Ingestion runs completed (one per source file or stream).
        ingest_runs => "ingest_runs",
        /// Trace records emitted by ingestion.
        ingest_records => "ingest_records",
        /// Source lines skipped by lossy ingestion.
        ingest_skipped => "ingest_skipped",
        /// Trace-cache hits (entry already converted).
        cache_hits => "cache_hits",
        /// Trace-cache misses (conversion or generation ran).
        cache_misses => "cache_misses",
        /// `simulate`/`simulate_stream` runs completed.
        sim_runs => "sim_runs",
        /// Records replayed by single-cell simulation runs.
        sim_records => "sim_records",
        /// Lockstep chunks advanced by `GridReplay` — every replay,
        /// single-cell runs included (they are a grid of one).
        grid_chunks => "grid_chunks",
        /// Engine-records advanced by `GridReplay` (records × cells).
        grid_records => "grid_records",
        /// Events replayed by `GridReplay`'s cells (events × cells): the
        /// records a cell times one at a time, out of `grid_records`.
        grid_cell_events => "grid_cell_events",
        /// Records walked through L1D/L2 by `GridReplay`'s shared front
        /// ends (records × distinct `(l1d, l2)` geometries).
        grid_frontend_records => "grid_frontend_records",
        /// Grid cells finished into results.
        grid_cells => "grid_cells",
        /// Campaign runs completed.
        campaign_runs => "campaign_runs",
        /// Workload bands simulated by campaigns and workers.
        campaign_bands => "campaign_bands",
        /// Campaign cells simulated (excludes journal-resumed cells).
        campaign_cells => "campaign_cells",
        /// Engine-records simulated by campaign bands (records × cells).
        campaign_records => "campaign_records",
        /// Journal segments read by merges.
        journal_segments_scanned => "journal_segments_scanned",
        /// Leases acquired by dist workers.
        dist_lease_claims => "dist_lease_claims",
        /// Claim attempts that lost to another live worker.
        dist_lease_contention => "dist_lease_contention",
        /// Stale leases reclaimed (epoch bumped) by dist workers.
        dist_stale_reclaims => "dist_stale_reclaims",
        /// Contention backoff sleeps taken by dist workers.
        dist_backoffs => "dist_backoffs",
        /// Lease heartbeat renewals.
        dist_heartbeats => "dist_heartbeats",
    }
    gauges {
        /// Leases currently held by this process.
        dist_held_leases => "dist_held_leases",
    }
    histograms {
        /// Wall-clock nanoseconds per ingestion run.
        ingest_wall_ns => "ingest_wall_ns",
        /// Nanoseconds to ensure a cached trace exists (hit or convert).
        cache_ensure_ns => "cache_ensure_ns",
        /// Wall-clock nanoseconds per single-cell simulation run.
        sim_wall_ns => "sim_wall_ns",
        /// Wall-clock nanoseconds per campaign band (all pending cells).
        campaign_band_sim_ns => "campaign_band_sim_ns",
        /// Per-cell simulation wall-clock nanoseconds (band ÷ cells).
        campaign_cell_sim_ns => "campaign_cell_sim_ns",
        /// Nanoseconds per journal-segment directory merge.
        journal_merge_ns => "journal_merge_ns",
    }
}

static METRICS: Metrics = Metrics::new();

/// The process-wide catalog.
#[inline]
pub fn metrics() -> &'static Metrics {
    &METRICS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::enabled_lock;

    #[test]
    fn counter_sums_across_threads() {
        let _guard = enabled_lock();
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let _guard = enabled_lock();
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_bound(0), 0);
        assert_eq!(Histogram::bucket_bound(10), 1023);
        assert_eq!(Histogram::bucket_bound(64), u64::MAX);
        let h = Histogram::new();
        h.record(0);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1027);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(2), 1);
        assert_eq!(h.bucket(11), 1);
    }

    #[test]
    fn disabled_metrics_freeze() {
        let _guard = enabled_lock();
        let c = Counter::new();
        let h = Histogram::new();
        c.inc();
        h.record(7);
        set_enabled(false);
        c.add(100);
        h.record(7);
        set_enabled(true);
        assert_eq!(c.get(), 1);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn span_records_elapsed_ns() {
        let _guard = enabled_lock();
        let h = Histogram::new();
        let ns = h.span().stop();
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), ns);
        {
            let _span = h.span();
        }
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn catalog_visit_order_is_stable() {
        let mut names = Vec::new();
        metrics().visit_counters(&mut |n, _| names.push(n));
        assert_eq!(names.first(), Some(&"ingest_runs"));
        assert_eq!(names.last(), Some(&"dist_heartbeats"));
        let mut hists = Vec::new();
        metrics().visit_histograms(&mut |n, _| hists.push(n));
        assert!(hists.contains(&"sim_wall_ns"));
    }
}
