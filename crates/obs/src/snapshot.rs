//! Point-in-time views of the catalog: snapshots, deltas between two
//! snapshots (run-scoped accounting), and Prometheus-style text
//! exposition.

use crate::json::Json;
use crate::metrics::{metrics, HISTOGRAM_BUCKETS};
use crate::metrics::{Gauge, Histogram};

/// A frozen view of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples.
    pub sum: u64,
    /// Per-bucket sample counts, indexed by sample bit length.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

/// Quantile and extremum summary derived purely from a histogram's log₂
/// buckets: every value is a bucket bound, so the summary is an exact
/// deterministic function of the bucket counts (within the ~2×
/// resolution the buckets provide) — no sample retention, no
/// interpolation, byte-stable across re-renders.
///
/// `p50`/`p90`/`p99` and `max` report the *upper* bound of the bucket
/// holding that rank; `min` reports the *lower* bound of the first
/// non-empty bucket. All fields are 0 when no samples were recorded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QuantileSummary {
    /// Number of samples the summary covers.
    pub count: u64,
    /// Lower bound of the first non-empty bucket.
    pub min: u64,
    /// Upper bound of the last non-empty bucket.
    pub max: u64,
    /// Upper bound of the bucket holding the 50th-percentile sample.
    pub p50: u64,
    /// Upper bound of the bucket holding the 90th-percentile sample.
    pub p90: u64,
    /// Upper bound of the bucket holding the 99th-percentile sample.
    pub p99: u64,
}

impl QuantileSummary {
    /// Derives the summary from raw log₂ bucket counts. Buckets beyond
    /// `buckets.len()` count as empty, so callers holding fewer than
    /// [`HISTOGRAM_BUCKETS`] trailing buckets (elided zeros) work too.
    /// Counts come from documents as well as live histograms, so the
    /// total saturates instead of overflowing.
    pub fn from_buckets(buckets: &[u64]) -> QuantileSummary {
        let count = buckets.iter().fold(0u64, |total, &c| total.saturating_add(c));
        if count == 0 {
            return QuantileSummary::default();
        }
        let first = buckets.iter().position(|&c| c > 0).unwrap_or(0);
        let last = buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
        let rank_bound = |q_num: u128, q_den: u128| {
            // The bucket holding the ceil(q * count)-th sample (1-based).
            let rank = (u128::from(count) * q_num).div_ceil(q_den).max(1);
            let mut cumulative = 0u128;
            for (i, &c) in buckets.iter().enumerate() {
                cumulative += u128::from(c);
                if cumulative >= rank {
                    return Histogram::bucket_bound(i);
                }
            }
            Histogram::bucket_bound(last)
        };
        QuantileSummary {
            count,
            min: if first == 0 { 0 } else { 1u64 << (first - 1) },
            max: Histogram::bucket_bound(last),
            p50: rank_bound(1, 2),
            p90: rank_bound(9, 10),
            p99: rank_bound(99, 100),
        }
    }

    /// Document keys, in order.
    const KEYS: [&'static str; 6] = ["p50", "p90", "p99", "min", "max", "count"];

    pub(crate) fn fields(&self) -> Vec<(&'static str, Json)> {
        let values = [self.p50, self.p90, self.p99, self.min, self.max, self.count];
        Self::KEYS.into_iter().zip(values.map(Json::int_saturating)).collect()
    }

    /// `{p50, p90, p99, min, max, count}`: the block `campaign watch
    /// --json` carries.
    pub fn to_json(&self) -> Json {
        Json::obj(self.fields())
    }

    /// Reads [`QuantileSummary::to_json`] back: an absent field is 0,
    /// anything but an object is `None`.
    pub fn from_json(doc: &Json) -> Option<QuantileSummary> {
        let Json::Obj(_) = doc else { return None };
        let field = |name| doc.get(name).and_then(Json::as_u64).unwrap_or(0);
        let [p50, p90, p99, min, max, count] = Self::KEYS.map(field);
        Some(QuantileSummary { count, min, max, p50, p90, p99 })
    }
}

impl HistogramSnapshot {
    fn take(h: &Histogram) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (i, b) in buckets.iter_mut().enumerate() {
            *b = h.bucket(i);
        }
        HistogramSnapshot { count: h.count(), sum: h.sum(), buckets }
    }

    fn delta(&self, base: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (i, b) in buckets.iter_mut().enumerate() {
            *b = self.buckets[i].saturating_sub(base.buckets[i]);
        }
        HistogramSnapshot {
            count: self.count.saturating_sub(base.count),
            sum: self.sum.saturating_sub(base.sum),
            buckets,
        }
    }

    /// Mean sample value, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The bucket-derived quantile summary of this view.
    pub fn quantiles(&self) -> QuantileSummary {
        QuantileSummary::from_buckets(&self.buckets)
    }
}

/// A frozen view of the whole catalog, in stable (declaration) order.
///
/// `Snapshot::take()` at run start plus [`Snapshot::delta`] at run end
/// scopes process-wide totals to one run — how manifests stay accurate
/// when several runs share a process (tests, long-lived workers).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, total)` per counter.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` per gauge.
    pub gauges: Vec<(&'static str, u64)>,
    /// `(name, view)` per histogram.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
}

impl Snapshot {
    /// Captures the catalog now.
    pub fn take() -> Snapshot {
        let m = metrics();
        let mut counters = Vec::new();
        m.visit_counters(&mut |name, c| counters.push((name, c.get())));
        let mut gauges = Vec::new();
        m.visit_gauges(&mut |name, g: &Gauge| gauges.push((name, g.get())));
        let mut histograms = Vec::new();
        m.visit_histograms(&mut |name, h| histograms.push((name, HistogramSnapshot::take(h))));
        Snapshot { counters, gauges, histograms }
    }

    /// The change since `base`: counters and histograms subtract
    /// (saturating); gauges keep their current value.
    pub fn delta(&self, base: &Snapshot) -> Snapshot {
        debug_assert_eq!(self.counters.len(), base.counters.len());
        Snapshot {
            counters: self
                .counters
                .iter()
                .zip(&base.counters)
                .map(|(&(name, now), &(_, then))| (name, now.saturating_sub(then)))
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .zip(&base.histograms)
                .map(|((name, now), (_, then))| (*name, now.delta(then)))
                .collect(),
        }
    }

    /// Value of the named counter (0 if unknown).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v)
    }

    /// View of the named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }

    /// Renders the snapshot as Prometheus text exposition. Counters get
    /// a `ccsim_` prefix and `_total` suffix; histogram buckets are
    /// cumulative with `le` = the bucket's inclusive upper bound, and
    /// empty trailing buckets are elided before the `+Inf` bucket.
    pub fn exposition(&self) -> String {
        let mut out = String::new();
        for &(name, v) in &self.counters {
            out.push_str(&format!("# TYPE ccsim_{name}_total counter\nccsim_{name}_total {v}\n"));
        }
        for &(name, v) in &self.gauges {
            out.push_str(&format!("# TYPE ccsim_{name} gauge\nccsim_{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("# TYPE ccsim_{name} histogram\n"));
            let last = h.buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
            let mut cumulative = 0u64;
            for (i, &c) in h.buckets.iter().enumerate().take(last + 1) {
                cumulative += c;
                let le = Histogram::bucket_bound(i);
                out.push_str(&format!("ccsim_{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!(
                "ccsim_{name}_bucket{{le=\"+Inf\"}} {count}\nccsim_{name}_sum {sum}\nccsim_{name}_count {count}\n",
                count = h.count,
                sum = h.sum,
            ));
            // Pre-computed quantile gauges (bucket-bound estimates) so
            // scrape-side tooling gets p50/p90/p99 without re-deriving
            // them from the bucket series.
            let q = h.quantiles();
            out.push_str(&format!("# TYPE ccsim_{name}_quantile gauge\n"));
            for (label, v) in [("0.5", q.p50), ("0.9", q.p90), ("0.99", q.p99)] {
                out.push_str(&format!("ccsim_{name}_quantile{{q=\"{label}\"}} {v}\n"));
            }
        }
        out
    }
}

/// Writes the current catalog as Prometheus text exposition to `path`
/// (the `--metrics-out` sink).
pub fn write_exposition(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, Snapshot::take().exposition())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::enabled_lock;

    #[test]
    fn delta_subtracts_counters_and_histograms() {
        let _guard = enabled_lock();
        let base = Snapshot::take();
        metrics().sim_runs.add(3);
        metrics().sim_wall_ns.record(100);
        let now = Snapshot::take();
        let d = now.delta(&base);
        assert!(d.counter("sim_runs") >= 3);
        let h = d.histogram("sim_wall_ns").unwrap();
        assert!(h.count >= 1);
        assert!(h.sum >= 100);
        assert!(d.histogram("no_such_metric").is_none());
    }

    #[test]
    fn exposition_is_prometheus_shaped() {
        let _guard = enabled_lock();
        metrics().cache_hits.inc();
        metrics().cache_ensure_ns.record(1000);
        let text = Snapshot::take().exposition();
        assert!(text.contains("# TYPE ccsim_cache_hits_total counter\n"));
        assert!(text.contains("# TYPE ccsim_cache_ensure_ns histogram\n"));
        assert!(text.contains("ccsim_cache_ensure_ns_bucket{le=\"+Inf\"}"));
        assert!(text.contains("ccsim_cache_ensure_ns_sum"));
        // Cumulative buckets: the +Inf bucket equals the count line.
        let count_line =
            text.lines().find(|l| l.starts_with("ccsim_cache_ensure_ns_count ")).unwrap();
        let inf_line = text
            .lines()
            .find(|l| l.starts_with("ccsim_cache_ensure_ns_bucket{le=\"+Inf\"}"))
            .unwrap();
        let count: u64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
        let inf: u64 = inf_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert_eq!(count, inf);
        // Quantile gauges ride along, one per tracked percentile.
        assert!(text.contains("# TYPE ccsim_cache_ensure_ns_quantile gauge\n"));
        for q in ["0.5", "0.9", "0.99"] {
            assert!(
                text.contains(&format!("ccsim_cache_ensure_ns_quantile{{q=\"{q}\"}} ")),
                "missing quantile {q}: {text}"
            );
        }
    }

    #[test]
    fn quantiles_are_bucket_bound_estimates() {
        // Empty histogram: all zeros.
        assert_eq!(QuantileSummary::from_buckets(&[0u64; 4]), QuantileSummary::default());
        // 100 samples in bucket 3 ([4, 7]), 1 outlier in bucket 10
        // ([512, 1023]): p50/p90 land in bucket 3, p99 still in bucket 3
        // (rank 100 of 101), max reports the outlier's bucket bound.
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        buckets[3] = 100;
        buckets[10] = 1;
        let q = QuantileSummary::from_buckets(&buckets);
        assert_eq!(q.count, 101);
        assert_eq!(q.min, 4, "lower bound of bucket 3");
        assert_eq!(q.max, 1023, "upper bound of bucket 10");
        assert_eq!(q.p50, 7);
        assert_eq!(q.p90, 7);
        assert_eq!(q.p99, 7, "rank ceil(0.99*101)=100 is the last bucket-3 sample");
        // Bucket 0 (zero samples) keeps min at 0.
        let mut zeros = [0u64; HISTOGRAM_BUCKETS];
        zeros[0] = 10;
        let q = QuantileSummary::from_buckets(&zeros);
        assert_eq!((q.min, q.max, q.p50, q.p99), (0, 0, 0, 0));
        // A single sample pins every percentile to its bucket.
        let q = QuantileSummary::from_buckets(&[0, 0, 1]);
        assert_eq!((q.count, q.min, q.max, q.p50, q.p90, q.p99), (1, 2, 3, 3, 3, 3));
        // Snapshot wiring: record through a live histogram.
        let _guard = enabled_lock();
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(1000);
        }
        let q = HistogramSnapshot::take(&h).quantiles();
        assert_eq!(q.count, 10);
        assert_eq!(q.p50, 1023);
        assert_eq!(q.min, 512);
    }
}
