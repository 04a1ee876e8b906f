//! In-memory spans around the harness's calls into each layer.
//!
//! Spans are recorded from *outside* the measured crates: one per call
//! the harness makes into a layer's public function, nested under the rep
//! that made it. They stay in memory until the run ends and are then
//! written as JSON. End-to-end metrics always come from a run with the
//! tracer off; the traced run exists for the per-layer numbers, and the
//! difference between the two is reported as the tracing overhead.

use std::collections::BTreeMap;
use std::time::Instant;

use ccsim_campaign::Json;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index into [`Tracer::spans`].
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// Layer (crate) called into, or `bench` for the harness itself.
    pub layer: &'static str,
    /// The function called.
    pub op: String,
    /// Workload the call belongs to.
    pub workload: &'static str,
    /// Timed rep number, or -1 for checks and ladder rungs.
    pub rep: i32,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time covered.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. A disabled tracer runs the wrapped calls and records
/// nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Workload stamped on new spans.
    pub workload: &'static str,
    /// Rep stamped on new spans.
    pub rep: i32,
}

impl Tracer {
    /// A tracer that records (`true`) or only forwards calls (`false`).
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            workload: "",
            rep: -1,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span named `layer`/`op`; spans opened by `f`
    /// through the tracer it is handed become children.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        op: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            layer,
            op: op.to_owned(),
            workload: self.workload,
            rep: self.rep,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover (children of one parent never overlap — the harness is
/// single-threaded).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &mut own[parent as usize];
            *p = p.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Self seconds of `workload`'s spans summed per `layer.op`.
pub fn self_seconds_by_op(spans: &[Span], workload: &str) -> BTreeMap<String, f64> {
    let mut by_op = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        if span.workload == workload {
            *by_op.entry(format!("{}.{}", span.layer, span.op)).or_insert(0.0) += own as f64 / 1e9;
        }
    }
    by_op
}

/// `workload`'s spans as a JSON array (the `spans-<workload>.json` file).
pub fn spans_to_json(spans: &[Span], workload: &str) -> Json {
    let items = spans
        .iter()
        .filter(|s| s.workload == workload)
        .map(|s| {
            Json::obj(vec![
                ("id", Json::int(s.id.into())),
                ("parent", s.parent.map_or(Json::Null, |p| Json::int(p.into()))),
                ("layer", Json::str(s.layer)),
                ("op", Json::str(&*s.op)),
                ("workload", Json::str(s.workload)),
                ("rep", Json::Num(s.rep.into())),
                ("start_ns", Json::int(s.start_ns)),
                ("end_ns", Json::int(s.end_ns)),
            ])
        })
        .collect();
    Json::Arr(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            layer: "core",
            op: format!("op{id}"),
            workload: "w",
            rep: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // 0 [0,100) ─┬ 1 [10,40) ── 3 [15,25)
        //            └ 2 [50,90)
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 50, 90),
            span(3, Some(1), 15, 25),
        ];
        assert_eq!(self_times_ns(&spans), [30, 20, 40, 10]);
        // Self times partition the root's wall time.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_stamps_spans() {
        let mut t = Tracer::new(true);
        t.workload = "w";
        t.rep = 2;
        let v = t.span("bench", "rep", |t| t.span("core", "simulate", |_| 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].workload, spans[1].rep), ("w", 2));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let by_op = self_seconds_by_op(spans, "w");
        assert_eq!(by_op.keys().collect::<Vec<_>>(), ["bench.rep", "core.simulate"]);
        assert!(self_seconds_by_op(spans, "other").is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("core", "simulate", |_| 1), 1);
        assert!(t.spans().is_empty());
    }
}
