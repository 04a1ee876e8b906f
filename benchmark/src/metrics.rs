//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and (end-to-end only) regression bound. `BENCHMARK.json` at
//! the repo root lists the same names; a test keeps the two in step.

use std::collections::BTreeMap;

use ccsim_policies::PolicyKind;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Dotted name; the first segment is the layer.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// Policies of the `gap_miss` units (and of the per-policy layer metrics).
pub const GAP_POLICIES: [PolicyKind; 5] = [
    PolicyKind::Lru,
    PolicyKind::Srrip,
    PolicyKind::Hawkeye,
    PolicyKind::Glider,
    PolicyKind::Mpppb,
];

/// The two regimes the cost model is built for: `gap_miss`'s and
/// `hit_resident`'s LRU cell.
pub const REGIMES: [&str; 2] = ["gap", "hit"];

/// The end-to-end metrics, reported per workload by an untraced run.
pub fn end_to_end() -> Vec<MetricDef> {
    let def = |name: &str, unit, better, bound| MetricDef {
        name: name.to_owned(),
        unit,
        better,
        bound: Some(bound),
    };
    vec![
        def("records_per_s", "1/s", Better::Higher, 0.25),
        def("peak_heap_mb", "MB", Better::Lower, 0.02),
        def("setup_s", "s", Better::Lower, 0.25),
    ]
}

/// The per-layer metrics, reported by a traced run.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut defs = Vec::new();
    let mut def =
        |name: String, unit, better| defs.push(MetricDef { name, unit, better, bound: None });
    for (name, unit) in [
        ("trace.decode_ns_per_record", "ns"),
        ("trace.read_trace_ns_per_record", "ns"),
        ("trace.encode_ns_per_record", "ns"),
        ("trace.bytes_per_record", "B"),
        ("graph.generate_ns_per_edge", "ns"),
        ("graph.traced_kernel_ns_per_record", "ns"),
        ("workloads.build_ns_per_record", "ns"),
        ("ingest.ns_per_instr", "ns"),
        ("ingest.digest_ns_per_byte", "ns"),
    ] {
        def(name.to_owned(), unit, Lower);
    }
    def("ingest.instrs".to_owned(), "count", Higher);
    def("ingest.records_out".to_owned(), "count", Higher);
    def("ingest.operands_clamped".to_owned(), "count", Lower);
    for p in GAP_POLICIES {
        def(format!("policies.{p}.cell_ns_per_record"), "ns", Lower);
        def(format!("policies.{p}.llc_direct_ns_per_access"), "ns", Lower);
        def(format!("policies.{p}.llc_hit_ratio"), "ratio", Higher);
    }
    for name in [
        "core.cache.probe_ns",
        "core.cache.lookup_hit_ns",
        "core.cache.fill_evict_ns",
        "core.mshr.pending_ns",
        "core.mshr.acquire_complete_ns",
        "core.cpu.dispatch_mem_ns",
        "core.cpu.dispatch_nonmem_ns",
        "core.dram.access_ns",
    ] {
        def(name.to_owned(), "ns", Lower);
    }
    for regime in REGIMES {
        def(format!("core.hierarchy.demand_access_ns.{regime}"), "ns", Lower);
        def(format!("core.simulate_ns_per_record.{regime}"), "ns", Lower);
        def(format!("core.cpu.self_ns_per_record.{regime}"), "ns", Lower);
    }
    def("core.grid.ns_per_cell_record".to_owned(), "ns", Lower);
    def("core.grid.vs_single_ratio".to_owned(), "ratio", Lower);
    def("core.grid.chunk_records".to_owned(), "count", Higher);
    def("core.grid.hot_state_mb".to_owned(), "MB", Lower);
    for regime in REGIMES {
        for (name, unit, better) in [
            ("l1d_mpki", "1/kinstr", Lower),
            ("l2_mpki", "1/kinstr", Lower),
            ("llc_mpki", "1/kinstr", Lower),
            ("dram_reach_pct", "%", Lower),
            ("dram_row_hit_pct", "%", Higher),
            ("ipc", "instr/cycle", Higher),
        ] {
            def(format!("core.model.{name}.{regime}"), unit, better);
        }
        def(format!("core.model_residual_pct.{regime}"), "%", Lower);
    }
    for (name, unit, better) in [
        ("campaign.acquire_s", "s", Lower),
        ("campaign.acquire_hit_s", "s", Lower),
        ("campaign.simulate_s", "s", Lower),
        ("campaign.journal.record_us_per_cell", "us", Lower),
        ("campaign.journal.resume_ms", "ms", Lower),
        ("campaign.report.build_ms", "ms", Lower),
        ("campaign.report.json_bytes", "B", Lower),
        ("campaign.cache.bytes_written", "B", Lower),
        ("campaign.nonsim_share_pct", "%", Lower),
        ("campaign.cells", "count", Higher),
        ("campaign.cache_misses", "count", Lower),
        ("campaign.cache_hits", "count", Higher),
        ("campaign.cells_resumed", "count", Higher),
        ("obs.overhead_pct", "%", Lower),
        ("bench.trace_overhead_pct", "%", Lower),
    ] {
        def(name.to_owned(), unit, better);
    }
    defs
}

/// Counts that must read 0 — printed as invariants and verified as checks
/// rather than listed as metrics, which may never be 0.
pub const INVARIANTS: [&str; 2] = ["core.steady_allocs_per_record", "ingest.skipped"];

/// Measured per-layer values (and invariants) by name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_campaign::Json;

    /// The driver's rule for a name: letters, digits, `_`, `.` and `-`,
    /// starting with a letter or digit, at most 64 characters.
    fn is_valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in end_to_end().iter().chain(&per_layer()) {
            assert!(is_valid_name(&m.name), "{}", m.name);
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
        }
        for name in INVARIANTS {
            assert!(is_valid_name(name) && seen.insert(name.to_owned()), "{name}");
        }
        assert!(per_layer().len() <= 128);
        assert!(!is_valid_name(".x") && !is_valid_name("a b") && !is_valid_name(""));
    }

    #[test]
    fn bounds_stay_within_the_contract() {
        for m in end_to_end() {
            let bound = m.bound.expect("end-to-end metrics are bounded");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end().into_iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(end_to_end().iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is what the driver reads; this catalogue is what
    /// the binary prints. They must name the same metrics.
    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        type Row = (String, String, String, Option<f64>);
        let listed = |key: &str| -> Vec<Row> {
            let text = |m: &Json, field: &str| {
                m.get(field).and_then(Json::as_str).unwrap_or_else(|| panic!("{field}")).to_owned()
            };
            doc.get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    (
                        text(m, "name"),
                        text(m, "unit"),
                        text(m, "better"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let ours = |defs: Vec<MetricDef>| -> Vec<Row> {
            defs.into_iter()
                .map(|d| (d.name, d.unit.to_owned(), d.better.name().to_owned(), d.bound))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(end_to_end()));
        assert_eq!(listed("per_layer"), ours(per_layer()));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name").to_owned())
            .collect();
        assert_eq!(workloads, crate::workloads::Workload::ALL.map(|w| w.name()));
    }
}
