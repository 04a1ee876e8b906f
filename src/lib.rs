//! # ccsim
//!
//! A trace-driven cache-hierarchy simulation suite reproducing
//! *"Characterizing the impact of last-level cache replacement policies on
//! big-data workloads"* (IISWC 2020).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`trace`] — trace records, the instrumented-execution arena, synthetic
//!   pattern generators and trace statistics;
//! * [`graph`] — CSR graphs, GAP input-graph generators and the six GAP
//!   kernels (reference + instrumented);
//! * [`policies`] — LRU, SRRIP, DRRIP, SHiP, Hawkeye, Glider and MPPPB
//!   behind ChampSim-style hooks, plus an offline Belady oracle;
//! * [`core`] — the cache-hierarchy simulator (Cascade Lake-like core,
//!   three cache levels, DDR4 DRAM), the one-pass grid replay driver and
//!   the job pool sweeps shard over: records in, `SimResult` out;
//! * [`workloads`] — the four benchmark suites of the paper (GAP, SPEC-,
//!   XSBench- and Qualcomm-like proxies);
//! * [`ingest`] — streaming ingestion of external simulator traces
//!   (ChampSim, CVP) into the native `CCTR` format;
//! * [`campaign`] — declarative, resumable experiment campaigns with an
//!   on-disk trace cache (synthetic and ingested), dry-run planning,
//!   deterministic JSON/CSV reports and cross-campaign diffing. Its band
//!   executor is the one sweep driver: `ccsim sim` and every figure grid
//!   (`campaigns/*.json`, Figure 2 / Figure 3 views) run through it;
//! * [`dist`] — coordinator-free distributed campaign execution:
//!   lease-based workload-band claiming over a shared filesystem (each
//!   claim is one one-pass grid replay), per-worker journal segments,
//!   crash healing, and byte-identical report assembly from any worker
//!   set;
//! * [`obs`] — the zero-allocation telemetry core: a process-wide
//!   metric catalog (atomic counters, gauges, log-bucketed
//!   histograms with quantile summaries, span timers) feeding per-run
//!   JSONL event logs, run manifests and Prometheus-style exposition,
//!   all consumed by `ccsim campaign watch` — and the workspace's
//!   presentation layer: the one JSON module (`obs::json`, which
//!   `campaign::json` re-exports) and the one ASCII/CSV `obs::Table`.
//!
//! # Quickstart
//!
//! ```
//! use ccsim::prelude::*;
//!
//! // Build a graph workload trace and compare two LLC policies.
//! let g = ccsim::graph::generators::kronecker(10, 8, 42);
//! let (trace, _) = ccsim::graph::traced::bfs(&g, 0);
//! let config = SimConfig::cascade_lake();
//! let lru = simulate(&trace, &config, PolicyKind::Lru);
//! let hawkeye = simulate(&trace, &config, PolicyKind::Hawkeye);
//! println!("hawkeye speedup over lru: {:+.2}%", hawkeye.speedup_over(&lru));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use ccsim_campaign as campaign;
pub use ccsim_core as core;
pub use ccsim_dist as dist;
pub use ccsim_graph as graph;
pub use ccsim_ingest as ingest;
pub use ccsim_obs as obs;
pub use ccsim_policies as policies;
pub use ccsim_trace as trace;
pub use ccsim_workloads as workloads;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use ccsim_campaign::{Campaign, CampaignReport, CampaignSpec, TraceCache};
    pub use ccsim_core::{
        geomean, geomean_speedup_percent, simulate, simulate_grid, simulate_grid_stream,
        simulate_stream, GridReplay, SimConfig, SimResult,
    };
    pub use ccsim_graph::Graph;
    pub use ccsim_ingest::{IngestOptions, SourceFormat};
    pub use ccsim_policies::{PolicyKind, ReplacementPolicy};
    pub use ccsim_trace::{Trace, TraceArena, TraceBuffer};
    pub use ccsim_workloads::{GapWorkload, Suite, SuiteScale};
}
