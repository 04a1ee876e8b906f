//! # ccsim-campaign
//!
//! Declarative, resumable experiment campaigns for the ccsim suite.
//!
//! The paper's figures come from large (workload x policy x LLC-size)
//! sweeps. This crate turns those ad-hoc sweeps into first-class jobs:
//!
//! * [`CampaignSpec`] — a JSON-parsable description of the full grid
//!   (workload selectors with scale, policies, config variants), so
//!   campaigns can be checked into the repo (`campaigns/*.json`);
//!   selectors cover synthetic workloads, `suite:` expansions, and
//!   external `trace:<path>` files (ChampSim/CVP/CCTR, decoded by
//!   `ccsim-ingest` on first use);
//! * [`TraceCache`] — an on-disk content-addressed store keyed by
//!   (workload, scale, synthesis seed, trace-format version) for
//!   synthetic traces and by (source digest, format, ingest options,
//!   trace-format version) for ingested ones, generating/converting each
//!   trace once and sharing it across every cell, campaign and run;
//! * [`Campaign`] — the engine: per-cell checkpointing to a [`Journal`]
//!   so an interrupted campaign resumes without redoing completed cells,
//!   with each workload's cells sharded over the work-stealing pool
//!   ([`ccsim_core::experiment::run_jobs`]), one lockstep trace pass per
//!   shard — the workspace's one sweep driver; [`Campaign::plan`]
//!   predicts a run cell-by-cell without simulating (`--dry-run`);
//! * [`CampaignReport`] — deterministic JSON / CSV / pretty-table output:
//!   same spec and seed, byte-identical report, interrupted or not,
//!   with the paper's Figure 2 / Figure 3 view chosen from the grid
//!   ([`CampaignReport::paper_views`]) — plus [`ReportDiff`] for
//!   cross-campaign regression hunting.
//!
//! Every figure grid is a checked-in spec (`campaigns/*.json`); `ccsim
//! campaign` and `ccsim sim` in the CLI are thin wrappers over this crate.
//!
//! # Example
//!
//! ```
//! use ccsim_campaign::{Campaign, CampaignSpec};
//!
//! let spec = CampaignSpec::from_json_str(r#"{
//!     "name": "demo",
//!     "base_config": "tiny",
//!     "workloads": ["xsbench.small"],
//!     "policies": ["lru", "srrip"]
//! }"#).unwrap();
//! let outcome = Campaign::new(spec).threads(2).run().unwrap();
//! assert_eq!(outcome.report.cells.len(), 2);
//! let json = outcome.report.to_json_string();
//! assert!(json.contains("\"schema_version\": 2"));
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod diff;
pub mod journal;
pub mod report;
pub mod runner;
pub mod spec;

pub use cache::TraceCache;
pub use diff::{DiffCell, ReportDiff};
pub use journal::{merge_dir, Journal, MergedJournal};
pub use report::{CampaignCell, CampaignReport, RawCell, REPORT_SCHEMA_VERSION};
pub use runner::{
    AcquiredTrace, Campaign, CampaignGrid, CampaignOutcome, CampaignPlan, CellStatus, GridCell,
    PlanCell,
};
pub use spec::{BaseConfig, CampaignSpec};

/// The workspace JSON module (it lives in the leaf crate), under its old path.
pub use ccsim_obs::json;
pub use json::{Json, JsonError};
