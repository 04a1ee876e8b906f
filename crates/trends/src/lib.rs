//! # ccsim-trends
//!
//! Cross-revision performance ledger and regression gates
//! (`ccsim trends record|table|check|gc`).
//!
//! The paper's contribution is *longitudinal* characterization — policy
//! behavior tracked across workloads and LLC scales — and this crate
//! applies the same discipline to the simulator itself: every measured
//! revision appends one entry to an append-only, schema-versioned
//! JSONL ledger (`trends.jsonl`), and tables/gates are pure functions
//! of that ledger.
//!
//! One [`TrendEntry`] per revision ingests up to four machine-readable
//! documents the workspace already emits:
//!
//! * the result document `benchmark/run.sh [--smoke] [--traced] --out F`
//!   writes (`ccsim_benchmark` schema, [`ingest::BenchSummary`]) —
//!   records/sec per timed unit of the four workloads, the cold
//!   campaign's wall-clock split, telemetry overhead gate; smoke and
//!   full-scale runs are tracked as separate series
//!   (`bench.smoke/…` vs `bench/…`);
//! * `ccsim report-diff --json` (`ccsim_report_diff` schema,
//!   [`ingest::DiffSummary`]) — golden-campaign MPKI drift;
//! * per-worker obs manifests (`ccsim_obs` schema, read by
//!   [`ccsim_obs::Manifest::from_json`] and distilled into
//!   [`ingest::ManifestSummary`]) — fleet throughput and per-cell
//!   sim-time quantiles;
//! * `ccsim campaign watch --once --json` (`ccsim_obs` schema,
//!   [`ingest::WatchSummary`]) — the aggregate fleet view.
//!
//! [`table::render_table`] turns the last N entries into a
//! byte-deterministic per-suite rollup table with unicode sparklines;
//! [`check::run_check`] is the regression gate: each tracked series is
//! compared against the rolling median of the previous K entries and
//! the verdict serializes to a pinned schema
//! ([`CHECK_SCHEMA_VERSION`]) with a non-zero CLI exit on failure.
//!
//! Ledger durability contract ([`ledger`]): appends are single
//! `write`s of one line; readers tolerate a torn final line (a crashed
//! writer) but fail loudly on corruption anywhere else; `gc` compacts
//! through a temp file + atomic rename, preserving surviving lines
//! byte-for-byte.

#![warn(missing_docs)]

pub mod check;
pub mod entry;
pub mod ingest;
pub mod ledger;
pub mod table;

pub use check::{run_check, CheckOptions, CheckVerdict, SeriesKind, SeriesVerdict};
pub use entry::TrendEntry;
pub use ingest::{BenchCellSummary, BenchSummary, DiffSummary, ManifestSummary, WatchSummary};
pub use ledger::Ledger;
pub use table::render_table;

/// Version of the `trends.jsonl` ledger entry schema (the
/// `ccsim_trends` field every line leads with).
pub const TRENDS_SCHEMA_VERSION: u64 = 1;

/// Version of the `trends check --json` verdict schema (the
/// `ccsim_trends_check` field).
pub const CHECK_SCHEMA_VERSION: u64 = 1;

/// The default ledger file name under a trends directory.
pub const LEDGER_FILE: &str = "trends.jsonl";
