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
//! One [`TrendEntry`] per revision is `rev / label / timestamp` plus
//! one ordered list of `(series name, value)` pairs, read from up to
//! three machine-readable documents the workspace already emits
//! ([`ingest`]), in this order:
//!
//! * the result document `benchmark/run.sh [--smoke] [--traced] --out F`
//!   writes (`ccsim_benchmark` schema) — per-workload records/sec and,
//!   from a traced run, the telemetry overhead and the cold campaign's
//!   wall-clock split; smoke and full-scale runs are separate series
//!   (`bench.smoke/…` vs `bench/…`);
//! * `ccsim campaign watch --once --json` (`ccsim_obs` schema) — fleet
//!   throughput and per-cell sim-time p99 over every manifest of a
//!   shared dir or a solo campaign's `--out` dir;
//! * `ccsim report-diff --json` (`ccsim_report_diff` schema) —
//!   golden-campaign MPKI drift.
//!
//! A quantity a document does not carry is no series, never a zero.
//! [`check::kind_of`] is the one place that knows a series' gate rule.
//! [`table::render_table`] turns the last N entries into a
//! byte-deterministic table with unicode sparklines;
//! [`check::run_check`] is the regression gate: each gated series is
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

pub use check::{kind_of, run_check, CheckOptions, CheckVerdict, SeriesKind, SeriesVerdict};
pub use entry::TrendEntry;
pub use ingest::{bench_series, diff_series, watch_series, SeriesList};
pub use ledger::Ledger;
pub use table::render_table;

/// Version of the `trends.jsonl` ledger entry schema (the
/// `ccsim_trends` field every line leads with). Version 2 stores a
/// series list; a version-1 line is an error, not a second reader.
pub const TRENDS_SCHEMA_VERSION: u64 = 2;

/// Version of the `trends check --json` verdict schema (the
/// `ccsim_trends_check` field).
pub const CHECK_SCHEMA_VERSION: u64 = 1;

/// The default ledger file name under a trends directory.
pub const LEDGER_FILE: &str = "trends.jsonl";
