//! # ccsim-ingest
//!
//! Streaming ingestion of external simulator trace formats into the
//! native `CCTR` representation.
//!
//! The paper's characterization runs on *real* traces (GAP, SPEC CPU2017,
//! XSBench, Qualcomm server traces) distributed in ChampSim-style
//! formats. This crate is the gateway that lets those files drive the
//! ccsim pipeline:
//!
//! * [`SourceFormat`] — the formats we decode: the ChampSim instruction
//!   trace (64-byte fixed records), a CVP-style per-instruction
//!   load/store format, and pass-through `CCTR`; with auto-detection
//!   from magic bytes and structural heuristics ([`SourceFormat::detect`]).
//! * [`ingest`] (reader to writer), [`ingest_file`] (path to path) and
//!   [`ingest_file_observed`] (path to an optional path, with a
//!   per-record observer) — three entry points over one fold. The fold
//!   decodes one instruction batch at a time, folds non-memory
//!   instructions into `nonmem_before` (splitting across records when
//!   the `u16` saturates, exactly like [`ccsim_trace::TraceBuffer`]),
//!   normalizes operand sizes to the 64-byte block invariant, and writes
//!   `CCTR` as it goes, so a multi-gigabyte trace never materializes.
//! * [`IngestOptions`] / [`IngestReport`] — strict/lossy error handling
//!   and exact accounting of what was decoded, folded, clamped or
//!   skipped.
//! * [`champsim::ChampSimWriter`] / [`cvp::CvpWriter`] — fixture
//!   *encoders*, used by the test suite and the repo's golden fixtures;
//!   production code only ever decodes.
//! * [`digest_file`] — the streaming content digest the campaign trace
//!   cache keys ingested conversions by; [`Fnv64`] — the byte-wise hash
//!   of short keys (cache filenames, spec digests, goldens).
//!
//! # Example
//!
//! ```
//! use ccsim_ingest::champsim::{ChampSimRecord, ChampSimWriter};
//! use ccsim_ingest::{ingest, IngestOptions};
//!
//! // Encode three ChampSim instructions: two ALU ops and one load.
//! let mut bytes = Vec::new();
//! let mut w = ChampSimWriter::new(&mut bytes);
//! w.write(&ChampSimRecord::nonmem(0x400000)).unwrap();
//! w.write(&ChampSimRecord::nonmem(0x400004)).unwrap();
//! w.write(&ChampSimRecord::load(0x400008, 0x7000_0000)).unwrap();
//!
//! let mut out = std::io::Cursor::new(Vec::new());
//! let report = ingest(&bytes[..], &mut out, &IngestOptions::default()).unwrap();
//! let trace = ccsim_trace::read_trace(&out.into_inner()[..]).unwrap();
//! assert_eq!(trace.len(), 1);
//! assert_eq!(trace.instructions(), 3);
//! assert_eq!(report.source_instructions, 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod champsim;
pub mod cvp;
mod digest;
mod error;
mod format;
mod pipeline;

pub use digest::{digest_file, Fnv64};
pub use error::IngestError;
pub use format::{detect_file, SourceFormat};
pub use pipeline::{ingest, ingest_file, ingest_file_observed, IngestOptions, IngestReport};
