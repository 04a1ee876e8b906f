//! # ccsim-trace
//!
//! Memory-access traces for the ccsim cache-characterization suite.
//!
//! This crate provides everything needed to *produce*, *persist* and
//! *characterize* the instruction/memory traces that drive the simulator in
//! `ccsim-core`:
//!
//! * [`TraceRecord`] / [`Trace`] — the compact trace representation: one
//!   record per memory instruction, with interleaved non-memory instruction
//!   counts so MPKI and IPC can be computed.
//! * [`TraceBuffer`] — incremental construction, in memory or streamed
//!   to a `CCTR` file chunk by chunk.
//! * [`TraceArena`] / [`TracedVec`] — an instrumented-execution layer that
//!   plays the role of a PIN-style tracer: real algorithms (the GAP graph
//!   kernels in `ccsim-graph`) run against arena-allocated arrays and every
//!   load/store is captured with a static pseudo-PC.
//! * [`synth`] — reusable synthetic pattern primitives (streams, pointer
//!   chases, Zipf random access, stack frames, binary-search probes) from
//!   which the SPEC/XSBench/Qualcomm workload proxies are assembled.
//! * [`stats`] — footprint, PC-diversity and reuse-distance
//!   characterization.
//! * [`write_trace`] / [`read_trace`] — binary serialization.
//!
//! # Example
//!
//! ```
//! use ccsim_trace::{stats::TraceStats, synth::{PatternGen, SequentialStream}, TraceBuffer};
//!
//! let mut buf = TraceBuffer::new("stream");
//! SequentialStream::new(0x1000_0000, 1 << 16).laps(2).emit(&mut buf);
//! let trace = buf.finish();
//! let stats = TraceStats::compute(&trace);
//! assert_eq!(stats.footprint_bytes, 1 << 16);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arena;
mod buffer;
mod error;
mod io;
mod record;
pub mod stats;
pub mod synth;

pub use arena::{Pc, TraceArena, TraceScalar, TracedVec};
pub use buffer::{TraceBuffer, WrittenTrace};
pub use error::DecodeTraceError;
pub use io::{
    read_trace, read_trace_header, write_trace, TraceHeader, TraceReader, TraceWriter,
    MAGIC as CCTR_MAGIC, VERSION as CCTR_VERSION,
};
pub use record::{AccessKind, Trace, TraceRecord};

/// log2 of the cache block size.
pub const BLOCK_SHIFT: u32 = 6;
/// Cache block size in bytes (64, as on all modern x86 parts).
pub const BLOCK_BYTES: u64 = 1 << BLOCK_SHIFT;
