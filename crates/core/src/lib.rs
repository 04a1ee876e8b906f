//! # ccsim-core
//!
//! A trace-driven cache-hierarchy simulator in the spirit of ChampSim,
//! modelling the paper's experimental platform: one Cascade Lake-like
//! out-of-order core, a three-level cache hierarchy (32 KB L1D, 1 MB L2,
//! 1.375 MB 11-way LLC) and DDR4-2933 DRAM with banked row buffers. The LLC
//! replacement policy is pluggable (any [`ccsim_policies::PolicyKind`]);
//! L1D and L2 use LRU.
//!
//! The crate also hosts the grid replay driver and the job pool the
//! campaign engine shards sweeps over ([`experiment`]), plus the
//! geometric-mean speed-up helpers. It is records in, [`SimResult`] out:
//! tables and JSON are rendered by `ccsim-obs`.
//!
//! # Example
//!
//! ```
//! use ccsim_core::{simulate, SimConfig};
//! use ccsim_policies::PolicyKind;
//! use ccsim_trace::{synth::{PatternGen, RandomAccess}, TraceBuffer};
//!
//! let mut buf = TraceBuffer::new("random");
//! RandomAccess::new(0x1000_0000, 1 << 16, 64, 10_000).emit(&mut buf);
//! let trace = buf.finish();
//!
//! let lru = simulate(&trace, &SimConfig::cascade_lake(), PolicyKind::Lru);
//! let hawkeye = simulate(&trace, &SimConfig::cascade_lake(), PolicyKind::Hawkeye);
//! println!("LRU ipc={:.3} Hawkeye ipc={:.3}", lru.ipc(), hawkeye.ipc());
//! ```

#![warn(missing_docs)]

pub mod cache;
mod config;
mod cpu;
pub mod dram;
pub mod experiment;
mod hierarchy;
mod result;
mod simulator;

pub use cache::{Cache, CacheStats, FillOutcome, TAG_INVALID};
pub use config::{
    CacheConfig, CoreConfig, DramConfig, LlcScaleError, SimConfig, MAX_MSHRS, MAX_WAYS,
};
pub use cpu::Core;
pub use dram::{Dram, DramStats};
pub use experiment::grid::{
    autotune_chunk_records, simulate_grid, simulate_grid_stream, GridReplay, DEFAULT_CHUNK_RECORDS,
    MAX_CHUNK_RECORDS,
};
pub use hierarchy::{Hierarchy, Level};
pub use result::{geomean, geomean_speedup_percent, SimResult};
pub use simulator::{llc_demand_stream, simulate, simulate_stream};
