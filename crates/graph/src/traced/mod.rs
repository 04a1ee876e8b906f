//! Instrumented GAP kernels: the same algorithms as [`crate::kernels`],
//! executed through a [`TraceArena`] so that every load and store of the
//! graph's data structures — the Offset Array (OA), Neighbours Array (NA)
//! and Property Arrays (PA) of the paper's Figure 1 — is recorded with a
//! static pseudo-PC per source access site.
//!
//! Each kernel returns both its *result* (verified against the reference
//! implementation by the test suite) and the captured
//! [`Trace`](ccsim_trace::Trace); its `_into` twin records into a
//! caller's [`TraceBuffer`] instead — in memory, or streamed to a file
//! chunk by chunk so no trace is ever resident. The small
//! number of distinct code sites per kernel (5-12) is not a modelling
//! shortcut: compiled GAP kernels genuinely concentrate their memory
//! traffic in a handful of instructions, which is the paper's central
//! explanation for why PC-correlating policies fail on them.

mod bc;
mod bfs;
mod cc;
mod pr;
mod sssp;
mod tc;

pub use bc::{betweenness, betweenness_into};
pub use bfs::{bfs, bfs_into};
pub use cc::{connected_components, connected_components_into};
pub use pr::{pagerank, pagerank_into};
pub use sssp::{sssp, sssp_into};
pub use tc::{triangle_count, triangle_count_into};

use ccsim_trace::{Pc, TraceArena, TraceBuffer, TracedVec};

use crate::Graph;

/// An arena recording into the caller's `buf`, which it takes for the
/// kernel's run: the kernel returns it with
/// `*buf = arena.into_buffer()`.
fn arena_over(buf: &mut TraceBuffer) -> TraceArena {
    TraceArena::with_buffer(std::mem::replace(buf, TraceBuffer::new("")))
}

/// A CSR graph laid out in a trace arena: loads of OA/NA/weights are
/// recorded at dedicated code sites.
#[derive(Debug)]
pub struct TracedCsr<'a> {
    arena: &'a TraceArena,
    oa: TracedVec<'a, u64>,
    na: TracedVec<'a, u32>,
    weights: Option<TracedVec<'a, u32>>,
    s_oa: Pc,
    s_na: Pc,
    s_w: Pc,
}

impl<'a> TracedCsr<'a> {
    /// Copies `g`'s CSR arrays into `arena`.
    pub fn new(arena: &'a TraceArena, g: &Graph) -> Self {
        TracedCsr {
            arena,
            oa: arena.vec_of(g.raw_offsets().to_vec()),
            na: arena.vec_of(g.raw_neighbors().to_vec()),
            weights: g.weights().map(|w| arena.vec_of(w.to_vec())),
            s_oa: arena.code_site(),
            s_na: arena.code_site(),
            s_w: arena.code_site(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        (self.oa.len() - 1) as u32
    }

    /// Loads the NA index range of `v`'s adjacency list (two OA loads plus
    /// index arithmetic).
    #[inline]
    pub fn bounds(&self, v: u32) -> (usize, usize) {
        self.arena.work(2);
        let lo = self.oa.get(self.s_oa, v as usize);
        let hi = self.oa.get(self.s_oa, v as usize + 1);
        (lo as usize, hi as usize)
    }

    /// Loads the neighbour at NA position `k`.
    #[inline]
    pub fn neighbor(&self, k: usize) -> u32 {
        self.na.get(self.s_na, k)
    }

    /// Loads the edge weight at NA position `k`.
    ///
    /// # Panics
    ///
    /// Panics if the graph is unweighted.
    #[inline]
    pub fn weight(&self, k: usize) -> u32 {
        self.weights.as_ref().expect("graph has no weights").get(self.s_w, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::uniform;
    use ccsim_trace::stats::TraceStats;

    #[test]
    fn traced_csr_reads_match_graph() {
        let g = uniform(8, 6, 1);
        let arena = TraceArena::new("t");
        let tg = TracedCsr::new(&arena, &g);
        for v in [0u32, 7, 100] {
            let (lo, hi) = tg.bounds(v);
            let ns: Vec<u32> = (lo..hi).map(|k| tg.neighbor(k)).collect();
            assert_eq!(ns, g.neighbors(v), "vertex {v}");
        }
        drop(tg);
        assert!(!arena.finish().is_empty());
    }

    #[test]
    fn oa_and_na_use_distinct_sites() {
        let g = uniform(6, 4, 2);
        let arena = TraceArena::new("t");
        let tg = TracedCsr::new(&arena, &g);
        let (lo, hi) = tg.bounds(0);
        for k in lo..hi {
            tg.neighbor(k);
        }
        drop(tg);
        let trace = arena.finish();
        let stats = TraceStats::compute(&trace);
        assert_eq!(stats.distinct_pcs, 2, "oa site + na site");
    }
}
