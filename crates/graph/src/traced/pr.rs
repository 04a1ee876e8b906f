//! Instrumented pull-based PageRank.

use ccsim_trace::{Trace, TraceBuffer};

use crate::traced::{arena_over, TracedCsr};
use crate::Graph;

/// Traced pull PageRank: `iterations` sweeps over the transpose graph.
/// Returns the trace and the final ranks (identical to
/// [`crate::kernels::pagerank`]).
///
/// The inner loop's load of `contrib[u]` indexed by NA contents is the
/// irregular SpMV access the paper's extended abstract highlights.
pub fn pagerank(g: &Graph, transpose: &Graph, iterations: u32, damping: f64) -> (Trace, Vec<f64>) {
    let mut buf = TraceBuffer::new("pr");
    let ranks = pagerank_into(g, transpose, iterations, damping, &mut buf);
    (buf.finish(), ranks)
}

/// [`pagerank`] recording into the caller's `buf` (in memory or streaming)
/// instead of a trace of its own; returns the kernel's result.
pub fn pagerank_into(
    g: &Graph,
    transpose: &Graph,
    iterations: u32,
    damping: f64,
    buf: &mut TraceBuffer,
) -> Vec<f64> {
    let n = g.num_vertices() as usize;
    assert_eq!(transpose.num_vertices() as usize, n, "transpose mismatch");
    let arena = arena_over(buf);
    // Kernel iterates the transpose (incoming edges); out-degrees come from
    // the forward graph's degree array (precomputed, as GAP does).
    let csr = TracedCsr::new(&arena, transpose);
    let s_deg = arena.code_site();
    let s_rank_rd = arena.code_site();
    let s_rank_wr = arena.code_site();
    let s_contrib_rd = arena.code_site();
    let s_contrib_wr = arena.code_site();

    let degrees: Vec<u32> = (0..n as u32).map(|v| g.degree(v)).collect();
    let deg = arena.vec_of(degrees);
    let mut rank = arena.vec_of(vec![1.0f64 / n as f64; n]);
    let mut contrib = arena.vec_of(vec![0.0f64; n]);
    let base = (1.0 - damping) / n as f64;

    for _ in 0..iterations {
        for v in 0..n {
            arena.work(6);
            let d = deg.get(s_deg, v);
            let r = rank.get(s_rank_rd, v);
            contrib.set(s_contrib_wr, v, if d == 0 { 0.0 } else { r / d as f64 });
        }
        for v in 0..n as u32 {
            let (lo, hi) = csr.bounds(v);
            let mut incoming = 0.0f64;
            for k in lo..hi {
                arena.work(7);
                let u = csr.neighbor(k);
                incoming += contrib.get(s_contrib_rd, u as usize);
            }
            arena.work(6);
            rank.set(s_rank_wr, v as usize, base + damping * incoming);
        }
    }

    let result = rank.into_inner();
    drop(contrib);
    drop(deg);
    drop(csr);
    *buf = arena.into_buffer();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::power_law;
    use ccsim_trace::stats::TraceStats;

    #[test]
    fn matches_reference_exactly() {
        let g = power_law(9, 8, 2.0, 1);
        let t = g.transpose();
        let (_, traced) = pagerank(&g, &t, 5, 0.85);
        let reference = crate::kernels::pagerank(&g, &t, 5, 0.85);
        for (a, b) in traced.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn trace_scales_with_iterations() {
        let g = power_law(8, 6, 2.0, 2);
        let t = g.transpose();
        let (t1, _) = pagerank(&g, &t, 1, 0.85);
        let (t3, _) = pagerank(&g, &t, 3, 0.85);
        assert!(t3.len() > 2 * t1.len());
    }

    #[test]
    fn few_pcs_many_addresses() {
        let g = power_law(10, 8, 1.9, 3);
        let t = g.transpose();
        let (trace, _) = pagerank(&g, &t, 2, 0.85);
        let stats = TraceStats::compute(&trace);
        assert!(stats.distinct_pcs <= 10, "pcs {}", stats.distinct_pcs);
        assert!(stats.mean_blocks_per_pc > 100.0, "addresses per pc {}", stats.mean_blocks_per_pc);
    }
}
