//! Instrumented Brandes betweenness centrality.

use ccsim_trace::{Trace, TraceBuffer};

use crate::traced::{arena_over, TracedCsr};
use crate::Graph;

/// Traced Brandes betweenness centrality from the given sources. Returns
/// the trace and per-vertex scores (identical to
/// [`crate::kernels::betweenness`]).
pub fn betweenness(g: &Graph, sources: &[u32]) -> (Trace, Vec<f64>) {
    let mut buf = TraceBuffer::new("bc");
    let scores = betweenness_into(g, sources, &mut buf);
    (buf.finish(), scores)
}

/// [`betweenness`] recording into the caller's `buf` (in memory or streaming)
/// instead of a trace of its own; returns the kernel's result.
pub fn betweenness_into(g: &Graph, sources: &[u32], buf: &mut TraceBuffer) -> Vec<f64> {
    let n = g.num_vertices() as usize;
    let arena = arena_over(buf);
    let csr = TracedCsr::new(&arena, g);
    let s_depth_rd = arena.code_site();
    let s_depth_wr = arena.code_site();
    let s_sigma_rd = arena.code_site();
    let s_sigma_wr = arena.code_site();
    let s_delta_rd = arena.code_site();
    let s_delta_wr = arena.code_site();
    let s_cent = arena.code_site();
    let s_order = arena.code_site();

    let mut centrality = arena.vec_of(vec![0.0f64; n]);
    for &s in sources {
        assert!((s as usize) < n, "source out of range");
        let mut depth = arena.vec_of(vec![u32::MAX; n]);
        let mut sigma = arena.vec_of(vec![0.0f64; n]);
        let mut order = arena.vec_of(vec![0u64; n]);
        let mut order_len = 0usize;
        depth.set(s_depth_wr, s as usize, 0);
        sigma.set(s_sigma_wr, s as usize, 1.0);
        let mut frontier = vec![s];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &u in &frontier {
                arena.work(6);
                order.set(s_order, order_len, u as u64);
                order_len += 1;
                let du = depth.get(s_depth_rd, u as usize);
                let (lo, hi) = csr.bounds(u);
                for k in lo..hi {
                    arena.work(6);
                    let v = csr.neighbor(k);
                    let dv = depth.get(s_depth_rd, v as usize);
                    if dv == u32::MAX {
                        depth.set(s_depth_wr, v as usize, du + 1);
                        let su = sigma.get(s_sigma_rd, u as usize);
                        sigma.update(s_sigma_rd, s_sigma_wr, v as usize, |x| x + su);
                        next.push(v);
                    } else if dv == du + 1 {
                        let su = sigma.get(s_sigma_rd, u as usize);
                        sigma.update(s_sigma_rd, s_sigma_wr, v as usize, |x| x + su);
                    }
                }
            }
            frontier = next;
        }
        let mut delta = arena.vec_of(vec![0.0f64; n]);
        for i in (0..order_len).rev() {
            arena.work(7);
            let u = order.get(s_order, i) as u32;
            let du = depth.get(s_depth_rd, u as usize);
            let (lo, hi) = csr.bounds(u);
            for k in lo..hi {
                arena.work(7);
                let v = csr.neighbor(k);
                if depth.get(s_depth_rd, v as usize) == du + 1 {
                    let su = sigma.get(s_sigma_rd, u as usize);
                    let sv = sigma.get(s_sigma_rd, v as usize);
                    let dv = delta.get(s_delta_rd, v as usize);
                    delta.update(s_delta_rd, s_delta_wr, u as usize, |x| x + su / sv * (1.0 + dv));
                }
            }
            if u != s {
                let d = delta.get(s_delta_rd, u as usize);
                centrality.update(s_cent, s_cent, u as usize, |x| x + d);
            }
        }
        drop(depth);
        drop(sigma);
        drop(order);
        drop(delta);
    }

    let result = centrality.into_inner();
    drop(csr);
    *buf = arena.into_buffer();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::uniform;
    use ccsim_trace::stats::TraceStats;

    #[test]
    fn matches_reference() {
        let g = uniform(8, 6, 2);
        let (_, traced) = betweenness(&g, &[0, 5]);
        let reference = crate::kernels::betweenness(&g, &[0, 5]);
        for (i, (a, b)) in traced.iter().zip(&reference).enumerate() {
            assert!((a - b).abs() < 1e-9, "vertex {i}: {a} vs {b}");
        }
    }

    #[test]
    fn trace_covers_forward_and_backward_passes() {
        let g = uniform(8, 8, 3);
        let (trace, _) = betweenness(&g, &[0]);
        // Forward + backward both scan edges: at least 2x edges records.
        assert!(trace.len() as u64 > 2 * g.num_edges() / 2);
        let stats = TraceStats::compute(&trace);
        assert!(stats.distinct_pcs <= 12, "pcs {}", stats.distinct_pcs);
    }
}
