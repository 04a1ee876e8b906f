//! Instrumented delta-stepping SSSP.

use ccsim_trace::{Trace, TraceBuffer};

use crate::kernels::INF;
use crate::traced::{arena_over, TracedCsr};
use crate::Graph;

/// Traced delta-stepping SSSP from `source`. Returns the trace and the
/// distance array (identical to [`crate::kernels::sssp`]).
///
/// Bucket contents are stored in a traced scratch region sized `4 * n`
/// slots, modelling GAP's bucket vectors: pushes are stores, pops are
/// loads. Bucket *bookkeeping* (lengths, indices) stays in registers, as
/// it does in the real implementation.
pub fn sssp(g: &Graph, source: u32, delta: u32) -> (Trace, Vec<u32>) {
    let mut buf = TraceBuffer::new("sssp");
    let dist = sssp_into(g, source, delta, &mut buf);
    (buf.finish(), dist)
}

/// [`sssp`] recording into the caller's `buf` (in memory or streaming)
/// instead of a trace of its own; returns the kernel's result.
pub fn sssp_into(g: &Graph, source: u32, delta: u32, buf: &mut TraceBuffer) -> Vec<u32> {
    assert!(delta > 0, "delta must be positive");
    assert!(g.weights().is_some(), "sssp requires an edge-weighted graph");
    let n = g.num_vertices() as usize;
    assert!((source as usize) < n, "source out of range");
    let arena = arena_over(buf);
    let csr = TracedCsr::new(&arena, g);
    let s_dist_rd = arena.code_site();
    let s_dist_wr = arena.code_site();
    let s_bucket_rd = arena.code_site();
    let s_bucket_wr = arena.code_site();

    let mut dist = arena.vec_of(vec![INF; n]);
    // Traced bucket slab: a rotating scratch region modelling the memory
    // traffic of GAP's bucket vectors. The vertex is also carried in the
    // untraced bucket index so slab wrap-around cannot corrupt results —
    // the slab load/store is pure traffic, its *address* is what matters.
    let slab_cap = 4 * n;
    let mut slab = arena.vec_of(vec![0u32; slab_cap]);
    let mut slab_cursor = 0usize;
    // Untraced bucket index: per bucket, (slab position, vertex).
    let mut buckets: Vec<Vec<(usize, u32)>> = vec![Vec::new()];

    let push = |slab: &mut ccsim_trace::TracedVec<'_, u32>,
                buckets: &mut Vec<Vec<(usize, u32)>>,
                cursor: &mut usize,
                b: usize,
                v: u32| {
        if b >= buckets.len() {
            buckets.resize_with(b + 1, Vec::new);
        }
        let pos = *cursor % slab_cap;
        *cursor += 1;
        slab.set(s_bucket_wr, pos, v);
        buckets[b].push((pos, v));
    };

    dist.set(s_dist_wr, source as usize, 0);
    push(&mut slab, &mut buckets, &mut slab_cursor, 0, source);

    let mut next_bucket = 0usize;
    while next_bucket < buckets.len() {
        while let Some((pos, u)) = buckets[next_bucket].pop() {
            arena.work(6);
            let _ = slab.get(s_bucket_rd, pos);
            let du = dist.get(s_dist_rd, u as usize);
            if du == INF || (du / delta) as usize != next_bucket {
                continue; // stale entry
            }
            let (lo, hi) = csr.bounds(u);
            for k in lo..hi {
                arena.work(7);
                let v = csr.neighbor(k);
                let w = csr.weight(k);
                let nd = du.saturating_add(w);
                if nd < dist.get(s_dist_rd, v as usize) {
                    dist.set(s_dist_wr, v as usize, nd);
                    push(&mut slab, &mut buckets, &mut slab_cursor, (nd / delta) as usize, v);
                }
            }
        }
        next_bucket += 1;
    }

    let result = dist.into_inner();
    drop(slab);
    drop(csr);
    *buf = arena.into_buffer();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{road, uniform};
    use ccsim_trace::stats::TraceStats;

    #[test]
    fn matches_dijkstra() {
        for seed in 0..3 {
            let g = uniform(9, 6, seed).with_random_weights(64, 7);
            let (_, traced) = sssp(&g, 0, 16);
            assert_eq!(traced, crate::kernels::dijkstra(&g, 0), "seed {seed}");
        }
    }

    #[test]
    fn grid_distances_match() {
        let g = road(10, 2).with_random_weights(32, 9);
        let (_, traced) = sssp(&g, 5, 8);
        assert_eq!(traced, crate::kernels::dijkstra(&g, 5));
    }

    #[test]
    fn weight_loads_present_in_trace() {
        let g = uniform(8, 8, 1).with_random_weights(64, 3);
        let (trace, _) = sssp(&g, 0, 16);
        let stats = TraceStats::compute(&trace);
        // OA/NA/W + dist r/w + bucket r/w sites.
        assert!(stats.distinct_pcs >= 6 && stats.distinct_pcs <= 8, "pcs {}", stats.distinct_pcs);
    }
}
