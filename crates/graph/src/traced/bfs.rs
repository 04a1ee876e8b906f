//! Instrumented direction-optimizing BFS.

use ccsim_trace::{Trace, TraceBuffer};

use crate::kernels::NO_PARENT;
use crate::traced::{arena_over, TracedCsr};
use crate::Graph;

/// Frontier-size threshold divisor for switching to bottom-up (matches the
/// reference implementation).
const BOTTOM_UP_THRESHOLD_DIV: usize = 20;

/// Traced direction-optimizing BFS from `source`. Returns the captured
/// trace and the parent array (identical to [`crate::kernels::bfs`]).
pub fn bfs(g: &Graph, source: u32) -> (Trace, Vec<u32>) {
    let mut buf = TraceBuffer::new("bfs");
    let parents = bfs_into(g, source, &mut buf);
    (buf.finish(), parents)
}

/// [`bfs`] recording into the caller's `buf` (in memory or streaming)
/// instead of a trace of its own; returns the kernel's result.
pub fn bfs_into(g: &Graph, source: u32, buf: &mut TraceBuffer) -> Vec<u32> {
    let n = g.num_vertices() as usize;
    assert!((source as usize) < n, "source out of range");
    let arena = arena_over(buf);
    let csr = TracedCsr::new(&arena, g);
    let s_parent_rd = arena.code_site();
    let s_parent_wr = arena.code_site();
    let s_front_rd = arena.code_site();
    let s_front_wr = arena.code_site();
    let s_bitmap_rd = arena.code_site();
    let s_bitmap_wr = arena.code_site();

    // Property arrays use 64-bit node ids (GAP's int64 build), which
    // also doubles the randomly-accessed footprint per vertex.
    let mut parent = arena.vec_of(vec![NO_PARENT as u64; n]);
    // The sliding-queue frontier (contiguous storage, as in GAP).
    let mut queue = arena.vec_of(vec![0u64; n + 1]);
    // Bottom-up frontier bitmap, one byte per vertex.
    let mut bitmap = arena.vec_of(vec![0u8; n]);

    parent.set(s_parent_wr, source as usize, source as u64);
    queue.set(s_front_wr, 0, source as u64);
    let (mut q_lo, mut q_hi) = (0usize, 1usize);
    let mut frontier_len = 1usize;

    while frontier_len > 0 {
        if frontier_len > n / BOTTOM_UP_THRESHOLD_DIV {
            // Bottom-up step: mark the frontier in the bitmap, then every
            // unvisited vertex scans its neighbours for a marked one.
            for i in q_lo..q_hi {
                arena.work(7);
                let v = queue.get(s_front_rd, i);
                bitmap.set(s_bitmap_wr, v as usize, 1);
            }
            let mut next_len = 0usize;
            for v in 0..n as u32 {
                arena.work(7);
                if parent.get(s_parent_rd, v as usize) != NO_PARENT as u64 {
                    continue;
                }
                let (lo, hi) = csr.bounds(v);
                for k in lo..hi {
                    arena.work(6);
                    let u = csr.neighbor(k);
                    if bitmap.get(s_bitmap_rd, u as usize) == 1 {
                        parent.set(s_parent_wr, v as usize, u as u64);
                        queue.set(s_front_wr, (q_hi + next_len) % (n + 1), v as u64);
                        next_len += 1;
                        break;
                    }
                }
            }
            // Clear the bitmap for the next bottom-up epoch.
            for i in q_lo..q_hi {
                arena.work(2);
                let v = queue.get(s_front_rd, i);
                bitmap.set(s_bitmap_wr, v as usize, 0);
            }
            q_lo = q_hi;
            q_hi = (q_hi + next_len) % (n + 1);
            frontier_len = next_len;
        } else {
            // Top-down step: expand the frontier's out-edges.
            let mut next_len = 0usize;
            let (cur_lo, cur_hi) = (q_lo, q_hi);
            let mut i = cur_lo;
            while i != cur_hi {
                arena.work(7);
                let u = queue.get(s_front_rd, i) as u32;
                let (lo, hi) = csr.bounds(u);
                for k in lo..hi {
                    arena.work(6);
                    let v = csr.neighbor(k);
                    if parent.get(s_parent_rd, v as usize) == NO_PARENT as u64 {
                        parent.set(s_parent_wr, v as usize, u as u64);
                        queue.set(s_front_wr, (cur_hi + next_len) % (n + 1), v as u64);
                        next_len += 1;
                    }
                }
                i = (i + 1) % (n + 1);
            }
            q_lo = cur_hi;
            q_hi = (cur_hi + next_len) % (n + 1);
            frontier_len = next_len;
        }
    }

    let result: Vec<u32> = parent.into_inner().into_iter().map(|p| p as u32).collect();
    drop(queue);
    drop(bitmap);
    drop(csr);
    *buf = arena.into_buffer();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{kronecker, road, uniform};
    use ccsim_trace::stats::TraceStats;

    #[test]
    fn matches_reference_on_random_graphs() {
        for seed in 0..3 {
            let g = uniform(9, 8, seed);
            let (_, traced) = bfs(&g, 0);
            // Parent arrays may differ (both valid BFS trees), but the
            // reached sets must match and the tree must be valid.
            let reference = crate::kernels::bfs(&g, 0);
            for v in 0..g.num_vertices() as usize {
                assert_eq!(
                    traced[v] == NO_PARENT,
                    reference[v] == NO_PARENT,
                    "seed {seed} vertex {v}"
                );
            }
            crate::kernels::verify_bfs_tree(&g, 0, &traced).unwrap();
        }
    }

    #[test]
    fn grid_fully_reached() {
        let g = road(10, 1);
        let (trace, parents) = bfs(&g, 0);
        assert!(parents.iter().all(|&p| p != NO_PARENT));
        assert!(trace.len() as u64 > g.num_edges(), "every edge examined");
    }

    #[test]
    fn trace_has_graph_kernel_signature() {
        // Few PCs, large footprint: the paper's central observation.
        let g = kronecker(12, 8, 3);
        let (trace, _) = bfs(&g, 0);
        let stats = TraceStats::compute(&trace);
        assert!(stats.distinct_pcs <= 12, "pcs {}", stats.distinct_pcs);
        assert!(stats.footprint_bytes > 100 * 1024, "footprint {}", stats.footprint_bytes);
        assert!(stats.instructions > trace.len() as u64, "nonmem accounted");
    }

    #[test]
    fn dense_graph_triggers_bottom_up() {
        // With degree 16 the second frontier exceeds n/20, so the bitmap
        // sites must appear in the trace.
        let g = uniform(10, 16, 5);
        let (trace, _) = bfs(&g, 0);
        let stats = TraceStats::compute(&trace);
        assert!(stats.distinct_pcs >= 8, "bottom-up sites missing: {}", stats.distinct_pcs);
    }
}
