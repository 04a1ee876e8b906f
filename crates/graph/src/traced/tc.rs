//! Instrumented triangle counting.

use ccsim_trace::{Trace, TraceBuffer};

use crate::traced::{arena_over, TracedCsr};
use crate::Graph;

/// Traced triangle counting by ordered adjacency merging. Returns the
/// trace and the triangle count (identical to
/// [`crate::kernels::triangle_count`]).
///
/// TC is by far the most edge-intensive GAP kernel (quadratic in hub
/// degree); callers control cost through the graph scale.
pub fn triangle_count(g: &Graph) -> (Trace, u64) {
    let mut buf = TraceBuffer::new("tc");
    let count = triangle_count_into(g, &mut buf);
    (buf.finish(), count)
}

/// [`triangle_count`] recording into the caller's `buf` (in memory or streaming)
/// instead of a trace of its own; returns the kernel's result.
pub fn triangle_count_into(g: &Graph, buf: &mut TraceBuffer) -> u64 {
    let arena = arena_over(buf);
    let csr = TracedCsr::new(&arena, g);
    let mut count = 0u64;
    for u in 0..g.num_vertices() {
        let (ulo, uhi) = csr.bounds(u);
        for k in ulo..uhi {
            arena.work(7);
            let v = csr.neighbor(k);
            if v <= u {
                continue;
            }
            let (vlo, vhi) = csr.bounds(v);
            // Sorted merge of NA[ulo..uhi] and NA[vlo..vhi], floor v.
            let (mut i, mut j) = (ulo, vlo);
            while i < uhi && j < vhi {
                arena.work(6);
                let x = csr.neighbor(i);
                let y = csr.neighbor(j);
                if x <= v {
                    i += 1;
                } else if y <= v {
                    j += 1;
                } else if x == y {
                    count += 1;
                    i += 1;
                    j += 1;
                } else if x < y {
                    i += 1;
                } else {
                    j += 1;
                }
            }
        }
    }
    drop(csr);
    *buf = arena.into_buffer();
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{kronecker, uniform};
    use ccsim_trace::stats::TraceStats;

    #[test]
    fn matches_reference() {
        for seed in 0..3 {
            let g = uniform(8, 8, seed);
            let (_, traced) = triangle_count(&g);
            assert_eq!(traced, crate::kernels::triangle_count(&g), "seed {seed}");
        }
    }

    #[test]
    fn kron_has_many_triangles() {
        let g = kronecker(10, 8, 2);
        let (trace, count) = triangle_count(&g);
        assert!(count > 100, "kron triangles {count}");
        // TC's trace is NA-dominated: almost everything is the NA site.
        let stats = TraceStats::compute(&trace);
        assert!(stats.distinct_pcs <= 3, "pcs {}", stats.distinct_pcs);
    }

    #[test]
    fn triangle_free_graph_counts_zero() {
        // Star graphs are triangle-free.
        let edges: Vec<(u32, u32)> = (1..32u32).map(|v| (0, v)).collect();
        let g = Graph::from_edges(32, &edges, true);
        let (_, traced) = triangle_count(&g);
        assert_eq!(traced, 0);
    }
}
