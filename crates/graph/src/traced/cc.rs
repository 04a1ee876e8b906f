//! Instrumented Shiloach–Vishkin connected components.

use ccsim_trace::{Trace, TraceBuffer};

use crate::traced::{arena_over, TracedCsr};
use crate::Graph;

/// Traced Shiloach–Vishkin connected components. Returns the trace and the
/// component labels (identical to [`crate::kernels::connected_components`]).
pub fn connected_components(g: &Graph) -> (Trace, Vec<u32>) {
    let mut buf = TraceBuffer::new("cc");
    let labels = connected_components_into(g, &mut buf);
    (buf.finish(), labels)
}

/// [`connected_components`] recording into the caller's `buf` (in memory or streaming)
/// instead of a trace of its own; returns the kernel's result.
pub fn connected_components_into(g: &Graph, buf: &mut TraceBuffer) -> Vec<u32> {
    let n = g.num_vertices();
    let arena = arena_over(buf);
    let csr = TracedCsr::new(&arena, g);
    let s_comp_rd = arena.code_site();
    let s_comp_wr = arena.code_site();
    let s_jump_rd = arena.code_site();

    // 64-bit labels (GAP int64 build): doubles the comp footprint.
    let mut comp = arena.vec_of((0..n as u64).collect::<Vec<u64>>());
    loop {
        let mut changed = false;
        for u in 0..n {
            let (lo, hi) = csr.bounds(u);
            for k in lo..hi {
                arena.work(7);
                let v = csr.neighbor(k);
                let cu = comp.get(s_comp_rd, u as usize);
                let cv = comp.get(s_comp_rd, v as usize);
                if cu < cv && cv == comp.get(s_comp_rd, cv as usize) {
                    comp.set(s_comp_wr, cv as usize, cu);
                    changed = true;
                }
            }
        }
        for v in 0..n {
            arena.work(7);
            let mut c = comp.get(s_jump_rd, v as usize);
            loop {
                let parent = comp.get(s_jump_rd, c as usize);
                if parent == c {
                    break;
                }
                arena.work(2);
                c = parent;
            }
            comp.set(s_comp_wr, v as usize, c);
        }
        if !changed {
            break;
        }
    }

    let result: Vec<u32> = comp.into_inner().into_iter().map(|c| c as u32).collect();
    drop(csr);
    *buf = arena.into_buffer();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{kronecker, uniform};
    use ccsim_trace::stats::TraceStats;

    #[test]
    fn matches_reference() {
        for seed in 0..3 {
            let g = uniform(9, 3, seed);
            let (_, traced) = connected_components(&g);
            let reference = crate::kernels::connected_components(&g);
            assert_eq!(traced, reference, "seed {seed}");
        }
    }

    #[test]
    fn skewed_graph_labels_consistent() {
        let g = kronecker(10, 8, 1);
        let (_, traced) = connected_components(&g);
        // Every edge's endpoints share a label.
        for u in 0..g.num_vertices() {
            for &v in g.neighbors(u) {
                assert_eq!(traced[u as usize], traced[v as usize]);
            }
        }
    }

    #[test]
    fn comp_array_dominates_pc_footprint() {
        let g = uniform(10, 8, 4);
        let (trace, _) = connected_components(&g);
        let stats = TraceStats::compute(&trace);
        assert!(stats.distinct_pcs <= 6, "pcs {}", stats.distinct_pcs);
        assert!(stats.max_blocks_per_pc > 50, "comp chasing footprint");
    }
}
