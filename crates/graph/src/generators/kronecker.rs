//! Kronecker (R-MAT) graphs with Graph500 parameters (the GAP `kron`
//! input).

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::Graph;

/// R-MAT edge-quadrant probabilities used by Graph500 and GAP's `kron`:
/// A = 0.57, B = 0.19, C = 0.19 (D implied 0.05).
const A: f64 = 0.57;
/// Upper-right quadrant probability.
const B: f64 = 0.19;
/// Lower-left quadrant probability.
const C: f64 = 0.19;

/// Generates a Kronecker graph with `2^scale` vertices and
/// `edge_factor * n` undirected edges by recursive R-MAT quadrant descent.
/// Produces the heavy-tailed degree distribution with large hubs that
/// characterizes `kron`.
pub fn kronecker(scale: u32, edge_factor: u32, seed: u64) -> Graph {
    assert!(scale <= 28, "scale {scale} unreasonably large for simulation");
    let n = 1u32 << scale;
    let m = n as u64 * edge_factor as u64 / 2;
    let mut rng = StdRng::seed_from_u64(seed);
    // The probability draw `rng.gen::<f64>()` is one word's top 53 bits
    // scaled by 2^-53, so it reaches `t` exactly when the word reaches
    // `ceil(t * 2^53) << 11`: the descent compares the raw words against
    // these, bit for bit the float comparison, without converting them.
    let word_at = |t: f64| ((t * (1u64 << 53) as f64).ceil() as u64) << 11;
    let (a, ab, abc) = (word_at(A), word_at(A + B), word_at(A + B + C));
    let mut edges = Vec::with_capacity(m as usize);
    for _ in 0..m {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..scale {
            // One draw per level picks the quadrant: [0, A) upper-left,
            // [A, A+B) upper-right, [A+B, A+B+C) lower-left, else
            // lower-right. The bits are computed, not branched on — the
            // draw is unpredictable by construction.
            let draw = rng.next_u64();
            let lower = draw >= ab;
            let right = ((draw >= a) & !lower) | (draw >= abc);
            u = (u << 1) | lower as u32;
            v = (v << 1) | right as u32;
        }
        edges.push((u, v));
    }
    Graph::from_edges(n, &edges, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_hubs() {
        let g = kronecker(12, 16, 1);
        let n = g.num_vertices();
        let max = (0..n).map(|v| g.degree(v)).max().unwrap();
        let avg = g.num_edges() as f64 / n as f64;
        assert!(max as f64 > 10.0 * avg, "kron should have hubs: max {max}, avg {avg:.1}");
    }

    #[test]
    fn has_isolated_or_low_degree_tail() {
        let g = kronecker(12, 16, 2);
        let low = (0..g.num_vertices()).filter(|&v| g.degree(v) <= 1).count();
        assert!(
            low > g.num_vertices() as usize / 20,
            "kron's skew should leave many near-isolated vertices, got {low}"
        );
    }
}
