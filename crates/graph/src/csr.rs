//! Compressed Sparse Row graph representation.
//!
//! The CSR encoding is exactly the paper's Figure 1: an *Offset Array* (OA)
//! of `n + 1` indices into a *Neighbours Array* (NA) of adjacency lists.
//! Optional per-edge weights support SSSP. Kernels that pull along incoming
//! edges (PageRank) use the [`Graph::transpose`] (the CSC view).

use std::fmt;

/// An immutable directed graph in CSR form. Undirected graphs are stored
/// with both edge directions materialized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<u64>,
    neighbors: Vec<u32>,
    weights: Option<Vec<u32>>,
}

impl Graph {
    /// Builds a graph with `n` vertices from an edge list. Self-loops are
    /// dropped, duplicates removed, and adjacency lists sorted. If
    /// `undirected`, each edge is inserted in both directions.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n`.
    pub fn from_edges(n: u32, edges: &[(u32, u32)], undirected: bool) -> Self {
        // A counting sort: out-degrees (duplicates included) size each
        // vertex's range of one array, the edges scatter into it, and each
        // range is sorted and deduplicated in place, then slid left over
        // the gaps its own and earlier duplicates left.
        let mut offsets = vec![0u64; n as usize + 1];
        for &(u, v) in edges {
            assert!(u < n && v < n, "edge endpoint out of range");
            if u != v {
                offsets[u as usize + 1] += 1;
                if undirected {
                    offsets[v as usize + 1] += 1;
                }
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0u32; offsets[n as usize] as usize];
        let mut place = |from: u32, to: u32| {
            let slot = &mut cursor[from as usize];
            neighbors[*slot as usize] = to;
            *slot += 1;
        };
        for &(u, v) in edges.iter().filter(|(u, v)| u != v) {
            place(u, v);
            if undirected {
                place(v, u);
            }
        }
        let mut kept = 0;
        for v in 0..n as usize {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            offsets[v] = kept as u64;
            neighbors[lo..hi].sort_unstable();
            // `neighbors[i - 1]` still holds its sorted value: every write
            // so far landed below it (`kept` trails `i`) or rewrote it with
            // itself.
            for i in lo..hi {
                if i == lo || neighbors[i] != neighbors[i - 1] {
                    neighbors[kept] = neighbors[i];
                    kept += 1;
                }
            }
        }
        offsets[n as usize] = kept as u64;
        neighbors.truncate(kept);
        neighbors.shrink_to_fit();
        Graph { offsets, neighbors, weights: None }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of directed edges (twice the undirected edge count).
    pub fn num_edges(&self) -> u64 {
        self.neighbors.len() as u64
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: u32) -> u32 {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as u32
    }

    /// Sorted out-neighbour list of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Edge weights aligned with [`Graph::raw_neighbors`], if attached.
    pub fn weights(&self) -> Option<&[u32]> {
        self.weights.as_deref()
    }

    /// Weights of `v`'s out-edges (aligned with [`Graph::neighbors`]).
    ///
    /// # Panics
    ///
    /// Panics if the graph has no weights.
    pub fn edge_weights(&self, v: u32) -> &[u32] {
        let w = self.weights.as_ref().expect("graph has no weights");
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &w[lo..hi]
    }

    /// Attaches deterministic pseudo-random weights in `1..=max_weight`
    /// derived from the edge endpoints (so both directions of an
    /// undirected edge carry the same weight).
    pub fn with_random_weights(mut self, max_weight: u32, seed: u64) -> Self {
        assert!(max_weight >= 1, "weights must be at least 1");
        let mut w = Vec::with_capacity(self.neighbors.len());
        for v in 0..self.num_vertices() {
            for &u in self.neighbors(v) {
                let (a, b) = if v < u { (v, u) } else { (u, v) };
                let h = mix(seed ^ ((a as u64) << 32 | b as u64));
                w.push(1 + (h % max_weight as u64) as u32);
            }
        }
        self.weights = Some(w);
        self
    }

    /// The raw offset array (the paper's OA).
    pub fn raw_offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw neighbour array (the paper's NA).
    pub fn raw_neighbors(&self) -> &[u32] {
        &self.neighbors
    }

    /// Builds the transposed graph (CSC view: incoming adjacency).
    pub fn transpose(&self) -> Graph {
        let n = self.num_vertices();
        let mut indeg = vec![0u64; n as usize + 1];
        for &v in &self.neighbors {
            indeg[v as usize + 1] += 1;
        }
        for i in 1..indeg.len() {
            indeg[i] += indeg[i - 1];
        }
        let offsets = indeg.clone();
        let mut cursor = indeg;
        let mut neighbors = vec![0u32; self.neighbors.len()];
        let mut weights = self.weights.as_ref().map(|_| vec![0u32; self.neighbors.len()]);
        for u in 0..n {
            let lo = self.offsets[u as usize] as usize;
            for (k, &v) in self.neighbors(u).iter().enumerate() {
                let slot = cursor[v as usize] as usize;
                cursor[v as usize] += 1;
                neighbors[slot] = u;
                if let (Some(dst), Some(src)) = (&mut weights, &self.weights) {
                    dst[slot] = src[lo + k];
                }
            }
        }
        Graph { offsets, neighbors, weights }
    }

    /// Structural invariants: monotone offsets, in-range sorted unique
    /// neighbour lists, weight array alignment.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn verify(&self) -> Result<(), String> {
        let n = self.num_vertices();
        if *self.offsets.last().expect("offsets non-empty") != self.neighbors.len() as u64 {
            return Err("final offset must equal edge count".into());
        }
        for w in self.offsets.windows(2) {
            if w[0] > w[1] {
                return Err("offsets must be non-decreasing".into());
            }
        }
        for v in 0..n {
            let ns = self.neighbors(v);
            for pair in ns.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(format!("neighbours of {v} not sorted/unique"));
                }
            }
            if let Some(&max) = ns.last() {
                if max >= n {
                    return Err(format!("neighbour of {v} out of range"));
                }
            }
        }
        if let Some(w) = &self.weights {
            if w.len() != self.neighbors.len() {
                return Err("weights misaligned with neighbours".into());
            }
            if w.contains(&0) {
                return Err("weights must be positive".into());
            }
        }
        Ok(())
    }

    /// Memory footprint of the CSR arrays in bytes (OA + NA + weights).
    pub fn footprint_bytes(&self) -> u64 {
        (self.offsets.len() * 8
            + self.neighbors.len() * 4
            + self.weights.as_ref().map_or(0, |w| w.len() * 4)) as u64
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "graph: {} vertices, {} directed edges, {:.1} avg degree",
            self.num_vertices(),
            self.num_edges(),
            self.num_edges() as f64 / self.num_vertices().max(1) as f64
        )
    }
}

#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 (directed).
        Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)], false)
    }

    #[test]
    fn from_edges_builds_sorted_unique_lists() {
        let g = Graph::from_edges(3, &[(0, 2), (0, 1), (0, 2), (0, 0)], false);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.num_edges(), 2);
        g.verify().unwrap();
    }

    #[test]
    fn undirected_materializes_both_directions() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)], true);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.num_edges(), 4);
        g.verify().unwrap();
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.neighbors(3), &[1, 2]);
        assert_eq!(t.neighbors(0), &[] as &[u32]);
        assert_eq!(t.num_edges(), g.num_edges());
        t.verify().unwrap();
        // Transposing twice restores the original.
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn weights_are_symmetric_for_undirected_graphs() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)], true).with_random_weights(64, 42);
        g.verify().unwrap();
        let w01 = g.edge_weights(0)[g.neighbors(0).iter().position(|&x| x == 1).unwrap()];
        let w10 = g.edge_weights(1)[g.neighbors(1).iter().position(|&x| x == 0).unwrap()];
        assert_eq!(w01, w10);
        assert!((1..=64).contains(&w01));
    }

    #[test]
    fn transpose_carries_weights() {
        let g = diamond().with_random_weights(16, 7);
        let t = g.transpose();
        t.verify().unwrap();
        // Weight of edge 0->1 equals weight of transposed edge 1->0... i.e.
        // in t, vertex 1's incoming list contains 0 with the same weight.
        let w_fwd = g.edge_weights(0)[g.neighbors(0).iter().position(|&x| x == 1).unwrap()];
        let w_rev = t.edge_weights(1)[t.neighbors(1).iter().position(|&x| x == 0).unwrap()];
        assert_eq!(w_fwd, w_rev);
    }

    #[test]
    fn footprint_accounts_all_arrays() {
        let g = diamond();
        assert_eq!(g.footprint_bytes(), 5 * 8 + 4 * 4);
        let gw = diamond().with_random_weights(8, 0);
        assert_eq!(gw.footprint_bytes(), 5 * 8 + 4 * 4 + 4 * 4);
    }

    #[test]
    #[should_panic(expected = "edge endpoint out of range")]
    fn out_of_range_edge_rejected() {
        let _ = Graph::from_edges(2, &[(0, 5)], false);
    }

    #[test]
    fn display_summarizes() {
        let s = diamond().to_string();
        assert!(s.contains("4 vertices"));
    }
}
