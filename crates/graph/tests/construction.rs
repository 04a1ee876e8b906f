//! Graph construction pinned bit for bit.
//!
//! Every generator's CSR arrays are digested (FNV-1a over the offset array
//! then the neighbour array, little-endian) and compared with digests
//! recorded before the construction path was last optimised, so any change
//! that moves one neighbour of one vertex fails here. The full-scale
//! benchmark graph is `#[ignore]`d (slow in a debug build) — run it with
//! `cargo test --release -p ccsim-graph -- --ignored`.
//!
//! `Graph::from_edges` is also checked against a naive reference (one
//! `BTreeSet` per vertex) on random edge lists.

use std::collections::BTreeSet;

use ccsim_graph::generators::{kronecker, power_law, road, uniform, web};
use ccsim_graph::Graph;
use ccsim_ingest::Fnv64;
use proptest::prelude::*;

/// FNV-1a over `raw_offsets` then `raw_neighbors`.
fn digest(g: &Graph) -> u64 {
    let mut h = Fnv64::new();
    for &o in g.raw_offsets() {
        h.update(&o.to_le_bytes());
    }
    for &v in g.raw_neighbors() {
        h.update(&v.to_le_bytes());
    }
    h.finish()
}

/// Compares each `(name, graph, digest)` and names every mismatch.
fn assert_digests(cases: &[(&str, Graph, u64)]) {
    let wrong: Vec<String> = cases
        .iter()
        .filter(|(_, g, want)| digest(g) != *want)
        .map(|(name, g, want)| format!("{name}: got {:#018x}, pinned {want:#018x}", digest(g)))
        .collect();
    assert!(wrong.is_empty(), "generator output moved:\n{}", wrong.join("\n"));
}

#[test]
fn every_generator_is_pinned_at_two_points() {
    assert_digests(&[
        ("kronecker(10, 8, 1)", kronecker(10, 8, 1), 0x172c_4dc4_91cc_7a47),
        ("kronecker(12, 16, 7)", kronecker(12, 16, 7), 0xe7c3_307f_4699_716b),
        ("power_law(10, 8, 1.9, 1)", power_law(10, 8, 1.9, 1), 0x4241_1f1c_cbb3_3e35),
        ("power_law(12, 16, 1.9, 7)", power_law(12, 16, 1.9, 7), 0x1002_f266_2685_1c07),
        ("web(10, 8, 1)", web(10, 8, 1), 0xb534_4afd_75bd_f0ea),
        ("web(12, 16, 7)", web(12, 16, 7), 0x0bd7_01ee_b055_6242),
        ("road(10, 1)", road(10, 1), 0x85e8_ebfe_8f1c_6963),
        ("road(12, 7)", road(12, 7), 0xf723_66b6_3851_e211),
        ("uniform(10, 8, 1)", uniform(10, 8, 1), 0x8d75_0372_7643_5d07),
        ("uniform(12, 16, 7)", uniform(12, 16, 7), 0x474a_b010_1c7a_00bf),
    ]);
}

/// The benchmark's `G18` input.
#[test]
#[ignore = "full scale: run with --release -- --ignored"]
fn benchmark_kronecker_is_pinned() {
    assert_digests(&[("kronecker(18, 16, 42)", kronecker(18, 16, 42), 0xf81c_a0f9_5394_1c41)]);
}

/// The naive construction `from_edges` must agree with.
fn reference(n: u32, edges: &[(u32, u32)], undirected: bool) -> Vec<Vec<u32>> {
    let mut adj = vec![BTreeSet::new(); n as usize];
    for &(u, v) in edges.iter().filter(|(u, v)| u != v) {
        adj[u as usize].insert(v);
        if undirected {
            adj[v as usize].insert(u);
        }
    }
    adj.into_iter().map(|set| set.into_iter().collect()).collect()
}

fn adjacency(g: &Graph) -> Vec<Vec<u32>> {
    (0..g.num_vertices()).map(|v| g.neighbors(v).to_vec()).collect()
}

#[test]
fn degenerate_edge_lists_build() {
    for undirected in [false, true] {
        let empty = Graph::from_edges(1, &[], undirected);
        assert_eq!(empty.raw_offsets(), &[0, 0]);
        assert!(empty.raw_neighbors().is_empty());
        let loops = Graph::from_edges(1, &[(0, 0), (0, 0)], undirected);
        assert_eq!(loops, empty);
        let none = Graph::from_edges(5, &[], undirected);
        assert_eq!(none.raw_offsets(), &[0; 6]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Small vertex counts make duplicates and self-loops common.
    #[test]
    fn from_edges_matches_a_set_per_vertex(
        n in 1u32..24,
        edges in proptest::collection::vec((0u32..24, 0u32..24), 0..120),
        undirected in any::<bool>(),
    ) {
        let edges: Vec<(u32, u32)> = edges.into_iter().map(|(u, v)| (u % n, v % n)).collect();
        let g = Graph::from_edges(n, &edges, undirected);
        prop_assert!(g.verify().is_ok());
        prop_assert_eq!(adjacency(&g), reference(n, &edges, undirected));
    }
}
