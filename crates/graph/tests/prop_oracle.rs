//! The reference lister against the brute-force `O(n^3)` scan.
//!
//! `list_all_on` orients every edge by `(degree, id)` rank and walks one
//! forward array with a stamp per node. The families below stress what
//! that walk depends on: degree ties broken by id alone (complete graphs,
//! cycles, circulants, complete bipartite graphs), a hub far above its
//! neighbours, isolated nodes at either end of the id range, the
//! smallest node counts and random graphs of every density.
//!
//! Each case checks the set *and* the count: a triangle reported twice
//! leaves the set unchanged, so only `count_all_on`, which counts what
//! the walk visits, shows it.

use congest_graph::generators::{Classic, Gnp, PlantedLight};
use congest_graph::triangles::{
    count_all, count_all_on, has_triangle_on, list_all, list_all_brute_force, list_all_on,
};
use congest_graph::{AdjacencyView, Graph, GraphBuilder, NodeId};
use proptest::prelude::*;

/// Plain sorted-`Vec` adjacency, as the streaming engines keep it.
struct Lists(Vec<Vec<NodeId>>);

impl AdjacencyView for Lists {
    fn node_count(&self) -> usize {
        self.0.len()
    }
    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.0[node.index()]
    }
}

/// A graph on `n` nodes with the given edges (duplicates ignored).
fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Graph {
    let mut b = GraphBuilder::new(n);
    for (a, c) in edges {
        b.add_edge(NodeId::from_index(a), NodeId::from_index(c))
            .expect("test edges are in range and loop-free");
    }
    b.build()
}

/// Asserts the lister, the counter and the early-exit test agree with
/// the brute-force scan, on the graph and on a plain-`Vec` view of it.
fn assert_matches_brute_force(g: &Graph, what: &str) {
    let expected = list_all_brute_force(g);
    assert_eq!(list_all(g), expected, "{what}: list_all");
    assert_eq!(count_all(g), expected.len(), "{what}: count_all");
    let lists = Lists(g.nodes().map(|u| g.neighbors(u).to_vec()).collect());
    assert_eq!(
        list_all_on(&lists),
        expected,
        "{what}: list_all_on, Vec view"
    );
    assert_eq!(
        count_all_on(&lists),
        expected.len(),
        "{what}: count_all_on, Vec view"
    );
    assert_eq!(
        has_triangle_on(&lists),
        !expected.is_empty(),
        "{what}: has_triangle_on"
    );
}

/// `C_n(jumps)`: node `i` adjacent to `i ± j (mod n)` for each jump.
fn circulant(n: usize, jumps: &[usize]) -> Graph {
    from_edges(
        n,
        (0..n).flat_map(|i| jumps.iter().map(move |&j| (i, (i + j) % n))),
    )
}

#[test]
fn degree_ties_are_broken_by_id() {
    for k in 3..=9 {
        assert_matches_brute_force(&Classic::Complete(k).generate(), &format!("K{k}"));
    }
    for n in [3, 4, 5, 8, 13] {
        assert_matches_brute_force(&Classic::Cycle(n).generate(), &format!("C{n}"));
    }
    for (n, jumps) in [
        (7, &[1, 2][..]),
        (9, &[1, 3]),
        (12, &[1, 2, 3]),
        (12, &[1, 4]),
        (16, &[1, 2, 5]),
    ] {
        assert_matches_brute_force(&circulant(n, jumps), &format!("C{n}{jumps:?}"));
    }
    for (a, b) in [(1, 1), (2, 3), (4, 4), (5, 7)] {
        assert_matches_brute_force(
            &Classic::CompleteBipartite(a, b).generate(),
            &format!("K{a},{b}"),
        );
    }
}

#[test]
fn a_hub_above_a_clique_of_its_leaves() {
    // A hub joined to every leaf, the first `k` leaves forming a clique:
    // the hub outranks every leaf by degree unless all leaves are in the
    // clique (then the graph is K_{k+1} and ids break every tie), so
    // every triangle through it is found from a leaf.
    for (leaves, k) in [(6, 6), (12, 4), (20, 7)] {
        let n = leaves + 1;
        let clique = || (1..=k).flat_map(move |a| (a + 1..=k).map(move |b| (a, b)));
        let low_hub = from_edges(n, (1..n).map(|l| (0, l)).chain(clique()));
        assert_matches_brute_force(&low_hub, &format!("hub 0, {leaves} leaves, K{k}"));
        // The same shape with the hub at the top of the id range.
        let top = n - 1;
        let high_hub = from_edges(
            n,
            (0..top)
                .map(|l| (l, top))
                .chain(clique().map(|(a, b)| (a - 1, b - 1))),
        );
        assert_matches_brute_force(&high_hub, &format!("hub {top}, {leaves} leaves, K{k}"));
    }
}

#[test]
fn planted_light_triangles() {
    for (n, count, p) in [(24, 6, 0.0), (30, 10, 0.0), (60, 12, 0.05), (45, 15, 0.2)] {
        for seed in 0..3 {
            let g = PlantedLight::new(n, count)
                .with_background(p)
                .seeded(seed)
                .generate();
            assert_matches_brute_force(&g, &format!("planted {n}/{count} p={p} seed {seed}"));
        }
    }
}

#[test]
fn isolated_nodes_at_both_ends_of_the_id_range() {
    // Ids 0..5 and 25..30 are isolated; the middle is dense.
    let core = Gnp::new(20, 0.4).seeded(11).generate();
    let shifted = core
        .edges()
        .map(|e| (e.lo().index() + 5, e.hi().index() + 5));
    let g = from_edges(30, shifted);
    assert!(g.degree(NodeId(0)) == 0 && g.degree(NodeId(29)) == 0);
    assert_matches_brute_force(&g, "isolated ends");
}

#[test]
fn the_smallest_graphs() {
    assert_matches_brute_force(&from_edges(0, []), "n = 0");
    assert_matches_brute_force(&from_edges(1, []), "n = 1");
    assert_matches_brute_force(&from_edges(2, []), "n = 2, no edge");
    assert_matches_brute_force(&from_edges(2, [(0, 1)]), "n = 2, one edge");
}

#[test]
fn gnp_at_every_density() {
    for p in [0.05, 0.3, 0.7, 1.0] {
        for (n, seeds) in [(12, 0..4), (40, 0..3)] {
            for seed in seeds {
                let g = Gnp::new(n, p).seeded(seed).generate();
                assert_matches_brute_force(&g, &format!("G({n}, {p}) seed {seed}"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random edge sets on at most 24 nodes.
    #[test]
    fn random_edge_sets_match_the_brute_force(
        n in 0usize..=24,
        pairs in prop::collection::vec((0usize..24, 0usize..24), 0..160),
    ) {
        let edges = pairs
            .into_iter()
            .filter(|&(a, b)| a < n && b < n && a != b);
        let g = from_edges(n, edges);
        assert_matches_brute_force(&g, &format!("random, n = {n}"));
    }
}
