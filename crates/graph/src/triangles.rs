//! Centralized reference triangle algorithms.
//!
//! These provide the ground truth against which the distributed algorithms
//! are checked: `T(G)` (the set of all triangles), the triangle count, the
//! per-edge support `#(e)`, and the triangles incident to a given node.
//!
//! The listing routine is the compact-forward walk (Latapy 2008;
//! Schank–Wagner 2005): orient each edge from the endpoint of lower
//! `(degree, id)` rank towards the higher one, keep every node's forward
//! neighbours in one CSR array, then, for each node `v`, stamp `v`'s
//! forward neighbours in an `n`-entry array and walk the forward list of
//! each of them: a stamped node closes a triangle. The walk runs in
//! `O(m^{3/2})` time and `O(n + m)` space, fast enough for every graph
//! size the simulator can handle. It shares no code with the
//! intersection kernel ([`for_each_common`](crate::for_each_common)) or
//! the streaming engines' incremental loop, so checking an engine
//! against it checks one algorithm against another.
//!
//! Every routine is generic over [`AdjacencyView`], so the same oracle
//! runs on a frozen [`Graph`] and directly on the live indexes of
//! `congest-stream` — no snapshot rebuild. The historical `&Graph` entry
//! points are kept as thin aliases.

use std::ops::ControlFlow;

use crate::{AdjacencyView, Edge, Graph, NodeId, Triangle, TriangleSet};

/// Stamp of a node no walk has reached yet: no node's index.
const UNSTAMPED: usize = usize::MAX;

/// Calls `visit(v, u, w)` once for every triangle of `g`, with
/// `rank(v) < rank(u) < rank(w)` under the `(degree, id)` order, until
/// `visit` breaks; returns whether it did.
fn for_each_triangle<V, F>(g: &V, mut visit: F) -> ControlFlow<()>
where
    V: AdjacencyView + ?Sized,
    F: FnMut(NodeId, NodeId, NodeId) -> ControlFlow<()>,
{
    let n = g.node_count();
    let degree: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
    // Forward neighbours: those of higher rank. The filter keeps each
    // sorted list in id order, so the array needs no sort.
    let mut offsets = Vec::with_capacity(n + 1);
    let mut forward = Vec::with_capacity(degree.iter().sum::<usize>() / 2);
    offsets.push(0usize);
    for v in g.nodes() {
        let dv = degree[v.index()];
        forward.extend(g.neighbors(v).iter().copied().filter(|&w| {
            let dw = degree[w.index()];
            dv < dw || (dv == dw && v < w)
        }));
        offsets.push(forward.len());
    }
    drop(degree);
    let fwd = |v: NodeId| &forward[offsets[v.index()]..offsets[v.index() + 1]];
    // `stamp[w] == v` while `v`'s turn runs iff `w` is a forward
    // neighbour of `v`: the one stamp array serves every turn unwiped.
    let mut stamp = vec![UNSTAMPED; n];
    for v in g.nodes() {
        let fv = fwd(v);
        for &u in fv {
            stamp[u.index()] = v.index();
        }
        for &u in fv {
            for &w in fwd(u) {
                if stamp[w.index()] == v.index() {
                    visit(v, u, w)?;
                }
            }
        }
    }
    ControlFlow::Continue(())
}

/// Lists all triangles of `g` (the set `T(G)` of the paper).
///
/// ```
/// use congest_graph::generators::Classic;
/// use congest_graph::triangles::list_all;
///
/// let k4 = Classic::Complete(4).generate();
/// assert_eq!(list_all(&k4).len(), 4);
/// ```
pub fn list_all(g: &Graph) -> TriangleSet {
    list_all_on(g)
}

/// Lists all triangles of any [`AdjacencyView`] — the snapshot-free oracle
/// used by the streaming engines' self-checks.
///
/// The compact-forward walk of the module docs, `O(m^{3/2})`: each
/// triangle is found exactly once, by its lowest-ranked node, and
/// inserted as it is found.
pub fn list_all_on<V: AdjacencyView + ?Sized>(g: &V) -> TriangleSet {
    let mut out = TriangleSet::new();
    let _ = for_each_triangle(g, |v, u, w| {
        out.insert(Triangle::new(v, u, w));
        ControlFlow::Continue(())
    });
    out
}

/// Counts the triangles of `g` without materializing them.
pub fn count_all(g: &Graph) -> usize {
    count_all_on(g)
}

/// Counts the triangles of any [`AdjacencyView`] without materializing
/// them.
pub fn count_all_on<V: AdjacencyView + ?Sized>(g: &V) -> usize {
    let mut count = 0;
    let _ = for_each_triangle(g, |_, _, _| {
        count += 1;
        ControlFlow::Continue(())
    });
    count
}

/// Whether `g` contains at least one triangle.
pub fn has_triangle(g: &Graph) -> bool {
    has_triangle_on(g)
}

/// Whether any [`AdjacencyView`] contains at least one triangle: the
/// walk stops at the first one.
pub fn has_triangle_on<V: AdjacencyView + ?Sized>(g: &V) -> bool {
    for_each_triangle(g, |_, _, _| ControlFlow::Break(())).is_break()
}

/// Lists the triangles containing a specific node (the local-listing output
/// of Proposition 5).
pub fn list_containing(g: &Graph, node: NodeId) -> TriangleSet {
    let mut out = TriangleSet::new();
    let neighbors = g.neighbors(node);
    for (i, &u) in neighbors.iter().enumerate() {
        for &w in &neighbors[i + 1..] {
            if g.has_edge(u, w) {
                out.insert(Triangle::new(node, u, w));
            }
        }
    }
    out
}

/// Lists the triangles containing a specific edge.
pub fn list_containing_edge(g: &Graph, edge: Edge) -> TriangleSet {
    g.common_neighbors(edge.lo(), edge.hi())
        .into_iter()
        .map(|w| Triangle::new(edge.lo(), edge.hi(), w))
        .collect()
}

/// Brute-force `O(n^3)` listing, used only by tests as an independent
/// oracle for the optimized routine.
pub fn list_all_brute_force(g: &Graph) -> TriangleSet {
    let mut out = TriangleSet::new();
    let n = g.node_count();
    for a in 0..n {
        for b in (a + 1)..n {
            if !g.has_edge(NodeId::from_index(a), NodeId::from_index(b)) {
                continue;
            }
            for c in (b + 1)..n {
                let (va, vb, vc) = (
                    NodeId::from_index(a),
                    NodeId::from_index(b),
                    NodeId::from_index(c),
                );
                if g.has_edge(va, vc) && g.has_edge(vb, vc) {
                    out.insert(Triangle::new(va, vb, vc));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{Classic, Gnp, PlantedLight};

    #[test]
    fn complete_graph_counts() {
        // K_n has C(n,3) triangles.
        for n in 3..8 {
            let g = Classic::Complete(n).generate();
            let expected = n * (n - 1) * (n - 2) / 6;
            assert_eq!(count_all(&g), expected);
            assert!(has_triangle(&g));
        }
    }

    #[test]
    fn triangle_free_graphs() {
        let g = Classic::CompleteBipartite(6, 7).generate();
        assert_eq!(count_all(&g), 0);
        assert!(!has_triangle(&g));
        let g = Classic::Cycle(8).generate();
        assert!(!has_triangle(&g));
        let g = Classic::Cycle(3).generate();
        assert!(has_triangle(&g));
    }

    #[test]
    fn view_oracle_matches_graph_oracle() {
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
        for seed in 0..3 {
            let g = Gnp::new(30, 0.25).seeded(seed).generate();
            let lists = Lists(g.nodes().map(|u| g.neighbors(u).to_vec()).collect());
            assert_eq!(list_all_on(&lists), list_all(&g), "seed {seed}");
            assert_eq!(count_all_on(&lists), count_all(&g));
            assert_eq!(has_triangle_on(&lists), has_triangle(&g));
        }
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..5 {
            let g = Gnp::new(25, 0.3).seeded(seed).generate();
            assert_eq!(list_all(&g), list_all_brute_force(&g), "seed {seed}");
        }
    }

    #[test]
    fn listing_output_only_contains_real_triangles() {
        let g = Gnp::new(40, 0.2).seeded(3).generate();
        for t in &list_all(&g) {
            assert!(g.is_triangle(*t));
        }
    }

    #[test]
    fn per_node_listing_is_consistent_with_global_listing() {
        let g = Gnp::new(30, 0.3).seeded(7).generate();
        let all = list_all(&g);
        for v in g.nodes() {
            let local = list_containing(&g, v);
            // Every local triangle is a global triangle containing v...
            for t in &local {
                assert!(all.contains(t));
                assert!(t.contains(v));
            }
            // ...and vice versa.
            assert_eq!(all.containing(v).count(), local.len());
        }
    }

    #[test]
    fn per_edge_listing_matches_edge_support() {
        let g = Gnp::new(30, 0.4).seeded(5).generate();
        for e in g.edges() {
            let through = list_containing_edge(&g, e);
            assert_eq!(through.len(), g.edge_support(e.lo(), e.hi()));
            for t in &through {
                assert!(t.contains_edge(e));
                assert!(g.is_triangle(*t));
            }
        }
    }

    #[test]
    fn planted_triangles_are_recovered_exactly() {
        let gen = PlantedLight::new(24, 6);
        let g = gen.generate();
        let listed = list_all(&g);
        assert_eq!(listed.len(), 6);
        for t in gen.planted() {
            assert!(listed.contains(&Triangle::new(t[0], t[1], t[2])));
        }
    }
}
