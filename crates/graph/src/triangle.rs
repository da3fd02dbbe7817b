//! Edges, triangles and sets of triangles.

use std::collections::BTreeSet;
use std::fmt;

use crate::NodeId;

/// An undirected edge, stored with its endpoints in increasing order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    lo: NodeId,
    hi: NodeId,
}

impl Edge {
    /// Creates the edge `{a, b}`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` — the model only considers simple graphs.
    pub fn new(a: NodeId, b: NodeId) -> Self {
        assert!(a != b, "an edge must join two distinct nodes, got {a:?}");
        if a < b {
            Edge { lo: a, hi: b }
        } else {
            Edge { lo: b, hi: a }
        }
    }

    /// The smaller endpoint.
    pub fn lo(&self) -> NodeId {
        self.lo
    }

    /// The larger endpoint.
    pub fn hi(&self) -> NodeId {
        self.hi
    }

    /// Both endpoints, in increasing order.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (self.lo, self.hi)
    }

    /// Whether `node` is one of the endpoints.
    pub fn contains(&self, node: NodeId) -> bool {
        self.lo == node || self.hi == node
    }

    /// Given one endpoint, returns the other; `None` if `node` is not an
    /// endpoint.
    pub fn other(&self, node: NodeId) -> Option<NodeId> {
        if node == self.lo {
            Some(self.hi)
        } else if node == self.hi {
            Some(self.lo)
        } else {
            None
        }
    }
}

impl fmt::Debug for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}, {}}}", self.lo, self.hi)
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}, {}}}", self.lo, self.hi)
    }
}

/// An unordered triple of distinct nodes, stored in increasing order.
///
/// In the paper's notation a triangle is an element of `T(V)` whose three
/// pairs are all edges; a `Triangle` value is just the triple — whether it
/// is an actual triangle of a given graph is checked with
/// [`Graph::is_triangle`](crate::Graph::is_triangle).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triangle {
    a: NodeId,
    b: NodeId,
    c: NodeId,
}

impl Triangle {
    /// Creates the triple `{a, b, c}`.
    ///
    /// # Panics
    ///
    /// Panics if two of the three nodes coincide.
    pub fn new(a: NodeId, b: NodeId, c: NodeId) -> Self {
        assert!(
            a != b && b != c && a != c,
            "a triangle must have three distinct nodes, got {a:?}, {b:?}, {c:?}"
        );
        let mut nodes = [a, b, c];
        nodes.sort();
        Triangle {
            a: nodes[0],
            b: nodes[1],
            c: nodes[2],
        }
    }

    /// The three nodes in increasing order.
    pub fn nodes(&self) -> [NodeId; 3] {
        [self.a, self.b, self.c]
    }

    /// The three edges (pairs) of the triple.
    pub fn edges(&self) -> [Edge; 3] {
        [
            Edge::new(self.a, self.b),
            Edge::new(self.a, self.c),
            Edge::new(self.b, self.c),
        ]
    }

    /// Whether `node` is one of the three nodes.
    pub fn contains(&self, node: NodeId) -> bool {
        self.a == node || self.b == node || self.c == node
    }

    /// Whether `edge` is one of the three pairs of the triple (the relation
    /// `e ∈ t` of the paper).
    pub fn contains_edge(&self, edge: Edge) -> bool {
        self.edges().contains(&edge)
    }
}

impl fmt::Debug for Triangle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}, {}, {}}}", self.a, self.b, self.c)
    }
}

impl fmt::Display for Triangle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}, {}, {}}}", self.a, self.b, self.c)
    }
}

/// A set of triangles (the output type `T_i` of a node, and the union `T`).
///
/// Backed by an ordered set so iteration order is deterministic, which keeps
/// experiment output and tests reproducible. It is the type of outputs: the
/// streaming engines of `congest-stream` keep their long-lived live sets in a
/// hash set and hand them out sorted, as a `TriangleSet`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TriangleSet {
    inner: BTreeSet<Triangle>,
}

impl TriangleSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of triangles in the set.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Inserts a triangle; returns `true` if it was not already present.
    pub fn insert(&mut self, triangle: Triangle) -> bool {
        self.inner.insert(triangle)
    }

    /// Removes a triangle; returns `true` if it was present.
    pub fn remove(&mut self, triangle: &Triangle) -> bool {
        self.inner.remove(triangle)
    }

    /// Whether the set contains `triangle`.
    pub fn contains(&self, triangle: &Triangle) -> bool {
        self.inner.contains(triangle)
    }

    /// Iterates over the triangles in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = &Triangle> + '_ {
        self.inner.iter()
    }

    /// Adds every triangle of `other` to `self`.
    pub fn union_with(&mut self, other: &TriangleSet) {
        for t in other.iter() {
            self.inner.insert(*t);
        }
    }

    /// The set of edges covered by the triangles — the map `P(R)` of the
    /// paper (Section 2), used by the lower-bound machinery.
    pub fn edge_cover(&self) -> BTreeSet<Edge> {
        let mut edges = BTreeSet::new();
        for t in self.iter() {
            for e in t.edges() {
                edges.insert(e);
            }
        }
        edges
    }

    /// Triangles containing a given node.
    pub fn containing(&self, node: NodeId) -> impl Iterator<Item = &Triangle> + '_ {
        self.inner.iter().filter(move |t| t.contains(node))
    }
}

impl FromIterator<Triangle> for TriangleSet {
    fn from_iter<I: IntoIterator<Item = Triangle>>(iter: I) -> Self {
        TriangleSet {
            inner: iter.into_iter().collect(),
        }
    }
}

impl Extend<Triangle> for TriangleSet {
    fn extend<I: IntoIterator<Item = Triangle>>(&mut self, iter: I) {
        self.inner.extend(iter);
    }
}

impl<'a> IntoIterator for &'a TriangleSet {
    type Item = &'a Triangle;
    type IntoIter = std::collections::btree_set::Iter<'a, Triangle>;

    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

impl IntoIterator for TriangleSet {
    type Item = Triangle;
    type IntoIter = std::collections::btree_set::IntoIter<Triangle>;

    fn into_iter(self) -> Self::IntoIter {
        self.inner.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn edge_is_canonical() {
        assert_eq!(Edge::new(v(3), v(1)), Edge::new(v(1), v(3)));
        let e = Edge::new(v(5), v(2));
        assert_eq!(e.lo(), v(2));
        assert_eq!(e.hi(), v(5));
        assert_eq!(e.endpoints(), (v(2), v(5)));
        assert!(e.contains(v(5)));
        assert!(!e.contains(v(3)));
        assert_eq!(e.other(v(2)), Some(v(5)));
        assert_eq!(e.other(v(9)), None);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn edge_rejects_self_loop() {
        let _ = Edge::new(v(1), v(1));
    }

    #[test]
    fn triangle_is_canonical() {
        let t1 = Triangle::new(v(5), v(1), v(3));
        let t2 = Triangle::new(v(3), v(5), v(1));
        assert_eq!(t1, t2);
        assert_eq!(t1.nodes(), [v(1), v(3), v(5)]);
        assert!(t1.contains(v(3)));
        assert!(!t1.contains(v(4)));
        assert!(t1.contains_edge(Edge::new(v(1), v(5))));
        assert!(!t1.contains_edge(Edge::new(v(1), v(4))));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn triangle_rejects_duplicates() {
        let _ = Triangle::new(v(1), v(2), v(1));
    }

    #[test]
    fn triangle_edges() {
        let t = Triangle::new(v(1), v(2), v(3));
        let edges = t.edges();
        assert!(edges.contains(&Edge::new(v(1), v(2))));
        assert!(edges.contains(&Edge::new(v(1), v(3))));
        assert!(edges.contains(&Edge::new(v(2), v(3))));
    }

    #[test]
    fn triangle_set_remove() {
        let mut s = TriangleSet::new();
        let t = Triangle::new(v(1), v(2), v(3));
        s.insert(t);
        assert!(s.remove(&t));
        assert!(!s.remove(&t));
        assert!(s.is_empty());
    }

    #[test]
    fn triangle_set_dedups_and_unions() {
        let mut s = TriangleSet::new();
        assert!(s.is_empty());
        assert!(s.insert(Triangle::new(v(1), v(2), v(3))));
        assert!(!s.insert(Triangle::new(v(3), v(2), v(1))));
        assert_eq!(s.len(), 1);

        let mut other = TriangleSet::new();
        other.insert(Triangle::new(v(2), v(3), v(4)));
        s.union_with(&other);
        assert_eq!(s.len(), 2);
        assert!(s.contains(&Triangle::new(v(4), v(3), v(2))));
    }

    #[test]
    fn edge_cover_matches_paper_definition() {
        let mut s = TriangleSet::new();
        s.insert(Triangle::new(v(1), v(2), v(3)));
        s.insert(Triangle::new(v(2), v(3), v(4)));
        let cover = s.edge_cover();
        // 3 + 3 edges with {2,3} shared => 5 distinct edges.
        assert_eq!(cover.len(), 5);
        assert!(cover.contains(&Edge::new(v(2), v(3))));
    }

    #[test]
    fn containing_filters_by_node() {
        let s: TriangleSet = [
            Triangle::new(v(1), v(2), v(3)),
            Triangle::new(v(4), v(5), v(6)),
            Triangle::new(v(1), v(5), v(6)),
        ]
        .into_iter()
        .collect();
        assert_eq!(s.containing(v(1)).count(), 2);
        assert_eq!(s.containing(v(4)).count(), 1);
        assert_eq!(s.containing(v(9)).count(), 0);
    }

    #[test]
    fn iteration_is_sorted_and_deterministic() {
        let s: TriangleSet = [
            Triangle::new(v(7), v(8), v(9)),
            Triangle::new(v(1), v(2), v(3)),
        ]
        .into_iter()
        .collect();
        let listed: Vec<_> = s.iter().copied().collect();
        assert_eq!(listed[0], Triangle::new(v(1), v(2), v(3)));
        assert_eq!(listed[1], Triangle::new(v(7), v(8), v(9)));
    }
}
