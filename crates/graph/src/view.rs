//! The [`AdjacencyView`] abstraction: read-only adjacency access shared by
//! the frozen CSR [`Graph`] and live structures such as the incremental
//! triangle indexes of `congest-stream`.
//!
//! Everything downstream of the substrate — the centralized reference
//! algorithms, the CONGEST simulator, the Theorem 1/2 drivers — only ever
//! *reads* a graph: node count, sorted neighbour lists, derived adjacency
//! queries. Abstracting that surface into a trait lets those consumers run
//! directly on any structure that can answer the queries, with no `O(m)`
//! snapshot rebuild in between. A mutable engine that keeps per-node sorted
//! neighbour lists implements [`AdjacencyView`] for free.
//!
//! The contract every implementation must uphold:
//!
//! * nodes are `0..node_count()`;
//! * [`neighbors`](AdjacencyView::neighbors) returns a **sorted,
//!   duplicate-free** slice, symmetric across endpoints (`v ∈ N(u)` iff
//!   `u ∈ N(v)`) and never containing the node itself (simple graphs).
//!
//! All provided methods are implemented against that contract and match the
//! semantics of the corresponding inherent methods of [`Graph`].

use crate::{NodeId, Triangle};

/// Length-skew ratio at which [`for_each_common`] switches to galloping
/// search, and past which [`intersection_cost_estimate`] bills the
/// logarithmic kernel. Below it the lists are *balanced*: a walk of both
/// costs `O(d_min + d_max)`, galloping `O(d_min · log(d_max/d_min))`,
/// and the gallop wins once the skew beats the log by a comfortable
/// margin.
pub const GALLOP_RATIO: usize = 16;

/// Width of the signature arm's bitmap of the short list: 4 096 bits,
/// 512 bytes of stack.
const SIGNATURE_BITS: usize = 4096;

/// Longest short list the signature arm takes: one that sets at most one
/// bit in eight. A denser signature lets too many elements of the long
/// list through to the confirming cursor, where the probe pays what the
/// merge would.
const SIGNATURE_MAX_SHORT: usize = SIGNATURE_BITS / 8;

/// Visits each element of `a ∩ b` in increasing order, for sorted,
/// duplicate-free slices. This is *the* common-neighbour intersection
/// core of the workspace — the trait defaults below, [`Graph`]'s
/// inherent methods, A2's edge-set listing, the naive baseline and the
/// `congest-stream` engines all route through it (the centralized
/// `list_all_on` does not: it walks a forward array with a stamp per
/// node, an independent reference). Three arms, chosen by the two
/// lengths alone:
///
/// * **gallop** — `d_max ≥ GALLOP_RATIO · d_min` (hub nodes under
///   power-law churn): each element of the short list is galloped into
///   the long one — exponential doubling from an advancing lower bound,
///   then a binary search inside the bracket. The lower bound never
///   moves backwards, so the pass is `O(d_min · log(d_max/d_min))`
///   amortized rather than `O(d_min · log d_max)`.
/// * **signature probe** — balanced lengths and a short list that fills
///   at most one bit in eight of a stack bitmap (at most 512
///   elements): one bit per short-list element, keyed by the id's low
///   bits, then the long list is walked up to the short list's last
///   element and each of its elements tests its own bit. Those tests do
///   not depend on one another, so the walk runs at the speed of
///   independent loads rather than a merge's dependent chain; only an
///   element whose bit is set is confirmed against a cursor into the
///   short list. The bitmap is 4 096 bits (512 bytes).
/// * **merge** — balanced lists too long for the signature: a
///   branch-light two-pointer merge whose index advances are computed
///   from comparisons. At that length a saturated signature would send
///   most of the long list to the cursor and lose to the merge.
///
/// No arm allocates. On input that breaks the contract (unsorted or
/// duplicated slices, as a faulty peer may send) every arm still
/// terminates without panicking; what it visits is then unspecified.
///
/// [`Graph`]: crate::Graph
pub fn for_each_common<F: FnMut(NodeId)>(a: &[NodeId], b: &[NodeId], visit: F) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return;
    }
    if gallops(small.len(), large.len()) {
        gallop(small, large, visit);
    } else if small.len() <= SIGNATURE_MAX_SHORT {
        probe_signature(small, large, visit);
    } else {
        merge(small, large, visit);
    }
}

/// Whether lists of length `min ≤ max` take the gallop: the test
/// `max / min ≥ GALLOP_RATIO` without the divide. A product that
/// overflows means `max` is below it, so that pair does not gallop.
fn gallops(min: usize, max: usize) -> bool {
    min.checked_mul(GALLOP_RATIO)
        .is_some_and(|floor| max >= floor)
}

/// The gallop arm of [`for_each_common`].
fn gallop<F: FnMut(NodeId)>(small: &[NodeId], large: &[NodeId], mut visit: F) {
    let mut lo = 0usize;
    for &w in small {
        // Exponential search: double the step until the probe value at
        // `lo + step` is no longer below `w` (or runs off the end), then
        // binary-search the bracket that doubling established. `lo`
        // only ever advances.
        let mut step = 1usize;
        while lo + step < large.len() && large[lo + step] < w {
            step <<= 1;
        }
        let hi = (lo + step + 1).min(large.len());
        match large[lo..hi].binary_search(&w) {
            Ok(pos) => {
                visit(w);
                lo += pos + 1;
            }
            Err(pos) => lo += pos,
        }
        if lo >= large.len() {
            break;
        }
    }
}

/// The signature arm of [`for_each_common`], for a non-empty `small`.
fn probe_signature<F: FnMut(NodeId)>(small: &[NodeId], large: &[NodeId], mut visit: F) {
    let bit = |id: NodeId| id.0 as usize % SIGNATURE_BITS;
    let mut signature = [0u64; SIGNATURE_BITS / 64];
    for &w in small {
        let b = bit(w);
        signature[b / 64] |= 1 << (b % 64);
    }
    let last = small[small.len() - 1];
    let mut i = 0usize;
    for &y in large {
        if y > last {
            break;
        }
        let b = bit(y);
        if signature[b / 64] & (1 << (b % 64)) != 0 {
            // A set bit may be another id with the same low bits:
            // confirm against the cursor, which only moves forward.
            while i < small.len() && small[i] < y {
                i += 1;
            }
            if i < small.len() && small[i] == y {
                visit(y);
                i += 1;
            }
        }
    }
}

/// The merge arm of [`for_each_common`].
fn merge<F: FnMut(NodeId)>(small: &[NodeId], large: &[NodeId], mut visit: F) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < small.len() && j < large.len() {
        let x = small[i];
        let y = large[j];
        if x == y {
            visit(x);
            i += 1;
            j += 1;
        } else {
            i += usize::from(x < y);
            j += usize::from(y < x);
        }
    }
}

/// Estimated comparison count of [`for_each_common`] on lists of length
/// `da` and `db` — a bound on what the kernel pays rather than its
/// exact work. Skewed pairs (those that gallop) bill the gallop at
/// `d_min · (log2(d_max/d_min) + 1)`. Every other pair bills
/// `d_min + d_max`: the merge walks that much, and the signature probe
/// does one bit set and at most one cursor step per short-list element
/// and at most one bit test per long-list element — steps that do not
/// wait on one another, so past a handful of elements it costs less
/// time than a merge of the same bill. The estimate is kept on the
/// merge's terms because the shard pool's hand-off test reads it, and a
/// batch's path must not move with a kernel change. Never returns zero,
/// so cost-based chunking always makes progress.
pub fn intersection_cost_estimate(da: usize, db: usize) -> usize {
    let (min, max) = if da <= db { (da, db) } else { (db, da) };
    if min == 0 {
        return 1;
    }
    let cost = if gallops(min, max) {
        let ratio = max / min;
        min * (usize::BITS - ratio.leading_zeros()) as usize
    } else {
        min + max
    };
    cost.max(1)
}

/// `a ∩ b` for sorted, duplicate-free slices (see [`for_each_common`]).
pub fn intersect_sorted(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::new();
    for_each_common(a, b, |w| out.push(w));
    out
}

/// `|a ∩ b|` for sorted, duplicate-free slices, counted without
/// materializing the intersection (see [`for_each_common`]).
pub fn count_common(a: &[NodeId], b: &[NodeId]) -> usize {
    let mut count = 0usize;
    for_each_common(a, b, |_| count += 1);
    count
}

/// Read-only access to an undirected graph's sorted adjacency structure.
///
/// The module-level documentation in `view.rs` spells out the contract.
/// [`Graph`] implements this by borrowing its CSR rows; live engines
/// implement it by borrowing their mutable neighbour lists, which is what
/// lets the static drivers and the centralized oracle run on an evolving
/// graph without a snapshot.
///
/// [`Graph`]: crate::Graph
pub trait AdjacencyView {
    /// Number of nodes `n`; nodes are `0..n`.
    fn node_count(&self) -> usize;

    /// Sorted neighbour list of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    fn neighbors(&self, node: NodeId) -> &[NodeId];

    /// Number of undirected edges `m`.
    ///
    /// The default recounts half the degree sum in `O(n)`;
    /// implementations that track the count should override it.
    fn edge_count(&self) -> usize {
        let directed: usize = self.nodes().map(|v| self.degree(v)).sum();
        directed / 2
    }

    /// Degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    fn degree(&self, node: NodeId) -> usize {
        self.neighbors(node).len()
    }

    /// Iterator over all node identifiers `0..n`.
    fn nodes(&self) -> NodeIdRange {
        NodeIdRange {
            range: 0..self.node_count(),
        }
    }

    /// Maximum degree `d_max` over all nodes (0 for the empty graph).
    fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Whether `{a, b}` is an edge. Self-queries and out-of-range queries
    /// return `false`.
    fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        if a == b || a.index() >= self.node_count() || b.index() >= self.node_count() {
            return false;
        }
        // Search from the lower-degree endpoint.
        let (from, to) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.neighbors(from).binary_search(&to).is_ok()
    }

    /// Whether the triple `t` has its three pairs in the edge set.
    fn is_triangle(&self, t: Triangle) -> bool {
        t.edges().iter().all(|e| self.has_edge(e.lo(), e.hi()))
    }

    /// The edge support `#({a,b})` of the paper: the number of common
    /// neighbours of `a` and `b`, counted without materializing them
    /// (via [`count_common`]).
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    fn edge_support(&self, a: NodeId, b: NodeId) -> usize {
        count_common(self.neighbors(a), self.neighbors(b))
    }

    /// The sorted common neighbourhood `N(a) ∩ N(b)` (via
    /// [`intersect_sorted`]).
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    fn common_neighbors(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        intersect_sorted(self.neighbors(a), self.neighbors(b))
    }
}

/// Iterator over the node identifiers `0..n` of a view (a concrete type so
/// [`AdjacencyView`] stays object-safe and usable on older toolchains).
#[derive(Debug, Clone)]
pub struct NodeIdRange {
    range: std::ops::Range<usize>,
}

impl Iterator for NodeIdRange {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        self.range.next().map(NodeId::from_index)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for NodeIdRange {}

impl AdjacencyView for crate::Graph {
    fn node_count(&self) -> usize {
        crate::Graph::node_count(self)
    }

    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        crate::Graph::neighbors(self, node)
    }

    fn edge_count(&self) -> usize {
        crate::Graph::edge_count(self)
    }

    fn degree(&self, node: NodeId) -> usize {
        crate::Graph::degree(self, node)
    }

    fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        crate::Graph::has_edge(self, a, b)
    }
}

// A reference to a view is itself a view, so generic consumers can be fed
// either owned or borrowed structures.
impl<V: AdjacencyView + ?Sized> AdjacencyView for &V {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        (**self).neighbors(node)
    }

    fn edge_count(&self) -> usize {
        (**self).edge_count()
    }

    fn degree(&self, node: NodeId) -> usize {
        (**self).degree(node)
    }

    fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        (**self).has_edge(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::Gnp;
    use crate::{Graph, GraphBuilder};

    fn v(i: u32) -> NodeId {
        NodeId(i)
    }

    /// A minimal non-`Graph` implementation, as the streaming engines keep
    /// it: one sorted `Vec` per node.
    struct VecAdjacency(Vec<Vec<NodeId>>);

    impl AdjacencyView for VecAdjacency {
        fn node_count(&self) -> usize {
            self.0.len()
        }

        fn neighbors(&self, node: NodeId) -> &[NodeId] {
            &self.0[node.index()]
        }
    }

    fn sample_graph() -> Graph {
        let mut b = GraphBuilder::new(5);
        b.add_edge(v(0), v(1)).unwrap();
        b.add_edge(v(1), v(2)).unwrap();
        b.add_edge(v(0), v(2)).unwrap();
        b.add_edge(v(2), v(3)).unwrap();
        b.build()
    }

    fn as_vec_adjacency(g: &Graph) -> VecAdjacency {
        VecAdjacency(g.nodes().map(|u| g.neighbors(u).to_vec()).collect())
    }

    #[test]
    fn graph_view_agrees_with_inherent_methods() {
        let g = Gnp::new(30, 0.2).seeded(5).generate();
        let view: &dyn AdjacencyView = &g;
        assert_eq!(view.node_count(), g.node_count());
        assert_eq!(view.edge_count(), g.edge_count());
        assert_eq!(view.max_degree(), g.max_degree());
        for u in g.nodes() {
            assert_eq!(view.neighbors(u), g.neighbors(u));
            assert_eq!(view.degree(u), g.degree(u));
            for w in g.nodes() {
                assert_eq!(view.has_edge(u, w), g.has_edge(u, w));
                if u != w {
                    assert_eq!(view.common_neighbors(u, w), g.common_neighbors(u, w));
                    assert_eq!(view.edge_support(u, w), g.edge_support(u, w));
                }
            }
        }
    }

    #[test]
    fn default_methods_work_for_a_non_graph_implementation() {
        let g = sample_graph();
        let view = as_vec_adjacency(&g);
        assert_eq!(AdjacencyView::edge_count(&view), 4);
        assert_eq!(view.max_degree(), 3);
        assert!(view.has_edge(v(0), v(2)));
        assert!(!view.has_edge(v(0), v(3)));
        assert!(!view.has_edge(v(0), v(0)));
        assert!(!view.has_edge(v(0), v(99)));
        assert!(view.is_triangle(Triangle::new(v(0), v(1), v(2))));
        assert!(!view.is_triangle(Triangle::new(v(1), v(2), v(3))));
        assert_eq!(view.common_neighbors(v(0), v(1)), vec![v(2)]);
        let nodes: Vec<NodeId> = view.nodes().collect();
        assert_eq!(nodes.len(), 5);
        assert_eq!(nodes[4], v(4));
        assert_eq!(view.nodes().len(), 5);
    }

    /// Reference intersection: plain merge, no kernel selection.
    fn naive_intersect(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
        a.iter().filter(|w| b.contains(w)).copied().collect()
    }

    #[test]
    fn both_kernels_match_the_naive_intersection() {
        // Deterministic pseudo-random sorted sets across a sweep of
        // length pairs that straddles GALLOP_RATIO from both sides.
        let mut state = 0x9e37u64;
        let mut next = move |bound: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as u32) % bound
        };
        let mut sorted_set = |len: usize, bound: u32| {
            let mut v: Vec<NodeId> = (0..len * 2).map(|_| NodeId(next(bound))).collect();
            v.sort_unstable();
            v.dedup();
            v.truncate(len);
            v
        };
        for (la, lb) in [
            (0, 0),
            (0, 40),
            (1, 1),
            (3, 200),
            (17, 17),
            (10, 10 * GALLOP_RATIO),
            (10, 10 * GALLOP_RATIO - 1),
            (64, 64),
            (5, 4096),
        ] {
            for bound in [8u32, 64, 1 << 14] {
                let a = sorted_set(la, bound);
                let b = sorted_set(lb, bound);
                assert_eq!(
                    intersect_sorted(&a, &b),
                    naive_intersect(&a, &b),
                    "lens ({la},{lb}) bound {bound}"
                );
                assert_eq!(count_common(&a, &b), naive_intersect(&a, &b).len());
                // Symmetry: orientation must not change the result.
                assert_eq!(intersect_sorted(&b, &a), intersect_sorted(&a, &b));
            }
        }
    }

    #[test]
    fn galloping_handles_adversarial_layouts() {
        // All of small before large, after large, interleaved at the
        // ends — the advancing lower bound must not skip matches.
        let large: Vec<NodeId> = (100..1700).map(NodeId).collect();
        let before: Vec<NodeId> = (0..5).map(NodeId).collect();
        let after: Vec<NodeId> = (2000..2005).map(NodeId).collect();
        let edges = vec![NodeId(100), NodeId(1699)];
        assert!(intersect_sorted(&before, &large).is_empty());
        assert!(intersect_sorted(&after, &large).is_empty());
        assert_eq!(intersect_sorted(&edges, &large), edges);
        // Dense duplicated-value-free run fully contained.
        let inside: Vec<NodeId> = (500..510).map(NodeId).collect();
        assert_eq!(intersect_sorted(&inside, &large), inside);
    }

    #[test]
    fn cost_estimate_matches_kernel_selection() {
        // Balanced pairs bill the merge.
        assert_eq!(intersection_cost_estimate(4, 4), 8);
        assert_eq!(intersection_cost_estimate(10, 30), 40);
        // Skewed pairs bill the gallop: min · (log2(max/min) + 1).
        assert_eq!(intersection_cost_estimate(10, 160), 10 * 5);
        assert_eq!(intersection_cost_estimate(160, 10), 10 * 5);
        assert_eq!(intersection_cost_estimate(1, 1024), 11);
        // The gallop estimate undercuts the merge estimate on skew.
        assert!(intersection_cost_estimate(10, 160) < 10 + 160);
        // Never zero, so cost-budgeted chunking always progresses.
        assert_eq!(intersection_cost_estimate(0, 0), 1);
        assert_eq!(intersection_cost_estimate(0, 100), 1);
    }

    #[test]
    fn references_are_views_too() {
        fn count<V: AdjacencyView>(view: V) -> usize {
            view.node_count()
        }
        let g = sample_graph();
        // `&Graph` goes through the blanket `impl AdjacencyView for &V`.
        let by_ref: &Graph = &g;
        assert_eq!(count(by_ref), 5);
        let dynamic: &dyn AdjacencyView = &g;
        assert_eq!(count(dynamic), 5);
    }
}
