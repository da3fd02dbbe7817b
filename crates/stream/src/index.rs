//! The incremental triangle index.
//!
//! [`TriangleIndex`] maintains the adjacency structure of an evolving graph
//! **and** its live set of triangles under [`DeltaBatch`]es of edge
//! insertions and removals. Each applied delta only touches the
//! neighbourhoods of its two endpoints: inserting or removing `{u, v}`
//! adds or retires exactly the triangles `{u, v, w}` with
//! `w ∈ N(u) ∩ N(v)`, found by a sorted-adjacency intersection that always
//! walks the **lower-degree** endpoint (and switches to binary probing when
//! the two degrees are badly skewed). A batch of `b` deltas therefore costs
//! `O(b · d̄ log d_max)` instead of the `O(m^{3/2})` a from-scratch recount
//! pays — the asymmetry the workload harness quantifies.
//!
//! Two application modes are supported:
//!
//! * [`ApplyMode::Eager`] — every [`apply`](TriangleIndex::apply) updates
//!   the triangle set immediately;
//! * [`ApplyMode::Deferred`] — batches accumulate and coalesce (at most one
//!   op per edge survives) until [`flush`](TriangleIndex::flush), so edges
//!   that flap inside the window cost nothing.

use std::fmt;
use std::time::Duration;

use congest_graph::{AdjacencyView, Graph, GraphBuilder, NodeId, Triangle, TriangleSet};

use crate::arena::{ArenaStats, NeighborArena};
use crate::delta::{DeltaBatch, DeltaOp, EdgeDelta, PendingBuffer};
use crate::shard::{intersect_sorted, NodeSupport};

/// When the engine pays for triangle maintenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ApplyMode {
    /// Update triangles on every [`TriangleIndex::apply`] call.
    #[default]
    Eager,
    /// Buffer and coalesce batches; update triangles on
    /// [`TriangleIndex::flush`] (or just before any read that needs a
    /// consistent view).
    Deferred,
}

impl ApplyMode {
    /// Short lowercase name, used in logs and JSON.
    pub fn name(self) -> &'static str {
        match self {
            ApplyMode::Eager => "eager",
            ApplyMode::Deferred => "deferred",
        }
    }
}

/// Errors surfaced by the streaming engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// A delta references a node outside `0..n`. The whole batch is
    /// rejected — batches apply atomically or not at all.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Number of nodes of the indexed graph.
        node_count: usize,
    },
    /// A simulated network node received a payload it could not decode
    /// into protocol-legal content (truncated stream, out-of-range or
    /// duplicate node ids). The engine's own broadcasts never produce
    /// this; it surfaces corrupt or hostile injected traffic instead of
    /// silently truncating ids. The epoch's effects on the engine are
    /// unspecified once a payload is corrupt, so the engine refuses
    /// every later batch with [`StreamError::Poisoned`].
    Protocol {
        /// The node that received the corrupt payload.
        node: NodeId,
        /// What failed to decode.
        detail: String,
    },
    /// An earlier batch failed partway, so the engine's state is
    /// undefined and further applies are refused. On a
    /// [`ShardedTriangleIndex`](crate::ShardedTriangleIndex) the
    /// persistent worker pool was poisoned by a worker panic that a
    /// caller caught (the shard state may be lost mid-batch); on a
    /// [`DistributedTriangleEngine`](crate::DistributedTriangleEngine)
    /// an epoch returned [`Protocol`](StreamError::Protocol),
    /// [`RoundLimit`](StreamError::RoundLimit) or
    /// [`RecoveryExhausted`](StreamError::RecoveryExhausted).
    Poisoned,
    /// A simulated epoch hit the configured round cap before every node
    /// halted. A hardened epoch ends by itself whatever is lost — a dead
    /// convergecast link is given up after a bounded number of resends,
    /// and a per-node deadline backstops that — so under a fault plan
    /// this means the cap was set below what the epoch's own deadlines
    /// allow; the batch did not apply cleanly, so the engine refuses
    /// every later batch with [`StreamError::Poisoned`].
    RoundLimit {
        /// Rounds executed when the cap fired.
        rounds: u64,
    },
    /// The self-healing recovery protocol gave up: after the bounded
    /// number of retransmission epochs some streams still failed
    /// verification. The engine refuses to report a possibly-wrong
    /// result, and every later batch with [`StreamError::Poisoned`] —
    /// rebuild it, or rerun with a gentler fault plan.
    RecoveryExhausted {
        /// Retransmission epochs attempted.
        attempts: u32,
        /// Streams still unverified when the bound was hit.
        pending: usize,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::NodeOutOfRange { node, node_count } => write!(
                f,
                "delta touches node {node}, outside the indexed graph of {node_count} nodes"
            ),
            StreamError::Protocol { node, detail } => write!(
                f,
                "node {node} received a protocol-violating payload: {detail}"
            ),
            StreamError::Poisoned => write!(
                f,
                "engine poisoned by an earlier failed batch; discard it and rebuild from a graph"
            ),
            StreamError::RoundLimit { rounds } => write!(
                f,
                "epoch hit the round cap after {rounds} rounds before all nodes halted"
            ),
            StreamError::RecoveryExhausted { attempts, pending } => write!(
                f,
                "recovery exhausted after {attempts} retransmission epochs with {pending} streams still unverified"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

/// Rejects any delta referencing a node outside `0..node_count` — the
/// shared whole-batch validation both engines run before touching state,
/// so batches apply atomically or not at all.
pub(crate) fn validate_batch(batch: &DeltaBatch, node_count: usize) -> Result<(), StreamError> {
    for d in batch {
        for node in [d.edge.lo(), d.edge.hi()] {
            if node.index() >= node_count {
                return Err(StreamError::NodeOutOfRange { node, node_count });
            }
        }
    }
    Ok(())
}

/// What applying (or deferring) a batch did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyReport {
    /// Deltas handed to the engine.
    pub deltas_seen: usize,
    /// Insertions that changed the graph.
    pub inserts_applied: usize,
    /// Removals that changed the graph.
    pub removes_applied: usize,
    /// Deltas that were no-ops (inserting a present edge, removing an
    /// absent one) or were coalesced away before application.
    pub noops: usize,
    /// Triangles that came into existence.
    pub triangles_added: usize,
    /// Triangles retired.
    pub triangles_removed: usize,
    /// Deltas buffered for a later [`TriangleIndex::flush`] (deferred mode
    /// only; they are *not* counted in the applied/noop fields yet).
    pub deltas_deferred: usize,
}

impl ApplyReport {
    /// Accumulates `other` into `self` (used to total per-batch reports).
    pub fn absorb(&mut self, other: &ApplyReport) {
        self.deltas_seen += other.deltas_seen;
        self.inserts_applied += other.inserts_applied;
        self.removes_applied += other.removes_applied;
        self.noops += other.noops;
        self.triangles_added += other.triangles_added;
        self.triangles_removed += other.triangles_removed;
        self.deltas_deferred += other.deltas_deferred;
    }
}

/// Incremental triangle engine over batched edge deltas.
///
/// ```
/// use congest_graph::generators::Gnp;
/// use congest_graph::triangles as oracle;
/// use congest_stream::{DeltaBatch, TriangleIndex};
///
/// let graph = Gnp::new(64, 0.1).seeded(1).generate();
/// let mut index = TriangleIndex::from_graph(&graph);
///
/// let mut batch = DeltaBatch::new();
/// batch.insert(congest_graph::NodeId(0), congest_graph::NodeId(1));
/// index.apply(&batch).unwrap();
///
/// // The live set always equals a from-scratch recount.
/// assert_eq!(index.triangles(), &oracle::list_all(&index.snapshot()));
/// ```
#[derive(Debug, Clone)]
pub struct TriangleIndex {
    /// Sorted neighbour list per node (slot = node index), packed into
    /// one flat [`NeighborArena`] — the mutable mirror of the CSR
    /// layout `congest_graph::Graph` freezes.
    adjacency: NeighborArena,
    /// The live triangle set.
    triangles: TriangleSet,
    /// Per-node triangle-support counters, maintained at the same two
    /// sites that mutate `triangles`.
    support: NodeSupport,
    /// Number of present undirected edges.
    edge_count: usize,
    mode: ApplyMode,
    /// Deferred-mode buffer (concatenated batches + staleness clock).
    pending: PendingBuffer,
}

impl TriangleIndex {
    /// An empty index on `node_count` nodes, in [`ApplyMode::Eager`].
    pub fn new(node_count: usize) -> Self {
        TriangleIndex {
            adjacency: NeighborArena::new(node_count),
            triangles: TriangleSet::new(),
            support: NodeSupport::new(node_count),
            edge_count: 0,
            mode: ApplyMode::Eager,
            pending: PendingBuffer::default(),
        }
    }

    /// An index seeded with a static graph's edges and triangles (the
    /// triangles are computed once with the centralized reference listing).
    pub fn from_graph(graph: &Graph) -> Self {
        let mut adjacency = NeighborArena::new(graph.node_count());
        for v in graph.nodes() {
            adjacency.seed(v.index(), graph.neighbors(v));
        }
        let triangles = congest_graph::triangles::list_all(graph);
        let support = NodeSupport::seed_from(&triangles, graph.node_count());
        TriangleIndex {
            adjacency,
            triangles,
            support,
            edge_count: graph.edge_count(),
            mode: ApplyMode::Eager,
            pending: PendingBuffer::default(),
        }
    }

    /// Sets the application mode (builder style).
    ///
    /// Switching away from deferred mode first flushes anything buffered,
    /// so deltas are never reordered across the mode change.
    pub fn with_mode(mut self, mode: ApplyMode) -> Self {
        if mode != self.mode && !self.pending.is_empty() {
            self.flush();
        }
        self.mode = mode;
        self
    }

    /// The application mode in effect.
    pub fn mode(&self) -> ApplyMode {
        self.mode
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adjacency.slot_count()
    }

    /// Number of present undirected edges (excluding pending deltas).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether `{a, b}` is currently an edge (excluding pending deltas).
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        if a == b || a.index() >= self.node_count() || b.index() >= self.node_count() {
            return false;
        }
        let (from, to) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.adjacency.contains(from.index(), to)
    }

    /// Current degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency.len_of(node.index())
    }

    /// Sorted neighbour list of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        self.adjacency.neighbors(node.index())
    }

    /// Health counters of the index's neighbour arena.
    pub fn arena_stats(&self) -> ArenaStats {
        self.adjacency.stats()
    }

    /// The live triangle set.
    ///
    /// In deferred mode this reflects only flushed batches; call
    /// [`flush`](TriangleIndex::flush) first for a consistent view.
    pub fn triangles(&self) -> &TriangleSet {
        &self.triangles
    }

    /// Number of live triangles (same staleness caveat as
    /// [`triangles`](TriangleIndex::triangles)).
    pub fn triangle_count(&self) -> usize {
        self.triangles.len()
    }

    /// Number of live triangles containing `node`, maintained
    /// incrementally alongside the triangle set — O(1), no
    /// re-intersection.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_support(&self, node: NodeId) -> usize {
        self.support.of(node)
    }

    /// Number of live triangles containing the edge `{a, b}` — one
    /// sorted-list intersection (`O(deg a + deg b)`); 0 when the edge is
    /// absent.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn edge_support(&self, a: NodeId, b: NodeId) -> usize {
        if !self.has_edge(a, b) {
            return 0;
        }
        congest_graph::count_common(self.neighbors(a), self.neighbors(b))
    }

    /// Deltas buffered by deferred mode and not yet flushed.
    pub fn pending_deltas(&self) -> usize {
        self.pending.len()
    }

    /// How long the oldest buffered delta has been waiting (`None` while
    /// nothing is pending). Deadline-based flush policies compare this
    /// staleness against their budget.
    pub fn pending_age(&self) -> Option<Duration> {
        self.pending.age()
    }

    /// Applies a batch according to the [`ApplyMode`].
    ///
    /// Eager mode applies the deltas in order, immediately. Deferred mode
    /// only validates and buffers them; the returned report then has
    /// `deltas_deferred > 0` and zero applied counts.
    ///
    /// # Errors
    ///
    /// [`StreamError::NodeOutOfRange`] if any delta references a node
    /// outside the graph; the batch is then applied not at all.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<ApplyReport, StreamError> {
        self.validate(batch)?;
        match self.mode {
            ApplyMode::Eager => Ok(self.apply_validated(batch)),
            ApplyMode::Deferred => {
                self.pending.buffer(batch);
                Ok(ApplyReport {
                    deltas_seen: batch.len(),
                    deltas_deferred: batch.len(),
                    ..ApplyReport::default()
                })
            }
        }
    }

    /// Coalesces and applies every buffered batch (no-op in eager mode or
    /// with nothing pending). The report's `noops` includes the deltas the
    /// coalescer discarded outright; `deltas_seen` stays 0 because the
    /// buffered deltas were already counted as seen when
    /// [`apply`](TriangleIndex::apply) buffered them — summing apply and
    /// flush reports therefore counts each delta exactly once.
    pub fn flush(&mut self) -> ApplyReport {
        if self.pending.is_empty() {
            return ApplyReport::default();
        }
        let buffered = self.pending.take();
        let coalesced = buffered.coalesce();
        let mut report = self.apply_validated(&coalesced);
        report.deltas_seen = 0;
        report.noops += buffered.len() - coalesced.len();
        report
    }

    /// Freezes the current graph (pending deltas excluded) into an
    /// immutable [`Graph`], e.g. to hand to the CONGEST algorithms or the
    /// centralized oracle.
    pub fn snapshot(&self) -> Graph {
        let mut b = GraphBuilder::new(self.node_count());
        for u in 0..self.node_count() {
            let u = NodeId::from_index(u);
            for &v in self.adjacency.neighbors(u.index()) {
                if u < v {
                    b.add_edge(u, v).expect("index adjacency is always valid");
                }
            }
        }
        b.build()
    }

    /// Whether the live triangle set exactly equals a from-scratch recount
    /// — the engine's correctness invariant, used by tests and the
    /// workload runner's self-check.
    ///
    /// The recount runs directly on the index through its
    /// [`AdjacencyView`] implementation; no `O(m)` snapshot is built.
    pub fn matches_oracle(&self) -> bool {
        self.triangles == congest_graph::triangles::list_all_on(self)
    }

    fn validate(&self, batch: &DeltaBatch) -> Result<(), StreamError> {
        validate_batch(batch, self.node_count())
    }

    /// Applies a pre-validated batch eagerly. Each batch is one arena
    /// epoch: slabs freed by this batch's churn become reusable (and
    /// oversized arenas compact) at the boundary.
    fn apply_validated(&mut self, batch: &DeltaBatch) -> ApplyReport {
        let mut report = ApplyReport {
            deltas_seen: batch.len(),
            ..ApplyReport::default()
        };
        for delta in batch {
            self.apply_delta(delta, &mut report);
        }
        self.adjacency.advance_epoch();
        report
    }

    fn apply_delta(&mut self, delta: &EdgeDelta, report: &mut ApplyReport) {
        let (u, v) = delta.edge.endpoints();
        let present = self.adjacency.contains(u.index(), v);
        match delta.op {
            DeltaOp::Insert => {
                if present {
                    report.noops += 1;
                    return;
                }
                // Triangles created by {u,v} are exactly {u,v,w} for the
                // current common neighbours w — collected *before* the edge
                // goes in, on the neighbourhood state the new edge closes.
                let common = self.common_neighbors(u, v);
                for w in common {
                    let t = Triangle::new(u, v, w);
                    if self.triangles.insert(t) {
                        self.support.record(&t);
                        report.triangles_added += 1;
                    }
                }
                self.adjacency.insert(u.index(), v);
                self.adjacency.insert(v.index(), u);
                self.edge_count += 1;
                report.inserts_applied += 1;
            }
            DeltaOp::Remove => {
                if !present {
                    report.noops += 1;
                    return;
                }
                let common = self.common_neighbors(u, v);
                for w in common {
                    let t = Triangle::new(u, v, w);
                    if self.triangles.remove(&t) {
                        self.support.retire(&t);
                        report.triangles_removed += 1;
                    }
                }
                self.adjacency.remove(u.index(), v);
                self.adjacency.remove(v.index(), u);
                self.edge_count -= 1;
                report.removes_applied += 1;
            }
        }
    }

    /// `N(u) ∩ N(v)` on the current adjacency, via the shared adaptive
    /// intersection core ([`shard::intersect_sorted`](crate::shard)).
    fn common_neighbors(&self, u: NodeId, v: NodeId) -> Vec<NodeId> {
        intersect_sorted(
            self.adjacency.neighbors(u.index()),
            self.adjacency.neighbors(v.index()),
        )
    }
}

/// The index *is* an adjacency view (pending deltas excluded), so the
/// oracle and the CONGEST drivers run on it directly — no snapshot.
impl AdjacencyView for TriangleIndex {
    fn node_count(&self) -> usize {
        TriangleIndex::node_count(self)
    }

    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        TriangleIndex::neighbors(self, node)
    }

    fn edge_count(&self) -> usize {
        TriangleIndex::edge_count(self)
    }

    fn degree(&self, node: NodeId) -> usize {
        TriangleIndex::degree(self, node)
    }

    fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        TriangleIndex::has_edge(self, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::{Classic, Gnp};
    use congest_graph::triangles as oracle;

    fn v(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn empty_index_counts_nothing() {
        let idx = TriangleIndex::new(5);
        assert_eq!(idx.node_count(), 5);
        assert_eq!(idx.edge_count(), 0);
        assert_eq!(idx.triangle_count(), 0);
        assert!(idx.matches_oracle());
    }

    #[test]
    fn inserting_a_triangle_step_by_step() {
        let mut idx = TriangleIndex::new(4);
        let mut b = DeltaBatch::new();
        b.insert(v(0), v(1)).insert(v(1), v(2));
        let r = idx.apply(&b).unwrap();
        assert_eq!(r.inserts_applied, 2);
        assert_eq!(r.triangles_added, 0);

        let mut close = DeltaBatch::new();
        close.insert(v(0), v(2));
        let r = idx.apply(&close).unwrap();
        assert_eq!(r.triangles_added, 1);
        assert_eq!(idx.triangle_count(), 1);
        assert!(idx.triangles().contains(&Triangle::new(v(0), v(1), v(2))));
        assert!(idx.matches_oracle());
    }

    #[test]
    fn removing_an_edge_retires_its_triangles() {
        let k4 = Classic::Complete(4).generate();
        let mut idx = TriangleIndex::from_graph(&k4);
        assert_eq!(idx.triangle_count(), 4);

        let mut b = DeltaBatch::new();
        b.remove(v(0), v(1));
        let r = idx.apply(&b).unwrap();
        assert_eq!(r.removes_applied, 1);
        // {0,1,2} and {0,1,3} die; {0,2,3} and {1,2,3} survive.
        assert_eq!(r.triangles_removed, 2);
        assert_eq!(idx.triangle_count(), 2);
        assert!(idx.matches_oracle());
    }

    #[test]
    fn duplicate_and_noop_deltas_are_counted_not_applied() {
        let mut idx = TriangleIndex::new(3);
        let mut b = DeltaBatch::new();
        b.insert(v(0), v(1)).insert(v(0), v(1)).remove(v(1), v(2));
        let r = idx.apply(&b).unwrap();
        assert_eq!(r.inserts_applied, 1);
        assert_eq!(r.noops, 2);
        assert_eq!(idx.edge_count(), 1);
    }

    #[test]
    fn from_graph_seeds_edges_and_triangles() {
        let g = Gnp::new(40, 0.2).seeded(9).generate();
        let idx = TriangleIndex::from_graph(&g);
        assert_eq!(idx.edge_count(), g.edge_count());
        assert_eq!(idx.triangles(), &oracle::list_all(&g));
        assert_eq!(&idx.snapshot(), &g);
    }

    #[test]
    fn out_of_range_batch_is_rejected_atomically() {
        let mut idx = TriangleIndex::new(3);
        let mut b = DeltaBatch::new();
        b.insert(v(0), v(1)).insert(v(0), v(7));
        let err = idx.apply(&b).unwrap_err();
        assert_eq!(
            err,
            StreamError::NodeOutOfRange {
                node: v(7),
                node_count: 3
            }
        );
        // Nothing from the batch landed.
        assert_eq!(idx.edge_count(), 0);
        assert!(err.to_string().contains("outside the indexed graph"));
    }

    #[test]
    fn deferred_mode_buffers_until_flush() {
        let mut idx = TriangleIndex::new(3).with_mode(ApplyMode::Deferred);
        assert_eq!(idx.mode(), ApplyMode::Deferred);
        let mut b = DeltaBatch::new();
        b.insert(v(0), v(1)).insert(v(1), v(2)).insert(v(0), v(2));
        let r = idx.apply(&b).unwrap();
        assert_eq!(r.deltas_deferred, 3);
        assert_eq!(idx.triangle_count(), 0);
        assert_eq!(idx.pending_deltas(), 3);

        let r = idx.flush();
        assert_eq!(r.inserts_applied, 3);
        assert_eq!(r.triangles_added, 1);
        assert_eq!(idx.pending_deltas(), 0);
        assert!(idx.matches_oracle());
    }

    #[test]
    fn deferred_flap_costs_nothing_at_flush() {
        let mut idx = TriangleIndex::new(4).with_mode(ApplyMode::Deferred);
        let mut flap = DeltaBatch::new();
        flap.insert(v(0), v(1)).remove(v(0), v(1));
        idx.apply(&flap).unwrap();
        let r = idx.flush();
        // Both deltas were counted as seen at apply time, not again here.
        assert_eq!(r.deltas_seen, 0);
        // The insert was coalesced away; the surviving remove is a no-op.
        assert_eq!(r.inserts_applied, 0);
        assert_eq!(r.removes_applied, 0);
        assert_eq!(r.noops, 2);
        assert_eq!(idx.edge_count(), 0);
    }

    #[test]
    fn deferred_equals_eager_on_the_same_stream() {
        let g = Gnp::new(30, 0.15).seeded(4).generate();
        let mut eager = TriangleIndex::from_graph(&g);
        let mut deferred = TriangleIndex::from_graph(&g).with_mode(ApplyMode::Deferred);

        let batches: Vec<DeltaBatch> = (0..10u32)
            .map(|i| {
                let mut b = DeltaBatch::new();
                b.insert(v(i), v(i + 10))
                    .remove(v(i), v(i + 1))
                    .insert(v(i), v(i + 10)); // duplicate on purpose
                b
            })
            .collect();
        for b in &batches {
            eager.apply(b).unwrap();
            deferred.apply(b).unwrap();
        }
        deferred.flush();
        assert_eq!(eager.triangles(), deferred.triangles());
        assert_eq!(eager.snapshot(), deferred.snapshot());
        assert!(eager.matches_oracle());
    }

    #[test]
    fn switching_modes_flushes_pending_deltas_in_order() {
        let mut idx = TriangleIndex::new(2).with_mode(ApplyMode::Deferred);
        let mut ins = DeltaBatch::new();
        ins.insert(v(0), v(1));
        idx.apply(&ins).unwrap();
        // The buffered insert must land before any eager-mode delta.
        let mut idx = idx.with_mode(ApplyMode::Eager);
        assert_eq!(idx.pending_deltas(), 0);
        assert!(idx.has_edge(v(0), v(1)));
        let mut rem = DeltaBatch::new();
        rem.remove(v(0), v(1));
        let r = idx.apply(&rem).unwrap();
        assert_eq!(r.removes_applied, 1);
        assert_eq!(idx.edge_count(), 0);
        assert!(idx.matches_oracle());
    }

    #[test]
    fn flush_in_eager_mode_is_a_noop() {
        let mut idx = TriangleIndex::new(2);
        assert_eq!(idx.flush(), ApplyReport::default());
    }

    #[test]
    fn apply_reports_absorb() {
        let mut total = ApplyReport::default();
        total.absorb(&ApplyReport {
            deltas_seen: 2,
            inserts_applied: 1,
            noops: 1,
            ..ApplyReport::default()
        });
        total.absorb(&ApplyReport {
            deltas_seen: 3,
            triangles_added: 2,
            ..ApplyReport::default()
        });
        assert_eq!(total.deltas_seen, 5);
        assert_eq!(total.inserts_applied, 1);
        assert_eq!(total.triangles_added, 2);
    }

    #[test]
    fn skewed_intersection_hits_the_probe_path() {
        // A hub with high degree vs. a low-degree node: ratio >= 16.
        let mut idx = TriangleIndex::new(100);
        let mut b = DeltaBatch::new();
        for i in 2..90 {
            b.insert(v(0), v(i)); // hub 0
        }
        b.insert(v(1), v(2)).insert(v(1), v(3)); // small node 1
        idx.apply(&b).unwrap();
        let mut close = DeltaBatch::new();
        close.insert(v(0), v(1));
        let r = idx.apply(&close).unwrap();
        assert_eq!(r.triangles_added, 2); // {0,1,2} and {0,1,3}
        assert!(idx.matches_oracle());
    }

    #[test]
    fn mode_names() {
        assert_eq!(ApplyMode::Eager.name(), "eager");
        assert_eq!(ApplyMode::Deferred.name(), "deferred");
    }

    #[test]
    fn pending_age_tracks_the_oldest_buffered_delta() {
        let mut idx = TriangleIndex::new(3).with_mode(ApplyMode::Deferred);
        assert!(idx.pending_age().is_none());
        let mut b = DeltaBatch::new();
        b.insert(v(0), v(1));
        idx.apply(&b).unwrap();
        let age = idx.pending_age().expect("one delta is pending");
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(idx.pending_age().unwrap() > age, "age grows while pending");
        idx.flush();
        assert!(idx.pending_age().is_none());
    }

    #[test]
    fn index_is_an_adjacency_view() {
        use congest_graph::AdjacencyView;
        let g = Gnp::new(30, 0.2).seeded(12).generate();
        let idx = TriangleIndex::from_graph(&g);
        let view: &dyn AdjacencyView = &idx;
        assert_eq!(view.node_count(), g.node_count());
        assert_eq!(view.edge_count(), g.edge_count());
        for u in g.nodes() {
            assert_eq!(view.neighbors(u), g.neighbors(u));
        }
        // The snapshot-free oracle runs directly on the live index.
        assert_eq!(oracle::list_all_on(&idx), oracle::list_all(&g));
    }
}
