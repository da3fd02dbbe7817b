//! The incremental triangle index and what every engine's apply shares.
//!
//! [`TriangleIndex`] maintains the adjacency structure of an evolving graph
//! **and** its live set of triangles under [`DeltaBatch`]es of edge
//! insertions and removals. It is the one-shard
//! [`ShardedTriangleIndex`]: the partition decides where the lists live,
//! and the rule that applies a delta stays the same at every shard count
//! (the sharded engine's ordered loop). Each applied delta only touches
//! the neighbourhoods of its two endpoints: inserting or removing `{u, v}`
//! adds or retires exactly the triangles `{u, v, w}` with
//! `w ∈ N(u) ∩ N(v)`, found by a sorted-adjacency intersection that always
//! walks the **lower-degree** endpoint (and switches to binary probing when
//! the two degrees are badly skewed). A batch of `b` deltas therefore costs
//! `O(b · d̄ log d_max)` instead of the `O(m^{3/2})` a from-scratch recount
//! pays — the asymmetry the workload harness quantifies.

use std::fmt;
use std::ops::{Deref, DerefMut};

use congest_graph::{AdjacencyView, Graph, NodeId};

use crate::delta::DeltaBatch;
use crate::sharded::ShardedTriangleIndex;

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
/// shared whole-batch validation every engine runs before touching state,
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

/// What applying a batch did.
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
    }
}

/// The one-shard engine: a [`ShardedTriangleIndex`] over a single
/// shard. Every batch runs the ordered loop on the caller's thread and no
/// worker pool ever spawns; reads and writes are the sharded engine's,
/// reached through [`Deref`].
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
/// assert_eq!(index.triangles(), oracle::list_all(&index.snapshot()));
/// ```
///
/// Cloning is the sharded engine's `O(S)` copy-on-write clone: the two
/// share the shard buffer until either writes, and the writer then
/// copies it once.
#[derive(Debug, Clone)]
pub struct TriangleIndex(ShardedTriangleIndex);

impl TriangleIndex {
    /// An empty index on `node_count` nodes.
    pub fn new(node_count: usize) -> Self {
        TriangleIndex(ShardedTriangleIndex::new(node_count, 1))
    }

    /// An index seeded with a static graph's edges and triangles (the
    /// triangles are computed once with the centralized reference listing).
    pub fn from_graph(graph: &Graph) -> Self {
        TriangleIndex(ShardedTriangleIndex::from_graph(graph, 1))
    }
}

impl Deref for TriangleIndex {
    type Target = ShardedTriangleIndex;

    fn deref(&self) -> &ShardedTriangleIndex {
        &self.0
    }
}

impl DerefMut for TriangleIndex {
    fn deref_mut(&mut self) -> &mut ShardedTriangleIndex {
        &mut self.0
    }
}

/// The index *is* an adjacency view, so the
/// oracle and the CONGEST drivers run on it directly — no snapshot.
impl AdjacencyView for TriangleIndex {
    fn node_count(&self) -> usize {
        self.0.node_count()
    }

    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        self.0.neighbors(node)
    }

    fn edge_count(&self) -> usize {
        self.0.edge_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::{Classic, Gnp};
    use congest_graph::triangles as oracle;
    use congest_graph::Triangle;

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
        assert_eq!(idx.triangles(), oracle::list_all(&g));
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

    /// Deferral is the caller's: it holds a window of batches back and
    /// applies their merge as one batch when it flushes.
    #[test]
    fn deferred_mode_buffers_until_flush() {
        let mut idx = TriangleIndex::new(3);
        let mut open = DeltaBatch::new();
        open.insert(v(0), v(1)).insert(v(1), v(2));
        let mut close = DeltaBatch::new();
        close.insert(v(0), v(2));
        let window = vec![open, close];

        let r = idx.apply(&DeltaBatch::merge(&window)).unwrap();
        assert_eq!(r.inserts_applied, 3);
        assert_eq!(r.triangles_added, 1);
        assert!(idx.matches_oracle());
    }

    #[test]
    fn deferred_flap_costs_nothing_at_flush() {
        let mut idx = TriangleIndex::new(4);
        let mut flap = DeltaBatch::new();
        flap.insert(v(0), v(1)).remove(v(0), v(1));
        let merged = DeltaBatch::merge([&flap]);
        // The insert was coalesced away before the engine saw it…
        assert_eq!(flap.len() - merged.len(), 1);
        let r = idx.apply(&merged).unwrap();
        // …and the surviving remove is a no-op.
        assert_eq!(r.deltas_seen, 1);
        assert_eq!(r.inserts_applied, 0);
        assert_eq!(r.removes_applied, 0);
        assert_eq!(r.noops, 1);
        assert_eq!(idx.edge_count(), 0);
    }

    #[test]
    fn deferred_equals_eager_on_the_same_stream() {
        let g = Gnp::new(30, 0.15).seeded(4).generate();
        let mut eager = TriangleIndex::from_graph(&g);
        let mut deferred = TriangleIndex::from_graph(&g);

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
        }
        deferred.apply(&DeltaBatch::merge(&batches)).unwrap();
        assert_eq!(eager.triangles(), deferred.triangles());
        assert_eq!(eager.snapshot(), deferred.snapshot());
        assert!(eager.matches_oracle());
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
