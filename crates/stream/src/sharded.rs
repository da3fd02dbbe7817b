//! The sharded, multi-core incremental triangle engine.
//!
//! [`ShardedTriangleIndex`] partitions the adjacency across `S`
//! [`Shard`](crate::shard)s by node hash (`id mod S`, see
//! [`ShardSpec`](crate::shard)); each shard owns the full sorted
//! neighbour list of every node mapped to it, so a cross-shard edge is
//! recorded twice — once per endpoint's owner — exactly like the two
//! directions of an adjacency list. A batch then applies in **two
//! phases**, mirroring the paper's bandwidth partitioning (Theorem 2
//! splits intersection work across node classes the same way):
//!
//! 1. **Shard-parallel phase** — the batch is split by endpoint
//!    ownership (every edge maps to exactly one worker) and runs on the
//!    engine's persistent [`ShardPool`](crate::pool) as **three waves**,
//!    each worker doing its own slice end to end — the partition is the
//!    load balancing, fixed before the batch runs as in the paper's
//!    A2/A3, and no work changes hands mid-batch. The engine thread is
//!    worker 0 beside `S − 1` long-lived helpers, spawned once and fed
//!    work descriptors over channels:
//!    * *collect* (read-only on the pre-batch adjacency): each worker
//!      coalesces its slice (at most one op per edge survives),
//!      classifies the survivors against the current edge set and
//!      gathers, for every effective removal `{u, v}`, the candidate
//!      triangles `{u, v, w}` with `w ∈ N(u) ∩ N(v)`;
//!    * *record* (each worker owns exactly one shard, moved to it for
//!      the phase): the owning shards apply the routed neighbour-list
//!      mutations — a cross-shard edge is recorded by both owners, with
//!      no coordination because shards never write each other's lists;
//!    * *insert-collect* (read-only on the post-batch adjacency): the
//!      candidate triangles every effective insertion closes.
//! 2. **Merge phase** — candidate triangle deltas are deduplicated into
//!    the global live set (a hash set, see
//!    [`LiveTriangles`](crate::shard)): a triangle whose death (or birth) was
//!    observed by several of its edges is retired (or added) **exactly
//!    once**, because set removal/insertion reports whether it actually
//!    changed membership.
//!
//! Correctness does not depend on intra-batch ordering: after coalescing
//! (at most one op per edge) the post-batch graph `G' = G − R + I` is a
//! set equation, the retired triangles are exactly the triangles of `G`
//! containing an edge of `R`, and the new triangles are exactly the
//! triangles of `G'` containing an edge of `I`. Phase 1 computes
//! candidate supersets of both on consistent (pre- and post-batch)
//! views, so the merge phase's dedup makes the counts exact. The engine
//! is therefore equivalent to applying, within each batch, all removals
//! before all insertions; the final graph and triangle set are identical
//! to the strictly ordered application below, though per-batch
//! `ApplyReport` tallies can differ on batches that flap an edge (the
//! coalescer counts the dropped ops as no-ops instead of applying them).
//!
//! The pipeline only pays where the paper's partition does: on a batch
//! with enough intersection work to keep `S` workers busy. So a batch
//! takes it only when `S > 1` and the pool's estimate of its collect
//! work on the pre-batch adjacency reaches the hand-off floor (see
//! [`crate::pool`]); every other batch runs [`apply_in_order`], the
//! crate's one ordered loop, on the engine thread. That loop is all a
//! [`TriangleIndex`](crate::TriangleIndex) — this engine at `S = 1` —
//! ever runs: the partition decides where the lists live, and the rule
//! that applies a delta is the same at every `S`. The choice of path is
//! a function of the batch and the pre-batch degrees, the same at every
//! `S > 1`, and both paths leave the same graph, triangle set and
//! supports.

use std::fmt;
use std::sync::Arc;

use congest_graph::{
    for_each_common, AdjacencyView, Edge, Graph, GraphBuilder, NodeId, Triangle, TriangleSet,
};

use crate::arena::NeighborArena;
use crate::delta::{DeltaBatch, DeltaOp, EdgeDelta};
use crate::index::{validate_batch, ApplyReport, StreamError};
use crate::pool::{
    worth_handing_off, BatchRun, BatchStats, ShardPool, WorkerPlan, WorkerTelemetry,
};
use crate::shard::{
    merge_added_candidates_supported, merge_removed_candidates_supported, CowStats, LentArenas,
    LiveTriangles, NodeSupport, ShardOp, ShardStore,
};

/// Aggregates per-batch pool stats into the engine's lifetime
/// [`WorkerTelemetry`].
#[derive(Debug, Clone, Copy, Default)]
struct TelemetryAccum {
    pooled_batches: usize,
    max_share_sum: f64,
    mean_share_sum: f64,
}

impl TelemetryAccum {
    fn record(&mut self, stats: BatchStats) {
        self.pooled_batches += 1;
        self.max_share_sum += stats.busy_max_share;
        self.mean_share_sum += stats.busy_mean_share;
    }

    fn summary(&self) -> Option<WorkerTelemetry> {
        (self.pooled_batches > 0).then(|| WorkerTelemetry {
            pooled_batches: self.pooled_batches,
            busy_max_share_mean: self.max_share_sum / self.pooled_batches as f64,
            busy_mean_share_mean: self.mean_share_sum / self.pooled_batches as f64,
            // The retired fields the frozen referee still reads stay 0.
            ..WorkerTelemetry::default()
        })
    }
}

/// Multi-core incremental triangle engine over batched edge deltas.
///
/// The live triangle set always equals a from-scratch recount. A batch
/// with enough work fans out across `S` shards on a persistent worker
/// pool, each worker owning its `id mod S` slice of the batch; every
/// other batch runs the ordered loop on the calling thread, which at
/// `S = 1` is all there is — [`TriangleIndex`](crate::TriangleIndex) is
/// this engine over one shard. The module-level documentation in
/// `sharded.rs` walks through the two-phase apply.
///
/// ```
/// use congest_graph::generators::Gnp;
/// use congest_graph::triangles as oracle;
/// use congest_stream::{DeltaBatch, ShardedTriangleIndex};
///
/// let graph = Gnp::new(64, 0.1).seeded(1).generate();
/// let mut index = ShardedTriangleIndex::from_graph(&graph, 4);
///
/// let mut batch = DeltaBatch::new();
/// batch.insert(congest_graph::NodeId(0), congest_graph::NodeId(1));
/// index.apply(&batch).unwrap();
///
/// // The live set always equals a snapshot-free recount on the index.
/// assert_eq!(index.triangles(), oracle::list_all_on(&index));
/// ```
pub struct ShardedTriangleIndex {
    store: ShardStore,
    /// The live triangle set (global: the merge phase is the only writer).
    triangles: LiveTriangles,
    /// Per-node triangle-support counters, maintained alongside
    /// `triangles` by the same merge/apply sites (copy-on-write so a
    /// published serve view shares it for free).
    support: NodeSupport,
    /// The persistent worker pool, spawned lazily on the first pipelined
    /// batch and reused for every batch after that.
    pool: Option<ShardPool>,
    telemetry: TelemetryAccum,
}

impl Clone for ShardedTriangleIndex {
    /// Clones the engine's *state*; the clone spawns its own worker pool
    /// lazily (threads are not cloneable) and starts with the original's
    /// accumulated telemetry. The two share shard buffers until either
    /// writes (the writer then copies the shard, once); retained
    /// serve-mode buffers are not carried over.
    fn clone(&self) -> Self {
        ShardedTriangleIndex {
            store: self.store.clone(),
            triangles: self.triangles.clone(),
            support: self.support.clone(),
            pool: None,
            telemetry: self.telemetry,
        }
    }
}

impl ShardedTriangleIndex {
    /// An empty index on `node_count` nodes over `shard_count` shards
    /// (clamped to at least 1).
    pub fn new(node_count: usize, shard_count: usize) -> Self {
        ShardedTriangleIndex {
            store: ShardStore::new(node_count, shard_count),
            triangles: LiveTriangles::default(),
            support: NodeSupport::new(node_count),
            pool: None,
            telemetry: TelemetryAccum::default(),
        }
    }

    /// An index seeded with a static graph's edges and triangles (the
    /// triangles are computed once with the centralized reference
    /// listing).
    pub fn from_graph(graph: &Graph, shard_count: usize) -> Self {
        let mut index = Self::new(graph.node_count(), shard_count);
        for node in graph.nodes() {
            index.store.seed(node, graph.neighbors(node));
        }
        let listing = congest_graph::triangles::list_all(graph);
        (index.triangles, index.support) = NodeSupport::seed(&listing, graph.node_count());
        index
    }

    /// Number of shards `S`.
    pub fn shard_count(&self) -> usize {
        self.store.shard_count()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.store.node_count()
    }

    /// Number of present undirected edges.
    pub fn edge_count(&self) -> usize {
        // Every undirected edge is recorded by both endpoints' owners.
        self.store.half_edges() / 2
    }

    /// Sorted neighbour list of `node`, read from its owning shard.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        self.store.neighbors(node)
    }

    /// Current degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn degree(&self, node: NodeId) -> usize {
        self.store.degree(node)
    }

    /// Whether `{a, b}` is currently an edge.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.store.has_edge(a, b)
    }

    /// The live triangle set, sorted: built on demand from the engine's
    /// hash set in `O(t log t)` for `t` live triangles, so it is meant
    /// for checks and tests — call it once, not inside a loop.
    /// [`triangle_count`](Self::triangle_count) is `O(1)`.
    pub fn triangles(&self) -> TriangleSet {
        self.triangles.to_sorted()
    }

    /// Number of live triangles.
    pub fn triangle_count(&self) -> usize {
        self.triangles.len()
    }

    /// Number of live triangles containing `node`, maintained
    /// incrementally by the merge phase — O(1), no re-intersection.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_support(&self, node: NodeId) -> usize {
        self.support.of(node)
    }

    /// Number of live triangles containing the edge `{a, b}` — one
    /// sorted-list intersection (`O(deg a + deg b)`); 0 when the edge is
    /// absent, an endpoint out of range included.
    pub fn edge_support(&self, a: NodeId, b: NodeId) -> usize {
        if !self.has_edge(a, b) {
            return 0;
        }
        congest_graph::count_common(self.neighbors(a), self.neighbors(b))
    }

    /// An O(S) handle-copy of the shard store: the live shard buffers
    /// are shared `Arc`s, and the next batch writes past the ones it
    /// touches by swapping in a caught-up retained buffer (see
    /// [`ShardStore`]). This is what a published serve view holds.
    pub(crate) fn clone_store(&self) -> ShardStore {
        self.store.clone()
    }

    /// Which path the first write of each (shard, batch) has taken.
    pub(crate) fn cow_stats(&self) -> CowStats {
        self.store.cow_stats()
    }

    /// Drops the retained serve-mode buffers: the engine is no longer
    /// published from.
    pub(crate) fn shed_retained(&mut self) {
        self.store.shed_retained();
    }

    /// Retained serve-mode buffers currently held, over all shards.
    #[cfg(test)]
    pub(crate) fn retained_buffers(&self) -> usize {
        self.store.retained_buffers()
    }

    /// The shared per-node support vector backing
    /// [`node_support`](Self::node_support) (an `Arc` clone, no copy).
    pub(crate) fn support_counts(&self) -> Arc<Vec<u32>> {
        self.support.share()
    }

    /// Lifetime worker-pool telemetry: busy-share balance over every
    /// pipelined batch (`None` while every batch so
    /// far took the strictly ordered path, which never reaches the
    /// pool).
    pub fn worker_telemetry(&self) -> Option<WorkerTelemetry> {
        self.telemetry.summary()
    }

    /// Aggregate arena health over every shard's flat neighbour storage
    /// (slab bytes, live bytes, free-list occupancy, compactions).
    pub fn arena_stats(&self) -> crate::arena::ArenaStats {
        self.store.arena_stats()
    }

    /// Whether an earlier pooled batch poisoned the engine: a worker
    /// panic was re-raised and caught by a caller, so the shard store
    /// may be lost mid-batch and the pool's response channel holds
    /// stale payloads.
    fn poisoned(&self) -> bool {
        self.pool.as_ref().is_some_and(ShardPool::poisoned)
    }

    /// Applies a batch: on the two-phase pipeline when `S > 1` and its
    /// estimated work reaches the pool's hand-off floor, otherwise its
    /// deltas in order on this thread.
    ///
    /// # Errors
    ///
    /// * [`StreamError::NodeOutOfRange`] if any delta references a node
    ///   outside the graph; the batch is then applied not at all.
    /// * [`StreamError::Poisoned`] if an earlier batch's worker panic
    ///   was caught by a caller: the engine's shard state is undefined,
    ///   so instead of sending jobs to a poisoned pool every further
    ///   apply is refused cleanly until [`recover`](Self::recover)
    ///   reseeds the engine from a known-good graph.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<ApplyReport, StreamError> {
        if self.poisoned() {
            return Err(StreamError::Poisoned);
        }
        validate_batch(batch, self.node_count())?;
        // The pipeline only for a batch that will leave the engine
        // thread: more than one shard, and estimated work that pays for
        // the hand-off. Both paths leave the identical final graph and
        // triangle set; on batches that flap an edge the per-batch
        // tallies differ (the pipeline's coalescer counts dropped ops as
        // no-ops where the ordered path applies them).
        let pipelined = self.shard_count() > 1 && worth_handing_off(&self.store, batch);
        Ok(if pipelined {
            self.apply_pipelined(batch)
        } else {
            self.apply_ordered(batch)
        })
    }

    /// Rebuilds a poisoned engine in place from `graph`, so one panicked
    /// job is not terminal for a long-lived writer (e.g. a
    /// [`TriangleServer`](crate::TriangleServer)'s): the dead pool is
    /// dropped — which closes its job channels and **joins every worker
    /// thread**, panicked ones included — the shard store, triangle set
    /// and support counters are reseeded from `graph`, and a fresh pool
    /// spawns lazily on the next pipelined batch. Accumulated telemetry
    /// survives.
    ///
    /// `graph` is whatever consistent state the caller still holds — a
    /// published serve view frozen with [`snapshot`](Self::snapshot), a
    /// persisted checkpoint, or the base graph plus a replayable delta
    /// log. Calling this on a healthy engine is allowed and simply
    /// resets it to `graph`.
    pub fn recover(&mut self, graph: &Graph) {
        let telemetry = self.telemetry;
        *self = Self::from_graph(graph, self.shard_count());
        self.telemetry = telemetry;
    }

    /// Freezes the current graph into an
    /// immutable [`Graph`]. **O(m)**: every neighbour list is walked and
    /// re-inserted into a fresh builder, so this is a full copy of the
    /// adjacency — not a cheap view. Rarely needed now that the index
    /// itself is an [`AdjacencyView`] and
    /// [`TriangleServer`](crate::TriangleServer) leases give consistent
    /// O(1)-acquire read views; kept for callers that want an owned
    /// frozen [`Graph`].
    pub fn snapshot(&self) -> Graph {
        let mut b = GraphBuilder::new(self.node_count());
        for u in AdjacencyView::nodes(self) {
            for &v in self.neighbors(u) {
                if u < v {
                    b.add_edge(u, v).expect("index adjacency is always valid");
                }
            }
        }
        b.build()
    }

    /// Whether the live triangle set exactly equals a snapshot-free
    /// from-scratch recount on the index's own adjacency view:
    /// the same number of triangles, and every recounted one live.
    pub fn matches_oracle(&self) -> bool {
        self.triangles
            .equals(&congest_graph::triangles::list_all_on(self))
    }

    /// The ordered path: [`apply_in_order`], the index's loop — every
    /// batch of a [`TriangleIndex`], and every batch the pipeline does not
    /// take at any `S`. A store that no published view pins and that
    /// retains no buffer lends the loop its arenas for the whole batch:
    /// at `S = 1` the one arena, indexed by node
    /// ([`ShardStore::sole_arena`]); at `S > 1` all of them, each list
    /// found by [`ShardSpec::locate`](crate::shard::ShardSpec::locate)'s
    /// multiply ([`ShardStore::lend_arenas`]). Otherwise each write goes
    /// through [`ShardStore::apply_routed`], so copy-on-write and the
    /// retained buffers' logs see it. The one-shard arm is kept apart
    /// because lending a single arena through the general loan measured
    /// slower on the one-shard workloads.
    ///
    /// [`TriangleIndex`]: crate::TriangleIndex
    fn apply_ordered(&mut self, batch: &DeltaBatch) -> ApplyReport {
        let (triangles, support) = (&mut self.triangles, &mut self.support);
        let report = if let Some(arena) = self.store.sole_arena() {
            let report = apply_in_order(arena, triangles, support, batch);
            if report.inserts_applied + report.removes_applied > 0 {
                self.store.wrote_sole_arena();
            }
            report
        } else if let Some(mut arenas) = self.store.lend_arenas() {
            apply_in_order(&mut arenas, triangles, support, batch)
        } else {
            apply_in_order(&mut self.store, triangles, support, batch)
        };
        self.store.advance_epoch();
        report
    }

    /// The two-phase pipeline (see the [module documentation](self)),
    /// on the persistent pool.
    fn apply_pipelined(&mut self, batch: &DeltaBatch) -> ApplyReport {
        let mut report = ApplyReport {
            deltas_seen: batch.len(),
            ..ApplyReport::default()
        };
        let spec = self.store.spec();
        let shard_count = spec.shard_count();

        // Split the raw deltas by the lower endpoint's owner: every edge
        // maps to exactly one worker, so each worker can coalesce and
        // classify its slice independently and per-delta tallies are
        // counted exactly once.
        let mut work: Vec<Vec<EdgeDelta>> = vec![Vec::new(); shard_count];
        for d in batch {
            work[spec.locate(d.edge.lo()).0].push(*d);
        }

        let plans = self.run_pooled(work, &mut report);

        for plan in &plans {
            report.inserts_applied += plan.inserts_applied;
            report.removes_applied += plan.removes_applied;
            report.noops += plan.noops;
        }
        // Every undirected edge is recorded by both endpoint owners.
        debug_assert!(
            self.store.half_edges().is_multiple_of(2),
            "shard adjacency lost symmetry"
        );
        // One batch = one arena epoch: oversized arenas compact now —
        // every written buffer is unique, so no read view can see it.
        self.store.advance_epoch();
        report
    }

    /// The pool-backed pipeline: ownership of the store round-trips
    /// through the persistent workers (see [`crate::pool`]); removal
    /// candidates are merged on this thread *while* the workers run the
    /// record phase, and the batch's busy-share telemetry is accumulated
    /// at the end.
    fn run_pooled(
        &mut self,
        work: Vec<Vec<EdgeDelta>>,
        report: &mut ApplyReport,
    ) -> Vec<WorkerPlan> {
        let shard_count = work.len();
        // `apply` refuses poisoned engines before reaching this point,
        // and the shard count is fixed at construction.
        let pool: &ShardPool = self.pool.get_or_insert_with(|| ShardPool::new(shard_count));
        let mut run = BatchRun::new(pool);

        // Wave 1: collect (read-only, on the pre-batch adjacency).
        let collect_span = congest_obs::trace::span("pool", "wave_collect");
        let (store, mut plans) = run.collect(std::mem::take(&mut self.store), work);
        self.store = store;
        drop(collect_span);

        // Wave 2: move each shard to its owning worker; merge the
        // removal candidates here while the workers write. A worker
        // must only ever see a unique `Arc`, so shards a published view
        // pins are swapped past here, on the engine thread.
        let mut routed: Vec<Vec<ShardOp>> = vec![Vec::new(); shard_count];
        for plan in &plans {
            for (dest, ops) in plan.ops.iter().enumerate() {
                routed[dest].extend_from_slice(ops);
            }
        }
        let record_span = congest_obs::trace::span("pool", "wave_record");
        for (shard, ops) in routed.iter().enumerate() {
            self.store.begin_record(shard, ops);
        }
        run.start_record(self.store.take_shards(), routed);
        {
            congest_obs::span!("sharded", "merge");
            for plan in &plans {
                report.triangles_removed += merge_removed_candidates_supported(
                    &mut self.triangles,
                    &mut self.support,
                    &plan.removed,
                );
            }
        }
        self.store.restore_shards(run.finish_record());
        drop(record_span);

        // Wave 3: the triangles each effective insertion closes on the
        // post-batch adjacency.
        if plans.iter().any(|p| !p.inserts.is_empty()) {
            congest_obs::span!("pool", "wave_insert");
            let inserts: Vec<Vec<Edge>> = plans
                .iter_mut()
                .map(|p| std::mem::take(&mut p.inserts))
                .collect();
            let (store, candidates) = run.insert_collect(std::mem::take(&mut self.store), inserts);
            self.store = store;
            congest_obs::span!("sharded", "merge");
            for c in &candidates {
                report.triangles_added +=
                    merge_added_candidates_supported(&mut self.triangles, &mut self.support, c);
            }
        }

        self.telemetry.record(run.finish());
        plans
    }
}

/// What the ordered loop needs of an adjacency: a node's sorted list,
/// and both directions of `u–v` linked or unlinked.
trait EdgeLists {
    /// The sorted neighbour list of `node`.
    fn list(&self, node: NodeId) -> &[NodeId];
    /// Records `{u, v}` in both endpoints' lists.
    fn link(&mut self, u: NodeId, v: NodeId);
    /// Drops `{u, v}` from both endpoints' lists.
    fn unlink(&mut self, u: NodeId, v: NodeId);
}

/// The one shard of a single-shard store, written in place: slot = node
/// index, no routing and no per-write uniqueness check.
impl EdgeLists for NeighborArena {
    fn list(&self, node: NodeId) -> &[NodeId] {
        self.neighbors(node.index())
    }

    fn link(&mut self, u: NodeId, v: NodeId) {
        self.insert(u.index(), v);
        self.insert(v.index(), u);
    }

    fn unlink(&mut self, u: NodeId, v: NodeId) {
        self.remove(u.index(), v);
        self.remove(v.index(), u);
    }
}

/// Every shard's arena, lent for the batch and written in place: no
/// per-write uniqueness check and no retained-buffer log.
impl EdgeLists for LentArenas<'_> {
    fn list(&self, node: NodeId) -> &[NodeId] {
        self.neighbors(node)
    }

    fn link(&mut self, u: NodeId, v: NodeId) {
        self.apply(u, v, DeltaOp::Insert);
        self.apply(v, u, DeltaOp::Insert);
    }

    fn unlink(&mut self, u: NodeId, v: NodeId) {
        self.apply(u, v, DeltaOp::Remove);
        self.apply(v, u, DeltaOp::Remove);
    }
}

/// Any store: each direction is routed to its owning shard, through the
/// copy-on-write and lag logging of [`ShardStore::apply_routed`].
impl EdgeLists for ShardStore {
    fn list(&self, node: NodeId) -> &[NodeId] {
        self.neighbors(node)
    }

    fn link(&mut self, u: NodeId, v: NodeId) {
        route(self, u, v, DeltaOp::Insert);
    }

    fn unlink(&mut self, u: NodeId, v: NodeId) {
        route(self, u, v, DeltaOp::Remove);
    }
}

/// Both directions of `u–v`, each to the shard that owns its list.
fn route(store: &mut ShardStore, u: NodeId, v: NodeId, op: DeltaOp) {
    let spec = store.spec();
    for (node, other) in [(u, v), (v, u)] {
        let (shard, local) = spec.locate(node);
        store.apply_routed(shard, ShardOp { local, other, op });
    }
}

/// Applies `batch` delta by delta, in order — the crate's one ordered
/// apply. An insertion of `{u, v}` adds the triangles `{u, v, w}` for the
/// common neighbours `w` present *before* the edge goes in; a removal
/// retires the same set before the edge goes out; a delta that would not
/// change the graph is a no-op.
fn apply_in_order<A: EdgeLists>(
    lists: &mut A,
    triangles: &mut LiveTriangles,
    support: &mut NodeSupport,
    batch: &DeltaBatch,
) -> ApplyReport {
    let mut report = ApplyReport {
        deltas_seen: batch.len(),
        ..ApplyReport::default()
    };
    for delta in batch {
        let (u, v) = delta.edge.endpoints();
        let list_u = lists.list(u);
        let present = list_u.binary_search(&v).is_ok();
        match delta.op {
            DeltaOp::Insert => {
                if present {
                    report.noops += 1;
                    continue;
                }
                for_each_common(list_u, lists.list(v), |w| {
                    let t = Triangle::new(u, v, w);
                    if triangles.insert(t) {
                        support.record(&t);
                        report.triangles_added += 1;
                    }
                });
                lists.link(u, v);
                report.inserts_applied += 1;
            }
            DeltaOp::Remove => {
                if !present {
                    report.noops += 1;
                    continue;
                }
                for_each_common(list_u, lists.list(v), |w| {
                    let t = Triangle::new(u, v, w);
                    if triangles.remove(&t) {
                        support.retire(&t);
                        report.triangles_removed += 1;
                    }
                });
                lists.unlink(u, v);
                report.removes_applied += 1;
            }
        }
    }
    report
}

/// The sharded index *is* an adjacency view:
/// the oracle and the CONGEST drivers run on it directly — no snapshot.
impl AdjacencyView for ShardedTriangleIndex {
    fn node_count(&self) -> usize {
        ShardedTriangleIndex::node_count(self)
    }

    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        ShardedTriangleIndex::neighbors(self, node)
    }

    fn edge_count(&self) -> usize {
        ShardedTriangleIndex::edge_count(self)
    }
}

impl fmt::Debug for ShardedTriangleIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ShardedTriangleIndex(n={}, m={}, shards={}, triangles={})",
            self.node_count(),
            self.edge_count(),
            self.shard_count(),
            self.triangle_count(),
        )
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

    /// Applies `batch` on the pipeline when `pipeline` is set — which
    /// `apply` takes only for a batch past the hand-off floor, far above
    /// these tests' batches — and through `apply` otherwise.
    fn apply_on(idx: &mut ShardedTriangleIndex, batch: &DeltaBatch, pipeline: bool) -> ApplyReport {
        if pipeline {
            idx.apply_pipelined(batch)
        } else {
            idx.apply(batch).unwrap()
        }
    }

    /// Every (shard count, pipeline) pair a test runs: each shard count
    /// through `apply`, and through the pipeline wherever `S > 1`.
    fn paths(shards: &[usize]) -> Vec<(usize, bool)> {
        let mut out: Vec<(usize, bool)> = shards.iter().map(|&s| (s, false)).collect();
        out.extend(shards.iter().filter(|&&s| s > 1).map(|&s| (s, true)));
        out
    }

    #[test]
    fn empty_index_counts_nothing() {
        let idx = ShardedTriangleIndex::new(5, 3);
        assert_eq!(idx.node_count(), 5);
        assert_eq!(idx.shard_count(), 3);
        assert_eq!(idx.edge_count(), 0);
        assert_eq!(idx.triangle_count(), 0);
        assert!(idx.matches_oracle());
    }

    #[test]
    fn inserting_a_triangle_step_by_step() {
        for (shards, pipeline) in paths(&[2]) {
            let mut idx = ShardedTriangleIndex::new(4, shards);
            let mut b = DeltaBatch::new();
            b.insert(v(0), v(1)).insert(v(1), v(2));
            let r = apply_on(&mut idx, &b, pipeline);
            assert_eq!(r.inserts_applied, 2);
            assert_eq!(r.triangles_added, 0);

            let mut close = DeltaBatch::new();
            close.insert(v(0), v(2));
            let r = apply_on(&mut idx, &close, pipeline);
            assert_eq!(r.triangles_added, 1, "pipeline={pipeline}");
            assert_eq!(idx.triangle_count(), 1);
            assert!(idx.triangles().contains(&Triangle::new(v(0), v(1), v(2))));
            assert!(idx.matches_oracle());
        }
    }

    #[test]
    fn one_batch_inserting_a_whole_triangle_counts_it_once() {
        // All three edges of the triangle arrive in one batch; every edge
        // is an insert candidate generator, the merge dedupes to one.
        for (shards, pipeline) in paths(&[1, 2, 3, 5]) {
            let mut idx = ShardedTriangleIndex::new(4, shards);
            let mut b = DeltaBatch::new();
            b.insert(v(0), v(1)).insert(v(1), v(2)).insert(v(0), v(2));
            let r = apply_on(&mut idx, &b, pipeline);
            assert_eq!(r.triangles_added, 1, "shards={shards} pipeline={pipeline}");
            assert_eq!(idx.triangle_count(), 1);
            assert!(idx.matches_oracle());
        }
    }

    #[test]
    fn one_batch_removing_two_edges_of_a_triangle_counts_it_once() {
        for (shards, pipeline) in paths(&[1, 2, 4]) {
            let k4 = Classic::Complete(4).generate();
            let mut idx = ShardedTriangleIndex::from_graph(&k4, shards);
            assert_eq!(idx.triangle_count(), 4);
            let mut b = DeltaBatch::new();
            b.remove(v(0), v(1)).remove(v(1), v(2));
            let r = apply_on(&mut idx, &b, pipeline);
            // {0,1,2} dies by two of its edges but is counted once;
            // {0,1,3} and {1,2,3} die by one edge each.
            assert_eq!(
                r.triangles_removed, 3,
                "shards={shards} pipeline={pipeline}"
            );
            assert_eq!(idx.triangle_count(), 1);
            assert!(idx.matches_oracle());
        }
    }

    #[test]
    fn mixed_insert_and_remove_batch_matches_oracle() {
        // Removing a wing edge while inserting the closing edge of the
        // same would-be triangle: the insert must not report a triangle
        // whose wing died in the same batch.
        let mut base = DeltaBatch::new();
        base.insert(v(0), v(1)).insert(v(1), v(2));
        for (shards, pipeline) in paths(&[1, 2, 3]) {
            let mut idx = ShardedTriangleIndex::new(4, shards);
            apply_on(&mut idx, &base, pipeline);
            let mut b = DeltaBatch::new();
            b.remove(v(1), v(2)).insert(v(0), v(2));
            let r = apply_on(&mut idx, &b, pipeline);
            assert_eq!(r.triangles_added, 0, "shards={shards} pipeline={pipeline}");
            assert_eq!(r.triangles_removed, 0);
            assert_eq!(idx.triangle_count(), 0);
            assert!(idx.matches_oracle());
        }
    }

    #[test]
    fn from_graph_seeds_every_shard() {
        let g = Gnp::new(40, 0.2).seeded(9).generate();
        for shards in [1, 2, 7] {
            let idx = ShardedTriangleIndex::from_graph(&g, shards);
            assert_eq!(idx.edge_count(), g.edge_count());
            assert_eq!(idx.triangles(), oracle::list_all(&g));
            for node in g.nodes() {
                assert_eq!(idx.neighbors(node), g.neighbors(node));
            }
            // A consistent frozen view comes from a serve lease now (a
            // pinned epoch), not from the O(m) `snapshot()` copy.
            let server = crate::TriangleServer::new(idx);
            let lease = server.handle().lease();
            assert_eq!(AdjacencyView::edge_count(&lease), g.edge_count());
            for node in g.nodes() {
                assert_eq!(AdjacencyView::neighbors(&lease, node), g.neighbors(node));
            }
        }
    }

    #[test]
    fn edge_support_of_an_out_of_range_endpoint_is_zero() {
        let idx = ShardedTriangleIndex::from_graph(&Classic::Complete(4).generate(), 2);
        assert_eq!(idx.edge_support(v(0), v(1)), 2);
        assert_eq!(idx.edge_support(v(0), v(4)), 0);
        assert_eq!(idx.edge_support(v(9), v(1)), 0);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let idx = ShardedTriangleIndex::new(4, 0);
        assert_eq!(idx.shard_count(), 1);
    }

    #[test]
    fn out_of_range_batch_is_rejected_atomically() {
        let mut idx = ShardedTriangleIndex::new(3, 2);
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
        assert_eq!(idx.edge_count(), 0);
    }

    /// Deferral is the caller's: it holds a window of batches back and
    /// applies their merge as one batch when it flushes.
    #[test]
    fn deferred_mode_buffers_until_flush() {
        let mut open = DeltaBatch::new();
        open.insert(v(0), v(1)).insert(v(1), v(2));
        let mut close = DeltaBatch::new();
        close.insert(v(0), v(2));
        let window = vec![open, close];

        for (shards, pipeline) in paths(&[2]) {
            let mut idx = ShardedTriangleIndex::new(3, shards);
            let r = apply_on(&mut idx, &DeltaBatch::merge(&window), pipeline);
            assert_eq!(r.deltas_seen, 3);
            assert_eq!(r.inserts_applied, 3);
            assert_eq!(r.triangles_added, 1);
            assert!(idx.matches_oracle());
        }
    }

    #[test]
    fn deferred_flap_costs_nothing_at_flush() {
        let mut idx = ShardedTriangleIndex::new(4, 2);
        let mut flap = DeltaBatch::new();
        flap.insert(v(0), v(1)).remove(v(0), v(1));
        let merged = DeltaBatch::merge([&flap]);
        // The insert was coalesced away before the engine saw it…
        assert_eq!(flap.len() - merged.len(), 1);
        let r = idx.apply(&merged).unwrap();
        assert_eq!(r.inserts_applied, 0);
        assert_eq!(r.removes_applied, 0);
        // …and the surviving remove is a no-op.
        assert_eq!(r.noops, 1);
        assert_eq!(idx.edge_count(), 0);
    }

    #[test]
    fn large_deferred_flush_runs_the_pipeline_and_keeps_the_accounting() {
        use crate::index::TriangleIndex;
        // The merged window is under the hand-off floor, so it is run
        // on the pipeline directly.
        let g = Gnp::new(40, 0.15).seeded(3).generate();
        let mut idx = ShardedTriangleIndex::from_graph(&g, 3);
        let mut reference = TriangleIndex::from_graph(&g);

        // A stream with heavy flapping: the same edges are hit repeatedly
        // across the window's batches, so coalescing has real work to do.
        let mut window = Vec::new();
        for step in 0..6u32 {
            let mut b = DeltaBatch::new();
            for j in 0..30u32 {
                let a = (j * 3 + step) % 40;
                let c = (j * 7 + 2 * step + 1) % 40;
                if a == c {
                    continue;
                }
                if (step + j) % 2 == 0 {
                    b.insert(v(a), v(c));
                } else {
                    b.remove(v(a), v(c));
                }
            }
            window.push(b);
        }
        let total: usize = window.iter().map(DeltaBatch::len).sum();
        let merged = DeltaBatch::merge(&window);
        let r = apply_on(&mut idx, &merged, true);
        reference.apply(&merged).unwrap();
        // Flush accounting: every merged delta lands in exactly one
        // tally, and the caller books the rest as coalesced away.
        assert_eq!(r.deltas_seen, merged.len());
        assert_eq!(
            r.inserts_applied + r.removes_applied + r.noops + (total - merged.len()),
            total
        );
        // Same final state as the single-threaded engine's flush.
        assert_eq!(idx.triangles(), reference.triangles());
        assert_eq!(idx.edge_count(), reference.edge_count());
        assert!(idx.matches_oracle());
    }

    #[test]
    fn small_deferred_flush_keeps_the_ordered_path_accounting() {
        // A 2-delta merged window goes through the sequential path (see
        // `deferred_flap_costs_nothing_at_flush`).
        let mut idx = ShardedTriangleIndex::new(4, 2);
        let mut flap = DeltaBatch::new();
        flap.insert(v(0), v(1))
            .remove(v(0), v(1))
            .insert(v(2), v(3));
        let merged = DeltaBatch::merge([&flap]);
        assert_eq!(flap.len() - merged.len(), 1); // the flap's insert
        let r = idx.apply(&merged).unwrap();
        assert_eq!(r.inserts_applied, 1); // {2,3}
        assert_eq!(r.removes_applied, 0);
        assert_eq!(r.noops, 1); // the flap's remove
        assert!(idx.has_edge(v(2), v(3)));
    }

    #[test]
    fn agrees_with_the_single_threaded_index_on_a_stream() {
        use crate::index::TriangleIndex;
        let g = Gnp::new(60, 0.12).seeded(11).generate();
        for (shards, pipeline) in paths(&[4]) {
            let mut reference = TriangleIndex::from_graph(&g);
            let mut sharded = ShardedTriangleIndex::from_graph(&g, shards);
            for step in 0..20u32 {
                let mut b = DeltaBatch::new();
                for j in 0..10u32 {
                    let a = (step * 7 + j * 13) % 60;
                    let c = (step * 11 + j * 17 + 1) % 60;
                    if a != c {
                        if (step + j) % 3 == 0 {
                            b.remove(v(a), v(c));
                        } else {
                            b.insert(v(a), v(c));
                        }
                    }
                }
                reference.apply(&b).unwrap();
                apply_on(&mut sharded, &b, pipeline);
                assert_eq!(reference.triangles(), sharded.triangles(), "step {step}");
                assert_eq!(reference.edge_count(), sharded.edge_count());
            }
            assert!(sharded.matches_oracle());
        }
    }

    #[test]
    fn forced_steal_path_matches_the_ordered_engine_on_a_hub() {
        use crate::index::TriangleIndex;
        // A single max-degree hub: every delta touches node 0, so the
        // modulo partition puts the whole batch on worker 0 while the
        // helpers get empty slices — the static partition's worst case.
        let n = 40usize;
        let mut reference = TriangleIndex::new(n);
        let mut idx = ShardedTriangleIndex::new(n, 4);
        // Build the star plus a rim so removals have triangles to retire.
        let mut star = DeltaBatch::new();
        for i in 1..n as u32 {
            star.insert(v(0), v(i));
        }
        for i in 1..(n as u32 - 1) {
            star.insert(v(i), v(i + 1));
        }
        reference.apply(&star).unwrap();
        apply_on(&mut idx, &star, true);
        assert_eq!(idx.triangles(), reference.triangles());

        // Tear half the hub down in one batch.
        let mut tear = DeltaBatch::new();
        for i in 1..(n as u32 / 2) {
            tear.remove(v(0), v(i));
        }
        let rr = reference.apply(&tear).unwrap();
        let rs = apply_on(&mut idx, &tear, true);
        assert_eq!(rs.triangles_removed, rr.triangles_removed);
        assert_eq!(idx.triangles(), reference.triangles());
        assert!(idx.matches_oracle());
        let telemetry = idx.worker_telemetry().expect("pool batches ran");
        assert_eq!(telemetry.pooled_batches, 2);
    }

    #[test]
    fn apply_after_worker_panic_returns_a_clean_error() {
        use crate::delta::DeltaOp;
        use crate::pool::BatchRun;
        use crate::shard::Shard;

        let mut idx = ShardedTriangleIndex::new(8, 2);
        let mut b = DeltaBatch::new();
        b.insert(v(0), v(1)).insert(v(1), v(2)).insert(v(0), v(2));
        apply_on(&mut idx, &b, true);
        assert!(!idx.poisoned());

        // Poison the engine's own pool the way a real mid-batch worker
        // panic does: an out-of-range routed op makes a worker panic,
        // the engine-side recv re-raises, and a caller catches it.
        {
            let pool = idx.pool.as_ref().expect("pool spawned on first batch");
            let mut run = BatchRun::new(pool);
            run.start_record(
                vec![Arc::new(Shard::new(1)), Arc::new(Shard::new(1))],
                vec![
                    vec![ShardOp {
                        local: 99,
                        other: v(1),
                        op: DeltaOp::Insert,
                    }],
                    Vec::new(),
                ],
            );
            let caught =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run.finish_record()));
            assert!(caught.is_err());
        }
        assert!(idx.poisoned());

        // Subsequent applies fail cleanly instead of sending jobs to a
        // pool whose response channel holds stale payloads.
        let mut more = DeltaBatch::new();
        more.insert(v(3), v(4));
        assert_eq!(idx.apply(&more).unwrap_err(), StreamError::Poisoned);
    }

    #[test]
    fn recover_after_worker_panic_resumes_oracle_exact_applies() {
        use crate::delta::DeltaOp;
        use crate::index::TriangleIndex;
        use crate::pool::BatchRun;
        use crate::shard::Shard;

        let g = Gnp::new(24, 0.2).seeded(23).generate();
        let mut idx = ShardedTriangleIndex::from_graph(&g, 3);
        let mut b = DeltaBatch::new();
        b.insert(v(0), v(1)).insert(v(1), v(2)).insert(v(0), v(2));
        apply_on(&mut idx, &b, true);
        // The consistent state a real writer would still hold (published
        // view / checkpoint), frozen before the poisoning batch.
        let checkpoint = idx.snapshot();

        // Poison the engine's own pool the way a mid-batch worker panic
        // does (see `apply_after_worker_panic_returns_a_clean_error`).
        {
            let pool = idx.pool.as_ref().expect("pool spawned on first batch");
            let mut run = BatchRun::new(pool);
            run.start_record(
                vec![
                    Arc::new(Shard::new(1)),
                    Arc::new(Shard::new(1)),
                    Arc::new(Shard::new(1)),
                ],
                vec![
                    vec![ShardOp {
                        local: 99,
                        other: v(1),
                        op: DeltaOp::Insert,
                    }],
                    Vec::new(),
                    Vec::new(),
                ],
            );
            let caught =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run.finish_record()));
            assert!(caught.is_err());
        }
        assert!(idx.poisoned());
        let mut refused = DeltaBatch::new();
        refused.insert(v(3), v(4));
        assert_eq!(idx.apply(&refused).unwrap_err(), StreamError::Poisoned);

        // Recovery from the checkpoint: the dead pool is joined, state
        // reseeds, and pooled applies resume oracle-exactly.
        idx.recover(&checkpoint);
        assert!(!idx.poisoned());
        let mut reference = TriangleIndex::from_graph(&checkpoint);
        for step in 0..4u32 {
            let mut b = DeltaBatch::new();
            for j in 0..10u32 {
                let a = (step * 7 + j * 5) % 24;
                let c = (step * 3 + j * 11 + 1) % 24;
                if a != c {
                    if (step + j) % 3 == 0 {
                        b.remove(v(a), v(c));
                    } else {
                        b.insert(v(a), v(c));
                    }
                }
            }
            let rr = reference.apply(&b).expect("reference applies");
            let rs = apply_on(&mut idx, &b, true);
            assert_eq!(rr, rs, "step {step}");
            assert_eq!(idx.triangles(), reference.triangles(), "step {step}");
        }
        assert!(idx.matches_oracle());
        // The recovered engine went back through the (fresh) pool.
        assert!(idx.pool.is_some(), "a new pool spawned after recovery");
    }

    #[test]
    fn clones_share_state_but_not_the_pool() {
        let mut idx = ShardedTriangleIndex::new(6, 3);
        let mut b = DeltaBatch::new();
        b.insert(v(0), v(1)).insert(v(1), v(2)).insert(v(0), v(2));
        apply_on(&mut idx, &b, true);

        // The clone starts with the same state and lazily spawns its own
        // workers on the next pipelined batch.
        let mut copy = idx.clone();
        assert!(copy.pool.is_none());
        assert_eq!(copy.triangle_count(), 1);
        let mut more = DeltaBatch::new();
        more.insert(v(3), v(4))
            .insert(v(4), v(5))
            .insert(v(3), v(5));
        apply_on(&mut copy, &more, true);
        assert!(copy.pool.is_some());
        assert_eq!(copy.triangle_count(), 2);
        assert_eq!(idx.triangle_count(), 1, "the original is unaffected");
        assert!(copy.matches_oracle());
    }

    /// A deterministic mixed batch on `n` nodes.
    fn churn(step: u32, n: u32) -> DeltaBatch {
        let mut b = DeltaBatch::new();
        for j in 0..12u32 {
            let a = (step * 5 + j * 11) % n;
            let c = (step * 13 + j * 7 + 1) % n;
            if a != c {
                if (step + j).is_multiple_of(4) {
                    b.remove(v(a), v(c));
                } else {
                    b.insert(v(a), v(c));
                }
            }
        }
        b
    }

    /// A 256-delta batch on 4096 nodes whose degrees stay in single
    /// digits: 40 fresh triangles, one edge removed from 36 of the
    /// previous batch's, and 100 scattered inserts.
    fn low_degree_batch(step: u32) -> DeltaBatch {
        let mut b = DeltaBatch::new();
        let corner = |step: u32, i: u32| (step * 40 + i) * 3;
        for i in 0..40 {
            let t = corner(step, i);
            b.insert(v(t), v(t + 1))
                .insert(v(t + 1), v(t + 2))
                .insert(v(t), v(t + 2));
        }
        for i in 0..36 {
            if step > 0 {
                let t = corner(step - 1, i);
                b.remove(v(t), v(t + 1));
            }
        }
        for j in 0..100u32 {
            let x = (step * 100 + j).wrapping_mul(2_654_435_761);
            let (a, c) = (x % 4096, (x >> 12) % 4096);
            if a != c {
                b.insert(v(a), v(c));
            }
        }
        b
    }

    /// Everything an engine's state consists of besides the arena
    /// layout, which follows the order the path wrote its lists in.
    fn assert_same_state(a: &ShardedTriangleIndex, b: &ShardedTriangleIndex, what: &str) {
        assert_eq!(a.triangles(), b.triangles(), "{what}");
        assert_eq!(a.edge_count(), b.edge_count(), "{what}");
        for node in AdjacencyView::nodes(a) {
            assert_eq!(a.neighbors(node), b.neighbors(node), "{what}");
            assert_eq!(a.node_support(node), b.node_support(node), "{what}");
        }
        assert!(a.matches_oracle() && b.matches_oracle(), "{what}");
    }

    fn pooled_batches(idx: &ShardedTriangleIndex) -> usize {
        idx.worker_telemetry().map_or(0, |t| t.pooled_batches)
    }

    #[test]
    fn apply_pools_a_batch_by_its_estimated_work_not_its_length() {
        // Batches of 219 to 256 deltas whose endpoints keep
        // single-digit degrees estimate well under the hand-off floor:
        // at S = 2 every one runs ordered and the pool never spawns.
        let mut ordered = ShardedTriangleIndex::new(4096, 2);
        for step in 0..12 {
            let batch = low_degree_batch(step);
            assert!(batch.len() >= 219, "step {step}");
            ordered.apply(&batch).unwrap();
        }
        assert_eq!(ordered.worker_telemetry(), None);
        assert!(ordered.pool.is_none());

        // 1 024 raw deltas reach the floor on their flat cost alone, so
        // a path of degree-2 nodes pools at every S > 1.
        let mut long = DeltaBatch::new();
        for i in 0..1024 {
            long.insert(v(i), v(i + 1));
        }
        // Eight hubs share 600 leaves: joining the hubs pairwise is 28
        // deltas, each with two endpoints of degree 600, and crosses
        // the floor by the 27th — and closes 28 · 600 + C(8, 3) = 16 856
        // triangles.
        let mut bipartite = GraphBuilder::new(608);
        for hub in 0..8 {
            for leaf in 8..608 {
                bipartite.add_edge(v(hub), v(leaf)).unwrap();
            }
        }
        let bipartite = bipartite.build();
        let mut hubs = DeltaBatch::new();
        for a in 0..8 {
            for b in a + 1..8 {
                hubs.insert(v(a), v(b));
            }
        }
        assert!(hubs.len() < 128);
        for shards in [1, 2, 3] {
            let mut idx = ShardedTriangleIndex::new(1025, shards);
            idx.apply(&long).unwrap();
            assert_eq!(pooled_batches(&idx), usize::from(shards > 1), "S={shards}");

            let mut idx = ShardedTriangleIndex::from_graph(&bipartite, shards);
            let r = idx.apply(&hubs).unwrap();
            assert_eq!(r.triangles_added, 16_856, "S={shards}");
            assert!(idx.matches_oracle(), "S={shards}");
            // S = 1 never pools.
            assert_eq!(pooled_batches(&idx), usize::from(shards > 1), "S={shards}");
        }
    }

    /// A 300-delta batch against `index`'s current mean-degree-50
    /// graph: scattered inserts alternating with removals of live edges.
    fn dense_batch(index: &ShardedTriangleIndex, step: u32) -> DeltaBatch {
        let n = index.node_count() as u32;
        let mut b = DeltaBatch::new();
        for j in 0..300u32 {
            let x = (step * 300 + j).wrapping_mul(2_654_435_761);
            let (a, pick) = (v(x % n), x >> 12);
            let live = index.neighbors(a);
            if j % 2 == 1 && !live.is_empty() {
                b.remove(a, live[pick as usize % live.len()]);
            } else if a != v(pick % n) {
                b.insert(a, v(pick % n));
            }
        }
        b
    }

    #[test]
    fn inline_waves_and_handed_off_waves_leave_identical_state() {
        // One engine keeps every batch on its own thread (`apply` runs
        // these batches ordered), the other hands every wave of every
        // batch to the pool: same graph, triangles and supports.
        for shards in [2, 3] {
            let mut inline = ShardedTriangleIndex::new(4096, shards);
            let mut handed_off = ShardedTriangleIndex::new(4096, shards);
            for step in 0..12 {
                let batch = low_degree_batch(step);
                let ri = inline.apply(&batch).unwrap();
                let rh = handed_off.apply_pipelined(&batch);
                assert!(ri.triangles_added >= 40, "S={shards} step {step}");
                assert_eq!(ri.triangles_added, rh.triangles_added, "S={shards}");
                assert_eq!(ri.triangles_removed, rh.triangles_removed, "S={shards}");
            }
            assert_same_state(&inline, &handed_off, &format!("low degree, S={shards}"));
            assert_eq!(pooled_batches(&inline), 0);
            assert_eq!(pooled_batches(&handed_off), 12);

            // Mean degree 50, 300 deltas: lists long enough for slabs to
            // promote and free.
            let g = Gnp::new(600, 50.0 / 599.0).seeded(29).generate();
            let mut inline = ShardedTriangleIndex::from_graph(&g, shards);
            let mut handed_off = ShardedTriangleIndex::from_graph(&g, shards);
            for step in 0..8 {
                let batch = dense_batch(&inline, step);
                inline.apply_ordered(&batch);
                let rh = handed_off.apply_pipelined(&batch);
                assert!(rh.removes_applied >= 100 && rh.inserts_applied >= 100);
            }
            assert_same_state(&inline, &handed_off, &format!("mean degree 50, S={shards}"));
        }
    }

    #[test]
    fn lent_and_routed_ordered_writes_leave_identical_state() {
        use std::collections::BTreeSet;
        // Twin engines on a mean-degree-50 graph. A clone pins the first
        // one's store before its first batch, so every batch of it
        // routes: the first copies each shard it writes past the pin,
        // later ones log into the retained buffer the copy left behind.
        // Nothing ever pins the second, so every batch borrows its
        // arenas. Lists, per-shard arena layout, triangles, supports
        // and reports must not tell the two apart.
        let g = Gnp::new(600, 50.0 / 599.0).seeded(29).generate();
        for shards in [2, 3] {
            let mut routed = ShardedTriangleIndex::from_graph(&g, shards);
            let mut lent = ShardedTriangleIndex::from_graph(&g, shards);
            let mut view = Some(routed.clone_store());
            let spec = lent.store.spec();
            let mut edges: BTreeSet<Edge> = g.edges().collect();
            for step in 0..8 {
                let what = format!("S={shards} step {step}");
                if step == 4 {
                    // The reader lets go, but the store still retains the
                    // buffer it held: the batch must still route.
                    drop(view.take());
                }
                let retained = if step == 0 { 0 } else { shards };
                assert_eq!(routed.retained_buffers(), retained, "{what}");
                assert!(routed.store.lend_arenas().is_none(), "{what}");
                assert!(lent.store.lend_arenas().is_some(), "{what}");

                let batch = dense_batch(&lent, step);
                // The shards a batch writes: both owners of every delta
                // that changes the graph, in order.
                let mut written = BTreeSet::new();
                for d in &batch {
                    let effective = match d.op {
                        DeltaOp::Insert => edges.insert(d.edge),
                        DeltaOp::Remove => edges.remove(&d.edge),
                    };
                    if effective {
                        written.insert(spec.locate(d.edge.lo()).0);
                        written.insert(spec.locate(d.edge.hi()).0);
                    }
                }
                let first_writes = |idx: &ShardedTriangleIndex| {
                    let cow = idx.cow_stats();
                    cow.in_place + cow.clones
                };
                let before = (first_writes(&routed), first_writes(&lent));
                // Both calls go to the ordered loop: these batches would
                // pool through `apply`.
                let report = routed.apply_ordered(&batch);
                assert_eq!(report, lent.apply_ordered(&batch), "{what}");
                assert!(report.removes_applied >= 100 && report.inserts_applied >= 100);
                let booked = written.len() as u64;
                assert_eq!(first_writes(&routed) - before.0, booked, "{what}");
                assert_eq!(first_writes(&lent) - before.1, booked, "{what}");
                assert_eq!(
                    routed.store.shard_arena_stats(),
                    lent.store.shard_arena_stats(),
                    "{what}"
                );
                assert_same_state(&routed, &lent, &what);
            }
            assert_eq!(
                (routed.cow_stats().clones, routed.cow_stats().swaps),
                (shards as u64, 0)
            );
            assert_eq!(
                lent.cow_stats(),
                CowStats {
                    in_place: 8 * shards as u64,
                    ..CowStats::default()
                }
            );
            // Shedding the retained buffers ends the routing.
            routed.shed_retained();
            assert!(routed.store.lend_arenas().is_some());
        }
    }

    #[test]
    fn a_single_shard_pipeline_runs_on_a_pool_without_helpers() {
        use crate::index::TriangleIndex;
        // `apply` never pipelines a single-shard batch, but the pipeline
        // itself still runs on one shard: the engine thread alone.
        let g = Gnp::new(50, 0.15).seeded(17).generate();
        let mut reference = TriangleIndex::from_graph(&g);
        let mut idx = ShardedTriangleIndex::from_graph(&g, 1);
        // `churn` never repeats an edge within a batch, so the
        // pipeline's coalescer drops nothing and its per-batch tallies
        // equal the strictly ordered engine's.
        let steps = 8;
        for step in 0..steps {
            let b = churn(step, 50);
            let rr = reference.apply(&b).unwrap();
            let rs = apply_on(&mut idx, &b, true);
            assert_eq!(rr, rs, "step {step}");
            assert_eq!(idx.triangles(), reference.triangles(), "step {step}");
            assert_eq!(idx.edge_count(), reference.edge_count(), "step {step}");
        }
        assert!(idx.matches_oracle());
        let pool = idx.pool.as_ref().expect("the pipeline ran on a pool");
        assert_eq!(
            pool.worker_count(),
            1,
            "the engine thread is the only worker"
        );
        assert_eq!(pooled_batches(&idx), steps as usize);
    }

    #[test]
    fn a_one_shard_batch_counts_a_first_write_only_if_it_writes() {
        // A bare one-shard engine hands the loop its arena; the store
        // still books what `writable` would have: one in-place write per
        // batch that wrote, none for a batch of no-ops.
        let mut idx = ShardedTriangleIndex::new(4, 1);
        let mut b = DeltaBatch::new();
        b.insert(v(0), v(1)).insert(v(1), v(2));
        idx.apply(&b).unwrap();
        assert_eq!(idx.cow_stats().in_place, 1);
        let mut noops = DeltaBatch::new();
        noops.insert(v(0), v(1)).remove(v(2), v(3));
        assert_eq!(idx.apply(&noops).unwrap().noops, 2);
        assert_eq!(
            idx.cow_stats(),
            CowStats {
                in_place: 1,
                ..CowStats::default()
            }
        );
        // A published view pins the buffer: the writes go through the
        // store, which copies it once.
        let view = idx.clone_store();
        let mut unlink = DeltaBatch::new();
        unlink.remove(v(0), v(1));
        idx.apply(&unlink).unwrap();
        assert_eq!((idx.cow_stats().in_place, idx.cow_stats().clones), (1, 1));
        assert_eq!(view.neighbors(v(0)), &[v(1)]);
        assert!(!idx.has_edge(v(0), v(1)));
    }

    #[test]
    fn a_bare_index_never_retains_a_buffer_on_any_path() {
        // Ordered on one shard and on three, the pipeline on three: with
        // no view ever published every write is in place.
        let g = Gnp::new(50, 0.15).seeded(17).generate();
        for (shards, pipeline) in paths(&[1, 3]) {
            let mut idx = ShardedTriangleIndex::from_graph(&g, shards);
            for step in 0..6 {
                apply_on(&mut idx, &churn(step, 50), pipeline);
            }
            let cow = idx.cow_stats();
            assert_eq!(
                (cow.swaps, cow.clones, cow.replayed_ops),
                (0, 0, 0),
                "{idx:?}"
            );
            assert!(cow.in_place >= 6, "{idx:?}");
            assert_eq!(idx.retained_buffers(), 0, "{idx:?}");
            assert!(idx.matches_oracle(), "{idx:?}");
        }
    }

    #[test]
    fn clones_and_recovery_carry_no_retained_buffers() {
        let g = Gnp::new(50, 0.15).seeded(17).generate();
        for (shards, pipeline) in paths(&[1, 3]) {
            let mut idx = ShardedTriangleIndex::from_graph(&g, shards);
            // What a serve publish holds: the writer must swap past it.
            let mut view = idx.clone_store();
            for step in 0..4 {
                apply_on(&mut idx, &churn(step, 50), pipeline);
                view = idx.clone_store();
            }
            assert!(idx.retained_buffers() > 0, "shards={shards}");
            assert!(idx.cow_stats().swaps > 0, "shards={shards}");

            let mut copy = idx.clone();
            assert_eq!(copy.retained_buffers(), 0);
            apply_on(&mut copy, &churn(4, 50), pipeline);
            assert!(copy.matches_oracle());
            assert_eq!(
                copy.retained_buffers(),
                shards,
                "the copy shares buffers with `idx`"
            );

            let checkpoint = idx.snapshot();
            idx.recover(&checkpoint);
            assert_eq!(idx.retained_buffers(), 0, "shards={shards}");
            apply_on(&mut idx, &churn(4, 50), pipeline);
            assert_eq!(idx.triangles(), copy.triangles());
            assert!(idx.matches_oracle());
            drop(view);
        }
    }

    /// `K5` on nodes 0–4 beside the isolated nodes 5 and 6, and a triple
    /// over the isolated pair that is no triangle of it.
    fn k5_and_a_fake() -> (Graph, Triangle) {
        let mut b = GraphBuilder::new(7);
        for i in 0..5 {
            for j in i + 1..5 {
                b.add_edge(v(i), v(j)).unwrap();
            }
        }
        (b.build(), Triangle::new(v(0), v(5), v(6)))
    }

    #[test]
    fn the_oracle_check_is_exact_set_equality() {
        let (g, fake) = k5_and_a_fake();
        let live = Triangle::new(v(1), v(2), v(3));
        for shards in [1, 3] {
            let seeded = ShardedTriangleIndex::from_graph(&g, shards);
            assert!(seeded.matches_oracle(), "S={shards}");

            let mut missing = seeded.clone();
            assert!(missing.triangles.remove(&live));
            assert!(!missing.matches_oracle(), "S={shards}: one missing");

            let mut extra = seeded.clone();
            assert!(extra.triangles.insert(fake));
            assert!(!extra.matches_oracle(), "S={shards}: one extra");

            let mut swapped = seeded.clone();
            assert!(swapped.triangles.remove(&live));
            assert!(swapped.triangles.insert(fake));
            assert_eq!(swapped.triangle_count(), seeded.triangle_count());
            assert!(!swapped.matches_oracle(), "S={shards}: one swapped");
        }
    }

    #[test]
    fn hash_order_never_reaches_a_result() {
        let g = Gnp::new(40, 0.35).seeded(3).generate();
        for (shards, pipeline) in paths(&[1, 3]) {
            // Built apart, so each set draws its own hash keys.
            let mut a = ShardedTriangleIndex::from_graph(&g, shards);
            let mut b = ShardedTriangleIndex::from_graph(&g, shards);
            for step in 0..6 {
                let batch = churn(step, 40);
                let report = apply_on(&mut a, &batch, pipeline);
                assert_eq!(report, apply_on(&mut b, &batch, pipeline), "step {step}");
            }
            assert!(a.triangle_count() > 100);
            assert_ne!(
                a.triangles.hash_order(),
                b.triangles.hash_order(),
                "two sets in one process hash alike"
            );
            let sorted = a.triangles();
            assert_eq!(sorted, b.triangles());
            let order: Vec<Triangle> = sorted.iter().copied().collect();
            assert!(order.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn debug_summarizes() {
        let idx = ShardedTriangleIndex::new(6, 2);
        let s = format!("{idx:?}");
        assert!(s.contains("n=6"));
        assert!(s.contains("shards=2"));
    }
}
