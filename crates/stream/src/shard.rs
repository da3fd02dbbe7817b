//! Shard-level building blocks of the streaming engines.
//!
//! This module holds the pieces the engines share:
//!
//! * The common-neighbour intersection is
//!   [`congest_graph::for_each_common`], the one kernel the oracle and
//!   [`Graph`] use too (gallop, stack-signature probe or merge, chosen
//!   by the two list lengths). It is *the* hot path of incremental
//!   triangle maintenance: [`ShardedTriangleIndex`](crate::ShardedTriangleIndex)
//!   calls it with a closure — no allocation per delta — from its
//!   ordered loop (all a [`TriangleIndex`](crate::TriangleIndex) runs)
//!   and from every worker thread of its pipeline, so every path
//!   intersects identically. [`ShardStore::intersection_cost`] is its
//!   cost bound, on degrees read from the arena's slot table.
//!
//! [`Graph`]: congest_graph::Graph
//! * [`ShardSpec`] — the node→shard mapping. Nodes are partitioned by
//!   id modulo the shard count (a hash partition on the already-random
//!   node ids), which spreads hot hubs across shards under power-law
//!   churn; each shard owns the full neighbour list of every node mapped
//!   to it, so a cross-shard edge `{u, v}` is recorded twice — once in
//!   `shard(u)`'s copy of `N(u)` and once in `shard(v)`'s copy of `N(v)` —
//!   exactly like the two directions of an adjacency list. Every list
//!   access routes through [`ShardSpec::locate`], which finds the owning
//!   shard and the slot in it with one multiply by a reciprocal fixed at
//!   construction, not a divide by the runtime shard count.
//! * [`Shard`] — one shard's slice of the adjacency: sorted neighbour
//!   lists for its owned nodes, stored in one flat
//!   [`NeighborArena`](crate::arena) per shard and mutated only by its
//!   owning worker during the record phase of a batch apply.
//! * [`ShardStore`] — the spec plus all `S` shards as one movable value.
//!   Each shard's *live* buffer sits behind an `Arc`, so the store
//!   clones in `O(S)`: the pool-backed engine hands the whole store to
//!   its persistent workers by `Arc` for the read-only collect phases
//!   and moves the shard `Arc`s out to their owning workers for the
//!   record phase, reclaiming ownership afterwards — which is how the
//!   pipeline stays free of `unsafe` and of locks on the read path.
//!   A buffer is only ever mutated through a **unique** `Arc`
//!   ([`Arc::get_mut`]): exclusive shards (always, outside serve mode)
//!   are edited in place — the ordered loop borrows the arenas for a
//!   whole batch ([`ShardStore::sole_arena`] at `S = 1`,
//!   [`ShardStore::lend_arenas`] above it), so it tests uniqueness once
//!   per shard and batch, not once per write. A live buffer pinned by a
//!   published serve-mode view ([`TriangleServer`](crate::TriangleServer))
//!   is not copied: beside it the store keeps up to [`MAX_RETAINED`] *retained*
//!   buffers — the buffers earlier views were published from — each
//!   with the log of everything the live buffer absorbed since the two
//!   diverged. The first write of a batch takes a retained buffer no
//!   reader still holds, replays its log (a batch or two of sorted-list
//!   edits), swaps it in as live and retains the pinned one. A write
//!   therefore costs `O(batch)`; the `O(m)` clone remains only as the
//!   fallback when every retained buffer is pinned by a straggling
//!   lease. Replay is deterministic — same edits, same epoch
//!   boundaries, hence the same lists, slab layout and [`ArenaStats`] —
//!   so which path a batch took is invisible in every result.
//! * [`NodeSupport`] — per-node triangle-support counters maintained by
//!   the same exactly-once merge that maintains the triangle set, so
//!   serve-mode support queries are `O(1)` lookups instead of repeated
//!   intersections.

use std::collections::HashSet;
use std::sync::Arc;

use congest_graph::{Edge, NodeId, Triangle, TriangleSet};

use crate::arena::{ArenaStats, NeighborArena};

use crate::delta::DeltaOp;

/// The live triangle set of a streaming engine: every triangle of the
/// current graph, each held once.
///
/// The engines ask it membership questions only — insert if absent,
/// remove if present, and its length — so it is a hash set, not the
/// sorted B-tree of [`TriangleSet`]: a point insert or remove costs one
/// hash and a probe or two instead of a walk down a tree. The hasher is
/// std's default keyed [`RandomState`](std::collections::hash_map::RandomState),
/// so a crafted stream cannot aim triangles at one bucket, and two sets
/// built in one process order their triangles differently. That order
/// never leaves this type: it has no iterator and no `Debug`, and
/// [`to_sorted`](Self::to_sorted) is the one way out, as the sorted
/// [`TriangleSet`] every engine's `triangles()` returns.
#[derive(Clone, Default)]
pub(crate) struct LiveTriangles(HashSet<Triangle>);

impl LiveTriangles {
    /// An empty set with room for `capacity` triangles.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        LiveTriangles(HashSet::with_capacity(capacity))
    }

    /// Number of live triangles.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Inserts a triangle; returns `true` if it was not already live.
    pub(crate) fn insert(&mut self, triangle: Triangle) -> bool {
        self.0.insert(triangle)
    }

    /// Removes a triangle; returns `true` if it was live.
    pub(crate) fn remove(&mut self, triangle: &Triangle) -> bool {
        self.0.remove(triangle)
    }

    /// Whether the set holds exactly the triangles of `reference`: the
    /// same number, and every one of them present.
    pub(crate) fn equals(&self, reference: &TriangleSet) -> bool {
        self.len() == reference.len() && reference.iter().all(|t| self.0.contains(t))
    }

    /// The set as a sorted [`TriangleSet`], built on demand:
    /// `O(t log t)` for `t` live triangles, meant for checks and tests,
    /// not for a loop.
    pub(crate) fn to_sorted(&self) -> TriangleSet {
        self.0.iter().copied().collect()
    }

    /// The triangles in the set's own hash order, which the tests
    /// compare across two sets to show that the order differs and that
    /// nothing an engine reports depends on it.
    #[cfg(test)]
    pub(crate) fn hash_order(&self) -> Vec<Triangle> {
        self.0.iter().copied().collect()
    }
}

impl FromIterator<Triangle> for LiveTriangles {
    fn from_iter<I: IntoIterator<Item = Triangle>>(iter: I) -> Self {
        LiveTriangles(iter.into_iter().collect())
    }
}

/// Merges candidate *retired* triangles into the live set with
/// exactly-once dedup: [`LiveTriangles::remove`] reports whether the
/// triangle was still present, so one observed dying through several of
/// its edges — or by several workers / network nodes — is counted a
/// single time. Returns the number of triangles actually retired.
///
/// This is the merge core of both the sharded engine's phase-2 and the
/// distributed engine's coordinator.
pub(crate) fn merge_removed_candidates<'a>(
    triangles: &mut LiveTriangles,
    candidates: impl IntoIterator<Item = &'a Triangle>,
) -> usize {
    candidates
        .into_iter()
        .filter(|t| triangles.remove(t))
        .count()
}

/// Merges candidate *born* triangles into the live set with exactly-once
/// dedup (the insertion dual of [`merge_removed_candidates`]). Returns
/// the number of triangles actually added.
pub(crate) fn merge_added_candidates<'a>(
    triangles: &mut LiveTriangles,
    candidates: impl IntoIterator<Item = &'a Triangle>,
) -> usize {
    candidates
        .into_iter()
        .filter(|t| triangles.insert(**t))
        .count()
}

/// The sorted-run form of the same merge: `run` is a sorted,
/// duplicate-free run with candidates appended to it, and afterwards the
/// whole of it is sorted and duplicate-free again — each triangle kept
/// once however many vantage points reported it, in the order a
/// [`TriangleSet`] iterates. The distributed engine's node programs keep
/// their convergecast aggregates this way.
pub(crate) fn dedup_candidates(run: &mut Vec<Triangle>) {
    run.sort_unstable();
    run.dedup();
}

/// Per-node triangle-support counters: `counts[v]` is the number of
/// live triangles containing node `v`. The counts live behind an `Arc`
/// so a serve-mode publish shares them with readers in `O(1)`; the
/// engines mutate through [`Arc::make_mut`], which copies the vector at
/// most once per batch while a published view pins it.
///
/// The counters are maintained by exactly the inserts/removes that
/// mutate the [`LiveTriangles`] (the `_supported` merge variants below and
/// the engines' direct apply paths), so they are always consistent with
/// the live set — the lockstep property tests recount them against the
/// oracle.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeSupport {
    counts: Arc<Vec<u32>>,
}

impl NodeSupport {
    /// All-zero counters for `node_count` nodes.
    pub(crate) fn new(node_count: usize) -> Self {
        NodeSupport {
            counts: Arc::new(vec![0; node_count]),
        }
    }

    /// The live set and the counters of an engine seeded with
    /// `listing` (its graph's reference listing), built in one pass:
    /// the set sized for every triangle up front, each node credited
    /// once per triangle it is in.
    pub(crate) fn seed(listing: &TriangleSet, node_count: usize) -> (LiveTriangles, Self) {
        let mut live = LiveTriangles::with_capacity(listing.len());
        let mut support = NodeSupport::new(node_count);
        let counts = Arc::make_mut(&mut support.counts);
        for t in listing {
            live.insert(*t);
            for v in t.nodes() {
                counts[v.index()] += 1;
            }
        }
        (live, support)
    }

    /// Credits one live triangle to each of its three nodes.
    pub(crate) fn record(&mut self, t: &Triangle) {
        let counts = Arc::make_mut(&mut self.counts);
        for v in t.nodes() {
            counts[v.index()] += 1;
        }
    }

    /// Retires one triangle from each of its three nodes.
    pub(crate) fn retire(&mut self, t: &Triangle) {
        let counts = Arc::make_mut(&mut self.counts);
        for v in t.nodes() {
            counts[v.index()] -= 1;
        }
    }

    /// Number of live triangles containing `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub(crate) fn of(&self, node: NodeId) -> usize {
        self.counts[node.index()] as usize
    }

    /// Shares the counters (an `Arc` bump) for a published read view.
    pub(crate) fn share(&self) -> Arc<Vec<u32>> {
        Arc::clone(&self.counts)
    }
}

/// [`merge_removed_candidates`] that also retires each actually-removed
/// triangle from the per-node support counters — the sharded engine's
/// merge core; the distributed engine keeps the unsupported variant.
pub(crate) fn merge_removed_candidates_supported<'a>(
    triangles: &mut LiveTriangles,
    support: &mut NodeSupport,
    candidates: impl IntoIterator<Item = &'a Triangle>,
) -> usize {
    candidates
        .into_iter()
        .filter(|t| {
            let removed = triangles.remove(t);
            if removed {
                support.retire(t);
            }
            removed
        })
        .count()
}

/// [`merge_added_candidates`] that also credits each actually-added
/// triangle to the per-node support counters (the insertion dual of
/// [`merge_removed_candidates_supported`]).
pub(crate) fn merge_added_candidates_supported<'a>(
    triangles: &mut LiveTriangles,
    support: &mut NodeSupport,
    candidates: impl IntoIterator<Item = &'a Triangle>,
) -> usize {
    candidates
        .into_iter()
        .filter(|t| {
            let added = triangles.insert(**t);
            if added {
                support.record(t);
            }
            added
        })
        .count()
}

/// Inserts `value` into a sorted, duplicate-free list, keeping it
/// sorted. Only the distributed engine's simulated node programs still
/// keep flat `Vec` lists; the shared-memory engine mutates adjacency
/// through the [`NeighborArena`](crate::arena) instead.
pub(crate) fn sorted_insert(list: &mut Vec<NodeId>, value: NodeId) {
    if let Err(pos) = list.binary_search(&value) {
        list.insert(pos, value);
    }
}

/// Removes `value` from a sorted list if present (same scope note as
/// [`sorted_insert`]).
pub(crate) fn sorted_remove(list: &mut Vec<NodeId>, value: NodeId) {
    if let Ok(pos) = list.binary_search(&value) {
        list.remove(pos);
    }
}

/// The node→shard mapping of a [`ShardedTriangleIndex`].
///
/// Node `i` is owned by shard `i mod S` and stored at local slot
/// `i div S`. The modulo partition doubles as a cheap hash partition:
/// consecutive ids (the hubs of the hotspot workloads) land on different
/// shards, balancing both storage and per-batch intersection work.
///
/// Routing runs on every list read and write of the ordered loop, so
/// [`locate`](Self::locate) computes both halves without a divide: the
/// spec keeps `c = ⌈2^64 / S⌉`, and for a 32-bit id `i` the quotient is
/// `(c · i) >> 64` and the remainder `i − q · S` — exact for every
/// `u32` id whenever `S ≤ 2^32` (Lemire, Kaser and Kurz, *Faster
/// remainder by direct computation*, 2019, Theorem 1 with `F = 64`,
/// `N = 32`). `c` is a `u128` because at `S = 1` it is `2^64` itself.
///
/// [`ShardedTriangleIndex`]: crate::ShardedTriangleIndex
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShardSpec {
    shard_count: usize,
    node_count: usize,
    /// `⌈2^64 / shard_count⌉`: [`locate`](Self::locate) multiplies by
    /// it instead of dividing by the shard count.
    recip: u128,
}

impl ShardSpec {
    /// A spec for `node_count` nodes over `shard_count` shards (clamped to
    /// at least one shard). [`locate`](Self::locate) is exact for shard
    /// counts up to `2^32`, far past any store that fits in memory.
    pub(crate) fn new(node_count: usize, shard_count: usize) -> Self {
        let shard_count = shard_count.max(1);
        debug_assert!(
            shard_count as u64 <= 1 << 32,
            "locate is exact only for at most 2^32 shards"
        );
        ShardSpec {
            shard_count,
            node_count,
            recip: (1u128 << 64).div_ceil(shard_count as u128),
        }
    }

    /// Number of shards `S`.
    pub(crate) fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Number of nodes across all shards.
    pub(crate) fn node_count(&self) -> usize {
        self.node_count
    }

    /// The shard owning `node` and the node's slot inside it —
    /// `(id mod S, id div S)`, by one multiply (see the type docs).
    #[inline]
    pub(crate) fn locate(&self, node: NodeId) -> (usize, usize) {
        let id = u64::from(node.0);
        let local = ((self.recip * u128::from(id)) >> 64) as u64;
        let shard = id - local * self.shard_count as u64;
        (shard as usize, local as usize)
    }

    /// Number of nodes owned by shard `s`.
    pub(crate) fn nodes_in_shard(&self, s: usize) -> usize {
        if s < self.node_count % self.shard_count {
            self.node_count.div_ceil(self.shard_count)
        } else {
            self.node_count / self.shard_count
        }
    }
}

/// One adjacency mutation routed to an owning shard: apply `op` to
/// `other` inside the neighbour list stored at `local` slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardOp {
    pub(crate) local: usize,
    pub(crate) other: NodeId,
    pub(crate) op: DeltaOp,
}

/// One shard's slice of the partitioned adjacency: the sorted neighbour
/// lists of its owned nodes, packed into one flat
/// [`NeighborArena`](crate::arena) (local slot = arena slot). During the
/// parallel phase of a batch apply exactly one worker holds `&mut` to
/// each shard, so shards never contend; between phases the whole
/// structure is read-shared.
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    /// Flat slot-indexed storage for this shard's neighbour lists.
    arena: NeighborArena,
}

impl Shard {
    /// An empty shard with `slots` owned nodes.
    pub(crate) fn new(slots: usize) -> Self {
        Shard {
            arena: NeighborArena::new(slots),
        }
    }

    /// The sorted neighbour list at `local` slot.
    pub(crate) fn neighbors(&self, local: usize) -> &[NodeId] {
        self.arena.neighbors(local)
    }

    /// Length of the list at `local` slot, without forming the slice.
    pub(crate) fn degree(&self, local: usize) -> usize {
        self.arena.len_of(local)
    }

    /// Replaces the neighbour list at `local` wholesale when seeding
    /// from a static graph (`neighbors` must already be sorted).
    pub(crate) fn seed(&mut self, local: usize, neighbors: &[NodeId]) {
        self.arena.seed(local, neighbors);
    }

    /// Applies one routed mutation to this shard's lists.
    pub(crate) fn apply_op(&mut self, op: ShardOp) {
        match op.op {
            DeltaOp::Insert => {
                self.arena.insert(op.local, op.other);
            }
            DeltaOp::Remove => {
                self.arena.remove(op.local, op.other);
            }
        }
    }

    /// Ends the shard's mutation epoch: an arena whose free slack
    /// outgrew its live data compacts. (Freed slabs were reusable the
    /// moment they were freed: the caller has `&mut`, so by construction
    /// no lease can see these bytes.)
    pub(crate) fn advance_epoch(&mut self) {
        self.arena.advance_epoch();
    }

    /// Catches a retained buffer up with the live one by re-running what
    /// the live buffer absorbed since the two diverged. Returns the
    /// number of list edits replayed.
    fn replay(&mut self, lag: &[Lag]) -> u64 {
        let mut edits = 0;
        for entry in lag {
            match entry {
                Lag::Op(op) => {
                    self.apply_op(*op);
                    edits += 1;
                }
                Lag::Epoch => self.advance_epoch(),
            }
        }
        edits
    }

    /// Half-edge count: the sum of this shard's list lengths (summing over
    /// all shards counts every undirected edge exactly twice).
    pub(crate) fn half_edges(&self) -> usize {
        self.arena.total_len()
    }

    /// This shard's arena health counters.
    pub(crate) fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }
}

/// Retained buffers kept per shard beside the live one. One is the
/// classic left-right pair; the second covers a reader that leased view
/// *k* just before publish *k + 1* and is still inside its query when
/// batch *k + 2* starts writing, so a query shorter than one batch
/// interval never forces a copy.
const MAX_RETAINED: usize = 2;

/// A retained buffer is dropped once its lag outgrows the live shard's
/// half-edges divided by this: past that point replaying the log stops
/// beating the `memcpy` it replaces.
const LAG_CAP_DIVISOR: usize = 2;

/// One thing a live buffer absorbed after a retained buffer diverged
/// from it, in the order it happened.
#[derive(Debug)]
enum Lag {
    /// One routed list edit.
    Op(ShardOp),
    /// The batch boundary ([`Shard::advance_epoch`]).
    Epoch,
}

/// A buffer an earlier view was published from, plus what the live
/// buffer has absorbed since.
#[derive(Debug)]
struct Retained {
    buf: Arc<Shard>,
    lag: Vec<Lag>,
}

/// Which path the first write of each (shard, batch) took, over a
/// store's lifetime — see [`TriangleServer::cow_stats`](crate::TriangleServer::cow_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CowStats {
    /// The live buffer was unique (nothing published pins it): edited in
    /// place.
    pub in_place: u64,
    /// The live buffer was pinned and a retained buffer was free: its
    /// lag was replayed and the two swapped roles.
    pub swaps: u64,
    /// The live buffer and every retained buffer were pinned (or none
    /// was retained yet): the whole shard was copied.
    pub clones: u64,
    /// List edits replayed by all swaps together.
    pub replayed_ops: u64,
}

/// The complete partitioned adjacency: a [`ShardSpec`] plus its `S`
/// [`Shard`]s, owned as one movable value (see the module docs for how
/// the pool round-trips ownership and how writes get past pinned
/// buffers).
#[derive(Debug)]
pub(crate) struct ShardStore {
    spec: ShardSpec,
    /// One live buffer per shard. Cloning the store clones these `Arc`s
    /// — `O(S)` — and that clone is what a published serve-mode view
    /// holds.
    shards: Vec<Arc<Shard>>,
    /// Per shard, at most [`MAX_RETAINED`] retained buffers, oldest
    /// first. Writer-side only: empty unless a write has found the live
    /// buffer pinned.
    retained: Vec<Vec<Retained>>,
    /// Shards written since the last [`advance_epoch`](Self::advance_epoch).
    touched: Vec<bool>,
    cow: CowStats,
}

impl Clone for ShardStore {
    /// Shares the live buffers and nothing else: a clone (a published
    /// view, a cloned engine) starts with no retained buffers, and the
    /// original must find its live buffers pinned on its next write.
    fn clone(&self) -> Self {
        ShardStore::over(self.spec, self.shards.clone())
    }
}

impl Default for ShardStore {
    /// An empty zero-node store; the placeholder left behind while the
    /// real store is lent to the worker pool.
    fn default() -> Self {
        ShardStore::new(0, 1)
    }
}

impl ShardStore {
    /// An empty store for `node_count` nodes over `shard_count` shards
    /// (clamped to at least 1).
    pub(crate) fn new(node_count: usize, shard_count: usize) -> Self {
        let spec = ShardSpec::new(node_count, shard_count);
        let shards = (0..spec.shard_count())
            .map(|s| Arc::new(Shard::new(spec.nodes_in_shard(s))))
            .collect();
        ShardStore::over(spec, shards)
    }

    /// A store over the given live buffers: nothing retained, nothing
    /// written, nothing tallied.
    fn over(spec: ShardSpec, shards: Vec<Arc<Shard>>) -> Self {
        ShardStore {
            spec,
            retained: shards.iter().map(|_| Vec::new()).collect(),
            touched: vec![false; shards.len()],
            shards,
            cow: CowStats::default(),
        }
    }

    /// The node→shard mapping.
    pub(crate) fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// Number of shards `S`.
    pub(crate) fn shard_count(&self) -> usize {
        self.spec.shard_count()
    }

    /// Number of nodes across all shards.
    pub(crate) fn node_count(&self) -> usize {
        self.spec.node_count()
    }

    /// Sorted neighbour list of `node`, read from its owning shard.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub(crate) fn neighbors(&self, node: NodeId) -> &[NodeId] {
        let (shard, local) = self.slot_of(node);
        shard.neighbors(local)
    }

    /// Current degree of `node`, read from its owning shard's slot table.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub(crate) fn degree(&self, node: NodeId) -> usize {
        let (shard, local) = self.slot_of(node);
        shard.degree(local)
    }

    /// The shard that owns `node` and the node's slot in it.
    fn slot_of(&self, node: NodeId) -> (&Shard, usize) {
        assert!(
            node.index() < self.spec.node_count(),
            "node {node} out of range"
        );
        let (shard, local) = self.spec.locate(node);
        (&self.shards[shard], local)
    }

    /// Whether `{a, b}` is currently an edge (probing from the
    /// lower-degree endpoint).
    pub(crate) fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        if a == b || a.index() >= self.node_count() || b.index() >= self.node_count() {
            return false;
        }
        let (from, to) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.neighbors(from).binary_search(&to).is_ok()
    }

    /// Estimated cost of intersecting the endpoint neighbourhoods of
    /// `edge`, a bound on what the kernel the degrees select pays (see
    /// [`congest_graph::intersection_cost_estimate`]): skewed pairs bill
    /// the galloping search at `d_min · (log2(d_max/d_min) + 1)`, all
    /// other pairs `d_min + d_max`, the merge's walk. The pool
    /// sizes a wave against its hand-off floor on this estimate, so a
    /// hub whose intersections gallop does not look quadratically more
    /// expensive than it runs.
    pub(crate) fn intersection_cost(&self, edge: Edge) -> usize {
        congest_graph::intersection_cost_estimate(self.degree(edge.lo()), self.degree(edge.hi()))
    }

    /// Seeds `node`'s sorted neighbour list (used when building from a
    /// static graph). Seeding happens outside any batch and is not
    /// logged: the shard's retained buffers are dropped instead, and a
    /// live buffer something else still shares is copied first.
    pub(crate) fn seed(&mut self, node: NodeId, neighbors: &[NodeId]) {
        let (shard, local) = self.spec.locate(node);
        self.retained[shard].clear();
        let live = &mut self.shards[shard];
        if Arc::get_mut(live).is_none() {
            *live = Arc::new(Shard::clone(live));
        }
        Arc::get_mut(live)
            .expect("just made unique")
            .seed(local, neighbors);
    }

    /// Applies one routed mutation to the shard that owns it.
    pub(crate) fn apply_routed(&mut self, shard: usize, op: ShardOp) {
        self.writable(shard).apply_op(op);
        for retained in &mut self.retained[shard] {
            retained.lag.push(Lag::Op(op));
        }
    }

    /// The arena of a one-shard store, when a batch may write straight
    /// into it: the live buffer is unique and no retained buffer logs
    /// what it absorbs, so [`writable`](Self::writable) would only ever
    /// edit it in place. A batch that then writes reports so with
    /// [`wrote_sole_arena`](Self::wrote_sole_arena).
    pub(crate) fn sole_arena(&mut self) -> Option<&mut NeighborArena> {
        if self.shards.len() != 1 || !self.retained[0].is_empty() {
            return None;
        }
        Arc::get_mut(&mut self.shards[0]).map(|shard| &mut shard.arena)
    }

    /// Books a batch's writes through [`sole_arena`](Self::sole_arena)
    /// as `writable` would have: one in-place first write, and an epoch
    /// for [`advance_epoch`](Self::advance_epoch) to end.
    pub(crate) fn wrote_sole_arena(&mut self) {
        self.touched[0] = true;
        self.cow.in_place += 1;
    }

    /// Every shard's arena, lent to the ordered loop for one batch, when
    /// the batch may write straight into them: no shard retains a buffer
    /// that would have to log what the live one absorbs, and every live
    /// buffer is unique, so [`writable`](Self::writable) would only ever
    /// edit in place. The loan books each shard's first write the way
    /// `writable` does; `None` sends the batch through
    /// [`apply_routed`](Self::apply_routed) instead.
    pub(crate) fn lend_arenas(&mut self) -> Option<LentArenas<'_>> {
        if self.retained.iter().any(|retained| !retained.is_empty()) {
            return None;
        }
        let arenas = self
            .shards
            .iter_mut()
            .map(|live| Arc::get_mut(live).map(|shard| &mut shard.arena))
            .collect::<Option<Vec<_>>>()?;
        Some(LentArenas {
            spec: self.spec,
            arenas,
            touched: &mut self.touched,
            cow: &mut self.cow,
        })
    }

    /// The pooled record phase's engine-side half, called per shard
    /// right before the shards move to their workers: makes the live
    /// buffer of a shard with work unique — so the worker's
    /// [`Arc::get_mut`] cannot fail — and logs the work for the
    /// retained buffers in the order the worker applies it.
    pub(crate) fn begin_record(&mut self, shard: usize, ops: &[ShardOp]) {
        if ops.is_empty() {
            return;
        }
        self.writable(shard);
        for retained in &mut self.retained[shard] {
            retained.lag.extend(ops.iter().copied().map(Lag::Op));
        }
    }

    /// `&mut` to a shard's live buffer. The first write of a batch makes
    /// it unique if a published view pins it; unique then stays unique
    /// until the store is next cloned — readers clone whole views, never
    /// a shard's `Arc`, and nothing clones the store mid-batch — so later
    /// writes of the batch go straight through.
    fn writable(&mut self, shard: usize) -> &mut Shard {
        if !self.touched[shard] {
            self.touched[shard] = true;
            if Arc::get_mut(&mut self.shards[shard]).is_none() {
                self.unpin(shard);
            } else {
                self.cow.in_place += 1;
            }
        }
        Arc::get_mut(&mut self.shards[shard])
            .expect("a written shard stays unique until the store is next cloned")
    }

    /// Replaces a pinned live buffer by an identical unique one: the
    /// youngest retained buffer no reader still holds, caught up by
    /// replaying its lag, or — when all are pinned — a copy. The pinned
    /// buffer is retained in its place with an empty lag.
    fn unpin(&mut self, shard: usize) {
        let retained = &mut self.retained[shard];
        // Only this store holds retained buffers besides old views, and
        // views only ever let go: a buffer seen unique stays unique.
        let spare = (0..retained.len())
            .rev()
            .find(|&i| Arc::get_mut(&mut retained[i].buf).is_some());
        let (fresh, mut lag) = match spare {
            Some(i) => {
                let Retained { mut buf, lag } = retained.remove(i);
                let caught_up = Arc::get_mut(&mut buf).expect("checked unique above");
                self.cow.replayed_ops += caught_up.replay(&lag);
                self.cow.swaps += 1;
                (buf, lag)
            }
            None => {
                if retained.len() == MAX_RETAINED {
                    // All three buffers pinned: let go of the stalest.
                    retained.remove(0);
                }
                self.cow.clones += 1;
                (Arc::new(Shard::clone(&self.shards[shard])), Vec::new())
            }
        };
        lag.clear();
        let pinned = std::mem::replace(&mut self.shards[shard], fresh);
        retained.push(Retained { buf: pinned, lag });
    }

    /// Moves the shard `Arc`s out (for the record phase, where each
    /// worker owns exactly one); the store is unusable until
    /// [`restore_shards`](ShardStore::restore_shards) puts them back.
    pub(crate) fn take_shards(&mut self) -> Vec<Arc<Shard>> {
        std::mem::take(&mut self.shards)
    }

    /// Puts the shards moved out by
    /// [`take_shards`](ShardStore::take_shards) back in slot order.
    pub(crate) fn restore_shards(&mut self, shards: Vec<Arc<Shard>>) {
        debug_assert_eq!(shards.len(), self.spec.shard_count());
        self.shards = shards;
    }

    /// Sum of all shards' list lengths (twice the undirected edge count).
    pub(crate) fn half_edges(&self) -> usize {
        self.shards.iter().map(|shard| shard.half_edges()).sum()
    }

    /// Ends the batch: every shard it wrote ends its arena epoch
    /// (oversized arenas compact),
    /// the boundary is logged for that shard's retained buffers, and a
    /// retained buffer whose lag has outgrown the cap is dropped — which
    /// is also how an engine that stopped publishing sheds its buffers
    /// instead of logging forever. Shards the batch did not write are
    /// left alone: they freed nothing.
    pub(crate) fn advance_epoch(&mut self) {
        for (shard, touched) in self.touched.iter_mut().enumerate() {
            if !std::mem::take(touched) {
                continue;
            }
            let live = Arc::get_mut(&mut self.shards[shard])
                .expect("a written shard stays unique until the store is next cloned");
            live.advance_epoch();
            let cap = live.half_edges() / LAG_CAP_DIVISOR;
            self.retained[shard].retain_mut(|retained| {
                retained.lag.push(Lag::Epoch);
                retained.lag.len() <= cap
            });
        }
    }

    /// Drops every retained buffer (the store stops being published
    /// from, or is about to be reseeded).
    pub(crate) fn shed_retained(&mut self) {
        self.retained.iter_mut().for_each(Vec::clear);
    }

    /// Retained buffers currently held, over all shards.
    #[cfg(test)]
    pub(crate) fn retained_buffers(&self) -> usize {
        self.retained.iter().map(Vec::len).sum()
    }

    /// Each shard's own arena health counters, in shard order.
    #[cfg(test)]
    pub(crate) fn shard_arena_stats(&self) -> Vec<ArenaStats> {
        self.shards
            .iter()
            .map(|shard| shard.arena_stats())
            .collect()
    }

    /// Which path first writes have taken so far.
    pub(crate) fn cow_stats(&self) -> CowStats {
        self.cow
    }

    /// Arena health counters summed over every shard.
    pub(crate) fn arena_stats(&self) -> ArenaStats {
        let mut total = ArenaStats::default();
        for shard in &self.shards {
            total.absorb(&shard.arena_stats());
        }
        total
    }
}

/// All `S` live arenas of a [`ShardStore`], borrowed for one batch by
/// [`ShardStore::lend_arenas`]: a write goes straight to the owning
/// shard's arena — no per-write uniqueness check and no retained-buffer
/// log. Each shard's first write of the batch is booked as an in-place
/// write, with an epoch for [`advance_epoch`](ShardStore::advance_epoch)
/// to end.
pub(crate) struct LentArenas<'a> {
    spec: ShardSpec,
    arenas: Vec<&'a mut NeighborArena>,
    touched: &'a mut [bool],
    cow: &'a mut CowStats,
}

impl LentArenas<'_> {
    /// Sorted neighbour list of `node`, read from its owning shard.
    pub(crate) fn neighbors(&self, node: NodeId) -> &[NodeId] {
        let (shard, local) = self.spec.locate(node);
        self.arenas[shard].neighbors(local)
    }

    /// Applies `op` to `other` in `node`'s list.
    pub(crate) fn apply(&mut self, node: NodeId, other: NodeId, op: DeltaOp) {
        let (shard, local) = self.spec.locate(node);
        if !self.touched[shard] {
            self.touched[shard] = true;
            self.cow.in_place += 1;
        }
        let arena = &mut *self.arenas[shard];
        match op {
            DeltaOp::Insert => arena.insert(local, other),
            DeltaOp::Remove => arena.remove(local, other),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::intersect_sorted;

    fn v(i: u32) -> NodeId {
        NodeId(i)
    }

    fn ids(values: &[u32]) -> Vec<NodeId> {
        values.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn intersection_merge_path() {
        assert_eq!(
            intersect_sorted(&ids(&[1, 3, 5, 7]), &ids(&[2, 3, 6, 7, 9])),
            ids(&[3, 7])
        );
        assert_eq!(intersect_sorted(&[], &ids(&[1, 2])), ids(&[]));
    }

    #[test]
    fn intersection_probe_path_on_skewed_lengths() {
        let large: Vec<NodeId> = (0..200).map(NodeId).collect();
        let small = ids(&[3, 77, 199, 205]);
        assert_eq!(intersect_sorted(&small, &large), ids(&[3, 77, 199]));
        // Symmetric in its arguments.
        assert_eq!(intersect_sorted(&large, &small), ids(&[3, 77, 199]));
    }

    #[test]
    fn sorted_insert_and_remove_keep_order() {
        let mut list = ids(&[2, 5, 9]);
        sorted_insert(&mut list, v(7));
        sorted_insert(&mut list, v(7)); // duplicate is a no-op
        assert_eq!(list, ids(&[2, 5, 7, 9]));
        sorted_remove(&mut list, v(5));
        sorted_remove(&mut list, v(5)); // absent is a no-op
        assert_eq!(list, ids(&[2, 7, 9]));
    }

    #[test]
    fn spec_partitions_every_node_exactly_once() {
        for (n, s) in [(10, 3), (7, 1), (5, 8), (0, 4)] {
            let spec = ShardSpec::new(n, s);
            let mut seen = vec![0usize; n];
            let mut per_shard = vec![0usize; spec.shard_count()];
            for (i, count) in seen.iter_mut().enumerate() {
                let (shard, local) = spec.locate(NodeId::from_index(i));
                assert!(local < spec.nodes_in_shard(shard), "n={n} s={s} i={i}");
                *count += 1;
                per_shard[shard] += 1;
            }
            assert!(seen.iter().all(|&c| c == 1));
            for (shard, &count) in per_shard.iter().enumerate() {
                assert_eq!(count, spec.nodes_in_shard(shard), "n={n} s={s}");
            }
        }
    }

    /// Asserts `locate` on a spec over `shards` shards equals the
    /// dividing formula at every id of `ids`.
    fn assert_locates(shards: u64, ids: impl IntoIterator<Item = u32>) {
        let spec = ShardSpec::new(0, shards as usize);
        for id in ids {
            let (shard, local) = spec.locate(NodeId(id));
            let id = u64::from(id);
            assert_eq!(
                (shard as u64, local as u64),
                (id % shards, id / shards),
                "S={shards} id={id}"
            );
        }
    }

    #[test]
    fn locate_divides_exactly_for_small_shard_counts() {
        for shards in 1..=64 {
            assert_locates(shards, 0..=65_536);
        }
    }

    #[test]
    fn locate_divides_exactly_near_the_top_of_the_id_range() {
        for shards in [1, 2, 3, 7, 1 << 31, (1 << 32) - 1, 1 << 32] {
            assert_locates(shards, u32::MAX - 4_096..=u32::MAX);
            assert_locates(shards, [0, 1, (1 << 31) - 1, 1 << 31]);
        }
    }

    proptest::proptest! {
        #[test]
        fn locate_divides_exactly_for_any_shard_count_and_id(
            shards in 1u64..=1 << 32,
            small in 1u64..=1_024,
            id in proptest::prelude::any::<u32>(),
        ) {
            assert_locates(shards, [id]);
            assert_locates(small, [id]);
        }
    }

    #[test]
    fn spec_clamps_to_one_shard() {
        let spec = ShardSpec::new(4, 0);
        assert_eq!(spec.shard_count(), 1);
        assert_eq!(spec.nodes_in_shard(0), 4);
        assert_eq!(spec.node_count(), 4);
    }

    #[test]
    fn store_round_trips_shards_and_estimates_cost() {
        let mut store = ShardStore::new(6, 2);
        store.seed(v(0), &ids(&[2, 4]));
        store.seed(v(2), &ids(&[0]));
        store.seed(v(4), &ids(&[0]));
        assert_eq!(store.neighbors(v(0)), ids(&[2, 4]));
        assert!(store.has_edge(v(0), v(4)));
        assert!(!store.has_edge(v(0), v(1)));
        assert!(!store.has_edge(v(0), v(0)));
        // Balanced degrees (2 vs 1) bill the merge walk: d_min + d_max.
        assert_eq!(store.intersection_cost(Edge::new(v(0), v(2))), 3);
        assert_eq!(store.half_edges(), 4);

        // The record-phase ownership round trip preserves the adjacency.
        let shards = store.take_shards();
        assert_eq!(shards.len(), 2);
        store.restore_shards(shards);
        assert_eq!(store.neighbors(v(0)), ids(&[2, 4]));

        let (shard, local) = store.spec().locate(v(0));
        store.apply_routed(
            shard,
            ShardOp {
                local,
                other: v(2),
                op: DeltaOp::Remove,
            },
        );
        assert_eq!(store.neighbors(v(0)), ids(&[4]));
    }

    #[test]
    fn skewed_intersection_cost_bills_the_gallop() {
        // A hub of degree 64 against a degree-2 node: ratio 32 ≥ 16, so
        // the estimate is d_min · (log2(ratio) + 1) = 2 · 6, far below
        // the old degree-sum estimate of 66.
        let mut store = ShardStore::new(70, 2);
        let hub: Vec<NodeId> = (2..66).map(NodeId).collect();
        store.seed(v(0), &hub);
        store.seed(v(1), &ids(&[2, 3]));
        assert_eq!(store.intersection_cost(Edge::new(v(0), v(1))), 12);
    }

    #[test]
    fn shard_applies_routed_ops() {
        let mut shard = Shard::new(2);
        shard.seed(0, &ids(&[4, 8]));
        shard.apply_op(ShardOp {
            local: 0,
            other: v(6),
            op: DeltaOp::Insert,
        });
        shard.apply_op(ShardOp {
            local: 1,
            other: v(3),
            op: DeltaOp::Insert,
        });
        shard.apply_op(ShardOp {
            local: 0,
            other: v(8),
            op: DeltaOp::Remove,
        });
        assert_eq!(shard.neighbors(0), ids(&[4, 6]));
        assert_eq!(shard.neighbors(1), ids(&[3]));
        assert_eq!(shard.half_edges(), 3);
    }
    // ---- left-right buffers -------------------------------------------

    /// A store seeded with the circulant graph on `n` nodes where every
    /// node neighbours the `k` ids on either side: degree `2k`, so each
    /// shard's lag cap is `k · n / S` and easy to stay under.
    fn circulant(n: u32, k: u32, shards: usize) -> ShardStore {
        let mut store = ShardStore::new(n as usize, shards);
        for i in 0..n {
            let mut list: Vec<NodeId> = (1..=k)
                .flat_map(|d| [v((i + d) % n), v((i + n - d) % n)])
                .collect();
            list.sort_unstable();
            store.seed(v(i), &list);
        }
        store
    }

    /// One batch through the ordered-path API: both directions of every
    /// edge op, then the batch boundary.
    fn write(store: &mut ShardStore, edges: &[(u32, u32, DeltaOp)]) {
        let spec = store.spec();
        for &(a, b, op) in edges {
            for (node, other) in [(v(a), v(b)), (v(b), v(a))] {
                let (shard, local) = spec.locate(node);
                store.apply_routed(shard, ShardOp { local, other, op });
            }
        }
        store.advance_epoch();
    }

    /// One batch through the pooled-path API, with this thread playing
    /// every worker.
    fn record(store: &mut ShardStore, ops: &[Vec<ShardOp>]) {
        for (shard, ops) in ops.iter().enumerate() {
            store.begin_record(shard, ops);
        }
        let mut shards = store.take_shards();
        for (shard, ops) in shards.iter_mut().zip(ops) {
            if ops.is_empty() {
                continue;
            }
            let shard = Arc::get_mut(shard).expect("begin_record made it unique");
            for &op in ops {
                shard.apply_op(op);
            }
        }
        store.restore_shards(shards);
        store.advance_epoch();
    }

    fn lists(store: &ShardStore) -> Vec<Vec<NodeId>> {
        (0..store.node_count())
            .map(|i| store.neighbors(NodeId::from_index(i)).to_vec())
            .collect()
    }

    /// A small effective batch on the circulant base: round `r` toggles
    /// the chords `{i, i + n/2}` for four values of `i`.
    fn chords(r: u32, n: u32, op: DeltaOp) -> Vec<(u32, u32, DeltaOp)> {
        (0..4)
            .map(|j| ((r * 4 + j) % (n / 2), (r * 4 + j) % (n / 2) + n / 2, op))
            .collect()
    }

    #[test]
    fn unpinned_writes_stay_in_place_and_retain_nothing() {
        let mut store = circulant(64, 4, 2);
        for r in 0..6 {
            write(&mut store, &chords(r, 64, DeltaOp::Insert));
        }
        assert_eq!(
            store.cow_stats(),
            CowStats {
                in_place: 12, // six batches, both shards written each time
                ..CowStats::default()
            }
        );
        assert_eq!(store.retained_buffers(), 0);
        assert!(store.has_edge(v(0), v(32)));
    }

    #[test]
    fn a_pinned_buffer_is_cloned_once_and_swapped_from_then_on() {
        let mut store = circulant(64, 4, 1);
        let mut view = store.clone();
        let mut expected = lists(&store);
        for r in 0..6 {
            write(&mut store, &chords(r, 64, DeltaOp::Insert));
            // The view still holds the pre-batch bytes…
            assert_eq!(lists(&view), expected, "round {r}");
            // …and the next publish lets the older one go.
            expected = lists(&store);
            view = store.clone();
            let cow = store.cow_stats();
            assert_eq!((cow.clones, cow.swaps, cow.in_place), (1, r as u64, 0));
            assert_eq!(store.retained_buffers(), 1);
        }
        // Each swap replays exactly the one batch it missed: 4 edges,
        // both directions.
        assert_eq!(store.cow_stats().replayed_ops, 5 * 8);
        assert!(store.has_edge(v(23), v(55)));
        drop(view);
    }

    #[test]
    fn with_every_buffer_pinned_it_clones_and_never_holds_more_than_three() {
        let mut store = circulant(64, 4, 1);
        let mut leases = vec![(store.clone(), lists(&store))];
        for r in 0..6 {
            write(&mut store, &chords(r, 64, DeltaOp::Insert));
            leases.push((store.clone(), lists(&store)));
            assert!(store.retained_buffers() <= MAX_RETAINED, "round {r}");
        }
        // Nobody ever let go, so no retained buffer was ever free.
        let cow = store.cow_stats();
        assert_eq!((cow.clones, cow.swaps, cow.in_place), (6, 0, 0));
        // Every lease still reads what it was published with.
        for (epoch, (view, expected)) in leases.iter().enumerate() {
            assert_eq!(&lists(view), expected, "epoch {epoch}");
        }
        // Once the stale leases go, the writer swaps again.
        leases.clear();
        let view = store.clone();
        write(&mut store, &chords(6, 64, DeltaOp::Insert));
        assert_eq!(store.cow_stats().swaps, 1);
        drop(view);
    }

    #[test]
    fn a_retained_buffer_is_shed_once_its_lag_passes_the_cap() {
        // 64 nodes of degree 8: 512 half-edges, so the cap is 256.
        let mut store = circulant(64, 4, 1);
        let view = store.clone();
        write(&mut store, &chords(0, 64, DeltaOp::Insert));
        drop(view);
        assert_eq!(store.retained_buffers(), 1);
        // Nothing is published from here on: every write is in place and
        // the one retained buffer only falls further behind, by 9 entries
        // a batch (8 edits and the boundary), the batch above included.
        let mut rounds = 0;
        while store.retained_buffers() == 1 {
            rounds += 1;
            assert!(rounds < 40, "the lag cap never shed the buffer");
            let op = if rounds % 2 == 1 {
                DeltaOp::Remove
            } else {
                DeltaOp::Insert
            };
            write(&mut store, &chords(0, 64, op));
        }
        assert_eq!(rounds, 28, "29 batches of 9 entries pass the cap");
        assert_eq!(store.cow_stats().clones, 1);
        assert_eq!(store.cow_stats().swaps, 0);
    }

    #[test]
    fn clones_and_seeds_carry_no_retained_buffers() {
        let mut store = circulant(64, 4, 2);
        let view = store.clone();
        write(&mut store, &chords(0, 64, DeltaOp::Insert));
        assert_eq!(store.retained_buffers(), 2);
        // What a view (or a cloned engine) holds: live buffers only, and
        // a clean slate of tallies.
        let copy = store.clone();
        assert_eq!(copy.retained_buffers(), 0);
        assert_eq!(copy.cow_stats(), CowStats::default());
        assert_eq!(lists(&copy), lists(&store));
        // Seeding is not logged, so it must not leave a buffer behind
        // that would replay to the wrong lists.
        store.seed(v(0), &ids(&[1, 2]));
        store.seed(v(1), &ids(&[0]));
        assert_eq!(store.retained_buffers(), 0);
        // The seeded live buffers were shared with `copy`: it keeps the
        // old lists.
        assert_eq!(store.neighbors(v(0)), ids(&[1, 2]));
        assert!(copy.has_edge(v(0), v(32)));
        store.shed_retained();
        drop(view);
    }

    #[test]
    fn a_replayed_buffer_equals_the_live_one_in_lists_and_arena_stats() {
        // The same stream through a store nobody ever pins and through
        // one published after every batch, with leases held 0–3 batches:
        // in-place, swap and clone paths all occur, and none may show.
        // Every node gains 48 neighbours and loses them again, so slabs
        // promote and free lists fill; then four nodes lose their base
        // edges too and hand their slabs back, which tips the arenas
        // past half free and compacts them, and regain them, so that a
        // swap replays the compacting boundary.
        let n = 64u32;
        let mut plain = circulant(n, 2, 2);
        let mut served = circulant(n, 2, 2);
        let mut current = served.clone();
        let mut leases: Vec<(u32, ShardStore)> = Vec::new();
        let spec = plain.spec();
        for r in 0..50u32 {
            leases.retain(|(release, _)| *release > r);
            let batch: Vec<(u32, u32, DeltaOp)> = match r {
                0..24 => (0..n)
                    .map(|i| (i, (i + 3 + r) % n, DeltaOp::Insert))
                    .collect(),
                24..48 => (0..n)
                    .map(|i| (i, (i + 50 - r) % n, DeltaOp::Remove))
                    .collect(),
                _ => {
                    let op = if r == 48 {
                        DeltaOp::Remove
                    } else {
                        DeltaOp::Insert
                    };
                    (0..4)
                        .flat_map(|i| [1, 2, n - 2, n - 1].map(|d| (i, (i + d) % n, op)))
                        .collect()
                }
            };
            if r % 5 == 4 {
                // A pooled batch: each shard's ops in one routed list.
                let mut ops = vec![Vec::new(), Vec::new()];
                for &(a, b, op) in &batch {
                    for (node, other) in [(v(a), v(b)), (v(b), v(a))] {
                        let (shard, local) = spec.locate(node);
                        ops[shard].push(ShardOp { local, other, op });
                    }
                }
                record(&mut plain, &ops);
                record(&mut served, &ops);
            } else {
                write(&mut plain, &batch);
                write(&mut served, &batch);
            }
            assert_eq!(lists(&served), lists(&plain), "round {r}");
            assert_eq!(served.arena_stats(), plain.arena_stats(), "round {r}");
            let published = served.clone();
            if r % 4 != 0 {
                leases.push((r + 1 + r % 4, current));
            }
            current = published;
        }
        assert!(plain.arena_stats().compactions >= 1, "round 48 compacts");
        let cow = served.cow_stats();
        assert!(
            cow.swaps > 0 && cow.clones > 0 && cow.replayed_ops > 0,
            "{cow:?}"
        );
        assert_eq!(cow.in_place, 0, "a published store is always pinned");
        assert_eq!(plain.cow_stats().in_place, 2 * 50);
        assert_eq!(plain.retained_buffers(), 0);
    }
}
