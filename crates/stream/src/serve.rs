//! The serving layer: epoch-stamped read snapshots over the sharded
//! engine.
//!
//! [`TriangleServer`] wraps a [`ShardedTriangleIndex`] and separates the
//! two roles a production deployment runs concurrently:
//!
//! * **One writer** owns the server and calls
//!   [`apply`](TriangleServer::apply); each batch applies through the
//!   engine's normal pipeline and then **publishes** a new epoch — an
//!   O(S) handle-copy of the shard store (the shards themselves are
//!   shared `Arc`s) plus the shared per-node support vector.
//! * **Any number of readers** hold a cloneable [`ServeHandle`] and call
//!   [`lease`](ServeHandle::lease): one mutex lock and an `Arc` clone
//!   pins the last fully-published epoch. Every query on the resulting
//!   [`Lease`] — triangle count, per-node/per-edge support, *is this
//!   edge in a triangle*, top-k-support nodes — answers against that
//!   frozen view, no matter how many batches the writer applies
//!   meanwhile.
//!
//! Neither side waits on the other:
//!
//! * Readers never block the write pipeline — a lease acquire is a
//!   sub-microsecond critical section, and queries run entirely on the
//!   reader's own `Arc`s.
//! * The writer never waits on readers — publishing swaps the shared
//!   view pointer; it does not reclaim anything a lease still uses. A
//!   buffer is only ever written through a unique `Arc`, so "no lease
//!   observes a reclaimed slot" holds by construction: whatever a lease
//!   can see, nothing mutates. The writer gets past the buffer its last
//!   view pins with **left-right buffers** (see [`crate::shard`]'s
//!   `ShardStore`): per shard it keeps up to two *retained* buffers —
//!   the ones earlier views were published from — with a log of what
//!   the live buffer absorbed since; a batch's first write takes one no
//!   reader still holds, replays its log, swaps it in and retains the
//!   pinned one. A write therefore costs `O(batch)`, not an `O(m)`
//!   shard copy, and the arena reclaims and compacts at every batch
//!   boundary whatever leases are out.
//!
//! **What this costs.** Memory: up to three buffers per shard while
//! serving (one live, two retained; two in steady state without
//! overlapping readers) plus their logs, each capped at half the
//! shard's half-edges. A lease held across batches pins one buffer; as
//! long as one retained buffer is free the writer does not notice. Only
//! when the live buffer and both retained ones are pinned at once — two
//! stale leases on different epochs beside the current view — does a
//! batch fall back to copying the shard, and it keeps doing so every
//! batch until one of them lets go. [`TriangleServer::cow_stats`] says
//! which path batches took.
//!
//! A dropped [`Lease`] retires itself from the server's epoch table and
//! frees the buffers only its view held. Observability:
//! `serve/lease_acquire`, `serve/query` and `serve/publish` span
//! families, the `serve.active_leases` and `serve.oldest_lease_epoch_lag`
//! gauges (last value), the `serve.lease_age_epochs_max` gauge (the
//! oldest lease's age at the worst publish so far) and the
//! `serve.buffer_swaps`, `serve.buffer_clones` and `serve.replayed_ops`
//! counters (all updated writer-side at each publish, so the query path
//! stays contention-free). A reader that acquires a lease and forgets
//! it does not error anywhere — it silently pins a buffer — so each
//! publish whose oldest lease lags the writer by more than
//! [`STALE_LEASE_WARN_EPOCHS`] epochs also bumps the
//! `serve.stale_lease_warnings` counter, making the abandoned lease
//! visible in any metrics snapshot.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use congest_graph::{count_common, AdjacencyView, NodeId};

use crate::delta::DeltaBatch;
use crate::index::{ApplyReport, StreamError};
use crate::shard::{CowStats, ShardStore};
use crate::sharded::ShardedTriangleIndex;

/// Epochs the oldest outstanding lease may lag the writer before each
/// further publish counts a `serve.stale_lease_warnings` tick. A lease
/// pins one whole buffer of every shard its view holds — a third of the
/// writer's left-right budget; a second one as stale on another epoch
/// turns every batch into a shard copy. Sixteen epochs is already far
/// beyond what a well-behaved reader session holds; a lease older than
/// that is almost certainly leaked.
pub const STALE_LEASE_WARN_EPOCHS: u64 = 16;

/// One published, immutable view of the indexed graph.
///
/// Building one is O(S): the shard store is a vector of shared `Arc`s
/// and the support vector is shared copy-on-write, so publishing copies
/// handles, not adjacency.
struct EpochView {
    /// The publish counter this view was stamped with.
    epoch: u64,
    /// Shared handles on the buffers that were live at the stamp; the
    /// writer swaps past them instead of writing them.
    store: ShardStore,
    /// Live triangle count at the stamp.
    triangle_count: usize,
    /// Present undirected edges at the stamp.
    edge_count: usize,
    /// Per-node triangle-support counters at the stamp.
    support: Arc<Vec<u32>>,
}

/// Reader-side bookkeeping, behind the server's single mutex.
struct ServeState {
    /// The most recently published view.
    view: Arc<EpochView>,
    /// Outstanding leases per epoch (entries removed when they hit 0),
    /// so the oldest outstanding epoch is `O(log e)` away.
    leases: BTreeMap<u64, usize>,
    /// Total outstanding leases (the sum of `leases` values).
    active: usize,
}

/// What the writer and every handle share.
struct ServeShared {
    state: Mutex<ServeState>,
}

impl ServeShared {
    /// Locks the reader table; a reader that panicked mid-drop only
    /// poisons bookkeeping integers, so the poison is ignored.
    fn lock(&self) -> MutexGuard<'_, ServeState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// The writer's end of the serving layer: owns the engine, applies
/// batches, publishes epochs.
///
/// ```
/// use congest_graph::generators::Gnp;
/// use congest_stream::{DeltaBatch, ShardedTriangleIndex, TriangleServer};
///
/// let graph = Gnp::new(64, 0.1).seeded(1).generate();
/// let mut server = TriangleServer::new(ShardedTriangleIndex::from_graph(&graph, 4));
/// let handle = server.handle();
///
/// let lease = handle.lease(); // pins the pre-batch epoch
/// let before = lease.triangle_count();
///
/// let mut batch = DeltaBatch::new();
/// batch.insert(congest_graph::NodeId(0), congest_graph::NodeId(1));
/// server.apply(&batch).unwrap(); // publishes a new epoch, does not wait
///
/// assert_eq!(lease.triangle_count(), before); // the old lease is frozen
/// assert_eq!(handle.lease().epoch(), lease.epoch() + 1);
/// ```
pub struct TriangleServer {
    engine: ShardedTriangleIndex,
    shared: Arc<ServeShared>,
    /// The last published epoch (one publish per applied batch).
    epoch: u64,
    /// The engine's [`CowStats`] as of the last publish (the registry
    /// counters are fed the difference).
    published_cow: CowStats,
}

impl TriangleServer {
    /// Wraps an engine and publishes its current state as epoch 0.
    pub fn new(engine: ShardedTriangleIndex) -> Self {
        let view = Arc::new(EpochView {
            epoch: 0,
            store: engine.clone_store(),
            triangle_count: engine.triangle_count(),
            edge_count: engine.edge_count(),
            support: engine.support_counts(),
        });
        TriangleServer {
            engine,
            shared: Arc::new(ServeShared {
                state: Mutex::new(ServeState {
                    view,
                    leases: BTreeMap::new(),
                    active: 0,
                }),
            }),
            epoch: 0,
            published_cow: CowStats::default(),
        }
    }

    /// A cloneable reader handle onto the server's published epochs.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The last published epoch (0 until the first
    /// [`apply`](TriangleServer::apply)).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The wrapped engine (reads see the *live* state, which may be
    /// ahead of the published epoch only inside `apply`; between calls
    /// the two coincide).
    pub fn engine(&self) -> &ShardedTriangleIndex {
        &self.engine
    }

    /// Unwraps the server, dropping the lease table and the retained
    /// write buffers. Outstanding leases keep their views alive
    /// independently.
    pub fn into_engine(mut self) -> ShardedTriangleIndex {
        self.engine.shed_retained();
        self.engine
    }

    /// Which path the first write of each (shard, batch) has taken so
    /// far: in place, a swap to a caught-up retained buffer, or the
    /// whole-shard copy that remains as the fallback. A healthy server
    /// shows `clones` near zero — one per shard at start-up, then only
    /// when stale leases pin both retained buffers.
    pub fn cow_stats(&self) -> CowStats {
        self.engine.cow_stats()
    }

    /// Outstanding leases across all epochs.
    pub fn active_leases(&self) -> usize {
        self.shared.lock().active
    }

    /// The oldest epoch any outstanding lease pins (`None` with no
    /// leases out).
    pub fn oldest_lease_epoch(&self) -> Option<u64> {
        self.shared.lock().leases.keys().next().copied()
    }

    /// Applies one batch through the engine and publishes the result as
    /// the next epoch.
    ///
    /// # Errors
    ///
    /// Exactly [`ShardedTriangleIndex::apply`]'s errors; on error
    /// nothing is published and the epoch does not advance.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<ApplyReport, StreamError> {
        let report = self.engine.apply(batch)?;
        self.publish();
        Ok(report)
    }

    /// Stamps the engine's current state as the next epoch and swaps it
    /// in for new leases — an O(S) handle-copy; readers holding older
    /// epochs are unaffected. Also the single place the serve gauges
    /// are updated, keeping the query path free of registry traffic.
    fn publish(&mut self) {
        congest_obs::span!("serve", "publish");
        self.epoch += 1;
        let view = Arc::new(EpochView {
            epoch: self.epoch,
            store: self.engine.clone_store(),
            triangle_count: self.engine.triangle_count(),
            edge_count: self.engine.edge_count(),
            support: self.engine.support_counts(),
        });
        let (active, oldest) = {
            let mut state = self.shared.lock();
            state.view = view;
            (state.active, state.leases.keys().next().copied())
        };
        congest_obs::gauge_set("serve.active_leases", active as f64);
        let age = oldest.map_or(0, |o| self.epoch - o);
        congest_obs::gauge_set("serve.oldest_lease_epoch_lag", age as f64);
        // The same quantity as a running maximum, which a later quiet
        // period cannot overwrite. Past the warning threshold every
        // publish also ticks the counter, so an abandoned lease shows up
        // as a *growing* number.
        congest_obs::gauge_max("serve.lease_age_epochs_max", age as f64);
        if age > STALE_LEASE_WARN_EPOCHS {
            congest_obs::counter_add("serve.stale_lease_warnings", 1);
        }
        let cow = self.engine.cow_stats();
        let before = std::mem::replace(&mut self.published_cow, cow);
        for (name, delta) in [
            ("serve.buffer_swaps", cow.swaps - before.swaps),
            ("serve.buffer_clones", cow.clones - before.clones),
            ("serve.replayed_ops", cow.replayed_ops - before.replayed_ops),
        ] {
            if delta > 0 {
                congest_obs::counter_add(name, delta);
            }
        }
    }
}

impl std::fmt::Debug for TriangleServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TriangleServer(epoch={}, active_leases={}, engine={:?})",
            self.epoch,
            self.active_leases(),
            self.engine,
        )
    }
}

/// A cheap, cloneable reader handle; clone one per client session or
/// reader thread.
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<ServeShared>,
}

impl ServeHandle {
    /// Pins the most recently published epoch: one lock, one `Arc`
    /// clone, one counter bump. The returned [`Lease`] answers every
    /// query against that frozen view until dropped.
    pub fn lease(&self) -> Lease {
        congest_obs::span!("serve", "lease_acquire");
        let view = {
            let mut state = self.shared.lock();
            let view = Arc::clone(&state.view);
            *state.leases.entry(view.epoch).or_insert(0) += 1;
            state.active += 1;
            view
        };
        Lease {
            view,
            shared: Arc::clone(&self.shared),
        }
    }
}

impl std::fmt::Debug for ServeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServeHandle(epoch={})", self.shared.lock().view.epoch)
    }
}

/// A read view pinned to one published epoch.
///
/// Every accessor answers against the leased epoch's state — applied
/// batches published after the acquire are invisible — and the lease is
/// also an [`AdjacencyView`], so the centralized oracle (and any other
/// view-generic algorithm) runs on it directly.
pub struct Lease {
    view: Arc<EpochView>,
    shared: Arc<ServeShared>,
}

impl Lease {
    /// The epoch this lease pins.
    pub fn epoch(&self) -> u64 {
        self.view.epoch
    }

    /// Live triangles at the leased epoch.
    pub fn triangle_count(&self) -> usize {
        congest_obs::span!("serve", "query");
        self.view.triangle_count
    }

    /// Triangles containing `node` at the leased epoch — O(1) off the
    /// published support vector.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_support(&self, node: NodeId) -> usize {
        congest_obs::span!("serve", "query");
        self.view.support[node.index()] as usize
    }

    /// Triangles containing the edge `{a, b}` at the leased epoch — one
    /// sorted-list intersection on the leased adjacency; 0 when the
    /// edge is absent, an endpoint out of range included.
    pub fn edge_support(&self, a: NodeId, b: NodeId) -> usize {
        congest_obs::span!("serve", "query");
        if !self.view.store.has_edge(a, b) {
            return 0;
        }
        count_common(self.view.store.neighbors(a), self.view.store.neighbors(b))
    }

    /// Whether `{a, b}` is an edge of at least one triangle at the
    /// leased epoch; `false` when the edge is absent, an endpoint out of
    /// range included.
    pub fn edge_in_triangle(&self, a: NodeId, b: NodeId) -> bool {
        self.edge_support(a, b) > 0
    }

    /// The `k` nodes with the highest triangle support at the leased
    /// epoch, highest first (ties broken by node id, ascending).
    /// O(n + k log k) via selection, so a dashboard-sized `k` does not
    /// sort the whole vector.
    pub fn top_k_support(&self, k: usize) -> Vec<(NodeId, u32)> {
        congest_obs::span!("serve", "query");
        let counts = &self.view.support;
        let mut order: Vec<u32> = (0..counts.len() as u32).collect();
        let rank = |&a: &u32, &b: &u32| counts[b as usize].cmp(&counts[a as usize]).then(a.cmp(&b));
        let k = k.min(order.len());
        if k == 0 {
            return Vec::new();
        }
        if k < order.len() {
            order.select_nth_unstable_by(k - 1, rank);
            order.truncate(k);
        }
        order.sort_unstable_by(rank);
        order
            .into_iter()
            .map(|i| (NodeId(i), counts[i as usize]))
            .collect()
    }
}

/// The lease *is* an adjacency view of the leased epoch: the oracle and
/// the CONGEST drivers run on the frozen state directly.
impl AdjacencyView for Lease {
    fn node_count(&self) -> usize {
        self.view.store.node_count()
    }

    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        self.view.store.neighbors(node)
    }

    fn edge_count(&self) -> usize {
        self.view.edge_count
    }

    fn degree(&self, node: NodeId) -> usize {
        self.view.store.degree(node)
    }

    fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.view.store.has_edge(a, b)
    }
}

impl Drop for Lease {
    /// Retires this lease from the server's epoch table; the buffers
    /// only its view held become free for the writer to swap back in.
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        if let Some(count) = state.leases.get_mut(&self.view.epoch) {
            *count -= 1;
            if *count == 0 {
                state.leases.remove(&self.view.epoch);
            }
            state.active -= 1;
        }
    }
}

impl std::fmt::Debug for Lease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Lease(epoch={}, n={}, m={}, triangles={})",
            self.view.epoch,
            self.view.store.node_count(),
            self.view.edge_count,
            self.view.triangle_count,
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

    fn triangle_batch() -> DeltaBatch {
        let mut b = DeltaBatch::new();
        b.insert(v(0), v(1)).insert(v(1), v(2)).insert(v(0), v(2));
        b
    }

    #[test]
    fn a_lease_pins_its_epoch_across_applies() {
        let mut server = TriangleServer::new(ShardedTriangleIndex::new(8, 2));
        let handle = server.handle();
        let before = handle.lease();
        assert_eq!(before.epoch(), 0);
        assert_eq!(before.triangle_count(), 0);

        server.apply(&triangle_batch()).unwrap();
        assert_eq!(server.epoch(), 1);

        // The old lease still answers from epoch 0…
        assert_eq!(before.triangle_count(), 0);
        assert_eq!(before.edge_count(), 0);
        assert!(!before.has_edge(v(0), v(1)));
        assert_eq!(before.node_support(v(0)), 0);

        // …while a fresh lease sees the published batch.
        let after = handle.lease();
        assert_eq!(after.epoch(), 1);
        assert_eq!(after.triangle_count(), 1);
        assert_eq!(after.edge_count(), 3);
        assert_eq!(after.node_support(v(1)), 1);
        assert_eq!(after.edge_support(v(0), v(2)), 1);
        assert!(after.edge_in_triangle(v(0), v(1)));
        assert!(!after.edge_in_triangle(v(3), v(4)));
    }

    #[test]
    fn lease_edge_support_of_an_out_of_range_endpoint_is_zero() {
        let mut server = TriangleServer::new(ShardedTriangleIndex::new(8, 2));
        server.apply(&triangle_batch()).unwrap();
        let lease = server.handle().lease();
        assert_eq!(lease.edge_support(v(0), v(1)), 1);
        assert_eq!(lease.edge_support(v(0), v(8)), 0);
        assert_eq!(lease.edge_support(v(100), v(2)), 0);
    }

    #[test]
    fn lease_edge_in_triangle_of_an_out_of_range_endpoint_is_false() {
        let mut server = TriangleServer::new(ShardedTriangleIndex::new(8, 2));
        server.apply(&triangle_batch()).unwrap();
        let lease = server.handle().lease();
        assert!(lease.edge_in_triangle(v(1), v(2)));
        assert!(!lease.edge_in_triangle(v(1), v(8)));
        assert!(!lease.edge_in_triangle(v(100), v(0)));
    }

    #[test]
    fn lease_bookkeeping_tracks_acquires_and_drops() {
        let mut server = TriangleServer::new(ShardedTriangleIndex::new(8, 2));
        let handle = server.handle();
        assert_eq!(server.active_leases(), 0);
        assert_eq!(server.oldest_lease_epoch(), None);

        let a = handle.lease();
        server.apply(&triangle_batch()).unwrap();
        let b = handle.lease();
        let c = handle.lease();
        assert_eq!(server.active_leases(), 3);
        assert_eq!(server.oldest_lease_epoch(), Some(0));

        drop(a);
        assert_eq!(server.active_leases(), 2);
        assert_eq!(server.oldest_lease_epoch(), Some(1));
        drop(b);
        drop(c);
        assert_eq!(server.active_leases(), 0);
        assert_eq!(server.oldest_lease_epoch(), None);
    }

    #[test]
    fn leases_survive_heavy_churn_and_match_the_oracle() {
        // Removals force arena frees while a lease pins the pre-churn
        // epoch: the frozen view must keep answering exactly, and the
        // writer must keep matching its own oracle. On both write paths:
        // one ring offset of K12 a round runs ordered, sixteen of K64 —
        // 1 024 deltas, past the pool's hand-off floor — run pooled.
        for (n, offsets) in [(12u32, 1u32), (64, 16)] {
            let g = Classic::Complete(n as usize).generate();
            let mut server = TriangleServer::new(ShardedTriangleIndex::from_graph(&g, 3));
            let handle = server.handle();
            let pinned = handle.lease();
            let pinned_triangles = oracle::list_all_on(&pinned);
            assert_eq!(pinned.triangle_count(), pinned_triangles.len());

            for round in 0..6u32 {
                let mut batch = DeltaBatch::new();
                for i in 0..n {
                    for k in 0..offsets {
                        let j = (i + (round * offsets + k) % (n - 1) + 1) % n;
                        if round % 2 == 0 {
                            batch.remove(v(i), v(j));
                        } else {
                            batch.insert(v(i), v(j));
                        }
                    }
                }
                server.apply(&batch).unwrap();
                assert!(server.engine().matches_oracle(), "K{n} round {round}");
                // The pinned epoch never moves: a recount on the frozen
                // adjacency still equals the set it was published with.
                assert_eq!(pinned.epoch(), 0);
                assert_eq!(oracle::list_all_on(&pinned), pinned_triangles);
                assert_eq!(pinned.edge_count(), g.edge_count());
            }
            let pooled = server
                .engine()
                .worker_telemetry()
                .map_or(0, |t| t.pooled_batches);
            assert_eq!(pooled, if offsets > 1 { 6 } else { 0 }, "K{n}");
        }
    }

    #[test]
    fn top_k_support_orders_by_support_then_id() {
        let g = Gnp::new(30, 0.25).seeded(5).generate();
        let mut server = TriangleServer::new(ShardedTriangleIndex::from_graph(&g, 2));
        server.apply(&DeltaBatch::new()).unwrap();
        let lease = server.handle().lease();

        let all = lease.top_k_support(usize::MAX);
        assert_eq!(all.len(), 30);
        for pair in all.windows(2) {
            assert!(
                pair[0].1 > pair[1].1 || (pair[0].1 == pair[1].1 && pair[0].0 < pair[1].0),
                "descending support with id tiebreak"
            );
        }
        for &(node, support) in &all {
            assert_eq!(support as usize, lease.node_support(node));
            assert_eq!(
                support as usize,
                server.engine().node_support(node),
                "published support matches the live engine at the same epoch"
            );
        }
        assert_eq!(lease.top_k_support(3), all[..3].to_vec());
        assert!(lease.top_k_support(0).is_empty());
    }

    #[test]
    fn an_abandoned_lease_is_visible_in_the_registry_snapshot() {
        let mut server = TriangleServer::new(ShardedTriangleIndex::new(8, 2));
        let handle = server.handle();
        // A reader session that leased epoch 0 and was never cleaned up.
        let abandoned = handle.lease();
        let warnings_before = congest_obs::snapshot()
            .counters
            .get("serve.stale_lease_warnings")
            .copied()
            .unwrap_or(0);

        // Write on: every publish past the threshold must tick the
        // warning counter (epochs threshold+1..threshold+4 here).
        for _ in 0..STALE_LEASE_WARN_EPOCHS + 4 {
            server.apply(&DeltaBatch::new()).unwrap();
        }

        let snap = congest_obs::snapshot();
        let warnings = snap
            .counters
            .get("serve.stale_lease_warnings")
            .copied()
            .unwrap_or(0);
        // The counter is monotone and no other test produces stale
        // leases, so the delta is exactly the stale publishes.
        assert!(
            warnings >= warnings_before + 4,
            "stale publishes must warn: before={warnings_before} after={warnings}"
        );
        // The lease itself still pins epoch 0 — observable, not fatal.
        assert_eq!(server.oldest_lease_epoch(), Some(0));
        assert_eq!(abandoned.epoch(), 0);

        // Once it drops, the next publish sees no lease at all, yet the
        // age gauge still holds the 20 epochs before it. A running
        // maximum only rises, so other tests' publishes cannot lower it.
        drop(abandoned);
        server.apply(&DeltaBatch::new()).unwrap();
        let max = congest_obs::snapshot().gauges["serve.lease_age_epochs_max"];
        assert!(max >= (STALE_LEASE_WARN_EPOCHS + 4) as f64, "{max}");
    }

    #[test]
    fn into_engine_returns_the_live_engine() {
        let g = Classic::Complete(12).generate();
        let mut server = TriangleServer::new(ShardedTriangleIndex::from_graph(&g, 2));
        let mut batch = DeltaBatch::new();
        batch.remove(v(0), v(1));
        server.apply(&batch).unwrap();
        let lease = server.handle().lease();
        assert!(server.engine.retained_buffers() > 0);
        let engine = server.into_engine();
        // K12 has 220 triangles; the removed edge was in 10 of them.
        assert_eq!(engine.triangle_count(), 210);
        // Nothing publishes from the engine any more: it keeps no
        // retained write buffers behind.
        assert_eq!(engine.retained_buffers(), 0);
        // The lease outlives the server: its view holds the data alive.
        assert_eq!(lease.triangle_count(), 210);
    }

    /// Every node gains its next 40 ring neighbours one batch at a
    /// time, then loses them in reverse: slabs promote on the way up
    /// and the drain leaves the arena mostly free slack.
    fn grow_then_drain(n: u32) -> Vec<DeltaBatch> {
        let step = |d: u32, insert: bool| {
            let mut b = DeltaBatch::new();
            for i in 0..n {
                if insert {
                    b.insert(v(i), v((i + d) % n));
                } else {
                    b.remove(v(i), v((i + d) % n));
                }
            }
            b
        };
        (1..=40)
            .map(|d| step(d, true))
            .chain((1..=40).rev().map(|d| step(d, false)))
            .collect()
    }

    #[test]
    fn the_arena_reclaims_and_compacts_while_a_lease_is_always_out() {
        // Regression: reclamation used to be held back by
        // `next_epoch − oldest_lease_epoch`, and compaction skipped
        // whenever that was non-zero — so beside a closed-loop reader,
        // which almost always has a lease out, a serving arena never
        // compacted. Leases pin whole buffers now; the arena owes them
        // nothing.
        let batches = grow_then_drain(96);
        let mut detached = TriangleServer::new(ShardedTriangleIndex::new(96, 2));
        for batch in &batches {
            detached.apply(batch).unwrap();
        }

        let mut attached = TriangleServer::new(ShardedTriangleIndex::new(96, 2));
        let handle = attached.handle();
        let mut lease = handle.lease();
        for batch in &batches {
            attached.apply(batch).unwrap();
            assert!(attached.active_leases() >= 1);
            // The next lease is taken before the previous one drops.
            lease = handle.lease();
        }
        assert_eq!(lease.epoch(), batches.len() as u64);

        let stats = attached.engine().arena_stats();
        assert!(stats.compactions >= 1, "{stats:?}");
        assert!(stats.slab_bytes <= detached.engine().arena_stats().slab_bytes);
        assert_eq!(stats, detached.engine().arena_stats());
        assert!(attached.engine().matches_oracle());
    }

    #[test]
    fn cow_stats_name_the_path_each_batch_took() {
        // A 200-cycle: every batch below is two effective deltas, and
        // the shard is large enough that a few batches of lag stay far
        // under the cap.
        let g = Classic::Cycle(200).generate();
        let mut server = TriangleServer::new(ShardedTriangleIndex::from_graph(&g, 1));
        let handle = server.handle();
        let toggle = |i: u32| {
            let mut b = DeltaBatch::new();
            b.insert(v(i), v(i + 100)).remove(v(i), v(i + 1));
            b
        };
        // Nobody reads: one copy to get off the seeded buffer, then the
        // two buffers swap roles every batch.
        for i in 0..5 {
            server.apply(&toggle(i)).unwrap();
        }
        let cow = server.cow_stats();
        assert_eq!((cow.clones, cow.swaps, cow.in_place), (1, 4, 0));
        assert_eq!(
            cow.replayed_ops,
            4 * 4,
            "each swap replays the batch it missed"
        );

        // A lease on the previous epoch pins the only retained buffer:
        // one more copy buys the third buffer…
        let straggler = handle.lease();
        server.apply(&toggle(5)).unwrap();
        server.apply(&toggle(6)).unwrap();
        assert_eq!(server.cow_stats().clones, 2);
        // …after which one straggler costs nothing…
        server.apply(&toggle(7)).unwrap();
        assert_eq!(server.cow_stats().clones, 2);
        // …but a second one on another epoch pins everything.
        let second = handle.lease();
        server.apply(&toggle(8)).unwrap();
        server.apply(&toggle(9)).unwrap();
        assert_eq!(server.cow_stats().clones, 3);
        assert_eq!(straggler.epoch(), 5);
        assert_eq!(second.epoch(), 8);
        assert!(server.engine().matches_oracle());

        // The registry sees the same tallies (other tests add to the
        // counters too, so only a floor can be asserted).
        let counters = congest_obs::snapshot().counters;
        assert!(counters["serve.buffer_swaps"] >= server.cow_stats().swaps);
        assert!(counters["serve.buffer_clones"] >= 3);
        assert!(counters["serve.replayed_ops"] >= server.cow_stats().replayed_ops);
    }

    #[test]
    fn debug_formats_summarize() {
        let server = TriangleServer::new(ShardedTriangleIndex::new(4, 2));
        assert!(format!("{server:?}").contains("epoch=0"));
        assert!(format!("{:?}", server.handle()).contains("epoch=0"));
        assert!(format!("{:?}", server.handle().lease()).contains("n=4"));
    }
}
