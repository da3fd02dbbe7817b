//! Property tests for the serving layer: concurrent readers under mixed
//! churn, across all four workload generator families, stay **lockstep
//! with the oracle at their leased epoch** — every lease answers exactly
//! what a from-scratch recount of its frozen adjacency says, so there
//! are no torn reads and no reads of a half-merged batch — and the
//! writer's results are **bit-identical with readers attached vs
//! detached** (same per-batch reports, same final triangle set, same
//! support vector).
//!
//! The readers hammer leases while the writer applies the stream on
//! both write paths: three shards fed batches long enough to cross the
//! pool's hand-off floor, so the race window covers the pool-backed
//! two-phase path, and the strictly ordered path — three shards fed
//! short batches, and one shard (what `perf_report`'s `serve_mixed`
//! runs). Either way every
//! write has to get past the buffer the last view pins — by swapping in
//! a retained buffer no reader still holds, or by copying when readers
//! hold them all — and readers that keep a lease across several batches
//! decide which of the two happens.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use congest_graph::triangles as oracle;
use congest_graph::{AdjacencyView, NodeId, TriangleSet};
use congest_stream::{
    ApplyReport, BaseGraph, Lease, Scenario, ShardedTriangleIndex, TriangleServer,
};
use proptest::prelude::*;

/// How one run is set up: which write path, and what readers do with a
/// lease before checking it.
#[derive(Clone, Copy)]
struct Setup {
    /// 3 or 1. Only a multi-shard engine ever pools a batch.
    shards: usize,
    /// Deltas a batch: [`SHORT_LEN`] keeps every batch on the ordered
    /// path, [`POOLED_LEN`] pools every one at `S > 1`.
    batch_len: usize,
    /// Readers keep each lease until the writer is 0–4 epochs past it
    /// (cycling), instead of checking and dropping it at once.
    hold: bool,
}

const READERS: usize = 3;

/// A batch length whose estimated work stays far under the pool's
/// hand-off floor on these 40-node graphs.
const SHORT_LEN: usize = 24;

/// A batch length that reaches the hand-off floor whatever the degrees.
const POOLED_LEN: usize = 1024;

/// Raises a flag when the reader thread that owns it unwinds, so the
/// writer stops waiting for it and the failed assertion surfaces at the
/// scope's join instead of hanging the test.
struct FlagOnPanic<'a>(&'a AtomicBool);

impl Drop for FlagOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
        }
    }
}

impl Setup {
    fn server(self, base: &congest_graph::Graph) -> TriangleServer {
        TriangleServer::new(ShardedTriangleIndex::from_graph(base, self.shards))
    }
}

/// One scenario per generator family, over the same churn shape.
fn family_scenario(family: usize, seed: u64, batches: usize, batch_size: usize) -> Scenario {
    let n = 40;
    let scenario = match family {
        0 => Scenario::uniform_churn(n, batches, batch_size),
        1 => Scenario::hotspot_churn(n, batches, batch_size),
        2 => Scenario::planted_bursts(n, batches, batch_size),
        _ => Scenario::grow_then_shrink(n, batches, batch_size),
    };
    scenario.with_base(BaseGraph::Gnp { p: 0.12 }).seeded(seed)
}

/// Per-node support recounted from scratch on a triangle set.
fn support_recount(triangles: &TriangleSet, n: usize) -> Vec<u32> {
    let mut support = vec![0u32; n];
    for t in triangles.iter() {
        for node in t.nodes() {
            support[node.index()] += 1;
        }
    }
    support
}

/// The lockstep invariant: everything a lease answers must equal a
/// from-scratch recount of the lease's own frozen adjacency. A torn
/// read — a view mixing pre- and post-batch shard states, or a count
/// published mid-merge — cannot satisfy this, because the recount walks
/// the adjacency the queries answer from.
fn check_lease_consistency(lease: &Lease) -> (u64, usize, usize) {
    let recount = oracle::list_all_on(lease);
    assert_eq!(
        recount.len(),
        lease.triangle_count(),
        "epoch {}: published count vs recount on the leased adjacency",
        lease.epoch()
    );
    let n = lease.node_count();
    let half_edges: usize = (0..n).map(|i| lease.degree(NodeId::from_index(i))).sum();
    assert_eq!(half_edges, 2 * AdjacencyView::edge_count(lease));

    let support = support_recount(&recount, n);
    for (i, &expected_support) in support.iter().enumerate() {
        let node = NodeId::from_index(i);
        assert_eq!(
            lease.node_support(node),
            expected_support as usize,
            "epoch {}: node {i} support",
            lease.epoch()
        );
        for &other in lease.neighbors(node) {
            if node < other {
                let expected = recount
                    .iter()
                    .filter(|t| {
                        let nodes = t.nodes();
                        nodes.contains(&node) && nodes.contains(&other)
                    })
                    .count();
                assert_eq!(lease.edge_support(node, other), expected);
                assert_eq!(lease.edge_in_triangle(node, other), expected > 0);
            }
        }
    }
    for (node, count) in lease.top_k_support(5) {
        assert_eq!(count as usize, lease.node_support(node));
    }
    (
        lease.epoch(),
        lease.triangle_count(),
        AdjacencyView::edge_count(lease),
    )
}

/// Applies the stream twice — once with 3 reader threads leasing and
/// verifying under the writer's feet, once with no readers attached —
/// and requires bit-identical writer results, plus every concurrent
/// observation to match the writer's own per-epoch log.
///
/// The interleaving is forced, not hoped for: after each batch the
/// writer waits until a reader has checked another lease or every
/// reader is parked holding one, so no batch goes by unobserved and a
/// held lease really is behind the writer when it is checked.
fn run_family(family: usize, seed: u64, setup: Setup) {
    let batch_count = if setup.hold { 16 } else { 8 };
    let scenario = family_scenario(family, seed, batch_count, setup.batch_len);
    let base = scenario.base_graph();
    let batches = scenario.batches();
    let n = scenario.node_count();

    // Arm 1: readers attached.
    let mut server = setup.server(&base);
    let handle = server.handle();
    let done = AtomicBool::new(false);
    let observations: Mutex<Vec<(u64, usize, usize)>> = Mutex::new(Vec::new());
    let observed = AtomicUsize::new(0);
    let holding = AtomicUsize::new(0);
    let max_lag = AtomicUsize::new(0);
    let reader_failed = AtomicBool::new(false);

    let mut attached_reports: Vec<ApplyReport> = Vec::new();
    // The writer's own log: entry `e` is the state it published as
    // epoch `e` (epoch 0 is the seeded base).
    let mut log: Vec<(usize, usize)> =
        vec![(base.edge_count(), { server.engine().triangle_count() })];
    std::thread::scope(|scope| {
        for reader in 0..READERS {
            let (handle, done, observations) = (&handle, &done, &observations);
            let (observed, holding, max_lag) = (&observed, &holding, &max_lag);
            let reader_failed = &reader_failed;
            scope.spawn(move || {
                let _flag = FlagOnPanic(reader_failed);
                let mut turn = reader as u64;
                while !done.load(Ordering::Acquire) {
                    let lease = handle.lease();
                    if setup.hold {
                        let until = lease.epoch() + turn % 5;
                        turn += 1;
                        holding.fetch_add(1, Ordering::SeqCst);
                        while !done.load(Ordering::Acquire) && handle.lease().epoch() < until {
                            std::thread::yield_now();
                        }
                        holding.fetch_sub(1, Ordering::SeqCst);
                    }
                    let lag = handle.lease().epoch() - lease.epoch();
                    max_lag.fetch_max(lag as usize, Ordering::SeqCst);
                    let seen = check_lease_consistency(&lease);
                    observations.lock().unwrap().push(seen);
                    observed.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        for batch in &batches {
            attached_reports.push(server.apply(batch).expect("in-range batch"));
            log.push((
                server.engine().edge_count(),
                server.engine().triangle_count(),
            ));
            let before = observed.load(Ordering::SeqCst);
            while observed.load(Ordering::SeqCst) == before
                && holding.load(Ordering::SeqCst) < READERS
                && !reader_failed.load(Ordering::SeqCst)
            {
                std::thread::yield_now();
            }
        }
        done.store(true, Ordering::Release);
    });

    // Every concurrent observation matches the writer's log at the
    // observed epoch: readers only ever saw fully-published states.
    let observations = observations.into_inner().unwrap();
    assert!(
        observations.len() >= READERS,
        "family {family}: readers never got a lease in"
    );
    for (epoch, triangle_count, edge_count) in &observations {
        let (logged_edges, logged_triangles) = log[*epoch as usize];
        assert_eq!(
            *triangle_count, logged_triangles,
            "family {family} epoch {epoch}"
        );
        assert_eq!(*edge_count, logged_edges, "family {family} epoch {epoch}");
    }
    if setup.hold {
        assert!(
            max_lag.load(Ordering::SeqCst) >= 1,
            "family {family}: no held lease was ever behind the writer"
        );
    }
    // With a view published after every batch no write is ever in
    // place: each got past the pinned buffer by a swap or a copy.
    let cow = server.cow_stats();
    assert_eq!(cow.in_place, 0, "family {family}: {cow:?}");
    assert!(cow.swaps + cow.clones > 0, "family {family}: {cow:?}");

    // One final lease must land on the last epoch and still be exact.
    let final_lease = handle.lease();
    assert_eq!(final_lease.epoch(), batches.len() as u64);
    check_lease_consistency(&final_lease);

    // Arm 2: no readers. The writer's results must be bit-identical.
    let mut detached = setup.server(&base);
    for (i, batch) in batches.iter().enumerate() {
        let report = detached.apply(batch).expect("in-range batch");
        assert_eq!(
            report, attached_reports[i],
            "family {family}: batch {i} report differs with readers attached"
        );
    }
    let attached_engine = server.into_engine();
    let detached_engine = detached.into_engine();
    assert_eq!(attached_engine.triangles(), detached_engine.triangles());
    assert_eq!(attached_engine.edge_count(), detached_engine.edge_count());
    for i in 0..n {
        let node = NodeId::from_index(i);
        assert_eq!(
            attached_engine.node_support(node),
            detached_engine.node_support(node)
        );
        assert_eq!(
            attached_engine.neighbors(node),
            detached_engine.neighbors(node)
        );
    }
    // Both paths are deterministic down to the slab layout: whether a
    // batch wrote in place, on a replayed buffer or on a copy must not
    // show in the arena.
    assert_eq!(attached_engine.arena_stats(), detached_engine.arena_stats());
    assert!(attached_engine.matches_oracle());
    let pooled = attached_engine
        .worker_telemetry()
        .map_or(0, |t| t.pooled_batches);
    let expected = if setup.shards > 1 && setup.batch_len >= POOLED_LEN {
        batches.len()
    } else {
        0
    };
    assert_eq!(pooled, expected, "family {family}: pooled batches");
}

/// Three shards and long batches: every batch on the pool, leases
/// dropped as soon as they are checked.
const POOLED: Setup = Setup {
    shards: 3,
    batch_len: POOLED_LEN,
    hold: false,
};

/// The same three shards fed short batches: every batch ordered.
const SHORT: Setup = Setup {
    shards: 3,
    batch_len: SHORT_LEN,
    hold: false,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Generator family 1: uniform churn.
    #[test]
    fn uniform_churn_readers_are_lockstep_with_their_epoch(seed in any::<u64>()) {
        run_family(0, seed, POOLED);
        run_family(0, seed, SHORT);
    }

    /// Generator family 2: hotspot (power-law) churn — hub shards are
    /// written almost every batch while leases pin their buffers.
    #[test]
    fn hotspot_churn_readers_are_lockstep_with_their_epoch(seed in any::<u64>()) {
        run_family(1, seed, POOLED);
        run_family(1, seed, SHORT);
    }

    /// Generator family 3: planted-triangle bursts.
    #[test]
    fn planted_burst_readers_are_lockstep_with_their_epoch(seed in any::<u64>()) {
        run_family(2, seed, POOLED);
        run_family(2, seed, SHORT);
    }

    /// Generator family 4: grow-then-shrink — the shrink half frees
    /// arena slabs every batch, which are reclaimed at once whatever
    /// leases are out.
    #[test]
    fn grow_then_shrink_readers_are_lockstep_with_their_epoch(seed in any::<u64>()) {
        run_family(3, seed, POOLED);
        run_family(3, seed, SHORT);
    }

    /// All four families on one shard and the ordered path — the
    /// configuration `serve_mixed` measures.
    #[test]
    fn ordered_single_shard_readers_are_lockstep_with_their_epoch(
        seed in any::<u64>(),
        family in 0usize..4,
    ) {
        run_family(family, seed, Setup { shards: 1, batch_len: SHORT_LEN, hold: false });
    }

    /// Readers that hold each lease across 0–4 batches, on both write
    /// paths (pooled: three shards, long batches): stale leases pin retained buffers, so swaps and copies
    /// mix, and every lease must still recount to its own
    /// `triangle_count()` when it is finally checked.
    #[test]
    fn leases_held_across_batches_recount_exactly(
        seed in any::<u64>(),
        family in 0usize..4,
        pooled in any::<bool>(),
    ) {
        let setup = if pooled { POOLED } else { Setup { shards: 1, batch_len: SHORT_LEN, hold: false } };
        run_family(family, seed, Setup { hold: true, ..setup });
    }
}
