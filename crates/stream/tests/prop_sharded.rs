//! Property tests for the sharded engine: across every workload generator
//! family, shard counts `S ∈ {1, 3, 8}`, batch by batch or deferred in
//! windows applied as their merge, and
//! deliberately cross-shard-heavy batches, the live triangle set of
//! [`ShardedTriangleIndex`] exactly equals a from-scratch recount by the
//! centralized oracle *and* the single-threaded [`TriangleIndex`]'s state
//! on the same stream.
//!
//! Every stream is short batches followed by a few of [`POOLED_LEN`]
//! raw deltas. `apply` runs the short ones on the strictly ordered path
//! at every `S` and pools the long ones at every `S > 1` — the
//! pool-backed two-phase pipeline the big benchmarks exercise, every
//! wave handed to the helper threads, hub-heavy batches included — and
//! each suite asserts how many batches the pool saw, so a retuned floor
//! cannot quietly drop the pipeline's coverage.

mod common;

use common::random_batches;
use congest_graph::generators::{Classic, Gnp, PlantedLight, TriangleFreeBipartite};
use congest_graph::triangles as oracle;
use congest_graph::{Graph, NodeId};
use congest_stream::{DeltaBatch, ShardedTriangleIndex, TriangleIndex};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHARD_COUNTS: [usize; 3] = [1, 3, 8];

/// A batch of this many raw deltas reaches the shard pool's hand-off
/// floor whatever its degrees; the short batches here, on at most 48
/// nodes, stay far under it.
const POOLED_LEN: usize = 1024;

/// Batches an `S`-shard engine should have pooled out of `batches`.
fn expected_pooled(batches: &[DeltaBatch], shards: usize) -> usize {
    if shards == 1 {
        return 0;
    }
    batches.iter().filter(|b| b.len() >= POOLED_LEN).count()
}

/// Batches `engine` ran on the pool.
fn pooled(engine: &ShardedTriangleIndex) -> usize {
    engine.worker_telemetry().map_or(0, |t| t.pooled_batches)
}

/// `short` followed by two batches of [`POOLED_LEN`] random deltas.
fn with_pooled_tail(mut short: Vec<DeltaBatch>, n: usize, seed: u64) -> Vec<DeltaBatch> {
    short.extend(random_batches(n, 2, POOLED_LEN, seed));
    short
}

/// Batches in which (for every tested `S > 1`) *every* edge crosses a
/// shard boundary: nodes are partitioned by `id mod S`, so joining `u` to
/// `u + 1 (mod n)` and `u + k` for small odd `k` guarantees different
/// owners for S = 3 and S = 8 on almost every delta — the worst case for
/// the two-phase apply, where each edge is recorded by two shards and its
/// triangle deltas can be observed by several workers.
fn cross_shard_heavy_batches(n: usize, batch_count: usize, seed: u64) -> Vec<DeltaBatch> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..batch_count)
        .map(|_| {
            let mut batch = DeltaBatch::new();
            for _ in 0..14 {
                let u = rng.gen_range(0..n);
                let hop = [1usize, 2, 5, 7][rng.gen_range(0..4usize)];
                let v = (u + hop) % n;
                if u == v {
                    continue;
                }
                let (u, v) = (NodeId::from_index(u), NodeId::from_index(v));
                if rng.gen_bool(0.55) {
                    batch.insert(u, v);
                } else {
                    batch.remove(u, v);
                }
                // Close consecutive-id triangles often: these span up to
                // three distinct shards.
                if rng.gen_bool(0.3) {
                    let w = NodeId::from_index((u.index() + 1) % n);
                    if w != u && w != v {
                        batch.insert(v, w).insert(u, w);
                    }
                }
            }
            batch
        })
        .collect()
}

/// Batches hammering a single max-degree hub (node 0): star edges to and
/// from the hub plus rim edges between consecutive spokes, so hub
/// removals retire triangles and rim inserts close triangles *through*
/// the hub. Under the `id mod S` partition every hub edge has `lo() = 0`
/// and lands in worker 0's slice — the worst-case imbalance of the
/// static partition.
fn hub_heavy_batches(n: usize, batch_count: usize, spokes: usize, seed: u64) -> Vec<DeltaBatch> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..batch_count)
        .map(|_| {
            let mut batch = DeltaBatch::new();
            for _ in 0..spokes {
                let spoke = NodeId::from_index(rng.gen_range(1..n));
                if rng.gen_bool(0.6) {
                    batch.insert(NodeId(0), spoke);
                } else {
                    batch.remove(NodeId(0), spoke);
                }
                // Rim edge between consecutive spokes: together with two
                // hub edges it forms (or breaks) a hub triangle.
                if rng.gen_bool(0.5) {
                    let next = NodeId::from_index(1 + (spoke.index() % (n - 1)));
                    if next != spoke {
                        if rng.gen_bool(0.7) {
                            batch.insert(spoke, next);
                        } else {
                            batch.remove(spoke, next);
                        }
                    }
                }
            }
            batch
        })
        .collect()
}

/// Drives the sharded engine at every shard count through the stream,
/// checking exact triangle-set equality with the single-threaded engine
/// after every batch (every deferred flush: a window of three batches
/// applied as their merge) and with the centralized oracle at the end.
/// Every batch the engine did not pool must also return the reference's
/// `ApplyReport`: at every `S` an ordered batch runs the one-shard
/// engine's loop, tallies included.
fn check_sharded_against_oracle(base: &Graph, batches: &[DeltaBatch]) {
    let mut reference = TriangleIndex::from_graph(base);
    let build = || -> Vec<ShardedTriangleIndex> {
        SHARD_COUNTS
            .iter()
            .map(|&s| ShardedTriangleIndex::from_graph(base, s))
            .collect()
    };
    let mut sharded = build();
    let mut deferred = build();
    let mut window = Vec::new();

    for (i, batch) in batches.iter().enumerate() {
        let reference_report = reference.apply(batch).expect("in-range batch");
        for (engine, &s) in sharded.iter_mut().zip(&SHARD_COUNTS) {
            let pooled_before = pooled(engine);
            let report = engine.apply(batch).expect("in-range batch");
            if pooled(engine) == pooled_before {
                assert_eq!(
                    report, reference_report,
                    "S={s} batch {i}: an ordered batch runs the reference's loop"
                );
            }
            assert_eq!(
                engine.triangles(),
                reference.triangles(),
                "S={s} diverged from the single-threaded engine after batch {i}"
            );
            assert_eq!(engine.edge_count(), reference.edge_count(), "S={s}");
        }
        window.push(batch.clone());
        if i % 3 == 2 {
            let merged = DeltaBatch::merge(&std::mem::take(&mut window));
            for engine in deferred.iter_mut() {
                engine.apply(&merged).expect("in-range batch");
                assert_eq!(engine.triangles(), reference.triangles());
            }
        }
    }
    let expected = oracle::list_all_on(&reference);
    for (engine, &s) in sharded.iter_mut().zip(&SHARD_COUNTS) {
        assert!(engine.matches_oracle(), "S={s} final state vs oracle");
        assert_eq!(engine.triangles(), &expected, "S={s} vs recount");
        assert_eq!(pooled(engine), expected_pooled(batches, s), "S={s}");
    }
    let merged = DeltaBatch::merge(&window);
    for (engine, &s) in deferred.iter_mut().zip(&SHARD_COUNTS) {
        engine.apply(&merged).expect("in-range batch");
        assert_eq!(engine.triangles(), &expected, "deferred S={s} vs recount");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Generator family 1: Erdős–Rényi G(n, p) bases under uniform churn.
    #[test]
    fn gnp_base_matches_oracle_at_every_shard_count(
        n in 8usize..40,
        p in 0.05f64..0.4,
        seed in any::<u64>(),
    ) {
        let base = Gnp::new(n, p).seeded(seed).generate();
        let batches = with_pooled_tail(random_batches(n, 6, 12, seed ^ 0xD1A5), n, seed);
        check_sharded_against_oracle(&base, &batches);
    }

    /// Generator family 2: planted-light-triangle bases (sparse planted
    /// structure the churn tears apart).
    #[test]
    fn planted_light_base_matches_oracle_at_every_shard_count(
        count in 1usize..8,
        seed in any::<u64>(),
    ) {
        let n = 3 * count + 10;
        let base = PlantedLight::new(n, count)
            .with_background(0.05)
            .seeded(seed)
            .generate();
        let batches = with_pooled_tail(random_batches(n, 6, 12, seed ^ 0xBEE5), n, seed);
        check_sharded_against_oracle(&base, &batches);
    }

    /// Generator family 3: triangle-free bipartite bases — every triangle
    /// the sharded engine reports was created by the stream itself.
    #[test]
    fn bipartite_base_matches_oracle_at_every_shard_count(
        left in 4usize..16,
        right in 4usize..16,
        p in 0.1f64..0.5,
        seed in any::<u64>(),
    ) {
        let base = TriangleFreeBipartite::new(left, right, p).seeded(seed).generate();
        let n = left + right;
        let batches = with_pooled_tail(random_batches(n, 6, 12, seed ^ 0xF00D), n, seed);
        check_sharded_against_oracle(&base, &batches);
    }

    /// Generator family 4: dense deterministic bases (complete graphs),
    /// where removals dominate and most triangles lose several edges to a
    /// single batch — the dedup path of the merge phase.
    #[test]
    fn complete_base_matches_oracle_at_every_shard_count(
        n in 4usize..14,
        seed in any::<u64>(),
    ) {
        let base = Classic::Complete(n).generate();
        let batches = with_pooled_tail(random_batches(n, 5, 10, seed), n, !seed);
        check_sharded_against_oracle(&base, &batches);
    }

    /// Cross-shard-heavy churn: every delta joins nearby ids, which the
    /// modulo partition is guaranteed to place on different shards.
    #[test]
    fn cross_shard_heavy_batches_match_oracle(
        n in 9usize..48,
        seed in any::<u64>(),
    ) {
        let base = Gnp::new(n, 0.15).seeded(seed).generate();
        let batches = with_pooled_tail(cross_shard_heavy_batches(n, 7, seed ^ 0xC0DE), n, seed);
        check_sharded_against_oracle(&base, &batches);
    }

    /// Hub-heavy correctness across all four generator families: a
    /// single max-degree hub, in short batches and then in batches long
    /// enough to pool — where worker 0 owns nearly the whole batch while
    /// the helpers run next to it — must leave exactly the oracle's
    /// triangle set at S ∈ {1, 3, 8}.
    #[test]
    fn hub_heavy_steal_path_matches_oracle_across_families(
        family in 0usize..4,
        seed in any::<u64>(),
    ) {
        let base = match family {
            0 => {
                let n = 12 + (seed % 20) as usize;
                Gnp::new(n, 0.15).seeded(seed).generate()
            }
            1 => {
                let count = 2 + (seed % 5) as usize;
                PlantedLight::new(3 * count + 10, count)
                    .with_background(0.05)
                    .seeded(seed)
                    .generate()
            }
            2 => {
                let side = 6 + (seed % 8) as usize;
                TriangleFreeBipartite::new(side, side + 1, 0.3).seeded(seed).generate()
            }
            _ => Classic::Complete(6 + (seed % 7) as usize).generate(),
        };
        let n = congest_graph::AdjacencyView::node_count(&base);
        let mut batches = hub_heavy_batches(n, 5, 16, seed ^ 0x57EA1);
        batches.extend(hub_heavy_batches(n, 2, POOLED_LEN, seed ^ 0xB16));

        let mut reference = TriangleIndex::from_graph(&base);
        let mut engines: Vec<ShardedTriangleIndex> = SHARD_COUNTS
            .iter()
            .map(|&s| ShardedTriangleIndex::from_graph(&base, s))
            .collect();
        for (i, batch) in batches.iter().enumerate() {
            reference.apply(batch).expect("in-range batch");
            for (engine, &s) in engines.iter_mut().zip(&SHARD_COUNTS) {
                engine.apply(batch).expect("in-range batch");
                assert_eq!(
                    engine.triangles(),
                    reference.triangles(),
                    "family {family} S={s} diverged after batch {i}"
                );
            }
        }
        for (engine, &s) in engines.iter().zip(&SHARD_COUNTS) {
            prop_assert!(engine.matches_oracle(), "family {family} S={s} vs oracle");
        }
        // Every long batch went through the pool at S > 1.
        for (engine, &s) in engines.iter().zip(&SHARD_COUNTS) {
            prop_assert_eq!(pooled(engine), expected_pooled(&batches, s));
        }
    }

    /// Coalescing equivalence holds shard by shard: applying each batch in
    /// turn equals applying the single merged batch, at every shard count.
    #[test]
    fn coalesced_merge_is_equivalent_at_every_shard_count(
        n in 6usize..30,
        seed in any::<u64>(),
    ) {
        let base = Gnp::new(n, 0.2).seeded(seed).generate();
        let batches = with_pooled_tail(random_batches(n, 5, 10, seed ^ 0x99), n, seed);
        let merged = DeltaBatch::merge(batches.iter());
        for s in SHARD_COUNTS {
            let mut sequential = ShardedTriangleIndex::from_graph(&base, s);
            for b in &batches {
                sequential.apply(b).expect("in-range batch");
            }
            prop_assert_eq!(pooled(&sequential), expected_pooled(&batches, s));
            let mut one_shot = ShardedTriangleIndex::from_graph(&base, s);
            one_shot.apply(&merged).expect("in-range batch");
            prop_assert_eq!(sequential.triangles(), one_shot.triangles());
            prop_assert_eq!(sequential.edge_count(), one_shot.edge_count());
        }
    }
}
