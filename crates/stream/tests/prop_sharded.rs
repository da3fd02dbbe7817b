//! Conformance of the sharded engine at `S ∈ {1, 3, 8}`: the shared
//! lockstep (`common::lockstep`) on four base families and on
//! deliberately cross-shard-heavy and hub-heavy batch streams, against
//! the single-threaded [`TriangleIndex`] and the centralized oracle, plus
//! merging a whole stream into one batch. Every stream ends in batches of
//! [`POOLED_LEN`] raw deltas, so the pool-backed two-phase pipeline runs
//! at every `S > 1`, and the lockstep asserts exactly those batches were
//! pooled, so a retuned floor cannot quietly drop the pipeline's
//! coverage.
//!
//! [`TriangleIndex`]: congest_stream::TriangleIndex

mod common;

use common::{conform, lockstep, random_batches, with_pooled_tail, Config, Family, POOLED_LEN};
use congest_graph::generators::Gnp;
use congest_graph::NodeId;
use congest_stream::{DeltaBatch, ShardedTriangleIndex};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

fn sharded(config: &Config) -> bool {
    matches!(config, Config::Sharded(_))
}

#[test]
fn gnp_base_matches_oracle_at_every_shard_count() {
    conform(Family::Gnp, sharded);
}

#[test]
fn planted_light_base_matches_oracle_at_every_shard_count() {
    conform(Family::PlantedLight, sharded);
}

#[test]
fn bipartite_base_matches_oracle_at_every_shard_count() {
    conform(Family::Bipartite, sharded);
}

#[test]
fn complete_base_matches_oracle_at_every_shard_count() {
    conform(Family::Complete, sharded);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cross-shard-heavy churn: every delta joins nearby ids, which the
    /// modulo partition is guaranteed to place on different shards.
    #[test]
    fn cross_shard_heavy_batches_match_oracle(
        n in 9usize..48,
        seed in any::<u64>(),
    ) {
        let base = Gnp::new(n, 0.15).seeded(seed).generate();
        let batches = with_pooled_tail(cross_shard_heavy_batches(n, 7, seed ^ 0xC0DE), n, seed);
        lockstep(&base, &batches, &Config::sharded());
    }

    /// Hub-heavy correctness across every base family: a single
    /// max-degree hub, in short batches and then in batches long enough
    /// to pool — where worker 0 owns nearly the whole batch while the
    /// helpers run next to it.
    #[test]
    fn hub_heavy_steal_path_matches_oracle_across_families(
        family in 0usize..6,
        seed in any::<u64>(),
    ) {
        let (base, _) = Family::ALL[family].stream(seed);
        let n = base.node_count();
        let mut batches = hub_heavy_batches(n, 5, 16, seed ^ 0x57EA1);
        batches.extend(hub_heavy_batches(n, 2, POOLED_LEN, seed ^ 0xB16));
        lockstep(&base, &batches, &Config::sharded());
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
        for s in [1, 3, 8] {
            let mut sequential = ShardedTriangleIndex::from_graph(&base, s);
            for b in &batches {
                sequential.apply(b).expect("in-range batch");
            }
            let pooled = sequential.worker_telemetry().map_or(0, |t| t.pooled_batches);
            prop_assert_eq!(pooled, if s > 1 { 2 } else { 0 });
            let mut one_shot = ShardedTriangleIndex::from_graph(&base, s);
            one_shot.apply(&merged).expect("in-range batch");
            prop_assert_eq!(sequential.triangles(), one_shot.triangles());
            prop_assert_eq!(sequential.edge_count(), one_shot.edge_count());
        }
    }
}
