//! Conformance of the one-shard engine: [`TriangleIndex`], and a
//! one-shard server read through its leases, run the shared lockstep
//! (`common::conform`) on four base families, eager and deferred in
//! windows applied as their merge — plus merging a whole stream into one
//! batch, which must change neither the graph nor the triangle set.

mod common;

use common::{conform, random_batches, Config, Family};
use congest_graph::generators::Gnp;
use congest_stream::{DeltaBatch, TriangleIndex};
use proptest::prelude::*;

fn one_shard(config: &Config) -> bool {
    matches!(config, Config::Index | Config::Served)
}

#[test]
fn gnp_base_matches_oracle_under_random_deltas() {
    conform(Family::Gnp, one_shard);
}

#[test]
fn planted_light_base_matches_oracle_under_random_deltas() {
    conform(Family::PlantedLight, one_shard);
}

#[test]
fn bipartite_base_matches_oracle_under_random_deltas() {
    conform(Family::Bipartite, one_shard);
}

#[test]
fn complete_base_matches_oracle_under_random_deltas() {
    conform(Family::Complete, one_shard);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Coalescing never changes the final graph or triangle set: applying
    /// each batch in turn equals applying the single merged batch.
    #[test]
    fn coalesced_merge_is_equivalent_to_sequential_application(
        n in 6usize..30,
        seed in any::<u64>(),
    ) {
        let base = Gnp::new(n, 0.2).seeded(seed).generate();
        let batches = random_batches(n, 6, 10, seed ^ 0x77);
        let mut sequential = TriangleIndex::from_graph(&base);
        for b in &batches {
            sequential.apply(b).expect("in-range batch");
        }
        let mut one_shot = TriangleIndex::from_graph(&base);
        one_shot.apply(&DeltaBatch::merge(batches.iter())).expect("in-range batch");
        prop_assert_eq!(sequential.triangles(), one_shot.triangles());
        prop_assert_eq!(sequential.snapshot(), one_shot.snapshot());
    }
}
