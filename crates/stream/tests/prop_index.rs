//! Property tests for the incremental engine: after *any* randomized
//! sequence of delta batches — insertions, removals, duplicates, no-ops,
//! flapping edges — the live triangle set of [`TriangleIndex`] exactly
//! equals a from-scratch recount by the centralized oracle, across
//! multiple generator families, applied batch by batch or deferred in
//! windows applied as their merge.

mod common;

use common::random_batches;
use congest_graph::generators::{Classic, Gnp, PlantedLight, TriangleFreeBipartite};
use congest_graph::triangles as oracle;
use congest_graph::Graph;
use congest_stream::{DeltaBatch, TriangleIndex};
use proptest::prelude::*;

/// Drives eager and deferred indices through the same stream, checking the
/// oracle invariant after every eager batch and after every deferred flush
/// (a window of three batches applied as their merge).
fn check_stream_against_oracle(base: &Graph, batches: &[DeltaBatch]) {
    let mut eager = TriangleIndex::from_graph(base);
    let mut deferred = TriangleIndex::from_graph(base);
    let mut window = Vec::new();

    for (i, batch) in batches.iter().enumerate() {
        eager.apply(batch).expect("in-range batch");
        assert!(
            eager.matches_oracle(),
            "eager index diverged from recount after batch {i}"
        );
        window.push(batch.clone());
        if i % 3 == 2 {
            let merged = DeltaBatch::merge(&std::mem::take(&mut window));
            deferred.apply(&merged).expect("in-range batch");
            assert_eq!(
                deferred.triangles(),
                eager.triangles(),
                "deferred flush diverged from eager after batch {i}"
            );
        }
    }
    deferred
        .apply(&DeltaBatch::merge(&window))
        .expect("in-range batch");
    assert_eq!(deferred.triangles(), eager.triangles());
    assert_eq!(deferred.snapshot(), eager.snapshot());
    assert_eq!(
        eager.triangles(),
        &oracle::list_all(&eager.snapshot()),
        "final state diverged from oracle"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Generator family 1: Erdős–Rényi G(n, p) bases.
    #[test]
    fn gnp_base_matches_oracle_under_random_deltas(
        n in 8usize..40,
        p in 0.05f64..0.4,
        seed in any::<u64>(),
    ) {
        let base = Gnp::new(n, p).seeded(seed).generate();
        let batches = random_batches(n, 8, 12, seed ^ 0xA5A5);
        check_stream_against_oracle(&base, &batches);
    }

    /// Generator family 2: planted-light-triangle bases (sparse, planted
    /// structure the churn tears apart).
    #[test]
    fn planted_light_base_matches_oracle_under_random_deltas(
        count in 1usize..8,
        seed in any::<u64>(),
    ) {
        let n = 3 * count + 10;
        let base = PlantedLight::new(n, count)
            .with_background(0.05)
            .seeded(seed)
            .generate();
        let batches = random_batches(n, 8, 12, seed ^ 0x5A5A);
        check_stream_against_oracle(&base, &batches);
    }

    /// Generator family 3: triangle-free bipartite bases — every triangle
    /// the index reports was created by the stream itself.
    #[test]
    fn bipartite_base_matches_oracle_under_random_deltas(
        left in 4usize..16,
        right in 4usize..16,
        p in 0.1f64..0.5,
        seed in any::<u64>(),
    ) {
        let base = TriangleFreeBipartite::new(left, right, p).seeded(seed).generate();
        let n = left + right;
        let batches = random_batches(n, 8, 12, seed ^ 0x3C3C);
        check_stream_against_oracle(&base, &batches);
    }

    /// Generator family 4: dense deterministic bases (complete graphs),
    /// where removals dominate the interesting behaviour.
    #[test]
    fn complete_base_matches_oracle_under_random_deltas(
        n in 4usize..14,
        seed in any::<u64>(),
    ) {
        let base = Classic::Complete(n).generate();
        let batches = random_batches(n, 6, 10, seed);
        check_stream_against_oracle(&base, &batches);
    }

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

        let merged = DeltaBatch::merge(batches.iter());
        let mut one_shot = TriangleIndex::from_graph(&base);
        one_shot.apply(&merged).expect("in-range batch");

        prop_assert_eq!(sequential.triangles(), one_shot.triangles());
        prop_assert_eq!(sequential.snapshot(), one_shot.snapshot());
    }
}
