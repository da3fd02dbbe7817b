//! Property tests for the distributed dynamic engine: across every
//! workload generator family, batch by batch or deferred in windows
//! applied as their merge, the live triangle set
//! of [`DistributedTriangleEngine`] — maintained by the simulated
//! CONGEST network itself — exactly equals a from-scratch recount by the
//! centralized oracle (`list_all_on`) *and* the single-threaded
//! [`TriangleIndex`]'s state on the same stream.

mod common;

use common::random_batches;
use congest_graph::generators::{Classic, Gnp, PlantedLight, TriangleFreeBipartite};
use congest_graph::triangles as oracle;
use congest_graph::Graph;
use congest_stream::{DeltaBatch, DistributedTriangleEngine, HubSplit, TriangleIndex};
use proptest::prelude::*;

/// Drives the distributed engine (eager and deferred, in the default
/// helper-split mode) through the stream, plus the unsplit
/// both-endpoints schedule and a maximally hub-split engine **built
/// twice**, checking exact triangle-set equality with the
/// single-threaded engine after every batch and with the centralized
/// oracle at the end, repeatability (two engines built alike report
/// identically, bit-identical network cost included), and the
/// network-cost invariants.
fn check_distributed_against_oracle(base: &Graph, batches: &[DeltaBatch]) {
    let mut reference = TriangleIndex::from_graph(base);
    let mut eager = DistributedTriangleEngine::from_graph(base);
    // Deferred: windows of three batches, each applied as their merge.
    let mut deferred = DistributedTriangleEngine::from_graph(base);
    let mut window = Vec::new();
    // The PR-3 schedule (both endpoints broadcast), kept as the
    // benchmark control: still oracle-exact.
    let mut legacy = DistributedTriangleEngine::from_graph(base).with_hub_split(HubSplit::Off);
    // The broadcast prefix of the last batch: what the split schedules.
    let prefix = |engine: &DistributedTriangleEngine| {
        let cost = engine.last_batch_cost();
        cost.rounds - cost.convergecast_rounds
    };
    // Maximal helper-splitting with the accounted convergecast, twice
    // from the same graph: a run must repeat bit for bit, and stay in
    // lockstep with the reference.
    let build_split =
        || DistributedTriangleEngine::from_graph(base).with_hub_split(HubSplit::Budget(1));
    let mut split = build_split();
    let mut split_again = build_split();

    for (i, batch) in batches.iter().enumerate() {
        reference.apply(batch).expect("in-range batch");
        let report = eager.apply(batch).expect("in-range batch");
        assert_eq!(
            eager.triangles(),
            reference.triangles(),
            "eager engine diverged from the single-threaded engine after batch {i}"
        );
        assert_eq!(eager.edge_count(), reference.edge_count(), "batch {i}");
        assert_eq!(
            report.inserts_applied + report.removes_applied + report.noops,
            batch.len(),
            "per-batch accounting must cover every delta"
        );

        let legacy_report = legacy.apply(batch).expect("in-range batch");
        assert_eq!(
            report, legacy_report,
            "scheduling modes must not change batch {i}'s report"
        );
        assert_eq!(
            legacy.triangles(),
            reference.triangles(),
            "legacy batch {i}"
        );
        // A split only ever drops broadcast assignments, so it can never
        // lengthen the broadcast phases.
        assert!(
            prefix(&eager) <= prefix(&legacy),
            "split broadcast prefix {} above the unsplit {} at batch {i}",
            prefix(&eager),
            prefix(&legacy)
        );

        let rs = split.apply(batch).expect("in-range batch");
        let ra = split_again.apply(batch).expect("in-range batch");
        assert_eq!(rs, ra, "a repeated run's reports diverged at batch {i}");
        assert_eq!(rs, report, "hub split changed batch {i}'s report");
        assert_eq!(
            split.last_batch_cost(),
            split_again.last_batch_cost(),
            "a repeated run must report bit-identical network cost (batch {i})"
        );
        assert_eq!(split.triangles(), reference.triangles(), "split batch {i}");

        window.push(batch.clone());
        if i % 3 == 2 {
            let merged = DeltaBatch::merge(&std::mem::take(&mut window));
            deferred.apply(&merged).expect("in-range batch");
            assert_eq!(deferred.triangles(), reference.triangles());
        }
    }
    let expected = oracle::list_all_on(&reference);
    assert!(eager.matches_oracle(), "final state vs oracle");
    assert_eq!(eager.triangles(), &expected, "vs recount");
    assert!(legacy.matches_oracle(), "legacy protocol vs oracle");
    assert!(split.matches_oracle(), "split vs oracle");
    assert!(split_again.matches_oracle(), "repeated split vs oracle");
    assert_eq!(split.total_cost(), split_again.total_cost());
    deferred
        .apply(&DeltaBatch::merge(&window))
        .expect("in-range batch");
    assert_eq!(deferred.triangles(), &expected, "deferred vs recount");

    // The deferred engine coalesces whole windows into single epochs, so
    // it never runs more epochs than the eager engine.
    assert!(deferred.epochs() <= eager.epochs());
    if eager.epochs() > 0 {
        assert!(eager.total_cost().rounds >= eager.epochs());
        assert!(eager.total_cost().convergecast_rounds > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Generator family 1: Erdős–Rényi G(n, p) bases under uniform churn.
    #[test]
    fn gnp_base_matches_oracle(
        n in 8usize..40,
        p in 0.05f64..0.4,
        seed in any::<u64>(),
    ) {
        let base = Gnp::new(n, p).seeded(seed).generate();
        let batches = random_batches(n, 6, 12, seed ^ 0xD15C);
        check_distributed_against_oracle(&base, &batches);
    }

    /// Generator family 2: planted-light-triangle bases (sparse planted
    /// structure the churn tears apart).
    #[test]
    fn planted_light_base_matches_oracle(
        count in 1usize..8,
        seed in any::<u64>(),
    ) {
        let n = 3 * count + 10;
        let base = PlantedLight::new(n, count)
            .with_background(0.05)
            .seeded(seed)
            .generate();
        let batches = random_batches(n, 6, 12, seed ^ 0xBEE5);
        check_distributed_against_oracle(&base, &batches);
    }

    /// Generator family 3: triangle-free bipartite bases — every triangle
    /// the distributed engine reports was created by the stream itself.
    #[test]
    fn bipartite_base_matches_oracle(
        left in 4usize..16,
        right in 4usize..16,
        p in 0.1f64..0.5,
        seed in any::<u64>(),
    ) {
        let base = TriangleFreeBipartite::new(left, right, p).seeded(seed).generate();
        let batches = random_batches(left + right, 6, 12, seed ^ 0xF00D);
        check_distributed_against_oracle(&base, &batches);
    }

    /// Generator family 4: dense deterministic bases (complete graphs),
    /// where removals dominate, most triangles lose several edges per
    /// batch, and almost every node observes every death — the dedup
    /// path of the coordinator merge.
    #[test]
    fn complete_base_matches_oracle(
        n in 4usize..14,
        seed in any::<u64>(),
    ) {
        let base = Classic::Complete(n).generate();
        let batches = random_batches(n, 5, 10, seed);
        check_distributed_against_oracle(&base, &batches);
    }

    /// Narrow and wide bandwidth reach the same state: the per-link
    /// budget only changes how many rounds the broadcasts take.
    #[test]
    fn bandwidth_changes_rounds_not_results(
        n in 8usize..24,
        seed in any::<u64>(),
    ) {
        use congest_sim::Bandwidth;
        let batches = random_batches(n, 4, 14, seed ^ 0xBA4D);
        let mut narrow = DistributedTriangleEngine::with_bandwidth(n, Bandwidth::default());
        let mut wide =
            DistributedTriangleEngine::with_bandwidth(n, Bandwidth::Bits(64 * 16));
        for batch in &batches {
            narrow.apply(batch).expect("in-range batch");
            wide.apply(batch).expect("in-range batch");
            prop_assert_eq!(narrow.triangles(), wide.triangles());
        }
        prop_assert!(narrow.matches_oracle());
        prop_assert!(wide.matches_oracle());
        prop_assert!(narrow.total_cost().rounds >= wide.total_cost().rounds);
    }
}
