//! Chaos tests for the hardened distributed engine. The fault sweep
//! (`common::sweep_plans`: drops, corruption, duplication, a crash/rejoin
//! window) runs through the shared lockstep (`common::conform`) on the
//! G(n, p), planted-light, bipartite and complete families here, and on
//! planted-heavy bases and replayed files in `conformance.rs`: a faulted
//! engine must stay oracle-exact or fail with a typed error, after which
//! it is poisoned. Beyond the sweep: a quiet plan is bit-identical to no
//! fault layer, loss costs round trips rather than deadlines, recovery
//! is accounted, crashes degrade and rejoin, and hopeless plans or round
//! caps fail with a typed [`StreamError`] — never silently wrong, never
//! past the round cap.

mod common;

use common::{conform, random_batches, Config, Family};
use congest_graph::generators::Gnp;
use congest_graph::NodeId;
use congest_stream::{
    DeltaBatch, DistributedTriangleEngine, FaultPlan, StreamError, TriangleIndex,
};
use proptest::prelude::*;

fn faulted(config: &Config) -> bool {
    matches!(config, Config::Faulted(_))
}

#[test]
fn gnp_survives_the_fault_sweep() {
    conform(Family::Gnp, faulted);
}

#[test]
fn planted_light_survives_the_fault_sweep() {
    conform(Family::PlantedLight, faulted);
}

/// Triangle-free bases: every triangle that survives recovery was
/// created by the stream, so a single false candidate sneaking past a
/// checksum would show.
#[test]
fn bipartite_survives_the_fault_sweep() {
    conform(Family::Bipartite, faulted);
}

#[test]
fn complete_survives_the_fault_sweep() {
    conform(Family::Complete, faulted);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A quiet-but-seeded plan must leave every cost metric bit-identical
    /// to an engine without any fault layer: the hardened machinery only
    /// engages on a non-quiet plan.
    #[test]
    fn quiet_plan_is_bit_identical_to_legacy(
        n in 8usize..24,
        p in 0.1f64..0.3,
        seed in any::<u64>(),
    ) {
        let base = Gnp::new(n, p).seeded(seed).generate();
        let batches = random_batches(n, 5, 10, seed ^ 0x9013);
        let mut legacy = DistributedTriangleEngine::from_graph(&base);
        let mut quiet = DistributedTriangleEngine::from_graph(&base)
            .with_fault_plan(FaultPlan::default().with_seed(seed));
        prop_assert!(!quiet.hardened());
        for (i, batch) in batches.iter().enumerate() {
            let rl = legacy.apply(batch).expect("in-range batch");
            let rq = quiet.apply(batch).expect("in-range batch");
            assert_eq!(rl, rq, "reports diverged at batch {i}");
            assert_eq!(
                legacy.last_batch_cost(),
                quiet.last_batch_cost(),
                "a quiet plan changed the network cost at batch {i}"
            );
            prop_assert_eq!(quiet.last_batch_cost().recovery_rounds, 0);
        }
        prop_assert_eq!(legacy.total_cost(), quiet.total_cost());
        prop_assert_eq!(quiet.recovery_stats(), Default::default());
        prop_assert!(quiet.matches_oracle());
    }
}

/// The round ceiling of a lossy epoch: a lost convergecast chunk is
/// resent after one round trip, so at 1 % drop a batch costs a small
/// multiple of its quiet twin plus the repair epochs it booked — not a
/// deadline. (Before convergecast links were acknowledged, a parent
/// whose child's final chunk was lost sat out
/// `(height + 1) · hop ≈ thousands` of rounds and degraded the epoch.)
#[test]
fn a_lost_chunk_costs_a_round_trip_not_a_deadline() {
    // What a batch may idle: the root's linger window plus a few
    // round trips in which the only busy link had just lost a message.
    const IDLE_CEILING: u64 = 10;
    let n = 200;
    let base = Gnp::new(n, 0.04).seeded(17).generate();
    let plan = FaultPlan::default().with_drop(0.01).with_seed(0xFA17);
    let batches = random_batches(n, 10, 20, 0xD15C0);
    let mut quiet = DistributedTriangleEngine::from_graph(&base);
    let mut lossy = DistributedTriangleEngine::from_graph(&base).with_fault_plan(plan);
    let mut again = DistributedTriangleEngine::from_graph(&base).with_fault_plan(plan);
    let mut lost = 0;
    for (i, batch) in batches.iter().enumerate() {
        let report = quiet.apply(batch).expect("in-range batch");
        assert!(
            report.inserts_applied + report.removes_applied > 0,
            "batch {i} must be effective"
        );
        lossy.apply(batch).expect("1% loss is recoverable");
        again.apply(batch).expect("1% loss is recoverable");
        let (twin, cost) = (quiet.last_batch_cost(), lossy.last_batch_cost());
        assert_eq!(
            cost,
            again.last_batch_cost(),
            "a repeated run diverged at batch {i}"
        );
        assert_eq!(
            lossy.triangles(),
            quiet.triangles(),
            "diverged at batch {i}"
        );
        assert!(
            cost.rounds <= 6 * twin.rounds + cost.recovery_rounds,
            "batch {i}: {cost:?} against a quiet twin of {twin:?}"
        );
        assert!(
            cost.idle_rounds <= IDLE_CEILING,
            "batch {i} idled {} rounds",
            cost.idle_rounds
        );
        lost += cost.recovery_rounds;
    }
    assert!(lost > 0, "the plan must actually lose something");
    assert_eq!(lossy.recovery_stats().degraded_epochs, 0);
    assert_eq!(lossy.recovery_stats(), again.recovery_stats());
    assert!(lossy.matches_oracle() && again.matches_oracle());
}

/// Total message loss exhausts the bounded retransmission budget and
/// surfaces as [`StreamError::RecoveryExhausted`] — never a silently
/// wrong triangle set, never a hang.
#[test]
fn total_loss_exhausts_recovery_with_a_typed_error() {
    let base = Gnp::new(16, 0.3).seeded(7).generate();
    let mut engine = DistributedTriangleEngine::from_graph(&base)
        .with_fault_plan(FaultPlan::default().with_drop(1.0).with_seed(3));
    let mut batch = DeltaBatch::new();
    for i in 0..6 {
        batch.insert(NodeId::from_index(i), NodeId::from_index(i + 6));
    }
    match engine.apply(&batch) {
        Err(StreamError::RecoveryExhausted { attempts, pending }) => {
            assert!(attempts >= 1, "at least one repair attempt");
            assert!(pending > 0, "unrecovered streams are reported");
        }
        other => panic!("expected RecoveryExhausted, got {other:?}"),
    }
}

/// Pervasive corruption likewise fails typed: every stream's checksum
/// rejects, repairs are corrupted too, and the attempt budget ends it.
#[test]
fn total_corruption_exhausts_recovery_with_a_typed_error() {
    let base = Gnp::new(16, 0.3).seeded(9).generate();
    let mut engine = DistributedTriangleEngine::from_graph(&base)
        .with_fault_plan(FaultPlan::default().with_corruption(1.0).with_seed(5));
    let mut batch = DeltaBatch::new();
    for i in 0..6 {
        batch.insert(NodeId::from_index(i), NodeId::from_index(i + 6));
    }
    match engine.apply(&batch) {
        Err(StreamError::RecoveryExhausted { .. }) => {}
        other => panic!("expected RecoveryExhausted, got {other:?}"),
    }
}

/// An epoch that cannot fit the configured round cap surfaces as
/// [`StreamError::RoundLimit`] from `apply` instead of panicking —
/// on the legacy path too.
#[test]
fn round_cap_exhaustion_is_a_typed_error() {
    let mut engine = DistributedTriangleEngine::new(20).with_max_rounds(1);
    let mut batch = DeltaBatch::new();
    for i in 0..10 {
        batch.insert(NodeId::from_index(i), NodeId::from_index(i + 10));
    }
    match engine.apply(&batch) {
        Err(StreamError::RoundLimit { rounds }) => assert_eq!(rounds, 1),
        other => panic!("expected RoundLimit, got {other:?}"),
    }
}

/// A deterministic crash/rejoin pass: the crashed node misses epochs,
/// its candidates are recomputed centrally (degradation is counted),
/// and the rejoin sync re-seeds its slice so later epochs — and the
/// engine's own adjacency view — stay oracle-exact throughout.
#[test]
fn crash_and_rejoin_recovers_and_counts_degradation() {
    let n = 24;
    let base = Gnp::new(n, 0.2).seeded(11).generate();
    let plan = FaultPlan::default().with_crash(3, 0, 2).with_seed(1);
    let mut reference = TriangleIndex::from_graph(&base);
    let mut engine = DistributedTriangleEngine::from_graph(&base).with_fault_plan(plan);
    // Touch node 3's neighbourhood while it is down and after it rejoins.
    let batches = random_batches(n, 6, 12, 0xC0FFEE);
    for (i, batch) in batches.iter().enumerate() {
        reference.apply(batch).expect("in-range batch");
        engine.apply(batch).expect("crash recovery must succeed");
        assert_eq!(
            engine.triangles(),
            reference.triangles(),
            "diverged at batch {i}"
        );
    }
    assert!(engine.matches_oracle());
    let stats = engine.recovery_stats();
    assert!(
        stats.degraded_epochs >= 2,
        "both crashed epochs count as degraded: {stats:?}"
    );
    // Cost accounting stays sane: recovery rounds only ever add.
    assert!(engine.total_cost().rounds >= engine.total_cost().recovery_rounds);
}

/// Heavy (but recoverable) loss actually exercises the retransmission
/// path: with a 2 % drop rate over a real workload some stream fails
/// verification, repair epochs run, and their rounds are accounted in
/// `recovery_rounds` — while the result stays oracle-exact. (Much
/// hotter rates can exhaust the bounded attempt budget, because repair
/// epochs are faulted too — that regime is the `total_loss` test.)
#[test]
fn heavy_loss_pays_accounted_recovery_rounds() {
    let n = 28;
    let base = Gnp::new(n, 0.25).seeded(13).generate();
    let plan = FaultPlan::default().with_drop(0.02).with_seed(42);
    let mut reference = TriangleIndex::from_graph(&base);
    let mut engine = DistributedTriangleEngine::from_graph(&base).with_fault_plan(plan);
    for batch in random_batches(n, 6, 14, 0xFEED) {
        reference.apply(&batch).expect("in-range batch");
        engine.apply(&batch).expect("2% loss is recoverable");
        assert_eq!(engine.triangles(), reference.triangles());
    }
    assert!(engine.matches_oracle());
    let stats = engine.recovery_stats();
    assert!(stats.epoch_repairs > 0, "no repairs ran: {stats:?}");
    assert!(
        stats.retransmit_rounds > 0
            && engine.total_cost().recovery_rounds >= stats.retransmit_rounds,
        "repair rounds must be accounted: {stats:?} vs {:?}",
        engine.total_cost()
    );
}
