//! Chaos property tests for the hardened distributed engine: every
//! workload generator family is driven through seeded [`FaultPlan`]s —
//! message drops, bit corruption, duplication, and a mid-stream
//! crash/rejoin window — and the engine must either recover to
//! oracle-exactness (accounting the recovery rounds it spent) or fail
//! with a *typed* [`StreamError`]. It must never be silently wrong and
//! never run past the configured round cap.

use congest_graph::generators::{Gnp, PlantedHeavy, PlantedLight, TriangleFreeBipartite};
use congest_graph::{Graph, NodeId};
use congest_stream::{
    DeltaBatch, DistributedTriangleEngine, FaultPlan, StreamError, TriangleIndex,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random batch stream over `n` nodes (same shape as the fault-free
/// distributed property tests).
fn random_batches(n: usize, batch_count: usize, batch_size: usize, seed: u64) -> Vec<DeltaBatch> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..batch_count)
        .map(|_| {
            let mut batch = DeltaBatch::new();
            for _ in 0..batch_size {
                let u = rng.gen_range(0..n);
                let mut v = rng.gen_range(0..n);
                while v == u {
                    v = rng.gen_range(0..n);
                }
                let (u, v) = (NodeId::from_index(u), NodeId::from_index(v));
                if rng.gen_bool(0.6) {
                    batch.insert(u, v);
                } else {
                    batch.remove(u, v);
                }
            }
            batch
        })
        .collect()
}

/// Drives **two** hardened engines, built from the same graph, plan
/// and seed, through the stream. After every batch that applies cleanly
/// the triangle set must exactly match the fault-free single-threaded
/// engine, and the run must be repeatable: both engines report
/// identical [`ApplyReport`]s and bit-identical [`CongestCost`]s —
/// including `recovery_rounds` — which is what "reproducible bit for
/// bit from its seed" promises. A typed error is allowed (and must hit
/// both runs identically); silent divergence is not.
///
/// [`ApplyReport`]: congest_stream::ApplyReport
/// [`CongestCost`]: congest_stream::CongestCost
fn check_chaos(base: &Graph, batches: &[DeltaBatch], plan: FaultPlan) {
    let mut reference = TriangleIndex::from_graph(base);
    let mut first = DistributedTriangleEngine::from_graph(base).with_fault_plan(plan);
    let mut again = DistributedTriangleEngine::from_graph(base).with_fault_plan(plan);
    assert_eq!(first.hardened(), !plan.is_quiet());

    for (i, batch) in batches.iter().enumerate() {
        reference.apply(batch).expect("in-range batch");
        let rf = first.apply(batch);
        let ra = again.apply(batch);
        match (&rf, &ra) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "a repeated run's reports diverged at batch {i}");
                assert_eq!(
                    first.triangles(),
                    reference.triangles(),
                    "recovered state diverged from the fault-free engine at batch {i}"
                );
                assert_eq!(
                    first.last_batch_cost(),
                    again.last_batch_cost(),
                    "a repeated run must report bit-identical cost (incl. recovery) at batch {i}"
                );
            }
            (Err(ea), Err(eb)) => {
                // Both failed with a typed error under the same seed —
                // acceptable, and the stream ends here.
                assert_eq!(
                    ea.to_string(),
                    eb.to_string(),
                    "errors diverged at batch {i}"
                );
                return;
            }
            _ => {
                panic!("two runs disagreed on batch {i}: {rf:?} against {ra:?} (same fault seed)")
            }
        }
    }
    assert!(first.matches_oracle(), "final state vs oracle");
    assert!(
        again.matches_oracle(),
        "repeated run's final state vs oracle"
    );
    assert_eq!(first.total_cost(), again.total_cost());
    assert_eq!(first.recovery_stats(), again.recovery_stats());
}

/// The fault sweep every family runs: quiet, light loss, corruption
/// with duplication and no loss (most convergecast links then carry
/// the one-bit empty aggregate, which a flipped bit must not forge and
/// a duplicate must not double-count), heavy loss with corruption and
/// duplication, and heavy loss with one mid-stream crash/rejoin window
/// on a low-degree node.
fn sweep_plans(seed: u64) -> Vec<FaultPlan> {
    vec![
        FaultPlan::default(),
        FaultPlan::default().with_drop(0.001).with_seed(seed),
        FaultPlan::default()
            .with_corruption(0.05)
            .with_duplication(0.05)
            .with_seed(seed),
        FaultPlan::default()
            .with_drop(0.01)
            .with_corruption(0.005)
            .with_duplication(0.005)
            .with_seed(seed),
        FaultPlan::default()
            .with_drop(0.01)
            .with_corruption(0.005)
            .with_seed(seed)
            .with_crash(2, 1, 3),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Generator family 1: G(n, p) bases through the full fault sweep.
    #[test]
    fn gnp_survives_the_fault_sweep(
        n in 10usize..32,
        p in 0.08f64..0.3,
        seed in any::<u64>(),
    ) {
        let base = Gnp::new(n, p).seeded(seed).generate();
        let batches = random_batches(n, 5, 10, seed ^ 0xC4A0);
        for plan in sweep_plans(seed) {
            check_chaos(&base, &batches, plan);
        }
    }

    /// Generator family 2: planted heavy-triangle bases (one high-degree
    /// hub — the worst case for lost broadcast streams).
    #[test]
    fn planted_heavy_survives_the_fault_sweep(
        support in 6usize..14,
        seed in any::<u64>(),
    ) {
        let n = support + 12;
        let base = PlantedHeavy::new(n, support)
            .with_background(0.05)
            .seeded(seed)
            .generate();
        let batches = random_batches(n, 5, 10, seed ^ 0x11EA);
        for plan in sweep_plans(seed) {
            check_chaos(&base, &batches, plan);
        }
    }

    /// Generator family 3: planted light triangles under churn and loss.
    #[test]
    fn planted_light_survives_the_fault_sweep(
        count in 2usize..7,
        seed in any::<u64>(),
    ) {
        let n = 3 * count + 10;
        let base = PlantedLight::new(n, count)
            .with_background(0.05)
            .seeded(seed)
            .generate();
        let batches = random_batches(n, 5, 10, seed ^ 0x0B5E);
        for plan in sweep_plans(seed) {
            check_chaos(&base, &batches, plan);
        }
    }

    /// Generator family 4: triangle-free bipartite bases — every
    /// triangle that survives recovery was created by the stream, so a
    /// single false candidate sneaking past a checksum would show.
    #[test]
    fn bipartite_survives_the_fault_sweep(
        left in 5usize..14,
        right in 5usize..14,
        seed in any::<u64>(),
    ) {
        let base = TriangleFreeBipartite::new(left, right, 0.25).seeded(seed).generate();
        let batches = random_batches(left + right, 5, 10, seed ^ 0xB1FA);
        for plan in sweep_plans(seed) {
            check_chaos(&base, &batches, plan);
        }
    }

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
