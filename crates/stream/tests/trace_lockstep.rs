//! Tracing must be observation-only. This lockstep test runs the
//! span-instrumented engines twice on the same stream — spans disabled,
//! then enabled — and requires bit-identical outcomes: the same final
//! triangle set (oracle-exact both times) and, for the distributed
//! engine, the exact same [`CongestCost`] on every batch. It also
//! checks the enabled run actually produced the spans the trace-export
//! acceptance relies on (all five sharded apply phases, the pool waves,
//! and the distributed broadcast/convergecast split).
//!
//! The whole comparison lives in one `#[test]` because the tracing
//! switch and collector are process-global; integration-test binaries
//! are separate processes, so nothing else races this one.

use std::collections::BTreeSet;

use congest_obs::trace;
use congest_stream::{
    BaseGraph, CongestCost, DistributedTriangleEngine, Scenario, ShardedTriangleIndex,
};

fn scenario(seed: u64) -> Scenario {
    Scenario::hotspot_churn(40, 10, 18)
        .with_base(BaseGraph::Gnp { p: 0.1 })
        .seeded(seed)
}

/// Batches of this many raw deltas reach the shard pool's hand-off
/// floor whatever their degrees, so `apply` pools every one of them.
const POOLED_LEN: usize = 1024;

/// Drives a sharded engine over the stream, then over three batches
/// long enough to be pooled, returning its final state fingerprint
/// (edges, live triangle set as a sorted debug list).
fn run_sharded(seed: u64) -> (usize, String) {
    let base = scenario(seed).base_graph();
    let mut index = ShardedTriangleIndex::from_graph(&base, 4);
    let pooled = Scenario::hotspot_churn(40, 3, POOLED_LEN).seeded(seed);
    for batch in scenario(seed).batches().iter().chain(&pooled.batches()) {
        index
            .apply(batch)
            .expect("scenario batches only touch in-range nodes");
    }
    assert!(index.matches_oracle(), "sharded run diverged from oracle");
    let telemetry = index.worker_telemetry().expect("long batches pooled");
    assert_eq!(telemetry.pooled_batches, 3);
    (index.edge_count(), format!("{:?}", index.triangles()))
}

/// Drives a convergecast distributed engine, returning its fingerprint
/// plus the per-batch CONGEST costs (bit-identical across runs or bust).
fn run_distributed(seed: u64) -> (usize, String, Vec<CongestCost>) {
    let base = scenario(seed).base_graph();
    let mut engine = DistributedTriangleEngine::from_graph(&base);
    let mut costs = Vec::new();
    for batch in scenario(seed).batches() {
        engine
            .apply(&batch)
            .expect("scenario batches only touch in-range nodes");
        costs.push(engine.last_batch_cost());
    }
    assert!(engine.matches_oracle(), "distributed run diverged");
    let skew = engine.received_bits_skew().expect("epochs ran");
    assert!(skew.max_ratio >= 1.0 && skew.mean_ratio >= 1.0);
    (
        engine.edge_count(),
        format!("{:?}", engine.triangles()),
        costs,
    )
}

#[test]
fn tracing_on_and_off_produce_bit_identical_results() {
    let seed = 77;

    // Baseline: tracing off (the default — asserted, not assumed).
    trace::set_enabled(false);
    trace::clear();
    let sharded_off = run_sharded(seed);
    let distributed_off = run_distributed(seed);
    assert!(
        trace::drain().is_empty(),
        "disabled tracing must record nothing"
    );

    // Same stream with spans recording.
    trace::set_enabled(true);
    let sharded_on = run_sharded(seed);
    let distributed_on = run_distributed(seed);
    trace::set_enabled(false);
    let events = trace::drain();

    assert_eq!(
        sharded_off, sharded_on,
        "sharded state changed under tracing"
    );
    assert_eq!(
        (&distributed_off.0, &distributed_off.1),
        (&distributed_on.0, &distributed_on.1),
        "distributed state changed under tracing"
    );
    // CongestCost is the paper-facing accounting: bit-identical per batch.
    assert_eq!(
        distributed_off.2, distributed_on.2,
        "CONGEST cost accounting changed under tracing"
    );

    // The enabled run must have produced every span family the trace
    // exporter and CI schema check advertise.
    let seen: BTreeSet<(&str, &str)> = events.iter().map(|e| (e.cat, e.name)).collect();
    for want in [
        ("sharded", "coalesce"),
        ("sharded", "classify"),
        ("sharded", "collect"),
        ("sharded", "record"),
        ("sharded", "merge"),
        ("pool", "worker"),
        ("pool", "wave_collect"),
        ("distributed", "classify"),
        ("distributed", "plan"),
        ("distributed", "broadcast"),
        ("distributed", "convergecast"),
        ("distributed", "merge"),
    ] {
        assert!(seen.contains(&want), "missing span {want:?} in {seen:?}");
    }
}
