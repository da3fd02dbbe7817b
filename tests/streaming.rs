//! End-to-end tests of the streaming layer through the facade crate: the
//! prelude exposes both engines, the engines agree with the centralized
//! oracle across scenario families, and the paper's distributed
//! algorithms run directly on the live indexes (no snapshot) through
//! `AdjacencyView`.

use congest::graph::triangles as reference;
use congest::prelude::*;

#[test]
fn prelude_exposes_the_streaming_engine() {
    let mut index = TriangleIndex::new(4);
    let mut batch = DeltaBatch::new();
    batch
        .push(EdgeDelta::insert(NodeId(0), NodeId(1)))
        .insert(NodeId(1), NodeId(2))
        .insert(NodeId(0), NodeId(2));
    index.apply(&batch).unwrap();
    assert_eq!(index.triangle_count(), 1);
    assert!(index.matches_oracle());
}

#[test]
fn every_scenario_family_stays_consistent_with_the_oracle() {
    let n = 80;
    let scenarios = [
        Scenario::uniform_churn(n, 10, 30),
        Scenario::hotspot_churn(n, 10, 30),
        Scenario::planted_bursts(n, 10, 30),
        Scenario::grow_then_shrink(n, 10, 30),
    ];
    for (i, scenario) in scenarios.into_iter().enumerate() {
        for base in [
            BaseGraph::Empty,
            BaseGraph::Gnp { p: 0.05 },
            BaseGraph::PlantedLight {
                count: 6,
                background_p: 0.02,
            },
            BaseGraph::TriangleFreeBipartite { p: 0.15 },
        ] {
            let scenario = scenario.clone().with_base(base).seeded(100 + i as u64);
            for deferred in [false, true] {
                let mut runner = WorkloadRunner::new(scenario.clone())
                    .recompute_every(0)
                    .verified(true);
                if deferred {
                    runner = runner.flush_every(8);
                }
                let summary = runner.run();
                assert!(
                    summary.oracle_ok,
                    "{} in {} mode diverged from the oracle",
                    summary.scenario, summary.mode
                );
            }
        }
    }
}

#[test]
fn live_indexes_feed_the_distributed_algorithms_with_no_snapshot() {
    let scenario = Scenario::uniform_churn(48, 8, 20)
        .with_base(BaseGraph::Gnp { p: 0.1 })
        .seeded(5);
    let mut index = TriangleIndex::from_graph(&scenario.base_graph());
    for batch in scenario.batches() {
        index.apply(&batch).unwrap();
    }

    // The Theorem 1 finding driver runs directly on the live index (it is
    // an `AdjacencyView`), and anything it reports is a triangle the
    // index already knows about.
    // The live set is sorted on demand, so it is built once, not per
    // reported triangle.
    let live = index.triangles();
    let report = find_triangles(&index, &FindingConfig::scaled(&index), 0xFEED);
    for t in report.triangles() {
        assert!(index.is_triangle(*t));
        assert!(live.contains(t));
    }

    // The live adjacency is internally consistent with the snapshot-free
    // reference listing, and identical to the frozen snapshot's.
    assert_eq!(live, reference::list_all_on(&index));
    assert_eq!(live, reference::list_all(&index.snapshot()));
}

#[test]
fn sharded_engine_is_exposed_and_agrees_end_to_end() {
    let scenario = Scenario::hotspot_churn(60, 8, 25)
        .with_base(BaseGraph::Gnp { p: 0.08 })
        .seeded(9);
    let base = scenario.base_graph();
    let mut single = TriangleIndex::from_graph(&base);
    let mut sharded = ShardedTriangleIndex::from_graph(&base, 3);
    for batch in scenario.batches() {
        single.apply(&batch).unwrap();
        sharded.apply(&batch).unwrap();
    }
    assert_eq!(single.triangles(), sharded.triangles());
    assert!(sharded.matches_oracle());

    // The workload runner drives it through the same scenario, and the
    // distributed listing runs on it directly.
    let summary = WorkloadRunner::new(scenario)
        .with_shards(3)
        .recompute_every(0)
        .verified(true)
        .run();
    assert!(summary.oracle_ok);
    assert_eq!(summary.shards, Some(3));
    let listing = list_triangles(&sharded, &ListingConfig::scaled(&sharded), 3);
    for t in listing.triangles() {
        assert!(sharded.is_triangle(*t));
    }
}

#[test]
fn distributed_dynamic_engine_tracks_the_centralized_engines() {
    // The same churn stream through all three engines: the distributed
    // one — where the simulated CONGEST network itself maintains the
    // triangles — must agree batch for batch, at a per-batch round cost
    // that is orders of magnitude below re-running a static driver.
    let scenario = Scenario::uniform_churn(120, 8, 25)
        .with_base(BaseGraph::Gnp { p: 0.05 })
        .seeded(17);
    let base = scenario.base_graph();
    let mut single = TriangleIndex::from_graph(&base);
    let mut distributed = DistributedTriangleEngine::from_graph(&base);
    for batch in scenario.batches() {
        single.apply(&batch).unwrap();
        distributed.apply(&batch).unwrap();
        assert_eq!(single.triangles(), distributed.triangles());
    }
    assert!(distributed.matches_oracle());

    // Network cost sanity: every batch fit in a handful of rounds…
    let cost = distributed.total_cost();
    assert!(cost.rounds >= distributed.epochs());
    let mean_rounds_per_batch = cost.rounds as f64 / distributed.epochs() as f64;
    assert!(
        mean_rounds_per_batch < 64.0,
        "expected a handful of rounds per batch, got {mean_rounds_per_batch}"
    );

    // …while one static listing re-run on the same live view costs far
    // more rounds — the asymmetry `dynamic_bench` quantifies.
    let listing = list_triangles(&distributed, &ListingConfig::scaled(&distributed), 3);
    assert!(listing.total_rounds as f64 > 5.0 * mean_rounds_per_batch);
    for t in listing.triangles() {
        assert!(distributed.is_triangle(*t));
    }
}

#[test]
fn run_summary_json_round_trips_the_headline_numbers() {
    let summary = WorkloadRunner::new(
        Scenario::uniform_churn(60, 6, 15).with_base(BaseGraph::Gnp { p: 0.08 }),
    )
    .recompute_every(2)
    .verified(true)
    .run();
    let json = summary.to_json();
    assert!(json.contains(&format!("\"final_triangles\":{}", summary.final_triangles)));
    assert!(json.contains("\"speedup_vs_recompute\":"));
    assert!(json.contains("\"oracle_ok\":true"));
}
