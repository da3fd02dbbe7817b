//! `BatchSource` pipeline tests: frozen pre-refactor golden checksums
//! pin all four scenario families bit-identically to their historical
//! delta streams, and the writer → loader → replay pipeline is
//! byte-stable. Replayed files run through every engine in
//! `conformance.rs`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use congest_graph::temporal::{SyntheticTemporal, TemporalLoader};
use congest_hash::Checksum61;
use congest_stream::{
    BaseGraph, BatchSource, DeltaBatch, DeltaOp, Replay, ReplayPolicy, Scenario, WorkloadRunner,
};
use proptest::prelude::*;

/// Folds a delta stream into one Mersenne-61 checksum: a batch marker,
/// then each delta's endpoints and sign. Any reordering, insertion or
/// mutation of the stream moves the value.
fn stream_checksum(batches: &[DeltaBatch]) -> u64 {
    let mut c = Checksum61::new();
    for batch in batches {
        c.update(0xB47C4);
        for d in batch.deltas() {
            c.update(d.edge.lo().index() as u64);
            c.update(d.edge.hi().index() as u64);
            c.update(match d.op {
                DeltaOp::Insert => 1,
                DeltaOp::Remove => 2,
            });
        }
    }
    c.value()
}

/// Golden checksums captured from `Scenario::batches()` **before** the
/// `BatchSource` refactor replaced the materializing generator with
/// `ScenarioBatchIter`. If any of these move, the refactor changed the
/// generated workloads and every committed baseline is silently
/// invalidated — fix the iterator, do not re-capture the constants.
#[test]
fn scenario_families_are_bit_identical_through_batch_source() {
    let cases: [(Scenario, u64); 5] = [
        (
            Scenario::uniform_churn(60, 8, 25)
                .with_base(BaseGraph::Gnp { p: 0.05 })
                .seeded(0x51D),
            0x1B4D26F37487DA79,
        ),
        (
            Scenario::hotspot_churn(60, 8, 25)
                .with_base(BaseGraph::Gnp { p: 0.05 })
                .seeded(0x52D),
            0x1467BBA1CA8E8FF7,
        ),
        (
            Scenario::planted_bursts(60, 8, 25).seeded(0x53D),
            0x1003E5B663A06BFA,
        ),
        (
            Scenario::grow_then_shrink(60, 8, 25).seeded(0x54D),
            0x0962E718B5AE3416,
        ),
        (Scenario::uniform_churn(40, 5, 10), 0x0C3DAB23DE793FED),
    ];
    for (scenario, golden) in cases {
        let name = scenario.name();
        let materialized = Scenario::batches(&scenario);
        assert_eq!(
            stream_checksum(&materialized),
            golden,
            "{name}: materialized batches diverged from the pre-refactor stream"
        );
        let through_trait: Vec<DeltaBatch> = BatchSource::batch_iter(&scenario).collect();
        assert_eq!(
            stream_checksum(&through_trait),
            golden,
            "{name}: the BatchSource iterator diverged from the pre-refactor stream"
        );
    }
}

/// A scratch file of its own for every call: the tests in this file run
/// on parallel threads over the same pinned seeds, so a name built from
/// the seed alone lets one test delete the file another is about to read.
fn tmp_path(name: &str, seed: u64) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let unique = NEXT.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{seed:x}-{unique}.tel"))
}

/// Builds a replay source from a freshly written synthetic file,
/// returning it with the on-disk path's fingerprint already checked
/// against an in-memory parse of the same bytes.
fn replay_from_file(seed: u64, policy: ReplayPolicy) -> Replay {
    let writer = SyntheticTemporal::new(24, 240).seeded(seed);
    let path = tmp_path("replay", seed);
    writer.write_to(&path).unwrap();
    let from_disk = TemporalLoader::new().load_path(&path).unwrap();
    let from_str = TemporalLoader::new().parse_str(&writer.render()).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(from_disk.fingerprint(), from_str.fingerprint());
    Replay::new(from_disk, policy)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The lazy iterator and the materialized list agree for every
    /// family and seed, and `batch_count` describes the stream the
    /// iterator actually yields.
    #[test]
    fn batch_iter_and_batches_agree(seed in any::<u64>()) {
        let scenarios = [
            Scenario::uniform_churn(30, 6, 12).seeded(seed),
            Scenario::hotspot_churn(30, 6, 12).seeded(seed),
            Scenario::planted_bursts(30, 6, 12).seeded(seed),
            Scenario::grow_then_shrink(30, 6, 12).seeded(seed),
        ];
        for scenario in scenarios {
            let materialized = Scenario::batches(&scenario);
            let lazy: Vec<DeltaBatch> = scenario.batch_iter().collect();
            prop_assert_eq!(&lazy, &materialized);
            prop_assert_eq!(lazy.len(), BatchSource::batch_count(&scenario));
        }
    }

    /// Both replay policies partition the timeline completely: every
    /// event becomes exactly one delta in exactly one batch, in time
    /// order, and `batch_count` matches what the iterator yields.
    #[test]
    fn replay_policies_cover_every_event_once(
        seed in any::<u64>(),
        size in 1usize..90,
        window in 1u64..60,
    ) {
        for policy in [ReplayPolicy::BySize(size), ReplayPolicy::ByTimeWindow(window)] {
            let replay = replay_from_file(seed, policy);
            let timeline = replay.timeline();
            let batches: Vec<DeltaBatch> = replay.batch_iter().collect();
            prop_assert_eq!(batches.len(), replay.batch_count());
            let deltas: usize = batches.iter().map(DeltaBatch::len).sum();
            prop_assert_eq!(deltas, timeline.len());
            let mut i = 0usize;
            for batch in &batches {
                prop_assert!(!batch.is_empty());
                for d in batch.deltas() {
                    let e = &timeline.events()[i];
                    prop_assert_eq!(d.edge.lo(), e.u);
                    prop_assert_eq!(d.edge.hi(), e.v);
                    prop_assert_eq!(
                        d.op == DeltaOp::Remove,
                        e.is_departure()
                    );
                    i += 1;
                }
            }
        }
    }
}

/// `WorkloadRunner::from_source` runs a replayed file through the full
/// measurement loop and stamps the source identity — name, fingerprint,
/// policy — into the summary the bench JSONs serialize.
#[test]
fn workload_runner_reports_replay_source_identity() {
    let timeline = TemporalLoader::new()
        .parse_str(&SyntheticTemporal::new(20, 160).seeded(9).render())
        .unwrap();
    let fingerprint_in = timeline.fingerprint();
    let replay = Replay::new(timeline, ReplayPolicy::BySize(32)).with_label("identity.tel");
    let expected_fingerprint = BatchSource::fingerprint(&replay);
    let summary = WorkloadRunner::from_source(replay)
        .recompute_every(0)
        .verified(true)
        .run();
    assert_eq!(summary.scenario, "replay/identity.tel");
    assert_eq!(summary.source_fingerprint, expected_fingerprint);
    assert_ne!(summary.source_fingerprint, fingerprint_in);
    assert_eq!(summary.replay_policy.as_deref(), Some("size:32"));
    assert_eq!(summary.batch_count, 160usize.div_ceil(32));
    assert!(summary.oracle_checked && summary.oracle_ok);
    let json = summary.to_json();
    assert!(json.contains("\"scenario\":\"replay/identity.tel\""));
    assert!(json.contains(&format!(
        "\"source_fingerprint\":\"{expected_fingerprint:016x}\""
    )));
    assert!(json.contains("\"replay_policy\":\"size:32\""));
}

/// Scenario-backed summaries keep a `null` policy and carry the
/// scenario's own fingerprint, so a gate comparing two synthetic runs
/// still matches — only a source *switch* changes the key.
#[test]
fn workload_runner_reports_scenario_source_identity() {
    let scenario = Scenario::uniform_churn(30, 4, 10).seeded(77);
    let expected = BatchSource::fingerprint(&scenario);
    let summary = WorkloadRunner::new(scenario).recompute_every(0).run();
    assert_eq!(summary.source_fingerprint, expected);
    assert_eq!(summary.replay_policy, None);
    assert!(summary.to_json().contains("\"replay_policy\":null"));
}

/// Two clones of a replay share one timeline and replay it
/// identically — the source is shareable across runner configurations
/// without re-loading the file or copying its events.
#[test]
fn replay_clones_share_one_timeline() {
    let timeline = TemporalLoader::new()
        .parse_str(&SyntheticTemporal::new(16, 90).seeded(3).render())
        .unwrap();
    let a = Replay::new(timeline, ReplayPolicy::BySize(30));
    let b = a.clone();
    assert!(std::ptr::eq(a.timeline(), b.timeline()));
    assert_eq!(BatchSource::fingerprint(&a), BatchSource::fingerprint(&b));
    let batches_a: Vec<DeltaBatch> = a.batch_iter().collect();
    let batches_b: Vec<DeltaBatch> = b.batch_iter().collect();
    assert_eq!(batches_a, batches_b);
}
