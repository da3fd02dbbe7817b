//! Conformance of the distributed engine under every broadcast schedule
//! (`HubSplit::{Auto, Off, Budget(1)}`): the shared lockstep
//! (`common::conform`) on four base families checks oracle exactness,
//! tallies and repeatability. Beyond it: what the broadcast schedule and
//! deferral do to the *cost* of a stream, and what the per-link
//! bandwidth does to it.

mod common;

use common::{conform, random_batches, Config, Family};
use congest_stream::{DeltaBatch, DistributedTriangleEngine, HubSplit};
use proptest::prelude::*;

fn distributed(config: &Config) -> bool {
    matches!(config, Config::Distributed(_))
}

#[test]
fn gnp_base_matches_oracle() {
    conform(Family::Gnp, distributed);
}

#[test]
fn planted_light_base_matches_oracle() {
    conform(Family::PlantedLight, distributed);
}

#[test]
fn bipartite_base_matches_oracle() {
    conform(Family::Bipartite, distributed);
}

#[test]
fn complete_base_matches_oracle() {
    conform(Family::Complete, distributed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On every base family: a hub split only ever drops broadcast
    /// assignments, so its broadcast prefix never exceeds the unsplit
    /// schedule's; an engine applying windows of three batches as their
    /// merge never runs more epochs than the eager one; and every epoch
    /// costs at least a round, convergecast included.
    #[test]
    fn splits_and_deferral_never_cost_more(seed in any::<u64>()) {
        for family in Family::ALL {
            let (base, _) = family.stream(seed);
            let batches = random_batches(base.node_count(), 6, 12, seed ^ 0xD15C);
            let mut split = DistributedTriangleEngine::from_graph(&base);
            let mut unsplit = DistributedTriangleEngine::from_graph(&base).with_hub_split(HubSplit::Off);
            let mut deferred = DistributedTriangleEngine::from_graph(&base);
            // The broadcast prefix of the last batch: what the split schedules.
            let prefix = |engine: &DistributedTriangleEngine| {
                let cost = engine.last_batch_cost();
                cost.rounds - cost.convergecast_rounds
            };
            for (i, batch) in batches.iter().enumerate() {
                split.apply(batch).expect("in-range batch");
                unsplit.apply(batch).expect("in-range batch");
                prop_assert!(
                    prefix(&split) <= prefix(&unsplit),
                    "{family:?} batch {i}: split prefix {} above the unsplit {}",
                    prefix(&split),
                    prefix(&unsplit)
                );
            }
            for window in batches.chunks(3) {
                deferred.apply(&DeltaBatch::merge(window)).expect("in-range batch");
            }
            prop_assert!(deferred.epochs() <= split.epochs(), "{family:?}");
            if split.epochs() > 0 {
                prop_assert!(split.total_cost().rounds >= split.epochs(), "{family:?}");
                prop_assert!(split.total_cost().convergecast_rounds > 0, "{family:?}");
            }
        }
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
