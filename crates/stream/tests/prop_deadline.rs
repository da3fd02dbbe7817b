//! Property tests for the deadline-triggered deferred flush path:
//! whatever the deadline, a deadline-flushed run must end oracle-exact,
//! the at-flush staleness percentiles must be monotone in the deadline
//! (a tighter budget can only make held-back work *less* stale), and a
//! paced run flushes at its deadline rather than when the next batch
//! arrives.

use std::time::Duration;

use congest_stream::{BaseGraph, RunSummary, Scenario, WorkloadRunner};
use proptest::prelude::*;

/// A short stream of 10 batches; paced at 200/s it takes ~50 ms of
/// wall-clock per run, so held-back deltas age measurably between
/// batches without making the suite slow.
fn paced_scenario(seed: u64) -> Scenario {
    Scenario::uniform_churn(40, 10, 12)
        .with_base(BaseGraph::Gnp { p: 0.08 })
        .seeded(seed)
}

fn run_with_deadline(seed: u64, shards: Option<usize>, deadline: Duration) -> RunSummary {
    run_paced(seed, shards, deadline, 200.0)
}

/// No count policy: every flush but the final end-of-run one comes from
/// the deadline policy.
fn run_paced(
    seed: u64,
    shards: Option<usize>,
    deadline: Duration,
    batches_per_sec: f64,
) -> RunSummary {
    let mut runner = WorkloadRunner::new(paced_scenario(seed))
        .flush_deadline(deadline)
        .recompute_every(0)
        .paced(batches_per_sec)
        .verified(true);
    if let Some(s) = shards {
        runner = runner.with_shards(s);
    }
    runner.run()
}

proptest! {
    // Each case sleeps ~50 ms per run; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Deadline-triggered flushes leave the engine oracle-exact on both
    /// engines, fire more than once, and report ordered percentiles.
    #[test]
    fn deadline_flushes_match_the_oracle(seed in any::<u64>()) {
        for shards in [None, Some(3)] {
            let summary = run_with_deadline(seed, shards, Duration::from_millis(12));
            prop_assert!(summary.oracle_checked && summary.oracle_ok,
                "shards={shards:?} diverged from the oracle");
            prop_assert!(summary.staleness.flushes >= 2,
                "expected deadline-driven flushes, got {:?}", summary.staleness);
            prop_assert!(summary.staleness.p50_us > 0.0);
            prop_assert!(summary.staleness.p50_us <= summary.staleness.p99_us);
            prop_assert!(summary.staleness.p99_us <= summary.staleness.max_us);
            // Every deferred delta was flushed and counted exactly once.
            prop_assert_eq!(summary.totals.deltas_seen, 10 * 12);
            prop_assert_eq!(
                summary.totals.inserts_applied
                    + summary.totals.removes_applied
                    + summary.totals.noops,
                10 * 12
            );
        }
    }

    /// Staleness percentiles are monotone in the deadline: an engine
    /// allowed to hold work four times longer reports at least as much
    /// staleness at flush time. The deadlines are far enough apart (4 ms
    /// vs 48 ms against ~5 ms batch spacing) that scheduler noise cannot
    /// invert them.
    #[test]
    fn staleness_is_monotone_in_the_deadline(seed in any::<u64>()) {
        let tight = run_with_deadline(seed, None, Duration::from_millis(4));
        let loose = run_with_deadline(seed, None, Duration::from_millis(48));
        prop_assert!(tight.oracle_ok && loose.oracle_ok);
        prop_assert_eq!(tight.flush_deadline_ms, Some(4.0));
        prop_assert_eq!(loose.flush_deadline_ms, Some(48.0));
        // The loose run buffers longer before each flush…
        prop_assert!(
            tight.staleness.p50_us <= loose.staleness.p50_us,
            "p50 not monotone: tight {:?} vs loose {:?}",
            tight.staleness, loose.staleness
        );
        prop_assert!(
            tight.staleness.p99_us <= loose.staleness.p99_us,
            "p99 not monotone: tight {:?} vs loose {:?}",
            tight.staleness, loose.staleness
        );
        // …and therefore flushes at most as often.
        prop_assert!(tight.staleness.flushes >= loose.staleness.flushes);
    }

    /// The deadline binds while the runner waits for the next batch: at
    /// 50 batches/s (20 ms apart) with a 2 ms deadline, every window is
    /// flushed about 2 ms after its batch arrived, never a whole batch
    /// interval late.
    #[test]
    fn a_paced_window_is_flushed_at_its_deadline(seed in any::<u64>()) {
        let summary = run_paced(seed, None, Duration::from_millis(2), 50.0);
        prop_assert!(summary.oracle_ok);
        // One flush per batch: nine at their deadline, the last at the
        // end of the run.
        prop_assert_eq!(summary.staleness.flushes, 10);
        prop_assert!(
            summary.staleness.max_us < 10_000.0,
            "a flush waited for the next batch: {:?}",
            summary.staleness
        );
        // A flush run while waiting joins the next batch's sample, so
        // there is still one latency sample per batch (busy time is the
        // samples' sum) and busy time stays below the paced wall-clock.
        let samples = summary.busy_secs * 1e6 / summary.latency.mean_us;
        prop_assert_eq!(samples.round(), 10.0);
        prop_assert!(summary.busy_secs < summary.elapsed_secs);
    }
}
