//! The workload runner: drives a [`TriangleIndex`] or a
//! [`ShardedTriangleIndex`] through any [`BatchSource`] — a synthetic
//! [`Scenario`] or a replayed temporal file — and measures what a
//! service operator would ask about: throughput, per-batch latency
//! percentiles, at-flush staleness, and how much the incremental engine
//! saves over recomputing the triangle set from scratch.
//!
//! Deferral is the runner's, not the engine's: a deferred run holds
//! batches back in a window and, every
//! [`flush_every`](WorkloadRunner::flush_every) batches and after the
//! last, applies their [merge](DeltaBatch::merge) through the engine's
//! one write path, [`StreamEngine::apply`].
//!
//! Latency and staleness percentiles come from streaming log-bucketed
//! [`Histogram`]s (fixed ≈ 30 KiB each, ≤ 1.6% relative bucket error),
//! not from a grow-forever sample vector — a week-long run costs the
//! same memory as a 25-batch test.

use std::time::{Duration, Instant};

use congest_graph::temporal::fingerprint_hex;
use congest_graph::triangles as oracle;
use congest_obs::json;
use congest_obs::Histogram;

use crate::delta::DeltaBatch;
use crate::engine::StreamEngine;
use crate::index::{ApplyReport, TriangleIndex};
use crate::sharded::ShardedTriangleIndex;
use crate::source::BatchSource;
use crate::workload::Scenario;

/// Latency percentiles over the per-batch apply times, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    /// Median.
    pub p50_us: f64,
    /// 90th percentile.
    pub p90_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Worst batch (exact, not bucketed).
    pub max_us: f64,
    /// Arithmetic mean (exact, not bucketed).
    pub mean_us: f64,
}

impl LatencyStats {
    /// Reads the percentiles off a streaming histogram.
    pub fn from_histogram(hist: &Histogram) -> Self {
        if hist.is_empty() {
            return LatencyStats::default();
        }
        LatencyStats {
            p50_us: hist.value_at_quantile_us(0.50),
            p90_us: hist.value_at_quantile_us(0.90),
            p99_us: hist.value_at_quantile_us(0.99),
            max_us: hist.max_ns() as f64 / 1e3,
            mean_us: hist.mean_ns() / 1e3,
        }
    }
}

/// Staleness of deferred work: how long the oldest held-back delta had
/// been waiting each time the runner flushed its window, in
/// microseconds. All zero for eager runs (nothing is ever held back).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StalenessStats {
    /// Number of flushes that found buffered work.
    pub flushes: usize,
    /// Median staleness at flush.
    pub p50_us: f64,
    /// 99th-percentile staleness at flush.
    pub p99_us: f64,
    /// Worst staleness at flush.
    pub max_us: f64,
}

impl StalenessStats {
    /// Reads the percentiles off a streaming histogram.
    pub fn from_histogram(hist: &Histogram) -> Self {
        if hist.is_empty() {
            return StalenessStats::default();
        }
        StalenessStats {
            flushes: hist.count() as usize,
            p50_us: hist.value_at_quantile_us(0.50),
            p99_us: hist.value_at_quantile_us(0.99),
            max_us: hist.max_ns() as f64 / 1e3,
        }
    }
}

/// Timing comparison against the from-scratch recount baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecomputeStats {
    /// Batches on which the baseline was timed.
    pub samples: usize,
    /// Mean seconds per sampled from-scratch recount.
    pub mean_recompute_secs: f64,
    /// Mean seconds per incremental batch apply.
    pub mean_incremental_secs: f64,
    /// `mean_recompute_secs / mean_incremental_secs` — how much cheaper
    /// maintaining the triangle set is than recounting it per batch.
    pub speedup: f64,
}

/// Everything one run of a scenario produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Batch-source name (`kind/base` for scenarios, `replay/<file>` for
    /// temporal replays).
    pub scenario: String,
    /// The source's deterministic fingerprint, serialized as 16 hex
    /// digits. Gates compare it to refuse baselines measured on a
    /// different workload.
    pub source_fingerprint: u64,
    /// Replay policy label (`size:N` / `window:MS`), `None` for
    /// generated sources.
    pub replay_policy: Option<String>,
    /// Number of nodes.
    pub n: usize,
    /// Number of batches driven.
    pub batch_count: usize,
    /// Nominal deltas per batch.
    pub batch_size: usize,
    /// `deferred` when the run held batches back under
    /// [`WorkloadRunner::flush_every`], `eager` otherwise.
    pub mode: String,
    /// Shard count of the sharded engine, `None` for the one-shard
    /// [`TriangleIndex`]. This is the effective count the engine reports
    /// (requested counts are clamped to at least 1), so baselines are
    /// self-describing.
    pub shards: Option<usize>,
    /// Flush period of deferred runs, in batches (`None` for eager
    /// runs).
    pub flush_every: Option<usize>,
    /// Edges in the base graph before the stream.
    pub base_edges: usize,
    /// Edges after the stream.
    pub final_edges: usize,
    /// Live triangles after the stream.
    pub final_triangles: usize,
    /// Totals of every apply report; a flush books the deltas its merge
    /// coalesced away as seen no-ops, so each delta is counted once.
    pub totals: ApplyReport,
    /// Wall-clock seconds for the whole run.
    pub elapsed_secs: f64,
    /// Seconds spent inside the engine.
    pub busy_secs: f64,
    /// Deltas per second of wall-clock with the recompute-baseline
    /// sampling overhead excluded.
    pub deltas_per_sec: f64,
    /// Batches per second, on the same clock as
    /// [`deltas_per_sec`](RunSummary::deltas_per_sec).
    pub batches_per_sec: f64,
    /// Per-batch latency percentiles.
    pub latency: LatencyStats,
    /// Staleness of held-back work at each flush (all zero in eager
    /// runs).
    pub staleness: StalenessStats,
    /// Mean over pool-applied batches of the busiest worker's busy time
    /// as a share of the batch's apply wall time (`None` when no batch
    /// ran on a persistent worker pool). A hot hub pushes this toward
    /// 1.0 while
    /// [`worker_busy_mean_share`](RunSummary::worker_busy_mean_share)
    /// stays near `1/S`.
    pub worker_busy_max_share: Option<f64>,
    /// Mean over pool-applied batches of the per-worker mean busy share
    /// of the apply wall time — the pool's utilization.
    pub worker_busy_mean_share: Option<f64>,
    /// Baseline comparison, when sampled.
    pub recompute: Option<RecomputeStats>,
    /// Whether the final state was checked against the oracle.
    pub oracle_checked: bool,
    /// Result of that check (`true` when unchecked runs trivially pass).
    pub oracle_ok: bool,
}

impl RunSummary {
    /// Serializes the summary as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        json::push_str(&mut out, "scenario", &self.scenario);
        json::push_str(
            &mut out,
            "source_fingerprint",
            &fingerprint_hex(self.source_fingerprint),
        );
        match &self.replay_policy {
            Some(p) => json::push_str(&mut out, "replay_policy", p),
            None => json::push_raw(&mut out, "replay_policy", "null"),
        }
        json::push_num(&mut out, "n", self.n as f64);
        json::push_num(&mut out, "batch_count", self.batch_count as f64);
        json::push_num(&mut out, "batch_size", self.batch_size as f64);
        json::push_str(&mut out, "mode", &self.mode);
        match self.shards {
            Some(s) => json::push_num(&mut out, "shards", s as f64),
            None => json::push_raw(&mut out, "shards", "null"),
        }
        match self.flush_every {
            Some(k) => json::push_num(&mut out, "flush_every", k as f64),
            None => json::push_raw(&mut out, "flush_every", "null"),
        }
        json::push_num(&mut out, "base_edges", self.base_edges as f64);
        json::push_num(&mut out, "final_edges", self.final_edges as f64);
        json::push_num(&mut out, "final_triangles", self.final_triangles as f64);
        json::push_num(&mut out, "deltas_seen", self.totals.deltas_seen as f64);
        json::push_num(
            &mut out,
            "inserts_applied",
            self.totals.inserts_applied as f64,
        );
        json::push_num(
            &mut out,
            "removes_applied",
            self.totals.removes_applied as f64,
        );
        json::push_num(&mut out, "noops", self.totals.noops as f64);
        json::push_num(
            &mut out,
            "triangles_added",
            self.totals.triangles_added as f64,
        );
        json::push_num(
            &mut out,
            "triangles_removed",
            self.totals.triangles_removed as f64,
        );
        json::push_num(&mut out, "elapsed_secs", self.elapsed_secs);
        json::push_num(&mut out, "busy_secs", self.busy_secs);
        json::push_num(&mut out, "deltas_per_sec", self.deltas_per_sec);
        json::push_num(&mut out, "batches_per_sec", self.batches_per_sec);
        json::push_num(&mut out, "latency_p50_us", self.latency.p50_us);
        json::push_num(&mut out, "latency_p90_us", self.latency.p90_us);
        json::push_num(&mut out, "latency_p99_us", self.latency.p99_us);
        json::push_num(&mut out, "latency_max_us", self.latency.max_us);
        json::push_num(&mut out, "latency_mean_us", self.latency.mean_us);
        json::push_num(&mut out, "staleness_flushes", self.staleness.flushes as f64);
        json::push_num(&mut out, "staleness_p50_us", self.staleness.p50_us);
        json::push_num(&mut out, "staleness_p99_us", self.staleness.p99_us);
        json::push_num(&mut out, "staleness_max_us", self.staleness.max_us);
        match self.worker_busy_max_share {
            Some(v) => json::push_num(&mut out, "worker_busy_max_share", v),
            None => json::push_raw(&mut out, "worker_busy_max_share", "null"),
        }
        match self.worker_busy_mean_share {
            Some(v) => json::push_num(&mut out, "worker_busy_mean_share", v),
            None => json::push_raw(&mut out, "worker_busy_mean_share", "null"),
        }
        match &self.recompute {
            Some(r) => {
                json::push_num(&mut out, "recompute_samples", r.samples as f64);
                json::push_num(&mut out, "recompute_mean_secs", r.mean_recompute_secs);
                json::push_num(&mut out, "incremental_mean_secs", r.mean_incremental_secs);
                json::push_num(&mut out, "speedup_vs_recompute", r.speedup);
            }
            None => {
                json::push_raw(&mut out, "recompute_samples", "null");
                json::push_raw(&mut out, "speedup_vs_recompute", "null");
            }
        }
        json::push_bool(&mut out, "oracle_checked", self.oracle_checked);
        json::push_bool(&mut out, "oracle_ok", self.oracle_ok);
        json::finish_object(&mut out);
        out
    }
}

/// Drives a triangle engine through any [`BatchSource`].
///
/// A run is eager unless [`flush_every`](WorkloadRunner::flush_every)
/// is set: then the runner holds batches back and applies each window's
/// merge as one batch. The engine validates that merge when it is
/// applied, so a window with an out-of-range delta would be rejected
/// whole at its flush; batch sources only produce in-range deltas, and
/// the runner panics if one does not.
///
/// The default source type is [`Scenario`], so the historical
/// constructor keeps working unchanged:
///
/// ```
/// use congest_stream::{BaseGraph, Scenario, WorkloadRunner};
///
/// let scenario = Scenario::uniform_churn(120, 15, 40)
///     .with_base(BaseGraph::Gnp { p: 0.05 })
///     .seeded(11);
/// let summary = WorkloadRunner::new(scenario).verified(true).run();
/// assert!(summary.oracle_ok);
/// assert!(summary.deltas_per_sec > 0.0);
/// ```
///
/// A replayed temporal file drives the identical measurement loop:
///
/// ```
/// use congest_graph::temporal::TemporalLoader;
/// use congest_stream::{Replay, ReplayPolicy, WorkloadRunner};
///
/// let list = TemporalLoader::new()
///     .parse_str("0 1 10\n1 2 12\n0 2 25\n")
///     .unwrap();
/// let replay = Replay::new(list, ReplayPolicy::BySize(2));
/// let summary = WorkloadRunner::from_source(replay).verified(true).run();
/// assert!(summary.oracle_ok);
/// assert_eq!(summary.replay_policy.as_deref(), Some("size:2"));
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadRunner<S: BatchSource = Scenario> {
    source: S,
    /// `None` drives the one-shard [`TriangleIndex`]; `Some(s)`
    /// drives a [`ShardedTriangleIndex`] with `s` shards.
    shards: Option<usize>,
    /// Flush the held-back window after this many batches (>= 1).
    flush_every: Option<usize>,
    /// Time a from-scratch recount every `k` batches; 0 disables.
    recompute_every: usize,
    /// Check the final triangle set against the oracle.
    verify: bool,
}

impl WorkloadRunner<Scenario> {
    /// A runner with eager application (no flush policy), the
    /// single-threaded engine, recompute sampling every 8 batches and no
    /// final oracle check.
    pub fn new(scenario: Scenario) -> Self {
        Self::from_source(scenario)
    }

    /// The scenario this runner drives.
    pub fn scenario(&self) -> &Scenario {
        &self.source
    }
}

impl<S: BatchSource> WorkloadRunner<S> {
    /// A runner over any [`BatchSource`], with the same defaults as
    /// [`WorkloadRunner::new`]: eager application, the single-threaded
    /// engine, recompute sampling every 8 batches and no final oracle
    /// check.
    pub fn from_source(source: S) -> Self {
        WorkloadRunner {
            source,
            shards: None,
            flush_every: None,
            recompute_every: 8,
            verify: false,
        }
    }

    /// Drives a [`ShardedTriangleIndex`] with `shards` shards instead of
    /// the single-threaded [`TriangleIndex`] (builder style).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards.max(1));
        self
    }

    /// Defers the run (builder style): hold batches back and flush the
    /// window after every `batches` of them (clamped to 1+), and after
    /// the last batch.
    pub fn flush_every(mut self, batches: usize) -> Self {
        self.flush_every = Some(batches.max(1));
        self
    }

    /// Sets how often the recompute baseline is sampled; 0 disables
    /// (builder style).
    pub fn recompute_every(mut self, batches: usize) -> Self {
        self.recompute_every = batches;
        self
    }

    /// Enables/disables the final oracle check (builder style).
    pub fn verified(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// The batch source this runner drives.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Runs the workload once and summarizes it.
    pub fn run(&self) -> RunSummary {
        let base = self.source.base_graph();
        match self.shards {
            None => self.run_engine(TriangleIndex::from_graph(&base), &base),
            Some(s) => self.run_engine(ShardedTriangleIndex::from_graph(&base, s), &base),
        }
    }

    /// Drives any [`StreamEngine`] through the source. The engine is an
    /// [`AdjacencyView`](congest_graph::AdjacencyView), so the recompute
    /// baseline and the oracle check read its live adjacency directly —
    /// no snapshot rebuild anywhere on the measurement path. Batches are
    /// pulled lazily off [`BatchSource::batch_iter`]: a replayed file's
    /// deltas are never all resident at once.
    fn run_engine<E: StreamEngine>(&self, mut index: E, base: &congest_graph::Graph) -> RunSummary {
        let base_edges = base.edge_count();
        let batch_count = self.source.batch_count();

        let mut totals = ApplyReport::default();
        let mut latency_hist = Histogram::new();
        let mut staleness_hist = Histogram::new();
        let mut recompute_total = Duration::ZERO;
        let mut sampling_total = Duration::ZERO;
        let mut recompute_samples = 0usize;

        let mut window = Window::default();
        let run_start = Instant::now();

        for (i, batch) in self.source.batch_iter().enumerate() {
            let start = Instant::now();
            if let Some(k) = self.flush_every {
                window.push(batch);
                if (i + 1) % k == 0 || i + 1 == batch_count {
                    totals.absorb(&window.flush(&mut index, &mut staleness_hist));
                }
            } else {
                let report = index
                    .apply(&batch)
                    .expect("batch sources only touch in-range nodes");
                totals.absorb(&report);
            }
            latency_hist.record(start.elapsed());

            if self.recompute_every > 0 && i % self.recompute_every == 0 {
                // Time the from-scratch alternative on the same state the
                // incremental engine maintains, reading the engine's live
                // adjacency directly. The whole sampling block is excluded
                // from the run's throughput clock below.
                let sample_start = Instant::now();
                let t = Instant::now();
                let recount = oracle::list_all_on(&index);
                recompute_total += t.elapsed();
                recompute_samples += 1;
                // Keep the optimizer honest.
                assert!(recount.len() <= base.node_count().pow(3));
                sampling_total += sample_start.elapsed();
            }
        }
        // Safety net for sources whose iterator disagrees with their
        // declared batch count: deferred work must never outlive the run.
        totals.absorb(&window.flush(&mut index, &mut staleness_hist));
        let elapsed = run_start.elapsed();

        let busy: Duration = latency_hist.total();
        let (oracle_checked, oracle_ok) = if self.verify {
            (true, index.matches_oracle())
        } else {
            (false, true)
        };

        let mean_incremental = if latency_hist.is_empty() {
            0.0
        } else {
            busy.as_secs_f64() / latency_hist.count() as f64
        };
        let recompute = (recompute_samples > 0).then(|| {
            let mean_recompute = recompute_total.as_secs_f64() / recompute_samples as f64;
            RecomputeStats {
                samples: recompute_samples,
                mean_recompute_secs: mean_recompute,
                mean_incremental_secs: mean_incremental,
                speedup: if mean_incremental > 0.0 {
                    mean_recompute / mean_incremental
                } else {
                    f64::INFINITY
                },
            }
        });

        let elapsed_secs = elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
        // Throughput excludes the recompute-baseline sampling (snapshot
        // build + recount), which runs inside the loop purely as
        // measurement overhead: with sampling on every batch the baseline
        // can dominate wall time by exactly the speedup factor being
        // measured.
        let measured_secs = elapsed
            .saturating_sub(sampling_total)
            .as_secs_f64()
            .max(f64::MIN_POSITIVE);
        let telemetry = index.worker_telemetry();
        // Fold pool telemetry and flush staleness into the process-wide
        // registry: last run wins for gauges, which is what the bench
        // binaries snapshot right after the run they care about.
        if let Some(t) = &telemetry {
            congest_obs::gauge_set("pool.busy_max_share_mean", t.busy_max_share_mean);
            congest_obs::gauge_set("pool.busy_mean_share_mean", t.busy_mean_share_mean);
        }
        if let Some(a) = index.arena_stats() {
            congest_obs::gauge_set("arena.slab_bytes", a.slab_bytes as f64);
            congest_obs::gauge_set("arena.live_bytes", a.live_bytes as f64);
            congest_obs::gauge_set("arena.free_bytes", a.free_bytes as f64);
            congest_obs::gauge_set("arena.free_slabs", a.free_slabs as f64);
            congest_obs::gauge_set("arena.compactions", a.compactions as f64);
        }
        if !staleness_hist.is_empty() {
            congest_obs::gauge_set(
                "runner.flush_staleness_p99_us",
                staleness_hist.value_at_quantile_us(0.99),
            );
            congest_obs::gauge_set(
                "runner.flush_staleness_max_us",
                staleness_hist.max_ns() as f64 / 1e3,
            );
            congest_obs::counter_add("runner.flushes", staleness_hist.count());
        }
        RunSummary {
            scenario: self.source.name(),
            source_fingerprint: self.source.fingerprint(),
            replay_policy: self.source.replay_policy(),
            n: self.source.node_count(),
            batch_count,
            batch_size: self.source.batch_size(),
            mode: self.flush_every.map_or("eager", |_| "deferred").to_string(),
            // The engine-reported count: what actually ran, even where the
            // requested one was clamped.
            shards: self.shards.map(|_| index.shard_count()),
            flush_every: self.flush_every,
            base_edges,
            final_edges: index.edge_count(),
            final_triangles: index.triangle_count(),
            totals,
            elapsed_secs,
            busy_secs: busy.as_secs_f64(),
            deltas_per_sec: totals.deltas_seen as f64 / measured_secs,
            batches_per_sec: batch_count as f64 / measured_secs,
            latency: LatencyStats::from_histogram(&latency_hist),
            staleness: StalenessStats::from_histogram(&staleness_hist),
            worker_busy_max_share: telemetry.map(|t| t.busy_max_share_mean),
            worker_busy_mean_share: telemetry.map(|t| t.busy_mean_share_mean),
            recompute,
            oracle_checked,
            oracle_ok,
        }
    }
}

/// The batches a deferred run holds back, and when the oldest of them
/// arrived (the clock behind the staleness samples).
#[derive(Default)]
struct Window {
    batches: Vec<DeltaBatch>,
    since: Option<Instant>,
}

impl Window {
    /// Holds `batch` back, starting the clock if the window was empty.
    fn push(&mut self, batch: DeltaBatch) {
        if batch.is_empty() {
            return;
        }
        self.since.get_or_insert_with(Instant::now);
        self.batches.push(batch);
    }

    /// Applies the window's merge as one batch, records its staleness and
    /// empties it. Every held delta counts as seen; those the merge
    /// coalesced away count as no-ops. A no-op on an empty window.
    fn flush<E: StreamEngine>(&mut self, engine: &mut E, staleness: &mut Histogram) -> ApplyReport {
        let Some(since) = self.since.take() else {
            return ApplyReport::default();
        };
        congest_obs::span!("runner", "flush");
        staleness.record(since.elapsed());
        let held: usize = self.batches.iter().map(DeltaBatch::len).sum();
        let merged = DeltaBatch::merge(&self.batches);
        self.batches.clear();
        let mut report = engine
            .apply(&merged)
            .expect("batch sources only touch in-range nodes");
        report.deltas_seen += held - merged.len();
        report.noops += held - merged.len();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::BaseGraph;

    fn small_scenario() -> Scenario {
        Scenario::uniform_churn(60, 12, 25)
            .with_base(BaseGraph::Gnp { p: 0.08 })
            .seeded(21)
    }

    #[test]
    fn runner_totals_cover_every_delta() {
        let summary = WorkloadRunner::new(small_scenario()).verified(true).run();
        assert_eq!(summary.totals.deltas_seen, 12 * 25);
        assert_eq!(
            summary.totals.inserts_applied + summary.totals.removes_applied + summary.totals.noops,
            12 * 25
        );
        assert!(summary.oracle_checked && summary.oracle_ok);
        assert!(summary.busy_secs <= summary.elapsed_secs * 1.5);
    }

    #[test]
    fn deferred_runner_flushes_everything_by_the_end() {
        let summary = WorkloadRunner::new(small_scenario())
            .flush_every(5)
            .verified(true)
            .run();
        assert!(summary.oracle_ok);
        // Deferred runs are self-describing: the flush policy is in the
        // summary and its JSON.
        assert_eq!(summary.mode, "deferred");
        assert_eq!(summary.flush_every, Some(5));
        assert!(summary.to_json().contains("\"flush_every\":5"));
        // 12 batches in windows of 5: flushes after batches 5, 10 and 12.
        assert_eq!(summary.staleness.flushes, 3);
        // Every delta was counted as seen exactly once (a flush books
        // what its merge coalesced away), so eager and deferred
        // throughput numbers are directly comparable.
        assert_eq!(summary.totals.deltas_seen, 12 * 25);
        assert_eq!(
            summary.totals.inserts_applied + summary.totals.removes_applied + summary.totals.noops,
            12 * 25
        );
    }

    #[test]
    fn window_clock_tracks_the_oldest_held_delta() {
        use congest_graph::NodeId;
        let mut window = Window::default();
        window.push(DeltaBatch::new());
        assert_eq!(window.since, None, "an empty batch starts no clock");
        let mut b = DeltaBatch::new();
        b.insert(NodeId(0), NodeId(1));
        window.push(b.clone());
        let since = window.since.expect("one delta is held");
        std::thread::sleep(Duration::from_millis(2));
        window.push(b);
        assert_eq!(
            window.since,
            Some(since),
            "the oldest delta keeps the clock"
        );

        let mut index = TriangleIndex::new(2);
        let mut staleness = Histogram::new();
        let report = window.flush(&mut index, &mut staleness);
        assert!(
            staleness.max_ns() >= 2_000_000,
            "staleness is the oldest's age"
        );
        assert_eq!(report.deltas_seen, 2);
        assert_eq!(report.inserts_applied, 1);
        assert_eq!(report.noops, 1, "the duplicate was coalesced away");
        assert_eq!(window.since, None);
        assert!(window.batches.is_empty());
    }

    #[test]
    fn flushing_an_empty_window_is_a_noop() {
        let mut index = TriangleIndex::new(2);
        let mut staleness = Histogram::new();
        let report = Window::default().flush(&mut index, &mut staleness);
        assert_eq!(report, ApplyReport::default());
        assert!(staleness.is_empty(), "no held work, no staleness sample");
    }

    #[test]
    fn recompute_sampling_produces_a_speedup_estimate() {
        let summary = WorkloadRunner::new(small_scenario())
            .recompute_every(4)
            .run();
        let r = summary.recompute.expect("sampling was enabled");
        assert_eq!(r.samples, 3);
        assert!(r.speedup > 0.0);
        let off = WorkloadRunner::new(small_scenario())
            .recompute_every(0)
            .run();
        assert!(off.recompute.is_none());
    }

    #[test]
    fn sharded_engine_produces_the_same_final_state() {
        let scenario = small_scenario();
        let single = WorkloadRunner::new(scenario.clone()).verified(true).run();
        for shards in [1, 4] {
            let sharded = WorkloadRunner::new(scenario.clone())
                .with_shards(shards)
                .verified(true)
                .run();
            assert!(sharded.oracle_ok, "shards={shards}");
            assert_eq!(sharded.shards, Some(shards));
            assert_eq!(sharded.final_edges, single.final_edges);
            assert_eq!(sharded.final_triangles, single.final_triangles);
            assert!(sharded.to_json().contains(&format!("\"shards\":{shards}")));
        }
        assert_eq!(single.shards, None);
        assert!(single.to_json().contains("\"shards\":null"));
    }

    #[test]
    fn eager_runs_report_zero_staleness() {
        let summary = WorkloadRunner::new(small_scenario()).run();
        assert_eq!(summary.staleness, StalenessStats::default());
        assert_eq!(summary.flush_every, None, "eager runs never flush");
        assert!(summary.to_json().contains("\"flush_every\":null"));
    }

    #[test]
    fn summaries_record_the_effective_engine_configuration() {
        // Deferred sharded run: every knob that shaped the run is
        // recoverable from the JSON alone.
        let summary = WorkloadRunner::new(small_scenario())
            .with_shards(4)
            .flush_every(3)
            .run();
        assert_eq!(summary.mode, "deferred");
        assert_eq!(summary.shards, Some(4));
        assert_eq!(summary.flush_every, Some(3));
        let json = summary.to_json();
        for fragment in ["\"mode\":\"deferred\"", "\"shards\":4", "\"flush_every\":3"] {
            assert!(json.contains(fragment), "missing {fragment} in {json}");
        }
        // `with_shards(0)` clamps to 1; the summary reports what ran.
        let clamped = WorkloadRunner::new(small_scenario()).with_shards(0).run();
        assert_eq!(clamped.shards, Some(1));
    }

    #[test]
    fn pool_runs_report_worker_telemetry_and_single_runs_do_not() {
        // 1 024-delta batches cross the pool's hand-off floor whatever
        // their degrees, so at S = 4 every one of them is pooled.
        let scenario = Scenario::uniform_churn(60, 3, 1024)
            .with_base(BaseGraph::Gnp { p: 0.08 })
            .seeded(21);
        let mut engine = ShardedTriangleIndex::from_graph(&scenario.base_graph(), 4);
        for batch in scenario.batches() {
            engine.apply(&batch).unwrap();
        }
        let telemetry = engine.worker_telemetry().expect("pool batches ran");
        assert_eq!(telemetry.pooled_batches, 3);
        let pooled = WorkloadRunner::new(scenario)
            .with_shards(4)
            .recompute_every(0)
            .run();
        let max = pooled.worker_busy_max_share.expect("pool batches ran");
        let mean = pooled.worker_busy_mean_share.expect("pool batches ran");
        assert!(max > 0.0 && max <= 1.0, "max share {max}");
        assert!(mean > 0.0 && mean <= max, "mean {mean} vs max {max}");
        let json = pooled.to_json();
        assert!(json.contains("\"worker_busy_max_share\":"));

        // The single-threaded engine has no pool to observe.
        let single = WorkloadRunner::new(small_scenario()).run();
        assert_eq!(single.worker_busy_max_share, None);
        assert!(single.to_json().contains("\"worker_busy_max_share\":null"));
    }

    fn histogram_of(durations: &[Duration]) -> Histogram {
        let mut hist = Histogram::new();
        for d in durations {
            hist.record(*d);
        }
        hist
    }

    #[test]
    fn staleness_stats_of_empty_input_are_zero() {
        assert_eq!(
            StalenessStats::from_histogram(&Histogram::new()),
            StalenessStats::default()
        );
        let stats = StalenessStats::from_histogram(&histogram_of(&[
            Duration::from_micros(100),
            Duration::from_micros(300),
            Duration::from_micros(200),
        ]));
        assert_eq!(stats.flushes, 3);
        // The median comes off the streaming histogram: within one
        // log-bucket (≤ 1.6%) of the exact 200 µs sorted-vec answer.
        let (lo, hi) = congest_obs::Histogram::bucket_of(200_000);
        let p50_ns = stats.p50_us * 1e3;
        assert!(
            p50_ns >= lo as f64 && p50_ns <= hi as f64,
            "p50 {} µs outside the bucket of 200 µs",
            stats.p50_us
        );
        // Max is tracked exactly, outside the buckets.
        assert_eq!(stats.max_us, 300.0);
    }

    #[test]
    fn single_sample_percentiles_are_that_sample() {
        // The p99 nearest-rank index must clamp on 1-element (and any
        // boundary-sized) samples instead of trusting float rounding.
        let one = histogram_of(&[Duration::from_micros(42)]);
        let s = StalenessStats::from_histogram(&one);
        assert_eq!(s.flushes, 1);
        assert_eq!((s.p50_us, s.p99_us, s.max_us), (42.0, 42.0, 42.0));
        let l = LatencyStats::from_histogram(&one);
        assert_eq!(
            (l.p50_us, l.p90_us, l.p99_us, l.max_us),
            (42.0, 42.0, 42.0, 42.0)
        );
        assert_eq!(l.mean_us, 42.0);
        // The shared nearest-rank convention stays in bounds across
        // sizes (the histogram uses the same index internally).
        for len in 1..200 {
            for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
                assert!(
                    congest_obs::nearest_rank_index(len, q) < len,
                    "len {len} q {q}"
                );
            }
        }
    }

    #[test]
    fn no_flush_run_emits_null_free_staleness_json() {
        // An eager run never flushes: every staleness field must be a
        // real number (zero), never `null`, so downstream dashboards
        // can subtract without null checks.
        let summary = WorkloadRunner::new(small_scenario()).run();
        assert_eq!(summary.staleness.flushes, 0);
        let json = summary.to_json();
        for key in [
            "staleness_flushes",
            "staleness_p50_us",
            "staleness_p99_us",
            "staleness_max_us",
        ] {
            assert!(
                json.contains(&format!("\"{key}\":0")),
                "{key} must be numeric zero in {json}"
            );
            assert!(
                !json.contains(&format!("\"{key}\":null")),
                "{key} must not be null"
            );
        }
    }

    #[test]
    fn non_finite_metrics_serialize_as_null_not_invalid_json() {
        // An infinite recompute speedup (zero-cost incremental mean)
        // must not leak `inf` into the JSON.
        let mut summary = WorkloadRunner::new(small_scenario())
            .recompute_every(4)
            .run();
        let mut recompute = summary.recompute.expect("sampling was on");
        recompute.speedup = f64::INFINITY;
        summary.recompute = Some(recompute);
        let json = summary.to_json();
        assert!(json.contains("\"speedup_vs_recompute\":null"), "{json}");
        assert!(!json.contains("inf"), "{json}");
        assert!(!json.contains("NaN"), "{json}");
    }

    #[test]
    fn latency_stats_are_ordered() {
        let summary = WorkloadRunner::new(small_scenario()).run();
        let l = summary.latency;
        assert!(l.p50_us <= l.p90_us);
        assert!(l.p90_us <= l.p99_us);
        assert!(l.p99_us <= l.max_us);
        assert!(l.mean_us > 0.0);
    }

    #[test]
    fn latency_stats_of_empty_input_are_zero() {
        assert_eq!(
            LatencyStats::from_histogram(&Histogram::new()),
            LatencyStats::default()
        );
    }

    #[test]
    fn json_is_well_formed_enough() {
        let summary = WorkloadRunner::new(small_scenario()).verified(true).run();
        let json = summary.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"scenario\":\"uniform_churn/gnp\""));
        assert!(json.contains("\"oracle_ok\":true"));
        assert!(json.contains("\"latency_p99_us\":"));
        // Balanced quotes and no trailing comma before the brace.
        assert_eq!(json.matches('"').count() % 2, 0);
        assert!(!json.contains(",}"));
    }

    #[test]
    fn json_escaping_handles_special_characters() {
        // The shared escaper (the summary serializer now rides on it).
        assert_eq!(json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json::escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn summaries_carry_the_source_identity() {
        let scenario = small_scenario();
        let summary = WorkloadRunner::new(scenario.clone()).run();
        assert_eq!(
            summary.source_fingerprint,
            BatchSource::fingerprint(&scenario)
        );
        assert_eq!(summary.replay_policy, None);
        let json = summary.to_json();
        assert!(json.contains(&format!(
            "\"source_fingerprint\":\"{:016x}\"",
            summary.source_fingerprint
        )));
        assert!(json.contains("\"replay_policy\":null"));
        // A different seed is a different workload identity.
        let other = WorkloadRunner::new(small_scenario().seeded(99)).run();
        assert_ne!(other.source_fingerprint, summary.source_fingerprint);
    }

    #[test]
    fn replayed_files_run_the_same_measurement_loop() {
        use crate::source::{Replay, ReplayPolicy};
        use congest_graph::temporal::{SyntheticTemporal, TemporalLoader};

        let text = SyntheticTemporal::new(24, 300).seeded(41).render();
        let list = TemporalLoader::new().parse_str(&text).unwrap();
        let replay = Replay::new(list, ReplayPolicy::BySize(25)).with_label("synthetic");
        let expected_fp = replay.fingerprint();
        let summary = WorkloadRunner::from_source(replay)
            .flush_every(4)
            .verified(true)
            .run();
        assert!(summary.oracle_ok);
        assert_eq!(summary.scenario, "replay/synthetic");
        assert_eq!(summary.source_fingerprint, expected_fp);
        assert_eq!(summary.replay_policy.as_deref(), Some("size:25"));
        assert_eq!(summary.batch_count, 12);
        assert_eq!(summary.totals.deltas_seen, 300);
        let json = summary.to_json();
        assert!(json.contains("\"replay_policy\":\"size:25\""));
    }
}
