//! Streaming workload benchmark — load-tests the `congest-stream`
//! incremental triangle engines the way a service is load-tested.
//!
//! Six sections:
//!
//! * the **matrix** crosses the four churn scenarios (uniform, hotspot,
//!   planted-burst, grow-then-shrink) with eager and deferred application
//!   on the single-threaded engine;
//! * the **headline** run quantifies incremental maintenance vs.
//!   from-scratch recount on 10k nodes (acceptance floor: 10x);
//! * the **shard sweep** drives a denser 10k-node uniform-churn stream
//!   through [`ShardedTriangleIndex`]
//!   at S ∈ {1, 2, 4, 8} and reports the parallel speedup over the
//!   single-threaded [`TriangleIndex`](congest_stream::TriangleIndex) on
//!   the identical stream. The S=4 ≥ 1.5x floor is enforced when the machine
//!   actually has ≥ 4 hardware threads; the S=1 run must stay within 10%
//!   of the single-threaded engine everywhere;
//! * the **small-batch sweep** drives a high-rate stream of tiny batches
//!   (b = 48 ≤ 64) through the S=4 engine with the pipeline forced on
//!   every batch, and reports its throughput against the
//!   single-threaded engine on the identical stream. Small batches are
//!   where the pool's fixed costs (hand-off, wake-ups) dominate the
//!   intersection work, so this ratio is what they cost;
//! * the **hotspot sweep** runs power-law hub churn through the S=4
//!   engine and reports p99 apply latency: this is the tail the static
//!   `id mod S` partition leaves, and the run's worker busy shares land
//!   in the JSON beside it;
//! * the **intersect-kernel sweep** times the shared sorted-set
//!   intersection core directly on a degree-skewed pair (where the
//!   adaptive kernel gallops) and a balanced pair (where it merges),
//!   reporting millions of elements scanned per second for each — the
//!   two regimes the candidate-counting hot loop alternates between.
//!
//! Flags: `--shards N` restricts the shard sweep to a single count;
//! `--flush-deadline-ms X` adds latency-bounded flushing to the deferred
//! matrix runs; `--quick` shrinks the pool sweeps for CI (the committed
//! `BENCH_stream.json` baseline is a `--quick` run, which is what the
//! workflow compares against); `--trace-out PATH` re-runs one pooled
//! sharded stream, one distributed convergecast stream and one served
//! stream with leased readers *after* the gated sweeps with span
//! tracing enabled and writes the collected spans as chrome://tracing
//! trace-event JSON (the sweeps themselves always run with tracing
//! disabled so the gated numbers are never skewed by instrumentation);
//! `--input FILE` replays a temporal `src dst [w] time` edge list
//! through the single-threaded and pooled engines after the sweeps,
//! batched by `--replay {size:N|window:MS}` (default `size:500`), and
//! lands the whole replay — source fingerprint, per-round latency
//! series, both run summaries — in a `"replay"` JSON section. All flags
//! are recorded in the JSON metadata.
//!
//! Output: a plain-text table on stdout (diffable, like every other
//! harness binary) and a machine-readable `BENCH_stream.json` in the
//! current directory; CI diffs it against the committed baseline with
//! `gate`.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use congest_bench::gate::PARALLEL_FLOOR_MIN_THREADS;
use congest_bench::{json, table::fmt_f64, Table};
use congest_graph::temporal::{fingerprint_hex, TemporalLoader};
use congest_graph::{count_common, NodeId, GALLOP_RATIO};
use congest_stream::{
    split_batch_for_workers, Aggregation, ApplyMode, BaseGraph, BatchSource,
    DistributedTriangleEngine, FaultPlan, Replay, ReplayPolicy, RunSummary, Scenario,
    ShardedTriangleIndex, TriangleServer, WorkloadRunner,
};

/// One row of the benchmark matrix.
fn scenarios() -> Vec<Scenario> {
    let n = 2_000;
    let batches = 60;
    let batch_size = 200;
    let base = BaseGraph::Gnp { p: 0.002 };
    vec![
        Scenario::uniform_churn(n, batches, batch_size)
            .with_base(base)
            .seeded(0xBE11C0),
        Scenario::hotspot_churn(n, batches, batch_size)
            .with_base(base)
            .seeded(0xBE11C1),
        Scenario::planted_bursts(n, batches, batch_size)
            .with_base(base)
            .seeded(0xBE11C2),
        Scenario::grow_then_shrink(n, batches, batch_size)
            .with_base(base)
            .seeded(0xBE11C3),
    ]
}

/// The incremental-vs-recompute acceptance run: 10k nodes, uniform churn.
fn headline_scenario() -> Scenario {
    Scenario::uniform_churn(10_000, 40, 250)
        .with_base(BaseGraph::Gnp { p: 0.0008 })
        .seeded(0x10_000)
}

/// The shard-sweep scenario: 10k nodes with a denser base (mean degree
/// ~50) and much larger batches, so per-batch intersection work dominates
/// the pipeline's fixed costs (partition, hand-off, candidate merge)
/// and parallelism has something to chew on.
fn sweep_scenario() -> Scenario {
    Scenario::uniform_churn(10_000, 8, 20_000)
        .with_base(BaseGraph::Gnp { p: 0.005 })
        .seeded(0x54A2D)
}

/// The small-batch high-rate sweep: batches of 48 deltas — well under
/// the default parallel threshold, so the runner forces the pipeline —
/// where per-batch fixed costs (channel hand-off, wake-ups) dominate the
/// actual intersection work.
fn smallbatch_scenario(quick: bool) -> Scenario {
    // The quick shapes stay short deliberately: on a contended host a
    // short run plus best-of-three lets at least one try land inside a
    // quiet window, where a longer run would integrate every
    // background spike into the gated number.
    Scenario::uniform_churn(2_000, if quick { 150 } else { 400 }, 48)
        .with_base(BaseGraph::Gnp { p: 0.005 })
        .seeded(0x5B47C4)
}

/// The hotspot-churn sweep: power-law endpoints hammer a few hub nodes,
/// so under `id mod S` one worker's slice carries most of the
/// intersection work — the worst case for a static partition.
fn hotspot_pool_scenario(quick: bool) -> Scenario {
    Scenario::hotspot_churn(2_000, if quick { 40 } else { 100 }, 256)
        .with_base(BaseGraph::Gnp { p: 0.005 })
        .seeded(0x407_5907)
}

/// Command-line knobs (also recorded in the JSON metadata).
#[derive(Debug, Clone, Default)]
struct Args {
    shards: Option<usize>,
    flush_deadline_ms: Option<f64>,
    quick: bool,
    trace_out: Option<std::path::PathBuf>,
    input: Option<std::path::PathBuf>,
    replay: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--shards" => {
                let v: usize = value("--shards")
                    .parse()
                    .expect("--shards takes an integer");
                assert!(v >= 1, "--shards must be >= 1");
                args.shards = Some(v);
            }
            "--flush-deadline-ms" => {
                let v: f64 = value("--flush-deadline-ms")
                    .parse()
                    .expect("--flush-deadline-ms takes a number");
                assert!(v > 0.0, "--flush-deadline-ms must be positive");
                args.flush_deadline_ms = Some(v);
            }
            "--quick" => args.quick = true,
            "--trace-out" => args.trace_out = Some(value("--trace-out").into()),
            "--input" => args.input = Some(value("--input").into()),
            "--replay" => {
                let spec = value("--replay");
                // Validate eagerly so a typo fails before an hour of sweeps.
                ReplayPolicy::parse(&spec).unwrap_or_else(|e| panic!("--replay: {e}"));
                args.replay = Some(spec);
            }
            other => {
                panic!(
                    "unknown flag {other} (expected --shards, --flush-deadline-ms, --quick, \
                     --trace-out, --input or --replay)"
                )
            }
        }
    }
    args
}

fn run_one(scenario: Scenario, mode: ApplyMode, recompute_every: usize, args: &Args) -> RunSummary {
    let mut runner = WorkloadRunner::new(scenario)
        .with_mode(mode)
        .flush_every(4)
        .recompute_every(recompute_every)
        .verified(true);
    if mode == ApplyMode::Deferred {
        if let Some(ms) = args.flush_deadline_ms {
            runner = runner.flush_deadline(Duration::from_secs_f64(ms / 1e3));
        }
    }
    runner.run()
}

/// Runs a measurement `tries` times and keeps the run with the highest
/// score. Scheduler noise and CPU contention only ever *hurt* a run
/// (lower throughput, longer tails), so best-of-N is the cheap robust
/// estimator for the gated metrics; two tries already cut the tail that
/// made single runs swing by 20%+ on a busy machine. The two sweeps
/// behind the gate's 2% disabled-overhead guard take three tries —
/// that band is an order of magnitude tighter than the regression
/// tolerances, so it needs the tighter estimator.
fn best_of_by(
    tries: usize,
    run: impl Fn() -> RunSummary,
    score: impl Fn(&RunSummary) -> f64,
) -> RunSummary {
    let mut best = run();
    for _ in 1..tries {
        let next = run();
        if score(&next) > score(&best) {
            best = next;
        }
    }
    best
}

/// Best-of-two on throughput (the gated metric of most sweeps).
fn best_of_two(run: impl Fn() -> RunSummary) -> RunSummary {
    best_of_by(2, run, |s| s.deltas_per_sec)
}

/// Best-of-three on throughput, for the small-batch sweep feeding the
/// disabled-overhead guard.
fn best_of_three(run: impl Fn() -> RunSummary) -> RunSummary {
    best_of_by(3, run, |s| s.deltas_per_sec)
}

/// Best-of-three for the latency sweep: keeps the run with the *lowest*
/// p99 apply latency (noise only ever lengthens the tail), also behind
/// the disabled-overhead guard.
fn best_of_three_p99(run: impl Fn() -> RunSummary) -> RunSummary {
    best_of_by(3, run, |s| -s.latency.p99_us)
}

/// One sweep entry: the sharded engine at a fixed shard count.
fn run_sweep(scenario: Scenario, shards: usize) -> RunSummary {
    best_of_two(|| {
        WorkloadRunner::new(scenario.clone())
            .with_shards(shards)
            .recompute_every(0)
            .verified(true)
            .run()
    })
}

/// One pool run at S=4. `force_pipeline` drops the parallel threshold to
/// 0 (the small-batch sweep needs it: b = 48 is below the default
/// threshold of 128, and the sequential path never reaches the pool).
fn run_pipeline(scenario: Scenario, force_pipeline: bool) -> RunSummary {
    let mut runner = WorkloadRunner::new(scenario)
        .with_shards(4)
        .recompute_every(0)
        .verified(true);
    if force_pipeline {
        runner = runner.with_parallel_threshold(0);
    }
    runner.run()
}

/// Builds a sorted, duplicate-free neighbour list of `len` ids spaced
/// `stride` apart, offset so the two sweep inputs interleave and share
/// some members (both kernel regimes must do real matching work).
fn kernel_list(len: usize, stride: u32, offset: u32) -> Vec<NodeId> {
    (0..len as u32)
        .map(|i| NodeId(offset + i * stride))
        .collect()
}

/// Times `count_common` on one input pair and reports throughput in
/// millions of elements scanned per second (elements = |a| + |b| per
/// call, the merge kernel's natural unit; the galloping path's win shows
/// up as scanning "more" elements per second than it ever touches).
fn time_kernel(a: &[NodeId], b: &[NodeId], iters: usize) -> f64 {
    let mut hits = 0usize;
    let start = Instant::now();
    for _ in 0..iters {
        hits += count_common(std::hint::black_box(a), std::hint::black_box(b));
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    std::hint::black_box(hits);
    (iters * (a.len() + b.len())) as f64 / secs / 1e6
}

/// The intersect-kernel microbench: one degree-skewed pair whose ratio
/// clears [`GALLOP_RATIO`] (64 vs 8192, ratio 128 — the hub-adjacent
/// regime where galloping skips most of the long list) and one balanced
/// pair (4096 vs 4096 — the regime the branch-light merge owns). Both
/// numbers are gated, so neither regime of the adaptive kernel can
/// regress silently. Returns (skewed, balanced) in Melems/s, best of
/// two passes like every other gated sweep.
fn intersect_kernel_sweep(quick: bool) -> (f64, f64) {
    let small = kernel_list(64, 131, 0);
    let big = kernel_list(8_192, 1, 0);
    debug_assert!(big.len() / small.len() >= GALLOP_RATIO);
    let bal_a = kernel_list(4_096, 2, 0);
    let bal_b = kernel_list(4_096, 3, 1);
    let iters = if quick { 2_000 } else { 20_000 };
    let skewed = time_kernel(&small, &big, iters).max(time_kernel(&small, &big, iters));
    let balanced = time_kernel(&bal_a, &bal_b, iters).max(time_kernel(&bal_a, &bal_b, iters));
    (skewed, balanced)
}

/// Re-runs one pooled sharded stream, one distributed convergecast
/// stream (clean, then again under a seeded loss plan so the recovery
/// span family is exercised) and one served stream with leased readers,
/// all with span tracing enabled, then writes everything recorded as chrome://tracing
/// trace-event JSON — one file carrying every span family `trace_check`
/// requires. The runs stay oracle-verified: tracing is
/// observation-only, and this is where CI proves the exporter end of
/// that claim (the lockstep tests prove the engine end).
fn capture_trace(path: &std::path::Path) {
    congest_obs::trace::clear();
    congest_obs::set_enabled(true);

    // Pooled sharded engine on the small-batch stream: parallel
    // threshold 0 keeps every batch on the pool, so all five apply
    // phases appear in the trace deterministically.
    let pooled = WorkloadRunner::new(smallbatch_scenario(true))
        .with_shards(4)
        .recompute_every(0)
        .verified(true)
        .with_parallel_threshold(0)
        .run();
    assert!(pooled.oracle_ok, "traced sharded run diverged from oracle");

    // Distributed convergecast engine on a small churn stream: emits the
    // classify/plan/broadcast/convergecast/merge epoch phases.
    let scenario = Scenario::uniform_churn(60, 6, 30)
        .with_base(BaseGraph::Gnp { p: 0.06 })
        .seeded(0x7AACE);
    let base = scenario.base_graph();
    let mut engine =
        DistributedTriangleEngine::from_graph(&base).with_aggregation(Aggregation::Convergecast);
    for batch in scenario.batches() {
        engine
            .apply(&batch)
            .expect("scenario batches only touch in-range nodes");
    }
    assert!(engine.matches_oracle(), "traced distributed run diverged");

    // The same churn stream under a seeded 2% loss plan: trailer
    // verification failures drive bounded retransmission epochs, which
    // is what records the distributed/recovery span family.
    let mut faulted = DistributedTriangleEngine::from_graph(&base)
        .with_aggregation(Aggregation::Convergecast)
        .with_fault_plan(FaultPlan::default().with_drop(0.02).with_seed(0x0000_FA17));
    for batch in scenario.batches() {
        faulted
            .apply(&batch)
            .expect("traced faulted stream must recover within the repair budget");
    }
    assert!(faulted.matches_oracle(), "traced faulted run diverged");
    assert!(
        faulted.recovery_stats().epoch_repairs > 0,
        "traced faulted run ran no repairs; the recovery span would be absent"
    );

    // Served stream with leased readers: emits the serve/publish (one
    // per applied batch), serve/lease_acquire and serve/query families.
    let serve_scenario = Scenario::uniform_churn(200, 4, 64)
        .with_base(BaseGraph::Gnp { p: 0.05 })
        .seeded(0x5E47E);
    let serve_base = serve_scenario.base_graph();
    let mut server = TriangleServer::new(ShardedTriangleIndex::from_graph(&serve_base, 4));
    let handle = server.handle();
    for batch in serve_scenario.batches() {
        server
            .apply(&batch)
            .expect("scenario batches only touch in-range nodes");
        let lease = handle.lease();
        std::hint::black_box(lease.triangle_count());
        std::hint::black_box(lease.node_support(NodeId(0)));
        std::hint::black_box(lease.top_k_support(4));
    }
    assert!(
        server.engine().matches_oracle(),
        "traced serve run diverged"
    );

    congest_obs::set_enabled(false);
    let events = congest_obs::trace::drain();
    let dropped = congest_obs::trace::dropped();
    congest_obs::trace::write_chrome_trace(path, &events)
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!(
        "\nwrote {} ({} trace events, {} dropped)",
        path.display(),
        events.len(),
        dropped,
    );
    println!(
        "\n{}",
        congest_obs::report::text_report(&events, &congest_obs::snapshot())
    );
}

/// Cap on the per-round latency series embedded in the replay JSON:
/// enough to plot CI's quick replay end to end without the file growing
/// with the input. Rounds past the cap still land in the histogram
/// percentiles; the JSON records how many were truncated.
const REPLAY_SERIES_CAP: usize = 256;

/// The `--input` temporal-file replay: loads the file, runs it through
/// the single-threaded and S=4 pooled engines via [`WorkloadRunner`]
/// (both oracle-verified), then drives one more pass manually to record
/// the per-round latency series through a `congest-obs` histogram and to
/// hold [`split_batch_for_workers`] to its per-worker quota on real
/// batches. Returns the `"replay"` JSON object, or `None` without
/// `--input`.
fn run_replay_section(args: &Args) -> Option<String> {
    let path = args.input.as_ref()?;
    let spec = args
        .replay
        .clone()
        .unwrap_or_else(|| "size:500".to_string());
    let policy = ReplayPolicy::parse(&spec).unwrap_or_else(|e| panic!("--replay: {e}"));
    let list = TemporalLoader::new()
        .load_path(path)
        .unwrap_or_else(|e| panic!("--input: {e}"));
    let label = path
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "temporal".to_string());
    let events = list.len();
    let self_loops = list.self_loops_skipped();
    let duplicates = list.duplicates_dropped();
    let replay = Replay::new(list, policy).with_label(&label);
    let fingerprint = replay.fingerprint();
    let rounds = replay.batch_count();

    let single = WorkloadRunner::from_source(replay.clone())
        .recompute_every(0)
        .verified(true)
        .run();
    let sharded = WorkloadRunner::from_source(replay.clone())
        .with_shards(4)
        .recompute_every(0)
        .verified(true)
        .run();
    assert!(single.oracle_ok, "replayed single run diverged from oracle");
    assert!(
        sharded.oracle_ok,
        "replayed sharded run diverged from oracle"
    );
    assert_eq!(single.final_triangles, sharded.final_triangles);

    // Per-round latency pass: one more walk of the stream, this time
    // recording each round individually (the runner only keeps
    // percentiles). The split check rides along on real batches.
    let workers = 4usize;
    let base = replay.base_graph();
    let mut engine = ShardedTriangleIndex::from_graph(&base, workers);
    let mut hist = congest_obs::Histogram::new();
    let mut series_us: Vec<f64> = Vec::new();
    for batch in replay.batch_iter() {
        let parts = split_batch_for_workers(&batch, workers);
        for (i, part) in parts.iter().enumerate() {
            let quota = batch.len() / workers + usize::from(batch.len() % workers > i);
            assert_eq!(part.len(), quota, "worker {i} split quota violated");
        }
        let start = Instant::now();
        engine
            .apply(&batch)
            .expect("replayed batches only touch in-range nodes");
        let d = start.elapsed();
        hist.record(d);
        if series_us.len() < REPLAY_SERIES_CAP {
            series_us.push(d.as_secs_f64() * 1e6);
        }
    }
    assert!(engine.matches_oracle(), "replay latency pass diverged");

    println!(
        "\nreplay: {} ({} events, policy {spec})",
        replay.name(),
        events
    );
    println!(
        "  rounds {rounds}, single {:.0} deltas/s, pooled S=4 {:.0} deltas/s, \
         round p50/p99/max {:.0}/{:.0}/{:.0} us, final triangles {}",
        single.deltas_per_sec,
        sharded.deltas_per_sec,
        hist.value_at_quantile_us(0.50),
        hist.value_at_quantile_us(0.99),
        hist.max_ns() as f64 / 1e3,
        sharded.final_triangles,
    );

    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"file\":\"{}\",\"source\":\"{}\",\"source_fingerprint\":\"{}\",\
         \"policy\":\"{}\",\"node_count\":{},\"events\":{events},\"rounds\":{rounds},\
         \"self_loops_skipped\":{self_loops},\"duplicates_dropped\":{duplicates},\
         \"latency_p50_us\":{},\"latency_p99_us\":{},\"latency_max_us\":{},\
         \"round_latency_truncated\":{},\"round_latency_us\":[",
        json::escape(&path.display().to_string()),
        json::escape(&replay.name()),
        fingerprint_hex(fingerprint),
        json::escape(&spec),
        replay.node_count(),
        json::num(hist.value_at_quantile_us(0.50)),
        json::num(hist.value_at_quantile_us(0.99)),
        json::num(hist.max_ns() as f64 / 1e3),
        rounds.saturating_sub(series_us.len()),
    );
    for (i, us) in series_us.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", json::num(*us));
    }
    out.push_str("],\"runs\":[");
    out.push_str(&single.to_json());
    out.push(',');
    out.push_str(&sharded.to_json());
    out.push_str("]}");
    Some(out)
}

fn main() {
    let args = parse_args();
    let mut table = Table::new([
        "scenario",
        "engine",
        "mode",
        "n",
        "deltas/s",
        "p50 us",
        "p99 us",
        "speedup",
        "final triangles",
        "oracle",
    ]);
    let mut summaries: Vec<RunSummary> = Vec::new();

    for scenario in scenarios() {
        for mode in [ApplyMode::Eager, ApplyMode::Deferred] {
            let summary = run_one(scenario.clone(), mode, 8, &args);
            table.row([
                summary.scenario.clone(),
                "single".to_string(),
                summary.mode.clone(),
                summary.n.to_string(),
                format!("{:.0}", summary.deltas_per_sec),
                fmt_f64(summary.latency.p50_us),
                fmt_f64(summary.latency.p99_us),
                summary
                    .recompute
                    .map(|r| format!("{:.1}x vs recompute", r.speedup))
                    .unwrap_or_else(|| "-".to_string()),
                summary.final_triangles.to_string(),
                if summary.oracle_ok { "ok" } else { "FAIL" }.to_string(),
            ]);
            summaries.push(summary);
        }
    }

    // Headline run: every batch is compared against a recount.
    let headline = best_of_two(|| run_one(headline_scenario(), ApplyMode::Eager, 1, &args));
    let headline_speedup = headline.recompute.map(|r| r.speedup).unwrap_or(f64::NAN);
    table.row([
        headline.scenario.clone(),
        "single".to_string(),
        format!("{} (10k headline)", headline.mode),
        headline.n.to_string(),
        format!("{:.0}", headline.deltas_per_sec),
        fmt_f64(headline.latency.p50_us),
        fmt_f64(headline.latency.p99_us),
        format!("{headline_speedup:.1}x vs recompute"),
        headline.final_triangles.to_string(),
        if headline.oracle_ok { "ok" } else { "FAIL" }.to_string(),
    ]);
    summaries.push(headline.clone());

    // Shard sweep: single-threaded baseline, then S ∈ {1, 2, 4, 8} (or
    // exactly the requested count) on the identical stream.
    let sweep_counts: Vec<usize> = match args.shards {
        Some(s) => vec![s],
        None => vec![1, 2, 4, 8],
    };
    let single = best_of_two(|| {
        WorkloadRunner::new(sweep_scenario())
            .recompute_every(0)
            .verified(true)
            .run()
    });
    table.row([
        single.scenario.clone(),
        "single".to_string(),
        format!("{} (sweep baseline)", single.mode),
        single.n.to_string(),
        format!("{:.0}", single.deltas_per_sec),
        fmt_f64(single.latency.p50_us),
        fmt_f64(single.latency.p99_us),
        "1.0x vs single".to_string(),
        single.final_triangles.to_string(),
        if single.oracle_ok { "ok" } else { "FAIL" }.to_string(),
    ]);
    let mut sweep: Vec<(usize, RunSummary, f64)> = Vec::new();
    for &shards in &sweep_counts {
        let summary = run_sweep(sweep_scenario(), shards);
        let speedup = summary.deltas_per_sec / single.deltas_per_sec;
        table.row([
            summary.scenario.clone(),
            format!("sharded S={shards}"),
            summary.mode.clone(),
            summary.n.to_string(),
            format!("{:.0}", summary.deltas_per_sec),
            fmt_f64(summary.latency.p50_us),
            fmt_f64(summary.latency.p99_us),
            format!("{speedup:.2}x vs single"),
            summary.final_triangles.to_string(),
            if summary.oracle_ok { "ok" } else { "FAIL" }.to_string(),
        ]);
        sweep.push((shards, summary, speedup));
    }
    summaries.push(single.clone());
    summaries.extend(sweep.iter().map(|(_, s, _)| s.clone()));

    // Small-batch sweep: the forced pipeline at S=4 vs the
    // single-threaded engine on an identical high-rate stream of b = 48
    // batches.
    let smallbatch_pool = best_of_three(|| run_pipeline(smallbatch_scenario(args.quick), true));
    let smallbatch_single = best_of_three(|| {
        WorkloadRunner::new(smallbatch_scenario(args.quick))
            .recompute_every(0)
            .verified(true)
            .run()
    });
    let smallbatch_speedup = smallbatch_pool.deltas_per_sec / smallbatch_single.deltas_per_sec;
    // Hotspot sweep: p99 apply latency under power-law hub churn at S=4.
    let hotspot_pool = best_of_three_p99(|| run_pipeline(hotspot_pool_scenario(args.quick), false));
    for (label, summary, note) in [
        (
            "pool S=4 b=48",
            &smallbatch_pool,
            format!("{smallbatch_speedup:.2}x vs single"),
        ),
        (
            "single b=48",
            &smallbatch_single,
            "1.0x vs single".to_string(),
        ),
        (
            "pool S=4 hotspot",
            &hotspot_pool,
            format!(
                "busy max {:.2}",
                hotspot_pool.worker_busy_max_share.unwrap_or(f64::NAN)
            ),
        ),
    ] {
        table.row([
            summary.scenario.clone(),
            label.to_string(),
            summary.mode.clone(),
            summary.n.to_string(),
            format!("{:.0}", summary.deltas_per_sec),
            fmt_f64(summary.latency.p50_us),
            fmt_f64(summary.latency.p99_us),
            note,
            summary.final_triangles.to_string(),
            if summary.oracle_ok { "ok" } else { "FAIL" }.to_string(),
        ]);
        summaries.push(summary.clone());
    }

    // Intersect-kernel microbench: no engine, no stream — just the
    // shared sorted-set intersection core in both adaptive regimes.
    let (kernel_skewed, kernel_balanced) = intersect_kernel_sweep(args.quick);

    println!("# stream_bench — incremental triangle engines under churn\n");
    table.print();

    let hardware_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let s1_ratio = sweep
        .iter()
        .find(|(s, ..)| *s == 1)
        .map(|(_, _, r)| *r)
        .unwrap_or(f64::NAN);
    let s4_speedup = sweep.iter().find(|(s, ..)| *s == 4).map(|(_, _, r)| *r);
    let best_parallel = sweep
        .iter()
        .filter(|(s, ..)| *s > 1)
        .map(|(_, _, r)| *r)
        .fold(f64::NAN, f64::max);

    println!(
        "\nheadline: 10k-node uniform churn, incremental vs recompute speedup = \
         {headline_speedup:.1}x (acceptance floor: 10x)"
    );
    println!(
        "shard sweep ({} hardware threads): S=1 at {:.2}x of the single-threaded engine{}{}",
        hardware_threads,
        s1_ratio,
        s4_speedup
            .map(|r| format!(", S=4 parallel speedup {r:.2}x"))
            .unwrap_or_default(),
        if best_parallel.is_finite() {
            format!(", best parallel {best_parallel:.2}x")
        } else {
            String::new()
        },
    );
    println!(
        "small-batch sweep (b=48, S=4): pool {:.0} deltas/s vs single-threaded {:.0} — {:.2}x",
        smallbatch_pool.deltas_per_sec, smallbatch_single.deltas_per_sec, smallbatch_speedup,
    );
    println!(
        "hotspot sweep (S=4): pool p99 {:.0} us; max/mean worker busy share {}/{}",
        hotspot_pool.latency.p99_us,
        hotspot_pool
            .worker_busy_max_share
            .map(|v| format!("{v:.2}"))
            .unwrap_or_else(|| "-".to_string()),
        hotspot_pool
            .worker_busy_mean_share
            .map(|v| format!("{v:.2}"))
            .unwrap_or_else(|| "-".to_string()),
    );
    println!(
        "intersect kernel: skewed 64v8192 {kernel_skewed:.0} Melems/s (galloping), \
         balanced 4096v4096 {kernel_balanced:.0} Melems/s (merge)"
    );

    // The temporal-file replay (when requested) runs after the gated
    // sweeps so its engine work never contends with a gated measurement.
    let replay_json = run_replay_section(&args);

    let any_oracle_failure = summaries.iter().any(|s| !s.oracle_ok);
    if any_oracle_failure {
        eprintln!("ERROR: at least one run diverged from the centralized oracle");
    }

    // Machine-readable trajectory for future PRs (and the CI gate).
    // The top-level `source_fingerprint` identifies the headline
    // workload; every run summary carries its own.
    let mut json = String::from("{\"bench\":\"stream\",\"schema_version\":6,");
    let _ = write!(
        json,
        "\"args_shards\":{},\"args_flush_deadline_ms\":{},\"quick\":{},\"args_trace_out\":{},\
         \"args_input\":{},\"args_replay\":{},\"source_fingerprint\":\"{}\",",
        args.shards
            .map(|s| s.to_string())
            .unwrap_or_else(|| "null".to_string()),
        args.flush_deadline_ms
            .map(|v| format!("{v:.3}"))
            .unwrap_or_else(|| "null".to_string()),
        u8::from(args.quick),
        args.trace_out
            .as_ref()
            .map(|p| format!("\"{}\"", json::escape(&p.display().to_string())))
            .unwrap_or_else(|| "null".to_string()),
        args.input
            .as_ref()
            .map(|p| format!("\"{}\"", json::escape(&p.display().to_string())))
            .unwrap_or_else(|| "null".to_string()),
        args.replay
            .as_ref()
            .map(|s| format!("\"{}\"", json::escape(s)))
            .unwrap_or_else(|| "null".to_string()),
        fingerprint_hex(BatchSource::fingerprint(&headline_scenario())),
    );
    json.push_str("\"runs\":[");
    for (i, s) in summaries.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&s.to_json());
    }
    json.push_str("],\"shard_sweep\":[");
    for (i, (shards, summary, speedup)) in sweep.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"shards\":{shards},\"deltas_per_sec\":{:.3},\"speedup_vs_single\":{speedup:.4}}}",
            summary.deltas_per_sec
        );
    }
    // `json::num` is the shared non-finite→null formatter; the counter/
    // gauge registry snapshot rides along so the trajectory records what
    // the engines observed about themselves (busy shares, waves, flush
    // staleness) without any extra plumbing per metric.
    let _ = write!(
        json,
        "],\"hardware_threads\":{hardware_threads},\
         \"sweep_single_deltas_per_sec\":{:.3},\
         \"sweep_s1_ratio\":{},\
         \"sweep_best_parallel_speedup\":{},\
         \"headline_deltas_per_sec\":{:.3},\
         \"headline_speedup_vs_recompute\":{},\
         \"smallbatch_pool_deltas_per_sec\":{:.3},\
         \"smallbatch_single_deltas_per_sec\":{:.3},\
         \"smallbatch_pool_speedup_vs_single\":{},\
         \"hotspot_pool_p99_us\":{:.3},\
         \"hotspot_pool_worker_busy_max_share\":{},\
         \"hotspot_pool_worker_busy_mean_share\":{},\
         \"intersect_kernel_skewed_melems_per_sec\":{:.3},\
         \"intersect_kernel_balanced_melems_per_sec\":{:.3},\
         \"replay\":{},\
         \"obs\":{}}}",
        single.deltas_per_sec,
        json::num(s1_ratio),
        json::num(best_parallel),
        headline.deltas_per_sec,
        json::num(headline_speedup),
        smallbatch_pool.deltas_per_sec,
        smallbatch_single.deltas_per_sec,
        json::num(smallbatch_speedup),
        hotspot_pool.latency.p99_us,
        json::num(hotspot_pool.worker_busy_max_share.unwrap_or(f64::NAN)),
        json::num(hotspot_pool.worker_busy_mean_share.unwrap_or(f64::NAN)),
        kernel_skewed,
        kernel_balanced,
        replay_json.as_deref().unwrap_or("null"),
        congest_obs::snapshot().to_json(),
    );
    std::fs::write("BENCH_stream.json", &json).expect("write BENCH_stream.json");
    println!("\nwrote BENCH_stream.json ({} runs)", summaries.len());

    // Trace capture runs strictly after the gated sweeps (which always
    // execute with tracing disabled) and after the JSON snapshot, so
    // neither the gated metrics nor the recorded registry gauges see the
    // instrumented re-runs.
    if let Some(path) = &args.trace_out {
        capture_trace(path);
    }

    // Enforced floors. The parallel-speedup floor only binds where the
    // hardware can express parallelism at all.
    let mut failed = any_oracle_failure;
    if !headline_speedup.is_finite() || headline_speedup < 10.0 {
        eprintln!("ERROR: headline speedup {headline_speedup:.1}x below the 10x floor");
        failed = true;
    }
    if s1_ratio.is_finite() && s1_ratio < 0.85 {
        eprintln!(
            "ERROR: sharded S=1 at {s1_ratio:.2}x of the single-threaded engine \
             (floor: 0.85x, target: within 10%)"
        );
        failed = true;
    }
    if hardware_threads as f64 >= PARALLEL_FLOOR_MIN_THREADS {
        if let Some(speedup) = s4_speedup {
            if speedup < 1.5 {
                eprintln!(
                    "ERROR: S=4 parallel speedup {speedup:.2}x below the 1.5x floor \
                     on a {hardware_threads}-thread machine"
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
