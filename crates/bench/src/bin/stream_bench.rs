//! Streaming workload benchmark — load-tests the `congest-stream`
//! incremental triangle engines the way a service is load-tested.
//!
//! Two sections, plus a third under `--input`:
//!
//! * the **matrix** crosses the four churn scenarios (uniform, hotspot,
//!   planted-burst, grow-then-shrink) with eager and deferred application
//!   on the single-threaded engine;
//! * the **shard sweep** drives a denser 10k-node uniform-churn stream
//!   through [`ShardedTriangleIndex`]
//!   at S ∈ {1, 2, 4, 8} and reports the parallel speedup over the
//!   single-threaded [`TriangleIndex`](congest_stream::TriangleIndex) on
//!   the identical stream. The S=1 run must stay within 15% of the
//!   single-threaded engine everywhere; the S=4 ≥ 1.5x floor is
//!   evaluated only with [`PARALLEL_FLOOR_MIN_THREADS`] hardware threads,
//!   and a run on fewer says so rather than skipping it silently — no
//!   committed baseline has ever been taken on such a machine;
//! * the **replay** (`--input FILE`) replays a temporal `src dst [w] time`
//!   edge list through the single-threaded and pooled engines after the
//!   sweeps, batched by `--replay {size:N|window:MS}` (default
//!   `size:500`), and lands the whole replay — source fingerprint,
//!   per-round latency series, both run summaries — in a `"replay"`
//!   JSON section.
//!
//! What this binary no longer measures, because `perf_report` measures
//! it per layer: incremental-vs-recompute speedup and headline
//! throughput (`index.speedup_vs_recompute`, `deltas_per_s`), the
//! small-batch and hotspot pool sweeps (`pool_smallbatch`, `pool.*`)
//! and the intersection kernel (`graph.kernel_*`).
//!
//! Flags: `--quick` is what CI and the committed `BENCH_stream.json`
//! run; every remaining section already runs at CI size, so it only
//! lands in the fingerprint `gate` compares under. `--trace-out PATH`
//! re-runs one pooled sharded stream, one distributed convergecast
//! stream and one served stream with leased readers *after* the sweeps
//! with span tracing enabled and writes the collected spans as
//! chrome://tracing trace-event JSON (the sweeps themselves always run
//! with tracing disabled). All flags are recorded in the JSON metadata.
//!
//! Output: a plain-text table on stdout (diffable, like every other
//! harness binary) and a machine-readable `BENCH_stream.json` in the
//! current directory; CI diffs it against the committed baseline with
//! `gate`.

use std::time::Instant;

use congest_bench::{json, table::fmt_f64, Table};
use congest_graph::temporal::{fingerprint_hex, TemporalLoader};
use congest_graph::NodeId;
use congest_stream::{
    BaseGraph, BatchSource, DistributedTriangleEngine, FaultPlan, Replay, ReplayPolicy, RunSummary,
    Scenario, ShardedTriangleIndex, TriangleServer, WorkloadRunner,
};

/// Minimum hardware threads for the S=4 parallel-speedup floor to bind:
/// below it the pool's workers share cores and the floor cannot be met
/// by any implementation.
const PARALLEL_FLOOR_MIN_THREADS: usize = 4;

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

/// The shard-sweep scenario: 10k nodes with a denser base (mean degree
/// ~50) and much larger batches, so per-batch intersection work dominates
/// the pipeline's fixed costs (partition, hand-off, candidate merge)
/// and parallelism has something to chew on.
fn sweep_scenario() -> Scenario {
    Scenario::uniform_churn(10_000, 8, 20_000)
        .with_base(BaseGraph::Gnp { p: 0.005 })
        .seeded(0x54A2D)
}

/// Command-line knobs (also recorded in the JSON metadata).
#[derive(Debug, Clone, Default)]
struct Args {
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
            "--quick" => args.quick = true,
            "--trace-out" => args.trace_out = Some(value("--trace-out").into()),
            "--input" => args.input = Some(value("--input").into()),
            "--replay" => {
                let spec = value("--replay");
                // Validate eagerly so a typo fails before the sweeps.
                ReplayPolicy::parse(&spec).unwrap_or_else(|e| panic!("--replay: {e}"));
                args.replay = Some(spec);
            }
            other => {
                panic!("unknown flag {other} (expected --quick, --trace-out, --input or --replay)")
            }
        }
    }
    args
}

/// Runs a measurement twice and keeps the faster run: scheduler noise
/// and CPU contention only ever *hurt* throughput, so best-of-two is
/// the cheap robust estimator for the gated sweep.
fn best_of_two(run: impl Fn() -> RunSummary) -> RunSummary {
    let (first, second) = (run(), run());
    if second.deltas_per_sec > first.deltas_per_sec {
        second
    } else {
        first
    }
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

    // Pooled sharded engine on 2 048-delta batches: past the pool's
    // hand-off floor whatever the degrees, so every batch runs on the
    // pool and all five apply phases appear in the trace
    // deterministically.
    let pooled_scenario = Scenario::uniform_churn(2_000, 8, 2_048)
        .with_base(BaseGraph::Gnp { p: 0.005 })
        .seeded(0x5B47C4);
    let pooled = WorkloadRunner::new(pooled_scenario)
        .with_shards(4)
        .recompute_every(0)
        .verified(true)
        .run();
    assert!(pooled.oracle_ok, "traced sharded run diverged from oracle");

    // Distributed convergecast engine on a small churn stream: emits the
    // classify/plan/broadcast/convergecast/merge epoch phases.
    let scenario = Scenario::uniform_churn(60, 6, 30)
        .with_base(BaseGraph::Gnp { p: 0.06 })
        .seeded(0x7AACE);
    let base = scenario.base_graph();
    let mut engine = DistributedTriangleEngine::from_graph(&base);
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
/// (both oracle-verified), then drives one more S=4 pass manually to
/// record the per-round latency series through a `congest-obs`
/// histogram. Returns the `"replay"` JSON object, or `None` without
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
    // percentiles).
    let base = replay.base_graph();
    let mut engine = ShardedTriangleIndex::from_graph(&base, 4);
    let mut hist = congest_obs::Histogram::new();
    let mut series_us: Vec<f64> = Vec::new();
    for batch in replay.batch_iter() {
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

    let series: Vec<String> = series_us.iter().map(|&us| json::num(us)).collect();
    let mut out = String::from("{");
    json::push_str(&mut out, "file", &path.display().to_string());
    json::push_str(&mut out, "source", &replay.name());
    json::push_str(
        &mut out,
        "source_fingerprint",
        &fingerprint_hex(replay.fingerprint()),
    );
    json::push_str(&mut out, "policy", &spec);
    json::push_num(&mut out, "node_count", replay.node_count() as f64);
    json::push_num(&mut out, "events", events as f64);
    json::push_num(&mut out, "rounds", rounds as f64);
    json::push_num(&mut out, "self_loops_skipped", self_loops as f64);
    json::push_num(&mut out, "duplicates_dropped", duplicates as f64);
    json::push_num(&mut out, "latency_p50_us", hist.value_at_quantile_us(0.50));
    json::push_num(&mut out, "latency_p99_us", hist.value_at_quantile_us(0.99));
    json::push_num(&mut out, "latency_max_us", hist.max_ns() as f64 / 1e3);
    json::push_num(
        &mut out,
        "round_latency_truncated",
        rounds.saturating_sub(series_us.len()) as f64,
    );
    json::push_raw(
        &mut out,
        "round_latency_us",
        &format!("[{}]", series.join(",")),
    );
    json::push_raw(
        &mut out,
        "runs",
        &format!("[{},{}]", single.to_json(), sharded.to_json()),
    );
    json::finish_object(&mut out);
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
    let row = |table: &mut Table, summary: &RunSummary, engine: String, mode, note| {
        table.row([
            summary.scenario.clone(),
            engine,
            mode,
            summary.n.to_string(),
            format!("{:.0}", summary.deltas_per_sec),
            fmt_f64(summary.latency.p50_us),
            fmt_f64(summary.latency.p99_us),
            note,
            summary.final_triangles.to_string(),
            if summary.oracle_ok { "ok" } else { "FAIL" }.to_string(),
        ]);
    };

    for scenario in scenarios() {
        for deferred in [false, true] {
            let mut runner = WorkloadRunner::new(scenario.clone())
                .recompute_every(8)
                .verified(true);
            if deferred {
                runner = runner.flush_every(4);
            }
            let summary = runner.run();
            let note = summary
                .recompute
                .map(|r| format!("{:.1}x vs recompute", r.speedup))
                .unwrap_or_else(|| "-".to_string());
            row(
                &mut table,
                &summary,
                "single".to_string(),
                summary.mode.clone(),
                note,
            );
            summaries.push(summary);
        }
    }

    // Shard sweep: single-threaded baseline, then S ∈ {1, 2, 4, 8} on
    // the identical stream.
    let single = best_of_two(|| {
        WorkloadRunner::new(sweep_scenario())
            .recompute_every(0)
            .verified(true)
            .run()
    });
    row(
        &mut table,
        &single,
        "single".to_string(),
        format!("{} (sweep baseline)", single.mode),
        "1.0x vs single".to_string(),
    );
    let mut sweep: Vec<(usize, RunSummary, f64)> = Vec::new();
    for shards in [1, 2, 4, 8] {
        let summary = best_of_two(|| {
            WorkloadRunner::new(sweep_scenario())
                .with_shards(shards)
                .recompute_every(0)
                .verified(true)
                .run()
        });
        let speedup = summary.deltas_per_sec / single.deltas_per_sec;
        row(
            &mut table,
            &summary,
            format!("sharded S={shards}"),
            summary.mode.clone(),
            format!("{speedup:.2}x vs single"),
        );
        sweep.push((shards, summary, speedup));
    }
    summaries.push(single.clone());
    summaries.extend(sweep.iter().map(|(_, s, _)| s.clone()));

    println!("# stream_bench — incremental triangle engines under churn\n");
    table.print();

    let hardware_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let speedup_at = |shards: usize| sweep.iter().find(|(s, ..)| *s == shards).map(|t| t.2);
    let s1_ratio = speedup_at(1).unwrap_or(f64::NAN);
    let s4_speedup = speedup_at(4).unwrap_or(f64::NAN);
    let best_parallel = sweep
        .iter()
        .filter(|(s, ..)| *s > 1)
        .map(|(_, _, r)| *r)
        .fold(f64::NAN, f64::max);
    println!(
        "\nshard sweep ({hardware_threads} hardware threads): S=1 at {s1_ratio:.2}x of the \
         single-threaded engine, S=4 parallel speedup {s4_speedup:.2}x, best parallel \
         {best_parallel:.2}x"
    );

    // The temporal-file replay (when requested) runs after the gated
    // sweep so its engine work never contends with a gated measurement.
    let replay_json = run_replay_section(&args);

    let any_oracle_failure = summaries.iter().any(|s| !s.oracle_ok);
    if any_oracle_failure {
        eprintln!("ERROR: at least one run diverged from the centralized oracle");
    }

    // Machine-readable trajectory for future PRs (and the CI gate).
    // The top-level `source_fingerprint` identifies the shard sweep's
    // stream — the source of the one gated row; every run summary
    // carries its own. The counter/gauge registry snapshot rides along
    // so the trajectory records what the engines observed about
    // themselves (busy shares, waves, flush staleness).
    let push_opt = |out: &mut String, key: &str, value: Option<String>| match value {
        Some(value) => json::push_str(out, key, &value),
        None => json::push_raw(out, key, "null"),
    };
    let path_text = |p: &Option<std::path::PathBuf>| p.as_ref().map(|p| p.display().to_string());
    let runs: Vec<String> = summaries.iter().map(RunSummary::to_json).collect();
    let shard_sweep: Vec<String> = sweep
        .iter()
        .map(|(shards, summary, speedup)| {
            let mut entry = String::from("{");
            json::push_num(&mut entry, "shards", *shards as f64);
            json::push_num(&mut entry, "deltas_per_sec", summary.deltas_per_sec);
            json::push_num(&mut entry, "speedup_vs_single", *speedup);
            json::finish_object(&mut entry);
            entry
        })
        .collect();
    let mut out = String::from("{");
    json::push_str(&mut out, "bench", "stream");
    json::push_num(&mut out, "schema_version", 8.0);
    json::push_num(&mut out, "quick", f64::from(u8::from(args.quick)));
    push_opt(&mut out, "args_trace_out", path_text(&args.trace_out));
    push_opt(&mut out, "args_input", path_text(&args.input));
    push_opt(&mut out, "args_replay", args.replay.clone());
    json::push_str(
        &mut out,
        "source_fingerprint",
        &fingerprint_hex(BatchSource::fingerprint(&sweep_scenario())),
    );
    json::push_raw(&mut out, "runs", &format!("[{}]", runs.join(",")));
    json::push_raw(
        &mut out,
        "shard_sweep",
        &format!("[{}]", shard_sweep.join(",")),
    );
    json::push_num(&mut out, "hardware_threads", hardware_threads as f64);
    json::push_num(
        &mut out,
        "sweep_single_deltas_per_sec",
        single.deltas_per_sec,
    );
    json::push_num(&mut out, "sweep_s1_ratio", s1_ratio);
    json::push_num(&mut out, "sweep_best_parallel_speedup", best_parallel);
    json::push_raw(&mut out, "replay", replay_json.as_deref().unwrap_or("null"));
    json::push_raw(&mut out, "obs", &congest_obs::snapshot().to_json());
    json::finish_object(&mut out);
    std::fs::write("BENCH_stream.json", &out).expect("write BENCH_stream.json");
    println!("\nwrote BENCH_stream.json ({} runs)", summaries.len());

    // Trace capture runs strictly after the sweeps (which always execute
    // with tracing disabled) and after the JSON snapshot, so neither the
    // gated metric nor the recorded registry gauges see the instrumented
    // re-runs.
    if let Some(path) = &args.trace_out {
        capture_trace(path);
    }

    // Enforced floors. The parallel-speedup floor only binds where the
    // hardware can express parallelism at all, and says so when not.
    let mut failed = any_oracle_failure;
    if s1_ratio.is_finite() && s1_ratio < 0.85 {
        eprintln!(
            "ERROR: sharded S=1 at {s1_ratio:.2}x of the single-threaded engine \
             (floor: 0.85x, target: within 10%)"
        );
        failed = true;
    }
    if hardware_threads < PARALLEL_FLOOR_MIN_THREADS {
        println!(
            "S=4 ≥ 1.5x floor not evaluated on {hardware_threads} hardware thread(s) \
             (needs ≥ {PARALLEL_FLOOR_MIN_THREADS})"
        );
    } else if s4_speedup < 1.5 {
        eprintln!(
            "ERROR: S=4 parallel speedup {s4_speedup:.2}x below the 1.5x floor \
             on a {hardware_threads}-thread machine"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
