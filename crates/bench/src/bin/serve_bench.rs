//! Serve-mode SLO harness: an open-loop load generator over the
//! epoch-stamped lease layer (`TriangleServer`).
//!
//! Three phases, all run with span tracing disabled so the gated
//! numbers never pay for instrumentation:
//!
//! 1. **SLO ramp** — reader threads issue leased queries (count /
//!    node-support / edge-in-triangle / top-k) on a *fixed arrival
//!    schedule* while the writer applies churn batches uninterrupted.
//!    The schedule is open-loop: each query's latency is measured from
//!    its scheduled arrival, not its issue time, so queueing delay when
//!    the server falls behind is charged to the server (no coordinated
//!    omission). The target rate doubles until a step trips — achieved
//!    rate below 90% of target, or more than 1% of reads over the 1 ms
//!    SLO — and the last passing step is the **max sustainable rate**,
//!    reported with its p50/p99 read latencies.
//! 2. **Write-throughput ratio** — the writer's delta throughput with a
//!    full reader complement leasing under its feet, over the same
//!    writer with no readers attached. The serving layer's contract is
//!    that readers never block the write pipeline, so this must stay
//!    at 0.9 or above (enforced in-binary on machines with >= 4
//!    hardware threads, best-of-two).
//! 3. **Read scaling** — closed-loop aggregate query throughput at 1,
//!    2 and 4 reader threads; the best multi-reader rate must beat the
//!    single-reader rate by >= 1.2x on >= 4-thread machines, proving
//!    leases actually let readers scale instead of serializing them.
//!
//! `--quick` shrinks the graph, windows and ramp cap (what CI runs);
//! `--readers N` overrides the reader-thread count. `--input FILE`
//! swaps the synthetic churn scenario for a replayed temporal edge-list
//! file (`src dst [w] time` lines) batched by `--replay
//! size:N|window:MS` (default `size:500`) — the load generator then
//! cycles the recorded batches instead of the generated ones. Results
//! land in `BENCH_serve.json` — flat top-level keys for the gated
//! metrics (`serve_max_sustainable_rps`, `serve_read_p50_us`,
//! `serve_read_p99_us`, `serve_write_throughput_ratio`),
//! `cow_clones_per_batch` (whole-shard copies per batch with the
//! readers attached; near zero unless leases pin every retained write
//! buffer) plus the
//! `hardware_threads`/`quick`/`source_fingerprint` fingerprint
//! `gate` compares under (a baseline recorded against one batch
//! source never gates a run against another), and the observability
//! registry snapshot (which carries the `serve.active_leases` /
//! `serve.oldest_lease_epoch_lag` gauges from the final publishes).

use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use congest_bench::gate::{PARALLEL_FLOOR_MIN_THREADS, SERVE_WRITE_RATIO_FLOOR};
use congest_bench::{table::fmt_f64, Table};
use congest_graph::temporal::{fingerprint_hex, TemporalLoader};
use congest_graph::{AdjacencyView, Graph, NodeId};
use congest_obs::Histogram;
use congest_stream::{
    BaseGraph, BatchSource, DeltaBatch, Replay, ReplayPolicy, Scenario, ShardedTriangleIndex,
    TriangleServer,
};

/// Read SLO: a leased point query must complete within 1 ms of its
/// scheduled arrival. Reads are sub-microsecond when the server keeps
/// up, so breaching this means queueing, not work.
const SLO_US: f64 = 1000.0;
/// Maximum fraction of reads allowed over the SLO before a ramp step
/// trips.
const OVER_SLO_LIMIT: f64 = 0.01;
/// A step also trips when the achieved rate falls below this fraction
/// of the target (the drain overran the window — the server saturated).
const ACHIEVED_FRACTION: f64 = 0.90;
/// First ramp target in reads/sec.
const RAMP_START_RPS: f64 = 2000.0;
/// Floor for the best multi-reader closed-loop rate over the
/// single-reader rate (enforced on >= 4-thread machines).
const READ_SCALING_FLOOR: f64 = 1.2;

#[derive(Debug)]
struct Args {
    quick: bool,
    readers: Option<usize>,
    input: Option<std::path::PathBuf>,
    replay: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        readers: None,
        input: None,
        replay: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--readers" => {
                let v = it.next().expect("--readers needs a value");
                args.readers = Some(v.parse().expect("--readers takes a positive integer"));
            }
            "--input" => {
                args.input = Some(it.next().expect("--input requires a file path").into());
            }
            "--replay" => {
                let spec = it.next().expect("--replay requires size:N or window:MS");
                ReplayPolicy::parse(&spec).unwrap_or_else(|e| panic!("--replay: {e}"));
                args.replay = Some(spec);
            }
            other => panic!(
                "unknown flag {other:?} (supported: --quick, --readers N, \
                 --input FILE, --replay size:N|window:MS)"
            ),
        }
    }
    args
}

/// Hybrid wait until `deadline_ns` after `start`: sleep while more than
/// ~200 µs remain (leaving 100 µs of slack for wake-up jitter), then
/// spin — the open-loop schedule needs microsecond-accurate arrivals
/// without burning a core between distant ones.
fn wait_until(start: Instant, deadline_ns: u64) {
    loop {
        let now = start.elapsed().as_nanos() as u64;
        if now >= deadline_ns {
            return;
        }
        let remain = deadline_ns - now;
        if remain > 200_000 {
            std::thread::sleep(Duration::from_nanos(remain - 100_000));
        } else {
            std::hint::spin_loop();
        }
    }
}

fn make_server(base: &Graph, shards: usize) -> TriangleServer {
    TriangleServer::new(ShardedTriangleIndex::from_graph(base, shards))
}

/// One open-loop measurement step at a fixed target rate.
#[derive(Debug, Clone)]
struct StepOutcome {
    target_rps: f64,
    achieved_rps: f64,
    p50_us: f64,
    p99_us: f64,
    over_slo: f64,
}

impl StepOutcome {
    fn passes(&self) -> bool {
        self.over_slo <= OVER_SLO_LIMIT && self.achieved_rps >= ACHIEVED_FRACTION * self.target_rps
    }
}

/// Runs one ramp step: `readers` threads on interleaved fixed-arrival
/// schedules summing to `target_rps`, the writer cycling churn batches
/// on the main thread for the whole window. Latency is measured from
/// the scheduled arrival; every arrival inside the window is drained
/// even when overdue, so saturation shows up as queueing latency and a
/// depressed achieved rate rather than silently dropped load.
fn open_loop_step(
    base: &Graph,
    batches: &[DeltaBatch],
    readers: usize,
    target_rps: f64,
    window: Duration,
) -> StepOutcome {
    let mut server = make_server(base, 4);
    let handle = server.handle();
    let n = base.node_count() as u32;
    let window_ns = window.as_nanos() as u64;
    let interval_ns = readers as f64 * 1e9 / target_rps;
    let start = Instant::now();

    let per_thread: Vec<(Histogram, u64, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..readers)
            .map(|r| {
                let handle = handle.clone();
                scope.spawn(move || {
                    let mut hist = Histogram::new();
                    let mut over = 0u64;
                    let mut last_done_ns = 0u64;
                    let mut node = r as u32;
                    let offset_ns = (interval_ns * r as f64 / readers as f64) as u64;
                    let mut i = 0u64;
                    loop {
                        let scheduled = offset_ns + (i as f64 * interval_ns) as u64;
                        if scheduled >= window_ns {
                            break;
                        }
                        wait_until(start, scheduled);
                        let lease = handle.lease();
                        match i % 4 {
                            0 => {
                                black_box(lease.triangle_count());
                            }
                            1 => {
                                black_box(lease.node_support(NodeId(node % n)));
                            }
                            2 => {
                                let a = NodeId(node % n);
                                if let Some(&b) = lease.neighbors(a).first() {
                                    black_box(lease.edge_in_triangle(a, b));
                                }
                            }
                            _ => {
                                black_box(lease.top_k_support(8));
                            }
                        }
                        let done = start.elapsed().as_nanos() as u64;
                        let latency = done - scheduled;
                        hist.record_ns(latency);
                        if latency as f64 / 1e3 > SLO_US {
                            over += 1;
                        }
                        last_done_ns = done;
                        node = node.wrapping_add(1);
                        i += 1;
                    }
                    (hist, over, last_done_ns)
                })
            })
            .collect();

        // The write pipeline runs uninterrupted under the readers.
        let mut b = 0usize;
        while start.elapsed() < window {
            server
                .apply(&batches[b % batches.len()])
                .expect("scenario batches only touch in-range nodes");
            b += 1;
        }
        workers
            .into_iter()
            .map(|w| w.join().expect("reader thread panicked"))
            .collect()
    });

    let mut hist = Histogram::new();
    let mut over = 0u64;
    let mut last_done_ns = window_ns;
    for (h, o, last) in &per_thread {
        hist.merge(h);
        over += o;
        last_done_ns = last_done_ns.max(*last);
    }
    let completed = hist.count();
    StepOutcome {
        target_rps,
        achieved_rps: completed as f64 * 1e9 / last_done_ns.max(1) as f64,
        p50_us: hist.value_at_quantile_us(0.5),
        p99_us: hist.value_at_quantile_us(0.99),
        over_slo: if completed == 0 {
            1.0
        } else {
            over as f64 / completed as f64
        },
    }
}

/// Doubles the target rate until a step trips (each step gets a second
/// try before counting as tripped — a single scheduler hiccup must not
/// end the ramp early). Returns the last passing step and the full
/// trajectory.
fn ramp(
    base: &Graph,
    batches: &[DeltaBatch],
    readers: usize,
    window: Duration,
    cap_rps: f64,
) -> (Option<StepOutcome>, Vec<StepOutcome>) {
    let mut best = None;
    let mut steps = Vec::new();
    let mut target = RAMP_START_RPS;
    while target <= cap_rps {
        let mut outcome = open_loop_step(base, batches, readers, target, window);
        if !outcome.passes() {
            let retry = open_loop_step(base, batches, readers, target, window);
            if retry.passes() || retry.achieved_rps > outcome.achieved_rps {
                outcome = retry;
            }
        }
        let passed = outcome.passes();
        steps.push(outcome.clone());
        if !passed {
            break;
        }
        best = Some(outcome);
        target *= 2.0;
    }
    (best, steps)
}

/// The writer's delta throughput over one window with `readers`
/// closed-loop reader threads attached (0 = the detached baseline), and
/// how many whole-shard copies a batch cost it on average — the
/// fallback left when readers pin every retained write buffer
/// (`TriangleServer::cow_stats`).
fn write_throughput(
    base: &Graph,
    batches: &[DeltaBatch],
    readers: usize,
    window: Duration,
) -> (f64, f64) {
    let mut server = make_server(base, 4);
    let handle = server.handle();
    let n = base.node_count() as u32;
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for r in 0..readers {
            let handle = handle.clone();
            let done = &done;
            scope.spawn(move || {
                let mut node = r as u32;
                while !done.load(Ordering::Acquire) {
                    let lease = handle.lease();
                    black_box(lease.triangle_count());
                    black_box(lease.node_support(NodeId(node % n)));
                    node = node.wrapping_add(1);
                }
            });
        }
        let start = Instant::now();
        let mut deltas = 0usize;
        let mut b = 0usize;
        while start.elapsed() < window {
            let batch = &batches[b % batches.len()];
            server
                .apply(batch)
                .expect("scenario batches only touch in-range nodes");
            deltas += batch.len();
            b += 1;
        }
        let elapsed = start.elapsed().as_secs_f64();
        done.store(true, Ordering::Release);
        (
            deltas as f64 / elapsed,
            server.cow_stats().clones as f64 / b.max(1) as f64,
        )
    })
}

/// Aggregate closed-loop query throughput with `readers` threads while
/// the writer churns — the scaling probe.
fn closed_loop_reads(
    base: &Graph,
    batches: &[DeltaBatch],
    readers: usize,
    window: Duration,
) -> f64 {
    let mut server = make_server(base, 4);
    let handle = server.handle();
    let n = base.node_count() as u32;
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..readers)
            .map(|r| {
                let handle = handle.clone();
                let done = &done;
                scope.spawn(move || {
                    let mut node = r as u32;
                    let mut queries = 0u64;
                    while !done.load(Ordering::Acquire) {
                        let lease = handle.lease();
                        black_box(lease.triangle_count());
                        black_box(lease.node_support(NodeId(node % n)));
                        node = node.wrapping_add(1);
                        queries += 1;
                    }
                    queries
                })
            })
            .collect();
        let start = Instant::now();
        let mut b = 0usize;
        while start.elapsed() < window {
            server
                .apply(&batches[b % batches.len()])
                .expect("scenario batches only touch in-range nodes");
            b += 1;
        }
        let elapsed = start.elapsed().as_secs_f64();
        done.store(true, Ordering::Release);
        let total: u64 = workers
            .into_iter()
            .map(|w| w.join().expect("reader thread panicked"))
            .sum();
        total as f64 / elapsed
    })
}

fn best_of_two(mut run: impl FnMut() -> f64) -> f64 {
    run().max(run())
}

fn main() {
    let args = parse_args();
    let hardware_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let readers = args
        .readers
        .unwrap_or_else(|| hardware_threads.saturating_sub(1).clamp(1, 4));

    let (n, num_batches, batch_size, window, cap_rps) = if args.quick {
        (240, 6, 160, Duration::from_millis(200), 1_024_000.0)
    } else {
        (800, 10, 400, Duration::from_millis(800), 4_096_000.0)
    };
    let scenario = Scenario::uniform_churn(n, num_batches, batch_size)
        .with_base(BaseGraph::Gnp { p: 8.0 / n as f64 })
        .seeded(0x5EB7E);

    // The load source: the synthetic churn scenario by default, or a
    // replayed temporal edge-list file under `--input`. Both roads go
    // through `BatchSource`, so the identity that lands in the JSON
    // (name + fingerprint + policy) is uniform and the gate can
    // refuse cross-source baseline comparisons.
    let (source_name, source_fingerprint, replay_policy, base, batches) = match &args.input {
        Some(path) => {
            let policy = ReplayPolicy::parse(args.replay.as_deref().unwrap_or("size:500"))
                .unwrap_or_else(|e| panic!("--replay: {e}"));
            let timeline = TemporalLoader::new()
                .load_path(path)
                .unwrap_or_else(|e| panic!("load {}: {e}", path.display()));
            assert!(
                !timeline.is_empty(),
                "{}: a replayed serve workload needs at least one event",
                path.display()
            );
            let label = path
                .file_name()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string());
            let replay = Replay::new(timeline, policy).with_label(&label);
            (
                BatchSource::name(&replay),
                BatchSource::fingerprint(&replay),
                replay.replay_policy(),
                replay.base_graph(),
                replay.batches(),
            )
        }
        None => (
            BatchSource::name(&scenario),
            BatchSource::fingerprint(&scenario),
            None,
            scenario.base_graph(),
            scenario.batches(),
        ),
    };

    // Cheap end-to-end correctness guard before timing anything: one
    // pass of the stream through the served engine must match the
    // centralized oracle (the property tests cover the concurrent case).
    {
        let mut server = make_server(&base, 4);
        for batch in &batches {
            server
                .apply(batch)
                .expect("scenario batches only touch in-range nodes");
        }
        assert!(
            server.engine().matches_oracle(),
            "served engine diverged from the oracle"
        );
    }

    println!(
        "# serve_bench — {source_name}: n={}, {} batch(es), {readers} reader(s), \
         {hardware_threads} hardware thread(s){}\n",
        base.node_count(),
        batches.len(),
        if args.quick { ", --quick" } else { "" }
    );

    // Phase 1: open-loop SLO ramp.
    let (sustained, steps) = ramp(&base, &batches, readers, window, cap_rps);
    let mut table = Table::new([
        "target_rps",
        "achieved_rps",
        "p50_us",
        "p99_us",
        "over_slo_frac",
        "verdict",
    ]);
    for step in &steps {
        table.row([
            fmt_f64(step.target_rps),
            fmt_f64(step.achieved_rps),
            fmt_f64(step.p50_us),
            fmt_f64(step.p99_us),
            format!("{:.4}", step.over_slo),
            if step.passes() { "ok" } else { "TRIPPED" }.to_string(),
        ]);
    }
    table.print();
    match &sustained {
        Some(step) => println!(
            "\nmax sustainable: {} reads/sec (p50 {} us, p99 {} us)\n",
            fmt_f64(step.target_rps),
            fmt_f64(step.p50_us),
            fmt_f64(step.p99_us),
        ),
        None => println!("\nmax sustainable: none — the first ramp step already tripped\n"),
    }

    // Phase 2: write-throughput ratio (readers attached vs detached).
    let detached = best_of_two(|| write_throughput(&base, &batches, 0, window).0);
    // The worse of the two attached runs: a copy is a cost, not noise.
    let mut cow_clones_per_batch = 0.0f64;
    let attached = best_of_two(|| {
        let (rate, clones) = write_throughput(&base, &batches, readers, window);
        cow_clones_per_batch = cow_clones_per_batch.max(clones);
        rate
    });
    let write_ratio = attached / detached;
    println!(
        "write throughput: detached {} deltas/sec, {readers} reader(s) attached {} \
         deltas/sec -> ratio {:.3} ({cow_clones_per_batch:.4} whole-shard copies per batch attached)",
        fmt_f64(detached),
        fmt_f64(attached),
        write_ratio
    );

    // Phase 3: closed-loop read scaling across reader counts.
    let reader_counts = [1usize, 2, 4];
    let rates: Vec<f64> = reader_counts
        .iter()
        .map(|&r| best_of_two(|| closed_loop_reads(&base, &batches, r, window)))
        .collect();
    let best_multi = rates[1..].iter().cloned().fold(f64::MIN, f64::max);
    let read_scaling = best_multi / rates[0];
    for (r, rate) in reader_counts.iter().zip(&rates) {
        println!(
            "closed-loop reads @ {r} reader(s): {} queries/sec",
            fmt_f64(*rate)
        );
    }
    println!("read scaling (best multi-reader / single-reader): {read_scaling:.3}\n");

    // In-binary floors: only on machines where readers and the writer
    // can genuinely contend, and after best-of-two trimmed the noise.
    let mut floor_failures: Vec<String> = Vec::new();
    if (hardware_threads as f64) >= PARALLEL_FLOOR_MIN_THREADS {
        if write_ratio < SERVE_WRITE_RATIO_FLOOR {
            floor_failures.push(format!(
                "write throughput ratio {write_ratio:.3} below the \
                 {SERVE_WRITE_RATIO_FLOOR} floor — readers are blocking the write pipeline"
            ));
        }
        if read_scaling < READ_SCALING_FLOOR {
            floor_failures.push(format!(
                "read scaling {read_scaling:.3} below the {READ_SCALING_FLOOR} floor — \
                 leased readers are serializing instead of scaling"
            ));
        }
    } else {
        println!(
            "floors skipped: {hardware_threads} hardware thread(s) cannot express \
             reader/writer contention (needs >= {PARALLEL_FLOOR_MIN_THREADS:.0})"
        );
    }

    // Machine-readable results for the CI gate.
    let mut json = String::from("{\"bench\":\"serve\",\"schema_version\":2,");
    let _ = write!(
        json,
        "\"quick\":{},\"hardware_threads\":{hardware_threads},\"serve_readers\":{readers},\
         \"source\":\"{}\",\"source_fingerprint\":\"{}\",\"replay_policy\":{},",
        u8::from(args.quick),
        congest_obs::json::escape(&source_name),
        fingerprint_hex(source_fingerprint),
        replay_policy
            .as_deref()
            .map(|p| format!("\"{}\"", congest_obs::json::escape(p)))
            .unwrap_or_else(|| "null".to_string()),
    );
    let (max_rps, p50, p99) = match &sustained {
        Some(s) => (s.target_rps, s.p50_us, s.p99_us),
        None => (f64::NAN, f64::NAN, f64::NAN),
    };
    let _ = write!(
        json,
        "\"serve_max_sustainable_rps\":{},\"serve_read_p50_us\":{},\"serve_read_p99_us\":{},",
        congest_obs::json::num(max_rps),
        congest_obs::json::num(p50),
        congest_obs::json::num(p99),
    );
    let _ = write!(
        json,
        "\"serve_write_throughput_ratio\":{},\"serve_write_deltas_per_sec_detached\":{},\
         \"cow_clones_per_batch\":{},\"serve_read_scaling_best\":{},",
        congest_obs::json::num(write_ratio),
        congest_obs::json::num(detached),
        congest_obs::json::num(cow_clones_per_batch),
        congest_obs::json::num(read_scaling),
    );
    json.push_str("\"obs\":");
    json.push_str(&congest_obs::snapshot().to_json());
    json.push('}');
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");

    if !floor_failures.is_empty() {
        for failure in &floor_failures {
            eprintln!("ERROR: {failure}");
        }
        std::process::exit(1);
    }
}
