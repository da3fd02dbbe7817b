//! `serve_mixed`: one writer and one reader on the copy-on-write store.
//!
//! One non-repeating stream, cut in three consecutive phases, all on the
//! same fresh server: the writer alone (*detached*), the writer beside a
//! **closed-loop** reader that issues its next leased query when the
//! previous one returns, and the writer beside an **open-loop** reader
//! that issues on a fixed schedule whether or not the server keeps up.
//! The end-to-end numbers come from the closed-loop phase, which gets
//! three fifths of the stream for that reason. The open-loop
//! numbers are per-layer only: on a shared two-core box they measure the
//! hypervisor as much as the program.

use std::hint::{black_box, spin_loop};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use congest_graph::{AdjacencyView, Graph, NodeId};
use congest_stream::{DeltaBatch, Lease, ServeHandle, ShardedTriangleIndex, TriangleServer};

use super::{
    arena_metrics, drive, index_probes, note, repetitions, stream_checks, timing_metrics, Ctx,
    Driven, Outcome, Pins, Rep,
};
use crate::gen::{derive_seed, Churn, ChurnSpec, Fingerprint, Skew, SplitMix64};
use crate::record::fmt;
use crate::spans::{Span, Tracer};
use crate::stats::{self, median};

const N: u32 = 10_000;
const SPEC: ChurnSpec = ChurnSpec {
    n: N,
    live_target: 100_000,
    skew: Skew::Cubic,
    departure_share: 0.35,
};
const BATCHES: usize = 5_000;
const BATCH: usize = 200;
/// Batches `[0, DETACHED_END)` run detached, `[DETACHED_END,
/// CLOSED_END)` beside the closed-loop reader, the rest beside the
/// open-loop one.
const DETACHED_END: usize = 1_000;
const CLOSED_END: usize = 4_000;
/// One shard: the server's writer takes the sequential path, so writer
/// plus reader are the only two busy threads.
const SHARDS: usize = 1;
const OPEN_LOOP_RPS: f64 = 8_000.0;
/// A read later than this after its scheduled arrival misses the SLO.
const SLO_NS: u64 = 1_000_000;
const TOP_K: usize = 10;
/// The lease recounted after the run is taken this many batches before
/// the stream ends, so that it is genuinely behind the writer.
const PIN_BEFORE_END: usize = 8;
const PINS: Pins = Pins {
    fingerprint: 0x0fd1_bbba_3696_330c,
    deltas: 1_000_000,
    final_edges: 99_998,
    final_triangles: 16_702,
};

/// One leased query; kinds rotate count / node support / edge in a
/// triangle / top-k. Opens a span per lease and per query when traced.
fn leased_query(handle: &ServeHandle, kind: u64, rng: &mut SplitMix64, tracer: &mut Tracer) {
    let token = tracer.open("serve.lease", kind);
    let lease = handle.lease();
    tracer.close(token);
    let name = match kind % 4 {
        0 => "serve.query_count",
        1 => "serve.query_node_support",
        2 => "serve.query_edge",
        _ => "serve.query_topk",
    };
    let token = tracer.open(name, kind);
    let answer = match kind % 4 {
        0 => lease.triangle_count(),
        1 => lease.node_support(NodeId(rng.below(N as u64) as u32)),
        2 => {
            let a = rng.below(N as u64) as u32;
            let b = (a + 1 + rng.below(N as u64 - 1) as u32) % N;
            lease.edge_in_triangle(NodeId(a), NodeId(b)) as usize
        }
        _ => lease.top_k_support(TOP_K).len(),
    };
    tracer.close(token);
    black_box(answer);
}

struct ClosedLoop {
    reads: u64,
    secs: f64,
    spans: Vec<Span>,
}

fn closed_loop(
    handle: ServeHandle,
    start: &Barrier,
    stop: &AtomicBool,
    seed: u64,
    traced: bool,
) -> ClosedLoop {
    let mut rng = SplitMix64::new(seed);
    let mut tracer = Tracer::new(traced);
    start.wait();
    let begun = Instant::now();
    let mut reads = 0u64;
    while !stop.load(Ordering::Relaxed) {
        leased_query(&handle, reads, &mut rng, &mut tracer);
        reads += 1;
    }
    ClosedLoop {
        reads,
        secs: begun.elapsed().as_secs_f64(),
        spans: tracer.take(),
    }
}

#[derive(Default)]
struct OpenLoop {
    /// Requests whose scheduled arrival fell inside the phase.
    scheduled: u64,
    /// Completion minus scheduled arrival, ascending.
    latency_ns: Vec<u64>,
    /// Issue minus scheduled arrival, ascending: how late the generator ran.
    lag_ns: Vec<u64>,
    secs: f64,
}

impl OpenLoop {
    /// Late reads, plus reads that were due and never sent.
    fn over_slo(&self) -> u64 {
        let late = self.latency_ns.iter().filter(|&&ns| ns > SLO_NS).count() as u64;
        late + self.scheduled.saturating_sub(self.latency_ns.len() as u64)
    }
}

fn open_loop(handle: ServeHandle, start: &Barrier, stop: &AtomicBool, seed: u64) -> OpenLoop {
    let mut rng = SplitMix64::new(seed);
    let mut tracer = Tracer::new(false);
    let interval_ns = 1e9 / OPEN_LOOP_RPS;
    let mut out = OpenLoop::default();
    start.wait();
    let begun = Instant::now();
    let now_ns = || begun.elapsed().as_nanos() as u64;
    'schedule: for i in 0u64.. {
        let due = (i as f64 * interval_ns) as u64;
        // Spin-paced: sleeping would hand the core back and measure the
        // scheduler's wake-up, not the server.
        let issued = loop {
            if stop.load(Ordering::Relaxed) {
                break 'schedule;
            }
            let now = now_ns();
            if now >= due {
                break now;
            }
            spin_loop();
        };
        leased_query(&handle, i, &mut rng, &mut tracer);
        out.latency_ns.push(now_ns() - due);
        out.lag_ns.push(issued - due);
    }
    let ended = now_ns();
    out.secs = ended as f64 / 1e9;
    out.scheduled = (ended as f64 / interval_ns) as u64 + 1;
    out.latency_ns.sort_unstable();
    out.lag_ns.sort_unstable();
    out
}

struct ServeRep {
    detached: Driven,
    closed: Driven,
    open: Driven,
    closed_reads: ClosedLoop,
    open_reads: OpenLoop,
    construct_s: f64,
    outcome: Outcome,
    arena: congest_stream::ArenaStats,
    lease_lag_max: u64,
    stale_warnings: u64,
}

impl Rep for ServeRep {
    fn wall_ns(&self) -> u64 {
        self.closed.wall_ns
    }

    fn loop_ns(&self) -> u64 {
        self.detached.loop_ns + self.closed.loop_ns + self.open.loop_ns
    }

    fn take_side_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.closed_reads.spans)
    }

    /// Leases and queries are the readers'; publishing is the writer's.
    fn is_side_event(event: &congest_obs::TraceEvent) -> bool {
        event.cat == "serve" && event.name != "publish"
    }
}

fn stale_warnings() -> u64 {
    congest_obs::snapshot()
        .counters
        .get("serve.stale_lease_warnings")
        .copied()
        .unwrap_or(0)
}

/// The lease must still describe the epoch it pinned: a recount on its
/// own frozen adjacency equals the count it reports, and its per-node
/// supports add up to three per triangle.
fn lease_is_consistent(lease: &Lease) -> bool {
    let recount = congest_graph::triangles::list_all_on(lease).len();
    let support: usize = (0..lease.node_count())
        .map(|i| lease.node_support(NodeId::from_index(i)))
        .sum();
    recount == lease.triangle_count() && support == 3 * recount
}

fn one_rep(ctx: &mut Ctx, tracer: &mut Tracer, base: &Graph, batches: &[DeltaBatch]) -> ServeRep {
    let warnings_before = stale_warnings();
    let start = Instant::now();
    let mut server = tracer.untimed("engine.from_graph", || {
        TriangleServer::new(ShardedTriangleIndex::from_graph(base, SHARDS))
    });
    let construct_s = start.elapsed().as_secs_f64();
    let reader_seed = derive_seed(ctx.seed, "serve_mixed.reader");
    let traced = tracer.enabled();

    let detached = drive(
        &mut server,
        &batches[..DETACHED_END],
        tracer,
        "serve.apply",
        0,
        |s, b| s.apply(b),
    );

    let mut lease_lag_max = 0u64;
    let (closed, closed_reads) = {
        let (start, stop) = (Barrier::new(2), AtomicBool::new(false));
        let handle = server.handle();
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| closed_loop(handle, &start, &stop, reader_seed, traced));
            start.wait();
            let driven = drive(
                &mut server,
                &batches[DETACHED_END..CLOSED_END],
                tracer,
                "serve.apply",
                DETACHED_END as u64,
                |s, b| {
                    let report = s.apply(b);
                    if traced {
                        let lag = s
                            .oldest_lease_epoch()
                            .map_or(0, |oldest| s.epoch() - oldest);
                        lease_lag_max = lease_lag_max.max(lag);
                    }
                    report
                },
            );
            stop.store(true, Ordering::Relaxed);
            (driven, reader.join().expect("reader thread panicked"))
        })
    };

    let tail = &batches[CLOSED_END..];
    let pin_at = tail.len().saturating_sub(PIN_BEFORE_END);
    let mut pinned: Option<Lease> = None;
    let (open, open_reads) = {
        let (start, stop) = (Barrier::new(2), AtomicBool::new(false));
        let (handle, pin_handle) = (server.handle(), server.handle());
        let mut applied = 0usize;
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| open_loop(handle, &start, &stop, reader_seed ^ 1));
            start.wait();
            let driven = drive(
                &mut server,
                tail,
                tracer,
                "serve.apply",
                CLOSED_END as u64,
                |s, b| {
                    if applied == pin_at {
                        pinned = Some(pin_handle.lease());
                    }
                    applied += 1;
                    s.apply(b)
                },
            );
            stop.store(true, Ordering::Relaxed);
            (driven, reader.join().expect("reader thread panicked"))
        })
    };

    let errors = detached.errors + closed.errors + open.errors;
    ctx.rec.tally(batches.len() as u64, errors, "apply calls");
    let ok = tracer.untimed("check.matches_oracle", || server.engine().matches_oracle());
    ctx.rec
        .check(ok, || "served engine disagrees with the oracle".to_string());
    let lease = pinned.expect("the stream is longer than the pin offset");
    let behind = server.epoch() - lease.epoch();
    ctx.rec.check(behind == PIN_BEFORE_END as u64, || {
        format!("pinned lease is {behind} epochs behind, expected {PIN_BEFORE_END}")
    });
    let ok = tracer.untimed("check.lease_recount", || lease_is_consistent(&lease));
    ctx.rec.check(ok, || {
        "pinned lease no longer matches its own frozen adjacency".to_string()
    });
    drop(lease);

    let mut totals = detached.totals;
    totals.absorb(&closed.totals);
    totals.absorb(&open.totals);
    let engine = server.engine();
    ServeRep {
        outcome: Outcome {
            totals,
            final_edges: engine.edge_count() as u64,
            final_triangles: engine.triangle_count() as u64,
        },
        arena: engine.arena_stats(),
        construct_s,
        detached,
        closed,
        open,
        closed_reads,
        open_reads,
        lease_lag_max,
        stale_warnings: stale_warnings() - warnings_before,
    }
}

pub fn serve_mixed(ctx: &mut Ctx) {
    let seed = derive_seed(ctx.seed, "serve_mixed");
    let (base, batches, fingerprint) = ctx.timed_setups(|tracer| {
        let mut churn = Churn::new(SPEC, seed);
        let base = churn.prefill();
        let batches = churn.batches(BATCHES, BATCH);
        drop(tracer.untimed("engine.from_graph", || {
            TriangleServer::new(ShardedTriangleIndex::from_graph(&base, SHARDS))
        }));
        let fingerprint = Fingerprint::of_stream(&base, &batches);
        ((base, batches, fingerprint), Vec::new())
    });

    let reps = repetitions(ctx, |ctx, tracer| one_rep(ctx, tracer, &base, &batches));
    let closed: Vec<&Driven> = reps.plain.iter().map(|r| &r.closed).collect();
    timing_metrics(&mut ctx.rec, &closed);
    let rec = &mut ctx.rec;
    rec.put(
        "reads_per_s",
        &reps.each(|r| r.closed_reads.reads as f64 / r.closed_reads.secs),
    );
    rec.put(
        "serve.write_ratio_attached",
        &reps.each(|r| r.closed.deltas_per_s() / r.detached.deltas_per_s()),
    );
    rec.put(
        "serve.achieved_rps",
        &reps.each(|r| r.open_reads.latency_ns.len() as f64 / r.open_reads.secs),
    );
    rec.put(
        "serve.over_slo_ratio",
        &reps.each(|r| r.open_reads.over_slo() as f64 / r.open_reads.scheduled.max(1) as f64),
    );
    let per_rep = |pick: fn(&ServeRep) -> &[u64], q: f64| -> Vec<f64> {
        reps.plain
            .iter()
            .filter_map(|r| stats::percentile(pick(r), q))
            .map(|ns| ns as f64 / 1e3)
            .collect()
    };
    rec.put(
        "serve.read_p50_us",
        &per_rep(|r| r.open_reads.latency_ns.as_slice(), 0.5),
    );
    rec.put(
        "serve.read_p99_us",
        &per_rep(|r| r.open_reads.latency_ns.as_slice(), 0.99),
    );
    rec.put(
        "serve.generator_lag_p99_us",
        &per_rep(|r| r.open_reads.lag_ns.as_slice(), 0.99),
    );
    rec.put(
        "serve.stale_lease_warnings",
        &reps.each(|r| r.stale_warnings as f64),
    );
    rec.put("sharded.seed_s", &reps.each(|r| r.construct_s));
    arena_metrics(rec, &reps.plain[0].arena);

    let outcomes: Vec<Outcome> = reps
        .plain
        .iter()
        .chain(&reps.traced)
        .map(|r| r.outcome)
        .collect();
    let pins = stream_checks(ctx, &outcomes, fingerprint);
    ctx.check_pins(pins, PINS);
    note(format!(
        "open loop: {} reads/s scheduled, SLO {} us from the scheduled arrival; unsent reads count as over",
        fmt(OPEN_LOOP_RPS),
        fmt(SLO_NS as f64 / 1e3)
    ));
    if !ctx.trace {
        return;
    }

    let lag = reps
        .traced
        .iter()
        .map(|r| r.lease_lag_max)
        .max()
        .unwrap_or(0);
    ctx.rec.put_value("serve.lease_lag_epochs_max", lag as f64);

    // What publishing costs a batch: the server against the bare engine
    // it wraps, on the detached phase.
    let mut quiet = Tracer::new(false);
    let bare: Vec<f64> = (0..2)
        .map(|_| {
            let mut engine = ShardedTriangleIndex::from_graph(&base, SHARDS);
            drive(
                &mut engine,
                &batches[..DETACHED_END],
                &mut quiet,
                "sharded.apply",
                0,
                |e, b| e.apply(b),
            )
            .p50_us()
        })
        .collect();
    let served = median(&reps.each(|r| r.detached.p50_us()));
    ctx.rec
        .put_value("serve.publish_us", served - median(&bare));

    // Each query kind alone, on a server at rest.
    let mut server = TriangleServer::new(ShardedTriangleIndex::from_graph(&base, SHARDS));
    for batch in &batches[..64] {
        let _ = server.apply(batch);
    }
    let handle = server.handle();
    let mut rng = SplitMix64::new(seed);
    let ns_per = |f: &mut dyn FnMut()| 1e9 / crate::probes::rate(1.0, f);
    ctx.rec.put_value(
        "serve.lease_acquire_ns",
        ns_per(&mut || drop(black_box(handle.lease()))),
    );
    let lease = handle.lease();
    ctx.rec.put_value(
        "serve.query_count_ns",
        ns_per(&mut || {
            black_box(black_box(&lease).triangle_count());
        }),
    );
    ctx.rec.put_value(
        "serve.query_node_support_ns",
        ns_per(&mut || {
            black_box(lease.node_support(NodeId(rng.below(N as u64) as u32)));
        }),
    );
    let edges: Vec<_> = base.edges().take(4096).collect();
    let mut next = 0usize;
    ctx.rec.put_value(
        "serve.query_edge_ns",
        ns_per(&mut || {
            let e = edges[next % edges.len()];
            next += 1;
            black_box(lease.edge_in_triangle(e.lo(), e.hi()));
        }),
    );
    ctx.rec.put_value(
        "serve.query_topk_us",
        ns_per(&mut || {
            black_box(lease.top_k_support(TOP_K));
        }) / 1e3,
    );
    drop(lease);

    // Through the server, so that the share is of what a served batch
    // costs, publish included.
    index_probes(
        ctx,
        &batches,
        TriangleServer::new(ShardedTriangleIndex::from_graph(&base, SHARDS)),
        |s| s.engine(),
        |s, b| {
            let _ = s.apply(b);
        },
    );
}
