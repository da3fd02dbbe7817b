//! `bigbatch_sharded` and `pool_smallbatch`: the same
//! `ShardedTriangleIndex` at S=2, once where dispatch is amortised over
//! 5000-delta batches and once where it is nearly the whole batch.

use congest_graph::Graph;
use congest_stream::{DeltaBatch, ShardedTriangleIndex, TriangleIndex, WorkerTelemetry};

use super::{engine_probes, repetitions, stream_metrics, stream_rep, Ctx, Pins, Rep, StreamRep};
use crate::gen::{derive_seed, Churn, ChurnSpec, Fingerprint, Skew};
use crate::spans::Tracer;
use crate::stats::median;

/// Fixed, so that the load never needs more than two busy threads.
const SHARDS: usize = 2;
/// Single-engine repetitions behind `sharded.speedup_vs_single`.
const SINGLE_REPS: usize = 3;

struct Shape {
    name: &'static str,
    live_target: usize,
    batches: usize,
    batch: usize,
    pins: Pins,
}

const BIGBATCH: Shape = Shape {
    name: "bigbatch_sharded",
    live_target: 250_000,
    batches: 150,
    batch: 5_000,
    pins: Pins {
        fingerprint: 0x163b_88fb_b58f_ebd1,
        deltas: 750_000,
        final_edges: 250_000,
        final_triangles: 21_026,
    },
};

const SMALLBATCH: Shape = Shape {
    name: "pool_smallbatch",
    live_target: 40_000,
    batches: 3_000,
    batch: 256,
    pins: Pins {
        fingerprint: 0x9813_e37d_e86e_d4c0,
        deltas: 768_000,
        final_edges: 40_000,
        final_triangles: 88,
    },
};

pub fn bigbatch(ctx: &mut Ctx) {
    run(ctx, &BIGBATCH);
}

pub fn smallbatch(ctx: &mut Ctx) {
    run(ctx, &SMALLBATCH);
}

fn run(ctx: &mut Ctx, shape: &Shape) {
    let seed = derive_seed(ctx.seed, shape.name);
    let spec = ChurnSpec {
        n: 10_000,
        live_target: shape.live_target,
        skew: Skew::Uniform,
        departure_share: 0.35,
    };
    let (base, batches, fingerprint): (Graph, Vec<DeltaBatch>, u64) = ctx.timed_setups(|tracer| {
        let mut churn = Churn::new(spec, seed);
        let base = churn.prefill();
        let batches = churn.batches(shape.batches, shape.batch);
        drop(tracer.untimed("engine.from_graph", || {
            ShardedTriangleIndex::from_graph(&base, SHARDS)
        }));
        let fingerprint = Fingerprint::of_stream(&base, &batches);
        ((base, batches, fingerprint), Vec::new())
    });

    let reps = repetitions(ctx, |ctx, tracer| {
        stream_rep(ctx, tracer, "sharded.apply", &batches, || {
            ShardedTriangleIndex::from_graph(&base, SHARDS)
        })
    });
    let pins = stream_metrics(ctx, &reps, |r| r, "sharded.seed_s", fingerprint);
    ctx.check_pins(pins, shape.pins);
    let telemetry: Vec<WorkerTelemetry> = reps.plain.iter().filter_map(|r| r.telemetry).collect();
    let each = |f: fn(&WorkerTelemetry) -> f64| -> Vec<f64> { telemetry.iter().map(f).collect() };
    let rec = &mut ctx.rec;
    rec.put("pool.busy_max_share", &each(|t| t.busy_max_share_mean));
    rec.put("pool.busy_mean_share", &each(|t| t.busy_mean_share_mean));
    rec.put("pool.steals", &each(|t| t.steals as f64));
    rec.put(
        "pool.record_split_tasks",
        &each(|t| t.record_split_tasks as f64),
    );
    rec.put("pool.pooled_batches", &each(|t| t.pooled_batches as f64));
    rec.put(
        "pool.split_threshold_final",
        &each(|t| t.split_threshold as f64),
    );

    if !ctx.trace {
        return;
    }

    // Shares of the apply wall, by the partition in `spans`. Whatever no
    // phase span covers — the apply call's own time and the pool's wave
    // spans around the workers — is time spent handing off and waiting.
    let phases = [
        ("sharded.coalesce_share", &["sharded.coalesce"][..]),
        ("sharded.classify_share", &["sharded.classify"][..]),
        ("sharded.collect_share", &["sharded.collect"][..]),
        (
            "sharded.record_share",
            &["sharded.record", "sharded.record_prepare"][..],
        ),
        ("sharded.merge_share", &["sharded.merge"][..]),
    ];
    let mut covered = 0.0;
    for (metric, spans) in phases {
        let share: f64 = spans.iter().map(|s| reps.self_times.share(s)).sum();
        ctx.rec.put_value(metric, share);
        covered += share;
    }
    ctx.rec
        .put_value("pool.wait_share", (1.0 - covered).max(0.0));

    // The same stream through the single-threaded engine.
    let mut quiet = Tracer::new(false);
    let singles: Vec<StreamRep> = (0..SINGLE_REPS)
        .map(|_| {
            stream_rep(ctx, &mut quiet, "index.apply", &batches, || {
                TriangleIndex::from_graph(&base)
            })
        })
        .collect();
    let single_wall = median(
        &singles
            .iter()
            .map(|r| r.wall_ns() as f64)
            .collect::<Vec<_>>(),
    );
    let single_p50 = median(
        &singles
            .iter()
            .map(|r| r.driven.p50_us())
            .collect::<Vec<_>>(),
    );
    let sharded_wall = ctx.rec.get("wall_s").unwrap_or(1.0) * 1e9;
    let sharded_p50 = ctx.rec.get("batch_p50_us").unwrap_or(0.0);
    ctx.rec
        .put_value("sharded.speedup_vs_single", single_wall / sharded_wall);
    ctx.rec
        .put_value("pool.dispatch_overhead_us", sharded_p50 - single_p50);
    ctx.rec.check(
        singles
            .iter()
            .all(|r| r.final_triangles == reps.plain[0].final_triangles),
        || "single and sharded engines ended on different triangle counts".to_string(),
    );

    engine_probes(
        ctx,
        &batches,
        ShardedTriangleIndex::from_graph(&base, SHARDS),
    );
}
