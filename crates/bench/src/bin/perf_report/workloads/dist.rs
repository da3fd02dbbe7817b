//! `dist_quiet` and `dist_lossy`: the distributed epoch engine at its
//! round floor, and on the same stream's first batches under a seeded
//! one-percent drop plan.
//!
//! Simulated rounds, messages and bits are exact: the fault plan is
//! seeded, the simulator sequential, so every repetition must report
//! the same `CongestCost` to the bit.

use std::time::Instant;

use congest_graph::Graph;
use congest_stream::{
    CongestCost, DeltaBatch, DistributedTriangleEngine, FaultPlan, RecoveryStats,
};

use super::{
    drive, finish_stream_rep, note, repetitions, sim_probe, stream_metrics, wire_hash_probes, Ctx,
    Pins, Rep, StreamRep,
};
use crate::gen::{derive_seed, Churn, ChurnSpec, Fingerprint, Skew};
use crate::record::fmt;
use crate::spans::Tracer;

const N: u32 = 2_000;
/// The expected edge count of `Gnp(2000, 8/n)`.
const SPEC: ChurnSpec = ChurnSpec {
    n: N,
    live_target: 8_000,
    skew: Skew::Uniform,
    departure_share: 0.35,
};
const BATCHES: usize = 200;
const BATCH: usize = 100;
/// The lossy twin runs this prefix of the quiet stream.
const LOSSY_BATCHES: usize = 40;
const DROP_P: f64 = 0.01;
const FAULT_SEED: u64 = 0xFA17;

const QUIET_PINS: Pins = Pins {
    fingerprint: 0x2fbb_8380_4b8c_9bb3,
    deltas: 20_000,
    final_edges: 8_000,
    final_triangles: 87,
};
const LOSSY_PINS: Pins = Pins {
    fingerprint: 0xdc12_a185_9775_9045,
    deltas: 4_000,
    final_edges: 7_996,
    final_triangles: 90,
};

fn lossy_plan() -> FaultPlan {
    FaultPlan::default().with_drop(DROP_P).with_seed(FAULT_SEED)
}

struct DistRep {
    rep: StreamRep,
    cost: CongestCost,
    recovery: RecoveryStats,
    skew_max: f64,
    dropped: u64,
}

impl Rep for DistRep {
    fn wall_ns(&self) -> u64 {
        self.rep.wall_ns()
    }

    fn loop_ns(&self) -> u64 {
        self.rep.loop_ns()
    }
}

fn dropped_counter() -> u64 {
    congest_obs::snapshot()
        .counters
        .get("faults.dropped")
        .copied()
        .unwrap_or(0)
}

fn one_rep(
    ctx: &mut Ctx,
    tracer: &mut Tracer,
    base: &Graph,
    batches: &[DeltaBatch],
    plan: FaultPlan,
) -> DistRep {
    let dropped_before = dropped_counter();
    let start = Instant::now();
    let mut engine = tracer.untimed("engine.from_graph", || {
        DistributedTriangleEngine::from_graph(base).with_fault_plan(plan)
    });
    let construct_s = start.elapsed().as_secs_f64();
    let driven = drive(&mut engine, batches, tracer, "dist.apply", 0, |e, b| {
        e.apply(b)
    });
    DistRep {
        rep: finish_stream_rep(ctx, tracer, driven, construct_s, &engine),
        cost: engine.total_cost(),
        recovery: engine.recovery_stats(),
        skew_max: engine.received_bits_skew().map_or(0.0, |s| s.max_ratio),
        dropped: dropped_counter() - dropped_before,
    }
}

fn input(ctx: &mut Ctx, batches: usize) -> (Graph, Vec<DeltaBatch>, u64) {
    // Both workloads draw from the same sub-stream, so `dist_lossy` runs
    // a true prefix of `dist_quiet`'s batches.
    let seed = derive_seed(ctx.seed, "dist");
    ctx.timed_setups(|tracer| {
        let mut churn = Churn::new(SPEC, seed);
        let base = churn.prefill();
        let stream = churn.batches(batches, BATCH);
        drop(tracer.untimed("engine.from_graph", || {
            DistributedTriangleEngine::from_graph(&base)
        }));
        let fingerprint = Fingerprint::of_stream(&base, &stream);
        ((base, stream, fingerprint), Vec::new())
    })
}

/// Records the exact per-batch costs and checks that every repetition
/// paid exactly the same.
fn cost_metrics(ctx: &mut Ctx, reps: &super::Reps<DistRep>, batches: usize) -> CongestCost {
    let first = &reps.plain[0];
    let cost = first.cost;
    let per_batch = |v: u64| v as f64 / batches as f64;
    let rec = &mut ctx.rec;
    rec.put_value("sim_rounds_per_batch", per_batch(cost.rounds));
    rec.put_value("sim_bits_per_batch", per_batch(cost.bits));
    rec.put_value("dist.messages", per_batch(cost.messages));
    rec.put_value("dist.recovery_rounds", per_batch(cost.recovery_rounds));
    rec.put_value(
        "dist.retransmit_rounds",
        first.recovery.retransmit_rounds as f64,
    );
    rec.put_value("dist.epoch_repairs", first.recovery.epoch_repairs as f64);
    rec.put_value(
        "dist.degraded_epochs",
        first.recovery.degraded_epochs as f64,
    );
    rec.put_value("dist.received_bits_skew_max", first.skew_max);
    rec.put_value("sim.dropped_messages", first.dropped as f64);
    rec.put(
        "dist.host_us_per_round",
        &reps.each(|r| r.rep.driven.wall_ns as f64 / 1e3 / r.cost.rounds.max(1) as f64),
    );
    let same =
        reps.plain.iter().chain(&reps.traced).all(|r| {
            r.cost == cost && r.recovery == first.recovery && r.skew_max == first.skew_max
        });
    rec.check(same, || {
        "CongestCost differs between repetitions of a seeded run".to_string()
    });
    cost
}

pub fn quiet(ctx: &mut Ctx) {
    let (base, batches, fingerprint) = input(ctx, BATCHES);
    let reps = repetitions(ctx, |ctx, tracer| {
        one_rep(ctx, tracer, &base, &batches, FaultPlan::default())
    });
    let pins = stream_metrics(ctx, &reps, |r| &r.rep, "dist.seed_s", fingerprint);
    ctx.check_pins(pins, QUIET_PINS);
    let cost = cost_metrics(ctx, &reps, BATCHES);
    let per_batch = |v: u64| v as f64 / BATCHES as f64;
    ctx.rec.put_value(
        "dist.broadcast_rounds",
        per_batch(cost.rounds - cost.convergecast_rounds),
    );
    ctx.rec.put_value(
        "dist.convergecast_rounds",
        per_batch(cost.convergecast_rounds),
    );
    ctx.rec.put_value("dist.unattributed_rounds", 0.0);
    ctx.rec.check(
        cost.recovery_rounds == 0 && reps.plain[0].recovery == RecoveryStats::default(),
        || "a quiet plan paid for recovery".to_string(),
    );
    if ctx.trace {
        sim_probe(ctx);
    }
}

pub fn lossy(ctx: &mut Ctx) {
    let (base, batches, fingerprint) = input(ctx, LOSSY_BATCHES);
    let reps = repetitions(ctx, |ctx, tracer| {
        one_rep(ctx, tracer, &base, &batches, lossy_plan())
    });
    let pins = stream_metrics(ctx, &reps, |r| &r.rep, "dist.seed_s", fingerprint);
    ctx.check_pins(pins, LOSSY_PINS);
    let cost = cost_metrics(ctx, &reps, LOSSY_BATCHES);

    // The quiet twin on the same batches is what the stream costs with
    // nothing lost; recovery is what the engine itself books as repair.
    // The rest of the lossy total is the penalty nobody accounts for.
    let twin = one_rep(
        ctx,
        &mut Tracer::new(false),
        &base,
        &batches,
        FaultPlan::default(),
    )
    .cost;
    let broadcast = twin.rounds - twin.convergecast_rounds;
    let unattributed = cost
        .rounds
        .saturating_sub(twin.rounds + cost.recovery_rounds);
    let per_batch = |v: u64| v as f64 / LOSSY_BATCHES as f64;
    ctx.rec
        .put_value("dist.broadcast_rounds", per_batch(broadcast));
    ctx.rec.put_value(
        "dist.convergecast_rounds",
        per_batch(twin.convergecast_rounds),
    );
    ctx.rec
        .put_value("dist.unattributed_rounds", per_batch(unattributed));
    ctx.rec.put_value(
        "dist.lossy_round_ratio",
        cost.rounds as f64 / twin.rounds.max(1) as f64,
    );
    ctx.rec.check(
        broadcast + twin.convergecast_rounds + cost.recovery_rounds + unattributed == cost.rounds,
        || "round breakdown does not add up to the total".to_string(),
    );
    note(format!(
        "rounds per batch: broadcast {} + convergecast {} (quiet twin) + recovery {} + unattributed {} = {}",
        fmt(per_batch(broadcast)),
        fmt(per_batch(twin.convergecast_rounds)),
        fmt(per_batch(cost.recovery_rounds)),
        fmt(per_batch(unattributed)),
        fmt(per_batch(cost.rounds)),
    ));
    if ctx.trace {
        sim_probe(ctx);
        wire_hash_probes(ctx);
    }
}
