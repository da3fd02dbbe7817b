//! `replay_hub` and `grow_shrink`: the single-threaded `TriangleIndex`
//! in the two regimes that stress its arena in opposite directions.

use std::time::Instant;

use congest_graph::temporal::TemporalLoader;
use congest_graph::GraphBuilder;
use congest_stream::{
    BatchSource, DeltaBatch, Replay, ReplayPolicy, TriangleIndex, WorkloadRunner,
};

use super::{
    arena_metrics, engine_probes, note, repetitions, stream_metrics, stream_rep, Ctx, Pins, Rep,
    StreamRep,
};
use crate::gen::{self, derive_seed, Churn, ChurnSpec, Fingerprint, Skew};
use crate::record::fmt;
use crate::stats::median;

const N: u32 = 10_000;

const REPLAY_EVENTS: usize = 1_000_000;
const REPLAY_SPEC: ChurnSpec = ChurnSpec {
    n: N,
    live_target: 150_000,
    skew: Skew::Cubic,
    departure_share: 0.35,
};
const REPLAY_PINS: Pins = Pins {
    fingerprint: 0x3cfd_db8c_4e2f_9ea9,
    deltas: 1_000_000,
    final_edges: 150_000,
    final_triangles: 46_050,
};

struct ReplayInput {
    replay: Replay,
    batches: Vec<DeltaBatch>,
    fingerprint: u64,
}

/// The ROADMAP's "replayed timeline with hub churn": benchmark-rendered
/// temporal text through `TemporalLoader::parse_str` and `Replay`
/// `size:500` into an eager `TriangleIndex`.
pub fn replay_hub(ctx: &mut Ctx) {
    let seed = derive_seed(ctx.seed, "replay_hub");
    let input = ctx.timed_setups(|tracer| {
        let text = Churn::new(REPLAY_SPEC, seed).temporal_text(REPLAY_EVENTS);
        let start = Instant::now();
        let list = tracer.untimed("graph.parse_str", || {
            TemporalLoader::new()
                .with_node_count(N as usize)
                .parse_str(&text)
                .expect("generated temporal text parses")
        });
        let parse_s = start.elapsed().as_secs_f64();
        let events = list.len() as f64;
        let start = Instant::now();
        let replay = Replay::new(list, ReplayPolicy::BySize(500));
        let batches = tracer.untimed("source.batches", || replay.batches());
        let build_s = start.elapsed().as_secs_f64();
        let base = replay.base_graph();
        drop(tracer.untimed("engine.from_graph", || TriangleIndex::from_graph(&base)));
        let fingerprint = Fingerprint::of_stream(&base, &batches);
        (
            ReplayInput {
                replay,
                batches,
                fingerprint,
            },
            vec![
                ("graph.temporal_parse_s", parse_s),
                ("graph.temporal_events_per_s", events / parse_s),
                ("source.batch_build_s", build_s),
            ],
        )
    });
    let base = input.replay.base_graph();
    let batches = &input.batches;

    let reps = repetitions(ctx, |ctx, tracer| {
        stream_rep(ctx, tracer, "index.apply", batches, || {
            TriangleIndex::from_graph(&base)
        })
    });
    let pins = stream_metrics(ctx, &reps, |r| r, "index.seed_s", input.fingerprint);
    ctx.check_pins(pins, REPLAY_PINS);
    if !ctx.trace {
        return;
    }

    engine_probes(ctx, batches, TriangleIndex::from_graph(&base));
    // The runner drives the same replay; its throughput clock also
    // covers pulling batches off the source, which the bare loop above
    // does not pay.
    let runner = WorkloadRunner::from_source(input.replay.clone()).recompute_every(0);
    let through_runner: Vec<f64> = (0..2).map(|_| runner.run().deltas_per_sec).collect();
    let bare = ctx.rec.get("deltas_per_s").unwrap_or(1.0);
    ctx.rec
        .put_value("runner.overhead_ratio", median(&through_runner) / bare);
}

const GROW_BATCHES: usize = 1_000;
const GROW_BATCH: usize = 500;
const GROW_PINS: Pins = Pins {
    fingerprint: 0xbd2a_def1_77d8_4198,
    deltas: 1_000_000,
    final_edges: 0,
    final_triangles: 0,
};

struct GrowRep {
    rep: StreamRep,
    grow_deltas_per_s: f64,
    shrink_deltas_per_s: f64,
    /// Arena counters at the turn, where the slabs are fullest.
    turn_arena: congest_stream::ArenaStats,
    turn_edges: u64,
}

impl Rep for GrowRep {
    fn wall_ns(&self) -> u64 {
        self.rep.wall_ns()
    }

    fn loop_ns(&self) -> u64 {
        self.rep.loop_ns()
    }
}

/// An empty graph grown by fresh arrivals, then drained by departing the
/// same edges in reverse: promotion on the way up, free lists and
/// compaction on the way down.
pub fn grow_shrink(ctx: &mut Ctx) {
    let seed = derive_seed(ctx.seed, "grow_shrink");
    let base = GraphBuilder::new(N as usize).build();
    let (batches, turn, fingerprint) = ctx.timed_setups(|tracer| {
        let (batches, turn) = gen::grow_shrink(N, GROW_BATCHES, GROW_BATCH, seed);
        drop(tracer.untimed("engine.from_graph", || TriangleIndex::from_graph(&base)));
        let fingerprint = Fingerprint::of_stream(&base, &batches);
        ((batches, turn, fingerprint), Vec::new())
    });

    let reps = repetitions(ctx, |ctx, tracer| {
        let start = Instant::now();
        let mut engine = tracer.untimed("engine.from_graph", || TriangleIndex::from_graph(&base));
        let construct_s = start.elapsed().as_secs_f64();
        let mut driven = super::drive(
            &mut engine,
            &batches[..turn],
            tracer,
            "index.apply",
            0,
            |e, b| e.apply(b),
        );
        let grow_deltas_per_s = driven.deltas_per_s();
        let turn_arena = engine.arena_stats();
        let turn_edges = engine.edge_count() as u64;
        let shrink = super::drive(
            &mut engine,
            &batches[turn..],
            tracer,
            "index.apply",
            turn as u64,
            |e, b| e.apply(b),
        );
        let shrink_deltas_per_s = shrink.deltas_per_s();
        driven.absorb(shrink);
        GrowRep {
            rep: super::finish_stream_rep(ctx, tracer, driven, construct_s, &engine),
            grow_deltas_per_s,
            shrink_deltas_per_s,
            turn_arena,
            turn_edges,
        }
    });
    let pins = stream_metrics(ctx, &reps, |r| &r.rep, "index.seed_s", fingerprint);
    ctx.check_pins(pins, GROW_PINS);
    let grow = reps.each(|r| r.grow_deltas_per_s);
    let shrink = reps.each(|r| r.shrink_deltas_per_s);
    ctx.rec.put("index.grow_deltas_per_s", &grow);
    ctx.rec.put("index.shrink_deltas_per_s", &shrink);
    let first = &reps.plain[0];
    let mut turn_arena = first.turn_arena;
    // Compactions are counted to the end of the drain.
    turn_arena.compactions = first.rep.arena.map_or(0, |a| a.compactions);
    arena_metrics(&mut ctx.rec, &turn_arena);
    let turn_edges = first.turn_edges;
    ctx.rec
        .check(turn_edges == (GROW_BATCHES * GROW_BATCH) as u64, || {
            format!("{turn_edges} live edges at the turn")
        });
    note(format!(
        "arena.* bytes are taken at the turn ({} live edges); compactions over the whole run",
        fmt(turn_edges as f64)
    ));
    if ctx.trace {
        // Probed on the growing half, so the arena probe sees the graph
        // at the turn and not the empty one the run ends on.
        engine_probes(ctx, &batches[..turn], TriangleIndex::from_graph(&base));
    }
}
