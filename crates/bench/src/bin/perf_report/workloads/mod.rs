//! The eight workloads and the run protocol they share.
//!
//! A workload runs in a process of its own. Its inputs are generated
//! from the seed, once; then come one warm-up repetition and the
//! measured ones, each on a fresh engine, until `--seconds` is spent.
//! Every timing metric is the median over the measured repetitions.
//! Correctness checks run after a repetition's timed region. The traced
//! pass instead takes two plain repetitions as its own reference, two
//! with tracing on, and then the layer probes.

mod dist;
mod index;
mod serve;
mod sharded;
mod statics;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use congest_graph::AdjacencyView;

use congest_obs::TraceEvent;
use congest_stream::{
    ApplyReport, ArenaStats, DeltaBatch, StreamEngine, StreamError, WorkerTelemetry,
};

use crate::catalog::DEFAULT_SEED;
use crate::record::Record;
use crate::spans::{attribute, chrome_trace, SelfTimes, Span, Tracer};
use crate::stats::{self, median};

/// Measured repetitions: at least this many, however slow.
const MIN_REPS: usize = 3;
/// And no more than this, however fast.
const MAX_REPS: usize = 30;
/// Plain and traced repetitions of the traced pass.
const TRACED_REPS: usize = 2;
/// Full set-ups timed for `setup_s` with tracing off: at least
/// `MIN_SETUPS`, then more while they are cheap (under `SETUP_BUDGET_S`
/// in all), up to `MAX_SETUPS`.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;
/// Program events kept for the chrome trace; the rest are still
/// attributed and counted.
const TRACE_EXPORT_CAP: usize = 200_000;
/// A stream with more no-ops than this measures the generator.
const MAX_NOOP_RATIO: f64 = 0.05;

/// What one child process was asked to do, and what it found.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced pass writes its chrome trace, if anywhere.
    pub trace_out: Option<PathBuf>,
    pub rec: Record,
    /// Spans of the traced pass's set-up (`parse_str`, `batches`,
    /// `from_graph`), kept for the trace and the untimed table.
    pub setup_spans: Vec<Span>,
}

/// Runs the workload called `name`; `None` if there is none.
pub fn run(name: &str, ctx: &mut Ctx) -> Option<()> {
    match name {
        "replay_hub" => index::replay_hub(ctx),
        "grow_shrink" => index::grow_shrink(ctx),
        "bigbatch_sharded" => sharded::bigbatch(ctx),
        "pool_smallbatch" => sharded::smallbatch(ctx),
        "serve_mixed" => serve::serve_mixed(ctx),
        "static_drivers" => statics::static_drivers(ctx),
        "dist_quiet" => dist::quiet(ctx),
        "dist_lossy" => dist::lossy(ctx),
        _ => return None,
    }
    ctx.rec.finish();
    Some(())
}

/// The identity of a workload's input and of the state it must end in.
/// For [`DEFAULT_SEED`] each workload freezes its pins as constants and
/// fails when they drift; other seeds only print them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pins {
    pub fingerprint: u64,
    pub deltas: u64,
    pub final_edges: u64,
    pub final_triangles: u64,
}

impl std::fmt::Display for Pins {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fingerprint {:#018x} deltas {} final_edges {} final_triangles {}",
            self.fingerprint, self.deltas, self.final_edges, self.final_triangles
        )
    }
}

impl Ctx {
    pub fn check_pins(&mut self, observed: Pins, frozen: Pins) {
        println!("  pins: {observed}");
        if self.seed == DEFAULT_SEED {
            self.rec.check(observed == frozen, || {
                format!("input drifted for the default seed; frozen pins: {frozen}")
            });
        }
    }

    /// Times `setup` (input generation, load, one engine construction)
    /// and records the median as `setup_s`; returns the last input.
    /// `setup` reports the parts it timed as `(layer metric, value)`
    /// pairs.
    pub fn timed_setups<I>(
        &mut self,
        setup: impl Fn(&mut Tracer) -> (I, Vec<(&'static str, f64)>),
    ) -> I {
        let mut tracer = Tracer::new(self.trace);
        let mut totals: Vec<f64> = Vec::new();
        let mut parts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let begun = Instant::now();
        let input = loop {
            let start = Instant::now();
            let (input, timed) = setup(&mut tracer);
            totals.push(start.elapsed().as_secs_f64());
            for (name, value) in timed {
                parts.entry(name).or_default().push(value);
            }
            let done = totals.len();
            let cheap = begun.elapsed().as_secs_f64() < SETUP_BUDGET_S;
            if self.trace || (done >= MIN_SETUPS && !(cheap && done < MAX_SETUPS)) {
                break input;
            }
        };
        self.setup_spans = tracer.take();
        self.rec.put("setup_s", &totals);
        for (name, values) in parts {
            self.rec.put(name, &values);
        }
        input
    }
}

/// What the harness needs from one repetition's result.
pub trait Rep {
    /// Nanoseconds inside the timed calls.
    fn wall_ns(&self) -> u64;
    /// Nanoseconds of the timed loop around them.
    fn loop_ns(&self) -> u64;
    /// Spans another benchmark thread recorded (the serve reader): they
    /// go into the chrome trace and a table of their own, not into the
    /// partition of the timed loop.
    fn take_side_spans(&mut self) -> Vec<Span> {
        Vec::new()
    }
    /// Whether a program event belongs to that other thread, and so to
    /// its table rather than to the partition.
    fn is_side_event(_event: &TraceEvent) -> bool {
        false
    }
}

/// The repetitions of one workload.
pub struct Reps<R> {
    /// Tracing off: the measured repetitions.
    pub plain: Vec<R>,
    /// Tracing on (traced pass only).
    pub traced: Vec<R>,
    /// Where the traced repetitions' time went.
    pub self_times: SelfTimes,
}

impl<R> Reps<R> {
    /// One metric's per-repetition values over the plain repetitions.
    pub fn each(&self, f: impl Fn(&R) -> f64) -> Vec<f64> {
        self.plain.iter().map(f).collect()
    }
}

/// Runs the protocol in the module docs around `rep`, which builds a
/// fresh engine, times the workload on it and checks the outcome.
pub fn repetitions<R: Rep>(
    ctx: &mut Ctx,
    mut rep: impl FnMut(&mut Ctx, &mut Tracer) -> R,
) -> Reps<R> {
    rep(ctx, &mut Tracer::new(false));
    let mut plain = vec![rep(ctx, &mut Tracer::new(false))];
    // Taken here, after set-up, the warm-up and one measured repetition:
    // the process has then held everything the workload ever holds at
    // once. Later repetitions only add allocator noise that grows with
    // their number, and their number depends on the machine's speed.
    if let Some(mb) = crate::host::peak_rss_mb() {
        ctx.rec.put_value("peak_rss_mb", mb);
    }
    if !ctx.trace {
        let start = Instant::now();
        while plain.len() < MIN_REPS
            || (plain.len() < MAX_REPS && start.elapsed().as_secs_f64() < ctx.seconds)
        {
            plain.push(rep(ctx, &mut Tracer::new(false)));
        }
        return Reps {
            plain,
            traced: Vec::new(),
            self_times: SelfTimes::default(),
        };
    }

    while plain.len() < TRACED_REPS {
        plain.push(rep(ctx, &mut Tracer::new(false)));
    }
    congest_obs::trace::clear();
    congest_obs::set_enabled(true);
    let mut traced = Vec::new();
    let (mut loop_ns, mut events_seen) = (0u64, 0u64);
    let mut self_times = attribute(&ctx.setup_spans, &[]);
    let mut export: Option<(Vec<Span>, Vec<Span>, Vec<TraceEvent>)> = None;
    for _ in 0..TRACED_REPS {
        let mut tracer = Tracer::new(true);
        let mut out = rep(ctx, &mut tracer);
        let mut own = tracer.take();
        let mut events = congest_obs::trace::drain();
        events_seen += events.len() as u64;
        loop_ns += out.loop_ns();
        let side_events: Vec<TraceEvent> =
            events.iter().copied().filter(R::is_side_event).collect();
        events.retain(|e| !R::is_side_event(e));
        self_times.absorb(&attribute(&own, &events));
        let mut side = out.take_side_spans();
        print_side_spans(&side, &side_events);
        if export.is_none() && ctx.trace_out.is_some() {
            events.truncate(TRACE_EXPORT_CAP);
            side.truncate(TRACE_EXPORT_CAP);
            own.append(&mut ctx.setup_spans);
            export = Some((own, side, events));
        }
        traced.push(out);
    }
    congest_obs::set_enabled(false);

    let walls = |reps: &[R]| -> Vec<f64> { reps.iter().map(|r| r.wall_ns() as f64).collect() };
    ctx.rec.put_value(
        "obs.trace_overhead_ratio",
        median(&walls(&traced)) / median(&walls(&plain)).max(1.0),
    );
    ctx.rec
        .put_value("obs.trace_events", events_seen as f64 / TRACED_REPS as f64);
    ctx.rec
        .put_value("obs.trace_dropped", congest_obs::trace::dropped() as f64);
    ctx.rec
        .put_value("obs.hist_record_ns", crate::probes::hist_record_ns());
    print_self_times(&self_times, loop_ns);
    if let (Some(path), Some((own, side, events))) = (&ctx.trace_out, &export) {
        match std::fs::write(path, chrome_trace(own, side, events)) {
            Ok(()) => println!("  chrome trace: {}", path.display()),
            Err(e) => ctx
                .rec
                .check(false, || format!("writing {}: {e}", path.display())),
        }
    }
    Reps {
        plain,
        traced,
        self_times,
    }
}

/// The self-time table: the rows and the `unattributed` remainder add
/// up to the traced repetitions' timed loops.
fn print_self_times(st: &SelfTimes, loop_ns: u64) {
    println!("  self time by span over the traced repetitions (ms, share of the timed loop):");
    let mut rows: Vec<_> = st.rows.iter().collect();
    rows.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(b.0)));
    let share = |ns: u64| 100.0 * ns as f64 / loop_ns.max(1) as f64;
    for (name, &(count, ns)) in rows {
        println!(
            "    {:<34} {:>12.3} {:>6.2}%  x{}",
            name,
            ns as f64 / 1e6,
            share(ns),
            count
        );
    }
    let rest = loop_ns.saturating_sub(st.covered_ns);
    println!(
        "    {:<34} {:>12.3} {:>6.2}%",
        "unattributed",
        rest as f64 / 1e6,
        share(rest)
    );
    println!(
        "    {:<34} {:>12.3} {:>6.2}%",
        "= timed loop",
        loop_ns as f64 / 1e6,
        100.0
    );
    for (name, &(count, ns)) in &st.outside {
        println!(
            "    outside the loop: {:<16} {:>12.3} ms  x{}",
            name,
            ns as f64 / 1e6,
            count
        );
    }
}

/// Count and total of another thread's spans and program events, by
/// name.
fn print_side_spans(side: &[Span], events: &[TraceEvent]) {
    let mut rows: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for s in side {
        let row = rows.entry(s.name.to_string()).or_default();
        row.0 += 1;
        row.1 += s.end_ns.saturating_sub(s.start_ns);
    }
    for e in events {
        let row = rows.entry(crate::spans::event_name(e)).or_default();
        row.0 += 1;
        row.1 += e.dur_us * 1_000;
    }
    for (name, (count, ns)) in rows {
        println!(
            "    reader thread: {:<19} {:>12.3} ms  x{}",
            name,
            ns as f64 / 1e6,
            count
        );
    }
}

/// One pass of a batch stream through an engine.
#[derive(Debug, Default)]
pub struct Driven {
    pub wall_ns: u64,
    pub loop_ns: u64,
    /// Per-`apply` nanoseconds, in stream order.
    pub lat_ns: Vec<u64>,
    pub totals: ApplyReport,
    pub errors: u64,
}

impl Driven {
    pub fn absorb(&mut self, other: Driven) {
        self.wall_ns += other.wall_ns;
        self.loop_ns += other.loop_ns;
        self.lat_ns.extend(other.lat_ns);
        self.totals.absorb(&other.totals);
        self.errors += other.errors;
    }

    pub fn deltas_per_s(&self) -> f64 {
        self.totals.deltas_seen as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    fn sorted(&self) -> Vec<u64> {
        let mut sorted = self.lat_ns.clone();
        sorted.sort_unstable();
        sorted
    }

    pub fn p50_us(&self) -> f64 {
        stats::p50(&self.sorted()) as f64 / 1e3
    }

    /// Per-repetition p99, where the repetition supports one.
    pub fn p99_us(&self) -> Option<f64> {
        stats::percentile(&self.sorted(), 0.99).map(|ns| ns as f64 / 1e3)
    }
}

/// Applies `batches` in order through `apply`, timing each call and
/// opening a span called `span` around it; request ids count from
/// `first_request`.
pub fn drive<E>(
    engine: &mut E,
    batches: &[DeltaBatch],
    tracer: &mut Tracer,
    span: &'static str,
    first_request: u64,
    mut apply: impl FnMut(&mut E, &DeltaBatch) -> Result<ApplyReport, StreamError>,
) -> Driven {
    let mut out = Driven {
        lat_ns: Vec::with_capacity(batches.len()),
        ..Driven::default()
    };
    let loop_start = Instant::now();
    for (i, batch) in batches.iter().enumerate() {
        let token = tracer.open(span, first_request + i as u64);
        let start = Instant::now();
        let result = apply(engine, batch);
        let ns = start.elapsed().as_nanos() as u64;
        tracer.close(token);
        out.wall_ns += ns;
        out.lat_ns.push(ns);
        match result {
            Ok(report) => out.totals.absorb(&report),
            Err(_) => out.errors += 1,
        }
    }
    out.loop_ns = loop_start.elapsed().as_nanos() as u64;
    out
}

/// One repetition of a stream workload on one engine.
pub struct StreamRep {
    pub driven: Driven,
    pub construct_s: f64,
    pub oracle_check_s: f64,
    pub final_edges: u64,
    pub final_triangles: u64,
    pub arena: Option<ArenaStats>,
    pub telemetry: Option<WorkerTelemetry>,
}

impl Rep for StreamRep {
    fn wall_ns(&self) -> u64 {
        self.driven.wall_ns
    }

    fn loop_ns(&self) -> u64 {
        self.driven.loop_ns
    }
}

/// The common repetition: construct, drive, then (untimed) compare the
/// engine with the oracle and count every `Err` as a failed operation.
pub fn stream_rep<E: StreamEngine>(
    ctx: &mut Ctx,
    tracer: &mut Tracer,
    span: &'static str,
    batches: &[DeltaBatch],
    make: impl FnOnce() -> E,
) -> StreamRep {
    let start = Instant::now();
    let mut engine = tracer.untimed("engine.from_graph", make);
    let construct_s = start.elapsed().as_secs_f64();
    let driven = drive(&mut engine, batches, tracer, span, 0, |e, b| e.apply(b));
    finish_stream_rep(ctx, tracer, driven, construct_s, &engine)
}

pub fn finish_stream_rep<E: StreamEngine>(
    ctx: &mut Ctx,
    tracer: &mut Tracer,
    driven: Driven,
    construct_s: f64,
    engine: &E,
) -> StreamRep {
    ctx.rec
        .tally(driven.lat_ns.len() as u64, driven.errors, "apply calls");
    let start = Instant::now();
    let ok = tracer.untimed("check.matches_oracle", || engine.matches_oracle());
    let oracle_check_s = start.elapsed().as_secs_f64();
    ctx.rec
        .check(ok, || "engine disagrees with the oracle".to_string());
    StreamRep {
        driven,
        construct_s,
        oracle_check_s,
        final_edges: engine.edge_count() as u64,
        final_triangles: engine.triangle_count() as u64,
        arena: engine.arena_stats(),
        telemetry: engine.worker_telemetry(),
    }
}

/// Throughput and per-`apply` latency of the timed passes, one per
/// repetition.
pub fn timing_metrics(rec: &mut Record, runs: &[&Driven]) {
    let each = |f: &dyn Fn(&Driven) -> f64| -> Vec<f64> { runs.iter().map(|d| f(d)).collect() };
    rec.put("wall_s", &each(&|d| d.wall_ns as f64 / 1e9));
    rec.put("deltas_per_s", &each(&|d| d.deltas_per_s()));
    rec.put("batch_p50_us", &each(&|d| d.p50_us()));
    let p99: Vec<f64> = runs.iter().filter_map(|d| d.p99_us()).collect();
    rec.put("batch_p99_us", &p99);
}

/// How one repetition's stream ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub totals: ApplyReport,
    pub final_edges: u64,
    pub final_triangles: u64,
}

/// Records the stream's exact tallies and checks what every stream must
/// satisfy: few no-ops, and the same tallies and final state on every
/// repetition. Returns the pins the repetitions agree on.
pub fn stream_checks(ctx: &mut Ctx, outcomes: &[Outcome], fingerprint: u64) -> Pins {
    let rec = &mut ctx.rec;
    let first = outcomes[0];
    let totals = first.totals;
    let noop_ratio = totals.noops as f64 / totals.deltas_seen.max(1) as f64;
    rec.put_value("index.noop_ratio", noop_ratio);
    rec.put_value(
        "index.effective_deltas",
        (totals.inserts_applied + totals.removes_applied) as f64,
    );
    rec.put_value("index.triangles_added", totals.triangles_added as f64);
    rec.put_value("index.triangles_removed", totals.triangles_removed as f64);
    rec.check(noop_ratio <= MAX_NOOP_RATIO, || {
        format!("stream is {:.1}% no-ops", noop_ratio * 100.0)
    });
    rec.check(outcomes.iter().all(|o| *o == first), || {
        "repetitions ended in different states".to_string()
    });
    Pins {
        fingerprint,
        deltas: totals.deltas_seen as u64,
        final_edges: first.final_edges,
        final_triangles: first.final_triangles,
    }
}

/// [`timing_metrics`], [`stream_checks`] and the arena counters for a
/// workload whose timed region is the whole stream on one engine;
/// `stream` picks that engine's result out of a repetition, and
/// `seed_metric` names the layer metric its construction time goes to.
pub fn stream_metrics<R>(
    ctx: &mut Ctx,
    reps: &Reps<R>,
    stream: impl Fn(&R) -> &StreamRep,
    seed_metric: &str,
    fingerprint: u64,
) -> Pins {
    let runs: Vec<&Driven> = reps.plain.iter().map(|r| &stream(r).driven).collect();
    timing_metrics(&mut ctx.rec, &runs);
    ctx.rec
        .put(seed_metric, &reps.each(|r| stream(r).construct_s));
    ctx.rec.put(
        "index.oracle_check_s",
        &reps.each(|r| stream(r).oracle_check_s),
    );
    if let Some(arena) = &stream(&reps.plain[0]).arena {
        arena_metrics(&mut ctx.rec, arena);
    }
    let outcomes: Vec<Outcome> = reps
        .plain
        .iter()
        .chain(&reps.traced)
        .map(|r| {
            let r = stream(r);
            Outcome {
                totals: r.driven.totals,
                final_edges: r.final_edges,
                final_triangles: r.final_triangles,
            }
        })
        .collect();
    stream_checks(ctx, &outcomes, fingerprint)
}

/// Records an engine's arena counters.
pub fn arena_metrics(rec: &mut Record, arena: &ArenaStats) {
    rec.put_value("arena.slab_bytes", arena.slab_bytes as f64);
    rec.put_value("arena.live_bytes", arena.live_bytes as f64);
    rec.put_value("arena.free_bytes", arena.free_bytes as f64);
    rec.put_value(
        "arena.fill_ratio",
        arena.live_bytes as f64 / arena.slab_bytes.max(1) as f64,
    );
    rec.put_value("arena.compactions", arena.compactions as f64);
}

/// The layer probes every index-backed workload runs in the traced
/// pass: the kernel's two regimes, what the kernel explains of this
/// stream through this engine (`view` reads its adjacency, `apply`
/// applies a batch), the arena on this stream's final degree mix, and a
/// full recount against a median batch.
pub fn index_probes<E, V: AdjacencyView>(
    ctx: &mut Ctx,
    batches: &[DeltaBatch],
    mut engine: E,
    view: impl Fn(&E) -> &V,
    apply: impl FnMut(&mut E, &DeltaBatch),
) {
    let seed = ctx.seed;
    let rec = &mut ctx.rec;
    rec.put_value(
        "graph.kernel_skewed_melems_per_s",
        crate::probes::kernel_melems_per_s(64, 8192, seed),
    );
    rec.put_value(
        "graph.kernel_balanced_melems_per_s",
        crate::probes::kernel_melems_per_s(4096, 4096, seed),
    );
    let stride = (batches.len() / 200).max(1);
    let share = crate::probes::kernel_share(&mut engine, batches, stride, &view, apply);
    let engine = view(&engine);
    rec.put_value("index.kernel_share", share.share);
    rec.put_value("graph.kernel_workload_melems_per_s", share.melems_per_s);
    if let Some((insert, remove)) = crate::probes::arena_ns(engine, seed) {
        rec.put_value("arena.insert_ns", insert);
        rec.put_value("arena.remove_ns", remove);
    }
    let start = Instant::now();
    std::hint::black_box(congest_graph::triangles::list_all_on(engine).len());
    let oracle_list_s = start.elapsed().as_secs_f64();
    rec.put_value("graph.oracle_list_s", oracle_list_s);
    let batch_p50_us = rec.get("batch_p50_us").unwrap_or(0.0);
    rec.put_value(
        "index.speedup_vs_recompute",
        oracle_list_s * 1e6 / batch_p50_us.max(1e-9),
    );
}

/// [`index_probes`] for an engine that is its own adjacency view.
pub fn engine_probes<E: StreamEngine>(ctx: &mut Ctx, batches: &[DeltaBatch], engine: E) {
    index_probes(
        ctx,
        batches,
        engine,
        |e| e,
        |e, b| {
            let _ = e.apply(b);
        },
    );
}

/// Prints a one-line note under the workload's rows.
pub fn note(text: impl AsRef<str>) {
    println!("  note: {}", text.as_ref());
}

/// The fixed price of a simulator epoch at the distributed workloads'
/// size.
pub fn sim_probe(ctx: &mut Ctx) {
    ctx.rec.put_value(
        "sim.epoch_overhead_us",
        crate::probes::sim_epoch_overhead_us(2_000),
    );
}

/// The codec and the hash families on their own.
pub fn wire_hash_probes(ctx: &mut Ctx) {
    let (encode, decode) = crate::probes::wire_mb_per_s(ctx.seed);
    let (kwise, checksum) = crate::probes::hash_rates(ctx.seed);
    ctx.rec.put_value("wire.encode_ids_mb_per_s", encode);
    ctx.rec.put_value("wire.decode_ids_mb_per_s", decode);
    ctx.rec.put_value("hash.kwise_eval_mops", kwise);
    ctx.rec.put_value("hash.checksum61_mb_per_s", checksum);
}
