//! Dynamic-vs-static round-cost benchmark — quantifies what the
//! distributed dynamic triangle engine buys over re-running the paper's
//! one-shot drivers after every update batch.
//!
//! Five sections:
//!
//! * the **matrix** drives the four churn scenarios (uniform, hotspot,
//!   planted-burst, grow-then-shrink) through
//!   [`DistributedTriangleEngine`] eagerly, plus a deferred/coalescing
//!   variant, reporting per-batch round / message / bit costs;
//! * the **headline** run maintains triangles under uniform churn on the
//!   10k-node scenario and compares its mean per-batch round cost
//!   against one re-run of each static driver (`find_triangles`,
//!   Theorem 1; `list_triangles`, Theorem 2) executed *on the live
//!   engine's own adjacency view* — the cost a per-batch re-run would
//!   pay, measured conservatively with a single repetition (real drivers
//!   repeat to amplify success probability, so the true re-run cost is a
//!   multiple of what we charge the baseline);
//! * a **bandwidth** sweep showing rounds shrink as the per-link budget
//!   `B` grows (the broadcasts pack more edge deltas per message);
//! * a **hotspot** sweep: one hub carries ≥ 8x the per-phase broadcast
//!   budget (a star whose every spoke edge is removed in one batch),
//!   run once with the legacy both-endpoints schedule
//!   (`HubSplit::Off`) and once with the helper-split schedule
//!   (`HubSplit::Auto`). Both read the epoch's broadcast prefix —
//!   `rounds − convergecast_rounds` — so the comparison isolates the
//!   phases the split reschedules. The split schedule must flatten the
//!   hotspot epoch by ≥ 2x (`HOTSPOT_SPLIT_IMPROVEMENT_FLOOR`,
//!   enforced in-binary; rounds are deterministic, so the floor binds
//!   on every machine), and `gate` holds the split rounds
//!   lower-is-better;
//! * a **fault** sweep: one fixed-seed uniform-churn stream replayed
//!   through the self-healing hardened engine under seeded loss plans
//!   (drop ∈ {0, 0.1%, 1%}), reporting the recovery overhead each rate
//!   costs — rounds/batch, of which accounted recovery, trailer and idle
//!   rounds, repair and degraded epoch counts. The zero-rate point is
//!   asserted in-binary to be **bit-identical** to a plain engine (a
//!   quiet plan is exactly the legacy path), no point may degrade an
//!   epoch or cost more than `FAULT_ROUND_CEILING` zero-rate runs, and
//!   the 1% point's rounds/batch is gated lower-is-better
//!   (`fault_drop1pct_rounds_per_batch`) so recovery cannot silently get
//!   more expensive.
//!
//! Every section runs the engine's CONGEST-accounted convergecast
//! merge, and all but the hotspot control run helper-split scheduling,
//! so the headline speedups charge the dynamic engine for its own merge;
//! `headline_convergecast_rounds_per_batch` splits that cost out and is
//! gated lower-is-better.
//!
//! The acceptance floor — the dynamic engine beats per-batch re-runs by
//! ≥ 5x in rounds on the headline scenario — is enforced in-binary, like
//! `stream_bench`'s floors. All gated quantities are *round counts*,
//! which are fully deterministic per seed, so the `gate` regression
//! gate compares them across machines without a hardware
//! fingerprint (only the `--quick` scenario shape must match).
//!
//! Flags: `--quick` shrinks every section for CI (the committed
//! `BENCH_dynamic.json` baseline is a `--quick` run, which is what the
//! workflow gates); the default full run is the 10k-node acceptance
//! configuration. `--trace-out PATH` re-runs a small convergecast
//! stream *after* the measured sections with span tracing enabled and
//! writes the collected spans as chrome://tracing trace-event JSON.
//! `--input FILE` replays a temporal edge-list file (`src dst [w] time`
//! lines) through the dynamic engine as an extra section, batched by
//! `--replay size:N|window:MS` (default `size:500`); its round costs
//! and oracle verdict land under the JSON's `"replay"` key.
//!
//! The headline section also exports the simulator's received-bits
//! skew (max over mean per-node received bits) into the JSON. The hub
//! epoch's skew is not exported: under the convergecast it measures the
//! funnel of every aggregate into the forest root, not the split.
//!
//! Output: a plain-text table on stdout and `BENCH_dynamic.json` in the
//! current directory.

use congest_bench::gate::HOTSPOT_SPLIT_IMPROVEMENT_FLOOR;
use congest_bench::{json, table::fmt_f64, Table};
use congest_graph::temporal::{fingerprint_hex, TemporalLoader};
use congest_graph::{GraphBuilder, NodeId};
use congest_sim::Bandwidth;
use congest_stream::{
    BaseGraph, BatchSource, CongestCost, DeltaBatch, DistributedTriangleEngine, FaultPlan,
    HubSplit, RecoveryStats, Replay, ReplayPolicy, Scenario,
};
use congest_triangles::{find_triangles, list_triangles, FindingConfig, ListingConfig};

/// What one scenario run through the dynamic engine produced.
struct DynamicRun {
    name: String,
    mode: &'static str,
    n: usize,
    batches: usize,
    deltas: usize,
    total: CongestCost,
    max_batch_rounds: u64,
    final_triangles: usize,
    oracle_ok: bool,
}

impl DynamicRun {
    fn mean_rounds_per_batch(&self) -> f64 {
        self.total.rounds as f64 / self.batches.max(1) as f64
    }

    fn mean_bits_per_batch(&self) -> f64 {
        self.total.bits as f64 / self.batches.max(1) as f64
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        json::push_str(&mut out, "scenario", &self.name);
        json::push_str(&mut out, "mode", self.mode);
        let total = &self.total;
        for (key, value) in [
            ("n", self.n as f64),
            ("batches", self.batches as f64),
            ("deltas", self.deltas as f64),
            ("total_rounds", total.rounds as f64),
            ("total_messages", total.messages as f64),
            ("total_bits", total.bits as f64),
            (
                "total_convergecast_rounds",
                total.convergecast_rounds as f64,
            ),
            ("mean_rounds_per_batch", self.mean_rounds_per_batch()),
            ("max_batch_rounds", self.max_batch_rounds as f64),
            ("mean_bits_per_batch", self.mean_bits_per_batch()),
            ("final_triangles", self.final_triangles as f64),
        ] {
            json::push_num(&mut out, key, value);
        }
        json::push_bool(&mut out, "oracle_ok", self.oracle_ok);
        json::finish_object(&mut out);
        out
    }
}

/// What the hotspot-epoch sweep measured: the broadcast prefix of the
/// same hub-bound removal batch under the legacy both-endpoints
/// schedule and under helper-splitting.
struct HotspotSweep {
    spokes: u32,
    unsplit_rounds: u64,
    split_rounds: u64,
    oracle_ok: bool,
}

impl HotspotSweep {
    fn improvement(&self) -> f64 {
        self.unsplit_rounds as f64 / self.split_rounds.max(1) as f64
    }
}

/// One hub with `spokes` incident removals while every helper carries
/// exactly one: a star (plus a rim, so the removals retire real
/// triangles) whose spoke edges are all torn down in a single batch.
/// The hub's load is `spokes` against an average-load budget of ~2 —
/// ≥ 8x over budget from 16 spokes up. Both runs read the broadcast
/// prefix (`rounds − convergecast_rounds`), so the comparison isolates
/// the phases the split reschedules.
fn hotspot_sweep(quick: bool) -> HotspotSweep {
    let spokes: u32 = if quick { 64 } else { 128 };
    let mut b = GraphBuilder::new(spokes as usize + 1);
    for i in 1..=spokes {
        b.add_edge(NodeId(0), NodeId(i)).expect("in range");
    }
    for i in 1..spokes {
        b.add_edge(NodeId(i), NodeId(i + 1)).expect("in range");
    }
    let graph = b.build();
    let mut tear = DeltaBatch::new();
    for i in 1..=spokes {
        tear.remove(NodeId(0), NodeId(i));
    }
    let run = |split: HubSplit| {
        let mut engine = DistributedTriangleEngine::from_graph(&graph).with_hub_split(split);
        engine.apply(&tear).expect("hub batch is in range");
        let cost = engine.last_batch_cost();
        (
            cost.rounds - cost.convergecast_rounds,
            engine.matches_oracle(),
            engine.triangle_count(),
        )
    };
    let (unsplit_rounds, unsplit_ok, unsplit_triangles) = run(HubSplit::Off);
    let (split_rounds, split_ok, split_triangles) = run(HubSplit::Auto);
    HotspotSweep {
        spokes,
        unsplit_rounds,
        split_rounds,
        oracle_ok: unsplit_ok && split_ok && unsplit_triangles == split_triangles,
    }
}

/// How many zero-rate runs any point of the fault sweep may cost in
/// rounds, enforced in-binary beside the zero-rate identity check: a
/// deadline wait (hundreds of times the quiet cost) cannot come back
/// unnoticed.
const FAULT_ROUND_CEILING: u64 = 10;

/// One drop rate's cost through the fault sweep: the same fixed-seed
/// churn stream through the hardened engine under a seeded loss plan.
struct FaultPoint {
    drop_rate: f64,
    batches: usize,
    total: CongestCost,
    stats: RecoveryStats,
    oracle_ok: bool,
}

impl FaultPoint {
    fn mean_rounds_per_batch(&self) -> f64 {
        self.total.rounds as f64 / self.batches.max(1) as f64
    }

    fn recovery_rounds_per_batch(&self) -> f64 {
        self.total.recovery_rounds as f64 / self.batches.max(1) as f64
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        let (total, stats) = (&self.total, &self.stats);
        for (key, value) in [
            ("drop_rate", self.drop_rate),
            ("batches", self.batches as f64),
            ("total_rounds", total.rounds as f64),
            ("recovery_rounds", total.recovery_rounds as f64),
            ("trailer_rounds", total.trailer_rounds as f64),
            ("idle_rounds", total.idle_rounds as f64),
            ("mean_rounds_per_batch", self.mean_rounds_per_batch()),
            (
                "recovery_rounds_per_batch",
                self.recovery_rounds_per_batch(),
            ),
            ("retransmit_rounds", stats.retransmit_rounds as f64),
            ("epoch_repairs", stats.epoch_repairs as f64),
            ("degraded_epochs", stats.degraded_epochs as f64),
        ] {
            json::push_num(&mut out, key, value);
        }
        json::push_bool(&mut out, "oracle_ok", self.oracle_ok);
        json::finish_object(&mut out);
        out
    }
}

/// Replays one fixed-seed uniform-churn stream through the hardened
/// engine under seeded loss plans of growing drop rate (plus the
/// zero-rate control) and measures what recovery costs at each rate.
/// Also returns the total cost of a *plain* engine (no fault layer at
/// all) on the same stream, so `main` can assert the zero-rate point
/// bit-identical to it — the acceptance claim that a quiet plan leaves
/// every cost metric exactly as it was. Every faulted run must still
/// end oracle-exact: the loss rates stay inside the bounded-repair
/// budget, so a failure to recover here is a protocol regression, not
/// bad luck (the plan seed is fixed).
fn fault_sweep(quick: bool) -> (CongestCost, Vec<FaultPoint>) {
    let (n, batches, size) = if quick { (300, 6, 40) } else { (600, 12, 60) };
    let scenario = Scenario::uniform_churn(n, batches, size)
        .with_base(BaseGraph::Gnp { p: 8.0 / n as f64 })
        .seeded(0x000D_1FA7);
    let base = scenario.base_graph();
    let stream = scenario.batches();

    let mut plain = DistributedTriangleEngine::from_graph(&base);
    for batch in &stream {
        plain.apply(batch).expect("scenario batches are in range");
    }
    assert!(plain.matches_oracle(), "plain fault-sweep control diverged");

    let points = [0.0, 0.001, 0.01]
        .into_iter()
        .map(|rate| {
            let plan = FaultPlan::default().with_drop(rate).with_seed(0x0000_FA17);
            let mut engine = DistributedTriangleEngine::from_graph(&base).with_fault_plan(plan);
            for batch in &stream {
                engine.apply(batch).unwrap_or_else(|e| {
                    panic!("fault sweep at drop rate {rate} failed to recover: {e}")
                });
            }
            FaultPoint {
                drop_rate: rate,
                batches: stream.len(),
                total: engine.total_cost(),
                stats: engine.recovery_stats(),
                oracle_ok: engine.matches_oracle(),
            }
        })
        .collect();
    (plain.total_cost(), points)
}

/// Drives one scenario through the distributed engine and totals the
/// network cost: batch by batch, or with `flush_every = Some(k)` deferred
/// — each window of `k` batches (and the last, shorter one) applied as
/// their merge, one epoch. The engine coalesces every batch it is given,
/// so a window of one batch runs the epoch the batch itself would.
fn run_dynamic(scenario: &Scenario, flush_every: Option<usize>) -> DynamicRun {
    let base = scenario.base_graph();
    let mut engine = DistributedTriangleEngine::from_graph(&base);
    let batches = scenario.batches();
    let mut max_batch_rounds = 0u64;
    for window in batches.chunks(flush_every.unwrap_or(1)) {
        engine
            .apply(&DeltaBatch::merge(window))
            .expect("scenario batches are in range");
        max_batch_rounds = max_batch_rounds.max(engine.last_batch_cost().rounds);
    }
    DynamicRun {
        name: scenario.name(),
        mode: if flush_every.is_some() {
            "deferred"
        } else {
            "eager"
        },
        n: scenario.node_count(),
        batches: batches.len(),
        deltas: batches.iter().map(DeltaBatch::len).sum(),
        total: engine.total_cost(),
        max_batch_rounds,
        final_triangles: engine.triangle_count(),
        oracle_ok: engine.matches_oracle(),
    }
}

/// Re-runs a small convergecast stream — once clean, once under a
/// seeded loss plan so the recovery span family is exercised — with
/// span tracing enabled and writes the recorded spans as
/// chrome://tracing trace-event JSON. Runs
/// strictly after the measured sections (which always execute with
/// tracing disabled), so the gated round counts never include it — and
/// round counts are bit-identical under tracing anyway, which the
/// engine's lockstep test enforces.
fn capture_trace(path: &std::path::Path) {
    congest_obs::trace::clear();
    congest_obs::set_enabled(true);
    let scenario = Scenario::uniform_churn(80, 6, 40)
        .with_base(BaseGraph::Gnp { p: 0.05 })
        .seeded(0x00D1_7ACE);
    let base = scenario.base_graph();
    let mut engine = DistributedTriangleEngine::from_graph(&base);
    for batch in scenario.batches() {
        engine.apply(&batch).expect("scenario batches are in range");
    }
    assert!(engine.matches_oracle(), "traced run diverged from oracle");

    // The same stream replayed under a seeded 2% loss plan: trailer
    // verification failures trigger bounded retransmission epochs, so
    // the `distributed/recovery` span family `trace_check` requires is
    // present in the capture.
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
    congest_obs::set_enabled(false);
    let events = congest_obs::trace::drain();
    congest_obs::trace::write_chrome_trace(path, &events)
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!(
        "\nwrote {} ({} trace events, {} dropped)",
        path.display(),
        events.len(),
        congest_obs::trace::dropped(),
    );
    println!(
        "\n{}",
        congest_obs::report::text_report(&events, &congest_obs::snapshot())
    );
}

/// Replays a temporal edge-list file through the distributed dynamic
/// engine. The same measurement loop as the headline — per-batch round
/// costs and a final oracle check — but over recorded arrivals and
/// departures instead of a synthetic `Scenario`. Returns the JSON
/// object for the report's `"replay"` key.
fn run_replay_section(input: &std::path::Path, replay_spec: Option<&str>) -> String {
    let policy = ReplayPolicy::parse(replay_spec.unwrap_or("size:500"))
        .unwrap_or_else(|e| panic!("--replay: {e}"));
    let timeline = TemporalLoader::new()
        .load_path(input)
        .unwrap_or_else(|e| panic!("load {}: {e}", input.display()));
    let label = input
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| input.display().to_string());
    let replay = Replay::new(timeline, policy).with_label(&label);
    let timeline = replay.timeline();

    let base = replay.base_graph();
    let mut engine = DistributedTriangleEngine::from_graph(&base);
    let mut max_batch_rounds = 0u64;
    let mut deltas = 0usize;
    let mut batches = 0usize;
    for batch in replay.batch_iter() {
        deltas += batch.len();
        engine
            .apply(&batch)
            .expect("replayed deltas are in range: the loader bounds node ids");
        max_batch_rounds = max_batch_rounds.max(engine.last_batch_cost().rounds);
        batches += 1;
    }
    assert_eq!(
        batches,
        replay.batch_count(),
        "Replay::batch_count must match the batches its iterator yields"
    );
    let total = engine.total_cost();
    let mean_rounds = total.rounds as f64 / batches.max(1) as f64;
    let oracle_ok = engine.matches_oracle();
    assert!(oracle_ok, "replayed stream diverged from the oracle");
    println!(
        "\nreplay {label} ({} policy): {} events over {} batches, \
         {mean_rounds:.1} rounds/batch (max {max_batch_rounds}), \
         {} final triangles, oracle ok",
        replay
            .replay_policy()
            .expect("replay sources have a policy"),
        timeline.len(),
        batches,
        engine.triangle_count(),
    );

    let mut out = String::from("{");
    json::push_str(&mut out, "file", &input.display().to_string());
    json::push_str(&mut out, "source", &BatchSource::name(&replay));
    json::push_str(
        &mut out,
        "source_fingerprint",
        &fingerprint_hex(BatchSource::fingerprint(&replay)),
    );
    json::push_str(
        &mut out,
        "policy",
        &replay
            .replay_policy()
            .expect("replay sources have a policy"),
    );
    json::push_num(&mut out, "node_count", replay.node_count() as f64);
    json::push_num(&mut out, "events", timeline.len() as f64);
    json::push_num(&mut out, "batches", batches as f64);
    json::push_num(&mut out, "deltas", deltas as f64);
    json::push_num(&mut out, "mean_rounds_per_batch", mean_rounds);
    json::push_num(&mut out, "max_batch_rounds", max_batch_rounds as f64);
    json::push_num(&mut out, "total_rounds", total.rounds as f64);
    json::push_num(&mut out, "total_bits", total.bits as f64);
    json::push_num(&mut out, "final_triangles", engine.triangle_count() as f64);
    json::push_bool(&mut out, "oracle_ok", oracle_ok);
    json::finish_object(&mut out);
    out
}

fn main() {
    let mut quick = false;
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut input: Option<std::path::PathBuf> = None;
    let mut replay_spec: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--trace-out" => {
                trace_out = Some(it.next().expect("--trace-out requires a value").into());
            }
            "--input" => {
                input = Some(it.next().expect("--input requires a file path").into());
            }
            "--replay" => {
                let spec = it.next().expect("--replay requires size:N or window:MS");
                ReplayPolicy::parse(&spec).unwrap_or_else(|e| panic!("--replay: {e}"));
                replay_spec = Some(spec);
            }
            other => {
                panic!("unknown flag {other} (expected --quick, --trace-out, --input, or --replay)")
            }
        }
    }

    // Matrix scale and the headline scenario. The full headline mirrors
    // `stream_bench`'s 10k-node uniform-churn acceptance scenario.
    let (matrix_n, matrix_batches, matrix_size) = if quick { (300, 6, 40) } else { (600, 12, 60) };
    let headline = if quick {
        Scenario::uniform_churn(2_000, 12, 100)
            .with_base(BaseGraph::Gnp { p: 0.004 })
            .seeded(0x00D1_2000)
    } else {
        Scenario::uniform_churn(10_000, 40, 250)
            .with_base(BaseGraph::Gnp { p: 0.0008 })
            .seeded(0x10_000)
    };

    let base = BaseGraph::Gnp {
        p: 8.0 / matrix_n as f64,
    };
    let matrix = vec![
        Scenario::uniform_churn(matrix_n, matrix_batches, matrix_size)
            .with_base(base)
            .seeded(0x000D_1AA0),
        Scenario::hotspot_churn(matrix_n, matrix_batches, matrix_size)
            .with_base(base)
            .seeded(0x000D_1AA1),
        Scenario::planted_bursts(matrix_n, matrix_batches, matrix_size)
            .with_base(base)
            .seeded(0x000D_1AA2),
        Scenario::grow_then_shrink(matrix_n, matrix_batches, matrix_size)
            .with_base(base)
            .seeded(0x000D_1AA3),
    ];

    let mut table = Table::new([
        "scenario",
        "mode",
        "n",
        "batches",
        "rounds/batch",
        "max rounds",
        "bits/batch",
        "final triangles",
        "oracle",
    ]);
    let mut runs: Vec<DynamicRun> = Vec::new();

    for scenario in &matrix {
        let eager = run_dynamic(scenario, None);
        table.row([
            eager.name.clone(),
            eager.mode.to_string(),
            eager.n.to_string(),
            eager.batches.to_string(),
            fmt_f64(eager.mean_rounds_per_batch()),
            eager.max_batch_rounds.to_string(),
            fmt_f64(eager.mean_bits_per_batch()),
            eager.final_triangles.to_string(),
            if eager.oracle_ok { "ok" } else { "FAIL" }.to_string(),
        ]);
        runs.push(eager);
    }
    // One deferred variant: whole windows coalesce into single epochs.
    let deferred = run_dynamic(&matrix[0], Some(4));
    table.row([
        deferred.name.clone(),
        "deferred/4".to_string(),
        deferred.n.to_string(),
        deferred.batches.to_string(),
        fmt_f64(deferred.mean_rounds_per_batch()),
        deferred.max_batch_rounds.to_string(),
        fmt_f64(deferred.mean_bits_per_batch()),
        deferred.final_triangles.to_string(),
        if deferred.oracle_ok { "ok" } else { "FAIL" }.to_string(),
    ]);

    // Headline: the dynamic engine across the stream, then one
    // conservative (single-repetition) re-run of each static driver on
    // the live engine's own adjacency view.
    let headline_base = headline.base_graph();
    let mut engine = DistributedTriangleEngine::from_graph(&headline_base);
    let mut max_batch_rounds = 0u64;
    let mut headline_deltas = 0usize;
    for batch in headline.batches() {
        headline_deltas += batch.len();
        engine.apply(&batch).expect("headline batches are in range");
        max_batch_rounds = max_batch_rounds.max(engine.last_batch_cost().rounds);
    }
    let headline_skew = engine.received_bits_skew();
    let headline_run = DynamicRun {
        name: headline.name(),
        mode: "eager (headline)",
        n: headline.node_count(),
        batches: headline.batch_count(),
        deltas: headline_deltas,
        total: engine.total_cost(),
        max_batch_rounds,
        final_triangles: engine.triangle_count(),
        oracle_ok: engine.matches_oracle(),
    };
    table.row([
        headline_run.name.clone(),
        headline_run.mode.to_string(),
        headline_run.n.to_string(),
        headline_run.batches.to_string(),
        fmt_f64(headline_run.mean_rounds_per_batch()),
        headline_run.max_batch_rounds.to_string(),
        fmt_f64(headline_run.mean_bits_per_batch()),
        headline_run.final_triangles.to_string(),
        if headline_run.oracle_ok { "ok" } else { "FAIL" }.to_string(),
    ]);

    let seed = 0x00D1_BA5E;
    let finding = find_triangles(
        &engine,
        &FindingConfig::scaled(&engine).with_repetitions(1),
        seed,
    );
    let listing = list_triangles(
        &engine,
        &ListingConfig::scaled(&engine).with_repetitions(1),
        seed,
    );
    let mean_rounds = headline_run.mean_rounds_per_batch();
    let speedup_vs_finding = finding.total_rounds as f64 / mean_rounds;
    let speedup_vs_listing = listing.total_rounds as f64 / mean_rounds;
    let bits_ratio_vs_listing = listing.total_bits as f64 / headline_run.mean_bits_per_batch();

    println!("# dynamic_bench — distributed dynamic engine vs static re-runs\n");
    table.print();
    println!(
        "\nheadline ({}k nodes): dynamic {:.1} rounds/batch (max {}), \
         re-run baselines: Thm1 finding {} rounds, Thm2 listing {} rounds",
        headline_run.n / 1000,
        mean_rounds,
        headline_run.max_batch_rounds,
        finding.total_rounds,
        listing.total_rounds,
    );
    println!(
        "round speedup vs per-batch re-runs: {speedup_vs_finding:.0}x (finding), \
         {speedup_vs_listing:.0}x (listing); acceptance floor: 5x"
    );
    println!(
        "message volume: dynamic {:.0} bits/batch vs {} bits per listing re-run \
         ({bits_ratio_vs_listing:.0}x)",
        headline_run.mean_bits_per_batch(),
        listing.total_bits,
    );

    // Bandwidth sweep: the same mid-sized batch under growing budgets.
    let sweep_scenario = Scenario::hotspot_churn(matrix_n, 4, 4 * matrix_size)
        .with_base(base)
        .seeded(0x000D_1AAB);
    let sweep_base = sweep_scenario.base_graph();
    let reference = {
        let mut e = DistributedTriangleEngine::from_graph(&sweep_base);
        for batch in sweep_scenario.batches() {
            e.apply(&batch).expect("in range");
        }
        e.triangle_count()
    };
    let mut bw_points: Vec<String> = Vec::new();
    print!("bandwidth sweep (rounds/batch): ");
    for factor in [2u32, 8, 32] {
        let mut engine = DistributedTriangleEngine::from_graph_with_bandwidth(
            &sweep_base,
            Bandwidth::LogFactor(factor),
        );
        for batch in sweep_scenario.batches() {
            engine.apply(&batch).expect("in range");
        }
        assert_eq!(
            engine.triangle_count(),
            reference,
            "bandwidth must not change results"
        );
        let mean = engine.total_cost().rounds as f64 / engine.epochs().max(1) as f64;
        print!("B={factor}·log n → {mean:.1}  ");
        let mut point = String::from("{");
        json::push_num(&mut point, "log_factor", f64::from(factor));
        json::push_num(&mut point, "mean_rounds_per_batch", mean);
        json::finish_object(&mut point);
        bw_points.push(point);
    }
    println!();

    // Hotspot sweep: the helper-split schedule against the legacy
    // both-endpoints broadcast on a hub carrying ≥ 8x the budget.
    let hotspot = hotspot_sweep(quick);
    let hotspot_improvement = hotspot.improvement();
    println!(
        "hotspot sweep ({} spoke removals on one hub, broadcast prefix): \
         unsplit {} rounds/batch → split {} rounds/batch \
         ({hotspot_improvement:.1}x flatter; floor {HOTSPOT_SPLIT_IMPROVEMENT_FLOOR}x)",
        hotspot.spokes, hotspot.unsplit_rounds, hotspot.split_rounds,
    );

    // The aggregation cost the headline now honestly charges itself.
    let headline_convergecast_per_batch =
        headline_run.total.convergecast_rounds as f64 / headline_run.batches.max(1) as f64;
    println!(
        "headline convergecast share: {headline_convergecast_per_batch:.1} of \
         {mean_rounds:.1} rounds/batch pay for the in-network candidate merge"
    );

    // Per-node received-bits skew: how far the worst-loaded node sits
    // above the mean. The headline's uniform churn should stay modest.
    let (headline_skew_max, headline_skew_mean) = headline_skew
        .map(|s| (s.max_ratio, s.mean_ratio))
        .unwrap_or((f64::NAN, f64::NAN));
    println!(
        "received-bits skew (max/mean per node): headline max {headline_skew_max:.1}x \
         mean {headline_skew_mean:.1}x"
    );

    // Fault sweep: the same fixed-seed churn stream through the
    // hardened engine under seeded loss plans. The zero-rate point must
    // be bit-identical to the plain engine — a quiet plan takes exactly
    // the legacy path — and every lossy point reports what its bounded
    // retransmission recovery cost in accounted rounds.
    let (fault_plain_total, fault_points) = fault_sweep(quick);
    let fault_zero = &fault_points[0];
    assert_eq!(
        fault_zero.total, fault_plain_total,
        "zero-rate fault plan changed the cost accounting"
    );
    assert_eq!(
        fault_zero.stats,
        RecoveryStats::default(),
        "zero-rate fault plan ran recovery machinery"
    );
    // The sweep has no crash window and stays at or below 1 % drop: a
    // lost message there costs a resend or a repair epoch, never a
    // deadline, so no epoch may degrade and no rate may cost more than
    // ten zero-rate runs.
    for p in &fault_points {
        assert_eq!(
            p.stats.degraded_epochs, 0,
            "fault sweep at drop rate {} degraded an epoch",
            p.drop_rate
        );
        assert!(
            p.total.rounds <= FAULT_ROUND_CEILING * fault_zero.total.rounds,
            "fault sweep at drop rate {} cost {} rounds, over {FAULT_ROUND_CEILING}x \
             the zero-rate {}",
            p.drop_rate,
            p.total.rounds,
            fault_zero.total.rounds
        );
    }
    let fault_zero_round_ratio =
        fault_zero.total.rounds as f64 / fault_plain_total.rounds.max(1) as f64;
    let fault_drop1 = fault_points.last().expect("the sweep has points");
    print!("fault sweep (drop rate → rounds/batch, of which recovery / trailer / idle): ");
    for p in &fault_points {
        let per_batch = |rounds: u64| rounds as f64 / p.batches.max(1) as f64;
        print!(
            "{}% → {:.1} ({:.1} / {:.1} / {:.1})  ",
            p.drop_rate * 100.0,
            p.mean_rounds_per_batch(),
            p.recovery_rounds_per_batch(),
            per_batch(p.total.trailer_rounds),
            per_batch(p.total.idle_rounds),
        );
    }
    println!();
    println!(
        "zero-fault round ratio {fault_zero_round_ratio:.3} (bit-identity enforced in-binary); \
         1% drop pays {} repair epochs and {} degraded epochs over {} batches",
        fault_drop1.stats.epoch_repairs, fault_drop1.stats.degraded_epochs, fault_drop1.batches,
    );

    let any_oracle_failure = runs.iter().any(|r| !r.oracle_ok)
        || !deferred.oracle_ok
        || !headline_run.oracle_ok
        || !hotspot.oracle_ok
        || fault_points.iter().any(|p| !p.oracle_ok);
    if any_oracle_failure {
        eprintln!("ERROR: at least one run diverged from the centralized oracle");
    }

    // Optional replay section: a recorded temporal file through the
    // same dynamic engine, reported alongside the synthetic runs.
    let replay_json = input
        .as_deref()
        .map(|path| run_replay_section(path, replay_spec.as_deref()));

    // Machine-readable trajectory for the CI gate. Round counts are
    // deterministic per seed, so the gate needs no hardware fingerprint
    // — only the scenario shape (`quick`, `headline_n`) and the batch
    // source (`source_fingerprint`) must match.
    let runs: Vec<String> = runs
        .iter()
        .chain([&deferred, &headline_run])
        .map(DynamicRun::to_json)
        .collect();
    let fault_json: Vec<String> = fault_points.iter().map(FaultPoint::to_json).collect();
    let mut out = String::from("{");
    json::push_str(&mut out, "bench", "dynamic");
    json::push_num(&mut out, "schema_version", 5.0);
    json::push_num(&mut out, "quick", f64::from(u8::from(quick)));
    json::push_num(&mut out, "headline_n", headline_run.n as f64);
    json::push_num(&mut out, "headline_batches", headline_run.batches as f64);
    json::push_str(
        &mut out,
        "source_fingerprint",
        &fingerprint_hex(BatchSource::fingerprint(&headline)),
    );
    for (key, array) in [
        ("runs", runs.join(",")),
        ("fault_sweep", fault_json.join(",")),
        ("bandwidth_sweep", bw_points.join(",")),
    ] {
        json::push_raw(&mut out, key, &format!("[{array}]"));
    }
    for (key, value) in [
        ("fault_zero_round_ratio", fault_zero_round_ratio),
        (
            "fault_drop1pct_rounds_per_batch",
            fault_drop1.mean_rounds_per_batch(),
        ),
        (
            "fault_drop1pct_recovery_rounds_per_batch",
            fault_drop1.recovery_rounds_per_batch(),
        ),
        ("headline_mean_rounds_per_batch", mean_rounds),
        (
            "headline_max_batch_rounds",
            headline_run.max_batch_rounds as f64,
        ),
        (
            "headline_mean_bits_per_batch",
            headline_run.mean_bits_per_batch(),
        ),
        (
            "headline_convergecast_rounds_per_batch",
            headline_convergecast_per_batch,
        ),
        ("finding_rerun_rounds", finding.total_rounds as f64),
        ("listing_rerun_rounds", listing.total_rounds as f64),
        ("headline_round_speedup_vs_finding", speedup_vs_finding),
        ("headline_round_speedup_vs_listing", speedup_vs_listing),
        ("headline_bits_ratio_vs_listing", bits_ratio_vs_listing),
        ("headline_received_bits_skew_max", headline_skew_max),
        ("headline_received_bits_skew_mean", headline_skew_mean),
        ("hotspot_spokes", f64::from(hotspot.spokes)),
        (
            "hotspot_rounds_per_batch_unsplit",
            hotspot.unsplit_rounds as f64,
        ),
        ("hotspot_rounds_per_batch", hotspot.split_rounds as f64),
        ("hotspot_split_round_improvement", hotspot_improvement),
    ] {
        json::push_num(&mut out, key, value);
    }
    json::push_raw(&mut out, "replay", replay_json.as_deref().unwrap_or("null"));
    json::finish_object(&mut out);
    std::fs::write("BENCH_dynamic.json", &out).expect("write BENCH_dynamic.json");
    println!("\nwrote BENCH_dynamic.json ({} runs)", runs.len());

    if let Some(path) = &trace_out {
        capture_trace(path);
    }

    // Enforced floors.
    let mut failed = any_oracle_failure;
    let floor = 5.0;
    for (name, speedup) in [
        ("finding", speedup_vs_finding),
        ("listing", speedup_vs_listing),
    ] {
        if !speedup.is_finite() || speedup < floor {
            eprintln!(
                "ERROR: dynamic round speedup vs {name} re-runs is {speedup:.1}x, \
                 below the {floor}x floor"
            );
            failed = true;
        }
    }
    if !hotspot_improvement.is_finite() || hotspot_improvement < HOTSPOT_SPLIT_IMPROVEMENT_FLOOR {
        eprintln!(
            "ERROR: helper-split hotspot improvement is {hotspot_improvement:.1}x, below the \
             {HOTSPOT_SPLIT_IMPROVEMENT_FLOOR}x floor (unsplit {} vs split {} rounds/batch)",
            hotspot.unsplit_rounds, hotspot.split_rounds,
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
