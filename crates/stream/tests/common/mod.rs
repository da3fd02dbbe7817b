//! The engine conformance harness the stream property suites share: the
//! base-graph families, the one batch-stream generator, and the lockstep
//! that drives engine configurations through the same batches against
//! one reference [`TriangleIndex`] and one tally oracle. The contract is
//! the one every engine documents: after every batch the live triangle
//! set equals a from-scratch recount, and the [`ApplyReport`] is the one
//! its apply path promises.

// Every suite links this module and uses a part of it.
#![allow(dead_code)]

use congest_graph::generators::{Classic, Gnp, PlantedHeavy, PlantedLight, TriangleFreeBipartite};
use congest_graph::temporal::{SyntheticTemporal, TemporalLoader};
use congest_graph::triangles as oracle;
use congest_graph::{AdjacencyView, Graph, NodeId, TriangleSet};
use congest_stream::{
    ApplyReport, ArenaStats, BatchSource, CongestCost, DeltaBatch, DeltaOp,
    DistributedTriangleEngine, FaultPlan, HubSplit, Lease, RecoveryStats, Replay, ReplayPolicy,
    ShardedTriangleIndex, StreamEngine, StreamError, TriangleIndex, TriangleServer,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Expands a compact spec into a randomized batch stream over `n` nodes.
///
/// Deltas are biased 60/40 toward insertion so streams actually build
/// structure, and roughly one delta in eight repeats the previous edge to
/// exercise duplicates, coalescing and no-ops.
pub fn random_batches(n: usize, count: usize, len: usize, seed: u64) -> Vec<DeltaBatch> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut last: Option<(NodeId, NodeId)> = None;
    (0..count)
        .map(|_| {
            let mut batch = DeltaBatch::new();
            for _ in 0..len {
                let (u, v) = match last {
                    Some(pair) if rng.gen_bool(0.125) => pair,
                    _ => {
                        let u = rng.gen_range(0..n);
                        let mut v = rng.gen_range(0..n);
                        while v == u {
                            v = rng.gen_range(0..n);
                        }
                        (NodeId::from_index(u), NodeId::from_index(v))
                    }
                };
                last = Some((u, v));
                if rng.gen_bool(0.6) {
                    batch.insert(u, v);
                } else {
                    batch.remove(u, v);
                }
            }
            batch
        })
        .collect()
}

/// A batch of this many raw deltas reaches the shard pool's hand-off
/// floor whatever its degrees; the short batches here, on at most 48
/// nodes, stay far under it.
pub const POOLED_LEN: usize = 1024;

/// `short` followed by two batches of [`POOLED_LEN`] random deltas, so
/// every multi-shard engine also runs the pooled pipeline.
pub fn with_pooled_tail(mut short: Vec<DeltaBatch>, n: usize, seed: u64) -> Vec<DeltaBatch> {
    short.extend(random_batches(n, 2, POOLED_LEN, seed));
    short
}

/// The base-graph families every engine is checked on: Erdős–Rényi
/// G(n, p); planted light triangles, sparse structure the churn tears
/// apart; a planted heavy triangle, one high-degree hub, the worst case
/// for lost broadcast streams; triangle-free bipartite, where every
/// triangle an engine reports was created by the stream itself; and
/// complete graphs, where removals dominate, most triangles lose several
/// edges to one batch and almost every node observes every death — the
/// dedup paths of every merge. And a replayed temporal file: its base
/// graph and batches as the loader yields them.
#[derive(Clone, Copy, Debug)]
pub enum Family {
    Gnp,
    PlantedLight,
    PlantedHeavy,
    Bipartite,
    Complete,
    Replay,
}

impl Family {
    /// Every family.
    pub const ALL: [Family; 6] = [
        Family::Gnp,
        Family::PlantedLight,
        Family::PlantedHeavy,
        Family::Bipartite,
        Family::Complete,
        Family::Replay,
    ];

    /// A base graph of this family, its size and density drawn from
    /// `seed`, and the churn on it: six short batches (a replayed file's
    /// own), then the pooled tail.
    pub fn stream(self, seed: u64) -> (Graph, Vec<DeltaBatch>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = match self {
            Family::Gnp => Gnp::new(rng.gen_range(8..40), rng.gen_range(0.05..0.4))
                .seeded(seed)
                .generate(),
            Family::PlantedLight => {
                let count = rng.gen_range(1..8);
                PlantedLight::new(3 * count + 10, count)
                    .with_background(0.05)
                    .seeded(seed)
                    .generate()
            }
            Family::PlantedHeavy => {
                let support = rng.gen_range(6..14);
                PlantedHeavy::new(support + 12, support)
                    .with_background(0.05)
                    .seeded(seed)
                    .generate()
            }
            Family::Bipartite => {
                let (left, right) = (rng.gen_range(4..16), rng.gen_range(4..16));
                TriangleFreeBipartite::new(left, right, rng.gen_range(0.1..0.5))
                    .seeded(seed)
                    .generate()
            }
            Family::Complete => Classic::Complete(rng.gen_range(4..14)).generate(),
            Family::Replay => {
                let text = SyntheticTemporal::new(24, 240).seeded(seed).render();
                let timeline = TemporalLoader::new().parse_str(&text).unwrap();
                let replay = Replay::new(timeline, ReplayPolicy::BySize(40));
                let base = replay.base_graph();
                let n = base.node_count();
                return (
                    base,
                    with_pooled_tail(replay.batch_iter().collect(), n, !seed),
                );
            }
        };
        let n = base.node_count();
        let short = random_batches(n, 6, 12, seed ^ 0xA5A5);
        (base, with_pooled_tail(short, n, !seed))
    }
}

/// The fault sweep every distributed lockstep runs: quiet, light loss,
/// corruption with duplication and no loss (most convergecast links
/// then carry the one-bit empty aggregate, which a flipped bit must not
/// forge and a duplicate must not double-count), heavy loss with
/// corruption and duplication, and heavy loss with one mid-stream
/// crash/rejoin window on a low-degree node.
pub fn sweep_plans(seed: u64) -> Vec<FaultPlan> {
    let seeded = FaultPlan::default().with_seed(seed);
    let lossy = seeded.with_drop(0.01).with_corruption(0.005);
    vec![
        FaultPlan::default(),
        seeded.with_drop(0.001),
        seeded.with_corruption(0.05).with_duplication(0.05),
        lossy.with_duplication(0.005),
        lossy.with_crash(2, 1, 3),
    ]
}

/// One engine configuration the lockstep drives.
#[derive(Clone, Copy, Debug)]
pub enum Config {
    /// The one-shard engine.
    Index,
    /// The sharded engine at `S` shards.
    Sharded(usize),
    /// A one-shard [`TriangleServer`], read through a fresh [`Lease`]:
    /// the routed-write path beside the live arena.
    Served,
    /// The distributed engine under a broadcast schedule.
    Distributed(HubSplit),
    /// The hardened distributed engine under a fault plan: the one
    /// configuration allowed a typed error.
    Faulted(FaultPlan),
}

impl Config {
    /// The sharded engine at `S ∈ {1, 3, 8}`.
    pub fn sharded() -> Vec<Config> {
        [1, 3, 8].map(Config::Sharded).to_vec()
    }

    /// Every configuration that runs case `case` of a stream source
    /// (see [`Config::cases`]), the fault plans seeded by `seed`.
    pub fn all(case: usize, seed: u64) -> Vec<Config> {
        let mut all = vec![Config::Index, Config::Served];
        all.extend(Config::sharded());
        all.extend([HubSplit::Auto, HubSplit::Off, HubSplit::Budget(1)].map(Config::Distributed));
        all.extend(sweep_plans(seed).into_iter().map(Config::Faulted));
        all.retain(|c| case < c.cases());
        all
    }

    /// How many cases of a stream source this configuration runs: what
    /// its suite ran before the harness, the fault plans fewest because
    /// their epochs cost most.
    fn cases(self) -> usize {
        match self {
            Config::Index | Config::Served => 12,
            Config::Sharded(_) | Config::Distributed(_) => 8,
            Config::Faulted(_) => 4,
        }
    }

    /// Whether this configuration runs a stream's pooled tail. The
    /// simulated network has no pool, and an epoch of a thousand deltas
    /// costs a debug build tens of milliseconds.
    fn runs_tail(self) -> bool {
        !matches!(self, Config::Distributed(_) | Config::Faulted(_))
    }

    fn build(self, base: &Graph) -> Box<dyn Subject> {
        match self {
            Config::Index => Box::new(TriangleIndex::from_graph(base)),
            Config::Sharded(s) => Box::new(ShardedTriangleIndex::from_graph(base, s)),
            Config::Served => {
                let server = TriangleServer::new(ShardedTriangleIndex::from_graph(base, 1));
                let lease = server.handle().lease();
                Box::new(Served { server, lease })
            }
            Config::Distributed(split) => {
                Box::new(DistributedTriangleEngine::from_graph(base).with_hub_split(split))
            }
            Config::Faulted(plan) => {
                let engine = DistributedTriangleEngine::from_graph(base).with_fault_plan(plan);
                assert_eq!(engine.hardened(), !plan.is_quiet());
                Box::new(engine)
            }
        }
    }
}

/// What the lockstep reads off an engine beyond [`StreamEngine`]: the
/// live triangle set and, for the simulated network, what the last batch
/// cost and what recovery has done so far.
pub trait Subject: StreamEngine {
    fn triangles(&self) -> &TriangleSet;

    fn cost(&self) -> Option<(CongestCost, RecoveryStats)> {
        None
    }
}

impl Subject for TriangleIndex {
    fn triangles(&self) -> &TriangleSet {
        ShardedTriangleIndex::triangles(self)
    }
}

impl Subject for ShardedTriangleIndex {
    fn triangles(&self) -> &TriangleSet {
        ShardedTriangleIndex::triangles(self)
    }
}

impl Subject for DistributedTriangleEngine {
    fn triangles(&self) -> &TriangleSet {
        DistributedTriangleEngine::triangles(self)
    }

    fn cost(&self) -> Option<(CongestCost, RecoveryStats)> {
        Some((self.last_batch_cost(), self.recovery_stats()))
    }
}

/// A server seen the way a reader sees it: adjacency, counts and node
/// support come from a lease taken after the last write.
struct Served {
    server: TriangleServer,
    lease: Lease,
}

impl AdjacencyView for Served {
    fn node_count(&self) -> usize {
        self.lease.node_count()
    }

    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        self.lease.neighbors(node)
    }

    fn edge_count(&self) -> usize {
        AdjacencyView::edge_count(&self.lease)
    }
}

impl StreamEngine for Served {
    fn apply(&mut self, batch: &DeltaBatch) -> Result<ApplyReport, StreamError> {
        let report = self.server.apply(batch)?;
        self.lease = self.server.handle().lease();
        Ok(report)
    }

    fn triangle_count(&self) -> usize {
        self.lease.triangle_count()
    }

    fn matches_oracle(&self) -> bool {
        oracle::list_all_on(&self.lease) == *self.triangles()
    }

    fn shard_count(&self) -> usize {
        1
    }

    fn arena_stats(&self) -> Option<ArenaStats> {
        Some(self.server.engine().arena_stats())
    }

    fn node_support(&self, node: NodeId) -> Option<usize> {
        Some(self.lease.node_support(node))
    }
}

impl Subject for Served {
    fn triangles(&self) -> &TriangleSet {
        self.server.engine().triangles()
    }
}

/// Batches `subject` ran on the shard pool.
fn pooled(subject: &dyn Subject) -> usize {
    subject.worker_telemetry().map_or(0, |t| t.pooled_batches)
}

/// The reference's adjacency and triangle set, kept across a batch.
fn state(reference: &TriangleIndex) -> (Graph, TriangleSet) {
    (reference.snapshot(), reference.triangles().clone())
}

/// The tally oracle: the report of applying `batch` coalesced to the
/// state `pre`, leaving the triangle set `post`. An effective op is one
/// the coalesced batch keeps whose edge state it changes; every other
/// raw delta is a no-op.
fn coalesced_report(
    pre: &(Graph, TriangleSet),
    batch: &DeltaBatch,
    post: &TriangleSet,
) -> ApplyReport {
    let missing = |a: &TriangleSet, b: &TriangleSet| a.iter().filter(|t| !b.contains(t)).count();
    let mut report = ApplyReport {
        deltas_seen: batch.len(),
        triangles_added: missing(post, &pre.1),
        triangles_removed: missing(&pre.1, post),
        ..ApplyReport::default()
    };
    for d in batch.coalesce().deltas() {
        match (d.op, pre.0.has_edge(d.edge.lo(), d.edge.hi())) {
            (DeltaOp::Insert, false) => report.inserts_applied += 1,
            (DeltaOp::Remove, true) => report.removes_applied += 1,
            _ => {}
        }
    }
    report.noops = batch.len() - report.inserts_applied - report.removes_applied;
    report
}

/// One step of a lane: the batch it applies, the reference's own
/// per-delta report for it, and the tally oracle's.
type Step<'a> = (&'a DeltaBatch, ApplyReport, ApplyReport);

/// Applies a step to `subject` and checks the result: the tally oracle's
/// report if the engine coalesced the batch first (the distributed
/// engine always, the sharded engine when its pool ran the batch), the
/// reference's otherwise; the reference's triangle set and counts; every
/// neighbour list; and, where the subject keeps them, every node's
/// support. An error is allowed to a faulted configuration only, whose
/// next `apply` must then be refused as [`StreamError::Poisoned`].
fn apply_checked(
    subject: &mut dyn Subject,
    config: Config,
    step: &Step,
    reference: &TriangleIndex,
    what: &str,
) -> Result<(), StreamError> {
    let (batch, ordered, coalesced) = *step;
    let pooled_before = pooled(subject);
    let report = match (subject.apply(batch), config) {
        (Ok(report), _) => report,
        (Err(e), Config::Faulted(_)) => {
            let again = subject.apply(batch);
            assert_eq!(again, Err(StreamError::Poisoned), "{what}: after {e}");
            return Err(e);
        }
        (Err(e), _) => panic!("{what}: {e}"),
    };
    if subject.cost().is_some() || pooled(subject) > pooled_before {
        assert_eq!(report, coalesced, "{what}: coalesced tallies");
    } else {
        assert_eq!(report, ordered, "{what}: ordered tallies");
    }
    assert_eq!(subject.triangles(), reference.triangles(), "{what}");
    let counts = (subject.triangle_count(), subject.edge_count());
    let expected_counts = (reference.triangle_count(), reference.edge_count());
    assert_eq!(counts, expected_counts, "{what}");
    for v in reference.nodes() {
        assert_eq!(subject.neighbors(v), reference.neighbors(v), "{what}: {v}");
        if let Some(support) = subject.node_support(v) {
            assert_eq!(Some(support), reference.node_support(v), "{what}: {v}");
        }
    }
    Ok(())
}

/// Engines of one configuration that apply the same steps: an eager
/// engine and its twin built alike, which must also agree on arena
/// health and network cost after every batch, or one deferred engine
/// that applies each window of three batches as their merge.
struct Lane {
    config: Config,
    deferred: bool,
    /// Empty once the lane has left the lockstep on a typed error.
    subjects: Vec<Box<dyn Subject>>,
}

/// Drives every configuration in `configs` through `batches` in lockstep
/// with a reference [`TriangleIndex`] that must match the oracle after
/// every batch, checking every subject after every step it applies (see
/// [`apply_checked`]). At the end every subject must pass its own oracle
/// check, and a sharded engine must have pooled exactly the long batches
/// at `S > 1`. Returns how many subjects left the lockstep on a typed
/// error.
pub fn lockstep(base: &Graph, batches: &[DeltaBatch], configs: &[Config]) -> usize {
    let mut reference = TriangleIndex::from_graph(base);
    let short = batches.iter().take_while(|b| b.len() < POOLED_LEN).count();
    let mut lanes = Vec::new();
    for &config in configs {
        for (deferred, count) in [(false, 2), (true, 1)] {
            lanes.push(Lane {
                config,
                deferred,
                subjects: (0..count).map(|_| config.build(base)).collect(),
            });
        }
    }
    let mut left = 0;
    let mut window = Vec::new();
    let mut window_start = state(&reference);

    for (i, batch) in batches.iter().enumerate() {
        let pre = state(&reference);
        let ordered = reference.apply(batch).expect("in-range batch");
        assert!(reference.matches_oracle(), "reference, batch {i}");
        let coalesced = coalesced_report(&pre, batch, reference.triangles());
        let mut steps = vec![(batch, ordered, coalesced)];
        window.push(batch.clone());
        let merged = (i % 3 == 2 || i + 1 == batches.len())
            .then(|| DeltaBatch::merge(&std::mem::take(&mut window)));
        if let Some(merged) = &merged {
            let mut replay = TriangleIndex::from_graph(&window_start.0);
            let ordered = replay.apply(merged).expect("in-range batch");
            let coalesced = coalesced_report(&window_start, merged, reference.triangles());
            steps.push((merged, ordered, coalesced));
            window_start = state(&reference);
        }

        // The simulated network's lanes end where the pooled tail begins.
        for lane in lanes
            .iter_mut()
            .filter(|l| i < short || l.config.runs_tail())
        {
            let Some(step) = steps.get(usize::from(lane.deferred)) else {
                continue;
            };
            let what = format!("{:?} (deferred: {}) batch {i}", lane.config, lane.deferred);
            let results: Vec<_> = lane
                .subjects
                .iter_mut()
                .map(|subject| apply_checked(&mut **subject, lane.config, step, &reference, &what))
                .collect();
            assert!(
                results.windows(2).all(|r| r[0] == r[1]),
                "{what}: {results:?}"
            );
            if results.first().is_some_and(Result::is_err) {
                left += lane.subjects.len();
                lane.subjects.clear();
            }
            for twins in lane.subjects.windows(2) {
                assert_eq!(twins[0].arena_stats(), twins[1].arena_stats(), "{what}");
                assert_eq!(twins[0].cost(), twins[1].cost(), "{what}");
            }
        }
    }

    let long = batches.iter().filter(|b| b.len() >= POOLED_LEN).count();
    for lane in &lanes {
        for subject in &lane.subjects {
            assert!(subject.matches_oracle(), "{:?}: final state", lane.config);
            if let (Config::Sharded(s), false) = (lane.config, lane.deferred) {
                let expected = if s > 1 { long } else { 0 };
                assert_eq!(pooled(&**subject), expected, "S={s}: pooled batches");
            }
        }
    }
    left
}

/// Engines that left a lockstep on a typed error, over one suite.
static LEFT: AtomicUsize = AtomicUsize::new(0);

/// Twelve seeded cases of `family`, each one lockstep of every
/// configuration `keep` admits that runs that case (see
/// [`Config::all`]). The engines that left on a typed error are counted
/// on stdout.
pub fn conform(family: Family, keep: impl Fn(&Config) -> bool) {
    let mut rng = StdRng::seed_from_u64(0xC04F_0000 ^ family as u64);
    for case in 0..12 {
        let seed = rng.gen();
        let mut configs = Config::all(case, seed);
        configs.retain(&keep);
        if configs.is_empty() {
            continue;
        }
        // Captured, and shown by the test harness only if the case fails.
        println!("{family:?} case {case}, seed {seed:#x}");
        let (base, batches) = family.stream(seed);
        let left = lockstep(&base, &batches, &configs);
        let total = LEFT.fetch_add(left, Ordering::Relaxed) + left;
        println!("  {left} engines left on a typed error, {total} in the suite so far");
    }
}
