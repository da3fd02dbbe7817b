//! Workload scenarios: deterministic generators of edge-delta streams.
//!
//! A [`Scenario`] pairs a base graph (drawn from the existing
//! `congest-graph` generators) with a churn pattern, and expands into a
//! reproducible sequence of [`DeltaBatch`]es — the way a load-test
//! describes the traffic a service will face:
//!
//! * [`ScenarioKind::UniformChurn`] — every delta touches a uniformly
//!   random pair; the steady-state background traffic.
//! * [`ScenarioKind::HotspotChurn`] — endpoints are drawn from a power-law
//!   bias, hammering a few hub nodes the way social graphs do.
//! * [`ScenarioKind::PlantedBurst`] — periodic bursts insert whole
//!   triangles at once, stressing the triangle-add hot path.
//! * [`ScenarioKind::GrowThenShrink`] — a ramp of pure insertions followed
//!   by tearing the same edges back down, ending near the base graph.

use congest_graph::generators::{Gnp, PlantedLight, TriangleFreeBipartite};
use congest_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::delta::DeltaBatch;

/// Default seed used when the caller does not provide one.
const DEFAULT_SEED: u64 = 0x57EA_4417_2017_0002;

/// The base graph a scenario starts from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BaseGraph {
    /// No initial edges.
    Empty,
    /// Erdős–Rényi `G(n, p)`.
    Gnp {
        /// Edge probability.
        p: f64,
    },
    /// Sparse graph with planted vertex-disjoint triangles.
    PlantedLight {
        /// Number of planted triangles.
        count: usize,
        /// Background `G(n, p)` overlay probability.
        background_p: f64,
    },
    /// A triangle-free random bipartite graph (sides split evenly).
    TriangleFreeBipartite {
        /// Cross-edge probability.
        p: f64,
    },
}

impl BaseGraph {
    /// Instantiates the base graph on `n` nodes with the given seed.
    pub fn generate(&self, n: usize, seed: u64) -> Graph {
        match *self {
            BaseGraph::Empty => congest_graph::GraphBuilder::new(n).build(),
            BaseGraph::Gnp { p } => Gnp::new(n, p).seeded(seed).generate(),
            BaseGraph::PlantedLight {
                count,
                background_p,
            } => PlantedLight::new(n, count)
                .with_background(background_p)
                .seeded(seed)
                .generate(),
            BaseGraph::TriangleFreeBipartite { p } => {
                TriangleFreeBipartite::new(n / 2, n - n / 2, p)
                    .seeded(seed)
                    .generate()
            }
        }
    }

    /// Short name, used in logs and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            BaseGraph::Empty => "empty",
            BaseGraph::Gnp { .. } => "gnp",
            BaseGraph::PlantedLight { .. } => "planted_light",
            BaseGraph::TriangleFreeBipartite { .. } => "bipartite",
        }
    }
}

/// The churn pattern of a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioKind {
    /// Uniformly random insert/remove pairs (50/50).
    UniformChurn,
    /// Power-law-biased endpoints: node `⌊n · x^exponent⌋` for uniform
    /// `x`, so small ids become hubs. `exponent > 1`; larger is hotter.
    HotspotChurn {
        /// Skew exponent (3.0 is a reasonable "social graph" default).
        exponent: f64,
    },
    /// Uniform churn plus, every `burst_every` batches, a burst inserting
    /// `triangles_per_burst` complete triangles.
    PlantedBurst {
        /// Batch period of bursts (1 = every batch).
        burst_every: usize,
        /// Number of triangles planted per burst.
        triangles_per_burst: usize,
    },
    /// First half of the stream inserts fresh random edges, second half
    /// removes them in reverse order.
    GrowThenShrink,
}

impl ScenarioKind {
    /// Short snake-case name, used in logs and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::UniformChurn => "uniform_churn",
            ScenarioKind::HotspotChurn { .. } => "hotspot_churn",
            ScenarioKind::PlantedBurst { .. } => "planted_burst",
            ScenarioKind::GrowThenShrink => "grow_then_shrink",
        }
    }
}

/// A reproducible update-stream workload.
///
/// ```
/// use congest_stream::{BaseGraph, Scenario};
///
/// let scenario = Scenario::uniform_churn(100, 20, 50)
///     .with_base(BaseGraph::Gnp { p: 0.05 })
///     .seeded(7);
/// let batches = scenario.batches();
/// assert_eq!(batches.len(), 20);
/// assert!(batches.iter().all(|b| b.len() == 50));
/// // Deterministic per seed:
/// assert_eq!(batches, scenario.batches());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    kind: ScenarioKind,
    base: BaseGraph,
    n: usize,
    batch_count: usize,
    batch_size: usize,
    seed: u64,
}

impl Scenario {
    /// A scenario with an explicit churn pattern.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (no pair to mutate) or `batch_size == 0`.
    pub fn new(kind: ScenarioKind, n: usize, batch_count: usize, batch_size: usize) -> Self {
        assert!(n >= 2, "need at least 2 nodes to form edges, got {n}");
        assert!(batch_size > 0, "batch_size must be positive");
        Scenario {
            kind,
            base: BaseGraph::Empty,
            n,
            batch_count,
            batch_size,
            seed: DEFAULT_SEED,
        }
    }

    /// Uniform churn on `n` nodes.
    pub fn uniform_churn(n: usize, batch_count: usize, batch_size: usize) -> Self {
        Self::new(ScenarioKind::UniformChurn, n, batch_count, batch_size)
    }

    /// Hotspot (power-law) churn with exponent 3.0.
    pub fn hotspot_churn(n: usize, batch_count: usize, batch_size: usize) -> Self {
        Self::new(
            ScenarioKind::HotspotChurn { exponent: 3.0 },
            n,
            batch_count,
            batch_size,
        )
    }

    /// Uniform churn with a triangle burst every 4 batches.
    pub fn planted_bursts(n: usize, batch_count: usize, batch_size: usize) -> Self {
        Self::new(
            ScenarioKind::PlantedBurst {
                burst_every: 4,
                triangles_per_burst: 8,
            },
            n,
            batch_count,
            batch_size,
        )
    }

    /// Grow-then-shrink ramp on `n` nodes.
    pub fn grow_then_shrink(n: usize, batch_count: usize, batch_size: usize) -> Self {
        Self::new(ScenarioKind::GrowThenShrink, n, batch_count, batch_size)
    }

    /// Sets the base graph (builder style).
    pub fn with_base(mut self, base: BaseGraph) -> Self {
        self.base = base;
        self
    }

    /// Sets the random seed (builder style).
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The churn pattern.
    pub fn kind(&self) -> ScenarioKind {
        self.kind
    }

    /// The base-graph family.
    pub fn base(&self) -> BaseGraph {
        self.base
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of batches the stream expands to.
    pub fn batch_count(&self) -> usize {
        self.batch_count
    }

    /// Deltas per batch (bursts may exceed this by the burst size).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The seed the stream and base graph derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scenario's name, `kind/base`.
    pub fn name(&self) -> String {
        format!("{}/{}", self.kind.name(), self.base.name())
    }

    /// Instantiates the base graph.
    pub fn base_graph(&self) -> Graph {
        // Offset the seed so the base graph and the churn stream are
        // decorrelated but both derived from the scenario seed.
        self.base.generate(self.n, self.seed ^ 0xB45E)
    }

    /// Expands the scenario into its deterministic batch stream.
    ///
    /// Materializes every batch; for large streams prefer
    /// [`Scenario::batch_iter`], which generates lazily and is
    /// bit-identical batch for batch.
    pub fn batches(&self) -> Vec<DeltaBatch> {
        self.batch_iter().collect()
    }

    /// A lazy, deterministic iterator over the scenario's batches.
    ///
    /// Yields exactly [`Scenario::batch_count`] batches, identical to the
    /// elements of [`Scenario::batches`] — the RNG is threaded through
    /// the iterator state, so generating batch `i` requires generating
    /// `0..i` first (there is no random access).
    pub fn batch_iter(&self) -> ScenarioBatchIter<'_> {
        ScenarioBatchIter {
            scenario: self,
            rng: StdRng::seed_from_u64(self.seed),
            grown: Vec::new(),
            next_index: 0,
        }
    }

    /// Generates batch `batch_index`, advancing `rng` and the
    /// grow-then-shrink `grown` stack exactly as the historical
    /// monolithic loop did.
    fn generate_batch(
        &self,
        batch_index: usize,
        rng: &mut StdRng,
        grown: &mut Vec<(NodeId, NodeId)>,
    ) -> DeltaBatch {
        let grow_batches = self.batch_count.div_ceil(2);
        let mut batch = DeltaBatch::new();
        match self.kind {
            ScenarioKind::UniformChurn => {
                for _ in 0..self.batch_size {
                    let (u, v) = self.uniform_pair(rng);
                    if rng.gen_bool(0.5) {
                        batch.insert(u, v);
                    } else {
                        batch.remove(u, v);
                    }
                }
            }
            ScenarioKind::HotspotChurn { exponent } => {
                for _ in 0..self.batch_size {
                    let (u, v) = self.hotspot_pair(rng, exponent);
                    if rng.gen_bool(0.5) {
                        batch.insert(u, v);
                    } else {
                        batch.remove(u, v);
                    }
                }
            }
            ScenarioKind::PlantedBurst {
                burst_every,
                triangles_per_burst,
            } => {
                for _ in 0..self.batch_size {
                    let (u, v) = self.uniform_pair(rng);
                    if rng.gen_bool(0.5) {
                        batch.insert(u, v);
                    } else {
                        batch.remove(u, v);
                    }
                }
                // Bursts need three distinct nodes; on degenerate
                // two-node graphs the scenario degrades to plain churn.
                if burst_every > 0 && batch_index.is_multiple_of(burst_every) && self.n >= 3 {
                    for _ in 0..triangles_per_burst {
                        let [a, b, c] = self.uniform_triple(rng);
                        batch.insert(a, b).insert(b, c).insert(a, c);
                    }
                }
            }
            ScenarioKind::GrowThenShrink => {
                if batch_index < grow_batches {
                    for _ in 0..self.batch_size {
                        let (u, v) = self.uniform_pair(rng);
                        grown.push((u, v));
                        batch.insert(u, v);
                    }
                } else {
                    for _ in 0..self.batch_size {
                        let (u, v) = match grown.pop() {
                            Some(pair) => pair,
                            None => self.uniform_pair(rng),
                        };
                        batch.remove(u, v);
                    }
                }
            }
        }
        batch
    }

    fn uniform_pair(&self, rng: &mut StdRng) -> (NodeId, NodeId) {
        let u = rng.gen_range(0..self.n);
        let mut v = rng.gen_range(0..self.n);
        while v == u {
            v = rng.gen_range(0..self.n);
        }
        (NodeId::from_index(u), NodeId::from_index(v))
    }

    /// Three distinct uniform nodes; callers must ensure `n >= 3` or the
    /// rejection loop cannot terminate.
    fn uniform_triple(&self, rng: &mut StdRng) -> [NodeId; 3] {
        assert!(self.n >= 3, "triples need at least 3 nodes");
        let a = rng.gen_range(0..self.n);
        let mut b = rng.gen_range(0..self.n);
        while b == a {
            b = rng.gen_range(0..self.n);
        }
        let mut c = rng.gen_range(0..self.n);
        while c == a || c == b {
            c = rng.gen_range(0..self.n);
        }
        [
            NodeId::from_index(a),
            NodeId::from_index(b),
            NodeId::from_index(c),
        ]
    }

    fn hotspot_pair(&self, rng: &mut StdRng, exponent: f64) -> (NodeId, NodeId) {
        let u = self.hotspot_node(rng, exponent);
        let mut v = self.hotspot_node(rng, exponent);
        let mut attempts = 0;
        while v == u {
            // Keep the bias, but guarantee termination on tiny graphs.
            v = if attempts < 8 {
                self.hotspot_node(rng, exponent)
            } else {
                rng.gen_range(0..self.n)
            };
            attempts += 1;
        }
        (NodeId::from_index(u), NodeId::from_index(v))
    }

    fn hotspot_node(&self, rng: &mut StdRng, exponent: f64) -> usize {
        let x: f64 = rng.gen_range(0.0..1.0);
        ((self.n as f64) * x.powf(exponent)) as usize % self.n
    }
}

/// Lazy iterator over a [`Scenario`]'s deterministic batch stream.
///
/// Created by [`Scenario::batch_iter`]. Carries the churn RNG and the
/// grow-then-shrink stack, so each batch is produced on demand without
/// materializing the whole stream.
#[derive(Debug, Clone)]
pub struct ScenarioBatchIter<'a> {
    scenario: &'a Scenario,
    rng: StdRng,
    grown: Vec<(NodeId, NodeId)>,
    next_index: usize,
}

impl Iterator for ScenarioBatchIter<'_> {
    type Item = DeltaBatch;

    fn next(&mut self) -> Option<DeltaBatch> {
        if self.next_index >= self.scenario.batch_count {
            return None;
        }
        let batch = self
            .scenario
            .generate_batch(self.next_index, &mut self.rng, &mut self.grown);
        self.next_index += 1;
        Some(batch)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.scenario.batch_count - self.next_index;
        (left, Some(left))
    }
}

impl ExactSizeIterator for ScenarioBatchIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaOp;

    #[test]
    fn streams_are_deterministic_per_seed() {
        let s = Scenario::uniform_churn(50, 10, 20).seeded(3);
        assert_eq!(s.batches(), s.batches());
        let other = Scenario::uniform_churn(50, 10, 20).seeded(4);
        assert_ne!(s.batches(), other.batches());
    }

    #[test]
    fn batch_shape_matches_the_request() {
        let s = Scenario::uniform_churn(20, 7, 13);
        let batches = s.batches();
        assert_eq!(batches.len(), 7);
        assert!(batches.iter().all(|b| b.len() == 13));
        assert_eq!(batches.iter().map(|b| b.len()).sum::<usize>(), 7 * 13);
    }

    #[test]
    fn hotspot_churn_is_actually_skewed() {
        let s = Scenario::hotspot_churn(100, 20, 50).seeded(5);
        let mut touches = vec![0usize; 100];
        for b in s.batches() {
            for d in &b {
                touches[d.edge.lo().index()] += 1;
                touches[d.edge.hi().index()] += 1;
            }
        }
        let low: usize = touches[..10].iter().sum();
        let high: usize = touches[90..].iter().sum();
        assert!(
            low > 5 * high.max(1),
            "expected hub bias toward small ids, got low={low} high={high}"
        );
    }

    #[test]
    fn planted_bursts_inject_triangles_periodically() {
        let s = Scenario::planted_bursts(60, 8, 10).seeded(6);
        let batches = s.batches();
        // Burst every 4 batches: batches 0 and 4 carry 8 * 3 extra inserts.
        assert_eq!(batches[0].len(), 10 + 24);
        assert_eq!(batches[1].len(), 10);
        assert_eq!(batches[4].len(), 10 + 24);
    }

    #[test]
    fn grow_then_shrink_removes_what_it_grew() {
        let s = Scenario::grow_then_shrink(30, 10, 6).seeded(7);
        let batches = s.batches();
        for b in &batches[..5] {
            assert!(b.deltas().iter().all(|d| d.op == DeltaOp::Insert));
        }
        for b in &batches[5..] {
            assert!(b.deltas().iter().all(|d| d.op == DeltaOp::Remove));
        }
        // The shrink phase removes exactly the grown edges (reverse order).
        let grown: Vec<_> = batches[..5]
            .iter()
            .flat_map(|b| b.deltas().iter().map(|d| d.edge))
            .collect();
        let removed: Vec<_> = batches[5..]
            .iter()
            .flat_map(|b| b.deltas().iter().map(|d| d.edge))
            .collect();
        let mut reversed = grown.clone();
        reversed.reverse();
        assert_eq!(removed, reversed);
    }

    #[test]
    fn planted_bursts_degrade_to_churn_on_two_node_graphs() {
        let s = Scenario::new(
            ScenarioKind::PlantedBurst {
                burst_every: 1,
                triangles_per_burst: 1,
            },
            2,
            3,
            4,
        );
        // Must terminate (no triple exists on 2 nodes) and stay churn-only.
        let batches = s.batches();
        assert!(batches.iter().all(|b| b.len() == 4));
    }

    #[test]
    fn base_graphs_come_from_the_graph_generators() {
        let gnp = Scenario::uniform_churn(40, 1, 1)
            .with_base(BaseGraph::Gnp { p: 0.2 })
            .seeded(8);
        assert!(gnp.base_graph().edge_count() > 0);

        let planted = Scenario::uniform_churn(40, 1, 1).with_base(BaseGraph::PlantedLight {
            count: 5,
            background_p: 0.0,
        });
        assert_eq!(
            congest_graph::triangles::count_all(&planted.base_graph()),
            5
        );

        let bip = Scenario::uniform_churn(40, 1, 1)
            .with_base(BaseGraph::TriangleFreeBipartite { p: 0.3 });
        assert_eq!(congest_graph::triangles::count_all(&bip.base_graph()), 0);

        let empty = Scenario::uniform_churn(40, 1, 1);
        assert_eq!(empty.base_graph().edge_count(), 0);
        assert_eq!(empty.base().name(), "empty");
    }

    #[test]
    fn names_compose_kind_and_base() {
        let s = Scenario::hotspot_churn(10, 1, 1).with_base(BaseGraph::Gnp { p: 0.1 });
        assert_eq!(s.name(), "hotspot_churn/gnp");
        assert_eq!(s.kind().name(), "hotspot_churn");
        assert_eq!(s.node_count(), 10);
        assert_eq!(s.batch_count(), 1);
        assert_eq!(s.batch_size(), 1);
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn rejects_degenerate_node_counts() {
        let _ = Scenario::uniform_churn(1, 1, 1);
    }

    #[test]
    fn batch_iter_matches_materialized_batches() {
        for s in [
            Scenario::uniform_churn(30, 6, 9).seeded(11),
            Scenario::hotspot_churn(30, 6, 9).seeded(12),
            Scenario::planted_bursts(30, 6, 9).seeded(13),
            Scenario::grow_then_shrink(30, 6, 9).seeded(14),
        ] {
            let iter = s.batch_iter();
            assert_eq!(iter.len(), 6);
            let streamed: Vec<_> = iter.collect();
            assert_eq!(streamed, s.batches(), "{}", s.name());
        }
    }
}
