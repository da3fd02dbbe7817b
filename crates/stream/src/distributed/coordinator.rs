//! The coordinator: the engine's public API and the per-batch driver,
//! [`process_batch`](DistributedTriangleEngine::process_batch), in five
//! steps — classify the batch against the graph, plan the epoch, run it,
//! merge its candidates, settle the graph.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::time::Duration;

use congest_graph::{AdjacencyView, Edge, Graph, NodeId, TriangleSet};
use congest_sim::{Bandwidth, FaultPlan, Metrics, SimConfig, Simulation};
use congest_wire::IdCodec;

use super::cost::{CongestCost, ReceivedBitsSkew, RecoveryStats};
use super::node::DynamicTriangleNode;
use super::recovery::HardenedEpoch;
use super::wire::{self, BatchDescriptor};
use super::{DistributedTriangleEngine, HubSplit};
use crate::delta::{DeltaBatch, DeltaOp, PendingBuffer};
use crate::index::{validate_batch, ApplyMode, ApplyReport, StreamError};
use crate::shard::{merge_added_candidates, merge_removed_candidates, sorted_insert};

/// The effective deltas of one batch, in classification order.
#[derive(Default)]
pub(super) struct EpochDeltas {
    pub(super) removes: Vec<Edge>,
    pub(super) inserts: Vec<Edge>,
}

impl EpochDeltas {
    /// Both phases' deltas, each with whether it is the insertion phase.
    pub(super) fn phases(&self) -> [(&[Edge], bool); 2] {
        [(&self.removes, false), (&self.inserts, true)]
    }
}

/// One phase's broadcast assignment: each touched online node's
/// incident deltas, in batch order, each flagged with whether that node
/// broadcasts it. The phase's round count, the descriptors' broadcast
/// flags and the repair mirror's list of broadcasters all read it.
pub(super) type Assignment = BTreeMap<NodeId, Vec<(Edge, bool)>>;

/// The coordinator-computed BFS forest of one epoch's union topology:
/// convergecast parents, per-node child counts, and one root per
/// connected component (whose aggregates the coordinator reads).
pub(super) struct BfsForest {
    parent: Vec<Option<NodeId>>,
    children: Vec<usize>,
    roots: Vec<NodeId>,
    /// Subtree height per node (leaves 0), used to derive per-node
    /// convergecast deadlines on hardened engines.
    pub(super) height: Vec<u64>,
}

/// Everything the coordinator decided about one epoch before running it.
pub(super) struct EpochPlan {
    /// Which nodes sit the epoch out (all `false` unless the fault plan
    /// schedules a crash).
    pub(super) crashed: Vec<bool>,
    pub(super) rm: Assignment,
    pub(super) ins: Assignment,
    /// Data plus trailer rounds: everything after it is convergecast.
    broadcast_end: u64,
    forest: BfsForest,
    /// What only a hardened epoch needs; `None` on a quiet engine.
    hardened: Option<HardenedEpoch>,
}

impl DistributedTriangleEngine {
    /// An empty engine on `node_count` nodes, in [`ApplyMode::Eager`],
    /// with the default CONGEST bandwidth.
    pub fn new(node_count: usize) -> Self {
        Self::with_bandwidth(node_count, Bandwidth::default())
    }

    /// An empty engine with an explicit per-link bandwidth budget.
    ///
    /// # Panics
    ///
    /// Panics if the budget cannot carry a single edge (two node ids),
    /// i.e. is below `2·⌈log2 n⌉` bits — the broadcasts' smallest
    /// message under the CONGEST convention.
    pub fn with_bandwidth(node_count: usize, bandwidth: Bandwidth) -> Self {
        let empty = congest_graph::GraphBuilder::new(node_count).build();
        Self::build(&empty, bandwidth)
    }

    /// An engine seeded with a static graph's edges and triangles (the
    /// triangles are computed once with the centralized reference
    /// listing, exactly like the other engines' `from_graph`).
    pub fn from_graph(graph: &Graph) -> Self {
        Self::from_graph_with_bandwidth(graph, Bandwidth::default())
    }

    /// [`from_graph`](DistributedTriangleEngine::from_graph) with an
    /// explicit per-link bandwidth budget.
    ///
    /// # Panics
    ///
    /// Panics if the budget cannot carry a single edge (see
    /// [`with_bandwidth`](DistributedTriangleEngine::with_bandwidth)).
    pub fn from_graph_with_bandwidth(graph: &Graph, bandwidth: Bandwidth) -> Self {
        let mut engine = Self::build(graph, bandwidth);
        engine.triangles = congest_graph::triangles::list_all(graph);
        engine.edge_count = graph.edge_count();
        engine
    }

    fn build(graph: &Graph, bandwidth: Bandwidth) -> Self {
        let config = SimConfig::congest(0).with_bandwidth(bandwidth);
        let bandwidth_bits = bandwidth.bits_per_round(graph.node_count().max(1));
        // The protocol's smallest message is one edge (two ids); a budget
        // below that would make every broadcast an in-epoch send error,
        // so reject it up front with a clear message instead.
        if graph.node_count() >= 2 {
            let min_bits = 2 * IdCodec::new(graph.node_count() as u64).width();
            assert!(
                bandwidth_bits >= min_bits,
                "bandwidth budget of {bandwidth_bits} bits cannot carry one edge \
                 (two ids of {min_bits} bits total) for n = {}; the CONGEST \
                 convention needs at least 2·⌈log2 n⌉ bits per message",
                graph.node_count(),
            );
        }
        let sim = Simulation::new(graph, config, |info| {
            DynamicTriangleNode::new(info.id, info.neighbors.clone())
        });
        DistributedTriangleEngine {
            sim,
            triangles: TriangleSet::new(),
            edge_count: 0,
            mode: ApplyMode::Eager,
            pending: PendingBuffer::default(),
            bandwidth_bits,
            hub_split: HubSplit::default(),
            last_batch: CongestCost::default(),
            total: CongestCost::default(),
            epochs: 0,
            skew_max: 0.0,
            skew_sum: 0.0,
            fault_plan: FaultPlan::default(),
            offline: BTreeMap::new(),
            recovery: RecoveryStats::default(),
            poisoned: false,
        }
    }

    /// Sets the application mode (builder style). Switching away from
    /// deferred mode first flushes anything buffered.
    ///
    /// # Panics
    ///
    /// Panics if that [`flush`](DistributedTriangleEngine::flush) does.
    pub fn with_mode(mut self, mode: ApplyMode) -> Self {
        if mode != self.mode && !self.pending.is_empty() {
            self.flush();
        }
        self.mode = mode;
        self
    }

    /// Sets the broadcast scheduling policy (builder style; see
    /// [`HubSplit`]). Every policy produces the identical triangle sets
    /// — only the epoch round/message schedule changes.
    pub fn with_hub_split(mut self, hub_split: HubSplit) -> Self {
        self.hub_split = hub_split;
        self
    }

    /// Sets the deterministic fault schedule (builder style). A
    /// non-quiet plan **hardens** the protocol: each broadcast stream
    /// closes with one length + checksum trailer and receivers
    /// buffer-and-verify instead of trusting deliveries; streams that
    /// fail are retransmitted in accounted repair epochs
    /// ([`CongestCost::recovery_rounds`]); convergecast links are
    /// acknowledged, so a lost chunk costs a round trip rather than a
    /// timeout, and a per-node deadline backstops them; and scheduled
    /// crash windows degrade to coordinator-side recomputation with a
    /// state sync on rejoin ([`RecoveryStats`] counts the repairs and the
    /// degraded epochs). A quiet plan (the default) leaves every code
    /// path — and every cost metric — bit-identical to the legacy engine.
    ///
    /// # Panics
    ///
    /// Panics if the plan is not quiet and the per-link budget is below
    /// 4 bits, the smallest sequenced convergecast chunk (any budget the
    /// default [`Bandwidth`] produces is at least 8).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        let hardened = !plan.is_quiet();
        assert!(
            !hardened || self.bandwidth_bits > 1 + wire::SEQ_BITS,
            "a hardened engine needs at least {} bits per message (one sequenced \
             convergecast chunk); the budget is {}",
            2 + wire::SEQ_BITS,
            self.bandwidth_bits,
        );
        self.fault_plan = plan;
        self.sim.set_fault_plan(plan);
        for i in 0..self.node_count() {
            self.sim
                .program_mut(NodeId::from_index(i))
                .set_hardened(hardened);
        }
        self
    }

    /// Overrides the per-epoch round cap (builder style). An epoch that
    /// exhausts it surfaces as [`StreamError::RoundLimit`] from
    /// [`apply`](DistributedTriangleEngine::apply).
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.sim.set_max_rounds(max_rounds);
        self
    }

    /// The fault schedule in effect.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Whether the engine runs the hardened (self-checking) protocol,
    /// i.e. whether the fault plan is non-quiet.
    pub fn hardened(&self) -> bool {
        !self.fault_plan.is_quiet()
    }

    /// Cumulative self-healing statistics (all zero on a quiet plan).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// The application mode in effect.
    pub fn mode(&self) -> ApplyMode {
        self.mode
    }

    /// The broadcast scheduling policy in effect.
    pub fn hub_split(&self) -> HubSplit {
        self.hub_split
    }

    /// Number of nodes (network and graph — they are the same thing
    /// here).
    pub fn node_count(&self) -> usize {
        self.sim.node_count()
    }

    /// Number of present undirected edges (excluding pending deltas).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Sorted neighbour list of `node`, read from the owning network
    /// node's slice (or the coordinator's shadow copy while the node
    /// is crashed).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        match self.offline.get(&node) {
            Some(list) => list,
            None => &self.sim.program(node).adjacency,
        }
    }

    /// Current degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn degree(&self, node: NodeId) -> usize {
        self.neighbors(node).len()
    }

    /// Whether `{a, b}` is currently an edge (excluding pending deltas).
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        if a == b || a.index() >= self.node_count() || b.index() >= self.node_count() {
            return false;
        }
        let (from, to) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.neighbors(from).binary_search(&to).is_ok()
    }

    /// The live triangle set (in deferred mode this reflects only
    /// flushed batches).
    pub fn triangles(&self) -> &TriangleSet {
        &self.triangles
    }

    /// Number of live triangles.
    pub fn triangle_count(&self) -> usize {
        self.triangles.len()
    }

    /// Deltas buffered by deferred mode and not yet flushed.
    pub fn pending_deltas(&self) -> usize {
        self.pending.len()
    }

    /// How long the oldest buffered delta has been waiting (`None` while
    /// nothing is pending).
    pub fn pending_age(&self) -> Option<Duration> {
        self.pending.age()
    }

    /// CONGEST cost of the most recent batch epoch (zero before the
    /// first, and unchanged by batches that coalesce to nothing).
    pub fn last_batch_cost(&self) -> CongestCost {
        self.last_batch
    }

    /// Cumulative CONGEST cost over every epoch so far.
    pub fn total_cost(&self) -> CongestCost {
        self.total
    }

    /// Number of epochs the network has executed (batches that had at
    /// least one effective delta).
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Received-bits skew statistics over every epoch so far (`None`
    /// before the first epoch). See [`ReceivedBitsSkew`].
    pub fn received_bits_skew(&self) -> Option<ReceivedBitsSkew> {
        (self.epochs > 0).then(|| ReceivedBitsSkew {
            max_ratio: self.skew_max,
            mean_ratio: self.skew_sum / self.epochs as f64,
            epochs: self.epochs,
        })
    }

    /// Applies a batch according to the [`ApplyMode`] (same contract as
    /// the centralized engines).
    ///
    /// # Errors
    ///
    /// * [`StreamError::NodeOutOfRange`] if any delta references a node
    ///   outside the graph; the batch is then applied not at all.
    /// * [`StreamError::Protocol`] if a network node received a payload
    ///   it could not decode (corrupt injected traffic — the engine's
    ///   own broadcasts never produce this).
    /// * [`StreamError::RoundLimit`] and
    ///   [`StreamError::RecoveryExhausted`], when an epoch outlasts a
    ///   cap set with
    ///   [`with_max_rounds`](DistributedTriangleEngine::with_max_rounds)
    ///   or its streams still fail verification after the bounded repair
    ///   epochs of a
    ///   [`with_fault_plan`](DistributedTriangleEngine::with_fault_plan)
    ///   engine.
    /// * [`StreamError::Poisoned`] once any of the three above has been
    ///   returned: that batch applied partially, so the engine refuses
    ///   every later one. Rebuild it from a graph.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<ApplyReport, StreamError> {
        if self.poisoned {
            return Err(StreamError::Poisoned);
        }
        validate_batch(batch, self.node_count())?;
        match self.mode {
            ApplyMode::Eager => self.run_batch(batch),
            ApplyMode::Deferred => {
                self.pending.buffer(batch);
                Ok(ApplyReport {
                    deltas_seen: batch.len(),
                    deltas_deferred: batch.len(),
                    ..ApplyReport::default()
                })
            }
        }
    }

    /// Coalesces and applies every buffered batch as a single epoch
    /// (no-op in eager mode or with nothing pending); same accounting as
    /// the centralized engines' `flush`.
    ///
    /// # Panics
    ///
    /// Panics if the epoch fails, because the trait's `flush` has no
    /// error channel. Two failures are reachable with this engine's own
    /// payloads: [`StreamError::RoundLimit`], when the epoch outlasts a
    /// cap set with
    /// [`with_max_rounds`](DistributedTriangleEngine::with_max_rounds),
    /// and [`StreamError::RecoveryExhausted`], when streams still fail
    /// verification after the bounded repair epochs of a
    /// [`with_fault_plan`](DistributedTriangleEngine::with_fault_plan)
    /// engine; [`StreamError::Protocol`] needs corrupt injected traffic.
    /// Eager [`apply`](DistributedTriangleEngine::apply) returns all
    /// three as typed errors — use it where a cap or a fault plan is
    /// set. [`with_mode`](DistributedTriangleEngine::with_mode) flushes,
    /// so it panics likewise. A failed epoch latches the engine, after
    /// which `apply` buffers nothing, so a later flush is a no-op.
    pub fn flush(&mut self) -> ApplyReport {
        if self.pending.is_empty() {
            return ApplyReport::default();
        }
        let buffered = self.pending.take();
        let mut report = self
            .run_batch(&buffered)
            .unwrap_or_else(|e| panic!("deferred flush failed: {e}"));
        report.deltas_seen = 0;
        report
    }

    /// Whether the live triangle set exactly equals a snapshot-free
    /// from-scratch recount on the engine's own adjacency view.
    pub fn matches_oracle(&self) -> bool {
        self.triangles == congest_graph::triangles::list_all_on(self)
    }

    /// Runs one validated batch; a failure latches the engine.
    fn run_batch(&mut self, batch: &DeltaBatch) -> Result<ApplyReport, StreamError> {
        let result = self.process_batch(batch);
        self.poisoned = result.is_err();
        result
    }

    /// Runs one pre-validated batch as a network epoch (see the
    /// [protocol](DistributedTriangleEngine)): classify → plan → run →
    /// merge → settle. A batch that coalesces or classifies to nothing
    /// runs no epoch — the documented floor cost of zero rounds.
    fn process_batch(&mut self, raw: &DeltaBatch) -> Result<ApplyReport, StreamError> {
        let (mut report, deltas) = self.classify(raw);
        if deltas.removes.is_empty() && deltas.inserts.is_empty() {
            return Ok(report);
        }
        let mut plan = self.plan(&deltas);
        let metrics = self.run(&plan)?;
        match plan.hardened.take() {
            Some(epoch) => self.merge_hardened(&deltas, &plan, epoch, &metrics, &mut report)?,
            None => self.merge_roots(&plan.forest.roots, &mut report),
        }
        self.settle(&deltas);
        Ok(report)
    }

    /// Coalesces the batch and classifies the survivors against the
    /// current graph: only effective deltas enter the network.
    fn classify(&self, raw: &DeltaBatch) -> (ApplyReport, EpochDeltas) {
        let coalesced = raw.coalesce();
        let mut report = ApplyReport {
            deltas_seen: raw.len(),
            noops: raw.len() - coalesced.len(),
            ..ApplyReport::default()
        };
        let _span = congest_obs::trace::span("distributed", "classify");
        let mut deltas = EpochDeltas::default();
        for d in &coalesced {
            let (u, v) = d.edge.endpoints();
            let present = self.has_edge(u, v);
            match d.op {
                DeltaOp::Insert if !present => deltas.inserts.push(d.edge),
                DeltaOp::Remove if present => deltas.removes.push(d.edge),
                _ => report.noops += 1,
            }
        }
        report.inserts_applied = deltas.inserts.len();
        report.removes_applied = deltas.removes.len();
        (report, deltas)
    }

    /// Plans the epoch and injects every online node's descriptor: the
    /// helper-split broadcast assignment of each phase, the global phase
    /// lengths — a phase must cover the longest post-split per-node
    /// queue, at most ⌈assigned deltas / edges-per-message⌉ — the
    /// convergecast forest over the union topology, and on a hardened
    /// engine the [`HardenedEpoch`]. Crashed endpoints cannot broadcast;
    /// a delta both of whose endpoints are down is uncovered and falls
    /// back to central recomputation.
    fn plan(&mut self, deltas: &EpochDeltas) -> EpochPlan {
        let _span = congest_obs::trace::span("distributed", "plan");
        let codec = IdCodec::new(self.node_count() as u64);
        let per_message = wire::edges_per_message(self.bandwidth_bits, codec.width());
        let crashed = self.crash_bookkeeping();
        let rm = self.assign(&deltas.removes, &crashed);
        let ins = self.assign(&deltas.inserts, &crashed);
        let phase_rounds = |assignment: &Assignment| {
            assignment
                .values()
                .map(|list| list.iter().filter(|(_, bcast)| *bcast).count())
                .max()
                .map_or(0, |load| load.div_ceil(per_message) as u64)
        };
        let (rm_rounds, ins_rounds) = (phase_rounds(&rm), phase_rounds(&ins));
        let forest = self.epoch_topology(&deltas.inserts, &crashed);
        let hardened = self
            .hardened()
            .then(|| self.plan_hardened(deltas, &crashed, &forest, rm_rounds, ins_rounds));
        let trailer_rounds = hardened.as_ref().map_or(0, |h| h.trailer_rounds);

        // Every online node needs the phase lengths to know when the
        // epoch ends, even pure detectors — and every node has a
        // convergecast leg to play. Crashed nodes get nothing: they sit
        // the epoch out.
        for node in online(&crashed) {
            let i = node.index();
            let descriptor = BatchDescriptor {
                rm_rounds,
                ins_rounds,
                parent: forest.parent[i],
                child_count: forest.children[i],
                sync: hardened
                    .as_ref()
                    .and_then(|h| h.sync_lists.get(&node))
                    .map(Vec::as_slice),
                deadline: hardened.as_ref().map_or(0, |h| h.deadlines[i]),
                removes: rm.get(&node).map_or(&[][..], Vec::as_slice),
                inserts: ins.get(&node).map_or(&[][..], Vec::as_slice),
            };
            let payload = wire::encode_batch(codec, hardened.is_some(), &descriptor);
            self.sim.inject(node, payload);
        }
        EpochPlan {
            crashed,
            rm,
            ins,
            broadcast_end: rm_rounds + ins_rounds + trailer_rounds,
            forest,
            hardened,
        }
    }

    /// One phase's broadcast assignment: every online endpoint of every
    /// delta, then helper-split scheduling under the phase budget.
    fn assign(&self, edges: &[Edge], crashed: &[bool]) -> Assignment {
        let mut assignment = Assignment::new();
        for e in edges {
            for node in [e.lo(), e.hi()] {
                if !crashed[node.index()] {
                    assignment.entry(node).or_default().push((*e, true));
                }
            }
        }
        let budget = self.phase_budget(&assignment);
        plan_broadcasts(&mut assignment, budget);
        assignment
    }

    /// The per-node per-phase broadcast budget, in deltas: `None` under
    /// [`HubSplit::Off`], the mean incident load of the phase's touched
    /// nodes under [`HubSplit::Auto`], the explicit value (clamped to
    /// ≥ 1) under [`HubSplit::Budget`].
    fn phase_budget(&self, assignment: &Assignment) -> Option<usize> {
        if assignment.is_empty() {
            return None;
        }
        match self.hub_split {
            HubSplit::Off => None,
            HubSplit::Auto => {
                let entries: usize = assignment.values().map(Vec::len).sum();
                Some(entries.div_ceil(assignment.len()).max(1))
            }
            HubSplit::Budget(budget) => Some(budget.max(1)),
        }
    }

    /// Moves the communication topology to the union `G ∪ G'` — a
    /// removed link still carries its tear-down broadcast (and its
    /// convergecast leg), an inserted link exists as soon as its edge
    /// does — and returns the convergecast forest spanning it. Union
    /// lists are accumulated per node first so several inserts at one
    /// endpoint compose instead of overwriting each other; the forest is
    /// computed before the topology mutations so it can read the
    /// pre-batch lists of untouched nodes.
    fn epoch_topology(&mut self, inserts: &[Edge], crashed: &[bool]) -> BfsForest {
        let mut union_lists: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for e in inserts {
            for (node, other) in [(e.lo(), e.hi()), (e.hi(), e.lo())] {
                let list = union_lists
                    .entry(node)
                    .or_insert_with(|| self.neighbors(node).to_vec());
                sorted_insert(list, other);
            }
        }
        let forest = self.bfs_forest(&union_lists, crashed);
        for (node, list) in union_lists {
            self.sim.update_topology(node, list);
        }
        forest
    }

    /// Computes the BFS forest of the epoch's union topology `G ∪ G'`
    /// for the convergecast: `union_lists` holds the already-updated
    /// lists of insertion endpoints, every other node keeps its current
    /// (pre-batch) list.
    fn bfs_forest(
        &self,
        union_lists: &BTreeMap<NodeId, Vec<NodeId>>,
        crashed: &[bool],
    ) -> BfsForest {
        let n = self.node_count();
        let mut forest = BfsForest {
            parent: vec![None; n],
            children: vec![0; n],
            roots: Vec::new(),
            height: vec![0; n],
        };
        let mut visited = vec![false; n];
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        let mut order: Vec<NodeId> = Vec::with_capacity(n);
        for i in 0..n {
            // Crashed nodes sit out the epoch entirely: they neither
            // relay nor root a component (their candidates are
            // recomputed centrally).
            if visited[i] || crashed[i] {
                continue;
            }
            let root = NodeId::from_index(i);
            visited[i] = true;
            forest.roots.push(root);
            queue.push_back(root);
            while let Some(u) = queue.pop_front() {
                order.push(u);
                let neighbors = match union_lists.get(&u) {
                    Some(list) => list.as_slice(),
                    None => self.neighbors(u),
                };
                for &w in neighbors {
                    if !visited[w.index()] && !crashed[w.index()] {
                        visited[w.index()] = true;
                        forest.parent[w.index()] = Some(u);
                        forest.children[u.index()] += 1;
                        queue.push_back(w);
                    }
                }
            }
        }
        // Heights bottom-up: reverse BFS order visits every child before
        // its parent.
        for &u in order.iter().rev() {
            if let Some(p) = forest.parent[u.index()] {
                let lift = forest.height[u.index()] + 1;
                forest.height[p.index()] = forest.height[p.index()].max(lift);
            }
        }
        forest
    }

    /// Runs the planned epoch and books its cost; returns its metrics.
    ///
    /// The epoch runs as one opaque simulator call; when tracing is on,
    /// its wall time is apportioned between the broadcast prefix and
    /// the convergecast suffix by their round shares and recorded as two
    /// derived spans (see `congest_obs::trace::record_span`). The split
    /// is by round *count*, not by time: a per-round host profile of
    /// `dist_quiet` puts 98.6 % of an epoch's host time in rounds 0–6
    /// and 1.4 % in the 18 later rounds that are nearly all of its
    /// convergecast, so the `distributed.convergecast` span says how
    /// many rounds the convergecast took, never what it cost the host.
    fn run(&mut self, plan: &EpochPlan) -> Result<Metrics, StreamError> {
        let trace_on = congest_obs::trace::enabled();
        let epoch_start_us = if trace_on { congest_obs::now_us() } else { 0 };
        let epoch = self.sim.run_epoch();
        if !epoch.completed() {
            return Err(StreamError::RoundLimit {
                rounds: epoch.metrics.rounds,
            });
        }
        // The broadcast prefix is exactly the data and trailer rounds
        // plus one (the descriptor/boundary round); everything beyond it
        // is the convergecast. Recovery epochs accumulate on top in the
        // merge; the running total follows once the batch is settled.
        let trailer_rounds = plan.hardened.as_ref().map_or(0, |h| h.trailer_rounds);
        self.last_batch =
            CongestCost::from_epoch(&epoch.metrics, plan.broadcast_end + 1, trailer_rounds);
        self.epochs += 1;
        if trace_on {
            let (start, wall) = (
                epoch_start_us,
                congest_obs::now_us().saturating_sub(epoch_start_us),
            );
            let total_rounds = self.last_batch.rounds.max(1);
            let bcast = wall * (total_rounds - self.last_batch.convergecast_rounds) / total_rounds;
            congest_obs::trace::record_span("distributed", "broadcast", start, bcast);
            congest_obs::trace::record_span(
                "distributed",
                "convergecast",
                start + bcast,
                wall - bcast,
            );
        }
        // Per-epoch network load imbalance, for the bench skew export.
        let mean_bits = epoch.metrics.mean_received_bits();
        if mean_bits > 0.0 {
            let ratio = epoch.metrics.max_received_bits() as f64 / mean_bits;
            self.skew_max = self.skew_max.max(ratio);
            self.skew_sum += ratio;
        } else {
            // An epoch with traffic on no node still counts toward the
            // mean as perfectly even.
            self.skew_sum += 1.0;
        }

        // A node that received an undecodable payload latched the
        // violation; surface it instead of merging a corrupt epoch.
        // (Hardened receivers never latch on faulted traffic — a bad
        // stream just fails verification — so this still only fires on
        // genuinely corrupt injected input.)
        for node in online(&plan.crashed) {
            if let Some(detail) = &self.sim.program(node).protocol_error {
                return Err(StreamError::Protocol {
                    node,
                    detail: detail.clone(),
                });
            }
        }
        Ok(epoch.metrics)
    }

    /// The quiet merge, through the shared exactly-once dedup core: the
    /// network already aggregated each component's candidates at its
    /// root over accounted rounds, so the coordinator only reads the
    /// roots. (A hardened engine reads everything and recovers what is
    /// missing: [`merge_hardened`](Self::merge_hardened).)
    fn merge_roots(&mut self, roots: &[NodeId], report: &mut ApplyReport) {
        let _span = congest_obs::trace::span("distributed", "merge");
        for &root in roots {
            let (dead, born) = self.sim.program_mut(root).take_aggregates();
            report.triangles_removed += merge_removed_candidates(&mut self.triangles, dead.iter());
            report.triangles_added += merge_added_candidates(&mut self.triangles, born.iter());
        }
    }

    /// Settles the communication topology on `G'` and the running
    /// totals. Removed links drop once per distinct endpoint — a hub
    /// shedding many edges in one batch gets a single O(degree) clone,
    /// not one per edge.
    fn settle(&mut self, deltas: &EpochDeltas) {
        let removed_endpoints: BTreeSet<NodeId> = deltas
            .removes
            .iter()
            .flat_map(|e| [e.lo(), e.hi()])
            .collect();
        for node in removed_endpoints {
            let list = self.neighbors(node).to_vec();
            self.sim.update_topology(node, list);
        }
        self.edge_count += deltas.inserts.len();
        self.edge_count -= deltas.removes.len();
        self.total.accumulate(&self.last_batch);
        debug_assert_eq!(
            (0..self.node_count())
                .map(|i| self.degree(NodeId::from_index(i)))
                .sum::<usize>(),
            2 * self.edge_count,
            "node slices lost symmetry"
        );
    }
}

/// The nodes an epoch's `crashed` flags leave online, in id order.
pub(super) fn online(crashed: &[bool]) -> impl Iterator<Item = NodeId> + '_ {
    (0..crashed.len())
        .filter(|&i| !crashed[i])
        .map(NodeId::from_index)
}

/// Helper-split scheduling for one phase: every node over `budget`
/// sheds incident deltas — heaviest nodes first, so two adjacent hubs
/// cannot both drop their shared edge, and each node's in edge order —
/// as long as the delta keeps its other broadcaster (every delta's
/// third-vertex audience is adjacent to *both* endpoints, so one
/// broadcaster suffices; see the module docs). A shed delta's flag is
/// cleared in place.
fn plan_broadcasts(assignment: &mut Assignment, budget: Option<usize>) {
    let Some(budget) = budget else {
        return;
    };
    // Each effective delta starts with both endpoints broadcasting.
    let mut broadcasters: BTreeMap<Edge, usize> = BTreeMap::new();
    for list in assignment.values() {
        for (e, _) in list {
            *broadcasters.entry(*e).or_insert(0) += 1;
        }
    }
    let mut order: Vec<NodeId> = assignment.keys().copied().collect();
    order.sort_by_key(|v| (std::cmp::Reverse(assignment[v].len()), v.index()));
    for node in order {
        let list = assignment.get_mut(&node).expect("node was listed");
        let mut load = list.len();
        if load <= budget {
            break; // sorted by decreasing load: nobody left is over
        }
        let mut by_edge: Vec<usize> = (0..list.len()).collect();
        by_edge.sort_unstable_by_key(|&i| list[i].0);
        for i in by_edge {
            if load <= budget {
                break;
            }
            let count = broadcasters.get_mut(&list[i].0).expect("edge was counted");
            if *count > 1 {
                *count -= 1;
                list[i].1 = false;
                load -= 1;
            }
        }
    }
}

/// The engine *is* an adjacency view (pending deltas excluded), read
/// straight from the network nodes' own slices: the oracle and the
/// static CONGEST drivers run on the live distributed graph directly.
impl AdjacencyView for DistributedTriangleEngine {
    fn node_count(&self) -> usize {
        DistributedTriangleEngine::node_count(self)
    }

    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        DistributedTriangleEngine::neighbors(self, node)
    }

    fn edge_count(&self) -> usize {
        DistributedTriangleEngine::edge_count(self)
    }

    fn degree(&self, node: NodeId) -> usize {
        DistributedTriangleEngine::degree(self, node)
    }

    fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        DistributedTriangleEngine::has_edge(self, a, b)
    }
}

impl fmt::Debug for DistributedTriangleEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DistributedTriangleEngine(n={}, m={}, triangles={}, mode={}, split={}, \
             epochs={}, rounds={})",
            self.node_count(),
            self.edge_count(),
            self.triangle_count(),
            self.mode.name(),
            self.hub_split.name(),
            self.epochs,
            self.total.rounds,
        )
    }
}
