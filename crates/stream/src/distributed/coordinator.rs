//! The coordinator: the engine's public API and the per-batch driver,
//! [`process_batch`](DistributedTriangleEngine::process_batch), in five
//! steps — classify the batch against the graph, plan the epoch, run it,
//! merge its candidates, settle the graph.

use std::collections::BTreeMap;
use std::fmt;

use congest_graph::{AdjacencyView, Edge, Graph, NodeId, TriangleSet};
use congest_sim::{Bandwidth, FaultPlan, Metrics, SimConfig, Simulation};
use congest_wire::IdCodec;

use super::cost::{CongestCost, ReceivedBitsSkew, RecoveryStats};
use super::node::DynamicTriangleNode;
use super::recovery::HardenedEpoch;
use super::wire::{self, BatchDescriptor};
use super::{DistributedTriangleEngine, HubSplit};
use crate::delta::{classify, DeltaBatch, DeltaOp};
use crate::index::{validate_batch, ApplyReport, StreamError};
use crate::shard::{
    merge_added_candidates, merge_removed_candidates, sorted_insert, LiveTriangles,
};

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
/// broadcasts it — one row per node, rows ascending by node, over one
/// flat list. The phase's round count, the descriptors' broadcast flags
/// and the repair mirror's list of broadcasters all read it.
#[derive(Default)]
pub(super) struct Assignment {
    /// Each touched online node with the end of its row in `entries`.
    rows: Vec<(NodeId, usize)>,
    entries: Vec<(Edge, bool)>,
}

impl Assignment {
    /// Every online endpoint of every delta, each flagged to broadcast.
    fn new(edges: &[Edge], crashed: &[bool]) -> Self {
        let mut incident: Vec<(NodeId, Edge)> = edges
            .iter()
            .flat_map(|e| [(e.lo(), *e), (e.hi(), *e)])
            .filter(|(node, _)| !crashed[node.index()])
            .collect();
        // Stable: a node's row keeps the batch order.
        incident.sort_by_key(|&(node, _)| node);
        let mut assignment = Assignment {
            rows: Vec::new(),
            entries: Vec::with_capacity(incident.len()),
        };
        for (node, e) in incident {
            if assignment.rows.last().is_none_or(|&(last, _)| last != node) {
                assignment.rows.push((node, 0));
            }
            assignment.entries.push((e, true));
            assignment.rows.last_mut().expect("just pushed").1 = assignment.entries.len();
        }
        assignment
    }

    /// The `k`-th row's range in `entries`.
    fn span(&self, k: usize) -> std::ops::Range<usize> {
        let start = if k == 0 { 0 } else { self.rows[k - 1].1 };
        start..self.rows[k].1
    }

    /// Each touched online node's row, ascending by node.
    pub(super) fn rows(&self) -> impl Iterator<Item = (NodeId, &[(Edge, bool)])> {
        (0..self.rows.len()).map(|k| (self.rows[k].0, &self.entries[self.span(k)]))
    }
}

/// The coordinator-computed BFS forest of one epoch's union topology:
/// convergecast parents, per-node child counts, and one root per
/// connected component (whose aggregates the coordinator reads). The
/// engine keeps one and refills it every epoch, buffers and all.
#[derive(Default)]
pub(super) struct BfsForest {
    parent: Vec<Option<NodeId>>,
    children: Vec<usize>,
    roots: Vec<NodeId>,
    /// The forest's nodes in BFS order: the traversal's queue, kept.
    order: Vec<NodeId>,
    /// Which nodes the traversal has reached (crashed nodes start out
    /// reached, so they neither relay nor root a component).
    visited: Vec<bool>,
    /// Node-indexed: where a node's union list sits in the epoch's
    /// list of insertion endpoints, [`NOT_AN_ENDPOINT`] for every other
    /// node. Left all [`NOT_AN_ENDPOINT`] between epochs.
    union_slot: Vec<u32>,
}

/// A node whose neighbour list a batch's insertions leave unchanged.
const NOT_AN_ENDPOINT: u32 = u32::MAX;

impl BfsForest {
    /// Subtree height per node (leaves 0), from which a hardened engine
    /// derives per-node convergecast deadlines.
    pub(super) fn heights(&self) -> Vec<u64> {
        let mut height = vec![0; self.parent.len()];
        // Reverse BFS order visits every child before its parent.
        for &u in self.order.iter().rev() {
            if let Some(p) = self.parent[u.index()] {
                let lift = height[u.index()] + 1;
                height[p.index()] = height[p.index()].max(lift);
            }
        }
        height
    }
}

/// Everything the coordinator decided about one epoch before running it
/// (its forest is the engine's).
pub(super) struct EpochPlan {
    /// Which nodes sit the epoch out (all `false` unless the fault plan
    /// schedules a crash).
    pub(super) crashed: Vec<bool>,
    pub(super) rm: Assignment,
    pub(super) ins: Assignment,
    /// The two phases' data rounds.
    rm_rounds: u64,
    ins_rounds: u64,
    /// Data plus trailer rounds: everything after it is convergecast.
    broadcast_end: u64,
    /// What only a hardened epoch needs; `None` on a quiet engine.
    hardened: Option<HardenedEpoch>,
}

impl DistributedTriangleEngine {
    /// An empty engine on `node_count` nodes with the default CONGEST
    /// bandwidth.
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
        engine.triangles = congest_graph::triangles::list_all(graph)
            .into_iter()
            .collect();
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
            triangles: LiveTriangles::default(),
            edge_count: 0,
            bandwidth_bits,
            hub_split: HubSplit::default(),
            last_batch: CongestCost::default(),
            total: CongestCost::default(),
            epochs: 0,
            skew_max: 0.0,
            skew_sum: 0.0,
            fault_plan: FaultPlan::default(),
            offline: BTreeMap::new(),
            forest: BfsForest::default(),
            recovery: RecoveryStats::default(),
            poisoned: false,
        }
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

    /// The broadcast scheduling policy in effect.
    pub fn hub_split(&self) -> HubSplit {
        self.hub_split
    }

    /// Number of nodes (network and graph — they are the same thing
    /// here).
    pub fn node_count(&self) -> usize {
        self.sim.node_count()
    }

    /// Number of present undirected edges.
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

    /// Whether `{a, b}` is currently an edge.
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

    /// The live triangle set, sorted: built on demand from the engine's
    /// hash set in `O(t log t)` for `t` live triangles, so it is meant
    /// for checks and tests — call it once, not inside a loop.
    /// [`triangle_count`](Self::triangle_count) is `O(1)`.
    pub fn triangles(&self) -> TriangleSet {
        self.triangles.to_sorted()
    }

    /// Number of live triangles.
    pub fn triangle_count(&self) -> usize {
        self.triangles.len()
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

    /// Applies a batch as one network epoch (same contract as the
    /// centralized engines).
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
        // A failed epoch applied partially: latch the engine.
        let result = self.process_batch(batch);
        self.poisoned = result.is_err();
        result
    }

    /// Whether the live triangle set exactly equals a snapshot-free
    /// from-scratch recount on the engine's own adjacency view:
    /// the same number of triangles, and every recounted one live.
    pub fn matches_oracle(&self) -> bool {
        self.triangles
            .equals(&congest_graph::triangles::list_all_on(self))
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
            None => self.merge_roots(&mut report),
        }
        self.settle(&deltas);
        Ok(report)
    }

    /// Coalesces the batch and classifies the survivors against the
    /// current graph ([`delta::classify`](crate::delta::classify)): only
    /// effective deltas enter the network.
    fn classify(&self, raw: &DeltaBatch) -> (ApplyReport, EpochDeltas) {
        let (noops, effective) = classify("distributed", raw.deltas(), |edge| {
            let (u, v) = edge.endpoints();
            self.has_edge(u, v)
        });
        let mut deltas = EpochDeltas::default();
        for d in effective {
            match d.op {
                DeltaOp::Insert => deltas.inserts.push(d.edge),
                DeltaOp::Remove => deltas.removes.push(d.edge),
            }
        }
        let report = ApplyReport {
            deltas_seen: raw.len(),
            noops,
            inserts_applied: deltas.inserts.len(),
            removes_applied: deltas.removes.len(),
            ..ApplyReport::default()
        };
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
                .rows()
                .map(|(_, row)| row.iter().filter(|(_, bcast)| *bcast).count())
                .max()
                .map_or(0, |load| load.div_ceil(per_message) as u64)
        };
        let (rm_rounds, ins_rounds) = (phase_rounds(&rm), phase_rounds(&ins));
        self.epoch_topology(&deltas.inserts, &crashed);
        let hardened = self
            .hardened()
            .then(|| self.plan_hardened(deltas, &crashed, rm_rounds, ins_rounds));
        let trailer_rounds = hardened.as_ref().map_or(0, |h| h.trailer_rounds);

        let plan = EpochPlan {
            crashed,
            rm,
            ins,
            rm_rounds,
            ins_rounds,
            broadcast_end: rm_rounds + ins_rounds + trailer_rounds,
            hardened,
        };
        self.inject_descriptors(codec, &plan);
        plan
    }

    /// Injects every online node's descriptor. Every online node needs
    /// the phase lengths to know when the epoch ends, even pure
    /// detectors — and every node has a convergecast leg to play.
    /// Crashed nodes get nothing: they sit the epoch out. One ascending
    /// pass: the assignment rows and the sync lists are node-sorted, so
    /// each is read at a cursor.
    fn inject_descriptors(&mut self, codec: IdCodec, plan: &EpochPlan) {
        let (mut rm_rows, mut ins_rows) = (plan.rm.rows().peekable(), plan.ins.rows().peekable());
        let hardened = plan.hardened.as_ref();
        let mut syncs = hardened
            .map_or(&[][..], |h| &h.sync_lists)
            .iter()
            .peekable();
        for node in online(&plan.crashed) {
            let i = node.index();
            let descriptor = BatchDescriptor {
                rm_rounds: plan.rm_rounds,
                ins_rounds: plan.ins_rounds,
                parent: self.forest.parent[i],
                child_count: self.forest.children[i],
                sync: syncs
                    .next_if(|(to, _)| *to == node)
                    .map(|(_, list)| list.as_slice()),
                deadline: hardened.map_or(0, |h| h.deadlines[i]),
                removes: rm_rows
                    .next_if(|(to, _)| *to == node)
                    .map_or(&[][..], |(_, row)| row),
                inserts: ins_rows
                    .next_if(|(to, _)| *to == node)
                    .map_or(&[][..], |(_, row)| row),
            };
            let payload = wire::encode_batch(codec, hardened.is_some(), &descriptor);
            self.sim.inject(node, payload);
        }
    }

    /// One phase's broadcast assignment: every online endpoint of every
    /// delta, then helper-split scheduling under the phase budget.
    fn assign(&self, edges: &[Edge], crashed: &[bool]) -> Assignment {
        let mut assignment = Assignment::new(edges, crashed);
        let budget = self.phase_budget(&assignment);
        plan_broadcasts(&mut assignment, budget);
        assignment
    }

    /// The per-node per-phase broadcast budget, in deltas: `None` under
    /// [`HubSplit::Off`], the mean incident load of the phase's touched
    /// nodes under [`HubSplit::Auto`], the explicit value (clamped to
    /// ≥ 1) under [`HubSplit::Budget`].
    fn phase_budget(&self, assignment: &Assignment) -> Option<usize> {
        if assignment.rows.is_empty() {
            return None;
        }
        match self.hub_split {
            HubSplit::Off => None,
            HubSplit::Auto => {
                let entries = assignment.entries.len();
                Some(entries.div_ceil(assignment.rows.len()).max(1))
            }
            HubSplit::Budget(budget) => Some(budget.max(1)),
        }
    }

    /// Moves the communication topology to the union `G ∪ G'` — a
    /// removed link still carries its tear-down broadcast (and its
    /// convergecast leg), an inserted link exists as soon as its edge
    /// does — and fills the engine's convergecast forest spanning it.
    /// Union lists are accumulated per node first so several inserts at
    /// one endpoint compose instead of overwriting each other; the
    /// forest is computed before the topology mutations so it can read
    /// the pre-batch lists of untouched nodes.
    fn epoch_topology(&mut self, inserts: &[Edge], crashed: &[bool]) {
        let mut forest = std::mem::take(&mut self.forest);
        forest.union_slot.resize(self.node_count(), NOT_AN_ENDPOINT);
        let mut union_lists: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
        for e in inserts {
            for (node, other) in [(e.lo(), e.hi()), (e.hi(), e.lo())] {
                let slot = &mut forest.union_slot[node.index()];
                if *slot == NOT_AN_ENDPOINT {
                    *slot = union_lists.len() as u32;
                    union_lists.push((node, self.neighbors(node).to_vec()));
                }
                sorted_insert(&mut union_lists[*slot as usize].1, other);
            }
        }
        self.bfs_forest(&mut forest, &union_lists, crashed);
        for (node, list) in union_lists {
            forest.union_slot[node.index()] = NOT_AN_ENDPOINT;
            self.sim.update_topology(node, list);
        }
        self.forest = forest;
    }

    /// Computes the BFS forest of the epoch's union topology `G ∪ G'`
    /// for the convergecast into `forest`: `union_lists` holds the
    /// already-updated lists of insertion endpoints (found through
    /// `forest.union_slot`), every other node keeps its current
    /// (pre-batch) list.
    fn bfs_forest(
        &self,
        forest: &mut BfsForest,
        union_lists: &[(NodeId, Vec<NodeId>)],
        crashed: &[bool],
    ) {
        let n = self.node_count();
        forest.parent.clear();
        forest.parent.resize(n, None);
        forest.children.clear();
        forest.children.resize(n, 0);
        forest.roots.clear();
        forest.order.clear();
        // Crashed nodes sit out the epoch entirely: they neither relay
        // nor root a component (their candidates are recomputed
        // centrally), so they start out visited.
        forest.visited.clear();
        forest.visited.extend_from_slice(crashed);
        for i in 0..n {
            if forest.visited[i] {
                continue;
            }
            let root = NodeId::from_index(i);
            forest.visited[i] = true;
            forest.roots.push(root);
            // The order list is the queue: everything past `head` is
            // waiting to be expanded.
            let mut head = forest.order.len();
            forest.order.push(root);
            while let Some(&u) = forest.order.get(head) {
                head += 1;
                let neighbors = match forest.union_slot[u.index()] {
                    NOT_AN_ENDPOINT => self.neighbors(u),
                    k => &union_lists[k as usize].1,
                };
                for &w in neighbors {
                    if !forest.visited[w.index()] {
                        forest.visited[w.index()] = true;
                        forest.parent[w.index()] = Some(u);
                        forest.children[u.index()] += 1;
                        forest.order.push(w);
                    }
                }
            }
        }
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
    fn merge_roots(&mut self, report: &mut ApplyReport) {
        let _span = congest_obs::trace::span("distributed", "merge");
        for &root in &self.forest.roots {
            let (dead, born) = self.sim.program(root).aggregates();
            report.triangles_removed += merge_removed_candidates(&mut self.triangles, dead);
            report.triangles_added += merge_added_candidates(&mut self.triangles, born);
        }
    }

    /// Settles the communication topology on `G'` and the running
    /// totals. Removed links drop once per distinct endpoint — a hub
    /// shedding many edges in one batch gets a single O(degree) clone,
    /// not one per edge.
    fn settle(&mut self, deltas: &EpochDeltas) {
        let mut removed_endpoints: Vec<NodeId> = deltas
            .removes
            .iter()
            .flat_map(|e| [e.lo(), e.hi()])
            .collect();
        removed_endpoints.sort_unstable();
        removed_endpoints.dedup();
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
    // Each effective delta starts with one broadcaster per online
    // endpoint, counted on the phase's sorted edge list.
    let mut broadcasters: Vec<(Edge, usize)> = Vec::with_capacity(assignment.entries.len());
    let mut edges: Vec<Edge> = assignment.entries.iter().map(|&(e, _)| e).collect();
    edges.sort_unstable();
    for e in edges {
        match broadcasters.last_mut() {
            Some((last, count)) if *last == e => *count += 1,
            _ => broadcasters.push((e, 1)),
        }
    }
    // Heaviest first; rows ascend by node, and the sort is stable.
    let mut order: Vec<usize> = (0..assignment.rows.len()).collect();
    order.sort_by_key(|&k| std::cmp::Reverse(assignment.span(k).len()));
    for k in order {
        let span = assignment.span(k);
        let row = &mut assignment.entries[span];
        let mut load = row.len();
        if load <= budget {
            break; // sorted by decreasing load: nobody left is over
        }
        let mut by_edge: Vec<usize> = (0..row.len()).collect();
        by_edge.sort_unstable_by_key(|&i| row[i].0);
        for i in by_edge {
            if load <= budget {
                break;
            }
            let at = broadcasters
                .binary_search_by_key(&row[i].0, |&(edge, _)| edge)
                .expect("edge was counted");
            let count = &mut broadcasters[at].1;
            if *count > 1 {
                *count -= 1;
                row[i].1 = false;
                load -= 1;
            }
        }
    }
}

/// The engine *is* an adjacency view, read straight from the network
/// nodes' own slices: the oracle and the static CONGEST drivers run on
/// the live distributed graph directly.
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
            "DistributedTriangleEngine(n={}, m={}, triangles={}, split={}, epochs={}, \
             rounds={})",
            self.node_count(),
            self.edge_count(),
            self.triangle_count(),
            self.hub_split.name(),
            self.epochs,
            self.total.rounds,
        )
    }
}
