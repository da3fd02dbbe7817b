//! The distributed dynamic triangle engine. The protocol is documented
//! on [`DistributedTriangleEngine`]; the code is split by
//! responsibility: [`coordinator`] holds the engine's API and its
//! per-batch steps, [`node`] the node program, [`recovery`] everything
//! only a hardened engine runs (with the hardened protocol in prose),
//! [`link`] the two ends of an acknowledged convergecast link, [`cost`]
//! what the engine reports, and [`wire`] every bit layout of both
//! protocols.

use std::collections::BTreeMap;

use congest_graph::NodeId;
use congest_sim::{FaultPlan, Simulation};

use crate::shard::LiveTriangles;

mod coordinator;
mod cost;
mod link;
mod node;
mod recovery;
#[cfg(test)]
mod tests;
mod wire;

pub use cost::{CongestCost, ReceivedBitsSkew, RecoveryStats};

/// Distributed dynamic triangle engine over `congest-sim` epochs:
/// incremental triangle maintenance executed *inside* the CONGEST model.
///
/// Same [`StreamEngine`](crate::StreamEngine) contract as the
/// centralized engines — after any sequence of applied batches the live
/// triangle set equals a from-scratch recount on the engine's own
/// [`AdjacencyView`](congest_graph::AdjacencyView) — but every batch is
/// executed by the simulated CONGEST network itself, and the engine
/// additionally reports the network cost ([`CongestCost`]) each batch
/// incurred.
///
/// ```
/// use congest_graph::generators::Gnp;
/// use congest_graph::triangles as oracle;
/// use congest_stream::{DeltaBatch, DistributedTriangleEngine};
///
/// let graph = Gnp::new(64, 0.1).seeded(1).generate();
/// let mut engine = DistributedTriangleEngine::from_graph(&graph);
///
/// let mut batch = DeltaBatch::new();
/// batch.insert(congest_graph::NodeId(0), congest_graph::NodeId(1));
/// engine.apply(&batch).unwrap();
///
/// // The live set equals a snapshot-free recount on the engine…
/// assert_eq!(engine.triangles(), oracle::list_all_on(&engine));
/// // …and the batch took a handful of network rounds, not a re-run.
/// assert!(engine.last_batch_cost().rounds >= 1);
/// ```
///
/// The paper's Theorem 1/2 drivers answer one-shot queries on a static
/// graph; the centralized streaming engine
/// ([`ShardedTriangleIndex`](crate::ShardedTriangleIndex), and its
/// one-shard form [`TriangleIndex`](crate::TriangleIndex)) maintains the
/// triangle set incrementally but on one machine. This engine is the
/// missing counterpart: every graph node is a network node that **owns
/// its adjacency slice** `N(v)` and maintains the triangles it can see;
/// each [`DeltaBatch`] becomes one epoch of the simulated network, in
/// which edge deltas are broadcast to the affected neighbourhoods under
/// the B-bit per-link bandwidth budget. The per-batch *round* and
/// *message* cost — the paper's own yardstick — is then directly
/// comparable to re-running the static drivers (`find_triangles` /
/// `list_triangles` of `congest-triangles`) after every batch, which is
/// what the `dynamic_bench` harness measures.
///
/// # The per-batch protocol
///
/// The coordinator (this engine — the ingest tier that owns the delta
/// stream) coalesces the batch to at most one op per edge, classifies
/// the survivors against the current graph into effective removals `R`
/// and insertions `I`, and injects each node's incident slice plus the
/// two global phase lengths as out-of-band client input
/// ([`Simulation::inject`]). A batch that coalesces or classifies to
/// nothing runs **no epoch at all** — its documented floor cost is zero
/// rounds, zero messages, zero bits. Otherwise one epoch runs two
/// broadcast phases:
///
/// 1. **Removal phase** (`R_rm` rounds): the assigned broadcasters of a
///    removed edge `{u, v}` stream the delta to their (pre-batch)
///    neighbours, packing as many edges per message as the bandwidth
///    allows. A receiver `w` that sees `{u, v}` with both endpoints
///    still in its own list records the candidate dead triangle
///    `{u, v, w}` — a purely local check, because `w` owns `N(w)`. At
///    the phase boundary every node applies its own adjacency
///    mutations, switching the network to the post-batch graph.
/// 2. **Insertion phase** (`R_ins` rounds): the same broadcast for
///    inserted edges, now over the post-batch neighbourhoods, with
///    receivers recording candidate born triangles against their updated
///    lists.
///
/// ## Helper-split hub broadcasts ([`HubSplit`])
///
/// Every third vertex `w` of a triangle through `{u, v}` is adjacent to
/// *both* endpoints, so a broadcast by **either one** reaches every
/// detector — having both endpoints broadcast (the original protocol,
/// kept as [`HubSplit::Off`]) is pure redundancy that the dedup merge
/// absorbs. The phase length is the *longest* per-node queue,
/// `⌈k/⌊B/2w⌋⌉` rounds for a hub with `k` incident deltas, so a single
/// hot vertex used to stretch the whole network's epoch. Under
/// [`HubSplit::Auto`] (the default) the coordinator therefore computes a
/// per-phase budget — the *average* incident load, mirroring how the
/// paper's algorithm A1 partitions heavy edges across the network — and,
/// for every node over it, reassigns slices of the hub's delta list to
/// **helper neighbours**: each offloaded delta's other endpoint, which
/// is adjacent both to the hub and to every detector of that delta, and
/// so can rebroadcast on the hub's behalf *in the same phase*. The
/// descriptor carries a per-delta broadcast flag; phase lengths are
/// computed from the post-split queues, so hotspot epochs scale with the
/// average rather than the maximum incident load. Every delta keeps at
/// least one broadcaster ([`HubSplit::Budget`] forces an explicit
/// per-node budget, which the property tests drive to 1).
///
/// ## Convergecast aggregation
///
/// Candidates are supersets observed from several vantage points (a
/// triangle dying through two removed edges is reported by up to four
/// nodes). A coordinator that simply drained every node's candidate
/// lists would be running a merge the network never pays for, which the
/// subgraph-finding surveys flag as the hidden cost of distributed
/// listing benchmarks; so the merge itself is CONGEST-accounted: the
/// coordinator computes a BFS forest of the epoch topology (parents and
/// child counts ride in the injected descriptor), and after the
/// broadcast phases every node dedup-merges its own observations with
/// its children's — through the same `shard.rs` merge core the sharded
/// engine's phase-2 uses — and streams the merged set to its parent in
/// `≤ B`-bit chunks over extra accounted rounds. Only the forest roots
/// are read by the coordinator, so [`CongestCost`] (including its
/// [`convergecast_rounds`](CongestCost::convergecast_rounds) split-out)
/// reports the true rounds/messages/bits of aggregation, and
/// `rounds − convergecast_rounds − recovery_rounds` is the broadcast
/// prefix alone. The final merge into the global live set goes
/// through `shard::merge_removed_candidates` / `merge_added_candidates`,
/// so the correctness argument is word-for-word the sharded one: retired
/// triangles are exactly the triangles of `G` containing an edge of
/// `R`, born triangles exactly the triangles of `G' = G − R + I`
/// containing an edge of `I`.
///
/// Because links appear and disappear with the edges they carry, the
/// engine keeps the simulator's communication topology in sync with the
/// evolving graph ([`Simulation::update_topology`]): during an epoch the
/// topology is the **union** `G ∪ G'` (a removed link still carries its
/// own tear-down notification — and its leg of the convergecast — before
/// going down; an inserted link exists as soon as its edge does), and
/// after the epoch it settles to `G'`. The BFS forest spans that union,
/// and all observers of any one triangle are pairwise connected within
/// one component, so per-component aggregation loses nothing.
///
/// Payloads are validated on receipt: ids are decoded against the
/// domain `0..n`, edges and triangles must have distinct vertices, and
/// streams must use every bit they announce. A violation — impossible
/// for payloads this engine produces, but reachable through corrupt or
/// hostile injected traffic — surfaces as [`StreamError::Protocol`]
/// from [`apply`](Self::apply) instead of silently truncating ids into
/// range.
///
/// Everything above is the protocol under a quiet [`FaultPlan`], and a
/// quiet plan leaves it bit for bit what it was; a non-quiet plan
/// hardens it, as [`with_fault_plan`](Self::with_fault_plan) describes.
///
/// Per-batch tallies match the sharded pipeline path (the coalescer
/// counts dropped ops as no-ops rather than applying them), and the
/// final graph and triangle set are identical to the strictly ordered
/// [`TriangleIndex`](crate::TriangleIndex) on any stream —
/// property-tested across all four workload generator families, in
/// every scheduling mode — and a run repeats bit for bit,
/// reports and [`CongestCost`]s included, from its graph, fault plan and
/// seed, which the same tests pin on a second engine built alike.
///
/// [`DeltaBatch`]: crate::DeltaBatch
/// [`Simulation::inject`]: congest_sim::Simulation::inject
/// [`Simulation::update_topology`]: congest_sim::Simulation::update_topology
/// [`StreamError::Protocol`]: crate::StreamError::Protocol
pub struct DistributedTriangleEngine {
    sim: Simulation<node::DynamicTriangleNode>,
    /// The global triangle set (the coordinator's merge is the only
    /// writer).
    triangles: LiveTriangles,
    /// Number of present undirected edges.
    edge_count: usize,
    /// Per-link per-round budget, in bits.
    bandwidth_bits: usize,
    /// Broadcast scheduling policy (helper-split hub broadcasts).
    hub_split: HubSplit,
    /// Cost of the most recent epoch.
    last_batch: CongestCost,
    /// Running total over all epochs.
    total: CongestCost,
    /// Number of epochs (batches that actually ran the network).
    epochs: u64,
    /// Worst single-epoch received-bits skew (max node over mean node).
    skew_max: f64,
    /// Sum of per-epoch skews (mean = sum / epochs).
    skew_sum: f64,
    /// The deterministic fault schedule in effect (quiet by default; a
    /// non-quiet plan hardens the protocol).
    fault_plan: FaultPlan,
    /// Shadow adjacency of currently-crashed nodes: their in-network
    /// slices go stale while they sit out epochs, so the coordinator
    /// keeps the true list here (advanced every batch) and re-seeds the
    /// node from it when it rejoins.
    offline: BTreeMap<NodeId, Vec<NodeId>>,
    /// The convergecast forest of the latest epoch, refilled in place by
    /// every plan.
    forest: coordinator::BfsForest,
    /// Cumulative self-healing statistics (see [`RecoveryStats`]).
    recovery: RecoveryStats,
    /// Latched by the first epoch that fails: its effects on the graph
    /// and the triangle set are partial, so every later batch is refused
    /// with [`StreamError::Poisoned`](crate::StreamError::Poisoned).
    poisoned: bool,
}

/// How the coordinator schedules the per-phase delta broadcasts (the
/// [`DistributedTriangleEngine`] documentation walks through the full
/// protocol).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum HubSplit {
    /// The original protocol: both endpoints broadcast every incident
    /// delta, so a hub with `k` incident deltas stretches the phase to
    /// `⌈k/⌊B/2w⌋⌉` rounds. Kept as the benchmark control.
    Off,
    /// Helper-split scheduling with the per-phase budget derived from
    /// the **average** incident load of the touched nodes: every node
    /// over it sheds deltas to their other endpoints (its helper
    /// neighbours) while every delta keeps at least one broadcaster.
    /// The default.
    #[default]
    Auto,
    /// Helper-split scheduling with an explicit per-node per-phase
    /// budget of this many broadcast deltas (clamped to at least 1).
    /// The property tests force 1 to split as aggressively as coverage
    /// allows.
    Budget(usize),
}

impl HubSplit {
    /// Short lowercase name, used in logs.
    pub fn name(self) -> &'static str {
        match self {
            HubSplit::Off => "off",
            HubSplit::Auto => "auto",
            HubSplit::Budget(_) => "budget",
        }
    }
}
