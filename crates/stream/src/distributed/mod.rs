//! The distributed dynamic triangle engine: incremental triangle
//! maintenance executed *inside* the CONGEST model, over the resumable
//! epoch engine of `congest-sim`.
//!
//! The paper's Theorem 1/2 drivers answer one-shot queries on a static
//! graph; the centralized streaming engines
//! ([`TriangleIndex`](crate::TriangleIndex),
//! [`ShardedTriangleIndex`](crate::ShardedTriangleIndex)) maintain the
//! triangle set incrementally but on one machine.
//! [`DistributedTriangleEngine`] is the missing counterpart: every graph
//! node is a network node that **owns its adjacency slice** `N(v)` and
//! maintains the triangles it can see; each [`DeltaBatch`] becomes one
//! epoch of the simulated network, in which edge deltas are broadcast to
//! the affected neighbourhoods under the B-bit per-link bandwidth
//! budget. The per-batch *round* and *message* cost — the paper's own
//! yardstick — is then directly comparable to re-running the static
//! drivers (`find_triangles` / `list_triangles` of `congest-triangles`)
//! after every batch, which is what the `dynamic_bench` harness
//! measures.
//!
//! # The per-batch protocol
//!
//! The coordinator (this engine — the ingest tier that owns the delta
//! stream) coalesces the batch to at most one op per edge, classifies
//! the survivors against the current graph into effective removals `R`
//! and insertions `I`, and injects each node's incident slice plus the
//! two global phase lengths as out-of-band client input
//! ([`Simulation::inject`]). A batch that coalesces or classifies to
//! nothing runs **no epoch at all** — its documented floor cost is zero
//! rounds, zero messages, zero bits. Otherwise one epoch runs two
//! broadcast phases:
//!
//! 1. **Removal phase** (`R_rm` rounds): the assigned broadcasters of a
//!    removed edge `{u, v}` stream the delta to their (pre-batch)
//!    neighbours, packing as many edges per message as the bandwidth
//!    allows. A receiver `w` that sees `{u, v}` with both endpoints
//!    still in its own list records the candidate dead triangle
//!    `{u, v, w}` — a purely local check, because `w` owns `N(w)`. At
//!    the phase boundary every node applies its own adjacency
//!    mutations, switching the network to the post-batch graph.
//! 2. **Insertion phase** (`R_ins` rounds): the same broadcast for
//!    inserted edges, now over the post-batch neighbourhoods, with
//!    receivers recording candidate born triangles against their updated
//!    lists.
//!
//! ## Helper-split hub broadcasts ([`HubSplit`])
//!
//! Every third vertex `w` of a triangle through `{u, v}` is adjacent to
//! *both* endpoints, so a broadcast by **either one** reaches every
//! detector — having both endpoints broadcast (the original protocol,
//! kept as [`HubSplit::Off`]) is pure redundancy that the dedup merge
//! absorbs. The phase length is the *longest* per-node queue,
//! `⌈k/⌊B/2w⌋⌉` rounds for a hub with `k` incident deltas, so a single
//! hot vertex used to stretch the whole network's epoch. Under
//! [`HubSplit::Auto`] (the default) the coordinator therefore computes a
//! per-phase budget — the *average* incident load, mirroring how the
//! paper's algorithm A1 partitions heavy edges across the network — and,
//! for every node over it, reassigns slices of the hub's delta list to
//! **helper neighbours**: each offloaded delta's other endpoint, which
//! is adjacent both to the hub and to every detector of that delta, and
//! so can rebroadcast on the hub's behalf *in the same phase*. The
//! descriptor carries a per-delta broadcast flag; phase lengths are
//! computed from the post-split queues, so hotspot epochs scale with the
//! average rather than the maximum incident load. Every delta keeps at
//! least one broadcaster ([`HubSplit::Budget`] forces an explicit
//! per-node budget, which the property tests drive to 1).
//!
//! ## Convergecast aggregation
//!
//! Candidates are supersets observed from several vantage points (a
//! triangle dying through two removed edges is reported by up to four
//! nodes). A coordinator that simply drained every node's candidate
//! lists would be running a merge the network never pays for, which the
//! subgraph-finding surveys flag as the hidden cost of distributed
//! listing benchmarks; so the merge itself is CONGEST-accounted: the
//! coordinator computes a BFS forest of the epoch topology (parents and
//! child counts ride in the injected descriptor), and after the
//! broadcast phases every node dedup-merges its own observations with
//! its children's — through the same `shard.rs` merge core the sharded
//! engine's phase-2 uses — and streams the merged set to its parent in
//! `≤ B`-bit chunks over extra accounted rounds. Only the forest roots
//! are read by the coordinator, so [`CongestCost`] (including its
//! [`convergecast_rounds`](CongestCost::convergecast_rounds) split-out)
//! reports the true rounds/messages/bits of aggregation, and
//! `rounds − convergecast_rounds − recovery_rounds` is the broadcast
//! prefix alone. The final merge into the global [`TriangleSet`] goes
//! through `shard::merge_removed_candidates` / `merge_added_candidates`,
//! so the correctness argument is word-for-word the sharded one: retired
//! triangles are exactly the triangles of `G` containing an edge of
//! `R`, born triangles exactly the triangles of `G' = G − R + I`
//! containing an edge of `I`.
//!
//! Because links appear and disappear with the edges they carry, the
//! engine keeps the simulator's communication topology in sync with the
//! evolving graph ([`Simulation::update_topology`]): during an epoch the
//! topology is the **union** `G ∪ G'` (a removed link still carries its
//! own tear-down notification — and its leg of the convergecast — before
//! going down; an inserted link exists as soon as its edge does), and
//! after the epoch it settles to `G'`. The BFS forest spans that union,
//! and all observers of any one triangle are pairwise connected within
//! one component, so per-component aggregation loses nothing.
//!
//! Payloads are validated on receipt: ids are decoded against the
//! domain `0..n`, edges and triangles must have distinct vertices, and
//! streams must use every bit they announce. A violation — impossible
//! for payloads this engine produces, but reachable through corrupt or
//! hostile injected traffic — surfaces as [`StreamError::Protocol`]
//! from [`DistributedTriangleEngine::apply`] instead of silently
//! truncating ids into range.
//!
//! # Hardened streams
//!
//! Everything above is the protocol under a quiet [`FaultPlan`], and a
//! quiet plan leaves it bit for bit what it was. A non-quiet plan
//! *hardens* the engine: messages may now be lost, duplicated or arrive
//! with one bit flipped, and a node may sit out whole epochs, so every
//! stream is made to prove itself and every loss to cost what was lost.
//! The bit layouts live in the private `wire` module, the two ends of an
//! acknowledged link in `link`.
//!
//! **Broadcast: one combined stream per link.** A (sender, receiver)
//! pair has one stream per epoch: the removal edges the sender owes
//! that neighbour, in the removal rounds, then the insertion edges, in
//! the insertion rounds — `⌊B/2w⌋` edges of two `w`-bit ids per
//! message, exactly as on the quiet path — and then, in the rounds
//! right after the insertion data rounds, **one trailer**:
//!
//! ```text
//! [ removal-prefix length | total edge count | Checksum61 ]
//!    ⌈log2(cap_rm + 1)⌉      ⌈log2(cap + 1)⌉      61 bits
//! ```
//!
//! where `cap_rm` and `cap` are the most edges the epoch's removal
//! rounds, and all its data rounds, can carry on one link — both ends
//! read the round counts from their descriptors, so a typical epoch's
//! trailer is 65 bits, three rounds at `B = 22`. The checksum folds the
//! prefix length, then every id word in stream order.
//! Receivers buffer a stream instead of trusting deliveries and tell
//! data from trailer by round alone; once the trailer rounds are over, a
//! stream whose trailer has the right length, count and checksum
//! converts to candidates — its removal prefix against the snapshot of
//! the pre-batch slice a touched node took in round 0, the rest against
//! the live post-batch slice — and its sender joins the node's verified
//! set. The coordinator replays every broadcaster's queues and compares
//! them with the verified sets; each pair that is missing is re-sent, as
//! the same combined stream closed by the same trailer, in a **repair
//! epoch** (a main epoch with no phase boundary and no aggregation:
//! one encoder and one verifier serve both), at most
//! `MAX_REPAIR_ATTEMPTS` times, accounted as
//! [`recovery_rounds`](CongestCost::recovery_rounds). A lost broadcast
//! message therefore costs one short repair epoch for the streams it
//! broke.
//!
//! **Convergecast: acknowledged links.** An empty aggregate is the
//! one-bit chunk `[more = 0]` it is on the quiet path — the only 1-bit
//! message there is, so no lost or flipped bit can forge it. A non-empty
//! aggregate closes with a [`Checksum61`](congest_hash::Checksum61) over
//! its id words and travels as chunks `[more | seq | data]`, `seq`
//! counting chunks modulo 4. The parent → child direction of a forest
//! link is otherwise idle during the convergecast, and carries the
//! **ack rule**: a parent answers every chunk it reads — in order or
//! not, once per child per round — with the 2-bit sequence number it
//! expects next, appending a chunk only if it carries exactly that
//! number; a child keeps at most a window of chunks unacknowledged, and
//! when the answer to its oldest one is not there in the round it is
//! due, goes back and resends from that chunk (go-back-N). Three
//! constants, all in `link`:
//!
//! * `ACK_TIMEOUT_ROUNDS = 2` — a chunk sent in round `r` is read in
//!   `r + 1`, answered in that round, and the answer read in `r + 2`.
//!   Rounds are synchronous: an answer that is not there by then is not
//!   late, it is lost, so waiting longer buys nothing.
//! * `WINDOW = 2` — the round trip, so a link on which nothing is lost
//!   moves one new chunk every round, as the quiet path does.
//! * `MAX_LINK_RESENDS = 8` — sized like `MAX_REPAIR_ATTEMPTS`: resends
//!   in a row that may go unanswered before the child gives the link
//!   up, latches trouble and halts. Eight straight losses do not happen
//!   at a loss rate the protocol is meant for; a link that is really
//!   dead is dropped after 18 rounds.
//!
//! A node stays up `LINGER_ROUNDS = 3 · ACK_TIMEOUT_ROUNDS` after its
//! last answer, so a child whose *final* acknowledgement was lost — and
//! which cannot tell that from a lost final chunk — gets three more
//! chances to hear it. (With a single chance, a child is stranded
//! whenever the acknowledgement and its one resend are both lost: at 1 %
//! drop on 2 000 links that degraded 4 epochs in 40.) A lost chunk or
//! acknowledgement thus costs its link one round trip, and the epoch
//! that much only if the link is on the critical path.
//!
//! **What the deadline is still for.** Every node also gets an absolute
//! round, `broadcast_end + (height + 1) · hop + 2`, at which it stops
//! counting on children whose streams are still open, latches trouble
//! and forwards what it has; `hop` is the batch-wide worst-case stream
//! length plus the rounds a link spends before giving itself up, so the
//! deadline cannot fire on a stream the link layer is still able to
//! deliver. It is the backstop for what acknowledgements cannot mend —
//! total loss, total corruption, a flipped `more` bit that leaves a
//! parent waiting for chunks that do not exist — and together with the
//! resend budget it bounds every epoch, so those cases still end in
//! [`StreamError::RecoveryExhausted`] or, under a small enough cap,
//! [`StreamError::RoundLimit`]. Because a hardened coordinator reads
//! every node's aggregates (not just the roots'), latched trouble loses
//! no verified candidate; it only marks the epoch
//! [`degraded`](RecoveryStats::degraded_epochs) — crashed, uncovered or
//! genuinely abandoned — its network-side merge having been cut short.
//!
//! Per-batch tallies match the sharded pipeline path (the coalescer
//! counts dropped ops as no-ops rather than applying them), and the
//! final graph and triangle set are identical to the strictly ordered
//! [`TriangleIndex`](crate::TriangleIndex) on any stream —
//! property-tested across all four workload generator families, in
//! every scheduling mode — and a run repeats bit for bit,
//! reports and [`CongestCost`]s included, from its graph, fault plan and
//! seed, which the same tests pin on a second engine built alike.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::time::Duration;

use congest_graph::{AdjacencyView, Edge, Graph, NodeId, Triangle, TriangleSet};
use congest_hash::CHECKSUM_BITS;
use congest_sim::{
    Bandwidth, FaultPlan, NodeProgram, NodeStatus, ReceivedMessage, RoundContext, SimConfig,
    Simulation,
};
use congest_wire::{BitReader, BitWriter, IdCodec, Payload};

use crate::delta::{DeltaBatch, DeltaOp, PendingBuffer};
use crate::index::{validate_batch, ApplyMode, ApplyReport, StreamError};
use crate::shard::{
    merge_added_candidates, merge_removed_candidates, sorted_insert, sorted_remove,
};

mod link;
mod wire;

use link::{LinkReceiver, LinkSender, Receipt, ACK_TIMEOUT_ROUNDS, MAX_LINK_RESENDS};
use wire::{StreamBuf, TrailerLayout, COUNT_BITS};

/// Width of the per-node convergecast deadline field in hardened
/// descriptors (an absolute round number; 32 bits could overflow on
/// pathological bounds, 48 cannot in practice).
const DEADLINE_BITS: usize = 48;

/// How many retransmission epochs the coordinator schedules before
/// giving up with [`StreamError::RecoveryExhausted`]. Each attempt
/// re-sends only the still-unverified streams, so under realistic loss
/// rates one or two attempts settle everything. The budget is sized for
/// narrow links: at small `n` the checksum trailer alone spans ~8
/// messages, so a single attempt under a few-percent loss rate fails
/// with non-trivial probability and several retries must stay cheap.
const MAX_REPAIR_ATTEMPTS: u32 = 8;

/// How the coordinator schedules the per-phase delta broadcasts (the
/// module-level documentation in `distributed/mod.rs` walks through the
/// full protocol).
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

/// CONGEST cost of one epoch (or a running total over all epochs): the
/// quantities the paper's bounds are about.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CongestCost {
    /// Synchronous rounds executed (broadcast *and* aggregation).
    pub rounds: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Payload bits delivered.
    pub bits: u64,
    /// The share of [`rounds`](CongestCost::rounds) spent on the
    /// convergecast aggregation of candidate sets. What is left after
    /// it and [`recovery_rounds`](CongestCost::recovery_rounds) is the
    /// broadcast prefix — the part helper-splitting schedules.
    pub convergecast_rounds: u64,
    /// The share of [`rounds`](CongestCost::rounds) spent on recovery:
    /// the bounded retransmission epochs a hardened engine (one with a
    /// non-quiet [`FaultPlan`]) runs to re-send broadcast streams whose
    /// trailer failed to verify. Always 0 under a quiet plan.
    pub recovery_rounds: u64,
    /// The share of the broadcast prefix (`rounds − convergecast_rounds
    /// − recovery_rounds`) a hardened engine spends sending stream
    /// trailers. Always 0 under a quiet plan.
    pub trailer_rounds: u64,
    /// The share of
    /// [`convergecast_rounds`](CongestCost::convergecast_rounds) in
    /// which no node sent anything: a timeout being sat out, the tail in
    /// which the last nodes wait before halting. (The simulator counts
    /// silent rounds per epoch; they are booked here up to the
    /// convergecast share, which is where waiting happens.)
    pub idle_rounds: u64,
}

impl CongestCost {
    /// The cost of one epoch whose simulator metrics are `metrics`, of
    /// which everything after the `broadcast_rounds`-round prefix was
    /// convergecast aggregation and the prefix's last `trailer_rounds`
    /// data-free rounds carried stream trailers.
    fn from_epoch(
        metrics: &congest_sim::Metrics,
        broadcast_rounds: u64,
        trailer_rounds: u64,
    ) -> Self {
        let convergecast_rounds = metrics.rounds.saturating_sub(broadcast_rounds);
        let cost = CongestCost {
            rounds: metrics.rounds,
            messages: metrics.messages,
            bits: metrics.total_bits,
            convergecast_rounds,
            recovery_rounds: 0,
            trailer_rounds,
            idle_rounds: metrics.silent_rounds.min(convergecast_rounds),
        };
        cost.debug_assert_partition();
        cost
    }

    /// The parts must nest: broadcast prefix + convergecast + recovery
    /// is all of the rounds, trailers are part of the prefix, idling is
    /// part of the convergecast.
    fn debug_assert_partition(&self) {
        let prefix = self
            .rounds
            .checked_sub(self.convergecast_rounds + self.recovery_rounds);
        debug_assert!(
            prefix.is_some_and(|prefix| self.trailer_rounds <= prefix)
                && self.idle_rounds <= self.convergecast_rounds,
            "cost terms do not nest: {self:?}"
        );
    }

    /// Adds one retransmission epoch's metrics into this batch cost.
    fn add_recovery_epoch(&mut self, metrics: &congest_sim::Metrics) {
        self.rounds += metrics.rounds;
        self.messages += metrics.messages;
        self.bits += metrics.total_bits;
        self.recovery_rounds += metrics.rounds;
        self.debug_assert_partition();
    }

    /// Adds `other` into this running total.
    fn accumulate(&mut self, other: &CongestCost) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.bits += other.bits;
        self.convergecast_rounds += other.convergecast_rounds;
        self.recovery_rounds += other.recovery_rounds;
        self.trailer_rounds += other.trailer_rounds;
        self.idle_rounds += other.idle_rounds;
    }
}

/// Per-node received-bits imbalance across the epochs run so far: each
/// epoch's skew is the busiest node's received bits over the per-node
/// mean (1.0 = perfectly even, `n` = one node received everything). Hub
/// batches without helper-splitting push this toward the hub's degree;
/// [`HubSplit`] pulls it back down — this is the load-balance story of
/// the paper's bounds made measurable per run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReceivedBitsSkew {
    /// Worst single-epoch skew.
    pub max_ratio: f64,
    /// Mean over epochs of the per-epoch skew.
    pub mean_ratio: f64,
    /// Epochs the statistics cover.
    pub epochs: u64,
}

/// One network node's program: owns the adjacency slice `N(v)` and runs
/// the two-phase broadcast protocol each epoch (see the
/// [module documentation](self)).
struct DynamicTriangleNode {
    id: NodeId,
    /// This node's slice of the graph: its sorted neighbour list. The
    /// engine's [`AdjacencyView`] reads these slices directly — the
    /// node programs *are* the graph storage.
    adjacency: Vec<NodeId>,
    /// Global data-round counts of the two broadcast phases for the
    /// current epoch (from the descriptor).
    rm_rounds: u64,
    ins_rounds: u64,
    /// Effective deltas incident to this node (from the descriptor);
    /// applied locally at the phase boundary.
    my_removes: Vec<Edge>,
    my_inserts: Vec<Edge>,
    /// The subset of the incident deltas this node was assigned to
    /// broadcast (equal to the full lists under [`HubSplit::Off`]; a
    /// hub's over-budget slices are reassigned to helper neighbours).
    bcast_removes: Vec<Edge>,
    bcast_inserts: Vec<Edge>,
    /// Per-neighbour broadcast queues, chunked to `edges_per_message`.
    /// In a repair epoch `ins_queues` holds the whole streams to
    /// re-send, removals leading.
    rm_queues: Vec<(NodeId, Vec<Edge>)>,
    ins_queues: Vec<(NodeId, Vec<Edge>)>,
    /// Candidate triangle deltas observed this epoch; folded into the
    /// convergecast aggregate at the start of the aggregation phase (a
    /// repair epoch leaves them for the hardened coordinator to drain).
    dead: Vec<Triangle>,
    born: Vec<Triangle>,
    /// This node's parent in the coordinator-computed BFS forest
    /// (`None` for component roots).
    parent: Option<NodeId>,
    /// How many convergecast streams this node must absorb before it
    /// may forward its own aggregate.
    child_count: usize,
    /// The children whose streams have ended, by id — a final chunk
    /// that arrives twice is still one child.
    finished: BTreeSet<NodeId>,
    /// The receiving end of each child's convergecast link.
    child_links: BTreeMap<NodeId, LinkReceiver>,
    /// The dedup-merged candidate aggregates (own observations plus
    /// every finished child stream) — the `shard.rs` merge core keeps
    /// each triangle exactly once, which is also what bounds the bits
    /// forwarded upward.
    agg_dead: TriangleSet,
    agg_born: TriangleSet,
    /// The sending end of the link to the parent, carrying the
    /// serialized aggregate (`None` until the node starts sending).
    up_link: Option<LinkSender>,
    /// First protocol violation observed this epoch (corrupt payload);
    /// surfaced by the coordinator as [`StreamError::Protocol`].
    protocol_error: Option<String>,
    /// Whether the engine runs with a non-quiet [`FaultPlan`]: broadcast
    /// streams then close with a self-checking trailer, receivers
    /// buffer-and-verify instead of trusting deliveries, convergecast
    /// links are acknowledged, and the node understands repair
    /// descriptors. Set once by the coordinator; a quiet plan leaves
    /// every path below bit-identical to the legacy protocol.
    hardened: bool,
    /// Snapshot of the pre-batch slice, kept so removal streams verified
    /// after the phase boundary (and retransmitted ones) can still be
    /// checked against the graph they refer to. Taken only by a node
    /// the batch touches; `None` means the live slice is the pre-batch
    /// slice.
    pre_adjacency: Option<Vec<NodeId>>,
    /// Layout of this epoch's stream trailers (zero rounds on a legacy
    /// engine).
    trailer: TrailerLayout,
    /// The pre-built trailer of each stream this node sends this epoch,
    /// by receiving neighbour.
    trailers: Vec<(NodeId, Payload)>,
    /// Buffered incoming broadcast streams, by sender.
    stream_bufs: BTreeMap<NodeId, StreamBuf>,
    /// Senders whose stream verified this epoch (the coordinator reads
    /// this to find the streams that did not).
    verified: BTreeSet<NodeId>,
    /// Absolute round after which this node stops waiting for
    /// convergecast children and forwards a partial aggregate.
    deadline: u64,
    /// Latched when a convergecast stream was rejected, a link was
    /// given up or the deadline fired — the epoch then counts as
    /// degraded.
    agg_trouble: bool,
    /// Whether this is a repair epoch (kind-1 descriptor): a pure
    /// re-broadcast of the scheduled streams, no local apply, no
    /// aggregation.
    repair_mode: bool,
}

impl DynamicTriangleNode {
    fn new(id: NodeId, adjacency: Vec<NodeId>) -> Self {
        DynamicTriangleNode {
            id,
            adjacency,
            rm_rounds: 0,
            ins_rounds: 0,
            my_removes: Vec::new(),
            my_inserts: Vec::new(),
            bcast_removes: Vec::new(),
            bcast_inserts: Vec::new(),
            rm_queues: Vec::new(),
            ins_queues: Vec::new(),
            dead: Vec::new(),
            born: Vec::new(),
            parent: None,
            child_count: 0,
            finished: BTreeSet::new(),
            child_links: BTreeMap::new(),
            agg_dead: TriangleSet::new(),
            agg_born: TriangleSet::new(),
            up_link: None,
            protocol_error: None,
            hardened: false,
            pre_adjacency: None,
            trailer: TrailerLayout::default(),
            trailers: Vec::new(),
            stream_bufs: BTreeMap::new(),
            verified: BTreeSet::new(),
            deadline: 0,
            agg_trouble: false,
            repair_mode: false,
        }
    }

    /// Takes the candidate lists gathered during the last epoch.
    fn drain_candidates(&mut self) -> (Vec<Triangle>, Vec<Triangle>) {
        (
            std::mem::take(&mut self.dead),
            std::mem::take(&mut self.born),
        )
    }

    /// Takes the convergecast aggregates (meaningful on forest roots
    /// after a main epoch).
    fn take_aggregates(&mut self) -> (TriangleSet, TriangleSet) {
        (
            std::mem::take(&mut self.agg_dead),
            std::mem::take(&mut self.agg_born),
        )
    }

    /// Latches the first protocol violation of the epoch.
    fn record_protocol_error(&mut self, from: NodeId, detail: String) {
        if self.protocol_error.is_none() {
            self.protocol_error = Some(format!("from {from}: {detail}"));
        }
    }

    /// This node's pre-batch slice.
    fn pre_slice(&self) -> &[NodeId] {
        self.pre_adjacency.as_deref().unwrap_or(&self.adjacency)
    }

    /// Builds per-neighbour broadcast queues for `deltas` over the given
    /// neighbour list, skipping the other endpoint (it already knows),
    /// chunked so each round's message fits the budget.
    fn build_queues(neighbors: &[NodeId], deltas: &[Edge]) -> Vec<(NodeId, Vec<Edge>)> {
        if deltas.is_empty() {
            return Vec::new();
        }
        neighbors
            .iter()
            .filter_map(|&nb| {
                let q: Vec<Edge> = deltas.iter().copied().filter(|e| !e.contains(nb)).collect();
                (!q.is_empty()).then_some((nb, q))
            })
            .collect()
    }

    /// Decodes the injected batch descriptor and prepares the epoch;
    /// resets all per-epoch state first so nothing leaks across epochs
    /// (the adjacency slice and its pre-batch snapshot are the only
    /// carry-overs — repair epochs still verify against them).
    fn load_descriptor(&mut self, ctx: &mut RoundContext<'_>) {
        self.rm_rounds = 0;
        self.ins_rounds = 0;
        self.my_removes.clear();
        self.my_inserts.clear();
        self.bcast_removes.clear();
        self.bcast_inserts.clear();
        self.rm_queues.clear();
        self.ins_queues.clear();
        self.parent = None;
        self.child_count = 0;
        self.finished.clear();
        self.child_links.clear();
        self.agg_dead = TriangleSet::new();
        self.agg_born = TriangleSet::new();
        self.up_link = None;
        self.protocol_error = None;
        self.trailer = TrailerLayout::default();
        self.trailers.clear();
        self.stream_bufs.clear();
        self.verified.clear();
        self.deadline = 0;
        self.agg_trouble = false;
        self.repair_mode = false;
        let codec = ctx.id_codec().codec();
        let n = ctx.n();
        let bandwidth_bits = ctx.bandwidth_bits();
        for m in ctx.take_inbox() {
            if let Err(detail) = self.parse_descriptor(codec, n, bandwidth_bits, &m.payload) {
                self.record_protocol_error(m.from, detail);
            }
        }
        if self.repair_mode {
            // Repair epochs re-send previously-broadcast streams; the
            // queues came verbatim from the repair descriptor.
            return;
        }
        if self.hardened {
            let touched = !(self.my_removes.is_empty() && self.my_inserts.is_empty());
            self.pre_adjacency = touched.then(|| self.adjacency.clone());
        }
        // Removal broadcasts go over the pre-batch neighbourhood.
        self.rm_queues = Self::build_queues(&self.adjacency, &self.bcast_removes);
    }

    /// Parses one descriptor payload, committing nothing on failure (a
    /// corrupt descriptor must not leave half-set phase lengths behind).
    fn parse_descriptor(
        &mut self,
        codec: IdCodec,
        n: usize,
        bandwidth_bits: usize,
        payload: &Payload,
    ) -> Result<(), String> {
        fn err<E: fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
            move |e| format!("descriptor {what}: {e}")
        }
        let per_message = wire::edges_per_message(bandwidth_bits, codec.width());
        let mut r = BitReader::new(payload);
        let mut sync = None;
        if self.hardened {
            if r.read_bool().map_err(err("kind"))? {
                return self.parse_repair(codec, n, bandwidth_bits, &mut r);
            }
            if r.read_bool().map_err(err("sync flag"))? {
                let count = r.read_bits(COUNT_BITS).map_err(err("sync length"))?;
                let mut list = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    list.push(wire::decode_node(codec, &mut r, n)?);
                }
                sync = Some(list);
            }
        }
        let rm_rounds = r.read_bits(COUNT_BITS).map_err(err("rm_rounds"))?;
        let ins_rounds = r.read_bits(COUNT_BITS).map_err(err("ins_rounds"))?;
        let mut parent = None;
        if r.read_bool().map_err(err("parent flag"))? {
            parent = Some(wire::decode_node(codec, &mut r, n)?);
        }
        let child_count = r.read_bits(COUNT_BITS).map_err(err("child count"))? as usize;
        let mut deadline = 0u64;
        if self.hardened {
            deadline = r.read_bits(DEADLINE_BITS).map_err(err("deadline"))?;
        }
        let mut lists: [(Vec<Edge>, Vec<Edge>); 2] = Default::default();
        for (all, bcast) in &mut lists {
            let count = r.read_bits(COUNT_BITS).map_err(err("list length"))?;
            for _ in 0..count {
                let e = wire::decode_edge(codec, &mut r, n)?;
                all.push(e);
                if r.read_bool().map_err(err("broadcast flag"))? {
                    bcast.push(e);
                }
            }
        }
        let [(rm_all, rm_bcast), (ins_all, ins_bcast)] = lists;
        if let Some(list) = sync {
            // Rejoin after a crash window: the coordinator re-seeds the
            // slice this node missed updates for while halted.
            self.adjacency = list;
        }
        self.rm_rounds = rm_rounds;
        self.ins_rounds = ins_rounds;
        if self.hardened {
            self.trailer =
                TrailerLayout::for_phases(rm_rounds, ins_rounds, per_message, bandwidth_bits);
        }
        self.parent = parent;
        self.child_count = child_count;
        self.deadline = deadline;
        self.my_removes = rm_all;
        self.bcast_removes = rm_bcast;
        self.my_inserts = ins_all;
        self.bcast_inserts = ins_bcast;
        Ok(())
    }

    /// Parses a repair descriptor (hardened engines only): the number
    /// of data rounds and the streams this node must re-send, each with
    /// the length of its removal prefix. A repair epoch is a main epoch
    /// with no removal phase of its own — the whole stream goes out back
    /// to back in the insertion rounds — so the same send, buffer and
    /// verify code runs both.
    fn parse_repair(
        &mut self,
        codec: IdCodec,
        n: usize,
        bandwidth_bits: usize,
        r: &mut BitReader<'_>,
    ) -> Result<(), String> {
        fn err<E: fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
            move |e| format!("repair descriptor {what}: {e}")
        }
        let rounds = r.read_bits(COUNT_BITS).map_err(err("rounds"))?;
        let capacity = rounds as usize * wire::edges_per_message(bandwidth_bits, codec.width());
        let layout = TrailerLayout::new(capacity, capacity, bandwidth_bits);
        let target_count = r.read_bits(COUNT_BITS).map_err(err("target count"))?;
        let mut queues = Vec::with_capacity(target_count as usize);
        let mut trailers = Vec::with_capacity(target_count as usize);
        for _ in 0..target_count {
            let to = wire::decode_node(codec, r, n)?;
            let rm_len = r.read_bits(COUNT_BITS).map_err(err("removal prefix"))? as usize;
            let count = r.read_bits(COUNT_BITS).map_err(err("edge count"))?;
            let mut edges = Vec::with_capacity(count as usize);
            for _ in 0..count {
                edges.push(wire::decode_edge(codec, r, n)?);
            }
            if rm_len > edges.len() || edges.len() > capacity {
                return Err(format!(
                    "repair stream of {} edges ({rm_len} removals) does not fit {rounds} rounds",
                    edges.len()
                ));
            }
            trailers.push((to, layout.build(rm_len, &edges, &[])));
            queues.push((to, edges));
        }
        self.repair_mode = true;
        self.ins_rounds = rounds;
        self.trailer = layout;
        self.ins_queues = queues;
        self.trailers = trailers;
        Ok(())
    }

    /// Applies this node's own effective deltas to its slice (the phase
    /// boundary), then prepares insertion broadcasts over the post-batch
    /// neighbourhood — and, on a hardened engine, the one trailer that
    /// closes each neighbour's combined removal + insertion stream.
    fn apply_local(&mut self) {
        for e in &self.my_removes {
            if let Some(other) = e.other(self.id) {
                sorted_remove(&mut self.adjacency, other);
            }
        }
        for e in &self.my_inserts {
            if let Some(other) = e.other(self.id) {
                sorted_insert(&mut self.adjacency, other);
            }
        }
        self.ins_queues = Self::build_queues(&self.adjacency, &self.bcast_inserts);
        if self.hardened {
            let mut streams: BTreeMap<NodeId, [&[Edge]; 2]> = BTreeMap::new();
            for (nb, q) in &self.rm_queues {
                streams.entry(*nb).or_default()[0] = q;
            }
            for (nb, q) in &self.ins_queues {
                streams.entry(*nb).or_default()[1] = q;
            }
            self.trailers = streams
                .into_iter()
                .map(|(nb, [rm, ins])| (nb, self.trailer.build(rm.len(), rm, ins)))
                .collect();
        }
    }

    /// Sends this round's chunk of every per-neighbour queue.
    fn send_wave(
        ctx: &mut RoundContext<'_>,
        queues: &[(NodeId, Vec<Edge>)],
        wave: usize,
        per_message: usize,
    ) {
        let codec = ctx.id_codec().codec();
        for (nb, q) in queues {
            let Some(chunk) = q.chunks(per_message).nth(wave) else {
                continue;
            };
            let mut w = BitWriter::new();
            wire::encode_edges(codec, &mut w, chunk);
            ctx.send(*nb, w.finish())
                .expect("one in-budget message per link per round");
        }
    }

    /// Sends this round's slice of every outgoing stream's trailer. The
    /// trailer occupies the rounds right after the data rounds, so
    /// receivers can tell data messages from trailer chunks by round
    /// alone.
    fn send_trailer_wave(&self, ctx: &mut RoundContext<'_>, index: usize) {
        let bandwidth_bits = ctx.bandwidth_bits();
        for (nb, trailer) in &self.trailers {
            if let Some(chunk) = TrailerLayout::chunk(trailer, index, bandwidth_bits) {
                ctx.send(*nb, chunk)
                    .expect("trailer chunks fit the link budget");
            }
        }
    }

    /// Verifies every buffered stream against its trailer, main and
    /// repair epochs alike. A verified stream's removal prefix converts
    /// to candidates against the pre-batch snapshot, the rest against
    /// the live post-batch slice — exactly the membership a legacy
    /// receiver tests on delivery; anything else is silently set aside
    /// for the coordinator, which compares the verified-sender sets
    /// against its own expectations and schedules retransmission.
    fn verify_streams(&mut self) {
        let layout = self.trailer;
        for (from, buf) in std::mem::take(&mut self.stream_bufs) {
            let Some((edges, rm_len)) = layout.verify(buf) else {
                continue;
            };
            self.convert_candidates(&edges[..rm_len], false);
            self.convert_candidates(&edges[rm_len..], true);
            self.verified.insert(from);
        }
    }

    /// Converts delivered edges into candidate triangles: a removed
    /// edge whose endpoints are both in the pre-batch slice, an
    /// inserted edge whose endpoints are both in the live one.
    fn convert_candidates(&mut self, edges: &[Edge], ins_phase: bool) {
        for e in edges {
            if e.contains(self.id) {
                continue;
            }
            let (u, v) = e.endpoints();
            let slice = if ins_phase {
                &self.adjacency
            } else {
                self.pre_slice()
            };
            if slice.binary_search(&u).is_ok() && slice.binary_search(&v).is_ok() {
                let t = Triangle::new(u, v, self.id);
                if ins_phase {
                    self.born.push(t);
                } else {
                    self.dead.push(t);
                }
            }
        }
    }

    /// Absorbs one convergecast message from a child, read in `round`;
    /// when it completes the child's stream, the stream is decoded and
    /// dedup-merged into this node's aggregates through the shared
    /// `shard.rs` merge core. Returns whether the child is owed an
    /// acknowledgement.
    fn receive_chunk(&mut self, codec: IdCodec, n: usize, round: u64, m: &ReceivedMessage) -> bool {
        let hardened = self.hardened;
        let link = self
            .child_links
            .entry(m.from)
            .or_insert_with(|| LinkReceiver::new(hardened));
        let stream = match link.on_chunk(round, &m.payload) {
            // To a hardened receiver as good as lost: unanswered, it
            // is sent again.
            Receipt::Garbled if hardened => return false,
            Receipt::Garbled => {
                self.record_protocol_error(m.from, "empty convergecast chunk".into());
                // Count the stream as finished so the epoch still
                // terminates; the error surfaces after it.
                self.finished.insert(m.from);
                return false;
            }
            Receipt::Chunk => return hardened,
            Receipt::Complete(stream) => stream,
        };
        match wire::decode_aggregate(codec, n, &stream, hardened) {
            Ok((dead, born)) => {
                merge_added_candidates(&mut self.agg_dead, &dead);
                merge_added_candidates(&mut self.agg_born, &born);
            }
            // A hardened receiver degrades instead of erroring: the
            // coordinator reads every node's aggregates directly.
            Err(_) if hardened => self.agg_trouble = true,
            Err(detail) => self.record_protocol_error(m.from, detail),
        }
        self.finished.insert(m.from);
        hardened
    }
}

impl NodeProgram for DynamicTriangleNode {
    type Output = ();

    fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
        let r = ctx.round();
        let codec = ctx.id_codec().codec();
        let n = ctx.n();
        let bandwidth_bits = ctx.bandwidth_bits();
        let per_message = wire::edges_per_message(bandwidth_bits, codec.width());

        if r == 0 {
            self.load_descriptor(ctx);
        }
        // The epoch's timetable: removal data rounds, insertion data
        // rounds, then (hardened only) the trailer rounds; everything
        // after `broadcast_end` is convergecast.
        let data_end = self.rm_rounds + self.ins_rounds;
        let broadcast_end = data_end + self.trailer.rounds();

        // Children owed an acknowledgement this round (hardened only).
        let mut answer: Vec<NodeId> = Vec::new();
        if r > 0 {
            for m in ctx.take_inbox() {
                if r > broadcast_end {
                    // Convergecast: the parent sends nothing but
                    // acknowledgements, children nothing but chunks.
                    if self.hardened && Some(m.from) == self.parent {
                        if let Some(up) = &mut self.up_link {
                            up.on_ack(&m.payload);
                        }
                    } else if self.receive_chunk(codec, n, r, &m) {
                        answer.push(m.from);
                    }
                } else if self.hardened {
                    // Hardened broadcast deliveries buffer per sender
                    // instead of converting immediately; a message that
                    // fails to decode poisons the buffer rather than the
                    // epoch. Conversion happens once the trailer rounds
                    // are over, only for streams whose trailer verifies.
                    let buf = self.stream_bufs.entry(m.from).or_default();
                    if r <= data_end {
                        buf.push_data(codec, n, &m.payload);
                    } else {
                        buf.push_trailer(&m.payload);
                    }
                } else {
                    // Deliveries from rounds `1..=rm_rounds` are removal
                    // broadcasts, checked against the *pre-batch* slice
                    // (our own mutations apply at the boundary below,
                    // after receiving); later ones are insertions,
                    // checked post-batch.
                    match wire::decode_edges(codec, &m.payload, n) {
                        Ok(edges) => self.convert_candidates(&edges, r > self.rm_rounds),
                        Err(detail) => self.record_protocol_error(m.from, detail),
                    }
                }
            }
        }
        // An inbox is in sender order, so a duplicated chunk sits next
        // to its twin: one answer per child per round.
        answer.dedup();
        for child in answer {
            ctx.send(child, self.child_links[&child].ack())
                .expect("acknowledgements fit the link budget");
        }

        // Phase boundary: the removal broadcasts are all delivered, so
        // the node switches its slice to the post-batch graph. (A
        // repair epoch changes no local state — the batch already
        // applied.)
        if r == self.rm_rounds && !self.repair_mode {
            self.apply_local();
        }
        if r < self.rm_rounds {
            Self::send_wave(ctx, &self.rm_queues, r as usize, per_message);
            return NodeStatus::Active;
        }
        if r < data_end {
            let wave = (r - self.rm_rounds) as usize;
            Self::send_wave(ctx, &self.ins_queues, wave, per_message);
            return NodeStatus::Active;
        }
        if r < broadcast_end {
            self.send_trailer_wave(ctx, (r - data_end) as usize);
            return NodeStatus::Active;
        }
        if self.hardened && r == broadcast_end {
            self.verify_streams();
        }

        // Broadcast phases are over. A repair epoch ends here; a main
        // epoch's node first folds its own observations into the
        // aggregate, then — once every child stream has been absorbed —
        // streams the merged sets to its parent, one in-budget chunk per
        // round. Forest roots keep the result for the coordinator
        // instead.
        if self.repair_mode {
            return NodeStatus::Halted;
        }
        if r == broadcast_end {
            let (dead, born) = self.drain_candidates();
            merge_added_candidates(&mut self.agg_dead, &dead);
            merge_added_candidates(&mut self.agg_born, &born);
        }
        if self.finished.len() < self.child_count {
            if !(self.hardened && r >= self.deadline) {
                return NodeStatus::Active;
            }
            // The backstop: a child stream is still open although the
            // link layer had time to deliver it or give it up many times
            // over. Stop counting the missing children and forward a
            // partial aggregate so the epoch terminates; the coordinator
            // reads every node's aggregates directly on a hardened
            // engine, so nothing verified is lost — only network-side
            // merging.
            self.agg_trouble = true;
            self.child_count = self.finished.len();
        }
        if let Some(parent) = self.parent {
            let hardened = self.hardened;
            let up = self.up_link.get_or_insert_with(|| {
                let stream =
                    wire::serialize_aggregate(codec, &self.agg_dead, &self.agg_born, hardened);
                LinkSender::new(
                    wire::chunk_stream(&stream, bandwidth_bits, hardened),
                    hardened,
                )
            });
            if let Some(chunk) = up.poll(r) {
                ctx.send(parent, chunk)
                    .expect("convergecast chunks fit the link budget");
            }
            if !up.finished() {
                return NodeStatus::Active;
            }
            self.agg_trouble |= up.gave_up();
        }
        // A child whose last acknowledgement was lost will ask again.
        if self.child_links.values().any(|link| link.lingering(r)) {
            return NodeStatus::Active;
        }
        NodeStatus::Halted
    }

    fn finish(&mut self) {}
}

/// Distributed dynamic triangle engine over `congest-sim` epochs.
///
/// Same [`StreamEngine`](crate::StreamEngine) contract as the
/// centralized engines — after any sequence of applied batches the live
/// triangle set equals a from-scratch recount on the engine's own
/// [`AdjacencyView`] — but every batch is executed by the simulated
/// CONGEST network itself, and the engine additionally reports the
/// network cost ([`CongestCost`]) each batch incurred. The module-level
/// documentation in `distributed/mod.rs` walks through the protocol.
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
/// assert_eq!(engine.triangles(), &oracle::list_all_on(&engine));
/// // …and the batch took a handful of network rounds, not a re-run.
/// assert!(engine.last_batch_cost().rounds >= 1);
/// ```
pub struct DistributedTriangleEngine {
    sim: Simulation<DynamicTriangleNode>,
    /// The global triangle set (the coordinator's merge is the only
    /// writer).
    triangles: TriangleSet,
    /// Number of present undirected edges.
    edge_count: usize,
    mode: ApplyMode,
    /// Deferred-mode buffer (concatenated batches + staleness clock).
    pending: PendingBuffer,
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
    /// non-quiet plan hardens the protocol — see [`with_fault_plan`]).
    ///
    /// [`with_fault_plan`]: DistributedTriangleEngine::with_fault_plan
    fault_plan: FaultPlan,
    /// Shadow adjacency of currently-crashed nodes: their in-network
    /// slices go stale while they sit out epochs, so the coordinator
    /// keeps the true list here (advanced every batch) and re-seeds the
    /// node from it when it rejoins.
    offline: BTreeMap<NodeId, Vec<NodeId>>,
    /// Cumulative self-healing statistics (see [`RecoveryStats`]).
    recovery: RecoveryStats,
}

/// Cumulative self-healing statistics of a hardened
/// [`DistributedTriangleEngine`] (all zero on a quiet plan).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Network rounds spent in retransmission (repair) epochs.
    pub retransmit_rounds: u64,
    /// Repair epochs executed.
    pub epoch_repairs: u64,
    /// Epochs that needed any degradation to central recomputation
    /// (crashed nodes, uncovered deltas, or abandoned convergecast
    /// streams) — the batches whose cost accounting is best-effort.
    pub degraded_epochs: u64,
}

/// The coordinator-computed BFS forest of one epoch's union topology:
/// convergecast parents, per-node child counts, and one root per
/// connected component (whose aggregates the coordinator reads).
struct BfsForest {
    parent: Vec<Option<NodeId>>,
    children: Vec<usize>,
    roots: Vec<NodeId>,
    /// Subtree height per node (leaves 0), used to derive per-node
    /// convergecast deadlines on hardened engines.
    height: Vec<u64>,
}

/// One broadcast stream that failed verification at its receiver and
/// awaits retransmission: the removal-phase and insertion-phase edges
/// of one (sender, receiver) pair, re-sent as a single repair stream
/// (removals lead).
#[derive(Default)]
struct PendingStream {
    rm: Vec<Edge>,
    ins: Vec<Edge>,
}

/// Pre- and post-batch neighbour lists of the nodes a batch touches —
/// the endpoints of its effective deltas (hardened engines only). The
/// coordinator's expectation mirror and every central recomputation
/// check membership against these through
/// [`DistributedTriangleEngine::snapshot_list`].
#[derive(Default)]
struct BatchSnapshot {
    pre: BTreeMap<NodeId, Vec<NodeId>>,
    post: BTreeMap<NodeId, Vec<NodeId>>,
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
    /// non-quiet plan **hardens** the protocol (see *Hardened streams*
    /// in the module-level documentation of `distributed/mod.rs`): each
    /// broadcast stream closes
    /// with one length + checksum trailer and receivers buffer-and-verify
    /// instead of trusting deliveries; streams that fail are
    /// retransmitted in accounted repair epochs
    /// ([`CongestCost::recovery_rounds`]); convergecast links are
    /// acknowledged, so a lost chunk costs a round trip rather than a
    /// timeout; and scheduled crash windows degrade to coordinator-side
    /// recomputation with a state sync on rejoin. A quiet plan (the
    /// default) leaves every code path — and every cost metric —
    /// bit-identical to the legacy engine.
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
            self.sim.program_mut(NodeId::from_index(i)).hardened = hardened;
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

    /// The true current neighbour list of `node`: the in-network slice,
    /// or the coordinator's shadow copy while the node is crashed (its
    /// slice goes stale until the rejoin sync).
    fn adjacency_of(&self, node: NodeId) -> &[NodeId] {
        match self.offline.get(&node) {
            Some(list) => list,
            None => &self.sim.program(node).adjacency,
        }
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
        self.adjacency_of(node)
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
    ///   own broadcasts never produce this); the engine should be
    ///   considered unusable afterwards.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<ApplyReport, StreamError> {
        validate_batch(batch, self.node_count())?;
        match self.mode {
            ApplyMode::Eager => self.process_batch(batch),
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
    /// so it panics likewise.
    pub fn flush(&mut self) -> ApplyReport {
        if self.pending.is_empty() {
            return ApplyReport::default();
        }
        let buffered = self.pending.take();
        let mut report = self
            .process_batch(&buffered)
            .unwrap_or_else(|e| panic!("deferred flush failed: {e}"));
        report.deltas_seen = 0;
        report
    }

    /// Whether the live triangle set exactly equals a snapshot-free
    /// from-scratch recount on the engine's own adjacency view.
    pub fn matches_oracle(&self) -> bool {
        self.triangles == congest_graph::triangles::list_all_on(self)
    }

    /// The per-node per-phase broadcast budget, in deltas: `None` under
    /// [`HubSplit::Off`], the mean incident load of the phase's touched
    /// nodes under [`HubSplit::Auto`], the explicit value (clamped to
    /// ≥ 1) under [`HubSplit::Budget`].
    fn phase_budget(&self, lists: &BTreeMap<NodeId, Vec<Edge>>) -> Option<usize> {
        if lists.is_empty() {
            return None;
        }
        match self.hub_split {
            HubSplit::Off => None,
            HubSplit::Auto => {
                let entries: usize = lists.values().map(Vec::len).sum();
                Some(entries.div_ceil(lists.len()).max(1))
            }
            HubSplit::Budget(budget) => Some(budget.max(1)),
        }
    }

    /// Helper-split scheduling for one phase: every node over `budget`
    /// sheds incident deltas — heaviest nodes first, so two adjacent
    /// hubs cannot both drop their shared edge — as long as the delta
    /// keeps its other broadcaster (every delta's third-vertex audience
    /// is adjacent to *both* endpoints, so one broadcaster suffices; see
    /// the module docs). Returns, per node, the deltas it must **not**
    /// broadcast.
    fn plan_broadcasts(
        lists: &BTreeMap<NodeId, Vec<Edge>>,
        budget: Option<usize>,
    ) -> BTreeMap<NodeId, BTreeSet<Edge>> {
        let mut dropped: BTreeMap<NodeId, BTreeSet<Edge>> = BTreeMap::new();
        let Some(budget) = budget else {
            return dropped;
        };
        // Each effective delta starts with both endpoints broadcasting.
        let mut broadcasters: BTreeMap<Edge, usize> = BTreeMap::new();
        for list in lists.values() {
            for e in list {
                *broadcasters.entry(*e).or_insert(0) += 1;
            }
        }
        let mut order: Vec<NodeId> = lists.keys().copied().collect();
        order.sort_by_key(|v| (std::cmp::Reverse(lists[v].len()), v.index()));
        for node in order {
            let mut load = lists[&node].len();
            if load <= budget {
                break; // sorted by decreasing load: nobody left is over
            }
            let mut edges = lists[&node].clone();
            edges.sort_unstable();
            for e in edges {
                if load <= budget {
                    break;
                }
                let count = broadcasters.get_mut(&e).expect("edge was counted");
                if *count > 1 {
                    *count -= 1;
                    dropped.entry(node).or_default().insert(e);
                    load -= 1;
                }
            }
        }
        dropped
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
                    None => self.adjacency_of(u),
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

    /// Drains every online node's per-epoch candidates *and*
    /// convergecast aggregates into the coordinator-side sets. The
    /// merges are exactly-once, so calling this repeatedly (after the
    /// main epoch and after every repair epoch) is harmless. Returns
    /// whether any node latched convergecast trouble.
    fn collect_candidates(
        &mut self,
        crashed: &[bool],
        cand_dead: &mut TriangleSet,
        cand_born: &mut TriangleSet,
    ) -> bool {
        let mut trouble = false;
        for (i, &down) in crashed.iter().enumerate() {
            if down {
                continue;
            }
            let prog = self.sim.program_mut(NodeId::from_index(i));
            trouble |= prog.agg_trouble;
            let (dead, born) = prog.drain_candidates();
            merge_added_candidates(cand_dead, &dead);
            merge_added_candidates(cand_born, &born);
            let (agg_dead, agg_born) = prog.take_aggregates();
            merge_added_candidates(cand_dead, agg_dead.iter());
            merge_added_candidates(cand_born, agg_born.iter());
        }
        trouble
    }

    /// `node`'s neighbour list before (`post == false`) or after the
    /// batch `snapshot` was taken for. Only the batch's own endpoints
    /// were copied; every other node's list is the same on both sides
    /// of the batch and is read live.
    fn snapshot_list<'a>(
        &'a self,
        snapshot: &'a BatchSnapshot,
        node: NodeId,
        post: bool,
    ) -> &'a [NodeId] {
        let touched = if post { &snapshot.post } else { &snapshot.pre };
        match touched.get(&node) {
            Some(list) => list,
            None => self.adjacency_of(node),
        }
    }

    /// Central (coordinator-side) recomputation of one third-vertex
    /// candidate: does `w` close a triangle over delta edge `e`?
    /// Removal candidates check the pre-batch snapshot, insertions the
    /// post-batch one — exactly the membership a healthy receiver
    /// would have tested in-network.
    fn central_candidate(
        &self,
        snapshot: &BatchSnapshot,
        w: NodeId,
        e: Edge,
        ins_phase: bool,
        cand_dead: &mut TriangleSet,
        cand_born: &mut TriangleSet,
    ) {
        if e.contains(w) {
            return;
        }
        let adj = self.snapshot_list(snapshot, w, ins_phase);
        let (u, v) = e.endpoints();
        if adj.binary_search(&u).is_ok() && adj.binary_search(&v).is_ok() {
            let t = Triangle::new(u, v, w);
            if ins_phase {
                merge_added_candidates(cand_born, std::iter::once(&t));
            } else {
                merge_added_candidates(cand_dead, std::iter::once(&t));
            }
        }
    }

    /// Runs one pre-validated batch as a network epoch (see the
    /// [module documentation](self)). A batch that coalesces or
    /// classifies to nothing runs no epoch — the documented floor cost
    /// of zero rounds.
    fn process_batch(&mut self, raw: &DeltaBatch) -> Result<ApplyReport, StreamError> {
        let raw_len = raw.len();
        let coalesced = raw.coalesce();
        let mut report = ApplyReport {
            deltas_seen: raw_len,
            noops: raw_len - coalesced.len(),
            ..ApplyReport::default()
        };

        // Classify against the current graph: only effective deltas
        // enter the network.
        let classify_span = congest_obs::trace::span("distributed", "classify");
        let mut removes: Vec<Edge> = Vec::new();
        let mut inserts: Vec<Edge> = Vec::new();
        for d in &coalesced {
            let (u, v) = d.edge.endpoints();
            let present = self.has_edge(u, v);
            match d.op {
                DeltaOp::Insert if !present => inserts.push(d.edge),
                DeltaOp::Remove if present => removes.push(d.edge),
                _ => report.noops += 1,
            }
        }
        report.inserts_applied = inserts.len();
        report.removes_applied = removes.len();
        drop(classify_span);
        if inserts.is_empty() && removes.is_empty() {
            return Ok(report);
        }
        let plan_span = congest_obs::trace::span("distributed", "plan");

        // Crash bookkeeping (hardened engines only): nodes scheduled as
        // crashed for this epoch leave the protocol entirely — their
        // slices go to the coordinator's shadow, their candidates are
        // recomputed centrally. Nodes whose outage just ended rejoin
        // with a state-sync descriptor built from the shadow.
        let n = self.node_count();
        let hardened = self.hardened();
        let epoch_index = self.sim.epoch();
        let mut crashed = vec![false; n];
        if hardened {
            for (i, flag) in crashed.iter_mut().enumerate() {
                *flag = self.fault_plan.crashed(i, epoch_index);
                if *flag && !self.offline.contains_key(&NodeId::from_index(i)) {
                    let node = NodeId::from_index(i);
                    let list = self.sim.program(node).adjacency.clone();
                    self.offline.insert(node, list);
                }
            }
        }
        let any_crashed = crashed.iter().any(|&c| c);

        // Per-node incident slices, the helper-split broadcast plans,
        // and the global phase lengths: a phase must cover the longest
        // post-split per-node queue, at most
        // ceil(assigned deltas / edges-per-message). Crashed endpoints
        // cannot broadcast; a delta both of whose endpoints are down is
        // uncovered and falls back to central recomputation.
        let codec = IdCodec::new(n as u64);
        let per_message = wire::edges_per_message(self.bandwidth_bits, codec.width());
        let mut rm_slices: BTreeMap<NodeId, Vec<Edge>> = BTreeMap::new();
        let mut ins_slices: BTreeMap<NodeId, Vec<Edge>> = BTreeMap::new();
        for (edges, slices) in [(&removes, &mut rm_slices), (&inserts, &mut ins_slices)] {
            for e in edges.iter() {
                for node in [e.lo(), e.hi()] {
                    slices.entry(node).or_default().push(*e);
                }
            }
        }
        let mut uncovered: Vec<(Edge, bool)> = Vec::new();
        if any_crashed {
            rm_slices.retain(|node, _| !crashed[node.index()]);
            ins_slices.retain(|node, _| !crashed[node.index()]);
            for (edges, ins_phase) in [(&removes, false), (&inserts, true)] {
                for e in edges.iter() {
                    if crashed[e.lo().index()] && crashed[e.hi().index()] {
                        uncovered.push((*e, ins_phase));
                    }
                }
            }
        }
        let rm_dropped = Self::plan_broadcasts(&rm_slices, self.phase_budget(&rm_slices));
        let ins_dropped = Self::plan_broadcasts(&ins_slices, self.phase_budget(&ins_slices));
        let waves = |count: usize| count.div_ceil(per_message) as u64;
        let assigned = |slices: &BTreeMap<NodeId, Vec<Edge>>,
                        dropped: &BTreeMap<NodeId, BTreeSet<Edge>>| {
            slices
                .iter()
                .map(|(node, list)| waves(list.len() - dropped.get(node).map_or(0, BTreeSet::len)))
                .max()
                .unwrap_or(0)
        };
        let rm_rounds = assigned(&rm_slices, &rm_dropped);
        let ins_rounds = assigned(&ins_slices, &ins_dropped);
        // A hardened epoch closes every stream with one trailer, in the
        // rounds right after the insertion data rounds.
        let trailer = if hardened {
            TrailerLayout::for_phases(rm_rounds, ins_rounds, per_message, self.bandwidth_bits)
        } else {
            TrailerLayout::default()
        };
        let broadcast_end = rm_rounds + ins_rounds + trailer.rounds();

        // Pre/post-batch lists of the batch's endpoints (hardened only).
        let mut snapshot = BatchSnapshot::default();
        if hardened {
            for (edges, insert) in [(&removes, false), (&inserts, true)] {
                for e in edges.iter() {
                    for (node, other) in [(e.lo(), e.hi()), (e.hi(), e.lo())] {
                        let pre = snapshot
                            .pre
                            .entry(node)
                            .or_insert_with(|| self.adjacency_of(node).to_vec());
                        let post = snapshot.post.entry(node).or_insert_with(|| pre.clone());
                        if insert {
                            sorted_insert(post, other);
                        } else {
                            sorted_remove(post, other);
                        }
                    }
                }
            }
        }

        // Epoch topology: the union G ∪ G' — a removed link still
        // carries its tear-down broadcast (and its convergecast leg),
        // an inserted link exists as soon as its edge does. Union lists
        // are accumulated per node first so several inserts at one
        // endpoint compose instead of overwriting each other.
        let mut union_lists: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for e in &inserts {
            for (node, other) in [(e.lo(), e.hi()), (e.hi(), e.lo())] {
                let list = union_lists
                    .entry(node)
                    .or_insert_with(|| self.adjacency_of(node).to_vec());
                sorted_insert(list, other);
            }
        }
        // The convergecast forest spans the union topology; computed
        // before the topology mutations below so it can read the
        // pre-batch lists of untouched nodes.
        let forest = self.bfs_forest(&union_lists, &crashed);
        for (node, list) in union_lists {
            self.sim.update_topology(node, list);
        }

        // Per-node convergecast deadlines (hardened engines only),
        // the backstop behind the acknowledged links: a node abandons
        // child streams still open `height·hop` rounds into the
        // aggregation phase, where `hop` bounds the rounds any single
        // subtree stream can need — its chunks at full rate, plus the
        // rounds a link spends before it gives itself up — so a
        // parent's deadline always leaves room for a child that gave up
        // at its own, and fires only on a stream the link layer could
        // not have saved.
        let mut deadlines = vec![0u64; n];
        if hardened {
            let min_degree = |e: &Edge, post: bool| {
                let degree = |v: NodeId| self.snapshot_list(&snapshot, v, post).len();
                degree(e.lo()).min(degree(e.hi())) as u64
            };
            let cand_bound: u64 = removes
                .iter()
                .map(|e| min_degree(e, false))
                .chain(inserts.iter().map(|e| min_degree(e, true)))
                .sum();
            let agg_bits = 2 * COUNT_BITS as u64
                + 3 * codec.width() as u64 * cand_bound
                + CHECKSUM_BITS as u64;
            let per_chunk = wire::chunk_data_bits(self.bandwidth_bits, true) as u64;
            let hop = agg_bits.div_ceil(per_chunk)
                + ACK_TIMEOUT_ROUNDS * (1 + u64::from(MAX_LINK_RESENDS));
            for (deadline, &height) in deadlines.iter_mut().zip(&forest.height) {
                *deadline = broadcast_end + (height + 1) * hop + 2;
            }
        }

        // Rejoining nodes leave the shadow now that their sync list is
        // fixed: from this epoch on their in-network slice is live again.
        let mut sync_lists: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        if hardened {
            let rejoining: Vec<NodeId> = self
                .offline
                .keys()
                .copied()
                .filter(|v| !crashed[v.index()])
                .collect();
            for node in rejoining {
                let list = self.offline.remove(&node).expect("key was just listed");
                sync_lists.insert(node, list);
            }
        }

        // Inject every online node's batch descriptor (all nodes need
        // the phase lengths to know when the epoch ends, even pure
        // detectors — and every node has a convergecast leg to play).
        // Crashed nodes get nothing: they sit the epoch out.
        let empty = Vec::new();
        for i in 0..n {
            if crashed[i] {
                continue;
            }
            let node = NodeId::from_index(i);
            let mut w = BitWriter::new();
            if hardened {
                w.write_bool(false); // kind: batch, not repair
                match sync_lists.get(&node) {
                    Some(list) => {
                        w.write_bool(true);
                        w.write_bits(list.len() as u64, COUNT_BITS);
                        for v in list {
                            codec.encode(&mut w, v.as_u64());
                        }
                    }
                    None => w.write_bool(false),
                }
            }
            w.write_bits(rm_rounds, COUNT_BITS);
            w.write_bits(ins_rounds, COUNT_BITS);
            match forest.parent[i] {
                Some(parent) => {
                    w.write_bool(true);
                    codec.encode(&mut w, parent.as_u64());
                }
                None => w.write_bool(false),
            }
            w.write_bits(forest.children[i] as u64, COUNT_BITS);
            if hardened {
                w.write_bits(deadlines[i], DEADLINE_BITS);
            }
            for (slices, dropped) in [(&rm_slices, &rm_dropped), (&ins_slices, &ins_dropped)] {
                let list = slices.get(&node).unwrap_or(&empty);
                let shed = dropped.get(&node);
                w.write_bits(list.len() as u64, COUNT_BITS);
                for e in list {
                    codec.encode(&mut w, e.lo().as_u64());
                    codec.encode(&mut w, e.hi().as_u64());
                    w.write_bool(!shed.is_some_and(|s| s.contains(e)));
                }
            }
            self.sim.inject(node, w.finish());
        }
        drop(plan_span);

        // The epoch runs as one opaque simulator call; when tracing is
        // on, its wall time is apportioned between the broadcast prefix
        // and the convergecast suffix by their round shares and recorded
        // as two derived spans (see `congest_obs::trace::record_span`).
        // The split is by round *count*, not by time: a per-round host
        // profile of `dist_quiet` (ROADMAP item 2) puts 98.6 % of an
        // epoch's host time in rounds 0–6 and 1.4 % in the 18 later
        // rounds that are nearly all of its convergecast, so the
        // `distributed.convergecast` span says how many rounds the
        // convergecast took, never what it cost the host.
        let trace_on = congest_obs::trace::enabled();
        let epoch_start_us = if trace_on { congest_obs::now_us() } else { 0 };
        let epoch = self.sim.run_epoch();
        if !epoch.completed() {
            return Err(StreamError::RoundLimit {
                rounds: epoch.metrics.rounds,
            });
        }
        let mut faults_dropped = epoch.metrics.dropped_messages;
        let mut faults_corrupted = epoch.metrics.corrupted_messages;
        let mut faults_duplicated = epoch.metrics.duplicated_messages;
        // The broadcast prefix is exactly the data and trailer rounds
        // plus one (the descriptor/boundary round); everything beyond it
        // is the convergecast. Recovery epochs accumulate on top below; the running total
        // follows once the batch is fully settled.
        self.last_batch =
            CongestCost::from_epoch(&epoch.metrics, broadcast_end + 1, trailer.rounds());
        self.epochs += 1;
        if trace_on {
            let wall_us = congest_obs::now_us().saturating_sub(epoch_start_us);
            let total_rounds = self.last_batch.rounds.max(1);
            let broadcast_us =
                wall_us * (total_rounds - self.last_batch.convergecast_rounds) / total_rounds;
            congest_obs::trace::record_span(
                "distributed",
                "broadcast",
                epoch_start_us,
                broadcast_us,
            );
            congest_obs::trace::record_span(
                "distributed",
                "convergecast",
                epoch_start_us + broadcast_us,
                wall_us - broadcast_us,
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
        for (i, &down) in crashed.iter().enumerate() {
            if down {
                continue;
            }
            let node = NodeId::from_index(i);
            if let Some(detail) = &self.sim.program(node).protocol_error {
                return Err(StreamError::Protocol {
                    node,
                    detail: detail.clone(),
                });
            }
        }

        // Coordinator merge through the shared exactly-once dedup core.
        let merge_span = congest_obs::trace::span("distributed", "merge");
        let mut degraded = false;
        if hardened {
            // Hardened merge: collect idempotently from *everything* —
            // every node's direct candidates plus every node's (not
            // just the roots') convergecast aggregates, so a lost
            // convergecast stream costs nothing that the broadcasts
            // verified. The exactly-once merge core makes the overlap
            // harmless.
            let mut cand_dead = TriangleSet::new();
            let mut cand_born = TriangleSet::new();
            degraded |= self.collect_candidates(&crashed, &mut cand_dead, &mut cand_born);
            drop(merge_span);

            // Everything from here on is recovery: central
            // recomputation for crashed and uncovered pieces, and
            // retransmission epochs for broadcast streams that failed
            // verification.
            let recovery_start_us = if trace_on { congest_obs::now_us() } else { 0 };

            // Crashed nodes miss every broadcast: recompute their
            // third-vertex candidates centrally against the snapshots.
            for (i, _) in crashed.iter().enumerate().filter(|(_, c)| **c) {
                let w = NodeId::from_index(i);
                for (edges, ins_phase) in [(&removes, false), (&inserts, true)] {
                    for e in edges.iter() {
                        self.central_candidate(
                            &snapshot,
                            w,
                            *e,
                            ins_phase,
                            &mut cand_dead,
                            &mut cand_born,
                        );
                    }
                }
            }
            // Uncovered deltas (both endpoints down) had no broadcaster
            // at all: recompute for every online third vertex too.
            for &(e, ins_phase) in &uncovered {
                for (i, _) in crashed.iter().enumerate().filter(|(_, c)| !**c) {
                    self.central_candidate(
                        &snapshot,
                        NodeId::from_index(i),
                        e,
                        ins_phase,
                        &mut cand_dead,
                        &mut cand_born,
                    );
                }
            }
            degraded |= any_crashed || !uncovered.is_empty();

            // Expectation mirror: replay `build_queues` for every
            // assigned broadcaster and compare against each online
            // receiver's verified-sender set. A (sender, receiver) pair
            // has one stream an epoch — removals leading — so one that
            // did not verify is pending retransmission as a whole.
            let assign = |slices: &BTreeMap<NodeId, Vec<Edge>>,
                          dropped: &BTreeMap<NodeId, BTreeSet<Edge>>| {
                slices
                    .iter()
                    .map(|(node, list)| {
                        let shed = dropped.get(node);
                        let kept: Vec<Edge> = list
                            .iter()
                            .copied()
                            .filter(|e| !shed.is_some_and(|s| s.contains(e)))
                            .collect();
                        (*node, kept)
                    })
                    .collect::<BTreeMap<NodeId, Vec<Edge>>>()
            };
            let rm_assigned = assign(&rm_slices, &rm_dropped);
            let ins_assigned = assign(&ins_slices, &ins_dropped);
            let mut pending: BTreeMap<(NodeId, NodeId), PendingStream> = BTreeMap::new();
            for (ins_phase, assigned_map) in [(false, &rm_assigned), (true, &ins_assigned)] {
                for (s, edges) in assigned_map {
                    if edges.is_empty() {
                        continue;
                    }
                    for &w in self.snapshot_list(&snapshot, *s, ins_phase) {
                        if crashed[w.index()] {
                            continue; // already recomputed centrally
                        }
                        let q: Vec<Edge> =
                            edges.iter().copied().filter(|e| !e.contains(w)).collect();
                        if q.is_empty() || self.sim.program(w).verified.contains(s) {
                            continue;
                        }
                        let p = pending.entry((*s, w)).or_default();
                        if ins_phase {
                            p.ins = q;
                        } else {
                            p.rm = q;
                        }
                    }
                }
            }

            // Retransmission loop: re-send every pending stream in
            // dedicated repair epochs, accounted as recovery rounds,
            // until everything verified or the attempt budget runs out.
            let mut attempts = 0u32;
            let mut repairs_ran = false;
            while !pending.is_empty() && attempts < MAX_REPAIR_ATTEMPTS {
                attempts += 1;
                let repair_epoch = self.sim.epoch();
                // A pair whose participant is crashed during this repair
                // epoch cannot retransmit — fall back to central
                // recomputation for it (a degradation, not a failure).
                let plan = self.fault_plan;
                pending.retain(|(s, w), p| {
                    if plan.crashed(s.index(), repair_epoch)
                        || plan.crashed(w.index(), repair_epoch)
                    {
                        for (edges, ins_phase) in [(&p.rm, false), (&p.ins, true)] {
                            for e in edges.iter() {
                                self.central_candidate(
                                    &snapshot,
                                    *w,
                                    *e,
                                    ins_phase,
                                    &mut cand_dead,
                                    &mut cand_born,
                                );
                            }
                        }
                        degraded = true;
                        false
                    } else {
                        true
                    }
                });
                if pending.is_empty() {
                    break;
                }
                // A repair epoch is a main epoch without a removal phase
                // of its own: each stream goes out back to back, closed
                // by the same trailer, which carries its removal prefix.
                let mut send_q: BTreeMap<NodeId, Vec<(NodeId, &PendingStream)>> = BTreeMap::new();
                let mut participants: BTreeSet<NodeId> = BTreeSet::new();
                let mut max_edges = 0usize;
                for ((s, w), p) in &pending {
                    max_edges = max_edges.max(p.rm.len() + p.ins.len());
                    send_q.entry(*s).or_default().push((*w, p));
                    participants.extend([*s, *w]);
                }
                let repair_rounds = max_edges.div_ceil(per_message) as u64;
                for node in &participants {
                    let mut w = BitWriter::new();
                    w.write_bool(true); // kind: repair
                    w.write_bits(repair_rounds, COUNT_BITS);
                    let queues = send_q.get(node).map_or(&[] as &[_], Vec::as_slice);
                    w.write_bits(queues.len() as u64, COUNT_BITS);
                    for (to, p) in queues {
                        codec.encode(&mut w, to.as_u64());
                        w.write_bits(p.rm.len() as u64, COUNT_BITS);
                        w.write_bits((p.rm.len() + p.ins.len()) as u64, COUNT_BITS);
                        wire::encode_edges(codec, &mut w, &p.rm);
                        wire::encode_edges(codec, &mut w, &p.ins);
                    }
                    self.sim.inject(*node, w.finish());
                }
                let repair = self.sim.run_epoch();
                if !repair.completed() {
                    return Err(StreamError::RoundLimit {
                        rounds: repair.metrics.rounds,
                    });
                }
                repairs_ran = true;
                faults_dropped += repair.metrics.dropped_messages;
                faults_corrupted += repair.metrics.corrupted_messages;
                faults_duplicated += repair.metrics.duplicated_messages;
                self.last_batch.add_recovery_epoch(&repair.metrics);
                self.recovery.epoch_repairs += 1;
                self.recovery.retransmit_rounds += repair.metrics.rounds;
                self.collect_candidates(&crashed, &mut cand_dead, &mut cand_born);
                pending.retain(|(s, w), _| !self.sim.program(*w).verified.contains(s));
            }
            if !pending.is_empty() {
                return Err(StreamError::RecoveryExhausted {
                    attempts,
                    pending: pending.len(),
                });
            }

            if degraded {
                self.recovery.degraded_epochs += 1;
            }
            report.triangles_removed +=
                merge_removed_candidates(&mut self.triangles, cand_dead.iter());
            report.triangles_added += merge_added_candidates(&mut self.triangles, cand_born.iter());

            if trace_on && (repairs_ran || degraded) {
                let dur = congest_obs::now_us().saturating_sub(recovery_start_us);
                congest_obs::trace::record_span("distributed", "recovery", recovery_start_us, dur);
            }
            congest_obs::counter_add("faults.dropped", faults_dropped);
            congest_obs::counter_add("faults.corrupted", faults_corrupted);
            congest_obs::counter_add("faults.duplicated", faults_duplicated);
            congest_obs::gauge_set(
                "recovery.retransmit_rounds",
                self.recovery.retransmit_rounds as f64,
            );
            congest_obs::gauge_set("recovery.epoch_repairs", self.recovery.epoch_repairs as f64);
            congest_obs::gauge_set(
                "recovery.degraded_epochs",
                self.recovery.degraded_epochs as f64,
            );
        } else {
            // The network already aggregated each component's
            // candidates at its root over accounted rounds; the
            // coordinator only reads the roots.
            for &root in &forest.roots {
                let (dead, born) = self.sim.program_mut(root).take_aggregates();
                report.triangles_removed +=
                    merge_removed_candidates(&mut self.triangles, dead.iter());
                report.triangles_added += merge_added_candidates(&mut self.triangles, born.iter());
            }
            drop(merge_span);
        }

        // Advance the shadow slices of still-crashed nodes to the
        // post-batch graph — the truth the rejoin sync (and the engine's
        // own adjacency view) will be read from.
        for (node, list) in self.offline.iter_mut() {
            if let Some(post) = snapshot.post.get(node) {
                list.clone_from(post);
            }
        }

        // Settle the communication topology on G' (drop removed links),
        // once per distinct endpoint — a hub shedding many edges in one
        // batch gets a single O(degree) clone, not one per edge.
        let removed_endpoints: BTreeSet<NodeId> =
            removes.iter().flat_map(|e| [e.lo(), e.hi()]).collect();
        for node in removed_endpoints {
            let list = self.adjacency_of(node).to_vec();
            self.sim.update_topology(node, list);
        }

        self.edge_count += inserts.len();
        self.edge_count -= removes.len();
        self.total.accumulate(&self.last_batch);
        debug_assert_eq!(
            (0..n)
                .map(|i| self.degree(NodeId::from_index(i)))
                .sum::<usize>(),
            2 * self.edge_count,
            "node slices lost symmetry"
        );
        Ok(report)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::TriangleIndex;
    use congest_graph::generators::{Classic, Gnp};
    use congest_graph::triangles as oracle;

    fn v(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn empty_engine_counts_nothing() {
        let engine = DistributedTriangleEngine::new(5);
        assert_eq!(engine.node_count(), 5);
        assert_eq!(engine.edge_count(), 0);
        assert_eq!(engine.triangle_count(), 0);
        assert_eq!(engine.epochs(), 0);
        assert!(engine.matches_oracle());
    }

    #[test]
    fn inserting_a_triangle_step_by_step() {
        let mut engine = DistributedTriangleEngine::new(4);
        let mut b = DeltaBatch::new();
        b.insert(v(0), v(1)).insert(v(1), v(2));
        let r = engine.apply(&b).unwrap();
        assert_eq!(r.inserts_applied, 2);
        assert_eq!(r.triangles_added, 0);

        let mut close = DeltaBatch::new();
        close.insert(v(0), v(2));
        let r = engine.apply(&close).unwrap();
        assert_eq!(r.triangles_added, 1);
        assert_eq!(engine.triangle_count(), 1);
        assert!(engine
            .triangles()
            .contains(&Triangle::new(v(0), v(1), v(2))));
        assert!(engine.matches_oracle());
        assert_eq!(engine.epochs(), 2);
        assert!(engine.last_batch_cost().rounds >= 2);
        assert!(engine.total_cost().messages >= engine.last_batch_cost().messages);
    }

    #[test]
    fn one_batch_inserting_a_whole_triangle_counts_it_once() {
        let mut engine = DistributedTriangleEngine::new(4);
        let mut b = DeltaBatch::new();
        b.insert(v(0), v(1)).insert(v(1), v(2)).insert(v(0), v(2));
        let r = engine.apply(&b).unwrap();
        assert_eq!(r.triangles_added, 1);
        assert_eq!(engine.triangle_count(), 1);
        assert!(engine.matches_oracle());
    }

    #[test]
    fn one_batch_removing_two_edges_of_a_triangle_counts_it_once() {
        let k4 = Classic::Complete(4).generate();
        let mut engine = DistributedTriangleEngine::from_graph(&k4);
        assert_eq!(engine.triangle_count(), 4);
        let mut b = DeltaBatch::new();
        b.remove(v(0), v(1)).remove(v(1), v(2));
        let r = engine.apply(&b).unwrap();
        // {0,1,2} dies by two of its edges but is counted once;
        // {0,1,3} and {1,2,3} die by one edge each.
        assert_eq!(r.triangles_removed, 3);
        assert_eq!(engine.triangle_count(), 1);
        assert!(engine.matches_oracle());
    }

    #[test]
    fn mixed_insert_and_remove_batch_matches_oracle() {
        // Removing a wing while inserting the closing edge: the insert
        // must not report a triangle whose wing died in the same batch.
        let mut engine = DistributedTriangleEngine::new(4);
        let mut base = DeltaBatch::new();
        base.insert(v(0), v(1)).insert(v(1), v(2));
        engine.apply(&base).unwrap();
        let mut b = DeltaBatch::new();
        b.remove(v(1), v(2)).insert(v(0), v(2));
        let r = engine.apply(&b).unwrap();
        assert_eq!(r.triangles_added, 0);
        assert_eq!(r.triangles_removed, 0);
        assert_eq!(engine.triangle_count(), 0);
        assert!(engine.matches_oracle());
    }

    #[test]
    fn from_graph_seeds_edges_and_triangles() {
        let g = Gnp::new(40, 0.2).seeded(9).generate();
        let engine = DistributedTriangleEngine::from_graph(&g);
        assert_eq!(engine.edge_count(), g.edge_count());
        assert_eq!(engine.triangles(), &oracle::list_all(&g));
        for node in g.nodes() {
            assert_eq!(engine.neighbors(node), g.neighbors(node));
        }
    }

    #[test]
    fn out_of_range_batch_is_rejected_atomically() {
        let mut engine = DistributedTriangleEngine::new(3);
        let mut b = DeltaBatch::new();
        b.insert(v(0), v(1)).insert(v(0), v(7));
        let err = engine.apply(&b).unwrap_err();
        assert_eq!(
            err,
            StreamError::NodeOutOfRange {
                node: v(7),
                node_count: 3
            }
        );
        assert_eq!(engine.edge_count(), 0);
        assert_eq!(engine.epochs(), 0);
    }

    #[test]
    fn noop_batches_run_no_epoch() {
        let mut engine = DistributedTriangleEngine::new(4);
        let mut b = DeltaBatch::new();
        b.remove(v(0), v(1)); // absent edge
        let r = engine.apply(&b).unwrap();
        assert_eq!(r.noops, 1);
        assert_eq!(engine.epochs(), 0);
        assert_eq!(engine.last_batch_cost(), CongestCost::default());

        // A flap coalesces away entirely: still no epoch.
        let mut flap = DeltaBatch::new();
        flap.insert(v(0), v(1)).remove(v(0), v(1));
        let r = engine.apply(&flap).unwrap();
        assert_eq!(r.noops, 2);
        assert_eq!(engine.epochs(), 0);
    }

    #[test]
    fn deferred_mode_buffers_until_flush() {
        let mut engine = DistributedTriangleEngine::new(3).with_mode(ApplyMode::Deferred);
        assert_eq!(engine.mode(), ApplyMode::Deferred);
        let mut b = DeltaBatch::new();
        b.insert(v(0), v(1)).insert(v(1), v(2)).insert(v(0), v(2));
        let r = engine.apply(&b).unwrap();
        assert_eq!(r.deltas_deferred, 3);
        assert_eq!(engine.triangle_count(), 0);
        assert_eq!(engine.pending_deltas(), 3);
        assert!(engine.pending_age().is_some());

        let r = engine.flush();
        assert_eq!(r.deltas_seen, 0);
        assert_eq!(r.inserts_applied, 3);
        assert_eq!(r.triangles_added, 1);
        assert_eq!(engine.pending_deltas(), 0);
        assert!(engine.pending_age().is_none());
        assert!(engine.matches_oracle());
        // The whole deferred window cost one epoch.
        assert_eq!(engine.epochs(), 1);
    }

    #[test]
    fn switching_modes_flushes_pending_deltas_in_order() {
        let mut engine = DistributedTriangleEngine::new(2).with_mode(ApplyMode::Deferred);
        let mut ins = DeltaBatch::new();
        ins.insert(v(0), v(1));
        engine.apply(&ins).unwrap();
        let engine = engine.with_mode(ApplyMode::Eager);
        assert_eq!(engine.pending_deltas(), 0);
        assert!(engine.has_edge(v(0), v(1)));
    }

    #[test]
    fn agrees_with_the_single_threaded_index_on_a_stream() {
        let g = Gnp::new(60, 0.12).seeded(11).generate();
        let mut reference = TriangleIndex::from_graph(&g);
        let mut engine = DistributedTriangleEngine::from_graph(&g);
        for step in 0..15u32 {
            let mut b = DeltaBatch::new();
            for j in 0..10u32 {
                let a = (step * 7 + j * 13) % 60;
                let c = (step * 11 + j * 17 + 1) % 60;
                if a != c {
                    if (step + j) % 3 == 0 {
                        b.remove(v(a), v(c));
                    } else {
                        b.insert(v(a), v(c));
                    }
                }
            }
            reference.apply(&b).unwrap();
            engine.apply(&b).unwrap();
            assert_eq!(reference.triangles(), engine.triangles(), "step {step}");
            assert_eq!(reference.edge_count(), engine.edge_count());
        }
        assert!(engine.matches_oracle());
        assert!(engine.total_cost().rounds > 0);
        assert!(engine.total_cost().bits > 0);
    }

    #[test]
    fn wider_bandwidth_packs_more_edges_and_saves_rounds() {
        // The same hub-heavy batch under 1-edge and 8-edge messages: the
        // narrow network needs more rounds for the same information.
        let run = |bandwidth: Bandwidth| {
            let mut engine = DistributedTriangleEngine::with_bandwidth(32, bandwidth);
            let mut base = DeltaBatch::new();
            for i in 1..16 {
                base.insert(v(0), v(i)); // hub
            }
            engine.apply(&base).unwrap();
            let mut b = DeltaBatch::new();
            for i in 1..9 {
                b.remove(v(0), v(i));
            }
            engine.apply(&b).unwrap();
            assert!(engine.matches_oracle());
            engine.last_batch_cost()
        };
        let narrow = run(Bandwidth::default());
        let wide = run(Bandwidth::Bits(16 * 10));
        assert!(
            narrow.rounds > wide.rounds,
            "narrow {narrow:?} should need more rounds than wide {wide:?}"
        );
        assert!(narrow.bits >= wide.bits);
    }

    #[test]
    fn static_drivers_run_on_the_live_distributed_graph() {
        // Snapshot-free interop: the Theorem-style oracle runs directly
        // on the engine's AdjacencyView.
        let g = Gnp::new(30, 0.2).seeded(12).generate();
        let mut engine = DistributedTriangleEngine::from_graph(&g);
        let mut b = DeltaBatch::new();
        b.insert(v(0), v(1)).insert(v(1), v(2)).insert(v(0), v(2));
        engine.apply(&b).unwrap();
        let view: &dyn AdjacencyView = &engine;
        assert_eq!(view.node_count(), 30);
        assert_eq!(oracle::count_all_on(&engine), engine.triangle_count());
    }

    #[test]
    fn debug_summarizes() {
        let engine = DistributedTriangleEngine::new(6);
        let s = format!("{engine:?}");
        assert!(s.contains("n=6"));
        assert!(s.contains("epochs=0"));
    }

    #[test]
    fn engine_and_its_simulation_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Simulation<DynamicTriangleNode>>();
        assert_send::<DistributedTriangleEngine>();
    }

    #[test]
    #[should_panic(expected = "cannot carry one edge")]
    fn sub_edge_bandwidth_is_rejected_at_construction() {
        // 8 bits cannot carry two 10-bit ids for n = 1000; the engine
        // must refuse up front instead of panicking mid-epoch.
        let _ = DistributedTriangleEngine::with_bandwidth(1000, Bandwidth::Bits(8));
    }

    #[test]
    #[should_panic(expected = "deferred flush failed: epoch hit the round cap after 1 rounds")]
    fn deferred_flush_panics_with_the_error_it_cannot_return() {
        let mut engine = DistributedTriangleEngine::new(20)
            .with_mode(ApplyMode::Deferred)
            .with_max_rounds(1);
        let mut b = DeltaBatch::new();
        for i in 0..10 {
            b.insert(v(i), v(i + 1));
        }
        engine.apply(&b).unwrap();
        engine.flush();
    }

    #[test]
    fn minimum_viable_bandwidth_is_accepted_and_works() {
        // Exactly one edge per message (2 × 10 bits for n = 1000).
        let mut engine = DistributedTriangleEngine::with_bandwidth(1000, Bandwidth::Bits(20));
        let mut b = DeltaBatch::new();
        b.insert(v(0), v(1)).insert(v(1), v(2)).insert(v(0), v(2));
        engine.apply(&b).unwrap();
        assert_eq!(engine.triangle_count(), 1);
        assert!(engine.matches_oracle());
    }

    /// A star around node 0 with a rim, so hub removals retire real
    /// triangles: the canonical hotspot input.
    fn hub_star(spokes: u32) -> (Graph, DeltaBatch) {
        let mut b = congest_graph::GraphBuilder::new(spokes as usize + 1);
        for i in 1..=spokes {
            b.add_edge(v(0), v(i)).unwrap();
        }
        for i in 1..spokes {
            b.add_edge(v(i), v(i + 1)).unwrap();
        }
        let mut tear = DeltaBatch::new();
        for i in 1..=spokes {
            tear.remove(v(0), v(i));
        }
        (b.build(), tear)
    }

    #[test]
    fn hub_split_flattens_hotspot_epochs() {
        // One hub with 24 incident removals, every helper with 1: the
        // split schedule must cost a small fraction of the unsplit one
        // while retiring the identical triangles. The broadcast prefix
        // (rounds less the convergecast) is what the split schedules;
        // the constants were pinned against a merge-free epoch of the
        // same batch.
        let (graph, tear) = hub_star(24);
        let run = |split: HubSplit| {
            let mut engine = DistributedTriangleEngine::from_graph(&graph).with_hub_split(split);
            assert_eq!(engine.hub_split(), split);
            let report = engine.apply(&tear).unwrap();
            assert!(engine.matches_oracle());
            let cost = engine.last_batch_cost();
            assert!(cost.convergecast_rounds > 0, "{split:?}");
            let prefix = cost.rounds - cost.convergecast_rounds;
            (report, prefix, engine.triangles().clone())
        };
        let (unsplit_report, unsplit_prefix, unsplit_set) = run(HubSplit::Off);
        let (split_report, split_prefix, split_set) = run(HubSplit::Auto);
        assert_eq!(unsplit_report, split_report);
        assert_eq!(unsplit_set, split_set);
        // 24 hub deltas vs an average-load budget of 2: the unsplit
        // phase is hub-bound, the split one near-flat.
        assert_eq!((unsplit_prefix, split_prefix), (25, 3));
        // Forcing the budget to 1 flattens as far as coverage allows.
        let (forced_report, forced_prefix, forced_set) = run(HubSplit::Budget(1));
        assert_eq!(forced_report, split_report);
        assert_eq!(forced_set, split_set);
        assert_eq!(forced_prefix, 2);
    }

    #[test]
    fn convergecast_accounts_the_merge_and_changes_no_results() {
        let g = Gnp::new(40, 0.15).seeded(7).generate();
        let mut reference = TriangleIndex::from_graph(&g);
        let mut conv = DistributedTriangleEngine::from_graph(&g);
        for step in 0..6u32 {
            let mut b = DeltaBatch::new();
            for j in 0..9u32 {
                let a = (step * 5 + j * 7) % 40;
                let c = (step * 11 + j * 3 + 1) % 40;
                if a != c {
                    if (step + j) % 3 == 0 {
                        b.remove(v(a), v(c));
                    } else {
                        b.insert(v(a), v(c));
                    }
                }
            }
            let rr = reference.apply(&b).unwrap();
            let rc = conv.apply(&b).unwrap();
            assert_eq!(rr, rc, "step {step}: the merge must not change reports");
            assert_eq!(reference.triangles(), conv.triangles(), "step {step}");
            // The convergecast pays real rounds for the merge.
            assert!(
                conv.last_batch_cost().convergecast_rounds > 0,
                "step {step}"
            );
        }
        assert!(conv.matches_oracle());
        assert!(conv.total_cost().convergecast_rounds > 0);
    }

    #[test]
    fn fully_cancelling_batches_cost_the_zero_round_floor() {
        // A triangle {0,1,2} plus two spare nodes.
        let mut b = congest_graph::GraphBuilder::new(5);
        b.add_edge(v(0), v(1)).unwrap();
        b.add_edge(v(1), v(2)).unwrap();
        b.add_edge(v(0), v(2)).unwrap();
        let base = b.build();
        let mut engine = DistributedTriangleEngine::from_graph(&base);
        // One real batch first, so the floor demonstrably does not
        // reset earlier accounting.
        let mut real = DeltaBatch::new();
        real.insert(v(2), v(3));
        engine.apply(&real).unwrap();
        let epochs_before = engine.epochs();
        let cost_before = engine.total_cost();
        let last_before = engine.last_batch_cost();
        assert!(cost_before.rounds > 0);

        // insert+remove of an absent edge: the insert coalesces
        // away and the surviving remove classifies as a no-op —
        // zero effective deltas, zero-length broadcast phases.
        let mut cancel_absent = DeltaBatch::new();
        cancel_absent.insert(v(3), v(4)).remove(v(3), v(4));
        // remove+insert of a present edge: the remove coalesces
        // away and the surviving insert is already present.
        let mut cancel_present = DeltaBatch::new();
        cancel_present.remove(v(0), v(1)).insert(v(0), v(1));

        for (name, batch) in [("absent", &cancel_absent), ("present", &cancel_present)] {
            let r = engine.apply(batch).unwrap();
            let ctx = format!("{name} flap");
            assert_eq!(r.noops, 2, "{ctx}");
            assert_eq!(r.inserts_applied + r.removes_applied, 0, "{ctx}");
            assert_eq!(r.triangles_added + r.triangles_removed, 0, "{ctx}");
            // The documented floor: no epoch runs at all.
            assert_eq!(engine.epochs(), epochs_before, "{ctx}");
            assert_eq!(engine.total_cost(), cost_before, "{ctx}");
            assert_eq!(engine.last_batch_cost(), last_before, "{ctx}");
        }
        assert!(engine.matches_oracle());
        assert_eq!(engine.triangle_count(), 1);
    }

    #[test]
    fn corrupt_injected_payload_surfaces_a_protocol_error() {
        // A truncated out-of-band payload lands in a node's round-0
        // inbox next to the real descriptor: the node must latch a
        // protocol error (instead of silently truncating ids) and the
        // coordinator must surface it from apply.
        let mut engine = DistributedTriangleEngine::new(8);
        let mut w = BitWriter::new();
        w.write_bits(3, 7); // far too short for a descriptor
        engine.sim.inject(v(2), w.finish());
        let mut b = DeltaBatch::new();
        b.insert(v(0), v(1));
        let err = engine.apply(&b).unwrap_err();
        match err {
            StreamError::Protocol { node, detail } => {
                assert_eq!(node, v(2));
                assert!(detail.contains("descriptor"), "detail: {detail}");
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_degenerate_and_truncated_payloads() {
        let codec = IdCodec::new(8);
        // Degenerate edge {3, 3}.
        let mut w = BitWriter::new();
        codec.encode(&mut w, 3);
        codec.encode(&mut w, 3);
        let err = wire::decode_edges(codec, &w.finish(), 8).unwrap_err();
        assert!(err.contains("degenerate edge"), "err: {err}");
        // Trailing bits that are not a whole edge.
        let mut w = BitWriter::new();
        codec.encode(&mut w, 1);
        codec.encode(&mut w, 2);
        w.write_bits(0, 3);
        let err = wire::decode_edges(codec, &w.finish(), 8).unwrap_err();
        assert!(err.contains("trailing"), "err: {err}");
        // An id decoded against a wider domain than the network size.
        let wide = IdCodec::new(16);
        let mut w = BitWriter::new();
        wide.encode(&mut w, 12);
        wide.encode(&mut w, 1);
        let err = wire::decode_edges(wide, &w.finish(), 8).unwrap_err();
        assert!(err.contains("out of range"), "err: {err}");
    }

    #[test]
    fn aggregate_streams_round_trip_through_chunking() {
        let codec = IdCodec::new(64);
        let mut dead = TriangleSet::new();
        dead.insert(Triangle::new(v(0), v(1), v(2)));
        dead.insert(Triangle::new(v(3), v(10), v(40)));
        let mut born = TriangleSet::new();
        born.insert(Triangle::new(v(5), v(6), v(63)));
        let stream = wire::serialize_aggregate(codec, &dead, &born, false);
        // Chunk to a tiny budget and reassemble, exactly as a parent
        // node does.
        for bandwidth in [13usize, 20, 4096] {
            let chunks = wire::chunk_stream(&stream, bandwidth, false);
            let mut rebuilt = BitWriter::new();
            let mut finished = false;
            for chunk in &chunks {
                assert!(chunk.bit_len() <= bandwidth, "chunk over budget");
                assert!(!finished, "no chunks after the final one");
                let mut r = BitReader::new(chunk);
                finished = !r.read_bool().unwrap();
                rebuilt.append(&mut r, chunk.bit_len() - 1).unwrap();
            }
            assert!(finished);
            let (d, b) =
                wire::decode_aggregate(codec, 64, &rebuilt.finish(), false).expect("round trip");
            assert_eq!(d, dead.iter().copied().collect::<Vec<_>>());
            assert_eq!(b, born.iter().copied().collect::<Vec<_>>());
        }
        // The empty aggregate is a single flag-only chunk.
        let empty =
            wire::serialize_aggregate(codec, &TriangleSet::new(), &TriangleSet::new(), false);
        assert_eq!(empty.bit_len(), 0);
        let chunks = wire::chunk_stream(&empty, 16, false);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].bit_len(), 1);
        let (d, b) = wire::decode_aggregate(codec, 64, &empty, false).unwrap();
        assert!(d.is_empty() && b.is_empty());
    }

    #[test]
    fn a_final_chunk_delivered_twice_is_still_one_child() {
        let codec = IdCodec::new(8);
        for hardened in [false, true] {
            let mut parent = DynamicTriangleNode::new(v(0), vec![v(1), v(2)]);
            parent.hardened = hardened;
            parent.child_count = 2;
            let final_chunk = |from: u32| ReceivedMessage {
                from: v(from),
                payload: wire::chunk_stream(&Payload::new(), 8, hardened)
                    .pop_front()
                    .expect("chunking never yields zero chunks"),
            };
            // Child 1's only chunk arrives twice (a duplicating link).
            assert_eq!(parent.receive_chunk(codec, 8, 1, &final_chunk(1)), hardened);
            assert_eq!(parent.receive_chunk(codec, 8, 1, &final_chunk(1)), hardened);
            assert!(
                parent.finished.len() < parent.child_count,
                "hardened={hardened}: the parent must keep waiting for child 2"
            );
            parent.receive_chunk(codec, 8, 2, &final_chunk(2));
            assert_eq!(parent.finished.len(), parent.child_count);
            assert!(parent.protocol_error.is_none() && !parent.agg_trouble);
        }
    }

    #[test]
    #[should_panic(expected = "a hardened engine needs at least 4 bits")]
    fn hardening_a_sub_chunk_bandwidth_is_rejected() {
        // 2 bits carry one edge of n = 2 but not a sequenced chunk.
        let _ = DistributedTriangleEngine::with_bandwidth(2, Bandwidth::Bits(2))
            .with_fault_plan(FaultPlan::default().with_drop(0.01));
    }

    #[test]
    fn split_and_convergecast_runs_repeat_bit_for_bit() {
        let g = Gnp::new(16, 0.25).seeded(33).generate();
        let build =
            || DistributedTriangleEngine::from_graph(&g).with_hub_split(HubSplit::Budget(1));
        let mut first = build();
        let mut second = build();
        for step in 0..4u32 {
            let mut b = DeltaBatch::new();
            for j in 0..8u32 {
                let a = (step * 3 + j * 5) % 16;
                let c = (step * 7 + j * 11 + 1) % 16;
                if a != c {
                    if (step + j) % 3 == 0 {
                        b.remove(v(a), v(c));
                    } else {
                        b.insert(v(a), v(c));
                    }
                }
            }
            let ra = first.apply(&b).unwrap();
            let rb = second.apply(&b).unwrap();
            assert_eq!(ra, rb, "step {step}");
            assert_eq!(first.triangles(), second.triangles(), "step {step}");
            assert_eq!(
                first.last_batch_cost(),
                second.last_batch_cost(),
                "step {step}"
            );
        }
        assert!(first.matches_oracle() && second.matches_oracle());
        assert_eq!(first.total_cost(), second.total_cost());
        assert!(first.total_cost().convergecast_rounds > 0);
    }

    #[test]
    fn debug_names_the_scheduling_and_aggregation_modes() {
        let engine = DistributedTriangleEngine::new(4).with_hub_split(HubSplit::Off);
        let s = format!("{engine:?}");
        assert!(s.contains("split=off"));
        assert_eq!(HubSplit::Auto.name(), "auto");
        assert_eq!(HubSplit::Budget(3).name(), "budget");
        assert_eq!(HubSplit::default(), HubSplit::Auto);
    }
}
