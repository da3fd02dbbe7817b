//! One network node's program: it owns its adjacency slice `N(v)` and
//! each epoch runs the two broadcast phases and its leg of the
//! convergecast (see the [protocol](super::DistributedTriangleEngine)).
//! On a hardened engine it also buffers and verifies broadcast streams,
//! acknowledges convergecast chunks and re-sends the streams a repair
//! descriptor names (see [`recovery`](super::recovery) and
//! [`link`](super::link)).

use congest_graph::{Edge, NodeId, Triangle, TriangleSet};
use congest_sim::{NodeProgram, NodeStatus, ReceivedMessage, RoundContext};
use congest_wire::{BitWriter, IdCodec, Payload};

use super::link::{LinkReceiver, LinkSender, Receipt};
use super::wire::{self, Descriptor, ReceivedBatch, StreamBuf, TrailerLayout};
use crate::shard::{dedup_candidates, sorted_insert, sorted_remove};

/// One network node's program. Its per-epoch state is reset when the
/// next descriptor loads (see `load_descriptor`), so a node with nothing
/// to broadcast, observe or forward allocates and frees nothing from one
/// epoch to the next.
#[derive(Default)]
pub(super) struct DynamicTriangleNode {
    id: NodeId,
    /// This node's slice of the graph: its sorted neighbour list. The
    /// engine's [`AdjacencyView`](congest_graph::AdjacencyView) reads
    /// these slices directly — the node programs *are* the graph
    /// storage. It is a `Vec` of the node's own rather than a slot in
    /// one [`NeighborArena`](crate::NeighborArena) shared by all nodes,
    /// because `on_round` may touch only its own node's state — every
    /// node edits its list at its own phase boundary, inside a round in
    /// which other nodes still read theirs — and `congest-sim`'s
    /// shuffled-visit tests hold every program to that.
    pub(super) adjacency: Vec<NodeId>,
    /// This epoch's [`BatchDescriptor`](wire::BatchDescriptor) as
    /// decoded; its incident deltas apply locally at the phase boundary.
    /// A repair descriptor sets only `ins_rounds`; the sync list is taken
    /// out on commit.
    epoch: ReceivedBatch,
    /// Per-neighbour broadcast queues, chunked to `edges_per_message`
    /// when sent. Only a node with deltas to broadcast builds any. In a
    /// repair epoch `ins_queues` holds the whole streams to re-send,
    /// removals leading.
    pub(super) rm_queues: Queues,
    pub(super) ins_queues: Queues,
    /// Candidate triangle deltas observed this epoch, unsorted and with
    /// repeats; moved into the convergecast aggregate at the start of
    /// the aggregation phase (a repair epoch leaves them for the
    /// hardened coordinator to drain).
    dead: Vec<Triangle>,
    born: Vec<Triangle>,
    /// How many children's streams have ended. A child is counted once,
    /// when its [`ChildLink`]'s `finished` flag is first set — a final
    /// chunk that arrives twice is still one child.
    finished: usize,
    /// The receiving end of each child's convergecast link, sorted by
    /// child. A child's entry is made when its first chunk arrives; an
    /// inbox is in sender order, so within a round they are made in
    /// ascending order.
    child_links: Vec<ChildLink>,
    /// The dedup-merged candidate aggregates — own observations plus
    /// every finished child stream — as sorted, duplicate-free runs,
    /// serialized upward in that order: the `shard.rs` merge core keeps
    /// each triangle exactly once, which is also what bounds the bits
    /// forwarded upward.
    agg_dead: Vec<Triangle>,
    agg_born: Vec<Triangle>,
    /// The sending end of the link to the parent, holding the serialized
    /// aggregate and cutting each chunk from it when it is sent (`None`
    /// until the node starts sending, and on a forest root).
    up_link: Option<LinkSender>,
    /// First protocol violation observed this epoch (corrupt payload);
    /// surfaced by the coordinator as
    /// [`StreamError::Protocol`](crate::StreamError::Protocol).
    pub(super) protocol_error: Option<String>,
    /// What only a node of a hardened engine keeps; `None` — never
    /// allocated — under a quiet plan, which leaves every path below
    /// bit-identical to the legacy protocol.
    hardened: Option<Box<HardenedNode>>,
}

/// One phase's broadcast queues: every queued edge beside its receiving
/// neighbour, receivers ascending — so each receiver's queue is one run
/// — and a receiver's edges in batch order. One allocation a phase,
/// whatever the degree.
pub(super) type Queues = Vec<(NodeId, Edge)>;

/// Each receiver of `queues` with its run.
pub(super) fn runs(queues: &[(NodeId, Edge)]) -> impl Iterator<Item = (NodeId, &[(NodeId, Edge)])> {
    queues
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| (run[0].0, run))
}

/// The edges of a run of queue entries.
pub(super) fn edges(run: &[(NodeId, Edge)]) -> impl Iterator<Item = Edge> + '_ {
    run.iter().map(|&(_, e)| e)
}

/// Queues for the flagged `deltas` over the given neighbour list, each
/// skipping the delta's other endpoint (it already knows).
fn build_queues(neighbors: &[NodeId], deltas: &[(Edge, bool)]) -> Queues {
    let flagged = deltas.iter().filter(|&&(_, bcast)| bcast).count();
    if flagged == 0 {
        return Queues::new();
    }
    let mut queues = Queues::with_capacity(neighbors.len() * flagged);
    for &nb in neighbors {
        queues.extend(
            deltas
                .iter()
                .filter(|&&(e, bcast)| bcast && !e.contains(nb))
                .map(|&(e, _)| (nb, e)),
        );
    }
    queues
}

/// One child's convergecast link, as its parent keeps it.
struct ChildLink {
    child: NodeId,
    link: LinkReceiver,
    /// Whether the child's stream has been counted as ended: complete,
    /// or (quiet engines) given up on as garbled.
    finished: bool,
}

/// The state only a hardened node keeps: broadcast streams close with a
/// self-checking trailer, receivers buffer and verify instead of
/// trusting deliveries, convergecast links are acknowledged and the
/// node understands repair descriptors. Everything but the pre-batch
/// snapshot is per epoch.
#[derive(Default)]
struct HardenedNode {
    /// Snapshot of the pre-batch slice, kept so removal streams verified
    /// after the phase boundary (and retransmitted ones) can still be
    /// checked against the graph they refer to. Taken only by a node
    /// the batch touches; `None` means the live slice is the pre-batch
    /// slice. Survives repair epochs, which verify against it.
    pre_adjacency: Option<Vec<NodeId>>,
    /// Layout of this epoch's stream trailers.
    trailer: TrailerLayout,
    /// The pre-built trailer of each stream this node sends this epoch,
    /// by receiving neighbour.
    trailers: Vec<(NodeId, Payload)>,
    /// Buffered incoming broadcast streams, sorted by sender (an inbox
    /// is in sender order, so a round's new senders arrive ascending).
    stream_bufs: Vec<(NodeId, StreamBuf)>,
    /// Senders whose stream verified this epoch, ascending (the
    /// coordinator reads this to find the streams that did not).
    verified: Vec<NodeId>,
    /// Latched when a convergecast stream was rejected, a link was
    /// given up or the deadline fired — the epoch then counts as
    /// degraded.
    agg_trouble: bool,
    /// Whether this is a repair epoch (repair descriptor): a pure
    /// re-broadcast of the scheduled streams, no local apply, no
    /// aggregation.
    repair_mode: bool,
}

impl HardenedNode {
    /// Resets the per-epoch state (see `load_descriptor`); the pre-batch
    /// snapshot stays.
    fn reset(&mut self) {
        self.trailer = TrailerLayout::default();
        self.trailers = Vec::new();
        self.stream_bufs.clear();
        self.verified.clear();
        self.agg_trouble = false;
        self.repair_mode = false;
    }
}

/// Appends to `out` the triangle `{u, v, id}` of every delivered edge
/// `{u, v}` whose endpoints are both in `slice` — the purely local
/// check a third vertex makes, because it owns its own list.
fn collect_triangles(
    id: NodeId,
    slice: &[NodeId],
    edges: impl IntoIterator<Item = Edge>,
    out: &mut Vec<Triangle>,
) {
    for e in edges {
        if e.contains(id) {
            continue;
        }
        let (u, v) = e.endpoints();
        if slice.binary_search(&u).is_ok() && slice.binary_search(&v).is_ok() {
            out.push(Triangle::new(u, v, id));
        }
    }
}

impl DynamicTriangleNode {
    pub(super) fn new(id: NodeId, adjacency: Vec<NodeId>) -> Self {
        DynamicTriangleNode {
            id,
            adjacency,
            ..Self::default()
        }
    }

    /// Switches the node to the hardened protocol or back (set once by
    /// the coordinator, between epochs).
    pub(super) fn set_hardened(&mut self, hardened: bool) {
        self.hardened = hardened.then(Box::default);
    }

    /// Whether `from`'s stream to this node verified in the last epoch
    /// (hardened engines only).
    pub(super) fn verified(&self, from: NodeId) -> bool {
        self.hardened
            .as_ref()
            .is_some_and(|h| h.verified.binary_search(&from).is_ok())
    }

    /// Whether the node latched convergecast trouble in the last epoch.
    pub(super) fn agg_trouble(&self) -> bool {
        self.hardened.as_ref().is_some_and(|h| h.agg_trouble)
    }

    /// Merges the candidates gathered during the last epoch, and not yet
    /// drained, into `dead` / `born` and forgets them.
    pub(super) fn drain_candidates_into(&mut self, dead: &mut TriangleSet, born: &mut TriangleSet) {
        dead.extend(self.dead.drain(..));
        born.extend(self.born.drain(..));
    }

    /// The convergecast aggregates of the last main epoch, sorted and
    /// duplicate-free (meaningful on forest roots, or on every node of
    /// a hardened engine); the next descriptor clears them.
    pub(super) fn aggregates(&self) -> (&[Triangle], &[Triangle]) {
        (&self.agg_dead, &self.agg_born)
    }

    /// Latches the first protocol violation of the epoch.
    fn record_protocol_error(&mut self, from: NodeId, detail: String) {
        if self.protocol_error.is_none() {
            self.protocol_error = Some(format!("from {from}: {detail}"));
        }
    }

    /// Marks the epoch degraded at this node (hardened engines only;
    /// a quiet link never gives up and a quiet node has no deadline).
    fn latch_trouble(&mut self) {
        if let Some(h) = &mut self.hardened {
            h.agg_trouble = true;
        }
    }

    /// Whether this epoch is a repair epoch.
    fn in_repair(&self) -> bool {
        self.hardened.as_ref().is_some_and(|h| h.repair_mode)
    }

    /// Decodes the injected descriptor and prepares the epoch. First it
    /// resets all per-epoch state, so nothing leaks across epochs. Three
    /// things carry over: the adjacency slice, the hardened pre-batch
    /// snapshot (repair epochs still verify against it) and candidates
    /// the coordinator has not drained yet. The child links and the
    /// verified senders are cleared in place, keeping their capacity:
    /// every inner forest node, every receiver, fills them each epoch.
    /// The broadcast queues, the aggregates and the trailers are freed
    /// instead (the stream buffers go once they are verified): only the
    /// few nodes a batch touches, or whose subtree saw a candidate, fill
    /// them, and kept, their capacity would stay with every node the
    /// stream ever touched.
    fn load_descriptor(&mut self, ctx: &mut RoundContext<'_>) {
        self.epoch = ReceivedBatch::default();
        self.rm_queues = Queues::new();
        self.ins_queues = Queues::new();
        self.finished = 0;
        self.child_links.clear();
        self.agg_dead = Vec::new();
        self.agg_born = Vec::new();
        self.up_link = None;
        self.protocol_error = None;
        if let Some(h) = &mut self.hardened {
            h.reset();
        }
        let codec = ctx.id_codec();
        let n = ctx.n();
        let bandwidth_bits = ctx.bandwidth_bits();
        let per_message = wire::edges_per_message(bandwidth_bits, codec.width());
        let hardened = self.hardened.is_some();
        for m in ctx.take_inbox() {
            // A descriptor that fails to decode commits nothing: no
            // half-set phase lengths are left behind.
            match wire::decode_descriptor(codec, n, per_message, hardened, &m.payload) {
                Ok(descriptor) => self.commit(descriptor, per_message, bandwidth_bits),
                Err(detail) => self.record_protocol_error(m.from, detail),
            }
        }
        if self.in_repair() {
            // Repair epochs re-send previously-broadcast streams; the
            // queues came verbatim from the repair descriptor.
            return;
        }
        self.child_links.reserve_exact(self.epoch.child_count);
        if let Some(h) = &mut self.hardened {
            let touched = !(self.epoch.removes.is_empty() && self.epoch.inserts.is_empty());
            h.pre_adjacency = touched.then(|| self.adjacency.clone());
        }
        // Removal broadcasts go over the pre-batch neighbourhood.
        self.rm_queues = build_queues(&self.adjacency, &self.epoch.removes);
    }

    /// Takes on one decoded descriptor. A repair descriptor (hardened
    /// engines only) names the number of data rounds and the streams to
    /// re-send: a repair epoch is a main epoch with no removal phase of
    /// its own — the whole stream goes out back to back in the
    /// insertion rounds — so the same send, buffer and verify code runs
    /// both.
    fn commit(&mut self, descriptor: Descriptor, per_message: usize, bandwidth_bits: usize) {
        match descriptor {
            Descriptor::Batch(mut d) => {
                if let Some(list) = d.sync.take() {
                    // Rejoin after a crash window: the coordinator
                    // re-seeds the slice this node missed updates for
                    // while halted.
                    self.adjacency = list;
                }
                if let Some(h) = &mut self.hardened {
                    h.trailer = TrailerLayout::for_phases(
                        d.rm_rounds,
                        d.ins_rounds,
                        per_message,
                        bandwidth_bits,
                    );
                }
                self.epoch = d;
            }
            Descriptor::Repair { rounds, streams } => {
                let h = self
                    .hardened
                    .as_mut()
                    .expect("only a hardened node decodes repair descriptors");
                let capacity = rounds as usize * per_message;
                let layout = TrailerLayout::new(capacity, capacity, bandwidth_bits);
                h.trailers.clear();
                h.trailers.extend(streams.iter().map(|(to, rm_len, edges)| {
                    (*to, layout.build(*rm_len, edges.iter().copied()))
                }));
                h.trailer = layout;
                h.repair_mode = true;
                self.epoch.ins_rounds = rounds;
                self.ins_queues.clear();
                for (to, _, q) in streams {
                    self.ins_queues.extend(q.into_iter().map(|e| (to, e)));
                }
            }
        }
    }

    /// Applies this node's own effective deltas to its slice (the phase
    /// boundary), then prepares insertion broadcasts over the post-batch
    /// neighbourhood — and, on a hardened engine, the one trailer that
    /// closes each neighbour's combined removal + insertion stream.
    fn apply_local(&mut self) {
        for (e, _) in &self.epoch.removes {
            if let Some(other) = e.other(self.id) {
                sorted_remove(&mut self.adjacency, other);
            }
        }
        for (e, _) in &self.epoch.inserts {
            if let Some(other) = e.other(self.id) {
                sorted_insert(&mut self.adjacency, other);
            }
        }
        self.ins_queues = build_queues(&self.adjacency, &self.epoch.inserts);
        if let Some(h) = &mut self.hardened {
            // Both phases' queues ascend by neighbour: walk them
            // together, one stream per neighbour either phase names.
            let mut rm = runs(&self.rm_queues).peekable();
            let mut ins = runs(&self.ins_queues).peekable();
            while let Some(nb) = match (rm.peek(), ins.peek()) {
                (Some(&(a, _)), Some(&(b, _))) => Some(a.min(b)),
                (Some(&(a, _)), None) | (None, Some(&(a, _))) => Some(a),
                (None, None) => None,
            } {
                let rm_q = rm.next_if(|&(to, _)| to == nb).map_or(&[][..], |(_, q)| q);
                let ins_q = ins.next_if(|&(to, _)| to == nb).map_or(&[][..], |(_, q)| q);
                let trailer = h.trailer.build(rm_q.len(), edges(rm_q).chain(edges(ins_q)));
                h.trailers.push((nb, trailer));
            }
        }
    }

    /// Sends round `r`'s share of the broadcast: this round's chunk of
    /// every removal or insertion queue, or — in the rounds right after
    /// the data rounds, so receivers can tell data messages from trailer
    /// chunks by round alone — this round's slice of every outgoing
    /// stream's trailer.
    fn send_broadcast(&self, ctx: &mut RoundContext<'_>, r: u64, data_end: u64) {
        let bandwidth_bits = ctx.bandwidth_bits();
        let codec = ctx.id_codec();
        let (queues, wave) = if r < self.epoch.rm_rounds {
            (&self.rm_queues, r)
        } else if r < data_end {
            (&self.ins_queues, r - self.epoch.rm_rounds)
        } else {
            let h = self
                .hardened
                .as_ref()
                .expect("only hardened epochs have trailer rounds");
            let index = (r - data_end) as usize;
            for (nb, trailer) in &h.trailers {
                if let Some(chunk) = TrailerLayout::chunk(trailer, index, bandwidth_bits) {
                    ctx.send(*nb, chunk)
                        .expect("trailer chunks fit the link budget");
                }
            }
            return;
        };
        let per_message = wire::edges_per_message(bandwidth_bits, codec.width());
        for (nb, q) in runs(queues) {
            if let Some(chunk) = q.chunks(per_message).nth(wave as usize) {
                let mut w = BitWriter::new();
                wire::encode_edges(codec, &mut w, edges(chunk));
                ctx.send(nb, w.finish())
                    .expect("one in-budget message per link per round");
            }
        }
    }

    /// Verifies every buffered stream against its trailer, main and
    /// repair epochs alike. A verified stream's removal prefix converts
    /// to candidates against the pre-batch snapshot, the rest against
    /// the live post-batch slice — exactly the membership a quiet
    /// receiver tests on delivery; anything else is silently set aside
    /// for the coordinator, which compares the verified-sender sets
    /// against what was sent and schedules retransmission.
    fn verify_streams(&mut self) {
        let Some(h) = self.hardened.as_deref_mut() else {
            return;
        };
        let pre = h.pre_adjacency.as_deref().unwrap_or(&self.adjacency);
        for (from, buf) in std::mem::take(&mut h.stream_bufs) {
            let Some((edges, rm_len)) = h.trailer.verify(buf) else {
                continue;
            };
            let (rm, ins) = edges.split_at(rm_len);
            collect_triangles(self.id, pre, rm.iter().copied(), &mut self.dead);
            collect_triangles(
                self.id,
                &self.adjacency,
                ins.iter().copied(),
                &mut self.born,
            );
            h.verified.push(from);
        }
    }

    /// Reads round `r`'s inbox. During the broadcast a quiet node turns
    /// deliveries into candidates at once and a hardened one buffers
    /// them per sender; during the convergecast a parent absorbs its
    /// children's chunks — answering each, once per child per round, on
    /// a hardened engine — and a child reads its parent's
    /// acknowledgements.
    fn receive(&mut self, ctx: &mut RoundContext<'_>, r: u64, data_end: u64, broadcast_end: u64) {
        let codec = ctx.id_codec();
        let n = ctx.n();
        // An inbox is in sender order, so a duplicated chunk sits next
        // to its twin: a child owed an answer gets one, once its last
        // message of the round has been read.
        let mut owed: Option<NodeId> = None;
        for m in ctx.take_inbox() {
            if r > broadcast_end {
                // Convergecast: the parent sends nothing but
                // acknowledgements, children nothing but chunks.
                if self.hardened.is_some() && Some(m.from) == self.epoch.parent {
                    if let Some(up) = &mut self.up_link {
                        up.on_ack(&m.payload);
                    }
                    continue;
                }
                if let Some(child) = owed.filter(|&child| child != m.from) {
                    self.answer(ctx, child);
                    owed = None;
                }
                if self.receive_chunk(codec, n, r, &m) {
                    owed = Some(m.from);
                }
            } else if let Some(h) = &mut self.hardened {
                // A message that fails to decode poisons its stream's
                // buffer rather than the epoch. Conversion happens once
                // the trailer rounds are over, only for streams whose
                // trailer verifies.
                let at = match h
                    .stream_bufs
                    .binary_search_by_key(&m.from, |(from, _)| *from)
                {
                    Ok(at) => at,
                    Err(at) => {
                        h.stream_bufs.insert(at, (m.from, StreamBuf::default()));
                        at
                    }
                };
                let buf = &mut h.stream_bufs[at].1;
                if r <= data_end {
                    buf.push_data(codec, n, &m.payload);
                } else {
                    buf.push_trailer(&m.payload);
                }
            } else {
                // Deliveries from rounds `1..=rm_rounds` are removal
                // broadcasts, checked against the *pre-batch* slice
                // (our own mutations apply at the boundary, after
                // receiving); later ones are insertions, checked
                // post-batch.
                match wire::decode_edges(codec, &m.payload, n) {
                    Ok(edges) => {
                        let out = if r > self.epoch.rm_rounds {
                            &mut self.born
                        } else {
                            &mut self.dead
                        };
                        collect_triangles(self.id, &self.adjacency, edges, out);
                    }
                    Err(detail) => self.record_protocol_error(m.from, detail),
                }
            }
        }
        if let Some(child) = owed {
            self.answer(ctx, child);
        }
    }

    /// Acknowledges what `child`'s link has accepted so far.
    fn answer(&self, ctx: &mut RoundContext<'_>, child: NodeId) {
        let at = self
            .child_links
            .binary_search_by_key(&child, |c| c.child)
            .expect("only a child with a link is owed an answer");
        ctx.send(child, self.child_links[at].link.ack())
            .expect("acknowledgements fit the link budget");
    }

    /// Counts the child at `child_links[at]` as finished, once.
    fn finish_child(&mut self, at: usize) {
        let child = &mut self.child_links[at];
        if !child.finished {
            child.finished = true;
            self.finished += 1;
        }
    }

    /// Absorbs one convergecast message from a child, read in `round`;
    /// when it completes the child's stream, the stream is decoded and
    /// dedup-merged into this node's aggregates through the shared
    /// `shard.rs` merge core. Returns whether the child is owed an
    /// acknowledgement.
    fn receive_chunk(&mut self, codec: IdCodec, n: usize, round: u64, m: &ReceivedMessage) -> bool {
        let hardened = self.hardened.is_some();
        let at = match self.child_links.binary_search_by_key(&m.from, |c| c.child) {
            Ok(at) => at,
            Err(at) => {
                let link = ChildLink {
                    child: m.from,
                    link: LinkReceiver::new(hardened),
                    finished: false,
                };
                self.child_links.insert(at, link);
                at
            }
        };
        let stream = match self.child_links[at].link.on_chunk(round, &m.payload) {
            // To a hardened receiver as good as lost: unanswered, it
            // is sent again.
            Receipt::Garbled if hardened => return false,
            Receipt::Garbled => {
                self.record_protocol_error(m.from, "empty convergecast chunk".into());
                // Count the stream as finished so the epoch still
                // terminates; the error surfaces after it.
                self.finish_child(at);
                return false;
            }
            Receipt::Chunk => return hardened,
            Receipt::Complete(stream) => stream,
        };
        match wire::decode_aggregate(
            codec,
            n,
            &stream,
            hardened,
            &mut self.agg_dead,
            &mut self.agg_born,
        ) {
            Ok(()) => {
                dedup_candidates(&mut self.agg_dead);
                dedup_candidates(&mut self.agg_born);
            }
            // A hardened receiver degrades instead of erroring: the
            // coordinator reads every node's aggregates directly.
            Err(_) if hardened => self.latch_trouble(),
            Err(detail) => self.record_protocol_error(m.from, detail),
        }
        self.finish_child(at);
        hardened
    }

    /// Round `r`'s convergecast step, from `broadcast_end` on: the node
    /// first folds its own observations into the aggregate, then — once
    /// every child stream has been absorbed — streams the merged sets to
    /// its parent, one in-budget chunk per round. Forest roots keep the
    /// result for the coordinator instead.
    fn convergecast(
        &mut self,
        ctx: &mut RoundContext<'_>,
        r: u64,
        broadcast_end: u64,
    ) -> NodeStatus {
        if r == broadcast_end {
            // The aggregates are empty until now: the observations
            // become them, buffer and all.
            std::mem::swap(&mut self.agg_dead, &mut self.dead);
            std::mem::swap(&mut self.agg_born, &mut self.born);
            dedup_candidates(&mut self.agg_dead);
            dedup_candidates(&mut self.agg_born);
        }
        if self.finished < self.epoch.child_count {
            if self.hardened.is_none() || r < self.epoch.deadline {
                return NodeStatus::Active;
            }
            // The backstop: a child stream is still open although the
            // link layer had time to deliver it or give it up many times
            // over. Stop counting the missing children and forward a
            // partial aggregate so the epoch terminates; the coordinator
            // reads every node's aggregates directly on a hardened
            // engine, so nothing verified is lost — only network-side
            // merging.
            self.latch_trouble();
            self.epoch.child_count = self.finished;
        }
        if let Some(parent) = self.epoch.parent {
            let hardened = self.hardened.is_some();
            let codec = ctx.id_codec();
            let bandwidth_bits = ctx.bandwidth_bits();
            let up = self.up_link.get_or_insert_with(|| {
                let stream =
                    wire::serialize_aggregate(codec, &self.agg_dead, &self.agg_born, hardened);
                LinkSender::new(stream, bandwidth_bits, hardened)
            });
            if let Some(chunk) = up.poll(r) {
                ctx.send(parent, chunk)
                    .expect("convergecast chunks fit the link budget");
            }
            if !up.finished() {
                return NodeStatus::Active;
            }
            if up.gave_up() {
                self.latch_trouble();
            }
        }
        // A child whose last acknowledgement was lost will ask again.
        if self.child_links.iter().any(|c| c.link.lingering(r)) {
            return NodeStatus::Active;
        }
        NodeStatus::Halted
    }
}

impl NodeProgram for DynamicTriangleNode {
    type Output = ();

    fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
        let r = ctx.round();
        if r == 0 {
            self.load_descriptor(ctx);
        }
        // The epoch's timetable: removal data rounds, insertion data
        // rounds, then (hardened only) the trailer rounds; everything
        // after `broadcast_end` is convergecast.
        let data_end = self.epoch.rm_rounds + self.epoch.ins_rounds;
        let broadcast_end = data_end + self.hardened.as_ref().map_or(0, |h| h.trailer.rounds());
        if r > 0 {
            self.receive(ctx, r, data_end, broadcast_end);
        }
        // Phase boundary: the removal broadcasts are all delivered, so
        // the node switches its slice to the post-batch graph. (A
        // repair epoch changes no local state — the batch already
        // applied.)
        if r == self.epoch.rm_rounds && !self.in_repair() {
            self.apply_local();
        }
        if r < broadcast_end {
            self.send_broadcast(ctx, r, data_end);
            return NodeStatus::Active;
        }
        if r == broadcast_end {
            self.verify_streams();
        }
        // Broadcast phases are over. A repair epoch ends here.
        if self.in_repair() {
            return NodeStatus::Halted;
        }
        self.convergecast(ctx, r, broadcast_end)
    }

    fn finish(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn a_final_chunk_delivered_twice_is_still_one_child() {
        let codec = IdCodec::new(8);
        for hardened in [false, true] {
            let mut parent = DynamicTriangleNode::new(v(0), vec![v(1), v(2)]);
            parent.set_hardened(hardened);
            parent.epoch.child_count = 2;
            let final_chunk = |from: u32| ReceivedMessage {
                from: v(from),
                payload: wire::chunk_at(&Payload::new(), 0, 8, hardened),
            };
            // Child 1's only chunk arrives twice (a duplicating link).
            assert_eq!(parent.receive_chunk(codec, 8, 1, &final_chunk(1)), hardened);
            assert_eq!(parent.receive_chunk(codec, 8, 1, &final_chunk(1)), hardened);
            assert!(
                parent.finished < parent.epoch.child_count,
                "hardened={hardened}: the parent must keep waiting for child 2"
            );
            parent.receive_chunk(codec, 8, 2, &final_chunk(2));
            assert_eq!(parent.finished, parent.epoch.child_count);
            assert!(parent.protocol_error.is_none() && !parent.agg_trouble());
        }
    }

    #[test]
    fn a_node_fits_in_seven_cache_lines() {
        // Every node is visited in every round of an epoch; its footprint
        // is what those visits pull through the cache.
        assert!(std::mem::size_of::<DynamicTriangleNode>() <= 440);
    }
}
