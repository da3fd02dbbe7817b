//! Multi-round transfers, owned by the round state.
//!
//! Several steps of the paper's algorithms ship payloads much larger than
//! one message: "node `j` sends the set `S_j` to each neighbour" (Algorithm
//! A1), "node `k` sends `S^X_U(j,k)` to `j`" (Algorithm A(X,r) step 4.1),
//! etc. Under the CONGEST budget `B` such a transfer occupies its link for
//! `⌈bits / B⌉` consecutive rounds. A node opens one with
//! [`RoundContext::stream`](crate::RoundContext::stream); from then on the
//! round state moves the next `≤ B` bits of it every round, starting with
//! the round it was opened in, and books each chunk exactly as the message
//! it stands for: one delivery in the [`Metrics`](crate::Metrics), one draw
//! of the sender's fault stream, in destination order among the sender's
//! messages of that round. A dropped chunk leaves a hole, a corrupted one
//! arrives with one bit flipped and a duplicated one is appended twice.
//!
//! A chunk lands at once in the receiver's buffer for its link, and the
//! buffer remembers how many of its bits had landed before the round it was
//! last written in. [`RoundContext::take_streams`](crate::RoundContext::take_streams)
//! hands a receiver, per sender, only those: a bit sent in round `r` is
//! readable from round `r + 1` and never earlier, in whatever order nodes
//! are visited — even by a receiver that runs after its sender in the round
//! that sender starts a new stream. No framing is added: algorithms send
//! self-delimiting payloads inside phases whose length every node can
//! compute, exactly as the paper's round accounting assumes.
//!
//! A stream ends where its sender's part ends: a node that halts moves its
//! streams' chunks of that round and no more, and whatever is unsent or
//! untaken when the epoch ends is dropped.
//!
//! **Cost model.** Opening a stream touches only the sender's own list, as
//! a message queued in its outbox would. A link gets its receive buffer,
//! kept by the receiver and sorted by sender, when a chunk lands on it
//! empty, and the sender's stream remembers where it found it. A chunk is then one
//! word read from the sender's payload, one fault draw (none under a quiet
//! plan) and one word written to that buffer: no payload is built, no inbox
//! is touched and, while the hint holds, nothing is searched. A round costs
//! the streams still sending. Nothing exists for a node that never streams
//! and is never streamed to — the per-node table itself is allocated by the
//! first stream of the simulation. A node's links live in a small vector of
//! its own that holds only links with bits in them or a stream still
//! sending: a take drops the rest, so the memory is back before the node's
//! own output is built, and a new phase's links are not inserted among the
//! last phase's. (A link whose last chunk was lost, or whose sender halted,
//! stays until the epoch ends; a stream that finds its link gone makes it
//! again.) One
//! network-wide array of links, filled in the order senders settle, would
//! make each chunk a little cheaper to write but would hold every link
//! until the epoch ends.

use congest_graph::NodeId;
use congest_wire::{BitReader, BitWriter, Payload};

/// The streams of one simulation; see the [module documentation](self).
#[derive(Debug, Default)]
pub(crate) struct Streams {
    /// Number of nodes in the network.
    n: usize,
    /// Per node, one more than its index in `nodes`, or 0 for a node that
    /// has neither streamed nor been streamed to. Empty until the first
    /// stream opens.
    slot: Vec<u32>,
    nodes: Vec<NodeStreams>,
}

/// The stream state of one node that takes part in streaming.
#[derive(Debug, Default)]
struct NodeStreams {
    /// Streams with bits left to send, ascending by destination.
    out: Vec<OutStream>,
    /// The receiving ends of the links into this node that hold bits or
    /// carry a stream, ascending by sender: a take drops the others.
    links: Vec<Link>,
}

/// The receiving end of one link that carries streams.
#[derive(Debug)]
struct Link {
    from: NodeId,
    /// What landed since the receiver last took.
    bits: BitWriter,
    /// How many of `bits` had landed before round `written - 1`.
    ready: usize,
    /// One more than the round `bits` were last written in; 0 for never.
    written: u64,
    /// Whether the stream that last wrote here has bits left to send.
    live: bool,
}

/// One transfer with bits left to send.
#[derive(Debug)]
pub(crate) struct OutStream {
    to: NodeId,
    /// The receiver's index in `nodes`.
    receiver: u32,
    /// Where in the receiver's `links` this link was last found.
    link: u32,
    payload: Payload,
    sent: usize,
}

impl OutStream {
    /// The destination.
    pub(crate) fn to(&self) -> NodeId {
        self.to
    }

    /// The bits left to send.
    pub(crate) fn remaining(&self) -> usize {
        self.payload.bit_len() - self.sent
    }
}

impl Link {
    /// How many bits a take in `round` may hand over.
    fn ready_in(&self, round: u64) -> usize {
        if self.written == round + 1 {
            self.ready
        } else {
            self.bits.bit_len()
        }
    }
}

impl NodeStreams {
    /// The index of the link from `from`, created if it has none; `hint`
    /// is where it was last.
    fn link(&mut self, from: NodeId, hint: u32) -> usize {
        let hint = hint as usize;
        if self.links.get(hint).is_some_and(|link| link.from == from) {
            return hint;
        }
        let at = match self.links.last() {
            // The round's first chunks land in sender order.
            Some(last) if last.from < from => Err(self.links.len()),
            _ => self.links.binary_search_by_key(&from, |link| link.from),
        };
        at.unwrap_or_else(|at| {
            let link = Link {
                from,
                bits: BitWriter::new(),
                ready: 0,
                written: 0,
                live: true,
            };
            self.links.insert(at, link);
            at
        })
    }
}

impl Streams {
    pub(crate) fn new(n: usize) -> Self {
        Streams {
            n,
            ..Streams::default()
        }
    }

    /// The index in `nodes` of `node`'s state, created on first use.
    fn slot_of(&mut self, node: usize) -> usize {
        if self.slot.is_empty() {
            self.slot = vec![0; self.n];
        }
        if self.slot[node] == 0 {
            self.nodes.push(NodeStreams::default());
            self.slot[node] = self.nodes.len() as u32;
        }
        self.slot[node] as usize - 1
    }

    fn state(&self, node: usize) -> Option<&NodeStreams> {
        match self.slot.get(node) {
            Some(&slot) if slot > 0 => Some(&self.nodes[slot as usize - 1]),
            _ => None,
        }
    }

    /// Whether `from` has a stream to `to` with bits left to send.
    pub(crate) fn is_streaming(&self, from: usize, to: NodeId) -> bool {
        self.state(from)
            .is_some_and(|s| s.out.binary_search_by_key(&to, |stream| stream.to).is_ok())
    }

    /// Opens a stream of `payload` from `from` to `to`, which must not
    /// have one already. An empty payload occupies the link for no round
    /// and is not listed. A new stream on a link appends to whatever the
    /// receiver has not taken yet.
    pub(crate) fn open(&mut self, from: usize, to: NodeId, payload: Payload) {
        if payload.is_empty() {
            return;
        }
        let receiver = self.slot_of(to.index()) as u32;
        let sender = self.slot_of(from);
        let out = &mut self.nodes[sender].out;
        let at = match out.last() {
            // The usual "for each neighbour" loop opens in ascending order.
            Some(last) if last.to < to => out.len(),
            _ => out
                .binary_search_by_key(&to, |stream| stream.to)
                .expect_err("one stream a link"),
        };
        let stream = OutStream {
            to,
            receiver,
            link: 0,
            payload,
            sent: 0,
        };
        out.insert(at, stream);
    }

    /// Takes `node`'s live streams out for a round of sending; hand them
    /// back with [`put_out`](Streams::put_out). A node with none keeps its
    /// empty list where it is.
    pub(crate) fn take_out(&mut self, node: usize) -> Vec<OutStream> {
        match self.slot.get(node) {
            Some(&slot) if slot > 0 => {
                let out = &mut self.nodes[slot as usize - 1].out;
                if out.is_empty() {
                    Vec::new()
                } else {
                    std::mem::take(out)
                }
            }
            _ => Vec::new(),
        }
    }

    /// Puts back what [`take_out`](Streams::take_out) took, without the
    /// streams that have finished.
    pub(crate) fn put_out(&mut self, node: usize, mut out: Vec<OutStream>) {
        out.retain(|stream| stream.remaining() > 0);
        let slot = self.slot_of(node);
        self.nodes[slot].out = out;
    }

    /// Moves the next `len` bits of `from`'s `stream` onto its link in
    /// `round`, `copies` times (0 if the chunk was lost), with bit `flip`
    /// of the chunk inverted if set. The sender's cursor advances either
    /// way.
    pub(crate) fn carry(
        &mut self,
        round: u64,
        from: NodeId,
        stream: &mut OutStream,
        len: usize,
        copies: usize,
        flip: Option<usize>,
    ) {
        let start = stream.sent;
        stream.sent += len;
        if copies == 0 {
            return;
        }
        let receiver = &mut self.nodes[stream.receiver as usize];
        let at = receiver.link(from, stream.link);
        stream.link = at as u32;
        let link = &mut receiver.links[at];
        link.live = stream.remaining() > 0;
        if link.written != round + 1 {
            link.ready = link.bits.bit_len();
            link.written = round + 1;
        }
        for _ in 0..copies {
            let mut reader = BitReader::new(&stream.payload);
            reader
                .skip(start)
                .expect("the cursor is inside the payload");
            let mut at = 0;
            while at < len {
                let width = (len - at).min(64);
                let mut word = reader
                    .read_bits(width)
                    .expect("the chunk is inside the payload");
                if let Some(bit) = flip.filter(|bit| (at..at + width).contains(bit)) {
                    word ^= 1 << (width - 1 - (bit - at));
                }
                link.bits.write_bits(word, width);
                at += width;
            }
        }
    }

    /// What has landed at `node` before `round` and was not taken yet,
    /// per sender, ascending by sender. Bits written in `round` stay.
    pub(crate) fn take(&mut self, node: usize, round: u64) -> Vec<(NodeId, Payload)> {
        let mut parts = Vec::new();
        let Some(&slot) = self.slot.get(node).filter(|&&slot| slot > 0) else {
            return parts;
        };
        let state = &mut self.nodes[slot as usize - 1];
        for link in &mut state.links {
            let ready = link.ready_in(round);
            if ready == 0 {
                continue;
            }
            let bits = std::mem::take(&mut link.bits).finish();
            link.ready = 0;
            if ready == bits.bit_len() {
                parts.push((link.from, bits));
                continue;
            }
            // The sender already moved this round's chunk: it stays.
            let mut reader = BitReader::new(&bits);
            let mut taken = BitWriter::new();
            taken
                .append(&mut reader, ready)
                .expect("ready bits are inside the buffer");
            link.bits
                .append(&mut reader, bits.bit_len() - ready)
                .expect("the rest is inside the buffer");
            parts.push((link.from, taken.finish()));
        }
        state
            .links
            .retain(|link| link.live || link.bits.bit_len() > 0);
        if state.links.is_empty() {
            state.links = Vec::new();
        }
        parts
    }

    /// Stops `node`'s part: its streams end where they are.
    pub(crate) fn stop(&mut self, node: usize) {
        if let Some(&slot) = self.slot.get(node).filter(|&&slot| slot > 0) {
            self.nodes[slot as usize - 1].out.clear();
        }
    }

    /// Ends an epoch: unsent bits and untaken ones are dropped.
    pub(crate) fn clear(&mut self) {
        for state in &mut self.nodes {
            *state = NodeStreams::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use congest_graph::generators::{Classic, Gnp};

    use crate::transfer::oracle::{MultiAssembler, MultiSender};
    use crate::transfer::rounds_for_bits;
    use crate::{
        Bandwidth, FaultPlan, Metrics, NodeProgram, NodeStatus, RoundContext, SimConfig, Simulation,
    };

    use super::*;

    /// The round every node halts in: the longest stream, `4B + 1` bits,
    /// is in by round 5, and direct messages go on a little longer.
    const HALT: u64 = 7;

    /// How long the stream from `from` to `to` is in the run keyed `key`;
    /// across the keys every length in `0..=4B + 1` turns up on every link.
    fn length(key: usize, from: NodeId, to: NodeId, bandwidth: usize) -> usize {
        (key + 3 * from.index() + to.index()) % (4 * bandwidth + 2)
    }

    /// The rounds the stream from `from` to `to` occupies its link.
    fn busy(key: usize, from: NodeId, to: NodeId, bandwidth: usize) -> u64 {
        rounds_for_bits(length(key, from, to, bandwidth), bandwidth)
    }

    /// A stream whose bits name its link.
    fn stream_bits(key: usize, from: NodeId, to: NodeId, bandwidth: usize) -> Payload {
        let len = length(key, from, to, bandwidth);
        let bytes = (0..len.div_ceil(8))
            .map(|i| (37 * from.index() + 11 * to.index() + 73 * i) as u8)
            .collect();
        Payload::from_parts(bytes, len)
    }

    /// The direct message `me` sends in `round`, if any: every other
    /// round, to one neighbour whose stream from `me` is over.
    fn direct(
        key: usize,
        me: NodeId,
        round: u64,
        neighbors: &[NodeId],
        bandwidth: usize,
    ) -> Option<(NodeId, Payload)> {
        if neighbors.is_empty() || (round as usize + me.index()) % 2 == 1 {
            return None;
        }
        let to = neighbors[(round as usize + me.index()) % neighbors.len()];
        let payload = Payload::from_parts(vec![(round as u8) << 5], 3);
        (round >= busy(key, me, to, bandwidth)).then_some((to, payload))
    }

    /// What a node ended up with: every stream assembled, by sender, and
    /// every direct message with the round it was read in.
    type Heard = (Vec<(NodeId, Payload)>, Vec<(u64, NodeId, Payload)>);

    /// Streams to every neighbour in round 0 and sends the odd direct
    /// message. Odd nodes take their streams every round, even ones only
    /// when they halt.
    struct Streaming {
        key: usize,
        streams: BTreeMap<NodeId, BitWriter>,
        heard: Vec<(u64, NodeId, Payload)>,
    }

    impl NodeProgram for Streaming {
        type Output = Heard;

        fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
            let (me, round, bandwidth) = (ctx.id(), ctx.round(), ctx.bandwidth_bits());
            if round == 0 {
                for at in 0..ctx.degree() {
                    let v = ctx.neighbors()[at];
                    ctx.stream(v, stream_bits(self.key, me, v, bandwidth))
                        .unwrap();
                }
            }
            if me.index() % 2 == 1 || round == HALT {
                for (from, bits) in ctx.take_streams() {
                    self.streams.entry(from).or_default().write_payload(&bits);
                }
            }
            for m in ctx.take_inbox() {
                self.heard.push((round, m.from, m.payload));
            }
            for &v in ctx.neighbors() {
                let live = round < busy(self.key, me, v, bandwidth);
                assert_eq!(ctx.has_queued(v), live, "{me} -> {v} in round {round}");
            }
            if let Some((to, payload)) = direct(self.key, me, round, ctx.neighbors(), bandwidth) {
                ctx.send(to, payload).unwrap();
            }
            if round == HALT {
                NodeStatus::Halted
            } else {
                NodeStatus::Active
            }
        }

        fn finish(&mut self) -> Heard {
            let streams = std::mem::take(&mut self.streams)
                .into_iter()
                .map(|(from, bits)| (from, bits.finish()))
                .collect();
            (streams, std::mem::take(&mut self.heard))
        }
    }

    /// The same node with the streams cut by hand through the chunked
    /// helpers: chunks and direct messages share its inbox, told apart by
    /// when the sender's stream to it was busy.
    struct Pumping {
        key: usize,
        sender: MultiSender,
        assembler: MultiAssembler,
        heard: Vec<(u64, NodeId, Payload)>,
    }

    impl NodeProgram for Pumping {
        type Output = Heard;

        fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
            let (me, round, bandwidth) = (ctx.id(), ctx.round(), ctx.bandwidth_bits());
            if round == 0 {
                for &v in ctx.neighbors() {
                    self.sender
                        .queue(v, stream_bits(self.key, me, v, bandwidth));
                }
            }
            for m in ctx.take_inbox() {
                if round - 1 < busy(self.key, m.from, me, bandwidth) {
                    self.assembler.push(m.from, &m.payload);
                } else {
                    self.heard.push((round, m.from, m.payload));
                }
            }
            if let Some((to, payload)) = direct(self.key, me, round, ctx.neighbors(), bandwidth) {
                ctx.send(to, payload).unwrap();
            }
            self.sender.pump(ctx).unwrap();
            if round == HALT {
                NodeStatus::Halted
            } else {
                NodeStatus::Active
            }
        }

        fn finish(&mut self) -> Heard {
            let streams = std::mem::take(&mut self.assembler).finish();
            (streams, std::mem::take(&mut self.heard))
        }
    }

    fn run<P: NodeProgram<Output = Heard>>(
        config: SimConfig,
        make: impl Fn() -> P,
    ) -> (Metrics, Vec<Heard>) {
        let g = Gnp::new(8, 0.5).seeded(3).generate();
        let report = Simulation::new(&g, config, |_| make()).run();
        (report.metrics, report.outputs)
    }

    #[test]
    fn streams_equal_the_chunked_helpers_bit_for_bit() {
        let plans = [
            FaultPlan::default(),
            FaultPlan::default().with_drop(0.2),
            FaultPlan::default().with_corruption(0.2),
            FaultPlan::default().with_duplication(0.2),
            FaultPlan::default()
                .with_drop(0.2)
                .with_corruption(0.2)
                .with_duplication(0.2)
                .with_crash(2, 0, 1),
        ];
        let mut faults = 0;
        // 100 bits a message makes a chunk span two words.
        for bandwidth in [4, 9, 18, 24, 64, 100] {
            for key in 0..=4 * bandwidth + 1 {
                for (i, plan) in plans.iter().enumerate() {
                    let config = SimConfig::congest(key as u64)
                        .with_bandwidth(Bandwidth::Bits(bandwidth))
                        .with_faults(plan.with_seed(key as u64));
                    let streamed = run(config, || Streaming {
                        key,
                        streams: BTreeMap::new(),
                        heard: Vec::new(),
                    });
                    let pumped = run(config, || Pumping {
                        key,
                        sender: MultiSender::new(),
                        assembler: MultiAssembler::new(),
                        heard: Vec::new(),
                    });
                    let what = format!("B = {bandwidth}, key {key}, plan {i}");
                    assert_eq!(streamed.0, pumped.0, "{what}");
                    assert_eq!(streamed.1, pumped.1, "{what}");
                    let m = &streamed.0;
                    faults += m.dropped_messages + m.corrupted_messages + m.duplicated_messages;
                }
            }
        }
        // The fault plans bit: chunks were lost, flipped and doubled.
        assert!(faults > 1000, "{faults}");
    }

    /// Node 0 streams to node 1 and node 1 to node 0, 8 bits a round;
    /// each records how many bits it can take in every round.
    struct Probe {
        taken: Vec<usize>,
    }

    impl NodeProgram for Probe {
        type Output = Vec<usize>;

        fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
            let other = ctx.neighbors()[0];
            // A 20-bit stream from round 0, then a 9-bit one from round 3,
            // the round after the first one's last chunk.
            match ctx.round() {
                0 => ctx
                    .stream(other, Payload::from_parts(vec![0xFF; 3], 20))
                    .unwrap(),
                3 => ctx
                    .stream(other, Payload::from_parts(vec![0xFF; 2], 9))
                    .unwrap(),
                _ => {}
            }
            let bits = ctx.take_streams().iter().map(|(_, p)| p.bit_len()).sum();
            self.taken.push(bits);
            if ctx.round() == 6 {
                NodeStatus::Halted
            } else {
                NodeStatus::Active
            }
        }

        fn finish(&mut self) -> Vec<usize> {
            std::mem::take(&mut self.taken)
        }
    }

    #[test]
    fn a_bit_sent_in_a_round_is_read_from_the_next_whoever_runs_first() {
        let g = Classic::Path(2).generate();
        let config = SimConfig::congest(0).with_bandwidth(Bandwidth::Bits(8));
        let report = Simulation::new(&g, config, |_| Probe { taken: Vec::new() }).run();
        // Node 1 runs after node 0 in every round, node 0 before node 1;
        // both read the same: nothing in the round a chunk is sent, and in
        // round 3 the end of the first stream but not the start of the
        // second.
        let expected = vec![0, 8, 8, 4, 8, 1, 0];
        assert_eq!(report.outputs, vec![expected.clone(), expected]);
        assert_eq!(report.metrics.messages, 2 * 5);
    }
}
