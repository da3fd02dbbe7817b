//! Multi-round transfers, settled when read.
//!
//! Several steps of the paper's algorithms ship payloads much larger than
//! one message: "node `j` sends the set `S_j` to each neighbour" (Algorithm
//! A1), "node `k` sends `S^X_U(j,k)` to `j`" (Algorithm A(X,r) step 4.1),
//! etc. Under the CONGEST budget `B` such a transfer occupies its link for
//! `⌈L / B⌉` consecutive rounds. A node opens one with
//! [`RoundContext::stream`](crate::RoundContext::stream); chunk `i` of it —
//! bits `iB .. min((i + 1)B, L)` — moves in round `opened + i`, starting
//! with the round it was opened in, and is booked exactly as the message it
//! stands for: one delivery in the [`Metrics`], one draw of the sender's
//! fault stream, in destination order among the sender's messages of that
//! round. A dropped chunk leaves a hole, a corrupted one arrives with one
//! bit flipped and a duplicated one is appended twice.
//!
//! [`RoundContext::take_streams`](crate::RoundContext::take_streams) hands
//! a receiver, per sender, the bits that landed before the current round
//! and were not taken yet: a bit sent in round `r` is readable from round
//! `r + 1` and never earlier, in whatever order nodes are visited — even by
//! a receiver that runs after its sender in the round that sender starts a
//! new stream. No framing is added: algorithms send self-delimiting
//! payloads inside phases whose length every node can compute, exactly as
//! the paper's round accounting assumes.
//!
//! A stream ends where its sender's part ends: a node that halts in round
//! `h` moves its streams' chunks of round `h` and no more, and whatever is
//! unsent or untaken when the epoch ends is dropped.
//!
//! **Settled when read.** Nothing walks that schedule a round at a time. A
//! stream is one record at its receiver — the payload, the round it opened
//! and how far the receiver's side has settled it — and a sender's cursor
//! advances whatever its chunks' fates, so every quantity of a stream is
//! arithmetic in `(opened, L, B)` and the round its sender halted: whether
//! it still sends, how many of its bits have landed before a round, its
//! booking. It is settled only when it is next needed.
//!
//! * *Quiet plans.* Every chunk lands intact, so settling is closed-form. A
//!   stream is booked whole when it opens and un-booked by its unsent tail
//!   once it is known to be cut (its sender halted, or the round cap ended
//!   the epoch); a take hands over a range of the payload, and a take that
//!   gets a whole, untouched stream receives the sender's payload itself.
//! * *Faulty plans.* The same settling draws each chunk's fate in its
//!   sender's canonical order — rounds ascending and, within a round,
//!   destinations ascending, interleaved with the sender's messages — when
//!   the stream is next needed: the sender's next visit, a take by the
//!   receiver, the sender's halt or the end of the epoch. Every draw, hole,
//!   flip and duplicate is therefore the one a chunk-a-round walk would
//!   make. What lands is buffered at the receiver until taken.
//!
//! **Cost model.** Opening a stream is one insertion into the receiver's
//! list of links, kept by the receiver and sorted by sender (an append in
//! the usual ascending visit order), and — when it outlasts the sender's
//! other streams — one calendar update. Under a quiet plan nothing more
//! happens until the receiver takes: a take costs its links plus the bits
//! it copies, none for a whole stream. Under a faulty plan a chunk costs one
//! fault draw and one write into the receiver's buffer when it is drawn. A
//! round costs nothing for the streams in flight: whether any of them sent
//! in it is one counter, kept by a calendar of the rounds each sender's
//! streams end. Nothing exists for a node that never streams and is never
//! streamed to — the per-node table itself is allocated by the first stream
//! of the simulation. A node's links live in a small vector of its own that
//! holds only links with bits in them or a stream still sending: a take
//! drops the rest, so the memory is back before the node's own output is
//! built. (A stream whose receiver halted stays until the epoch ends.)

use std::collections::BTreeMap;

use congest_graph::NodeId;
use congest_wire::{BitReader, BitWriter, Payload};

use crate::faults::FaultState;
use crate::transfer::rounds_for_bits;
use crate::Metrics;

/// The streams of one simulation; see the [module documentation](self).
#[derive(Debug)]
pub(crate) struct Streams {
    /// Number of nodes in the network.
    n: usize,
    /// The per-message budget, which every chunk but a stream's last fills.
    bandwidth_bits: usize,
    /// Per node, one more than its index in `nodes`, or 0 for a node that
    /// has neither streamed nor been streamed to. Empty until the first
    /// stream opens.
    slot: Vec<u32>,
    nodes: Vec<NodeStreams>,
    /// How many senders have a stream sending in the current round.
    sending: usize,
    /// The calendar: how many senders' streams stop sending from each
    /// round on, keyed by that round (each sender counted at its `until`).
    ends: BTreeMap<u64, usize>,
}

/// The stream state of one node that takes part in streaming.
#[derive(Debug)]
struct NodeStreams {
    /// The receiving ends of the links into this node that hold bits or
    /// carry a stream, ascending by sender: a take drops the others.
    links: Vec<Link>,
    /// The first round its streams no longer send in: the one after it
    /// halted, `u64::MAX` while it runs.
    stop: u64,
    /// The first round none of its streams sends in, as the calendar has
    /// it; 0 before its first stream.
    until: u64,
    /// Faulty plans: the chunks its streams move before this round are
    /// drawn.
    drawn: u64,
    /// Faulty plans: the destinations of its streams with chunks left to
    /// draw, ascending.
    dests: Vec<NodeId>,
}

impl Default for NodeStreams {
    fn default() -> Self {
        NodeStreams {
            links: Vec::new(),
            stop: u64::MAX,
            until: 0,
            drawn: 0,
            dests: Vec::new(),
        }
    }
}

/// The receiving end of one link: its newest stream, and what landed on it
/// and was not taken.
#[derive(Debug)]
struct Link {
    from: NodeId,
    /// The round the stream opened in.
    opened: u64,
    /// The stream's bits, as the sender handed them over.
    payload: Payload,
    /// How many of `payload`'s bits the receiver's side has settled: taken
    /// under a quiet plan, drawn under a faulty one.
    settled: usize,
    /// Bits that landed and were not taken: a faulty plan's drawn chunks,
    /// or what the receiver left of an earlier stream on this link.
    landed: Option<Box<Landed>>,
}

/// A receive buffer: bits that landed on a link and were not taken.
#[derive(Debug, Default)]
struct Landed {
    bits: BitWriter,
    /// How many of `bits` had landed before round `written - 1`.
    ready: usize,
    /// One more than the round `bits` were last written in; 0 for never.
    written: u64,
}

/// How many of a stream's `len` bits its first `chunks` chunks carry.
fn sent_bits(len: usize, chunks: u64, bandwidth: usize) -> usize {
    usize::try_from(chunks).map_or(len, |chunks| chunks.saturating_mul(bandwidth).min(len))
}

impl Link {
    /// The first round the stream sends nothing in, for a sender whose
    /// streams stop sending from round `stop` on.
    fn end(&self, stop: u64, bandwidth: usize) -> u64 {
        let chunks = rounds_for_bits(self.payload.bit_len(), bandwidth);
        self.opened.saturating_add(chunks).min(stop)
    }

    /// The chunks and bits of the stream that never move, for a stream
    /// whose chunks stop at round `end`.
    fn unsent(&self, end: u64, bandwidth: usize) -> (u64, usize) {
        let len = self.payload.bit_len();
        let moved = end - self.opened;
        let sent = sent_bits(len, moved, bandwidth);
        (rounds_for_bits(len, bandwidth) - moved, len - sent)
    }

    /// Quiet plans: hands over what landed before `round` — whatever is
    /// left of an earlier stream, then the payload's bits up to the last
    /// chunk moved before `round`, for a stream whose chunks stop at round
    /// `end`. A whole, untouched stream is the payload itself.
    fn take_sent(&mut self, round: u64, end: u64, bandwidth: usize) -> Option<Payload> {
        let len = self.payload.bit_len();
        let sent = if round > self.opened {
            sent_bits(len, round.min(end) - self.opened, bandwidth)
        } else {
            0
        };
        let earlier = self.landed.take();
        if earlier.is_none() {
            if sent == self.settled {
                return None;
            }
            if self.settled == 0 && sent == len {
                return Some(std::mem::take(&mut self.payload));
            }
        }
        let mut bits = earlier.map_or_else(BitWriter::new, |landed| landed.bits);
        let mut reader = BitReader::new(&self.payload);
        reader
            .skip(self.settled)
            .expect("the settled bits are inside the payload");
        bits.append(&mut reader, sent - self.settled)
            .expect("the sent bits are inside the payload");
        self.settled = sent;
        Some(bits.finish())
    }

    /// Faulty plans: hands over the drawn bits that landed before `round`;
    /// a chunk that landed in `round` stays.
    fn take_landed(&mut self, round: u64) -> Option<Payload> {
        let landed = self.landed.as_mut()?;
        let ready = if landed.written == round + 1 {
            landed.ready
        } else {
            landed.bits.bit_len()
        };
        if ready == 0 {
            return None;
        }
        let bits = std::mem::take(&mut landed.bits).finish();
        landed.ready = 0;
        if ready == bits.bit_len() {
            self.landed = None;
            return Some(bits);
        }
        let mut reader = BitReader::new(&bits);
        let mut taken = BitWriter::new();
        taken
            .append(&mut reader, ready)
            .expect("ready bits are inside the buffer");
        landed
            .bits
            .append(&mut reader, bits.bit_len() - ready)
            .expect("the rest is inside the buffer");
        Some(taken.finish())
    }

    /// Replaces a stream that has stopped sending with the sender's next
    /// one, opened in `round`; what the receiver has not taken of the old
    /// one lands in front of it. (A faulty plan drew all of it already.)
    fn reopen(&mut self, payload: Payload, round: u64) {
        let rest = self.payload.bit_len() - self.settled;
        if rest > 0 {
            let landed = self.landed.get_or_insert_with(Box::default);
            let mut reader = BitReader::new(&self.payload);
            reader
                .skip(self.settled)
                .expect("the settled bits are inside the payload");
            landed
                .bits
                .append(&mut reader, rest)
                .expect("the rest is inside the payload");
        }
        self.payload = payload;
        self.opened = round;
        self.settled = 0;
    }
}

impl Landed {
    /// Lands `copies` copies of the `len` bits of `payload` from `start`,
    /// moved in `round`, with bit `flip` of them inverted if set.
    fn write(
        &mut self,
        round: u64,
        payload: &Payload,
        start: usize,
        len: usize,
        copies: usize,
        flip: Option<usize>,
    ) {
        if self.written != round + 1 {
            self.ready = self.bits.bit_len();
            self.written = round + 1;
        }
        for _ in 0..copies {
            let mut reader = BitReader::new(payload);
            reader.skip(start).expect("the chunk is inside the payload");
            let mut at = 0;
            while at < len {
                let width = (len - at).min(64);
                let mut word = reader
                    .read_bits(width)
                    .expect("the chunk is inside the payload");
                if let Some(bit) = flip.filter(|bit| (at..at + width).contains(bit)) {
                    word ^= 1 << (width - 1 - (bit - at));
                }
                self.bits.write_bits(word, width);
                at += width;
            }
        }
    }
}

impl Streams {
    pub(crate) fn new(n: usize, bandwidth_bits: usize) -> Self {
        Streams {
            n,
            bandwidth_bits,
            slot: Vec::new(),
            nodes: Vec::new(),
            sending: 0,
            ends: BTreeMap::new(),
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

    /// The index in `nodes` of `node`'s state, if it has one.
    #[inline]
    fn slot_index(&self, node: usize) -> Option<usize> {
        match self.slot.get(node) {
            Some(&slot) if slot > 0 => Some(slot as usize - 1),
            _ => None,
        }
    }

    /// The round from which `node`'s streams no longer send.
    fn stop_of(&self, node: usize) -> u64 {
        self.slot_index(node)
            .map_or(u64::MAX, |slot| self.nodes[slot].stop)
    }

    /// Whether `from`, which still runs, has a stream to `to` that sends in
    /// `round`. Every send asks, so a receiver with no links answers
    /// without a call.
    #[inline]
    pub(crate) fn is_streaming(&self, from: usize, to: NodeId, round: u64) -> bool {
        self.slot_index(to.index())
            .is_some_and(|receiver| self.sends_to(receiver, from, round))
    }

    /// [`is_streaming`](Streams::is_streaming) for a receiver with links.
    fn sends_to(&self, receiver: usize, from: usize, round: u64) -> bool {
        let links = &self.nodes[receiver].links;
        let from = NodeId::from_index(from);
        links
            .binary_search_by_key(&from, |link| link.from)
            .is_ok_and(|at| round < links[at].end(u64::MAX, self.bandwidth_bits))
    }

    /// Whether `from` has stream chunks left to draw (faulty plans only).
    pub(crate) fn drawing(&self, from: usize) -> bool {
        self.slot_index(from)
            .is_some_and(|slot| !self.nodes[slot].dests.is_empty())
    }

    /// Opens a stream of `payload` from `from` to `to` in `round`; `from`
    /// must not have one sending to `to` already. An empty payload occupies
    /// the link for no round and is not recorded. A new stream on a link
    /// lands after whatever the receiver has not taken yet.
    pub(crate) fn open(
        &mut self,
        from: usize,
        to: NodeId,
        payload: Payload,
        round: u64,
        faults: &mut FaultState,
        metrics: &mut Metrics,
    ) {
        if payload.is_empty() {
            return;
        }
        let chunks = rounds_for_bits(payload.bit_len(), self.bandwidth_bits);
        if faults.quiet() {
            metrics.record_deliveries(from, to.index(), chunks, payload.bit_len());
        } else {
            // The link's last stream lands in full before this one starts.
            self.catch_up(from, round, faults, metrics);
        }
        let sender = self.slot_of(from);
        self.schedule(sender, round, round.saturating_add(chunks));
        if !faults.quiet() {
            let dests = &mut self.nodes[sender].dests;
            let at = match dests.last() {
                Some(&last) if last < to => dests.len(),
                _ => dests.binary_search(&to).expect_err("one stream a link"),
            };
            dests.insert(at, to);
        }
        let receiver = self.slot_of(to.index());
        let links = &mut self.nodes[receiver].links;
        let from = NodeId::from_index(from);
        let at = match links.last() {
            // The usual "for each neighbour" loop of ascending senders.
            Some(last) if last.from < from => Err(links.len()),
            _ => links.binary_search_by_key(&from, |link| link.from),
        };
        match at {
            Ok(at) => links[at].reopen(payload, round),
            Err(at) => links.insert(
                at,
                Link {
                    from,
                    opened: round,
                    payload,
                    settled: 0,
                    landed: None,
                },
            ),
        }
    }

    /// Notes in the calendar that `sender`'s streams send until round
    /// `end`, exclusive, if that is later than it had.
    fn schedule(&mut self, sender: usize, round: u64, end: u64) {
        let until = self.nodes[sender].until;
        if end <= until {
            return;
        }
        if until > round {
            self.unschedule(until);
        } else {
            self.sending += 1;
        }
        *self.ends.entry(end).or_default() += 1;
        self.nodes[sender].until = end;
    }

    /// Takes one sender off the calendar at round `until`.
    fn unschedule(&mut self, until: u64) {
        let count = self.ends.get_mut(&until).expect("a sender is listed");
        *count -= 1;
        if *count == 0 {
            self.ends.remove(&until);
        }
    }

    /// Closes `round`: whether any stream sent a chunk in it.
    pub(crate) fn end_round(&mut self, round: u64) -> bool {
        if self.sending == 0 {
            return false;
        }
        if let Some(ended) = self.ends.remove(&(round + 1)) {
            self.sending -= ended;
        }
        true
    }

    /// Draws the chunks `from`'s streams move before round `through` that
    /// are not drawn yet, rounds ascending and destinations ascending: no
    /// message of `from` falls among them, as it was not visited in those
    /// rounds. Nothing to do under a quiet plan.
    pub(crate) fn catch_up(
        &mut self,
        from: usize,
        through: u64,
        faults: &mut FaultState,
        metrics: &mut Metrics,
    ) {
        let Some(sender) = self.slot_index(from) else {
            return;
        };
        while self.nodes[sender].drawn < through && !self.nodes[sender].dests.is_empty() {
            let round = self.nodes[sender].drawn;
            self.draw(from, round, 0, None, faults, metrics);
        }
        let state = &mut self.nodes[sender];
        state.drawn = state.drawn.max(through);
    }

    /// Draws the chunks `from`'s streams move in `round` to the
    /// destinations from its `at`-th on that lie below `below` — all of
    /// them for `None`, which closes the round — and returns where the next
    /// call picks up. The caller delivers `from`'s message to `below` in
    /// between, so the sender's fault stream sees the round's chunks and
    /// messages in destination order.
    pub(crate) fn draw(
        &mut self,
        from: usize,
        round: u64,
        mut at: usize,
        below: Option<NodeId>,
        faults: &mut FaultState,
        metrics: &mut Metrics,
    ) -> usize {
        let Some(sender) = self.slot_index(from) else {
            return at;
        };
        while let Some(&to) = self.nodes[sender].dests.get(at) {
            if below.is_some_and(|below| to >= below) {
                return at;
            }
            if self.land(from, to, round, faults, metrics) {
                self.nodes[sender].dests.remove(at);
            } else {
                at += 1;
            }
        }
        if below.is_none() {
            self.nodes[sender].drawn = round + 1;
        }
        at
    }

    /// Draws the fate of the chunk `from`'s stream to `to` moves in
    /// `round`, books it and lands what arrives. Returns whether it was the
    /// stream's last.
    fn land(
        &mut self,
        from: usize,
        to: NodeId,
        round: u64,
        faults: &mut FaultState,
        metrics: &mut Metrics,
    ) -> bool {
        let bandwidth = self.bandwidth_bits;
        let receiver = self.slot_index(to.index()).expect("a receiver has a slot");
        let links = &mut self.nodes[receiver].links;
        let sender = NodeId::from_index(from);
        let at = links
            .binary_search_by_key(&sender, |link| link.from)
            .expect("a stream with chunks to draw keeps its link");
        let link = &mut links[at];
        debug_assert_eq!(link.opened + (link.settled / bandwidth) as u64, round);
        let start = link.settled;
        let len = (link.payload.bit_len() - start).min(bandwidth);
        link.settled += len;
        if let Some(fate) = faults.fate(from, len, metrics) {
            let copies = 1 + usize::from(fate.twice);
            for _ in 0..copies {
                metrics.record_delivery(from, to.index(), len);
            }
            link.landed.get_or_insert_with(Box::default).write(
                round,
                &link.payload,
                start,
                len,
                copies,
                fate.flip,
            );
        }
        link.settled == link.payload.bit_len()
    }

    /// What has landed at `node` before `round` and was not taken yet,
    /// per sender, ascending by sender. Bits sent in `round` stay.
    pub(crate) fn take(
        &mut self,
        node: usize,
        round: u64,
        faults: &mut FaultState,
        metrics: &mut Metrics,
    ) -> Vec<(NodeId, Payload)> {
        let mut parts = Vec::new();
        let Some(receiver) = self.slot_index(node) else {
            return parts;
        };
        let (quiet, bandwidth) = (faults.quiet(), self.bandwidth_bits);
        for at in 0..self.nodes[receiver].links.len() {
            let from = self.nodes[receiver].links[at].from;
            if !quiet {
                self.catch_up(from.index(), round, faults, metrics);
            }
            let stop = self.stop_of(from.index());
            let link = &mut self.nodes[receiver].links[at];
            let end = link.end(stop, bandwidth);
            let over = end <= round;
            if over && quiet {
                let (chunks, bits) = link.unsent(end, bandwidth);
                metrics.unrecord_deliveries(from.index(), node, chunks, bits);
            }
            let bits = if quiet {
                link.take_sent(round, end, bandwidth)
            } else {
                link.take_landed(round)
            };
            parts.extend(bits.map(|bits| (from, bits)));
            if over {
                // Nothing is left to land or to take: dropped below.
                debug_assert!(link.landed.is_none());
                link.payload = Payload::new();
            }
        }
        let links = &mut self.nodes[receiver].links;
        links.retain(|link| !link.payload.is_empty());
        if links.is_empty() {
            *links = Vec::new();
        }
        parts
    }

    /// Stops `node`'s part in `round`: its streams end with the chunks of
    /// this round, which a faulty plan drew when the node settled.
    pub(crate) fn stop(&mut self, node: usize, round: u64) {
        let Some(slot) = self.slot_index(node) else {
            return;
        };
        let stop = round + 1;
        let state = &mut self.nodes[slot];
        state.stop = stop;
        state.dests.clear();
        let until = state.until;
        if until > stop {
            state.until = stop;
            self.unschedule(until);
            *self.ends.entry(stop).or_default() += 1;
        }
    }

    /// Ends an epoch of `rounds` rounds: a faulty plan draws the chunks
    /// still due, a quiet one un-books the chunks that never moved, and
    /// unsent bits and untaken ones are dropped.
    pub(crate) fn end_epoch(
        &mut self,
        rounds: u64,
        faults: &mut FaultState,
        metrics: &mut Metrics,
    ) {
        let bandwidth = self.bandwidth_bits;
        for node in 0..self.slot.len() {
            let Some(slot) = self.slot_index(node) else {
                continue;
            };
            if !faults.quiet() {
                self.catch_up(node, rounds, faults, metrics);
                continue;
            }
            for at in 0..self.nodes[slot].links.len() {
                let from = self.nodes[slot].links[at].from.index();
                let stop = self.stop_of(from).min(rounds);
                let link = &self.nodes[slot].links[at];
                let (chunks, bits) = link.unsent(link.end(stop, bandwidth), bandwidth);
                metrics.unrecord_deliveries(from, node, chunks, bits);
            }
        }
        for state in &mut self.nodes {
            *state = NodeStreams::default();
        }
        self.sending = 0;
        self.ends.clear();
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

    /// The round every node halts in by default: the longest stream, `4B +
    /// 1` bits, is in by round 5, and direct messages go on a little
    /// longer.
    const HALT: u64 = 7;

    /// How the nodes of one oracle comparison behave. Every node that
    /// streams opens one stream to each neighbour in round 0 and, with
    /// `again`, a second one on the same link in the round the first ends.
    #[derive(Clone, Copy)]
    struct Case {
        /// The round `me` halts in, if it runs that long.
        halt: fn(NodeId) -> u64,
        /// Whether `me` streams at all.
        streams: fn(NodeId) -> bool,
        /// Whether every node takes every round; otherwise odd nodes do,
        /// and even ones only in their last round.
        every_round: bool,
        /// Whether each link carries a second stream after the first.
        again: bool,
        /// The round cap.
        max_rounds: u64,
        /// The round even nodes take their streams in when they never get
        /// to halt: the last one under the cap.
        last: u64,
    }

    impl Case {
        /// Every node streams and halts in round [`HALT`], after every
        /// stream's last chunk.
        const WHOLE: Case = Case {
            halt: |_| HALT,
            streams: |_| true,
            every_round: false,
            again: false,
            max_rounds: u64::MAX,
            last: u64::MAX,
        };

        /// The round `me` stops running in.
        fn last_round(&self, me: NodeId) -> u64 {
            (self.halt)(me).min(self.last)
        }
    }

    /// How long stream `nth` (0 or 1) from `from` to `to` is in the run
    /// keyed `key`; across the keys every length in `0..=4B + 1` turns up
    /// on every link.
    fn length(key: usize, nth: usize, from: NodeId, to: NodeId, bandwidth: usize) -> usize {
        (key + 5 * nth + 3 * from.index() + to.index()) % (4 * bandwidth + 2)
    }

    /// Stream `nth` from `from` to `to`, whose bits name its link.
    fn stream_bits(key: usize, nth: usize, from: NodeId, to: NodeId, bandwidth: usize) -> Payload {
        let len = length(key, nth, from, to, bandwidth);
        let bytes = (0..len.div_ceil(8))
            .map(|i| (37 * from.index() + 11 * to.index() + 73 * i + 101 * nth) as u8)
            .collect();
        Payload::from_parts(bytes, len)
    }

    /// The rounds stream `nth` from `from` to `to` occupies its link.
    fn rounds(key: usize, nth: usize, from: NodeId, to: NodeId, bandwidth: usize) -> u64 {
        rounds_for_bits(length(key, nth, from, to, bandwidth), bandwidth)
    }

    /// The rounds the link from `from` to `to` is taken by streams, had
    /// `from` run to the end: the first stream's, then the second's.
    fn busy(case: &Case, key: usize, from: NodeId, to: NodeId, bandwidth: usize) -> u64 {
        if !(case.streams)(from) {
            return 0;
        }
        let second = if case.again {
            rounds(key, 1, from, to, bandwidth)
        } else {
            0
        };
        rounds(key, 0, from, to, bandwidth) + second
    }

    /// The streams `me` opens to `to` in `round`: the first in round 0,
    /// the second where the first ends.
    fn opened(
        case: &Case,
        key: usize,
        me: NodeId,
        to: NodeId,
        round: u64,
        bandwidth: usize,
    ) -> Vec<Payload> {
        let mut opened = Vec::new();
        if (case.streams)(me) {
            if round == 0 {
                opened.push(stream_bits(key, 0, me, to, bandwidth));
            }
            if case.again && round == rounds(key, 0, me, to, bandwidth) {
                opened.push(stream_bits(key, 1, me, to, bandwidth));
            }
        }
        opened
    }

    /// The direct message `me` sends in `round`, if any: every other
    /// round, to one neighbour whose streams from `me` are over.
    fn direct(
        case: &Case,
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
        (round >= busy(case, key, me, to, bandwidth)).then_some((to, payload))
    }

    /// The status `me` returns at the end of `round`.
    fn status(case: &Case, me: NodeId, round: u64) -> NodeStatus {
        if round == (case.halt)(me) {
            NodeStatus::Halted
        } else {
            NodeStatus::Active
        }
    }

    /// What a node ended up with: every stream assembled, by sender, and
    /// every direct message with the round it was read in.
    type Heard = (Vec<(NodeId, Payload)>, Vec<(u64, NodeId, Payload)>);

    /// Opens its streams and sends the odd direct message; takes its
    /// streams when `case` says so.
    struct Streaming {
        case: Case,
        key: usize,
        streams: BTreeMap<NodeId, BitWriter>,
        heard: Vec<(u64, NodeId, Payload)>,
    }

    impl NodeProgram for Streaming {
        type Output = Heard;

        fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
            let (case, key) = (&self.case, self.key);
            let (me, round, bandwidth) = (ctx.id(), ctx.round(), ctx.bandwidth_bits());
            for at in 0..ctx.degree() {
                let v = ctx.neighbors()[at];
                for payload in opened(case, key, me, v, round, bandwidth) {
                    ctx.stream(v, payload).unwrap();
                }
            }
            if case.every_round || me.index() % 2 == 1 || round == case.last_round(me) {
                for (from, bits) in ctx.take_streams() {
                    self.streams.entry(from).or_default().write_payload(&bits);
                }
            }
            for m in ctx.take_inbox() {
                self.heard.push((round, m.from, m.payload));
            }
            for &v in ctx.neighbors() {
                let live = round < busy(case, key, me, v, bandwidth);
                assert_eq!(ctx.has_queued(v), live, "{me} -> {v} in round {round}");
            }
            if let Some((to, payload)) = direct(case, key, me, round, ctx.neighbors(), bandwidth) {
                ctx.send(to, payload).unwrap();
            }
            status(case, me, round)
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
    /// when the sender's streams to it were busy.
    struct Pumping {
        case: Case,
        key: usize,
        sender: MultiSender,
        assembler: MultiAssembler,
        heard: Vec<(u64, NodeId, Payload)>,
    }

    impl NodeProgram for Pumping {
        type Output = Heard;

        fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
            let (case, key) = (&self.case, self.key);
            let (me, round, bandwidth) = (ctx.id(), ctx.round(), ctx.bandwidth_bits());
            for &v in ctx.neighbors() {
                for payload in opened(case, key, me, v, round, bandwidth) {
                    self.sender.queue(v, payload);
                }
            }
            for m in ctx.take_inbox() {
                if round - 1 < busy(case, key, m.from, me, bandwidth) {
                    self.assembler.push(m.from, &m.payload);
                } else {
                    self.heard.push((round, m.from, m.payload));
                }
            }
            if let Some((to, payload)) = direct(case, key, me, round, ctx.neighbors(), bandwidth) {
                ctx.send(to, payload).unwrap();
            }
            self.sender.pump(ctx).unwrap();
            status(case, me, round)
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

    /// Runs `case` through the streams and through the chunked helpers
    /// under every fault plan, at bandwidths from `bandwidths` and every
    /// key that gives each link each length; metrics (silent rounds and
    /// the per-node vectors included) and every bit heard must agree.
    /// Returns how many chunks and messages the fault plans hit.
    fn assert_matches_the_helpers(case: Case, bandwidths: &[usize]) -> u64 {
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
        for &bandwidth in bandwidths {
            for key in 0..=4 * bandwidth + 1 {
                for (i, plan) in plans.iter().enumerate() {
                    let config = SimConfig::congest(key as u64)
                        .with_bandwidth(Bandwidth::Bits(bandwidth))
                        .with_max_rounds(case.max_rounds)
                        .with_faults(plan.with_seed(key as u64));
                    let streamed = run(config, || Streaming {
                        case,
                        key,
                        streams: BTreeMap::new(),
                        heard: Vec::new(),
                    });
                    let pumped = run(config, || Pumping {
                        case,
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
        faults
    }

    /// How many streams of `case` at `bandwidth` end after `cut(from,
    /// to)`, over every key and link of the test graph.
    fn cut_streams(case: &Case, bandwidth: usize, cut: impl Fn(NodeId, NodeId) -> u64) -> usize {
        let g = Gnp::new(8, 0.5).seeded(3).generate();
        (0..=4 * bandwidth + 1)
            .map(|key| {
                g.nodes()
                    .flat_map(|from| g.neighbors(from).iter().map(move |&to| (from, to)))
                    .filter(|&(from, to)| busy(case, key, from, to, bandwidth) > cut(from, to))
                    .count()
            })
            .sum()
    }

    #[test]
    fn streams_equal_the_chunked_helpers_bit_for_bit() {
        // 100 bits a message makes a chunk span two words.
        let faults = assert_matches_the_helpers(Case::WHOLE, &[4, 9, 18, 24, 64, 100]);
        // The fault plans bit: chunks were lost, flipped and doubled.
        assert!(faults > 1000, "{faults}");
    }

    #[test]
    fn streams_cut_by_their_senders_halt_equal_the_chunked_helpers() {
        let case = Case {
            halt: |me| if me.index() % 3 == 0 { 2 } else { HALT },
            ..Case::WHOLE
        };
        let cut = cut_streams(&case, 9, |from, _| (case.halt)(from) + 1);
        assert!(cut > 20, "{cut}");
        assert_matches_the_helpers(case, &[4, 9, 100]);
    }

    #[test]
    fn streams_to_a_halted_receiver_equal_the_chunked_helpers() {
        // The nodes that halt early send no stream of their own.
        let case = Case {
            halt: |me| if me.index() % 3 == 1 { 2 } else { HALT },
            streams: |me| me.index() % 3 != 1,
            ..Case::WHOLE
        };
        let cut = cut_streams(&case, 9, |_, to| (case.halt)(to) + 1);
        assert!(cut > 20, "{cut}");
        assert_matches_the_helpers(case, &[4, 9, 100]);
    }

    #[test]
    fn streams_cut_by_the_round_cap_equal_the_chunked_helpers() {
        let case = Case {
            halt: |_| u64::MAX,
            max_rounds: 3,
            last: 2,
            ..Case::WHOLE
        };
        let cut = cut_streams(&case, 9, |_, _| case.max_rounds);
        assert!(cut > 20, "{cut}");
        assert_matches_the_helpers(case, &[4, 9, 100]);
    }

    #[test]
    fn back_to_back_streams_on_one_link_equal_the_chunked_helpers() {
        // Even nodes take only when they halt, after both streams: the
        // first is untaken when the second opens behind it.
        let case = Case {
            halt: |_| 2 * HALT,
            again: true,
            ..Case::WHOLE
        };
        assert_matches_the_helpers(case, &[4, 9, 100]);
    }

    #[test]
    fn takes_in_every_round_from_both_sides_equal_the_chunked_helpers() {
        // Every receiver takes every round, whether it is visited before
        // or after its senders; streams are cut and reopened meanwhile.
        let case = Case {
            halt: |me| if me.index() % 4 == 0 { 3 } else { 2 * HALT },
            every_round: true,
            again: true,
            ..Case::WHOLE
        };
        assert_matches_the_helpers(case, &[4, 9, 100]);
    }

    #[test]
    fn a_stream_is_one_record_of_at_most_64_bytes() {
        // A phase's memory is its links: one per stream, payload included,
        // with the rarely used receive buffer behind a pointer.
        assert!(std::mem::size_of::<Link>() <= 64);
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
