//! How long a transfer occupies a link, and the chunked-transfer helpers
//! the simulator's streams replaced.
//!
//! A payload of `bits` bits sent over a link whose per-round budget is `B`
//! takes `⌈bits / B⌉` rounds; [`rounds_for_bits`] is what every phase plan
//! is sized with, and the schedule a stream is settled by. The transfer
//! itself is a stream (see [`RoundContext::stream`](crate::RoundContext::stream)).
//!
//! The helpers node programs used before — a sender that cut one chunk a
//! round into the outbox and an assembler that glued the inbox back
//! together per sender — live on under `#[cfg(test)]` as the oracle the
//! streams are held to, bit for bit.

/// Number of rounds a payload of `payload_bits` bits occupies a link whose
/// per-round budget is `bandwidth_bits`.
///
/// The empty payload occupies the link for 0 rounds, matching a stream of
/// it, which sends nothing; a phase that must last at least one round says
/// so itself (`.max(1)`).
pub fn rounds_for_bits(payload_bits: usize, bandwidth_bits: usize) -> u64 {
    assert!(bandwidth_bits > 0, "bandwidth must be positive");
    (payload_bits as u64).div_ceil(bandwidth_bits as u64)
}

#[cfg(test)]
/// The chunked-transfer helpers, kept as the oracle of the streams: what
/// `MultiSender::pump` hands the outbox and `MultiAssembler` glues back
/// together is what a stream moves and lands.
pub(crate) mod oracle {
    use congest_graph::NodeId;
    use congest_wire::{BitReader, BitWriter, Payload};

    use super::rounds_for_bits;
    use crate::{RoundContext, SimError};

    /// Sends one long payload to one destination over as many rounds as needed.
    ///
    /// Call [`ChunkedSender::pump`] exactly once per round until
    /// [`ChunkedSender::is_done`] turns true.
    #[derive(Debug, Clone)]
    pub(crate) struct ChunkedSender {
        dest: NodeId,
        payload: Payload,
        cursor: usize,
    }

    impl ChunkedSender {
        /// Creates a sender that will ship `payload` to `dest`.
        pub fn new(dest: NodeId, payload: Payload) -> Self {
            ChunkedSender {
                dest,
                payload,
                cursor: 0,
            }
        }

        /// Whether the whole payload has been handed to the outbox.
        pub fn is_done(&self) -> bool {
            self.cursor >= self.payload.bit_len()
        }

        /// Number of rounds still needed under the given bandwidth.
        pub fn remaining_rounds(&self, bandwidth_bits: usize) -> u64 {
            rounds_for_bits(self.payload.bit_len() - self.cursor, bandwidth_bits)
        }

        /// Sends the next chunk (if any) through `ctx`. Returns whether the
        /// transfer is complete after this round.
        ///
        /// # Errors
        ///
        /// Propagates [`SimError`] from the underlying send (for example when a
        /// message to the same destination was already queued this round).
        pub fn pump(&mut self, ctx: &mut RoundContext<'_>) -> Result<bool, SimError> {
            if self.is_done() {
                return Ok(true);
            }
            let budget = ctx.bandwidth_bits();
            let len = (self.payload.bit_len() - self.cursor).min(budget);
            let mut reader = BitReader::new(&self.payload);
            reader.skip(self.cursor).expect("cursor is within payload");
            let mut chunk = BitWriter::new();
            chunk
                .append(&mut reader, len)
                .expect("chunk is within payload");
            ctx.send(self.dest, chunk.finish())?;
            self.cursor += len;
            Ok(self.is_done())
        }
    }

    /// Reassembles the chunks of one logical transfer from one sender.
    #[derive(Debug, Clone, Default)]
    pub(crate) struct ChunkAssembler {
        writer: BitWriter,
    }

    impl ChunkAssembler {
        /// Creates an empty assembler.
        pub fn new() -> Self {
            Self::default()
        }

        /// Appends a received chunk.
        pub fn push(&mut self, chunk: &Payload) {
            self.writer.write_payload(chunk);
        }

        /// Number of bits accumulated so far.
        pub fn bit_len(&self) -> usize {
            self.writer.bit_len()
        }

        /// Finalizes the accumulated bits into one payload.
        pub fn finish(self) -> Payload {
            self.writer.finish()
        }
    }

    /// Manages one chunked transfer per destination and pumps all of them each
    /// round.
    ///
    /// This is the sender side of the "send a set to every neighbour" steps: the
    /// per-destination payloads may have different lengths, and the whole phase
    /// lasts as many rounds as the longest of them.
    #[derive(Debug, Default)]
    pub(crate) struct MultiSender {
        /// The transfers with bits left to send, ascending by destination.
        senders: Vec<ChunkedSender>,
    }

    impl MultiSender {
        /// Creates a sender with no queued transfers.
        pub fn new() -> Self {
            Self::default()
        }

        /// Queues `payload` for `dest`, replacing any previous queued transfer
        /// to the same destination.
        pub fn queue(&mut self, dest: NodeId, payload: Payload) {
            let at = match self.senders.last() {
                // The usual "for each neighbour" loop queues in ascending order.
                Some(last) if last.dest < dest => Err(self.senders.len()),
                _ => self.senders.binary_search_by_key(&dest, |s| s.dest),
            };
            let sender = ChunkedSender::new(dest, payload);
            match (at, sender.is_done()) {
                (Ok(at), false) => self.senders[at] = sender,
                (Ok(at), true) => {
                    self.senders.remove(at);
                }
                (Err(at), false) => self.senders.insert(at, sender),
                (Err(_), true) => {}
            }
        }

        /// Whether every queued transfer has completed.
        pub fn is_done(&self) -> bool {
            self.senders.is_empty()
        }

        /// The number of rounds the slowest queued transfer still needs.
        pub fn remaining_rounds(&self, bandwidth_bits: usize) -> u64 {
            self.senders
                .iter()
                .map(|s| s.remaining_rounds(bandwidth_bits))
                .max()
                .unwrap_or(0)
        }

        /// Pumps every unfinished transfer once, in ascending destination
        /// order, and forgets the ones that finished. Returns whether
        /// everything is complete after this round.
        ///
        /// # Errors
        ///
        /// Propagates the first [`SimError`] encountered; the transfer that
        /// met it and every later one are left as they were.
        pub fn pump(&mut self, ctx: &mut RoundContext<'_>) -> Result<bool, SimError> {
            let mut failure = None;
            self.senders.retain_mut(|sender| {
                if failure.is_some() {
                    return true;
                }
                match sender.pump(ctx) {
                    Ok(done) => !done,
                    Err(e) => {
                        failure = Some(e);
                        true
                    }
                }
            });
            match failure {
                Some(e) => Err(e),
                None => Ok(self.is_done()),
            }
        }
    }

    /// Per-sender reassembly buffers for the receiving side of a phase in which
    /// several neighbours stream payloads concurrently.
    #[derive(Debug, Clone, Default)]
    pub(crate) struct MultiAssembler {
        /// One buffer per sender heard from, ascending by sender.
        buffers: Vec<(NodeId, ChunkAssembler)>,
        /// The index after the buffer last pushed to.
        next: usize,
    }

    impl MultiAssembler {
        /// Creates an empty set of buffers.
        pub fn new() -> Self {
            Self::default()
        }

        /// Appends a chunk received from `from`.
        pub fn push(&mut self, from: NodeId, chunk: &Payload) {
            // In sender order the buffer after the last one used is the
            // likeliest to be next, and a round later the first one.
            let guess = if self.next < self.buffers.len() {
                self.next
            } else {
                0
            };
            let at = match self.buffers.get(guess) {
                Some((sender, _)) if *sender == from => guess,
                _ => {
                    let at = match self.buffers.last() {
                        Some((last, _)) if *last < from => Err(self.buffers.len()),
                        _ => self
                            .buffers
                            .binary_search_by_key(&from, |(sender, _)| *sender),
                    };
                    at.unwrap_or_else(|at| {
                        self.buffers.insert(at, (from, ChunkAssembler::new()));
                        at
                    })
                }
            };
            self.buffers[at].1.push(chunk);
            self.next = at + 1;
        }

        /// Finalizes all buffers into `(sender, payload)` pairs, sorted by
        /// sender id.
        pub fn finish(self) -> Vec<(NodeId, Payload)> {
            self.buffers
                .into_iter()
                .map(|(from, asm)| (from, asm.finish()))
                .collect()
        }

        /// The senders that have contributed at least one chunk.
        pub fn senders(&self) -> impl Iterator<Item = NodeId> + '_ {
            self.buffers.iter().map(|(from, _)| *from)
        }

        /// Every sender heard from with its buffer as it stands, in ascending
        /// sender order — for a receiver that has to look at unfinished
        /// streams (how many bits have arrived, or a copy of one of them)
        /// without consuming the assembler.
        pub fn iter(&self) -> impl Iterator<Item = (NodeId, &ChunkAssembler)> + '_ {
            self.buffers.iter().map(|(from, asm)| (*from, asm))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{ChunkAssembler, ChunkedSender, MultiAssembler, MultiSender};
    use super::*;
    use std::collections::BTreeMap;

    use crate::context::Outbox;
    use crate::faults::FaultState;
    use crate::stream::Streams;
    use crate::{
        Metrics, Model, NodeInfo, NodeProgram, NodeStatus, RoundContext, SimConfig, SimError,
        Simulation,
    };
    use congest_graph::generators::Classic;
    use congest_graph::NodeId;
    use congest_wire::{BitReader, BitWriter, IdCodec, Payload};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn rounds_for_bits_is_ceiling_division() {
        assert_eq!(rounds_for_bits(0, 16), 0);
        assert_eq!(rounds_for_bits(1, 16), 1);
        assert_eq!(rounds_for_bits(16, 16), 1);
        assert_eq!(rounds_for_bits(17, 16), 2);
        assert_eq!(rounds_for_bits(160, 16), 10);
    }

    /// End-to-end: node 0 streams a long id list to node 1 over a 2-node
    /// path; node 1 reassembles and decodes it.
    struct Streamer {
        sender: Option<MultiSender>,
        assembler: MultiAssembler,
        total_rounds: u64,
        decoded: Vec<u64>,
    }

    impl Streamer {
        fn new() -> Self {
            Streamer {
                sender: None,
                assembler: MultiAssembler::new(),
                total_rounds: 0,
                decoded: Vec::new(),
            }
        }
    }

    impl NodeProgram for Streamer {
        type Output = (u64, Vec<u64>);

        fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
            // The phase length is known to both sides: the list has 40 ids.
            let codec = IdCodec::new(ctx.n() as u64);
            let payload_bits = codec.list_bit_len(40);
            let phase = rounds_for_bits(payload_bits, ctx.bandwidth_bits());

            if ctx.round() == 0 && ctx.id() == NodeId(0) {
                let ids: Vec<u64> = (0..40).collect();
                let mut w = BitWriter::new();
                codec.encode_list(&mut w, &ids);
                let mut sender = MultiSender::new();
                sender.queue(NodeId(1), w.finish());
                assert_eq!(sender.remaining_rounds(ctx.bandwidth_bits()), phase);
                self.sender = Some(sender);
            }
            for m in ctx.take_inbox() {
                self.assembler.push(m.from, &m.payload);
            }
            if let Some(sender) = self.sender.as_mut() {
                sender.pump(ctx).unwrap();
            }
            self.total_rounds = ctx.round() + 1;
            // Everyone halts one round after the phase ends (so the last
            // chunk is delivered and processed).
            if ctx.round() >= phase {
                if ctx.id() == NodeId(1) {
                    let parts = std::mem::take(&mut self.assembler).finish();
                    for (_, payload) in parts {
                        let mut r = BitReader::new(&payload);
                        self.decoded = codec.decode_list(&mut r).unwrap();
                    }
                }
                NodeStatus::Halted
            } else {
                NodeStatus::Active
            }
        }

        fn finish(&mut self) -> (u64, Vec<u64>) {
            (self.total_rounds, std::mem::take(&mut self.decoded))
        }
    }

    #[test]
    fn chunked_transfer_round_trips_across_the_simulator() {
        // A path of 64 nodes; only the link 0-1 carries the stream.
        let g = Classic::Path(64).generate();
        let report = Simulation::new(&g, SimConfig::congest(0), |_| Streamer::new()).run();
        let (_, decoded) = report.output_of(NodeId(1)).clone();
        let expected: Vec<u64> = (0..40).collect();
        assert_eq!(decoded, expected);
        // The transfer respected the bandwidth: every message is at most the
        // budget, and the number of rounds matches the ceiling division.
        let codec = IdCodec::new(64);
        let bandwidth = crate::Bandwidth::default().bits_per_round(64);
        let expected_rounds = rounds_for_bits(codec.list_bit_len(40), bandwidth) + 1;
        assert_eq!(report.metrics.rounds, expected_rounds);
    }

    #[test]
    fn multi_sender_tracks_slowest_stream() {
        let mut m = MultiSender::new();
        let mut w = BitWriter::new();
        w.write_bits(0, 40);
        m.queue(NodeId(1), w.finish());
        let mut w = BitWriter::new();
        w.write_bits(0, 10);
        m.queue(NodeId(2), w.finish());
        assert_eq!(m.remaining_rounds(16), 3);
        assert!(!m.is_done());
    }

    #[test]
    fn empty_multi_sender_is_done() {
        let m = MultiSender::new();
        assert!(m.is_done());
        assert_eq!(m.remaining_rounds(8), 0);
    }

    #[test]
    fn assembler_concatenates_in_push_order() {
        let mut asm = ChunkAssembler::new();
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        asm.push(&w.finish());
        let mut w = BitWriter::new();
        w.write_bits(0b01, 2);
        asm.push(&w.finish());
        assert_eq!(asm.bit_len(), 5);
        let p = asm.finish();
        let mut r = BitReader::new(&p);
        assert_eq!(r.read_bits(5).unwrap(), 0b10101);
    }

    /// The `BTreeMap` body [`MultiSender`] had before it moved onto the
    /// sorted list of live streams; kept as the oracle.
    #[derive(Default)]
    struct ReferenceMultiSender {
        senders: BTreeMap<NodeId, ChunkedSender>,
    }

    impl ReferenceMultiSender {
        fn queue(&mut self, dest: NodeId, payload: Payload) {
            self.senders.insert(dest, ChunkedSender::new(dest, payload));
        }

        fn is_done(&self) -> bool {
            self.senders.values().all(ChunkedSender::is_done)
        }

        fn remaining_rounds(&self, bandwidth_bits: usize) -> u64 {
            self.senders
                .values()
                .map(|s| s.remaining_rounds(bandwidth_bits))
                .max()
                .unwrap_or(0)
        }

        fn pump(&mut self, ctx: &mut RoundContext<'_>) -> Result<bool, SimError> {
            for sender in self.senders.values_mut() {
                if !sender.is_done() {
                    sender.pump(ctx)?;
                }
            }
            Ok(self.is_done())
        }
    }

    const BANDWIDTH: usize = 8;

    fn hub_info() -> NodeInfo {
        NodeInfo {
            id: NodeId(0),
            n: 8,
            neighbors: vec![NodeId(1), NodeId(2), NodeId(3)],
            model: Model::Congest,
            bandwidth_bits: BANDWIDTH,
        }
    }

    /// A stream of `chunks` chunks, the last one partial, whose bytes name
    /// the stream (`tag`) and the chunk.
    fn stream(tag: u8, chunks: usize) -> Payload {
        if chunks == 0 {
            return Payload::new();
        }
        let bytes: Vec<u8> = (0..chunks).map(|i| (tag << 4) | i as u8).collect();
        Payload::from_parts(bytes, chunks * BANDWIDTH - 3)
    }

    /// One round of node 0: `pre_queued` is sent by hand first, then
    /// `pump` runs. Returns `pump`'s result and what reached the outbox.
    fn round(
        info: &NodeInfo,
        pre_queued: Option<NodeId>,
        pump: impl FnOnce(&mut RoundContext<'_>) -> Result<bool, SimError>,
    ) -> (Result<bool, SimError>, Vec<(NodeId, Payload)>) {
        let mut inbox = Vec::new();
        let mut streams = Streams::new(info.n, info.bandwidth_bits);
        let mut faults = FaultState::new(&SimConfig::congest(0), info.n);
        let mut metrics = Metrics::new(info.n);
        let mut outbox = Outbox::default();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut ctx = RoundContext {
            info,
            round: 0,
            epoch: 0,
            inbox: Some(&mut inbox),
            streams: &mut streams,
            faults: &mut faults,
            metrics: &mut metrics,
            outbox: &mut outbox,
            rng: &mut rng,
        };
        if let Some(to) = pre_queued {
            ctx.send(to, Payload::new()).unwrap();
        }
        let result = pump(&mut ctx);
        (result, outbox.messages)
    }

    /// A re-`queue` in the middle of a phase.
    #[derive(Debug, Clone, Copy)]
    struct Requeue {
        before_round: usize,
        dest: NodeId,
        chunks: usize,
    }

    /// Drives both senders through one phase and holds them equal round
    /// by round. Returns whether the re-queue hit a stream that was still
    /// sending.
    fn assert_same_phase(lengths: [usize; 3], requeue: Option<Requeue>) -> bool {
        let info = hub_info();
        let mut live = MultiSender::new();
        let mut reference = ReferenceMultiSender::default();
        for (i, &chunks) in lengths.iter().enumerate() {
            let dest = NodeId(i as u32 + 1);
            live.queue(dest, stream(dest.0 as u8, chunks));
            reference.queue(dest, stream(dest.0 as u8, chunks));
        }
        let mut hit_busy = false;
        for r in 0..8 {
            if let Some(q) = requeue.filter(|q| q.before_round == r) {
                hit_busy = !reference.senders[&q.dest].is_done();
                live.queue(q.dest, stream(0xA, q.chunks));
                reference.queue(q.dest, stream(0xA, q.chunks));
            }
            let what = format!("{lengths:?} {requeue:?} round {r}");
            assert_eq!(live.is_done(), reference.is_done(), "{what}");
            assert_eq!(
                live.remaining_rounds(BANDWIDTH),
                reference.remaining_rounds(BANDWIDTH),
                "{what}"
            );
            let (got, sent) = round(&info, None, |ctx| live.pump(ctx));
            let (expected, reference_sent) = round(&info, None, |ctx| reference.pump(ctx));
            assert_eq!(got, expected, "{what}");
            assert_eq!(sent, reference_sent, "{what}");
            // Chunks leave in ascending destination order.
            assert!(sent.windows(2).all(|w| w[0].0 < w[1].0), "{what}");
        }
        assert!(live.is_done() && reference.is_done());
        hit_busy
    }

    #[test]
    fn multi_sender_matches_the_btree_reference_on_every_small_phase() {
        let (mut busy, mut finished) = (0, 0);
        for code in 0..4usize.pow(3) {
            let lengths = [code % 4, code / 4 % 4, code / 16];
            assert_same_phase(lengths, None);
            for before_round in [1, 2] {
                for dest in 1..=3 {
                    for chunks in 0..=2 {
                        let requeue = Requeue {
                            before_round,
                            dest: NodeId(dest),
                            chunks,
                        };
                        if assert_same_phase(lengths, Some(requeue)) {
                            busy += 1;
                        } else {
                            finished += 1;
                        }
                    }
                }
            }
        }
        // The enumeration replaced streams in mid-flight and re-opened
        // destinations whose stream had ended (or never existed).
        assert!(busy > 100 && finished > 100, "{busy} {finished}");
    }

    #[test]
    fn a_duplicate_destination_stops_the_pump_where_the_reference_stops() {
        let info = hub_info();
        for blocked in 1..=3 {
            let mut live = MultiSender::new();
            let mut reference = ReferenceMultiSender::default();
            for dest in 1..=3u32 {
                live.queue(NodeId(dest), stream(dest as u8, 2));
                reference.queue(NodeId(dest), stream(dest as u8, 2));
            }
            // The program already sent to `blocked` by hand this round.
            let blocked = NodeId(blocked);
            let (got, sent) = round(&info, Some(blocked), |ctx| live.pump(ctx));
            let (expected, reference_sent) = round(&info, Some(blocked), |ctx| reference.pump(ctx));
            assert_eq!(
                got,
                Err(SimError::DuplicateMessage {
                    from: NodeId(0),
                    to: blocked
                })
            );
            assert_eq!(got, expected);
            assert_eq!(sent, reference_sent);
            // Streams before `blocked` moved on by a chunk; `blocked` and
            // the ones after it did not, so the phase now needs two more
            // rounds whichever one it was.
            for _ in 0..3 {
                assert_eq!(live.is_done(), reference.is_done());
                assert_eq!(
                    live.remaining_rounds(BANDWIDTH),
                    reference.remaining_rounds(BANDWIDTH)
                );
                let (got, sent) = round(&info, None, |ctx| live.pump(ctx));
                let (expected, reference_sent) = round(&info, None, |ctx| reference.pump(ctx));
                assert_eq!(got, expected);
                assert_eq!(sent, reference_sent);
            }
            assert!(live.is_done());
        }
    }

    #[test]
    fn multi_assembler_is_sender_sorted_whatever_the_push_order() {
        let chunk = |byte: u8| Payload::from_parts(vec![byte], 8);
        let mut asm = MultiAssembler::new();
        // Round one in sender order (appends), with a duplicated message
        // next to its original; round two revisits; then a late, low
        // sender and an out-of-order push.
        for (from, byte) in [(2, 0x20), (5, 0x50), (5, 0x51), (9, 0x90)] {
            asm.push(NodeId(from), &chunk(byte));
        }
        for (from, byte) in [(2, 0x21), (9, 0x91), (1, 0x10), (7, 0x70), (5, 0x52)] {
            asm.push(NodeId(from), &chunk(byte));
        }
        let senders: Vec<u32> = asm.senders().map(|v| v.0).collect();
        assert_eq!(senders, vec![1, 2, 5, 7, 9]);
        let lengths: Vec<(u32, usize)> = asm.iter().map(|(v, a)| (v.0, a.bit_len())).collect();
        assert_eq!(lengths, vec![(1, 8), (2, 16), (5, 24), (7, 8), (9, 16)]);
        let parts = asm.finish();
        let bytes: Vec<(u32, &[u8])> = parts.iter().map(|(v, p)| (v.0, p.as_bytes())).collect();
        assert_eq!(
            bytes,
            vec![
                (1, &[0x10][..]),
                (2, &[0x20, 0x21][..]),
                (5, &[0x50, 0x51, 0x52][..]),
                (7, &[0x70][..]),
                (9, &[0x90, 0x91][..]),
            ]
        );
    }
}
