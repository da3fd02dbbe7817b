//! Chunked multi-round transfers.
//!
//! Several steps of the paper's algorithms ship payloads much larger than
//! one message: "node `j` sends the set `S_j` to each neighbour" (Algorithm
//! A1), "node `k` sends `S^X_U(j,k)` to `j`" (Algorithm A(X,r) step 4.1),
//! etc. Under the CONGEST budget such a transfer occupies the link for
//! `⌈bits / B⌉` consecutive rounds. [`ChunkedSender`] performs exactly that
//! fragmentation; [`ChunkAssembler`] re-assembles the bit stream on the
//! receiving side; [`MultiSender`] manages one chunked stream per
//! destination and pumps them all each round, which is how "send a
//! (different) set to every neighbour in parallel" steps are realized.
//!
//! The helpers do not add any framing of their own: algorithms send
//! self-delimiting payloads (length-prefixed lists) and run each transfer
//! inside a phase whose length all nodes can compute from `n`, `ε`, `r` and
//! the bandwidth, exactly as the paper's round accounting assumes.
//!
//! **Cost model.** Cutting or absorbing a chunk costs `O(chunk bits)` on
//! the host, wherever in the payload it sits: the sender seeks with
//! [`BitReader::skip`] and both sides move bits with
//! [`BitWriter::append`], so a whole transfer is linear in its length.

use std::collections::BTreeMap;

use congest_graph::NodeId;
use congest_wire::{BitReader, BitWriter, Payload};

use crate::{RoundContext, SimError};

/// Number of rounds a payload of `payload_bits` bits occupies a link whose
/// per-round budget is `bandwidth_bits`.
///
/// The empty payload still takes one round when `always_send_one` transfers
/// are used; this helper reports 0 for it, matching [`ChunkedSender`], which
/// sends nothing for an empty payload.
pub fn rounds_for_bits(payload_bits: usize, bandwidth_bits: usize) -> u64 {
    assert!(bandwidth_bits > 0, "bandwidth must be positive");
    (payload_bits as u64).div_ceil(bandwidth_bits as u64)
}

/// Sends one long payload to one destination over as many rounds as needed.
///
/// Call [`ChunkedSender::pump`] exactly once per round until
/// [`ChunkedSender::is_done`] turns true.
#[derive(Debug, Clone)]
pub struct ChunkedSender {
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

    /// The destination node.
    pub fn dest(&self) -> NodeId {
        self.dest
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
pub struct ChunkAssembler {
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
pub struct MultiSender {
    senders: BTreeMap<NodeId, ChunkedSender>,
}

impl MultiSender {
    /// Creates a sender with no queued transfers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues `payload` for `dest`, replacing any previous queued transfer
    /// to the same destination.
    pub fn queue(&mut self, dest: NodeId, payload: Payload) {
        self.senders.insert(dest, ChunkedSender::new(dest, payload));
    }

    /// Whether every queued transfer has completed.
    pub fn is_done(&self) -> bool {
        self.senders.values().all(ChunkedSender::is_done)
    }

    /// The number of rounds the slowest queued transfer still needs.
    pub fn remaining_rounds(&self, bandwidth_bits: usize) -> u64 {
        self.senders
            .values()
            .map(|s| s.remaining_rounds(bandwidth_bits))
            .max()
            .unwrap_or(0)
    }

    /// Pumps every unfinished transfer once. Returns whether everything is
    /// complete after this round.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`] encountered.
    pub fn pump(&mut self, ctx: &mut RoundContext<'_>) -> Result<bool, SimError> {
        for sender in self.senders.values_mut() {
            if !sender.is_done() {
                sender.pump(ctx)?;
            }
        }
        Ok(self.is_done())
    }
}

/// Per-sender reassembly buffers for the receiving side of a phase in which
/// several neighbours stream payloads concurrently.
#[derive(Debug, Clone, Default)]
pub struct MultiAssembler {
    buffers: BTreeMap<NodeId, ChunkAssembler>,
}

impl MultiAssembler {
    /// Creates an empty set of buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a chunk received from `from`.
    pub fn push(&mut self, from: NodeId, chunk: &Payload) {
        self.buffers.entry(from).or_default().push(chunk);
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
        self.buffers.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeProgram, NodeStatus, RoundContext, SimConfig, Simulation};
    use congest_graph::generators::Classic;
    use congest_wire::{BitWriter, IdCodec};

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
}
