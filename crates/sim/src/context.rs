//! The per-round execution context handed to node programs.

use congest_graph::NodeId;
use congest_wire::{IdCodec, Payload};
use rand::rngs::SmallRng;

use crate::faults::FaultState;
use crate::stream::Streams;
use crate::{Metrics, Model, NodeInfo, SimError};

/// A message delivered to a node at the start of a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceivedMessage {
    /// The sender.
    pub from: NodeId,
    /// The message contents.
    pub payload: Payload,
}

/// Messages queued by a node during one round, at most one per
/// destination.
///
/// Kept sorted by destination so iteration (and therefore metric
/// accumulation and delivery) is deterministic. A plain `Vec`, so the
/// sequential engine drains and reuses one buffer for every node; sends
/// in ascending destination order — the usual "for each neighbour" loop
/// — append without searching.
#[derive(Debug, Default)]
pub(crate) struct Outbox {
    pub(crate) messages: Vec<(NodeId, Payload)>,
}

impl Outbox {
    /// The index of the message queued for `to`, or where one would go.
    fn position(&self, to: NodeId) -> Result<usize, usize> {
        match self.messages.last() {
            Some((last, _)) if to > *last => Err(self.messages.len()),
            _ => self.messages.binary_search_by_key(&to, |(dest, _)| *dest),
        }
    }
}

/// Everything a node program can see and do during one round.
///
/// The context exposes only model-legal information: the node's static
/// [`NodeInfo`], the messages received this round, the stream bits
/// delivered so far, a deterministic RNG, and validated send and stream
/// operations.
pub struct RoundContext<'a> {
    pub(crate) info: &'a NodeInfo,
    pub(crate) round: u64,
    pub(crate) epoch: u64,
    /// `None` once [`take_inbox`](RoundContext::take_inbox) has handed
    /// the buffer's borrow to its drain.
    pub(crate) inbox: Option<&'a mut Vec<ReceivedMessage>>,
    /// Every node's streams; this node opens its own and takes what was
    /// sent to it.
    pub(crate) streams: &'a mut Streams,
    /// The fault layer a stream's chunks draw from when it settles.
    pub(crate) faults: &'a mut FaultState,
    /// The epoch's metrics, which a stream is booked in when it settles.
    pub(crate) metrics: &'a mut Metrics,
    pub(crate) outbox: &'a mut Outbox,
    pub(crate) rng: &'a mut SmallRng,
}

impl<'a> RoundContext<'a> {
    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.info.id
    }

    /// Number of nodes in the network.
    pub fn n(&self) -> usize {
        self.info.n
    }

    /// The current round number within the epoch (the first round is 0;
    /// numbering restarts every epoch).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The current epoch of a resumable simulation (0 for the first —
    /// and, in one-shot usage, only — epoch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The communication model of the run.
    pub fn model(&self) -> Model {
        self.info.model
    }

    /// Per-message bandwidth budget in bits.
    pub fn bandwidth_bits(&self) -> usize {
        self.info.bandwidth_bits
    }

    /// Sorted neighbour list in the input graph.
    pub fn neighbors(&self) -> &[NodeId] {
        &self.info.neighbors
    }

    /// Degree in the input graph.
    pub fn degree(&self) -> usize {
        self.info.neighbors.len()
    }

    /// Static node information.
    pub fn info(&self) -> &NodeInfo {
        self.info
    }

    /// Messages delivered to this node at the start of this round.
    pub fn inbox(&self) -> &[ReceivedMessage] {
        self.inbox.as_deref().map_or(&[], Vec::as_slice)
    }

    /// Takes ownership of the messages, leaving the inbox empty.
    ///
    /// Useful when the handler wants to iterate over the messages while also
    /// sending, which a borrowed inbox would prevent. The messages are
    /// drained out of the engine's buffer, in sender order, so the buffer
    /// keeps its capacity for the rounds to come; whatever the caller does
    /// not consume is dropped. The borrow moves into the returned
    /// iterator, not into `self`, and a second call in the same round
    /// yields nothing.
    pub fn take_inbox(&mut self) -> impl Iterator<Item = ReceivedMessage> + 'a {
        self.inbox
            .take()
            .into_iter()
            .flat_map(|inbox| inbox.drain(..))
    }

    /// This node's deterministic random generator.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// A codec for single identifiers and identifier lists over the domain
    /// `0..n`, matching the `O(log n)`-bit accounting of the model.
    pub fn id_codec(&self) -> IdCodec {
        IdCodec::new(self.info.n as u64)
    }

    /// Queues a message of `payload` to `to`, to be delivered at the start
    /// of the next round.
    ///
    /// # Errors
    ///
    /// * [`SimError::BandwidthExceeded`] if the payload is larger than the
    ///   per-message budget.
    /// * [`SimError::InvalidDestination`] if `to` is this node, is not a
    ///   node of the network, or (in the CONGEST model) is not a neighbour.
    /// * [`SimError::DuplicateMessage`] if a message to `to` was already
    ///   queued this round, or a stream to `to` still has bits to send.
    pub fn send(&mut self, to: NodeId, payload: Payload) -> Result<(), SimError> {
        let from = self.info.id;
        self.check_destination(to)?;
        if payload.bit_len() > self.info.bandwidth_bits {
            return Err(SimError::BandwidthExceeded {
                from,
                to,
                bits: payload.bit_len(),
                budget: self.info.bandwidth_bits,
            });
        }
        if self.streams.is_streaming(from.index(), to, self.round) {
            return Err(SimError::DuplicateMessage { from, to });
        }
        match self.outbox.position(to) {
            Ok(_) => Err(SimError::DuplicateMessage { from, to }),
            Err(at) => {
                self.outbox.messages.insert(at, (to, payload));
                Ok(())
            }
        }
    }

    /// Opens a transfer of `payload` to `to` that occupies the link for
    /// as many rounds as the bandwidth needs: `⌈bits / B⌉` of them,
    /// starting with this one. In each of them the next `B` bits (or what
    /// is left) count as one message on that link — booked, and subject to
    /// faults, exactly like a [`send`](RoundContext::send) of that chunk —
    /// and the receiver's [`take_streams`](RoundContext::take_streams)
    /// collects a round's chunk from the next round on. The simulator does
    /// not move the chunks one by one: it settles the stream when it is
    /// read, cut or the epoch ends, with the same result. The stream keeps
    /// sending while this node sleeps, and stops when it halts or the epoch
    /// ends. An empty payload sends nothing.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidDestination`] as for
    ///   [`send`](RoundContext::send).
    /// * [`SimError::DuplicateMessage`] if a message to `to` was already
    ///   queued this round, or a stream to `to` still has bits to send.
    pub fn stream(&mut self, to: NodeId, payload: Payload) -> Result<(), SimError> {
        self.check_destination(to)?;
        if self.has_queued(to) {
            return Err(SimError::DuplicateMessage {
                from: self.info.id,
                to,
            });
        }
        let from = self.info.id.index();
        self.streams
            .open(from, to, payload, self.round, self.faults, self.metrics);
        Ok(())
    }

    /// Takes the stream bits delivered to this node before this round and
    /// not taken yet: one bit string per sender, ascending by sender, each
    /// the concatenation of what arrived from it in arrival order — a
    /// whole stream once its phase is over, the part delivered so far
    /// while it still runs. Bits sent this round are not among them.
    pub fn take_streams(&mut self) -> Vec<(NodeId, Payload)> {
        self.streams
            .take(self.info.id.index(), self.round, self.faults, self.metrics)
    }

    /// Whether this round's turn on the link to `to` is taken: a message
    /// to `to` is queued, or a stream to `to` still has bits to send.
    pub fn has_queued(&self, to: NodeId) -> bool {
        self.outbox.position(to).is_ok()
            || self
                .streams
                .is_streaming(self.info.id.index(), to, self.round)
    }

    /// Fails unless `to` is another node this one may talk to.
    fn check_destination(&self, to: NodeId) -> Result<(), SimError> {
        let from = self.info.id;
        let reachable = to != from
            && to.index() < self.info.n
            && (self.info.model == Model::CongestClique || self.info.is_neighbor(to));
        if reachable {
            Ok(())
        } else {
            Err(SimError::InvalidDestination { from, to })
        }
    }
}

/// `id` alone as a payload in `codec`'s width: the message the
/// simulator's own tests send most.
#[cfg(test)]
pub(crate) fn id_payload(codec: IdCodec, id: u64) -> Payload {
    let mut w = congest_wire::BitWriter::new();
    codec.encode(&mut w, id);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_wire::{BitReader, BitWriter};
    use rand::SeedableRng;

    fn info() -> NodeInfo {
        NodeInfo {
            id: NodeId(0),
            n: 8,
            neighbors: vec![NodeId(1), NodeId(2)],
            model: Model::Congest,
            bandwidth_bits: 16,
        }
    }

    fn with_ctx<R>(info: &NodeInfo, f: impl FnOnce(&mut RoundContext<'_>) -> R) -> (R, Outbox) {
        let mut inbox = Vec::new();
        let mut streams = Streams::new(info.n, info.bandwidth_bits);
        let mut faults = FaultState::new(&crate::SimConfig::congest(0), info.n);
        let mut metrics = Metrics::new(info.n);
        let mut outbox = Outbox::default();
        let mut rng = SmallRng::seed_from_u64(1);
        let r = {
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
            f(&mut ctx)
        };
        (r, outbox)
    }

    #[test]
    fn send_to_neighbor_succeeds() {
        let info = info();
        let (res, outbox) = with_ctx(&info, |ctx| {
            let p = id_payload(ctx.id_codec(), 5);
            ctx.send(NodeId(1), p)
        });
        assert!(res.is_ok());
        assert_eq!(outbox.messages.len(), 1);
    }

    #[test]
    fn send_to_non_neighbor_fails_in_congest() {
        let info = info();
        let (res, _) = with_ctx(&info, |ctx| ctx.send(NodeId(3), Payload::new()));
        assert_eq!(
            res.unwrap_err(),
            SimError::InvalidDestination {
                from: NodeId(0),
                to: NodeId(3)
            }
        );
    }

    #[test]
    fn send_to_non_neighbor_succeeds_in_clique() {
        let mut i = info();
        i.model = Model::CongestClique;
        let (res, _) = with_ctx(&i, |ctx| ctx.send(NodeId(7), Payload::new()));
        assert!(res.is_ok());
    }

    #[test]
    fn send_to_self_or_out_of_range_fails() {
        let info = info();
        let (res, _) = with_ctx(&info, |ctx| ctx.send(NodeId(0), Payload::new()));
        assert!(matches!(res, Err(SimError::InvalidDestination { .. })));
        let (res, _) = with_ctx(&info, |ctx| ctx.send(NodeId(100), Payload::new()));
        assert!(matches!(res, Err(SimError::InvalidDestination { .. })));
    }

    #[test]
    fn bandwidth_is_enforced() {
        let info = info();
        let (res, _) = with_ctx(&info, |ctx| {
            let mut w = BitWriter::new();
            w.write_bits(0, 17); // 17 > 16-bit budget
            ctx.send(NodeId(1), w.finish())
        });
        assert!(matches!(
            res,
            Err(SimError::BandwidthExceeded { bits: 17, .. })
        ));
    }

    #[test]
    fn duplicate_send_is_rejected() {
        let info = info();
        let (res, _) = with_ctx(&info, |ctx| {
            ctx.send(NodeId(1), Payload::new()).unwrap();
            assert!(ctx.has_queued(NodeId(1)));
            ctx.send(NodeId(1), Payload::new())
        });
        assert!(matches!(res, Err(SimError::DuplicateMessage { .. })));
    }

    #[test]
    fn outbox_is_destination_sorted_whatever_the_send_order() {
        let mut i = info();
        i.model = Model::CongestClique;
        let (res, outbox) = with_ctx(&i, |ctx| {
            for to in [5, 2, 7, 1, 6] {
                ctx.send(NodeId(to), id_payload(ctx.id_codec(), u64::from(to)))
                    .unwrap();
            }
            assert!(ctx.has_queued(NodeId(1)) && ctx.has_queued(NodeId(7)));
            assert!(!ctx.has_queued(NodeId(3)) && !ctx.has_queued(NodeId(8)));
            ctx.send(NodeId(2), Payload::new())
        });
        assert!(matches!(res, Err(SimError::DuplicateMessage { .. })));
        let dests: Vec<u32> = outbox.messages.iter().map(|(to, _)| to.0).collect();
        assert_eq!(dests, vec![1, 2, 5, 6, 7]);
        // Each payload stayed with its destination.
        let codec = IdCodec::new(8);
        for (to, payload) in &outbox.messages {
            let id = codec.decode(&mut BitReader::new(payload)).unwrap();
            assert_eq!(id, u64::from(to.0));
        }
    }

    #[test]
    fn id_payload_codec_round_trips() {
        let info = info();
        let ((), _) = with_ctx(&info, |ctx| {
            let codec = ctx.id_codec();
            assert_eq!(codec.width(), 3);
            let p = id_payload(codec, 6);
            assert_eq!(codec.decode(&mut BitReader::new(&p)).unwrap(), 6);
            let mut w = BitWriter::new();
            codec.encode_list(&mut w, &[1, 2, 7]);
            let p = w.finish();
            assert_eq!(
                codec.decode_list(&mut BitReader::new(&p)).unwrap(),
                vec![1, 2, 7]
            );
        });
    }

    #[test]
    fn take_inbox_empties_the_inbox() {
        let info = info();
        let mut inbox = Vec::with_capacity(8);
        inbox.push(ReceivedMessage {
            from: NodeId(1),
            payload: Payload::new(),
        });
        let mut streams = Streams::new(info.n, info.bandwidth_bits);
        let mut faults = FaultState::new(&crate::SimConfig::congest(0), info.n);
        let mut metrics = Metrics::new(info.n);
        let mut outbox = Outbox::default();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ctx = RoundContext {
            info: &info,
            round: 3,
            epoch: 1,
            inbox: Some(&mut inbox),
            streams: &mut streams,
            faults: &mut faults,
            metrics: &mut metrics,
            outbox: &mut outbox,
            rng: &mut rng,
        };
        assert_eq!(ctx.round(), 3);
        assert_eq!(ctx.epoch(), 1);
        assert_eq!(ctx.inbox().len(), 1);
        let taken: Vec<_> = ctx.take_inbox().collect();
        assert_eq!(taken.len(), 1);
        assert!(ctx.inbox().is_empty());
        // Taken once a round; the buffer stays the engine's, allocation
        // and all.
        assert_eq!(ctx.take_inbox().count(), 0);
        assert!(inbox.is_empty());
        assert_eq!(inbox.capacity(), 8);
    }
}
