//! The two ends of one convergecast link — a child streaming its
//! aggregate to its parent — as plain state machines: they see rounds
//! and payloads, never a `RoundContext`, so every loss pattern can be
//! enumerated against them (the tests below do).
//!
//! On a quiet engine the link is what it always was: the child sends
//! one chunk a round and is done, the parent appends what arrives. On a
//! hardened engine the link is **acknowledged** (go-back-N): chunks
//! carry a sequence number, the parent answers every chunk with the
//! sequence number it expects next, and a child whose acknowledgement
//! does not arrive in the round it is due resends from its first
//! unacknowledged chunk. The parent → child direction of a forest link
//! is otherwise idle during the convergecast, so the answers cost the
//! protocol no rounds; a parent answers once per child per round, in
//! order or not. An empty aggregate stays the one-bit chunk `[more = 0]`
//! — the only 1-bit message there is, so no lost or flipped bit can
//! forge it. A lost chunk or acknowledgement thus costs its link one
//! round trip, and the epoch that much only if the link is on the
//! critical path. Each constant below says why it has its value; the
//! per-node deadline behind them is in [`recovery`](super::recovery).

use congest_wire::{BitWriter, Payload};

use super::wire::{self, SEQ_SPACE};

/// Rounds after sending a chunk in which its acknowledgement is due: the
/// chunk is read one round later, answered in that round, and the answer
/// read one round after that. The network is synchronous, so an
/// acknowledgement that is not there by then is not late — it is lost.
pub(super) const ACK_TIMEOUT_ROUNDS: u64 = 2;

/// Chunks a child may have unacknowledged at once. Equal to the round
/// trip, so a link on which nothing is lost carries one new chunk every
/// round; a wider window would buy nothing.
pub(super) const WINDOW: usize = 2;

/// Consecutive resends that may go unanswered before a child gives the
/// link up (latching trouble, so the epoch is counted as degraded).
/// Sized like the repair loop's attempt budget: at any loss rate the
/// protocol is meant for, eight straight losses on one link do not
/// happen, and a link that is really dead is abandoned after eighteen
/// rounds instead of holding the epoch until the deadline.
pub(super) const MAX_LINK_RESENDS: u32 = 8;

/// Rounds a parent stays up after its last acknowledgement, so that a
/// child whose final acknowledgement was lost — and who therefore
/// resends its last chunk every [`ACK_TIMEOUT_ROUNDS`] — can be answered
/// again. Three resend opportunities: a child is left stranded only if
/// the acknowledgement *and* three resends in a row are lost. (With a
/// single chance, a child is stranded whenever the acknowledgement and
/// its one resend are both lost: at 1 % drop on 2 000 links that
/// degraded 4 epochs in 40.)
pub(super) const LINGER_ROUNDS: u64 = 3 * ACK_TIMEOUT_ROUNDS;

/// The child's end: streams a serialized aggregate to the parent. It
/// keeps the stream itself — in place when it fits a message's 30 bytes
/// — and cuts chunk *i* out of it whenever chunk *i* is sent, a
/// go-back-N resend included ([`wire::chunk_at`]).
pub(super) struct LinkSender {
    stream: Payload,
    bandwidth_bits: usize,
    /// How many chunks the stream is cut into.
    chunks: usize,
    /// Whether the parent acknowledges (hardened, sequenced chunks) or
    /// every transmission counts as delivered (quiet).
    acknowledged: bool,
    /// Index of the first chunk the parent has not acknowledged.
    base: usize,
    /// The rounds in which chunks `base..` were last transmitted, oldest
    /// first: the first `in_flight` entries.
    sent: [u64; WINDOW],
    in_flight: usize,
    /// Timeouts since the parent last acknowledged anything new.
    resends: u32,
    gave_up: bool,
}

impl LinkSender {
    /// A sender of `stream` in chunks of `bandwidth_bits`, sequenced if
    /// and only if `acknowledged`.
    pub(super) fn new(stream: Payload, bandwidth_bits: usize, acknowledged: bool) -> Self {
        LinkSender {
            chunks: wire::chunk_count(stream.bit_len(), bandwidth_bits, acknowledged),
            stream,
            bandwidth_bits,
            acknowledged,
            base: 0,
            sent: [0; WINDOW],
            in_flight: 0,
            resends: 0,
            gave_up: false,
        }
    }

    /// Chunk `index`, framed for this link.
    fn chunk(&self, index: usize) -> Payload {
        wire::chunk_at(&self.stream, index, self.bandwidth_bits, self.acknowledged)
    }

    /// Absorbs one message from the parent. Anything that is not an
    /// acknowledgement of a chunk in flight — a corrupted one, a repeat
    /// of an old one — changes nothing.
    pub(super) fn on_ack(&mut self, ack: &Payload) {
        let Some(expected) = wire::parse_ack(ack) else {
            return;
        };
        let advance = (expected + SEQ_SPACE - self.base % SEQ_SPACE) % SEQ_SPACE;
        if advance == 0 || advance > self.in_flight {
            return;
        }
        self.base += advance;
        self.sent.copy_within(advance..self.in_flight, 0);
        self.in_flight -= advance;
        self.resends = 0;
    }

    /// The chunk to transmit in `round`, if any. Call once a round,
    /// after [`on_ack`](LinkSender::on_ack).
    pub(super) fn poll(&mut self, round: u64) -> Option<Payload> {
        if self.finished() {
            return None;
        }
        if !self.acknowledged {
            self.base += 1;
            return Some(self.chunk(self.base - 1));
        }
        let overdue = self.in_flight > 0 && round >= self.sent[0] + ACK_TIMEOUT_ROUNDS;
        if overdue {
            if self.resends == MAX_LINK_RESENDS {
                self.gave_up = true;
                return None;
            }
            self.resends += 1;
            // Go back: everything from `base` on is sent again.
            self.in_flight = 0;
        }
        let next = self.base + self.in_flight;
        if self.in_flight == WINDOW || next == self.chunks {
            return None;
        }
        self.sent[self.in_flight] = round;
        self.in_flight += 1;
        Some(self.chunk(next))
    }

    /// Whether the link is done with: every chunk acknowledged (or, on
    /// a quiet engine, sent), or given up.
    pub(super) fn finished(&self) -> bool {
        self.gave_up || self.base == self.chunks
    }

    /// Whether the sender stopped because [`MAX_LINK_RESENDS`] resends
    /// in a row went unanswered.
    pub(super) fn gave_up(&self) -> bool {
        self.gave_up
    }
}

/// What a [`LinkReceiver`] made of one message.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum Receipt {
    /// Not a chunk at all (no bits, or a header with nothing behind
    /// it): to be treated as lost, not answered.
    Garbled,
    /// A chunk, appended or discarded; answer it.
    Chunk,
    /// The chunk that completed the stream; answer it.
    Complete(Payload),
}

/// The parent's end: reassembles one child's stream.
pub(super) struct LinkReceiver {
    /// Whether chunks are sequenced and answered (hardened) or taken as
    /// they come (quiet).
    acknowledged: bool,
    /// Chunks appended so far; modulo [`SEQ_SPACE`] the sequence number
    /// expected next.
    accepted: usize,
    buf: BitWriter,
    complete: bool,
    /// The round of the latest message that called for an answer.
    last_answer: Option<u64>,
}

impl LinkReceiver {
    /// A receiver for one child's stream.
    pub(super) fn new(acknowledged: bool) -> Self {
        LinkReceiver {
            acknowledged,
            accepted: 0,
            buf: BitWriter::new(),
            complete: false,
            last_answer: None,
        }
    }

    /// Absorbs one message the child sent, read in `round`. A hardened
    /// receiver appends the chunk only if it carries the sequence number
    /// expected next and the stream is still open — duplicates, chunks
    /// behind a gap and resends of a finished stream are discarded.
    pub(super) fn on_chunk(&mut self, round: u64, message: &Payload) -> Receipt {
        let Some(mut chunk) = wire::parse_chunk(message, self.acknowledged) else {
            return Receipt::Garbled;
        };
        if self.acknowledged {
            self.last_answer = Some(round);
        }
        // The flag-only empty stream parses as sequence number 0.
        let in_order = !self.acknowledged || chunk.seq == self.accepted % SEQ_SPACE;
        if self.complete || !in_order {
            return Receipt::Chunk;
        }
        let len = chunk.data.remaining();
        self.buf
            .append(&mut chunk.data, len)
            .expect("the rest of the chunk");
        self.accepted += 1;
        if chunk.more {
            return Receipt::Chunk;
        }
        self.complete = true;
        Receipt::Complete(std::mem::take(&mut self.buf).finish())
    }

    /// The acknowledgement to answer the child with.
    pub(super) fn ack(&self) -> Payload {
        wire::ack_payload(self.accepted)
    }

    /// Whether the child may still be waiting for an answer it did not
    /// get: the parent must not halt before `round` has left the window
    /// in which a resend would arrive.
    pub(super) fn lingering(&self, round: u64) -> bool {
        self.last_answer
            .is_some_and(|answered| round < answered + LINGER_ROUNDS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::{NodeId, Triangle};
    use congest_wire::IdCodec;

    const N: usize = 64;

    /// Rounds after which a parent in these tests stops waiting — the
    /// node program's deadline. Far more than a sender needs to exhaust
    /// its resends from any state.
    const DEADLINE: u64 = 80;

    /// A checked aggregate of one triangle and the bandwidth at which it
    /// frames into exactly `chunks` sequenced chunks.
    fn stream_of(chunks: usize) -> (Payload, usize) {
        let dead = [Triangle::new(NodeId(3), NodeId(10), NodeId(40))];
        let stream = wire::serialize_aggregate(IdCodec::new(N as u64), &dead, &[], true);
        let bandwidth = stream.bit_len().div_ceil(chunks) + 1 + wire::SEQ_BITS;
        assert_eq!(wire::chunk_stream(&stream, bandwidth, true).len(), chunks);
        (stream, bandwidth)
    }

    /// What the channel does to the `index`-th transmission in one
    /// direction.
    #[derive(Clone, Copy, PartialEq)]
    enum Fault {
        None,
        /// Lose the transmissions whose bit is set (first 8 only).
        Lose(u8),
        Duplicate(usize),
        Flip(usize, usize),
    }

    impl Fault {
        /// The copies of `payload`, sent as transmission `index`, that
        /// arrive.
        fn apply(self, index: usize, payload: Payload) -> Vec<Payload> {
            match self {
                Fault::Lose(mask) if index < 8 && (mask >> index) & 1 == 1 => Vec::new(),
                Fault::Duplicate(at) if at == index => vec![payload.clone(), payload],
                Fault::Flip(at, bit) if at == index && bit < payload.bit_len() => {
                    vec![payload.with_flipped_bit(bit)]
                }
                _ => vec![payload],
            }
        }
    }

    struct Outcome {
        /// The stream the parent reassembled and verified, if any.
        accepted: Option<Payload>,
        /// Whether either side latched trouble.
        trouble: bool,
        /// The rounds in which the child and the parent stopped.
        child_stopped: u64,
        parent_stopped: u64,
    }

    /// Drives one sender/receiver pair exactly as the node program
    /// does: messages sent in round `r` are read in round `r + 1`, the
    /// parent answers each child at most once a round, halts once the
    /// stream is complete and the linger window has passed (or at the
    /// deadline), and verifies what it reassembled.
    fn run(stream: &Payload, bandwidth: usize, up: Fault, down: Fault) -> Outcome {
        let codec = IdCodec::new(N as u64);
        let mut tx = LinkSender::new(stream.clone(), bandwidth, true);
        let mut rx = LinkReceiver::new(true);
        let (mut to_parent, mut to_child): (Vec<Payload>, Vec<Payload>) = (Vec::new(), Vec::new());
        let (mut sent_up, mut sent_down) = (0usize, 0usize);
        let mut accepted = None;
        let mut trouble = false;
        let (mut child_stopped, mut parent_stopped) = (None, None);
        for round in 0..=DEADLINE + 2 * LINGER_ROUNDS {
            let (chunks, acks) = (
                std::mem::take(&mut to_parent),
                std::mem::take(&mut to_child),
            );
            if child_stopped.is_none() {
                for ack in &acks {
                    tx.on_ack(ack);
                }
                if let Some(chunk) = tx.poll(round) {
                    assert!(chunk.bit_len() <= bandwidth);
                    to_parent = up.apply(sent_up, chunk);
                    sent_up += 1;
                }
                if tx.finished() {
                    trouble |= tx.gave_up();
                    child_stopped = Some(round);
                }
            }
            if parent_stopped.is_none() {
                let mut answer = false;
                for chunk in &chunks {
                    match rx.on_chunk(round, chunk) {
                        Receipt::Garbled => {}
                        Receipt::Chunk => answer = true,
                        Receipt::Complete(rebuilt) => {
                            answer = true;
                            let (mut dead, mut born) = (Vec::new(), Vec::new());
                            match wire::decode_aggregate(
                                codec, N, &rebuilt, true, &mut dead, &mut born,
                            ) {
                                Ok(_) => accepted = Some(rebuilt),
                                Err(_) => trouble = true,
                            }
                        }
                    }
                }
                if answer {
                    to_child = down.apply(sent_down, rx.ack());
                    sent_down += 1;
                }
                let done = accepted.is_some() || trouble;
                if round >= DEADLINE && !done {
                    trouble = true;
                    parent_stopped = Some(round);
                } else if done && !rx.lingering(round) {
                    parent_stopped = Some(round);
                }
            }
        }
        Outcome {
            accepted,
            trouble,
            child_stopped: child_stopped.expect("the child stops"),
            parent_stopped: parent_stopped.expect("the parent stops"),
        }
    }

    /// The contract every run must meet, whatever the channel did.
    fn check(stream: &Payload, outcome: &Outcome, what: &str) {
        // Exactly the stream, or trouble — never a different stream.
        match &outcome.accepted {
            Some(accepted) => assert_eq!(accepted, stream, "{what}: a different stream"),
            None => assert!(outcome.trouble, "{what}: nothing accepted, nothing latched"),
        }
        // A sender is silenced for at most MAX_LINK_RESENDS + 1
        // timeouts in a row, and the faults end after 8 transmissions
        // each way, so both sides stop well before the deadline unless
        // the stream was really abandoned.
        assert!(outcome.child_stopped <= DEADLINE, "{what}: child ran on");
        assert!(
            outcome.parent_stopped <= DEADLINE + LINGER_ROUNDS,
            "{what}: parent ran on"
        );
        if !outcome.trouble {
            let bound = 2 * 16 * ACK_TIMEOUT_ROUNDS + LINGER_ROUNDS;
            assert!(
                outcome.child_stopped <= bound && outcome.parent_stopped <= bound,
                "{what}: a clean link took {} / {} rounds",
                outcome.child_stopped,
                outcome.parent_stopped
            );
        }
    }

    fn cases() -> Vec<(Payload, usize)> {
        let mut cases: Vec<_> = (1..=4).map(stream_of).collect();
        // The flag-only empty stream, at the narrowest hardened budget.
        cases.push((Payload::new(), 1 + wire::SEQ_BITS + 1));
        cases
    }

    #[test]
    fn a_clean_link_runs_at_full_rate() {
        for (stream, bandwidth) in cases() {
            let chunks = wire::chunk_stream(&stream, bandwidth, true).len() as u64;
            let outcome = run(&stream, bandwidth, Fault::None, Fault::None);
            assert!(!outcome.trouble);
            assert_eq!(outcome.accepted.as_ref(), Some(&stream));
            // One chunk a round from round 0; the last acknowledgement is
            // read a round trip after the last chunk was sent.
            assert_eq!(outcome.child_stopped, chunks - 1 + ACK_TIMEOUT_ROUNDS);
            assert_eq!(outcome.parent_stopped, chunks + LINGER_ROUNDS);
        }
    }

    #[test]
    fn every_loss_pattern_over_the_first_eight_transmissions_each_way() {
        for (stream, bandwidth) in cases() {
            for up in 0..=u8::MAX {
                for down in 0..=u8::MAX {
                    let outcome = run(&stream, bandwidth, Fault::Lose(up), Fault::Lose(down));
                    check(
                        &stream,
                        &outcome,
                        &format!(
                            "{} bits, lost up {up:08b} down {down:08b}",
                            stream.bit_len()
                        ),
                    );
                    // Eight losses each way never add up to nine
                    // unanswered resends of a chunk that then stays
                    // lost: the parent always ends with the stream.
                    assert_eq!(outcome.accepted.as_ref(), Some(&stream));
                }
            }
        }
    }

    #[test]
    fn one_duplicate_or_one_flipped_bit_at_every_position() {
        for (stream, bandwidth) in cases() {
            for at in 0..8 {
                for (up, down) in [
                    (Fault::Duplicate(at), Fault::None),
                    (Fault::None, Fault::Duplicate(at)),
                ] {
                    let outcome = run(&stream, bandwidth, up, down);
                    check(&stream, &outcome, &format!("duplicate at {at}"));
                    assert!(!outcome.trouble, "a duplicate is harmless (at {at})");
                }
                for bit in 0..bandwidth {
                    for (up, down) in [
                        (Fault::Flip(at, bit), Fault::None),
                        (Fault::None, Fault::Flip(at, bit)),
                    ] {
                        let outcome = run(&stream, bandwidth, up, down);
                        check(&stream, &outcome, &format!("bit {bit} flipped at {at}"));
                    }
                }
            }
        }
    }

    #[test]
    fn a_dead_link_is_given_up_after_the_resend_budget() {
        let (stream, bandwidth) = stream_of(3);
        let mut tx = LinkSender::new(stream, bandwidth, true);
        let mut transmissions = 0;
        let mut round = 0;
        while !tx.finished() {
            transmissions += usize::from(tx.poll(round).is_some());
            round += 1;
        }
        assert!(tx.gave_up());
        // The first window plus MAX_LINK_RESENDS go-backs of two chunks.
        assert_eq!(transmissions, WINDOW * (1 + MAX_LINK_RESENDS as usize));
        assert_eq!(
            round,
            ACK_TIMEOUT_ROUNDS * (1 + u64::from(MAX_LINK_RESENDS)) + 1
        );
    }

    #[test]
    fn a_quiet_link_sends_one_chunk_a_round_and_takes_chunks_as_they_come() {
        let (stream, _) = stream_of(1);
        let count = wire::chunk_stream(&stream, 16, false).len() as u64;
        let mut tx = LinkSender::new(stream.clone(), 16, false);
        let mut rx = LinkReceiver::new(false);
        let mut rebuilt = None;
        for round in 0..count {
            assert!(!tx.finished());
            let chunk = tx.poll(round).expect("one chunk every round");
            match rx.on_chunk(round + 1, &chunk) {
                Receipt::Chunk => assert!(round + 1 < count),
                Receipt::Complete(stream) => rebuilt = Some(stream),
                Receipt::Garbled => panic!("well-formed chunk"),
            }
        }
        assert!(tx.finished() && !tx.gave_up());
        assert_eq!(rebuilt, Some(stream));
        assert_eq!(
            rx.on_chunk(count + 1, &Payload::new()),
            Receipt::Garbled,
            "an empty message is not a chunk"
        );
    }
}
