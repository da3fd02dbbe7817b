//! The round bookkeeping of the engine.
//!
//! [`RoundState`] owns everything about an epoch that is not a node
//! program: the double-buffered inboxes, the streams (`stream.rs`), the
//! list of nodes still running and when each is next due, the epoch's
//! [`Metrics`] and the fault layer. Its one owner,
//! [`Simulation`](crate::Simulation), supplies only the compute step —
//! walk the running nodes in ascending id order and run each one that is
//! [`due`](RoundState::due) on its [`context`](RoundState::context), then
//! [`settle`](RoundState::settle) it; a node that is not due is skipped.
//! The order is part of the contract: it is what makes an inbox arrive in
//! *sender order* (lower ids first, a duplicated message next to its
//! original), and programs lean on that — the distributed engine's
//! per-round acknowledgement `dedup` removes adjacent repeats only. Fault
//! decisions do not depend on it: they are drawn from per-sender streams
//! (`faults.rs`), and a stream's chunks draw from its sender's in the
//! sender's own order whenever they are settled.
//!
//! **Cost model.** A round costs a flag test per running node, plus the
//! nodes that are due, plus the messages they send and the streams they
//! open, read or cut. Streams in flight cost a round nothing: they settle
//! when read (`stream.rs`), and whether any of them sent in a round is one
//! counter. A sleeping node is not touched, and nothing scans, allocates
//! or drops per *halted* node, so a long phase in which nodes wait for
//! their streams to drain or for a deadline costs the flag tests alone. An
//! epoch costs `O(n)` once (fresh metrics, the active list, the crash
//! schedule, and settling what is left of the streams).

use congest_graph::NodeId;
use congest_wire::Payload;
use rand::rngs::SmallRng;

use crate::context::Outbox;
use crate::faults::FaultState;
use crate::stream::Streams;
use crate::{
    EpochReport, Metrics, NodeInfo, NodeStatus, ReceivedMessage, RoundContext, SimConfig,
    Termination,
};

/// Per-simulation round state; see the [module documentation](self).
pub(crate) struct RoundState {
    /// What each node reads this round. Between epochs: the injections
    /// queued for round 0. Empty for every node that is not active.
    inboxes: Vec<Vec<ReceivedMessage>>,
    /// What each node will read next round. The two buffers swap at the
    /// end of a round, so an inbox keeps its capacity across rounds,
    /// however the program reads it: `ctx.inbox()` borrows the buffer and
    /// `ctx.take_inbox()` drains it in place. A node's two buffers grow to
    /// its busiest round once and are never allocated again.
    next: Vec<Vec<ReceivedMessage>>,
    /// Every node's multi-round transfers; nothing for a node that never
    /// streams.
    streams: Streams,
    /// Nodes that sit out the rest of the epoch (halted or crashed).
    halted: Vec<bool>,
    /// The first round in which each node is due whatever its inbox: 0
    /// for an active node, the round it asked for a sleeping one.
    wake: Vec<u64>,
    /// The nodes still running, ascending — the canonical settle order.
    active: Vec<usize>,
    /// Nodes that halted during the current round; they leave `active`
    /// when it ends.
    newly_halted: Vec<usize>,
    /// Whether any node has sent a message in the current round.
    sent_this_round: bool,
    /// Traffic of the epoch in progress.
    metrics: Metrics,
    /// Persistent fault-injection state (no-op under a quiet plan).
    faults: FaultState,
    /// Number of completed epochs (the index of the next one).
    epoch: u64,
    /// The round in progress, numbered from 0 in each epoch.
    round: u64,
}

impl RoundState {
    pub(crate) fn new(config: &SimConfig, n: usize) -> Self {
        // Allocated once per simulation; rounds only swap and refill them.
        let empty_inboxes = || (0..n).map(|_| Vec::new()).collect();
        RoundState {
            inboxes: empty_inboxes(),
            next: empty_inboxes(),
            streams: Streams::new(n, config.bandwidth.bits_per_round(n.max(1))),
            halted: vec![false; n],
            wake: vec![0; n],
            active: Vec::with_capacity(n),
            newly_halted: Vec::new(),
            sent_this_round: false,
            metrics: Metrics::default(),
            faults: FaultState::new(config, n),
            epoch: 0,
            round: 0,
        }
    }

    /// Installs `config`'s fault plan, reseeding the fault RNG streams.
    pub(crate) fn set_faults(&mut self, config: &SimConfig) {
        self.faults = FaultState::new(config, self.inboxes.len());
    }

    /// Number of completed epochs.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Queues an out-of-band message for `to` at round 0 of the next
    /// epoch: not CONGEST traffic, so neither counted nor subject to
    /// faults.
    pub(crate) fn inject(&mut self, to: NodeId, payload: Payload) {
        self.inboxes[to.index()].push(ReceivedMessage { from: to, payload });
    }

    /// The nodes to run this round, ascending.
    pub(crate) fn active(&self) -> &[usize] {
        &self.active
    }

    /// Whether `node` runs in `round`: it is awake, or a message reached
    /// it. Stream chunks do not count.
    pub(crate) fn due(&self, node: usize, round: u64) -> bool {
        self.wake[node] <= round || !self.inboxes[node].is_empty()
    }

    /// The context `node`, described by `info`, runs in this round: its
    /// inbox, the streams, the fault layer and metrics they settle
    /// against, and the caller's `outbox` and `rng` for it.
    pub(crate) fn context<'a>(
        &'a mut self,
        node: usize,
        info: &'a NodeInfo,
        outbox: &'a mut Outbox,
        rng: &'a mut SmallRng,
    ) -> RoundContext<'a> {
        RoundContext {
            info,
            round: self.round,
            epoch: self.epoch,
            inbox: Some(&mut self.inboxes[node]),
            streams: &mut self.streams,
            faults: &mut self.faults,
            metrics: &mut self.metrics,
            outbox,
            rng,
        }
    }

    /// Drives one epoch. `compute(state, round)` must walk
    /// [`active`](RoundState::active) in ascending order and run each node
    /// that is [`due`](RoundState::due) on its
    /// [`context`](RoundState::context), then
    /// [`settle`](RoundState::settle) it.
    pub(crate) fn run_epoch(
        &mut self,
        max_rounds: u64,
        mut compute: impl FnMut(&mut RoundState, u64),
    ) -> EpochReport {
        let n = self.inboxes.len();
        self.metrics = Metrics::new(n);
        self.active.clear();
        for node in 0..n {
            // A crashed node sits the epoch out exactly like a halted
            // one (no compute, inbound counted and dropped); its program
            // state is left intact for the rejoin re-seed.
            self.halted[node] = self.faults.crashed(node, self.epoch);
            self.wake[node] = 0;
            if self.halted[node] {
                self.inboxes[node].clear();
            } else {
                self.active.push(node);
            }
        }

        self.round = 0;
        let termination = loop {
            if self.active.is_empty() {
                break Termination::AllHalted;
            }
            if self.round >= max_rounds {
                break Termination::RoundLimit;
            }
            compute(self, self.round);
            self.end_round();
            self.round += 1;
        };

        // Undelivered messages and streams do not leak into the next
        // epoch.
        for &node in &self.active {
            self.inboxes[node].clear();
        }
        self.streams
            .end_epoch(self.round, &mut self.faults, &mut self.metrics);
        self.epoch += 1;
        let mut metrics = std::mem::take(&mut self.metrics);
        metrics.rounds = self.round;
        EpochReport {
            metrics,
            termination,
        }
    }

    /// Books the outcome of `node`'s round: empties the inbox it read,
    /// notes when it is next due, sends `outbox` (drained, in its
    /// destination order) and retires it — streams and all — if it halted.
    pub(crate) fn settle(
        &mut self,
        node: usize,
        status: NodeStatus,
        outbox: &mut Vec<(NodeId, Payload)>,
    ) {
        self.inboxes[node].clear();
        self.wake[node] = match status {
            NodeStatus::Sleep(round) => round,
            NodeStatus::Active | NodeStatus::Halted => 0,
        };
        self.transmit(node, outbox);
        if status == NodeStatus::Halted {
            self.halted[node] = true;
            self.newly_halted.push(node);
            self.streams.stop(node, self.round);
        }
    }

    /// Sends `from`'s messages in ascending destination order — the order
    /// its fault draws follow. Under a faulty plan its stream chunks draw
    /// from the same stream, so those due by this round are drawn first
    /// and this round's go among the messages, as if each chunk had been
    /// one more message of the outbox.
    fn transmit(&mut self, from: usize, outbox: &mut Vec<(NodeId, Payload)>) {
        self.sent_this_round |= !outbox.is_empty();
        if self.faults.quiet() || !self.streams.drawing(from) {
            for (to, payload) in outbox.drain(..) {
                self.deliver(from, to.index(), payload);
            }
        } else {
            self.transmit_drawing(from, outbox);
        }
    }

    /// [`transmit`](RoundState::transmit) for a node with stream chunks
    /// to draw, kept out of the path every other node takes.
    #[inline(never)]
    fn transmit_drawing(&mut self, from: usize, outbox: &mut Vec<(NodeId, Payload)>) {
        let round = self.round;
        self.streams
            .catch_up(from, round, &mut self.faults, &mut self.metrics);
        let mut at = 0;
        for (to, payload) in outbox.drain(..) {
            let (faults, metrics) = (&mut self.faults, &mut self.metrics);
            at = self
                .streams
                .draw(from, round, at, Some(to), faults, metrics);
            self.deliver(from, to.index(), payload);
        }
        self.streams
            .draw(from, round, at, None, &mut self.faults, &mut self.metrics);
    }

    /// One CONGEST delivery, through the fault layer.
    fn deliver(&mut self, from: usize, to: usize, payload: Payload) {
        let Some((payload, duplicated)) = self.faults.transit(from, payload, &mut self.metrics)
        else {
            return;
        };
        let message = ReceivedMessage {
            from: NodeId::from_index(from),
            payload,
        };
        if duplicated {
            self.store(to, message.clone());
        }
        self.store(to, message);
    }

    /// Counts one arrival at `to`. A message to a node that no longer
    /// runs is paid for like any other but never stored.
    fn store(&mut self, to: usize, message: ReceivedMessage) {
        self.metrics
            .record_delivery(message.from.index(), to, message.payload.bit_len());
        if !self.halted[to] {
            self.next[to].push(message);
        }
    }

    /// Retires the nodes that halted this round and makes the messages
    /// delivered in it the inboxes of the next.
    fn end_round(&mut self) {
        // A message the fault layer then lost was still sent, and so was a
        // stream chunk.
        let streamed = self.streams.end_round(self.round);
        if !std::mem::take(&mut self.sent_this_round) && !streamed {
            self.metrics.silent_rounds += 1;
        }
        if !self.newly_halted.is_empty() {
            // A lower-id sender may have delivered before the node halted.
            for node in self.newly_halted.drain(..) {
                self.next[node].clear();
            }
            let halted = &self.halted;
            self.active.retain(|&node| !halted[node]);
        }
        // Every inbox read this round was emptied by `settle`, so after
        // the swap `next` is empty throughout.
        std::mem::swap(&mut self.inboxes, &mut self.next);
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;

    use super::*;
    use crate::FaultPlan;

    fn payload() -> Payload {
        Payload::from_parts(vec![0xAB], 8)
    }

    /// Runs one epoch the way the engine walks it: every due node is
    /// visited — `visit` gets its context (in the clique, so any node may
    /// be reached) and returns its status — and every other running node
    /// is skipped. Returns the rounds each node was visited in.
    fn drive(
        state: &mut RoundState,
        max_rounds: u64,
        mut visit: impl FnMut(&mut RoundContext<'_>) -> NodeStatus,
    ) -> (EpochReport, Vec<Vec<u64>>) {
        let n = state.inboxes.len();
        let infos: Vec<NodeInfo> = (0..n)
            .map(|i| NodeInfo {
                id: NodeId::from_index(i),
                n,
                neighbors: Vec::new(),
                model: crate::Model::CongestClique,
                bandwidth_bits: SimConfig::congest(0).bandwidth.bits_per_round(n),
            })
            .collect();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut outbox = Outbox::default();
        let mut visits = vec![Vec::new(); n];
        let report = state.run_epoch(max_rounds, |state, round| {
            for k in 0..state.active().len() {
                let node = state.active()[k];
                if !state.due(node, round) {
                    continue;
                }
                visits[node].push(round);
                let status = visit(&mut state.context(node, &infos[node], &mut outbox, &mut rng));
                state.settle(node, status, &mut outbox.messages);
                assert!(outbox.messages.is_empty());
            }
        });
        (report, visits)
    }

    /// Runs one epoch in which node `i` sends `sends[i]` in round 0 and
    /// halts in the round given by `halts_at[i]`; returns what each node
    /// read per round.
    fn script(
        state: &mut RoundState,
        max_rounds: u64,
        sends: &[&[u32]],
        halts_at: &[u64],
    ) -> (EpochReport, Vec<Vec<usize>>) {
        let mut read = vec![Vec::new(); sends.len()];
        let (report, _) = drive(state, max_rounds, |ctx| {
            let (node, round) = (ctx.id().index(), ctx.round());
            read[node].push(ctx.inbox().len());
            if round == 0 {
                for &to in sends[node] {
                    ctx.send(NodeId(to), payload()).unwrap();
                }
            }
            if round >= halts_at[node] {
                NodeStatus::Halted
            } else {
                NodeStatus::Active
            }
        });
        (report, read)
    }

    fn bits(len: usize) -> Payload {
        Payload::from_parts(vec![0x5A; len.div_ceil(8)], len)
    }

    #[test]
    fn a_sleeper_wakes_at_its_round_or_when_a_message_reaches_it() {
        let mut state = RoundState::new(&SimConfig::congest(0), 3);
        // Node 0 sleeps until round 6; node 1 wakes in round 2 to message
        // it; node 2 only streams to it, 8 bits a round from round 0 on.
        let (report, visits) = drive(&mut state, 20, |ctx| match (ctx.id().0, ctx.round()) {
            (0, round) => {
                if round >= 6 {
                    NodeStatus::Halted
                } else {
                    NodeStatus::Sleep(6)
                }
            }
            (_, round) if round >= 7 => NodeStatus::Halted,
            (1, 0) => NodeStatus::Sleep(2),
            (1, _) => {
                ctx.send(NodeId(0), payload()).unwrap();
                NodeStatus::Sleep(7)
            }
            (_, round) => {
                assert!(ctx.inbox().is_empty());
                if round == 0 {
                    ctx.stream(NodeId(0), bits(40)).unwrap();
                }
                NodeStatus::Sleep(7)
            }
        });
        assert_eq!(
            visits[0],
            vec![0, 3, 6],
            "woken by the message, not by chunks"
        );
        assert_eq!(visits[1], vec![0, 2, 7]);
        assert_eq!(visits[2], vec![0, 7]);
        // Node 2's five chunks moved while both ends slept.
        assert_eq!(report.metrics.messages, 6);
        assert_eq!(report.metrics.received_bits[0], 8 + 40);
        assert_eq!(report.metrics.rounds, 8);
    }

    #[test]
    fn sleeping_until_the_next_round_is_being_active() {
        let run = |sleep: fn(u64) -> NodeStatus| {
            let mut state = RoundState::new(&SimConfig::congest(0), 3);
            drive(&mut state, 12, |ctx| {
                let (node, round) = (ctx.id().index(), ctx.round());
                if round == 0 && node == 1 {
                    ctx.stream(NodeId(2), bits(30)).unwrap();
                }
                if (round + node as u64).is_multiple_of(3) {
                    let to = NodeId::from_index((node + 1) % 3);
                    if !ctx.has_queued(to) {
                        ctx.send(to, payload()).unwrap();
                    }
                }
                if round == 4 + node as u64 {
                    NodeStatus::Halted
                } else {
                    sleep(round)
                }
            })
        };
        let active = run(|_| NodeStatus::Active);
        for sleep in [
            (|round| NodeStatus::Sleep(round + 1)) as fn(u64) -> NodeStatus,
            |round| NodeStatus::Sleep(round),
            |_| NodeStatus::Sleep(0),
        ] {
            let (report, visits) = run(sleep);
            assert_eq!(visits, active.1);
            assert_eq!(report.metrics, active.0.metrics);
            assert_eq!(report.termination, active.0.termination);
        }
    }

    #[test]
    fn an_epoch_of_sleepers_out_of_reach_ends_at_the_cap_like_active_nodes() {
        let run = |status: NodeStatus| {
            let mut state = RoundState::new(&SimConfig::congest(0), 3);
            drive(&mut state, 9, |ctx| {
                if ctx.round() == 0 && ctx.id() == NodeId(0) {
                    ctx.stream(NodeId(2), bits(20)).unwrap();
                }
                status
            })
        };
        let (asleep, visits) = run(NodeStatus::Sleep(100));
        let (active, _) = run(NodeStatus::Active);
        assert_eq!(visits, vec![vec![0]; 3]);
        assert_eq!(asleep.termination, Termination::RoundLimit);
        assert_eq!(asleep.termination, active.termination);
        assert_eq!(asleep.metrics.rounds, 9);
        assert_eq!(asleep.metrics.rounds, active.metrics.rounds);
        // Three rounds carried chunks; the other six were silent.
        assert_eq!(asleep.metrics.silent_rounds, 6);
        assert_eq!(asleep.metrics, active.metrics);
    }

    #[test]
    fn silent_rounds_follow_the_streams_as_they_end_or_are_cut() {
        let mut state = RoundState::new(&SimConfig::congest(0), 3);
        // At 8 bits a round: node 0 streams 2 rounds to node 1 and 5 to
        // node 2 from round 0; node 1 streams 3 rounds to node 2 from
        // round 6 and halts in round 7, after two of them.
        let (report, _) = drive(&mut state, 20, |ctx| match (ctx.id().0, ctx.round()) {
            (0, 0) => {
                ctx.stream(NodeId(1), bits(16)).unwrap();
                ctx.stream(NodeId(2), bits(40)).unwrap();
                NodeStatus::Sleep(12)
            }
            (1, 0) => NodeStatus::Sleep(6),
            (1, 6) => {
                ctx.stream(NodeId(2), bits(24)).unwrap();
                NodeStatus::Active
            }
            (1, 7) | (_, 12) => NodeStatus::Halted,
            _ => NodeStatus::Sleep(12),
        });
        assert_eq!(report.metrics.rounds, 13);
        assert_eq!(report.metrics.messages, 2 + 5 + 2);
        assert_eq!(report.metrics.received_bits, vec![0, 16, 40 + 16]);
        // Round 5 fell between the streams, and rounds 8 to 12 came after
        // the cut one.
        assert_eq!(report.metrics.silent_rounds, 6);
    }

    #[test]
    fn deliveries_to_halted_nodes_are_counted_and_never_stored() {
        let mut state = RoundState::new(&SimConfig::congest(0), 3);
        // Node 1 halts in round 0, after node 0 delivered to it and
        // before node 2 does; node 2 reads node 0's message in round 1.
        let (report, read) = script(&mut state, 10, &[&[1, 2], &[], &[1]], &[1, 0, 1]);
        assert_eq!(report.metrics.messages, 3);
        assert_eq!(report.metrics.received_messages, vec![0, 2, 1]);
        assert_eq!(report.metrics.rounds, 2);
        // Round 0 carried every send; round 1 was pure waiting.
        assert_eq!(report.metrics.silent_rounds, 1);
        assert_eq!(read, vec![vec![0, 0], vec![0], vec![0, 1]]);
        // Nothing is left behind in either buffer.
        assert!(state.inboxes.iter().chain(&state.next).all(Vec::is_empty));
    }

    #[test]
    fn a_round_whose_only_message_was_lost_is_not_silent() {
        let plan = FaultPlan::default().with_drop(1.0);
        let mut state = RoundState::new(&SimConfig::congest(0).with_faults(plan), 2);
        let (report, _) = script(&mut state, 10, &[&[1], &[]], &[2, 2]);
        assert_eq!(report.metrics.dropped_messages, 1);
        assert_eq!(report.metrics.rounds, 3);
        assert_eq!(report.metrics.silent_rounds, 2);
    }

    #[test]
    fn round_limit_clears_what_active_nodes_had_not_read() {
        let mut state = RoundState::new(&SimConfig::congest(0), 2);
        let (report, _) = script(&mut state, 1, &[&[1], &[0]], &[9, 9]);
        assert_eq!(report.termination, Termination::RoundLimit);
        assert_eq!(report.metrics.rounds, 1);
        assert_eq!(state.active, vec![0, 1]);
        assert!(state.inboxes.iter().chain(&state.next).all(Vec::is_empty));
        assert_eq!(state.epoch(), 1);
    }

    #[test]
    fn crashed_nodes_lose_their_injections_and_wake_with_empty_inboxes() {
        let plan = FaultPlan::default().with_crash(1, 0, 1);
        let mut state = RoundState::new(&SimConfig::congest(0).with_faults(plan), 2);
        state.inject(NodeId(1), payload());
        let (report, read) = script(&mut state, 10, &[&[1], &[]], &[0, 0]);
        // The crashed node never ran; the message to it was still paid for.
        assert_eq!(read, vec![vec![0], vec![]]);
        assert_eq!(report.metrics.messages, 1);
        let (_, read) = script(&mut state, 10, &[&[], &[]], &[0, 0]);
        assert_eq!(read, vec![vec![0], vec![0]]);
    }
}
