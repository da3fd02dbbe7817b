//! The round bookkeeping of the engine.
//!
//! [`RoundState`] owns everything about an epoch that is not a node
//! program: the double-buffered inboxes, the list of nodes still
//! running, the epoch's [`Metrics`] and the fault layer. Its one owner,
//! [`Simulation`](crate::Simulation), supplies only the compute step —
//! run every active node once and [`settle`](RoundState::settle) each in
//! ascending id order. The order is part of the contract: it is what
//! makes an inbox arrive in *sender order* (lower ids first, a
//! duplicated message next to its original), and programs lean on that
//! — the distributed engine's per-round acknowledgement `dedup` removes
//! adjacent repeats only. Fault decisions do not depend on it: they are
//! drawn from per-sender streams (`faults.rs`).
//!
//! **Cost model.** A round costs `O(active nodes + messages delivered)`
//! on the host: nothing scans, allocates or drops per *halted* node, so
//! a long phase in which a handful of nodes wait out a deadline is
//! nearly free. An epoch costs `O(n)` once (fresh metrics, the active
//! list, the crash schedule).

use congest_graph::NodeId;
use congest_wire::Payload;

use crate::faults::FaultState;
use crate::{EpochReport, Metrics, NodeStatus, ReceivedMessage, SimConfig, Termination};

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
    /// Nodes that sit out the rest of the epoch (halted or crashed).
    halted: Vec<bool>,
    /// The nodes still running, ascending — the canonical settle order.
    active: Vec<usize>,
    /// Nodes that halted during the current round; they leave `active`
    /// when it ends.
    newly_halted: Vec<usize>,
    /// Whether any node has queued a message in the current round.
    sent_this_round: bool,
    /// Traffic of the epoch in progress.
    metrics: Metrics,
    /// Persistent fault-injection state (no-op under a quiet plan).
    faults: FaultState,
    /// Number of completed epochs (the index of the next one).
    epoch: u64,
}

impl RoundState {
    pub(crate) fn new(config: &SimConfig, n: usize) -> Self {
        // Allocated once per simulation; rounds only swap and refill them.
        let empty_inboxes = || (0..n).map(|_| Vec::new()).collect();
        RoundState {
            inboxes: empty_inboxes(),
            next: empty_inboxes(),
            halted: vec![false; n],
            active: Vec::with_capacity(n),
            newly_halted: Vec::new(),
            sent_this_round: false,
            metrics: Metrics::default(),
            faults: FaultState::new(config, n),
            epoch: 0,
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

    /// The messages `node` reads this round.
    pub(crate) fn inbox_mut(&mut self, node: usize) -> &mut Vec<ReceivedMessage> {
        &mut self.inboxes[node]
    }

    /// Drives one epoch. `compute(state, round)` must run every node of
    /// [`active`](RoundState::active) once on its
    /// [`inbox_mut`](RoundState::inbox_mut) and then
    /// [`settle`](RoundState::settle) each of them, in ascending order.
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
            if self.halted[node] {
                self.inboxes[node].clear();
            } else {
                self.active.push(node);
            }
        }

        let mut round: u64 = 0;
        let termination = loop {
            if self.active.is_empty() {
                break Termination::AllHalted;
            }
            if round >= max_rounds {
                break Termination::RoundLimit;
            }
            compute(self, round);
            self.end_round();
            round += 1;
        };

        // Undelivered messages do not leak into the next epoch.
        for &node in &self.active {
            self.inboxes[node].clear();
        }
        self.epoch += 1;
        let mut metrics = std::mem::take(&mut self.metrics);
        metrics.rounds = round;
        EpochReport {
            metrics,
            termination,
        }
    }

    /// Books the outcome of `node`'s round: empties the inbox it read,
    /// retires it if it halted, and sends `outbox` (drained, in its
    /// destination order) through the fault layer.
    pub(crate) fn settle(
        &mut self,
        node: usize,
        status: NodeStatus,
        outbox: &mut Vec<(NodeId, Payload)>,
    ) {
        self.inboxes[node].clear();
        if status == NodeStatus::Halted {
            self.halted[node] = true;
            self.newly_halted.push(node);
        }
        self.sent_this_round |= !outbox.is_empty();
        for (to, payload) in outbox.drain(..) {
            self.deliver(node, to.index(), payload);
        }
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

    /// Retires the nodes that halted this round and makes the deliveries
    /// of this round the inboxes of the next.
    fn end_round(&mut self) {
        // A message the fault layer then lost was still sent.
        if !std::mem::take(&mut self.sent_this_round) {
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
    use super::*;
    use crate::FaultPlan;

    fn payload() -> Payload {
        Payload::from_parts(vec![0xAB], 8)
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
        let report = state.run_epoch(max_rounds, |state, round| {
            for k in 0..state.active().len() {
                let node = state.active()[k];
                read[node].push(state.inbox_mut(node).len());
                let mut outbox: Vec<(NodeId, Payload)> = Vec::new();
                if round == 0 {
                    outbox.extend(sends[node].iter().map(|&to| (NodeId(to), payload())));
                }
                let status = if round >= halts_at[node] {
                    NodeStatus::Halted
                } else {
                    NodeStatus::Active
                };
                state.settle(node, status, &mut outbox);
                assert!(outbox.is_empty());
            }
        });
        (report, read)
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
