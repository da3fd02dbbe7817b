//! Thread-per-node executor.
//!
//! Each node program runs on its own OS thread and communicates with the
//! coordinator over channels; rounds are synchronized by the coordinator
//! (deliver inboxes → wait for all outboxes), which is exactly the
//! synchronous round structure of the model. The executor exists to
//! demonstrate that node programs rely only on message passing — it
//! produces **bit-identical** outputs and metrics to the sequential
//! [`Simulation`](crate::Simulation), which the test suite checks.
//!
//! For experiment sweeps the sequential engine is faster (no thread or
//! channel overhead) and is what the harness uses.
//!
//! **Cost model.** The coordinator's round is the sequential engine's —
//! it owns the same round state (`round.rs`), so a round costs
//! `O(active nodes + messages delivered)` plus one channel round trip
//! per active node and an `O(active log active)` sort of the replies
//! into node order; halted nodes' threads sleep on their channel. An
//! epoch additionally spawns and joins `n` threads.

use congest_graph::{AdjacencyView, NodeId};
use congest_wire::Payload;
use crossbeam::channel::{unbounded, Receiver, Sender};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::context::Outbox;
use crate::engine::build_infos;
use crate::rng::derive_node_seed;
use crate::round::RoundState;
use crate::{
    EpochReport, FaultPlan, NodeInfo, NodeProgram, NodeStatus, ReceivedMessage, RoundContext,
    RunReport, SimConfig,
};

/// Instruction sent from the coordinator to a worker thread: execute one
/// round with the given inbox. Workers exit when the channel closes at
/// the end of the epoch.
struct ToWorker {
    round: u64,
    inbox: Vec<ReceivedMessage>,
}

/// Response sent from a worker thread to the coordinator: the node's
/// status, the messages it sent (ascending by destination) and its
/// inbox, handed back so the buffer is reused.
struct FromWorker {
    node: usize,
    status: NodeStatus,
    inbox: Vec<ReceivedMessage>,
    messages: Vec<(NodeId, Payload)>,
}

/// Thread-per-node executor with the same interface as
/// [`Simulation`](crate::Simulation), including the resumable epoch API
/// ([`run_epoch`](ThreadedSimulation::run_epoch) /
/// [`inject`](ThreadedSimulation::inject)). Worker threads live for one
/// epoch and borrow the node programs, so program state survives between
/// epochs exactly as in the sequential engine.
pub struct ThreadedSimulation<P: NodeProgram> {
    infos: Vec<NodeInfo>,
    programs: Vec<P>,
    config: SimConfig,
    rngs: Vec<SmallRng>,
    /// The same round state the sequential engine owns. Held by the
    /// coordinator, not the workers, so deliveries are settled — and
    /// fault decisions drawn — in the sequential engine's order.
    state: RoundState,
}

impl<P: NodeProgram> ThreadedSimulation<P> {
    /// Creates a threaded simulation of `graph` under `config`.
    ///
    /// `graph` may be any [`AdjacencyView`], like for
    /// [`Simulation::new`](crate::Simulation::new).
    pub fn new<V, F>(graph: &V, config: SimConfig, mut factory: F) -> Self
    where
        V: AdjacencyView + ?Sized,
        F: FnMut(&NodeInfo) -> P,
    {
        let infos = build_infos(graph, &config);
        let programs: Vec<P> = infos.iter().map(&mut factory).collect();
        let n = infos.len();
        ThreadedSimulation {
            infos,
            programs,
            state: RoundState::new(&config, n),
            config,
            rngs: (0..n)
                .map(|i| SmallRng::seed_from_u64(derive_node_seed(config.seed, i)))
                .collect(),
        }
    }

    /// Replaces the fault schedule, reseeding the fault RNG streams (see
    /// [`Simulation::set_fault_plan`](crate::Simulation::set_fault_plan)).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.config.faults = plan;
        self.state.set_faults(&self.config);
    }

    /// Overrides the round cap for subsequent epochs.
    pub fn set_max_rounds(&mut self, max_rounds: u64) {
        self.config.max_rounds = max_rounds;
    }

    /// Number of completed epochs.
    pub fn epoch(&self) -> u64 {
        self.state.epoch()
    }

    /// Number of simulated nodes.
    pub fn node_count(&self) -> usize {
        self.infos.len()
    }

    /// The program of `node` (see [`Simulation::program`](crate::Simulation::program)).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of the simulated network.
    pub fn program(&self, node: NodeId) -> &P {
        &self.programs[node.index()]
    }

    /// Mutable access to the program of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of the simulated network.
    pub fn program_mut(&mut self, node: NodeId) -> &mut P {
        &mut self.programs[node.index()]
    }

    /// Queues an out-of-band message for round 0 of the next epoch (see
    /// [`Simulation::inject`](crate::Simulation::inject); not counted in
    /// the metrics).
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a node of the simulated network.
    pub fn inject(&mut self, to: NodeId, payload: Payload) {
        self.state.inject(to, payload);
    }

    /// Replaces the neighbour list of `node` in the communication
    /// topology, effective from the next epoch (see
    /// [`Simulation::update_topology`](crate::Simulation::update_topology)).
    pub fn update_topology(&mut self, node: NodeId, neighbors: Vec<NodeId>) {
        debug_assert!(neighbors.is_sorted(), "topology lists are sorted");
        debug_assert!(!neighbors.contains(&node), "no self-loops");
        self.infos[node.index()].neighbors = neighbors;
    }

    /// Drives one epoch, spawning one thread per node; programs stay
    /// alive for the next epoch. Produces bit-identical metrics to
    /// [`Simulation::run_epoch`](crate::Simulation::run_epoch).
    pub fn run_epoch(&mut self) -> EpochReport {
        let ThreadedSimulation {
            infos,
            programs,
            config,
            rngs,
            state,
        } = self;
        let n = infos.len();
        let epoch = state.epoch();
        let (to_coord, from_workers): (Sender<FromWorker>, Receiver<_>) = unbounded();

        std::thread::scope(|scope| {
            // Spawn one worker per node, borrowing its program and RNG for
            // the duration of the epoch.
            let mut to_workers: Vec<Sender<ToWorker>> = Vec::with_capacity(n);
            for (i, (program, rng)) in programs.iter_mut().zip(rngs).enumerate() {
                let (tx, rx): (Sender<ToWorker>, Receiver<ToWorker>) = unbounded();
                to_workers.push(tx);
                let to_coord = to_coord.clone();
                let info = &infos[i];
                scope.spawn(move || {
                    while let Ok(ToWorker { round, mut inbox }) = rx.recv() {
                        let mut outbox = Outbox::default();
                        let status = {
                            let mut ctx = RoundContext {
                                info,
                                round,
                                epoch,
                                inbox: &mut inbox,
                                outbox: &mut outbox,
                                rng,
                            };
                            program.on_round(&mut ctx)
                        };
                        to_coord
                            .send(FromWorker {
                                node: i,
                                status,
                                inbox,
                                messages: outbox.messages,
                            })
                            .expect("coordinator outlives workers");
                    }
                });
            }
            drop(to_coord);

            // Coordinator: the shared synchronous round loop.
            let mut replies: Vec<FromWorker> = Vec::new();
            state.run_epoch(config.max_rounds, |state, round| {
                let active = state.active().len();
                for k in 0..active {
                    let i = state.active()[k];
                    let inbox = std::mem::take(state.inbox_mut(i));
                    to_workers[i]
                        .send(ToWorker { round, inbox })
                        .expect("worker threads outlive the round loop");
                }
                // Collect one reply per active node, then settle them in
                // node order so that deliveries and metrics are identical
                // to the sequential engine regardless of thread scheduling.
                replies.extend(
                    (0..active).map(|_| from_workers.recv().expect("workers respond every round")),
                );
                replies.sort_unstable_by_key(|reply| reply.node);
                for mut reply in replies.drain(..) {
                    *state.inbox_mut(reply.node) = reply.inbox;
                    state.settle(reply.node, reply.status, &mut reply.messages);
                }
            })
            // Dropping `to_workers` here closes the channels and ends the
            // epoch; the scope joins the workers and releases their
            // program borrows.
        })
    }

    /// Runs a single epoch to completion and collects outputs and
    /// metrics (one-shot usage, mirroring [`Simulation::run`](crate::Simulation::run)).
    pub fn run(mut self) -> RunReport<P::Output> {
        let EpochReport {
            metrics,
            termination,
        } = self.run_epoch();
        RunReport {
            outputs: self.programs.iter_mut().map(NodeProgram::finish).collect(),
            metrics,
            termination,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeStatus, RoundContext, SimConfig, Simulation, Termination};
    use congest_graph::generators::{Classic, Gnp};
    use rand::Rng;

    /// Gossip program: every node floods a random token one hop and records
    /// the sum of what it hears; exercises randomness, messaging and
    /// multi-round behaviour.
    struct Gossip {
        token: u64,
        sum: u64,
    }

    impl Gossip {
        fn new() -> Self {
            Gossip { token: 0, sum: 0 }
        }
    }

    impl NodeProgram for Gossip {
        type Output = u64;
        fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
            match ctx.round() {
                0 => {
                    self.token = ctx.rng().gen_range(0..1000);
                    let codec = ctx.id_codec();
                    // Encode the token modulo n so it fits the id codec.
                    let value = self.token % ctx.n() as u64;
                    for v in ctx.neighbors().to_vec() {
                        ctx.send(v, codec.single(value)).unwrap();
                    }
                    NodeStatus::Active
                }
                _ => {
                    let codec = ctx.id_codec();
                    for m in ctx.take_inbox() {
                        self.sum += codec.decode_single(&m.payload).unwrap();
                    }
                    NodeStatus::Halted
                }
            }
        }
        fn finish(&mut self) -> u64 {
            self.sum
        }
    }

    #[test]
    fn threaded_matches_sequential_exactly() {
        let g = Gnp::new(24, 0.3).seeded(5).generate();
        let config = SimConfig::congest(99);
        let seq = Simulation::new(&g, config, |_| Gossip::new()).run();
        let thr = ThreadedSimulation::new(&g, config, |_| Gossip::new()).run();
        assert_eq!(seq.outputs, thr.outputs);
        assert_eq!(seq.metrics, thr.metrics);
        assert_eq!(seq.termination, thr.termination);
    }

    #[test]
    fn threaded_handles_empty_and_tiny_graphs() {
        let g = congest_graph::GraphBuilder::new(0).build();
        let report = ThreadedSimulation::new(&g, SimConfig::congest(0), |_| Gossip::new()).run();
        assert!(report.outputs.is_empty());

        let g = Classic::Path(2).generate();
        let report = ThreadedSimulation::new(&g, SimConfig::congest(0), |_| Gossip::new()).run();
        assert_eq!(report.outputs.len(), 2);
        assert_eq!(report.metrics.rounds, 2);
    }

    /// Tallies inbox sizes per epoch and forwards injected input
    /// (`from == self`) to the first neighbour; two rounds per epoch.
    struct Tally(Vec<u64>);
    impl NodeProgram for Tally {
        type Output = Vec<u64>;
        fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
            if ctx.round() == 0 {
                self.0.push(0);
                let codec = ctx.id_codec();
                let first = ctx.neighbors().first().copied();
                for m in ctx.take_inbox() {
                    *self.0.last_mut().unwrap() += 1;
                    if m.from == ctx.id() {
                        if let Some(nb) = first {
                            if !ctx.has_queued(nb) {
                                ctx.send(nb, codec.single(ctx.id().as_u64())).unwrap();
                            }
                        }
                    }
                }
                NodeStatus::Active
            } else {
                *self.0.last_mut().unwrap() += ctx.inbox().len() as u64;
                NodeStatus::Halted
            }
        }
        fn finish(&mut self) -> Vec<u64> {
            std::mem::take(&mut self.0)
        }
    }

    #[test]
    fn threaded_epochs_match_sequential_epochs() {
        let g = Gnp::new(12, 0.4).seeded(8).generate();
        let config = SimConfig::congest(41);
        let mut seq = Simulation::new(&g, config, |_| Tally(Vec::new()));
        let mut thr = ThreadedSimulation::new(&g, config, |_| Tally(Vec::new()));
        let payload = {
            let mut w = congest_wire::BitWriter::new();
            w.write_bits(3, 4);
            w.finish()
        };
        for epoch in 0..3u32 {
            let target = congest_graph::NodeId(epoch % 12);
            seq.inject(target, payload.clone());
            thr.inject(target, payload.clone());
            let a = seq.run_epoch();
            let b = thr.run_epoch();
            assert_eq!(a.metrics, b.metrics, "epoch {epoch}");
            assert_eq!(a.termination, b.termination);
        }
        assert_eq!(seq.epoch(), thr.epoch());
        for node in g.nodes() {
            assert_eq!(
                seq.program_mut(node).finish(),
                thr.program_mut(node).finish(),
                "node {node} diverged across executors"
            );
        }
    }

    /// Gossip variant that tolerates corrupted payloads (skips messages
    /// that no longer decode instead of unwrapping).
    struct NoisyGossip {
        sum: u64,
    }

    impl NodeProgram for NoisyGossip {
        type Output = u64;
        fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
            if ctx.round() == 0 {
                let codec = ctx.id_codec();
                let n = ctx.n() as u64;
                let value = ctx.rng().gen_range(0..n);
                for v in ctx.neighbors().to_vec() {
                    ctx.send(v, codec.single(value)).unwrap();
                }
                NodeStatus::Active
            } else {
                let codec = ctx.id_codec();
                for m in ctx.take_inbox() {
                    if let Ok(v) = codec.decode_single(&m.payload) {
                        self.sum += v;
                    }
                }
                NodeStatus::Halted
            }
        }
        fn finish(&mut self) -> u64 {
            self.sum
        }
    }

    #[test]
    fn threaded_matches_sequential_under_faults() {
        use crate::FaultPlan;
        let g = Gnp::new(20, 0.35).seeded(11).generate();
        for (drop_p, corrupt_p, dup_p) in [(0.1, 0.0, 0.0), (0.05, 0.05, 0.05), (0.0, 0.2, 0.1)] {
            let plan = FaultPlan::default()
                .with_drop(drop_p)
                .with_corruption(corrupt_p)
                .with_duplication(dup_p)
                .with_seed(0xFA)
                .with_crash(2, 0, 1);
            let config = SimConfig::congest(99).with_faults(plan);
            let seq = Simulation::new(&g, config, |_| NoisyGossip { sum: 0 }).run();
            let thr = ThreadedSimulation::new(&g, config, |_| NoisyGossip { sum: 0 }).run();
            assert_eq!(seq.outputs, thr.outputs);
            assert_eq!(
                seq.metrics, thr.metrics,
                "plan ({drop_p},{corrupt_p},{dup_p})"
            );
            assert_eq!(seq.termination, thr.termination);
        }
    }

    #[test]
    fn crashed_node_sits_the_epoch_out_and_wakes_after() {
        use crate::FaultPlan;
        let g = Classic::Complete(4).generate();
        let plan = FaultPlan::default().with_crash(1, 0, 2);
        let config = SimConfig::congest(7).with_faults(plan);
        let mut seq = Simulation::new(&g, config, |_| Tally(Vec::new()));
        let mut thr = ThreadedSimulation::new(&g, config, |_| Tally(Vec::new()));
        for _ in 0..3 {
            let a = seq.run_epoch();
            let b = thr.run_epoch();
            assert_eq!(a.metrics, b.metrics);
        }
        // Crashed for epochs 0 and 1, live in epoch 2: the program ran in
        // exactly one epoch, so exactly one tally entry exists.
        let tallies = seq.program_mut(congest_graph::NodeId(1)).finish();
        assert_eq!(tallies.len(), 1);
        assert_eq!(tallies, thr.program_mut(congest_graph::NodeId(1)).finish());
    }

    #[test]
    fn quiet_plan_is_bit_identical_to_no_plan() {
        use crate::FaultPlan;
        let g = Gnp::new(16, 0.4).seeded(3).generate();
        let base = SimConfig::congest(5);
        let quiet = base.with_faults(FaultPlan::default().with_seed(0xDEAD));
        let a = Simulation::new(&g, base, |_| Gossip::new()).run();
        let b = Simulation::new(&g, quiet, |_| Gossip::new()).run();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn threaded_respects_round_limit() {
        struct Forever;
        impl NodeProgram for Forever {
            type Output = ();
            fn on_round(&mut self, _ctx: &mut RoundContext<'_>) -> NodeStatus {
                NodeStatus::Active
            }
            fn finish(&mut self) {}
        }
        let g = Classic::Path(3).generate();
        let config = SimConfig::congest(0).with_max_rounds(5);
        let report = ThreadedSimulation::new(&g, config, |_| Forever).run();
        assert_eq!(report.metrics.rounds, 5);
        assert_eq!(report.termination, Termination::RoundLimit);
    }
}
