//! The round engine.
//!
//! Since the epoch refactor the engine is **resumable**: node programs
//! keep their state across [`Simulation::run_epoch`] calls, external
//! input is fed in between epochs with [`Simulation::inject`], and the
//! communication topology may be updated with
//! [`Simulation::update_topology`] — the substrate of the dynamic
//! (CONGEST-simulated) triangle engine in `congest-stream`.
//!
//! **Cost model.** On the host a round costs the nodes that are due, the
//! messages they send and the streams they open, read or cut — with a flag
//! test for every running node that is not due — and an epoch `O(n)` once.
//! The round bookkeeping (see `round.rs`) never touches a halted node, nor
//! a node that sleeps ([`NodeStatus::Sleep`](crate::NodeStatus::Sleep))
//! until its round comes or a message reaches it; inboxes are
//! double-buffered and keep their capacity (a program reads its inbox by
//! reference or drains it with
//! [`RoundContext::take_inbox`](crate::RoundContext::take_inbox); neither
//! gives the buffer away); every node queues its sends into one reused
//! destination-sorted buffer; and a multi-round transfer is one stream
//! ([`RoundContext::stream`](crate::RoundContext::stream)), not a message
//! the program cuts, sends, drains and glues back every round: a record at
//! its receiver, settled in closed form when it is read (`stream.rs`). A
//! phase in which nodes only wait for their streams to drain, or a few
//! nodes wait out a deadline, costs the flag tests alone, and host time
//! follows the messages and streams rather than `n × rounds` or the chunks
//! in flight.
//!
//! **One executor.** The model's rounds are synchronous, so a run has
//! one schedule and its rounds, messages and bits cannot depend on who
//! calls `on_round`. [`Simulation`] is the only owner of the round
//! state: it visits the due nodes in ascending order, and within a
//! round no node can observe that order — `on_round` borrows one node's
//! info, inbox, streams, outbox and RNG and nothing else, and
//! [`NodeProgram`]`: Send` keeps `Rc`-shared state out of programs. The
//! unit tests below hold the engine to it: they run every round's nodes
//! in a seeded shuffled order and compare with
//! [`Simulation::run_epoch`] bit for bit.

use congest_graph::{AdjacencyView, NodeId};
use congest_wire::Payload;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::context::Outbox;
use crate::rng::derive_node_seed;
use crate::round::RoundState;
use crate::{FaultPlan, Metrics, NodeInfo, NodeProgram, SimConfig};

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// Every node halted.
    AllHalted,
    /// The configured round cap was reached before every node halted.
    RoundLimit,
}

/// The result of a simulation run.
#[derive(Debug, Clone)]
pub struct RunReport<O> {
    /// Per-node outputs, indexed by node id.
    pub outputs: Vec<O>,
    /// Traffic and round metrics.
    pub metrics: Metrics,
    /// Why the run ended.
    pub termination: Termination,
}

impl<O> RunReport<O> {
    /// The output of a specific node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of the simulated network.
    pub fn output_of(&self, node: NodeId) -> &O {
        &self.outputs[node.index()]
    }

    /// Whether every node halted before the round cap.
    pub fn completed(&self) -> bool {
        self.termination == Termination::AllHalted
    }
}

/// The result of one epoch of a resumable simulation: metrics for the
/// rounds of that epoch only. Node programs stay alive (and keep their
/// state) inside the simulation, so there are no outputs here — read
/// them through [`Simulation::program`] / [`Simulation::program_mut`],
/// or end the run with [`Simulation::run`].
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Traffic and round metrics of this epoch.
    pub metrics: Metrics,
    /// Why the epoch ended.
    pub termination: Termination,
}

impl EpochReport {
    /// Whether every node halted before the round cap.
    pub fn completed(&self) -> bool {
        self.termination == Termination::AllHalted
    }
}

/// The sequential, deterministic round engine.
///
/// Construction takes a factory that builds one [`NodeProgram`] per node
/// from its [`NodeInfo`]; the engine then drives all programs round by
/// round until every one of them halts (or the round cap is reached).
///
/// The engine is **epoch-based and resumable**: [`Simulation::run`]
/// drives a single epoch and consumes the simulation (the classic
/// one-shot usage), while [`Simulation::run_epoch`] drives one epoch and
/// keeps every node program alive, so a live network can be fed
/// successive input batches with [`Simulation::inject`] between epochs
/// instead of being rebuilt per run. Per-node round numbering restarts
/// at 0 each epoch; [`RoundContext::epoch`](crate::RoundContext::epoch)
/// exposes the epoch index.
///
/// See the [crate-level documentation](crate) for a complete one-shot
/// example; a resumable multi-epoch session looks like this:
///
/// ```
/// use congest_graph::generators::Classic;
/// use congest_sim::{NodeProgram, NodeStatus, RoundContext, SimConfig, Simulation};
///
/// /// Counts how many times this node has been woken up across epochs.
/// struct Wakeups(u64);
/// impl NodeProgram for Wakeups {
///     type Output = u64;
///     fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
///         self.0 += ctx.inbox().len() as u64 + 1;
///         NodeStatus::Halted
///     }
///     fn finish(&mut self) -> u64 { self.0 }
/// }
///
/// let g = Classic::Path(3).generate();
/// let mut sim = Simulation::new(&g, SimConfig::congest(0), |_| Wakeups(0));
///
/// // Epoch 0: every node runs one round and halts — state survives.
/// let first = sim.run_epoch();
/// assert!(first.completed());
/// assert_eq!(sim.epoch(), 1);
///
/// // Inject out-of-band client input, then resume the same programs.
/// let payload = congest_wire::Payload::new();
/// sim.inject(congest_graph::NodeId(1), payload);
/// sim.run_epoch();
/// assert_eq!(sim.program(congest_graph::NodeId(1)).0, 3); // 2 wakeups + 1 message
/// assert_eq!(sim.program(congest_graph::NodeId(0)).0, 2);
/// ```
pub struct Simulation<P: NodeProgram> {
    infos: Vec<NodeInfo>,
    programs: Vec<P>,
    config: SimConfig,
    /// Per-node deterministic RNGs; persistent so randomness continues
    /// across epochs instead of repeating.
    rngs: Vec<SmallRng>,
    /// Inboxes (injections land there between epochs), the active list,
    /// the epoch counter and the fault layer.
    state: RoundState,
}

impl<P: NodeProgram> Simulation<P> {
    /// Creates a simulation of `graph` under `config`, instantiating each
    /// node's program with `factory`.
    ///
    /// `graph` may be any [`AdjacencyView`] — a frozen
    /// [`Graph`](congest_graph::Graph) or a live adjacency structure
    /// (e.g. the `congest-stream` indexes) with no snapshot; the per-node
    /// neighbour lists are copied out here either way.
    pub fn new<V, F>(graph: &V, config: SimConfig, mut factory: F) -> Self
    where
        V: AdjacencyView + ?Sized,
        F: FnMut(&NodeInfo) -> P,
    {
        let n = graph.node_count();
        let bandwidth_bits = config.bandwidth.bits_per_round(n.max(1));
        let infos: Vec<NodeInfo> = graph
            .nodes()
            .map(|id| NodeInfo {
                id,
                n,
                neighbors: graph.neighbors(id).to_vec(),
                model: config.model,
                bandwidth_bits,
            })
            .collect();
        let programs: Vec<P> = infos.iter().map(&mut factory).collect();
        Simulation {
            infos,
            programs,
            state: RoundState::new(&config, n),
            config,
            rngs: (0..n)
                .map(|i| SmallRng::seed_from_u64(derive_node_seed(config.seed, i)))
                .collect(),
        }
    }

    /// Replaces the fault schedule, reseeding the fault RNG streams.
    ///
    /// Takes effect from the next epoch; program RNGs and state are
    /// untouched, so installing a quiet plan restores exact legacy
    /// behaviour.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.config.faults = plan;
        self.state.set_faults(&self.config);
    }

    /// Overrides the round cap for subsequent epochs.
    pub fn set_max_rounds(&mut self, max_rounds: u64) {
        self.config.max_rounds = max_rounds;
    }

    /// Number of nodes in the simulated network.
    pub fn node_count(&self) -> usize {
        self.infos.len()
    }

    /// Number of completed epochs.
    pub fn epoch(&self) -> u64 {
        self.state.epoch()
    }

    /// The program of `node`, for reading its live state between epochs.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of the simulated network.
    pub fn program(&self, node: NodeId) -> &P {
        &self.programs[node.index()]
    }

    /// Mutable access to the program of `node` (e.g. to drain per-epoch
    /// results a coordinator aggregates between epochs).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of the simulated network.
    pub fn program_mut(&mut self, node: NodeId) -> &mut P {
        &mut self.programs[node.index()]
    }

    /// Queues an out-of-band message for delivery to `to` at round 0 of
    /// the next epoch.
    ///
    /// This models client input arriving at a node from outside the
    /// network (the delta feed of a dynamic-graph algorithm, a query, a
    /// reconfiguration): it is *not* CONGEST traffic, so it bypasses the
    /// bandwidth budget and is not counted in the [`Metrics`]. The
    /// delivered [`ReceivedMessage::from`](crate::ReceivedMessage::from)
    /// is the receiving node itself.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a node of the simulated network.
    pub fn inject(&mut self, to: NodeId, payload: Payload) {
        self.state.inject(to, payload);
    }

    /// Replaces the neighbour list of `node` in the communication
    /// topology, effective from the next epoch.
    ///
    /// Dynamic-graph algorithms use this between epochs to keep the
    /// CONGEST topology in sync with the evolving input graph (a link
    /// exists exactly while its edge does). `neighbors` must be sorted,
    /// duplicate-free and must not contain `node` — the invariants of
    /// [`AdjacencyView::neighbors`]. Callers are responsible for keeping
    /// the topology symmetric across endpoints.
    pub fn update_topology(&mut self, node: NodeId, neighbors: Vec<NodeId>) {
        debug_assert!(neighbors.is_sorted(), "topology lists are sorted");
        debug_assert!(!neighbors.contains(&node), "no self-loops");
        self.infos[node.index()].neighbors = neighbors;
    }

    /// Drives every node program until all of them halt (or the round cap
    /// is reached), keeping the programs — and everything they learned —
    /// alive for the next epoch.
    ///
    /// Each epoch restarts per-node round numbering at 0 and wakes every
    /// node (halting is per-epoch, not permanent). Messages still
    /// undelivered when the epoch ends are dropped, exactly as messages
    /// to halted nodes are within an epoch.
    pub fn run_epoch(&mut self) -> EpochReport {
        let Simulation {
            infos,
            programs,
            config,
            rngs,
            state,
        } = self;
        // One send buffer for every node: `settle` drains it.
        let mut outbox = Outbox::default();
        state.run_epoch(config.max_rounds, |state, round| {
            for k in 0..state.active().len() {
                let i = state.active()[k];
                if !state.due(i, round) {
                    continue;
                }
                let mut ctx = state.context(i, &infos[i], &mut outbox, &mut rngs[i]);
                let status = programs[i].on_round(&mut ctx);
                state.settle(i, status, &mut outbox.messages);
            }
        })
    }

    /// Runs a single epoch to completion and collects outputs and metrics
    /// (the classic one-shot usage; see [`Simulation::run_epoch`] for the
    /// resumable form).
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
    use crate::context::id_payload;
    use crate::{Bandwidth, Model, NodeStatus, RoundContext};
    use congest_graph::generators::{Classic, Gnp};
    use congest_wire::BitReader;
    use rand::Rng;

    /// A program that does nothing and halts immediately.
    struct Idle;
    impl NodeProgram for Idle {
        type Output = ();
        fn on_round(&mut self, _ctx: &mut RoundContext<'_>) -> NodeStatus {
            NodeStatus::Halted
        }
        fn finish(&mut self) {}
    }

    /// Floods this node's id one hop and collects what it hears.
    struct Flood {
        heard: Vec<NodeId>,
    }
    impl NodeProgram for Flood {
        type Output = Vec<NodeId>;
        fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
            if ctx.round() == 0 {
                let codec = ctx.id_codec();
                for v in ctx.neighbors().to_vec() {
                    ctx.send(v, id_payload(codec, ctx.id().as_u64())).unwrap();
                }
                NodeStatus::Active
            } else {
                let codec = ctx.id_codec();
                for m in ctx.take_inbox() {
                    let id = codec.decode(&mut BitReader::new(&m.payload)).unwrap();
                    assert_eq!(id, m.from.as_u64(), "sender id must match payload");
                    self.heard.push(m.from);
                }
                NodeStatus::Halted
            }
        }
        fn finish(&mut self) -> Vec<NodeId> {
            std::mem::take(&mut self.heard)
        }
    }

    /// Never halts; used to exercise the round cap.
    struct Forever;
    impl NodeProgram for Forever {
        type Output = u64;
        fn on_round(&mut self, _ctx: &mut RoundContext<'_>) -> NodeStatus {
            NodeStatus::Active
        }
        fn finish(&mut self) -> u64 {
            0
        }
    }

    #[test]
    fn idle_network_takes_one_round() {
        let g = Classic::Path(4).generate();
        let report = Simulation::new(&g, SimConfig::congest(0), |_| Idle).run();
        assert_eq!(report.metrics.rounds, 1);
        assert_eq!(report.metrics.messages, 0);
        assert!(report.completed());
    }

    #[test]
    fn one_hop_flood_reaches_all_neighbors() {
        let g = Classic::Cycle(5).generate();
        let report = Simulation::new(&g, SimConfig::congest(3), |_| Flood { heard: vec![] }).run();
        assert_eq!(report.metrics.rounds, 2);
        assert_eq!(report.metrics.messages, 10);
        for (i, heard) in report.outputs.iter().enumerate() {
            assert_eq!(heard.len(), 2, "node {i} should hear both neighbours");
        }
        assert!(report.completed());
        // Every delivery was 3 bits (ids over n=5), so totals follow.
        assert_eq!(report.metrics.total_bits, 10 * 3);
        assert_eq!(report.metrics.max_received_bits(), 6);
    }

    #[test]
    fn round_limit_is_enforced() {
        let g = Classic::Path(3).generate();
        let config = SimConfig::congest(0).with_max_rounds(17);
        let report = Simulation::new(&g, config, |_| Forever).run();
        assert_eq!(report.metrics.rounds, 17);
        assert_eq!(report.termination, Termination::RoundLimit);
        assert!(!report.completed());
    }

    #[test]
    fn per_node_rng_is_deterministic_across_runs() {
        struct Sampler(u64);
        impl NodeProgram for Sampler {
            type Output = u64;
            fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
                self.0 = ctx.rng().gen();
                NodeStatus::Halted
            }
            fn finish(&mut self) -> u64 {
                self.0
            }
        }
        let g = Classic::Complete(4).generate();
        let run = |seed| {
            Simulation::new(&g, SimConfig::congest(seed), |_| Sampler(0))
                .run()
                .outputs
        };
        let a = run(5);
        let b = run(5);
        let c = run(6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Different nodes draw different values under the same master seed.
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn output_of_indexes_by_node() {
        let g = Classic::Path(3).generate();
        let report = Simulation::new(&g, SimConfig::congest(1), |_| Flood { heard: vec![] }).run();
        assert_eq!(report.output_of(NodeId(0)).len(), 1);
        assert_eq!(report.output_of(NodeId(1)).len(), 2);
    }

    #[test]
    fn clique_model_allows_non_neighbor_traffic() {
        struct CliqueState(usize);
        impl NodeProgram for CliqueState {
            type Output = usize;
            fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
                if ctx.round() == 0 {
                    if ctx.id() == NodeId(0) {
                        let p = id_payload(ctx.id_codec(), 0);
                        ctx.send(NodeId(2), p).unwrap();
                    }
                    NodeStatus::Active
                } else {
                    self.0 = ctx.inbox().len();
                    NodeStatus::Halted
                }
            }
            fn finish(&mut self) -> usize {
                self.0
            }
        }
        // Path 0-1-2: nodes 0 and 2 are not adjacent.
        let g = Classic::Path(3).generate();
        let config = SimConfig {
            model: Model::CongestClique,
            bandwidth: Bandwidth::default(),
            max_rounds: 100,
            seed: 0,
            faults: FaultPlan::default(),
        };
        let report = Simulation::new(&g, config, |_| CliqueState(0)).run();
        assert_eq!(*report.output_of(NodeId(2)), 1);
    }

    #[test]
    fn messages_to_halted_nodes_are_dropped_but_counted() {
        // Node 0 halts immediately; node 1 sends to it afterwards.
        struct Mixed {
            received: usize,
        }
        impl NodeProgram for Mixed {
            type Output = usize;
            fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
                match (ctx.id().0, ctx.round()) {
                    (0, _) => NodeStatus::Halted,
                    (1, 0) => {
                        let p = id_payload(ctx.id_codec(), 1);
                        ctx.send(NodeId(0), p).unwrap();
                        NodeStatus::Active
                    }
                    _ => {
                        self.received = ctx.inbox().len();
                        NodeStatus::Halted
                    }
                }
            }
            fn finish(&mut self) -> usize {
                self.received
            }
        }
        let g = Classic::Path(2).generate();
        let report = Simulation::new(&g, SimConfig::congest(0), |_| Mixed { received: 0 }).run();
        // The message was counted in the metrics even though node 0 never
        // processed it.
        assert_eq!(report.metrics.messages, 1);
        assert_eq!(*report.output_of(NodeId(0)), 0);
    }

    #[test]
    fn empty_graph_runs_and_reports() {
        let g = congest_graph::GraphBuilder::new(0).build();
        let report = Simulation::new(&g, SimConfig::congest(0), |_| Idle).run();
        assert_eq!(report.metrics.rounds, 0);
        assert!(report.completed());
        assert!(report.outputs.is_empty());
    }

    /// Runs exactly two rounds per epoch: round 0 tallies and forwards
    /// any injected input (recognizable by `from == self`) to the first
    /// neighbour, round 1 tallies deliveries and halts. Exercises
    /// injection, cross-epoch state and epoch-relative round numbering.
    struct Accumulator {
        heard: u64,
        epochs_seen: Vec<u64>,
    }
    impl NodeProgram for Accumulator {
        type Output = u64;
        fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
            if ctx.round() == 0 {
                self.epochs_seen.push(ctx.epoch());
                let codec = ctx.id_codec();
                let first = ctx.neighbors().first().copied();
                for m in ctx.take_inbox() {
                    self.heard += 1;
                    if m.from == ctx.id() {
                        if let Some(nb) = first {
                            if !ctx.has_queued(nb) {
                                ctx.send(nb, id_payload(codec, ctx.id().as_u64())).unwrap();
                            }
                        }
                    }
                }
                NodeStatus::Active
            } else {
                self.heard += ctx.inbox().len() as u64;
                NodeStatus::Halted
            }
        }
        fn finish(&mut self) -> u64 {
            self.heard
        }
    }

    fn accumulator() -> Accumulator {
        Accumulator {
            heard: 0,
            epochs_seen: Vec::new(),
        }
    }

    #[test]
    fn epochs_preserve_program_state_and_renumber_rounds() {
        let g = Classic::Path(2).generate();
        let mut sim = Simulation::new(&g, SimConfig::congest(0), |_| accumulator());
        assert_eq!(sim.epoch(), 0);

        // Epoch 0: no input; the fixed two-round script runs and halts.
        let ep = sim.run_epoch();
        assert!(ep.completed());
        assert_eq!(ep.metrics.rounds, 2);
        assert_eq!(sim.epoch(), 1);
        assert_eq!(sim.program(NodeId(0)).heard, 0);

        // Inject into node 0; it forwards to node 1 within the epoch.
        let payload = {
            let codec = congest_wire::IdCodec::new(2);
            let mut w = congest_wire::BitWriter::new();
            codec.encode(&mut w, 0);
            w.finish()
        };
        sim.inject(NodeId(0), payload);
        let ep = sim.run_epoch();
        assert!(ep.completed());
        assert_eq!(ep.metrics.rounds, 2);
        assert_eq!(ep.metrics.messages, 1);
        assert_eq!(sim.program(NodeId(0)).heard, 1); // the injection
        assert_eq!(sim.program(NodeId(1)).heard, 1); // the forward
                                                     // Round numbering restarted: both nodes saw round 0 in each epoch,
                                                     // with the epoch index advancing.
        assert_eq!(sim.program(NodeId(0)).epochs_seen, vec![0, 1]);

        // A third, inputless epoch adds nothing but still wakes everyone.
        let ep = sim.run_epoch();
        assert_eq!(ep.metrics.rounds, 2);
        assert_eq!(sim.program(NodeId(0)).heard, 1);
        assert_eq!(sim.program_mut(NodeId(0)).epochs_seen.len(), 3);
    }

    #[test]
    fn run_equals_a_single_epoch() {
        let g = Classic::Cycle(5).generate();
        let one_shot =
            Simulation::new(&g, SimConfig::congest(3), |_| Flood { heard: vec![] }).run();
        let mut resumable = Simulation::new(&g, SimConfig::congest(3), |_| Flood { heard: vec![] });
        let ep = resumable.run_epoch();
        assert_eq!(ep.metrics, one_shot.metrics);
        assert_eq!(ep.termination, one_shot.termination);
        for node in g.nodes() {
            assert_eq!(
                resumable.program_mut(node).finish(),
                one_shot.outputs[node.index()]
            );
        }
    }

    #[test]
    fn injected_messages_bypass_bandwidth_and_metrics() {
        let g = Classic::Path(2).generate();
        let mut sim = Simulation::new(&g, SimConfig::congest(0), |_| accumulator());
        // Far larger than the 8-bit budget of n=2: injection is client
        // input, not CONGEST traffic.
        let mut w = congest_wire::BitWriter::new();
        for _ in 0..10 {
            w.write_bits(0x5A, 8);
        }
        sim.inject(NodeId(1), w.finish());
        let ep = sim.run_epoch();
        assert_eq!(sim.program(NodeId(1)).heard, 1);
        // Only the (tiny) in-network forward was counted as traffic; the
        // 80-bit injected delivery itself never touched the metrics.
        assert_eq!(ep.metrics.messages, 1);
        assert!(ep.metrics.total_bits < 80);
    }

    #[test]
    fn update_topology_takes_effect_next_epoch() {
        // Start on a path 0-1-2; node 0 cannot reach node 2 directly.
        struct SendTo2;
        impl NodeProgram for SendTo2 {
            type Output = ();
            fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
                if ctx.id() == NodeId(0) && ctx.round() == 0 {
                    let p = id_payload(ctx.id_codec(), 0);
                    let _ = ctx.send(NodeId(2), p);
                }
                NodeStatus::Halted
            }
            fn finish(&mut self) {}
        }
        let g = Classic::Path(3).generate();
        let mut sim = Simulation::new(&g, SimConfig::congest(0), |_| SendTo2);
        let ep = sim.run_epoch();
        assert_eq!(ep.metrics.messages, 0, "0-2 is not a link yet");

        // Insert the edge {0, 2} into the topology; the send now succeeds.
        sim.update_topology(NodeId(0), vec![NodeId(1), NodeId(2)]);
        sim.update_topology(NodeId(2), vec![NodeId(0), NodeId(1)]);
        let ep = sim.run_epoch();
        assert_eq!(ep.metrics.messages, 1);
    }

    #[test]
    fn per_node_rng_state_continues_across_epochs() {
        struct Sampler(Vec<u64>);
        impl NodeProgram for Sampler {
            type Output = ();
            fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
                self.0.push(ctx.rng().gen());
                NodeStatus::Halted
            }
            fn finish(&mut self) {}
        }
        let g = Classic::Path(2).generate();
        let mut sim = Simulation::new(&g, SimConfig::congest(9), |_| Sampler(Vec::new()));
        sim.run_epoch();
        sim.run_epoch();
        let draws = &sim.program(NodeId(0)).0;
        assert_eq!(draws.len(), 2);
        assert_ne!(draws[0], draws[1], "rng must not reset between epochs");
    }

    // -----------------------------------------------------------------
    // Visiting order. The engine runs a round's nodes ascending; nothing
    // a program can see may depend on that, and the driver below is how
    // the claim is checked.
    // -----------------------------------------------------------------

    /// One epoch of `sim` with every round's due nodes *run* in an order
    /// drawn from `order`, each on an outbox of its own, and only then
    /// settled — ascending, through the same [`RoundState::settle`] the
    /// engine calls. Must be indistinguishable from
    /// [`Simulation::run_epoch`]: a program that was handed another
    /// node's inbox, streams or RNG, or that saw a neighbour's sends or
    /// stream chunks of the same round, would make the two differ.
    fn run_epoch_shuffled<P: NodeProgram>(
        sim: &mut Simulation<P>,
        order: &mut SmallRng,
    ) -> EpochReport {
        let Simulation {
            infos,
            programs,
            config,
            rngs,
            state,
        } = sim;
        state.run_epoch(config.max_rounds, |state, round| {
            let mut visit: Vec<usize> = state
                .active()
                .iter()
                .copied()
                .filter(|&i| state.due(i, round))
                .collect();
            for k in (1..visit.len()).rev() {
                visit.swap(k, order.gen_range(0..=k));
            }
            let mut replies: Vec<(usize, NodeStatus, Outbox)> = visit
                .into_iter()
                .map(|i| {
                    let mut outbox = Outbox::default();
                    let mut ctx = state.context(i, &infos[i], &mut outbox, &mut rngs[i]);
                    (i, programs[i].on_round(&mut ctx), outbox)
                })
                .collect();
            replies.sort_unstable_by_key(|&(i, ..)| i);
            for (i, status, mut outbox) in replies {
                state.settle(i, status, &mut outbox.messages);
            }
        })
    }

    /// Runs one epoch of `make()` in ascending order and one in each of
    /// three shuffled orders; outputs, metrics and termination must agree.
    /// Returns the report all four share.
    fn assert_order_independent<P, F>(
        graph: &congest_graph::Graph,
        config: SimConfig,
        make: F,
    ) -> RunReport<P::Output>
    where
        P: NodeProgram,
        P::Output: PartialEq + std::fmt::Debug,
        F: Fn() -> P,
    {
        let ascending = Simulation::new(graph, config, |_| make()).run();
        for order_seed in 0..3 {
            let mut sim = Simulation::new(graph, config, |_| make());
            let mut order = SmallRng::seed_from_u64(order_seed);
            let EpochReport {
                metrics,
                termination,
            } = run_epoch_shuffled(&mut sim, &mut order);
            let outputs: Vec<P::Output> = sim.programs.iter_mut().map(P::finish).collect();
            assert_eq!(outputs, ascending.outputs, "order seed {order_seed}");
            assert_eq!(metrics, ascending.metrics, "order seed {order_seed}");
            assert_eq!(termination, ascending.termination);
        }
        ascending
    }

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
                        ctx.send(v, id_payload(codec, value)).unwrap();
                    }
                    NodeStatus::Active
                }
                _ => {
                    let codec = ctx.id_codec();
                    for m in ctx.take_inbox() {
                        self.sum += codec.decode(&mut BitReader::new(&m.payload)).unwrap();
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
    fn shuffled_visits_match_ascending_exactly() {
        let g = Gnp::new(24, 0.3).seeded(5).generate();
        assert_order_independent(&g, SimConfig::congest(99), Gossip::new);
    }

    #[test]
    fn shuffled_visits_handle_empty_and_tiny_graphs() {
        let g = congest_graph::GraphBuilder::new(0).build();
        let report = assert_order_independent(&g, SimConfig::congest(0), Gossip::new);
        assert!(report.outputs.is_empty());

        let g = Classic::Path(2).generate();
        let report = assert_order_independent(&g, SimConfig::congest(0), Gossip::new);
        assert_eq!(report.outputs.len(), 2);
        assert_eq!(report.metrics.rounds, 2);
    }

    #[test]
    fn shuffled_epochs_match_ascending_epochs() {
        let g = Gnp::new(12, 0.4).seeded(8).generate();
        let config = SimConfig::congest(41);
        let mut ascending = Simulation::new(&g, config, |_| accumulator());
        let mut shuffled = Simulation::new(&g, config, |_| accumulator());
        let mut order = SmallRng::seed_from_u64(0x0DD);
        let payload = {
            let mut w = congest_wire::BitWriter::new();
            w.write_bits(3, 4);
            w.finish()
        };
        for epoch in 0..3u32 {
            let target = NodeId(epoch % 12);
            ascending.inject(target, payload.clone());
            shuffled.inject(target, payload.clone());
            let a = ascending.run_epoch();
            let b = run_epoch_shuffled(&mut shuffled, &mut order);
            assert_eq!(a.metrics, b.metrics, "epoch {epoch}");
            assert_eq!(a.termination, b.termination);
        }
        assert_eq!(ascending.epoch(), shuffled.epoch());
        for node in g.nodes() {
            let (a, b) = (ascending.program(node), shuffled.program(node));
            assert_eq!(
                (a.heard, &a.epochs_seen),
                (b.heard, &b.epochs_seen),
                "node {node} diverged across visiting orders"
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
                    ctx.send(v, id_payload(codec, value)).unwrap();
                }
                NodeStatus::Active
            } else {
                let codec = ctx.id_codec();
                for m in ctx.take_inbox() {
                    if let Ok(v) = codec.decode(&mut BitReader::new(&m.payload)) {
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
    fn shuffled_visits_match_ascending_under_faults() {
        let g = Gnp::new(20, 0.35).seeded(11).generate();
        for (drop_p, corrupt_p, dup_p) in [(0.1, 0.0, 0.0), (0.05, 0.05, 0.05), (0.0, 0.2, 0.1)] {
            let plan = FaultPlan::default()
                .with_drop(drop_p)
                .with_corruption(corrupt_p)
                .with_duplication(dup_p)
                .with_seed(0xFA)
                .with_crash(2, 0, 1);
            let config = SimConfig::congest(99).with_faults(plan);
            assert_order_independent(&g, config, || NoisyGossip { sum: 0 });
        }
    }

    /// Streams a random-length string to every neighbour in round 0 — a
    /// direct message instead where it came out shorter than a byte — and sleeps
    /// until round 6, waking early only for messages. Records what it
    /// reads, and when; takes its streams whenever it is awake.
    struct StreamSleeper {
        read: Vec<(u64, NodeId, Payload)>,
    }

    impl NodeProgram for StreamSleeper {
        type Output = Vec<(u64, NodeId, Payload)>;
        fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
            let round = ctx.round();
            if round == 0 {
                for at in 0..ctx.degree() {
                    let v = ctx.neighbors()[at];
                    let len = ctx.rng().gen_range(0..40usize);
                    let bytes = (0..5).map(|_| ctx.rng().gen()).collect();
                    let bits = Payload::from_parts(bytes, len);
                    if len < 8 {
                        ctx.send(v, id_payload(ctx.id_codec(), u64::from(v.0)))
                            .unwrap();
                    } else {
                        ctx.stream(v, bits).unwrap();
                    }
                }
            }
            for m in ctx.take_inbox() {
                self.read.push((round, m.from, m.payload));
            }
            for (from, bits) in ctx.take_streams() {
                self.read.push((round, from, bits));
            }
            if round >= 6 {
                NodeStatus::Halted
            } else {
                NodeStatus::Sleep(6)
            }
        }
        fn finish(&mut self) -> Vec<(u64, NodeId, Payload)> {
            std::mem::take(&mut self.read)
        }
    }

    #[test]
    fn shuffled_visits_match_ascending_with_streams_and_sleepers() {
        let g = Gnp::new(20, 0.35).seeded(11).generate();
        let sleeper = || StreamSleeper { read: Vec::new() };
        let report = assert_order_independent(&g, SimConfig::congest(99), sleeper);
        // Nodes woke early for messages and read streams in pieces.
        let early = report.outputs.iter().flatten().filter(|r| r.0 == 1).count();
        assert!(early > 20, "{early}");
        for (drop_p, corrupt_p, dup_p) in [(0.1, 0.0, 0.0), (0.05, 0.05, 0.05), (0.0, 0.2, 0.1)] {
            let plan = FaultPlan::default()
                .with_drop(drop_p)
                .with_corruption(corrupt_p)
                .with_duplication(dup_p)
                .with_seed(0xFA)
                .with_crash(2, 0, 1);
            let config = SimConfig::congest(99).with_faults(plan);
            assert_order_independent(&g, config, sleeper);
        }
    }

    #[test]
    fn shuffled_visits_respect_the_round_limit() {
        let g = Classic::Path(3).generate();
        let config = SimConfig::congest(0).with_max_rounds(5);
        let report = assert_order_independent(&g, config, || Forever);
        assert_eq!(report.metrics.rounds, 5);
        assert_eq!(report.termination, Termination::RoundLimit);
    }

    #[test]
    fn crashed_node_sits_the_epoch_out_and_wakes_after() {
        let g = Classic::Complete(4).generate();
        let plan = FaultPlan::default().with_crash(1, 0, 2);
        let config = SimConfig::congest(7).with_faults(plan);
        let mut sim = Simulation::new(&g, config, |_| accumulator());
        for _ in 0..3 {
            sim.run_epoch();
        }
        // Crashed for epochs 0 and 1, live in epoch 2: the program ran in
        // exactly one epoch.
        assert_eq!(sim.program(NodeId(1)).epochs_seen, vec![2]);
    }

    #[test]
    fn quiet_plan_is_bit_identical_to_no_plan() {
        let g = Gnp::new(16, 0.4).seeded(3).generate();
        let base = SimConfig::congest(5);
        let quiet = base.with_faults(FaultPlan::default().with_seed(0xDEAD));
        let a = Simulation::new(&g, base, |_| Gossip::new()).run();
        let b = Simulation::new(&g, quiet, |_| Gossip::new()).run();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics, b.metrics);
    }
}
