//! The naive 2-hop baseline: local triangle listing in `Θ(d_max)` rounds.
//!
//! Every node streams its full neighbour list to every neighbour; once a
//! node has received the complete list of each neighbour it lists all
//! triangles containing itself. Termination is data-dependent (a node halts
//! when it has finished sending and every neighbour's list has decoded
//! completely), so no global knowledge of `d_max` is needed. Between the
//! rounds in which something can change — a neighbour's stream reaching the
//! length it is awaited at, or this node's own last chunk leaving — a node
//! sleeps.
//!
//! This is simultaneously the Table 1 baseline for the standard CONGEST
//! model and the *local listing* algorithm of Proposition 5 (every node
//! outputs exactly the triangles containing itself), whose transcript size
//! the lower-bound experiment measures.

use congest_graph::{for_each_common, NodeId, Triangle, TriangleSet};
use congest_sim::transfer::rounds_for_bits;
use congest_sim::{NodeInfo, NodeProgram, NodeStatus, RoundContext};
use congest_wire::{BitWriter, IdCodec, Payload};

use crate::common::{encode_node_list, id_list_bits_announced, ids_to_nodes, try_decode_id_list};

/// Node program implementing the naive 2-hop local listing baseline.
#[derive(Debug)]
pub struct NaiveLocalListing {
    codec: IdCodec,
    neighborhood: Vec<NodeId>,
    /// The first round in which this node's own streams have all been
    /// sent; known once it has opened them.
    sending_until: u64,
    /// Per neighbour (parallel to `neighborhood`): the bits of its stream
    /// taken so far.
    received: Vec<BitWriter>,
    /// Per neighbour (parallel to `neighborhood`): how long its stream has
    /// to be before it is worth looking at — the length prefix first, then
    /// the whole list the prefix announces.
    awaited_bits: Vec<usize>,
    /// Completed neighbour lists, parallel to `neighborhood`.
    neighbor_lists: Vec<Option<Vec<NodeId>>>,
    /// How many of them are complete.
    complete: usize,
    started: bool,
    found: TriangleSet,
}

impl NaiveLocalListing {
    /// Creates the program for one node.
    pub fn new(info: &NodeInfo) -> Self {
        let codec = IdCodec::new(info.n.max(1) as u64);
        let degree = info.neighbors.len();
        NaiveLocalListing {
            codec,
            neighborhood: info.neighbors.clone(),
            sending_until: 0,
            received: vec![BitWriter::new(); degree],
            awaited_bits: vec![codec.list_bit_len(0); degree],
            neighbor_lists: vec![None; degree],
            complete: 0,
            started: false,
            found: TriangleSet::new(),
        }
    }

    /// Appends what the neighbours' streams delivered since the last
    /// round to their buffers.
    fn absorb(&mut self, parts: Vec<(NodeId, Payload)>) {
        // Streams and neighbours both ascend, so one cursor pairs them.
        let mut slot = 0;
        for (from, bits) in parts {
            while self.neighborhood[slot] < from {
                slot += 1;
            }
            self.received[slot].write_payload(&bits);
        }
    }

    /// Decodes the lists that have arrived in full since the last call;
    /// returns whether every neighbour's list is now complete.
    ///
    /// The unfinished streams are looked at in place. One is copied out
    /// only when it has reached the length it is awaited at, which happens
    /// twice in its life: once to read the length prefix, once to decode
    /// the finished list.
    fn harvest_complete_lists(&mut self) -> bool {
        if self.complete == self.neighborhood.len() {
            return true;
        }
        for slot in 0..self.neighborhood.len() {
            let stream = &self.received[slot];
            if self.neighbor_lists[slot].is_some() || stream.bit_len() < self.awaited_bits[slot] {
                continue;
            }
            let bits = stream.clone().finish();
            match id_list_bits_announced(self.codec, &bits) {
                // The prefix is in: come back when the list it announces is.
                Some(total) if total > bits.bit_len() => self.awaited_bits[slot] = total,
                _ => match try_decode_id_list(self.codec, &bits) {
                    Some(ids) => {
                        let mut list: Vec<NodeId> = ids_to_nodes(&ids).collect();
                        list.sort_unstable();
                        self.neighbor_lists[slot] = Some(list);
                        self.complete += 1;
                    }
                    // Malformed: look again only if more arrives.
                    None => self.awaited_bits[slot] = bits.bit_len() + 1,
                },
            }
        }
        self.complete == self.neighborhood.len()
    }

    /// The first round after `round` in which a neighbour's stream could
    /// reach the length it is awaited at — a link carries at most two
    /// chunks a round, a chunk and its duplicate, so none gets there
    /// sooner — or, once every list is in, the round this node's own last
    /// chunk leaves.
    fn next_check(&self, round: u64, bandwidth_bits: usize) -> u64 {
        let per_round = 2 * bandwidth_bits;
        (0..self.neighborhood.len())
            .filter(|&slot| self.neighbor_lists[slot].is_none())
            .map(|slot| {
                let missing = self.awaited_bits[slot] - self.received[slot].bit_len();
                round + missing.div_ceil(per_round) as u64
            })
            .min()
            .unwrap_or(self.sending_until - 1)
    }

    fn list_local_triangles(&mut self, me: NodeId) {
        let mut found = Vec::new();
        for (i, (&u, list_u)) in self
            .neighborhood
            .iter()
            .zip(&self.neighbor_lists)
            .enumerate()
        {
            let Some(list_u) = list_u else {
                continue;
            };
            for_each_common(&self.neighborhood[i + 1..], list_u, |w| {
                found.push(Triangle::new(me, u, w));
            });
        }
        self.found = found.into_iter().collect();
    }
}

impl NodeProgram for NaiveLocalListing {
    type Output = TriangleSet;

    fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
        if !self.started {
            self.started = true;
            let payload = encode_node_list(self.codec, &self.neighborhood);
            if !self.neighborhood.is_empty() {
                self.sending_until =
                    ctx.round() + rounds_for_bits(payload.bit_len(), ctx.bandwidth_bits());
            }
            for at in 0..ctx.degree() {
                let v = ctx.neighbors()[at];
                ctx.stream(v, payload.clone())
                    .expect("one neighbourhood stream a link");
            }
        }
        let parts = ctx.take_streams();
        self.absorb(parts);

        // The last chunk of this node's own streams moves this round or
        // has moved already.
        let all_sent = ctx.round() + 1 >= self.sending_until;
        let all_received = self.harvest_complete_lists();
        if all_received && all_sent {
            self.list_local_triangles(ctx.id());
            NodeStatus::Halted
        } else {
            NodeStatus::Sleep(self.next_check(ctx.round(), ctx.bandwidth_bits()))
        }
    }

    fn finish(&mut self) -> TriangleSet {
        std::mem::take(&mut self.found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::run_congest;
    use congest_graph::generators::{Classic, Gnp, TriangleFreeBipartite};
    use congest_graph::triangles as reference;
    use congest_sim::{FaultPlan, SimConfig, Simulation};

    fn run_naive(graph: &congest_graph::Graph, seed: u64) -> crate::AlgorithmRun {
        run_congest(graph, SimConfig::congest(seed), NaiveLocalListing::new)
    }

    #[test]
    fn lists_exactly_the_triangles_of_the_graph() {
        for seed in 0..4 {
            let g = Gnp::new(30, 0.3).seeded(seed).generate();
            let run = run_naive(&g, seed);
            assert_eq!(run.triangles, reference::list_all(&g), "seed {seed}");
            assert!(run.completed);
        }
    }

    #[test]
    fn every_node_outputs_exactly_its_own_triangles() {
        // The local-listing property required by Proposition 5.
        let g = Gnp::new(25, 0.4).seeded(7).generate();
        let run = run_naive(&g, 7);
        for v in g.nodes() {
            let expected = reference::list_containing(&g, v);
            assert_eq!(run.per_node[v.index()], expected, "node {v}");
        }
    }

    #[test]
    fn triangle_free_graph_lists_nothing() {
        let g = TriangleFreeBipartite::new(12, 12, 0.5).seeded(3).generate();
        let run = run_naive(&g, 0);
        assert!(run.triangles.is_empty());
    }

    #[test]
    fn round_count_scales_with_max_degree() {
        // A star has d_max = n-1, so the hub must receive n-1 full lists
        // while the leaves only exchange tiny ones; rounds track d_max.
        let sparse = Classic::Cycle(40).generate();
        let dense = Classic::Complete(40).generate();
        let sparse_run = run_naive(&sparse, 1);
        let dense_run = run_naive(&dense, 1);
        assert!(dense_run.rounds() > 4 * sparse_run.rounds());
    }

    /// The program, woken every round when `poll` is set, with the round
    /// it halted in next to its output.
    struct Watched {
        program: NaiveLocalListing,
        poll: bool,
        halted_in: Option<u64>,
    }

    impl NodeProgram for Watched {
        type Output = (TriangleSet, Option<u64>);

        fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
            match self.program.on_round(ctx) {
                NodeStatus::Sleep(_) if self.poll => NodeStatus::Active,
                NodeStatus::Halted => {
                    self.halted_in = Some(ctx.round());
                    NodeStatus::Halted
                }
                status => status,
            }
        }

        fn finish(&mut self) -> (TriangleSet, Option<u64>) {
            (self.program.finish(), self.halted_in)
        }
    }

    #[test]
    fn sleeping_between_checks_changes_nothing_even_under_faults() {
        let g = Gnp::new(40, 0.3).seeded(5).generate();
        let plans = [
            FaultPlan::default(),
            FaultPlan::default().with_drop(0.05),
            FaultPlan::default().with_duplication(0.5),
            FaultPlan::default().with_corruption(0.05),
            FaultPlan::default()
                .with_drop(0.05)
                .with_duplication(0.1)
                .with_corruption(0.05),
        ];
        let seeds = 0..4;
        for (plan, seed) in plans
            .iter()
            .flat_map(|plan| seeds.clone().map(move |seed| (plan, seed)))
        {
            // Under faults a list may never decode: the cap ends the run.
            let config = SimConfig::congest(3)
                .with_faults(plan.with_seed(seed))
                .with_max_rounds(60);
            let run = |poll| {
                Simulation::new(&g, config, |info| Watched {
                    program: NaiveLocalListing::new(info),
                    poll,
                    halted_in: None,
                })
                .run()
            };
            let (asleep, polling) = (run(false), run(true));
            assert_eq!(asleep.metrics, polling.metrics, "{plan:?}");
            assert_eq!(asleep.outputs, polling.outputs, "{plan:?}");
            assert_eq!(asleep.termination, polling.termination, "{plan:?}");
        }
    }

    #[test]
    fn isolated_nodes_terminate_immediately() {
        let g = congest_graph::GraphBuilder::new(5).build();
        let run = run_naive(&g, 2);
        assert!(run.triangles.is_empty());
        assert_eq!(run.rounds(), 1);
    }
}
