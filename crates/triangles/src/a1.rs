//! Algorithm A1 (Proposition 1): finding an ε-heavy triangle by
//! neighbourhood sampling.
//!
//! Each node `j` builds a random subset `S_j ⊆ N(j)` by keeping each
//! neighbour with probability `n^{−ε}`. If `|S_j| ≤ 4 n^{1−ε}` it ships
//! `S_j` to every neighbour (a chunked transfer of `O(n^{1−ε})` rounds);
//! each receiver `k` then lists every triangle `{j, k, l}` with
//! `l ∈ S_j ∩ N(k)`. If some edge `{j,k}` is contained in at least `n^ε`
//! triangles, then with constant probability some common neighbour of `j`
//! and `k` lands in `S_j` and the triangle is reported.
//!
//! Round complexity: `O(n^{1−ε})`.

use congest_graph::{NodeId, Triangle, TriangleSet};
use congest_sim::transfer::rounds_for_bits;
use congest_sim::{NodeInfo, NodeProgram, NodeStatus, RoundContext};
use congest_wire::{IdCodec, Payload};
use rand::Rng;

use crate::common::{encode_node_list, ids_to_nodes, try_decode_id_list};
use crate::params::PhasePlan;

/// Node program implementing Algorithm A1.
#[derive(Debug)]
pub struct A1Program {
    /// Sampling probability `n^{−ε}`.
    sample_probability: f64,
    /// Cap `4 n^{1−ε}` (times the profile's cap factor) on `|S_j|`.
    sample_cap: usize,
    /// Static phase plan: one chunked-broadcast phase plus a processing
    /// round.
    plan: PhasePlan,
    codec: IdCodec,
    found: TriangleSet,
}

impl A1Program {
    /// Creates the program for one node.
    ///
    /// `epsilon` is the heaviness exponent and `cap_factor` scales the
    /// `4 n^{1−ε}` sample cap (1.0 reproduces the paper's constant).
    pub fn new(info: &NodeInfo, epsilon: f64, cap_factor: f64) -> Self {
        let n = info.n.max(1);
        let nf = n as f64;
        let sample_probability = nf.powf(-epsilon).clamp(0.0, 1.0);
        let sample_cap = ((cap_factor * 4.0 * nf.powf(1.0 - epsilon)).ceil() as usize).clamp(1, n);
        let codec = IdCodec::new(n as u64);
        let send_rounds =
            rounds_for_bits(codec.list_bit_len(sample_cap), info.bandwidth_bits).max(1);
        let plan = PhasePlan::new(vec![send_rounds, 1]);
        A1Program {
            sample_probability,
            sample_cap,
            plan,
            codec,
            found: TriangleSet::new(),
        }
    }

    /// The number of rounds the program will take on any input.
    pub fn total_rounds(&self) -> u64 {
        self.plan.total_rounds()
    }

    /// The sample-size cap `4 n^{1−ε}` in effect.
    pub fn sample_cap(&self) -> usize {
        self.sample_cap
    }

    fn process_received(
        &mut self,
        me: NodeId,
        neighbors: &[NodeId],
        samples: Vec<(NodeId, Payload)>,
    ) {
        for (sender, payload) in samples {
            let Some(ids) = try_decode_id_list(self.codec, &payload) else {
                continue;
            };
            for l in ids_to_nodes(&ids) {
                // {sender, l} is an edge because l ∈ S_sender ⊆ N(sender);
                // {me, sender} is an edge because sender is a neighbour;
                // {me, l} is checked locally, so the triple is a triangle.
                if l != me && l != sender && neighbors.binary_search(&l).is_ok() {
                    self.found.insert(Triangle::new(me, sender, l));
                }
            }
        }
    }
}

impl NodeProgram for A1Program {
    type Output = TriangleSet;

    fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
        let round = ctx.round();
        let Some(position) = self.plan.position(round) else {
            return NodeStatus::Halted;
        };

        match position.phase {
            0 => {
                if position.is_first {
                    // Sample S_j and stream it to every neighbour.
                    let mut sample = Vec::new();
                    for at in 0..ctx.degree() {
                        if ctx.rng().gen_bool(self.sample_probability) {
                            sample.push(ctx.neighbors()[at]);
                        }
                    }
                    if sample.len() <= self.sample_cap {
                        let payload = encode_node_list(self.codec, &sample);
                        for at in 0..ctx.degree() {
                            let v = ctx.neighbors()[at];
                            ctx.stream(v, payload.clone())
                                .expect("one A1 stream a link");
                        }
                    }
                }
                // The streams drain by themselves; wake when they are in.
                NodeStatus::Sleep(self.plan.start_of(1))
            }
            _ => {
                // Final round: every stream has arrived; decode and report.
                let samples = ctx.take_streams();
                self.process_received(ctx.id(), ctx.neighbors(), samples);
                NodeStatus::Halted
            }
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
    use congest_graph::generators::{Classic, Gnp, PlantedHeavy, TriangleFreeBipartite};
    use congest_graph::triangles as reference;
    use congest_sim::SimConfig;

    fn run_a1(graph: &congest_graph::Graph, epsilon: f64, seed: u64) -> crate::AlgorithmRun {
        run_congest(graph, SimConfig::congest(seed), |info| {
            A1Program::new(info, epsilon, 1.0)
        })
    }

    #[test]
    fn output_is_always_sound() {
        for seed in 0..5 {
            let g = Gnp::new(40, 0.3).seeded(seed).generate();
            let run = run_a1(&g, 0.3, seed);
            assert!(run.is_sound(&g));
            assert!(run.completed);
        }
    }

    #[test]
    fn epsilon_zero_lists_everything_through_full_sampling() {
        // With epsilon = 0 the sampling probability is 1 and the cap is 4n,
        // so S_j = N(j): every triangle is reported by each of its nodes.
        let g = Classic::Complete(8).generate();
        let run = run_a1(&g, 0.0, 7);
        assert_eq!(run.triangles, reference::list_all(&g));
    }

    #[test]
    fn finds_planted_heavy_triangles_with_good_probability() {
        // An edge with support 20 on 60 nodes is 0.5-heavy (20 >= 60^0.5).
        let gen = PlantedHeavy::new(60, 20);
        let g = gen.generate();
        let mut successes = 0;
        let trials = 12;
        for seed in 0..trials {
            let run = run_a1(&g, 0.5, seed);
            if !run.triangles.is_empty() {
                successes += 1;
            }
        }
        // Proposition 1 promises constant success probability; over 12
        // independent trials seeing at least a third succeed is a safe bar.
        assert!(
            successes * 3 >= trials,
            "A1 found a heavy triangle in only {successes}/{trials} trials"
        );
    }

    #[test]
    fn triangle_free_graph_yields_nothing() {
        let g = TriangleFreeBipartite::new(20, 20, 0.4).seeded(5).generate();
        let run = run_a1(&g, 0.2, 3);
        assert!(run.triangles.is_empty());
    }

    #[test]
    fn round_complexity_matches_the_plan_and_shrinks_with_epsilon() {
        let g = Gnp::new(80, 0.4).seeded(1).generate();
        let run_low = run_a1(&g, 0.2, 1);
        let run_high = run_a1(&g, 0.8, 1);
        // Larger epsilon -> smaller sample cap -> fewer rounds.
        assert!(run_high.rounds() < run_low.rounds());
        // The round count equals the statically planned schedule.
        let expected = {
            let info = congest_sim::NodeInfo {
                id: congest_graph::NodeId(0),
                n: g.node_count(),
                neighbors: g.neighbors(congest_graph::NodeId(0)).to_vec(),
                model: congest_sim::Model::Congest,
                bandwidth_bits: congest_sim::Bandwidth::default().bits_per_round(g.node_count()),
            };
            A1Program::new(&info, 0.2, 1.0).total_rounds()
        };
        assert_eq!(run_low.rounds(), expected);
    }

    #[test]
    fn per_node_outputs_only_contain_incident_triangles() {
        // A receiver k only ever reports triangles containing itself.
        let g = Gnp::new(30, 0.4).seeded(9).generate();
        let run = run_a1(&g, 0.2, 11);
        for (i, set) in run.per_node.iter().enumerate() {
            for t in set {
                assert!(t.contains(congest_graph::NodeId(i as u32)));
            }
        }
    }
}
