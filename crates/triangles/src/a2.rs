//! Algorithm A2 (Proposition 2, Figure 1): listing every ε-heavy triangle
//! with constant probability via 3-wise independent hashing.
//!
//! 1. Every node `i` samples a hash function
//!    `h_i : V → {0, …, ⌊n^{ε/2}⌋ − 1}` from a 3-wise independent family and
//!    sends it to all its neighbours.
//! 2. Every node `j` computes, for each neighbour `a`, the edge set
//!    `E_j^a = {{j, l} : l ∈ N(j), h_a(l) = 0}` and sends it to `a` if
//!    `|E_j^a| ≤ 8 + 4n / ⌊n^{ε/2}⌋`.
//! 3. Every node `i` collects the received edges `F_i` and outputs every
//!    triple whose three pairs lie in `F_i`.
//!
//! For a triangle `{j,k,l}` whose edge `{j,k}` is shared by at least `n^ε`
//! common neighbours `a`, Lemma 1 gives each such `a` a `≥ 3/(4 n^ε)` chance
//! of receiving all three edges, so at least one of them reports the
//! triangle with constant probability.
//!
//! Round complexity: `O(n^{1−ε/2})`.

use congest_graph::{Edge, NodeId, TriangleSet};
use congest_hash::{HashFunction, KWiseFamily};
use congest_sim::transfer::rounds_for_bits;
use congest_sim::{NodeInfo, NodeProgram, NodeStatus, RoundContext};
use congest_wire::{BitReader, IdCodec, Payload, Wire};

use crate::common::{encode_node_list, ids_to_nodes, triangles_in_edge_set, try_decode_id_list};
use crate::params::PhasePlan;

/// Node program implementing Algorithm A2.
#[derive(Debug)]
pub struct A2Program {
    family: KWiseFamily,
    /// Cap `8 + 4n / ⌊n^{ε/2}⌋` (times the profile factor) on `|E_j^a|`.
    edge_set_cap: usize,
    plan: PhasePlan,
    codec: IdCodec,
    /// The hash function this node sampled and distributed.
    own_hash: Option<HashFunction>,
    found: TriangleSet,
}

impl A2Program {
    /// Creates the program for one node.
    ///
    /// `epsilon` is the heaviness exponent and `cap_factor` scales the
    /// `8 + 4n/⌊n^{ε/2}⌋` cap (1.0 reproduces the paper's constant).
    pub fn new(info: &NodeInfo, epsilon: f64, cap_factor: f64) -> Self {
        let n = info.n.max(1);
        let nf = n as f64;
        let range = (nf.powf(epsilon / 2.0).floor() as u64).max(1);
        let family = KWiseFamily::new(3, n as u64, range);
        let edge_set_cap =
            ((cap_factor * (8.0 + 4.0 * nf / range as f64)).floor() as usize).clamp(1, n);
        let codec = IdCodec::new(n as u64);
        let hash_rounds = rounds_for_bits(family.encoded_bits(), info.bandwidth_bits).max(1);
        let edge_rounds =
            rounds_for_bits(codec.list_bit_len(edge_set_cap), info.bandwidth_bits).max(1);
        let plan = PhasePlan::new(vec![hash_rounds, edge_rounds, 1]);
        A2Program {
            family,
            edge_set_cap,
            plan,
            codec,
            own_hash: None,
            found: TriangleSet::new(),
        }
    }

    /// Total number of rounds the program takes on any input.
    pub fn total_rounds(&self) -> u64 {
        self.plan.total_rounds()
    }

    /// The edge-set cap `8 + 4n/⌊n^{ε/2}⌋` in effect.
    pub fn edge_set_cap(&self) -> usize {
        self.edge_set_cap
    }

    /// The hash-family range `⌊n^{ε/2}⌋` in effect.
    pub fn hash_range(&self) -> u64 {
        self.family.range()
    }

    /// Finalizes the hash-distribution phase: decode `h_a` for every
    /// neighbour `a` heard from (the streams come in sender order) and
    /// stream the edge set `E_j^a` to it.
    fn start_edge_phase(&mut self, ctx: &mut RoundContext<'_>) {
        for (a, payload) in ctx.take_streams() {
            let mut reader = BitReader::new(&payload);
            let Ok(hash) = self.family.decode_function(&mut reader) else {
                continue;
            };
            // The edge {j, a} itself also belongs to E_j^a when h_a(a) = 0,
            // but sending it is pointless (a already knows its incident
            // edges), so it is skipped; this only removes redundant traffic.
            let endpoints: Vec<NodeId> = ctx
                .neighbors()
                .iter()
                .copied()
                .filter(|&l| l != a && hash.hash(l.as_u64()) == 0)
                .collect();
            if endpoints.len() <= self.edge_set_cap {
                ctx.stream(a, encode_node_list(self.codec, &endpoints))
                    .expect("one edge-set stream a link");
            }
        }
    }

    /// Finalizes the edge phase: decode every received `E_j^i` into the
    /// set `F_i` and list its triangles.
    fn finish_and_list(&mut self, me: NodeId, neighbors: &[NodeId], sets: Vec<(NodeId, Payload)>) {
        let mut received_edges = Vec::new();
        for (sender, payload) in sets {
            let Some(ids) = try_decode_id_list(self.codec, &payload) else {
                continue;
            };
            for l in ids_to_nodes(&ids) {
                if l != sender {
                    received_edges.push(Edge::new(sender, l));
                }
            }
        }
        // Node i also knows its own incident edges; adding them matches the
        // paper's F_i (edges received) plus local knowledge and increases the
        // number of triangles node i can certify without extra communication.
        received_edges.extend(neighbors.iter().map(|&v| Edge::new(me, v)));
        // An edge both of whose endpoints are neighbours arrives twice.
        received_edges.sort_unstable();
        received_edges.dedup();
        self.found = triangles_in_edge_set(&received_edges);
    }
}

impl NodeProgram for A2Program {
    type Output = TriangleSet;

    fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
        let round = ctx.round();
        let Some(position) = self.plan.position(round) else {
            return NodeStatus::Halted;
        };

        match position.phase {
            0 => {
                if position.is_first {
                    // Sample h_i and stream it to the neighbourhood.
                    let hash = self.family.sample(ctx.rng());
                    let payload = hash.to_payload();
                    self.own_hash = Some(hash);
                    for at in 0..ctx.degree() {
                        let v = ctx.neighbors()[at];
                        ctx.stream(v, payload.clone())
                            .expect("one hash stream a link");
                    }
                }
                NodeStatus::Sleep(self.plan.start_of(1))
            }
            1 => {
                if position.is_first {
                    self.start_edge_phase(ctx);
                }
                NodeStatus::Sleep(self.plan.start_of(2))
            }
            _ => {
                let sets = ctx.take_streams();
                self.finish_and_list(ctx.id(), ctx.neighbors(), sets);
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
    use congest_graph::heavy;
    use congest_graph::triangles as reference;
    use congest_sim::SimConfig;

    fn run_a2(graph: &congest_graph::Graph, epsilon: f64, seed: u64) -> crate::AlgorithmRun {
        run_congest(graph, SimConfig::congest(seed), |info| {
            A2Program::new(info, epsilon, 1.0)
        })
    }

    #[test]
    fn output_is_always_sound() {
        for seed in 0..4 {
            let g = Gnp::new(36, 0.3).seeded(seed).generate();
            let run = run_a2(&g, 0.4, seed);
            assert!(run.is_sound(&g));
            assert!(run.completed);
        }
    }

    #[test]
    fn small_range_degenerates_to_full_neighbourhood_exchange() {
        // With a hash range of 1 every neighbour hashes to 0, so E_j^a is
        // N(j) (capped at 8 + 4n >= n): the edge phase ships whole
        // neighbourhoods and every triangle is listed.
        let g = Classic::Complete(7).generate();
        let run = run_a2(&g, 0.0, 3);
        assert_eq!(run.triangles, reference::list_all(&g));
    }

    #[test]
    fn lists_planted_heavy_triangles_with_good_probability() {
        // Edge {0,1} has support 25 on n = 70 nodes: heavy for eps = 0.5
        // (threshold 70^0.5 ≈ 8.4).
        let gen = PlantedHeavy::new(70, 25);
        let g = gen.generate();
        let (heavy_set, _) = heavy::partition_by_heaviness(&g, 0.5);
        assert_eq!(heavy_set.len(), 25);

        let mut per_triangle_hits = 0usize;
        let trials = 10usize;
        for seed in 0..trials as u64 {
            let run = run_a2(&g, 0.5, seed);
            assert!(run.is_sound(&g));
            // Count how many of the heavy triangles this pass listed.
            per_triangle_hits += heavy_set
                .iter()
                .filter(|t| run.triangles.contains(t))
                .count();
        }
        // Proposition 2 promises each heavy triangle is listed with
        // probability Ω(1) per pass; across 10 passes and 25 triangles we
        // should certainly see a healthy number of hits.
        assert!(
            per_triangle_hits >= 25,
            "only {per_triangle_hits} heavy-triangle hits across {trials} passes"
        );
    }

    #[test]
    fn triangle_free_graph_yields_nothing() {
        let g = TriangleFreeBipartite::new(18, 18, 0.5).seeded(2).generate();
        let run = run_a2(&g, 0.4, 1);
        assert!(run.triangles.is_empty());
    }

    #[test]
    fn round_count_matches_plan_and_caps_are_paper_exact() {
        let g = Gnp::new(64, 0.3).seeded(0).generate();
        let info = congest_sim::NodeInfo {
            id: congest_graph::NodeId(0),
            n: g.node_count(),
            neighbors: g.neighbors(congest_graph::NodeId(0)).to_vec(),
            model: congest_sim::Model::Congest,
            bandwidth_bits: congest_sim::Bandwidth::default().bits_per_round(g.node_count()),
        };
        let program = A2Program::new(&info, 0.5, 1.0);
        // floor(64^{0.25}) = 2, so the cap is 8 + 4*64/2 = 136, clamped to n.
        assert_eq!(program.hash_range(), 2);
        assert_eq!(program.edge_set_cap(), 64);
        let run = run_a2(&g, 0.5, 0);
        assert_eq!(run.rounds(), program.total_rounds());
    }

    #[test]
    fn larger_epsilon_means_fewer_rounds() {
        let g = Gnp::new(100, 0.2).seeded(4).generate();
        let low = run_a2(&g, 0.2, 4);
        let high = run_a2(&g, 0.9, 4);
        assert!(high.rounds() < low.rounds());
    }
}
