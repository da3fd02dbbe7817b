//! Dolev–Lenzen–Peled style deterministic triangle listing for the CONGEST
//! clique.
//!
//! The vertex set is split into `g = ⌈n^{1/3}⌉` groups of (almost) equal
//! size. Every unordered group triple `{a, b, c}` (with repetition) is
//! assigned to a node; the node responsible for a triple must learn every
//! edge whose two endpoint groups belong to the triple, after which it
//! lists all triangles spanned by the triple locally. Since a node is
//! responsible for `O(1)` triples and each triple spans `O((n/g)^2) =
//! O(n^{4/3})` potential edges, the receive side needs `O(n^{1/3})` rounds
//! in the clique (where a node can receive `n − 1` messages per round).
//!
//! The original algorithm balances the *send* side with Lenzen's routing
//! scheme. This implementation uses a simpler two-hop relay that achieves
//! the same asymptotic balance: every edge is first sent to a pseudo-random
//! intermediate node (hop 1), which forwards it to every responsible node
//! (hop 2). Both hops are scheduled as fixed-length phases whose lengths
//! are computed from worst-case load bounds with generous slack; if a load
//! bound is ever exceeded the surplus edges are dropped and counted (the
//! drop counters are part of the output and stay at zero on the workloads
//! of the experiments), so completeness degradation is always visible,
//! while soundness is unconditional.

use std::collections::{BTreeMap, BTreeSet};

use congest_graph::{Edge, NodeId, TriangleSet};
use congest_sim::transfer::rounds_for_bits;
use congest_sim::{NodeInfo, NodeProgram, NodeStatus, RoundContext};
use congest_wire::{bits_for_count, BitReader, BitWriter, IdCodec, Payload, WireError};

use crate::common::triangles_in_edge_set;
use crate::params::PhasePlan;

/// Global parameters of the clique listing algorithm, derived from `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DolevParams {
    /// Number of nodes.
    pub n: usize,
    /// Number of groups `g = ⌈n^{1/3}⌉`.
    pub groups: usize,
    /// Group size `⌈n / g⌉`.
    pub group_size: usize,
    /// Cap on the number of edges one node relays to one intermediate in
    /// hop 1.
    pub hop1_cap: usize,
    /// Cap on the number of edges one intermediate forwards to one
    /// responsible node in hop 2.
    pub hop2_cap: usize,
}

impl DolevParams {
    /// Derives the parameters for a network of `n` nodes.
    pub fn for_n(n: usize) -> Self {
        let n = n.max(1);
        let nf = n as f64;
        let groups = (nf.powf(1.0 / 3.0).ceil() as usize).clamp(1, n);
        let group_size = n.div_ceil(groups);
        // Hop 1: a node spreads its (at most n-1) incident edges over n
        // intermediates by a pseudo-random map; the per-intermediate load is
        // O(log n / log log n) with overwhelming probability. Slack keeps
        // drops at zero in practice.
        let hop1_cap = 8 + nf.ln().ceil() as usize;
        // Hop 2: a responsible node needs at most 3 (n/g)^2 edges, spread
        // over n intermediates: about 3 n^{1/3} per link on average. A 2x
        // slack plus an additive term covers the balls-in-bins deviation.
        let per_link = 3.0 * (group_size as f64).powi(2) / nf;
        let hop2_cap = (2.0 * per_link).ceil() as usize + 8;
        DolevParams {
            n,
            groups,
            group_size,
            hop1_cap,
            hop2_cap,
        }
    }

    /// Group of a node.
    pub fn group_of(&self, v: NodeId) -> usize {
        (v.index() / self.group_size).min(self.groups - 1)
    }

    /// Canonical index of the unordered group triple `{a, b, c}` (with
    /// repetition allowed) among all such triples.
    pub fn triple_index(&self, mut a: usize, mut b: usize, mut c: usize) -> usize {
        // Sort the triple.
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        if b > c {
            std::mem::swap(&mut b, &mut c);
        }
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        // Rank of (a <= b <= c) in colexicographic order of multisets:
        // count multisets that come before.
        // #multisets with largest element < c over g groups: C(c+2, 3).
        // Then among those with largest = c: rank of (a, b).
        let c3 = |x: usize| x * (x + 1) * (x + 2) / 6;
        let c2 = |x: usize| x * (x + 1) / 2;
        c3(c) + c2(b) + a
    }

    /// Total number of unordered group triples (with repetition).
    pub fn triple_count(&self) -> usize {
        let g = self.groups;
        g * (g + 1) * (g + 2) / 6
    }

    /// The node responsible for the triple with the given canonical index.
    pub fn responsible_node(&self, triple_index: usize) -> NodeId {
        NodeId::from_index(triple_index % self.n)
    }

    /// The nodes that must receive the edge `{u, v}`: the responsible nodes
    /// of every triple containing both endpoint groups.
    pub fn destinations(&self, e: Edge) -> BTreeSet<NodeId> {
        let a = self.group_of(e.lo());
        let b = self.group_of(e.hi());
        (0..self.groups)
            .map(|c| self.responsible_node(self.triple_index(a, b, c)))
            .collect()
    }

    /// Pseudo-random intermediate node used to balance hop 1 for the edge
    /// `{u, v}`, as computed by the sender (a fixed mixing of the two
    /// endpoint identifiers, so both endpoints and all relays agree on it).
    pub fn intermediate(&self, e: Edge) -> NodeId {
        let mut z = (e.lo().as_u64() << 32) ^ e.hi().as_u64();
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        NodeId::from_index((z % self.n as u64) as usize)
    }
}

/// Codec for length-prefixed edge lists.
#[derive(Debug, Clone, Copy)]
struct EdgeListCodec {
    ids: IdCodec,
    len_bits: usize,
}

impl EdgeListCodec {
    fn new(n: usize) -> Self {
        let n = n.max(1) as u64;
        EdgeListCodec {
            ids: IdCodec::new(n),
            // A node never ships more than n^2 edges in one list.
            len_bits: bits_for_count(n * n + 1),
        }
    }

    fn encode(&self, edges: &[Edge]) -> congest_wire::Payload {
        let mut w = BitWriter::new();
        w.write_bits(edges.len() as u64, self.len_bits);
        for e in edges {
            self.ids.encode(&mut w, e.lo().as_u64());
            self.ids.encode(&mut w, e.hi().as_u64());
        }
        w.finish()
    }

    fn bit_len(&self, count: usize) -> usize {
        self.len_bits + count * 2 * self.ids.width()
    }

    fn decode(&self, payload: &congest_wire::Payload) -> Result<Vec<Edge>, WireError> {
        let mut r = BitReader::new(payload);
        let len = r.read_bits(self.len_bits)?;
        let mut out = Vec::with_capacity(len as usize);
        for _ in 0..len {
            let a = self.ids.decode(&mut r)?;
            let b = self.ids.decode(&mut r)?;
            if a != b {
                out.push(Edge::new(NodeId(a as u32), NodeId(b as u32)));
            }
        }
        Ok(out)
    }

    /// The edges of every well-formed list in `parts`, in order.
    fn decode_all(self, parts: &[(NodeId, Payload)]) -> impl Iterator<Item = Edge> + '_ {
        parts
            .iter()
            .filter_map(move |(_, payload)| self.decode(payload).ok())
            .flatten()
    }
}

/// Node program implementing the clique listing baseline.
#[derive(Debug)]
pub struct DolevCliqueListing {
    params: DolevParams,
    codec: EdgeListCodec,
    plan: PhasePlan,
    /// Edges received as an intermediate during hop 1.
    relayed: Vec<Edge>,
    /// Edges received as a responsible node during hop 2, together with the
    /// node's own incident edges; sorted and deduplicated in the last
    /// round.
    gathered: Vec<Edge>,
    /// Edges dropped because a per-link cap was exceeded (0 in healthy
    /// runs); exposed through [`DolevCliqueListing::dropped`].
    dropped: usize,
    found: TriangleSet,
}

impl DolevCliqueListing {
    /// Creates the program for one node.
    ///
    /// The program requires the CONGEST-clique model; running it under the
    /// plain CONGEST model makes its sends fail.
    pub fn new(info: &NodeInfo) -> Self {
        let params = DolevParams::for_n(info.n);
        let codec = EdgeListCodec::new(info.n);
        let hop1_rounds =
            rounds_for_bits(codec.bit_len(params.hop1_cap), info.bandwidth_bits).max(1);
        let hop2_rounds =
            rounds_for_bits(codec.bit_len(params.hop2_cap), info.bandwidth_bits).max(1);
        let plan = PhasePlan::new(vec![hop1_rounds, hop2_rounds, 1]);
        DolevCliqueListing {
            params,
            codec,
            plan,
            relayed: Vec::new(),
            gathered: Vec::new(),
            dropped: 0,
            found: TriangleSet::new(),
        }
    }

    /// The derived global parameters.
    pub fn params(&self) -> DolevParams {
        self.params
    }

    /// Number of edges dropped due to cap overflows (0 in healthy runs).
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Total rounds of the static schedule.
    pub fn planned_rounds(&self) -> u64 {
        self.plan.total_rounds()
    }

    fn queue_hop1(&mut self, ctx: &mut RoundContext<'_>) {
        // Each node owns the edges for which it is the smaller endpoint.
        let me = ctx.id();
        let mut per_intermediate: BTreeMap<NodeId, Vec<Edge>> = BTreeMap::new();
        for &v in ctx.neighbors() {
            if me < v {
                let e = Edge::new(me, v);
                per_intermediate
                    .entry(self.params.intermediate(e))
                    .or_default()
                    .push(e);
            }
        }
        for (intermediate, mut edges) in per_intermediate {
            if edges.len() > self.params.hop1_cap {
                self.dropped += edges.len() - self.params.hop1_cap;
                edges.truncate(self.params.hop1_cap);
            }
            if intermediate == me {
                // No self-messages in the model: relay locally.
                self.relayed.extend(edges);
            } else {
                ctx.stream(intermediate, self.codec.encode(&edges))
                    .expect("one hop-1 stream a link");
            }
        }
    }

    fn queue_hop2(&mut self, ctx: &mut RoundContext<'_>) {
        let me = ctx.id();
        let mut per_destination: BTreeMap<NodeId, Vec<Edge>> = BTreeMap::new();
        let relayed = std::mem::take(&mut self.relayed);
        for e in relayed {
            for dest in self.params.destinations(e) {
                per_destination.entry(dest).or_default().push(e);
            }
        }
        for (dest, mut edges) in per_destination {
            edges.sort();
            edges.dedup();
            if dest == me {
                // This relay is itself responsible for the triple: keep the
                // edges locally instead of a (forbidden) self-message.
                self.gathered.extend(edges);
                continue;
            }
            if edges.len() > self.params.hop2_cap {
                self.dropped += edges.len() - self.params.hop2_cap;
                edges.truncate(self.params.hop2_cap);
            }
            ctx.stream(dest, self.codec.encode(&edges))
                .expect("one hop-2 stream a link");
        }
    }
}

impl NodeProgram for DolevCliqueListing {
    type Output = TriangleSet;

    fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
        let round = ctx.round();
        let Some(position) = self.plan.position(round) else {
            return NodeStatus::Halted;
        };
        match position.phase {
            0 => {
                if position.is_first {
                    self.queue_hop1(ctx);
                }
                NodeStatus::Sleep(self.plan.start_of(1))
            }
            1 => {
                if position.is_first {
                    let parts = ctx.take_streams();
                    self.relayed.extend(self.codec.decode_all(&parts));
                    self.queue_hop2(ctx);
                }
                NodeStatus::Sleep(self.plan.start_of(2))
            }
            _ => {
                let parts = ctx.take_streams();
                self.gathered.extend(self.codec.decode_all(&parts));
                // A node also knows its own incident edges for free.
                let me = ctx.id();
                self.gathered
                    .extend(ctx.neighbors().iter().map(|&v| Edge::new(me, v)));
                self.gathered.sort_unstable();
                self.gathered.dedup();
                self.found = triangles_in_edge_set(&self.gathered);
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
    use congest_graph::generators::{Classic, Gnp, TriangleFreeBipartite};
    use congest_graph::triangles as reference;
    use congest_sim::SimConfig;

    fn run_dolev(graph: &congest_graph::Graph, seed: u64) -> crate::AlgorithmRun {
        run_congest(graph, SimConfig::clique(seed), DolevCliqueListing::new)
    }

    #[test]
    fn params_partition_and_assign_consistently() {
        let p = DolevParams::for_n(100);
        assert_eq!(p.groups, 5);
        // Every node has a group below the group count.
        for i in 0..100 {
            assert!(p.group_of(NodeId(i)) < p.groups);
        }
        // Triple indices are unique over all sorted triples.
        let mut seen = std::collections::BTreeSet::new();
        for a in 0..p.groups {
            for b in a..p.groups {
                for c in b..p.groups {
                    assert!(seen.insert(p.triple_index(a, b, c)));
                }
            }
        }
        assert_eq!(seen.len(), p.triple_count());
        assert_eq!(*seen.iter().max().unwrap() + 1, p.triple_count());
        // Order of the arguments does not matter.
        assert_eq!(p.triple_index(2, 0, 1), p.triple_index(0, 1, 2));
    }

    #[test]
    fn every_edge_reaches_a_node_responsible_for_each_third_group() {
        let p = DolevParams::for_n(64);
        let e = Edge::new(NodeId(3), NodeId(40));
        let dests = p.destinations(e);
        assert!(!dests.is_empty());
        assert!(dests.len() <= p.groups);
    }

    #[test]
    fn lists_exactly_the_triangles_of_random_graphs() {
        for seed in 0..3 {
            let g = Gnp::new(40, 0.3).seeded(seed).generate();
            let run = run_dolev(&g, seed);
            assert_eq!(run.triangles, reference::list_all(&g), "seed {seed}");
            assert!(run.completed);
        }
    }

    #[test]
    fn lists_dense_and_triangle_free_graphs_correctly() {
        let g = Classic::Complete(30).generate();
        let run = run_dolev(&g, 1);
        assert_eq!(run.triangles.len(), 30 * 29 * 28 / 6);

        let g = TriangleFreeBipartite::new(20, 20, 0.5).seeded(9).generate();
        let run = run_dolev(&g, 2);
        assert!(run.triangles.is_empty());
    }

    #[test]
    fn round_count_follows_the_static_plan() {
        let g = Gnp::new(60, 0.5).seeded(5).generate();
        let info = congest_sim::NodeInfo {
            id: NodeId(0),
            n: g.node_count(),
            neighbors: g.neighbors(NodeId(0)).to_vec(),
            model: congest_sim::Model::CongestClique,
            bandwidth_bits: congest_sim::Bandwidth::default().bits_per_round(g.node_count()),
        };
        let planned = DolevCliqueListing::new(&info).planned_rounds();
        let run = run_dolev(&g, 5);
        assert_eq!(run.rounds(), planned);
    }
}
