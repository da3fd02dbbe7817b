//! Helpers shared by the algorithm implementations.

use congest_graph::{for_each_common, AdjacencyView, Edge, NodeId, Triangle, TriangleSet};
use congest_sim::{Metrics, NodeInfo, NodeProgram, RunReport, SimConfig, Simulation};
use congest_wire::{BitReader, BitWriter, IdCodec, Payload};

/// The outcome of running one distributed triangle algorithm on a graph.
///
/// Wraps the simulator's [`RunReport`] with the union of the per-node
/// triangle outputs (the set `T` of the paper).
#[derive(Debug, Clone)]
pub struct AlgorithmRun {
    /// Union of the triangles output by all nodes.
    pub triangles: TriangleSet,
    /// Per-node outputs (`T_i`), indexed by node id.
    pub per_node: Vec<TriangleSet>,
    /// Traffic and round metrics of the run.
    pub metrics: Metrics,
    /// Whether every node halted before the simulator's round cap.
    pub completed: bool,
}

impl AlgorithmRun {
    /// Builds the aggregate from a raw simulator report.
    pub fn from_report(report: RunReport<TriangleSet>) -> Self {
        // Sorting copies of the outputs, not one tree insert a triple. A
        // triangle may be in most nodes' outputs (A2 on a dense graph), so
        // the copy is sorted and deduplicated each time it has doubled and
        // never holds much more than twice the union. Every output is a
        // sorted run, which the stable sort merges rather than sorts.
        let mut all: Vec<Triangle> = Vec::new();
        let mut distinct = 0;
        for output in &report.outputs {
            all.extend(output);
            if all.len() > 2 * distinct + 1024 {
                all.sort();
                all.dedup();
                distinct = all.len();
            }
        }
        let triangles = all.into_iter().collect();
        AlgorithmRun {
            triangles,
            completed: report.completed(),
            per_node: report.outputs,
            metrics: report.metrics,
        }
    }

    /// Number of rounds the run took.
    pub fn rounds(&self) -> u64 {
        self.metrics.rounds
    }

    /// Whether every output triple is a triangle of `graph` (the one-sided
    /// error property); used by tests and the experiment harness.
    pub fn is_sound<V: AdjacencyView + ?Sized>(&self, graph: &V) -> bool {
        self.triangles.iter().all(|&t| graph.is_triangle(t))
    }
}

/// Runs a triangle-outputting node program on `graph` and aggregates the
/// result.
///
/// `graph` may be any [`AdjacencyView`] — a frozen
/// [`Graph`](congest_graph::Graph) or a live adjacency structure such as
/// the `congest-stream` indexes, with no snapshot in between.
pub fn run_congest<V, P, F>(graph: &V, config: SimConfig, factory: F) -> AlgorithmRun
where
    V: AdjacencyView + ?Sized,
    P: NodeProgram<Output = TriangleSet>,
    F: FnMut(&NodeInfo) -> P,
{
    AlgorithmRun::from_report(Simulation::new(graph, config, factory).run())
}

/// Lists every triangle of the small graph described by an explicit edge
/// set, given as a sorted, duplicate-free slice.
///
/// This is the local computation performed by the receivers of Algorithm A2
/// (step 3 of Figure 1): after collecting the edge set `F_i`, node `i`
/// outputs all triples whose three pairs are in `F_i`.
///
/// The sorted slice is its own forward adjacency: the edges with smaller
/// endpoint `a` are consecutive and list `a`'s larger neighbours in
/// order. A triangle `a < b < c` is found once, at its edge `{a, b}`, as a
/// common entry of what follows `b` in `a`'s row and of `b`'s row — so
/// the triples come out in increasing order and the cost is one merge an
/// edge.
///
/// # Panics
///
/// Panics in debug builds if `edges` is not strictly increasing.
pub fn triangles_in_edge_set(edges: &[Edge]) -> TriangleSet {
    debug_assert!(
        edges.windows(2).all(|w| w[0] < w[1]),
        "edge set must be sorted and duplicate-free"
    );
    let Some(last) = edges.last() else {
        return TriangleSet::new();
    };
    // Larger endpoints, parallel to `edges`; `rows[v]..rows[v + 1]` is the
    // part of it that belongs to smaller endpoint `v`. No smaller endpoint
    // exceeds the last one.
    let forward: Vec<NodeId> = edges.iter().map(Edge::hi).collect();
    let mut rows = vec![0usize; last.lo().index() + 2];
    for e in edges {
        rows[e.lo().index() + 1] += 1;
    }
    for v in 1..rows.len() {
        rows[v] += rows[v - 1];
    }
    let row = |v: NodeId| match rows.get(v.index()..v.index() + 2) {
        Some(bounds) => &forward[bounds[0]..bounds[1]],
        None => &[],
    };
    let mut found = Vec::new();
    for (at, e) in edges.iter().enumerate() {
        let (a, b) = e.endpoints();
        let rest_of_a = &forward[at + 1..rows[a.index() + 1]];
        for_each_common(rest_of_a, row(b), |c| found.push(Triangle::new(a, b, c)));
    }
    found.into_iter().collect()
}

/// Encodes a list of node ids as a length-prefixed identifier list — the
/// payload of every "send a set of nodes" step.
pub fn encode_node_list(codec: IdCodec, nodes: &[NodeId]) -> Payload {
    let mut w = BitWriter::new();
    write_node_list(codec, &mut w, nodes);
    w.finish()
}

/// [`encode_node_list`] onto a writer that already holds a header: what
/// [`IdCodec::encode_list`] writes for the same identifiers, without a
/// `Vec<u64>` built first to hold them.
///
/// # Panics
///
/// Panics if a node is outside the codec's domain or there are more nodes
/// than the domain has identifiers.
pub fn write_node_list(codec: IdCodec, writer: &mut BitWriter, nodes: &[NodeId]) {
    assert!(
        nodes.len() as u64 <= codec.domain(),
        "a list of {} nodes cannot be a subset of a domain of size {}",
        nodes.len(),
        codec.domain()
    );
    writer.write_bits(nodes.len() as u64, codec.list_bit_len(0));
    for v in nodes {
        codec.encode(writer, v.as_u64());
    }
}

/// Attempts to decode a length-prefixed identifier list from a reassembled
/// payload, ignoring the padding bits chunking may have left behind it.
/// Malformed and truncated payloads yield `None`.
///
/// A1, A2 and A(X,r) call this once per stream, after the phase that
/// carried it has ended: there `None` means the sender was over its cap and
/// sent nothing usable, and the stream is skipped. Only the naive baseline
/// has no phase plan and polls — and it reads the length prefix with
/// [`id_list_bits_announced`] first, so it too decodes each list once.
pub fn try_decode_id_list(codec: IdCodec, payload: &Payload) -> Option<Vec<u64>> {
    let mut reader = BitReader::new(payload);
    codec.decode_list(&mut reader).ok()
}

/// The total length in bits of the identifier list whose first bits are
/// `payload`, read off its length prefix; `None` while the prefix itself
/// is incomplete.
pub fn id_list_bits_announced(codec: IdCodec, payload: &Payload) -> Option<usize> {
    let mut reader = BitReader::new(payload);
    let len = reader.read_bits(codec.list_bit_len(0)).ok()?;
    Some(codec.list_bit_len(len as usize))
}

/// Reads a slice of `u64` identifiers (as decoded from the wire) as node
/// ids.
pub fn ids_to_nodes(ids: &[u64]) -> impl Iterator<Item = NodeId> + '_ {
    ids.iter().map(|&id| NodeId(id as u32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    use congest_graph::generators::{Classic, Gnp};
    use congest_graph::triangles as reference;
    use congest_sim::{NodeStatus, RoundContext};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The B-tree body [`triangles_in_edge_set`] had before it moved onto
    /// the sorted slice; kept as the oracle.
    fn reference_edge_set_triangles(edges: &BTreeSet<Edge>) -> TriangleSet {
        // Adjacency restricted to the received edges.
        let mut adjacency: BTreeMap<NodeId, BTreeSet<NodeId>> = BTreeMap::new();
        for e in edges {
            adjacency.entry(e.lo()).or_default().insert(e.hi());
            adjacency.entry(e.hi()).or_default().insert(e.lo());
        }
        let mut out = TriangleSet::new();
        for e in edges {
            let (a, b) = e.endpoints();
            let na = &adjacency[&a];
            let nb = &adjacency[&b];
            for &c in na.intersection(nb) {
                // a < b always; report each triangle once via its smallest pair.
                if c > b {
                    out.insert(Triangle::new(a, b, c));
                }
            }
        }
        out
    }

    /// Both implementations on the same set.
    fn assert_matches_reference(edges: &BTreeSet<Edge>) -> TriangleSet {
        let sorted: Vec<Edge> = edges.iter().copied().collect();
        let found = triangles_in_edge_set(&sorted);
        assert_eq!(found, reference_edge_set_triangles(edges), "{edges:?}");
        found
    }

    fn edge(a: u32, b: u32) -> Edge {
        Edge::new(NodeId(a), NodeId(b))
    }

    #[test]
    fn triangles_in_edge_set_matches_reference() {
        for seed in 0..4 {
            let g = Gnp::new(20, 0.35).seeded(seed).generate();
            let edges: BTreeSet<Edge> = g.edges().collect();
            assert_eq!(assert_matches_reference(&edges), reference::list_all(&g));
        }
    }

    #[test]
    fn triangles_in_partial_edge_set() {
        // Take only the edges incident to node 0 of K5 plus the edge {1,2}:
        // the only triangles fully inside that set are {0,1,2} ... and any
        // {0,x,y} with {x,y} present, i.e. exactly {0,1,2}.
        let g = Classic::Complete(5).generate();
        let mut edges: BTreeSet<Edge> = g.edges().filter(|e| e.contains(NodeId(0))).collect();
        edges.insert(Edge::new(NodeId(1), NodeId(2)));
        let ts = assert_matches_reference(&edges);
        assert_eq!(ts.len(), 1);
        assert!(ts.contains(&Triangle::new(NodeId(0), NodeId(1), NodeId(2))));
    }

    #[test]
    fn empty_edge_set_has_no_triangles() {
        assert!(triangles_in_edge_set(&[]).is_empty());
        assert!(assert_matches_reference(&BTreeSet::new()).is_empty());
    }

    #[test]
    fn edge_set_shapes_match_the_reference() {
        // A star: many edges, one row, no triangle.
        let star: BTreeSet<Edge> = (1..12).map(|v| edge(0, v)).collect();
        assert!(assert_matches_reference(&star).is_empty());
        // The same star hanging off its largest node: every row has one
        // entry and no node but the last is ever a larger endpoint's row.
        let inward: BTreeSet<Edge> = (0..11).map(|v| edge(v, 11)).collect();
        assert!(assert_matches_reference(&inward).is_empty());
        // K7: every triple.
        let k7: BTreeSet<Edge> = Classic::Complete(7).generate().edges().collect();
        assert_eq!(assert_matches_reference(&k7).len(), 35);
        // Two triangles sharing the edge {2, 5}, on ids with gaps.
        let shared: BTreeSet<Edge> = [(2, 5), (2, 9), (5, 9), (1, 2), (1, 5)]
            .into_iter()
            .map(|(a, b)| edge(a, b))
            .collect();
        assert_eq!(assert_matches_reference(&shared).len(), 2);
    }

    #[test]
    fn random_edge_sets_match_the_reference() {
        let mut rng = SmallRng::seed_from_u64(24);
        for _ in 0..200 {
            let nodes = rng.gen_range(2..=40u32);
            let density = rng.gen_range(0.0..1.0);
            let mut edges = BTreeSet::new();
            for a in 0..nodes {
                for b in a + 1..nodes {
                    if rng.gen_bool(density) {
                        edges.insert(edge(a, b));
                    }
                }
            }
            assert_matches_reference(&edges);
        }
    }

    #[test]
    fn a2_input_shape_goes_through_sort_and_dedup() {
        // What A2's last round collects at node 3: edge lists from its
        // neighbours, in arrival order, an edge reported by both of its
        // endpoints twice, then the node's own incident edges — some of
        // which were reported too.
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..50 {
            let me = 3u32;
            let neighbors: Vec<u32> = (0..30).filter(|&v| v != me && rng.gen_bool(0.5)).collect();
            let mut collected = Vec::new();
            for &sender in &neighbors {
                for l in 0..30 {
                    if l != sender && rng.gen_bool(0.3) {
                        collected.push(edge(sender, l));
                    }
                }
            }
            for &v in &neighbors {
                collected.push(edge(me, v));
            }
            let as_set: BTreeSet<Edge> = collected.iter().copied().collect();
            collected.sort_unstable();
            collected.dedup();
            assert_eq!(
                triangles_in_edge_set(&collected),
                reference_edge_set_triangles(&as_set)
            );
        }
    }

    #[test]
    fn try_decode_handles_partial_and_complete_payloads() {
        let codec = IdCodec::new(50);
        let mut w = BitWriter::new();
        codec.encode_list(&mut w, &[3, 7, 11]);
        let full = w.finish();
        assert_eq!(try_decode_id_list(codec, &full).unwrap(), vec![3, 7, 11]);

        // Truncate to the first byte: not decodable yet.
        let partial = Payload::from_parts(full.as_bytes()[..1].to_vec(), 8);
        assert!(try_decode_id_list(codec, &partial).is_none());

        // The empty payload is also "not yet complete".
        assert!(try_decode_id_list(codec, &Payload::new()).is_none());
    }

    #[test]
    fn id_node_conversions_round_trip() {
        let nodes = vec![NodeId(0), NodeId(7), NodeId(42)];
        let codec = IdCodec::new(50);
        let payload = encode_node_list(codec, &nodes);
        // Bit for bit what the codec writes for the same identifiers.
        let mut w = BitWriter::new();
        codec.encode_list(&mut w, &[0, 7, 42]);
        assert_eq!(payload, w.finish());
        let ids = try_decode_id_list(codec, &payload).unwrap();
        assert_eq!(ids_to_nodes(&ids).collect::<Vec<_>>(), nodes);
        // A header may precede the list.
        let mut w = BitWriter::new();
        w.write_bool(true);
        write_node_list(codec, &mut w, &nodes);
        assert_eq!(w.bit_len(), 1 + payload.bit_len());
    }

    #[test]
    fn announced_length_is_readable_as_soon_as_the_prefix_is() {
        let codec = IdCodec::new(50);
        let full = encode_node_list(codec, &[NodeId(3), NodeId(7), NodeId(11)]);
        assert_eq!(
            id_list_bits_announced(codec, &full),
            Some(codec.list_bit_len(3))
        );
        // The 6-bit prefix alone is enough; five bits of it are not.
        let prefix = codec.list_bit_len(0);
        let cut = |bits| Payload::from_parts(full.as_bytes().to_vec(), bits);
        assert_eq!(
            id_list_bits_announced(codec, &cut(prefix)),
            Some(full.bit_len())
        );
        assert_eq!(id_list_bits_announced(codec, &cut(prefix - 1)), None);
        assert_eq!(id_list_bits_announced(codec, &Payload::new()), None);
    }

    #[test]
    fn run_congest_aggregates_outputs() {
        /// Every node "outputs" the triangles it can see among its own
        /// neighbours (a purely local, zero-communication listing).
        struct LocalOnly {
            found: TriangleSet,
        }
        impl NodeProgram for LocalOnly {
            type Output = TriangleSet;
            fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
                // No communication: a node only knows its incident edges, so
                // it cannot verify any triangle; output nothing. This still
                // exercises aggregation and soundness checking.
                let _ = ctx;
                NodeStatus::Halted
            }
            fn finish(&mut self) -> TriangleSet {
                std::mem::take(&mut self.found)
            }
        }
        let g = Classic::Complete(5).generate();
        let run = run_congest(&g, SimConfig::congest(0), |_| LocalOnly {
            found: TriangleSet::new(),
        });
        assert!(run.triangles.is_empty());
        assert!(run.completed);
        assert!(run.is_sound(&g));
        assert_eq!(run.per_node.len(), 5);
        assert_eq!(run.rounds(), 1);
    }
}
