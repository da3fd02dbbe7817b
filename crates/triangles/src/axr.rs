//! Algorithm A(X, r) (Figure 2): listing every triangle whose three edges
//! lie in `Δ(X)`.
//!
//! The algorithm alternates communication phases whose lengths every node
//! can compute from globally known parameters, so the whole execution stays
//! in lock-step with no control traffic:
//!
//! 1. every node announces whether it belongs to `X` (one round);
//! 2. every node `k` ships `N(k) ∩ X` to its neighbours (`O(|X|)` rounds);
//! 3. while `U ≠ ∅` (executed for `⌊log2 n⌋ + 1` iterations, the bound of
//!    Proposition 4):
//!    * **S phase** — `k` sends `S^X_U(j,k)` to every neighbour `j ∈ U`
//!      when `|S^X_U(j,k)| ≤ r`, and an explicit "oversize" flag otherwise,
//!      so that step 4.2 needs no extra communication; receivers list the
//!      triangles `{j, k, l}`, `l ∈ S^X_U(j,k) ∩ N(j)`;
//!    * **V phase** — nodes that are r-good send `V^X_{U,r}` to their
//!      `U`-neighbours; receivers list the triangles `{j, l, m}`,
//!      `m ∈ V^X_{U,r}(j) ∩ N(l)`;
//!    * **U phase** — r-good nodes leave `U` and everyone announces its new
//!      membership (one round).
//!
//! Soundness is structural: every triple reported has two of its edges
//! guaranteed by the sender's adjacency and the third checked against the
//! receiver's adjacency, so the output never contains a non-triangle even
//! if `X` is adversarial or the `N(·) ∩ X` lists were truncated.
//!
//! Round complexity: `O(|X| + r log n)`.

use congest_graph::{NodeId, Triangle, TriangleSet};
use congest_sim::transfer::rounds_for_bits;
use congest_sim::{NodeInfo, NodeProgram, NodeStatus, RoundContext};
use congest_wire::{BitReader, BitWriter, IdCodec, Payload};
use rand::Rng;

use crate::common::{encode_node_list, ids_to_nodes, write_node_list};
use crate::params::PhasePlan;

/// How a node learns whether it belongs to the set `X`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum XMembership {
    /// Membership is an explicit input (as in the unit tests and in uses of
    /// A(X,r) with a deterministic `X`).
    Given(bool),
    /// Each node joins `X` independently with this probability at round 0
    /// (the sampling of Lemma 2 / Algorithm A3).
    Sample {
        /// Per-node inclusion probability.
        probability: f64,
    },
}

/// Parameters of Algorithm A(X, r).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AXrConfig {
    /// How this node decides its `X` membership.
    pub membership: XMembership,
    /// The r-goodness radius.
    pub r: f64,
    /// Globally known upper bound on `|N(k) ∩ X|` used to size the phase
    /// that distributes those sets; lists are truncated to this many
    /// entries (which can only reduce completeness, never soundness).
    pub x_cap: usize,
    /// Number of while-loop iterations to execute (`⌊log2 n⌋ + 1` suffices
    /// when Statement (1) of Lemma 3 holds).
    pub iterations: usize,
    /// Optional hard cut-off on the number of rounds (Algorithm A3 stops
    /// the run once the budgeted round count is exceeded).
    pub round_cutoff: Option<u64>,
}

impl AXrConfig {
    /// A configuration with an explicitly provided membership bit and no
    /// cut-off, suitable for running A(X, r) with a known `X`.
    pub fn given(in_x: bool, r: f64, x_cap: usize, n: usize) -> Self {
        AXrConfig {
            membership: XMembership::Given(in_x),
            r,
            x_cap,
            iterations: iterations_for(n),
            round_cutoff: None,
        }
    }
}

/// The `⌊log2 n⌋ + 1` iteration count of Proposition 4.
pub(crate) fn iterations_for(n: usize) -> usize {
    let n = n.max(2);
    (usize::BITS - (n - 1).leading_zeros()) as usize + 1
}

/// Kind of a phase in the static schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PhaseKind {
    XAnnounce,
    XNeighborhood,
    SPhase,
    VPhase,
    UPhase,
}

fn phase_kind(index: usize) -> PhaseKind {
    match index {
        0 => PhaseKind::XAnnounce,
        1 => PhaseKind::XNeighborhood,
        _ => match (index - 2) % 3 {
            0 => PhaseKind::SPhase,
            1 => PhaseKind::VPhase,
            _ => PhaseKind::UPhase,
        },
    }
}

/// Node program implementing Algorithm A(X, r).
#[derive(Debug)]
pub struct AXrProgram {
    config: AXrConfig,
    plan: PhasePlan,
    codec: IdCodec,
    /// Cap, in identifiers, of an S or V list (`⌊r⌋`, at most `n`).
    r_cap: usize,

    in_x: bool,
    membership_decided: bool,
    /// `N(me) ∩ X`, learnt from the announcement round; ascending.
    x_neighbors: Vec<NodeId>,
    /// `N(j) ∩ X`, ascending, for every neighbour `j` heard from in the
    /// distribution phase; ascending by `j`.
    x_sets: Vec<(NodeId, Vec<NodeId>)>,
    /// Whether this node is still in `U`.
    in_u: bool,
    /// Neighbours currently believed to be in `U`; ascending.
    u_neighbors: Vec<NodeId>,
    /// Whether this node decided it is r-good in the current iteration.
    good_this_iteration: bool,
    /// `V^X_{U,r}(me)` of the current iteration.
    v_list: Vec<NodeId>,

    found: TriangleSet,
}

impl AXrProgram {
    /// Creates the program for one node.
    pub fn new(info: &NodeInfo, config: AXrConfig) -> Self {
        let n = info.n.max(1);
        let codec = IdCodec::new(n as u64);
        let r_cap = (config.r.floor().max(0.0) as usize).min(n);
        let x_cap = config.x_cap.clamp(1, n);
        let bandwidth = info.bandwidth_bits;

        let mut lengths = vec![
            1,
            rounds_for_bits(codec.list_bit_len(x_cap), bandwidth).max(1),
        ];
        let s_len = rounds_for_bits(1 + codec.list_bit_len(r_cap), bandwidth).max(1);
        let v_len = rounds_for_bits(codec.list_bit_len(r_cap), bandwidth).max(1);
        for _ in 0..config.iterations.max(1) {
            lengths.push(s_len);
            lengths.push(v_len);
            lengths.push(1);
        }
        let plan = PhasePlan::new(lengths);

        let in_x = matches!(config.membership, XMembership::Given(true));
        let membership_decided = matches!(config.membership, XMembership::Given(_));

        AXrProgram {
            config,
            plan,
            codec,
            r_cap,
            in_x,
            membership_decided,
            x_neighbors: Vec::new(),
            x_sets: Vec::new(),
            in_u: true,
            u_neighbors: info.neighbors.clone(),
            good_this_iteration: false,
            v_list: Vec::new(),
            found: TriangleSet::new(),
        }
    }

    /// The number of rounds the full schedule takes (ignoring the cut-off).
    pub fn planned_rounds(&self) -> u64 {
        self.plan.total_rounds()
    }

    /// Whether this node ended up in `X` (meaningful once the run started).
    pub fn in_x(&self) -> bool {
        self.in_x
    }

    /// Interprets the data received during the phase that just ended —
    /// announcements or streams, one per sender. `parts` come in ascending
    /// sender order, which is what keeps the lists built here sorted.
    fn finalize_previous_phase(
        &mut self,
        previous: PhaseKind,
        me: NodeId,
        neighbors: &[NodeId],
        parts: Vec<(NodeId, Payload)>,
    ) {
        match previous {
            PhaseKind::XAnnounce => {
                self.x_neighbors = parts
                    .iter()
                    .filter(|(_, payload)| announced(payload) == Some(true))
                    .map(|(from, _)| *from)
                    .collect();
            }
            PhaseKind::XNeighborhood => {
                self.x_sets.clear();
                for (from, payload) in parts {
                    let mut r = BitReader::new(&payload);
                    if let Ok(ids) = self.codec.decode_list(&mut r) {
                        let mut set: Vec<NodeId> = ids_to_nodes(&ids).collect();
                        set.sort_unstable();
                        self.x_sets.push((from, set));
                    }
                }
            }
            PhaseKind::SPhase => {
                // Step 4.1 receiver side: list triangles {me, k, l} with
                // l ∈ S^X_U(me, k) ∩ N(me); record oversize flags for step
                // 4.2.
                self.v_list.clear();
                for (k, payload) in parts {
                    let mut r = BitReader::new(&payload);
                    let Ok(fits) = r.read_bool() else { continue };
                    if !fits {
                        self.v_list.push(k);
                        continue;
                    }
                    let Ok(ids) = self.codec.decode_list(&mut r) else {
                        continue;
                    };
                    for l in ids_to_nodes(&ids) {
                        if l != me && l != k && neighbors.binary_search(&l).is_ok() {
                            self.found.insert(Triangle::new(me, k, l));
                        }
                    }
                }
                self.good_this_iteration = (self.v_list.len() as f64) <= self.config.r;
            }
            PhaseKind::VPhase => {
                // Step 4.3 receiver side: list triangles {j, me, m} with
                // m ∈ V^X_{U,r}(j) ∩ N(me).
                for (j, payload) in parts {
                    let mut r = BitReader::new(&payload);
                    let Ok(ids) = self.codec.decode_list(&mut r) else {
                        continue;
                    };
                    for m in ids_to_nodes(&ids) {
                        if m != me && m != j && neighbors.binary_search(&m).is_ok() {
                            self.found.insert(Triangle::new(j, me, m));
                        }
                    }
                }
            }
            PhaseKind::UPhase => {
                let left: Vec<NodeId> = parts
                    .iter()
                    .filter(|(_, payload)| announced(payload) == Some(false))
                    .map(|(from, _)| *from)
                    .collect();
                self.u_neighbors.retain(|v| left.binary_search(v).is_err());
            }
        }
    }

    /// First-round actions of the current phase (queueing the phase's
    /// outgoing transfers).
    fn start_phase(&mut self, kind: PhaseKind, ctx: &mut RoundContext<'_>) -> NodeStatus {
        match kind {
            PhaseKind::XAnnounce => {
                if !self.membership_decided {
                    if let XMembership::Sample { probability } = self.config.membership {
                        self.in_x = ctx.rng().gen_bool(probability.clamp(0.0, 1.0));
                    }
                    self.membership_decided = true;
                }
                announce(ctx, self.in_x);
                NodeStatus::Active
            }
            PhaseKind::XNeighborhood => {
                let shipped = self.x_neighbors.len().min(self.config.x_cap.max(1));
                let payload = encode_node_list(self.codec, &self.x_neighbors[..shipped]);
                for at in 0..ctx.degree() {
                    let v = ctx.neighbors()[at];
                    self.stream(ctx, v, payload.clone());
                }
                NodeStatus::Active
            }
            PhaseKind::SPhase => {
                if !self.in_u {
                    // This node left U in an earlier iteration; its part is
                    // done (its final U announcement was delivered this
                    // round).
                    return NodeStatus::Halted;
                }
                let targets = &self.u_neighbors;
                let t = targets.len();
                // Every target's N(·) ∩ X, looked up once.
                let sets: Vec<Option<&[NodeId]>> = targets
                    .iter()
                    .map(|k| {
                        let at = self.x_sets.binary_search_by_key(k, |(from, _)| *from);
                        at.ok().map(|at| self.x_sets[at].1.as_slice())
                    })
                    .collect();
                // Whether {targets[a], targets[b]} ∈ Δ(X) as far as this
                // node can tell, at `a * t + b`. The relation is symmetric,
                // so each unordered pair is decided once. Missing
                // information is treated as "no known common witness"; this
                // can only add candidates, and soundness does not depend on
                // Δ(X) (see the module documentation).
                let mut in_delta = vec![false; t * t];
                for a in 0..t {
                    for b in a + 1..t {
                        let pair = match (sets[a], sets[b]) {
                            (Some(xa), Some(xb)) => sorted_disjoint(xa, xb),
                            _ => true,
                        };
                        in_delta[a * t + b] = pair;
                        in_delta[b * t + a] = pair;
                    }
                }
                for (a, &j) in targets.iter().enumerate() {
                    // S^X_U(j, me) = { l ∈ N(me) ∩ U : l ≠ j, {j,l} ∈ Δ(X) };
                    // the diagonal of `in_delta` is false.
                    let s: Vec<NodeId> = targets
                        .iter()
                        .zip(&in_delta[a * t..(a + 1) * t])
                        .filter(|(_, &pair)| pair)
                        .map(|(&l, _)| l)
                        .collect();
                    let mut w = BitWriter::new();
                    if s.len() <= self.r_cap && (s.len() as f64) <= self.config.r {
                        w.write_bool(true);
                        write_node_list(self.codec, &mut w, &s);
                    } else {
                        w.write_bool(false);
                    }
                    self.stream(ctx, j, w.finish());
                }
                NodeStatus::Active
            }
            PhaseKind::VPhase => {
                // Step 4.3 sender side: r-good nodes ship V^X_{U,r}.
                if self.in_u && self.good_this_iteration && !self.v_list.is_empty() {
                    let shipped = self.v_list.len().min(self.r_cap.max(1));
                    let payload = encode_node_list(self.codec, &self.v_list[..shipped]);
                    for &l in &self.u_neighbors {
                        self.stream(ctx, l, payload.clone());
                    }
                }
                NodeStatus::Active
            }
            PhaseKind::UPhase => {
                // Step 4.4/4.5: r-good nodes leave U; everyone announces.
                if self.in_u && self.good_this_iteration {
                    self.in_u = false;
                }
                announce(ctx, self.in_u);
                NodeStatus::Active
            }
        }
    }

    /// Streams `payload` to `to`, cut where this node's part ends: a
    /// chunk due in the cut-off round or later is never sent.
    fn stream(&self, ctx: &mut RoundContext<'_>, to: NodeId, payload: Payload) {
        let room = self.config.round_cutoff.map_or(usize::MAX, |cutoff| {
            (cutoff - ctx.round()) as usize * ctx.bandwidth_bits()
        });
        let payload = if payload.bit_len() <= room {
            payload
        } else {
            Payload::from_parts(payload.as_bytes().to_vec(), room)
        };
        ctx.stream(to, payload).expect("one A(X,r) stream a link");
    }
}

/// The one-bit announcements of the round before, one per sender in
/// ascending sender order; of a message that arrived twice, the first.
fn announcements(ctx: &mut RoundContext<'_>) -> Vec<(NodeId, Payload)> {
    let mut parts: Vec<(NodeId, Payload)> = ctx.take_inbox().map(|m| (m.from, m.payload)).collect();
    parts.dedup_by_key(|(from, _)| *from);
    parts
}

/// Sends the one-bit announcement `bit` to every neighbour.
fn announce(ctx: &mut RoundContext<'_>, bit: bool) {
    let mut w = BitWriter::new();
    w.write_bool(bit);
    let payload = w.finish();
    for at in 0..ctx.degree() {
        let v = ctx.neighbors()[at];
        ctx.send(v, payload.clone())
            .expect("a single bit fits any bandwidth budget");
    }
}

/// The bit a one-bit announcement carries, if `payload` is one.
fn announced(payload: &Payload) -> Option<bool> {
    BitReader::new(payload).read_bool().ok()
}

/// Whether two ascending lists share no element; stops at the first one
/// they share.
fn sorted_disjoint(a: &[NodeId], b: &[NodeId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

impl NodeProgram for AXrProgram {
    type Output = TriangleSet;

    fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
        let round = ctx.round();
        if let Some(cutoff) = self.config.round_cutoff {
            if round >= cutoff {
                return NodeStatus::Halted;
            }
        }
        let Some(position) = self.plan.position(round) else {
            return NodeStatus::Halted;
        };
        let kind = phase_kind(position.phase);

        // At a phase boundary what arrived belongs to the phase that just
        // ended; interpret it before starting the new phase.
        if position.is_first && position.phase > 0 {
            let previous = phase_kind(position.phase - 1);
            let parts = match previous {
                PhaseKind::XAnnounce | PhaseKind::UPhase => announcements(ctx),
                _ => ctx.take_streams(),
            };
            self.finalize_previous_phase(previous, ctx.id(), ctx.neighbors(), parts);
            // Phases are sized from the caps the payloads obey.
            debug_assert!(
                ctx.neighbors().iter().all(|&v| !ctx.has_queued(v)),
                "a stream outlived its phase"
            );
        }

        let status = if position.is_first {
            self.start_phase(kind, ctx)
        } else {
            NodeStatus::Active
        };
        if status == NodeStatus::Halted {
            return NodeStatus::Halted;
        }
        if position.phase + 1 == self.plan.phase_count() {
            // The very last round of the schedule (a one-round U phase):
            // nothing further will be delivered that this node still needs
            // (the final U announcements are irrelevant), so halt.
            debug_assert!(position.is_last);
            return NodeStatus::Halted;
        }
        // Streams drain by themselves; wake for the next phase, or for the
        // cut-off if that comes first.
        let next = self.plan.start_of(position.phase + 1);
        NodeStatus::Sleep(
            self.config
                .round_cutoff
                .map_or(next, |cutoff| next.min(cutoff)),
        )
    }

    fn finish(&mut self) -> TriangleSet {
        std::mem::take(&mut self.found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::run_congest;
    use congest_graph::generators::{Classic, Gnp, PlantedLight, TriangleFreeBipartite};
    use congest_graph::triangles as reference;
    use congest_graph::Graph;
    use congest_sim::SimConfig;

    fn run_axr_empty_x(graph: &Graph, r: f64, seed: u64) -> crate::AlgorithmRun {
        run_congest(graph, SimConfig::congest(seed), |info| {
            AXrProgram::new(
                info,
                AXrConfig::given(false, r, graph.node_count().max(1), graph.node_count()),
            )
        })
    }

    #[test]
    fn iterations_for_matches_log2() {
        assert_eq!(iterations_for(2), 1 + 1);
        assert_eq!(iterations_for(8), 3 + 1);
        assert_eq!(iterations_for(9), 4 + 1);
        assert_eq!(iterations_for(1000), 10 + 1);
    }

    #[test]
    fn with_empty_x_and_large_r_every_triangle_is_listed() {
        // X = ∅ means Δ(X) contains every pair, and r ≥ n means every S set
        // is small enough to ship, so Proposition 4 applies with all
        // triangles having their three edges in Δ(X): the output is T(G).
        for seed in 0..3 {
            let g = Gnp::new(28, 0.3).seeded(seed).generate();
            let run = run_axr_empty_x(&g, g.node_count() as f64, seed);
            assert_eq!(run.triangles, reference::list_all(&g), "seed {seed}");
            assert!(run.is_sound(&g));
        }
    }

    #[test]
    fn full_x_suppresses_triangles_with_common_neighbours_in_x() {
        // With X = V, any pair {a,b} with a common neighbour is outside
        // Δ(X). In K4 every edge has common neighbours, so no triangle has
        // its three edges in Δ(X) — but soundness still holds and the S/V
        // machinery may legitimately report triangles it can certify.
        let g = Classic::Complete(4).generate();
        let run = run_congest(&g, SimConfig::congest(3), |info| {
            AXrProgram::new(info, AXrConfig::given(true, 10.0, 4, 4))
        });
        assert!(run.is_sound(&g));
    }

    #[test]
    fn planted_light_triangles_are_listed_with_empty_x() {
        let gen = PlantedLight::new(30, 6);
        let g = gen.generate();
        let run = run_axr_empty_x(&g, 30.0, 5);
        assert_eq!(run.triangles.len(), 6);
    }

    #[test]
    fn triangle_free_graph_yields_nothing() {
        let g = TriangleFreeBipartite::new(15, 15, 0.4).seeded(8).generate();
        let run = run_axr_empty_x(&g, 30.0, 2);
        assert!(run.triangles.is_empty());
    }

    #[test]
    fn tiny_r_still_terminates_and_is_sound() {
        // r = 0 makes every non-empty S set oversize and no node r-good
        // (unless it has no U-neighbours), exercising the oversize marker
        // and the iteration cap.
        let g = Gnp::new(20, 0.4).seeded(1).generate();
        let run = run_congest(&g, SimConfig::congest(9), |info| {
            AXrProgram::new(info, AXrConfig::given(false, 0.0, 20, 20))
        });
        assert!(run.completed);
        assert!(run.is_sound(&g));
    }

    #[test]
    fn round_cutoff_stops_the_run_early() {
        let g = Gnp::new(30, 0.4).seeded(2).generate();
        let mut config = AXrConfig::given(false, 30.0, 30, 30);
        config.round_cutoff = Some(3);
        let run = run_congest(&g, SimConfig::congest(4), |info| {
            AXrProgram::new(info, config)
        });
        // Nodes halt in the round where the cut-off is reached, so the run
        // lasts at most cutoff + 1 rounds.
        assert!(run.rounds() <= 4);
        assert!(run.is_sound(&g));
    }

    #[test]
    fn sampled_membership_is_deterministic_per_seed() {
        let g = Gnp::new(40, 0.3).seeded(3).generate();
        let config = AXrConfig {
            membership: XMembership::Sample { probability: 0.2 },
            r: 40.0,
            x_cap: 40,
            iterations: iterations_for(40),
            round_cutoff: None,
        };
        let run1 = run_congest(&g, SimConfig::congest(11), |info| {
            AXrProgram::new(info, config)
        });
        let run2 = run_congest(&g, SimConfig::congest(11), |info| {
            AXrProgram::new(info, config)
        });
        assert_eq!(run1.triangles, run2.triangles);
        assert_eq!(run1.rounds(), run2.rounds());
        assert!(run1.is_sound(&g));
    }

    #[test]
    fn planned_rounds_reflect_parameters() {
        let info = congest_sim::NodeInfo {
            id: NodeId(0),
            n: 64,
            neighbors: vec![NodeId(1)],
            model: congest_sim::Model::Congest,
            bandwidth_bits: 12,
        };
        let small = AXrProgram::new(&info, AXrConfig::given(false, 4.0, 8, 64));
        let large = AXrProgram::new(&info, AXrConfig::given(false, 40.0, 8, 64));
        assert!(small.planned_rounds() < large.planned_rounds());
        let wide_x = AXrProgram::new(&info, AXrConfig::given(false, 4.0, 60, 64));
        assert!(wide_x.planned_rounds() > small.planned_rounds());
    }
}
