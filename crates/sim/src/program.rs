//! The node-program interface.

use congest_graph::NodeId;

use crate::{Model, RoundContext};

/// Static, local knowledge of a node: exactly what the paper's model grants
/// each node before the first round (its identifier, `n`, and its incident
/// edges), plus the run parameters every node knows (model, bandwidth).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    /// This node's identifier.
    pub id: NodeId,
    /// Number of nodes in the network.
    pub n: usize,
    /// Sorted list of neighbours in the input graph (`N(id)`).
    pub neighbors: Vec<NodeId>,
    /// Communication model of the run.
    pub model: Model,
    /// Per-message budget in bits.
    pub bandwidth_bits: usize,
}

impl NodeInfo {
    /// Degree of the node in the input graph.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Whether `other` is a neighbour in the input graph (binary search on
    /// the sorted neighbour list).
    pub fn is_neighbor(&self, other: NodeId) -> bool {
        self.neighbors.binary_search(&other).is_ok()
    }
}

/// Status returned by a node program after each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    /// The node wants to keep participating.
    Active,
    /// The node has nothing to do before the given round of this epoch:
    /// its `on_round` is next called in that round, or in an earlier one
    /// in which a message reaches it. Its streams keep moving while it
    /// sleeps, and a stream chunk arriving does not wake it. A round no
    /// later than the next one makes this [`Active`](NodeStatus::Active).
    Sleep(u64),
    /// The node has terminated; its `on_round` will not be called again.
    /// What it sent this round — messages and one chunk of each of its
    /// streams — still goes out; then its streams stop.
    Halted,
}

/// A per-node state machine driven by the simulator.
///
/// Each round the engine calls [`NodeProgram::on_round`] with a
/// [`RoundContext`] exposing the inbox (messages sent to this node in the
/// previous round), the streams delivered so far, the outbox, the node's
/// deterministic RNG and its static [`NodeInfo`] — unless the node is
/// asleep ([`NodeStatus::Sleep`]). When every node has returned
/// [`NodeStatus::Halted`] the run ends and [`NodeProgram::finish`]
/// collects each node's output.
///
/// Programs must be `Send`. That keeps `Rc`-shared state out of programs
/// — half of the argument that nodes interact through messages only; the
/// other half is that `on_round` borrows one node's context and nothing
/// else — and it keeps [`Simulation<P>`](crate::Simulation) and the
/// engines built on it `Send`, an auto trait their callers would
/// otherwise lose silently.
pub trait NodeProgram: Send {
    /// The node's local output (the `T_i` of the paper for the triangle
    /// algorithms).
    type Output: Send;

    /// Executes one synchronous round.
    fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus;

    /// Extracts the node's output after the run has ended.
    fn finish(&mut self) -> Self::Output;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_info_queries() {
        let info = NodeInfo {
            id: NodeId(3),
            n: 10,
            neighbors: vec![NodeId(1), NodeId(4), NodeId(7)],
            model: Model::Congest,
            bandwidth_bits: 16,
        };
        assert_eq!(info.degree(), 3);
        assert!(info.is_neighbor(NodeId(4)));
        assert!(!info.is_neighbor(NodeId(5)));
        assert!(!info.is_neighbor(NodeId(3)));
    }
}
