//! Edge deltas and delta batches.
//!
//! A [`DeltaBatch`] is an *ordered* sequence of edge insertions and
//! removals — the unit of work the streaming engine applies atomically.
//! Batches coalesce: because a single edge's final presence depends only
//! on the **last** operation touching it, any prefix of flapping
//! (insert/remove/insert …) can be dropped without changing the
//! post-batch graph. A caller that holds a window of batches back
//! applies their coalesced [merge](DeltaBatch::merge) as one batch,
//! so edges that flap inside the window cost the engines nothing (the
//! [`WorkloadRunner`](crate::WorkloadRunner)'s flush policies do this).

use std::fmt;

use congest_graph::{Edge, NodeId};

/// The two kinds of edge mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeltaOp {
    /// Make the edge present (no-op if it already is).
    Insert,
    /// Make the edge absent (no-op if it already is).
    Remove,
}

impl DeltaOp {
    /// Short lowercase name, used in logs and JSON.
    pub fn name(self) -> &'static str {
        match self {
            DeltaOp::Insert => "insert",
            DeltaOp::Remove => "remove",
        }
    }
}

/// One edge mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeDelta {
    /// The edge being mutated.
    pub edge: Edge,
    /// Whether the edge is inserted or removed.
    pub op: DeltaOp,
}

impl EdgeDelta {
    /// An insertion of the edge `{a, b}`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (simple graphs only).
    pub fn insert(a: NodeId, b: NodeId) -> Self {
        EdgeDelta {
            edge: Edge::new(a, b),
            op: DeltaOp::Insert,
        }
    }

    /// A removal of the edge `{a, b}`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (simple graphs only).
    pub fn remove(a: NodeId, b: NodeId) -> Self {
        EdgeDelta {
            edge: Edge::new(a, b),
            op: DeltaOp::Remove,
        }
    }
}

impl fmt::Display for EdgeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = match self.op {
            DeltaOp::Insert => '+',
            DeltaOp::Remove => '-',
        };
        write!(f, "{sign}{}", self.edge)
    }
}

/// An ordered batch of edge deltas, applied atomically by the engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaBatch {
    deltas: Vec<EdgeDelta>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of deltas in the batch (including duplicates).
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// Whether the batch holds no deltas.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Appends a delta, preserving order.
    pub fn push(&mut self, delta: EdgeDelta) -> &mut Self {
        self.deltas.push(delta);
        self
    }

    /// Appends an insertion of `{a, b}`.
    pub fn insert(&mut self, a: NodeId, b: NodeId) -> &mut Self {
        self.push(EdgeDelta::insert(a, b))
    }

    /// Appends a removal of `{a, b}`.
    pub fn remove(&mut self, a: NodeId, b: NodeId) -> &mut Self {
        self.push(EdgeDelta::remove(a, b))
    }

    /// The deltas in application order.
    pub fn deltas(&self) -> &[EdgeDelta] {
        &self.deltas
    }

    /// Appends every delta of `other` after the deltas of `self`.
    pub fn extend_from(&mut self, other: &DeltaBatch) -> &mut Self {
        self.deltas.extend_from_slice(&other.deltas);
        self
    }

    /// The coalesced merge of a sequence of batches: the single batch whose
    /// application yields the same graph as applying each batch in turn,
    /// at most one delta per edge (its last op), sorted by edge. Merging
    /// one batch coalesces it.
    pub fn merge<'a, I: IntoIterator<Item = &'a DeltaBatch>>(batches: I) -> DeltaBatch {
        let mut all = DeltaBatch::new();
        for b in batches {
            all.extend_from(b);
        }
        DeltaBatch {
            deltas: coalesce(&all.deltas),
        }
    }
}

/// The one coalescer: `deltas` stably sorted by edge, keeping the last
/// op of each edge. [`DeltaBatch::merge`] and [`classify`] (the
/// distributed coordinator's and the shard pool's workers') both run it,
/// so every engine that coalesces drops the same ops.
pub(crate) fn coalesce(deltas: &[EdgeDelta]) -> Vec<EdgeDelta> {
    let mut out = deltas.to_vec();
    out.sort_by_key(|d| d.edge);
    out.dedup_by(|later, kept| {
        let same = later.edge == kept.edge;
        if same {
            *kept = *later;
        }
        same
    });
    out
}

/// The coalescing engines' classify step: `deltas` coalesced, and the
/// survivors kept only where they change the edge set that `present`
/// describes (an insert of an absent edge, a remove of a present one).
/// Returns the no-ops — every op the coalescer dropped plus every
/// survivor already in effect — and the effective deltas in edge order.
/// The shard pool's workers and the distributed coordinator both run
/// it, so their tallies follow one rule; `layer` names the caller's
/// trace category for the `coalesce` and `classify` spans.
pub(crate) fn classify(
    layer: &'static str,
    deltas: &[EdgeDelta],
    mut present: impl FnMut(Edge) -> bool,
) -> (usize, Vec<EdgeDelta>) {
    let coalesce_span = congest_obs::trace::span(layer, "coalesce");
    let mut effective = coalesce(deltas);
    drop(coalesce_span);
    congest_obs::span!(layer, "classify");
    effective.retain(|d| match d.op {
        DeltaOp::Insert => !present(d.edge),
        DeltaOp::Remove => present(d.edge),
    });
    (deltas.len() - effective.len(), effective)
}

impl FromIterator<EdgeDelta> for DeltaBatch {
    fn from_iter<I: IntoIterator<Item = EdgeDelta>>(iter: I) -> Self {
        DeltaBatch {
            deltas: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a DeltaBatch {
    type Item = &'a EdgeDelta;
    type IntoIter = std::slice::Iter<'a, EdgeDelta>;
    fn into_iter(self) -> Self::IntoIter {
        self.deltas.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn v(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn batch_preserves_order_and_duplicates() {
        let mut b = DeltaBatch::new();
        b.insert(v(0), v(1)).remove(v(1), v(0)).insert(v(0), v(1));
        assert_eq!(b.len(), 3);
        assert_eq!(b.deltas()[0], EdgeDelta::insert(v(0), v(1)));
        assert_eq!(b.deltas()[1], EdgeDelta::remove(v(0), v(1)));
    }

    #[test]
    fn coalesce_keeps_only_the_last_op_per_edge() {
        let mut b = DeltaBatch::new();
        b.insert(v(0), v(1))
            .remove(v(0), v(1))
            .insert(v(0), v(1))
            .insert(v(2), v(3))
            .remove(v(2), v(3))
            .insert(v(4), v(5));
        assert_eq!(
            coalesce(b.deltas()),
            [
                EdgeDelta::insert(v(0), v(1)),
                EdgeDelta::remove(v(2), v(3)),
                EdgeDelta::insert(v(4), v(5)),
            ]
        );
    }

    #[test]
    fn merge_spans_batches_in_order() {
        let mut b1 = DeltaBatch::new();
        b1.insert(v(0), v(1)).insert(v(2), v(3));
        let mut b2 = DeltaBatch::new();
        b2.remove(v(0), v(1));
        let merged = DeltaBatch::merge([&b1, &b2]);
        assert_eq!(
            merged.deltas(),
            &[EdgeDelta::remove(v(0), v(1)), EdgeDelta::insert(v(2), v(3)),]
        );
    }

    proptest! {
        /// The coalescer equals a last-writer-wins map over the batch:
        /// one delta per edge, in edge order, carrying the edge's last op.
        #[test]
        fn coalesce_keeps_what_a_last_writer_map_keeps(
            raw in prop::collection::vec((0u32..12, 0u32..12, any::<bool>()), 0..64),
        ) {
            let batch: DeltaBatch = raw
                .iter()
                .filter(|(a, b, _)| a != b)
                .map(|&(a, b, insert)| {
                    if insert {
                        EdgeDelta::insert(v(a), v(b))
                    } else {
                        EdgeDelta::remove(v(a), v(b))
                    }
                })
                .collect();
            let mut last = std::collections::BTreeMap::new();
            for d in &batch {
                last.insert(d.edge, d.op);
            }
            let expected: Vec<EdgeDelta> = last
                .into_iter()
                .map(|(edge, op)| EdgeDelta { edge, op })
                .collect();
            prop_assert_eq!(coalesce(batch.deltas()), expected);
        }
    }

    #[test]
    fn coalesce_of_empty_batch_is_empty() {
        assert!(coalesce(&[]).is_empty());
        assert!(DeltaBatch::merge([]).is_empty());
    }

    #[test]
    fn display_shows_sign_and_edge() {
        assert_eq!(EdgeDelta::insert(v(3), v(1)).to_string(), "+{1, 3}");
        assert_eq!(EdgeDelta::remove(v(1), v(3)).to_string(), "-{1, 3}");
        assert_eq!(DeltaOp::Insert.name(), "insert");
        assert_eq!(DeltaOp::Remove.name(), "remove");
    }
}
