//! The [`StreamEngine`] abstraction: what every incremental triangle
//! engine offers the workload harness.
//!
//! Every engine — the multi-core [`ShardedTriangleIndex`] (whose
//! one-shard form is [`TriangleIndex`]) and the simulated-network
//! [`DistributedTriangleEngine`] — maintains adjacency plus the live
//! triangle set under [`DeltaBatch`]es. The live set is a hash set:
//! [`triangle_count`](StreamEngine::triangle_count) reads its length,
//! and each engine's inherent `triangles()` copies it out as a sorted
//! [`TriangleSet`](congest_graph::TriangleSet) in `O(t log t)` — for
//! checks, not for a loop. The
//! [`WorkloadRunner`](crate::WorkloadRunner) drives the shared-memory
//! engine at any shard count through the same scenario via this trait.
//! `apply` is the one write path: a caller that wants to defer work
//! holds its batches back and applies their [merge](DeltaBatch::merge).
//! The [`AdjacencyView`] supertrait is what makes the harness
//! snapshot-free: oracle recounts and the static CONGEST drivers read
//! the engine's live adjacency directly.

use congest_graph::AdjacencyView;

use crate::arena::ArenaStats;
use crate::delta::DeltaBatch;
use crate::distributed::DistributedTriangleEngine;
use crate::index::{ApplyReport, StreamError, TriangleIndex};
use crate::pool::WorkerTelemetry;
use crate::sharded::ShardedTriangleIndex;

/// An incremental triangle engine over batched edge deltas.
///
/// Implementations keep the invariant that, after every applied batch,
/// the live triangle set equals a from-scratch recount on the engine's
/// own [`AdjacencyView`].
pub trait StreamEngine: AdjacencyView {
    /// Applies a batch.
    ///
    /// # Errors
    ///
    /// [`StreamError::NodeOutOfRange`] if any delta references a node
    /// outside the graph; the batch is then applied not at all.
    fn apply(&mut self, batch: &DeltaBatch) -> Result<ApplyReport, StreamError>;

    /// Number of live triangles.
    fn triangle_count(&self) -> usize;

    /// Whether the live triangle set equals a from-scratch recount on the
    /// engine's own adjacency view: the same number of triangles, and
    /// every recounted one live.
    fn matches_oracle(&self) -> bool;

    /// Number of shards the engine partitions work across (1 for the
    /// single-threaded index).
    fn shard_count(&self) -> usize;

    /// Lifetime worker-pool telemetry — busy-share balance over every
    /// pool-applied batch — for engines backed by a
    /// persistent worker pool. The default is `None`: engines without a
    /// pool (or pool-backed engines whose batches all took the
    /// sequential path) have no worker balance to report.
    fn worker_telemetry(&self) -> Option<WorkerTelemetry> {
        None
    }

    /// Health of the engine's flat neighbour-arena storage (slab bytes,
    /// free-list occupancy, compaction count), for engines that store
    /// adjacency in a [`NeighborArena`](crate::NeighborArena). The
    /// default is `None`: the distributed engine's simulated node
    /// programs keep plain per-node lists and have no arena to report.
    fn arena_stats(&self) -> Option<ArenaStats> {
        None
    }

    /// Number of live triangles containing `node`, for engines that
    /// maintain per-node support counters incrementally (the serve
    /// layer's per-node query). The default is `None`: the distributed
    /// engine's node programs track per-edge candidate state, not a
    /// global support vector.
    fn node_support(&self, node: congest_graph::NodeId) -> Option<usize> {
        let _ = node;
        None
    }
}

/// The one-shard engine answers as the sharded engine it wraps.
impl StreamEngine for TriangleIndex {
    fn apply(&mut self, batch: &DeltaBatch) -> Result<ApplyReport, StreamError> {
        StreamEngine::apply(&mut **self, batch)
    }

    fn triangle_count(&self) -> usize {
        StreamEngine::triangle_count(&**self)
    }

    fn matches_oracle(&self) -> bool {
        StreamEngine::matches_oracle(&**self)
    }

    fn shard_count(&self) -> usize {
        StreamEngine::shard_count(&**self)
    }

    fn worker_telemetry(&self) -> Option<WorkerTelemetry> {
        StreamEngine::worker_telemetry(&**self)
    }

    fn arena_stats(&self) -> Option<ArenaStats> {
        StreamEngine::arena_stats(&**self)
    }

    fn node_support(&self, node: congest_graph::NodeId) -> Option<usize> {
        StreamEngine::node_support(&**self, node)
    }
}

impl StreamEngine for ShardedTriangleIndex {
    fn apply(&mut self, batch: &DeltaBatch) -> Result<ApplyReport, StreamError> {
        ShardedTriangleIndex::apply(self, batch)
    }

    fn triangle_count(&self) -> usize {
        ShardedTriangleIndex::triangle_count(self)
    }

    fn matches_oracle(&self) -> bool {
        ShardedTriangleIndex::matches_oracle(self)
    }

    fn shard_count(&self) -> usize {
        ShardedTriangleIndex::shard_count(self)
    }

    fn worker_telemetry(&self) -> Option<WorkerTelemetry> {
        ShardedTriangleIndex::worker_telemetry(self)
    }

    fn arena_stats(&self) -> Option<ArenaStats> {
        Some(ShardedTriangleIndex::arena_stats(self))
    }

    fn node_support(&self, node: congest_graph::NodeId) -> Option<usize> {
        Some(ShardedTriangleIndex::node_support(self, node))
    }
}

impl StreamEngine for DistributedTriangleEngine {
    fn apply(&mut self, batch: &DeltaBatch) -> Result<ApplyReport, StreamError> {
        DistributedTriangleEngine::apply(self, batch)
    }

    fn triangle_count(&self) -> usize {
        DistributedTriangleEngine::triangle_count(self)
    }

    fn matches_oracle(&self) -> bool {
        DistributedTriangleEngine::matches_oracle(self)
    }

    /// The distributed engine has no shared-memory shards; work is
    /// partitioned across the `n` network nodes instead.
    fn shard_count(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::NodeId;

    fn drive<E: StreamEngine>(mut engine: E) -> (usize, bool) {
        let mut batch = DeltaBatch::new();
        batch
            .insert(NodeId(0), NodeId(1))
            .insert(NodeId(1), NodeId(2))
            .insert(NodeId(0), NodeId(2));
        engine.apply(&batch).unwrap();
        (engine.triangle_count(), engine.matches_oracle())
    }

    #[test]
    fn all_engines_run_behind_the_trait() {
        assert_eq!(drive(TriangleIndex::new(4)), (1, true));
        assert_eq!(drive(ShardedTriangleIndex::new(4, 2)), (1, true));
        assert_eq!(drive(DistributedTriangleEngine::new(4)), (1, true));
        assert_eq!(StreamEngine::shard_count(&TriangleIndex::new(4)), 1);
        assert_eq!(
            StreamEngine::shard_count(&ShardedTriangleIndex::new(4, 3)),
            3
        );
        assert_eq!(
            StreamEngine::shard_count(&DistributedTriangleEngine::new(4)),
            1
        );
    }
}
