//! # congest-stream — incremental triangle engine over batched edge deltas
//!
//! The paper's algorithms answer one-shot queries on a static graph; a
//! service facing continuous traffic instead sees an *evolving* graph and
//! must keep its triangle set current. This crate provides that layer:
//!
//! * [`TriangleIndex`] — the one-shard engine: a [`ShardedTriangleIndex`]
//!   over a single shard, which maintains adjacency **and** the live
//!   [`TriangleSet`](congest_graph::TriangleSet) under [`DeltaBatch`]es
//!   of edge insertions/removals on the calling thread. Each delta only
//!   pays a common-neighbour intersection on its two endpoints (walked
//!   from the lower-degree side), so a batch costs
//!   `O(batch · d̄ log d_max)` instead of the `O(m^{3/2})` of a
//!   from-scratch recount.
//! * [`ShardedTriangleIndex`] — the multi-core engine: adjacency is
//!   partitioned across `S` shards by node hash (`id mod S`), each shard
//!   owning the full neighbour lists of its nodes. A batch with enough
//!   work applies in two phases — three shard-parallel waves (collect,
//!   record, insert-collect) on a **persistent caller-runs pool** (the
//!   engine thread is worker 0 beside `S − 1` helpers spawned once per
//!   engine and fed over channels; each worker does its own `id mod S`
//!   slice end to end and no work moves between workers mid-batch, so
//!   the engine's state is a function of its input alone), then a merge
//!   that dedupes triangle deltas so each triangle is counted exactly
//!   once (the type's documentation walks through the full pipeline;
//!   per-run balance is observable via [`WorkerTelemetry`]). **Picking
//!   `S`**: use the number of available cores for sustained churn (the
//!   `stream_bench` sweep measures S ∈ {1, 2, 4, 8}). A batch takes the
//!   pipeline only when `S > 1` and its estimated collect work (endpoint
//!   degrees plus a flat cost per delta, on the pre-batch adjacency)
//!   covers the helpers' wake-ups — 1 024 deltas always do — and then
//!   every wave leaves the engine thread; every other batch runs the
//!   one-shard engine's ordered loop, each write routed to the shard
//!   that owns its list. On 5000-delta batches (`perf_report`'s
//!   `bigbatch_sharded`, S = 2, 2 cores), every one pooled, it runs at
//!   1.06–1.26× the one-shard engine (four traced runs); on 256-delta
//!   batches (`pool_smallbatch`), every one ordered, at 0.72–0.81×.
//! * [`DistributedTriangleEngine`] — the **distributed dynamic** engine:
//!   every graph node is a node of a simulated CONGEST network that owns
//!   its adjacency slice, and each batch runs as one epoch of
//!   `congest-sim`'s resumable engine — effective deltas are broadcast
//!   to the affected neighbourhoods under the B-bit per-link budget
//!   (with [`HubSplit`] helper-splitting, over-budget hubs shed
//!   broadcast slices to their deltas' other endpoints, so hotspot
//!   epochs scale with the *average* rather than the maximum incident
//!   load), third vertices detect triangle births/deaths locally, and
//!   the candidate sets are dedup-merged up a BFS-forest convergecast in
//!   accounted rounds (the same exactly-once dedup core the sharded
//!   engine uses; no coordinator-side merge goes unpaid). It reports
//!   per-batch round/message cost ([`CongestCost`], with the aggregation
//!   rounds split out, so the broadcast prefix a [`HubSplit`] schedules
//!   is `rounds − convergecast_rounds` on a quiet engine) — the paper's
//!   yardstick — which the `dynamic_bench` harness compares against
//!   re-running the Theorem 1/2 drivers per batch (≥5x floor; ~100x in
//!   practice even while paying for its own merge).
//! * [`TriangleServer`] / [`ServeHandle`] / [`Lease`] — the serving
//!   layer: one writer applies batches and publishes **epoch-stamped
//!   read snapshots** (an O(S) handle-copy per batch; shard buffers are
//!   shared `Arc`s), while any number of reader sessions pin the last
//!   published epoch with a lease and answer queries — triangle count,
//!   per-node/per-edge support, edge-in-triangle, top-k-support —
//!   against that consistent view. Readers never block the write
//!   pipeline and the writer never waits on readers: it writes past the
//!   buffer its last view pins by swapping in a retained buffer caught
//!   up from an op log (left-right buffers, [`CowStats`]), so a write
//!   costs `O(batch)` and no lease can see bytes under mutation.
//!   `serve_bench` drives it with an open-loop load generator and gates
//!   the max-sustainable-rps and read-latency numbers; `perf_report`'s
//!   `serve_mixed` workload measures publish cost, closed-loop reads and
//!   the write ratio.
//! * [`StreamEngine`] — the trait all engines implement; the harness is
//!   generic over it. [`apply`](StreamEngine::apply) is every engine's
//!   one write path: a batch applies when it is handed over. Its
//!   [`AdjacencyView`](congest_graph::AdjacencyView)
//!   supertrait is what makes the layer **snapshot-free**: the
//!   centralized oracle and the paper's Theorem 1/2 drivers run directly
//!   on a live index with no `O(m)` rebuild.
//! * [`BatchSource`] / [`Scenario`] / [`Replay`] — where batches come
//!   from: [`Scenario`] generates the four deterministic synthetic
//!   families (uniform churn, hotspot/power-law churn, planted-triangle
//!   bursts, grow-then-shrink) over the existing `congest-graph`
//!   generators, and [`Replay`] chops a loaded temporal edge-list file
//!   ([`congest_graph::temporal`]) into batches by fixed size or time
//!   window ([`ReplayPolicy`]). Every source names and fingerprints
//!   itself so bench gates refuse cross-source baseline comparisons.
//! * [`WorkloadRunner`] — a load-test harness generic over any
//!   [`BatchSource`]: drives batches at an optional target rate, either
//!   eagerly or deferred — held back in a window whose
//!   [merge](DeltaBatch::merge) (only the last op per edge survives) is
//!   applied as one batch when a flush by batch count
//!   ([`WorkloadRunner::flush_every`]) and/or staleness deadline
//!   ([`WorkloadRunner::flush_deadline`]) is due — summarized as throughput,
//!   latency percentiles, at-flush staleness percentiles and
//!   incremental-vs-recompute speedup ([`RunSummary`], JSON-serializable
//!   with the source's identity embedded).
//!
//! The centralized reference listing
//! ([`congest_graph::triangles::list_all_on`]) is both the seed for
//! [`from_graph`](TriangleIndex::from_graph) and the correctness oracle:
//! the engines' invariant, enforced by property tests at every shard
//! count, is that after **any** sequence of batches the live set equals a
//! from-scratch recount.
//!
//! ```
//! use congest_graph::generators::Gnp;
//! use congest_stream::{DeltaBatch, Scenario, ShardedTriangleIndex, TriangleIndex, WorkloadRunner};
//!
//! // Incremental maintenance…
//! let base = Gnp::new(50, 0.1).seeded(2).generate();
//! let mut index = TriangleIndex::from_graph(&base);
//! let mut batch = DeltaBatch::new();
//! batch.insert(congest_graph::NodeId(0), congest_graph::NodeId(1));
//! index.apply(&batch).unwrap();
//! assert!(index.matches_oracle());
//!
//! // …the same stream through the sharded engine…
//! let mut sharded = ShardedTriangleIndex::from_graph(&base, 4);
//! sharded.apply(&batch).unwrap();
//! assert_eq!(sharded.triangles(), index.triangles());
//!
//! // …a window of batches held back and applied as their merge…
//! let mut more = DeltaBatch::new();
//! more.insert(congest_graph::NodeId(1), congest_graph::NodeId(2));
//! let mut less = DeltaBatch::new();
//! less.remove(congest_graph::NodeId(0), congest_graph::NodeId(1));
//! let window = [more, less];
//! sharded.apply(&DeltaBatch::merge(&window)).unwrap();
//! for b in &window {
//!     index.apply(b).unwrap();
//! }
//! assert_eq!(sharded.triangles(), index.triangles());
//!
//! // …and load-testing it, flushing a deferred window every 2 batches.
//! let summary = WorkloadRunner::new(Scenario::uniform_churn(50, 5, 10))
//!     .with_shards(4)
//!     .flush_every(2)
//!     .verified(true)
//!     .run();
//! assert!(summary.oracle_ok);
//! assert_eq!(summary.mode, "deferred");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
mod delta;
mod distributed;
mod engine;
mod index;
mod pool;
mod runner;
mod serve;
mod shard;
mod sharded;
mod source;
mod workload;

pub use arena::{ArenaStats, NeighborArena};
pub use delta::{DeltaBatch, DeltaOp, EdgeDelta};
pub use distributed::{
    CongestCost, DistributedTriangleEngine, HubSplit, ReceivedBitsSkew, RecoveryStats,
};
// Fault schedules are authored against the simulator's types; re-export
// them so chaos harnesses need only this crate.
pub use congest_sim::{CrashWindow, FaultPlan};
pub use engine::StreamEngine;
pub use index::{ApplyReport, StreamError, TriangleIndex};
pub use pool::WorkerTelemetry;
pub use runner::{LatencyStats, RecomputeStats, RunSummary, StalenessStats, WorkloadRunner};
pub use serve::{Lease, ServeHandle, TriangleServer, STALE_LEASE_WARN_EPOCHS};
pub use shard::CowStats;
pub use sharded::ShardedTriangleIndex;
pub use source::{split_batch_for_workers, BatchIter, BatchSource, Replay, ReplayPolicy};
pub use workload::{BaseGraph, Scenario, ScenarioBatchIter, ScenarioKind};
