//! # congest — Triangle Finding and Listing in CONGEST Networks
//!
//! This is the facade crate of the workspace reproducing
//! *"Triangle Finding and Listing in CONGEST Networks"*
//! (Taisuke Izumi and François Le Gall, PODC 2017).
//!
//! It re-exports the public API of every sub-crate so that downstream users
//! can depend on a single crate:
//!
//! * [`graph`] — graph substrate: representations, generators, centralized
//!   reference triangle algorithms, heavy-edge and `Δ(X)` machinery.
//! * [`wire`] — bit-precise message encoding used to account for the
//!   `O(log n)`-bit CONGEST bandwidth.
//! * [`hash`] — k-wise independent hash families (Wegman–Carter).
//! * [`sim`] — the synchronous CONGEST / CONGEST-clique round simulator.
//! * [`triangles`] — the paper's algorithms (A1, A2, A(X,r), A3 and the
//!   Theorem 1/2 drivers) plus baselines.
//! * [`info`] — information-theoretic experiment machinery for the paper's
//!   lower bounds (Theorem 3, Proposition 5).
//! * [`stream`] — the incremental triangle engines over batched edge
//!   deltas (single-threaded, sharded multi-core, and the distributed
//!   dynamic engine that runs every batch as an epoch of the simulated
//!   CONGEST network) plus the workload/scenario load-test harness; all
//!   engines are [`AdjacencyView`](graph::AdjacencyView)s, so the static
//!   drivers and the oracle run on them directly with no snapshot.
//!
//! ## Quick example
//!
//! ```
//! use congest::prelude::*;
//!
//! // A small random graph.
//! let graph = Gnp::new(40, 0.3).seeded(7).generate();
//!
//! // Run the Theorem 1 triangle-finding driver.
//! let config = FindingConfig::scaled(&graph);
//! let report = find_triangles(&graph, &config, 0xC0FFEE);
//!
//! // Whatever the driver reports must really be a triangle of the graph.
//! for t in report.triangles() {
//!     assert!(graph.is_triangle(*t));
//! }
//! ```

pub use congest_graph as graph;
pub use congest_hash as hash;
pub use congest_info as info;
pub use congest_sim as sim;
pub use congest_stream as stream;
pub use congest_triangles as triangles;
pub use congest_wire as wire;

/// Convenience prelude re-exporting the most commonly used items.
pub mod prelude {
    pub use congest_graph::{
        generators::{Gnp, PlantedHeavy, PlantedLight, TriangleFreeBipartite},
        AdjacencyView, Graph, GraphBuilder, NodeId, Triangle, TriangleSet,
    };
    pub use congest_hash::KWiseFamily;
    pub use congest_info::{rivin_edge_lower_bound, LowerBoundReport};
    pub use congest_sim::{Bandwidth, EpochReport, Model, RunReport, SimConfig, Simulation};
    pub use congest_stream::{
        BaseGraph, CongestCost, DeltaBatch, DistributedTriangleEngine, EdgeDelta, HubSplit, Lease,
        RunSummary, Scenario, ServeHandle, ShardedTriangleIndex, StreamEngine, TriangleIndex,
        TriangleServer, WorkerTelemetry, WorkloadRunner,
    };
    pub use congest_triangles::{
        find_triangles, list_triangles, ConstantsProfile, EpsilonChoice, FindingConfig,
        FindingReport, ListingConfig, ListingReport,
    };
}
