//! The engine conformance suite: every engine configuration — the
//! one-shard index, the sharded engine at `S ∈ {1, 3, 8}`, a server read
//! through its leases, the distributed engine under every broadcast
//! schedule and under every plan of the fault sweep — runs the same
//! batches in lockstep with one reference [`TriangleIndex`]. After every
//! batch each engine must hold exactly the reference's triangles,
//! adjacency and node support, return the tallies its apply path
//! promises, and repeat bit for bit on a twin; `common::lockstep` states
//! the full contract. A faulted engine may instead fail with a typed
//! error; the engines that left that way are counted on stdout
//! (`--nocapture`).
//!
//! This suite runs every configuration together on the planted-heavy
//! bases and on replayed temporal files. The other families run through
//! the same harness one engine at a time, under the names of the engine
//! suites: `prop_index`, `prop_sharded`, `prop_distributed` and
//! `prop_faults`.
//!
//! [`TriangleIndex`]: congest_stream::TriangleIndex

mod common;

use common::{conform, Family};

#[test]
fn planted_heavy_bases_conform() {
    conform(Family::PlantedHeavy, |_| true);
}

#[test]
fn replayed_files_conform() {
    conform(Family::Replay, |_| true);
}
