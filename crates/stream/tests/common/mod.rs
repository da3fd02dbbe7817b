//! The batch stream the engine property suites share.

use congest_graph::NodeId;
use congest_stream::DeltaBatch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Expands a compact spec into a randomized batch stream over `n` nodes.
///
/// Deltas are biased 60/40 toward insertion so streams actually build
/// structure, and roughly one delta in eight repeats the previous edge to
/// exercise duplicates, coalescing and no-ops.
pub fn random_batches(
    n: usize,
    batch_count: usize,
    batch_size: usize,
    seed: u64,
) -> Vec<DeltaBatch> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut last: Option<(NodeId, NodeId)> = None;
    (0..batch_count)
        .map(|_| {
            let mut batch = DeltaBatch::new();
            for _ in 0..batch_size {
                let (u, v) = match last {
                    Some(pair) if rng.gen_bool(0.125) => pair,
                    _ => {
                        let u = rng.gen_range(0..n);
                        let mut v = rng.gen_range(0..n);
                        while v == u {
                            v = rng.gen_range(0..n);
                        }
                        (NodeId::from_index(u), NodeId::from_index(v))
                    }
                };
                last = Some((u, v));
                if rng.gen_bool(0.6) {
                    batch.insert(u, v);
                } else {
                    batch.remove(u, v);
                }
            }
            batch
        })
        .collect()
}
