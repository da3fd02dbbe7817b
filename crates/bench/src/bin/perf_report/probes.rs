//! Small direct measurements of single layers, each through the layer's
//! public functions on inputs built here. They run in the traced pass
//! only and are kept short: a probe says how fast a layer is on its own,
//! the workloads say how much of a run it is.

use std::hint::black_box;
use std::time::Instant;

use congest_graph::{count_common, AdjacencyView, Graph, GraphBuilder, NodeId};
use congest_hash::{Checksum61, KWiseFamily};
use congest_obs::Histogram;
use congest_sim::{NodeProgram, NodeStatus, RoundContext, SimConfig, Simulation};
use congest_stream::{DeltaBatch, NeighborArena};
use congest_wire::{BitReader, BitWriter, IdCodec};
use rand::SeedableRng;

use crate::gen::SplitMix64;
use crate::stats::median;

/// Calls `f` (which does `work` units a call) in rounds for about 20 ms
/// each and returns the median units per second over five rounds.
pub fn rate(work: f64, mut f: impl FnMut()) -> f64 {
    f();
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0u64;
            while start.elapsed().as_millis() < 20 {
                for _ in 0..8 {
                    f();
                }
                calls += 8;
            }
            calls as f64 * work / start.elapsed().as_secs_f64()
        })
        .collect();
    median(&rounds)
}

fn sorted_ids(len: usize, universe: u64, rng: &mut SplitMix64) -> Vec<NodeId> {
    let mut ids = std::collections::BTreeSet::new();
    while ids.len() < len {
        ids.insert(rng.below(universe) as u32);
    }
    ids.into_iter().map(NodeId).collect()
}

/// `count_common` on a `small` v `large` pair of sorted lists, in
/// millions of list elements offered per second.
pub fn kernel_melems_per_s(small: usize, large: usize, seed: u64) -> f64 {
    let mut rng = SplitMix64::new(seed);
    let universe = 4 * large as u64;
    let a = sorted_ids(small, universe, &mut rng);
    let b = sorted_ids(large, universe, &mut rng);
    rate((small + large) as f64, || {
        black_box(count_common(black_box(&a), black_box(&b)));
    }) / 1e6
}

/// What the intersection kernel can explain of a run: before every
/// `stride`-th batch is applied, `count_common` is re-issued on the two
/// live neighbour lists of each of its deltas.
pub struct KernelShare {
    /// Kernel time over apply time, on the sampled batches.
    pub share: f64,
    pub melems_per_s: f64,
}

pub fn kernel_share<E, V: AdjacencyView + ?Sized>(
    engine: &mut E,
    batches: &[DeltaBatch],
    stride: usize,
    view: impl Fn(&E) -> &V,
    mut apply: impl FnMut(&mut E, &DeltaBatch),
) -> KernelShare {
    let (mut kernel_ns, mut apply_ns, mut elems) = (0u128, 0u128, 0u64);
    for (i, batch) in batches.iter().enumerate() {
        let sampled = i % stride == 0;
        if sampled {
            let start = Instant::now();
            for d in batch.deltas() {
                let (u, v) = d.edge.endpoints();
                let (a, b) = (view(engine).neighbors(u), view(engine).neighbors(v));
                elems += (a.len() + b.len()) as u64;
                black_box(count_common(a, b));
            }
            kernel_ns += start.elapsed().as_nanos();
        }
        let start = Instant::now();
        apply(engine, batch);
        if sampled {
            apply_ns += start.elapsed().as_nanos();
        }
    }
    KernelShare {
        share: kernel_ns as f64 / apply_ns.max(1) as f64,
        melems_per_s: elems as f64 / (kernel_ns.max(1) as f64 / 1e9) / 1e6,
    }
}

/// Nanoseconds per `NeighborArena::insert` and `::remove`, on an arena
/// seeded with `view`'s neighbour lists; slots are drawn in proportion
/// to their degree, as a uniformly drawn live edge would pick them.
pub fn arena_ns<V: AdjacencyView + ?Sized>(view: &V, seed: u64) -> Option<(f64, f64)> {
    let n = view.node_count();
    let mut arena = NeighborArena::new(n);
    let mut endpoints: Vec<u32> = Vec::new();
    for i in 0..n {
        let list = view.neighbors(NodeId::from_index(i));
        arena.seed(i, list);
        endpoints.extend(std::iter::repeat_n(i as u32, list.len()));
    }
    if endpoints.is_empty() || n < 8 {
        return None;
    }
    let mut rng = SplitMix64::new(seed);
    // Few enough that fresh (slot, value) pairs are easy to find.
    let count = 100_000.min(n * n / 8);
    let mut ops: Vec<(usize, NodeId)> = Vec::with_capacity(count);
    let mut taken = std::collections::HashSet::new();
    while ops.len() < count {
        let slot = endpoints[rng.below(endpoints.len() as u64) as usize] as usize;
        let value = NodeId(rng.below(n as u64) as u32);
        if !arena.contains(slot, value) && taken.insert((slot, value)) {
            ops.push((slot, value));
        }
    }
    let start = Instant::now();
    for &(slot, value) in &ops {
        black_box(arena.insert(slot, value));
    }
    let insert_ns = start.elapsed().as_nanos() as f64 / count as f64;
    arena.advance_epoch();
    let start = Instant::now();
    for &(slot, value) in ops.iter().rev() {
        black_box(arena.remove(slot, value));
    }
    let remove_ns = start.elapsed().as_nanos() as f64 / count as f64;
    Some((insert_ns, remove_ns))
}

/// `IdCodec` list encode and decode, in MB of payload per second.
pub fn wire_mb_per_s(seed: u64) -> (f64, f64) {
    let mut rng = SplitMix64::new(seed);
    let codec = IdCodec::new(1 << 20);
    let ids: Vec<u64> = (0..4096).map(|_| rng.below(1 << 20)).collect();
    let encode = || {
        let mut writer = BitWriter::new();
        codec.encode_list(&mut writer, &ids);
        writer.finish()
    };
    let payload = encode();
    let bytes = payload.as_bytes().len() as f64;
    let enc = rate(bytes, || {
        black_box(encode());
    });
    let dec = rate(bytes, || {
        let mut reader = BitReader::new(&payload);
        black_box(
            codec
                .decode_list(&mut reader)
                .expect("own encoding decodes"),
        );
    });
    (enc / 1e6, dec / 1e6)
}

/// `KWiseFamily` evaluations in millions a second, and `Checksum61`
/// in MB of words a second.
pub fn hash_rates(seed: u64) -> (f64, f64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let function = KWiseFamily::new(4, 1 << 20, 1 << 10).sample(&mut rng);
    let mut x = 0u64;
    let evals = rate(256.0, || {
        for _ in 0..256 {
            x = (x + 1) & ((1 << 20) - 1);
            black_box(function.hash(black_box(x)));
        }
    });
    let words: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(seed | 1)).collect();
    let checksum = rate(words.len() as f64 * 8.0, || {
        let mut sum = Checksum61::new();
        for &w in &words {
            sum.update(w);
        }
        black_box(sum.value());
    });
    (evals / 1e6, checksum / 1e6)
}

/// Nanoseconds per `Histogram::record_ns`.
pub fn hist_record_ns() -> f64 {
    let mut hist = Histogram::new();
    let mut v = 1u64;
    let per_s = rate(256.0, || {
        for _ in 0..256 {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.record_ns(v >> 40);
        }
    });
    black_box(hist.count());
    1e9 / per_s
}

struct HaltNow;

impl NodeProgram for HaltNow {
    type Output = ();

    fn on_round(&mut self, _ctx: &mut RoundContext<'_>) -> NodeStatus {
        NodeStatus::Halted
    }

    fn finish(&mut self) {}
}

/// A ring on `n` nodes: the cheapest connected topology.
fn ring(n: usize) -> Graph {
    let mut builder = GraphBuilder::new(n);
    for i in 0..n {
        builder
            .add_edge(NodeId::from_index(i), NodeId::from_index((i + 1) % n))
            .expect("ring edges are simple");
    }
    builder.build()
}

/// Microseconds one `Simulation::run_epoch` costs when every node halts
/// in its first round: the fixed price of an epoch at `n` nodes.
pub fn sim_epoch_overhead_us(n: usize) -> f64 {
    let mut sim = Simulation::new(&ring(n), SimConfig::congest(1), |_| HaltNow);
    let per_s = rate(1.0, || {
        black_box(sim.run_epoch().metrics.rounds);
    });
    1e6 / per_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_stream::TriangleIndex;

    #[test]
    fn probes_return_positive_finite_rates() {
        for v in [
            kernel_melems_per_s(8, 256, 1),
            wire_mb_per_s(1).0,
            wire_mb_per_s(1).1,
            hash_rates(1).0,
            hash_rates(1).1,
            hist_record_ns(),
            sim_epoch_overhead_us(16),
        ] {
            assert!(v.is_finite() && v > 0.0, "{v}");
        }
    }

    #[test]
    fn arena_and_kernel_share_probes_run_on_a_live_index() {
        let mut index = TriangleIndex::new(64);
        let mut batch = DeltaBatch::new();
        for i in 0..63u32 {
            batch.insert(NodeId(i), NodeId(i + 1));
            batch.insert(NodeId(0), NodeId((i + 2).min(63)));
        }
        let share = kernel_share(
            &mut index,
            &[batch],
            1,
            |e| e,
            |e, b| {
                e.apply(b).expect("in range");
            },
        );
        assert!(share.share > 0.0 && share.melems_per_s >= 0.0);
        assert!(index.matches_oracle());
        let (insert, remove) = arena_ns(&index, 3).expect("index has edges");
        assert!(insert > 0.0 && remove > 0.0);
        assert!(arena_ns(&TriangleIndex::new(4), 3).is_none());
    }
}
