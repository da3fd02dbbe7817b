//! Property tests for the flat neighbour-list arena: seeded from every
//! generator family and driven through long insert/remove/seed churn,
//! [`NeighborArena`] must stay element-for-element equal to a plain
//! `Vec<Vec<NodeId>>` oracle mutated by the obvious sorted-vec code —
//! across epoch boundaries, free-list reuse, slab growth and
//! compactions — and no two of its lists may ever share bytes. A freed
//! slab is reusable at once, so one family never ends an epoch at all.
//! A dedicated shrink-then-regrow schedule forces the free-list reuse
//! and compaction machinery specifically.

use congest_graph::generators::{Classic, Gnp, PlantedLight, TriangleFreeBipartite};
use congest_graph::{Graph, NodeId};
use congest_stream::NeighborArena;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The plain nested-vec storage the arena replaced, used as the oracle.
struct VecOracle {
    lists: Vec<Vec<NodeId>>,
}

impl VecOracle {
    fn new(slots: usize) -> Self {
        VecOracle {
            lists: vec![Vec::new(); slots],
        }
    }

    fn insert(&mut self, slot: usize, value: NodeId) -> bool {
        match self.lists[slot].binary_search(&value) {
            Ok(_) => false,
            Err(pos) => {
                self.lists[slot].insert(pos, value);
                true
            }
        }
    }

    fn remove(&mut self, slot: usize, value: NodeId) -> bool {
        match self.lists[slot].binary_search(&value) {
            Ok(pos) => {
                self.lists[slot].remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    fn seed(&mut self, slot: usize, neighbors: &[NodeId]) {
        self.lists[slot] = neighbors.to_vec();
    }

    fn total_len(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }
}

/// The slab layout as far as the public API shows it: no two non-empty
/// lists overlap in the buffer, and the free slabs plus the live data
/// fit in it. A slab handed out while still live, or parked twice,
/// surfaces here as two overlapping lists once it is allocated again.
fn assert_layout(arena: &NeighborArena, context: &str) {
    let mut ranges: Vec<(usize, usize)> = (0..arena.slot_count())
        .map(|slot| arena.neighbors(slot).as_ptr_range())
        .filter(|range| !range.is_empty())
        .map(|range| (range.start as usize, range.end as usize))
        .collect();
    ranges.sort_unstable();
    for pair in ranges.windows(2) {
        assert!(pair[0].1 <= pair[1].0, "{context}: two lists overlap");
    }
    let stats = arena.stats();
    if let (Some(first), Some(last)) = (ranges.first(), ranges.last()) {
        assert!(
            last.1 - first.0 <= stats.slab_bytes,
            "{context}: lists span more than the buffer"
        );
    }
    assert!(
        stats.live_bytes + stats.free_bytes <= stats.slab_bytes,
        "{context}: free slabs and live data overflow the buffer"
    );
}

/// The layout first, then every slot equal, plus the cheap aggregate
/// invariants.
fn assert_matches(arena: &NeighborArena, oracle: &VecOracle, context: &str) {
    assert_layout(arena, context);
    assert_eq!(arena.slot_count(), oracle.lists.len(), "{context}");
    for (slot, list) in oracle.lists.iter().enumerate() {
        assert_eq!(arena.neighbors(slot), &list[..], "{context}: slot {slot}");
        assert_eq!(arena.len_of(slot), list.len(), "{context}: slot {slot}");
    }
    assert_eq!(arena.total_len(), oracle.total_len(), "{context}");
    let stats = arena.stats();
    assert_eq!(
        stats.live_bytes,
        oracle.total_len() * std::mem::size_of::<NodeId>(),
        "{context}: live bytes"
    );
    assert!(
        stats.slab_bytes >= stats.live_bytes,
        "{context}: buffer cannot hold less than the live data"
    );
}

/// One generator-family base per `family` value, sized by `seed`.
fn family_base(family: usize, seed: u64) -> Graph {
    match family {
        0 => {
            let n = 12 + (seed % 24) as usize;
            Gnp::new(n, 0.2).seeded(seed).generate()
        }
        1 => {
            let count = 2 + (seed % 6) as usize;
            PlantedLight::new(3 * count + 10, count)
                .with_background(0.05)
                .seeded(seed)
                .generate()
        }
        2 => {
            let side = 5 + (seed % 9) as usize;
            TriangleFreeBipartite::new(side, side + 2, 0.35)
                .seeded(seed)
                .generate()
        }
        _ => Classic::Complete(5 + (seed % 8) as usize).generate(),
    }
}

/// Seeds both stores from the base graph's adjacency.
fn seed_from_graph(graph: &Graph) -> (NeighborArena, VecOracle) {
    let n = graph.node_count();
    let mut arena = NeighborArena::new(n);
    let mut oracle = VecOracle::new(n);
    for node in graph.nodes() {
        arena.seed(node.index(), graph.neighbors(node));
        oracle.seed(node.index(), graph.neighbors(node));
    }
    (arena, oracle)
}

/// Random mixed churn (inserts, removes, wholesale re-seeds), with an
/// epoch boundary every `epoch_every` steps when set: the arena must
/// track the nested-vec oracle exactly, and keep its lists apart, at
/// every step.
fn mixed_churn(family: usize, seed: u64, epoch_every: Option<usize>) {
    let base = family_base(family, seed);
    let n = base.node_count();
    let (mut arena, mut oracle) = seed_from_graph(&base);
    assert_matches(&arena, &oracle, &format!("family {family} after seeding"));

    let mut rng = StdRng::seed_from_u64(seed ^ 0xA7E9A);
    for step in 0..400 {
        let slot = rng.gen_range(0..n);
        let value = NodeId::from_index(rng.gen_range(0..n));
        match rng.gen_range(0..10) {
            0..=4 => {
                assert_eq!(arena.insert(slot, value), oracle.insert(slot, value));
            }
            5..=8 => {
                assert_eq!(arena.remove(slot, value), oracle.remove(slot, value));
            }
            _ => {
                // Wholesale replacement with a fresh sorted list, the
                // record pipeline's prepared-list landing path.
                let len = rng.gen_range(0..12usize);
                let mut list: Vec<NodeId> = (0..len)
                    .map(|_| NodeId::from_index(rng.gen_range(0..n)))
                    .collect();
                list.sort_unstable();
                list.dedup();
                arena.seed(slot, &list);
                oracle.seed(slot, &list);
            }
        }
        if epoch_every.is_some_and(|k| step % k == k - 1) {
            arena.advance_epoch();
        }
        assert_matches(&arena, &oracle, &format!("family {family} at step {step}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Mixed churn with epoch boundaries sprinkled in.
    #[test]
    fn arena_matches_vec_oracle_under_mixed_churn(
        family in 0usize..4,
        seed in any::<u64>(),
    ) {
        mixed_churn(family, seed, Some(25));
    }

    /// Mixed churn that never ends an epoch: every freed slab is reused
    /// inside the one batch, the arena's common path.
    #[test]
    fn arena_matches_vec_oracle_without_epoch_boundaries(
        family in 0usize..4,
        seed in any::<u64>(),
    ) {
        mixed_churn(family, seed, None);
    }

    /// Heavy remove/re-insert churn: strip every list to empty (freeing
    /// every slab), then regrow, across epochs — exercising free-list
    /// reuse and the compaction trigger. Content
    /// must survive every round; a large-enough arena must compact at
    /// least once rather than growing its buffer without bound.
    #[test]
    fn shrink_regrow_churn_reuses_slabs_and_compacts(
        seed in any::<u64>(),
        rounds in 2usize..5,
    ) {
        let n = 48;
        let mut arena = NeighborArena::new(n);
        let mut oracle = VecOracle::new(n);
        let mut rng = StdRng::seed_from_u64(seed);

        for round in 0..rounds {
            // Regrow every slot to a round-dependent size.
            for slot in 0..n {
                let len = 8 + rng.gen_range(0..56usize);
                let mut list: Vec<NodeId> =
                    (0..len).map(|_| NodeId(rng.gen_range(0..10_000u32))).collect();
                list.sort_unstable();
                list.dedup();
                arena.seed(slot, &list);
                oracle.seed(slot, &list);
            }
            assert_matches(&arena, &oracle, &format!("round {round} grown"));
            arena.advance_epoch();

            // Strip everything element by element (not by re-seeding), so
            // slabs shrink through the remove path and empty slots free
            // their slabs.
            for slot in 0..n {
                for value in oracle.lists[slot].clone() {
                    prop_assert!(arena.remove(slot, value));
                    oracle.remove(slot, value);
                }
                prop_assert_eq!(arena.len_of(slot), 0);
                assert_layout(&arena, &format!("round {round} slot {slot} stripped"));
            }
            prop_assert_eq!(arena.total_len(), 0);
            arena.advance_epoch();
        }
        // All data was freed and the buffer had grown well past the
        // compaction floor: the epoch boundary must have compacted
        // instead of letting parked slabs accumulate forever.
        let stats = arena.stats();
        prop_assert!(stats.compactions >= 1, "no compaction after {rounds} strip rounds");
        prop_assert!(stats.live_bytes == 0);
    }

    /// Immediate reuse: a slab freed by one list's emptying, or by its
    /// growth into the next class, feeds the next same-class allocation
    /// in the same batch, and the buffer does not grow.
    #[test]
    fn same_epoch_frees_feed_same_epoch_growth(
        len in 5usize..9, // one size class: slabs of capacity 8
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let fresh_list = |rng: &mut StdRng, len: usize| -> Vec<NodeId> {
            let mut list: Vec<NodeId> =
                (0..len).map(|_| NodeId(rng.gen_range(0..100_000u32))).collect();
            list.sort_unstable();
            list.dedup();
            while list.len() < len {
                let extra = NodeId(rng.gen_range(0..100_000u32));
                if !list.contains(&extra) {
                    list.push(extra);
                    list.sort_unstable();
                }
            }
            list
        };
        let mut arena = NeighborArena::new(4);
        // Emptying: slot 0's slab feeds slot 1.
        arena.seed(0, &fresh_list(&mut rng, len));
        let before = arena.stats().slab_bytes;
        arena.seed(0, &[]);
        arena.seed(1, &fresh_list(&mut rng, len));
        prop_assert!(arena.stats().slab_bytes == before, "emptied slab was not reused");
        // Growth: slot 2 fills an 8-slab and outgrows it; the freed
        // 8-slab feeds slot 3.
        let full = fresh_list(&mut rng, 9);
        arena.seed(2, &full[..8]);
        arena.insert(2, full[8]);
        let grown = arena.stats().slab_bytes;
        arena.seed(3, &fresh_list(&mut rng, len));
        prop_assert!(arena.stats().slab_bytes == grown, "outgrown slab was not reused");
        prop_assert_eq!(arena.stats().free_slabs, 0);
        prop_assert_eq!(arena.neighbors(2), &full[..]);
        assert_layout(&arena, "after reuse");
    }
}
