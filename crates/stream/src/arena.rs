//! The flat-memory neighbour-list arena behind both incremental engines.
//!
//! [`NeighborArena`] stores every neighbour list of an engine (or of
//! one shard) as a contiguous slice inside a single
//! backing buffer — the mutable analogue of the CSR layout
//! `congest_graph::Graph` freezes. Compared to the previous
//! `Vec<Vec<NodeId>>` it removes one heap pointer chase per node on the
//! intersection hot path and keeps lists that are intersected together
//! close in memory.
//!
//! Layout and lifecycle:
//!
//! * **Slots** — each list is addressed by a dense `u32` slot id (the
//!   local index inside a shard, which on a
//!   [`TriangleIndex`](crate::TriangleIndex)'s one shard is the node
//!   index). A slot records its
//!   `(offset, len, size class)` into the shared buffer.
//! * **Power-of-two slabs** — storage is granted in slabs of capacity
//!   `2^class`. A list that outgrows its slab moves to the next class;
//!   a list removed down to empty returns its slab. Both hand the old
//!   slab to its class's free list instead of leaking it.
//! * **Free lists** — one per size class. A freed slab is allocatable
//!   at once: the next allocation of its class takes it before the
//!   buffer grows. No reader can see a freed slab — every write takes
//!   `&mut`, and serve-mode leases
//!   ([`TriangleServer`](crate::TriangleServer)) pin whole buffers that
//!   are never written again, not slabs inside a live one.
//! * **Compaction** — when free slabs hold more than half the buffer,
//!   the batch boundary ([`advance_epoch`](NeighborArena::advance_epoch))
//!   rewrites every live list tightly into a fresh buffer and resets the
//!   free lists. Heavy remove/re-insert churn therefore cannot grow the
//!   buffer without bound.
//!
//! The arena is *the* shared adjacency-mutation implementation:
//! [`insert`](NeighborArena::insert) / [`remove`](NeighborArena::remove)
//! replace the three hand-rolled `sorted_insert` / `sorted_remove` /
//! `binary_search` paths the central index and the shards used to keep
//! in parallel.

use congest_graph::NodeId;

/// Size class marking a slot that currently owns no slab (empty list).
const NO_SLAB: u8 = u8::MAX;

/// Buffers below this many elements never compact: rewriting a tiny
/// arena costs more than the slack it reclaims.
const COMPACT_MIN_ELEMS: usize = 1_024;

/// Capacity of a size class in elements.
fn class_capacity(class: u8) -> usize {
    1usize << class
}

/// Smallest size class whose slab holds `len` elements (`len >= 1`).
fn class_for(len: usize) -> u8 {
    debug_assert!(len >= 1);
    (usize::BITS - (len - 1).leading_zeros()) as u8
}

/// One slot's view into the backing buffer.
#[derive(Debug, Clone, Copy)]
struct SlotEntry {
    /// Offset of the slot's slab in the backing buffer.
    off: u32,
    /// Live elements (`len <= 2^class`).
    len: u32,
    /// Size class of the slab, or [`NO_SLAB`].
    class: u8,
}

impl SlotEntry {
    const EMPTY: SlotEntry = SlotEntry {
        off: 0,
        len: 0,
        class: NO_SLAB,
    };
}

/// Point-in-time health counters of one arena (or, summed, of every
/// shard's arena), exported through the `congest-obs` registry by the
/// workload runner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Bytes of backing buffer currently allocated (live + free slack).
    pub slab_bytes: usize,
    /// Bytes of live neighbour data.
    pub live_bytes: usize,
    /// Slabs parked on the free lists.
    pub free_slabs: usize,
    /// Capacity of those parked slabs, in bytes (the free-list
    /// occupancy compaction watches).
    pub free_bytes: usize,
    /// Compactions performed over the arena's lifetime.
    pub compactions: u64,
}

impl ArenaStats {
    /// Accumulates `other` (used to total per-shard arenas).
    pub fn absorb(&mut self, other: &ArenaStats) {
        self.slab_bytes += other.slab_bytes;
        self.live_bytes += other.live_bytes;
        self.free_slabs += other.free_slabs;
        self.free_bytes += other.free_bytes;
        self.compactions += other.compactions;
    }
}

/// Slot-indexed CSR-style arena of sorted neighbour lists (see the
/// module docs for layout and lifecycle).
#[derive(Debug, Clone)]
pub struct NeighborArena {
    /// The one backing buffer every list lives in.
    buf: Vec<NodeId>,
    slots: Vec<SlotEntry>,
    /// Offsets of free slabs, indexed by size class.
    free: Vec<Vec<u32>>,
    /// Total live elements across all slots.
    live: usize,
    compactions: u64,
}

impl NeighborArena {
    /// An arena of `slots` empty lists.
    pub fn new(slots: usize) -> Self {
        NeighborArena {
            buf: Vec::new(),
            slots: vec![SlotEntry::EMPTY; slots],
            free: Vec::new(),
            live: 0,
            compactions: 0,
        }
    }

    /// Number of slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The sorted neighbour list at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn neighbors(&self, slot: usize) -> &[NodeId] {
        let entry = self.slots[slot];
        &self.buf[entry.off as usize..entry.off as usize + entry.len as usize]
    }

    /// Length of the list at `slot` (the node's degree).
    pub fn len_of(&self, slot: usize) -> usize {
        self.slots[slot].len as usize
    }

    /// Whether `value` is in the list at `slot`.
    pub fn contains(&self, slot: usize, value: NodeId) -> bool {
        self.neighbors(slot).binary_search(&value).is_ok()
    }

    /// Total live elements across all slots (the sharded engine's
    /// half-edge count, now `O(1)`).
    pub fn total_len(&self) -> usize {
        self.live
    }

    /// Inserts `value` into the sorted list at `slot`; returns whether
    /// the list changed (duplicates are no-ops).
    pub fn insert(&mut self, slot: usize, value: NodeId) -> bool {
        let entry = self.slots[slot];
        let (off, len) = (entry.off as usize, entry.len as usize);
        let pos = match self.buf[off..off + len].binary_search(&value) {
            Ok(_) => return false,
            Err(pos) => pos,
        };
        let capacity = if entry.class == NO_SLAB {
            0
        } else {
            class_capacity(entry.class)
        };
        if len < capacity {
            // Room in the current slab: shift the tail up in place.
            self.buf.copy_within(off + pos..off + len, off + pos + 1);
            self.buf[off + pos] = value;
            self.slots[slot].len += 1;
        } else {
            // Grow into the next size class, writing the new element
            // into the copy's gap; the old slab goes back on its free
            // list once copied out.
            let class = if entry.class == NO_SLAB {
                0
            } else {
                entry.class + 1
            };
            let new_off = self.alloc(class) as usize;
            self.buf.copy_within(off..off + pos, new_off);
            self.buf[new_off + pos] = value;
            self.buf
                .copy_within(off + pos..off + len, new_off + pos + 1);
            if entry.class != NO_SLAB {
                self.release(entry.off, entry.class);
            }
            self.slots[slot] = SlotEntry {
                off: new_off as u32,
                len: (len + 1) as u32,
                class,
            };
        }
        self.live += 1;
        true
    }

    /// Removes `value` from the sorted list at `slot`; returns whether
    /// the list changed (absent values are no-ops). A list removed down
    /// to empty returns its slab to the free list.
    pub fn remove(&mut self, slot: usize, value: NodeId) -> bool {
        let entry = self.slots[slot];
        let (off, len) = (entry.off as usize, entry.len as usize);
        let pos = match self.buf[off..off + len].binary_search(&value) {
            Ok(pos) => pos,
            Err(_) => return false,
        };
        self.buf.copy_within(off + pos + 1..off + len, off + pos);
        self.slots[slot].len -= 1;
        self.live -= 1;
        if self.slots[slot].len == 0 {
            self.release(entry.off, entry.class);
            self.slots[slot] = SlotEntry::EMPTY;
        }
        true
    }

    /// Replaces the list at `slot` wholesale with the (sorted,
    /// duplicate-free) `neighbors` — used when seeding from a static
    /// graph. The old slab is freed like any other.
    pub fn seed(&mut self, slot: usize, neighbors: &[NodeId]) {
        debug_assert!(neighbors.is_sorted());
        let entry = self.slots[slot];
        self.live -= entry.len as usize;
        if entry.class != NO_SLAB {
            self.release(entry.off, entry.class);
        }
        if neighbors.is_empty() {
            self.slots[slot] = SlotEntry::EMPTY;
        } else {
            let class = class_for(neighbors.len());
            let off = self.alloc(class) as usize;
            self.buf[off..off + neighbors.len()].copy_from_slice(neighbors);
            self.slots[slot] = SlotEntry {
                off: off as u32,
                len: neighbors.len() as u32,
                class,
            };
        }
        self.live += neighbors.len();
    }

    /// Ends the current mutation epoch: when parked slabs hold more than
    /// half the buffer, every live list is rewritten tightly into a
    /// fresh one and the free lists reset. The engines call this once
    /// per applied batch, while they hold the arena exclusively.
    pub fn advance_epoch(&mut self) {
        let (_, free_elems) = self.free_totals();
        if self.buf.len() < COMPACT_MIN_ELEMS || free_elems * 2 <= self.buf.len() {
            return;
        }
        let mut fresh: Vec<NodeId> = Vec::with_capacity(self.live.next_power_of_two());
        for entry in &mut self.slots {
            let len = entry.len as usize;
            if len == 0 {
                *entry = SlotEntry::EMPTY;
                continue;
            }
            let class = class_for(len);
            let off = fresh.len();
            fresh.extend_from_slice(&self.buf[entry.off as usize..entry.off as usize + len]);
            fresh.resize(off + class_capacity(class), NodeId(0));
            *entry = SlotEntry {
                off: off as u32,
                len: len as u32,
                class,
            };
        }
        self.buf = fresh;
        self.free.clear();
        self.compactions += 1;
    }

    /// Current health counters.
    pub fn stats(&self) -> ArenaStats {
        let elem = std::mem::size_of::<NodeId>();
        let (free_slabs, free_elems) = self.free_totals();
        ArenaStats {
            slab_bytes: self.buf.len() * elem,
            live_bytes: self.live * elem,
            free_slabs,
            free_bytes: free_elems * elem,
            compactions: self.compactions,
        }
    }

    /// `(count, total capacity)` of every parked slab.
    fn free_totals(&self) -> (usize, usize) {
        let mut slabs = 0usize;
        let mut elems = 0usize;
        for (class, free) in self.free.iter().enumerate() {
            let n = free.len();
            slabs += n;
            elems += n << class;
        }
        (slabs, elems)
    }

    /// Grants a slab of `class`: a free slab if one exists, fresh buffer
    /// tail otherwise.
    fn alloc(&mut self, class: u8) -> u32 {
        if let Some(off) = self.free.get_mut(class as usize).and_then(Vec::pop) {
            return off;
        }
        let off = self.buf.len();
        let capacity = class_capacity(class);
        assert!(
            off + capacity <= u32::MAX as usize,
            "neighbour arena exceeds u32 addressing"
        );
        self.buf.resize(off + capacity, NodeId(0));
        off as u32
    }

    /// Parks a slab on its class's free list, allocatable at once.
    fn release(&mut self, off: u32, class: u8) {
        if self.free.len() <= class as usize {
            self.free.resize_with(class as usize + 1, Vec::new);
        }
        self.free[class as usize].push(off);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> NodeId {
        NodeId(i)
    }

    fn ids(values: &[u32]) -> Vec<NodeId> {
        values.iter().copied().map(NodeId).collect()
    }

    /// The layout invariant: the live and the free slabs, taken by
    /// offset, tile the buffer — each lies inside it, no two overlap.
    fn assert_slabs_tile_the_buffer(arena: &NeighborArena) {
        let live = arena
            .slots
            .iter()
            .filter(|entry| entry.class != NO_SLAB)
            .map(|entry| (entry.off as usize, class_capacity(entry.class)));
        let free = arena.free.iter().enumerate().flat_map(|(class, offs)| {
            offs.iter()
                .map(move |&off| (off as usize, class_capacity(class as u8)))
        });
        let mut slabs: Vec<(usize, usize)> = live.chain(free).collect();
        slabs.sort_unstable();
        let mut end = 0;
        for (off, capacity) in slabs {
            assert_eq!(off, end, "a slab overlaps its neighbour or leaves a gap");
            end = off + capacity;
        }
        assert_eq!(end, arena.buf.len(), "the slabs cover the buffer");
    }

    #[test]
    fn size_classes_round_up_to_powers_of_two() {
        assert_eq!(class_for(1), 0);
        assert_eq!(class_for(2), 1);
        assert_eq!(class_for(3), 2);
        assert_eq!(class_for(4), 2);
        assert_eq!(class_for(5), 3);
        assert_eq!(class_for(1024), 10);
        assert_eq!(class_for(1025), 11);
        assert_eq!(class_capacity(class_for(7)), 8);
    }

    #[test]
    fn insert_remove_contains_match_a_sorted_vec() {
        let mut arena = NeighborArena::new(2);
        let mut oracle: Vec<NodeId> = Vec::new();
        let values = [7u32, 3, 9, 3, 1, 12, 5, 8, 2, 30, 6];
        for &x in &values {
            let fresh = !oracle.contains(&v(x));
            assert_eq!(arena.insert(0, v(x)), fresh, "insert {x}");
            if fresh {
                oracle.push(v(x));
                oracle.sort_unstable();
            }
            assert_eq!(arena.neighbors(0), &oracle[..]);
        }
        assert_eq!(arena.len_of(0), oracle.len());
        assert_eq!(arena.total_len(), oracle.len());
        assert!(arena.contains(0, v(9)));
        assert!(!arena.contains(0, v(99)));
        assert!(arena.neighbors(1).is_empty());

        assert!(arena.remove(0, v(9)));
        assert!(!arena.remove(0, v(9)));
        oracle.retain(|&w| w != v(9));
        assert_eq!(arena.neighbors(0), &oracle[..]);
    }

    #[test]
    fn emptied_slots_release_their_slabs() {
        let mut arena = NeighborArena::new(1);
        for i in 0..8u32 {
            arena.insert(0, v(i));
        }
        for i in 0..8u32 {
            arena.remove(0, v(i));
        }
        assert!(arena.neighbors(0).is_empty());
        assert_eq!(arena.total_len(), 0);
        // Growth left 1-, 2- and 4-slabs behind plus the final 8-slab.
        assert!(arena.stats().free_slabs >= 4);
        assert!(arena.stats().free_bytes > 0);
    }

    #[test]
    fn free_slabs_feed_the_next_same_class_allocation_at_once() {
        let mut arena = NeighborArena::new(3);
        // Emptying: slot 0's 4-slab is freed and slot 1's same-class
        // list takes it in the same batch, without growing the buffer.
        arena.seed(0, &ids(&[1, 2, 3, 4]));
        let slab_before = arena.stats().slab_bytes;
        arena.seed(0, &[]);
        arena.seed(1, &ids(&[5, 6, 7]));
        assert_eq!(arena.stats().slab_bytes, slab_before, "emptied slab reused");
        assert_eq!(arena.stats().free_slabs, 0);
        // Growth: slot 2 outgrows its 2-slab into a 4-slab, and the freed
        // 2-slab holds slot 0's next list.
        arena.seed(2, &ids(&[8, 9]));
        arena.insert(2, v(10));
        let slab_grown = arena.stats().slab_bytes;
        arena.seed(0, &ids(&[11, 12]));
        assert_eq!(arena.stats().slab_bytes, slab_grown, "outgrown slab reused");
        assert_eq!(arena.neighbors(0), ids(&[11, 12]));
        assert_eq!(arena.neighbors(1), ids(&[5, 6, 7]));
        assert_eq!(arena.neighbors(2), ids(&[8, 9, 10]));
        assert_slabs_tile_the_buffer(&arena);
    }

    #[test]
    fn churn_keeps_the_slabs_tiling_the_buffer() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x51AB);
        let mut arena = NeighborArena::new(16);
        for step in 0..4_000 {
            let slot = rng.gen_range(0..16);
            let value = v(rng.gen_range(0..96));
            match rng.gen_range(0..8) {
                0..=3 => {
                    arena.insert(slot, value);
                }
                4..=6 => {
                    arena.remove(slot, value);
                }
                _ => {
                    let len = rng.gen_range(0..40u32);
                    arena.seed(slot, &(0..len).map(|i| v(i * 3)).collect::<Vec<_>>());
                }
            }
            if step % 500 == 499 {
                arena.advance_epoch();
            }
            assert_slabs_tile_the_buffer(&arena);
        }
    }

    #[test]
    fn seed_replaces_and_tracks_live_totals() {
        let mut arena = NeighborArena::new(3);
        arena.seed(0, &ids(&[2, 4, 6]));
        arena.seed(1, &ids(&[1]));
        assert_eq!(arena.total_len(), 4);
        arena.seed(0, &ids(&[5]));
        assert_eq!(arena.neighbors(0), ids(&[5]));
        assert_eq!(arena.total_len(), 2);
        arena.seed(1, &[]);
        assert_eq!(arena.total_len(), 1);
    }

    #[test]
    fn churn_triggers_compaction_and_preserves_content() {
        let mut arena = NeighborArena::new(8);
        // Grow every slot large, then shrink to tiny lists: the parked
        // large slabs dominate the buffer and the batch boundary
        // compacts.
        for slot in 0..8 {
            let big: Vec<NodeId> = (0..512).map(|i| v(i * 2)).collect();
            arena.seed(slot, &big);
        }
        for slot in 0..8 {
            arena.seed(slot, &ids(&[1, 3, 5]));
        }
        let before = arena.stats();
        assert!(before.free_bytes * 2 > before.slab_bytes);
        arena.advance_epoch();
        let after = arena.stats();
        assert!(after.compactions >= 1, "compaction ran");
        assert!(after.slab_bytes < before.slab_bytes, "buffer shrank");
        assert_eq!(after.free_slabs, 0, "free lists reset");
        for slot in 0..8 {
            assert_eq!(arena.neighbors(slot), ids(&[1, 3, 5]), "slot {slot}");
        }
        assert_eq!(arena.total_len(), 24);
    }

    #[test]
    fn stats_absorb_sums_fields() {
        let mut arena = NeighborArena::new(1);
        arena.seed(0, &ids(&[1, 2, 3]));
        let one = arena.stats();
        let mut total = ArenaStats::default();
        total.absorb(&one);
        total.absorb(&one);
        assert_eq!(total.slab_bytes, 2 * one.slab_bytes);
        assert_eq!(total.live_bytes, 2 * one.live_bytes);
    }

    #[test]
    fn zero_slot_arena_is_fine() {
        let arena = NeighborArena::new(0);
        assert_eq!(arena.slot_count(), 0);
        assert_eq!(arena.total_len(), 0);
        assert_eq!(arena.stats(), ArenaStats::default());
    }
}
