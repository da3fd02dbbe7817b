//! Deterministic derivation of per-node random seeds.

/// Derives the seed of node `node_index`'s RNG from the master seed.
///
/// Uses the SplitMix64 finalizer, which decorrelates consecutive node
/// indices; the derivation is a pure function of `(master, node_index)`,
/// so a node's randomness does not depend on the order nodes are run in.
///
/// ```
/// use congest_sim::derive_node_seed;
/// assert_eq!(derive_node_seed(42, 3), derive_node_seed(42, 3));
/// assert_ne!(derive_node_seed(42, 3), derive_node_seed(42, 4));
/// assert_ne!(derive_node_seed(42, 3), derive_node_seed(43, 3));
/// ```
pub fn derive_node_seed(master_seed: u64, node_index: usize) -> u64 {
    let mut z =
        master_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(node_index as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn seeds_are_distinct_across_nodes() {
        let seeds: HashSet<u64> = (0..10_000).map(|i| derive_node_seed(7, i)).collect();
        assert_eq!(seeds.len(), 10_000);
    }

    #[test]
    fn seeds_differ_across_master_seeds() {
        assert_ne!(derive_node_seed(1, 0), derive_node_seed(2, 0));
    }

    #[test]
    fn derivation_is_pure() {
        for i in 0..100 {
            assert_eq!(derive_node_seed(99, i), derive_node_seed(99, i));
        }
    }
}
