//! The intersection kernel against a reference, arm by arm.
//!
//! `for_each_common` picks one of three arms from the two list lengths
//! alone — gallop once `d_max ≥ 16 · d_min`, otherwise a stack-signature
//! probe while the short list has at most 512 elements (a 4 096-bit
//! bitmap), otherwise a merge — so each test below reaches an arm by
//! choosing lengths on either side of those cutoffs.
//! On contract input every arm must visit exactly the reference
//! intersection, in increasing order; on any input it must terminate
//! without panicking.

use std::collections::BTreeSet;

use congest_graph::{
    count_common, for_each_common, intersect_sorted, intersection_cost_estimate, NodeId,
    GALLOP_RATIO,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Longest short list the signature arm takes.
const SIGNATURE_CUTOFF: usize = 512;

/// What the kernel visits, in visiting order.
fn visited(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::new();
    for_each_common(a, b, |w| out.push(w));
    out
}

/// The reference intersection, as a sorted list.
fn reference(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let a: BTreeSet<NodeId> = a.iter().copied().collect();
    let b: BTreeSet<NodeId> = b.iter().copied().collect();
    a.intersection(&b).copied().collect()
}

/// Asserts every entry point equals the reference, in both orientations.
fn assert_matches_reference(a: &[NodeId], b: &[NodeId], what: &str) {
    let expected = reference(a, b);
    assert_eq!(
        visited(a, b),
        expected,
        "{what}: lens ({}, {})",
        a.len(),
        b.len()
    );
    assert_eq!(visited(b, a), expected, "{what}: swapped");
    assert_eq!(intersect_sorted(a, b), expected, "{what}: intersect_sorted");
    assert_eq!(count_common(a, b), expected.len(), "{what}: count_common");
}

/// A sorted, duplicate-free list of `len` ids drawn from `lo..lo + span`.
fn sorted_set(rng: &mut StdRng, len: usize, lo: u32, span: u32) -> Vec<NodeId> {
    assert!(len as u64 <= u64::from(span));
    let mut ids = BTreeSet::new();
    while ids.len() < len {
        ids.insert(lo + rng.gen_range(0..span));
    }
    ids.into_iter().map(NodeId).collect()
}

/// Pairs of random sets at lengths `(small, large)`, over a dense, a
/// medium and a sparse universe, so the intersections range from most
/// of the short list to nearly nothing.
fn check_lengths(lengths: &[(usize, usize)], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for &(small, large) in lengths {
        for factor in [2u32, 8, 64] {
            let span = (large.max(1) as u32) * factor;
            for _ in 0..3 {
                let a = sorted_set(&mut rng, small, 0, span);
                let b = sorted_set(&mut rng, large, 0, span);
                assert_matches_reference(&a, &b, &format!("span {span}"));
            }
        }
    }
}

#[test]
fn ratios_around_the_gallop_cutoff() {
    let mut lengths = Vec::new();
    for small in [1, 2, 7, 33, 100, SIGNATURE_CUTOFF] {
        for ratio in [GALLOP_RATIO - 1, GALLOP_RATIO, GALLOP_RATIO + 1] {
            lengths.push((small, small * ratio));
            lengths.push((small, small * ratio - 1));
        }
    }
    check_lengths(&lengths, 1);
}

#[test]
fn short_lists_around_the_signature_cutoff() {
    let mut lengths = Vec::new();
    for small in [SIGNATURE_CUTOFF - 1, SIGNATURE_CUTOFF, SIGNATURE_CUTOFF + 1] {
        for large in [small, small + 1, 3 * small, 15 * small] {
            lengths.push((small, large));
        }
    }
    check_lengths(&lengths, 2);
}

#[test]
fn ids_that_share_their_low_bits_hit_every_probe() {
    // Every id is a multiple of 4 096, so each lands on the same bit of
    // the signature and every probe of the long list hits;
    // only the confirming cursor tells them apart.
    let stride = 4096u32;
    for (small, large) in [
        (3, 5),
        (20, 40),
        (32, 32),
        (200, 300),
        (512, 512),
        (513, 600),
    ] {
        let a: Vec<NodeId> = (0..small as u32).map(|k| NodeId(2 * k * stride)).collect();
        let b: Vec<NodeId> = (0..large as u32).map(|k| NodeId(3 * k * stride)).collect();
        assert_matches_reference(&a, &b, "colliding");
        let shifted: Vec<NodeId> = b.iter().map(|w| NodeId(w.0 + stride)).collect();
        assert_matches_reference(&a, &shifted, "colliding, shifted");
    }
}

#[test]
fn ids_near_the_top_of_the_id_space() {
    let mut rng = StdRng::seed_from_u64(3);
    for (small, large) in [
        (1, 1),
        (5, 9),
        (32, 40),
        (300, 400),
        (512, 600),
        (700, 700),
        (4, 200),
    ] {
        for span in [2 * large as u32, 64 * large as u32] {
            let lo = u32::MAX - span + 1;
            let a = sorted_set(&mut rng, small, lo, span);
            let b = sorted_set(&mut rng, large, lo, span);
            assert_matches_reference(&a, &b, "near u32::MAX");
        }
    }
    let top = vec![NodeId(u32::MAX)];
    let tail: Vec<NodeId> = (u32::MAX - 9..=u32::MAX).map(NodeId).collect();
    assert_matches_reference(&top, &tail, "u32::MAX itself");
}

#[test]
fn empty_singleton_identical_and_disjoint_lists() {
    let ids = |r: std::ops::Range<u32>, step: u32| -> Vec<NodeId> {
        r.step_by(step as usize).map(NodeId).collect()
    };
    for len in [1u32, 2, 31, 32, 33, 100, 511, 512, 513, 2000] {
        let list = ids(0..3 * len, 3);
        assert_matches_reference(&[], &list, "empty");
        assert_matches_reference(&list, &list, "identical");
        assert_matches_reference(&[NodeId(0)], &list, "singleton, first");
        assert_matches_reference(&[NodeId(3 * len - 3)], &list, "singleton, last");
        assert_matches_reference(&[NodeId(1)], &list, "singleton, absent");
        let evens = ids(0..2 * len, 2);
        let odds = ids(1..2 * len + 1, 2);
        assert_matches_reference(&evens, &odds, "interleaved, disjoint");
        // All of one list before all of the other.
        let after = ids(3 * len..6 * len, 3);
        assert_matches_reference(&list, &after, "disjoint ranges");
    }
    assert_matches_reference(&[], &[], "both empty");
}

#[test]
fn estimate_equals_the_dividing_formula() {
    // The estimate as it was written with a divide on every call.
    fn dividing(da: usize, db: usize) -> usize {
        let (min, max) = if da <= db { (da, db) } else { (db, da) };
        if min == 0 {
            return 1;
        }
        let ratio = max / min;
        let cost = if ratio >= GALLOP_RATIO {
            min * (usize::BITS - ratio.leading_zeros()) as usize
        } else {
            min + max
        };
        cost.max(1)
    }
    for da in 0..=1024 {
        for db in 0..=1024 {
            assert_eq!(
                intersection_cost_estimate(da, db),
                dividing(da, db),
                "({da}, {db})"
            );
        }
    }
    // Near the top of `usize`, where `GALLOP_RATIO · min` overflows or
    // nearly does; every pair here gallops or has an empty side (a
    // balanced pair this large overflows `min + max` under both forms).
    let max = usize::MAX;
    for (da, db) in [
        (0, max),
        (1, max),
        (2, max - 1),
        (max / GALLOP_RATIO, max),
        (max / GALLOP_RATIO - 1, max),
        (max / GALLOP_RATIO, max - 1),
        (max / (2 * GALLOP_RATIO), max),
        (1 << 20, max - 3),
    ] {
        assert_eq!(
            intersection_cost_estimate(da, db),
            dividing(da, db),
            "({da}, {db})"
        );
        assert_eq!(
            intersection_cost_estimate(db, da),
            dividing(da, db),
            "({db}, {da})"
        );
    }
}

/// Lengths that reach every arm: up to 700 for the short list (past the
/// signature cutoff) and up to 40× that for the long one.
fn arm_lengths(rng: &mut StdRng) -> (usize, usize) {
    let small = match rng.gen_range(0u32..3) {
        0 => rng.gen_range(0..=40),
        1 => rng.gen_range(0..=SIGNATURE_CUTOFF + 2),
        _ => rng.gen_range(SIGNATURE_CUTOFF - 2..=700),
    };
    let large = small + rng.gen_range(0..=small * 40 + 3);
    (small, large)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random sorted sets at lengths that reach every arm.
    #[test]
    fn random_sorted_sets_match_the_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (small, large) = arm_lengths(&mut rng);
        let span = (large as u32 + 1) * rng.gen_range(1u32..=32);
        let a = sorted_set(&mut rng, small, 0, span);
        let b = sorted_set(&mut rng, large, 0, span);
        assert_matches_reference(&a, &b, "random");
    }

    /// Lists that break the contract — unsorted, duplicated — as a
    /// faulty peer may send them: every arm terminates, never panics,
    /// visits nothing outside either list and at most one element per
    /// element of the shorter.
    #[test]
    fn unsorted_and_duplicated_input_is_total(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (small, large) = arm_lengths(&mut rng);
        let span = rng.gen_range(1u32..=2 * large as u32 + 2);
        let mut draw = |len: usize| -> Vec<NodeId> {
            (0..len).map(|_| NodeId(rng.gen_range(0..span))).collect()
        };
        let (a, b) = (draw(small), draw(large));
        let common = reference(&a, &b);
        for (x, y) in [(&a, &b), (&b, &a)] {
            let seen = visited(x, y);
            prop_assert!(seen.len() <= small, "{} visits, short list {small}", seen.len());
            prop_assert!(seen.iter().all(|w| common.binary_search(w).is_ok()));
            prop_assert_eq!(count_common(x, y), seen.len());
        }
    }

    /// Sorted lists with repeats (what a node holds after sorting a
    /// corrupted list): the distinct ids visited are the intersection.
    #[test]
    fn sorted_lists_with_repeats_visit_the_intersection(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (small, large) = arm_lengths(&mut rng);
        let span = rng.gen_range(1u32..=2 * large as u32 + 2);
        let mut draw = |len: usize| -> Vec<NodeId> {
            let mut list: Vec<NodeId> = (0..len).map(|_| NodeId(rng.gen_range(0..span))).collect();
            list.sort_unstable();
            list
        };
        let (a, b) = (draw(small), draw(large));
        let distinct: BTreeSet<NodeId> = visited(&a, &b).into_iter().collect();
        prop_assert_eq!(distinct.into_iter().collect::<Vec<_>>(), reference(&a, &b));
    }
}
