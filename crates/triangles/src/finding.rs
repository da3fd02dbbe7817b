//! The Theorem 1 driver: triangle **finding** in `O(n^{2/3} (log n)^{2/3})`
//! rounds.
//!
//! The driver alternates Algorithm A1 (which finds ε-heavy triangles) and
//! Algorithm A3 (which finds the remaining ones), with
//! `n^ε = n^{1/3}/(log n)^{2/3}`, and repeats the pair a constant number of
//! times to amplify the success probability to `1 − δ`. Each sub-algorithm
//! runs as its own simulation; the reported round count is the sum, which
//! is exactly the cost of running them back to back in one execution.

use congest_graph::{AdjacencyView, Triangle, TriangleSet};
use congest_sim::{Bandwidth, SimConfig};

use crate::common::run_congest;
use crate::params::{ConstantsProfile, EpsilonChoice};
use crate::{A1Program, A3Program};

/// Configuration of the Theorem 1 finding driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FindingConfig {
    /// The heaviness exponent ε (Theorem 1 uses
    /// `n^ε = n^{1/3}/(log n)^{2/3}`).
    pub epsilon: EpsilonChoice,
    /// Number of (A1 ; A3) repetitions. The driver runs every one of them,
    /// even after a triangle is found, so the reported cost is that of the
    /// whole schedule the Theorem 1 bound describes.
    pub repetitions: usize,
    /// Constants profile applied to the sub-algorithms.
    pub profile: ConstantsProfile,
    /// Per-message bandwidth of the CONGEST network.
    pub bandwidth: Bandwidth,
}

impl FindingConfig {
    /// The paper-faithful configuration for `graph` (any
    /// [`AdjacencyView`]).
    pub fn paper<V: AdjacencyView + ?Sized>(graph: &V) -> Self {
        let n = graph.node_count();
        FindingConfig {
            epsilon: EpsilonChoice::finding(n),
            repetitions: ConstantsProfile::Paper.finding_repetitions(n),
            profile: ConstantsProfile::Paper,
            bandwidth: Bandwidth::default(),
        }
    }

    /// A lighter configuration for laptop-scale sweeps (fewer repetitions,
    /// scaled constants).
    pub fn scaled<V: AdjacencyView + ?Sized>(graph: &V) -> Self {
        let n = graph.node_count();
        FindingConfig {
            epsilon: EpsilonChoice::finding(n),
            repetitions: ConstantsProfile::Scaled.finding_repetitions(n),
            profile: ConstantsProfile::Scaled,
            bandwidth: Bandwidth::default(),
        }
    }

    /// Overrides ε.
    pub fn with_epsilon(mut self, epsilon: EpsilonChoice) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Overrides the repetition count.
    pub fn with_repetitions(mut self, repetitions: usize) -> Self {
        self.repetitions = repetitions.max(1);
        self
    }
}

/// Round and traffic accounting of one (A1 ; A3) repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepetitionCost {
    /// Rounds taken by the A1 pass.
    pub a1_rounds: u64,
    /// Rounds taken by the A3 pass.
    pub a3_rounds: u64,
    /// Total bits delivered during the repetition.
    pub bits: u64,
}

/// Result of the Theorem 1 finding driver.
#[derive(Debug, Clone)]
pub struct FindingReport {
    /// Union of all triangles reported by any node in any repetition.
    pub found: TriangleSet,
    /// Per-repetition cost breakdown.
    pub repetitions: Vec<RepetitionCost>,
    /// Total rounds across all executed repetitions.
    pub total_rounds: u64,
    /// Total delivered bits across all executed repetitions.
    pub total_bits: u64,
}

impl FindingReport {
    /// Whether at least one triangle was found.
    pub fn found_any(&self) -> bool {
        !self.found.is_empty()
    }

    /// Iterator over the found triangles.
    pub fn triangles(&self) -> impl Iterator<Item = &Triangle> + '_ {
        self.found.iter()
    }
}

/// Runs the Theorem 1 triangle-finding driver on `graph` (any
/// [`AdjacencyView`], so a live streaming index works directly).
///
/// The `seed` determines all randomness (sampling in A1, the set `X` and
/// hash-free machinery in A3); runs are fully reproducible.
pub fn find_triangles<V: AdjacencyView + ?Sized>(
    graph: &V,
    config: &FindingConfig,
    seed: u64,
) -> FindingReport {
    let epsilon = config.epsilon.epsilon();
    let mut report = FindingReport {
        found: TriangleSet::new(),
        repetitions: Vec::new(),
        total_rounds: 0,
        total_bits: 0,
    };
    for rep in 0..config.repetitions.max(1) {
        let a1_seed = congest_sim::derive_node_seed(seed, 2 * rep);
        let a3_seed = congest_sim::derive_node_seed(seed, 2 * rep + 1);

        let a1 = run_congest(
            graph,
            SimConfig::congest(a1_seed).with_bandwidth(config.bandwidth),
            |info| A1Program::new(info, epsilon, config.profile.cap_factor()),
        );
        let a3 = run_congest(
            graph,
            SimConfig::congest(a3_seed).with_bandwidth(config.bandwidth),
            |info| A3Program::new(info, epsilon, config.profile),
        );

        let cost = RepetitionCost {
            a1_rounds: a1.rounds(),
            a3_rounds: a3.rounds(),
            bits: a1.metrics.total_bits + a3.metrics.total_bits,
        };
        report.total_rounds += cost.a1_rounds + cost.a3_rounds;
        report.total_bits += cost.bits;
        report.repetitions.push(cost);
        report.found.union_with(&a1.triangles);
        report.found.union_with(&a3.triangles);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::{Classic, Gnp, PlantedHeavy, TriangleFreeBipartite};
    use congest_graph::triangles as reference;

    #[test]
    fn never_reports_a_non_triangle() {
        for seed in 0..3 {
            let g = Gnp::new(32, 0.2).seeded(seed).generate();
            let report = find_triangles(&g, &FindingConfig::scaled(&g), seed);
            for t in report.triangles() {
                assert!(g.is_triangle(*t));
            }
        }
    }

    #[test]
    fn triangle_free_graphs_report_not_found() {
        let g = TriangleFreeBipartite::new(16, 16, 0.5).seeded(1).generate();
        let report = find_triangles(&g, &FindingConfig::paper(&g), 3);
        assert!(!report.found_any());
        assert!(report.found.is_empty());
    }

    #[test]
    fn dense_graphs_are_found_with_high_probability() {
        // K12 plus G(n,1/2) noise: plenty of triangles of both kinds.
        let g = Gnp::new(40, 0.5).seeded(9).generate();
        assert!(reference::has_triangle(&g));
        let mut successes = 0;
        for seed in 0..5 {
            if find_triangles(&g, &FindingConfig::paper(&g), seed).found_any() {
                successes += 1;
            }
        }
        assert!(successes >= 4, "finding succeeded only {successes}/5 times");
    }

    #[test]
    fn planted_heavy_instance_is_found() {
        let g = PlantedHeavy::new(50, 15).generate();
        let report = find_triangles(&g, &FindingConfig::paper(&g), 11);
        assert!(report.found_any());
    }

    #[test]
    fn report_accounting_is_consistent() {
        let g = Classic::Complete(10).generate();
        let config = FindingConfig::scaled(&g).with_repetitions(3);
        let report = find_triangles(&g, &config, 5);
        assert_eq!(report.repetitions.len(), 3);
        let sum: u64 = report
            .repetitions
            .iter()
            .map(|r| r.a1_rounds + r.a3_rounds)
            .sum();
        assert_eq!(sum, report.total_rounds);
        let bits: u64 = report.repetitions.iter().map(|r| r.bits).sum();
        assert_eq!(bits, report.total_bits);
    }

    #[test]
    fn runs_are_reproducible() {
        let g = Gnp::new(30, 0.3).seeded(2).generate();
        let config = FindingConfig::scaled(&g);
        let a = find_triangles(&g, &config, 77);
        let b = find_triangles(&g, &config, 77);
        assert_eq!(a.found, b.found);
        assert_eq!(a.total_rounds, b.total_rounds);
    }
}
