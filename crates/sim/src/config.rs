//! Simulation configuration: communication model, bandwidth, limits.

use congest_wire::bits_for_count;

/// The communication topology available to the algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    /// The standard CONGEST model: a node may only exchange messages with
    /// its neighbours in the input graph.
    Congest,
    /// The CONGEST clique: any pair of nodes may exchange messages; the
    /// input graph is data only.
    CongestClique,
}

impl Model {
    /// Human-readable name used by experiment reports.
    pub fn name(&self) -> &'static str {
        match self {
            Model::Congest => "CONGEST",
            Model::CongestClique => "CONGEST-clique",
        }
    }
}

/// Per-edge per-round bandwidth budget.
///
/// The paper's model allows `O(log n)` bits per message. The classical
/// convention — which the round bounds implicitly assume — is that a single
/// message carries `O(1)` vertex identifiers plus `O(1)` flag bits, which is
/// what [`Bandwidth::LogFactor`] expresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bandwidth {
    /// `factor * ceil(log2 n)` bits per message (at least 8 bits, so tiny
    /// graphs still fit a header).
    LogFactor(u32),
    /// A fixed number of bits per message.
    Bits(usize),
}

impl Bandwidth {
    /// The concrete per-message budget, in bits, for a network of `n`
    /// nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the budget would be zero bits.
    pub fn bits_per_round(&self, n: usize) -> usize {
        assert!(n > 0, "a network must have at least one node");
        match self {
            Bandwidth::LogFactor(factor) => {
                let bits = (*factor as usize) * bits_for_count(n as u64);
                bits.max(8)
            }
            Bandwidth::Bits(bits) => {
                assert!(*bits > 0, "bandwidth must be positive");
                *bits
            }
        }
    }
}

impl Default for Bandwidth {
    /// Two identifiers' worth of bits per message, the usual CONGEST
    /// convention (an edge, or an id plus flags).
    fn default() -> Self {
        Bandwidth::LogFactor(2)
    }
}

/// One scheduled node outage: `node` is crashed (contributes nothing,
/// receives nothing) for every epoch in `from_epoch..until_epoch`, and is
/// considered rejoined from `until_epoch` onwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// Index of the crashed node.
    pub node: usize,
    /// First epoch (inclusive) of the outage.
    pub from_epoch: u64,
    /// First epoch (exclusive) after the outage — the rejoin epoch.
    pub until_epoch: u64,
}

/// A deterministic, seeded fault schedule applied to every CONGEST
/// delivery (injections are out-of-band client input and are never
/// faulted).
///
/// The default plan is quiet: no drops, no corruption, no duplication, no
/// crashes — and a quiet plan takes the exact legacy delivery path, so
/// zero-fault runs stay bit-identical to a build without this layer.
/// Fault decisions are drawn from per-sender RNGs derived from
/// [`FaultPlan::seed`], each in that sender's own send order, so a run
/// under a plan is reproducible bit for bit from its seeds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Probability that a delivered message is silently lost.
    pub drop_p: f64,
    /// Probability that one uniformly chosen bit of a delivered payload is
    /// flipped in transit.
    pub corrupt_p: f64,
    /// Probability that a delivered message arrives twice in the same
    /// round.
    pub duplicate_p: f64,
    /// Seed of the per-sender fault RNG streams (independent from the
    /// program seed in [`SimConfig::seed`]).
    pub seed: u64,
    /// Scheduled node outages (at most [`FaultPlan::MAX_CRASH_WINDOWS`];
    /// fixed-size so the plan — and [`SimConfig`] — stays `Copy`).
    crashes: [Option<CrashWindow>; FaultPlan::MAX_CRASH_WINDOWS],
}

impl FaultPlan {
    /// Maximum number of crash windows one plan can carry.
    pub const MAX_CRASH_WINDOWS: usize = 4;

    /// Sets the per-message drop probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_drop(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability {p} not in [0,1]"
        );
        self.drop_p = p;
        self
    }

    /// Sets the per-message bit-corruption probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_corruption(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "corruption probability {p} not in [0,1]"
        );
        self.corrupt_p = p;
        self
    }

    /// Sets the per-message duplication probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_duplication(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplication probability {p} not in [0,1]"
        );
        self.duplicate_p = p;
        self
    }

    /// Sets the fault RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Schedules a crash: `node` is down for epochs
    /// `from_epoch..until_epoch`.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or the plan already carries
    /// [`FaultPlan::MAX_CRASH_WINDOWS`] windows.
    pub fn with_crash(mut self, node: usize, from_epoch: u64, until_epoch: u64) -> Self {
        assert!(from_epoch < until_epoch, "empty crash window");
        let slot = self
            .crashes
            .iter_mut()
            .find(|slot| slot.is_none())
            .expect("fault plan already carries the maximum number of crash windows");
        *slot = Some(CrashWindow {
            node,
            from_epoch,
            until_epoch,
        });
        self
    }

    /// The scheduled crash windows.
    pub fn crash_windows(&self) -> impl Iterator<Item = &CrashWindow> {
        self.crashes.iter().flatten()
    }

    /// Whether `node` is crashed during `epoch`.
    pub fn crashed(&self, node: usize, epoch: u64) -> bool {
        self.crash_windows()
            .any(|w| w.node == node && (w.from_epoch..w.until_epoch).contains(&epoch))
    }

    /// Whether the plan injects no faults at all — the default, in which
    /// case the simulators take the exact legacy delivery path (no fault
    /// RNG is ever drawn).
    pub fn is_quiet(&self) -> bool {
        self.drop_p == 0.0
            && self.corrupt_p == 0.0
            && self.duplicate_p == 0.0
            && self.crashes.iter().all(Option::is_none)
    }
}

/// Full configuration of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Communication topology.
    pub model: Model,
    /// Per-message bandwidth budget.
    pub bandwidth: Bandwidth,
    /// Hard cap on the number of rounds; the run reports
    /// [`Termination::RoundLimit`](crate::Termination::RoundLimit) if it is
    /// reached.
    pub max_rounds: u64,
    /// Master seed; node `i`'s RNG is derived from `(seed, i)` so runs are
    /// reproducible and independent of the order nodes are run in.
    pub seed: u64,
    /// Deterministic fault schedule (default: no faults).
    pub faults: FaultPlan,
}

impl SimConfig {
    /// Default cap on rounds — far above anything the algorithms need, it
    /// only exists to turn accidental non-termination into a clean report.
    pub const DEFAULT_MAX_ROUNDS: u64 = 10_000_000;

    /// A CONGEST configuration with default bandwidth and the given seed.
    pub fn congest(seed: u64) -> Self {
        SimConfig {
            model: Model::Congest,
            bandwidth: Bandwidth::default(),
            max_rounds: Self::DEFAULT_MAX_ROUNDS,
            seed,
            faults: FaultPlan::default(),
        }
    }

    /// A CONGEST-clique configuration with default bandwidth and the given
    /// seed.
    pub fn clique(seed: u64) -> Self {
        SimConfig {
            model: Model::CongestClique,
            bandwidth: Bandwidth::default(),
            max_rounds: Self::DEFAULT_MAX_ROUNDS,
            seed,
            faults: FaultPlan::default(),
        }
    }

    /// Overrides the fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Overrides the bandwidth.
    pub fn with_bandwidth(mut self, bandwidth: Bandwidth) -> Self {
        self.bandwidth = bandwidth;
        self
    }

    /// Overrides the round cap.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_factor_bandwidth_scales_with_n() {
        let b = Bandwidth::LogFactor(2);
        assert_eq!(b.bits_per_round(1024), 20);
        assert_eq!(b.bits_per_round(1025), 22);
        // Tiny graphs are padded up to 8 bits.
        assert_eq!(b.bits_per_round(2), 8);
    }

    #[test]
    fn explicit_bandwidth_is_respected() {
        assert_eq!(Bandwidth::Bits(48).bits_per_round(10_000), 48);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_is_rejected() {
        let _ = Bandwidth::Bits(0).bits_per_round(10);
    }

    #[test]
    fn config_builders() {
        let c = SimConfig::congest(7)
            .with_bandwidth(Bandwidth::Bits(32))
            .with_max_rounds(100);
        assert_eq!(c.model, Model::Congest);
        assert_eq!(c.bandwidth, Bandwidth::Bits(32));
        assert_eq!(c.max_rounds, 100);
        assert_eq!(c.seed, 7);
        let c = SimConfig::clique(9);
        assert_eq!(c.model, Model::CongestClique);
        assert_eq!(c.model.name(), "CONGEST-clique");
    }

    #[test]
    fn default_fault_plan_is_quiet() {
        let plan = FaultPlan::default();
        assert!(plan.is_quiet());
        assert!(!plan.crashed(0, 0));
        assert!(SimConfig::congest(0).faults.is_quiet());
    }

    #[test]
    fn fault_plan_builders_and_crash_schedule() {
        let plan = FaultPlan::default()
            .with_drop(0.01)
            .with_corruption(0.001)
            .with_duplication(0.002)
            .with_seed(7)
            .with_crash(3, 2, 5);
        assert!(!plan.is_quiet());
        assert_eq!(plan.drop_p, 0.01);
        assert_eq!(plan.seed, 7);
        assert!(!plan.crashed(3, 1));
        assert!(plan.crashed(3, 2));
        assert!(plan.crashed(3, 4));
        assert!(!plan.crashed(3, 5));
        assert!(!plan.crashed(2, 3));
        assert_eq!(plan.crash_windows().count(), 1);
        // A crash alone makes the plan non-quiet even with zero rates.
        assert!(!FaultPlan::default().with_crash(0, 0, 1).is_quiet());
    }

    #[test]
    #[should_panic(expected = "empty crash window")]
    fn empty_crash_window_is_rejected() {
        let _ = FaultPlan::default().with_crash(0, 3, 3);
    }

    #[test]
    #[should_panic(expected = "not in [0,1]")]
    fn fault_probabilities_are_validated() {
        let _ = FaultPlan::default().with_drop(1.5);
    }
}
