//! Deterministic fault injection.
//!
//! The fault layer sits on the one choke point every CONGEST message
//! passes: the round state's delivery loop, which sends each node's
//! outbox with destinations ascending. Fault decisions are drawn at
//! delivery time from one RNG stream per *sender*, so a message's fate
//! depends on the plan's seed, its sender and how many messages that
//! sender sent before it — not on the order nodes are settled in, and
//! not on whether the destination still runs (a send to a halted node
//! draws like any other). A run under a [`FaultPlan`](crate::FaultPlan)
//! therefore repeats bit for bit from its seeds.

use congest_wire::Payload;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::rng::derive_node_seed;
use crate::{FaultPlan, Metrics, SimConfig};

/// Salt mixed into the fault seed so the fault streams are independent
/// from the per-node program RNGs even when the two seeds coincide.
const FAULT_SEED_SALT: u64 = 0xFA17_0CCA_515E_ED00;

/// Persistent fault-injection state of one simulation: the plan plus one
/// RNG stream per sender. Lives across epochs so fault randomness
/// continues instead of repeating.
pub(crate) struct FaultState {
    plan: FaultPlan,
    rngs: Vec<SmallRng>,
}

impl FaultState {
    /// Builds the state for `config` over an `n`-node network. A quiet
    /// plan allocates nothing and never draws.
    pub(crate) fn new(config: &SimConfig, n: usize) -> Self {
        let plan = config.faults;
        let rngs = if plan.is_quiet() {
            Vec::new()
        } else {
            (0..n)
                .map(|i| SmallRng::seed_from_u64(derive_node_seed(plan.seed ^ FAULT_SEED_SALT, i)))
                .collect()
        };
        FaultState { plan, rngs }
    }

    /// Whether the plan injects no faults (legacy fast path).
    pub(crate) fn quiet(&self) -> bool {
        self.rngs.is_empty()
    }

    /// Whether `node` is crashed during `epoch` per the plan's schedule.
    pub(crate) fn crashed(&self, node: usize, epoch: u64) -> bool {
        !self.quiet() && self.plan.crashed(node, epoch)
    }

    /// Decides the fate of one `bits`-bit message sent by `from`: `None`
    /// if it is lost, otherwise which bit (if any) arrives flipped and
    /// whether it arrives twice. Books the fault counters; the caller
    /// books the arrivals. Must be called for every CONGEST delivery —
    /// a message or a stream chunk — in the engine's canonical order
    /// (injections bypass it).
    pub(crate) fn fate(&mut self, from: usize, bits: usize, metrics: &mut Metrics) -> Option<Fate> {
        if self.quiet() {
            return Some(Fate::default());
        }
        let rng = &mut self.rngs[from];
        if self.plan.drop_p > 0.0 && rng.gen_bool(self.plan.drop_p) {
            metrics.record_drop(from, bits);
            return None;
        }
        let mut fate = Fate::default();
        if self.plan.corrupt_p > 0.0 && rng.gen_bool(self.plan.corrupt_p) && bits > 0 {
            fate.flip = Some(rng.gen_range(0..bits));
            metrics.corrupted_messages += 1;
        }
        fate.twice = self.plan.duplicate_p > 0.0 && rng.gen_bool(self.plan.duplicate_p);
        if fate.twice {
            metrics.duplicated_messages += 1;
        }
        Some(fate)
    }

    /// [`fate`](FaultState::fate) applied to a whole message: `None` if
    /// it is lost, otherwise the payload that arrives and whether it
    /// arrives twice.
    pub(crate) fn transit(
        &mut self,
        from: usize,
        payload: Payload,
        metrics: &mut Metrics,
    ) -> Option<(Payload, bool)> {
        if self.quiet() {
            return Some((payload, false));
        }
        let fate = self.fate(from, payload.bit_len(), metrics)?;
        let payload = match fate.flip {
            Some(bit) => payload.with_flipped_bit(bit),
            None => payload,
        };
        Some((payload, fate.twice))
    }
}

/// What the fault layer does to one delivery that is not lost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Fate {
    /// The bit that arrives inverted, counted from the first bit sent.
    pub(crate) flip: Option<usize>,
    /// Whether the delivery arrives twice.
    pub(crate) twice: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(plan: FaultPlan) -> FaultState {
        let config = SimConfig::congest(0).with_faults(plan);
        FaultState::new(&config, 4)
    }

    fn byte() -> Payload {
        Payload::from_parts(vec![0xAB], 8)
    }

    #[test]
    fn quiet_state_allocates_no_rngs_and_delivers_exactly() {
        let mut s = state(FaultPlan::default());
        assert!(s.quiet());
        let mut metrics = Metrics::new(4);
        assert_eq!(s.transit(0, byte(), &mut metrics), Some((byte(), false)));
        assert_eq!(metrics, Metrics::new(4));
    }

    #[test]
    fn drop_everything_plan_delivers_nothing() {
        let mut s = state(FaultPlan::default().with_drop(1.0));
        let mut metrics = Metrics::new(4);
        assert_eq!(s.transit(2, byte(), &mut metrics), None);
        assert_eq!(metrics.messages, 0);
        assert_eq!(metrics.dropped_messages, 1);
        assert_eq!(metrics.sent_bits[2], 8);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut s = state(FaultPlan::default().with_corruption(1.0));
        let mut metrics = Metrics::new(4);
        let original = Payload::from_parts(vec![0b1010_1010, 0b1100_0000], 10);
        let (delivered, duplicated) = s.transit(0, original.clone(), &mut metrics).unwrap();
        assert!(!duplicated);
        assert_eq!(metrics.corrupted_messages, 1);
        assert_eq!(delivered.bit_len(), original.bit_len());
        let flipped = (0..10)
            .filter(|&i| delivered.bit(i) != original.bit(i))
            .count();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn duplication_delivers_twice_and_counts_both() {
        let mut s = state(FaultPlan::default().with_duplication(1.0));
        let mut metrics = Metrics::new(4);
        assert_eq!(s.transit(1, byte(), &mut metrics), Some((byte(), true)));
        assert_eq!(metrics.duplicated_messages, 1);
    }

    #[test]
    fn empty_payloads_survive_certain_corruption() {
        let mut s = state(FaultPlan::default().with_corruption(1.0));
        let mut metrics = Metrics::new(4);
        let arrived = s.transit(0, Payload::new(), &mut metrics);
        assert_eq!(arrived, Some((Payload::new(), false)));
        assert_eq!(metrics.corrupted_messages, 0);
    }
}
