//! What an epoch cost the network, and what recovery cost on top: the
//! quantities the paper's bounds are about, as the engine reports them.

/// CONGEST cost of one epoch (or a running total over all epochs): the
/// quantities the paper's bounds are about.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CongestCost {
    /// Synchronous rounds executed (broadcast *and* aggregation).
    pub rounds: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Payload bits delivered.
    pub bits: u64,
    /// The share of [`rounds`](CongestCost::rounds) spent on the
    /// convergecast aggregation of candidate sets. What is left after
    /// it and [`recovery_rounds`](CongestCost::recovery_rounds) is the
    /// broadcast prefix — the part helper-splitting schedules.
    pub convergecast_rounds: u64,
    /// The share of [`rounds`](CongestCost::rounds) spent on recovery:
    /// the bounded retransmission epochs a hardened engine (one with a
    /// non-quiet [`FaultPlan`](congest_sim::FaultPlan)) runs to re-send
    /// broadcast streams whose trailer failed to verify. Always 0 under
    /// a quiet plan.
    pub recovery_rounds: u64,
    /// The share of the broadcast prefix (`rounds − convergecast_rounds
    /// − recovery_rounds`) a hardened engine spends sending stream
    /// trailers. Always 0 under a quiet plan.
    pub trailer_rounds: u64,
    /// The epoch's silent rounds — rounds in which no node sent
    /// anything — capped at
    /// [`convergecast_rounds`](CongestCost::convergecast_rounds). The
    /// simulator counts silent rounds per epoch, not per phase, so a
    /// silent *broadcast* round is booked here too; the cap only keeps
    /// the term inside the convergecast share, where waiting (a timeout
    /// sat out, the tail in which the last nodes linger before halting)
    /// usually happens. It is not yet an exact partition of the rounds.
    pub idle_rounds: u64,
}

impl CongestCost {
    /// The cost of one epoch whose simulator metrics are `metrics`, of
    /// which everything after the `broadcast_rounds`-round prefix was
    /// convergecast aggregation and the prefix's last `trailer_rounds`
    /// data-free rounds carried stream trailers.
    pub(super) fn from_epoch(
        metrics: &congest_sim::Metrics,
        broadcast_rounds: u64,
        trailer_rounds: u64,
    ) -> Self {
        let convergecast_rounds = metrics.rounds.saturating_sub(broadcast_rounds);
        let cost = CongestCost {
            rounds: metrics.rounds,
            messages: metrics.messages,
            bits: metrics.total_bits,
            convergecast_rounds,
            recovery_rounds: 0,
            trailer_rounds,
            idle_rounds: metrics.silent_rounds.min(convergecast_rounds),
        };
        cost.debug_assert_partition();
        cost
    }

    /// The parts must nest: broadcast prefix + convergecast + recovery
    /// is all of the rounds, trailers are part of the prefix, idling is
    /// part of the convergecast.
    fn debug_assert_partition(&self) {
        let prefix = self
            .rounds
            .checked_sub(self.convergecast_rounds + self.recovery_rounds);
        debug_assert!(
            prefix.is_some_and(|prefix| self.trailer_rounds <= prefix)
                && self.idle_rounds <= self.convergecast_rounds,
            "cost terms do not nest: {self:?}"
        );
    }

    /// Adds one retransmission epoch's metrics into this batch cost.
    pub(super) fn add_recovery_epoch(&mut self, metrics: &congest_sim::Metrics) {
        self.rounds += metrics.rounds;
        self.messages += metrics.messages;
        self.bits += metrics.total_bits;
        self.recovery_rounds += metrics.rounds;
        self.debug_assert_partition();
    }

    /// Adds `other` into this running total.
    pub(super) fn accumulate(&mut self, other: &CongestCost) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.bits += other.bits;
        self.convergecast_rounds += other.convergecast_rounds;
        self.recovery_rounds += other.recovery_rounds;
        self.trailer_rounds += other.trailer_rounds;
        self.idle_rounds += other.idle_rounds;
    }
}

/// Per-node received-bits imbalance across the epochs run so far: each
/// epoch's skew is the busiest node's received bits over the per-node
/// mean (1.0 = perfectly even, `n` = one node received everything). Hub
/// batches without helper-splitting push this toward the hub's degree;
/// [`HubSplit`](super::HubSplit) pulls it back down — this is the
/// load-balance story of the paper's bounds made measurable per run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReceivedBitsSkew {
    /// Worst single-epoch skew.
    pub max_ratio: f64,
    /// Mean over epochs of the per-epoch skew.
    pub mean_ratio: f64,
    /// Epochs the statistics cover.
    pub epochs: u64,
}

/// Cumulative self-healing statistics of a hardened
/// [`DistributedTriangleEngine`](super::DistributedTriangleEngine) (all
/// zero on a quiet plan).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Network rounds spent in retransmission (repair) epochs.
    pub retransmit_rounds: u64,
    /// Repair epochs executed.
    pub epoch_repairs: u64,
    /// Epochs that needed any degradation to central recomputation
    /// (crashed nodes, uncovered deltas, or abandoned convergecast
    /// streams) — the batches whose cost accounting is best-effort.
    pub degraded_epochs: u64,
}
