//! Traffic and round metrics collected by the engines.

/// Aggregate metrics of one simulation run.
///
/// The per-node received-bit counters are the quantity the paper's
/// lower-bound arguments reason about (a node can receive at most
/// `O(n log n)` bits per round in the clique, `deg · O(log n)` in CONGEST),
/// so the engine maintains them exactly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Metrics {
    /// Number of rounds executed before every node halted (or the cap was
    /// hit).
    pub rounds: u64,
    /// Total number of messages delivered.
    pub messages: u64,
    /// Total number of payload bits delivered.
    pub total_bits: u64,
    /// Bits received by each node over the whole run (indexed by node id).
    pub received_bits: Vec<u64>,
    /// Bits sent by each node over the whole run (indexed by node id).
    pub sent_bits: Vec<u64>,
    /// Messages received by each node over the whole run.
    pub received_messages: Vec<u64>,
    /// Messages lost in transit by the fault layer (zero unless a
    /// [`FaultPlan`](crate::FaultPlan) injects drops).
    pub dropped_messages: u64,
    /// Messages whose payload had a bit flipped in transit by the fault
    /// layer.
    pub corrupted_messages: u64,
    /// Messages delivered twice by the fault layer.
    pub duplicated_messages: u64,
    /// Rounds in which no node sent anything: pure waiting (a timeout
    /// being sat out, a tail of nodes lingering before they halt).
    pub silent_rounds: u64,
}

impl Metrics {
    /// Creates zeroed metrics for a network of `n` nodes.
    pub fn new(n: usize) -> Self {
        Metrics {
            rounds: 0,
            messages: 0,
            total_bits: 0,
            received_bits: vec![0; n],
            received_messages: vec![0; n],
            sent_bits: vec![0; n],
            dropped_messages: 0,
            corrupted_messages: 0,
            duplicated_messages: 0,
            silent_rounds: 0,
        }
    }

    /// Records the delivery of a `bits`-bit message from `from` to `to`.
    pub(crate) fn record_delivery(&mut self, from: usize, to: usize, bits: usize) {
        self.record_deliveries(from, to, 1, bits);
    }

    /// Records `count` deliveries from `from` to `to` that carry `bits`
    /// bits between them: a stream's chunks, booked whole.
    pub(crate) fn record_deliveries(&mut self, from: usize, to: usize, count: u64, bits: usize) {
        self.messages += count;
        self.total_bits += bits as u64;
        self.received_bits[to] += bits as u64;
        self.received_messages[to] += count;
        self.sent_bits[from] += bits as u64;
    }

    /// Takes back `count` deliveries of `bits` bits between them that
    /// [`record_deliveries`](Metrics::record_deliveries) booked and that
    /// never happened: the chunks of a stream after it was cut.
    pub(crate) fn unrecord_deliveries(&mut self, from: usize, to: usize, count: u64, bits: usize) {
        self.messages -= count;
        self.total_bits -= bits as u64;
        self.received_bits[to] -= bits as u64;
        self.received_messages[to] -= count;
        self.sent_bits[from] -= bits as u64;
    }

    /// Records a message from `from` lost in transit: the sender paid for
    /// the `bits`, nothing was delivered.
    pub(crate) fn record_drop(&mut self, from: usize, bits: usize) {
        self.sent_bits[from] += bits as u64;
        self.dropped_messages += 1;
    }

    /// The largest number of bits received by any single node.
    pub fn max_received_bits(&self) -> u64 {
        self.received_bits.iter().copied().max().unwrap_or(0)
    }

    /// The node that received the most bits (ties broken towards the lower
    /// id), or `None` for an empty network.
    pub fn max_received_node(&self) -> Option<usize> {
        self.received_bits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
    }

    /// Average number of bits received per node.
    pub fn mean_received_bits(&self) -> f64 {
        if self.received_bits.is_empty() {
            0.0
        } else {
            self.total_bits as f64 / self.received_bits.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_accounting() {
        let mut m = Metrics::new(3);
        m.record_delivery(0, 1, 10);
        m.record_delivery(2, 1, 5);
        m.record_delivery(1, 0, 7);
        assert_eq!(m.messages, 3);
        assert_eq!(m.total_bits, 22);
        assert_eq!(m.received_bits, vec![7, 15, 0]);
        assert_eq!(m.sent_bits, vec![10, 7, 5]);
        assert_eq!(m.received_messages, vec![1, 2, 0]);
        assert_eq!(m.max_received_bits(), 15);
        assert_eq!(m.max_received_node(), Some(1));
        assert!((m.mean_received_bits() - 22.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_network_edge_cases() {
        let m = Metrics::new(0);
        assert_eq!(m.max_received_bits(), 0);
        assert_eq!(m.max_received_node(), None);
        assert_eq!(m.mean_received_bits(), 0.0);
    }

    #[test]
    fn ties_resolve_to_lower_id() {
        let mut m = Metrics::new(3);
        m.record_delivery(0, 1, 4);
        m.record_delivery(0, 2, 4);
        assert_eq!(m.max_received_node(), Some(1));
    }
}
