//! Where batches come from: the [`BatchSource`] abstraction and the
//! temporal-file [`Replay`] driver.
//!
//! Historically every bench, gate and chaos harness ran on the four
//! synthetic [`Scenario`] generator families. [`BatchSource`] makes the
//! origin of a delta stream a first-class abstraction instead: a source
//! names itself, fingerprints itself (so gates can refuse cross-source
//! baseline comparisons), supplies a base graph, and yields its
//! [`DeltaBatch`]es *lazily* — replaying a large temporal file streams
//! batches instead of holding the timeline's deltas in memory twice.
//!
//! Two implementations ship:
//!
//! * [`Scenario`] — the existing generator families, unchanged
//!   bit-for-bit (a regression test pins their streams to pre-refactor
//!   checksums);
//! * [`Replay`] — a parsed [`TemporalEdgeList`] chopped into batches by
//!   a [`ReplayPolicy`]: fixed batch size, or fixed wall-clock time
//!   window over the file's own timestamps.
//!
//! A source does not split a batch across workers: the sharded engine's
//! pool does, by the owner of each edge's lower endpoint, so one edge's
//! ops always meet on one worker.

use std::sync::Arc;

use congest_graph::temporal::{fingerprint64, TemporalEdgeList, TemporalEvent};
use congest_graph::{Graph, GraphBuilder};

use crate::delta::DeltaBatch;
use crate::workload::{BaseGraph, Scenario, ScenarioKind};

/// The lazy batch stream a [`BatchSource`] yields.
pub type BatchIter<'a> = Box<dyn Iterator<Item = DeltaBatch> + 'a>;

/// A deterministic producer of a base graph plus a stream of
/// [`DeltaBatch`]es.
///
/// Everything downstream — [`WorkloadRunner`](crate::WorkloadRunner),
/// the bench binaries, the chaos harness — is generic over this trait,
/// so a synthetic scenario and a replayed temporal file are
/// interchangeable workloads. Implementations must be deterministic:
/// two calls to [`BatchSource::batch_iter`] yield identical streams,
/// and [`BatchSource::fingerprint`] identifies the stream (bench gates
/// compare fingerprints to refuse cross-source baselines).
pub trait BatchSource {
    /// Human-readable source name, used in logs and JSON
    /// (e.g. `uniform_churn/gnp` or `replay/churn.txt`).
    fn name(&self) -> String;

    /// Number of nodes of the graph the stream mutates.
    fn node_count(&self) -> usize;

    /// The graph state before the first batch.
    fn base_graph(&self) -> Graph;

    /// Exact number of batches [`BatchSource::batch_iter`] yields.
    fn batch_count(&self) -> usize;

    /// Nominal deltas per batch (individual batches may differ — bursts
    /// overshoot, trailing replay chunks undershoot).
    fn batch_size(&self) -> usize;

    /// Deterministic 64-bit fingerprint of the stream's identity; bench
    /// JSON carries it as
    /// [`fingerprint_hex`](congest_graph::temporal::fingerprint_hex).
    fn fingerprint(&self) -> u64;

    /// The replay policy label (`size:N` / `window:MS`), `None` for
    /// generated sources.
    fn replay_policy(&self) -> Option<String> {
        None
    }

    /// The batch stream, generated lazily.
    fn batch_iter(&self) -> BatchIter<'_>;

    /// The batch stream, materialized. Prefer
    /// [`BatchSource::batch_iter`] for long streams.
    fn batches(&self) -> Vec<DeltaBatch> {
        self.batch_iter().collect()
    }
}

impl BatchSource for Scenario {
    fn name(&self) -> String {
        // Inherent method of the same name; the trait defers to it.
        Scenario::name(self)
    }

    fn node_count(&self) -> usize {
        Scenario::node_count(self)
    }

    fn base_graph(&self) -> Graph {
        Scenario::base_graph(self)
    }

    fn batch_count(&self) -> usize {
        Scenario::batch_count(self)
    }

    fn batch_size(&self) -> usize {
        Scenario::batch_size(self)
    }

    fn fingerprint(&self) -> u64 {
        // Every parameter that shapes the stream, folded in a fixed
        // order. Float parameters contribute their exact bit patterns.
        let (kind_tag, kind_a, kind_b) = match self.kind() {
            ScenarioKind::UniformChurn => (1u64, 0, 0),
            ScenarioKind::HotspotChurn { exponent } => (2, exponent.to_bits(), 0),
            ScenarioKind::PlantedBurst {
                burst_every,
                triangles_per_burst,
            } => (3, burst_every as u64, triangles_per_burst as u64),
            ScenarioKind::GrowThenShrink => (4, 0, 0),
        };
        let (base_tag, base_a, base_b) = match self.base() {
            BaseGraph::Empty => (1u64, 0, 0),
            BaseGraph::Gnp { p } => (2, p.to_bits(), 0),
            BaseGraph::PlantedLight {
                count,
                background_p,
            } => (3, count as u64, background_p.to_bits()),
            BaseGraph::TriangleFreeBipartite { p } => (4, p.to_bits(), 0),
        };
        fingerprint64([
            0x5CE7A810u64,
            kind_tag,
            kind_a,
            kind_b,
            base_tag,
            base_a,
            base_b,
            self.node_count() as u64,
            Scenario::batch_count(self) as u64,
            Scenario::batch_size(self) as u64,
            self.seed(),
        ])
    }

    fn batch_iter(&self) -> BatchIter<'_> {
        Box::new(Scenario::batch_iter(self))
    }

    fn batches(&self) -> Vec<DeltaBatch> {
        Scenario::batches(self)
    }
}

/// How a [`Replay`] chops a time-sorted event timeline into batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayPolicy {
    /// Fixed batch size: consecutive runs of `N` events (the final batch
    /// may be shorter).
    BySize(usize),
    /// Fixed time window: all events whose timestamps fall in the same
    /// `MS`-wide window, anchored at the first event's time. Empty
    /// windows yield no batch (the stream skips ahead).
    ByTimeWindow(u64),
}

impl ReplayPolicy {
    /// Parses a CLI policy spec: `size:N` or `window:MS`.
    pub fn parse(spec: &str) -> Result<ReplayPolicy, String> {
        let (kind, value) = spec
            .split_once(':')
            .ok_or_else(|| format!("replay policy {spec:?}: expected `size:N` or `window:MS`"))?;
        match kind {
            "size" => {
                let n: usize = value
                    .parse()
                    .map_err(|e| format!("replay policy {spec:?}: batch size: {e}"))?;
                if n == 0 {
                    return Err(format!(
                        "replay policy {spec:?}: batch size must be positive"
                    ));
                }
                Ok(ReplayPolicy::BySize(n))
            }
            "window" => {
                let ms: u64 = value
                    .parse()
                    .map_err(|e| format!("replay policy {spec:?}: window width: {e}"))?;
                if ms == 0 {
                    return Err(format!("replay policy {spec:?}: window must be positive"));
                }
                Ok(ReplayPolicy::ByTimeWindow(ms))
            }
            other => Err(format!(
                "replay policy {spec:?}: unknown kind {other:?} (expected `size` or `window`)"
            )),
        }
    }

    /// Round-trippable label (`size:N` / `window:MS`), recorded in
    /// bench JSON so baselines can refuse cross-policy comparisons.
    pub fn label(&self) -> String {
        match self {
            ReplayPolicy::BySize(n) => format!("size:{n}"),
            ReplayPolicy::ByTimeWindow(ms) => format!("window:{ms}"),
        }
    }
}

/// A [`BatchSource`] that replays a parsed [`TemporalEdgeList`].
///
/// The timeline is already time-sorted; the replay driver walks it once
/// per [`Replay::batch_iter`] call, grouping events into batches by the
/// [`ReplayPolicy`] and mapping arrivals to inserts and departures to
/// removals. The base graph is empty — a temporal file carries its whole
/// history as events.
///
/// ```
/// use congest_graph::temporal::TemporalLoader;
/// use congest_stream::{BatchSource, Replay, ReplayPolicy};
///
/// let list = TemporalLoader::new()
///     .parse_str("0 1 10\n1 2 12\n0 2 25\n")
///     .unwrap();
/// let replay = Replay::new(list, ReplayPolicy::ByTimeWindow(10));
/// assert_eq!(replay.batch_count(), 2); // [10,20) and [20,30)
/// let batches = replay.batches();
/// assert_eq!(batches[0].len(), 2);
/// assert_eq!(batches[1].len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Replay {
    timeline: Arc<TemporalEdgeList>,
    policy: ReplayPolicy,
    label: String,
    batch_count: usize,
}

impl Replay {
    /// Wraps a timeline with a batching policy. The source is labeled
    /// `replay/temporal`; use [`Replay::with_label`] to name the file.
    pub fn new(timeline: TemporalEdgeList, policy: ReplayPolicy) -> Self {
        let batch_count = count_batches(timeline.events(), policy);
        Replay {
            timeline: Arc::new(timeline),
            policy,
            label: "temporal".to_string(),
            batch_count,
        }
    }

    /// Names the source after its origin (typically the file name);
    /// shows up in logs and JSON as `replay/<label>`.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The replayed timeline.
    pub fn timeline(&self) -> &TemporalEdgeList {
        &self.timeline
    }

    /// The batching policy.
    pub fn policy(&self) -> ReplayPolicy {
        self.policy
    }
}

/// Number of batches `policy` chops `events` into (mirrors the
/// iterator's grouping exactly).
fn count_batches(events: &[TemporalEvent], policy: ReplayPolicy) -> usize {
    if events.is_empty() {
        return 0;
    }
    match policy {
        ReplayPolicy::BySize(n) => events.len().div_ceil(n),
        ReplayPolicy::ByTimeWindow(w) => {
            let t0 = events[0].time;
            let mut windows = 1usize;
            let mut current = 0u64;
            for e in events {
                let idx = (e.time - t0) / w;
                if idx != current {
                    windows += 1;
                    current = idx;
                }
            }
            windows
        }
    }
}

impl BatchSource for Replay {
    fn name(&self) -> String {
        format!("replay/{}", self.label)
    }

    fn node_count(&self) -> usize {
        self.timeline.node_count()
    }

    fn base_graph(&self) -> Graph {
        // A temporal file IS the history; the graph starts empty.
        GraphBuilder::new(self.timeline.node_count()).build()
    }

    fn batch_count(&self) -> usize {
        self.batch_count
    }

    fn batch_size(&self) -> usize {
        match self.policy {
            ReplayPolicy::BySize(n) => n,
            // Windows have no fixed size; report the average so
            // summaries stay meaningful.
            ReplayPolicy::ByTimeWindow(_) => {
                if self.batch_count == 0 {
                    0
                } else {
                    self.timeline.len().div_ceil(self.batch_count)
                }
            }
        }
    }

    fn fingerprint(&self) -> u64 {
        // File identity plus policy: replaying the same file with a
        // different batching is a different workload for gating.
        let (tag, param) = match self.policy {
            ReplayPolicy::BySize(n) => (1u64, n as u64),
            ReplayPolicy::ByTimeWindow(ms) => (2, ms),
        };
        fingerprint64([0x002E_B1A4_u64, self.timeline.fingerprint(), tag, param])
    }

    fn replay_policy(&self) -> Option<String> {
        Some(self.policy.label())
    }

    fn batch_iter(&self) -> BatchIter<'_> {
        Box::new(ReplayIter {
            events: self.timeline.events(),
            pos: 0,
            policy: self.policy,
        })
    }
}

/// Streaming batcher over a time-sorted event slice.
struct ReplayIter<'a> {
    events: &'a [TemporalEvent],
    pos: usize,
    policy: ReplayPolicy,
}

impl Iterator for ReplayIter<'_> {
    type Item = DeltaBatch;

    fn next(&mut self) -> Option<DeltaBatch> {
        if self.pos >= self.events.len() {
            return None;
        }
        let start = self.pos;
        let end = match self.policy {
            ReplayPolicy::BySize(n) => (start + n).min(self.events.len()),
            ReplayPolicy::ByTimeWindow(w) => {
                let t0 = self.events[0].time;
                let window = (self.events[start].time - t0) / w;
                let mut end = start + 1;
                while end < self.events.len() && (self.events[end].time - t0) / w == window {
                    end += 1;
                }
                end
            }
        };
        self.pos = end;
        let mut batch = DeltaBatch::new();
        for e in &self.events[start..end] {
            if e.is_departure() {
                batch.remove(e.u, e.v);
            } else {
                batch.insert(e.u, e.v);
            }
        }
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::EdgeDelta;
    use congest_graph::temporal::TemporalLoader;
    use congest_graph::NodeId;

    fn toy_timeline() -> TemporalEdgeList {
        TemporalLoader::new()
            .parse_str("0 1 10\n1 2 11\n0 2 25\n2 3 -1 26\n1 3 40\n")
            .unwrap()
    }

    #[test]
    fn scenario_implements_batch_source_consistently() {
        let s = Scenario::uniform_churn(40, 5, 10).seeded(9);
        let trait_batches = BatchSource::batches(&s);
        assert_eq!(trait_batches, s.batches());
        assert_eq!(BatchSource::name(&s), "uniform_churn/empty");
        assert_eq!(BatchSource::batch_count(&s), 5);
        assert_eq!(BatchSource::replay_policy(&s), None);
    }

    #[test]
    fn scenario_fingerprints_separate_every_parameter() {
        let base = Scenario::uniform_churn(40, 5, 10).seeded(9);
        let fp = BatchSource::fingerprint(&base);
        for other in [
            Scenario::uniform_churn(41, 5, 10).seeded(9),
            Scenario::uniform_churn(40, 6, 10).seeded(9),
            Scenario::uniform_churn(40, 5, 11).seeded(9),
            Scenario::uniform_churn(40, 5, 10).seeded(10),
            Scenario::hotspot_churn(40, 5, 10).seeded(9),
            Scenario::uniform_churn(40, 5, 10)
                .with_base(BaseGraph::Gnp { p: 0.05 })
                .seeded(9),
        ] {
            assert_ne!(fp, BatchSource::fingerprint(&other), "{}", other.name());
        }
        // Stable across calls.
        assert_eq!(fp, BatchSource::fingerprint(&base));
    }

    #[test]
    fn replay_by_size_chops_into_fixed_chunks() {
        let replay = Replay::new(toy_timeline(), ReplayPolicy::BySize(2));
        assert_eq!(replay.batch_count(), 3);
        assert_eq!(replay.batch_size(), 2);
        let batches = replay.batches();
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 2);
        assert_eq!(batches[1].len(), 2);
        assert_eq!(batches[2].len(), 1);
        // The departure at t=26 lands in batch 1 as a removal.
        assert_eq!(
            batches[1].deltas()[1],
            EdgeDelta::remove(NodeId(2), NodeId(3))
        );
        let total: usize = batches.iter().map(DeltaBatch::len).sum();
        assert_eq!(total, replay.timeline().len());
    }

    #[test]
    fn replay_by_window_groups_by_timestamp_and_skips_empty_windows() {
        // Events at t = 10, 11, 25, 26, 40; windows of 10 anchored at 10
        // give [10,20) -> 2 events, [20,30) -> 2, [40,50) -> 1 (the
        // empty [30,40) window yields no batch).
        let replay = Replay::new(toy_timeline(), ReplayPolicy::ByTimeWindow(10));
        assert_eq!(replay.batch_count(), 3);
        let batches = replay.batches();
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 2);
        assert_eq!(batches[1].len(), 2);
        assert_eq!(batches[2].len(), 1);
    }

    #[test]
    fn replay_metadata_identifies_file_and_policy() {
        let a = Replay::new(toy_timeline(), ReplayPolicy::BySize(2)).with_label("churn.txt");
        let b = Replay::new(toy_timeline(), ReplayPolicy::BySize(3)).with_label("churn.txt");
        assert_eq!(a.name(), "replay/churn.txt");
        assert_eq!(a.replay_policy().as_deref(), Some("size:2"));
        // Same file, different policy: different fingerprint.
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Replay starts from an empty graph on the timeline's nodes.
        assert_eq!(a.base_graph().node_count(), 4);
        assert_eq!(a.base_graph().edge_count(), 0);
    }

    #[test]
    fn replay_of_empty_timeline_is_empty() {
        let list = TemporalLoader::new().parse_str("# nothing\n").unwrap();
        let replay = Replay::new(list, ReplayPolicy::BySize(8));
        assert_eq!(replay.batch_count(), 0);
        assert!(replay.batches().is_empty());
    }

    #[test]
    fn policy_specs_round_trip_and_reject_garbage() {
        assert_eq!(
            ReplayPolicy::parse("size:500").unwrap(),
            ReplayPolicy::BySize(500)
        );
        assert_eq!(
            ReplayPolicy::parse("window:250").unwrap(),
            ReplayPolicy::ByTimeWindow(250)
        );
        for p in [ReplayPolicy::BySize(7), ReplayPolicy::ByTimeWindow(123)] {
            assert_eq!(ReplayPolicy::parse(&p.label()).unwrap(), p);
        }
        for bad in ["size", "size:0", "window:0", "size:x", "rate:5", ""] {
            assert!(ReplayPolicy::parse(bad).is_err(), "{bad:?}");
        }
    }
}
