//! The benchmark's own seeded input generators.
//!
//! Every stream is *effective* and *stationary*: a departure removes an
//! edge that is live, an arrival adds one that is not, and the live-edge
//! count climbs to a target and is then held there. The engines
//! therefore never spend a batch on no-ops, and the graph never drifts
//! toward G(n, 1/2) however long the stream runs. The random source is
//! local, so the streams do not move when the workspace's `rand`
//! stand-in does.

use std::collections::HashSet;
use std::fmt::Write as _;

use congest_graph::{Graph, GraphBuilder, NodeId};
use congest_stream::DeltaBatch;

/// SplitMix64: tiny, seedable, and good enough to place edges.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// A seed for one named sub-stream of a run, so that a workload's
/// inputs do not shift when another workload draws more numbers.
pub fn derive_seed(seed: u64, stream: &str) -> u64 {
    let mut h = Fingerprint::new();
    h.word(seed);
    for b in stream.bytes() {
        h.word(b as u64);
    }
    h.0
}

/// How an arrival picks its first endpoint (the second is uniform).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Skew {
    Uniform,
    /// `u = ⌊n·x³⌋` for uniform `x`: node `k` is drawn with probability
    /// ∝ `k^(-2/3)`, so a few hubs hold lists 100–1000× their partners'.
    Cubic,
}

/// Parameters of one churn stream.
#[derive(Debug, Clone, Copy)]
pub struct ChurnSpec {
    pub n: u32,
    /// Live edges the stream climbs to and then holds.
    pub live_target: usize,
    pub skew: Skew,
    /// Probability that an event below the target is a departure; at or
    /// above the target the odds flip, which is what holds the count.
    /// Must be below one half.
    pub departure_share: f64,
}

/// One edge event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub u: u32,
    pub v: u32,
    pub arrival: bool,
}

/// A stationary churn stream: an iterator-like source of [`Event`]s
/// that tracks its own live-edge set.
#[derive(Debug, Clone)]
pub struct Churn {
    spec: ChurnSpec,
    rng: SplitMix64,
    live: Vec<(u32, u32)>,
    present: HashSet<u64>,
}

fn key(u: u32, v: u32) -> u64 {
    ((u as u64) << 32) | v as u64
}

impl Churn {
    pub fn new(spec: ChurnSpec, seed: u64) -> Self {
        assert!(spec.n >= 2, "a churn stream needs two nodes");
        assert!(
            spec.departure_share < 0.5,
            "departure share must be below one half for the target to hold"
        );
        let pairs = spec.n as u64 * (spec.n as u64 - 1) / 2;
        assert!(
            (spec.live_target as u64) < pairs / 2,
            "live target too dense for rejection sampling"
        );
        Churn {
            spec,
            rng: SplitMix64::new(seed),
            live: Vec::new(),
            present: HashSet::new(),
        }
    }

    #[cfg(test)]
    pub fn live_edges(&self) -> usize {
        self.live.len()
    }

    fn arrive(&mut self) -> Event {
        let n = self.spec.n;
        loop {
            let first = match self.spec.skew {
                Skew::Uniform => self.rng.below(n as u64) as u32,
                Skew::Cubic => {
                    let x = self.rng.unit();
                    ((n as f64 * x * x * x) as u32).min(n - 1)
                }
            };
            let second = self.rng.below(n as u64) as u32;
            if first == second {
                continue;
            }
            let (u, v) = (first.min(second), first.max(second));
            if self.present.insert(key(u, v)) {
                self.live.push((u, v));
                return Event {
                    u,
                    v,
                    arrival: true,
                };
            }
        }
    }

    fn depart(&mut self) -> Event {
        let i = self.rng.below(self.live.len() as u64) as usize;
        let (u, v) = self.live.swap_remove(i);
        self.present.remove(&key(u, v));
        Event {
            u,
            v,
            arrival: false,
        }
    }

    /// The next event of the stream.
    pub fn next_event(&mut self) -> Event {
        let share = if self.live.len() >= self.spec.live_target {
            1.0 - self.spec.departure_share
        } else {
            self.spec.departure_share
        };
        if !self.live.is_empty() && self.rng.unit() < share {
            self.depart()
        } else {
            self.arrive()
        }
    }

    /// Arrivals only, until the target is reached: the base graph of a
    /// workload that starts in the stationary regime.
    pub fn prefill(&mut self) -> Graph {
        while self.live.len() < self.spec.live_target {
            self.arrive();
        }
        let mut builder = GraphBuilder::new(self.spec.n as usize);
        for &(u, v) in &self.live {
            builder
                .add_edge(NodeId(u), NodeId(v))
                .expect("generated edges are in range and simple");
        }
        builder.build()
    }

    /// The next `count` batches of `size` events each.
    pub fn batches(&mut self, count: usize, size: usize) -> Vec<DeltaBatch> {
        (0..count)
            .map(|_| {
                let mut batch = DeltaBatch::new();
                for _ in 0..size {
                    let e = self.next_event();
                    if e.arrival {
                        batch.insert(NodeId(e.u), NodeId(e.v));
                    } else {
                        batch.remove(NodeId(e.u), NodeId(e.v));
                    }
                }
                batch
            })
            .collect()
    }

    /// The next `events` events as `src dst w time` temporal edge-list
    /// text (`w < 0` departs), with strictly increasing times.
    pub fn temporal_text(&mut self, events: usize) -> String {
        let mut out = String::with_capacity(events * 20 + 64);
        out.push_str("# perf_report churn: src dst w time (w < 0 departs the edge)\n");
        let mut time = 0u64;
        for _ in 0..events {
            time += 1 + self.rng.below(3);
            let e = self.next_event();
            let w = if e.arrival { 1 } else { -1 };
            writeln!(out, "{} {} {} {}", e.u, e.v, w, time).expect("writing to a String");
        }
        out
    }
}

/// `count` batches of `size` fresh uniform arrivals on an empty graph,
/// followed by the same edges departed in reverse order, again `size`
/// to a batch. Returns the batches and the index of the first shrinking
/// one.
pub fn grow_shrink(n: u32, count: usize, size: usize, seed: u64) -> (Vec<DeltaBatch>, usize) {
    let mut churn = Churn::new(
        ChurnSpec {
            n,
            live_target: count * size,
            skew: Skew::Uniform,
            departure_share: 0.0,
        },
        seed,
    );
    let mut batches = churn.batches(count, size);
    let mut edges = churn.live;
    edges.reverse();
    for chunk in edges.chunks(size) {
        let mut batch = DeltaBatch::new();
        for &(u, v) in chunk {
            batch.remove(NodeId(u), NodeId(v));
        }
        batches.push(batch);
    }
    (batches, count)
}

/// FNV-1a over 64-bit words: the identity of a generated input.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a base graph and a batch stream, in order.
    pub fn of_stream(base: &Graph, batches: &[DeltaBatch]) -> u64 {
        let mut h = Fingerprint::new();
        h.word(base.node_count() as u64);
        for e in base.edges() {
            h.word(key(e.lo().0, e.hi().0));
        }
        for batch in batches {
            h.word(batch.len() as u64);
            for d in batch.deltas() {
                h.word(key(d.edge.lo().0, d.edge.hi().0));
                h.word(d.op as u64);
            }
        }
        h.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: ChurnSpec = ChurnSpec {
        n: 500,
        live_target: 2_000,
        skew: Skew::Cubic,
        departure_share: 0.35,
    };

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let text = |seed| Churn::new(SPEC, seed).temporal_text(5_000);
        assert_eq!(text(7), text(7));
        assert_ne!(text(7), text(8));
        let stream = |seed| {
            let mut c = Churn::new(SPEC, seed);
            let base = c.prefill();
            Fingerprint::of_stream(&base, &c.batches(20, 100))
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
        assert_ne!(derive_seed(1, "a"), derive_seed(1, "b"));
    }

    #[test]
    fn live_count_climbs_to_the_target_and_stays_within_five_percent() {
        for skew in [Skew::Uniform, Skew::Cubic] {
            let mut churn = Churn::new(ChurnSpec { skew, ..SPEC }, 11);
            // Net growth below the target is 0.3 edges an event.
            for _ in 0..(SPEC.live_target as f64 / 0.3 * 1.2) as usize {
                churn.next_event();
            }
            for _ in 0..50_000 {
                churn.next_event();
                let live = churn.live_edges() as f64;
                let target = SPEC.live_target as f64;
                assert!((live - target).abs() <= 0.05 * target, "{live} vs {target}");
            }
        }
    }

    #[test]
    fn every_event_is_effective() {
        let mut churn = Churn::new(SPEC, 3);
        let mut live = HashSet::new();
        for _ in 0..20_000 {
            let e = churn.next_event();
            assert!(e.u < e.v && e.v < SPEC.n);
            if e.arrival {
                assert!(live.insert((e.u, e.v)), "arrival of a live edge");
            } else {
                assert!(live.remove(&(e.u, e.v)), "departure of a dead edge");
            }
        }
        assert_eq!(live.len(), churn.live_edges());
    }

    #[test]
    fn prefill_reaches_the_target_exactly() {
        let mut churn = Churn::new(SPEC, 5);
        let base = churn.prefill();
        assert_eq!(base.edge_count(), SPEC.live_target);
        assert_eq!(churn.live_edges(), SPEC.live_target);
    }

    #[test]
    fn grow_shrink_departs_the_arrivals_in_reverse() {
        let (batches, turn) = grow_shrink(200, 6, 50, 9);
        assert_eq!((batches.len(), turn), (12, 6));
        let grown: Vec<_> = batches[..turn]
            .iter()
            .flat_map(|b| b.deltas().iter().map(|d| d.edge))
            .collect();
        let mut shrunk: Vec<_> = batches[turn..]
            .iter()
            .flat_map(|b| b.deltas().iter().map(|d| d.edge))
            .collect();
        shrunk.reverse();
        assert_eq!(grown, shrunk);
        assert_eq!(grown.iter().collect::<HashSet<_>>().len(), 300);
    }

    #[test]
    fn cubic_skew_concentrates_endpoints_on_low_ids() {
        let mut churn = Churn::new(
            ChurnSpec {
                n: 1_000,
                live_target: 20_000,
                ..SPEC
            },
            1,
        );
        let base = churn.prefill();
        let hub = base.degree(NodeId(0));
        let mean = 2 * base.edge_count() / 1_000;
        assert!(hub > 10 * mean, "hub degree {hub} vs mean {mean}");
    }
}
