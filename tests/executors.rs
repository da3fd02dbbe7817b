//! Round semantics at the edges of a node's life — halting, crashing,
//! waking, the round cap — pinned on [`Simulation`] under one seeded
//! drop + duplicate + corrupt plan, through the public API only.

use congest::graph::generators::Classic;
use congest::prelude::*;
use congest::sim::{FaultPlan, NodeProgram, NodeStatus, RoundContext, Termination};
use congest::wire::{BitWriter, Payload};

/// Epoch 0 lasts this many rounds for the nodes that talk through it.
const LAST: u64 = 24;

/// What a node read: `(epoch, round, [(sender, payload)])`, one entry
/// per round it ran.
type Log = Vec<(u64, u64, Vec<(u32, Payload)>)>;

/// Four nodes on a complete graph following a fixed script:
///
/// * epoch 0 — nodes 0 and 2 send to every other node each round and
///   halt after round [`LAST`]; node 1 halts in round 0 (or, with
///   `one_lingers`, stays up silently until `LAST`); node 3 is crashed
///   by the fault plan;
/// * epoch 1 — everyone sends to everyone and nobody ever halts;
/// * epoch 2 — everyone halts at once.
struct Scripted {
    one_lingers: bool,
    log: Log,
}

impl NodeProgram for Scripted {
    type Output = Log;

    fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
        let (id, epoch, round) = (ctx.id().0, ctx.epoch(), ctx.round());
        let inbox = ctx.take_inbox();
        let read = inbox.into_iter().map(|m| (m.from.0, m.payload)).collect();
        self.log.push((epoch, round, read));
        let talks = match epoch {
            0 => id == 0 || id == 2,
            1 => true,
            _ => false,
        };
        if talks {
            let mut w = BitWriter::new();
            w.write_bits((u64::from(id) << 6) | (round % 64), 8);
            let payload = w.finish();
            for to in ctx.neighbors().to_vec() {
                ctx.send(to, payload.clone()).unwrap();
            }
        }
        let halts = match (epoch, id) {
            (0, 1) if !self.one_lingers => true,
            (0, _) => round >= LAST,
            (1, _) => false,
            _ => true,
        };
        if halts {
            NodeStatus::Halted
        } else {
            NodeStatus::Active
        }
    }

    fn finish(&mut self) -> Log {
        std::mem::take(&mut self.log)
    }
}

fn lossy_config() -> SimConfig {
    let plan = FaultPlan::default()
        .with_drop(0.2)
        .with_duplication(0.2)
        .with_corruption(0.2)
        .with_seed(0x5EED)
        .with_crash(3, 0, 1);
    SimConfig::congest(11).with_faults(plan)
}

/// Drives the three scripted epochs.
fn drive_script(one_lingers: bool) -> ([EpochReport; 3], Vec<Log>) {
    let graph = Classic::Complete(4).generate();
    let mut sim = Simulation::new(&graph, lossy_config(), |_| Scripted {
        one_lingers,
        log: Vec::new(),
    });
    // Client input for a node that is down when the epoch starts.
    sim.inject(NodeId(3), Payload::from_parts(vec![0xEE], 8));
    let first = sim.run_epoch();
    sim.set_max_rounds(5);
    let capped = sim.run_epoch();
    sim.set_max_rounds(1_000);
    let last = sim.run_epoch();
    let logs: Vec<Log> = graph
        .nodes()
        .map(|node| sim.program_mut(node).finish())
        .collect();
    ([first, capped, last], logs)
}

#[test]
fn halting_crashing_waking_and_the_round_cap() {
    let (epochs, logs) = drive_script(false);
    let [first, capped, last] = &epochs;
    let of = |logs: &'_ [Log], node: usize, epoch: u64| -> Log {
        let in_epoch = logs[node].iter().filter(|e| e.0 == epoch);
        in_epoch.cloned().collect()
    };
    let entries = |node: usize, epoch: u64| of(&logs, node, epoch);

    // Node 1 halts in round 0. Node 0 — a lower id, so settled first —
    // had already sent to it that round; node 2 and every later round
    // send to a node that is down. All of it is paid for, none is seen.
    assert_eq!(entries(1, 0), vec![(0, 0, vec![])]);
    assert!(first.metrics.received_messages[1] > 0);
    // Node 3 is crashed: it never runs, its injection is gone, traffic
    // to it is still counted.
    assert!(entries(3, 0).is_empty());
    assert!(first.metrics.received_messages[3] > 0);
    // Every send met exactly one fate.
    let sends = 2 * 3 * (LAST + 1);
    let m = &first.metrics;
    assert_eq!(
        m.messages + m.dropped_messages - m.duplicated_messages,
        sends
    );
    assert!(m.dropped_messages > 0 && m.duplicated_messages > 0 && m.corrupted_messages > 0);
    assert_eq!(first.termination, Termination::AllHalted);
    assert_eq!(m.rounds, LAST + 1);

    // A message to a halted node draws its drop / corrupt / duplicate
    // decisions like any other. With node 1 up for the whole epoch
    // instead, every sender's fault stream must sit where it sat, so
    // what nodes 0 and 2 read from each other cannot change.
    let (twin_epochs, twin_logs) = drive_script(true);
    assert_eq!(entries(0, 0), of(&twin_logs, 0, 0));
    assert_eq!(entries(2, 0), of(&twin_logs, 2, 0));
    assert_eq!(twin_epochs[0].metrics, first.metrics);
    assert!(of(&twin_logs, 1, 0).iter().any(|e| !e.2.is_empty()));

    // Epoch 1: both sleepers wake to an empty inbox — neither the
    // injection nor epoch 0's traffic survived — and the cap fires
    // with all four nodes still running.
    for node in [1, 3] {
        assert_eq!(entries(node, 1)[0], (1, 0, vec![]));
    }
    assert_eq!(capped.termination, Termination::RoundLimit);
    assert_eq!(capped.metrics.rounds, 5);
    assert!((0..4).all(|node| entries(node, 1).len() == 5));

    // Epoch 2: what the capped epoch's last round sent is gone too.
    for node in 0..4 {
        assert_eq!(entries(node, 2), vec![(2, 0, vec![])]);
    }
    assert_eq!(last.metrics.rounds, 1);
    assert_eq!(last.metrics.messages, 0);
}
