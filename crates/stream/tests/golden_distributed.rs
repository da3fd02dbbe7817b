//! Golden simulated counts of the distributed dynamic engine.
//!
//! A refactor of the node program, the coordinator or the repair loop
//! must leave every *simulated* quantity where it was: each
//! [`CongestCost`] field, the [`RecoveryStats`], the epoch count, the
//! received-bits skew and the final triangle set, under every broadcast
//! schedule and on the quiet and the hardened protocol alike. A change
//! that moves a row changed the protocol, not just its code layout.
//!
//! On a mismatch the test prints the whole table as it is now, in the
//! form of the constant, so an intended protocol change can re-pin it.
//!
//! [`CongestCost`]: congest_stream::CongestCost
//! [`RecoveryStats`]: congest_stream::RecoveryStats

mod common;

use std::fmt::Write as _;

use congest_graph::generators::{Gnp, PlantedHeavy};
use congest_graph::{Graph, TriangleSet};
use congest_stream::{DistributedTriangleEngine, FaultPlan, HubSplit};

fn graphs() -> [(&'static str, Graph); 3] {
    [
        ("gnp24", Gnp::new(24, 0.2).seeded(1).generate()),
        ("gnp40", Gnp::new(40, 0.1).seeded(2).generate()),
        (
            "heavy30",
            PlantedHeavy::new(30, 12)
                .with_background(0.05)
                .seeded(3)
                .generate(),
        ),
    ]
}

fn schedules() -> [(&'static str, HubSplit); 3] {
    [
        ("auto", HubSplit::Auto),
        ("off", HubSplit::Off),
        ("budget1", HubSplit::Budget(1)),
    ]
}

fn plans() -> [(&'static str, FaultPlan); 4] {
    [
        ("quiet", FaultPlan::default()),
        ("drop1", FaultPlan::default().with_drop(0.01).with_seed(7)),
        (
            "corrupt1_dup5",
            FaultPlan::default()
                .with_corruption(0.01)
                .with_duplication(0.05)
                .with_seed(7),
        ),
        (
            "drop1_crash",
            FaultPlan::default()
                .with_drop(0.01)
                .with_seed(7)
                .with_crash(2, 4, 10),
        ),
    ]
}

/// FNV-1a over the final triangle set's size and vertex ids.
fn fnv(set: &TriangleSet) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let words =
        std::iter::once(set.len() as u32).chain(set.iter().flat_map(|t| t.nodes().map(|v| v.0)));
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `rounds messages bits convergecast recovery trailer idle |
/// retransmit repairs degraded | epochs skew_max skew_mean |
/// triangles fnv`, the skews as their `f64` bit patterns.
fn run_row(graph: &Graph, split: HubSplit, plan: FaultPlan) -> String {
    let mut engine = DistributedTriangleEngine::from_graph(graph)
        .with_hub_split(split)
        .with_fault_plan(plan);
    for (i, batch) in common::random_batches(graph.node_count(), 8, 14, 0x601D)
        .iter()
        .enumerate()
    {
        if let Err(e) = engine.apply(batch) {
            return format!("error at batch {i}: {e}");
        }
    }
    assert!(engine.matches_oracle());
    let c = engine.total_cost();
    let r = engine.recovery_stats();
    let skew = engine.received_bits_skew().expect("the stream runs epochs");
    format!(
        "{} {} {} {} {} {} {} | {} {} {} | {} {:016x} {:016x} | {} {:016x}",
        c.rounds,
        c.messages,
        c.bits,
        c.convergecast_rounds,
        c.recovery_rounds,
        c.trailer_rounds,
        c.idle_rounds,
        r.retransmit_rounds,
        r.epoch_repairs,
        r.degraded_epochs,
        engine.epochs(),
        skew.max_ratio.to_bits(),
        skew.mean_ratio.to_bits(),
        engine.triangle_count(),
        fnv(&engine.triangles()),
    )
}

fn table() -> String {
    let mut out = String::new();
    for (name, graph) in graphs() {
        for (sched, split) in schedules() {
            for (plan_name, plan) in plans() {
                let row = run_row(&graph, split, plan);
                writeln!(out, "{name} {sched} {plan_name}: {row}").unwrap();
            }
        }
    }
    out
}

const GOLDEN: &str = "\
gnp24 auto quiet: 241 1158 10244 210 0 0 8 | 0 0 0 | 8 401fa282bd2b753a 4019e90d1cf075cc | 33 6093d6210f8c0bdd
gnp24 auto drop1: 673 6090 47398 483 103 56 48 | 103 11 0 | 8 401267e669393e8a 400f960aca1297f0 | 33 6093d6210f8c0bdd
gnp24 auto corrupt1_dup5: 809 8104 67028 414 308 56 48 | 308 31 4 | 8 40126f0099e16931 400d01092046288e | 33 6093d6210f8c0bdd
gnp24 auto drop1_crash: 674 6096 47452 484 103 56 48 | 103 11 3 | 8 401267e669393e8a 400fbb0a34b5e41e | 33 6093d6210f8c0bdd
gnp24 off quiet: 242 1165 10314 210 0 0 8 | 0 0 0 | 8 401fa282bd2b753a 4019dd96791863c1 | 33 6093d6210f8c0bdd
gnp24 off drop1: 674 6102 47589 483 103 56 48 | 103 11 0 | 8 401267e669393e8a 400f8be7c6df4615 | 33 6093d6210f8c0bdd
gnp24 off corrupt1_dup5: 808 8103 67090 412 308 56 48 | 308 31 5 | 8 40126f0099e16931 400cd128b4652750 | 33 6093d6210f8c0bdd
gnp24 off drop1_crash: 675 6108 47643 484 103 56 48 | 103 11 3 | 8 401267e669393e8a 400fb0e73bf58adc | 33 6093d6210f8c0bdd
gnp24 budget1 quiet: 232 1063 9294 210 0 0 8 | 0 0 0 | 8 4021084210842109 401c26e6ac43b025 | 33 6093d6210f8c0bdd
gnp24 budget1 drop1: 632 5855 44828 482 72 56 48 | 72 8 0 | 8 4014022aff754023 40108358f625830a | 33 6093d6210f8c0bdd
gnp24 budget1 corrupt1_dup5: 836 7594 62283 439 319 56 48 | 319 34 5 | 8 4011cd74ef4b877f 400e3e3be2c17508 | 33 6093d6210f8c0bdd
gnp24 budget1 drop1_crash: 630 5851 44822 480 72 56 48 | 72 8 3 | 8 4014022aff754023 401084105cedc256 | 33 6093d6210f8c0bdd
gnp40 auto quiet: 271 1509 15155 245 0 0 8 | 0 0 0 | 8 402150bc57fd2574 401b570b529c79f9 | 41 5924d801567fd2bc
gnp40 auto drop1: 688 7146 62679 528 86 48 48 | 86 10 0 | 8 4012e13b9ed738f8 400fa7d2ae6e0be0 | 41 5924d801567fd2bc
gnp40 auto corrupt1_dup5: 807 8717 81511 450 283 48 48 | 283 33 3 | 8 4011a191f9ef8a2e 400e9bff2cd55128 | 41 5924d801567fd2bc
gnp40 auto drop1_crash: 699 7079 62108 539 86 48 48 | 86 10 3 | 8 4012e01f15755bed 400fd2cfa2ae4e13 | 41 5924d801567fd2bc
gnp40 off quiet: 272 1516 15239 245 0 0 8 | 0 0 0 | 8 4020b4c54dfc2460 401b2d6e7d62f0c1 | 41 5924d801567fd2bc
gnp40 off drop1: 682 7156 62800 528 79 48 48 | 79 9 0 | 8 4012b52b52b52b53 400f9cce9b658877 | 41 5924d801567fd2bc
gnp40 off corrupt1_dup5: 810 8734 81717 450 285 48 48 | 285 33 3 | 8 4011a191f9ef8a2e 400e90460a0b9fe9 | 41 5924d801567fd2bc
gnp40 off drop1_crash: 693 7089 62229 539 79 48 48 | 79 9 3 | 8 4012b413f3487af8 400fc7ccda2315d6 | 41 5924d801567fd2bc
gnp40 budget1 quiet: 264 1442 14351 245 0 0 8 | 0 0 0 | 8 40228e7681b862e2 401cbdfda2852b9e | 41 5924d801567fd2bc
gnp40 budget1 drop1: 668 6985 60553 528 73 48 48 | 73 9 0 | 8 4013a0526e2701d7 40103bd9666f0ca0 | 41 5924d801567fd2bc
gnp40 budget1 corrupt1_dup5: 779 8551 78283 454 258 48 48 | 258 32 2 | 8 40122333e9b841f3 40100a1e6bdd371d | 41 5924d801567fd2bc
gnp40 budget1 drop1_crash: 679 6919 60011 539 73 48 48 | 73 9 3 | 8 40139fb85f6bd6ea 40104fa69044259d | 41 5924d801567fd2bc
heavy30 auto quiet: 169 1033 8442 140 0 0 8 | 0 0 0 | 8 402ddec0d4c77b03 4024d0fe362dfd5e | 50 e5c396ed441516d0
heavy30 auto drop1: 511 5446 43096 331 95 56 48 | 95 10 0 | 8 402134009e036513 4019cf3aa1c8ba82 | 50 e5c396ed441516d0
heavy30 auto corrupt1_dup5: 733 7737 64591 307 341 56 48 | 341 35 3 | 8 4020bb2966a51d27 4019375ded2c51e4 | 50 e5c396ed441516d0
heavy30 auto drop1_crash: 502 5381 42535 331 86 56 48 | 86 9 3 | 8 4021339210acee66 4019bf5c6be217fd | 50 e5c396ed441516d0
heavy30 off quiet: 172 1046 8572 140 0 0 9 | 0 0 0 | 8 402ddec0d4c77b03 40249903a79b9570 | 50 e5c396ed441516d0
heavy30 off drop1: 510 5459 43347 333 89 56 49 | 89 9 0 | 8 40212b2be3de87d4 4019bf37e5463e34 | 50 e5c396ed441516d0
heavy30 off corrupt1_dup5: error at batch 0: recovery exhausted after 8 retransmission epochs with 1 streams still unverified
heavy30 off drop1_crash: 500 5351 42512 333 79 56 49 | 79 8 4 | 8 40212abc32f4155e 401963cb639fb46a | 50 e5c396ed441516d0
heavy30 budget1 quiet: 162 947 7582 140 0 0 8 | 0 0 0 | 8 402ddec0d4c77b03 402694cf210ecea1 | 50 e5c396ed441516d0
heavy30 budget1 drop1: 492 5168 40381 330 84 56 48 | 84 9 0 | 8 402134009e036513 401aea289b8edd8c | 50 e5c396ed441516d0
heavy30 budget1 corrupt1_dup5: 731 7221 59195 307 346 56 48 | 346 37 4 | 8 4020f3c594f75617 401a08e0f9d243d5 | 50 e5c396ed441516d0
heavy30 budget1 drop1_crash: 492 5118 39973 330 84 56 48 | 84 9 3 | 8 4021339210acee66 401ae558784dccac | 50 e5c396ed441516d0
";

#[test]
fn distributed_counts_and_outputs_are_unchanged() {
    let now = table();
    assert!(
        now == GOLDEN,
        "simulated counts moved; the table is now:\n{now}"
    );
}
