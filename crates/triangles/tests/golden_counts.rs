//! Golden simulated counts of every algorithm and both drivers.
//!
//! Host-speed work on the simulator, the wire format or the node programs
//! must leave every *simulated* quantity where it was: rounds, messages,
//! bits, the busiest receiver and each node's output. The table below was
//! written from the build **before** the node-side cost-model change
//! (PR 24's parent) and has to stay byte-identical; a change that moves a
//! row changed the algorithms, not their speed.
//!
//! On a mismatch the test prints the whole table as it is now, in the
//! form of the constant, so an intended protocol change can re-pin it.

use std::fmt::Write as _;

use congest_graph::generators::{Gnp, PlantedHeavy};
use congest_graph::{Graph, NodeId, TriangleSet};
use congest_sim::{derive_node_seed, Model, NodeInfo, SimConfig};
use congest_triangles::baselines::{DolevCliqueListing, NaiveLocalListing};
use congest_triangles::{
    find_triangles, list_triangles, run_congest, A1Program, A2Program, A3Program, AlgorithmRun,
    FindingConfig, ListingConfig,
};

const SEEDS: [u64; 3] = [1, 2, 3];

fn graphs(seed: u64) -> [(&'static str, Graph); 3] {
    [
        ("gnp96", Gnp::new(96, 0.3).seeded(seed).generate()),
        ("gnp160", Gnp::new(160, 0.06).seeded(seed).generate()),
        ("heavy70", PlantedHeavy::new(70, 25).generate()),
    ]
}

/// FNV-1a over a sequence of `u32` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn set(&mut self, set: &TriangleSet) {
        self.word(set.len() as u32);
        for t in set {
            for v in t.nodes() {
                self.word(v.0);
            }
        }
    }
}

/// `rounds messages bits max_received union fnv(per-node outputs)`.
fn program_row(run: &AlgorithmRun) -> String {
    let mut fnv = Fnv::new();
    for set in &run.per_node {
        fnv.set(set);
    }
    format!(
        "{} {} {} {} {} {:016x}",
        run.metrics.rounds,
        run.metrics.messages,
        run.metrics.total_bits,
        run.metrics.max_received_bits(),
        run.triangles.len(),
        fnv.0
    )
}

/// `rounds bits union fnv(union)`.
fn driver_row(rounds: u64, bits: u64, set: &TriangleSet) -> String {
    let mut fnv = Fnv::new();
    fnv.set(set);
    format!("{rounds} {bits} {} {:016x}", set.len(), fnv.0)
}

fn table() -> String {
    let mut out = String::new();
    for seed in SEEDS {
        // `heavy70` is one fixed graph; there the seed moves only the
        // programs' randomness.
        for (name, g) in graphs(seed) {
            let finding = FindingConfig::scaled(&g).with_repetitions(2);
            let listing = ListingConfig::paper(&g).with_repetitions(2);
            let (fe, le) = (finding.epsilon.epsilon(), listing.epsilon.epsilon());
            let congest = |index: usize| SimConfig::congest(derive_node_seed(seed, index));
            let mut row = |what: &str, cells: String| {
                writeln!(out, "{name} seed={seed} {what}: {cells}").unwrap();
            };
            row(
                "a1",
                program_row(&run_congest(&g, congest(0), |info| {
                    A1Program::new(info, fe, finding.profile.cap_factor())
                })),
            );
            row(
                "a2",
                program_row(&run_congest(&g, congest(1), |info| {
                    A2Program::new(info, le, listing.profile.cap_factor())
                })),
            );
            row(
                "a3_finding",
                program_row(&run_congest(&g, congest(2), |info| {
                    A3Program::new(info, fe, finding.profile)
                })),
            );
            row(
                "a3_listing",
                program_row(&run_congest(&g, congest(3), |info| {
                    A3Program::new(info, le, listing.profile)
                })),
            );
            row(
                "naive",
                program_row(&run_congest(&g, congest(4), NaiveLocalListing::new)),
            );
            row(
                "dolev",
                program_row(&run_congest(
                    &g,
                    SimConfig::clique(derive_node_seed(seed, 5)),
                    DolevCliqueListing::new,
                )),
            );
            let found = find_triangles(&g, &finding, seed);
            row(
                "find_triangles",
                driver_row(found.total_rounds, found.total_bits, &found.found),
            );
            let listed = list_triangles(&g, &listing, seed);
            row(
                "list_triangles",
                driver_row(listed.total_rounds, listed.total_bits, &listed.listed),
            );
        }
    }
    out
}

const GOLDEN: &str = "\
gnp96 seed=1 a1: 50 26828 365617 5642 4014 39bec89cbf01055a
gnp96 seed=1 a2: 64 80893 1087448 16310 4024 bda4e0f4cee8d66e
gnp96 seed=1 a3_finding: 117 29716 308533 8823 2814 206e6d5e9f6abaf5
gnp96 seed=1 a3_listing: 125 23329 219885 7563 1378 921ef84a9c7db0e9
gnp96 seed=1 naive: 23 43435 597464 8918 4024 9b40125a20ec95f3
gnp96 seed=1 dolev: 49 12182 170548 6678 4024 058caac5d8e08ffe
gnp96 seed=1 find_triangles: 334 1370861 4024 32be2787074834d0
gnp96 seed=1 list_triangles: 378 2705001 4024 32be2787074834d0
gnp160 seed=1 a1: 82 5654 83816 1192 153 0e195077d0bda445
gnp160 seed=1 a2: 94 26873 410136 5651 154 2875c1c2cb290ea7
gnp160 seed=1 a3_finding: 168 13403 143672 1877 154 804c815fffd7df05
gnp160 seed=1 a3_listing: 204 12995 140208 2001 150 f338d04251055a8b
gnp160 seed=1 naive: 12 9305 142736 1976 154 da18615e739205a6
gnp160 seed=1 dolev: 53 9470 147357 4213 154 404e600c87dcd4ab
gnp160 seed=1 find_triangles: 500 455920 154 cc8a8f00927231c6
gnp160 seed=1 list_triangles: 596 1104560 154 cc8a8f00927231c6
heavy70 seed=1 a1: 37 518 6664 553 25 b1ee933d875e07bb
heavy70 seed=1 a2: 51 2154 28830 5290 25 5f519af58b9fb177
heavy70 seed=1 a3_finding: 88 1188 12290 645 25 9141dcf41aba97ef
heavy70 seed=1 a3_listing: 94 498 3344 813 25 b47f4a3f77dbdf3d
heavy70 seed=1 naive: 15 828 10878 714 25 9141dcf41aba97ef
heavy70 seed=1 dolev: 41 547 7408 1141 25 a438e89ded29c3b3
heavy70 seed=1 find_triangles: 250 27968 25 a4b14ee257ffa5e7
heavy70 seed=1 list_triangles: 290 72566 25 a4b14ee257ffa5e7
gnp96 seed=2 a1: 50 25799 351134 4774 3665 507551aa3d2366c3
gnp96 seed=2 a2: 64 77518 1041832 14163 3678 913ac735580efd24
gnp96 seed=2 a3_finding: 117 35321 389826 7257 3209 45705a5033dc7b76
gnp96 seed=2 a3_listing: 125 32297 348022 7316 2935 ced3e8a81dfd7dc7
gnp96 seed=2 naive: 20 41118 564872 7651 3678 9e4d637bf9239cc9
gnp96 seed=2 dolev: 49 11914 166796 7042 3678 8371ae768a7ff20e
gnp96 seed=2 find_triangles: 334 1466912 3678 b434b9c01ab58053
gnp96 seed=2 list_triangles: 378 2708742 3678 b434b9c01ab58053
gnp160 seed=2 a1: 82 5997 89656 1160 155 70c0aa3586da3705
gnp160 seed=2 a2: 94 27532 420352 4750 155 3c4f26373a974c99
gnp160 seed=2 a3_finding: 168 13531 144720 1771 154 68a4bb8db59dee67
gnp160 seed=2 a3_listing: 204 13519 144792 1803 154 c25ae47be4aa82f1
gnp160 seed=2 naive: 11 9528 145952 1760 155 d5d486679454e6fb
gnp160 seed=2 dolev: 53 9698 150914 4041 155 26ddb8d338cd9d7c
gnp160 seed=2 find_triangles: 500 472328 155 f5d56f7bbd25e1c5
gnp160 seed=2 list_triangles: 596 1130376 155 f5d56f7bbd25e1c5
heavy70 seed=2 a1: 37 514 6832 532 25 6e6a5c2e21733156
heavy70 seed=2 a2: 51 2154 28830 5290 25 5f519af58b9fb177
heavy70 seed=2 a3_finding: 88 1134 11184 792 25 9141dcf41aba97ef
heavy70 seed=2 a3_listing: 94 1136 11562 631 25 9141dcf41aba97ef
heavy70 seed=2 naive: 15 828 10878 714 25 9141dcf41aba97ef
heavy70 seed=2 dolev: 41 547 7408 1141 25 a438e89ded29c3b3
heavy70 seed=2 find_triangles: 250 37236 25 a4b14ee257ffa5e7
heavy70 seed=2 list_triangles: 290 81512 25 a4b14ee257ffa5e7
gnp96 seed=3 a1: 50 24902 339857 4837 3574 b48c050c62a5dbb0
gnp96 seed=3 a2: 64 75529 1013426 14296 3590 933099c6fe3f6835
gnp96 seed=3 a3_finding: 117 39494 449501 8014 3371 45994657d9cfa837
gnp96 seed=3 a3_listing: 125 25255 251387 6145 1991 80f0d5584d5969ae
gnp96 seed=3 naive: 20 39673 546322 7784 3590 b374c3b4fc1f67d9
gnp96 seed=3 dolev: 49 11727 164178 6580 3590 048c311e878d884e
gnp96 seed=3 find_triangles: 334 1381358 3590 114c7407b7980e29
gnp96 seed=3 list_triangles: 378 2600648 3590 114c7407b7980e29
gnp160 seed=3 a1: 82 4824 71072 904 135 644311f9f39a6c56
gnp160 seed=3 a2: 94 23853 363518 4615 136 3bf2f875acedae7b
gnp160 seed=3 a3_finding: 168 11679 121878 1447 136 103ff17b327de7d6
gnp160 seed=3 a3_listing: 204 11418 120598 1811 134 3c32a3f9cb66f92e
gnp160 seed=3 naive: 10 7821 119568 1640 136 c715a18002e35664
gnp160 seed=3 dolev: 53 8686 135136 3554 136 4571f6ec5bc0b4d7
gnp160 seed=3 find_triangles: 500 383132 136 cc9560ccb70c4900
gnp160 seed=3 list_triangles: 596 969288 136 cc9560ccb70c4900
heavy70 seed=3 a1: 37 544 7224 567 24 0309a3314a9a051e
heavy70 seed=3 a2: 51 2154 28830 5290 25 5f519af58b9fb177
heavy70 seed=3 a3_finding: 88 1084 11198 624 25 9141dcf41aba97ef
heavy70 seed=3 a3_listing: 94 1136 11926 638 25 9141dcf41aba97ef
heavy70 seed=3 naive: 15 828 10878 714 25 9141dcf41aba97ef
heavy70 seed=3 dolev: 41 547 7408 1141 25 a438e89ded29c3b3
heavy70 seed=3 find_triangles: 250 37712 25 a4b14ee257ffa5e7
heavy70 seed=3 list_triangles: 290 80770 25 a4b14ee257ffa5e7
";

#[test]
fn simulated_counts_and_outputs_are_unchanged() {
    let now = table();
    assert!(
        now == GOLDEN,
        "simulated counts moved; the table is now:\n{now}"
    );
}

/// Both drivers at the size the `static_drivers` benchmark times:
/// `G(512, 0.06)`, B = 18 bits, one repetition each, every program row
/// with the seed its driver derives for it. Taken before chunked
/// transfers moved into the simulator.
const GOLDEN_PAPER_SIZED: &str = "\
a1: 258 126024 2076284 6175 4732 027d40a690fc3d33
a3_finding: 377 299395 4473280 13436 4881 af916c1b2be2e455
find_triangles: 635 6549564 4901 8434f4c9fdc34fa3
a2: 269 438136 7452206 21568 4902 4047bd72ed55781f
a3_listing: 538 277031 4076821 12801 4790 689adf230bcb8e88
list_triangles: 807 11529027 4902 6920475d2b4453f3
";

#[test]
fn paper_sized_drivers_are_unchanged() {
    let seed = 2017;
    let g = Gnp::new(512, 0.06).seeded(seed).generate();
    let finding = FindingConfig::scaled(&g).with_repetitions(1);
    let listing = ListingConfig::paper(&g).with_repetitions(1);
    let (fe, le) = (finding.epsilon.epsilon(), listing.epsilon.epsilon());
    let congest = |index: usize| SimConfig::congest(derive_node_seed(seed, index));
    let mut now = String::new();
    let mut row = |what: &str, cells: String| writeln!(now, "{what}: {cells}").unwrap();
    let a1 = run_congest(&g, congest(0), |info| {
        A1Program::new(info, fe, finding.profile.cap_factor())
    });
    let a3 = run_congest(&g, congest(1), |info| {
        A3Program::new(info, fe, finding.profile)
    });
    row("a1", program_row(&a1));
    row("a3_finding", program_row(&a3));
    let found = find_triangles(&g, &finding, seed);
    row(
        "find_triangles",
        driver_row(found.total_rounds, found.total_bits, &found.found),
    );
    let a2 = run_congest(&g, congest(0), |info| {
        A2Program::new(info, le, listing.profile.cap_factor())
    });
    let a3 = run_congest(&g, congest(1), |info| {
        A3Program::new(info, le, listing.profile)
    });
    row("a2", program_row(&a2));
    row("a3_listing", program_row(&a3));
    let listed = list_triangles(&g, &listing, seed);
    row(
        "list_triangles",
        driver_row(listed.total_rounds, listed.total_bits, &listed.listed),
    );
    assert!(
        now == GOLDEN_PAPER_SIZED,
        "the paper-sized rows moved; the table is now:\n{now}"
    );
}

/// The naive baseline on `G(n, ½)`, the graphs ROADMAP item 7 places the
/// crossover on. Its harvest loop and its local listing were rewritten
/// for host cost alone; these rows were taken before that.
const GOLDEN_NAIVE_DENSE: &str = "\
n=96: 32 120133 1664712 21154 19657 8a911501c21ef9ef
n=192: 59 897740 14297456 88832 146171 e45fb01842392d35
";

#[test]
fn naive_baseline_on_dense_graphs_is_unchanged() {
    let mut now = String::new();
    for n in [96, 192] {
        let g = Gnp::new(n, 0.5).seeded(2017).generate();
        let run = run_congest(&g, SimConfig::congest(2017), NaiveLocalListing::new);
        assert_eq!(run.triangles, congest_graph::triangles::list_all(&g));
        writeln!(now, "n={n}: {}", program_row(&run)).unwrap();
    }
    assert!(
        now == GOLDEN_NAIVE_DENSE,
        "the naive baseline's counts moved; the table is now:\n{now}"
    );
}

/// A1 and A2 run a fixed phase plan: on every input they take exactly the
/// rounds the plan adds up to. Checked at every size of `table1_rounds`'
/// sweep, on its graphs and with its (scaled) configurations, so a
/// host-side change that moved a halt by one round fails here by name.
#[test]
fn a1_and_a2_follow_their_schedules_across_the_table1_sweep() {
    for n in [24, 32, 48, 64, 96] {
        let g = Gnp::new(n, 0.5).seeded(2017).generate();
        let finding = FindingConfig::scaled(&g);
        let listing = ListingConfig::scaled(&g);
        let (fe, le) = (finding.epsilon.epsilon(), listing.epsilon.epsilon());
        let info = NodeInfo {
            id: NodeId(0),
            n,
            neighbors: g.neighbors(NodeId(0)).to_vec(),
            model: Model::Congest,
            bandwidth_bits: finding.bandwidth.bits_per_round(n),
        };
        let seed = 0xE1 + n as u64;
        let a1 = run_congest(&g, SimConfig::congest(seed), |info| {
            A1Program::new(info, fe, finding.profile.cap_factor())
        });
        let a1_plan = A1Program::new(&info, fe, finding.profile.cap_factor()).total_rounds();
        assert_eq!(a1.rounds(), a1_plan, "A1 at n = {n}");
        let a2 = run_congest(&g, SimConfig::congest(seed), |info| {
            A2Program::new(info, le, listing.profile.cap_factor())
        });
        let a2_plan = A2Program::new(&info, le, listing.profile.cap_factor()).total_rounds();
        assert_eq!(a2.rounds(), a2_plan, "A2 at n = {n}");
    }
}
