//! `static_drivers`: the paper itself. Theorem 1 finding and Theorem 2
//! listing, one repetition each, on a fixed-size random graph under the
//! sequential simulator. None of the time is the stream crate's.

use std::time::Instant;

use congest_graph::{Graph, TriangleSet};
use congest_sim::{derive_node_seed, SimConfig};
use congest_triangles::{
    find_triangles, list_triangles, run_congest, A1Program, A2Program, A3Program, FindingConfig,
    FindingReport, ListingConfig, ListingReport,
};

use super::{repetitions, sim_probe, wire_hash_probes, Ctx, Pins, Rep};
use crate::gen::{derive_seed, Churn, ChurnSpec, Fingerprint, Skew};
use crate::stats::median;

/// `n` and the expected edge count of `Gnp(512, 0.06)`.
const SPEC: ChurnSpec = ChurnSpec {
    n: 512,
    live_target: 7_850,
    skew: Skew::Uniform,
    departure_share: 0.0,
};
const PINS: Pins = Pins {
    fingerprint: 0x76d5_c7dc_7ff7_6238,
    deltas: 0,
    final_edges: 7_850,
    final_triangles: 4_769,
};

struct StaticRep {
    finding_ns: u64,
    listing_ns: u64,
    loop_ns: u64,
    finding: FindingReport,
    listing: ListingReport,
}

impl Rep for StaticRep {
    fn wall_ns(&self) -> u64 {
        self.finding_ns + self.listing_ns
    }

    fn loop_ns(&self) -> u64 {
        self.loop_ns
    }
}

fn all_real(graph: &Graph, found: &TriangleSet) -> bool {
    found.iter().all(|t| graph.is_triangle(*t))
}

pub fn static_drivers(ctx: &mut Ctx) {
    let seed = derive_seed(ctx.seed, "static_drivers");
    let graph = ctx.timed_setups(|_| (Churn::new(SPEC, seed).prefill(), Vec::new()));
    let oracle = congest_graph::triangles::list_all(&graph);
    let finding_config = FindingConfig::scaled(&graph).with_repetitions(1);
    let listing_config = ListingConfig::paper(&graph).with_repetitions(1);
    let (finding_seed, listing_seed) = (derive_seed(seed, "finding"), derive_seed(seed, "listing"));

    let reps = repetitions(ctx, |ctx, tracer| {
        let loop_start = Instant::now();
        let token = tracer.open("triangles.find_triangles", 0);
        let start = Instant::now();
        let finding = find_triangles(&graph, &finding_config, finding_seed);
        let finding_ns = start.elapsed().as_nanos() as u64;
        tracer.close(token);
        let token = tracer.open("triangles.list_triangles", 1);
        let start = Instant::now();
        let listing = list_triangles(&graph, &listing_config, listing_seed);
        let listing_ns = start.elapsed().as_nanos() as u64;
        tracer.close(token);
        let loop_ns = loop_start.elapsed().as_nanos() as u64;

        // A driver may miss triangles (both are randomized and run one
        // repetition here); it may never invent one.
        ctx.rec.check(all_real(&graph, &finding.found), || {
            "finding reported a triple that is not a triangle".to_string()
        });
        ctx.rec.check(all_real(&graph, &listing.listed), || {
            "listing reported a triple that is not a triangle".to_string()
        });
        ctx.rec.check(
            listing.is_complete_for(&graph) == (listing.listed.len() == oracle.len()),
            || "is_complete_for disagrees with the oracle's count".to_string(),
        );
        StaticRep {
            finding_ns,
            listing_ns,
            loop_ns,
            finding,
            listing,
        }
    });

    let first = &reps.plain[0];
    let rec = &mut ctx.rec;
    rec.put("wall_s", &reps.each(|r| r.wall_ns() as f64 / 1e9));
    rec.put("finding_s", &reps.each(|r| r.finding_ns as f64 / 1e9));
    rec.put("listing_s", &reps.each(|r| r.listing_ns as f64 / 1e9));
    rec.put_value("finding_rounds", first.finding.total_rounds as f64);
    rec.put_value("listing_rounds", first.listing.total_rounds as f64);
    let (f, l) = (first.finding.repetitions[0], first.listing.repetitions[0]);
    rec.put_value("triangles.a1_rounds", f.a1_rounds as f64);
    rec.put_value("triangles.a3_rounds", f.a3_rounds as f64);
    rec.put_value("triangles.a2_rounds", l.a2_rounds as f64);
    rec.put_value("triangles.listing_a3_rounds", l.a3_rounds as f64);
    rec.put_value("triangles.finding_found", first.finding.found.len() as f64);
    rec.put_value(
        "triangles.listing_coverage",
        first.listing.listed.len() as f64 / oracle.len().max(1) as f64,
    );
    rec.put(
        "sim.rounds_per_host_s",
        &reps.each(|r| {
            (r.finding.total_rounds + r.listing.total_rounds) as f64 / (r.wall_ns() as f64 / 1e9)
        }),
    );
    let same = reps.plain.iter().chain(&reps.traced).all(|r| {
        r.finding.found == first.finding.found
            && r.finding.total_rounds == first.finding.total_rounds
            && r.finding.total_bits == first.finding.total_bits
            && r.listing.listed == first.listing.listed
            && r.listing.total_rounds == first.listing.total_rounds
            && r.listing.total_bits == first.listing.total_bits
    });
    rec.check(same, || {
        "seeded drivers gave different results on different repetitions".to_string()
    });
    let pins = Pins {
        fingerprint: Fingerprint::of_stream(&graph, &[]),
        deltas: 0,
        final_edges: graph.edge_count() as u64,
        final_triangles: oracle.len() as u64,
    };
    ctx.check_pins(pins, PINS);
    if !ctx.trace {
        return;
    }

    // Each program alone, with the seeds and parameters its driver
    // derives for its single repetition.
    let epsilon = finding_config.epsilon.epsilon();
    let listing_epsilon = listing_config.epsilon.epsilon();
    let sim = |seed: u64, index: usize, bandwidth| {
        SimConfig::congest(derive_node_seed(seed, index)).with_bandwidth(bandwidth)
    };
    let mut messages = 0u64;
    let mut host_s = 0.0;
    let mut timed = |name: &'static str, run: &dyn Fn() -> congest_triangles::AlgorithmRun| {
        let secs: Vec<f64> = (0..2)
            .map(|_| {
                let start = Instant::now();
                let out = run();
                let s = start.elapsed().as_secs_f64();
                messages += out.metrics.messages;
                host_s += s;
                s
            })
            .collect();
        (name, median(&secs))
    };
    let rows = [
        timed("triangles.a1_s", &|| {
            run_congest(
                &graph,
                sim(finding_seed, 0, finding_config.bandwidth),
                |info| A1Program::new(info, epsilon, finding_config.profile.cap_factor()),
            )
        }),
        timed("triangles.a3_s", &|| {
            run_congest(
                &graph,
                sim(finding_seed, 1, finding_config.bandwidth),
                |info| A3Program::new(info, epsilon, finding_config.profile),
            )
        }),
        timed("triangles.a2_s", &|| {
            run_congest(
                &graph,
                sim(listing_seed, 0, listing_config.bandwidth),
                |info| A2Program::new(info, listing_epsilon, listing_config.profile.cap_factor()),
            )
        }),
    ];
    for (name, secs) in rows {
        ctx.rec.put_value(name, secs);
    }
    ctx.rec
        .put_value("sim.messages_per_host_s", messages as f64 / host_s);
    sim_probe(ctx);
    wire_hash_probes(ctx);
}
