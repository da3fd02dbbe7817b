//! CONGEST vs CONGEST clique: the same listing task under the two
//! communication models of the paper.
//!
//! The paper's contribution is sublinear listing in the *standard* CONGEST
//! model; in the much stronger clique model the Dolev-style deterministic
//! algorithm needs only ~n^{1/3} rounds. This example runs both on the same
//! input and prints the round counts and the per-node traffic.
//!
//! ```bash
//! cargo run --release --example clique_vs_congest
//! ```

use congest::graph::triangles as reference;
use congest::prelude::*;
use congest::triangles::baselines::{DolevCliqueListing, NaiveLocalListing};
use congest::triangles::run_congest;

fn main() {
    let n = 80;
    let graph = Gnp::new(n, 0.5).seeded(5).generate();
    let truth = reference::list_all(&graph);
    println!(
        "input: G({n}, 1/2) with m = {} and {} triangles\n",
        graph.edge_count(),
        truth.len()
    );

    // Standard CONGEST: the paper's listing driver and the naive baseline.
    let listing = list_triangles(&graph, &ListingConfig::scaled(&graph), 1);
    let naive = run_congest(&graph, SimConfig::congest(1), NaiveLocalListing::new);
    // CONGEST clique: the Dolev-style deterministic baseline.
    let dolev = run_congest(&graph, SimConfig::clique(1), DolevCliqueListing::new);

    println!("algorithm                        model           rounds    max bits into one node");
    println!(
        "Izumi-Le Gall listing (Thm 2)    CONGEST         {:<9} (driver total)",
        listing.total_rounds
    );
    println!(
        "naive 2-hop local listing        CONGEST         {:<9} {}",
        naive.rounds(),
        naive.metrics.max_received_bits()
    );
    println!(
        "Dolev-style deterministic        CONGEST clique  {:<9} {}",
        dolev.rounds(),
        dolev.metrics.max_received_bits()
    );

    assert_eq!(naive.triangles, truth);
    assert_eq!(dolev.triangles, truth);
    println!("\nboth baselines list T(G) exactly; the clique baseline needs far fewer rounds,");
    println!("while the CONGEST algorithms must work around the restricted topology.");
}
