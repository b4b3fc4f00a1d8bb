//! Quickstart: load a pre-packaged dataset and run CycleRank and
//! Personalized PageRank against the same reference node through the
//! unified `Query` API, then compare what they surface.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use cyclerank_platform::prelude::*;
use std::sync::Arc;

fn main() {
    // 1. Pick a dataset from the 50-entry registry (here: the labelled
    //    stand-in for the English Wikipedia snapshot behind Table I) and
    //    load it once; both queries below share the graph.
    let n = catalog().len();
    println!("catalog holds {n} datasets");
    let graph = Arc::new(load_dataset("fixture-enwiki-2018").expect("a catalog dataset"));

    // 2. CycleRank: relevance from bounded-length cycles (K = 3, σ = e⁻ⁿ).
    //    `Query` resolves the reference label for us.
    let cr = Query::on(&graph)
        .algorithm("cyclerank")
        .reference("Freddie Mercury")
        .k(3)
        .top(5)
        .run()
        .expect("cyclerank runs");
    println!(
        "\nCycleRank found {} cycles through the reference ({} nodes, {} edges).",
        cr.output.cycles_found.unwrap_or(0),
        cr.graph.node_count(),
        cr.graph.edge_count(),
    );
    println!("Top-5 by CycleRank:");
    for (label, score) in cr.top_entries() {
        println!("  {score:.5}  {label}");
    }

    // 3. Personalized PageRank on the same query (α = 0.3, as in Table I).
    let ppr = Query::on(&graph)
        .algorithm("ppr")
        .reference("Freddie Mercury")
        .alpha(0.3)
        .top(5)
        .run()
        .expect("ppr converges");
    println!(
        "\nTop-5 by Personalized PageRank ({} iterations):",
        ppr.output.convergence.map(|c| c.iterations).unwrap_or(0)
    );
    for (label, score) in ppr.top_entries() {
        println!("  {score:.5}  {label}");
    }

    // 4. The contrast the paper demonstrates: PPR surfaces globally popular
    //    pages the reference merely links to; CycleRank requires mutual
    //    (cyclic) linkage.
    let tribute = graph.node_by_label("The FM Tribute Concert").unwrap();
    println!(
        "\n'The FM Tribute Concert': PPR score {:.5}, CycleRank score {:.5}",
        ppr.scores().map(|s| s.get(tribute)).unwrap_or(0.0),
        cr.scores().map(|s| s.get(tribute)).unwrap_or(0.0),
    );
}
