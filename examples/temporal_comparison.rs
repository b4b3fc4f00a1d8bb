//! Temporal dataset comparison: §IV-D notes that "a similar analysis can
//! also be performed by comparing snapshots of a graph at different points
//! in time, another functionality available in the demo". This example
//! runs the same global PageRank query over the four yearly snapshots of
//! one language edition and reports how the ranking drifts as the
//! encyclopedia grows.
//!
//! ```sh
//! cargo run --example temporal_comparison
//! ```

use cyclerank_platform::algorithms::compare::{jaccard_at_k, rank_biased_overlap};
use cyclerank_platform::prelude::*;
use std::time::Duration;

fn main() {
    let years = [2003u32, 2008, 2013, 2018];
    let engine = Scheduler::builder().workers(4).build();

    // One PageRank task per snapshot of the Swedish edition.
    let mut query_set = QuerySet::new();
    for year in years {
        query_set.add(
            TaskBuilder::new(format!("wiki-sv-{year}"))
                .algorithm(Algorithm::PageRank)
                .top_k(10)
                .build()
                .unwrap(),
        );
    }
    let ids = engine.submit_query_set(&query_set);
    let results = engine.wait_all(&ids, Duration::from_secs(300)).expect("tasks complete");

    println!("{:<6} {:>8} {:>9} {:>12}", "year", "nodes", "edges", "runtime_ms");
    for (year, r) in years.iter().zip(&results) {
        println!("{year:<6} {:>8} {:>9} {:>12}", r.nodes, r.edges, r.runtime_ms);
    }

    // Ranking drift between consecutive snapshots, over the shared node
    // range (earlier snapshots are prefixes of the same generator family,
    // so we compare by node index).
    println!("\nranking drift between consecutive snapshots (top-100):");
    println!("{:<14} {:>10} {:>8}", "pair", "jaccard", "rbo");
    for w in years.windows(2) {
        let (a, b) = (w[0], w[1]);
        let ga = engine.executor().dataset(&format!("wiki-sv-{a}")).unwrap();
        let gb = engine.executor().dataset(&format!("wiki-sv-{b}")).unwrap();
        let ra = Query::on(ga).algorithm("pagerank").run().unwrap().ranking();
        let rb = Query::on(gb).algorithm("pagerank").run().unwrap().ranking();
        println!(
            "{:<14} {:>10.3} {:>8.3}",
            format!("{a} vs {b}"),
            jaccard_at_k(&ra, &rb, 100),
            rank_biased_overlap(&ra, &rb, 0.98),
        );
    }

    println!(
        "\nEach snapshot triples the previous one's size; global rankings only\n\
         partially persist — the same drift analysis runs for CycleRank via\n\
         `relrank compare-datasets --datasets wiki-it-2013,wiki-it-2018 ...`."
    );
}
