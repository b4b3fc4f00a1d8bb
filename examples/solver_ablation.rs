//! Solver ablation through the engine: the same Personalized-PageRank task
//! executed with each of the platform's four solvers (§II: "more efficient
//! algorithms are available"), comparing runtime and ranking agreement
//! against the exact power iteration.
//!
//! ```sh
//! cargo run --release --example solver_ablation
//! ```

use cyclerank_platform::algorithms::compare::{jaccard_at_k, ndcg_at_k};
use cyclerank_platform::algorithms::runner::Solver;
use cyclerank_platform::prelude::*;
use std::time::Duration;

fn main() {
    let dataset = "amazon-copurchase"; // 20k products, generated
    let source = "100"; // an ordinary product (numeric id: unlabeled graph)
    let engine = Scheduler::builder().workers(1).build();

    // Reference: exact scores computed directly for ranking-quality checks.
    let graph = engine.executor().dataset(dataset).expect("dataset loads");
    let seed = NodeId::new(100);
    let (exact, _) = personalized_pagerank(graph.view(), &PageRankConfig::default(), seed).unwrap();
    let exact_ranking = exact.ranking();

    println!("{:<14} {:>9} {:>10} {:>10}", "solver", "ms", "ndcg@10", "jacc@10");
    for solver in [Solver::Power, Solver::Parallel, Solver::Push, Solver::MonteCarlo] {
        let task = TaskBuilder::new(dataset)
            .algorithm(Algorithm::PersonalizedPageRank)
            .solver(solver)
            .source(source)
            .top_k(10)
            .build()
            .unwrap();
        let id = engine.submit(task);
        let result = engine.wait(&id, Duration::from_secs(300)).expect("task completes");

        // Re-derive a RankedList from the labelled top (labels are numeric
        // ids on this unlabeled dataset).
        let top_ids: Vec<NodeId> =
            result.top.iter().filter_map(|(l, _)| l.parse::<u32>().ok().map(NodeId::new)).collect();
        let approx = cyclerank_platform::algorithms::RankedList::new(top_ids);
        let ndcg = ndcg_at_k(&approx, exact.as_slice(), 10);
        let jacc = jaccard_at_k(&exact_ranking, &approx, 10);
        println!("{:<14} {:>9} {:>10.4} {:>10.4}", solver.id(), result.runtime_ms, ndcg, jacc);
    }

    println!(
        "\nAll four agree on who matters; the approximate solvers trade a little\n\
         tail accuracy for locality (push) or simplicity (Monte-Carlo)."
    );
}
