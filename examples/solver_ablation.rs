//! Scheme × tolerance ablation: the PageRank family has one solver, the
//! exact sweep kernel, and its accuracy-for-time knob is the L1
//! convergence `tolerance`. This runs Personalized PageRank on
//! `amazon-copurchase` under both kernel schemes at three tolerances and
//! reports time, sweeps and top-10 agreement with the default solve
//! (`parallel`, 1e-10).
//!
//! ```sh
//! cargo run --release --example solver_ablation
//! ```

use cyclerank_platform::algorithms::compare::{jaccard_at_k, ndcg_at_k};
use cyclerank_platform::algorithms::Scheme;
use cyclerank_platform::prelude::*;
use std::sync::Arc;

/// Ordinary products (numeric ids: the dataset is unlabeled).
const SEEDS: [&str; 4] = ["100", "2500", "7000", "15000"];
const TOLERANCES: [f64; 3] = [1e-10, 1e-4, 1e-2];
/// Timed runs per (scheme, tolerance, seed); the median is reported.
const REPS: usize = 5;

fn run(graph: &Arc<DirectedGraph>, scheme: Scheme, tolerance: f64, seed: &str) -> QueryResult {
    Query::on(graph)
        .algorithm("ppr")
        .scheme(scheme)
        .tolerance(tolerance)
        .reference(seed)
        .top(10)
        .run()
        .expect("ppr runs")
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let graph = Arc::new(load_dataset("amazon-copurchase").expect("dataset loads"));
    let exact: Vec<QueryResult> =
        SEEDS.iter().map(|s| run(&graph, Scheme::Parallel, 1e-10, s)).collect();

    println!(
        "PPR on amazon-copurchase ({} nodes, {} edges), {} seeds, median of {REPS} runs",
        graph.node_count(),
        graph.edge_count(),
        SEEDS.len()
    );
    println!(
        "{:<9} {:>9} {:>7} {:>9} {:>9} {:>9}",
        "scheme", "tolerance", "sweeps", "ms", "jacc@10", "ndcg@10"
    );
    for scheme in Scheme::ALL {
        for tolerance in TOLERANCES {
            let mut ms = Vec::new();
            let (mut sweeps, mut jacc, mut ndcg) = (0, 1.0f64, 1.0f64);
            for (seed, reference) in SEEDS.iter().zip(&exact) {
                for _ in 0..REPS {
                    ms.push(run(&graph, scheme, tolerance, seed).runtime.as_secs_f64() * 1e3);
                }
                let r = run(&graph, scheme, tolerance, seed);
                sweeps += r.output.convergence.map_or(0, |c| c.iterations);
                let gains = reference.scores().expect("ppr scores").as_slice();
                let ranking = r.ranking();
                jacc = jacc.min(jaccard_at_k(&reference.ranking(), &ranking, 10));
                ndcg = ndcg.min(ndcg_at_k(&ranking, gains, 10));
            }
            println!(
                "{:<9} {:>9.0e} {:>7} {:>9.2} {:>9.3} {:>9.4}",
                scheme.id(),
                tolerance,
                sweeps / SEEDS.len(),
                median(ms),
                jacc,
                ndcg
            );
            if tolerance == 1e-4 {
                assert_eq!(jacc, 1.0, "{scheme} at 1e-4 moved a top-10 member");
            }
        }
    }
    println!(
        "\njacc@10 and ndcg@10 are the worst over the seeds; sweeps the mean. A looser\n\
         tolerance buys time in sweeps, and 1e-4 keeps every top-10 set intact."
    );
}
