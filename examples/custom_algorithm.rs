//! Registering an out-of-tree algorithm: implement `RelevanceAlgorithm`,
//! register it once, and the new id runs through the same `Query` front
//! door (and engine, HTTP API, CLI) as the seven paper algorithms.
//!
//! ```sh
//! cargo run --example custom_algorithm
//! ```

use cyclerank_platform::algorithms::result::ScoreVector;
use cyclerank_platform::algorithms::runner::RelevanceOutput;
use cyclerank_platform::prelude::*;
use std::sync::Arc;

/// A toy ranker: score = in-degree + out-degree ("who is best connected").
struct DegreeRank;

impl RelevanceAlgorithm for DegreeRank {
    fn id(&self) -> &str {
        "degreerank"
    }

    fn display_name(&self) -> &str {
        "DegreeRank"
    }

    fn is_personalized(&self) -> bool {
        false
    }

    fn parameters(&self) -> Vec<ParamSpec> {
        Vec::new() // no knobs: ignores AlgorithmParams entirely
    }

    fn execute(
        &self,
        graph: &DirectedGraph,
        _params: &AlgorithmParams,
        _reference: Option<NodeId>,
    ) -> Result<RelevanceOutput, cyclerank_platform::algorithms::AlgoError> {
        let scores = ScoreVector::new(
            graph
                .nodes()
                .map(|u| (graph.out_neighbors(u).len() + graph.in_neighbors(u).len()) as f64)
                .collect(),
        );
        Ok(RelevanceOutput {
            algorithm: self.id().to_string(),
            order: None, // ranked on demand from the scores
            scores: Some(scores),
            top: None,
            convergence: None,
            trace: None,
            cycles_found: None,
        })
    }
}

fn main() {
    // One registration call makes the id available platform-wide.
    AlgorithmRegistry::global().register(Arc::new(DegreeRank)).expect("id is free");

    println!("registry now lists {} algorithms:", AlgorithmRegistry::global().len());
    for d in AlgorithmRegistry::global().descriptors() {
        println!("  {:<12} {}", d.id, d.name);
    }

    // The custom id runs through the ordinary Query front door, on a
    // catalog dataset.
    let graph = load_dataset("fixture-enwiki-2018").expect("a catalog dataset");
    let result = Query::on(graph).algorithm("degreerank").top(5).run().expect("degreerank runs");
    println!("\nTop-5 best-connected articles by {}:", result.algorithm);
    for (label, score) in result.top_entries() {
        println!("  {score:>5.0}  {label}");
    }
}
