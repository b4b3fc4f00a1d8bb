//! # cyclerank-platform
//!
//! Reproduction of *Comparing Personalized Relevance Algorithms for
//! Directed Graphs* (ICDE 2024): the CycleRank demonstration platform —
//! seven relevance algorithms, the execution engine behind the demo's web
//! UI, synthetic stand-ins for its 50 datasets, and a benchmark harness
//! regenerating every table in the paper.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`graph`] (`relgraph`) — CSR directed graphs, traversal, SCCs;
//! * [`formats`] (`relformats`) — edgelist CSV / Pajek / ASD readers and
//!   writers;
//! * [`algorithms`] (`relcore`) — PageRank, Personalized PageRank,
//!   CheiRank, 2DRank, their personalized variants, CycleRank, and the
//!   trait-based algorithm registry + `Query` API that serves them;
//! * [`datasets`] (`reldata`) — generators, labelled fixtures, the
//!   50-dataset registry;
//! * [`engine`] (`relengine`) — task builder, query sets, scheduler,
//!   executor pool, and the status board that keeps each task's record,
//!   result and log;
//! * [`server`] (`relserver`) — the HTTP API gateway.
//!
//! ## Quickstart: the `Query` API
//!
//! Every algorithm invocation goes through one fluent front door,
//! [`Query`](relcore::Query): pick a target (an in-memory graph or a
//! catalog dataset id), an algorithm by registry name, parameters, and
//! run.
//!
//! ```
//! use cyclerank_platform::prelude::*;
//!
//! // Build a graph, ask CycleRank who is relevant to "Pasta".
//! let mut b = GraphBuilder::new();
//! b.add_labeled_edge("Pasta", "Italy");
//! b.add_labeled_edge("Italy", "Pasta");
//! b.add_labeled_edge("Pasta", "United States");
//! let g = b.build();
//!
//! let result = Query::on(g)
//!     .algorithm("cyclerank")
//!     .reference("Pasta")
//!     .k(3)
//!     .top(2)
//!     .run()
//!     .unwrap();
//! assert_eq!(result.top_entries()[1].0, "Italy");
//! ```
//!
//! Named datasets from the 50-entry catalog work the same way (the
//! catalog installs its resolver on first touch):
//!
//! ```
//! use cyclerank_platform::prelude::*;
//!
//! assert_eq!(catalog().len(), 50);
//! let result = Query::on("fixture-enwiki-2018")
//!     .algorithm("cyclerank")
//!     .reference("Freddie Mercury")
//!     .k(3)
//!     .top(2)
//!     .run()
//!     .unwrap();
//! assert_eq!(result.top_entries()[1].0, "Queen (band)");
//! ```
//!
//! New algorithms register at runtime through
//! [`AlgorithmRegistry`](relcore::AlgorithmRegistry) and are immediately
//! available to `Query`, the engine, the HTTP API, and the CLI — see the
//! registry docs for a complete out-of-tree example.

pub use relcore as algorithms;
pub use reldata as datasets;
pub use relengine as engine;
pub use relformats as formats;
pub use relgraph as graph;
pub use relserver as server;

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use relcore::cyclerank::cyclerank;
    pub use relcore::runner::{Algorithm, AlgorithmParams};
    pub use relcore::{
        AlgorithmDescriptor, AlgorithmRegistry, CycleRankConfig, ParamSpec, Query, QueryResult,
        RelevanceAlgorithm, ScoringFunction,
    };
    pub use reldata::{catalog, load_dataset};
    pub use relengine::prelude::*;
    pub use relgraph::{DirectedGraph, GraphBuilder, GraphStats, NodeId};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_work() {
        use crate::prelude::*;
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 0)]);
        let s = Query::on(g).algorithm(Algorithm::PageRank).run().unwrap().output.scores.unwrap();
        assert!((s.sum() - 1.0).abs() < 1e-9);
        assert_eq!(catalog().len(), 50);
    }

    #[test]
    fn query_api_through_facade() {
        use crate::prelude::*;
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 0), (1, 2)]);
        let result = Query::on(g).algorithm("pagerank").top(3).run().unwrap();
        assert_eq!(result.algorithm, "pagerank");
        assert_eq!(result.top_entries().len(), 3);
        assert!(AlgorithmRegistry::global().len() >= 7);
    }
}
