//! # relcore — personalized relevance algorithms for directed graphs
//!
//! This crate implements the seven algorithms showcased by the CycleRank
//! demo platform (*Comparing Personalized Relevance Algorithms for Directed
//! Graphs*, ICDE 2024):
//!
//! | Algorithm | Registry id | Built-in | Personalized? | Output |
//! |-----------|-------------|----------|---------------|--------|
//! | PageRank | `pagerank` | [`builtin::PAGERANK`] | no | scores |
//! | Personalized PageRank | `ppr` | [`builtin::PERSONALIZED_PAGERANK`] | yes | scores |
//! | CheiRank | `cheirank` | [`builtin::CHEIRANK`] | no | scores |
//! | Personalized CheiRank | `pcheirank` | [`builtin::PERSONALIZED_CHEIRANK`] | yes | scores |
//! | 2DRank | `2drank` | [`builtin::TWO_D_RANK`] | no | ranking only |
//! | Personalized 2DRank | `p2drank` | [`builtin::PERSONALIZED_TWO_D_RANK`] | yes | ranking only |
//! | **CycleRank** | `cyclerank` | [`builtin::CycleRankAlgorithm`] | yes | scores |
//!
//! plus ranking-comparison metrics ([`compare`]). The first four are one
//! sweep-kernel solve ([`solver`]) over one graph orientation and teleport
//! ([`ppr::TeleportVector`]); 2DRank combines two of them ([`tworank`]);
//! CycleRank enumerates cycles ([`cyclerank`]). The rows of one engine job
//! solve each stationary vector once through a job-scoped [`memo`]. Each runs through
//! [`Query`] by registry id, alias or display name. Andersen–Chung–Lang
//! forward push ([`push`]) is no solver of its own: it serves only the
//! certified top-k path and the incremental PPR refresh ([`topk`]).
//!
//! ## The invocation API
//!
//! Algorithms are invoked through an open, registry-backed API:
//!
//! * [`algorithm::RelevanceAlgorithm`] — the object-safe trait every
//!   algorithm (built-in or third-party) implements;
//! * [`registry::AlgorithmRegistry`] — the id → implementation table; the
//!   seven paper algorithms are registered at startup and custom ones can
//!   be added at runtime;
//! * [`query::Query`] — the fluent front door used by the engine, HTTP
//!   routes, CLI, and bench harness:
//!
//! ```
//! use relcore::Query;
//! use relgraph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new();
//! b.add_labeled_edge("Pasta", "Italy");
//! b.add_labeled_edge("Italy", "Pasta");
//! let g = b.build();
//! let top = Query::on(g).algorithm("cyclerank").reference("Pasta").k(3).top(2)
//!     .run().unwrap().top_entries();
//! assert_eq!(top[0].0, "Pasta");
//! ```
//!
//! ## The solver layer
//!
//! Every stationary-distribution algorithm — PageRank, PPR, CheiRank, and
//! 2DRank — is a thin parameterization (view orientation × teleport
//! vector) of one shared edge-sweep engine, [`solver::SweepKernel`], with
//! two interchangeable `f64` update schemes ([`solver::Scheme`]):
//! sequential power iteration and chunked pull (the default). That kernel
//! is the only PageRank-family solver: the task JSON's `"solver"` key
//! names one of the two schemes, and the accuracy-for-time trade is the
//! L1 `tolerance`. The default scheme forks threads only for sweeps big
//! enough to pay for it while a core is free — small graphs sweep inline;
//! an explicit thread count is always honored. Queries pick both
//! fluently:
//!
//! ```
//! use relcore::{Query, Scheme};
//! use relgraph::GraphBuilder;
//!
//! let g = GraphBuilder::from_edge_indices([(0, 1), (1, 0), (1, 2), (2, 0)]);
//! let r = Query::on(g)
//!     .algorithm("cheirank")
//!     .scheme(Scheme::Power)
//!     .threads(2)
//!     .trace(true)
//!     .run()
//!     .unwrap();
//! let trace = r.output.trace.as_ref().unwrap();
//! assert_eq!(trace.len(), r.output.convergence.unwrap().iterations);
//! ```
//!
//! ## Quick example
//!
//! ```
//! use relgraph::GraphBuilder;
//! use relcore::{cyclerank::cyclerank, CycleRankConfig};
//!
//! let mut b = GraphBuilder::new();
//! b.add_labeled_edge("Pasta", "Italy");
//! b.add_labeled_edge("Italy", "Pasta");
//! b.add_labeled_edge("Pasta", "United States"); // no link back
//! let g = b.build();
//! let r = g.node_by_label("Pasta").unwrap();
//!
//! let out = cyclerank(&g, r, &CycleRankConfig::default()).unwrap();
//! let italy = g.node_by_label("Italy").unwrap();
//! let us = g.node_by_label("United States").unwrap();
//! assert!(out.scores.get(italy) > 0.0);   // mutually linked: relevant
//! assert_eq!(out.scores.get(us), 0.0);    // one-way link: not relevant
//! ```

pub mod algorithm;
pub mod arena;
pub mod builtin;
mod chunks;
pub mod compare;
pub mod cyclerank;
pub mod error;
pub mod memo;
pub mod ppr;
pub mod push;
pub mod query;
pub mod registry;
pub mod result;
pub mod runner;
pub mod scoring;
pub mod solver;
pub mod topk;
pub mod tworank;

// Behaviour tests of the PageRank and CheiRank built-ins through `Query`
// (PPR's sit in `ppr`); no code of their own, the algorithms are `builtin`'s.
#[cfg(test)]
#[path = "cheirank_tests.rs"]
mod cheirank;
#[cfg(test)]
#[path = "pagerank_tests.rs"]
mod pagerank;

pub use algorithm::{AlgorithmDescriptor, ParamSpec, RelevanceAlgorithm};
pub use arena::{with_arena, SolverArena};
pub use cyclerank::{CycleRankConfig, CycleRankOutput};
pub use error::AlgoError;
pub use memo::{with_vector_memo, Orientation, StationaryRead, Teleport, VectorMemo};
pub use ppr::TeleportVector;
pub use query::{BatchResult, Query, QueryError, QueryResult, QueryTarget, ReferenceSpec};
pub use registry::{AlgorithmRegistry, RegistryError};
pub use result::{RankedList, ScoreVector};
pub use runner::{Algorithm, AlgorithmParams, RelevanceOutput};
pub use scoring::ScoringFunction;
pub use solver::{
    Convergence, ConvergenceTrace, Scheme, SolverConfig, SweepKernel, SweepOutcome, TopKOutcome,
};
pub use topk::{refresh_ppr, PprRefresh};
