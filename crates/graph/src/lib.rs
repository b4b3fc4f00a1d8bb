//! # relgraph — directed-graph substrate
//!
//! This crate provides the graph storage and traversal primitives on which
//! every relevance algorithm in the CycleRank demo platform runs
//! (PageRank, Personalized PageRank, CheiRank, 2DRank and CycleRank; see the
//! `relcore` crate).
//!
//! The central type is [`DirectedGraph`], an immutable compressed-sparse-row
//! (CSR) representation that stores **both** the out-adjacency and the
//! in-adjacency of every node. Keeping the in-adjacency around doubles the
//! memory footprint but makes the two graph views the algorithms need cheap:
//!
//! * PageRank-family algorithms iterate over *incoming* edges (or
//!   equivalently push along outgoing ones);
//! * CheiRank is PageRank on the *transposed* graph, which is available in
//!   O(1) via [`DirectedGraph::transposed`];
//! * CycleRank's pruning needs bounded BFS in both directions.
//!
//! Graphs are built through [`GraphBuilder`], which accepts edges in any
//! order, deduplicates parallel edges (summing weights when the graph is
//! weighted) and drops self-loops on request.
//!
//! ```
//! use relgraph::{GraphBuilder, NodeId};
//!
//! let mut b = GraphBuilder::new();
//! let a = b.add_labeled_node("A");
//! let c = b.add_labeled_node("C");
//! b.add_edge(a, c);
//! b.add_edge(c, a);
//! let g = b.build();
//! assert_eq!(g.node_count(), 2);
//! assert_eq!(g.out_neighbors(a), &[c]);
//! assert_eq!(g.in_neighbors(a), &[c]);
//! ```

pub mod builder;
pub mod compact;
pub mod csr;
pub mod dynamic;
pub mod error;
pub mod labels;
pub mod node;
pub mod reorder;
pub mod scc;
pub mod stats;
pub mod subgraph;
pub mod traversal;
pub mod view;
pub mod wcc;

pub use builder::GraphBuilder;
pub use compact::{CompactAdjacency, CompactGraph, GraphHandle, GraphRef, OffsetIndex};
pub use csr::DirectedGraph;
pub use dynamic::{DynamicGraph, EdgeMutation};
pub use error::GraphError;
pub use labels::LabelTable;
pub use node::NodeId;
pub use reorder::{NodeOrdering, Permutation};
pub use scc::{tarjan_scc, SccResult};
pub use stats::GraphStats;
pub use subgraph::{induced_subgraph, SubgraphMap};
pub use traversal::{bfs_distances, bfs_distances_bounded, bfs_distances_bounded_rev, Direction};
pub use view::GraphView;
pub use wcc::{weakly_connected_components, WccResult};
