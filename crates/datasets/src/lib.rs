//! # reldata — datasets for the CycleRank demo platform
//!
//! The demo ships 50 pre-loaded datasets: WikiLinkGraphs snapshots (9
//! languages × 4 years), the Amazon co-purchase graph, and two Twitter
//! interaction networks. None of those corpora can be redistributed here, so
//! this crate provides **synthetic stand-ins with the same structural
//! properties** plus **hand-labelled scenario fixtures** that reproduce the
//! qualitative results of the paper's Tables I–III:
//!
//! * [`classic`] — reference generators (Erdős–Rényi, directed preferential
//!   attachment, rings, complete graphs, DAGs) used by tests and scaling
//!   benches;
//! * [`wikilink`] — Wikipedia-like generator: topical communities with
//!   reciprocal intra-community links plus globally popular hub pages;
//! * [`amazon`] — co-purchase-like generator: genre clusters with strong
//!   reciprocity plus best-seller items with one-way in-links;
//! * [`twitter`] — interaction-network generator: heavy-tailed user
//!   activity, weighted multi-interaction edges;
//! * [`fixtures`] — deterministic labelled graphs embedding the paper's
//!   example neighbourhoods ("Freddie Mercury", "Pasta", "1984", "The
//!   Fellowship of the Ring", "Fake news" in six languages);
//! * [`registry`] — the catalog of 50 named datasets, each reproducibly
//!   generated from a fixed seed.
//!
//! The structural invariant every stand-in preserves (and the fixtures make
//! exact) is the one the paper's comparison hinges on: **globally central
//! hub nodes receive links from everywhere but rarely link back into a
//! specific topic**, so PageRank/Personalized-PageRank surface them for any
//! query while CycleRank — which requires cyclic, mutual linkage — does not.

pub mod amazon;
pub mod classic;
pub mod fixtures;
pub mod registry;
pub mod twitter;
pub mod wikilink;

pub use registry::{catalog, load_dataset, DatasetKind, DatasetSpec};
