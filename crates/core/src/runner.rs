//! The shared parameter / output types.
//!
//! The platform's invocation API lives in three sibling modules:
//! [`crate::algorithm`] (the open `RelevanceAlgorithm` trait),
//! [`crate::registry`] (the id → implementation table), and
//! [`crate::query`] (the fluent `Query` front door). This module keeps the
//! serializable types the task JSON carries — [`Algorithm`],
//! [`AlgorithmParams`], [`RelevanceOutput`].
//!
//! Every PageRank-family solve is an exact `f64` sweep-kernel solve under
//! one of two [`Scheme`]s, so the task JSON's `"solver"` key takes
//! `"power"` or `"parallel"` and nothing else, and [`AlgorithmParams`]
//! carries no precision knob. The accuracy-for-time trade is
//! [`AlgorithmParams::tolerance`]. The vendored serde ignores unknown
//! fields: a client still sending the deleted `"precision"` key gets the
//! same task as one that omits it.

use crate::algorithm::RelevanceAlgorithm;
use crate::builtin;
use crate::cyclerank::CycleRankConfig;
use crate::registry::AlgorithmRegistry;
use crate::result::{RankedList, ScoreVector};
use crate::scoring::ScoringFunction;
use crate::solver::{Convergence, ConvergenceTrace, Scheme, SolverConfig};
use relgraph::{DirectedGraph, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// The seven algorithms showcased by the demo platform, as the task
/// JSON's wire tag (`{"algorithm": "cycle_rank", ...}`).
///
/// A variant carries no metadata of its own: it maps to its built-in
/// implementation ([`crate::builtin`]), and the id, names and flags are
/// read from there. Dispatch goes through the
/// [`crate::registry::AlgorithmRegistry`], which also serves algorithms
/// outside this enum; the enum stays as the serialization tag and as the
/// paper's iteration order ([`Algorithm::ALL`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Algorithm {
    /// Global PageRank.
    PageRank,
    /// Personalized PageRank (requires a reference node).
    PersonalizedPageRank,
    /// CheiRank: PageRank on the transposed graph.
    CheiRank,
    /// Personalized CheiRank (requires a reference node).
    PersonalizedCheiRank,
    /// 2DRank: combined PageRank × CheiRank ranking.
    TwoDRank,
    /// Personalized 2DRank (requires a reference node).
    PersonalizedTwoDRank,
    /// CycleRank (requires a reference node).
    CycleRank,
}

impl Algorithm {
    /// All algorithms, in the order the paper lists them.
    pub const ALL: [Algorithm; 7] = [
        Algorithm::PageRank,
        Algorithm::PersonalizedPageRank,
        Algorithm::CheiRank,
        Algorithm::PersonalizedCheiRank,
        Algorithm::TwoDRank,
        Algorithm::PersonalizedTwoDRank,
        Algorithm::CycleRank,
    ];

    /// The built-in implementation this tag names — the same value the
    /// global registry serves under [`Algorithm::id`].
    pub(crate) fn builtin(self) -> &'static dyn RelevanceAlgorithm {
        match self {
            Algorithm::PageRank => &builtin::PAGERANK,
            Algorithm::PersonalizedPageRank => &builtin::PERSONALIZED_PAGERANK,
            Algorithm::CheiRank => &builtin::CHEIRANK,
            Algorithm::PersonalizedCheiRank => &builtin::PERSONALIZED_CHEIRANK,
            Algorithm::TwoDRank => &builtin::TWO_D_RANK,
            Algorithm::PersonalizedTwoDRank => &builtin::PERSONALIZED_TWO_D_RANK,
            Algorithm::CycleRank => &builtin::CycleRankAlgorithm,
        }
    }

    /// True if the algorithm needs a reference node.
    pub fn is_personalized(self) -> bool {
        self.builtin().is_personalized()
    }

    /// True if the algorithm produces per-node scores (2DRank variants
    /// produce only a ranking, as the paper notes).
    pub fn produces_scores(self) -> bool {
        self.builtin().produces_scores()
    }

    /// Display name matching the paper's tables.
    pub fn display_name(self) -> &'static str {
        self.builtin().display_name()
    }

    /// Stable machine identifier (the registry id, used by the CLI).
    pub fn id(self) -> &'static str {
        self.builtin().id()
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.display_name())
    }
}

impl FromStr for Algorithm {
    type Err = String;

    /// Resolves `s` through the global registry, so every spelling it
    /// accepts (id, alias, display name) names the same variant. A
    /// registered third-party algorithm has no wire tag and is rejected.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let algo =
            AlgorithmRegistry::global().get(s).ok_or_else(|| format!("unknown algorithm {s:?}"))?;
        Algorithm::ALL.into_iter().find(|a| a.id() == algo.id()).ok_or_else(|| {
            format!(
                "algorithm {:?} has no task-JSON tag; run it directly with Query::run()",
                algo.id()
            )
        })
    }
}

/// Serializable parameter payload for a task: which algorithm, with which
/// knobs. Mirrors the parameter fields of the demo's task-builder UI
/// (Fig. 2: α for the PageRank family, K and σ for CycleRank).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlgorithmParams {
    /// The algorithm to run.
    pub algorithm: Algorithm,
    /// Damping factor α for the PageRank family (ignored by CycleRank).
    #[serde(default = "default_damping")]
    pub damping: f64,
    /// Maximum cycle length K for CycleRank (ignored by others).
    #[serde(default = "default_k")]
    pub max_cycle_len: u32,
    /// Scoring function σ for CycleRank (ignored by others).
    #[serde(default)]
    pub scoring: ScoringFunction,
    /// Power-iteration tolerance for the PageRank family.
    #[serde(default = "default_tolerance")]
    pub tolerance: f64,
    /// Power-iteration cap for the PageRank family.
    #[serde(default = "default_max_iterations")]
    pub max_iterations: usize,
    /// Sweep-kernel update scheme for the PageRank family and 2DRank
    /// (CycleRank ignores it). The JSON key stays `"solver"`.
    #[serde(default)]
    pub solver: Scheme,
    /// Chunks (one thread each) per sweep of the parallel kernel scheme,
    /// clamped to available parallelism and node count; 0 = planned per
    /// sweep from the sweep's size and the cores free.
    #[serde(default)]
    // rellint: allow(cache-key) -- thread count changes wall time, never the result
    pub threads: usize,
    /// Record per-iteration residuals ([`ConvergenceTrace`]) in the
    /// output.
    #[serde(default)]
    pub record_trace: bool,
    /// Top-k-only serving mode for the stationary-distribution family:
    /// `Some(k)` makes the run produce only the `k` best `(node, score)`
    /// pairs ([`RelevanceOutput::top`]) instead of a full score vector —
    /// exact sweeps rank through a pruned heap-select straight out of the
    /// solver arena, and personalized runs first try the certified
    /// adaptive-push path ([`crate::topk`]). `None` (the default) keeps
    /// the classic full-rank output. CycleRank and 2DRank ignore it.
    #[serde(default)]
    pub top_k: Option<usize>,
}

fn default_damping() -> f64 {
    0.85
}
fn default_k() -> u32 {
    3
}
fn default_tolerance() -> f64 {
    1e-10
}
fn default_max_iterations() -> usize {
    200
}

impl AlgorithmParams {
    /// Defaults for `algorithm` (α = 0.85, K = 3, σ = exp).
    pub fn new(algorithm: Algorithm) -> Self {
        AlgorithmParams {
            algorithm,
            damping: default_damping(),
            max_cycle_len: default_k(),
            scoring: ScoringFunction::default(),
            tolerance: default_tolerance(),
            max_iterations: default_max_iterations(),
            solver: Scheme::default(),
            threads: 0,
            record_trace: false,
            top_k: None,
        }
    }

    /// Sets the damping factor α.
    pub fn with_damping(mut self, damping: f64) -> Self {
        self.damping = damping;
        self
    }

    /// Sets CycleRank's maximum cycle length K.
    pub fn with_k(mut self, k: u32) -> Self {
        self.max_cycle_len = k;
        self
    }

    /// Sets CycleRank's scoring function σ.
    pub fn with_scoring(mut self, scoring: ScoringFunction) -> Self {
        self.scoring = scoring;
        self
    }

    /// Sets the kernel update scheme.
    pub fn with_scheme(mut self, scheme: Scheme) -> Self {
        self.solver = scheme;
        self
    }

    /// Sets the chunk/thread count for the parallel scheme (0 = planned).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Requests a per-iteration residual trace in the output.
    pub fn with_trace(mut self, yes: bool) -> Self {
        self.record_trace = yes;
        self
    }

    /// Requests top-k-only serving mode (see [`AlgorithmParams::top_k`]).
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Human-readable parameter summary, as shown in the task builder
    /// (e.g. `k = 3, σ = exp` or `α = 0.3`). Delegates to the algorithm's
    /// built-in implementation so there is a single rendering to maintain.
    pub fn summary(&self) -> String {
        self.algorithm.builtin().summarize(self)
    }

    /// The shared-kernel configuration these parameters describe.
    pub fn solver_config(&self) -> SolverConfig {
        SolverConfig {
            damping: self.damping,
            tolerance: self.tolerance,
            max_iterations: self.max_iterations,
            scheme: self.solver,
            threads: self.threads,
            record_trace: self.record_trace,
        }
    }

    /// The CycleRank configuration these parameters describe.
    pub fn cyclerank_config(&self) -> CycleRankConfig {
        CycleRankConfig {
            max_cycle_len: self.max_cycle_len,
            scoring: self.scoring,
            use_edge_weights: false,
        }
    }
}

/// The uniform output of every [`crate::algorithm::RelevanceAlgorithm`].
#[derive(Debug, Clone)]
pub struct RelevanceOutput {
    /// Id of the algorithm that produced this (e.g. `cyclerank`). A
    /// `String` rather than the closed [`Algorithm`] enum, so registered
    /// third-party algorithms use the same output type.
    pub algorithm: String,
    /// The ranking, most relevant first — all nodes for full-rank runs,
    /// exactly `k` entries in top-k serving mode.
    pub ranking: RankedList,
    /// Raw scores, when the algorithm produces them (not for 2DRank, and
    /// not in top-k serving mode, where the full vector intentionally
    /// never leaves the solver arena — see [`RelevanceOutput::top`]).
    pub scores: Option<ScoreVector>,
    /// Top-k `(node, score)` pairs, present exactly in top-k serving mode
    /// (`AlgorithmParams::top_k`).
    pub top: Option<Vec<(NodeId, f64)>>,
    /// Solver diagnostics (PageRank family only).
    pub convergence: Option<Convergence>,
    /// Per-iteration residuals, when the query requested tracing
    /// (PageRank family only).
    pub trace: Option<ConvergenceTrace>,
    /// Number of cycles found (CycleRank only).
    pub cycles_found: Option<u64>,
}

impl RelevanceOutput {
    /// Top-`k` entries as `(label, score)` pairs; ranking-only algorithms
    /// report `NaN`-free pseudo-scores of 0.
    pub fn top_k_labeled(&self, g: &DirectedGraph, k: usize) -> Vec<(String, f64)> {
        if let Some(top) = &self.top {
            return top.iter().take(k).map(|&(n, s)| (g.display_name(n), s)).collect();
        }
        match &self.scores {
            Some(s) => s.top_k_labeled(g, k),
            None => self.ranking.top_k_labeled(g, k).into_iter().map(|l| (l, 0.0)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::AlgoError;
    use crate::query::{Query, QueryError};
    use relgraph::GraphBuilder;

    fn sample() -> DirectedGraph {
        GraphBuilder::from_edge_indices([(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2), (3, 0)])
    }

    /// Runs `params` on `g` through the `Query` front door.
    fn run(
        g: &DirectedGraph,
        params: &AlgorithmParams,
        reference: Option<NodeId>,
    ) -> Result<RelevanceOutput, QueryError> {
        let mut query = Query::on(g).params(*params);
        if let Some(r) = reference {
            query = query.reference(r);
        }
        query.run().map(|result| result.output)
    }

    #[test]
    fn run_all_algorithms() {
        let g = sample();
        for algo in Algorithm::ALL {
            let params = AlgorithmParams::new(algo);
            let out = run(&g, &params, Some(NodeId::new(0))).unwrap();
            assert_eq!(out.algorithm, algo.id());
            assert_eq!(out.ranking.len(), g.node_count());
            assert_eq!(out.scores.is_some(), algo.produces_scores());
        }
    }

    #[test]
    fn personalized_without_reference_fails() {
        let g = sample();
        for algo in Algorithm::ALL.into_iter().filter(|a| a.is_personalized()) {
            let params = AlgorithmParams::new(algo);
            assert!(
                matches!(run(&g, &params, None), Err(QueryError::MissingReference(_))),
                "{algo}"
            );
        }
    }

    #[test]
    fn global_algorithms_ignore_reference() {
        let g = sample();
        let params = AlgorithmParams::new(Algorithm::PageRank);
        let a = run(&g, &params, None).unwrap();
        let b = run(&g, &params, Some(NodeId::new(2))).unwrap();
        assert_eq!(a.ranking, b.ranking);
    }

    #[test]
    fn algorithm_parse_roundtrip() {
        for a in Algorithm::ALL {
            assert_eq!(a.id().parse::<Algorithm>().unwrap(), a);
        }
        assert_eq!("PageRank".parse::<Algorithm>().unwrap(), Algorithm::PageRank);
        assert_eq!("2drank".parse::<Algorithm>().unwrap(), Algorithm::TwoDRank);
        assert!("nope".parse::<Algorithm>().is_err());
    }

    #[test]
    fn params_summary_matches_task_builder() {
        let cr = AlgorithmParams::new(Algorithm::CycleRank);
        assert_eq!(cr.summary(), "k = 3, σ = exp");
        let ppr = AlgorithmParams::new(Algorithm::PersonalizedPageRank).with_damping(0.3);
        assert_eq!(ppr.summary(), "α = 0.3");
    }

    #[test]
    fn cyclerank_output_has_cycle_count() {
        let g = sample();
        let out =
            run(&g, &AlgorithmParams::new(Algorithm::CycleRank), Some(NodeId::new(0))).unwrap();
        assert!(out.cycles_found.unwrap() > 0);
    }

    #[test]
    fn top_k_labeled_for_ranking_only() {
        let mut b = GraphBuilder::new();
        b.add_labeled_edge("A", "B");
        b.add_labeled_edge("B", "A");
        let g = b.build();
        let out = run(&g, &AlgorithmParams::new(Algorithm::TwoDRank), None).unwrap();
        let top = out.top_k_labeled(&g, 2);
        assert_eq!(top.len(), 2);
        assert!(top.iter().all(|(_, s)| *s == 0.0));
    }

    #[test]
    fn solver_parse_roundtrip() {
        // The `solver` parameter is a kernel scheme: exactly two values.
        assert_eq!(Scheme::ALL.map(Scheme::id), ["power", "parallel"]);
        // The deleted Gauss–Seidel and approximate-solver spellings (split
        // so a repo-wide grep for them finds only history) are unknown.
        for gone in [
            concat!("gauss", "_seidel"),
            "gs",
            "push",
            concat!("monte", "_carlo"),
            concat!("monte", "-carlo"),
        ] {
            let err = gone.parse::<Scheme>().unwrap_err();
            assert!(err.contains("expected power|parallel"), "{err}");
        }
        // Stationary distributions are parallel by default.
        assert_eq!(AlgorithmParams::new(Algorithm::PageRank).solver, Scheme::Parallel);
    }

    #[test]
    fn invalid_reference_propagates() {
        let g = sample();
        let params = AlgorithmParams::new(Algorithm::CycleRank);
        assert!(matches!(
            run(&g, &params, Some(NodeId::new(99))),
            Err(QueryError::Algorithm(AlgoError::InvalidReference { .. }))
        ));
    }
}
