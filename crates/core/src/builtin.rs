//! The seven paper algorithms as [`RelevanceAlgorithm`] implementations.
//!
//! Three types cover the seven: [`Stationary`] (PageRank, PPR, CheiRank,
//! Pers. CheiRank — one sweep-kernel solve, differing only in view
//! orientation and personalization), [`TwoDRank`] (both 2DRank variants)
//! and [`CycleRankAlgorithm`]. The registry registers the seven values at
//! startup ([`crate::registry::AlgorithmRegistry::global`]), and the task
//! JSON's `Algorithm` tag maps each variant to one of them (the one
//! `match` over its variants); dispatch goes through the registry.

use crate::algorithm::{ParamSpec, RelevanceAlgorithm};
use crate::cyclerank::cyclerank;
use crate::error::AlgoError;
use crate::ppr::TeleportVector;
use crate::result::{RankedList, ScoreVector};
use crate::runner::{AlgorithmParams, RelevanceOutput};
use crate::solver::{Convergence, ConvergenceTrace, SweepKernel};
use crate::topk;
use relgraph::{DirectedGraph, NodeId};

fn scored(
    id: &str,
    s: ScoreVector,
    c: Option<Convergence>,
    trace: Option<ConvergenceTrace>,
) -> RelevanceOutput {
    RelevanceOutput {
        algorithm: id.to_string(),
        ranking: s.ranking(),
        scores: Some(s),
        top: None,
        convergence: c,
        trace,
        cycles_found: None,
    }
}

/// Packages top-k pairs as the top-k serving mode's output shape: a
/// k-entry ranking plus the pairs themselves, no full score vector.
fn scored_top_k(
    id: &str,
    top: Vec<(NodeId, f64)>,
    c: Option<Convergence>,
    trace: Option<ConvergenceTrace>,
) -> RelevanceOutput {
    RelevanceOutput {
        algorithm: id.to_string(),
        ranking: RankedList::new(top.iter().map(|&(n, _)| n).collect()),
        scores: None,
        top: Some(top),
        convergence: c,
        trace,
        cycles_found: None,
    }
}

/// The stationary-distribution execution shared by the PageRank family:
/// one sweep-kernel solve. Top-k serving mode (`params.top_k`) routes
/// personalized runs through the certified adaptive-push path first and
/// everything else through the kernel's pruned heap-select result path
/// ([`SweepKernel::solve_top_k`]) — the full score vector never leaves
/// the solver arena.
fn execute_stationary(
    id: &str,
    view: relgraph::GraphView<'_>,
    params: &AlgorithmParams,
    reference: Option<NodeId>,
) -> Result<RelevanceOutput, AlgoError> {
    // A requested residual trace is a kernel diagnostic push cannot
    // produce — honor it by taking the exact path instead of returning
    // a silently trace-less result.
    if let (Some(k), Some(r)) = (params.top_k, reference.filter(|_| !params.record_trace)) {
        if let Some(push) = topk::push_top_k(view, params.damping, r, k)? {
            // Carry the Σ|r| certificate out as the result's residual:
            // each served estimate is below the exact score by at most
            // `residual_mass`, so downstream consumers (and the scenario
            // oracle) can bound the true error without re-solving.
            let certificate = Convergence {
                iterations: push.rounds,
                residual: push.residual_mass,
                converged: true,
            };
            return Ok(scored_top_k(id, push.top, Some(certificate), None));
        }
        // Fall through: push could not separate rank k from k+1
        // (or k >= n) — the exact kernel always can.
    }
    let teleport = TeleportVector::for_reference(view.node_count(), reference)?;
    let kernel = SweepKernel::new(view)?;
    match params.top_k {
        Some(k) => {
            let out = kernel.solve_top_k(&params.solver_config(), &teleport, k)?;
            Ok(scored_top_k(id, out.top, Some(out.convergence), out.trace))
        }
        None => {
            let out = kernel.solve(&params.solver_config(), &teleport)?;
            Ok(scored(id, out.scores, Some(out.convergence), out.trace))
        }
    }
}

/// The warm-started stationary execution: seeds the kernel iterate from
/// `prev` (a prior solution of a similar query, e.g. the same query before
/// a graph mutation).
fn execute_stationary_warm(
    id: &str,
    view: relgraph::GraphView<'_>,
    params: &AlgorithmParams,
    reference: Option<NodeId>,
    prev: &[f64],
) -> Result<RelevanceOutput, AlgoError> {
    let teleport = TeleportVector::for_reference(view.node_count(), reference)?;
    let kernel = SweepKernel::new(view)?;
    match params.top_k {
        Some(k) => {
            let out = kernel.solve_top_k_warm(&params.solver_config(), &teleport, prev, k)?;
            Ok(scored_top_k(id, out.top, Some(out.convergence), out.trace))
        }
        None => {
            let out = kernel.solve_warm(&params.solver_config(), &teleport, prev)?;
            Ok(scored(id, out.scores, Some(out.convergence), out.trace))
        }
    }
}

fn require_reference(reference: Option<NodeId>) -> Result<NodeId, AlgoError> {
    reference.ok_or(AlgoError::MissingReference)
}

/// The reference a run personalizes on: required by personalized
/// algorithms, ignored by global ones.
fn effective_reference(
    personalized: bool,
    reference: Option<NodeId>,
) -> Result<Option<NodeId>, AlgoError> {
    if personalized {
        require_reference(reference).map(Some)
    } else {
        Ok(None)
    }
}

/// The batched personalized solve shared by PPR and Pers. CheiRank: one
/// multi-vector kernel sweep over `view` for every seed.
fn solve_batch_personalized(
    id: &str,
    view: relgraph::GraphView<'_>,
    params: &AlgorithmParams,
    references: &[NodeId],
) -> Result<Vec<RelevanceOutput>, AlgoError> {
    let n = view.node_count();
    let teleports =
        references.iter().map(|&r| TeleportVector::single(n, r)).collect::<Result<Vec<_>, _>>()?;
    let kernel = SweepKernel::new(view)?;
    let outs = kernel.solve_batch(&params.solver_config(), &teleports)?;
    // Batches keep the fused multi-vector sweep even in top-k serving
    // mode (the traversal amortization is the batch's whole point); top-k
    // only trims the per-seed result path.
    Ok(outs
        .into_iter()
        .map(|o| match params.top_k {
            Some(k) => scored_top_k(id, o.scores.top_k(k), Some(o.convergence), o.trace),
            None => scored(id, o.scores, Some(o.convergence), o.trace),
        })
        .collect())
}

fn validate_damping(params: &AlgorithmParams) -> Result<(), AlgoError> {
    if !(params.damping > 0.0 && params.damping < 1.0) {
        return Err(AlgoError::InvalidDamping(params.damping));
    }
    Ok(())
}

/// The parameters of every sweep-kernel algorithm: the PageRank family
/// and both 2DRank variants.
fn sweep_kernel_params() -> Vec<ParamSpec> {
    vec![
        ParamSpec::new("damping", "float", "0.85", "damping factor α in (0, 1)"),
        ParamSpec::new("tolerance", "float", "1e-10", "L1 convergence tolerance"),
        ParamSpec::new("max_iterations", "int", "200", "sweep cap"),
        ParamSpec::new(
            "threads",
            "int",
            "0",
            "threads per sweep of the parallel scheme (0 = planned from sweep size and free cores)",
        ),
        ParamSpec::new(
            "record_trace",
            "bool",
            "false",
            "record per-iteration residuals in the result",
        ),
        ParamSpec::new("solver", "enum", "parallel", "kernel update scheme: power | parallel"),
    ]
}

fn cyclerank_params() -> Vec<ParamSpec> {
    vec![
        ParamSpec::new("max_cycle_len", "int", "3", "maximum cycle length K (≥ 2)"),
        ParamSpec::new("scoring", "enum", "exp", "scoring σ(n): exp | lin | quad | const"),
    ]
}

// ------------------------------------------------------- PageRank family

/// A stationary-distribution algorithm: one sweep-kernel solve over one
/// orientation of the graph, teleporting uniformly or to the reference.
/// The four PageRank-family built-ins are four values of this type.
pub struct Stationary {
    id: &'static str,
    display_name: &'static str,
    aliases: &'static [&'static str],
    personalized: bool,
    /// Solve on the transposed graph (the CheiRank variants).
    transposed: bool,
}

/// Global PageRank.
pub const PAGERANK: Stationary = Stationary {
    id: "pagerank",
    display_name: "PageRank",
    aliases: &["pr"],
    personalized: false,
    transposed: false,
};

/// Personalized PageRank.
pub const PERSONALIZED_PAGERANK: Stationary = Stationary {
    id: "ppr",
    display_name: "Pers. PageRank",
    aliases: &["personalizedpagerank", "pers.pagerank"],
    personalized: true,
    transposed: false,
};

/// CheiRank: PageRank on the transposed graph.
pub const CHEIRANK: Stationary = Stationary {
    id: "cheirank",
    display_name: "CheiRank",
    aliases: &[],
    personalized: false,
    transposed: true,
};

/// Personalized CheiRank.
pub const PERSONALIZED_CHEIRANK: Stationary = Stationary {
    id: "pcheirank",
    display_name: "Pers. CheiRank",
    aliases: &["personalizedcheirank"],
    personalized: true,
    transposed: true,
};

impl Stationary {
    fn view<'g>(&self, graph: &'g DirectedGraph) -> relgraph::GraphView<'g> {
        if self.transposed {
            graph.transposed()
        } else {
            graph.view()
        }
    }
}

impl RelevanceAlgorithm for Stationary {
    fn id(&self) -> &str {
        self.id
    }

    fn display_name(&self) -> &str {
        self.display_name
    }

    fn aliases(&self) -> &[&str] {
        self.aliases
    }

    fn is_personalized(&self) -> bool {
        self.personalized
    }

    fn parameters(&self) -> Vec<ParamSpec> {
        sweep_kernel_params()
    }

    fn validate(&self, params: &AlgorithmParams) -> Result<(), AlgoError> {
        validate_damping(params)
    }

    fn execute(
        &self,
        graph: &DirectedGraph,
        params: &AlgorithmParams,
        reference: Option<NodeId>,
    ) -> Result<RelevanceOutput, AlgoError> {
        let reference = effective_reference(self.personalized, reference)?;
        execute_stationary(self.id, self.view(graph), params, reference)
    }

    fn execute_warm(
        &self,
        graph: &DirectedGraph,
        params: &AlgorithmParams,
        reference: Option<NodeId>,
        prev: &[f64],
    ) -> Result<RelevanceOutput, AlgoError> {
        let reference = effective_reference(self.personalized, reference)?;
        execute_stationary_warm(self.id, self.view(graph), params, reference, prev)
    }

    fn execute_batch(
        &self,
        graph: &DirectedGraph,
        params: &AlgorithmParams,
        references: &[NodeId],
    ) -> Result<Vec<RelevanceOutput>, AlgoError> {
        if !self.personalized {
            // Nothing to fuse: a global run ignores its seed.
            return references.iter().map(|&r| self.execute(graph, params, Some(r))).collect();
        }
        solve_batch_personalized(self.id, self.view(graph), params, references)
    }
}

// ------------------------------------------------------------------ 2DRank

/// 2DRank: combined PageRank × CheiRank ranking (ranking only, no
/// scores). Both built-in variants are values of this type.
pub struct TwoDRank {
    id: &'static str,
    display_name: &'static str,
    aliases: &'static [&'static str],
    personalized: bool,
}

/// Global 2DRank.
pub const TWO_D_RANK: TwoDRank =
    TwoDRank { id: "2drank", display_name: "2DRank", aliases: &["twodrank"], personalized: false };

/// Personalized 2DRank.
pub const PERSONALIZED_TWO_D_RANK: TwoDRank = TwoDRank {
    id: "p2drank",
    display_name: "Pers. 2DRank",
    aliases: &["personalized2drank", "personalizedtwodrank"],
    personalized: true,
};

impl RelevanceAlgorithm for TwoDRank {
    fn id(&self) -> &str {
        self.id
    }

    fn display_name(&self) -> &str {
        self.display_name
    }

    fn aliases(&self) -> &[&str] {
        self.aliases
    }

    fn is_personalized(&self) -> bool {
        self.personalized
    }

    fn produces_scores(&self) -> bool {
        false
    }

    fn parameters(&self) -> Vec<ParamSpec> {
        sweep_kernel_params()
    }

    fn validate(&self, params: &AlgorithmParams) -> Result<(), AlgoError> {
        validate_damping(params)
    }

    fn execute(
        &self,
        graph: &DirectedGraph,
        params: &AlgorithmParams,
        reference: Option<NodeId>,
    ) -> Result<RelevanceOutput, AlgoError> {
        let reference = effective_reference(self.personalized, reference)?;
        let out = crate::tworank::two_d_rank_with(graph, &params.solver_config(), reference)?;
        Ok(RelevanceOutput {
            algorithm: self.id.to_string(),
            ranking: out.ranking,
            scores: None,
            top: None,
            convergence: Some(out.convergence),
            trace: out.trace,
            cycles_found: None,
        })
    }
}

// ---------------------------------------------------------------- CycleRank

/// CycleRank: relevance through simple cycles of bounded length.
pub struct CycleRankAlgorithm;

impl RelevanceAlgorithm for CycleRankAlgorithm {
    fn id(&self) -> &str {
        "cyclerank"
    }

    fn display_name(&self) -> &str {
        "Cyclerank"
    }

    fn aliases(&self) -> &[&str] {
        &["cr"]
    }

    fn is_personalized(&self) -> bool {
        true
    }

    fn parameters(&self) -> Vec<ParamSpec> {
        cyclerank_params()
    }

    fn validate(&self, params: &AlgorithmParams) -> Result<(), AlgoError> {
        if params.max_cycle_len < 2 {
            return Err(AlgoError::InvalidMaxCycleLength(params.max_cycle_len));
        }
        Ok(())
    }

    fn summarize(&self, params: &AlgorithmParams) -> String {
        format!("k = {}, σ = {}", params.max_cycle_len, params.scoring)
    }

    fn execute(
        &self,
        graph: &DirectedGraph,
        params: &AlgorithmParams,
        reference: Option<NodeId>,
    ) -> Result<RelevanceOutput, AlgoError> {
        let r = require_reference(reference)?;
        let out = cyclerank(graph, r, &params.cyclerank_config())?;
        Ok(RelevanceOutput {
            algorithm: self.id().to_string(),
            ranking: out.scores.ranking(),
            scores: Some(out.scores),
            top: None,
            convergence: None,
            trace: None,
            cycles_found: Some(out.cycles_found),
        })
    }
}

/// The harness of the stationary built-ins' behaviour tests (in `pagerank`,
/// `cheirank` and `ppr`): each behaviour runs through `Query` for every
/// listed algorithm under every scheme.
#[cfg(test)]
pub(crate) mod behaviour {
    use crate::query::{Query, QueryError};
    use crate::result::ScoreVector;
    use crate::runner::RelevanceOutput;
    use crate::solver::Scheme;
    use relgraph::{DirectedGraph, GraphBuilder, NodeId};

    pub(crate) type Outcome = Result<RelevanceOutput, QueryError>;

    /// One behaviour of the stationary built-ins.
    pub(crate) struct Row {
        pub behaviour: &'static str,
        pub graph: fn() -> DirectedGraph,
        pub algorithms: &'static [&'static str],
        pub query: fn(Query) -> Query,
        pub check: fn(&Outcome) -> bool,
    }

    impl Row {
        /// Asserts the behaviour for each listed algorithm under every
        /// scheme, and that both schemes sweep to the same fixed point.
        pub(crate) fn holds(self) {
            let g = std::sync::Arc::new((self.graph)());
            for &algorithm in self.algorithms {
                let outcomes = Scheme::ALL.map(|scheme| {
                    let query = Query::on(&g).algorithm(algorithm).scheme(scheme);
                    let outcome = (self.query)(query).run().map(|r| r.output);
                    assert!(
                        (self.check)(&outcome),
                        "{}: {algorithm} under {scheme:?}",
                        self.behaviour
                    );
                    outcome
                });
                if let [Ok(a), Ok(b)] = &outcomes {
                    let (a, b) = (a.scores.as_ref().unwrap(), b.scores.as_ref().unwrap());
                    for u in g.nodes() {
                        assert!(
                            (a.get(u) - b.get(u)).abs() < 1e-8,
                            "{}: {algorithm} schemes disagree at {u:?}",
                            self.behaviour
                        );
                    }
                }
            }
        }
    }

    /// The scores of a converged run that is a probability distribution.
    pub(crate) fn distribution(out: &Outcome) -> Option<&ScoreVector> {
        let out = out.as_ref().ok()?;
        let conv = out.convergence?;
        let s = out.scores.as_ref()?;
        let ok = (s.sum() - 1.0).abs() < 1e-8
            && s.as_slice().iter().all(|&v| v >= 0.0)
            && conv.converged
            && conv.iterations > 0
            && conv.residual < 1e-10;
        ok.then_some(s)
    }

    pub(crate) fn at(s: &ScoreVector, i: u32) -> f64 {
        s.get(NodeId::new(i))
    }

    /// `max − min` of the scores.
    pub(crate) fn spread(s: &ScoreVector) -> f64 {
        let max = s.as_slice().iter().cloned().fold(f64::MIN, f64::max);
        let min = s.as_slice().iter().cloned().fold(f64::MAX, f64::min);
        max - min
    }

    /// The algorithm id of a successful run.
    pub(crate) fn ran(out: &Outcome) -> &str {
        out.as_ref().map_or("", |o| o.algorithm.as_str())
    }

    pub(crate) fn seed0(q: Query) -> Query {
        q.reference(NodeId::new(0))
    }

    pub(crate) fn cycle4() -> DirectedGraph {
        GraphBuilder::from_edge_indices([(0, 1), (1, 2), (2, 3), (3, 0)])
    }

    /// 1..=5 point at 0, which points back at 1.
    pub(crate) fn star() -> DirectedGraph {
        let mut b = GraphBuilder::new();
        for i in 1..=5 {
            b.add_edge_indices(i, 0);
        }
        b.add_edge_indices(0, 1);
        b.build()
    }

    /// 0 -> 1, and 1 dangles.
    pub(crate) fn single_edge() -> DirectedGraph {
        GraphBuilder::from_edge_indices([(0, 1)])
    }

    /// Four nodes, no edges.
    pub(crate) fn isolated4() -> DirectedGraph {
        let mut b = GraphBuilder::new();
        b.ensure_node(3);
        b.build()
    }

    /// A uniform start is not stationary here.
    pub(crate) fn asymmetric() -> DirectedGraph {
        GraphBuilder::from_edge_indices([(0, 1), (1, 2), (2, 0), (0, 2)])
    }

    /// 0 <-> 1 <-> 2, and 3 -> 2 (3 unreachable from 0).
    pub(crate) fn line_with_branches() -> DirectedGraph {
        GraphBuilder::from_edge_indices([(0, 1), (1, 0), (1, 2), (2, 1), (3, 2)])
    }

    /// 0 -> 1 -> 2.
    pub(crate) fn chain3() -> DirectedGraph {
        GraphBuilder::from_edge_indices([(0, 1), (1, 2)])
    }
}
