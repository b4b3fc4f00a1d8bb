//! The fluent [`Query`] builder: the single entry point for running any
//! registered relevance algorithm.
//!
//! ```
//! use relcore::Query;
//! use relgraph::GraphBuilder;
//!
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
//! assert_eq!(result.top_entries()[0].0, "Pasta");
//! assert_eq!(result.top_entries()[1].0, "Italy");
//! ```
//!
//! A query targets either an in-memory graph or a *named dataset*. Named
//! datasets resolve through a pluggable [`install_dataset_resolver`] hook
//! so this crate stays independent of the dataset registry; linking
//! `reldata` (or running inside the engine) installs the hook.

use crate::error::AlgoError;
use crate::registry::AlgorithmRegistry;
use crate::result::{RankedList, ScoreVector};
use crate::runner::{Algorithm, AlgorithmParams, RelevanceOutput};
use crate::scoring::ScoringFunction;
use relgraph::{DirectedGraph, NodeId};
use std::fmt;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

// -------------------------------------------------------- dataset resolving

type Resolver = dyn Fn(&str) -> Option<Arc<DirectedGraph>> + Send + Sync;

fn resolvers() -> &'static RwLock<Vec<Box<Resolver>>> {
    static RESOLVERS: std::sync::OnceLock<RwLock<Vec<Box<Resolver>>>> = std::sync::OnceLock::new();
    RESOLVERS.get_or_init(|| RwLock::new(Vec::new()))
}

/// Installs a named-dataset resolver consulted (most recent first) by
/// [`Query::run`] when the target is a dataset id. `reldata` installs the
/// 50-dataset registry through this hook; uploads and caches can stack
/// their own.
pub fn install_dataset_resolver(
    f: impl Fn(&str) -> Option<Arc<DirectedGraph>> + Send + Sync + 'static,
) {
    resolvers().write().unwrap_or_else(|e| e.into_inner()).push(Box::new(f));
}

fn resolve_dataset(id: &str) -> Result<Arc<DirectedGraph>, QueryError> {
    let resolvers = resolvers().read().unwrap_or_else(|e| e.into_inner());
    if resolvers.is_empty() {
        return Err(QueryError::NoDatasetResolver(id.to_string()));
    }
    for resolver in resolvers.iter().rev() {
        if let Some(g) = resolver(id) {
            return Ok(g);
        }
    }
    Err(QueryError::UnknownDataset(id.to_string()))
}

// ----------------------------------------------------------------- inputs

/// What a query runs on.
#[derive(Clone)]
pub enum QueryTarget {
    /// An in-memory graph.
    Graph(Arc<DirectedGraph>),
    /// A named dataset, resolved at [`Query::run`] time.
    Dataset(String),
}

impl From<&str> for QueryTarget {
    fn from(id: &str) -> Self {
        QueryTarget::Dataset(id.to_string())
    }
}

impl From<String> for QueryTarget {
    fn from(id: String) -> Self {
        QueryTarget::Dataset(id)
    }
}

impl From<DirectedGraph> for QueryTarget {
    fn from(g: DirectedGraph) -> Self {
        QueryTarget::Graph(Arc::new(g))
    }
}

impl From<Arc<DirectedGraph>> for QueryTarget {
    fn from(g: Arc<DirectedGraph>) -> Self {
        QueryTarget::Graph(g)
    }
}

impl From<&Arc<DirectedGraph>> for QueryTarget {
    fn from(g: &Arc<DirectedGraph>) -> Self {
        QueryTarget::Graph(Arc::clone(g))
    }
}

impl From<&DirectedGraph> for QueryTarget {
    /// Clones the graph; prefer `Arc<DirectedGraph>` for repeated queries
    /// on large graphs.
    fn from(g: &DirectedGraph) -> Self {
        QueryTarget::Graph(Arc::new(g.clone()))
    }
}

/// How the reference node is specified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReferenceSpec {
    /// By label, with numeric-index fallback for unlabeled graphs.
    Label(String),
    /// By node id.
    Node(NodeId),
}

impl From<&str> for ReferenceSpec {
    fn from(label: &str) -> Self {
        ReferenceSpec::Label(label.to_string())
    }
}

impl From<String> for ReferenceSpec {
    fn from(label: String) -> Self {
        ReferenceSpec::Label(label)
    }
}

impl From<NodeId> for ReferenceSpec {
    fn from(node: NodeId) -> Self {
        ReferenceSpec::Node(node)
    }
}

/// How the algorithm is selected: by registry name or `Algorithm` tag.
pub struct AlgorithmSel(String);

impl From<&str> for AlgorithmSel {
    fn from(name: &str) -> Self {
        AlgorithmSel(name.to_string())
    }
}

impl From<String> for AlgorithmSel {
    fn from(name: String) -> Self {
        AlgorithmSel(name)
    }
}

impl From<Algorithm> for AlgorithmSel {
    fn from(algo: Algorithm) -> Self {
        AlgorithmSel(algo.id().to_string())
    }
}

// ----------------------------------------------------------------- errors

/// Errors surfaced by [`Query::run`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The algorithm name resolved to nothing in the registry.
    UnknownAlgorithm(String),
    /// The dataset id resolved to nothing.
    UnknownDataset(String),
    /// A dataset id was given but no resolver is installed (link `reldata`
    /// or run through the engine).
    NoDatasetResolver(String),
    /// The reference did not match a node label or index.
    UnknownReference(String),
    /// A personalized algorithm was queried without a reference.
    MissingReference(String),
    /// A batch run ([`Query::run_batch`]) was requested for a global
    /// algorithm (batches are per-seed by construction) or without seeds.
    NotBatchable(String),
    /// The algorithm itself failed (bad parameters, empty graph, ...).
    Algorithm(AlgoError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownAlgorithm(name) => {
                write!(f, "unknown algorithm {name:?} (see AlgorithmRegistry::global().list())")
            }
            QueryError::UnknownDataset(id) => write!(f, "unknown dataset {id:?}"),
            QueryError::NoDatasetResolver(id) => write!(
                f,
                "cannot resolve dataset {id:?}: no dataset resolver installed \
                 (call reldata::connect_query_api(), touch the dataset catalog, \
                 build an engine, or pass a graph to Query::on)"
            ),
            QueryError::UnknownReference(r) => {
                write!(f, "no node labeled {r:?} (and not a valid node index)")
            }
            QueryError::MissingReference(algo) => {
                write!(f, "algorithm {algo:?} is personalized and needs .reference(...)")
            }
            QueryError::NotBatchable(msg) => write!(f, "batch query rejected: {msg}"),
            QueryError::Algorithm(e) => write!(f, "algorithm error: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<AlgoError> for QueryError {
    fn from(e: AlgoError) -> Self {
        QueryError::Algorithm(e)
    }
}

// ------------------------------------------------------------------ Query

/// A fluent, registry-backed algorithm invocation.
///
/// Built with [`Query::on`], configured with chained setters, executed
/// with [`Query::run`]. Every consumer in the workspace — engine executor,
/// HTTP routes, CLI, bench harness — funnels through this type, so a newly
/// registered algorithm is immediately available everywhere.
pub struct Query {
    target: QueryTarget,
    algorithm: String,
    params: AlgorithmParams,
    reference: Option<ReferenceSpec>,
    seeds: Vec<ReferenceSpec>,
    top: usize,
    warm_start: Option<Arc<ScoreVector>>,
}

impl Query {
    /// Starts a query on a graph or named dataset.
    pub fn on(target: impl Into<QueryTarget>) -> Self {
        Query {
            target: target.into(),
            algorithm: "pagerank".to_string(),
            params: AlgorithmParams::new(Algorithm::PageRank),
            reference: None,
            seeds: Vec::new(),
            top: 100,
            warm_start: None,
        }
    }

    /// Selects the algorithm by registry id, alias, display name, or
    /// `Algorithm` tag.
    pub fn algorithm(mut self, algo: impl Into<AlgorithmSel>) -> Self {
        self.algorithm = algo.into().0;
        // Keep the wire tag in sync when the name is a built-in, so
        // conversions to engine task specs stay lossless.
        if let Ok(a) = self.algorithm.parse::<Algorithm>() {
            self.params.algorithm = a;
        }
        self
    }

    /// Replaces the whole parameter payload (the task JSON shape).
    pub fn params(mut self, params: AlgorithmParams) -> Self {
        self.algorithm = params.algorithm.id().to_string();
        self.params = params;
        self
    }

    /// Sets the damping factor α (PageRank family).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.params.damping = alpha;
        self
    }

    /// Sets the maximum cycle length K (CycleRank).
    pub fn k(mut self, k: u32) -> Self {
        self.params.max_cycle_len = k;
        self
    }

    /// Sets the scoring function σ (CycleRank).
    pub fn scoring(mut self, scoring: ScoringFunction) -> Self {
        self.params.scoring = scoring;
        self
    }

    /// Sets the kernel update scheme (power or chunked parallel pull).
    pub fn scheme(mut self, scheme: crate::solver::Scheme) -> Self {
        self.params.solver = scheme;
        self
    }

    /// Sets the worker-thread count for the parallel scheme (0 = all
    /// available cores; clamped to available parallelism and node count).
    pub fn threads(mut self, threads: usize) -> Self {
        self.params.threads = threads;
        self
    }

    /// Requests a per-iteration residual trace
    /// ([`crate::solver::ConvergenceTrace`]) in the result.
    pub fn trace(mut self, yes: bool) -> Self {
        self.params.record_trace = yes;
        self
    }

    /// Sets the power-iteration tolerance.
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.params.tolerance = tolerance;
        self
    }

    /// Sets the power-iteration cap.
    pub fn max_iterations(mut self, n: usize) -> Self {
        self.params.max_iterations = n;
        self
    }

    /// Sets the reference node (label, with numeric fallback, or node id).
    pub fn reference(mut self, r: impl Into<ReferenceSpec>) -> Self {
        self.reference = Some(r.into());
        self
    }

    /// Sets the seed (reference) nodes of a batch query, one per requested
    /// personalization; executed with [`Query::run_batch`]. The
    /// stationary-distribution algorithms solve all seeds in one
    /// multi-vector sweep over the graph.
    pub fn seeds<S: Into<ReferenceSpec>>(mut self, seeds: impl IntoIterator<Item = S>) -> Self {
        self.seeds = seeds.into_iter().map(Into::into).collect();
        self
    }

    /// How many top entries [`QueryResult::top_entries`] returns
    /// (default 100). The algorithm still computes the full ranking; use
    /// [`Query::top_k`] when only the top-k is needed at all.
    pub fn top(mut self, n: usize) -> Self {
        self.top = n;
        self
    }

    /// Requests a **top-k-only** query: the stationary-distribution
    /// algorithms skip the full-rank result path entirely — exact sweeps
    /// rank through a pruned heap-select straight out of the solver arena
    /// (zero `O(n)` result allocations), and personalized runs (PPR,
    /// Pers. CheiRank) first try certified adaptive forward push
    /// ([`crate::topk`]), which touches only the seed's neighbourhood and
    /// falls back to the exact kernel when rank k and k+1 cannot be
    /// separated. The returned node set always equals the full run's
    /// top-k; on the push path, scores (and the order within the set) are
    /// estimate-accurate within the certified residual mass.
    ///
    /// [`QueryResult::scores`] is `None` in this mode; consume
    /// [`QueryResult::top_entries`] / [`QueryResult::ranking`] instead.
    /// Algorithms without a score vector to prune (CycleRank, 2DRank)
    /// treat this exactly like [`Query::top`].
    pub fn top_k(mut self, k: usize) -> Self {
        self.params.top_k = Some(k);
        self.top = k;
        self
    }

    /// Seeds the solve from a previous score vector (**warm start**):
    /// the iterative kernel starts at `prev` instead of the teleport
    /// distribution, so when `prev` is the fixed point of a similar query
    /// — the same query before a few edge mutations, a neighbouring seed —
    /// convergence takes a fraction of the cold sweep count.
    ///
    /// Warm starting is an execution strategy, not a semantic change: the
    /// solve converges to the same fixed point within the configured
    /// tolerance regardless of `prev`. Every PageRank-family query honors
    /// it; algorithms without an iterate to seed (CycleRank, 2DRank)
    /// ignore it. The vector's length must match the graph's node count.
    /// For a **single-edge** mutation far from the seed, the residual-push
    /// refresh ([`crate::topk::refresh_ppr`]) is cheaper still.
    pub fn warm_start(mut self, prev: impl Into<Arc<ScoreVector>>) -> Self {
        self.warm_start = Some(prev.into());
        self
    }

    // ------------------------------------------------------------- access

    /// The target (dataset id or graph).
    pub fn target(&self) -> &QueryTarget {
        &self.target
    }

    /// The selected algorithm name (as given; resolved at run time).
    pub fn algorithm_name(&self) -> &str {
        &self.algorithm
    }

    /// The parameter payload.
    pub fn params_ref(&self) -> &AlgorithmParams {
        &self.params
    }

    /// The reference spec, if set.
    pub fn reference_ref(&self) -> Option<&ReferenceSpec> {
        self.reference.as_ref()
    }

    /// The batch seed specs (empty for single-shot queries).
    pub fn seeds_ref(&self) -> &[ReferenceSpec] {
        &self.seeds
    }

    /// The configured display limit ([`Query::top`] / [`Query::top_k`]).
    pub fn top_limit(&self) -> usize {
        self.top
    }

    // ---------------------------------------------------------------- run

    /// Resolves the algorithm, dataset, and reference, validates
    /// parameters, and executes.
    pub fn run(self) -> Result<QueryResult, QueryError> {
        self.run_with(AlgorithmRegistry::global())
    }

    /// Like [`Query::run`], against an explicit registry (tests, embedders
    /// with private registries).
    pub fn run_with(self, registry: &AlgorithmRegistry) -> Result<QueryResult, QueryError> {
        let algo = registry
            .get(&self.algorithm)
            .ok_or_else(|| QueryError::UnknownAlgorithm(self.algorithm.clone()))?;

        let graph = match &self.target {
            QueryTarget::Graph(g) => Arc::clone(g),
            QueryTarget::Dataset(id) => resolve_dataset(id)?,
        };

        let reference = match &self.reference {
            None => None,
            Some(ReferenceSpec::Node(n)) => Some(*n),
            Some(ReferenceSpec::Label(l)) => Some(
                resolve_reference(&graph, l)
                    .ok_or_else(|| QueryError::UnknownReference(l.clone()))?,
            ),
        };
        if algo.is_personalized() && reference.is_none() {
            return Err(QueryError::MissingReference(algo.id().to_string()));
        }

        algo.validate(&self.params)?;
        let started = Instant::now();
        let output = match &self.warm_start {
            Some(prev) => algo.execute_warm(&graph, &self.params, reference, prev.as_slice())?,
            None => algo.execute(&graph, &self.params, reference)?,
        };
        let runtime = started.elapsed();

        Ok(QueryResult {
            algorithm: algo.id().to_string(),
            parameters: algo.summarize(&self.params),
            output,
            graph,
            reference,
            runtime,
            top: self.top,
        })
    }

    /// Executes the query once per seed ([`Query::seeds`]), batched: the
    /// stationary-distribution algorithms propagate every seed's score
    /// vector in one multi-vector sweep over the edge arrays, so the
    /// amortized per-seed cost is far below [`Query::run`] in a loop — the
    /// request-serving path for high-QPS personalization. Outputs are
    /// bitwise identical to per-seed sequential runs.
    pub fn run_batch(self) -> Result<BatchResult, QueryError> {
        self.run_batch_with(AlgorithmRegistry::global())
    }

    /// Like [`Query::run_batch`], against an explicit registry.
    pub fn run_batch_with(self, registry: &AlgorithmRegistry) -> Result<BatchResult, QueryError> {
        let algo = registry
            .get(&self.algorithm)
            .ok_or_else(|| QueryError::UnknownAlgorithm(self.algorithm.clone()))?;
        if !algo.is_personalized() {
            return Err(QueryError::NotBatchable(format!(
                "algorithm {:?} is global; batch queries personalize per seed",
                algo.id()
            )));
        }
        if self.seeds.is_empty() {
            return Err(QueryError::NotBatchable(format!(
                "no seeds given; call .seeds([...]) before running {:?} batched",
                algo.id()
            )));
        }

        let graph = match &self.target {
            QueryTarget::Graph(g) => Arc::clone(g),
            QueryTarget::Dataset(id) => resolve_dataset(id)?,
        };
        let seeds = self
            .seeds
            .iter()
            .map(|spec| match spec {
                ReferenceSpec::Node(n) => Ok(*n),
                ReferenceSpec::Label(l) => resolve_reference(&graph, l)
                    .ok_or_else(|| QueryError::UnknownReference(l.clone())),
            })
            .collect::<Result<Vec<NodeId>, QueryError>>()?;

        algo.validate(&self.params)?;
        let started = Instant::now();
        let outputs = algo.execute_batch(&graph, &self.params, &seeds)?;
        let runtime = started.elapsed();

        Ok(BatchResult {
            algorithm: algo.id().to_string(),
            parameters: algo.summarize(&self.params),
            outputs,
            graph,
            seeds,
            runtime,
            top: self.top,
        })
    }
}

/// Resolves a reference string to a node: by label first, then — for
/// unlabeled datasets such as bare edge-list uploads — as a numeric node
/// index. Labels win when both could apply.
///
/// The numeric fallback only binds to an **unlabeled** node: a node that
/// carries a (different) label must be addressed by that label. This is
/// what keeps raw-index references meaningful on datasets that were
/// reordered for cache locality at load time (`DatasetSpec::reorder`):
/// there, every originally-unlabeled node is labeled with its original
/// index (so the label branch resolves it to the same conceptual node as
/// before), while an index that used to denote a *labeled* node would
/// now silently land on whatever node the permutation put at that id —
/// rejecting it loudly beats computing plausible scores for the wrong
/// seed.
pub fn resolve_reference(graph: &DirectedGraph, reference: &str) -> Option<NodeId> {
    if let Some(n) = graph.node_by_label(reference) {
        return Some(n);
    }
    let idx: u32 = reference.parse().ok()?;
    let node = NodeId::new(idx);
    ((idx as usize) < graph.node_count() && graph.labels().get(node).is_none()).then_some(node)
}

// ----------------------------------------------------------------- result

/// The outcome of one [`Query::run`].
pub struct QueryResult {
    /// Resolved algorithm id (e.g. `cyclerank`).
    pub algorithm: String,
    /// Human-readable parameter summary (e.g. `k = 3, σ = exp`).
    pub parameters: String,
    /// The raw algorithm output (ranking, scores, diagnostics).
    pub output: RelevanceOutput,
    /// The graph the query ran on.
    pub graph: Arc<DirectedGraph>,
    /// The resolved reference node, for personalized runs.
    pub reference: Option<NodeId>,
    /// Wall-clock execution time (excludes dataset resolution).
    pub runtime: Duration,
    top: usize,
}

impl fmt::Debug for QueryResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryResult")
            .field("algorithm", &self.algorithm)
            .field("parameters", &self.parameters)
            .field("nodes", &self.graph.node_count())
            .field("reference", &self.reference)
            .field("runtime", &self.runtime)
            .finish_non_exhaustive()
    }
}

impl QueryResult {
    /// Top entries as `(label, score)` pairs, at most the configured
    /// `.top(n)` (ranking-only algorithms report scores of 0).
    pub fn top_entries(&self) -> Vec<(String, f64)> {
        self.output.top_k_labeled(&self.graph, self.top)
    }

    /// Per-node scores, when the algorithm produces them.
    pub fn scores(&self) -> Option<&ScoreVector> {
        self.output.scores.as_ref()
    }

    /// The full ranking, most relevant first.
    pub fn ranking(&self) -> &RankedList {
        &self.output.ranking
    }
}

/// The outcome of one [`Query::run_batch`]: one [`RelevanceOutput`] per
/// seed, in seed order, plus the shared graph and the wall-clock time of
/// the whole batch.
pub struct BatchResult {
    /// Resolved algorithm id (e.g. `ppr`).
    pub algorithm: String,
    /// Human-readable parameter summary (e.g. `α = 0.85`).
    pub parameters: String,
    /// Per-seed outputs, in the order the seeds were given.
    pub outputs: Vec<RelevanceOutput>,
    /// The graph the batch ran on.
    pub graph: Arc<DirectedGraph>,
    /// The resolved seed nodes, in input order.
    pub seeds: Vec<NodeId>,
    /// Wall-clock time of the whole batch (excludes dataset resolution).
    pub runtime: Duration,
    top: usize,
}

impl fmt::Debug for BatchResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchResult")
            .field("algorithm", &self.algorithm)
            .field("seeds", &self.seeds.len())
            .field("nodes", &self.graph.node_count())
            .field("runtime", &self.runtime)
            .finish_non_exhaustive()
    }
}

impl BatchResult {
    /// Number of seeds solved.
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// True when the batch had no seeds (never for a successful
    /// [`Query::run_batch`], which rejects empty seed sets).
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    /// Iterates `(seed, output)` pairs in seed order.
    pub fn per_seed(&self) -> impl Iterator<Item = (NodeId, &RelevanceOutput)> {
        self.seeds.iter().copied().zip(self.outputs.iter())
    }

    /// Top entries of seed `i` as `(label, score)` pairs, at most the
    /// configured `.top(n)`.
    pub fn top_entries(&self, i: usize) -> Vec<(String, f64)> {
        self.outputs[i].top_k_labeled(&self.graph, self.top)
    }

    /// Amortized wall-clock time per seed.
    pub fn runtime_per_seed(&self) -> Duration {
        self.runtime / self.outputs.len().max(1) as u32
    }

    /// Splits the batch into per-seed [`QueryResult`]s (sharing the graph
    /// `Arc`); `runtime` on each is the amortized per-seed time.
    pub fn into_results(self) -> Vec<QueryResult> {
        let per_seed = self.runtime_per_seed();
        self.seeds
            .into_iter()
            .zip(self.outputs)
            .map(|(seed, output)| QueryResult {
                algorithm: self.algorithm.clone(),
                parameters: self.parameters.clone(),
                output,
                graph: Arc::clone(&self.graph),
                reference: Some(seed),
                runtime: per_seed,
                top: self.top,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgraph::GraphBuilder;

    fn sample() -> DirectedGraph {
        GraphBuilder::from_edge_indices([(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2), (3, 0)])
    }

    #[test]
    fn query_runs_every_builtin() {
        let g = Arc::new(sample());
        for algo in Algorithm::ALL {
            let result =
                Query::on(&g).algorithm(algo).reference(NodeId::new(0)).top(3).run().unwrap();
            assert_eq!(result.algorithm, algo.id());
            assert_eq!(result.output.ranking.len(), g.node_count());
            assert_eq!(result.scores().is_some(), algo.produces_scores());
            assert_eq!(result.top_entries().len(), 3);
        }
    }

    #[test]
    fn personalized_without_reference_fails_fast() {
        let result = Query::on(sample()).algorithm("cyclerank").run();
        assert!(matches!(result, Err(QueryError::MissingReference(id)) if id == "cyclerank"));
    }

    #[test]
    fn unknown_algorithm_and_reference_error() {
        assert!(matches!(
            Query::on(sample()).algorithm("zerank").run(),
            Err(QueryError::UnknownAlgorithm(_))
        ));
        assert!(matches!(
            Query::on(sample()).algorithm("cyclerank").reference("nope").run(),
            Err(QueryError::UnknownReference(_))
        ));
    }

    #[test]
    fn numeric_reference_fallback() {
        let result =
            Query::on(sample()).algorithm("cyclerank").reference("2").top(2).run().unwrap();
        assert_eq!(result.reference, Some(NodeId::new(2)));
        // Out-of-range indices are rejected.
        assert!(matches!(
            Query::on(sample()).algorithm("cyclerank").reference("99").run(),
            Err(QueryError::UnknownReference(_))
        ));
    }

    #[test]
    fn numeric_fallback_never_binds_to_a_differently_labeled_node() {
        // Node 1 carries a real label: addressing it as "1" is rejected
        // (on reordered datasets that index would denote a different
        // conceptual node), while unlabeled node 2 still resolves by
        // index and the label itself always works.
        let mut g = sample();
        g.labels_mut().set(NodeId::new(1), "Hub");
        let g = Arc::new(g);
        assert!(matches!(
            Query::on(&g).algorithm("cyclerank").reference("1").run(),
            Err(QueryError::UnknownReference(_))
        ));
        let by_label = Query::on(&g).algorithm("cyclerank").reference("Hub").run().unwrap();
        assert_eq!(by_label.reference, Some(NodeId::new(1)));
        let by_index = Query::on(&g).algorithm("cyclerank").reference("2").run().unwrap();
        assert_eq!(by_index.reference, Some(NodeId::new(2)));
    }

    #[test]
    fn parameter_validation_fails_fast() {
        assert!(matches!(
            Query::on(sample()).algorithm("pagerank").alpha(1.5).run(),
            Err(QueryError::Algorithm(AlgoError::InvalidDamping(_)))
        ));
        assert!(matches!(
            Query::on(sample()).algorithm("cyclerank").reference(NodeId::new(0)).k(1).run(),
            Err(QueryError::Algorithm(AlgoError::InvalidMaxCycleLength(1)))
        ));
    }

    #[test]
    fn named_dataset_without_resolver_reports_clearly() {
        // Dataset resolution is exercised end-to-end in reldata/relengine;
        // relcore alone reports an actionable error for unknown ids. (A
        // resolver may already be installed by another test binary linking
        // reldata, so accept either error shape.)
        let err = Query::on("no-such-dataset-id").run().unwrap_err();
        assert!(matches!(err, QueryError::NoDatasetResolver(_) | QueryError::UnknownDataset(_)));
    }

    #[test]
    fn batch_query_matches_sequential_runs() {
        let g = Arc::new(sample());
        for algo in ["ppr", "pcheirank"] {
            let batch = Query::on(&g)
                .algorithm(algo)
                .seeds([NodeId::new(0), NodeId::new(2), NodeId::new(3)])
                .top(3)
                .run_batch()
                .unwrap();
            assert_eq!(batch.len(), 3);
            assert_eq!(batch.algorithm, algo);
            for (i, seed) in [0u32, 2, 3].into_iter().enumerate() {
                let single = Query::on(&g)
                    .algorithm(algo)
                    .reference(NodeId::new(seed))
                    .top(3)
                    .run()
                    .unwrap();
                assert_eq!(
                    single.scores().unwrap().as_slice(),
                    batch.outputs[i].scores.as_ref().unwrap().as_slice(),
                    "{algo} seed {seed}"
                );
                assert_eq!(single.top_entries(), batch.top_entries(i));
            }
            let results = Query::on(&g)
                .algorithm(algo)
                .seeds([NodeId::new(0), NodeId::new(2), NodeId::new(3)])
                .top(3)
                .run_batch()
                .unwrap()
                .into_results();
            assert_eq!(results.len(), 3);
            assert_eq!(results[1].reference, Some(NodeId::new(2)));
        }
    }

    #[test]
    fn batch_query_label_seeds_and_fallback_algorithms() {
        // Label seeds resolve like .reference(); cyclerank has no fused
        // batch and falls back to the sequential default.
        let mut b = GraphBuilder::new();
        b.add_labeled_edge("A", "B");
        b.add_labeled_edge("B", "A");
        b.add_labeled_edge("B", "C");
        b.add_labeled_edge("C", "B");
        let g = Arc::new(b.build());
        let batch =
            Query::on(&g).algorithm("cyclerank").seeds(["A", "C"]).top(2).run_batch().unwrap();
        assert_eq!(batch.top_entries(0)[0].0, "A");
        // Seed "C": the C↔B 2-cycle scores both equally; ties break by
        // node index, so assert membership rather than order.
        let top: Vec<String> = batch.top_entries(1).into_iter().map(|(l, _)| l).collect();
        assert!(top.contains(&"C".to_string()) && top.contains(&"B".to_string()), "{top:?}");
        assert!(batch.per_seed().count() == 2 && !batch.is_empty());
    }

    #[test]
    fn batch_query_rejections() {
        let g = Arc::new(sample());
        // Global algorithms are not batchable.
        assert!(matches!(
            Query::on(&g).algorithm("pagerank").seeds([NodeId::new(0)]).run_batch(),
            Err(QueryError::NotBatchable(_))
        ));
        // Empty seed sets are rejected.
        assert!(matches!(
            Query::on(&g).algorithm("ppr").run_batch(),
            Err(QueryError::NotBatchable(_))
        ));
        // Unknown seed labels fail like unknown references.
        assert!(matches!(
            Query::on(&g).algorithm("ppr").seeds(["nope"]).run_batch(),
            Err(QueryError::UnknownReference(_))
        ));
        // Parameter validation still applies.
        assert!(matches!(
            Query::on(&g).algorithm("ppr").alpha(1.5).seeds([NodeId::new(0)]).run_batch(),
            Err(QueryError::Algorithm(AlgoError::InvalidDamping(_)))
        ));
    }

    #[test]
    fn summary_and_runtime_populated() {
        let result = Query::on(sample())
            .algorithm("cyclerank")
            .reference(NodeId::new(0))
            .k(4)
            .run()
            .unwrap();
        assert_eq!(result.parameters, "k = 4, σ = exp");
        assert!(result.output.cycles_found.unwrap() > 0);
    }
}
