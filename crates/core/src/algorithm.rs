//! The open algorithm API: the [`RelevanceAlgorithm`] trait and its
//! serializable metadata types.
//!
//! Invocation goes through an object-safe trait rather than a `match` on
//! the closed `Algorithm` enum: any type implementing
//! [`RelevanceAlgorithm`] can be registered in the
//! [`crate::registry::AlgorithmRegistry`] and invoked through
//! [`crate::query::Query`] — including algorithms defined outside this
//! crate. The seven paper algorithms are themselves trait implementations
//! ([`crate::builtin`]); nothing in the platform treats them specially.

use crate::error::AlgoError;
use crate::memo::StationaryRead;
use crate::runner::{AlgorithmParams, RelevanceOutput};
use relgraph::{DirectedGraph, NodeId};
use serde::Serialize;

/// A personalized (or global) relevance algorithm over directed graphs.
///
/// Implementations must be cheap to construct and stateless: one instance
/// serves every query concurrently (the trait requires `Send + Sync`).
/// Metadata methods drive the CLI's `algorithms` table, the server's
/// `GET /api/algorithms` endpoint, and the task builder's validation.
///
/// # Implementing an out-of-tree algorithm
///
/// See [`crate::registry::AlgorithmRegistry`] for a complete registration
/// example.
pub trait RelevanceAlgorithm: Send + Sync {
    /// Stable machine identifier (lowercase, no spaces), e.g. `cyclerank`.
    fn id(&self) -> &str;

    /// Human-readable name as shown in result tables, e.g. `Cyclerank`.
    fn display_name(&self) -> &str;

    /// Alternative lookup names (already normalized: lowercase, no
    /// `-`/`_`/space). The registry resolves these alongside [`Self::id`].
    fn aliases(&self) -> &[&str] {
        &[]
    }

    /// True if the algorithm needs a reference node.
    fn is_personalized(&self) -> bool;

    /// True if the algorithm produces per-node scores (as opposed to a
    /// ranking only, like 2DRank).
    fn produces_scores(&self) -> bool {
        true
    }

    /// The stationary vectors a full-rank run reads, as orientation ×
    /// teleport. Rows of a query set that read a common vector run as one
    /// engine job, which solves each vector once
    /// ([`crate::memo::VectorMemo`]). The default is none.
    fn stationary_reads(&self) -> &[StationaryRead] {
        &[]
    }

    /// The parameters the algorithm reads from [`AlgorithmParams`],
    /// advertised to UIs and the HTTP API.
    fn parameters(&self) -> Vec<ParamSpec> {
        Vec::new()
    }

    /// Checks parameter values before execution; called by the `Query`
    /// front door so bad parameters fail fast with a clear message.
    fn validate(&self, _params: &AlgorithmParams) -> Result<(), AlgoError> {
        Ok(())
    }

    /// Human-readable parameter summary for result tables (e.g.
    /// `k = 3, σ = exp` or `α = 0.85`).
    fn summarize(&self, params: &AlgorithmParams) -> String {
        format!("α = {}", params.damping)
    }

    /// Runs the algorithm. `reference` is `Some` exactly when the caller
    /// resolved a reference node; personalized algorithms may assume the
    /// front door enforced its presence but should still fail with
    /// [`AlgoError::MissingReference`] when invoked directly without one.
    fn execute(
        &self,
        graph: &DirectedGraph,
        params: &AlgorithmParams,
        reference: Option<NodeId>,
    ) -> Result<RelevanceOutput, AlgoError>;

    /// Runs the algorithm **warm-started** from a previous score vector
    /// (`prev`, one entry per node of a *prior* solve of a similar query —
    /// typically the same query before a graph mutation).
    ///
    /// The default implementation ignores `prev` and runs cold, which is
    /// always correct: warm starting is an execution strategy, never a
    /// semantic change. The stationary-distribution algorithms override it
    /// to seed the sweep kernel's iterate
    /// ([`crate::solver::SweepKernel::solve_warm`]), collapsing the sweep
    /// count when the fixed point moved only a little.
    fn execute_warm(
        &self,
        graph: &DirectedGraph,
        params: &AlgorithmParams,
        reference: Option<NodeId>,
        _prev: &[f64],
    ) -> Result<RelevanceOutput, AlgoError> {
        self.execute(graph, params, reference)
    }

    /// Runs the algorithm for many reference nodes on one graph, returning
    /// one output per reference in input order.
    ///
    /// The default implementation loops over [`Self::execute`]; algorithms
    /// with a cheaper batched formulation override it (the
    /// stationary-distribution family runs every seed through the one
    /// execution its single runs use, with the seeds that reach the sweep
    /// kernel sharing one lane group, see
    /// [`crate::solver::SweepKernel::solve_batch`]). Every override must
    /// return exactly the outputs the sequential loop would — in every
    /// serving mode: batching is an execution strategy, not a semantic
    /// change.
    fn execute_batch(
        &self,
        graph: &DirectedGraph,
        params: &AlgorithmParams,
        references: &[NodeId],
    ) -> Result<Vec<RelevanceOutput>, AlgoError> {
        references.iter().map(|&r| self.execute(graph, params, Some(r))).collect()
    }
}

/// One advertised parameter of an algorithm.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ParamSpec {
    /// Field name in [`AlgorithmParams`] / task JSON (e.g. `damping`).
    pub name: &'static str,
    /// Value kind: `float`, `int`, or `enum`.
    pub kind: &'static str,
    /// Default value, rendered as a string.
    pub default: String,
    /// One-line description (UI hover text).
    pub description: &'static str,
}

impl ParamSpec {
    /// Convenience constructor.
    pub fn new(
        name: &'static str,
        kind: &'static str,
        default: impl Into<String>,
        description: &'static str,
    ) -> Self {
        ParamSpec { name, kind, default: default.into(), description }
    }
}

/// Serializable description of a registered algorithm: what
/// `GET /api/algorithms` returns per entry.
#[derive(Debug, Clone, Serialize)]
pub struct AlgorithmDescriptor {
    /// Stable identifier.
    pub id: String,
    /// Display name.
    pub name: String,
    /// Whether a reference (source) node is required.
    pub personalized: bool,
    /// Whether per-node scores are produced.
    pub produces_scores: bool,
    /// Accepted parameters.
    pub parameters: Vec<ParamSpec>,
}

impl AlgorithmDescriptor {
    /// Builds the descriptor of one algorithm.
    pub fn of(algo: &dyn RelevanceAlgorithm) -> Self {
        AlgorithmDescriptor {
            id: algo.id().to_string(),
            name: algo.display_name().to_string(),
            personalized: algo.is_personalized(),
            produces_scores: algo.produces_scores(),
            parameters: algo.parameters(),
        }
    }
}
