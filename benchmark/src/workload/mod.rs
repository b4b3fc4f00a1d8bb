//! The four workloads and what they share: the op contract, the peeled
//! in-process replay of one synchronous task, and the direct-solve
//! oracle.

mod cold_solve;
mod compare;
mod edit_refresh;
mod hot_serve;

use crate::client::Client;
use crate::stack::{Scale, Stack};
use crate::trace::{inproc, SpanId, Tracer};
use relcore::{with_arena, Algorithm, Query, QueryResult, SweepKernel, TeleportVector};
use relengine::{TaskId, TaskResult, TaskSpec};
use relgraph::{DirectedGraph, NodeId};
use relserver::Response;
use std::sync::Arc;
use std::time::Duration;

/// `(name, why)` of every workload, in run order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "cold_solve",
        "never-repeated full-rank PPR on a 64k-node/0.94M-edge graph: the sweep kernel does ~95% of the work, cache and HTTP none",
    ),
    (
        "hot_serve",
        "Zipf over 192 cached keys on 2 connections: every op is a result-cache hit, so server and engine plumbing do all the work and the kernel none",
    ),
    (
        "edit_refresh",
        "durable edge add/remove then a forced-miss CycleRank: journal fsync, snapshot rebuild, datastore re-put and cache invalidation beside a read",
    ),
    (
        "compare",
        "the paper's Fig. 2 flow: 14-task async query set (7 algorithms x 2 small graphs), polled then fetched; per-solve overhead dominates",
    ),
];

/// Replay depths: each is one public entry point further down the call
/// chain than the one before. Depth 0 is the HTTP client itself.
pub const CLIENT: usize = 0;
pub const INPROC: usize = 1;
pub const ENGINE: usize = 2;
pub const EXECUTE: usize = 3;
pub const QUERY: usize = 4;
pub const LEAF: usize = 5;

/// Root span name of an op performed at each depth.
pub const DEPTH_SPANS: [&str; 6] = ["client", "inproc", "engine", "execute", "query", "leaf"];

/// How long an in-process wait on the engine may take.
const ENGINE_WAIT: Duration = Duration::from_secs(120);

pub trait Workload: Sync {
    fn stack(&self) -> &Stack;

    /// Closed-loop client connections (each is one thread; never more
    /// than the host has cores).
    fn connections(&self) -> usize {
        1
    }

    /// Deepest replay depth an op really reaches. Deeper depths replay
    /// the op's *miss twin* (what the cache saved) and stay out of the
    /// ledger sum.
    fn on_path_depth(&self) -> usize {
        LEAF
    }

    /// How many engine workers one op keeps busy at once; the serial
    /// replay below the engine is divided by it when the engine layer's
    /// self time is derived.
    fn engine_parallelism(&self) -> f64 {
        1.0
    }

    /// Answered ops after which `peak_rss_mb` is read — about half of what
    /// a window yields at baseline. Every task leaves a status record, a
    /// stored result and a log behind for the life of the process, so
    /// memory at window *end* grows with the number of ops served: a
    /// change that made the workload faster would be charged for the
    /// memory of the extra ops, and a slow stretch of the host would read
    /// as a saving.
    fn rss_ops(&self) -> u64;

    /// Op `i` of connection `conn` over HTTP, oracle included. Returns the
    /// client-observed latency: first byte sent to last byte of the op's
    /// last response received (checks excluded).
    fn op(&self, conn: usize, i: u64, http: &mut Client) -> Result<Duration, String>;

    /// The same op `i`, entered in-process at `depth` (`INPROC..=LEAF`)
    /// under a root span named `DEPTH_SPANS[depth]`.
    fn replay(&self, depth: usize, i: u64, tr: &mut Tracer) -> Result<(), String>;

    /// Post-window oracle. Consumes the workload: checks may need to tear
    /// the stack down (reboot-and-compare).
    fn finish(self: Box<Self>) -> Result<(), String>;

    /// `(dataset id, graph digest)` of every graph this run generated.
    fn graphs(&self) -> Vec<(String, String)>;
}

pub fn setup(name: &str, seed: u64, scale: Scale) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "cold_solve" => Box::new(cold_solve::ColdSolve::setup(seed, scale)?),
        "hot_serve" => Box::new(hot_serve::HotServe::setup(seed)?),
        "edit_refresh" => Box::new(edit_refresh::EditRefresh::setup(seed, scale)?),
        "compare" => Box::new(compare::Compare::setup(seed, scale)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

// ------------------------------------------------------------------ tasks

/// One task as a client writes it and as the server parses it. Built
/// before an op's clock or root span starts, so neither ever covers the
/// harness's own JSON work.
#[derive(Debug, Clone)]
pub struct Task {
    /// Request body: dataset, algorithm, optional damping and source;
    /// everything else defaulted by the server.
    pub body: String,
    /// `body` parsed exactly as the route parses it.
    pub spec: TaskSpec,
}

impl Task {
    pub fn new(
        dataset: &str,
        algorithm: Algorithm,
        damping: Option<f64>,
        source: Option<&str>,
    ) -> Result<Task, String> {
        let damping = damping.map(|d| format!(r#","damping":{d}"#)).unwrap_or_default();
        let source = match source {
            Some(s) if algorithm.is_personalized() => format!(r#""{s}""#),
            _ => "null".to_string(),
        };
        // Serializing the enum yields its quoted wire tag (`"page_rank"`, ...).
        let tag = serde_json::to_string(&algorithm).map_err(|e| e.to_string())?;
        let body = format!(
            r#"{{"dataset":"{dataset}","params":{{"algorithm":{tag}{damping}}},"source":{source}}}"#
        );
        let spec = serde_json::from_str(&body).map_err(|e| format!("task body {body}: {e}"))?;
        Ok(Task { body, spec })
    }

    /// The `Query` the executor builds for this task against `graph`.
    fn query(&self, graph: &Arc<DirectedGraph>) -> Query {
        let mut query = Query::on(Arc::clone(graph)).params(self.spec.params).top(self.spec.top_k);
        if let Some(source) = &self.spec.source {
            query = query.reference(source.as_str());
        }
        query
    }

    /// Solved directly on `graph`, bypassing server, engine and cache: the
    /// reference the served answers are held against.
    pub fn direct(&self, graph: &Arc<DirectedGraph>) -> Result<Answer, String> {
        Solved::Query(self.query(graph).run().map_err(|e| format!("direct query: {e}"))?).answer()
    }
}

/// What the oracles read off a finished task, whichever depth ran it.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// `None` only at `LEAF`, where no labelled ranking is produced.
    pub top: Option<Vec<(String, f64)>>,
    pub converged: Option<bool>,
    pub cycles_found: Option<u64>,
}

impl From<TaskResult> for Answer {
    fn from(r: TaskResult) -> Answer {
        Answer { top: Some(r.top), converged: r.converged, cycles_found: r.cycles_found }
    }
}

pub fn parse_result(body: &[u8]) -> Result<TaskResult, String> {
    serde_json::from_slice(body).map_err(|e| format!("task result: {e}"))
}

/// A finished task in whatever form its depth produced. Turning it into
/// an [`Answer`] (JSON decoding, labelling) is harness work: callers do
/// it after the op's root span has ended.
pub enum Solved {
    Http(Response),
    Task(TaskResult),
    Query(QueryResult),
    Leaf(Answer),
}

impl Solved {
    pub fn answer(self) -> Result<Answer, String> {
        Ok(match self {
            Solved::Http(response) => parse_result(&response.body)?.into(),
            Solved::Task(result) => result.into(),
            Solved::Query(r) => Answer {
                top: Some(r.top_entries()),
                converged: r.output.convergence.map(|c| c.converged),
                cycles_found: r.output.cycles_found,
            },
            Solved::Leaf(answer) => answer,
        })
    }
}

// ------------------------------------------------------- one task, peeled

/// One stationary solve the way every kernel-family algorithm runs it:
/// kernel construction (the O(V) inverse-weight pass) plus
/// `SweepKernel::solve`.
pub fn kernel_solve(
    view: relgraph::GraphView<'_>,
    params: &relcore::AlgorithmParams,
    reference: Option<NodeId>,
) -> Result<relcore::SweepOutcome, String> {
    let teleport = TeleportVector::for_reference(view.node_count(), reference)
        .map_err(|e| format!("teleport: {e}"))?;
    let kernel = SweepKernel::new(view).map_err(|e| format!("kernel: {e}"))?;
    kernel.solve(&params.solver_config(), &teleport).map_err(|e| format!("solve: {e}"))
}

/// The bottom of the chain for `spec`: the kernel solve(s) or the cycle
/// enumeration its algorithm reduces to, called directly.
fn leaf(spec: &TaskSpec, graph: &DirectedGraph) -> Result<Answer, String> {
    let reference = match &spec.source {
        Some(s) if spec.params.algorithm.is_personalized() => Some(
            relcore::query::resolve_reference(graph, s)
                .ok_or_else(|| format!("unknown reference {s:?}"))?,
        ),
        _ => None,
    };
    let views = match spec.params.algorithm {
        Algorithm::PageRank | Algorithm::PersonalizedPageRank => vec![graph.view()],
        Algorithm::CheiRank | Algorithm::PersonalizedCheiRank => vec![graph.transposed()],
        Algorithm::TwoDRank | Algorithm::PersonalizedTwoDRank => {
            vec![graph.view(), graph.transposed()]
        }
        Algorithm::CycleRank => {
            let r = reference.ok_or("cyclerank needs a reference")?;
            let out = relcore::cyclerank::cyclerank(graph, r, &spec.params.cyclerank_config())
                .map_err(|e| format!("cyclerank: {e}"))?;
            return Ok(Answer { top: None, converged: None, cycles_found: Some(out.cycles_found) });
        }
    };
    let mut converged = true;
    for view in views {
        converged &= kernel_solve(view, &spec.params, reference)?.convergence.converged;
    }
    Ok(Answer { top: None, converged: Some(converged), cycles_found: None })
}

/// Runs one synchronous task at `depth`, each public entry point under
/// its own span (children of `parent`).
pub fn solve_at(
    stack: &Stack,
    depth: usize,
    task: &Task,
    tr: &mut Tracer,
    parent: SpanId,
    op: u64,
) -> Result<Solved, String> {
    let engine = &stack.engine;
    let executor = engine.executor();
    let spec = &task.spec;
    match depth {
        INPROC => {
            inproc(stack, tr, parent, op, "POST", "/api/tasks?sync=1", &task.body).map(Solved::Http)
        }
        ENGINE => tr
            .span("submit_wait", Some(parent), op, || {
                let id = engine.submit(spec.clone());
                engine.wait(&id, ENGINE_WAIT)
            })
            .map(Solved::Task)
            .map_err(|e| format!("submit+wait: {e}")),
        EXECUTE => tr
            .span("executor_execute", Some(parent), op, || executor.execute(&TaskId::fresh(), spec))
            .map(Solved::Task)
            .map_err(|e| format!("execute: {e}")),
        _ => {
            // Below the executor: its graph and its per-dataset arena, so
            // the direct calls sweep the same warm buffers the served
            // path does.
            let graph = executor.dataset(&spec.dataset).map_err(|e| format!("dataset: {e}"))?;
            let arena = executor.arena_for(&spec.dataset);
            if depth == QUERY {
                let query = task.query(&graph);
                tr.span("query_run", Some(parent), op, || with_arena(&arena, || query.run()))
                    .map(Solved::Query)
                    .map_err(|e| format!("query: {e}"))
            } else {
                tr.span("kernel", Some(parent), op, || with_arena(&arena, || leaf(spec, &graph)))
                    .map(Solved::Leaf)
            }
        }
    }
}

/// Seeded, never-repeating reference nodes of one dataset: a permutation
/// of the non-hub original indices the graph can resolve (as a label on
/// reordered catalog graphs and uploads, as a node index on generated
/// ones; an upload lacks the nodes its edge list never mentions).
pub struct Sources(Vec<u32>);

impl Sources {
    pub fn new(graph: &DirectedGraph, seed: u64) -> Sources {
        let mut picks =
            crate::stack::permutation(crate::stack::HUBS, graph.node_count() as u32, seed);
        picks.retain(|i| relcore::query::resolve_reference(graph, &i.to_string()).is_some());
        Sources(picks)
    }

    pub fn get(&self, i: u64) -> String {
        self.0[(i % self.0.len() as u64) as usize].to_string()
    }
}
