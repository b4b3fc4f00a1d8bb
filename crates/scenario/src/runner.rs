//! Executes one scenario against the real engine stack and checks every
//! step against the model oracle.
//!
//! The harness owns a temp directory, a [`FaultInjector`]-backed
//! [`DatasetStore`], and at most one live [`Executor`] (none while
//! "crashed"). Every step runs under `catch_unwind`: a panic anywhere in
//! the stack is a scenario failure with the step pinpointed, never a
//! harness abort. Engine-level rejections (mutation bounced by a fault,
//! query against a crashed process, bad algorithm name, a spec the task
//! rules refuse, an unknown dataset or source) are ordinary outcomes; any
//! other query failure is a violation. The harness verifies the engine's
//! *guarantees*:
//!
//! * a rejected mutation leaves the in-memory graph exactly at the last
//!   acked state (never ack-then-lose, and never lose-without-ack);
//! * every successful query matches a fresh cache-free dense re-solve;
//! * top-k serving respects its residual certificate;
//! * warm-started solves agree with cold ones at the fixed point;
//! * recovery is bit-deterministic and covers every acked version;
//! * cache counters are monotonic.
//!
//! Scenarios end with an implicit [`ScenarioOp::Recover`] unless they
//! already finish with one, so every run closes with the durability
//! check.

use crate::model::{Scenario, ScenarioOp};
use relcore::runner::{Algorithm, AlgorithmParams};
use relcore::Query;
use relengine::{
    BatchSpec, EdgeOp, EdgeSpec, EngineError, Executor, GraphPersistence, TaskBuilder, TaskId,
    TaskSpec,
};
use relgraph::{DirectedGraph, NodeId};
use relstore::{DatasetStore, FaultInjector, FaultPlan};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

/// Why a scenario failed, pinpointed to the step that violated an
/// invariant (`step == ops.len()` means the implicit final recovery).
#[derive(Debug, Clone, PartialEq)]
pub struct StepFailure {
    /// Index into [`Scenario::ops`].
    pub step: usize,
    /// Human-readable description of the violated invariant.
    pub message: String,
}

/// The outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scenario name.
    pub name: String,
    /// Steps executed (including the failing one).
    pub steps: usize,
    /// The first invariant violation, if any.
    pub failure: Option<StepFailure>,
}

impl RunReport {
    /// True when every step and the final durability check passed.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

/// Runs `sc` to completion (or first failure) in a fresh temp directory.
/// `seed` only namespaces the directory — all randomness in a scenario
/// is fixed at expansion time, so the same scenario always reproduces
/// the same outcome.
pub fn run_scenario(sc: &Scenario, seed: u64) -> RunReport {
    let mut h = Harness::new(seed);
    let mut steps = 0;
    let mut failure = None;
    for (step, op) in sc.ops.iter().enumerate() {
        steps = step + 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| h.apply(op)));
        let err = match outcome {
            Ok(Ok(())) => None,
            Ok(Err(msg)) => Some(msg),
            Err(panic) => Some(format!("step panicked: {}", panic_message(&panic))),
        };
        if let Some(message) = err {
            failure = Some(StepFailure { step, message });
            break;
        }
    }
    // Implicit final recovery: every scenario ends on the durability
    // check unless it already did.
    if failure.is_none()
        && !h.acked.is_empty()
        && !matches!(sc.ops.last(), Some(ScenarioOp::Recover))
    {
        let outcome = catch_unwind(AssertUnwindSafe(|| h.apply(&ScenarioOp::Recover)));
        let err = match outcome {
            Ok(Ok(())) => None,
            Ok(Err(msg)) => Some(msg),
            Err(panic) => Some(format!("final recovery panicked: {}", panic_message(&panic))),
        };
        if let Some(message) = err {
            failure = Some(StepFailure { step: sc.ops.len(), message });
        }
    }
    RunReport { name: sc.name.clone(), steps, failure }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Live state of one scenario run.
struct Harness {
    /// Dropped before the directory is removed.
    ex: Option<Executor>,
    inj: FaultInjector,
    dir: PathBuf,
    /// Last acknowledged `(version, digest)` per dataset — the durability
    /// baseline recovery is checked against.
    acked: BTreeMap<String, (u64, u64)>,
    /// Monotonicity floor for the result-cache counters
    /// `(hits, misses, evictions)`; reset on crash/recover.
    cache_floor: (u64, u64, u64),
}

impl Harness {
    fn new(seed: u64) -> Harness {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "relscenario-{}-{seed}-{n}-{}",
            std::process::id(),
            rand::random::<u64>()
        ));
        std::fs::create_dir_all(&dir).expect("scenario temp dir");
        let inj = FaultInjector::default();
        let mut h = Harness { ex: None, inj, dir, acked: BTreeMap::new(), cache_floor: (0, 0, 0) };
        h.ex = Some(h.live_executor().expect("fresh store opens cleanly"));
        h
    }

    /// An executor persisting through the (currently disarmed or armed)
    /// fault-injecting backend.
    fn live_executor(&self) -> Result<Executor, String> {
        let store = DatasetStore::open_with_vfs(&self.dir, Arc::new(self.inj.clone()))
            .map_err(|e| format!("store open failed: {e}"))?;
        let mut ex = Executor::new();
        ex.attach_persistence(Arc::new(GraphPersistence::with_store(store)));
        // Zero backoff keeps scenarios wall-clock free: every mutation
        // after a failure is a probe, so outcomes depend only on the op
        // sequence and the armed fault plan.
        ex.set_degraded_backoff(std::time::Duration::ZERO);
        ex.recover_persisted().map_err(|e| format!("recovery on open failed: {e}"))?;
        Ok(ex)
    }

    /// A clean-backend executor recovered from the directory — the
    /// "restarted process" the durability invariants are checked on.
    fn clean_recovered(&self) -> Result<Executor, String> {
        let mut ex = Executor::new();
        ex.attach_persistence(Arc::new(
            GraphPersistence::open(&self.dir).map_err(|e| format!("recovery open failed: {e}"))?,
        ));
        ex.recover_persisted().map_err(|e| format!("recovery replay failed: {e}"))?;
        Ok(ex)
    }

    fn digest_of(ex: &Executor, id: &str) -> Option<(u64, u64)> {
        let (g, v) = ex.dataset_versioned(id).ok()?;
        Some((v, relstore::graph_digest(&g, v)))
    }

    /// Applies one op; `Err` is an invariant violation.
    fn apply(&mut self, op: &ScenarioOp) -> Result<(), String> {
        match op {
            ScenarioOp::Upload { dataset, edges } => self.upload(dataset, edges),
            ScenarioOp::Mutate { dataset, add, remove } => self.mutate(dataset, add, remove),
            ScenarioOp::Query { dataset, algorithm, source, top_k } => {
                self.query(dataset, algorithm, source, *top_k, None)
            }
            ScenarioOp::TopK { dataset, algorithm, source, k } => {
                self.query(dataset, algorithm, source, *k, Some(*k))
            }
            ScenarioOp::Batch { dataset, algorithm, sources, top_k } => {
                self.batch(dataset, algorithm, sources, *top_k)
            }
            ScenarioOp::WarmRefresh { dataset, algorithm, source } => {
                self.warm_refresh(dataset, algorithm, source)
            }
            ScenarioOp::CompactionTrigger { dataset } => self.compaction(dataset),
            ScenarioOp::CacheStat => self.cache_stat(),
            ScenarioOp::InjectFault { at_op, kind } => {
                self.inj.arm(FaultPlan::one(*at_op, kind.kind()));
                Ok(())
            }
            ScenarioOp::Crash => {
                self.ex = None;
                self.cache_floor = (0, 0, 0);
                Ok(())
            }
            ScenarioOp::Recover => self.recover(),
        }
    }

    fn upload(&mut self, dataset: &str, edges: &[EdgeSpec]) -> Result<(), String> {
        let Some(ex) = &self.ex else { return Ok(()) };
        let mut b = relgraph::GraphBuilder::new();
        for e in edges {
            let u = b.add_labeled_node(&e.source);
            let v = b.add_labeled_node(&e.target);
            b.add_weighted_edge(u, v, e.weight.unwrap_or(1.0));
        }
        match ex.register_graph(dataset, b.build()) {
            Ok(()) => {
                let d = Self::digest_of(ex, dataset)
                    .ok_or_else(|| format!("registered dataset {dataset:?} unreadable"))?;
                self.acked.insert(dataset.to_string(), d);
            }
            Err(_) => {
                // Rejected registration (duplicate id, or the initial
                // snapshot hit an injected fault): the dataset must not
                // be half-registered.
                if ex.dataset_versioned(dataset).is_ok() && !self.acked.contains_key(dataset) {
                    return Err(format!(
                        "rejected registration left dataset {dataset:?} registered"
                    ));
                }
            }
        }
        Ok(())
    }

    fn mutate(
        &mut self,
        dataset: &str,
        add: &[EdgeSpec],
        remove: &[EdgeSpec],
    ) -> Result<(), String> {
        let Some(ex) = &self.ex else { return Ok(()) };
        let ops: Vec<EdgeOp> = add
            .iter()
            .cloned()
            .map(EdgeOp::Add)
            .chain(remove.iter().cloned().map(EdgeOp::Remove))
            .collect();
        if ops.is_empty() {
            return Ok(());
        }
        match ex.mutate_dataset(dataset, &ops) {
            Ok(outcome) => {
                let d = Self::digest_of(ex, dataset)
                    .ok_or_else(|| format!("mutated dataset {dataset:?} unreadable"))?;
                if outcome.version != d.0 {
                    return Err(format!(
                        "ack reports version {} but the graph is at {}",
                        outcome.version, d.0
                    ));
                }
                self.acked.insert(dataset.to_string(), d);
            }
            Err(_) => {
                // Never ack-then-lose, and never mutate-then-reject: a
                // rejected batch leaves the graph at the acked state.
                if let (Some(&(av, ad)), Some((v, dg))) =
                    (self.acked.get(dataset), Self::digest_of(ex, dataset))
                {
                    if (v, dg) != (av, ad) {
                        return Err(format!(
                            "rejected mutation changed dataset {dataset:?}: \
                             acked v{av} (digest {ad:#x}), live v{v} (digest {dg:#x})"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn query(
        &mut self,
        dataset: &str,
        algorithm: &str,
        source: &Option<String>,
        top_k: usize,
        certified_k: Option<usize>,
    ) -> Result<(), String> {
        let Some(ex) = &self.ex else { return Ok(()) };
        let Ok(algo) = algorithm.parse::<Algorithm>() else {
            return Ok(()); // unknown algorithm: rejected
        };
        let mut builder = TaskBuilder::new(dataset).algorithm(algo).top_k(top_k);
        if let Some(s) = source {
            builder = builder.source(s.as_str());
        }
        let Ok(mut spec) = builder.build() else {
            return Ok(()); // rejected by the task rules (missing source)
        };
        if let Some(k) = certified_k {
            spec.serve_top_k(k);
        }
        let result = match ex.execute(&TaskId::fresh(), &spec) {
            Ok(result) => result,
            Err(e) if rejected(&e) => return Ok(()),
            Err(e) => return Err(format!("execute failed: {e}")),
        };
        let bound = score_bound(&spec.params, result.residual);
        oracle_check(ex, &spec, &result.top, bound)
    }

    fn batch(
        &mut self,
        dataset: &str,
        algorithm: &str,
        sources: &[String],
        top_k: usize,
    ) -> Result<(), String> {
        let Some(ex) = &self.ex else { return Ok(()) };
        let Ok(algo) = algorithm.parse::<Algorithm>() else { return Ok(()) };
        let spec = BatchSpec {
            dataset: dataset.to_string(),
            params: AlgorithmParams::new(algo),
            sources: sources.to_vec(),
            top_k,
        };
        if spec.validate().is_err() {
            return Ok(()); // rejected by the batch rules (no seeds, global algorithm)
        }
        let rows: Vec<(TaskId, TaskSpec)> =
            spec.rows().into_iter().map(|row| (TaskId::fresh(), row)).collect();
        let mut ended = vec![None; rows.len()];
        ex.execute_job(&rows, |_| true, |i, outcome, _| ended[i] = Some(outcome));
        for ((_, task), outcome) in rows.iter().zip(ended) {
            let r = match outcome {
                Some(Ok(r)) => r,
                Some(Err(e)) if rejected(&e) => continue,
                Some(Err(e)) => return Err(format!("batch execute failed: {e}")),
                None => return Err(format!("batch seed {:?} never ended", task.source)),
            };
            let bound = score_bound(&task.params, r.residual);
            oracle_check(ex, task, &r.top, bound)
                .map_err(|e| format!("batch seed {:?}: {e}", task.source))?;
        }
        Ok(())
    }

    fn warm_refresh(
        &mut self,
        dataset: &str,
        algorithm: &str,
        source: &Option<String>,
    ) -> Result<(), String> {
        let Some(ex) = &self.ex else { return Ok(()) };
        let Ok((graph, _)) = ex.dataset_versioned(dataset) else { return Ok(()) };
        let Ok(algo) = algorithm.parse::<Algorithm>() else { return Ok(()) };
        let params = AlgorithmParams::new(algo);
        let build = |g: &Arc<DirectedGraph>| {
            let mut q = Query::on(Arc::clone(g)).params(params).top(g.node_count().max(1));
            if let Some(s) = source {
                q = q.reference(s.as_str());
            }
            q
        };
        let Ok(cold) = build(&graph).run() else { return Ok(()) };
        let Some(cold_scores) = cold.output.scores.clone() else {
            return Ok(()); // ranking-only: no iterate to warm-start
        };
        let warm = build(&graph)
            .warm_start(cold_scores.clone())
            .run()
            .map_err(|e| format!("warm-started solve failed where cold succeeded: {e}"))?;
        let Some(warm_scores) = &warm.output.scores else {
            return Err("warm solve lost its score vector".to_string());
        };
        let res =
            |r: &relcore::QueryResult| r.output.convergence.map(|c| c.residual).unwrap_or(0.0);
        let bound = 20.0 * (res(&cold) + res(&warm) + 2.0 * params.tolerance) + 1e-12;
        for (i, (a, b)) in cold_scores.as_slice().iter().zip(warm_scores.as_slice()).enumerate() {
            if (a - b).abs() > bound {
                return Err(format!(
                    "warm != cold at the fixed point: node {i} cold {a} warm {b} \
                     (bound {bound:e})"
                ));
            }
        }
        Ok(())
    }

    fn compaction(&mut self, dataset: &str) -> Result<(), String> {
        let Some(ex) = &self.ex else { return Ok(()) };
        let Some(persist) = ex.persistence() else { return Ok(()) };
        let Ok((graph, version)) = ex.dataset_versioned(dataset) else { return Ok(()) };
        // Success rotates the journal into a snapshot; failure (injected
        // fault mid-rotation) must leave the durable state recoverable —
        // which the next Recover step verifies against `acked`.
        let _ = persist.write_snapshot(dataset, &graph, version);
        Ok(())
    }

    fn cache_stat(&mut self) -> Result<(), String> {
        let Some(ex) = &self.ex else { return Ok(()) };
        let s = ex.cache_stats();
        let (h, m, e) = self.cache_floor;
        if s.hits < h || s.misses < m || s.evictions < e {
            return Err(format!(
                "cache counters went backwards: floor ({h}, {m}, {e}), \
                 now ({}, {}, {})",
                s.hits, s.misses, s.evictions
            ));
        }
        self.cache_floor = (s.hits, s.misses, s.evictions);
        Ok(())
    }

    fn recover(&mut self) -> Result<(), String> {
        self.ex = None; // the process is gone; only the directory survives
        let rec1 = self.clean_recovered()?;
        let rec2 = self.clean_recovered()?;
        for (id, &(av, ad)) in &self.acked {
            let d1 = Self::digest_of(&rec1, id)
                .ok_or_else(|| format!("acked dataset {id:?} lost by recovery"))?;
            let d2 = Self::digest_of(&rec2, id)
                .ok_or_else(|| format!("acked dataset {id:?} lost by second recovery"))?;
            if d1 != d2 {
                return Err(format!("recovery is nondeterministic for {id:?}: {d1:?} vs {d2:?}"));
            }
            if d1.0 < av {
                return Err(format!(
                    "acked version {av} of {id:?} lost: recovery reproduced only v{}",
                    d1.0
                ));
            }
            if d1.0 == av && d1.1 != ad {
                return Err(format!(
                    "recovery of {id:?} reproduced v{av} with different bits: \
                     acked digest {ad:#x}, recovered {:#x}",
                    d1.1
                ));
            }
        }
        drop(rec2);
        drop(rec1);
        // Continue on the recovered state with a clean injector.
        self.inj.reset();
        let ex = self.live_executor()?;
        for (id, entry) in self.acked.iter_mut() {
            *entry = Self::digest_of(&ex, id)
                .ok_or_else(|| format!("dataset {id:?} missing after live recovery"))?;
        }
        self.ex = Some(ex);
        self.cache_floor = (0, 0, 0);
        Ok(())
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        self.ex = None;
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The error bound a served score may deviate from the oracle's fresh
/// solve by: the result's own residual certificate plus the solver
/// tolerance on the oracle side, with headroom for the contraction
/// factor (residuals bound the distance to the fixed point up to
/// ~1/(1−α)). Exact algorithms (CycleRank) carry no residual and get an
/// effectively-zero bound.
fn score_bound(params: &AlgorithmParams, residual: Option<f64>) -> f64 {
    20.0 * (residual.unwrap_or(0.0) + params.tolerance) + 1e-12
}

/// Whether an execute error is a legitimate rejection of a valid spec:
/// the dataset or a source does not resolve on the graph the engine holds.
/// Any other failure (a broken kernel, a batch row that never ended) is a
/// bug.
fn rejected(e: &EngineError) -> bool {
    matches!(e, EngineError::UnknownDataset(_) | EngineError::UnknownSource { .. })
}

/// Resolves a result label against the graph: label table first, then —
/// for unlabeled nodes — the numeric rendering of the node index.
fn resolve_label(graph: &DirectedGraph, label: &str) -> Option<NodeId> {
    if let Some(n) = graph.node_by_label(label) {
        return Some(n);
    }
    let idx: usize = label.parse().ok()?;
    (idx < graph.node_count()).then(|| NodeId::from_usize(idx))
}

/// The model check: every `(label, score)` the engine served must match
/// a fresh, cache-free dense solve of the same task on the **current**
/// graph within `bound`. Catches stale cache entries, broken
/// invalidation, wrong warm paths, and certificate violations in one
/// place — any of those shifts a score by far more than the bound.
fn oracle_check(
    ex: &Executor,
    spec: &TaskSpec,
    top: &[(String, f64)],
    bound: f64,
) -> Result<(), String> {
    let Ok((graph, _)) = ex.dataset_versioned(&spec.dataset) else {
        return Ok(()); // dataset vanished (crash between execute and check)
    };
    let mut params = spec.params;
    params.top_k = None; // the oracle always solves densely
    params.record_trace = false;
    let mut q = Query::on(Arc::clone(&graph)).params(params).top(graph.node_count().max(1));
    if let Some(s) = &spec.source {
        q = q.reference(s.as_str());
    }
    let exact = q.run().map_err(|e| format!("oracle re-solve failed: {e}"))?;
    match &exact.output.scores {
        Some(scores) => {
            for (label, score) in top {
                let node = resolve_label(&graph, label).ok_or_else(|| {
                    format!("served label {label:?} does not exist in the current graph")
                })?;
                let want = scores.get(node);
                if (score - want).abs() > bound {
                    return Err(format!(
                        "stale or wrong score for {label:?}: served {score}, fresh solve \
                         says {want} (bound {bound:e}, algorithm {})",
                        spec.params.algorithm.id()
                    ));
                }
            }
        }
        None => {
            // Ranking-only algorithms: served labels must exist and be
            // distinct (scores are pseudo-zeros by contract).
            let mut seen = std::collections::BTreeSet::new();
            for (label, _) in top {
                resolve_label(&graph, label).ok_or_else(|| {
                    format!("served label {label:?} does not exist in the current graph")
                })?;
                if !seen.insert(label.as_str()) {
                    return Err(format!("label {label:?} served twice in one ranking"));
                }
            }
        }
    }
    Ok(())
}
