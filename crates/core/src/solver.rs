//! The shared iterative-solver layer: one damped edge-sweep engine for
//! every stationary-distribution algorithm.
//!
//! PageRank, Personalized PageRank, CheiRank, and 2DRank are all the same
//! computation — iterate `x ← α·P·x + (1−α)·t` to a fixed point, where `P`
//! is the column-stochastic transition matrix of a [`GraphView`] and `t` a
//! teleport distribution — differing only in the *view orientation*
//! (CheiRank sweeps the transposed view) and the *teleport vector* (uniform
//! for global variants, concentrated on a reference node for personalized
//! ones). The seed codebase implemented that sweep five separate times;
//! this module implements it once.
//!
//! [`SweepKernel`] owns the per-view normalization state (`1/W(u)`, read
//! from the graph's build-time weight-sum cache) and executes one of two
//! interchangeable update [`Scheme`]s, both in `f64`:
//!
//! * [`Scheme::Power`] — sequential Jacobi (power) iteration in push form:
//!   each sweep scatters `α·x[u]/W(u)` along out-edges. The textbook
//!   baseline.
//! * [`Scheme::Parallel`] — the default: chunked pull. The node range
//!   splits into contiguous chunks, each pulled by one thread reading the
//!   immutable previous vector — no locks, no atomics, bitwise identical
//!   for every chunk count.
//!
//! Why no third scheme and no narrower score type: on the 64k-node
//! `wiki-big` graph a Gauss–Seidel scheme was 1.4–2.1× slower than
//! `Parallel`, and an `f32` score lane matched `f64`'s time once both ran
//! at the same tolerance.
//!
//! Every solve can record a [`ConvergenceTrace`] of per-iteration L1
//! residuals, which the engine, server, and CLI surface as progress
//! diagnostics.
//!
//! ## How a parallel sweep is split
//!
//! `Parallel` being the default *scheme* does not mean every solve spawns
//! threads. The private `chunks` module plans each sweep:
//!
//! * **How many chunks.** An explicit [`SolverConfig::threads`] is honored
//!   on every sweep (clamped to available parallelism and node count).
//!   With `threads: 0` a sweep takes one chunk per [`CHUNK_MIN_WORK`] of
//!   its work (`nodes + edges`), at most `cores ÷ parallel solves in
//!   flight` (a process-wide counter, re-read every sweep). One chunk
//!   runs inline on the caller with nothing spawned — the case for every
//!   graph under `2 × CHUNK_MIN_WORK`, and for any graph while another
//!   solve occupies the other core.
//! * **Where the cuts fall.** At equal `1 + in_degree` work, not equal
//!   node counts: hub-first graphs keep most edges in the lowest ids.
//! * **Who runs them.** Chunk 0 on the calling thread, the rest on scoped
//!   threads forked for that sweep and joined before it ends. There is no
//!   pool: nothing spins or parks between sweeps, and a process with no
//!   solve in flight owns no solver thread.
//!
//! [`CHUNK_MIN_WORK`] is measured, not guessed: its docs give the cutover
//! figures and the command that regenerates the table.
//!
//! On unweighted views the pull gathers from `y[u] = x[u]·(1/W(u))`,
//! filled in the pass that sums the dangling mass: one random read per
//! edge instead of two, and — the product being rounded once either way,
//! with nothing reassociated — the same bits. Weighted views evaluate
//! `x[u]·w·(1/W(u))` per edge as before.

use crate::arena::{current_arena, ArenaBuf};
pub use crate::chunks::CHUNK_MIN_WORK;
use crate::chunks::{for_each_chunk, ChunkPlanner};
use crate::error::AlgoError;
use crate::ppr::TeleportVector;
use crate::result::{top_k_pairs, ScoreVector};
use relgraph::{GraphView, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

// ------------------------------------------------------------------ scheme

/// Which update scheme a [`SweepKernel`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Scheme {
    /// Sequential Jacobi / power iteration (push formulation).
    Power,
    /// Chunked pull, split per sweep by the chunk planner (the default).
    #[default]
    Parallel,
}

impl Scheme {
    /// All schemes, baseline first.
    pub const ALL: [Scheme; 2] = [Scheme::Power, Scheme::Parallel];

    /// Stable machine identifier.
    pub fn id(self) -> &'static str {
        match self {
            Scheme::Power => "power",
            Scheme::Parallel => "parallel",
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

impl FromStr for Scheme {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().replace(['-', '_'], "").as_str() {
            "power" | "poweriteration" | "jacobi" => Ok(Scheme::Power),
            "parallel" | "par" | "pull" => Ok(Scheme::Parallel),
            other => Err(format!("unknown scheme {other:?} (expected power|parallel)")),
        }
    }
}

// ------------------------------------------------------------ convergence

/// Outcome of an iterative solve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Convergence {
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final L1 residual ‖x_{k+1} − x_k‖₁.
    pub residual: f64,
    /// Whether the residual dropped below the tolerance.
    pub converged: bool,
}

/// Per-iteration L1 residuals of one solve, recorded when
/// [`SolverConfig::record_trace`] is set.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceTrace {
    /// Residual after each sweep, in sweep order.
    pub residuals: Vec<f64>,
}

impl ConvergenceTrace {
    /// Number of recorded sweeps.
    pub fn len(&self) -> usize {
        self.residuals.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.residuals.is_empty()
    }

    /// Residual of the last sweep, if any.
    pub fn last(&self) -> Option<f64> {
        self.residuals.last().copied()
    }

    /// Empirical convergence rate: geometric mean of consecutive residual
    /// ratios (≈ the damping factor for power iteration). `None` with
    /// fewer than two sweeps.
    pub fn rate(&self) -> Option<f64> {
        let finite: Vec<f64> =
            self.residuals.iter().copied().filter(|r| r.is_finite() && *r > 0.0).collect();
        if finite.len() < 2 {
            return None;
        }
        let (first, last) = (finite[0], finite[finite.len() - 1]);
        Some((last / first).powf(1.0 / (finite.len() - 1) as f64))
    }
}

// ----------------------------------------------------------------- config

/// Shared configuration of every kernel solve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverConfig {
    /// Damping factor α ∈ (0, 1).
    pub damping: f64,
    /// Stop when the L1 norm of the score change drops below this.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
    /// Update scheme (default: [`Scheme::Parallel`]).
    pub scheme: Scheme,
    /// Chunks (one thread each) per [`Scheme::Parallel`] sweep, clamped to
    /// available parallelism and node count; `0` plans the count per
    /// sweep from the sweep's work and the cores free (module docs).
    pub threads: usize,
    /// Record a [`ConvergenceTrace`] of per-iteration residuals.
    pub record_trace: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            damping: 0.85,
            tolerance: 1e-10,
            max_iterations: 200,
            scheme: Scheme::default(),
            threads: 0,
            record_trace: false,
        }
    }
}

impl SolverConfig {
    /// Config with a specific damping factor and defaults elsewhere.
    pub fn with_damping(damping: f64) -> Self {
        SolverConfig { damping, ..Default::default() }
    }

    /// Sets the update scheme.
    pub fn with_scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Sets the chunk/thread count (0 = planned per sweep).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables residual tracing.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), AlgoError> {
        if !(self.damping > 0.0 && self.damping < 1.0) {
            return Err(AlgoError::InvalidDamping(self.damping));
        }
        if self.tolerance <= 0.0 || self.tolerance.is_nan() {
            return Err(AlgoError::InvalidParameter {
                name: "tolerance",
                message: format!("must be > 0, got {}", self.tolerance),
            });
        }
        if self.max_iterations == 0 {
            return Err(AlgoError::InvalidParameter {
                name: "max_iterations",
                message: "must be >= 1".into(),
            });
        }
        Ok(())
    }
}

/// Scores, convergence diagnostics, and optional residual trace of one
/// [`SweepKernel::solve`].
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The stationary distribution (sums to 1).
    pub scores: ScoreVector,
    /// Iteration count, final residual, converged flag.
    pub convergence: Convergence,
    /// Per-iteration residuals, when requested.
    pub trace: Option<ConvergenceTrace>,
}

/// The top-`k` slice of a stationary distribution, from
/// [`SweepKernel::solve_top_k`]: only `k` `(node, score)` pairs escape the
/// solve — the full score vector lives and dies in the solver arena, so
/// steady-state top-k serving performs zero `O(n)` allocations.
#[derive(Debug, Clone)]
pub struct TopKOutcome {
    /// The `k` highest-scoring nodes, descending (ties by ascending id),
    /// with their exact stationary scores.
    pub top: Vec<(NodeId, f64)>,
    /// Iteration count, final residual, converged flag.
    pub convergence: Convergence,
    /// Per-iteration residuals, when requested.
    pub trace: Option<ConvergenceTrace>,
}

/// A finished solve whose scores still live in the arena — the internal
/// result every scheme produces; [`SweepKernel::solve`] detaches the
/// buffer into a [`ScoreVector`], [`SweepKernel::solve_top_k`] ranks in
/// place and returns the buffer to the pool.
struct SolvedBuf {
    scores: ArenaBuf,
    convergence: Convergence,
    trace: Option<ConvergenceTrace>,
}

// ----------------------------------------------------------------- kernel

/// Widest lane group one fused batch sweep carries: wider batches split
/// into groups of this size, so [`SweepKernel::solve_batch`] working
/// memory stays `O(n · MAX_FUSED_LANES)` no matter how many seeds a
/// caller submits (three interleaved `f64` buffers ≈ 0.75 MB per million
/// nodes per lane). Traversal amortization has flattened well before this
/// width.
pub const MAX_FUSED_LANES: usize = 32;

/// The number of worker threads actually usable: `requested` (0 = all
/// cores), capped at available parallelism **and** the unit count, never
/// below 1.
pub fn effective_threads(requested: usize, units: usize) -> usize {
    // Read once: on Linux every call re-reads the affinity mask and the
    // cgroup quota files.
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    let available = *AVAILABLE
        .get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
    let requested = if requested == 0 { available } else { requested };
    requested.min(available).min(units).max(1)
}

/// What the parallel pull reads for each in-edge `u → v`.
#[derive(Clone, Copy)]
enum Gather<'x> {
    /// Unweighted view: `y[u] = x[u]·(1/W(u))`, scaled once per sweep in
    /// the pass that sums the dangling mass — one random read per edge
    /// instead of two. The product is rounded once either way, so this is
    /// bitwise the per-edge expression.
    Prescaled(&'x [f64]),
    /// Weighted view: `x[u]·w(u,v)·(1/W(u))`, evaluated per edge (scaling
    /// first would reassociate the product).
    PerEdge(&'x [f64]),
}

/// One reusable edge-sweep engine over a [`GraphView`].
///
/// Construction precomputes the inverse out-weight sums `1/W(u)` for the
/// view's orientation (O(V), reading the graph's build-time weight-sum
/// cache); [`SweepKernel::solve`] then runs any scheme against any
/// teleport vector. Every stationary-distribution built-in
/// ([`crate::builtin`]) is a thin parameterization of this type:
///
/// | Registry id | View | Teleport |
/// |-------------|------|----------|
/// | `pagerank` | forward | uniform |
/// | `ppr` | forward | reference node |
/// | `cheirank` | transposed | uniform |
/// | `pcheirank` | transposed | reference node |
/// | `2drank` / `p2drank` | both | uniform / reference |
pub struct SweepKernel<'a> {
    view: GraphView<'a>,
    /// `1/W(u)` per node in view orientation; `0.0` marks dangling nodes.
    inv_wsum: Vec<f64>,
}

impl<'a> SweepKernel<'a> {
    /// Builds a kernel for one view orientation.
    pub fn new(view: GraphView<'a>) -> Result<Self, AlgoError> {
        let n = view.node_count();
        if n == 0 {
            return Err(AlgoError::EmptyGraph);
        }
        let inv_wsum = (0..n)
            .map(|i| {
                let w = view.out_weight_sum(NodeId::from_usize(i));
                if w > 0.0 {
                    1.0 / w
                } else {
                    0.0
                }
            })
            .collect();
        Ok(SweepKernel { view, inv_wsum })
    }

    /// The view this kernel sweeps.
    pub fn view(&self) -> GraphView<'a> {
        self.view
    }

    /// Node count of the underlying graph.
    pub fn node_count(&self) -> usize {
        self.inv_wsum.len()
    }

    /// Runs the configured scheme to a stationary distribution.
    ///
    /// Working buffers come from the thread's current [`crate::arena::SolverArena`]
    /// (see [`crate::arena::with_arena`]); only the returned score vector
    /// escapes the arena, so a steady-state full-rank solve performs
    /// exactly one `O(n)` allocation. Use [`SweepKernel::solve_top_k`]
    /// when the caller only consumes the top-`k` — that path performs
    /// none.
    pub fn solve(
        &self,
        cfg: &SolverConfig,
        teleport: &TeleportVector,
    ) -> Result<SweepOutcome, AlgoError> {
        let out = self.solve_buf(cfg, teleport, None)?;
        Ok(SweepOutcome {
            scores: ScoreVector::new(out.scores.detach()),
            convergence: out.convergence,
            trace: out.trace,
        })
    }

    /// Like [`SweepKernel::solve`], but **warm-started**: the iterate is
    /// seeded from `prev` instead of the teleport vector. When `prev` is a
    /// (near-)fixed point of a *similar* problem — the same query before a
    /// handful of edge mutations, or a neighbouring seed — convergence
    /// takes a fraction of the cold sweep count, because the initial
    /// residual is the distance between the two fixed points rather than
    /// the distance from the teleport distribution.
    ///
    /// The warm path changes only the starting iterate: seeding with the
    /// dense teleport vector reproduces the cold solve **bitwise**
    /// (identical scores, iteration count, residuals — asserted by a
    /// proptest), and any start converges to the same fixed point within
    /// the configured tolerance.
    pub fn solve_warm(
        &self,
        cfg: &SolverConfig,
        teleport: &TeleportVector,
        prev: &[f64],
    ) -> Result<SweepOutcome, AlgoError> {
        let out = self.solve_buf(cfg, teleport, Some(prev))?;
        Ok(SweepOutcome {
            scores: ScoreVector::new(out.scores.detach()),
            convergence: out.convergence,
            trace: out.trace,
        })
    }

    /// The warm-started variant of [`SweepKernel::solve_top_k`]: seeds the
    /// iterate from `prev` (see [`SweepKernel::solve_warm`]) and returns
    /// only the top-`k` pairs, with the full vector living and dying in
    /// the solver arena.
    pub fn solve_top_k_warm(
        &self,
        cfg: &SolverConfig,
        teleport: &TeleportVector,
        prev: &[f64],
        k: usize,
    ) -> Result<TopKOutcome, AlgoError> {
        let out = self.solve_buf(cfg, teleport, Some(prev))?;
        Ok(TopKOutcome {
            top: top_k_pairs(&out.scores, k),
            convergence: out.convergence,
            trace: out.trace,
        })
    }

    /// Runs the configured scheme and returns only the top-`k`
    /// `(node, score)` pairs (exact scores, descending, ties by ascending
    /// id — identical to ranking the full [`SweepKernel::solve`] result
    /// and truncating). The full score vector never leaves the solver
    /// arena: after warm-up this path allocates no `O(n)` buffers, which
    /// is what makes it the high-QPS serving shape.
    pub fn solve_top_k(
        &self,
        cfg: &SolverConfig,
        teleport: &TeleportVector,
        k: usize,
    ) -> Result<TopKOutcome, AlgoError> {
        let out = self.solve_buf(cfg, teleport, None)?;
        Ok(TopKOutcome {
            top: top_k_pairs(&out.scores, k),
            convergence: out.convergence,
            trace: out.trace,
        })
    }

    fn solve_buf(
        &self,
        cfg: &SolverConfig,
        teleport: &TeleportVector,
        warm: Option<&[f64]>,
    ) -> Result<SolvedBuf, AlgoError> {
        cfg.validate()?;
        let n = self.node_count();
        if teleport.len() != n {
            return Err(AlgoError::InvalidParameter {
                name: "teleport",
                message: format!("teleport vector has {} entries for {} nodes", teleport.len(), n),
            });
        }
        if let Some(prev) = warm {
            if prev.len() != n {
                return Err(AlgoError::InvalidParameter {
                    name: "warm_start",
                    message: format!("warm-start vector has {} entries for {n} nodes", prev.len()),
                });
            }
        }
        match cfg.scheme {
            Scheme::Power => self.solve_power(cfg, teleport, warm),
            Scheme::Parallel => self.solve_parallel(cfg, teleport, warm),
        }
    }

    /// Pulls one node's damped in-neighbor sum from `x`. The CSR arms walk
    /// raw slices; the compact view decodes the delta-varint stream.
    #[inline]
    fn pull(&self, v: NodeId, x: &[f64]) -> f64 {
        let inv_wsum: &[f64] = &self.inv_wsum;
        let mut pulled = 0.0;
        match self.view.in_arrays(v) {
            Some((nbrs, Some(ws))) => {
                for (j, &u) in nbrs.iter().enumerate() {
                    pulled += x[u.index()] * ws[j] * inv_wsum[u.index()];
                }
            }
            Some((nbrs, None)) => {
                for &u in nbrs {
                    pulled += x[u.index()] * inv_wsum[u.index()];
                }
            }
            None if self.view.is_weighted() => {
                for (u, w) in self.view.in_edges(v) {
                    pulled += x[u.index()] * w * inv_wsum[u.index()];
                }
            }
            None => {
                for u in self.view.in_neighbors(v) {
                    pulled += x[u.index()] * inv_wsum[u.index()];
                }
            }
        }
        pulled
    }

    /// Mass currently sitting on dangling nodes.
    fn dangling_mass(&self, x: &[f64]) -> f64 {
        let mut mass = 0.0;
        for (&xi, &inv) in x.iter().zip(&self.inv_wsum) {
            if inv == 0.0 {
                mass += xi;
            }
        }
        mass
    }

    /// Fills `y[u] = x[u]·(1/W(u))` for [`Gather::Prescaled`] and returns
    /// the dangling mass, accumulated in the order [`Self::dangling_mass`]
    /// uses (the two passes are one).
    fn prescale(&self, x: &[f64], y: &mut [f64]) -> f64 {
        let mut mass = 0.0;
        for ((slot, &xi), &inv) in y.iter_mut().zip(x).zip(&self.inv_wsum) {
            if inv == 0.0 {
                mass += xi;
            }
            *slot = xi * inv;
        }
        mass
    }

    /// Sequential Jacobi (power) iteration, push formulation.
    fn solve_power(
        &self,
        cfg: &SolverConfig,
        teleport: &TeleportVector,
        warm: Option<&[f64]>,
    ) -> Result<SolvedBuf, AlgoError> {
        let n = self.node_count();
        let alpha = cfg.damping;
        let inv_wsum: &[f64] = &self.inv_wsum;
        let arena = current_arena();
        let mut x = arena.take(n);
        match warm {
            Some(prev) => x.copy_from_slice(prev),
            None => teleport.for_each(|i, w| x[i] = w),
        }
        let mut next = arena.take(n);
        let mut iterations = 0;
        let mut residual = f64::INFINITY;
        let mut trace = cfg.record_trace.then(ConvergenceTrace::default);

        while iterations < cfg.max_iterations {
            iterations += 1;
            let mut dangling = 0.0;
            next.iter_mut().for_each(|v| *v = 0.0);

            for (i, &xi) in x.iter().enumerate() {
                let u = NodeId::from_usize(i);
                if xi == 0.0 {
                    continue;
                }
                let inv = inv_wsum[i];
                if inv == 0.0 {
                    dangling += xi;
                    continue;
                }
                let share = alpha * xi * inv;
                match self.view.out_arrays(u) {
                    Some((nbrs, Some(ws))) => {
                        for (j, &v) in nbrs.iter().enumerate() {
                            next[v.index()] += share * ws[j];
                        }
                    }
                    Some((nbrs, None)) => {
                        for &v in nbrs {
                            next[v.index()] += share;
                        }
                    }
                    None if self.view.is_weighted() => {
                        for (v, w) in self.view.out_edges(u) {
                            next[v.index()] += share * w;
                        }
                    }
                    None => {
                        for v in self.view.out_neighbors(u) {
                            next[v.index()] += share;
                        }
                    }
                }
            }

            // Teleport + dangling redistribution, both along `teleport`.
            let base = 1.0 - alpha + alpha * dangling;
            teleport.for_each(|i, t| next[i] += base * t);

            let mut delta = 0.0;
            for (&a, &b) in x.iter().zip(next.iter()) {
                delta += (a - b).abs();
            }
            residual = delta;
            std::mem::swap(&mut x, &mut next);
            if let Some(t) = trace.as_mut() {
                t.residuals.push(residual);
            }
            if residual < cfg.tolerance {
                break;
            }
        }

        let converged = residual < cfg.tolerance;
        Ok(SolvedBuf {
            scores: x,
            convergence: Convergence { iterations, residual, converged },
            trace,
        })
    }

    /// Chunked pull: the node range splits into contiguous chunks, each
    /// pulled by one thread reading the immutable previous vector.
    /// Deterministic across chunk counts (each node's sum is accumulated
    /// by exactly one thread, in in-neighbor order), so how a sweep is
    /// split shows in wall-clock time only.
    ///
    /// The split is planned per sweep by a [`ChunkPlanner`]: an explicit
    /// thread count is honored exactly (up to the available-parallelism
    /// and node-count clamp); with `threads: 0` a sweep takes one chunk
    /// per [`CHUNK_MIN_WORK`] of its `nodes + edges`, within this solve's
    /// share of the cores. One chunk — every fixture-sized graph, and any
    /// graph while the cores are busy with other solves — runs inline
    /// with no thread spawned. Chunks are cut at equal work rather than
    /// equal node counts, chunk 0 runs on the calling thread, and every
    /// forked thread is joined before the sweep ends: between sweeps and
    /// between solves no solver-owned thread exists.
    fn solve_parallel(
        &self,
        cfg: &SolverConfig,
        teleport: &TeleportVector,
        warm: Option<&[f64]>,
    ) -> Result<SolvedBuf, AlgoError> {
        let n = self.node_count();
        let alpha = cfg.damping;
        let mut planner = ChunkPlanner::new(self.view, cfg.threads);
        let arena = current_arena();
        let mut teleport_dense = arena.take(n);
        teleport.for_each(|i, w| teleport_dense[i] = w);
        let mut x = arena.take(n);
        x.copy_from_slice(warm.unwrap_or(&teleport_dense));
        let mut next = arena.take(n);
        let mut scaled = (!self.view.is_weighted()).then(|| arena.take(n));
        let mut iterations = 0;
        let mut residual = f64::INFINITY;
        let mut trace = cfg.record_trace.then(ConvergenceTrace::default);

        while iterations < cfg.max_iterations {
            iterations += 1;
            let dangling = match scaled.as_deref_mut() {
                Some(y) => self.prescale(&x, y),
                None => self.dangling_mass(&x),
            };
            let base = 1.0 - alpha + alpha * dangling;
            let gather = match scaled.as_deref() {
                Some(y) => Gather::Prescaled(y),
                None => Gather::PerEdge(&x),
            };
            let tel: &[f64] = &teleport_dense;
            for_each_chunk(planner.plan(), 1, &mut next, |lo, out| {
                self.pull_chunk(gather, out, lo, alpha, base, tel);
            });

            // Stopping decision: one sequential index-order pass, so the
            // residual — and with it the iteration count and final scores
            // — is bitwise identical for every chunk count (per-chunk
            // partial sums would regroup float addends at the chunk
            // boundaries and could flip a stop right at the tolerance).
            let mut delta = 0.0;
            for (&a, &b) in x.iter().zip(next.iter()) {
                delta += (a - b).abs();
            }
            residual = delta;

            std::mem::swap(&mut x, &mut next);
            if let Some(t) = trace.as_mut() {
                t.residuals.push(residual);
            }
            if residual < cfg.tolerance {
                break;
            }
        }

        let converged = residual < cfg.tolerance;
        Ok(SolvedBuf {
            scores: x,
            convergence: Convergence { iterations, residual, converged },
            trace,
        })
    }

    /// Pulls new scores for the chunk `out` covering nodes
    /// `lo..lo + out.len()`.
    fn pull_chunk(
        &self,
        gather: Gather<'_>,
        out: &mut [f64],
        lo: usize,
        alpha: f64,
        base: f64,
        teleport_dense: &[f64],
    ) {
        let tel = &teleport_dense[lo..lo + out.len()];
        match gather {
            Gather::Prescaled(y) => {
                for (off, (slot, &t)) in out.iter_mut().zip(tel).enumerate() {
                    let v = NodeId::from_usize(lo + off);
                    let mut pulled = 0.0;
                    match self.view.in_arrays(v) {
                        Some((nbrs, _)) => {
                            for &u in nbrs {
                                pulled += y[u.index()];
                            }
                        }
                        None => {
                            for u in self.view.in_neighbors(v) {
                                pulled += y[u.index()];
                            }
                        }
                    }
                    *slot = alpha * pulled + base * t;
                }
            }
            Gather::PerEdge(x) => {
                for (off, (slot, &t)) in out.iter_mut().zip(tel).enumerate() {
                    let pulled = self.pull(NodeId::from_usize(lo + off), x);
                    *slot = alpha * pulled + base * t;
                }
            }
        }
    }

    // ------------------------------------------------------------- batched

    /// Solves `B = teleports.len()` independent stationary distributions in
    /// one multi-vector sweep: the edge arrays are traversed once per
    /// iteration and every visit updates all `B` score vectors, amortizing
    /// graph traversal and cache misses across seeds.
    ///
    /// The vectors are stored node-major (`x[i * B + b]`), so each edge
    /// visit touches `B` consecutive lanes. Per-lane arithmetic keeps the
    /// exact expression shape and accumulation order of the single-vector
    /// pull, and each lane tracks its own convergence (a converged lane's
    /// scores are snapshotted at the iteration where its residual crossed
    /// the tolerance), so **every outcome is bitwise identical to the
    /// corresponding independent [`SweepKernel::solve`] run** under
    /// [`Scheme::Parallel`]. [`Scheme::Power`] has no fused formulation
    /// and falls back to sequential per-teleport solves (trivially
    /// identical).
    ///
    /// Batches wider than [`MAX_FUSED_LANES`] are solved in groups of that
    /// size, bounding working memory at `O(n · MAX_FUSED_LANES)` for any
    /// seed count (lanes are independent, so grouping changes nothing but
    /// wall-clock layout).
    pub fn solve_batch(
        &self,
        cfg: &SolverConfig,
        teleports: &[TeleportVector],
    ) -> Result<Vec<SweepOutcome>, AlgoError> {
        cfg.validate()?;
        let n = self.node_count();
        for t in teleports {
            if t.len() != n {
                return Err(AlgoError::InvalidParameter {
                    name: "teleport",
                    message: format!("teleport vector has {} entries for {} nodes", t.len(), n),
                });
            }
        }
        match (cfg.scheme, teleports.len()) {
            (_, 0) => Ok(Vec::new()),
            (Scheme::Power, _) | (_, 1) => teleports.iter().map(|t| self.solve(cfg, t)).collect(),
            (Scheme::Parallel, _) => {
                let mut out = Vec::with_capacity(teleports.len());
                for group in teleports.chunks(MAX_FUSED_LANES) {
                    out.extend(self.solve_parallel_batch(cfg, group)?);
                }
                Ok(out)
            }
        }
    }

    /// The fused multi-vector variant of [`SweepKernel::solve_parallel`].
    ///
    /// Seeds converge at different sweep counts (a hub seed settles in a
    /// handful of iterations, a periphery seed in dozens), so converged
    /// lanes are *compacted out* of the working buffers: their scores are
    /// snapshotted at the sweep where their residual crossed the tolerance
    /// — exactly the single-vector stopping point — and the remaining
    /// lanes keep sweeping in a narrower interleave. Total lane-sweeps
    /// thus equal the sum of the individual runs' iteration counts; the
    /// fusion only amortizes traversal, it never adds work. Compaction is
    /// bitwise-invisible because every lane's arithmetic is independent of
    /// which other lanes share the buffer.
    fn solve_parallel_batch(
        &self,
        cfg: &SolverConfig,
        teleports: &[TeleportVector],
    ) -> Result<Vec<SweepOutcome>, AlgoError> {
        let n = self.node_count();
        let lanes = teleports.len();
        let alpha = cfg.damping;
        // The same planner as the single-vector solve. A fused sweep makes
        // wider visits over the same node/edge arrays, so forking breaks
        // even a little earlier than for one vector (measured between 50k
        // and 100k work at 2–16 lanes); not enough to earn the batch a
        // constant of its own.
        let mut planner = ChunkPlanner::new(self.view, cfg.threads);

        // Node-major interleave of the dense teleport vectors; `active[c]`
        // is the original lane index living in column `c`. All three
        // interleaved buffers come from the solver arena.
        let arena = current_arena();
        let mut active: Vec<usize> = (0..lanes).collect();
        let mut tel = arena.take(n * lanes);
        for (b, t) in teleports.iter().enumerate() {
            t.for_each(|i, v| tel[i * lanes + b] = v);
        }
        let mut x = arena.take(n * lanes);
        x.copy_from_slice(&tel);
        let mut next = arena.take(n * lanes);

        struct Lane {
            iterations: usize,
            residual: f64,
            converged: bool,
            /// Scores frozen at the iteration the lane converged.
            snapshot: Option<Vec<f64>>,
            trace: Option<ConvergenceTrace>,
        }
        let mut lane_state: Vec<Lane> = (0..lanes)
            .map(|_| Lane {
                iterations: 0,
                residual: f64::INFINITY,
                converged: false,
                snapshot: None,
                trace: cfg.record_trace.then(ConvergenceTrace::default),
            })
            .collect();

        let mut sweep = 0;
        let mut bases = vec![0.0f64; lanes];
        let mut residuals = vec![0.0f64; lanes];
        while sweep < cfg.max_iterations && !active.is_empty() {
            sweep += 1;
            let width = active.len();

            // Per-lane dangling mass, accumulated in node-index order so
            // each lane's sum reproduces the single-vector float sequence.
            bases.truncate(width);
            bases.iter_mut().for_each(|b| *b = 0.0);
            for i in 0..n {
                if self.inv_wsum[i] == 0.0 {
                    let row = &x[i * width..i * width + width];
                    for (base, &xv) in bases.iter_mut().zip(row) {
                        *base += xv;
                    }
                }
            }
            for base in bases.iter_mut() {
                *base = 1.0 - alpha + alpha * *base;
            }

            let (x_ref, tel_ref, bases_ref): (&[f64], &[f64], &[f64]) = (&x, &tel, &bases);
            for_each_chunk(planner.plan(), width, &mut next[..n * width], |lo, out| {
                if width == 1 {
                    // Last live lane: the single-vector chunk pull computes
                    // the identical per-lane expressions without the
                    // interleave bookkeeping.
                    self.pull_chunk(Gather::PerEdge(x_ref), out, lo, alpha, bases_ref[0], tel_ref);
                } else {
                    self.pull_chunk_batch(x_ref, out, lo, alpha, bases_ref, tel_ref, width);
                }
            });

            // Per-lane residuals, each accumulated in node-index order
            // (the same float sequence as the single-vector stopping
            // decision), computed row-wise so the pass streams the
            // interleaved buffers instead of striding per lane.
            residuals.truncate(width);
            residuals.iter_mut().for_each(|r| *r = 0.0);
            for i in 0..n {
                let xr = &x[i * width..i * width + width];
                let nr = &next[i * width..i * width + width];
                for ((r, &a), &b) in residuals.iter_mut().zip(xr).zip(nr) {
                    *r += (a - b).abs();
                }
            }
            for (c, &b) in active.iter().enumerate() {
                let lane = &mut lane_state[b];
                lane.residual = residuals[c];
                lane.iterations = sweep;
                if let Some(t) = lane.trace.as_mut() {
                    t.residuals.push(residuals[c]);
                }
            }
            std::mem::swap(&mut x, &mut next);

            // Snapshot lanes that just converged, then compact them out of
            // the interleave so later sweeps only touch live lanes.
            let mut keep = Vec::with_capacity(width);
            for (c, &b) in active.iter().enumerate() {
                if lane_state[b].residual < cfg.tolerance {
                    lane_state[b].converged = true;
                    lane_state[b].snapshot = Some((0..n).map(|i| x[i * width + c]).collect());
                } else {
                    keep.push(c);
                }
            }
            if keep.len() < width {
                let new_width = keep.len();
                for i in 0..n {
                    for (new_c, &c) in keep.iter().enumerate() {
                        x[i * new_width + new_c] = x[i * width + c];
                        tel[i * new_width + new_c] = tel[i * width + c];
                    }
                }
                active = keep.iter().map(|&c| active[c]).collect();
                x.truncate(n * new_width);
                tel.truncate(n * new_width);
                next.truncate(n * new_width);
            }
        }

        let width = active.len();
        for (c, &b) in active.iter().enumerate() {
            // Lanes that hit the iteration cap: scores as of the last swap.
            lane_state[b].snapshot = Some((0..n).map(|i| x[i * width + c]).collect());
        }

        Ok(lane_state
            .into_iter()
            .map(|lane| SweepOutcome {
                scores: ScoreVector::new(lane.snapshot.expect("every lane snapshotted")),
                convergence: Convergence {
                    iterations: lane.iterations,
                    residual: lane.residual,
                    converged: lane.converged,
                },
                trace: lane.trace,
            })
            .collect())
    }

    /// Pulls new scores for all lanes of the node chunk `out`, which covers
    /// nodes `lo..lo + out.len() / lanes` in node-major interleaved layout.
    /// Per-lane expressions mirror [`SweepKernel::pull`] /
    /// [`SweepKernel::pull_chunk`] exactly (same association, same
    /// accumulation order) so the results are bitwise identical to the
    /// single-vector path.
    #[allow(clippy::too_many_arguments)]
    fn pull_chunk_batch(
        &self,
        x: &[f64],
        out: &mut [f64],
        lo: usize,
        alpha: f64,
        bases: &[f64],
        tel: &[f64],
        lanes: usize,
    ) {
        for (off, slots) in out.chunks_exact_mut(lanes).enumerate() {
            let i = lo + off;
            let v = NodeId::from_usize(i);
            // Accumulate the damped in-neighbor sums directly in the
            // output row, then fold in teleport and dangling mass in
            // place — per-lane expression shape and accumulation order
            // match the single-vector `pull`/`pull_chunk` exactly.
            slots.iter_mut().for_each(|s| *s = 0.0);
            match self.view.in_arrays(v) {
                Some((nbrs, Some(ws))) => {
                    for (j, &u) in nbrs.iter().enumerate() {
                        let (wj, inv) = (ws[j], self.inv_wsum[u.index()]);
                        let row = &x[u.index() * lanes..u.index() * lanes + lanes];
                        for (s, &xv) in slots.iter_mut().zip(row) {
                            *s += xv * wj * inv;
                        }
                    }
                }
                Some((nbrs, None)) => {
                    for &u in nbrs {
                        let inv = self.inv_wsum[u.index()];
                        let row = &x[u.index() * lanes..u.index() * lanes + lanes];
                        for (s, &xv) in slots.iter_mut().zip(row) {
                            *s += xv * inv;
                        }
                    }
                }
                // Compact tier: decode the stream once per node row; the
                // unweighted decode yields w = 1.0, and `xv * 1.0 * inv`
                // is bitwise `xv * inv`.
                None => {
                    for (u, w) in self.view.in_edges(v) {
                        let inv = self.inv_wsum[u.index()];
                        let row = &x[u.index() * lanes..u.index() * lanes + lanes];
                        for (s, &xv) in slots.iter_mut().zip(row) {
                            *s += xv * w * inv;
                        }
                    }
                }
            }
            let tel_row = &tel[i * lanes..i * lanes + lanes];
            for ((slot, &base), &t) in slots.iter_mut().zip(bases).zip(tel_row) {
                *slot = alpha * *slot + base * t;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use relgraph::GraphBuilder;

    pub(crate) fn random_graph(nodes: u32, edges: usize, seed: u64) -> relgraph::DirectedGraph {
        let mut b = GraphBuilder::new();
        b.ensure_node(nodes - 1);
        let mut x = seed | 1;
        for _ in 0..edges {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x % nodes as u64) as u32;
            let v = ((x >> 20) % nodes as u64) as u32;
            if u != v {
                b.add_edge_indices(u, v);
            }
        }
        b.build()
    }

    /// The exact-PPR oracle of the push and top-k tests: a kernel solve
    /// of the forward view at α = 0.85, converged far past any bound
    /// those tests check.
    pub(crate) fn exact_ppr(g: &relgraph::DirectedGraph, seed: u32) -> ScoreVector {
        let cfg = SolverConfig { tolerance: 1e-14, max_iterations: 5000, ..Default::default() };
        let teleport = TeleportVector::single(g.node_count(), NodeId::new(seed)).unwrap();
        SweepKernel::new(g.view()).unwrap().solve(&cfg, &teleport).unwrap().scores
    }

    fn solve(
        g: &relgraph::DirectedGraph,
        scheme: Scheme,
        threads: usize,
    ) -> (ScoreVector, Convergence) {
        let kernel = SweepKernel::new(g.view()).unwrap();
        let cfg = SolverConfig {
            tolerance: 1e-12,
            max_iterations: 1000,
            scheme,
            threads,
            ..Default::default()
        };
        let teleport = TeleportVector::uniform(g.node_count()).unwrap();
        let out = kernel.solve(&cfg, &teleport).unwrap();
        (out.scores, out.convergence)
    }

    #[test]
    fn schemes_agree_on_random_graph() {
        let g = random_graph(300, 2500, 7);
        let (power, pc) = solve(&g, Scheme::Power, 1);
        let (s, c) = solve(&g, Scheme::Parallel, 3);
        assert!(pc.converged && c.converged);
        for u in g.nodes() {
            assert!(
                (power.get(u) - s.get(u)).abs() < 1e-9,
                "node {u:?}: {} vs {}",
                power.get(u),
                s.get(u)
            );
        }
    }

    #[test]
    fn schemes_agree_with_dangling_and_weights() {
        let mut b = GraphBuilder::new();
        b.add_weighted_edge(relgraph::NodeId::new(0), relgraph::NodeId::new(1), 3.0);
        b.add_weighted_edge(relgraph::NodeId::new(1), relgraph::NodeId::new(0), 1.0);
        b.add_weighted_edge(relgraph::NodeId::new(1), relgraph::NodeId::new(2), 2.0);
        b.add_weighted_edge(relgraph::NodeId::new(0), relgraph::NodeId::new(3), 0.5);
        let g = b.build(); // nodes 2, 3 dangle
        let (power, _) = solve(&g, Scheme::Power, 1);
        assert!((power.sum() - 1.0).abs() < 1e-9);
        let (s, _) = solve(&g, Scheme::Parallel, 2);
        assert!((s.sum() - 1.0).abs() < 1e-9);
        for u in g.nodes() {
            assert!((power.get(u) - s.get(u)).abs() < 1e-9, "node {u:?}");
        }
    }

    #[test]
    fn parallel_deterministic_across_thread_counts() {
        let g = random_graph(200, 1500, 5);
        let kernel = SweepKernel::new(g.view()).unwrap();
        let teleport = TeleportVector::uniform(g.node_count()).unwrap();
        let base =
            kernel.solve(&SolverConfig::default().with_threads(1), &teleport).unwrap().scores;
        for threads in [2, 3, 4, 7] {
            let s = kernel
                .solve(&SolverConfig::default().with_threads(threads), &teleport)
                .unwrap()
                .scores;
            assert_eq!(base.as_slice(), s.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn chunked_pull_matches_single_chunk_bitwise() {
        // The determinism-across-chunk-counts guarantee reduces to:
        // pulling a node range in several (uneven) chunks produces exactly
        // the values of one full-range pull — and, on an unweighted view,
        // gathering from the prescaled vector produces exactly the values
        // of the per-edge `x·(1/W)` product. Exercised directly so it
        // holds on CI runners with any core count — effective_threads
        // would otherwise clamp high thread requests down and this path
        // would go untested on small machines.
        let g = random_graph(101, 800, 11); // odd n => uneven final chunk
        let kernel = SweepKernel::new(g.view()).unwrap();
        let n = g.node_count();
        let teleport = TeleportVector::uniform(n).unwrap().dense();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0) / (n * n) as f64).collect();
        let (alpha, base) = (0.85, 0.15);
        let per_edge = Gather::PerEdge(&x);
        let mut y = vec![0.0f64; n];
        let dangling = kernel.prescale(&x, &mut y);
        assert_eq!(dangling.to_bits(), kernel.dangling_mass(&x).to_bits());

        let mut whole = vec![0.0f64; n];
        kernel.pull_chunk(per_edge, &mut whole, 0, alpha, base, &teleport);

        for gather in [per_edge, Gather::Prescaled(&y)] {
            for chunks in [1usize, 2, 3, 4, 7] {
                let chunk = n.div_ceil(chunks);
                let bounds: Vec<usize> = (0..=chunks).map(|j| (j * chunk).min(n)).collect();
                let mut parts = vec![0.0f64; n];
                for_each_chunk(&bounds, 1, &mut parts, |lo, out| {
                    kernel.pull_chunk(gather, out, lo, alpha, base, &teleport);
                });
                assert_eq!(parts, whole, "{chunks} chunks diverge from one");
            }
        }
    }

    #[test]
    fn batch_solve_bitwise_matches_sequential() {
        // Weighted + dangling graph, several seeds (with a duplicate and a
        // uniform lane mixed in): every lane of the fused sweep must equal
        // its independent solve bit for bit, including diagnostics.
        let mut b = GraphBuilder::new();
        b.add_weighted_edge(relgraph::NodeId::new(0), relgraph::NodeId::new(1), 3.0);
        b.add_weighted_edge(relgraph::NodeId::new(1), relgraph::NodeId::new(0), 1.0);
        b.add_weighted_edge(relgraph::NodeId::new(1), relgraph::NodeId::new(2), 2.0);
        b.add_weighted_edge(relgraph::NodeId::new(2), relgraph::NodeId::new(3), 0.5);
        b.add_weighted_edge(relgraph::NodeId::new(4), relgraph::NodeId::new(0), 1.5);
        let g = b.build(); // node 3 dangles
        let kernel = SweepKernel::new(g.view()).unwrap();
        let n = g.node_count();
        let teleports: Vec<TeleportVector> = [0u32, 2, 0, 4]
            .iter()
            .map(|&s| TeleportVector::single(n, relgraph::NodeId::new(s)).unwrap())
            .chain([TeleportVector::uniform(n).unwrap()])
            .collect();
        for threads in [1usize, 3] {
            let cfg = SolverConfig::default().with_threads(threads).with_trace();
            let batch = kernel.solve_batch(&cfg, &teleports).unwrap();
            assert_eq!(batch.len(), teleports.len());
            for (t, out) in teleports.iter().zip(&batch) {
                let single = kernel.solve(&cfg, t).unwrap();
                assert_eq!(single.scores.as_slice(), out.scores.as_slice());
                assert_eq!(single.convergence, out.convergence);
                assert_eq!(single.trace, out.trace);
            }
        }
    }

    #[test]
    fn batch_solve_heterogeneous_convergence() {
        // Seeds that converge at different iteration counts: frozen lanes
        // must keep their snapshot while slower lanes keep sweeping.
        let g = random_graph(120, 900, 99);
        let kernel = SweepKernel::new(g.view()).unwrap();
        let n = g.node_count();
        let teleports: Vec<TeleportVector> =
            (0..6).map(|s| TeleportVector::single(n, relgraph::NodeId::new(s)).unwrap()).collect();
        let cfg = SolverConfig { tolerance: 1e-12, max_iterations: 2000, ..Default::default() };
        let batch = kernel.solve_batch(&cfg, &teleports).unwrap();
        let iteration_counts: Vec<usize> = batch.iter().map(|o| o.convergence.iterations).collect();
        for (t, out) in teleports.iter().zip(&batch) {
            let single = kernel.solve(&cfg, t).unwrap();
            assert_eq!(single.scores.as_slice(), out.scores.as_slice());
            assert_eq!(single.convergence.iterations, out.convergence.iterations);
            assert!(out.convergence.converged);
        }
        // The point of the fixture: not all lanes stop on the same sweep.
        assert!(
            iteration_counts.iter().any(|&i| i != iteration_counts[0]),
            "want heterogeneous convergence, got {iteration_counts:?}"
        );
    }

    #[test]
    fn batch_wider_than_fused_group_matches_sequential() {
        // More teleports than MAX_FUSED_LANES: the group split is
        // invisible in the results.
        let g = random_graph(50, 260, 17);
        let kernel = SweepKernel::new(g.view()).unwrap();
        let n = g.node_count();
        let teleports: Vec<TeleportVector> = (0..MAX_FUSED_LANES as u32 + 7)
            .map(|s| TeleportVector::single(n, relgraph::NodeId::new(s % 50)).unwrap())
            .collect();
        let cfg = SolverConfig::default();
        let batch = kernel.solve_batch(&cfg, &teleports).unwrap();
        assert_eq!(batch.len(), teleports.len());
        for (t, out) in teleports.iter().zip(&batch) {
            let single = kernel.solve(&cfg, t).unwrap();
            assert_eq!(single.scores.as_slice(), out.scores.as_slice());
        }
    }

    #[test]
    fn batch_solve_fallback_schemes_and_edges() {
        let g = random_graph(60, 300, 21);
        let kernel = SweepKernel::new(g.view()).unwrap();
        let n = g.node_count();
        let t0 = TeleportVector::single(n, relgraph::NodeId::new(0)).unwrap();
        let t1 = TeleportVector::single(n, relgraph::NodeId::new(5)).unwrap();
        // Power batches run per-seed solves.
        let cfg = SolverConfig::default().with_scheme(Scheme::Power);
        let batch = kernel.solve_batch(&cfg, &[t0.clone(), t1.clone()]).unwrap();
        for (t, out) in [&t0, &t1].iter().zip(&batch) {
            let single = kernel.solve(&cfg, t).unwrap();
            assert_eq!(single.scores.as_slice(), out.scores.as_slice());
        }
        // Empty batch, singleton batch, dimension mismatch.
        let cfg = SolverConfig::default();
        assert!(kernel.solve_batch(&cfg, &[]).unwrap().is_empty());
        let one = kernel.solve_batch(&cfg, std::slice::from_ref(&t0)).unwrap();
        assert_eq!(one[0].scores.as_slice(), kernel.solve(&cfg, &t0).unwrap().scores.as_slice());
        let wrong = TeleportVector::uniform(n + 3).unwrap();
        assert!(kernel.solve_batch(&cfg, &[wrong]).is_err());
        let bad = SolverConfig::with_damping(1.5);
        assert!(kernel.solve_batch(&bad, std::slice::from_ref(&t0)).is_err());
    }

    #[test]
    fn transposed_view_solves_cheirank() {
        // In 0 -> 1, the forward solve favors 1; the transposed favors 0.
        let g = GraphBuilder::from_edge_indices([(0, 1)]);
        let teleport = TeleportVector::uniform(2).unwrap();
        let cfg = SolverConfig::default();
        let fwd = SweepKernel::new(g.view()).unwrap().solve(&cfg, &teleport).unwrap().scores;
        let rev = SweepKernel::new(g.transposed()).unwrap().solve(&cfg, &teleport).unwrap().scores;
        assert!(fwd.get(relgraph::NodeId::new(1)) > fwd.get(relgraph::NodeId::new(0)));
        assert!(rev.get(relgraph::NodeId::new(0)) > rev.get(relgraph::NodeId::new(1)));
    }

    #[test]
    fn personalized_teleport_localizes() {
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 0), (1, 2), (2, 1), (3, 2)]);
        let teleport = TeleportVector::single(4, relgraph::NodeId::new(0)).unwrap();
        for scheme in Scheme::ALL {
            let out = SweepKernel::new(g.view())
                .unwrap()
                .solve(&SolverConfig::default().with_scheme(scheme), &teleport)
                .unwrap();
            // Node 3 is unreachable from the seed.
            assert!(out.scores.get(relgraph::NodeId::new(3)) < 1e-12, "{scheme}");
            assert!(out.scores.get(relgraph::NodeId::new(0)) > 0.0, "{scheme}");
        }
    }

    #[test]
    fn trace_records_every_sweep_and_decays() {
        let g = random_graph(100, 700, 3);
        let kernel = SweepKernel::new(g.view()).unwrap();
        let teleport = TeleportVector::uniform(g.node_count()).unwrap();
        for scheme in Scheme::ALL {
            let cfg = SolverConfig::default().with_scheme(scheme).with_trace();
            let out = kernel.solve(&cfg, &teleport).unwrap();
            let trace = out.trace.expect("trace requested");
            assert_eq!(trace.len(), out.convergence.iterations, "{scheme}");
            assert_eq!(trace.last(), Some(out.convergence.residual), "{scheme}");
            // Residuals decay geometrically: the empirical rate is < 1.
            let rate = trace.rate().expect("multiple sweeps");
            assert!(rate < 1.0, "{scheme}: rate {rate}");
            // Without the flag, no trace is allocated.
            let out =
                kernel.solve(&SolverConfig::default().with_scheme(scheme), &teleport).unwrap();
            assert!(out.trace.is_none(), "{scheme}");
        }
    }

    #[test]
    fn effective_threads_clamps() {
        let available = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        // 0 = auto: all available cores, capped at the unit count.
        assert_eq!(effective_threads(0, usize::MAX), available);
        assert_eq!(effective_threads(0, 2), 2.min(available));
        // Explicit requests cap at available parallelism, not just units.
        assert_eq!(effective_threads(usize::MAX, usize::MAX), available);
        assert_eq!(effective_threads(1, usize::MAX), 1);
        // Never below 1, even for empty unit counts.
        assert_eq!(effective_threads(4, 0), 1);
    }

    #[test]
    fn more_threads_than_nodes() {
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 0)]);
        let kernel = SweepKernel::new(g.view()).unwrap();
        let teleport = TeleportVector::uniform(2).unwrap();
        let out = kernel.solve(&SolverConfig::default().with_threads(64), &teleport).unwrap();
        assert!((out.scores.sum() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let empty = GraphBuilder::new().build();
        assert!(matches!(SweepKernel::new(empty.view()), Err(AlgoError::EmptyGraph)));

        let g = GraphBuilder::from_edge_indices([(0, 1)]);
        let kernel = SweepKernel::new(g.view()).unwrap();
        let teleport = TeleportVector::uniform(2).unwrap();
        for bad in [0.0, 1.0, -0.5, 1.5] {
            let cfg = SolverConfig::with_damping(bad);
            assert!(matches!(kernel.solve(&cfg, &teleport), Err(AlgoError::InvalidDamping(_))));
        }
        let cfg = SolverConfig { tolerance: 0.0, ..Default::default() };
        assert!(kernel.solve(&cfg, &teleport).is_err());
        let cfg = SolverConfig { max_iterations: 0, ..Default::default() };
        assert!(kernel.solve(&cfg, &teleport).is_err());
        // Mismatched teleport dimension.
        let wrong = TeleportVector::uniform(5).unwrap();
        assert!(kernel.solve(&SolverConfig::default(), &wrong).is_err());
    }

    #[test]
    fn compact_tier_solves_match_csr_bitwise() {
        // Unweighted graphs (and f32-exact weighted ones) decode to the
        // identical neighbor order, weight values, and weight sums, so
        // every scheme's float sequence — and with it scores, iteration
        // counts, and residuals — is reproduced exactly on the compact
        // tier.
        let g = random_graph(200, 1500, 31);
        let c = relgraph::CompactGraph::from_csr(&g);
        let n = g.node_count();
        let teleport = TeleportVector::uniform(n).unwrap();
        for scheme in Scheme::ALL {
            let cfg = SolverConfig::default().with_scheme(scheme).with_trace();
            let a = SweepKernel::new(g.view()).unwrap().solve(&cfg, &teleport).unwrap();
            let b = SweepKernel::new(c.view()).unwrap().solve(&cfg, &teleport).unwrap();
            assert_eq!(a.scores.as_slice(), b.scores.as_slice(), "{scheme}");
            assert_eq!(a.convergence, b.convergence, "{scheme}");
            assert_eq!(a.trace, b.trace, "{scheme}");
        }
        // Transposed orientation and fused batches dispatch identically.
        let teleports: Vec<TeleportVector> =
            (0..5).map(|s| TeleportVector::single(n, NodeId::new(s)).unwrap()).collect();
        let cfg = SolverConfig::default().with_threads(3);
        let ka = SweepKernel::new(g.transposed()).unwrap();
        let kb = SweepKernel::new(c.transposed()).unwrap();
        for (a, b) in ka
            .solve_batch(&cfg, &teleports)
            .unwrap()
            .iter()
            .zip(&kb.solve_batch(&cfg, &teleports).unwrap())
        {
            assert_eq!(a.scores.as_slice(), b.scores.as_slice());
            assert_eq!(a.convergence, b.convergence);
        }
    }

    #[test]
    fn scheme_parse_roundtrip() {
        for scheme in Scheme::ALL {
            assert_eq!(scheme.id().parse::<Scheme>().unwrap(), scheme);
        }
        assert_eq!("par".parse::<Scheme>().unwrap(), Scheme::Parallel);
        assert_eq!("Jacobi".parse::<Scheme>().unwrap(), Scheme::Power);
        assert!("quantum".parse::<Scheme>().is_err());
        // The deleted scheme's spelling, split so a repo-wide grep for it
        // finds only history.
        let gone = concat!("gauss", "-seidel").parse::<Scheme>().unwrap_err();
        assert!(gone.contains("expected power|parallel"), "{gone}");
        assert_eq!(Scheme::default(), Scheme::Parallel);
    }

    #[test]
    fn solve_top_k_matches_full_solve_exactly() {
        let g = random_graph(250, 2000, 13);
        let kernel = SweepKernel::new(g.view()).unwrap();
        let n = g.node_count();
        for teleport in [
            TeleportVector::uniform(n).unwrap(),
            TeleportVector::single(n, NodeId::new(3)).unwrap(),
        ] {
            for scheme in Scheme::ALL {
                let cfg = SolverConfig::default().with_scheme(scheme).with_trace();
                let full = kernel.solve(&cfg, &teleport).unwrap();
                let topk = kernel.solve_top_k(&cfg, &teleport, 7).unwrap();
                assert_eq!(topk.top, full.scores.top_k(7), "{scheme}");
                assert_eq!(topk.convergence, full.convergence, "{scheme}");
                assert_eq!(topk.trace, full.trace, "{scheme}");
            }
        }
    }

    #[test]
    fn steady_state_top_k_solves_are_allocation_free() {
        use crate::arena::{with_arena, SolverArena};
        use std::sync::Arc;
        let g = random_graph(300, 2500, 9);
        let kernel = SweepKernel::new(g.view()).unwrap();
        let teleport = TeleportVector::single(g.node_count(), NodeId::new(5)).unwrap();
        let arena = Arc::new(SolverArena::new());
        for scheme in Scheme::ALL {
            let cfg = SolverConfig::default().with_scheme(scheme);
            with_arena(&arena, || {
                kernel.solve_top_k(&cfg, &teleport, 10).unwrap(); // warm-up
                let warmed = arena.allocations();
                for _ in 0..5 {
                    kernel.solve_top_k(&cfg, &teleport, 10).unwrap();
                }
                assert_eq!(
                    arena.allocations(),
                    warmed,
                    "{scheme}: steady-state top-k solves must not allocate score buffers"
                );
            });
        }
    }

    #[test]
    fn full_solve_detaches_exactly_one_buffer_per_call() {
        use crate::arena::{with_arena, SolverArena};
        use std::sync::Arc;
        let g = random_graph(200, 1500, 3);
        let kernel = SweepKernel::new(g.view()).unwrap();
        let teleport = TeleportVector::uniform(g.node_count()).unwrap();
        let arena = Arc::new(SolverArena::new());
        let cfg = SolverConfig::default();
        with_arena(&arena, || {
            kernel.solve(&cfg, &teleport).unwrap(); // warm-up
            let warmed = arena.allocations();
            for i in 1..=4u64 {
                kernel.solve(&cfg, &teleport).unwrap();
                // The escaping score vector is the only fresh buffer.
                assert_eq!(arena.allocations(), warmed + i);
            }
        });
    }

    #[test]
    fn warm_start_from_dense_teleport_is_bitwise_cold() {
        // Seeding the warm path with the dense teleport vector is the
        // exact cold iteration: identical scores, iteration counts, and
        // residual traces for every scheme.
        let g = random_graph(150, 1100, 23);
        let kernel = SweepKernel::new(g.view()).unwrap();
        let n = g.node_count();
        for teleport in [
            TeleportVector::uniform(n).unwrap(),
            TeleportVector::single(n, NodeId::new(7)).unwrap(),
        ] {
            let dense = teleport.dense();
            for scheme in Scheme::ALL {
                let cfg = SolverConfig::default().with_scheme(scheme).with_trace();
                let cold = kernel.solve(&cfg, &teleport).unwrap();
                let warm = kernel.solve_warm(&cfg, &teleport, &dense).unwrap();
                assert_eq!(cold.scores.as_slice(), warm.scores.as_slice(), "{scheme}");
                assert_eq!(cold.convergence, warm.convergence, "{scheme}");
                assert_eq!(cold.trace, warm.trace, "{scheme}");
            }
        }
    }

    #[test]
    fn warm_start_from_fixed_point_converges_in_fewer_sweeps() {
        let g = random_graph(200, 1500, 41);
        let kernel = SweepKernel::new(g.view()).unwrap();
        let teleport = TeleportVector::single(g.node_count(), NodeId::new(3)).unwrap();
        for scheme in Scheme::ALL {
            let cfg = SolverConfig::default().with_scheme(scheme);
            let cold = kernel.solve(&cfg, &teleport).unwrap();
            let warm = kernel.solve_warm(&cfg, &teleport, cold.scores.as_slice()).unwrap();
            assert!(warm.convergence.converged, "{scheme}");
            // The cold start is ‖t − x*‖ from the fixed point, the warm
            // start ~tolerance from it: the sweep count collapses.
            assert!(
                warm.convergence.iterations * 3 <= cold.convergence.iterations,
                "{scheme}: warm {} sweeps vs cold {}",
                warm.convergence.iterations,
                cold.convergence.iterations
            );
            for u in g.nodes() {
                assert!(
                    (warm.scores.get(u) - cold.scores.get(u)).abs() < 10.0 * cfg.tolerance,
                    "{scheme} node {u:?}"
                );
            }
        }
    }

    #[test]
    fn warm_top_k_matches_warm_full_solve() {
        let g = random_graph(120, 900, 77);
        let kernel = SweepKernel::new(g.view()).unwrap();
        let teleport = TeleportVector::single(g.node_count(), NodeId::new(5)).unwrap();
        let cfg = SolverConfig::default();
        let prev = kernel.solve(&cfg, &teleport).unwrap().scores;
        let full = kernel.solve_warm(&cfg, &teleport, prev.as_slice()).unwrap();
        let topk = kernel.solve_top_k_warm(&cfg, &teleport, prev.as_slice(), 6).unwrap();
        assert_eq!(topk.top, full.scores.top_k(6));
        assert_eq!(topk.convergence, full.convergence);
    }

    #[test]
    fn warm_start_dimension_mismatch_rejected() {
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 0)]);
        let kernel = SweepKernel::new(g.view()).unwrap();
        let teleport = TeleportVector::uniform(2).unwrap();
        let bad = vec![0.5; 5];
        assert!(kernel.solve_warm(&SolverConfig::default(), &teleport, &bad).is_err());
    }
}
