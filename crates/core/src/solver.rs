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
//!   for every chunk count. It is the one pull sweep, over node-major
//!   *lanes*: a single solve is one lane, and [`SweepKernel::solve_batch`]
//!   carries up to [`MAX_FUSED_LANES`] seeds per edge visit, each lane
//!   bitwise its own single solve.
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
//! edge and lane instead of two, and — the product being rounded once
//! either way, with nothing reassociated — the same bits. Weighted views
//! evaluate `x[u]·w·(1/W(u))` per edge.
//!
//! ## How a pull reads its rows
//!
//! On the CSR a chunk takes the view's [`DirectedGraph`] once and reads
//! each node's in-row as slices straight from its arrays, with no per-node
//! iterator or call. It pulls two consecutive rows at a time: their common
//! prefix is summed interleaved, one add into each row's sum per step, and
//! then each row's tail alone; an odd last row pairs with an empty one. A
//! row's sum is one chain of dependent adds, so a single row waits out the
//! add latency on every edge, while two rows keep two chains in flight.
//! No bit moves: each row is still summed alone, from zero, in in-neighbor
//! order, and finished with the same `α·sum + base·t`. The compact tier
//! decodes its rows one at a time through the iterator accessors.
//!
//! On the 4.4k-node, 56k-edge `wiki-en-2018` graph (in cache) a one-lane
//! pull went from 2.4 to 1.3 ns per edge, and on a 64k-node, 0.96M-edge
//! `wikilink` graph from 2.4 to 2.0 (one chunk, medians of five runs on a
//! 2-vCPU host). A 16-lane row already carries 16 independent sums; its pull
//! stayed within noise of the one-row loop, so every width pairs rows.
//! Two variants measured no better and were not kept: four rows in flight
//! lost to two, and four partial sums within a row both lost and moved
//! bits.

use crate::arena::{current_arena, ArenaBuf};
pub use crate::chunks::CHUNK_MIN_WORK;
use crate::chunks::{for_each_chunk, ChunkPlanner};
use crate::error::AlgoError;
use crate::ppr::TeleportVector;
use crate::result::{top_k_pairs, ScoreVector};
use relgraph::{DirectedGraph, GraphView, NodeId};
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
    // rellint: allow(cache-key) -- the chunk count changes wall time, never a vector's bits
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

/// A finished lane whose scores still live in the arena — what every
/// scheme hands back per teleport. [`SweepKernel::solve`] detaches the
/// buffer into a [`ScoreVector`]; [`SweepKernel::solve_top_k`] ranks in
/// place and returns the buffer to the pool.
pub(crate) struct SolvedBuf {
    pub(crate) scores: ArenaBuf,
    pub(crate) convergence: Convergence,
    pub(crate) trace: Option<ConvergenceTrace>,
}

impl SolvedBuf {
    /// The full-rank result: the score buffer leaves the arena.
    pub(crate) fn into_outcome(self) -> SweepOutcome {
        SweepOutcome {
            scores: ScoreVector::new(self.scores.detach()),
            convergence: self.convergence,
            trace: self.trace,
        }
    }

    /// The top-`k` result, ranked straight out of the arena buffer, which
    /// then goes back to the pool.
    pub(crate) fn into_top_k(self, k: usize) -> TopKOutcome {
        TopKOutcome {
            top: top_k_pairs(&self.scores, k),
            convergence: self.convergence,
            trace: self.trace,
        }
    }
}

// ----------------------------------------------------------------- kernel

/// Widest lane group one pull sweep carries: wider batches split into
/// groups of this size, so [`SweepKernel::solve_batch`] working memory
/// stays `O(n · MAX_FUSED_LANES)` no matter how many seeds a caller
/// submits. A group holds four interleaved `f64` buffers — teleport,
/// iterate, next iterate and the prescaled gather (weighted views have no
/// gather) — so 32 bytes per node per lane. Traversal amortization has
/// flattened well before this width.
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

/// What the pull reads for each in-edge `u → v`, `w` lanes per node row.
#[derive(Clone, Copy)]
enum Gather<'x> {
    /// Unweighted view: `y[u] = x[u]·(1/W(u))`, scaled once per sweep in
    /// the pass that sums the dangling mass — one random read per edge
    /// and lane instead of two. The product is rounded once either way,
    /// so this is bitwise the per-edge expression.
    Prescaled(&'x [f64]),
    /// Weighted view: `x[u]·w(u,v)·(1/W(u))`, evaluated per edge (scaling
    /// first would reassociate the product).
    PerEdge(&'x [f64]),
}

/// The lane count of one sweep as its passes see it. The passes are
/// generic over it so that a one-lane sweep — every single solve, and a
/// batch's last live lane — is compiled with the width a constant 1: its
/// row loops fold away and each of the two rows a pull sums at a time
/// (module docs) accumulates in a register, the scalar loop of a
/// one-vector pull. Choosing that instantiation is the one place the lane
/// count selects code: wider rows pair the same way.
trait Lanes: Copy + Send + Sync {
    /// Zeroed by `default()`: one accumulator slot per lane (dangling
    /// mass, pulled sums, residuals), at least [`Lanes::width`] of them.
    type Acc: Default + AsRef<[f64]> + AsMut<[f64]>;
    /// Lanes per node row.
    fn width(self) -> usize;
}

/// One lane: the width is a compile-time 1.
#[derive(Clone, Copy)]
struct One;

impl Lanes for One {
    type Acc = [f64; 1];
    fn width(self) -> usize {
        1
    }
}

/// Up to [`MAX_FUSED_LANES`] lanes.
#[derive(Clone, Copy)]
struct Many(usize);

impl Lanes for Many {
    type Acc = [f64; MAX_FUSED_LANES];
    fn width(self) -> usize {
        self.0
    }
}

/// Node `u`'s row of the interleave `v`, `w` lanes wide.
#[inline(always)]
fn row(v: &[f64], u: NodeId, w: usize) -> &[f64] {
    let at = u.index() * w;
    &v[at..at + w]
}

/// The interleaved buffers of one lane group, `w` lanes per node row
/// (`buf[i * w + c]` is node `i` in column `c`).
struct LaneBufs {
    tel: ArenaBuf,
    x: ArenaBuf,
    next: ArenaBuf,
    /// The prescaled gather, on unweighted views.
    scaled: Option<ArenaBuf>,
}

/// One reusable edge-sweep engine over a [`GraphView`].
///
/// Construction precomputes the inverse out-weight sums `1/W(u)` for the
/// view's orientation (O(V), reading the graph's build-time weight-sum
/// cache); [`SweepKernel::solve`] then runs any scheme against any
/// teleport vector. Under [`Scheme::Parallel`] there is one pull sweep,
/// over node-major lanes: a single solve is a one-lane group, and
/// [`SweepKernel::solve_batch`] sweeps up to [`MAX_FUSED_LANES`] seeds per
/// edge visit. Every stationary-distribution built-in ([`crate::builtin`])
/// is a thin parameterization of this type:
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
        self.solve_one(cfg, teleport, None).map(SolvedBuf::into_outcome)
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
        self.solve_one(cfg, teleport, Some(prev)).map(SolvedBuf::into_outcome)
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
        self.solve_one(cfg, teleport, Some(prev)).map(|out| out.into_top_k(k))
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
        self.solve_one(cfg, teleport, None).map(|out| out.into_top_k(k))
    }

    /// Solves `B = teleports.len()` independent stationary distributions.
    /// Under [`Scheme::Parallel`] the lanes share each pull sweep, in
    /// groups of up to [`MAX_FUSED_LANES`]: the edge arrays are traversed
    /// once per sweep and every edge visit updates all of a group's lanes,
    /// amortizing graph traversal and cache misses across seeds.
    /// [`Scheme::Power`] solves the teleports one after another.
    ///
    /// A lane's arithmetic never depends on which lanes share its sweep,
    /// and each lane stops at the sweep its own residual crosses the
    /// tolerance, so **every outcome is bitwise identical to the
    /// corresponding independent [`SweepKernel::solve`] run**, diagnostics
    /// included. Each outcome's scores are one detached arena buffer.
    pub fn solve_batch(
        &self,
        cfg: &SolverConfig,
        teleports: &[TeleportVector],
    ) -> Result<Vec<SweepOutcome>, AlgoError> {
        let mut outs: Vec<Option<SweepOutcome>> = teleports.iter().map(|_| None).collect();
        self.solve_lanes(cfg, teleports, None, |b, out| outs[b] = Some(out.into_outcome()))?;
        Ok(outs.into_iter().map(|o| o.expect("every lane finishes")).collect())
    }

    /// One teleport's lane, left in the arena.
    fn solve_one(
        &self,
        cfg: &SolverConfig,
        teleport: &TeleportVector,
        warm: Option<&[f64]>,
    ) -> Result<SolvedBuf, AlgoError> {
        let mut one = None;
        self.solve_lanes(cfg, std::slice::from_ref(teleport), warm, |_, out| one = Some(out))?;
        Ok(one.expect("the lane finishes"))
    }

    /// Solves one lane per teleport, every lane started from `warm` when
    /// given (else from its teleport vector), and hands each finished
    /// lane to `finish(lane, result)` — in the order lanes finish, which
    /// need not be input order. The one entry point of every solve.
    pub(crate) fn solve_lanes(
        &self,
        cfg: &SolverConfig,
        teleports: &[TeleportVector],
        warm: Option<&[f64]>,
        mut finish: impl FnMut(usize, SolvedBuf),
    ) -> Result<(), AlgoError> {
        cfg.validate()?;
        let n = self.node_count();
        let lens = teleports.iter().map(|t| ("teleport", "teleport", t.len()));
        for (name, what, len) in lens.chain(warm.map(|p| ("warm_start", "warm-start", p.len()))) {
            if len != n {
                let message = format!("{what} vector has {len} entries for {n} nodes");
                return Err(AlgoError::InvalidParameter { name, message });
            }
        }
        match cfg.scheme {
            Scheme::Power => {
                for (b, t) in teleports.iter().enumerate() {
                    finish(b, self.solve_power(cfg, t, warm));
                }
            }
            Scheme::Parallel => {
                for (g, group) in teleports.chunks(MAX_FUSED_LANES).enumerate() {
                    self.solve_group(cfg, group, warm, |b, out| {
                        finish(g * MAX_FUSED_LANES + b, out)
                    });
                }
            }
        }
        Ok(())
    }

    /// Sequential Jacobi (power) iteration, push formulation.
    fn solve_power(
        &self,
        cfg: &SolverConfig,
        teleport: &TeleportVector,
        warm: Option<&[f64]>,
    ) -> SolvedBuf {
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
        SolvedBuf { scores: x, convergence: Convergence { iterations, residual, converged }, trace }
    }

    /// The chunked pull over one group of lanes, stored node-major
    /// (`x[i * w + c]`) so each edge visit touches `w` consecutive lanes.
    ///
    /// Each sweep is three passes: [`Self::scale_pass`] and
    /// [`residual_pass`] in node-index order, and [`Self::pull_rows`] over
    /// the chunks a [`ChunkPlanner`] cuts (module docs). Every lane of
    /// every node is accumulated by exactly one thread in in-neighbor
    /// order, and the stop is decided by the sequential residual pass, so
    /// results are bitwise identical for every chunk count. A lane stops
    /// at the sweep its own residual crosses the tolerance — where a
    /// one-lane solve would — and is copied out into an arena buffer and
    /// compacted away, so total lane-sweeps equal the sum of the lanes'
    /// own iteration counts. A one-lane group's iterate is its result; a
    /// wider group copies its last lane out too, so no result keeps the
    /// group's wider buffer.
    ///
    /// The group plans its chunks like a one-lane solve: at 16 lanes two
    /// chunks break even between 60k and 120k work (the 16-lane columns of
    /// `relbench`'s `sweep cutover`), about where one lane's do, so wider
    /// rows earn no constant of their own.
    fn solve_group(
        &self,
        cfg: &SolverConfig,
        teleports: &[TeleportVector],
        warm: Option<&[f64]>,
        mut finish: impl FnMut(usize, SolvedBuf),
    ) {
        let n = self.node_count();
        let mut w = teleports.len();
        let mut planner = ChunkPlanner::new(self.view, cfg.threads);
        let arena = current_arena();
        let mut bufs = LaneBufs {
            tel: arena.take(n * w),
            x: arena.take(n * w),
            next: arena.take(n * w),
            scaled: (!self.view.is_weighted()).then(|| arena.take(n * w)),
        };
        for (b, t) in teleports.iter().enumerate() {
            t.for_each(|i, v| bufs.tel[i * w + b] = v);
        }
        match warm {
            Some(prev) => bufs.x.chunks_exact_mut(w).zip(prev).for_each(|(r, &p)| r.fill(p)),
            None => bufs.x.copy_from_slice(&bufs.tel),
        }
        // `lanes[c]` is the input index of the lane in column `c`.
        let mut lanes: Vec<usize> = (0..w).collect();
        let mut traces: Vec<Option<ConvergenceTrace>> =
            lanes.iter().map(|_| cfg.record_trace.then(ConvergenceTrace::default)).collect();
        let mut residuals = [0.0; MAX_FUSED_LANES];
        let mut sweep = 0;
        loop {
            sweep += 1;
            let residuals = &mut residuals[..w];
            if w == 1 {
                self.sweep(One, &mut planner, cfg.damping, &mut bufs, residuals);
            } else {
                self.sweep(Many(w), &mut planner, cfg.damping, &mut bufs, residuals);
            }
            for (&b, &r) in lanes.iter().zip(residuals.iter()) {
                if let Some(t) = traces[b].as_mut() {
                    t.residuals.push(r);
                }
            }
            let capped = sweep == cfg.max_iterations;
            let done = |r: f64| capped || r < cfg.tolerance;
            if !residuals.iter().any(|&r| done(r)) {
                continue;
            }
            let outcome = |c: usize| Convergence {
                iterations: sweep,
                residual: residuals[c],
                converged: residuals[c] < cfg.tolerance,
            };
            if teleports.len() == 1 {
                let trace = traces[0].take();
                return finish(0, SolvedBuf { scores: bufs.x, convergence: outcome(0), trace });
            }
            let mut keep = Vec::with_capacity(w);
            for (c, &b) in lanes.iter().enumerate() {
                if !done(residuals[c]) {
                    keep.push(c);
                    continue;
                }
                let mut scores = arena.take(n);
                for (s, r) in scores.iter_mut().zip(bufs.x.chunks_exact(w)) {
                    *s = r[c];
                }
                finish(b, SolvedBuf { scores, convergence: outcome(c), trace: traces[b].take() });
            }
            if keep.is_empty() {
                return;
            }
            // Compact the live columns to the front of every row, in place:
            // each write lands at or before the read it follows.
            let width = keep.len();
            for i in 0..n {
                for (to, &c) in keep.iter().enumerate() {
                    bufs.x[i * width + to] = bufs.x[i * w + c];
                    bufs.tel[i * width + to] = bufs.tel[i * w + c];
                }
            }
            lanes = keep.iter().map(|&c| lanes[c]).collect();
            w = width;
            let (x, tel, next) = (&mut bufs.x, &mut bufs.tel, &mut bufs.next);
            for buf in [x, tel, next].into_iter().chain(bufs.scaled.as_mut()) {
                buf.truncate(n * w);
            }
        }
    }

    /// One sweep of a group: the three passes, then `x ← next`, with each
    /// lane's residual written to `residuals`.
    fn sweep<L: Lanes>(
        &self,
        lanes: L,
        planner: &mut ChunkPlanner<'_>,
        alpha: f64,
        bufs: &mut LaneBufs,
        residuals: &mut [f64],
    ) {
        let w = lanes.width();
        let scaled = bufs.scaled.as_mut().map(|y| &mut y[..]);
        let mut bases = self.scale_pass(lanes, &bufs.x, scaled);
        let bases = &mut bases.as_mut()[..w];
        bases.iter_mut().for_each(|b| *b = 1.0 - alpha + alpha * *b);
        let gather = match bufs.scaled.as_deref() {
            Some(y) => Gather::Prescaled(y),
            None => Gather::PerEdge(&bufs.x),
        };
        let (tel, bases): (&[f64], &[f64]) = (&bufs.tel, bases);
        for_each_chunk(planner.plan(), w, &mut bufs.next, |lo, out| {
            self.pull_rows(lanes, gather, out, lo, alpha, bases, tel);
        });
        // Stopping decision: one sequential index-order pass, so the
        // residual — and with it the iteration count and final scores —
        // is bitwise identical for every chunk count (per-chunk partial
        // sums would regroup float addends at the chunk boundaries and
        // could flip a stop right at the tolerance).
        let delta = residual_pass(lanes, &bufs.x, &bufs.next);
        residuals.copy_from_slice(&delta.as_ref()[..w]);
        std::mem::swap(&mut bufs.x, &mut bufs.next);
    }

    /// A sweep's first pass, in node-index order: each lane's dangling
    /// mass and — when `scaled` is given (unweighted views) — the prescaled
    /// gather `y = x·(1/W(u))` of [`Gather::Prescaled`].
    fn scale_pass<L: Lanes>(&self, lanes: L, x: &[f64], scaled: Option<&mut [f64]>) -> L::Acc {
        let w = lanes.width();
        let mut mass = L::Acc::default();
        let m = &mut mass.as_mut()[..w];
        let rows = x.chunks_exact(w).zip(&self.inv_wsum);
        match scaled {
            Some(y) => {
                for ((xr, &inv), yr) in rows.zip(y.chunks_exact_mut(w)) {
                    if inv == 0.0 {
                        m.iter_mut().zip(xr).for_each(|(m, &xv)| *m += xv);
                    }
                    yr.iter_mut().zip(xr).for_each(|(y, &xv)| *y = xv * inv);
                }
            }
            None => {
                for (xr, &inv) in rows {
                    if inv == 0.0 {
                        m.iter_mut().zip(xr).for_each(|(m, &xv)| *m += xv);
                    }
                }
            }
        }
        mass
    }

    /// Pulls the chunk `out` — nodes `lo..lo + out.len() / w`, `w` lanes
    /// per row — from the previous iterate: each lane of node `v` becomes
    /// `α·Σ_{u→v} gather(u) + base·t(v)`, its sum accumulated in
    /// in-neighbor order. A lane's value depends on nothing but its own
    /// column, so it is bitwise what a one-lane pull computes, however
    /// the lanes are grouped and the node range chunked.
    ///
    /// On the CSR the chunk's rows are read as slices straight from the
    /// [`DirectedGraph`], two consecutive rows at a time ([`pull_pairs`]);
    /// the compact tier decodes each row's stream ([`Self::pull_decoded`]).
    #[allow(clippy::too_many_arguments)]
    fn pull_rows<L: Lanes>(
        &self,
        lanes: L,
        gather: Gather<'_>,
        out: &mut [f64],
        lo: usize,
        alpha: f64,
        bases: &[f64],
        tel: &[f64],
    ) {
        let w = lanes.width();
        let tel = &tel[lo * w..lo * w + out.len()];
        let Some(g) = self.view.as_csr() else {
            return self.pull_decoded(lanes, gather, out, lo, alpha, bases, tel);
        };
        let rows = CsrRows { g, reversed: self.view.is_reversed() };
        let inv_wsum: &[f64] = &self.inv_wsum;
        match gather {
            Gather::Prescaled(y) => {
                let edge = |acc: &mut [f64], r: InRow<'_>, k: usize| add(acc, row(y, r.ids[k], w));
                pull_pairs(lanes, rows, edge, out, lo, alpha, bases, tel);
            }
            // A row without weights yields w = 1.0, and `x·1.0·(1/W)` is
            // bitwise `x·(1/W)`: the prescaled gather is checked against
            // this arm on unweighted views.
            Gather::PerEdge(x) => {
                let edge = |acc: &mut [f64], r: InRow<'_>, k: usize| {
                    let (u, wt) = (r.ids[k], r.ws.get(k).copied().unwrap_or(1.0));
                    add_per_edge(acc, row(x, u, w), wt, inv_wsum[u.index()]);
                };
                pull_pairs(lanes, rows, edge, out, lo, alpha, bases, tel);
            }
        }
    }

    /// [`Self::pull_rows`] on the compact tier: one row at a time, each
    /// decoded from its varint stream in in-neighbor order. An unweighted
    /// row yields w = 1.0, and `x·1.0·(1/W)` is bitwise `x·(1/W)`.
    #[allow(clippy::too_many_arguments)]
    fn pull_decoded<L: Lanes>(
        &self,
        lanes: L,
        gather: Gather<'_>,
        out: &mut [f64],
        lo: usize,
        alpha: f64,
        bases: &[f64],
        tel: &[f64],
    ) {
        let w = lanes.width();
        let mut acc = L::Acc::default();
        let acc = &mut acc.as_mut()[..w];
        for (off, (slots, t)) in out.chunks_exact_mut(w).zip(tel.chunks_exact(w)).enumerate() {
            let v = NodeId::from_usize(lo + off);
            acc.fill(0.0);
            match gather {
                Gather::Prescaled(y) => {
                    self.view.in_neighbors(v).for_each(|u| add(acc, row(y, u, w)))
                }
                Gather::PerEdge(x) => {
                    for (u, wt) in self.view.in_edges(v) {
                        add_per_edge(acc, row(x, u, w), wt, self.inv_wsum[u.index()]);
                    }
                }
            }
            finish_row(slots, acc, alpha, bases, t);
        }
    }
}

/// A CSR view's rows, read as slices straight from the graph.
#[derive(Clone, Copy)]
struct CsrRows<'g> {
    g: &'g DirectedGraph,
    reversed: bool,
}

impl<'g> CsrRows<'g> {
    /// Node `v`'s in-edges in view orientation.
    #[inline(always)]
    fn get(self, v: usize) -> InRow<'g> {
        let (g, v) = (self.g, NodeId::from_usize(v));
        let (ids, ws) = if self.reversed {
            (g.out_neighbors(v), g.out_weights(v))
        } else {
            (g.in_neighbors(v), g.in_weights(v))
        };
        InRow { ids, ws: ws.unwrap_or_default() }
    }
}

/// One node's in-edges on the CSR: its in-neighbors and, on weighted
/// graphs, their aligned weights (empty when unweighted).
#[derive(Clone, Copy)]
struct InRow<'g> {
    ids: &'g [NodeId],
    ws: &'g [f64],
}

/// Pulls the chunk `out` (nodes from `lo`) two consecutive rows at a time,
/// with `edge(acc, row, k)` adding in-edge `k` of `row` to `acc`. The two
/// rows' common prefix is summed interleaved, so each step has two
/// independent add chains in flight instead of one; then each row's tail
/// is finished alone. An odd last row is a pair whose partner is empty.
/// Each row is still summed alone, in in-neighbor order, and finished
/// with the same `α·acc + base·t`: the bits are the one-row loop's.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn pull_pairs<'g, L: Lanes>(
    lanes: L,
    rows: CsrRows<'g>,
    edge: impl Fn(&mut [f64], InRow<'g>, usize),
    out: &mut [f64],
    lo: usize,
    alpha: f64,
    bases: &[f64],
    tel: &[f64],
) {
    let w = lanes.width();
    let (mut acc0, mut acc1) = (L::Acc::default(), L::Acc::default());
    let (acc0, acc1) = (&mut acc0.as_mut()[..w], &mut acc1.as_mut()[..w]);
    for (p, (slots, t)) in out.chunks_mut(2 * w).zip(tel.chunks(2 * w)).enumerate() {
        let v = lo + 2 * p;
        let r0 = rows.get(v);
        let r1 = if slots.len() > w { rows.get(v + 1) } else { InRow { ids: &[], ws: &[] } };
        acc0.fill(0.0);
        acc1.fill(0.0);
        let common = r0.ids.len().min(r1.ids.len());
        for k in 0..common {
            edge(acc0, r0, k);
            edge(acc1, r1, k);
        }
        (common..r0.ids.len()).for_each(|k| edge(acc0, r0, k));
        (common..r1.ids.len()).for_each(|k| edge(acc1, r1, k));
        let (s0, s1) = slots.split_at_mut(w);
        let (t0, t1) = t.split_at(w);
        finish_row(s0, acc0, alpha, bases, t0);
        finish_row(s1, acc1, alpha, bases, t1);
    }
}

/// `acc += g`, lane by lane: one prescaled in-edge.
#[inline(always)]
fn add(acc: &mut [f64], g: &[f64]) {
    acc.iter_mut().zip(g).for_each(|(a, &gv)| *a += gv);
}

/// `acc += x·wt·inv`, lane by lane: one per-edge in-edge, in that order.
#[inline(always)]
fn add_per_edge(acc: &mut [f64], x: &[f64], wt: f64, inv: f64) {
    acc.iter_mut().zip(x).for_each(|(a, &xv)| *a += xv * wt * inv);
}

/// `slots = α·acc + base·t`, lane by lane: a pulled row's new value.
#[inline(always)]
fn finish_row(slots: &mut [f64], acc: &[f64], alpha: f64, bases: &[f64], t: &[f64]) {
    for (((s, &a), &base), &t) in slots.iter_mut().zip(acc).zip(bases).zip(t) {
        *s = alpha * a + base * t;
    }
}

/// A sweep's last pass: each lane's L1 change `Σ|x − next|`, accumulated
/// in node-index order.
fn residual_pass<L: Lanes>(lanes: L, x: &[f64], next: &[f64]) -> L::Acc {
    let w = lanes.width();
    let mut delta = L::Acc::default();
    let d = &mut delta.as_mut()[..w];
    for (xr, nr) in x.chunks_exact(w).zip(next.chunks_exact(w)) {
        for ((d, &a), &b) in d.iter_mut().zip(xr).zip(nr) {
            *d += (a - b).abs();
        }
    }
    delta
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
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

    /// Pulls `x` over `lanes` whole and in 1, 2, 3, 4 and 7 (uneven)
    /// chunks, through the per-edge gather and — on the unweighted view —
    /// the prescaled one, asserting every pull bitwise equal; returns the
    /// whole pull.
    fn pull_every_way<L: Lanes>(
        kernel: &SweepKernel<'_>,
        lanes: L,
        x: &[f64],
        tel: &[f64],
        bases: &[f64],
    ) -> Vec<f64> {
        let (n, w, alpha) = (kernel.node_count(), lanes.width(), 0.85);
        let mut y = vec![0.0f64; n * w];
        let mass = kernel.scale_pass(lanes, x, Some(&mut y));
        let unscaled = kernel.scale_pass(lanes, x, None);
        assert_eq!(mass.as_ref()[..w], unscaled.as_ref()[..w], "the gather moves the mass");
        let mut whole = vec![0.0f64; n * w];
        kernel.pull_rows(lanes, Gather::PerEdge(x), &mut whole, 0, alpha, bases, tel);
        for gather in [Gather::PerEdge(x), Gather::Prescaled(&y)] {
            for chunks in [1usize, 2, 3, 4, 7] {
                let chunk = n.div_ceil(chunks);
                let bounds: Vec<usize> = (0..=chunks).map(|j| (j * chunk).min(n)).collect();
                let mut parts = vec![0.0f64; n * w];
                for_each_chunk(&bounds, w, &mut parts, |lo, out| {
                    kernel.pull_rows(lanes, gather, out, lo, alpha, bases, tel);
                });
                assert_eq!(parts, whole, "{w} lanes, {chunks} chunks diverge from one");
            }
        }
        whole
    }

    #[test]
    fn chunked_pull_matches_single_chunk_bitwise() {
        // The determinism-across-chunk-counts guarantee reduces to:
        // pulling a node range in several (uneven) chunks produces exactly
        // the values of one full-range pull — and, on an unweighted view,
        // gathering from the prescaled vector produces exactly the values
        // of the per-edge `x·(1/W)` product. Checked at one lane and at
        // three, whose every column must be its own one-lane pull.
        // Exercised directly so it holds on CI runners with any core
        // count — effective_threads would otherwise clamp high thread
        // requests down and this path would go untested on small machines.
        let g = random_graph(101, 800, 11); // odd n => uneven final chunk
        let kernel = SweepKernel::new(g.view()).unwrap();
        let n = g.node_count();
        let x = |b: usize| -> Vec<f64> {
            (0..n).map(|i| (i as f64 + 1.0 + 3.0 * b as f64) / (n * n) as f64).collect()
        };
        let tel = |b: usize| TeleportVector::single(n, NodeId::from_usize(5 * b)).unwrap().dense();
        let bases = [0.15, 0.2, 0.35];
        let singles: Vec<Vec<f64>> =
            (0..3).map(|b| pull_every_way(&kernel, One, &x(b), &tel(b), &bases[b..=b])).collect();
        let interleave = |lane: &dyn Fn(usize) -> Vec<f64>| -> Vec<f64> {
            let lanes: Vec<Vec<f64>> = (0..3).map(lane).collect();
            (0..n * 3).map(|j| lanes[j % 3][j / 3]).collect()
        };
        let three = pull_every_way(&kernel, Many(3), &interleave(&x), &interleave(&tel), &bases);
        for (b, single) in singles.iter().enumerate() {
            let column: Vec<f64> = three.iter().skip(b).step_by(3).copied().collect();
            assert_eq!(&column, single, "lane {b} of three diverges from its one-lane pull");
        }
    }

    /// The oracle of one pull, written from [`DirectedGraph`] accessors
    /// alone: lane `c` of node `v` is `α·Σ_{u→v} x[u]·w(u,v)·(1/W(u)) +
    /// base[c]·t[v]`, one scalar sum per lane in in-neighbor order (an
    /// unweighted edge adds `x[u]·(1/W(u))`, rounded once).
    fn naive_pull(
        g: &DirectedGraph,
        reversed: bool,
        w: usize,
        x: &[f64],
        tel: &[f64],
        alpha: f64,
        bases: &[f64],
    ) -> Vec<f64> {
        let mut out = vec![0.0f64; g.node_count() * w];
        for v in 0..g.node_count() {
            let id = NodeId::from_usize(v);
            let (ids, ws) = if reversed {
                (g.out_neighbors(id), g.out_weights(id))
            } else {
                (g.in_neighbors(id), g.in_weights(id))
            };
            for c in 0..w {
                let mut sum = 0.0;
                for (k, &u) in ids.iter().enumerate() {
                    let wsum = if reversed { g.in_weight_sum(u) } else { g.out_weight_sum(u) };
                    let (xv, inv) = (x[u.index() * w + c], 1.0 / wsum);
                    sum += match ws {
                        Some(ws) => xv * ws[k] * inv,
                        None => xv * inv,
                    };
                }
                out[v * w + c] = alpha * sum + bases[c] * tel[v * w + c];
            }
        }
        out
    }

    /// One [`SweepKernel::pull_rows`] of the whole node range, split the
    /// way a planner pinned to `chunks` chunks splits it.
    fn kernel_pull<L: Lanes>(
        kernel: &SweepKernel<'_>,
        lanes: L,
        gather: Gather<'_>,
        chunks: usize,
        tel: &[f64],
        alpha: f64,
        bases: &[f64],
    ) -> Vec<f64> {
        let mut out = vec![0.0f64; tel.len()];
        crate::chunks::tests::with_chunks(chunks, || {
            let mut planner = ChunkPlanner::new(kernel.view(), 0);
            for_each_chunk(planner.plan(), lanes.width(), &mut out, |lo, out| {
                kernel.pull_rows(lanes, gather, out, lo, alpha, bases, tel);
            });
        });
        out
    }

    /// Checks every gather of one view's pull at `lanes` against
    /// [`naive_pull`], in 1–4 chunks.
    fn pull_agrees<L: Lanes>(
        kernel: &SweepKernel<'_>,
        g: &DirectedGraph,
        lanes: L,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let (n, w, alpha) = (g.node_count(), lanes.width(), 0.85);
        let reversed = kernel.view().is_reversed();
        // Mantissas of every length, so any reordered add shows in the bits.
        let mut h = seed | 1;
        let mut draw = || {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            (h >> 11) as f64 / (1u64 << 53) as f64 + 1e-3
        };
        let x: Vec<f64> = (0..n * w).map(|_| draw()).collect();
        let tel: Vec<f64> = (0..n * w).map(|_| draw()).collect();
        let bases: Vec<f64> = (0..w).map(|_| draw()).collect();
        let want = naive_pull(g, reversed, w, &x, &tel, alpha, &bases);
        let y: Vec<f64> = (0..n * w).map(|j| x[j] * kernel.inv_wsum[j / w]).collect();
        let gathers = if g.is_weighted() {
            vec![Gather::PerEdge(&x)]
        } else {
            vec![Gather::PerEdge(&x), Gather::Prescaled(&y)]
        };
        for gather in gathers {
            for chunks in 1..=4 {
                let got = kernel_pull(kernel, lanes, gather, chunks, &tel, alpha, &bases);
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<u64>>();
                prop_assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{} lanes, {} chunks, reversed={}",
                    w,
                    chunks,
                    reversed
                );
            }
        }
        Ok(())
    }

    proptest! {
        /// One pull equals [`naive_pull`] bit for bit: `n` odd and even,
        /// rows with no in-edges beside a hub row longer than every other,
        /// unweighted and weighted, both orientations, 1, 2 and 17 lanes,
        /// 1–4 chunks. `rows[v]` draws node `v`'s in-row length and
        /// sources; the hub's in-row is every node, itself included, and
        /// no other row has the hub as a source. Each edge list is also
        /// built reversed and swept transposed, so the same rows are read
        /// through the out-arrays too.
        #[test]
        fn pull_matches_a_naive_scalar_pull_bitwise(
            rows in prop::collection::vec(
                (
                    prop::sample::select(vec![0usize, 0, 1, 2, 3, 5, 13, 29, 47]),
                    prop::collection::vec(0u32..64, 47),
                ),
                1..48,
            ),
            hub in 0u32..64,
            weighted in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let n = rows.len() as u32;
            let hub = hub % n;
            let mut edges: Vec<(u32, u32)> = (0..n).map(|u| (u, hub)).collect();
            for (v, (len, sources)) in (0..n).zip(&rows) {
                let sources = sources.iter().take(*len).map(|&u| u % n);
                edges.extend(sources.filter(|&u| v != hub && u != hub).map(|u| (u, v)));
            }
            let build = |flip: bool| {
                let mut b = GraphBuilder::new();
                b.ensure_node(n - 1);
                for (j, &(u, v)) in edges.iter().enumerate() {
                    let (u, v) = if flip { (v, u) } else { (u, v) };
                    if weighted {
                        b.add_weighted_edge(NodeId::new(u), NodeId::new(v), 0.3 + (j % 7) as f64);
                    } else {
                        b.add_edge_indices(u, v);
                    }
                }
                b.build()
            };
            let (g, flipped) = (build(false), build(true));
            let views = [g.view(), g.transposed(), flipped.view(), flipped.transposed()];
            for view in views {
                let csr = view.as_csr().unwrap();
                let kernel = SweepKernel::new(view).unwrap();
                pull_agrees(&kernel, csr, One, seed)?;
                pull_agrees(&kernel, csr, Many(2), seed)?;
                pull_agrees(&kernel, csr, Many(17), seed)?;
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
    fn batch_detaches_exactly_one_buffer_per_lane() {
        use crate::arena::{with_arena, SolverArena};
        use std::sync::Arc;
        let g = random_graph(200, 1500, 5);
        let kernel = SweepKernel::new(g.view()).unwrap();
        let n = g.node_count();
        // Two groups, so the second reuses the first's interleaves.
        let teleports: Vec<TeleportVector> = (0..MAX_FUSED_LANES as u32 + 5)
            .map(|s| TeleportVector::single(n, NodeId::new(s)).unwrap())
            .collect();
        let arena = Arc::new(SolverArena::new());
        for scheme in Scheme::ALL {
            let cfg = SolverConfig::default().with_scheme(scheme);
            with_arena(&arena, || {
                kernel.solve_batch(&cfg, &teleports).unwrap(); // warm-up
                let warmed = arena.allocations();
                for i in 1..=3u64 {
                    kernel.solve_batch(&cfg, &teleports).unwrap();
                    // Each lane's escaping score vector is its only
                    // fresh buffer.
                    let fresh = arena.allocations() - warmed;
                    assert_eq!(fresh, i * teleports.len() as u64, "{scheme}");
                }
            });
        }
    }

    #[test]
    fn steady_state_top_k_batches_are_allocation_free() {
        use crate::algorithm::RelevanceAlgorithm;
        use crate::arena::{with_arena, SolverArena};
        use crate::builtin::{PAGERANK, PERSONALIZED_CHEIRANK, PERSONALIZED_PAGERANK};
        use crate::runner::{Algorithm, AlgorithmParams};
        use std::sync::Arc;
        let g = random_graph(300, 2500, 9);
        let seeds: Vec<NodeId> = (0..MAX_FUSED_LANES as u32 + 3).map(NodeId::new).collect();
        let arena = Arc::new(SolverArena::new());
        for algorithm in [&PERSONALIZED_PAGERANK, &PERSONALIZED_CHEIRANK, &PAGERANK] {
            for scheme in Scheme::ALL {
                // With a trace every seed takes the kernel; without one
                // the personalized seeds try certified push first.
                for trace in [true, false] {
                    let params = AlgorithmParams::new(Algorithm::PersonalizedPageRank)
                        .with_scheme(scheme)
                        .with_trace(trace)
                        .with_top_k(10);
                    with_arena(&arena, || {
                        algorithm.execute_batch(&g, &params, &seeds).unwrap(); // warm-up
                        let warmed = arena.allocations();
                        for _ in 0..3 {
                            let outs = algorithm.execute_batch(&g, &params, &seeds).unwrap();
                            assert!(outs.iter().all(|o| o.scores.is_none() && o.top.is_some()));
                        }
                        assert_eq!(
                            arena.allocations(),
                            warmed,
                            "{} {scheme} trace={trace}: top-k batches must not allocate",
                            algorithm.id()
                        );
                    });
                }
            }
        }
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
