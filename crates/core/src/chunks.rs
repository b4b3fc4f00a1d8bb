//! Chunk planning for the parallel sweep: how many contiguous node chunks
//! one sweep of [`Scheme::Parallel`](crate::solver::Scheme) is split
//! into, where the cuts fall, and the fork/join that runs them.
//!
//! Used by the one pull sweep, whatever its lane count. Nothing here
//! outlives a sweep: threads are forked per sweep and joined before it
//! returns, which is what lets the plan follow the process's occupancy
//! from one sweep to the next and leaves no idle thread behind a solve.

use crate::solver::effective_threads;
use relgraph::{GraphView, NodeId};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Sweep work — one unit per node plus one per in-edge — each chunk of an
/// auto-planned ([`SolverConfig::threads`](crate::solver::SolverConfig)
/// `== 0`) parallel sweep must carry: a sweep takes a second chunk from
/// `2 × CHUNK_MIN_WORK`, a third from `3 ×`, and so on.
///
/// Forking a scoped thread and joining it costs tens of microseconds *per
/// sweep*; this is the measured point where splitting wins that back.
/// `cargo run --release -p relbench --bin sweep -- cutover` prints the
/// table it is read off (the README's solver section keeps a copy): on
/// the 2-vCPU reference host a lone solve's two-chunk sweep breaks even
/// between 60k and 90k work (92 vs 97 µs at 59k, 159 vs 121 µs at 90k;
/// medians of three runs with the two-row pull) and wins from there on,
/// hence two chunks from `2 × 50_000`. The cheaper pull did not move that
/// point: before it the same cells read 113 vs 122 and 194 vs 145 µs.
/// With a second solve in flight one chunk wins at every size up to 1M
/// work (2.0 vs 2.4 ms), which is why the planner divides the cores by
/// the solves in flight. A 16-lane batch sweep breaks even between 90k
/// and 120k work, near where one lane does, so the constant serves both.
pub const CHUNK_MIN_WORK: usize = 50_000;

/// Parallel-scheme solves currently running in this process, counted
/// by [`InFlight`] guards. The planner divides the cores among them: two
/// solves that each fork two chunks on a two-core host only time-slice.
static PARALLEL_SOLVES_IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);

/// RAII registration of one running parallel solve.
struct InFlight;

impl InFlight {
    fn enter() -> Self {
        PARALLEL_SOLVES_IN_FLIGHT.fetch_add(1, Ordering::Relaxed);
        InFlight
    }

    /// Solves in flight right now, the caller's own included.
    fn count() -> usize {
        PARALLEL_SOLVES_IN_FLIGHT.load(Ordering::Relaxed)
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        PARALLEL_SOLVES_IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
    }
}

/// How many chunks an auto-planned sweep of `work` units takes when at
/// most `max_chunks` threads are usable and `in_flight` parallel solves
/// (this one included) share them: one per [`CHUNK_MIN_WORK`] of work,
/// within this solve's share of the cores, never below one.
fn planned_chunks(work: usize, max_chunks: usize, in_flight: usize) -> usize {
    (work / CHUNK_MIN_WORK).min(max_chunks / in_flight.max(1)).max(1)
}

/// Node boundaries of a `chunks`-way split of `0..n` at (nearly) equal
/// sweep work, a node costing `1 + in_degree`: `chunks + 1` ascending
/// bounds from `0` to `n`, chunk `j` covering `bounds[j]..bounds[j + 1]`.
///
/// Cut `j` falls before the first node at which the running work reaches
/// `j/chunks` of the total, so no chunk exceeds `total/chunks` by more
/// than its last node's work — an equal *node* split of a hub-first graph
/// leaves most of the edges in chunk 0. Chunks can be empty (more chunks
/// than nodes, or one hub spanning several cuts).
fn balanced_bounds(view: GraphView<'_>, chunks: usize) -> Vec<usize> {
    let n = view.node_count();
    let total = n + view.edge_count();
    let mut bounds = Vec::with_capacity(chunks + 1);
    bounds.push(0);
    let mut done = 0usize;
    for i in 0..n {
        while bounds.len() < chunks && done * chunks >= bounds.len() * total {
            bounds.push(i);
        }
        if bounds.len() == chunks {
            break;
        }
        done += 1 + view.in_degree(NodeId::from_usize(i));
    }
    bounds.resize(chunks + 1, n);
    bounds
}

/// Decides, sweep by sweep, how one parallel solve splits its node range.
///
/// An explicit thread count is honored on every sweep. With
/// `threads: 0` the count is re-planned each sweep from the sweep's work
/// and the solves in flight *at that moment* (see [`planned_chunks`]), so
/// a solve that starts alone and is joined by another gives the core back
/// at its next sweep. The split for each count is cut once, on first use.
/// Holding a planner is what registers the solve as in flight.
pub(crate) struct ChunkPlanner<'a> {
    view: GraphView<'a>,
    work: usize,
    auto: bool,
    max_chunks: usize,
    /// `bounds[c - 1]` is the `c`-chunk split; empty until first planned.
    bounds: Vec<Vec<usize>>,
    _in_flight: InFlight,
}

impl<'a> ChunkPlanner<'a> {
    pub(crate) fn new(view: GraphView<'a>, threads: usize) -> Self {
        let (auto, max_chunks) = (threads == 0, effective_threads(threads, view.node_count()));
        // Tests pin chunk counts the host's core count would clamp away.
        #[cfg(test)]
        let (auto, max_chunks) = tests::forced_chunks().map_or((auto, max_chunks), |c| (false, c));
        ChunkPlanner {
            view,
            work: view.node_count() + view.edge_count(),
            auto,
            max_chunks,
            bounds: vec![Vec::new(); max_chunks],
            _in_flight: InFlight::enter(),
        }
    }

    /// The chunk bounds of the next sweep.
    pub(crate) fn plan(&mut self) -> &[usize] {
        let chunks = if self.auto {
            planned_chunks(self.work, self.max_chunks, InFlight::count())
        } else {
            self.max_chunks
        };
        let bounds = &mut self.bounds[chunks - 1];
        if bounds.is_empty() {
            *bounds = balanced_bounds(self.view, chunks);
        }
        bounds
    }
}

/// Runs `f(lo, chunk)` over every non-empty chunk of `out`, which holds
/// `width` slots per node and is split at the node `bounds`. The first
/// chunk runs on the calling thread once the others are forked, so a
/// `c`-chunk sweep costs `c − 1` spawns and a single chunk none; every
/// spawned thread is joined before this returns.
pub(crate) fn for_each_chunk<T: Send>(
    bounds: &[usize],
    width: usize,
    out: &mut [T],
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    if bounds.len() == 2 {
        return f(bounds[0], out);
    }
    let f = &f;
    crossbeam::thread::scope(|s| {
        let mut mine = None;
        let mut rest = out;
        for cut in bounds.windows(2) {
            let (lo, hi) = (cut[0], cut[1]);
            let (chunk, tail) = rest.split_at_mut((hi - lo) * width);
            rest = tail;
            if chunk.is_empty() {
                continue;
            }
            if mine.is_none() {
                mine = Some((lo, chunk));
            } else {
                s.spawn(move |_| f(lo, chunk));
            }
        }
        if let Some((lo, chunk)) = mine {
            f(lo, chunk);
        }
    })
    .expect("worker thread panicked");
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ppr::TeleportVector;
    use crate::solver::tests::random_graph;
    use crate::solver::{SolverConfig, SweepKernel, SweepOutcome};
    use proptest::prelude::*;
    use relgraph::{CompactGraph, DirectedGraph, GraphBuilder};
    use std::cell::Cell;

    thread_local! {
        static FORCED_CHUNKS: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// The chunk count [`with_chunks`] pinned for this thread, if any.
    pub(super) fn forced_chunks() -> Option<usize> {
        FORCED_CHUNKS.with(Cell::get)
    }

    /// Runs `f` with every planner built on this thread taking exactly
    /// `chunks` chunks per sweep, whatever the host's core count.
    pub(crate) fn with_chunks<R>(chunks: usize, f: impl FnOnce() -> R) -> R {
        FORCED_CHUNKS.with(|c| c.set(Some(chunks)));
        let out = f();
        FORCED_CHUNKS.with(|c| c.set(None));
        out
    }

    /// Every node links to node 0, which so holds most of the in-edges.
    fn hub_graph(nodes: u32) -> DirectedGraph {
        let mut b = GraphBuilder::new();
        for u in 1..nodes {
            b.add_edge_indices(u, 0);
            if u % 5 == 0 {
                b.add_edge_indices(0, u);
            }
        }
        b.build()
    }

    fn edgeless_graph(nodes: u32) -> DirectedGraph {
        let mut b = GraphBuilder::new();
        b.ensure_node(nodes - 1);
        b.build()
    }

    fn node_work(g: &DirectedGraph, i: usize) -> usize {
        1 + g.view().in_degree(NodeId::from_usize(i))
    }

    #[test]
    fn bounds_are_monotone_cover_the_range_and_balance_work() {
        let graphs = [
            random_graph(300, 2500, 7),
            hub_graph(200),
            edgeless_graph(37),
            edgeless_graph(1),
            GraphBuilder::from_edge_indices([(0, 1), (1, 0)]),
        ];
        for g in &graphs {
            let n = g.node_count();
            let total = n + g.edge_count();
            let heaviest = (0..n).map(|i| node_work(g, i)).max().unwrap();
            // Chunk counts beyond the node count included: extra chunks
            // come out empty.
            for chunks in (1..=8).chain([n + 3, 64]) {
                let bounds = balanced_bounds(g.view(), chunks);
                assert_eq!(bounds.len(), chunks + 1);
                assert_eq!((bounds[0], bounds[chunks]), (0, n));
                assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "{bounds:?}");
                for w in bounds.windows(2) {
                    let work: usize = (w[0]..w[1]).map(|i| node_work(g, i)).sum();
                    assert!(
                        work <= total / chunks + heaviest,
                        "n={n} chunks={chunks}: chunk {w:?} carries {work} of {total}"
                    );
                }
            }
        }
    }

    #[test]
    fn hub_first_graph_is_cut_by_work_not_by_node_count() {
        // Node 0 carries 199 of the 238 in-edges — 200 of the 438 work
        // units: an equal-node split at 100 would give chunk 0 three
        // quarters of the sweep.
        let g = hub_graph(200);
        let bounds = balanced_bounds(g.view(), 2);
        assert!(bounds[1] < 20, "cut at {} leaves the hub chunk overloaded", bounds[1]);
        // With eight chunks the hub alone outweighs three fair shares:
        // the cuts it spans collapse into empty chunks behind it.
        let bounds = balanced_bounds(g.view(), 8);
        assert_eq!(bounds[..4], [0, 1, 1, 1]);
    }

    #[test]
    fn planned_chunks_follow_work_and_occupancy() {
        // Below two chunks' worth of work: never fork, however many cores.
        assert_eq!(planned_chunks(0, 64, 1), 1);
        assert_eq!(planned_chunks(2 * CHUNK_MIN_WORK - 1, 64, 1), 1);
        // From there one chunk per CHUNK_MIN_WORK, capped by the cores.
        assert_eq!(planned_chunks(2 * CHUNK_MIN_WORK, 64, 1), 2);
        assert_eq!(planned_chunks(5 * CHUNK_MIN_WORK + 1, 64, 1), 5);
        assert_eq!(planned_chunks(1_000_000, 2, 1), 2);
        assert_eq!(planned_chunks(1_000_000, 1, 1), 1);
        // The cores are divided among the solves in flight.
        assert_eq!(planned_chunks(1_000_000, 2, 2), 1);
        assert_eq!(planned_chunks(1_000_000, 8, 3), 2);
        assert_eq!(planned_chunks(1_000_000, 8, 9), 1);
        // A zero reading (cannot happen while a guard is held) is benign.
        assert_eq!(planned_chunks(1_000_000, 4, 0), 4);
    }

    #[test]
    fn explicit_thread_count_is_honored_on_a_tiny_graph() {
        // The `scheme_smoke` contract: `.threads(2)` on a fixture-sized
        // graph takes two chunks on every sweep (where the host has two
        // cores), while auto planning takes one.
        let g = random_graph(40, 200, 3);
        let two = effective_threads(2, g.node_count());
        assert_eq!(ChunkPlanner::new(g.view(), 2).plan().len(), two + 1);
        assert_eq!(ChunkPlanner::new(g.view(), 1).plan(), [0, 40]);
        assert_eq!(ChunkPlanner::new(g.view(), 0).plan(), [0, 40]);
    }

    #[test]
    fn in_flight_guards_register_and_release() {
        // Other tests solve concurrently, so the counter is only bounded
        // from one side at a time.
        let guards: Vec<InFlight> = (0..1000).map(|_| InFlight::enter()).collect();
        assert!(InFlight::count() >= 1000);
        drop(guards);
        assert!(InFlight::count() < 1000);
        let g = random_graph(10, 30, 1);
        let planner = ChunkPlanner::new(g.view(), 0);
        assert!(InFlight::count() >= 1);
        drop(planner);
    }

    #[test]
    fn for_each_chunk_visits_every_slot_once_and_keeps_chunk_0_on_the_caller() {
        let caller = std::thread::current().id();
        // Three slots per node; empty chunks at the front, middle and end.
        let bounds = [0usize, 0, 4, 4, 9, 11, 11];
        let mut out = vec![(usize::MAX, caller); 33];
        for_each_chunk(&bounds, 3, &mut out, |lo, chunk| {
            assert!(!chunk.is_empty());
            for (off, slot) in chunk.iter_mut().enumerate() {
                assert_eq!(slot.0, usize::MAX, "slot visited twice");
                *slot = (lo * 3 + off, std::thread::current().id());
            }
        });
        assert!(out.iter().enumerate().all(|(i, slot)| slot.0 == i));
        // The first non-empty chunk (nodes 0..4) ran here, the rest elsewhere.
        assert!(out[..12].iter().all(|slot| slot.1 == caller));
        assert!(out[12..].iter().all(|slot| slot.1 != caller));
        // A single chunk never leaves the calling thread.
        let mut out = vec![None; 5];
        for_each_chunk(&[0, 5], 1, &mut out, |lo, chunk| {
            assert_eq!((lo, chunk.len()), (0, 5));
            chunk.fill(Some(std::thread::current().id()));
        });
        assert!(out.iter().all(|&id| id == Some(caller)));
    }

    // ------------------------------------------------- chunk-count invariance

    /// Everything observable about a solve, scores as bit patterns.
    fn fingerprint(out: &SweepOutcome) -> (Vec<u64>, usize, u64, bool, Option<Vec<u64>>) {
        (
            out.scores.as_slice().iter().map(|v| v.to_bits()).collect(),
            out.convergence.iterations,
            out.convergence.residual.to_bits(),
            out.convergence.converged,
            out.trace.as_ref().map(|t| t.residuals.iter().map(|r| r.to_bits()).collect()),
        )
    }

    /// Cold, warm, top-k and batched (1 / 3 / 33 lanes) solves on `kernel`,
    /// fingerprinted.
    #[allow(clippy::type_complexity)]
    fn solve_every_way(
        kernel: &SweepKernel<'_>,
    ) -> (Vec<(Vec<u64>, usize, u64, bool, Option<Vec<u64>>)>, Vec<(NodeId, f64)>) {
        let n = kernel.node_count();
        // Damping 0.5 converges in ~20 sweeps, so stopping decisions (and the
        // batch's lane compaction) are exercised without hundreds of forks.
        let cfg = SolverConfig { damping: 0.5, tolerance: 1e-6, ..Default::default() }.with_trace();
        let seed = |i: usize| TeleportVector::single(n, NodeId::from_usize(i % n)).unwrap();
        let mut prints = vec![
            fingerprint(&kernel.solve(&cfg, &seed(1)).unwrap()),
            fingerprint(&kernel.solve(&cfg, &TeleportVector::uniform(n).unwrap()).unwrap()),
        ];
        let prev: Vec<f64> = (0..n).map(|i| (1 + i % 7) as f64 / (4 * n) as f64).collect();
        prints.push(fingerprint(&kernel.solve_warm(&cfg, &seed(2), &prev).unwrap()));
        for lanes in [1, 3, 33] {
            let teleports: Vec<TeleportVector> = (0..lanes).map(|b| seed(3 * b)).collect();
            prints.extend(kernel.solve_batch(&cfg, &teleports).unwrap().iter().map(fingerprint));
        }
        (prints, kernel.solve_top_k(&cfg, &seed(1), 5).unwrap().top)
    }

    /// The four graph shapes the invariance is asserted on, built from one
    /// random edge list: most edges into one hub; two thirds of the nodes
    /// dangling; weighted; and the unweighted graph on the compact tier.
    fn shapes(edges: &[(u32, u32)]) -> (DirectedGraph, DirectedGraph, DirectedGraph, CompactGraph) {
        let nodes = edges.iter().map(|&(u, v)| u.max(v)).max().unwrap() + 1;
        let mut hub = GraphBuilder::new();
        let mut dangling = GraphBuilder::new();
        let mut weighted = GraphBuilder::new();
        dangling.ensure_node(nodes - 1);
        for (j, &(u, v)) in edges.iter().enumerate() {
            hub.add_edge_indices(u, if j % 3 == 0 { v } else { 0 });
            if u < nodes.div_ceil(3) {
                dangling.add_edge_indices(u, v);
            }
            weighted.add_weighted_edge(NodeId::new(u), NodeId::new(v), 0.25 + (j % 9) as f64);
        }
        let plain = GraphBuilder::from_edge_indices(edges.iter().copied());
        (hub.build(), dangling.build(), weighted.build(), CompactGraph::from_csr(&plain))
    }

    proptest! {
        // Thousands of scoped-thread spawns per case: keep the case count low.
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// Scores, iteration counts and residual traces are bitwise equal
        /// for every chunk count 1..=8 — on hub-heavy, dangling-heavy,
        /// weighted and compact-tier graphs, for cold, warm, top-k and
        /// batched solves.
        #[test]
        fn solves_are_bitwise_invariant_in_the_chunk_count(
            edges in prop::collection::vec((0u32..40, 0u32..40), 20..160),
        ) {
            let (hub, dangling, weighted, compact) = shapes(&edges);
            let views =
                [hub.view(), dangling.view(), weighted.view(), compact.view(), compact.transposed()];
            for (shape, view) in views.into_iter().enumerate() {
                let kernel = SweepKernel::new(view).unwrap();
                let one = with_chunks(1, || solve_every_way(&kernel));
                for chunks in 2..=8 {
                    let many = with_chunks(chunks, || solve_every_way(&kernel));
                    prop_assert_eq!(&one, &many, "shape {} chunks={}", shape, chunks);
                }
            }
        }
    }

    #[test]
    fn auto_planned_solve_is_bitwise_equal_beside_a_concurrent_solve() {
        // Enough work (≈ 6 × CHUNK_MIN_WORK) that the planner forks when
        // the solve runs alone and — on a two-core host — stops forking
        // at whichever sweep the second solve comes into flight.
        let g = random_graph(30_000, 280_000, 99);
        assert!(g.node_count() + g.edge_count() >= 4 * CHUNK_MIN_WORK);
        let kernel = SweepKernel::new(g.view()).unwrap();
        let teleport = TeleportVector::single(g.node_count(), NodeId::new(7)).unwrap();
        let cfg = SolverConfig { tolerance: 1e-8, ..Default::default() }.with_trace();
        let one_chunk = with_chunks(1, || fingerprint(&kernel.solve(&cfg, &teleport).unwrap()));
        let solo = fingerprint(&kernel.solve(&cfg, &teleport).unwrap());
        assert_eq!(solo, one_chunk);

        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let other = TeleportVector::uniform(g.node_count()).unwrap();
                while !stop.load(Ordering::Relaxed) {
                    kernel.solve(&cfg, &other).unwrap();
                }
            });
            for _ in 0..3 {
                assert_eq!(fingerprint(&kernel.solve(&cfg, &teleport).unwrap()), one_chunk);
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
}
