//! CycleRank: personalized relevance from bounded-length cycles.
//!
//! CycleRank (Consonni, Laniado & Montresor, Proc. Royal Society A 2020;
//! showcased in the ICDE 2024 demo) assigns to every node `i` a relevance
//! score with respect to a reference node `r`:
//!
//! ```text
//! CR_{r,K}(i) = Σ_{n=2..K} σ(n) · c_{r,n}(i)
//! ```
//!
//! where `c_{r,n}(i)` is the number of simple cycles of length `n` that
//! contain both `r` and `i`, `K` is the maximum cycle length, and `σ` is a
//! non-increasing scoring function ([`crate::ScoringFunction`], default
//! `σ(n) = e^{−n}`).
//!
//! The intuition: a node merely *linked from* `r` is "relevant but perhaps
//! unrelated"; a node merely *linking to* `r` is "related but perhaps not
//! relevant"; nodes on **cycles** through `r` are both. Because globally
//! central hubs (the "United States" problem of Personalized PageRank)
//! rarely link *back* into a specific topic, they sit on few short cycles
//! and receive low CycleRank scores — the effect Tables I–II of the demo
//! paper illustrate.
//!
//! ## Enumeration strategy
//!
//! Exhaustive simple-cycle enumeration is exponential in general, but three
//! prunings (mirroring the reference implementation) make bounded-length
//! enumeration cheap in practice:
//!
//! 1. **Distance pruning (backward)** — a bounded reverse BFS computes
//!    `dist(u → r)` for every node within `K−1` hops; a DFS path of length
//!    `d` may only continue into `u` if `d + 1 + dist(u → r) ≤ K`.
//! 2. **Distance pruning (forward)** — only nodes with
//!    `dist(r → u) + dist(u → r) ≤ K` can lie on any qualifying cycle; the
//!    DFS never touches anything else.
//! 3. **SCC restriction** — both distances are finite only inside `r`'s
//!    strongly connected component, so pruning 1+2 subsumes the SCC cut; we
//!    still compute the candidate count for diagnostics.
//!
//! The remaining DFS enumerates exactly the simple paths `r → … → r` of
//! length `≤ K`, crediting `σ(len)` to every node on each cycle found
//! (including `r` itself, which therefore always attains the maximum score,
//! as the paper notes).

use crate::error::AlgoError;
use crate::result::ScoreVector;
use crate::scoring::ScoringFunction;
use relgraph::traversal::{bfs_distances_bounded, bfs_distances_bounded_rev, UNREACHABLE};
use relgraph::{DirectedGraph, NodeId};
use serde::{Deserialize, Serialize};

/// Parameters of CycleRank.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CycleRankConfig {
    /// Maximum cycle length K (≥ 2). The paper uses K = 3 on Wikipedia and
    /// K = 5 on the sparser Amazon co-purchase graph.
    pub max_cycle_len: u32,
    /// Cycle-length weighting σ(n); default `exp` (= e^{−n}).
    pub scoring: ScoringFunction,
    /// **Extension (the CycleRank paper's future work):** when true and the
    /// graph carries edge weights, each cycle's contribution is multiplied
    /// by its *bottleneck* (minimum) edge weight, so a cycle of strong
    /// interactions — e.g. users who repeatedly reply to each other on the
    /// demo's Twitter graphs — counts more than one of one-off mentions.
    /// Ignored on unweighted graphs. Default false (the published
    /// definition).
    #[serde(default)]
    pub use_edge_weights: bool,
}

impl Default for CycleRankConfig {
    fn default() -> Self {
        CycleRankConfig {
            max_cycle_len: 3,
            scoring: ScoringFunction::Exponential,
            use_edge_weights: false,
        }
    }
}

impl CycleRankConfig {
    /// Config with a specific K and the default scoring function.
    pub fn with_k(k: u32) -> Self {
        CycleRankConfig { max_cycle_len: k, ..Default::default() }
    }

    /// Enables the bottleneck edge-weight extension.
    pub fn weighted(mut self) -> Self {
        self.use_edge_weights = true;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), AlgoError> {
        if self.max_cycle_len < 2 {
            return Err(AlgoError::InvalidMaxCycleLength(self.max_cycle_len));
        }
        Ok(())
    }
}

/// CycleRank scores plus enumeration diagnostics.
#[derive(Debug, Clone)]
pub struct CycleRankOutput {
    /// Per-node scores (0 for nodes on no qualifying cycle).
    pub scores: ScoreVector,
    /// Total number of simple cycles of length 2..=K through the reference.
    pub cycles_found: u64,
    /// Number of cycles per length: `cycles_by_len[n]` counts length-`n`
    /// cycles (indices 0 and 1 are always 0).
    pub cycles_by_len: Vec<u64>,
    /// Number of candidate nodes that survived the distance pruning
    /// (the DFS search space), including the reference.
    pub candidates: usize,
}

impl CycleRankOutput {
    fn empty(n: usize, k: u32) -> Self {
        CycleRankOutput {
            scores: ScoreVector::zeros(n),
            cycles_found: 0,
            cycles_by_len: vec![0; k as usize + 1],
            candidates: 0,
        }
    }
}

/// Computes CycleRank scores of all nodes with respect to `reference`.
pub fn cyclerank(
    g: &DirectedGraph,
    reference: NodeId,
    cfg: &CycleRankConfig,
) -> Result<CycleRankOutput, AlgoError> {
    cfg.validate()?;
    let n = g.node_count();
    if n == 0 {
        return Err(AlgoError::EmptyGraph);
    }
    if reference.index() >= n {
        return Err(AlgoError::InvalidReference { node: reference.raw(), node_count: n });
    }

    let k = cfg.max_cycle_len;

    // Pruning distances. A cycle of length ≤ K visits nodes at forward
    // distance ≤ K−1 and backward distance ≤ K−1 from r.
    let dist_from = bfs_distances_bounded(g, reference, k - 1);
    let dist_to = bfs_distances_bounded_rev(g, reference, k - 1);

    // Candidate mask: nodes that can possibly lie on a qualifying cycle.
    let mut candidate = vec![false; n];
    let mut candidates = 0usize;
    for i in 0..n {
        let (df, dt) = (dist_from[i], dist_to[i]);
        if df != UNREACHABLE && dt != UNREACHABLE && df + dt <= k {
            candidate[i] = true;
            candidates += 1;
        }
    }
    if candidates <= 1 {
        // Reference sits on no cycle of length ≤ K.
        let mut out = CycleRankOutput::empty(n, k);
        out.candidates = candidates;
        return Ok(out);
    }

    // Precompute σ(n) for n = 0..=K (indices < 2 unused).
    let sigma: Vec<f64> = (0..=k).map(|i| cfg.scoring.weight(i)).collect();

    let mut scores = vec![0.0f64; n];
    let mut cycles_by_len = vec![0u64; k as usize + 1];
    let mut cycles_found = 0u64;

    // Iterative DFS over simple paths starting at r.
    // Each stack frame: (node, index into its out-neighbor list).
    // With the bottleneck extension, bottleneck[d] is the minimum edge
    // weight along the first d edges of the current path.
    let use_weights = cfg.use_edge_weights && g.is_weighted();
    let mut on_path = vec![false; n];
    let mut path: Vec<NodeId> = Vec::with_capacity(k as usize);
    let mut frames: Vec<(NodeId, usize)> = Vec::with_capacity(k as usize);
    let mut bottleneck: Vec<f64> = Vec::with_capacity(k as usize + 1);

    on_path[reference.index()] = true;
    path.push(reference);
    frames.push((reference, 0));
    bottleneck.push(f64::INFINITY);

    while let Some(&mut (u, ref mut next_idx)) = frames.last_mut() {
        let depth = path.len() as u32 - 1; // edges from r to u
        let neighbors = g.out_neighbors(u);
        let weights = if use_weights { g.out_weights(u) } else { None };

        let mut advanced = false;
        while *next_idx < neighbors.len() {
            let v = neighbors[*next_idx];
            let edge_w = weights.map(|w| w[*next_idx]).unwrap_or(1.0);
            *next_idx += 1;

            if v == reference {
                // Closed a cycle of length depth+1; self-loops (len 1) are
                // not counted — cycles start at length 2.
                let len = depth + 1;
                if len >= 2 {
                    cycles_found += 1;
                    cycles_by_len[len as usize] += 1;
                    let mut w = sigma[len as usize];
                    if use_weights {
                        let cycle_bottleneck = bottleneck[depth as usize].min(edge_w);
                        w *= cycle_bottleneck;
                    }
                    for &p in &path {
                        scores[p.index()] += w;
                    }
                }
                continue;
            }

            let vi = v.index();
            if !candidate[vi] || on_path[vi] {
                continue;
            }
            // Admissibility: the path r→…→u→v (depth+1 edges) must still be
            // able to return to r within the budget.
            if depth + 1 + dist_to[vi] > k {
                continue;
            }

            on_path[vi] = true;
            path.push(v);
            bottleneck.push(bottleneck[depth as usize].min(edge_w));
            frames.push((v, 0));
            advanced = true;
            break;
        }

        if !advanced
            && frames
                .last()
                .map(|&(node, idx)| node == u && idx >= neighbors.len())
                .unwrap_or(false)
        {
            // Exhausted u's neighbors: backtrack.
            frames.pop();
            let popped = path.pop().expect("path/frames in sync");
            bottleneck.pop();
            on_path[popped.index()] = false;
        }
    }

    Ok(CycleRankOutput {
        scores: ScoreVector::new(scores),
        cycles_found,
        cycles_by_len,
        candidates,
    })
}

/// CycleRank **without** the distance prunings — a reference
/// implementation for the ablation benchmark (`cargo bench -p relbench
/// --bench pruning`) and for cross-checking the optimized enumerator.
///
/// Enumerates the same simple cycles by plain depth-bounded DFS: a path may
/// extend into any unvisited node as long as its length stays below K,
/// regardless of whether the node can still reach the reference. Exact,
/// but explores a search space larger by orders of magnitude on graphs
/// with low reciprocity.
pub fn cyclerank_unpruned(
    g: &DirectedGraph,
    reference: NodeId,
    cfg: &CycleRankConfig,
) -> Result<CycleRankOutput, AlgoError> {
    cfg.validate()?;
    let n = g.node_count();
    if n == 0 {
        return Err(AlgoError::EmptyGraph);
    }
    if reference.index() >= n {
        return Err(AlgoError::InvalidReference { node: reference.raw(), node_count: n });
    }
    let k = cfg.max_cycle_len;
    let sigma: Vec<f64> = (0..=k).map(|i| cfg.scoring.weight(i)).collect();

    let mut scores = vec![0.0f64; n];
    let mut cycles_by_len = vec![0u64; k as usize + 1];
    let mut cycles_found = 0u64;

    let mut on_path = vec![false; n];
    let mut path: Vec<NodeId> = Vec::with_capacity(k as usize);
    let mut frames: Vec<(NodeId, usize)> = Vec::with_capacity(k as usize);

    on_path[reference.index()] = true;
    path.push(reference);
    frames.push((reference, 0));

    while !frames.is_empty() {
        let fi = frames.len() - 1;
        let (u, idx) = frames[fi];
        let neighbors = g.out_neighbors(u);
        if idx >= neighbors.len() {
            frames.pop();
            let popped = path.pop().expect("path/frames in sync");
            on_path[popped.index()] = false;
            continue;
        }
        frames[fi].1 += 1;
        let v = neighbors[idx];
        let depth = path.len() as u32 - 1;

        if v == reference {
            let len = depth + 1;
            if len >= 2 {
                cycles_found += 1;
                cycles_by_len[len as usize] += 1;
                let w = sigma[len as usize];
                for &p in &path {
                    scores[p.index()] += w;
                }
            }
            continue;
        }
        // Only bound: the path must stay short enough to possibly close.
        if on_path[v.index()] || depth + 1 >= k {
            continue;
        }
        on_path[v.index()] = true;
        path.push(v);
        frames.push((v, 0));
    }

    Ok(CycleRankOutput {
        scores: ScoreVector::new(scores),
        cycles_found,
        cycles_by_len,
        candidates: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgraph::GraphBuilder;

    fn cr(g: &DirectedGraph, r: u32, k: u32) -> CycleRankOutput {
        cyclerank(g, NodeId::new(r), &CycleRankConfig::with_k(k)).unwrap()
    }

    #[test]
    fn two_cycle_scores() {
        // 0 <-> 1: one cycle of length 2.
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 0)]);
        let out = cr(&g, 0, 3);
        assert_eq!(out.cycles_found, 1);
        assert_eq!(out.cycles_by_len[2], 1);
        let w = (-2.0f64).exp();
        assert!((out.scores.get(NodeId::new(0)) - w).abs() < 1e-12);
        assert!((out.scores.get(NodeId::new(1)) - w).abs() < 1e-12);
    }

    #[test]
    fn triangle_counted_once_per_direction() {
        // Directed triangle 0->1->2->0: exactly one length-3 cycle.
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 2), (2, 0)]);
        let out = cr(&g, 0, 3);
        assert_eq!(out.cycles_found, 1);
        assert_eq!(out.cycles_by_len[3], 1);
        let w = (-3.0f64).exp();
        for u in g.nodes() {
            assert!((out.scores.get(u) - w).abs() < 1e-12);
        }
    }

    #[test]
    fn k_too_small_misses_long_cycles() {
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 2), (2, 0)]);
        let out = cr(&g, 0, 2);
        assert_eq!(out.cycles_found, 0);
        assert_eq!(out.scores.sum(), 0.0);
    }

    #[test]
    fn reference_gets_maximum_score() {
        // Paper: "By definition, the reference node gets the maximum
        // Cyclerank score as it is included in all the cycles considered."
        let g = GraphBuilder::from_edge_indices([
            (0, 1),
            (1, 0),
            (0, 2),
            (2, 0),
            (1, 2),
            (2, 1),
            (2, 3),
            (3, 2),
        ]);
        for r in 0..4u32 {
            let out = cr(&g, r, 4);
            // The reference attains the maximum score (ties possible when
            // another node lies on exactly the same cycles).
            let max = out.scores.as_slice().iter().cloned().fold(f64::MIN, f64::max);
            assert!(
                (out.scores.get(NodeId::new(r)) - max).abs() < 1e-12,
                "reference {r}: {} < max {max}",
                out.scores.get(NodeId::new(r))
            );
        }
    }

    #[test]
    fn one_way_link_scores_zero() {
        // The motivating example: r links to a hub that never links back.
        let mut b = GraphBuilder::new();
        let r = b.add_labeled_node("Pasta");
        let hub = b.add_labeled_node("United States");
        let friend = b.add_labeled_node("Italy");
        b.add_edge(r, hub);
        b.add_edge(r, friend);
        b.add_edge(friend, r);
        let g = b.build();
        let out = cyclerank(&g, r, &CycleRankConfig::default()).unwrap();
        assert_eq!(out.scores.get(hub), 0.0);
        assert!(out.scores.get(friend) > 0.0);
    }

    #[test]
    fn cycle_counts_match_combinatorics() {
        // Complete directed graph on 4 nodes: through a fixed node r there
        // are 3 cycles of length 2, 3·2 = 6 of length 3, 3·2·1 = 6 of length 4.
        let mut b = GraphBuilder::new();
        for i in 0..4u32 {
            for j in 0..4u32 {
                if i != j {
                    b.add_edge_indices(i, j);
                }
            }
        }
        let g = b.build();
        let out = cr(&g, 0, 4);
        assert_eq!(out.cycles_by_len[2], 3);
        assert_eq!(out.cycles_by_len[3], 6);
        assert_eq!(out.cycles_by_len[4], 6);
        assert_eq!(out.cycles_found, 15);
    }

    #[test]
    fn simple_cycles_only_no_revisits() {
        // Figure-eight: 0<->1 and 0<->2. Cycles through 0 with K=4:
        // (0,1), (0,2) — the length-4 walk 0,1,0,2 revisits 0 and must NOT
        // count as a simple cycle.
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 0), (0, 2), (2, 0)]);
        let out = cr(&g, 0, 4);
        assert_eq!(out.cycles_found, 2);
        assert_eq!(out.cycles_by_len[2], 2);
        assert_eq!(out.cycles_by_len[4], 0);
    }

    #[test]
    fn self_loop_not_a_cycle() {
        let g = GraphBuilder::from_edge_indices([(0, 0), (0, 1), (1, 0)]);
        let out = cr(&g, 0, 3);
        assert_eq!(out.cycles_found, 1); // only 0<->1
    }

    #[test]
    fn monotone_in_k() {
        // More cycle lengths allowed => scores can only grow.
        let g = GraphBuilder::from_edge_indices([
            (0, 1),
            (1, 0),
            (1, 2),
            (2, 1),
            (2, 0),
            (0, 2),
            (2, 3),
            (3, 0),
        ]);
        let mut prev_sum = -1.0;
        for k in 2..=6 {
            let out = cr(&g, 0, k);
            let s = out.scores.sum();
            assert!(s >= prev_sum - 1e-15, "K={k}: {s} < {prev_sum}");
            prev_sum = s;
        }
    }

    #[test]
    fn disconnected_reference_all_zero() {
        let mut b = GraphBuilder::new();
        b.add_edge_indices(1, 2);
        b.add_edge_indices(2, 1);
        b.ensure_node(0);
        let g = b.build();
        let out = cr(&g, 0, 5);
        assert_eq!(out.cycles_found, 0);
        assert_eq!(out.scores.sum(), 0.0);
        assert!(out.candidates <= 1);
    }

    #[test]
    fn scoring_function_changes_weights() {
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 0)]);
        let cfg = CycleRankConfig {
            max_cycle_len: 3,
            scoring: ScoringFunction::Constant,
            use_edge_weights: false,
        };
        let out = cyclerank(&g, NodeId::new(0), &cfg).unwrap();
        assert_eq!(out.scores.get(NodeId::new(1)), 1.0);
        let cfg = CycleRankConfig {
            max_cycle_len: 3,
            scoring: ScoringFunction::Inverse,
            use_edge_weights: false,
        };
        let out = cyclerank(&g, NodeId::new(0), &cfg).unwrap();
        assert_eq!(out.scores.get(NodeId::new(1)), 0.5);
    }

    #[test]
    fn shorter_cycles_weigh_more() {
        // Node 1 shares a 2-cycle with 0; node 2 and 3 share a 3-cycle.
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 0), (0, 2), (2, 3), (3, 0)]);
        let out = cr(&g, 0, 4);
        assert!(out.scores.get(NodeId::new(1)) > out.scores.get(NodeId::new(2)));
    }

    #[test]
    fn invalid_inputs() {
        let g = GraphBuilder::from_edge_indices([(0, 1)]);
        assert!(matches!(
            cyclerank(&g, NodeId::new(0), &CycleRankConfig::with_k(1)),
            Err(AlgoError::InvalidMaxCycleLength(1))
        ));
        assert!(matches!(
            cyclerank(&g, NodeId::new(9), &CycleRankConfig::default()),
            Err(AlgoError::InvalidReference { .. })
        ));
        let empty = GraphBuilder::new().build();
        assert!(matches!(
            cyclerank(&empty, NodeId::new(0), &CycleRankConfig::default()),
            Err(AlgoError::EmptyGraph)
        ));
    }

    #[test]
    fn candidates_pruned_by_distance() {
        // Long tail 0->1->...->9->0 (cycle of length 10) with K=3: no node
        // qualifies except via short cycles; candidates should be tiny.
        let mut b = GraphBuilder::new();
        for i in 0..9 {
            b.add_edge_indices(i, i + 1);
        }
        b.add_edge_indices(9, 0);
        // Add a short cycle 0<->5? No: keep pure; only the 10-cycle exists.
        let g = b.build();
        let out = cr(&g, 0, 3);
        assert_eq!(out.cycles_found, 0);
        // Only r itself (fwd+bwd dist 0) can be a candidate: nodes at
        // dist_from 1..2 have dist_to >= 8.
        assert!(out.candidates <= 1, "candidates = {}", out.candidates);
    }

    #[test]
    fn weighted_extension_bottleneck() {
        // 0 <->(5, 2) 1 and 0 <->(1, 1) 2: cycle bottlenecks 2 and 1.
        let mut b = GraphBuilder::new();
        b.add_weighted_edge(NodeId::new(0), NodeId::new(1), 5.0);
        b.add_weighted_edge(NodeId::new(1), NodeId::new(0), 2.0);
        b.add_weighted_edge(NodeId::new(0), NodeId::new(2), 1.0);
        b.add_weighted_edge(NodeId::new(2), NodeId::new(0), 1.0);
        let g = b.build();
        let cfg = CycleRankConfig::with_k(3).weighted();
        let out = cyclerank(&g, NodeId::new(0), &cfg).unwrap();
        let s2 = (-2.0f64).exp();
        assert!((out.scores.get(NodeId::new(1)) - 2.0 * s2).abs() < 1e-12);
        assert!((out.scores.get(NodeId::new(2)) - 1.0 * s2).abs() < 1e-12);
        // Node 1's stronger mutual tie outranks node 2's weak one.
        assert!(out.scores.get(NodeId::new(1)) > out.scores.get(NodeId::new(2)));

        // Without the extension both score identically.
        let out = cyclerank(&g, NodeId::new(0), &CycleRankConfig::with_k(3)).unwrap();
        assert_eq!(out.scores.get(NodeId::new(1)), out.scores.get(NodeId::new(2)));
    }

    #[test]
    fn weighted_extension_longer_cycles() {
        // Triangle 0->1->2->0 with weights 3, 1, 2: bottleneck 1.
        let mut b = GraphBuilder::new();
        b.add_weighted_edge(NodeId::new(0), NodeId::new(1), 3.0);
        b.add_weighted_edge(NodeId::new(1), NodeId::new(2), 1.0);
        b.add_weighted_edge(NodeId::new(2), NodeId::new(0), 2.0);
        let g = b.build();
        let cfg = CycleRankConfig::with_k(3).weighted();
        let out = cyclerank(&g, NodeId::new(0), &cfg).unwrap();
        let want = (-3.0f64).exp() * 1.0;
        for u in g.nodes() {
            assert!((out.scores.get(u) - want).abs() < 1e-12, "{u:?}");
        }
    }

    #[test]
    fn weighted_flag_is_noop_on_unweighted_graphs() {
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 0), (1, 2), (2, 0), (0, 2)]);
        let plain = cyclerank(&g, NodeId::new(0), &CycleRankConfig::with_k(4)).unwrap();
        let flagged =
            cyclerank(&g, NodeId::new(0), &CycleRankConfig::with_k(4).weighted()).unwrap();
        for u in g.nodes() {
            assert_eq!(plain.scores.get(u), flagged.scores.get(u));
        }
    }

    #[test]
    fn unpruned_agrees_with_pruned() {
        // Deterministic pseudo-random graphs of varying density.
        for (seed, density) in [(1u64, 10), (2, 25), (3, 40)] {
            let mut edges = Vec::new();
            let mut x = seed | 1;
            for u in 0..12u32 {
                for v in 0..12u32 {
                    if u == v {
                        continue;
                    }
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if x % 100 < density {
                        edges.push((u, v));
                    }
                }
            }
            let g = GraphBuilder::from_edge_indices(edges);
            for k in 2..=5 {
                for r in [0u32, 5] {
                    let cfg = CycleRankConfig::with_k(k);
                    let a = cyclerank(&g, NodeId::new(r), &cfg).unwrap();
                    let b = cyclerank_unpruned(&g, NodeId::new(r), &cfg).unwrap();
                    assert_eq!(a.cycles_found, b.cycles_found, "seed {seed} k {k} r {r}");
                    assert_eq!(a.cycles_by_len, b.cycles_by_len);
                    for u in g.nodes() {
                        assert!((a.scores.get(u) - b.scores.get(u)).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn pruned_explores_fewer_candidates() {
        // Long one-way tail: the pruned version never leaves the tiny SCC.
        let mut b = GraphBuilder::new();
        b.add_edge_indices(0, 1);
        b.add_edge_indices(1, 0);
        for i in 1..60 {
            b.add_edge_indices(i, i + 1); // one-way tail, no return
        }
        let g = b.build();
        let out = cyclerank(&g, NodeId::new(0), &CycleRankConfig::with_k(5)).unwrap();
        assert!(out.candidates <= 3, "candidates = {}", out.candidates);
        let un = cyclerank_unpruned(&g, NodeId::new(0), &CycleRankConfig::with_k(5)).unwrap();
        assert_eq!(out.cycles_found, un.cycles_found);
    }

    #[test]
    fn brute_force_cross_check_small_graph() {
        // Deterministic pseudo-random 8-node graph; compare against a naive
        // enumerator of simple cycles through r.
        let mut edges = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for u in 0..8u32 {
            for v in 0..8u32 {
                if u == v {
                    continue;
                }
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x % 100 < 30 {
                    edges.push((u, v));
                }
            }
        }
        let g = GraphBuilder::from_edge_indices(edges.clone());
        let k = 5u32;
        let out = cr(&g, 0, k);

        // Naive: DFS enumerating all simple paths from 0 back to 0.
        let mut counts = vec![0u64; k as usize + 1];
        let mut scores = vec![0.0f64; g.node_count()];
        fn dfs(
            g: &DirectedGraph,
            r: NodeId,
            u: NodeId,
            path: &mut Vec<NodeId>,
            k: u32,
            counts: &mut [u64],
            scores: &mut [f64],
        ) {
            for &v in g.out_neighbors(u) {
                if v == r {
                    let len = path.len() as u32;
                    if len >= 2 && len <= k {
                        counts[len as usize] += 1;
                        for &p in path.iter() {
                            scores[p.index()] += (-(len as f64)).exp();
                        }
                    }
                    continue;
                }
                if path.contains(&v) || path.len() as u32 >= k {
                    continue;
                }
                path.push(v);
                dfs(g, r, v, path, k, counts, scores);
                path.pop();
            }
        }
        let mut path = vec![NodeId::new(0)];
        dfs(&g, NodeId::new(0), NodeId::new(0), &mut path, k, &mut counts, &mut scores);

        assert_eq!(out.cycles_by_len, counts, "cycle counts per length");
        for u in g.nodes() {
            assert!(
                (out.scores.get(u) - scores[u.index()]).abs() < 1e-9,
                "score mismatch at {u:?}: {} vs {}",
                out.scores.get(u),
                scores[u.index()]
            );
        }
    }
}
