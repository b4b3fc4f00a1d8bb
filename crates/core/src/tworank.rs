//! 2DRank: the two-dimensional PageRank × CheiRank ranking.
//!
//! Zhirov, Zhirov & Shepelyansky (2010) combine the PageRank rank index
//! `K(i)` and the CheiRank rank index `K*(i)` of each node into a single
//! ordering. As the paper notes, **2DRank produces a ranking, not a score**:
//! it sweeps a growing square over the (K, K*) plane and appends nodes in
//! the order they enter the square.
//!
//! Concretely, with 1-based rank indices, node `i` enters the square at side
//! length `k(i) = max(K(i), K*(i))`. Nodes are emitted by increasing `k`;
//! within one `k`, following Zhirov et al., nodes on the horizontal side
//! (`K*(i) = k`, `K(i) < k`) come first ordered by `K`, then the corner /
//! vertical side (`K(i) = k`) ordered by `K*`. Equivalently: sort by
//! `(max(K, K*), K* == k ? 0 : 1, min(K, K*))` — deterministic given the two
//! input rankings.
//!
//! The personalized variant applies the same sweep to Personalized PageRank
//! and Personalized CheiRank rankings for a reference node. Both variants
//! are [`two_d_rank_with`]: two [`SweepKernel`] solves, one per view
//! orientation, unless its job already solved them — each vector is
//! fetched through the job's [`crate::memo`], so a 2DRank row of a query
//! set reuses the vectors its PageRank and CheiRank siblings solved.
//! They are served as the registry's `2drank` and `p2drank` built-ins.

use crate::error::AlgoError;
use crate::memo::{self, Orientation};
use crate::ppr::TeleportVector;
use crate::result::{RankedList, ScoreVector};
use crate::solver::{Convergence, ConvergenceTrace, SolverConfig, SweepKernel};
use relgraph::{DirectedGraph, NodeId};

/// Combines two rankings with the 2DRank square sweep.
///
/// `pr_rank` and `chei_rank` are 0-based positions per node (as produced by
/// [`RankedList::positions`]); both must cover the same node count.
pub fn two_d_rank_from_positions(pr_rank: &[u32], chei_rank: &[u32]) -> RankedList {
    debug_assert_eq!(pr_rank.len(), chei_rank.len());
    let n = pr_rank.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&i| {
        let k = pr_rank[i as usize];
        let ks = chei_rank[i as usize];
        let side = k.max(ks);
        // Horizontal side (CheiRank attains the max) first, then vertical.
        let on_vertical = u8::from(k >= ks);
        (side, on_vertical, k.min(ks), i)
    });
    RankedList::new(order.into_iter().map(NodeId::new).collect())
}

/// Outcome of [`two_d_rank_with`]: the combined ranking plus the solver
/// diagnostics of the two underlying kernel sweeps.
#[derive(Debug, Clone)]
pub struct TwoDRankOutcome {
    /// The square-sweep combined ranking.
    pub ranking: RankedList,
    /// Diagnostics of the *binding* sweep — the one that failed to
    /// converge, or needed the most iterations (largest final residual on
    /// a tie) — except that `converged` requires both sweeps. Consistent
    /// with `trace`: when tracing, `trace.last() == Some(residual)`.
    pub convergence: Convergence,
    /// Residual trace of the binding sweep, when the config requested
    /// tracing.
    pub trace: Option<ConvergenceTrace>,
}

/// 2DRank under an explicit solver configuration: the shared
/// [`SweepKernel`] sweeps both view orientations with the chosen scheme
/// and thread count — or the job's memo hands over vectors an earlier row
/// solved — and the two rankings are combined with the square sweep.
/// `reference` selects the personalized variant.
pub fn two_d_rank_with(
    g: &DirectedGraph,
    cfg: &SolverConfig,
    reference: Option<NodeId>,
) -> Result<TwoDRankOutcome, AlgoError> {
    let teleport = TeleportVector::for_reference(g.node_count(), reference)?;
    let solve = |orientation: Orientation| {
        memo::stationary(orientation, reference, cfg, || {
            SweepKernel::new(orientation.view(g))?.solve(cfg, &teleport)
        })
    };
    let pr = solve(Orientation::Forward)?;
    let chei = solve(Orientation::Transposed)?;
    let ranking = combine(g.node_count(), &pr.scores, &chei.scores);
    // Pick the binding sweep wholesale (not field-wise maxima), so the
    // reported residual always matches the reported trace's last entry.
    let (pc, cc) = (pr.convergence, chei.convergence);
    let pr_binds =
        (!pc.converged, pc.iterations, pc.residual) >= (!cc.converged, cc.iterations, cc.residual);
    let binding = if pr_binds { pc } else { cc };
    let convergence = Convergence { converged: pc.converged && cc.converged, ..binding };
    let trace = if pr_binds { &pr.trace } else { &chei.trace }.clone();
    Ok(TwoDRankOutcome { ranking, convergence, trace })
}

fn combine(n: usize, pr: &ScoreVector, chei: &ScoreVector) -> RankedList {
    let pr_pos = pr.ranking().positions(n);
    let chei_pos = chei.ranking().positions(n);
    two_d_rank_from_positions(&pr_pos, &chei_pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgraph::GraphBuilder;

    #[test]
    fn sweep_orders_by_square_entry() {
        // Node: 0 1 2 3
        // K   : 0 1 2 3   (PageRank positions)
        // K*  : 3 2 1 0   (CheiRank positions)
        // max : 3 2 2 3
        // Order: side 2 first {1, 2}, then side 3 {0, 3}.
        // Within side 2: node 1 (K=1 < K*=2 → horizontal) before node 2 (vertical).
        // Within side 3: node 0 (K*=3 attains max → horizontal) before node 3.
        let r = two_d_rank_from_positions(&[0, 1, 2, 3], &[3, 2, 1, 0]);
        let ids: Vec<u32> = r.as_slice().iter().map(|n| n.raw()).collect();
        assert_eq!(ids, vec![1, 2, 0, 3]);
    }

    #[test]
    fn identical_rankings_passthrough() {
        let pos = [2u32, 0, 1];
        let r = two_d_rank_from_positions(&pos, &pos);
        let ids: Vec<u32> = r.as_slice().iter().map(|n| n.raw()).collect();
        assert_eq!(ids, vec![1, 2, 0]);
    }

    #[test]
    fn ranking_is_permutation() {
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 2), (2, 0), (0, 3), (3, 0)]);
        let r = two_d_rank_with(&g, &SolverConfig::default(), None).unwrap().ranking;
        let mut ids: Vec<u32> = r.as_slice().iter().map(|n| n.raw()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn balanced_node_wins() {
        // Node 0: both receives from and links to everyone (balanced).
        // Nodes 1..=4: in a ring, each also linked with 0 both ways.
        let mut b = GraphBuilder::new();
        for i in 1..=4 {
            b.add_edge_indices(0, i);
            b.add_edge_indices(i, 0);
            b.add_edge_indices(i, (i % 4) + 1);
        }
        let g = b.build();
        let r = two_d_rank_with(&g, &SolverConfig::default(), None).unwrap().ranking;
        assert_eq!(r.as_slice()[0], NodeId::new(0));
    }

    #[test]
    fn personalized_puts_reference_first() {
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]);
        // Restart-heavy walk (low α): both PPR and personalized CheiRank put
        // the reference first, so the square sweep must too. (With α = 0.85
        // a central neighbor can legitimately outrank the reference.)
        let cfg = SolverConfig::with_damping(0.3);
        for refn in 0..4u32 {
            let r = two_d_rank_with(&g, &cfg, Some(NodeId::new(refn))).unwrap().ranking;
            assert_eq!(r.as_slice()[0], NodeId::new(refn), "reference {refn} should rank first");
        }
    }

    #[test]
    fn schemes_agree_on_two_d_rank() {
        use crate::solver::Scheme;
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 2), (2, 0), (0, 3), (3, 0), (2, 1)]);
        let tight = SolverConfig { tolerance: 1e-12, ..Default::default() };
        let base = two_d_rank_with(&g, &tight.with_scheme(Scheme::Power), None).unwrap();
        assert!(base.convergence.converged);
        let r = two_d_rank_with(&g, &tight.with_scheme(Scheme::Parallel), None).unwrap();
        assert_eq!(r.ranking, base.ranking, "parallel ranking diverges");
    }

    #[test]
    fn diagnostics_report_the_binding_sweep() {
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 2), (2, 0), (0, 3), (3, 0), (2, 1)]);
        let cfg = SolverConfig { record_trace: true, ..Default::default() };
        let out = two_d_rank_with(&g, &cfg, None).unwrap();
        assert!(out.convergence.converged);
        let trace = out.trace.expect("trace requested");
        // The reported trace belongs to the binding sweep, so the
        // diagnostics are internally consistent.
        assert_eq!(trace.len(), out.convergence.iterations);
        assert_eq!(trace.last(), Some(out.convergence.residual));
        // Without the flag, no trace.
        let out = two_d_rank_with(&g, &SolverConfig::default(), None).unwrap();
        assert!(out.trace.is_none());
    }

    #[test]
    fn personalized_invalid_reference() {
        let g = GraphBuilder::from_edge_indices([(0, 1)]);
        assert!(two_d_rank_with(&g, &SolverConfig::default(), Some(NodeId::new(5))).is_err());
    }

    #[test]
    fn empty_positions() {
        let r = two_d_rank_from_positions(&[], &[]);
        assert!(r.is_empty());
    }
}
