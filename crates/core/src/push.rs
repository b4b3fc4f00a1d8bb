//! Forward push for Personalized PageRank (Andersen–Chung–Lang, FOCS 2006),
//! the engine under the certified top-k path and the incremental refresh.
//!
//! Forward push is the classic local PPR method: it maintains an
//! *estimate* vector `p` and a *residual* vector `r` with the invariant
//!
//! ```text
//! ppr(s) = p + Σ_u r[u] · ppr(e_u)
//! ```
//!
//! and repeatedly pushes residual mass above a threshold `ε·deg(u)` into the
//! estimate and the neighbors. It touches only the neighbourhood of the
//! seed — sublinear for small ε on big graphs — at the price of
//! approximation: every estimate is within `ε·deg` of the exact score.
//!
//! It is not a task solver: a full-rank solve is always the exact sweep
//! kernel, whose `tolerance` is the cheaper accuracy-for-time trade. Push
//! serves two callers only. The top-k query layer ([`crate::topk`]) runs
//! it adaptively and certifies its results against the residual mass
//! exposed by [`ppr_push_full`]; the incremental refresh
//! ([`crate::topk::refresh_ppr`]) pushes a signed correction through
//! [`ppr_push_seeded`].

use crate::error::AlgoError;
use crate::result::ScoreVector;
use relgraph::{GraphView, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Parameters of the forward-push approximation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PushConfig {
    /// Teleport-continuation probability α, as in PageRank.
    pub damping: f64,
    /// Residual threshold: push while some node has residual > ε·out_deg.
    /// Smaller ε = more accurate and slower.
    pub epsilon: f64,
    /// Safety cap on the number of push operations.
    pub max_pushes: usize,
}

impl Default for PushConfig {
    fn default() -> Self {
        PushConfig { damping: 0.85, epsilon: 1e-7, max_pushes: 50_000_000 }
    }
}

impl PushConfig {
    fn validate(&self) -> Result<(), AlgoError> {
        if !(self.damping > 0.0 && self.damping < 1.0) {
            return Err(AlgoError::InvalidDamping(self.damping));
        }
        if self.epsilon <= 0.0 || self.epsilon.is_nan() {
            return Err(AlgoError::InvalidParameter {
                name: "epsilon",
                message: format!("must be > 0, got {}", self.epsilon),
            });
        }
        Ok(())
    }
}

/// Statistics of a push run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PushStats {
    /// Number of individual push operations performed.
    pub pushes: usize,
    /// Number of distinct nodes that ever held residual mass.
    pub touched: usize,
}

/// Approximate PPR from `seed` by forward push.
///
/// Returns un-normalized estimates `p` with
/// `|p[u] − ppr[u]| ≤ ε·out_degree(u)` for all `u` (dangling nodes treated
/// as pushing their mass back to the seed, matching the exact solver's
/// dangling redistribution), plus the **residual mass**
/// `R = Σ_u |r[u]|` left at termination. By the push invariant
/// `ppr = p + Σ_u r[u]·ppr(e_u)` and `ppr_v(u) ∈ [0, 1]`, every exact
/// score lies in `[p[u], p[u] + R]` — the certificate the adaptive top-k
/// path ([`crate::topk`]) separates ranks with.
pub fn ppr_push_full(
    view: GraphView<'_>,
    cfg: &PushConfig,
    seed: NodeId,
) -> Result<(ScoreVector, f64, PushStats), AlgoError> {
    cfg.validate()?;
    let n = view.node_count();
    if n == 0 {
        return Err(AlgoError::EmptyGraph);
    }
    if seed.index() >= n {
        return Err(AlgoError::InvalidReference { node: seed.raw(), node_count: n });
    }
    let mut r = vec![0.0f64; n];
    r[seed.index()] = 1.0;
    Ok(push_core(view, cfg, seed, vec![0.0f64; n], r))
}

/// Forward push seeded from an existing estimate vector and a **signed**
/// sparse residual — the engine of incremental PPR refresh under graph
/// mutation ([`crate::topk::refresh_ppr`]).
///
/// `estimates` is a previous (near-)solution and `residuals` the signed
/// correction `r = (α/(1−α))·(P_new − P_old)·estimates` capturing how the
/// linear system moved under an edge event; the invariant
/// `ppr = p + Σ_u r[u]·ppr(e_u)` holds for signed `r` by linearity, so
/// pushing `|r|` below threshold leaves every estimate within
/// `Σ_u |r[u]|` (L1) of the exact new solution. Entries of `residuals`
/// must be in bounds; duplicates accumulate.
pub fn ppr_push_seeded(
    view: GraphView<'_>,
    cfg: &PushConfig,
    seed: NodeId,
    estimates: Vec<f64>,
    residuals: &[(NodeId, f64)],
) -> Result<(ScoreVector, f64, PushStats), AlgoError> {
    cfg.validate()?;
    let n = view.node_count();
    if n == 0 {
        return Err(AlgoError::EmptyGraph);
    }
    if seed.index() >= n {
        return Err(AlgoError::InvalidReference { node: seed.raw(), node_count: n });
    }
    if estimates.len() != n {
        return Err(AlgoError::InvalidParameter {
            name: "estimates",
            message: format!("estimate vector has {} entries for {n} nodes", estimates.len()),
        });
    }
    let mut r = vec![0.0f64; n];
    for &(u, ru) in residuals {
        if u.index() >= n {
            return Err(AlgoError::InvalidReference { node: u.raw(), node_count: n });
        }
        r[u.index()] += ru;
    }
    Ok(push_core(view, cfg, seed, estimates, r))
}

/// The shared push loop over **signed** residuals: pushes while some node
/// holds `|r[u]| > ε·deg(u)`. For the classic all-positive start
/// ([`ppr_push_full`]) this is exactly Andersen–Chung–Lang forward push;
/// signed residuals (incremental refresh) move estimate mass down as well
/// as up, with the same invariant and the same `Σ|r|` error bound.
fn push_core(
    view: GraphView<'_>,
    cfg: &PushConfig,
    seed: NodeId,
    mut p: Vec<f64>,
    mut r: Vec<f64>,
) -> (ScoreVector, f64, PushStats) {
    let n = view.node_count();
    let alpha = cfg.damping;
    let mut in_queue = vec![false; n];
    let mut touched = vec![false; n];
    let mut queue: VecDeque<NodeId> = VecDeque::new();

    for (i, &ri) in r.iter().enumerate() {
        if ri != 0.0 {
            touched[i] = true;
            let deg = view.out_degree(NodeId::from_usize(i)).max(1);
            if ri.abs() > cfg.epsilon * deg as f64 {
                in_queue[i] = true;
                queue.push_back(NodeId::from_usize(i));
            }
        }
    }

    let mut pushes = 0usize;

    while let Some(u) = queue.pop_front() {
        in_queue[u.index()] = false;
        let deg = view.out_degree(u).max(1);
        let ru = r[u.index()];
        if ru.abs() <= cfg.epsilon * deg as f64 {
            continue;
        }
        if pushes >= cfg.max_pushes {
            break;
        }
        pushes += 1;
        r[u.index()] = 0.0;
        p[u.index()] += (1.0 - alpha) * ru;

        let wsum = view.out_weight_sum(u);
        if wsum <= 0.0 {
            // Dangling: residual mass restarts at the seed, as the exact
            // solver redistributes dangling mass along the teleport vector.
            let si = seed.index();
            r[si] += alpha * ru;
            touched[si] = true;
            if !in_queue[si] && r[si].abs() > cfg.epsilon * view.out_degree(seed).max(1) as f64 {
                in_queue[si] = true;
                queue.push_back(seed);
            }
            continue;
        }

        let share = alpha * ru / wsum;
        let mut relax = |v: NodeId, w: f64| {
            let vi = v.index();
            r[vi] += share * w;
            touched[vi] = true;
            if !in_queue[vi] && r[vi].abs() > cfg.epsilon * view.out_degree(v).max(1) as f64 {
                in_queue[vi] = true;
                queue.push_back(v);
            }
        };
        match view.out_arrays(u) {
            Some((nbrs, Some(ws))) => {
                for (j, &v) in nbrs.iter().enumerate() {
                    relax(v, ws[j]);
                }
            }
            Some((nbrs, None)) => {
                for &v in nbrs {
                    relax(v, 1.0);
                }
            }
            // Compact tier: decode the stream (weight 1.0 when unweighted).
            None => {
                for (v, w) in view.out_edges(u) {
                    relax(v, w);
                }
            }
        }
    }

    let touched_count = touched.iter().filter(|&&t| t).count();
    let residual_mass: f64 = r.iter().map(|v| v.abs()).sum();
    (ScoreVector::new(p), residual_mass, PushStats { pushes, touched: touched_count })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::PageRankConfig;
    use crate::ppr::personalized_pagerank;
    use relgraph::GraphBuilder;

    fn approx_matches_exact(g: &relgraph::DirectedGraph, seed: u32, eps: f64) {
        let cfg = PushConfig { damping: 0.85, epsilon: eps, max_pushes: usize::MAX };
        let (approx, _, _) = ppr_push_full(g.view(), &cfg, NodeId::new(seed)).unwrap();
        let (exact, _) = personalized_pagerank(
            g.view(),
            &PageRankConfig { damping: 0.85, tolerance: 1e-14, max_iterations: 2000 },
            NodeId::new(seed),
        )
        .unwrap();
        for u in g.nodes() {
            let bound = eps * g.out_degree(u).max(1) as f64 + 1e-9;
            let diff = (approx.get(u) - exact.get(u)).abs();
            assert!(
                diff <= bound,
                "node {u:?}: |{} - {}| = {diff} > {bound}",
                approx.get(u),
                exact.get(u)
            );
        }
    }

    #[test]
    fn matches_exact_on_cycle() {
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 2), (2, 0)]);
        approx_matches_exact(&g, 0, 1e-8);
    }

    #[test]
    fn matches_exact_on_star_with_backlinks() {
        let mut b = GraphBuilder::new();
        for i in 1..=6 {
            b.add_edge_indices(0, i);
            b.add_edge_indices(i, 0);
        }
        let g = b.build();
        approx_matches_exact(&g, 0, 1e-8);
        approx_matches_exact(&g, 3, 1e-8);
    }

    #[test]
    fn matches_exact_with_dangling() {
        // 0 -> 1 -> 2 (2 dangles), 1 -> 0.
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 2), (1, 0)]);
        approx_matches_exact(&g, 0, 1e-9);
    }

    #[test]
    fn locality_touches_few_nodes() {
        // Ring of 1000 nodes; with a loose epsilon the push should not
        // travel all the way around.
        let mut b = GraphBuilder::new();
        let n = 1000u32;
        for i in 0..n {
            b.add_edge_indices(i, (i + 1) % n);
        }
        let g = b.build();
        let cfg = PushConfig { damping: 0.5, epsilon: 1e-4, max_pushes: usize::MAX };
        let (_, _, stats) = ppr_push_full(g.view(), &cfg, NodeId::new(0)).unwrap();
        assert!(stats.touched < 100, "touched {} of {}", stats.touched, n);
    }

    #[test]
    fn estimates_sum_below_one() {
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 0), (1, 2), (2, 1)]);
        let (p, _, _) = ppr_push_full(g.view(), &PushConfig::default(), NodeId::new(0)).unwrap();
        assert!(p.sum() <= 1.0 + 1e-12);
        assert!(p.sum() > 0.9); // small graph, tight epsilon
    }

    #[test]
    fn invalid_inputs() {
        let g = GraphBuilder::from_edge_indices([(0, 1)]);
        let bad_eps = PushConfig { epsilon: 0.0, ..Default::default() };
        assert!(ppr_push_full(g.view(), &bad_eps, NodeId::new(0)).is_err());
        let bad_alpha = PushConfig { damping: 1.0, ..Default::default() };
        assert!(ppr_push_full(g.view(), &bad_alpha, NodeId::new(0)).is_err());
        assert!(ppr_push_full(g.view(), &PushConfig::default(), NodeId::new(9)).is_err());
        let empty = GraphBuilder::new().build();
        assert!(ppr_push_full(empty.view(), &PushConfig::default(), NodeId::new(0)).is_err());
    }

    #[test]
    fn max_pushes_caps_work() {
        let mut b = GraphBuilder::new();
        for i in 0..50 {
            for j in 0..50 {
                if i != j {
                    b.add_edge_indices(i, j);
                }
            }
        }
        let g = b.build();
        let cfg = PushConfig { damping: 0.85, epsilon: 1e-12, max_pushes: 10 };
        let (_, _, stats) = ppr_push_full(g.view(), &cfg, NodeId::new(0)).unwrap();
        assert!(stats.pushes <= 10);
    }
}
