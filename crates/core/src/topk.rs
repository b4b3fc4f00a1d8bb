//! Top-k personalized serving: adaptive forward push with a separation
//! certificate.
//!
//! A top-k query (`Query::top_k(k)`) only consumes `k` entries, which is
//! exactly the situation where Andersen–Chung–Lang forward push
//! ([`crate::push`]) beats a full stationary solve: it touches the seed's
//! neighbourhood instead of sweeping every edge. The catch is that push is
//! an *approximation*, so this module only serves a push result when it
//! can **prove** the approximate top-k set equals the exact one.
//!
//! The proof uses the push invariant `ppr = p + Σ_v r[v]·ppr_v`: since
//! every `ppr_v(u) ∈ [0, 1]`, the exact score of any node lies in
//! `[p[u], p[u] + R]` where `R = Σ_v r[v]` is the residual mass left at
//! termination. Sorting the estimates descending, the top-k set is
//! certified exact as soon as
//!
//! ```text
//! p_(k) − p_(k+1) > R
//! ```
//!
//! (the k-th estimate's lower bound clears the (k+1)-th — and with it every
//! lower-ranked node's — upper bound). [`push_top_k`] runs push with an ε
//! derived from `k` and the graph size, then *refines* adaptively:
//! whenever the certificate fails, ε shrinks by [`EPS_REFINE_FACTOR`] and
//! push reruns, up to [`MAX_REFINE_ROUNDS`] rounds. If rank k and k+1
//! still cannot be separated (e.g. they are exactly tied), it returns
//! `None` and the caller falls back to the exact kernel — so the returned
//! set is always exactly the full run's top-k. Scores and the order
//! *within* the set are estimate-accurate (each within `R` of exact,
//! under-approximating), which is the documented contract of the top-k
//! serving path.
//!
//! Refinement is **work-bounded** so a near-tied seed cannot make the
//! serving path slower than the kernel it is trying to beat: each round's
//! push count is capped at a small multiple of `|V| + |E|` (comparable to
//! a handful of exact sweeps), and the loop gives up immediately — rather
//! than tightening ε further — once a round hits that cap or stops being
//! local (residual mass reached every node). The worst case is therefore
//! a bounded constant factor over the exact fallback, not the unbounded
//! `1/ε` cost of uncapped push.

use crate::error::AlgoError;
use crate::push::{ppr_push_full, ppr_push_seeded, PushConfig, PushStats};
use crate::result::{top_k_pairs, ScoreVector};
use relgraph::{EdgeMutation, GraphView, NodeId};

/// Refinement rounds before giving up on a certificate.
pub const MAX_REFINE_ROUNDS: usize = 4;

/// ε shrink factor between refinement rounds.
pub const EPS_REFINE_FACTOR: f64 = 100.0;

/// A certified top-k push result.
#[derive(Debug, Clone)]
pub struct PushTopK {
    /// The exact top-`k` node set, ordered by push estimate (descending,
    /// ties by ascending id); each score under-approximates the exact
    /// stationary score by at most `residual_mass`.
    pub top: Vec<(NodeId, f64)>,
    /// Push-operation counts of the final (certifying) round.
    pub stats: PushStats,
    /// The ε the certifying round ran at.
    pub epsilon: f64,
    /// Residual mass `R` left by the certifying round — the per-node
    /// score error bound.
    pub residual_mass: f64,
    /// Rounds of adaptive refinement used (1 = first ε sufficed).
    pub rounds: usize,
}

/// Attempts to answer a top-`k` personalized query by adaptive forward
/// push. Returns `Ok(None)` when no certificate could be established
/// within [`MAX_REFINE_ROUNDS`] (caller falls back to the exact kernel),
/// or when pruning cannot help (`k ≥ n`).
pub fn push_top_k(
    view: GraphView<'_>,
    damping: f64,
    seed: NodeId,
    k: usize,
) -> Result<Option<PushTopK>, AlgoError> {
    let n = view.node_count();
    if n == 0 {
        return Err(AlgoError::EmptyGraph);
    }
    if k == 0 {
        return Ok(Some(PushTopK {
            top: Vec::new(),
            stats: PushStats { pushes: 0, touched: 0 },
            epsilon: 0.0,
            residual_mass: 1.0,
            rounds: 0,
        }));
    }
    if k >= n {
        // Nothing to prune away; the exact kernel is the right tool.
        return Ok(None);
    }

    // First-round ε: the k-th PPR score is at most 1/k, so aim the
    // worst-case residual mass ε·(|E|+|V|) two orders of magnitude below
    // that; refinement shrinks from there when the actual gap is tighter.
    let size = (view.edge_count() + n) as f64;
    let mut epsilon = (0.01 / (k as f64 * size)).min(1e-4);
    // Per-round work cap: ~a few exact sweeps' worth of push operations.
    // A round that exhausts it cannot certify affordably, so the caller's
    // exact kernel is the cheaper tool.
    let push_budget = (8 * (n + view.edge_count())).max(4096);

    for round in 1..=MAX_REFINE_ROUNDS {
        let cfg = PushConfig { damping, epsilon, max_pushes: push_budget };
        let (p, residual_mass, stats) = ppr_push_full(view, &cfg, seed)?;
        let mut pairs = top_k_pairs(p.as_slice(), k + 1);
        let gap = pairs[k - 1].1 - pairs[k].1;
        if gap > residual_mass {
            pairs.truncate(k);
            return Ok(Some(PushTopK { top: pairs, stats, epsilon, residual_mass, rounds: round }));
        }
        if stats.pushes >= push_budget || stats.touched >= n {
            // Out of budget, or no locality left to exploit: a tighter ε
            // would only cost more than the exact fallback.
            return Ok(None);
        }
        epsilon /= EPS_REFINE_FACTOR;
        if epsilon < 1e-15 {
            break;
        }
    }
    Ok(None)
}

// --------------------------------------------------- incremental refresh

/// The outcome of one [`refresh_ppr`]: refreshed scores plus the error
/// certificate.
#[derive(Debug, Clone)]
pub struct PprRefresh {
    /// The refreshed PPR estimates on the mutated graph. L1 distance to
    /// the exact new solution is at most `residual_mass` plus whatever
    /// residual the *previous* solution carried.
    pub scores: ScoreVector,
    /// Σ|r| left below the push threshold — the refresh's own error bound.
    pub residual_mass: f64,
    /// Push-operation counts of the refresh.
    pub stats: PushStats,
}

/// Incrementally refreshes a PPR vector after a **single-edge event**,
/// by residual push — the dynamic-graph serving path.
///
/// `prev` must be a converged PPR vector for (`seed`, `cfg.damping`) on
/// the graph *before* the event; `view` is the forward view of the graph
/// *after* it, and `event` the applied mutation (as reported by
/// `relgraph::DynamicGraph::insert_edge` / `remove_edge`). Only the
/// transition column of `event.source` changed, so the correction
/// residual `r = (α/(1−α))·(P_new − P_old)·prev` has support on that node's old
/// and new out-rows (plus the seed, for dangling transitions) and is
/// computed in `O(out_degree(source))`; a signed forward push
/// ([`ppr_push_seeded`]) then drains it locally instead of re-sweeping
/// the whole graph. The *push work* is proportional to how far the fixed
/// point actually moved — near zero for edges far from the seed's
/// neighbourhood — on top of one `O(n)` pass of dense bookkeeping
/// (estimate copy + residual/queue vectors), so the refresh costs about
/// one sweep's worth of memory traffic where a cold solve costs
/// `iterations × (n + m)`.
///
/// All three single-edge event shapes are supported — fresh insert,
/// weight update (`event.previous_weight` reconstructs the old row), and
/// removal. Events inconsistent with the new graph (an "inserted" edge
/// that is absent, a "removed" edge still present, mismatched weights)
/// return [`AlgoError::InvalidParameter`]; for multi-edge batches use
/// [`crate::solver::SweepKernel::solve_warm`] instead.
pub fn refresh_ppr(
    view: GraphView<'_>,
    cfg: &PushConfig,
    seed: NodeId,
    prev: &[f64],
    event: &EdgeMutation,
) -> Result<PprRefresh, AlgoError> {
    let n = view.node_count();
    if prev.len() > n {
        return Err(AlgoError::InvalidParameter {
            name: "prev",
            message: format!("previous scores have {} entries for {n} nodes", prev.len()),
        });
    }
    let u = event.source;
    if u.index() >= n || event.target.index() >= n {
        return Err(AlgoError::InvalidReference {
            node: u.raw().max(event.target.raw()),
            node_count: n,
        });
    }
    // Mutation may have grown the graph; new nodes carry zero prior mass.
    let mut estimates = prev.to_vec();
    estimates.resize(n, 0.0);
    let xu = estimates[u.index()];

    // New out-row of the changed source, and the old row reconstructed
    // from it by undoing the event.
    let new_row: Vec<(NodeId, f64)> = view.out_edges(u).collect();
    let mut old_row = new_row.clone();
    if event.inserted {
        match old_row.iter().position(|&(v, _)| v == event.target) {
            Some(pos) => {
                if old_row[pos].1 != event.weight {
                    return Err(AlgoError::InvalidParameter {
                        name: "event",
                        message: format!(
                            "edge {}->{} does not carry the event weight on the new graph",
                            u.raw(),
                            event.target.raw()
                        ),
                    });
                }
                // Undo the event: a fresh insert vanishes from the old
                // row, a weight update reverts to its previous weight.
                match event.previous_weight {
                    Some(pw) => old_row[pos].1 = pw,
                    None => {
                        old_row.remove(pos);
                    }
                }
            }
            None => {
                return Err(AlgoError::InvalidParameter {
                    name: "event",
                    message: format!(
                        "inserted edge {}->{} is absent from the new graph",
                        u.raw(),
                        event.target.raw()
                    ),
                })
            }
        }
    } else {
        if new_row.iter().any(|&(v, _)| v == event.target) {
            return Err(AlgoError::InvalidParameter {
                name: "event",
                message: format!(
                    "removed edge {}->{} is still present on the new graph",
                    u.raw(),
                    event.target.raw()
                ),
            });
        }
        old_row.push((event.target, event.weight));
    }

    // r = α/(1−α) · x[u] · (col_new(u) − col_old(u)): with the push
    // invariant `ppr = p + Σ_u r[u]·ppr(e_u)` and `ppr(e_u) =
    // (1−α)(I − αP)⁻¹ e_u`, the residual that makes the invariant hold at
    // p = x_prev is r = (α/(1−α))·(P_new − P_old)·x_prev — supported on
    // the changed column only. A dangling column redistributes to the
    // seed, matching both the exact kernel and the push loop.
    let alpha = cfg.damping;
    let c = alpha * xu / (1.0 - alpha);
    let mut residuals: Vec<(NodeId, f64)> = Vec::with_capacity(new_row.len() + old_row.len() + 2);
    if c != 0.0 {
        let w_new: f64 = new_row.iter().map(|&(_, w)| w).sum();
        let w_old: f64 = old_row.iter().map(|&(_, w)| w).sum();
        if w_new > 0.0 {
            for &(v, w) in &new_row {
                residuals.push((v, c * w / w_new));
            }
        } else {
            residuals.push((seed, c));
        }
        if w_old > 0.0 {
            for &(v, w) in &old_row {
                residuals.push((v, -c * w / w_old));
            }
        } else {
            residuals.push((seed, -c));
        }
    }

    let (scores, residual_mass, stats) = ppr_push_seeded(view, cfg, seed, estimates, &residuals)?;
    Ok(PprRefresh { scores, residual_mass, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::tests::exact_ppr;
    use relgraph::GraphBuilder;

    fn exact_top(g: &relgraph::DirectedGraph, seed: u32, k: usize) -> Vec<NodeId> {
        exact_ppr(g, seed).top_k(k).into_iter().map(|(n, _)| n).collect()
    }

    fn community_graph() -> relgraph::DirectedGraph {
        // Two communities bridged by one edge; no exact ties near any
        // small k when seeded inside a community.
        let mut b = GraphBuilder::new();
        for i in 0..8u32 {
            b.add_edge_indices(i, (i + 1) % 8);
            b.add_edge_indices((i + 1) % 8, i);
            b.add_edge_indices(0, i); // seed-side hub asymmetry
        }
        b.add_edge_indices(7, 8);
        for i in 8..20u32 {
            b.add_edge_indices(i, 8 + (i + 1) % 12);
        }
        b.build()
    }

    #[test]
    fn certified_set_matches_exact_top_k() {
        let g = community_graph();
        for k in [1usize, 3, 5] {
            let out = push_top_k(g.view(), 0.85, NodeId::new(1), k).unwrap();
            let Some(out) = out else { panic!("no certificate for k={k}") };
            let mut got: Vec<NodeId> = out.top.iter().map(|&(n, _)| n).collect();
            let mut want = exact_top(&g, 1, k);
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "k={k}");
            assert!(out.residual_mass < 1.0);
            assert!(out.rounds >= 1);
        }
    }

    #[test]
    fn scores_within_residual_mass_of_exact() {
        let g = community_graph();
        let out = push_top_k(g.view(), 0.85, NodeId::new(2), 4).unwrap().unwrap();
        let exact = exact_ppr(&g, 2);
        for &(u, score) in &out.top {
            let e = exact.get(u);
            assert!(score <= e + 1e-12, "push over-estimated {u:?}");
            assert!(e - score <= out.residual_mass + 1e-12, "error exceeds R at {u:?}");
        }
    }

    #[test]
    fn exact_ties_yield_no_certificate() {
        // A perfectly symmetric star: every leaf has the same exact score,
        // so rank k and k+1 tie and no ε can separate them.
        let mut b = GraphBuilder::new();
        for i in 1..=6u32 {
            b.add_edge_indices(0, i);
            b.add_edge_indices(i, 0);
        }
        let g = b.build();
        let out = push_top_k(g.view(), 0.85, NodeId::new(0), 3).unwrap();
        assert!(out.is_none(), "tied ranks must fall back to the exact kernel");
    }

    #[test]
    fn degenerate_ks() {
        let g = community_graph();
        let empty = push_top_k(g.view(), 0.85, NodeId::new(0), 0).unwrap().unwrap();
        assert!(empty.top.is_empty());
        // k >= n: pruning can't help.
        assert!(push_top_k(g.view(), 0.85, NodeId::new(0), g.node_count()).unwrap().is_none());
    }

    #[test]
    fn invalid_inputs_propagate() {
        let g = GraphBuilder::from_edge_indices([(0, 1)]);
        assert!(push_top_k(g.view(), 1.5, NodeId::new(0), 1).is_err());
        let empty = GraphBuilder::new().build();
        assert!(push_top_k(empty.view(), 0.85, NodeId::new(0), 1).is_err());
    }

    // ----------------------------------------------- incremental refresh

    fn refresh_cfg() -> PushConfig {
        PushConfig { damping: 0.85, epsilon: 1e-10, max_pushes: usize::MAX }
    }

    /// Applies `mutate` to a dynamic copy of `g`, refreshes the seed's PPR
    /// incrementally, and checks it against a cold exact solve on the
    /// mutated graph within the certified residual mass.
    fn assert_refresh_matches_cold(
        g: relgraph::DirectedGraph,
        seed: u32,
        mutate: impl FnOnce(&mut relgraph::DynamicGraph) -> relgraph::EdgeMutation,
    ) {
        let prev = exact_ppr(&g, seed);
        let mut dynamic = relgraph::DynamicGraph::new(g);
        let event = mutate(&mut dynamic);
        let mutated = dynamic.snapshot();
        let refreshed =
            refresh_ppr(mutated.view(), &refresh_cfg(), NodeId::new(seed), prev.as_slice(), &event)
                .unwrap();
        let cold = exact_ppr(&mutated, seed);
        let l1: f64 = mutated.nodes().map(|u| (refreshed.scores.get(u) - cold.get(u)).abs()).sum();
        assert!(
            l1 <= refreshed.residual_mass + 1e-7,
            "refresh L1 error {l1} exceeds certificate {}",
            refreshed.residual_mass
        );
        assert!(l1 < 1e-6, "refresh drifted from the cold solve: L1 {l1}");
    }

    #[test]
    fn refresh_matches_cold_solve_after_insert() {
        assert_refresh_matches_cold(community_graph(), 1, |d| {
            d.insert_edge(NodeId::new(2), NodeId::new(9), 1.0).unwrap().unwrap()
        });
    }

    #[test]
    fn refresh_matches_cold_solve_after_remove() {
        assert_refresh_matches_cold(community_graph(), 1, |d| {
            d.remove_edge(NodeId::new(0), NodeId::new(3)).unwrap().unwrap()
        });
    }

    #[test]
    fn refresh_matches_cold_solve_after_weight_update() {
        let mut b = GraphBuilder::new();
        b.add_weighted_edge(NodeId::new(0), NodeId::new(1), 2.0);
        b.add_weighted_edge(NodeId::new(1), NodeId::new(0), 1.0);
        b.add_weighted_edge(NodeId::new(1), NodeId::new(2), 1.5);
        b.add_weighted_edge(NodeId::new(2), NodeId::new(0), 1.0);
        assert_refresh_matches_cold(b.build(), 0, |d| {
            // Upsert: 1 -> 2 goes from weight 1.5 to 4.0.
            d.insert_edge(NodeId::new(1), NodeId::new(2), 4.0).unwrap().unwrap()
        });
    }

    #[test]
    fn refresh_handles_dangling_transitions() {
        // 0 <-> 1, 1 -> 2 (2 dangles).
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 0), (1, 2)]);
        // Removing 1's edges one at a time eventually leaves it dangling;
        // inserting out of the dangling node 2 un-dangles it.
        assert_refresh_matches_cold(g.clone(), 0, |d| {
            d.insert_edge(NodeId::new(2), NodeId::new(0), 1.0).unwrap().unwrap()
        });
        let mut b = GraphBuilder::new();
        b.add_edge_indices(0, 1);
        b.add_edge_indices(1, 0);
        b.add_edge_indices(1, 2);
        b.add_edge_indices(2, 0);
        assert_refresh_matches_cold(b.build(), 0, |d| {
            // 2 loses its only out-edge and becomes dangling.
            d.remove_edge(NodeId::new(2), NodeId::new(0)).unwrap().unwrap()
        });
    }

    #[test]
    fn refresh_far_from_seed_is_near_free() {
        // A long directed path away from the seed: mutating its far end
        // moves (almost) no probability mass, so the refresh pushes
        // (almost) nothing.
        let mut b = GraphBuilder::new();
        b.add_edge_indices(0, 1);
        b.add_edge_indices(1, 0);
        for i in 1..60u32 {
            b.add_edge_indices(i, i + 1);
        }
        let g = b.build();
        let prev = exact_ppr(&g, 0);
        let mut d = relgraph::DynamicGraph::new(g);
        let event = d.insert_edge(NodeId::new(59), NodeId::new(5), 1.0).unwrap().unwrap();
        let mutated = d.snapshot();
        let refreshed =
            refresh_ppr(mutated.view(), &refresh_cfg(), NodeId::new(0), prev.as_slice(), &event)
                .unwrap();
        // The changed node held ~no mass: the correction drains in far
        // fewer operations than a cold solve's sweep count (~140
        // iterations × 61 nodes ≈ 8,500 node updates at this tolerance).
        assert!(refreshed.stats.pushes < 1_500, "pushes {}", refreshed.stats.pushes);
        let cold = exact_ppr(&mutated, 0);
        for u in mutated.nodes() {
            assert!((refreshed.scores.get(u) - cold.get(u)).abs() < 1e-6, "{u:?}");
        }
    }

    #[test]
    fn refresh_grown_graph_extends_prev_with_zeros() {
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 0)]);
        let prev = exact_ppr(&g, 0);
        let mut d = relgraph::DynamicGraph::new(g);
        // Edge to a brand-new node.
        let event = d.insert_edge(NodeId::new(1), NodeId::new(4), 1.0).unwrap().unwrap();
        let mutated = d.snapshot();
        assert_eq!(mutated.node_count(), 5);
        let refreshed =
            refresh_ppr(mutated.view(), &refresh_cfg(), NodeId::new(0), prev.as_slice(), &event)
                .unwrap();
        let cold = exact_ppr(&mutated, 0);
        for u in mutated.nodes() {
            assert!((refreshed.scores.get(u) - cold.get(u)).abs() < 1e-6, "{u:?}");
        }
    }

    #[test]
    fn refresh_rejects_inconsistent_events() {
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 0), (1, 2), (2, 0)]);
        let prev = exact_ppr(&g, 0);
        let cfg = refresh_cfg();
        // "Inserted" an edge the graph does not carry.
        let bogus = relgraph::EdgeMutation {
            source: NodeId::new(2),
            target: NodeId::new(1),
            weight: 1.0,
            previous_weight: None,
            inserted: true,
        };
        assert!(refresh_ppr(g.view(), &cfg, NodeId::new(0), prev.as_slice(), &bogus).is_err());
        // "Removed" an edge that is still present.
        let bogus = relgraph::EdgeMutation {
            source: NodeId::new(0),
            target: NodeId::new(1),
            weight: 1.0,
            previous_weight: None,
            inserted: false,
        };
        assert!(refresh_ppr(g.view(), &cfg, NodeId::new(0), prev.as_slice(), &bogus).is_err());
        // Weight update (event weight diverges from the graph's).
        let bogus = relgraph::EdgeMutation {
            source: NodeId::new(0),
            target: NodeId::new(1),
            weight: 2.0,
            previous_weight: None,
            inserted: true,
        };
        assert!(refresh_ppr(g.view(), &cfg, NodeId::new(0), prev.as_slice(), &bogus).is_err());
        // Out-of-range endpoints.
        let bogus = relgraph::EdgeMutation {
            source: NodeId::new(9),
            target: NodeId::new(0),
            weight: 1.0,
            previous_weight: None,
            inserted: true,
        };
        assert!(refresh_ppr(g.view(), &cfg, NodeId::new(0), prev.as_slice(), &bogus).is_err());
    }
}
