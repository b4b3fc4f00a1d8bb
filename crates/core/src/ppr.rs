//! Personalized PageRank (PPR).
//!
//! PPR replaces PageRank's uniform teleport with a distribution concentrated
//! on one or more *reference nodes*: the random surfer restarts from the
//! query instead of from anywhere. Scores then measure proximity to the
//! reference set under random walks.
//!
//! The demo paper highlights PPR's known weakness: because walks still drift
//! along the global link structure, nodes with very high in-degree ("United
//! States", the "Harry Potter" books) collect a large score *for any query*.
//! CycleRank (see [`crate::cyclerank`]) is designed to avoid exactly this.

use crate::error::AlgoError;
use crate::pagerank::{pagerank_with_teleport, Convergence, PageRankConfig};
use crate::result::ScoreVector;
use relgraph::{GraphView, NodeId};
use serde::{Deserialize, Serialize};

/// A sparse teleport (restart) distribution.
///
/// Invariant: entries are strictly positive and sum to 1; node indices are
/// unique and within bounds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TeleportVector {
    n: usize,
    /// Empty means "uniform over all n nodes".
    entries: Vec<(NodeId, f64)>,
}

impl TeleportVector {
    /// Uniform distribution over `n` nodes.
    pub fn uniform(n: usize) -> Result<Self, AlgoError> {
        if n == 0 {
            return Err(AlgoError::EmptyGraph);
        }
        Ok(TeleportVector { n, entries: Vec::new() })
    }

    /// All mass on a single reference node.
    pub fn single(n: usize, node: NodeId) -> Result<Self, AlgoError> {
        Self::seeds(n, &[node])
    }

    /// The teleport distribution of a possibly-personalized run: all mass
    /// on the reference when one is given, uniform otherwise. The single
    /// construction rule every stationary-distribution algorithm shares.
    pub fn for_reference(n: usize, reference: Option<NodeId>) -> Result<Self, AlgoError> {
        match reference {
            Some(r) => Self::single(n, r),
            None => Self::uniform(n),
        }
    }

    /// Uniform over a seed set (the paper's "one or more nodes as query").
    pub fn seeds(n: usize, seeds: &[NodeId]) -> Result<Self, AlgoError> {
        if n == 0 {
            return Err(AlgoError::EmptyGraph);
        }
        if seeds.is_empty() {
            return Err(AlgoError::MissingReference);
        }
        let mut uniq: Vec<NodeId> = seeds.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        for &s in &uniq {
            if s.index() >= n {
                return Err(AlgoError::InvalidReference { node: s.raw(), node_count: n });
            }
        }
        let w = 1.0 / uniq.len() as f64;
        Ok(TeleportVector { n, entries: uniq.into_iter().map(|s| (s, w)).collect() })
    }

    /// Arbitrary non-negative weights over seed nodes (normalized to sum 1).
    pub fn weighted(n: usize, weights: &[(NodeId, f64)]) -> Result<Self, AlgoError> {
        if n == 0 {
            return Err(AlgoError::EmptyGraph);
        }
        let mut entries: Vec<(NodeId, f64)> = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for &(s, w) in weights {
            if s.index() >= n {
                return Err(AlgoError::InvalidReference { node: s.raw(), node_count: n });
            }
            if !w.is_finite() || w < 0.0 {
                return Err(AlgoError::InvalidParameter {
                    name: "teleport weight",
                    message: format!("weight {w} for node {s} must be finite and >= 0"),
                });
            }
            if w > 0.0 {
                entries.push((s, w));
                total += w;
            }
        }
        if entries.is_empty() || total <= 0.0 {
            return Err(AlgoError::MissingReference);
        }
        entries.sort_unstable_by_key(|&(s, _)| s);
        // Merge duplicates.
        let mut merged: Vec<(NodeId, f64)> = Vec::with_capacity(entries.len());
        for (s, w) in entries {
            match merged.last_mut() {
                Some(last) if last.0 == s => last.1 += w,
                _ => merged.push((s, w)),
            }
        }
        for e in &mut merged {
            e.1 /= total;
        }
        Ok(TeleportVector { n, entries: merged })
    }

    /// Dimension (node count).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Never true: constructors reject n = 0.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// True for the uniform distribution.
    pub fn is_uniform(&self) -> bool {
        self.entries.is_empty()
    }

    /// The seed nodes (empty for uniform).
    pub fn seed_nodes(&self) -> Vec<NodeId> {
        self.entries.iter().map(|&(s, _)| s).collect()
    }

    /// Probability mass at node index `i`.
    pub fn mass_at(&self, i: usize) -> f64 {
        if self.entries.is_empty() {
            1.0 / self.n as f64
        } else {
            self.entries
                .binary_search_by_key(&(i as u32), |&(s, _)| s.raw())
                .map(|pos| self.entries[pos].1)
                .unwrap_or(0.0)
        }
    }

    /// Materializes the dense probability vector.
    pub fn dense(&self) -> Vec<f64> {
        let mut v = vec![0.0; self.n];
        self.fill_dense(&mut v);
        v
    }

    /// Writes the dense probability vector into `out` (which must have
    /// exactly `len()` entries) without allocating — the solver arena's
    /// checkout path.
    pub fn fill_dense(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.n, "teleport has {} entries, buffer {}", self.n, out.len());
        if self.entries.is_empty() {
            out.fill(1.0 / self.n as f64);
        } else {
            out.fill(0.0);
            for &(s, w) in &self.entries {
                out[s.index()] = w;
            }
        }
    }

    /// Applies `f(index, mass)` to every node with non-zero teleport mass.
    /// For the uniform case this visits all nodes.
    pub fn for_each(&self, mut f: impl FnMut(usize, f64)) {
        if self.entries.is_empty() {
            let w = 1.0 / self.n as f64;
            for i in 0..self.n {
                f(i, w);
            }
        } else {
            for &(s, w) in &self.entries {
                f(s.index(), w);
            }
        }
    }
}

/// Personalized PageRank with restart at a single reference node.
///
/// This is the exact power-iteration solution. A cheaper, less accurate
/// answer is the same solve at a looser `tolerance`; the certified top-k
/// path ([`crate::topk`]) is the one place push approximations serve.
pub fn personalized_pagerank(
    view: GraphView<'_>,
    cfg: &PageRankConfig,
    reference: NodeId,
) -> Result<(ScoreVector, Convergence), AlgoError> {
    let teleport = TeleportVector::single(view.node_count(), reference)?;
    pagerank_with_teleport(view, cfg, &teleport)
}

/// Personalized PageRank with restart spread uniformly over a seed set.
pub fn personalized_pagerank_seeds(
    view: GraphView<'_>,
    cfg: &PageRankConfig,
    seeds: &[NodeId],
) -> Result<(ScoreVector, Convergence), AlgoError> {
    let teleport = TeleportVector::seeds(view.node_count(), seeds)?;
    pagerank_with_teleport(view, cfg, &teleport)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgraph::GraphBuilder;

    fn line_with_branches() -> relgraph::DirectedGraph {
        // 0 <-> 1 <-> 2, and 3 -> 2 (3 unreachable from 0).
        GraphBuilder::from_edge_indices([(0, 1), (1, 0), (1, 2), (2, 1), (3, 2)])
    }

    #[test]
    fn teleport_uniform_dense() {
        let t = TeleportVector::uniform(4).unwrap();
        assert!(t.is_uniform());
        assert_eq!(t.dense(), vec![0.25; 4]);
        assert_eq!(t.mass_at(2), 0.25);
    }

    #[test]
    fn teleport_single() {
        let t = TeleportVector::single(3, NodeId::new(1)).unwrap();
        assert_eq!(t.dense(), vec![0.0, 1.0, 0.0]);
        assert_eq!(t.seed_nodes(), vec![NodeId::new(1)]);
        assert_eq!(t.mass_at(0), 0.0);
        assert_eq!(t.mass_at(1), 1.0);
    }

    #[test]
    fn teleport_seed_dedup() {
        let t =
            TeleportVector::seeds(4, &[NodeId::new(2), NodeId::new(2), NodeId::new(0)]).unwrap();
        assert_eq!(t.dense(), vec![0.5, 0.0, 0.5, 0.0]);
    }

    #[test]
    fn teleport_weighted_normalizes_and_merges() {
        let t = TeleportVector::weighted(
            3,
            &[(NodeId::new(0), 1.0), (NodeId::new(2), 2.0), (NodeId::new(0), 1.0)],
        )
        .unwrap();
        let d = t.dense();
        assert!((d[0] - 0.5).abs() < 1e-12);
        assert!((d[2] - 0.5).abs() < 1e-12);
        assert_eq!(d[1], 0.0);
    }

    #[test]
    fn teleport_errors() {
        assert!(TeleportVector::uniform(0).is_err());
        assert!(TeleportVector::seeds(3, &[]).is_err());
        assert!(TeleportVector::single(3, NodeId::new(9)).is_err());
        assert!(TeleportVector::weighted(3, &[(NodeId::new(0), 0.0)]).is_err());
        assert!(TeleportVector::weighted(3, &[(NodeId::new(0), f64::NAN)]).is_err());
        assert!(TeleportVector::weighted(3, &[(NodeId::new(0), -1.0)]).is_err());
    }

    #[test]
    fn ppr_sums_to_one_and_localizes() {
        let g = line_with_branches();
        let (s, conv) =
            personalized_pagerank(g.view(), &PageRankConfig::default(), NodeId::new(0)).unwrap();
        assert!(conv.converged);
        assert!((s.sum() - 1.0).abs() < 1e-8);
        // Node 3 is not reachable from the seed: zero score.
        assert_eq!(s.get(NodeId::new(3)), 0.0);
        // Closer nodes score higher.
        assert!(s.get(NodeId::new(1)) > s.get(NodeId::new(2)));
        // With a restart-heavy walk (low α) the seed itself dominates.
        // (With high α a well-connected neighbor may legitimately outscore
        // the seed — that is PPR's documented drift toward central nodes.)
        let (s_low, _) =
            personalized_pagerank(g.view(), &PageRankConfig::with_damping(0.3), NodeId::new(0))
                .unwrap();
        assert_eq!(s_low.argmax(), Some(NodeId::new(0)));
    }

    #[test]
    fn ppr_seed_set_mixture() {
        let g = line_with_branches();
        let cfg = PageRankConfig::default();
        let (s01, _) =
            personalized_pagerank_seeds(g.view(), &cfg, &[NodeId::new(0), NodeId::new(3)]).unwrap();
        let (s0, _) = personalized_pagerank(g.view(), &cfg, NodeId::new(0)).unwrap();
        let (s3, _) = personalized_pagerank(g.view(), &cfg, NodeId::new(3)).unwrap();
        // PPR is linear in the teleport vector: seeds {0,3} = avg of singles.
        for u in g.nodes() {
            let want = 0.5 * (s0.get(u) + s3.get(u));
            assert!((s01.get(u) - want).abs() < 1e-6, "node {u:?}");
        }
    }

    #[test]
    fn ppr_low_alpha_concentrates_on_seed() {
        let g = line_with_branches();
        let (hi, _) =
            personalized_pagerank(g.view(), &PageRankConfig::with_damping(0.9), NodeId::new(0))
                .unwrap();
        let (lo, _) =
            personalized_pagerank(g.view(), &PageRankConfig::with_damping(0.1), NodeId::new(0))
                .unwrap();
        assert!(lo.get(NodeId::new(0)) > hi.get(NodeId::new(0)));
    }

    #[test]
    fn ppr_missing_reference_error() {
        let g = line_with_branches();
        assert!(matches!(
            personalized_pagerank(g.view(), &PageRankConfig::default(), NodeId::new(42)),
            Err(AlgoError::InvalidReference { .. })
        ));
    }

    #[test]
    fn ppr_dangling_mass_returns_to_seed() {
        // 0 -> 1, 1 dangles: dangling mass teleports back to 0.
        let g = GraphBuilder::from_edge_indices([(0, 1)]);
        let (s, _) =
            personalized_pagerank(g.view(), &PageRankConfig::default(), NodeId::new(0)).unwrap();
        assert!((s.sum() - 1.0).abs() < 1e-8);
        assert!(s.get(NodeId::new(0)) > 0.0);
        assert!(s.get(NodeId::new(1)) > 0.0);
    }
}
