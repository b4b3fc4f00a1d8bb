//! PageRank: the forward-view, uniform-teleport parameterization of the
//! shared [`crate::solver::SweepKernel`].
//!
//! PageRank (Page et al., 1999) models a random surfer that, at each step,
//! follows a uniformly random out-edge with probability α (the *damping
//! factor*, conventionally 0.85) and teleports to a random node with
//! probability 1−α. The stationary distribution of this process is the
//! PageRank score. The same iteration with a non-uniform teleport
//! distribution yields Personalized PageRank (see [`crate::ppr`]).
//!
//! The iteration itself lives in [`crate::solver`]; this module keeps the
//! classic entry points ([`pagerank`], [`pagerank_with_teleport`]) as
//! sequential power-iteration shims over the kernel, plus the
//! [`PageRankConfig`] parameter struct the task JSON and benches use.
//! Dangling-node mass is redistributed along the teleport distribution,
//! keeping the score a proper probability vector (sums to 1); convergence
//! stops when the L1 change falls below `tolerance` or after
//! `max_iterations`, reported in [`Convergence`].

use crate::error::AlgoError;
use crate::ppr::TeleportVector;
use crate::result::ScoreVector;
use crate::solver::{Scheme, SolverConfig, SweepKernel};
use relgraph::GraphView;
use serde::{Deserialize, Serialize};

pub use crate::solver::Convergence;

/// Parameters of the PageRank iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PageRankConfig {
    /// Damping factor α ∈ (0, 1): probability of following a link rather
    /// than teleporting. The paper uses 0.85 for global PageRank and 0.3 or
    /// 0.85 for the personalized runs in Tables I–II.
    pub damping: f64,
    /// Stop when the L1 norm of the score change drops below this.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig { damping: 0.85, tolerance: 1e-10, max_iterations: 200 }
    }
}

impl PageRankConfig {
    /// Config with a specific damping factor and default tolerances.
    pub fn with_damping(damping: f64) -> Self {
        PageRankConfig { damping, ..Default::default() }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), AlgoError> {
        self.solver_config(Scheme::Power, 1).validate()
    }

    /// The kernel configuration these parameters describe, under a given
    /// update scheme and thread count.
    pub fn solver_config(&self, scheme: Scheme, threads: usize) -> SolverConfig {
        SolverConfig {
            damping: self.damping,
            tolerance: self.tolerance,
            max_iterations: self.max_iterations,
            scheme,
            threads,
            record_trace: false,
        }
    }
}

/// Classic (global) PageRank: uniform teleport over all nodes, sequential
/// power iteration.
pub fn pagerank(
    view: GraphView<'_>,
    cfg: &PageRankConfig,
) -> Result<(ScoreVector, Convergence), AlgoError> {
    let teleport = TeleportVector::uniform(view.node_count())?;
    pagerank_with_teleport(view, cfg, &teleport)
}

/// PageRank with an arbitrary teleport vector (Personalized PageRank when
/// concentrated on reference nodes), sequential power iteration.
pub fn pagerank_with_teleport(
    view: GraphView<'_>,
    cfg: &PageRankConfig,
    teleport: &TeleportVector,
) -> Result<(ScoreVector, Convergence), AlgoError> {
    let kernel = SweepKernel::new(view)?;
    let out = kernel.solve(&cfg.solver_config(Scheme::Power, 1), teleport)?;
    Ok((out.scores, out.convergence))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgraph::{GraphBuilder, NodeId};

    fn pr(g: &relgraph::DirectedGraph, damping: f64) -> ScoreVector {
        pagerank(g.view(), &PageRankConfig::with_damping(damping)).unwrap().0
    }

    #[test]
    fn scores_sum_to_one() {
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 2), (2, 0), (0, 2)]);
        let s = pr(&g, 0.85);
        assert!((s.sum() - 1.0).abs() < 1e-8);
    }

    #[test]
    fn symmetric_cycle_is_uniform() {
        // Directed 4-cycle: perfect symmetry => uniform scores.
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 2), (2, 3), (3, 0)]);
        let s = pr(&g, 0.85);
        for u in g.nodes() {
            assert!((s.get(u) - 0.25).abs() < 1e-8, "node {u:?}: {}", s.get(u));
        }
    }

    #[test]
    fn hub_outranks_spokes() {
        // Star pointing at node 0 from 1..=5; 0 points back at 1.
        let mut b = GraphBuilder::new();
        for i in 1..=5 {
            b.add_edge_indices(i, 0);
        }
        b.add_edge_indices(0, 1);
        let g = b.build();
        let s = pr(&g, 0.85);
        for i in 1..=5u32 {
            assert!(s.get(NodeId::new(0)) > s.get(NodeId::new(i)));
        }
        // Node 1 gets 0's endorsement: beats 2..=5.
        for i in 2..=5u32 {
            assert!(s.get(NodeId::new(1)) > s.get(NodeId::new(i)));
        }
    }

    #[test]
    fn dangling_mass_conserved() {
        // 0 -> 1, 1 dangles.
        let g = GraphBuilder::from_edge_indices([(0, 1)]);
        let s = pr(&g, 0.85);
        assert!((s.sum() - 1.0).abs() < 1e-8);
        assert!(s.get(NodeId::new(1)) > s.get(NodeId::new(0)));
    }

    #[test]
    fn all_dangling_uniform() {
        let mut b = GraphBuilder::new();
        b.ensure_node(3);
        let g = b.build();
        let s = pr(&g, 0.85);
        for u in g.nodes() {
            assert!((s.get(u) - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn converges_and_reports() {
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 0)]);
        let (_, conv) = pagerank(g.view(), &PageRankConfig::default()).unwrap();
        assert!(conv.converged);
        assert!(conv.iterations > 0);
        assert!(conv.residual < 1e-10);
    }

    #[test]
    fn max_iterations_respected() {
        // Asymmetric graph so uniform start is NOT already stationary.
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 2), (2, 0), (0, 2)]);
        let cfg = PageRankConfig { damping: 0.85, tolerance: 1e-30, max_iterations: 3 };
        let (_, conv) = pagerank(g.view(), &cfg).unwrap();
        assert_eq!(conv.iterations, 3);
        assert!(!conv.converged);
    }

    #[test]
    fn invalid_configs_rejected() {
        let g = GraphBuilder::from_edge_indices([(0, 1)]);
        for bad in [0.0, 1.0, -0.5, 1.5] {
            let cfg = PageRankConfig::with_damping(bad);
            assert!(matches!(pagerank(g.view(), &cfg), Err(AlgoError::InvalidDamping(_))));
        }
        let cfg = PageRankConfig { tolerance: 0.0, ..Default::default() };
        assert!(pagerank(g.view(), &cfg).is_err());
        let cfg = PageRankConfig { max_iterations: 0, ..Default::default() };
        assert!(pagerank(g.view(), &cfg).is_err());
    }

    #[test]
    fn empty_graph_rejected() {
        let g = GraphBuilder::new().build();
        assert!(matches!(
            pagerank(g.view(), &PageRankConfig::default()),
            Err(AlgoError::EmptyGraph)
        ));
    }

    #[test]
    fn weighted_edges_bias_scores() {
        // 0 splits mass between 1 (weight 9) and 2 (weight 1).
        let mut b = GraphBuilder::new();
        b.add_weighted_edge(NodeId::new(0), NodeId::new(1), 9.0);
        b.add_weighted_edge(NodeId::new(0), NodeId::new(2), 1.0);
        b.add_weighted_edge(NodeId::new(1), NodeId::new(0), 1.0);
        b.add_weighted_edge(NodeId::new(2), NodeId::new(0), 1.0);
        let g = b.build();
        let s = pr(&g, 0.85);
        assert!(s.get(NodeId::new(1)) > s.get(NodeId::new(2)));
        assert!((s.sum() - 1.0).abs() < 1e-8);
    }

    #[test]
    fn lower_damping_flattens_scores() {
        // With tiny alpha, scores approach uniform teleport regardless of structure.
        let mut b = GraphBuilder::new();
        for i in 1..=9 {
            b.add_edge_indices(i, 0);
        }
        b.add_edge_indices(0, 1);
        let g = b.build();
        let hi = pr(&g, 0.95);
        let lo = pr(&g, 0.05);
        let spread = |s: &ScoreVector| {
            let max = s.as_slice().iter().cloned().fold(f64::MIN, f64::max);
            let min = s.as_slice().iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        assert!(spread(&hi) > spread(&lo));
    }

    #[test]
    fn transposed_view_gives_cheirank_semantics() {
        // In 0 -> 1, PageRank favors 1; on the transposed view it favors 0.
        let g = GraphBuilder::from_edge_indices([(0, 1)]);
        let fwd = pagerank(g.view(), &PageRankConfig::default()).unwrap().0;
        let rev = pagerank(g.transposed(), &PageRankConfig::default()).unwrap().0;
        assert!(fwd.get(NodeId::new(1)) > fwd.get(NodeId::new(0)));
        assert!(rev.get(NodeId::new(0)) > rev.get(NodeId::new(1)));
    }
}
