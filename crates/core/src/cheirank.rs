//! CheiRank and Personalized CheiRank.
//!
//! Chepelianskii (2010) observed that running PageRank on the *transposed*
//! graph ranks nodes by the importance of their **outgoing** connections: a
//! node scores high if it links to many nodes that themselves link out
//! heavily — "communicative" nodes rather than "popular" ones. The demo
//! platform exposes this as CheiRank, plus a personalized variant that
//! restarts at a reference node, mirroring Personalized PageRank.
//!
//! Implementation-wise these are one-liners on top of the shared
//! [`crate::solver::SweepKernel`]: the [`relgraph::GraphView`]
//! transposition is O(1) because the CSR stores both adjacency directions,
//! so CheiRank is *exactly* the kernel run over the reversed view — and
//! inherits every update scheme (power, Gauss–Seidel, parallel) for free.

use crate::error::AlgoError;
use crate::pagerank::{pagerank, Convergence, PageRankConfig};
use crate::ppr::{personalized_pagerank, TeleportVector};
use crate::result::ScoreVector;
use crate::solver::{SolverConfig, SweepKernel, SweepOutcome};
use relgraph::{DirectedGraph, NodeId};

/// CheiRank: PageRank computed on the edge-reversed graph.
pub fn cheirank(
    g: &DirectedGraph,
    cfg: &PageRankConfig,
) -> Result<(ScoreVector, Convergence), AlgoError> {
    pagerank(g.transposed(), cfg)
}

/// Personalized CheiRank: Personalized PageRank on the edge-reversed graph,
/// restarting at `reference`.
pub fn personalized_cheirank(
    g: &DirectedGraph,
    cfg: &PageRankConfig,
    reference: NodeId,
) -> Result<(ScoreVector, Convergence), AlgoError> {
    personalized_pagerank(g.transposed(), cfg, reference)
}

/// CheiRank under an explicit solver configuration (scheme, threads,
/// tracing): the kernel over the transposed view with a uniform teleport —
/// or a reference-node teleport for the personalized variant.
pub fn cheirank_with(
    g: &DirectedGraph,
    cfg: &SolverConfig,
    reference: Option<NodeId>,
) -> Result<SweepOutcome, AlgoError> {
    let kernel = SweepKernel::new(g.transposed())?;
    let teleport = TeleportVector::for_reference(g.node_count(), reference)?;
    kernel.solve(cfg, &teleport)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::pagerank as pr;
    use crate::solver::Scheme;
    use relgraph::GraphBuilder;

    #[test]
    fn cheirank_favors_out_hubs() {
        // Node 0 links out to 1..=4 (out-hub); node 5 receives from 1..=4 (in-hub).
        let mut b = GraphBuilder::new();
        for i in 1..=4 {
            b.add_edge_indices(0, i);
            b.add_edge_indices(i, 5);
        }
        b.add_edge_indices(5, 0); // close the loop
        let g = b.build();
        let cfg = PageRankConfig::default();
        let (chei, _) = cheirank(&g, &cfg).unwrap();
        let (page, _) = pr(g.view(), &cfg).unwrap();
        // PageRank prefers the in-hub 5; CheiRank prefers the out-hub 0.
        assert!(page.get(NodeId::new(5)) > page.get(NodeId::new(0)));
        assert!(chei.get(NodeId::new(0)) > chei.get(NodeId::new(5)));
    }

    #[test]
    fn cheirank_equals_pagerank_on_transpose() {
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 2), (2, 0), (0, 2)]);
        let cfg = PageRankConfig::default();
        let (chei, _) = cheirank(&g, &cfg).unwrap();
        // Build the explicitly transposed graph and run plain PageRank.
        let mut b = GraphBuilder::new();
        for (u, v) in g.edges() {
            b.add_edge(v, u);
        }
        let gt = b.build();
        let (page_t, _) = pr(gt.view(), &cfg).unwrap();
        for u in g.nodes() {
            assert!((chei.get(u) - page_t.get(u)).abs() < 1e-9);
        }
    }

    #[test]
    fn all_schemes_agree_on_cheirank() {
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 2), (2, 0), (0, 2), (2, 1)]);
        let base = cheirank_with(
            &g,
            &SolverConfig { tolerance: 1e-12, ..Default::default() }.with_scheme(Scheme::Power),
            None,
        )
        .unwrap();
        let out = cheirank_with(
            &g,
            &SolverConfig { tolerance: 1e-12, ..Default::default() }.with_scheme(Scheme::Parallel),
            None,
        )
        .unwrap();
        for u in g.nodes() {
            assert!((base.scores.get(u) - out.scores.get(u)).abs() < 1e-9, "node {u:?}");
        }
    }

    #[test]
    fn personalized_cheirank_localizes_upstream() {
        // Chain 0 -> 1 -> 2. From reference 2, personalized CheiRank walks
        // the reversed edges and reaches 1 and 0.
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 2)]);
        let cfg = PageRankConfig::default();
        let (s, _) = personalized_cheirank(&g, &cfg, NodeId::new(2)).unwrap();
        assert_eq!(s.argmax(), Some(NodeId::new(2)));
        assert!(s.get(NodeId::new(1)) > s.get(NodeId::new(0)));
        // Forward PPR from node 2 would see nothing (2 has no out-edges).
        let (fwd, _) = personalized_pagerank(g.view(), &cfg, NodeId::new(2)).unwrap();
        assert_eq!(fwd.get(NodeId::new(0)), 0.0);
    }

    #[test]
    fn personalized_cheirank_invalid_reference() {
        let g = GraphBuilder::from_edge_indices([(0, 1)]);
        assert!(personalized_cheirank(&g, &PageRankConfig::default(), NodeId::new(7)).is_err());
        assert!(cheirank_with(&g, &SolverConfig::default(), Some(NodeId::new(7))).is_err());
    }

    #[test]
    fn cheirank_sums_to_one() {
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 2), (2, 0), (1, 0)]);
        let (s, conv) = cheirank(&g, &PageRankConfig::default()).unwrap();
        assert!(conv.converged);
        assert!((s.sum() - 1.0).abs() < 1e-8);
    }
}
