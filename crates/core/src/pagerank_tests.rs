//! Behaviour of the `pagerank` built-in, served through `Query` under every
//! scheme (harness: `builtin::behaviour`).

mod tests {
    use crate::builtin::behaviour::*;
    use crate::error::AlgoError;
    use crate::query::{Query, QueryError};
    use crate::solver::Scheme;
    use relgraph::{GraphBuilder, NodeId};

    #[test]
    fn scores_sum_to_one() {
        Row {
            behaviour: "scores form a distribution",
            graph: asymmetric,
            algorithms: &["pagerank"],
            query: |q| q,
            check: |o| distribution(o).is_some(),
        }
        .holds();
    }

    #[test]
    fn symmetric_cycle_is_uniform() {
        Row {
            behaviour: "a directed cycle ranks every node equally",
            graph: cycle4,
            algorithms: &["pagerank", "cheirank"],
            query: |q| q,
            check: |o| {
                distribution(o).is_some_and(|s| (0..4).all(|i| (at(s, i) - 0.25).abs() < 1e-8))
            },
        }
        .holds();
    }

    #[test]
    fn hub_outranks_spokes() {
        Row {
            behaviour: "in-links raise PageRank, and the hub's endorsement counts",
            graph: star,
            algorithms: &["pagerank"],
            query: |q| q,
            check: |o| {
                distribution(o).is_some_and(|s| {
                    (1..=5).all(|i| at(s, 0) > at(s, i)) && (2..=5).all(|i| at(s, 1) > at(s, i))
                })
            },
        }
        .holds();
    }

    #[test]
    fn dangling_mass_conserved() {
        Row {
            behaviour: "dangling mass is redistributed, not lost",
            graph: single_edge,
            algorithms: &["pagerank"],
            query: |q| q,
            check: |o| distribution(o).is_some_and(|s| at(s, 1) > at(s, 0)),
        }
        .holds();
    }

    #[test]
    fn all_dangling_uniform() {
        Row {
            behaviour: "an edgeless graph ranks uniformly",
            graph: isolated4,
            algorithms: &["pagerank", "cheirank"],
            query: |q| q,
            check: |o| {
                distribution(o).is_some_and(|s| (0..4).all(|i| (at(s, i) - 0.25).abs() < 1e-9))
            },
        }
        .holds();
    }

    #[test]
    fn converges_and_reports() {
        Row {
            behaviour: "a run reports convergence within the tolerance",
            graph: || GraphBuilder::from_edge_indices([(0, 1), (1, 0)]),
            algorithms: &["pagerank"],
            query: |q| q,
            check: |o| distribution(o).is_some(),
        }
        .holds();
    }

    #[test]
    fn max_iterations_respected() {
        Row {
            behaviour: "max_iterations caps the sweeps of an unconverged run",
            graph: asymmetric,
            algorithms: &["pagerank", "ppr", "cheirank", "pcheirank"],
            query: |q| seed0(q).tolerance(1e-30).max_iterations(3),
            check: |o| {
                o.as_ref().is_ok_and(|out| {
                    out.convergence.is_some_and(|c| c.iterations == 3 && !c.converged)
                })
            },
        }
        .holds();
    }

    #[test]
    fn invalid_configs_rejected() {
        let g = std::sync::Arc::new(single_edge());
        for scheme in Scheme::ALL {
            let q = || Query::on(&g).algorithm("pagerank").scheme(scheme);
            for bad in [0.0, 1.0, -0.5, 1.5] {
                assert!(matches!(
                    q().alpha(bad).run(),
                    Err(QueryError::Algorithm(AlgoError::InvalidDamping(_)))
                ));
            }
            assert!(q().tolerance(0.0).run().is_err());
            assert!(q().max_iterations(0).run().is_err());
        }
    }

    #[test]
    fn empty_graph_rejected() {
        let g = std::sync::Arc::new(GraphBuilder::new().build());
        for scheme in Scheme::ALL {
            assert!(matches!(
                Query::on(&g).algorithm("pagerank").scheme(scheme).run(),
                Err(QueryError::Algorithm(AlgoError::EmptyGraph))
            ));
        }
    }

    #[test]
    fn weighted_edges_bias_scores() {
        Row {
            behaviour: "edge weights bias the walk",
            // 0 splits its mass 9:1 between 1 and 2.
            graph: || {
                let mut b = GraphBuilder::new();
                b.add_weighted_edge(NodeId::new(0), NodeId::new(1), 9.0);
                b.add_weighted_edge(NodeId::new(0), NodeId::new(2), 1.0);
                b.add_weighted_edge(NodeId::new(1), NodeId::new(0), 1.0);
                b.add_weighted_edge(NodeId::new(2), NodeId::new(0), 1.0);
                b.build()
            },
            algorithms: &["pagerank"],
            query: |q| q,
            check: |o| distribution(o).is_some_and(|s| at(s, 1) > at(s, 2)),
        }
        .holds();
    }

    #[test]
    fn lower_damping_flattens_scores() {
        // x = (1 − α)·t + α·P·x puts every score in [(1 − α)/n, (1 − α)/n + α].
        Row {
            behaviour: "a low damping factor flattens scores toward the teleport",
            graph: star,
            algorithms: &["pagerank", "cheirank"],
            query: |q| q.alpha(0.05),
            check: |o| distribution(o).is_some_and(|s| spread(s) <= 0.05),
        }
        .holds();
        let g = std::sync::Arc::new(star());
        let spread_at = |alpha| {
            let out = Query::on(&g).algorithm("pagerank").alpha(alpha).run().unwrap();
            spread(out.output.scores.as_ref().unwrap())
        };
        assert!(spread_at(0.95) > spread_at(0.05));
    }

    #[test]
    fn transposed_view_gives_cheirank_semantics() {
        Row {
            behaviour: "in 0 -> 1 PageRank favors 1, CheiRank (the transposed view) 0",
            graph: single_edge,
            algorithms: &["pagerank", "cheirank"],
            query: |q| q,
            check: |o| {
                let Some(s) = distribution(o) else { return false };
                match ran(o) {
                    "pagerank" => at(s, 1) > at(s, 0),
                    _ => at(s, 0) > at(s, 1),
                }
            },
        }
        .holds();
    }
}
