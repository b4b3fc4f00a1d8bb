//! Behaviour of the `cheirank` and `pcheirank` built-ins, served through
//! `Query` under every scheme (harness: `builtin::behaviour`).

mod tests {
    use crate::builtin::behaviour::*;
    use crate::error::AlgoError;
    use crate::query::{Query, QueryError};
    use relgraph::{GraphBuilder, NodeId};

    #[test]
    fn cheirank_favors_out_hubs() {
        Row {
            behaviour: "PageRank favors the in-hub, CheiRank the out-hub",
            // Node 0 links out to 1..=4, which all link to 5; 5 closes the loop.
            graph: || {
                let mut b = GraphBuilder::new();
                for i in 1..=4 {
                    b.add_edge_indices(0, i);
                    b.add_edge_indices(i, 5);
                }
                b.add_edge_indices(5, 0);
                b.build()
            },
            algorithms: &["pagerank", "cheirank"],
            query: |q| q,
            check: |o| {
                let Some(s) = distribution(o) else { return false };
                match ran(o) {
                    "pagerank" => at(s, 5) > at(s, 0),
                    _ => at(s, 0) > at(s, 5),
                }
            },
        }
        .holds();
    }

    #[test]
    fn cheirank_equals_pagerank_on_transpose() {
        Row {
            behaviour: "CheiRank is PageRank on the explicitly transposed graph",
            graph: asymmetric,
            algorithms: &["cheirank"],
            query: |q| q,
            check: |o| {
                let g = asymmetric();
                let mut b = GraphBuilder::new();
                for (u, v) in g.edges() {
                    b.add_edge(v, u);
                }
                let page_t = Query::on(b.build()).algorithm("pagerank").run().unwrap();
                let page_t = page_t.output.scores.unwrap();
                distribution(o)
                    .is_some_and(|s| g.nodes().all(|u| (s.get(u) - page_t.get(u)).abs() < 1e-8))
            },
        }
        .holds();
    }

    #[test]
    fn all_schemes_agree_on_cheirank() {
        // `holds` asserts that both schemes reach the same fixed point.
        Row {
            behaviour: "every scheme sweeps CheiRank to the same fixed point",
            graph: || GraphBuilder::from_edge_indices([(0, 1), (1, 2), (2, 0), (0, 2), (2, 1)]),
            algorithms: &["cheirank", "pcheirank"],
            query: |q| seed0(q).tolerance(1e-12),
            check: |o| distribution(o).is_some(),
        }
        .holds();
    }

    #[test]
    fn personalized_cheirank_localizes_upstream() {
        Row {
            behaviour: "Pers. CheiRank walks the reversed edges upstream of the seed",
            graph: chain3,
            algorithms: &["ppr", "pcheirank"],
            query: |q| q.reference(NodeId::new(2)),
            check: |o| {
                let Some(s) = distribution(o) else { return false };
                match ran(o) {
                    // Node 2 has no out-edges: a forward walk sees nothing.
                    "ppr" => at(s, 0) == 0.0,
                    _ => s.argmax() == Some(NodeId::new(2)) && at(s, 1) > at(s, 0),
                }
            },
        }
        .holds();
    }

    #[test]
    fn personalized_cheirank_invalid_reference() {
        Row {
            behaviour: "an out-of-range reference is rejected",
            graph: single_edge,
            algorithms: &["pcheirank"],
            query: |q| q.reference(NodeId::new(7)),
            check: |o| matches!(o, Err(QueryError::Algorithm(AlgoError::InvalidReference { .. }))),
        }
        .holds();
    }

    #[test]
    fn cheirank_sums_to_one() {
        Row {
            behaviour: "scores form a distribution",
            graph: || GraphBuilder::from_edge_indices([(0, 1), (1, 2), (2, 0), (1, 0)]),
            algorithms: &["cheirank"],
            query: |q| q,
            check: |o| distribution(o).is_some(),
        }
        .holds();
    }
}
