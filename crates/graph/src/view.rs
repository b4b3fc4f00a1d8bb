//! Zero-cost directional views over either graph representation.
//!
//! Several algorithms in the platform are defined as "algorithm X on the
//! transposed graph" — most prominently CheiRank, which is PageRank on the
//! edge-reversed graph. Because both [`DirectedGraph`] and
//! [`crate::compact::CompactGraph`] store both adjacency directions,
//! reversing is free: [`GraphView`] just swaps which arrays (or varint
//! streams) the accessors read.
//!
//! All relevance algorithms in `relcore` take a [`GraphView`], so the same
//! code path serves both orientations *and* both memory tiers. Hot loops
//! that want raw slices use [`GraphView::in_arrays`] /
//! [`GraphView::out_arrays`] — `Some` on the standard CSR, `None` on the
//! compact tier, where the iterator accessors decode the varint stream.

use crate::compact::{CompactEdges, GraphRef};
use crate::csr::DirectedGraph;
use crate::node::NodeId;

/// A read-only, possibly edge-reversed view of a graph in either
/// representation.
///
/// Copyable and zero-cost: holds a [`GraphRef`] and an orientation flag.
#[derive(Debug, Clone, Copy)]
pub struct GraphView<'a> {
    repr: GraphRef<'a>,
    reversed: bool,
}

/// Iterator over one node's neighbors in a view's orientation: a slice
/// walk on the standard CSR, a delta-varint decode on the compact tier.
#[derive(Debug, Clone)]
pub enum Neighbors<'a> {
    /// CSR slice iteration.
    Slice(std::slice::Iter<'a, NodeId>),
    /// Compact stream decode.
    Compact(CompactEdges<'a>),
}

impl Iterator for Neighbors<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        match self {
            Neighbors::Slice(it) => it.next().copied(),
            Neighbors::Compact(it) => it.next().map(|(v, _)| v),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Neighbors::Slice(it) => it.size_hint(),
            Neighbors::Compact(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

/// Iterator over one node's `(neighbor, weight)` pairs in a view's
/// orientation; weight is 1.0 on unweighted graphs.
#[derive(Debug, Clone)]
pub enum Edges<'a> {
    /// CSR slices (ids plus optional aligned weights).
    Slice {
        /// Neighbor ids.
        ids: std::slice::Iter<'a, NodeId>,
        /// Aligned weights, when the graph is weighted.
        ws: Option<std::slice::Iter<'a, f64>>,
    },
    /// Compact stream decode.
    Compact(CompactEdges<'a>),
}

impl Iterator for Edges<'_> {
    type Item = (NodeId, f64);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, f64)> {
        match self {
            Edges::Slice { ids, ws } => {
                let v = *ids.next()?;
                let w = match ws {
                    Some(ws) => *ws.next().expect("weights aligned with ids"),
                    None => 1.0,
                };
                Some((v, w))
            }
            Edges::Compact(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Edges::Slice { ids, .. } => ids.size_hint(),
            Edges::Compact(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for Edges<'_> {}

impl<'a> GraphView<'a> {
    /// Identity view.
    #[inline]
    pub fn forward(repr: impl Into<GraphRef<'a>>) -> Self {
        GraphView { repr: repr.into(), reversed: false }
    }

    /// Edge-reversed view.
    #[inline]
    pub fn reversed(repr: impl Into<GraphRef<'a>>) -> Self {
        GraphView { repr: repr.into(), reversed: true }
    }

    /// The underlying representation.
    #[inline]
    pub fn repr(&self) -> GraphRef<'a> {
        self.repr
    }

    /// The underlying standard CSR, when that is the representation.
    /// Algorithms that need O(1) indexed neighbor access gate on this.
    #[inline]
    pub fn as_csr(&self) -> Option<&'a DirectedGraph> {
        self.repr.as_csr()
    }

    /// Whether this view reverses edge direction.
    #[inline]
    pub fn is_reversed(&self) -> bool {
        self.reversed
    }

    /// Returns the opposite orientation of this view.
    #[inline]
    pub fn flipped(&self) -> GraphView<'a> {
        GraphView { repr: self.repr, reversed: !self.reversed }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.repr.node_count()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.repr.edge_count()
    }

    /// Whether the underlying graph is weighted.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.repr.is_weighted()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + 'a {
        (0..self.node_count() as u32).map(NodeId::new)
    }

    /// Raw CSR successor arrays of `u` — `(ids, weights)` — in this
    /// view's orientation, or `None` on the compact tier. The solver hot
    /// loops take this fast path and fall back to [`Self::out_edges`].
    #[inline]
    pub fn out_arrays(&self, u: NodeId) -> Option<(&'a [NodeId], Option<&'a [f64]>)> {
        let g = self.repr.as_csr()?;
        Some(if self.reversed {
            (g.in_neighbors(u), g.in_weights(u))
        } else {
            (g.out_neighbors(u), g.out_weights(u))
        })
    }

    /// Raw CSR predecessor arrays of `u`, or `None` on the compact tier.
    #[inline]
    pub fn in_arrays(&self, u: NodeId) -> Option<(&'a [NodeId], Option<&'a [f64]>)> {
        let g = self.repr.as_csr()?;
        Some(if self.reversed {
            (g.out_neighbors(u), g.out_weights(u))
        } else {
            (g.in_neighbors(u), g.in_weights(u))
        })
    }

    /// Successors of `u` in this view's orientation.
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> Neighbors<'a> {
        match (self.repr, self.reversed) {
            (GraphRef::Csr(g), false) => Neighbors::Slice(g.out_neighbors(u).iter()),
            (GraphRef::Csr(g), true) => Neighbors::Slice(g.in_neighbors(u).iter()),
            (GraphRef::Compact(g), false) => Neighbors::Compact(g.out_edges(u)),
            (GraphRef::Compact(g), true) => Neighbors::Compact(g.in_edges(u)),
        }
    }

    /// Predecessors of `u` in this view's orientation.
    #[inline]
    pub fn in_neighbors(&self, u: NodeId) -> Neighbors<'a> {
        self.flipped().out_neighbors(u)
    }

    /// `(successor, weight)` pairs of `u`; weight is 1.0 when unweighted.
    #[inline]
    pub fn out_edges(&self, u: NodeId) -> Edges<'a> {
        match (self.repr, self.reversed) {
            (GraphRef::Csr(g), false) => Edges::Slice {
                ids: g.out_neighbors(u).iter(),
                ws: g.out_weights(u).map(|w| w.iter()),
            },
            (GraphRef::Csr(g), true) => Edges::Slice {
                ids: g.in_neighbors(u).iter(),
                ws: g.in_weights(u).map(|w| w.iter()),
            },
            (GraphRef::Compact(g), false) => Edges::Compact(g.out_edges(u)),
            (GraphRef::Compact(g), true) => Edges::Compact(g.in_edges(u)),
        }
    }

    /// `(predecessor, weight)` pairs of `u`; weight is 1.0 when unweighted.
    #[inline]
    pub fn in_edges(&self, u: NodeId) -> Edges<'a> {
        self.flipped().out_edges(u)
    }

    /// Out-degree in this orientation.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        match (self.repr, self.reversed) {
            (GraphRef::Csr(g), false) => g.out_degree(u),
            (GraphRef::Csr(g), true) => g.in_degree(u),
            (GraphRef::Compact(g), false) => g.out_degree(u),
            (GraphRef::Compact(g), true) => g.in_degree(u),
        }
    }

    /// In-degree in this orientation.
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.flipped().out_degree(u)
    }

    /// Sum of out-edge weights in this orientation (out-degree when
    /// unweighted). O(1) on the CSR (build-time cache); one varint decode
    /// on the compact tier.
    #[inline]
    pub fn out_weight_sum(&self, u: NodeId) -> f64 {
        match (self.repr, self.reversed) {
            (GraphRef::Csr(g), false) => g.out_weight_sum(u),
            (GraphRef::Csr(g), true) => g.in_weight_sum(u),
            (GraphRef::Compact(g), false) => g.out_weight_sum(u),
            (GraphRef::Compact(g), true) => g.in_weight_sum(u),
        }
    }

    /// Sum of in-edge weights in this orientation (in-degree when
    /// unweighted).
    #[inline]
    pub fn in_weight_sum(&self, u: NodeId) -> f64 {
        self.flipped().out_weight_sum(u)
    }

    /// True iff edge `u → v` exists in this orientation. O(log degree)
    /// on the CSR, O(degree) stream scan on the compact tier.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        match self.out_arrays(u) {
            Some((ids, _)) => ids.binary_search(&v).is_ok(),
            None => self.out_neighbors(u).any(|x| x == v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::compact::CompactGraph;

    fn path() -> DirectedGraph {
        GraphBuilder::from_edge_indices([(0, 1), (1, 2)])
    }

    fn outs(v: &GraphView<'_>, u: u32) -> Vec<NodeId> {
        v.out_neighbors(NodeId::new(u)).collect()
    }

    fn ins(v: &GraphView<'_>, u: u32) -> Vec<NodeId> {
        v.in_neighbors(NodeId::new(u)).collect()
    }

    #[test]
    fn forward_matches_graph() {
        let g = path();
        let v = g.view();
        assert_eq!(outs(&v, 0), g.out_neighbors(NodeId::new(0)));
        assert_eq!(ins(&v, 2), g.in_neighbors(NodeId::new(2)));
        assert_eq!(v.node_count(), 3);
        assert_eq!(v.edge_count(), 2);
        assert!(!v.is_reversed());
        assert!(v.as_csr().is_some());
        let (ids, ws) = v.out_arrays(NodeId::new(0)).unwrap();
        assert_eq!(ids, g.out_neighbors(NodeId::new(0)));
        assert!(ws.is_none());
    }

    #[test]
    fn reversed_swaps_directions() {
        let g = path();
        let t = g.transposed();
        assert!(t.is_reversed());
        assert_eq!(outs(&t, 1), &[NodeId::new(0)]);
        assert_eq!(ins(&t, 1), &[NodeId::new(2)]);
        assert_eq!(t.out_degree(NodeId::new(0)), 0);
        assert_eq!(t.in_degree(NodeId::new(0)), 1);
        assert!(t.has_edge(NodeId::new(2), NodeId::new(1)));
        assert!(!t.has_edge(NodeId::new(1), NodeId::new(2)));
    }

    #[test]
    fn flipped_is_involution() {
        let g = path();
        let v = g.view().flipped().flipped();
        assert!(!v.is_reversed());
        let t = g.transposed().flipped();
        assert!(!t.is_reversed());
    }

    #[test]
    fn weighted_view() {
        let mut b = GraphBuilder::new();
        b.add_weighted_edge(NodeId::new(0), NodeId::new(1), 2.0);
        b.add_weighted_edge(NodeId::new(1), NodeId::new(0), 3.0);
        let g = b.build();
        let t = g.transposed();
        // In the reversed view, edge 1->0 (weight 3.0) becomes 0->1.
        let edges: Vec<(NodeId, f64)> = t.out_edges(NodeId::new(0)).collect();
        assert_eq!(edges, vec![(NodeId::new(1), 3.0)]);
        assert_eq!(t.out_weight_sum(NodeId::new(0)), 3.0);
        assert_eq!(g.view().out_weight_sum(NodeId::new(0)), 2.0);
        let (_, ws) = t.out_arrays(NodeId::new(0)).unwrap();
        assert_eq!(ws, Some(&[3.0][..]));
    }

    #[test]
    fn compact_view_matches_csr_view() {
        let mut b = GraphBuilder::new();
        b.add_weighted_edge(NodeId::new(0), NodeId::new(1), 2.0);
        b.add_weighted_edge(NodeId::new(1), NodeId::new(2), 0.5);
        b.add_weighted_edge(NodeId::new(2), NodeId::new(0), 3.0);
        b.add_weighted_edge(NodeId::new(0), NodeId::new(2), 1.0);
        let g = b.build();
        let c = CompactGraph::from_csr(&g);
        for (v_csr, v_cmp) in [(g.view(), c.view()), (g.transposed(), c.transposed())] {
            assert!(v_cmp.as_csr().is_none());
            assert!(v_cmp.out_arrays(NodeId::new(0)).is_none());
            for u in v_csr.nodes() {
                let a: Vec<_> = v_csr.out_edges(u).collect();
                let b: Vec<_> = v_cmp.out_edges(u).collect();
                assert_eq!(a, b);
                let a: Vec<_> = v_csr.in_edges(u).collect();
                let b: Vec<_> = v_cmp.in_edges(u).collect();
                assert_eq!(a, b);
                assert_eq!(v_csr.out_degree(u), v_cmp.out_degree(u));
                assert_eq!(v_csr.in_weight_sum(u), v_cmp.in_weight_sum(u));
                for w in v_csr.nodes() {
                    assert_eq!(v_csr.has_edge(u, w), v_cmp.has_edge(u, w));
                }
            }
        }
    }
}
