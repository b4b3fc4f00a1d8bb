//! Immutable compressed-sparse-row (CSR) directed graph.
//!
//! [`DirectedGraph`] stores both the forward (out-) and reverse (in-)
//! adjacency in CSR form. The representation is immutable once built; use
//! [`crate::GraphBuilder`] to construct one.

use crate::labels::LabelTable;
use crate::node::NodeId;
use crate::view::GraphView;
use std::sync::Arc;

/// An immutable directed graph in CSR form, optionally edge-weighted and
/// node-labeled.
///
/// Nodes are dense indices `0..node_count`. For each node the out-neighbors
/// (and, symmetrically, in-neighbors) are stored sorted by target (source)
/// index, enabling binary-search edge lookups via [`DirectedGraph::has_edge`].
///
/// Weighted graphs carry one `f64` per stored edge, aligned with the
/// adjacency arrays; unweighted graphs store no weight array and every edge
/// has implicit weight 1.
#[derive(Debug, Clone)]
pub struct DirectedGraph {
    pub(crate) out_offsets: Vec<usize>,
    pub(crate) out_targets: Vec<NodeId>,
    pub(crate) out_weights: Option<Vec<f64>>,
    pub(crate) in_offsets: Vec<usize>,
    pub(crate) in_sources: Vec<NodeId>,
    pub(crate) in_weights: Option<Vec<f64>>,
    /// Per-node Σ of out-edge weights, cached at build time so the solver
    /// sweeps never re-walk the adjacency to normalize (`None` when
    /// unweighted: the sum equals the out-degree, already O(1)).
    pub(crate) out_weight_sums: Option<Vec<f64>>,
    /// Per-node Σ of in-edge weights (the out-weight sums of the
    /// transposed view, used by CheiRank-family sweeps).
    pub(crate) in_weight_sums: Option<Vec<f64>>,
    /// Shared, copy-on-write: a dynamic graph's snapshot reuses its
    /// predecessor's table unless an edit created a node.
    pub(crate) labels: Arc<LabelTable>,
}

impl DirectedGraph {
    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of (deduplicated) directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// True if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// True if the graph carries edge weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.out_weights.is_some()
    }

    /// Iterator over all node ids, `0..node_count`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId::new)
    }

    /// Out-neighbors of `u`, sorted by index.
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        let (s, e) = (self.out_offsets[u.index()], self.out_offsets[u.index() + 1]);
        &self.out_targets[s..e]
    }

    /// In-neighbors of `u` (sources of edges into `u`), sorted by index.
    #[inline]
    pub fn in_neighbors(&self, u: NodeId) -> &[NodeId] {
        let (s, e) = (self.in_offsets[u.index()], self.in_offsets[u.index() + 1]);
        &self.in_sources[s..e]
    }

    /// Weights aligned with [`Self::out_neighbors`]; `None` when unweighted.
    #[inline]
    pub fn out_weights(&self, u: NodeId) -> Option<&[f64]> {
        self.out_weights.as_ref().map(|w| {
            let (s, e) = (self.out_offsets[u.index()], self.out_offsets[u.index() + 1]);
            &w[s..e]
        })
    }

    /// Weights aligned with [`Self::in_neighbors`]; `None` when unweighted.
    #[inline]
    pub fn in_weights(&self, u: NodeId) -> Option<&[f64]> {
        self.in_weights.as_ref().map(|w| {
            let (s, e) = (self.in_offsets[u.index()], self.in_offsets[u.index() + 1]);
            &w[s..e]
        })
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out_offsets[u.index() + 1] - self.out_offsets[u.index()]
    }

    /// In-degree of `u`.
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.in_offsets[u.index() + 1] - self.in_offsets[u.index()]
    }

    /// Sum of out-edge weights of `u` (out-degree for unweighted graphs).
    /// O(1): weighted sums are cached at build time.
    #[inline]
    pub fn out_weight_sum(&self, u: NodeId) -> f64 {
        match &self.out_weight_sums {
            Some(sums) => sums[u.index()],
            None => self.out_degree(u) as f64,
        }
    }

    /// Sum of in-edge weights of `u` (in-degree for unweighted graphs).
    /// O(1): weighted sums are cached at build time.
    #[inline]
    pub fn in_weight_sum(&self, u: NodeId) -> f64 {
        match &self.in_weight_sums {
            Some(sums) => sums[u.index()],
            None => self.in_degree(u) as f64,
        }
    }

    /// True iff the edge `u → v` exists. O(log out_degree(u)).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Weight of edge `u → v` (1.0 for unweighted graphs), or `None` when
    /// the edge does not exist.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let pos = self.out_neighbors(u).binary_search(&v).ok()?;
        Some(match self.out_weights(u) {
            Some(w) => w[pos],
            None => 1.0,
        })
    }

    /// Iterator over all edges as `(source, target)` pairs, grouped by source.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Iterator over all edges with weights (1.0 when unweighted).
    pub fn weighted_edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.nodes().flat_map(move |u| {
            let ns = self.out_neighbors(u);
            let ws = self.out_weights(u);
            ns.iter().enumerate().map(move |(i, &v)| {
                let w = ws.map(|w| w[i]).unwrap_or(1.0);
                (u, v, w)
            })
        })
    }

    /// Node labels.
    #[inline]
    pub fn labels(&self) -> &LabelTable {
        &self.labels
    }

    /// Mutable access to node labels (e.g. to attach titles after loading a
    /// bare edge list). Copies the table first when another graph shares
    /// it.
    #[inline]
    pub fn labels_mut(&mut self) -> &mut LabelTable {
        Arc::make_mut(&mut self.labels)
    }

    /// Resolves a label to a node id.
    pub fn node_by_label(&self, label: &str) -> Option<NodeId> {
        self.labels.resolve(label)
    }

    /// Human-readable name for `u`: its label, or its index when unlabeled.
    pub fn display_name(&self, u: NodeId) -> String {
        self.labels.label_or_index(u)
    }

    /// Forward view of the graph (identity).
    #[inline]
    pub fn view(&self) -> GraphView<'_> {
        GraphView::forward(self)
    }

    /// Transposed (edge-reversed) view of the graph, in O(1).
    ///
    /// CheiRank is defined as PageRank on this view.
    #[inline]
    pub fn transposed(&self) -> GraphView<'_> {
        GraphView::reversed(self)
    }

    /// Nodes with no outgoing edges ("dangling" nodes in PageRank terms).
    pub fn dangling_nodes(&self) -> Vec<NodeId> {
        self.nodes().filter(|&u| self.out_degree(u) == 0).collect()
    }

    /// Total bytes used by the adjacency structure (diagnostic).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut b = (self.out_offsets.len() + self.in_offsets.len()) * size_of::<usize>()
            + (self.out_targets.len() + self.in_sources.len()) * size_of::<NodeId>();
        if let Some(w) = &self.out_weights {
            b += w.len() * size_of::<f64>();
        }
        if let Some(w) = &self.in_weights {
            b += w.len() * size_of::<f64>();
        }
        if let Some(s) = &self.out_weight_sums {
            b += s.len() * size_of::<f64>();
        }
        if let Some(s) = &self.in_weight_sums {
            b += s.len() * size_of::<f64>();
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::node::NodeId;

    fn diamond() -> crate::DirectedGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3, 3 -> 0
        let mut b = GraphBuilder::new();
        b.add_edge_indices(0, 1);
        b.add_edge_indices(0, 2);
        b.add_edge_indices(1, 3);
        b.add_edge_indices(2, 3);
        b.add_edge_indices(3, 0);
        b.build()
    }

    #[test]
    fn counts() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 5);
        assert!(!g.is_empty());
        assert!(!g.is_weighted());
    }

    #[test]
    fn adjacency() {
        let g = diamond();
        assert_eq!(g.out_neighbors(NodeId::new(0)), &[NodeId::new(1), NodeId::new(2)]);
        assert_eq!(g.in_neighbors(NodeId::new(3)), &[NodeId::new(1), NodeId::new(2)]);
        assert_eq!(g.out_degree(NodeId::new(0)), 2);
        assert_eq!(g.in_degree(NodeId::new(0)), 1);
        assert_eq!(g.out_degree(NodeId::new(3)), 1);
    }

    #[test]
    fn has_edge_and_weight() {
        let g = diamond();
        assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(!g.has_edge(NodeId::new(1), NodeId::new(0)));
        assert_eq!(g.edge_weight(NodeId::new(0), NodeId::new(1)), Some(1.0));
        assert_eq!(g.edge_weight(NodeId::new(1), NodeId::new(0)), None);
    }

    #[test]
    fn edges_iterator() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 5);
        assert!(edges.contains(&(NodeId::new(3), NodeId::new(0))));
    }

    #[test]
    fn weighted_edges_default_weight() {
        let g = diamond();
        for (_, _, w) in g.weighted_edges() {
            assert_eq!(w, 1.0);
        }
    }

    #[test]
    fn dangling_detection() {
        let mut b = GraphBuilder::new();
        b.add_edge_indices(0, 1);
        b.add_edge_indices(0, 2);
        let g = b.build();
        assert_eq!(g.dangling_nodes(), vec![NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    fn out_weight_sum_unweighted() {
        let g = diamond();
        assert_eq!(g.out_weight_sum(NodeId::new(0)), 2.0);
        assert_eq!(g.in_weight_sum(NodeId::new(3)), 2.0);
    }

    #[test]
    fn weight_sums_cached_for_weighted_graphs() {
        let mut b = GraphBuilder::new();
        b.add_weighted_edge(NodeId::new(0), NodeId::new(1), 2.5);
        b.add_weighted_edge(NodeId::new(0), NodeId::new(2), 1.5);
        b.add_weighted_edge(NodeId::new(2), NodeId::new(1), 3.0);
        let g = b.build();
        // Cached sums agree with walking the adjacency.
        for u in g.nodes() {
            let walked: f64 = g.out_weights(u).unwrap().iter().sum();
            assert_eq!(g.out_weight_sum(u), walked);
            let walked_in: f64 = g.in_weights(u).unwrap().iter().sum();
            assert_eq!(g.in_weight_sum(u), walked_in);
        }
        assert_eq!(g.out_weight_sum(NodeId::new(0)), 4.0);
        assert_eq!(g.in_weight_sum(NodeId::new(1)), 5.5);
        assert_eq!(g.in_weight_sum(NodeId::new(0)), 0.0);
    }

    #[test]
    fn memory_accounting_positive() {
        let g = diamond();
        assert!(g.memory_bytes() > 0);
    }
}
