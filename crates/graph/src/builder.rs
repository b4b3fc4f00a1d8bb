//! Mutable graph builder.
//!
//! [`GraphBuilder`] collects nodes and edges in any order and produces an
//! immutable [`DirectedGraph`] in CSR form. Building is O(V + E) via two
//! counting sorts (one per direction).

use crate::csr::DirectedGraph;
use crate::error::GraphError;
use crate::labels::LabelTable;
use crate::node::NodeId;
use std::sync::Arc;

/// How parallel (duplicate) edges are combined during [`GraphBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DuplicatePolicy {
    /// Keep a single copy; for weighted graphs, sum the weights.
    ///
    /// This is the default and matches the demo platform's dataset loader:
    /// the Twitter interaction networks collapse repeated interactions
    /// (retweet + reply + mention between the same pair) into one weighted
    /// edge.
    #[default]
    Merge,
    /// Keep a single copy with the weight of the first occurrence.
    KeepFirst,
}

/// Incremental builder for [`DirectedGraph`].
///
/// Nodes can be declared explicitly ([`GraphBuilder::add_node`],
/// [`GraphBuilder::add_labeled_node`]) or implicitly by adding edges with
/// raw indices; the node count is the maximum index seen plus one.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    edges: Vec<(NodeId, NodeId, f64)>,
    weighted: bool,
    node_count: usize,
    labels: LabelTable,
    drop_self_loops: bool,
    duplicate_policy: DuplicatePolicy,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with room for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        GraphBuilder {
            edges: Vec::with_capacity(edges),
            labels: LabelTable::with_capacity(nodes),
            node_count: 0,
            weighted: false,
            drop_self_loops: false,
            duplicate_policy: DuplicatePolicy::Merge,
        }
    }

    /// Discards self-loops (`u → u`) at build time.
    ///
    /// CycleRank considers cycles of length ≥ 2 only, so the reference
    /// datasets are loaded with self-loops dropped; PageRank-family
    /// algorithms tolerate them either way.
    pub fn drop_self_loops(&mut self, yes: bool) -> &mut Self {
        self.drop_self_loops = yes;
        self
    }

    /// Sets the policy for parallel edges (default: [`DuplicatePolicy::Merge`]).
    pub fn duplicate_policy(&mut self, p: DuplicatePolicy) -> &mut Self {
        self.duplicate_policy = p;
        self
    }

    /// Declares a fresh unlabeled node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from_usize(self.node_count);
        self.node_count += 1;
        id
    }

    /// Returns the node labeled `label`, creating it if it does not exist.
    pub fn add_labeled_node(&mut self, label: impl AsRef<str>) -> NodeId {
        let label = label.as_ref();
        if let Some(id) = self.labels.resolve(label) {
            return id;
        }
        let id = self.add_node();
        self.labels.set(id, label);
        id
    }

    /// Looks up a labeled node without creating it.
    pub fn resolve_label(&self, label: &str) -> Option<NodeId> {
        self.labels.resolve(label)
    }

    /// Attaches (or replaces) the label of an existing node.
    pub fn set_label(&mut self, node: NodeId, label: impl AsRef<str>) -> &mut Self {
        self.ensure_node(node.raw());
        self.labels.set(node, label.as_ref());
        self
    }

    /// Ensures node indices `0..=idx` exist.
    pub fn ensure_node(&mut self, idx: u32) {
        self.node_count = self.node_count.max(idx as usize + 1);
    }

    /// Current number of declared nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Current number of staged edges (before dedup).
    pub fn staged_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds an unweighted edge `u → v`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.ensure_node(u.raw().max(v.raw()));
        self.edges.push((u, v, 1.0));
        self
    }

    /// Adds an unweighted edge by raw indices.
    pub fn add_edge_indices(&mut self, u: u32, v: u32) -> &mut Self {
        self.add_edge(NodeId::new(u), NodeId::new(v))
    }

    /// Adds a weighted edge `u → v`; marks the graph as weighted.
    ///
    /// Weights must be finite and strictly positive (checked at build time
    /// via [`GraphBuilder::try_build`]; [`GraphBuilder::build`] panics on
    /// violation).
    pub fn add_weighted_edge(&mut self, u: NodeId, v: NodeId, w: f64) -> &mut Self {
        self.ensure_node(u.raw().max(v.raw()));
        self.weighted = true;
        self.edges.push((u, v, w));
        self
    }

    /// Adds an edge between labeled nodes, creating the nodes as needed.
    pub fn add_labeled_edge(&mut self, from: impl AsRef<str>, to: impl AsRef<str>) -> &mut Self {
        let u = self.add_labeled_node(from);
        let v = self.add_labeled_node(to);
        self.add_edge(u, v)
    }

    /// Finalizes the builder into a CSR graph.
    ///
    /// # Panics
    /// Panics if a weighted edge carries a non-finite or non-positive weight.
    pub fn build(self) -> DirectedGraph {
        self.try_build().expect("invalid graph")
    }

    /// Finalizes the builder, returning an error instead of panicking.
    pub fn try_build(mut self) -> Result<DirectedGraph, GraphError> {
        if self.weighted {
            for &(u, v, w) in &self.edges {
                if !w.is_finite() || w <= 0.0 {
                    return Err(GraphError::InvalidWeight {
                        source: u.raw(),
                        target: v.raw(),
                        weight: w,
                    });
                }
            }
        }
        if self.drop_self_loops {
            self.edges.retain(|&(u, v, _)| u != v);
        }

        // Sort by (source, target) then deduplicate parallel edges. The
        // unstable sort avoids the stable sort's O(m/2) temp allocation;
        // Merge sums duplicate weights commutatively, so order among equal
        // keys is irrelevant. KeepFirst must see duplicates in arrival
        // order and keeps the stable sort.
        if self.duplicate_policy == DuplicatePolicy::KeepFirst {
            self.edges.sort_by_key(|a| (a.0, a.1));
        } else {
            self.edges.sort_unstable_by_key(|a| (a.0, a.1));
        }
        let mut deduped: Vec<(NodeId, NodeId, f64)> = Vec::with_capacity(self.edges.len());
        for (u, v, w) in self.edges.drain(..) {
            match deduped.last_mut() {
                Some(last) if last.0 == u && last.1 == v => {
                    if self.duplicate_policy == DuplicatePolicy::Merge {
                        last.2 += w;
                    }
                }
                _ => deduped.push((u, v, w)),
            }
        }

        let n = self.node_count;
        let m = deduped.len();

        // Forward CSR (edges are already sorted by source, then target).
        let mut out_offsets = vec![0usize; n + 1];
        for &(u, _, _) in &deduped {
            out_offsets[u.index() + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut out_targets = Vec::with_capacity(m);
        let mut out_weights = if self.weighted { Some(Vec::with_capacity(m)) } else { None };
        for &(_, v, w) in &deduped {
            out_targets.push(v);
            if let Some(ws) = out_weights.as_mut() {
                ws.push(w);
            }
        }

        // Cache per-node weight sums so solver sweeps get W(u) in O(1)
        // instead of re-summing adjacency slices on every call.
        let (mut out_weight_sums, mut in_weight_sums) = if self.weighted {
            (Some(vec![0.0f64; n]), Some(vec![0.0f64; n]))
        } else {
            (None, None)
        };
        if let (Some(outs), Some(ins)) = (out_weight_sums.as_mut(), in_weight_sums.as_mut()) {
            for &(u, v, w) in &deduped {
                outs[u.index()] += w;
                ins[v.index()] += w;
            }
        }

        // Reverse CSR via counting sort on target.
        let mut in_offsets = vec![0usize; n + 1];
        for &(_, v, _) in &deduped {
            in_offsets[v.index() + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor = in_offsets.clone();
        let mut in_sources = vec![NodeId::new(0); m];
        let mut in_weights = if self.weighted { Some(vec![0.0f64; m]) } else { None };
        // Iterating edges in (source, target) order makes each target's
        // source list come out sorted.
        for &(u, v, w) in &deduped {
            let slot = cursor[v.index()];
            in_sources[slot] = u;
            if let Some(ws) = in_weights.as_mut() {
                ws[slot] = w;
            }
            cursor[v.index()] += 1;
        }

        Ok(DirectedGraph {
            out_offsets,
            out_targets,
            out_weights,
            in_offsets,
            in_sources,
            in_weights,
            out_weight_sums,
            in_weight_sums,
            labels: Arc::new(self.labels),
        })
    }

    /// Convenience: builds a graph directly from `(source, target)` index
    /// pairs.
    pub fn from_edge_indices(edges: impl IntoIterator<Item = (u32, u32)>) -> DirectedGraph {
        let mut b = GraphBuilder::new();
        for (u, v) in edges {
            b.add_edge_indices(u, v);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().clone().build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_empty());
    }

    #[test]
    fn isolated_nodes_from_ensure() {
        let mut b = GraphBuilder::new();
        b.ensure_node(4);
        let g = b.build();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.out_degree(NodeId::new(4)), 0);
    }

    #[test]
    fn neighbors_sorted_both_directions() {
        let mut b = GraphBuilder::new();
        // Insert deliberately out of order.
        b.add_edge_indices(0, 3);
        b.add_edge_indices(0, 1);
        b.add_edge_indices(0, 2);
        b.add_edge_indices(2, 1);
        b.add_edge_indices(3, 1);
        let g = b.build();
        assert_eq!(
            g.out_neighbors(NodeId::new(0)),
            &[NodeId::new(1), NodeId::new(2), NodeId::new(3)]
        );
        assert_eq!(
            g.in_neighbors(NodeId::new(1)),
            &[NodeId::new(0), NodeId::new(2), NodeId::new(3)]
        );
    }

    #[test]
    fn duplicate_edges_merge_unweighted() {
        let mut b = GraphBuilder::new();
        b.add_edge_indices(0, 1);
        b.add_edge_indices(0, 1);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn duplicate_edges_merge_weighted_sums() {
        let mut b = GraphBuilder::new();
        b.add_weighted_edge(NodeId::new(0), NodeId::new(1), 2.0);
        b.add_weighted_edge(NodeId::new(0), NodeId::new(1), 3.5);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight(NodeId::new(0), NodeId::new(1)), Some(5.5));
    }

    #[test]
    fn duplicate_keep_first() {
        let mut b = GraphBuilder::new();
        b.duplicate_policy(DuplicatePolicy::KeepFirst);
        b.add_weighted_edge(NodeId::new(0), NodeId::new(1), 2.0);
        b.add_weighted_edge(NodeId::new(0), NodeId::new(1), 3.5);
        let g = b.build();
        assert_eq!(g.edge_weight(NodeId::new(0), NodeId::new(1)), Some(2.0));
    }

    #[test]
    fn self_loops_kept_by_default_dropped_on_request() {
        let mut b = GraphBuilder::new();
        b.add_edge_indices(0, 0);
        b.add_edge_indices(0, 1);
        let g = b.clone().build();
        assert_eq!(g.edge_count(), 2);

        b.drop_self_loops(true);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(0)));
    }

    #[test]
    fn labeled_nodes_interned() {
        let mut b = GraphBuilder::new();
        let a1 = b.add_labeled_node("A");
        let a2 = b.add_labeled_node("A");
        assert_eq!(a1, a2);
        assert_eq!(b.node_count(), 1);
    }

    #[test]
    fn labeled_edges() {
        let mut b = GraphBuilder::new();
        b.add_labeled_edge("Pasta", "Italy");
        b.add_labeled_edge("Italy", "Pasta");
        let g = b.build();
        assert_eq!(g.node_count(), 2);
        let pasta = g.node_by_label("Pasta").unwrap();
        let italy = g.node_by_label("Italy").unwrap();
        assert!(g.has_edge(pasta, italy));
        assert!(g.has_edge(italy, pasta));
    }

    #[test]
    fn invalid_weight_rejected() {
        let mut b = GraphBuilder::new();
        b.add_weighted_edge(NodeId::new(0), NodeId::new(1), f64::NAN);
        assert!(matches!(b.try_build(), Err(GraphError::InvalidWeight { .. })));

        let mut b = GraphBuilder::new();
        b.add_weighted_edge(NodeId::new(0), NodeId::new(1), 0.0);
        assert!(b.try_build().is_err());

        let mut b = GraphBuilder::new();
        b.add_weighted_edge(NodeId::new(0), NodeId::new(1), -1.0);
        assert!(b.try_build().is_err());
    }

    #[test]
    fn from_edge_indices_helper() {
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 2), (2, 0)]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn in_neighbors_sorted_regression() {
        // Counting sort must yield sorted in-neighbor lists even when edges
        // arrive in scrambled order.
        let mut b = GraphBuilder::new();
        b.add_edge_indices(5, 0);
        b.add_edge_indices(3, 0);
        b.add_edge_indices(4, 0);
        b.add_edge_indices(1, 0);
        b.add_edge_indices(2, 0);
        let g = b.build();
        let ins: Vec<u32> = g.in_neighbors(NodeId::new(0)).iter().map(|n| n.raw()).collect();
        assert_eq!(ins, vec![1, 2, 3, 4, 5]);
    }
}
