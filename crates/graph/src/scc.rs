//! Strongly connected components (iterative Tarjan).
//!
//! Every cycle through a reference node `r` lies entirely inside `r`'s
//! strongly connected component, so CycleRank first restricts the search to
//! that SCC — one of the two prunings inherited from the CycleRank reference
//! implementation. The implementation is iterative (explicit stack) so that
//! deep Wikipedia-scale graphs cannot overflow the call stack.

use crate::csr::DirectedGraph;
use crate::node::NodeId;

/// Result of an SCC decomposition.
#[derive(Debug, Clone)]
pub struct SccResult {
    /// `component[u]` is the SCC index of node `u`. Component indices are in
    /// reverse topological order of the condensation (Tarjan property):
    /// if there is an edge from SCC `a` to SCC `b` (a ≠ b) then `a > b`.
    pub component: Vec<u32>,
    /// Number of SCCs.
    pub count: usize,
}

impl SccResult {
    /// SCC index of `u`.
    #[inline]
    pub fn component_of(&self, u: NodeId) -> u32 {
        self.component[u.index()]
    }

    /// True iff `u` and `v` are strongly connected.
    #[inline]
    pub fn same_component(&self, u: NodeId, v: NodeId) -> bool {
        self.component[u.index()] == self.component[v.index()]
    }

    /// Members of each SCC, indexed by component id.
    pub fn members(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.count];
        for (i, &c) in self.component.iter().enumerate() {
            out[c as usize].push(NodeId::from_usize(i));
        }
        out
    }

    /// Size of the largest SCC (0 for the empty graph).
    pub fn largest_size(&self) -> usize {
        let mut sizes = vec![0usize; self.count];
        for &c in &self.component {
            sizes[c as usize] += 1;
        }
        sizes.into_iter().max().unwrap_or(0)
    }

    /// Nodes in the same SCC as `u`.
    pub fn component_members(&self, u: NodeId) -> Vec<NodeId> {
        let c = self.component_of(u);
        self.component
            .iter()
            .enumerate()
            .filter(|&(_, &ci)| ci == c)
            .map(|(i, _)| NodeId::from_usize(i))
            .collect()
    }
}

/// Computes strongly connected components with an iterative Tarjan
/// algorithm. O(V + E).
pub fn tarjan_scc(g: &DirectedGraph) -> SccResult {
    let n = g.node_count();
    const UNVISITED: u32 = u32::MAX;

    let mut index = vec![UNVISITED; n]; // discovery index
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut component = vec![0u32; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut next_index = 0u32;
    let mut scc_count = 0u32;

    // Explicit DFS frame: (node, position in its neighbor list).
    let mut frames: Vec<(NodeId, usize)> = Vec::new();

    for root in g.nodes() {
        if index[root.index()] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        index[root.index()] = next_index;
        lowlink[root.index()] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root.index()] = true;

        while let Some(&mut (u, ref mut pos)) = frames.last_mut() {
            let neighbors = g.out_neighbors(u);
            if *pos < neighbors.len() {
                let v = neighbors[*pos];
                *pos += 1;
                if index[v.index()] == UNVISITED {
                    index[v.index()] = next_index;
                    lowlink[v.index()] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v.index()] = true;
                    frames.push((v, 0));
                } else if on_stack[v.index()] {
                    lowlink[u.index()] = lowlink[u.index()].min(index[v.index()]);
                }
            } else {
                frames.pop();
                if lowlink[u.index()] == index[u.index()] {
                    // u is the root of an SCC: pop it off the Tarjan stack.
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w.index()] = false;
                        component[w.index()] = scc_count;
                        if w == u {
                            break;
                        }
                    }
                    scc_count += 1;
                }
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent.index()] = lowlink[parent.index()].min(lowlink[u.index()]);
                }
            }
        }
    }

    SccResult { component, count: scc_count as usize }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn single_cycle_is_one_scc() {
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 2), (2, 0)]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count, 1);
        assert!(scc.same_component(NodeId::new(0), NodeId::new(2)));
        assert_eq!(scc.largest_size(), 3);
    }

    #[test]
    fn dag_gives_singleton_components() {
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 2), (0, 2)]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count, 3);
        assert!(!scc.same_component(NodeId::new(0), NodeId::new(1)));
        assert_eq!(scc.largest_size(), 1);
    }

    #[test]
    fn two_cycles_joined_by_bridge() {
        // cycle A: 0<->1, cycle B: 2<->3, bridge 1 -> 2.
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count, 2);
        assert!(scc.same_component(NodeId::new(0), NodeId::new(1)));
        assert!(scc.same_component(NodeId::new(2), NodeId::new(3)));
        assert!(!scc.same_component(NodeId::new(0), NodeId::new(2)));
    }

    #[test]
    fn component_indices_reverse_topological() {
        // 0 -> 1 (two singleton SCCs): edge goes from higher to lower index.
        let g = GraphBuilder::from_edge_indices([(0, 1)]);
        let scc = tarjan_scc(&g);
        assert!(scc.component_of(NodeId::new(0)) > scc.component_of(NodeId::new(1)));
    }

    #[test]
    fn members_partition_nodes() {
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 0), (1, 2)]);
        let scc = tarjan_scc(&g);
        let members = scc.members();
        let total: usize = members.iter().map(|m| m.len()).sum();
        assert_eq!(total, g.node_count());
        assert_eq!(members.len(), scc.count);
    }

    #[test]
    fn component_members_of_reference() {
        let g = GraphBuilder::from_edge_indices([(0, 1), (1, 0), (1, 2)]);
        let scc = tarjan_scc(&g);
        let mut m = scc.component_members(NodeId::new(0));
        m.sort();
        assert_eq!(m, vec![NodeId::new(0), NodeId::new(1)]);
    }

    #[test]
    fn self_loop_singleton() {
        let g = GraphBuilder::from_edge_indices([(0, 0), (0, 1)]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count, 2);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count, 0);
        assert_eq!(scc.largest_size(), 0);
    }

    #[test]
    fn deep_path_no_stack_overflow() {
        // 100k-node path would overflow a recursive Tarjan.
        let n = 100_000u32;
        let mut b = GraphBuilder::with_capacity(n as usize, n as usize);
        for i in 0..n - 1 {
            b.add_edge_indices(i, i + 1);
        }
        let g = b.build();
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count, n as usize);
    }
}
