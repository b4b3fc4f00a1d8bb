//! Dynamic graphs: edge mutation over the immutable CSR.
//!
//! Every dataset in the platform was frozen at load until this module
//! existed: [`crate::DirectedGraph`] is immutable by design, so "add an
//! edge" meant "rebuild the whole CSR". Real relevance serving (wiki
//! links, follows, purchases) is a *stream* of edge events, and the
//! serving layers above need two things from the graph substrate to stay
//! correct under that stream:
//!
//! 1. a **monotonically increasing [`DynamicGraph::version`]** that changes
//!    exactly when the graph changes, so result caches can key on it and
//!    stale entries become unreachable the moment an edge lands;
//! 2. **cost proportional to the delta**: an edit and the next read never
//!    sort or rebuild the graph.
//!
//! [`DynamicGraph`] layers insert/delete deltas over an immutable base
//! CSR. Structure queries ([`DynamicGraph::has_edge`],
//! [`DynamicGraph::edge_weight`], the degree and weight-sum accessors)
//! consult the overlay in `O(log delta)`; the per-node weight sums that
//! the solver kernels normalize by are kept consistent incrementally on
//! every mutation, never recomputed by walking adjacency.
//!
//! # Snapshots splice the delta
//!
//! Solvers run over CSR ([`crate::GraphView`]), so query execution calls
//! [`DynamicGraph::snapshot`], which **splices** the delta into the base's
//! own arrays, one direction at a time:
//!
//! - the rows the delta names are merged into scratch, in sorted order,
//!   from the unchanged arrays;
//! - the blocks of rows between them move in place by the net length
//!   change of the touched rows before them: left-shifted blocks front to
//!   back, then right-shifted blocks back to front, so no block overwrites
//!   a source that has not moved yet;
//! - the touched rows are written at their new starts, and the offsets are
//!   rewritten from the first touched row on;
//! - weight sums of touched rows are re-summed in row order — the order
//!   [`crate::GraphBuilder`] sums in, so the snapshot is bit-identical to a
//!   builder rebuild of the same edges;
//! - the label table is shared through an `Arc` and written only when the
//!   delta created a node.
//!
//! The base is taken copy-on-write (`Arc::make_mut`): it is cloned first
//! only while a reader still holds it as an earlier snapshot, and a held
//! snapshot never changes. The spliced base is the new snapshot and the
//! overlay empties, so the overlay only ever holds the edits since the
//! last read. With no reader holding the base, a snapshot allocates
//! nothing in `n` or `m`: it moves the arrays' tail behind the first
//! touched row plus `O(Δ log Δ)` merge work, and reads between two edits
//! share one snapshot (one `Arc`).
//!
//! # u32 node-id audit
//!
//! Node ids are `u32` end to end ([`NodeId`]). `DynamicGraph` accepts
//! endpoints only as `NodeId`, grows its node count with `usize`
//! arithmetic on `id + 1` (which cannot overflow from a `u32` id), and
//! never casts a `usize` count down to `u32` unguarded: a splice writes
//! only ids it read from the base or the delta, and
//! [`DynamicGraph::add_labeled_node`] — the one operation that *mints* an
//! id from the count — returns [`crate::GraphError::TooManyNodes`] when
//! the id space is exhausted. This is the same hazard class
//! [`crate::reorder::Permutation`] guards with the same error.

use crate::csr::DirectedGraph;
use crate::error::GraphError;
use crate::node::NodeId;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// One applied edge mutation, as reported by [`DynamicGraph::insert_edge`]
/// and [`DynamicGraph::remove_edge`] and consumed by incremental solvers
/// (the residual-push PPR refresh keys its correction off the changed
/// source row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeMutation {
    /// Source of the mutated edge.
    pub source: NodeId,
    /// Target of the mutated edge.
    pub target: NodeId,
    /// The weight the edge now carries (insert) or carried (remove).
    pub weight: f64,
    /// For inserts: the weight the edge carried *before* the mutation
    /// (`None` when the edge is new). Always `None` for removals, whose
    /// prior weight is `weight`. Incremental solvers need this to
    /// reconstruct the pre-mutation transition column.
    pub previous_weight: Option<f64>,
    /// True for inserts/weight updates, false for removals.
    pub inserted: bool,
}

/// A mutable graph: an immutable CSR base plus the edits since it.
///
/// See the [module docs](self) for the design; in short — mutations are
/// `O(log delta)`, structure reads are overlay-aware, and
/// [`Self::snapshot`] splices the edits into the base in place,
/// copy-on-write.
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    /// The last snapshot (the wrapped graph until the first edit is read).
    base: Arc<DirectedGraph>,
    /// Staged inserts / weight overrides, keyed `(source, target)`.
    added: BTreeMap<(u32, u32), f64>,
    /// Staged removals of edges present in the base.
    removed: BTreeSet<(u32, u32)>,
    /// Added keys that do not shadow a base edge (kept so
    /// [`Self::edge_count`] is O(1)).
    added_beyond_base: usize,
    node_count: usize,
    weighted: bool,
    /// Per-node Σ out-weight adjustment relative to the base cache.
    out_wsum_delta: HashMap<u32, f64>,
    /// Per-node Σ in-weight adjustment relative to the base cache.
    in_wsum_delta: HashMap<u32, f64>,
    /// Labels of nodes created since the base.
    extra_labels: HashMap<String, u32>,
    extra_label_of: HashMap<u32, String>,
    version: u64,
}

impl DynamicGraph {
    /// Wraps an immutable graph as the version-0 base of a dynamic one.
    pub fn new(base: DirectedGraph) -> Self {
        Self::from_arc(Arc::new(base))
    }

    /// Like [`DynamicGraph::new`], sharing an already-`Arc`ed base (the
    /// base doubles as the version-0 snapshot, so wrapping is free).
    pub fn from_arc(base: Arc<DirectedGraph>) -> Self {
        DynamicGraph {
            node_count: base.node_count(),
            weighted: base.is_weighted(),
            base,
            added: BTreeMap::new(),
            removed: BTreeSet::new(),
            added_beyond_base: 0,
            out_wsum_delta: HashMap::new(),
            in_wsum_delta: HashMap::new(),
            extra_labels: HashMap::new(),
            extra_label_of: HashMap::new(),
            version: 0,
        }
    }
    /// The mutation counter: starts at 0, increases by exactly 1 for every
    /// applied mutation (no-ops — inserting an identical edge, removing an
    /// absent one — do **not** bump it). Cache keys derived from
    /// `(dataset, version)` can therefore never alias two distinct graph
    /// states.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Restores the mutation counter to `version` without mutating the
    /// graph — for durable-store recovery, where a freshly wrapped
    /// snapshot (version 0) must resume counting from the version the
    /// snapshot captured so that replayed journal records land on the
    /// exact versions they were committed at.
    ///
    /// Only meaningful on a pristine wrapper: panics if any mutation has
    /// already been applied (the counter may never move backwards or
    /// alias two distinct states).
    pub fn restore_version(&mut self, version: u64) {
        assert_eq!(
            self.version, 0,
            "restore_version on an already-mutated graph would alias cache keys"
        );
        self.version = version;
    }

    /// Number of nodes (base nodes plus any created by mutation).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edges, overlay-aware, O(1).
    pub fn edge_count(&self) -> usize {
        self.base.edge_count() - self.removed.len() + self.added_beyond_base
    }

    /// True when any staged or base edge carries a non-unit weight.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// Weight of the edge in the *base* CSR only (ignoring the overlay).
    fn base_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        if u.index() >= self.base.node_count() || v.index() >= self.base.node_count() {
            return None;
        }
        self.base.edge_weight(u, v)
    }

    /// True iff `u → v` exists in the mutated graph.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Weight of `u → v` in the mutated graph (1.0 for unweighted edges),
    /// or `None` when absent.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let key = (u.raw(), v.raw());
        if let Some(&w) = self.added.get(&key) {
            return Some(w);
        }
        if self.removed.contains(&key) {
            return None;
        }
        self.base_weight(u, v)
    }

    /// Σ of out-edge weights of `u`, kept consistent through mutation
    /// (base cache + incrementally maintained delta; never re-walks the
    /// adjacency).
    pub fn out_weight_sum(&self, u: NodeId) -> f64 {
        let base =
            if u.index() < self.base.node_count() { self.base.out_weight_sum(u) } else { 0.0 };
        base + self.out_wsum_delta.get(&u.raw()).copied().unwrap_or(0.0)
    }

    /// Σ of in-edge weights of `u`, kept consistent through mutation.
    pub fn in_weight_sum(&self, u: NodeId) -> f64 {
        let base =
            if u.index() < self.base.node_count() { self.base.in_weight_sum(u) } else { 0.0 };
        base + self.in_wsum_delta.get(&u.raw()).copied().unwrap_or(0.0)
    }

    /// Resolves a label against the base table and mutation-created nodes.
    pub fn node_by_label(&self, label: &str) -> Option<NodeId> {
        self.base
            .node_by_label(label)
            .or_else(|| self.extra_labels.get(label).copied().map(NodeId::new))
    }

    /// The label of `u`, if it has one.
    pub fn label_of(&self, u: NodeId) -> Option<&str> {
        if u.index() < self.base.node_count() {
            self.base.labels().get(u)
        } else {
            self.extra_label_of.get(&u.raw()).map(String::as_str)
        }
    }

    /// Returns the node labeled `label`, creating it (as a fresh isolated
    /// node) when absent. Creation is a mutation: it bumps the version.
    ///
    /// Fails with [`GraphError::TooManyNodes`] when the next id would not
    /// fit the `u32` id space (instead of silently truncating
    /// `node_count as u32` onto an existing node).
    pub fn add_labeled_node(&mut self, label: &str) -> Result<NodeId, GraphError> {
        if let Some(n) = self.node_by_label(label) {
            return Ok(n);
        }
        if self.node_count > u32::MAX as usize {
            return Err(GraphError::TooManyNodes { count: self.node_count + 1 });
        }
        let id = self.node_count as u32;
        self.node_count += 1;
        self.extra_labels.insert(label.to_string(), id);
        self.extra_label_of.insert(id, label.to_string());
        self.touch();
        Ok(NodeId::new(id))
    }

    /// Inserts edge `u → v` with weight `w` (use `1.0` on unweighted
    /// graphs), creating missing endpoint nodes. Inserting over an
    /// existing edge **updates its weight** (upsert). Returns the applied
    /// mutation, or `None` when the edge already existed with exactly this
    /// weight (a no-op: the version does not move).
    ///
    /// Fails with [`GraphError::InvalidWeight`] for non-finite or
    /// non-positive weights.
    pub fn insert_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        w: f64,
    ) -> Result<Option<EdgeMutation>, GraphError> {
        if !w.is_finite() || w <= 0.0 {
            return Err(GraphError::InvalidWeight { source: u.raw(), target: v.raw(), weight: w });
        }
        let needed = u.index().max(v.index()) + 1;
        self.node_count = self.node_count.max(needed);
        let existing = self.edge_weight(u, v);
        if existing == Some(w) {
            return Ok(None);
        }
        if w != 1.0 {
            self.weighted = true;
        }
        let key = (u.raw(), v.raw());
        let delta = w - existing.unwrap_or(0.0);
        *self.out_wsum_delta.entry(u.raw()).or_insert(0.0) += delta;
        *self.in_wsum_delta.entry(v.raw()).or_insert(0.0) += delta;
        self.removed.remove(&key);
        match self.base_weight(u, v) {
            // The base row already carries exactly this edge: un-removing
            // it (and dropping any weight override) restores the state —
            // no delta entry needed.
            Some(bw) if bw == w => {
                self.added.remove(&key);
            }
            base_w => {
                if self.added.insert(key, w).is_none() && base_w.is_none() {
                    self.added_beyond_base += 1;
                }
            }
        }
        self.touch();
        Ok(Some(EdgeMutation {
            source: u,
            target: v,
            weight: w,
            previous_weight: existing,
            inserted: true,
        }))
    }

    /// Removes edge `u → v`. Returns the applied mutation (carrying the
    /// weight the edge had), or `None` when the edge was not present (a
    /// no-op: the version does not move).
    ///
    /// Fails with [`GraphError::NodeOutOfBounds`] when either endpoint
    /// does not exist.
    pub fn remove_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
    ) -> Result<Option<EdgeMutation>, GraphError> {
        for n in [u, v] {
            if n.index() >= self.node_count {
                return Err(GraphError::NodeOutOfBounds {
                    node: n.raw(),
                    node_count: self.node_count,
                });
            }
        }
        let Some(w) = self.edge_weight(u, v) else { return Ok(None) };
        let key = (u.raw(), v.raw());
        *self.out_wsum_delta.entry(u.raw()).or_insert(0.0) -= w;
        *self.in_wsum_delta.entry(v.raw()).or_insert(0.0) -= w;
        if self.added.remove(&key).is_some() {
            if self.base_weight(u, v).is_none() {
                self.added_beyond_base -= 1;
            } else {
                // The override is gone but the base edge underneath must
                // still die.
                self.removed.insert(key);
            }
        } else {
            self.removed.insert(key);
        }
        self.touch();
        Ok(Some(EdgeMutation {
            source: u,
            target: v,
            weight: w,
            previous_weight: None,
            inserted: false,
        }))
    }

    fn touch(&mut self) {
        self.version += 1;
    }

    /// The immutable CSR of the current version. Edits since the last
    /// snapshot are spliced into the base in place (see the [module
    /// docs](self)); without edits the last snapshot is returned as is, so
    /// any number of solves between two edge events share one `Arc`. The
    /// version does not move.
    pub fn snapshot(&mut self) -> Arc<DirectedGraph> {
        if !self.overlay_is_empty() {
            self.splice();
            self.added.clear();
            self.removed.clear();
            self.added_beyond_base = 0;
            self.out_wsum_delta.clear();
            self.in_wsum_delta.clear();
        }
        Arc::clone(&self.base)
    }

    /// True when a splice would reproduce the base: no staged edge, no
    /// node created since it, and the same weightedness.
    fn overlay_is_empty(&self) -> bool {
        self.added.is_empty()
            && self.removed.is_empty()
            && self.node_count == self.base.node_count()
            && self.snapshot_weighted() == self.base.is_weighted()
    }

    /// Whether the snapshot carries weight arrays: like
    /// [`crate::GraphBuilder`], only when an edge exists to carry one.
    fn snapshot_weighted(&self) -> bool {
        self.weighted && self.edge_count() > 0
    }

    /// Splices the delta into the base's own arrays, both directions.
    /// Copy-on-write: the base is cloned first only while a reader still
    /// holds it as an earlier snapshot.
    fn splice(&mut self) {
        let (n, m, weighted) = (self.node_count, self.edge_count(), self.snapshot_weighted());
        // The delta as (row, column, weight), a removal weighing `None`:
        // first keyed by source for the out-side, then by target.
        let mut delta: Vec<(u32, u32, Option<f64>)> =
            self.added.iter().map(|(&(u, v), &w)| (u, v, Some(w))).collect();
        delta.extend(self.removed.iter().map(|&(u, v)| (u, v, None)));
        delta.sort_unstable_by_key(|&(u, v, _)| (u, v));
        let g = Arc::make_mut(&mut self.base);
        Rows {
            offsets: &mut g.out_offsets,
            adj: &mut g.out_targets,
            weights: &mut g.out_weights,
            sums: &mut g.out_weight_sums,
        }
        .splice(&delta, n, m, weighted);
        for entry in &mut delta {
            (entry.0, entry.1) = (entry.1, entry.0);
        }
        delta.sort_unstable_by_key(|&(v, u, _)| (v, u));
        Rows {
            offsets: &mut g.in_offsets,
            adj: &mut g.in_sources,
            weights: &mut g.in_weights,
            sums: &mut g.in_weight_sums,
        }
        .splice(&delta, n, m, weighted);
        if !self.extra_label_of.is_empty() {
            let labels = g.labels_mut();
            for (u, l) in self.extra_label_of.drain() {
                labels.set(NodeId::new(u), l);
            }
            self.extra_labels.clear();
        }
    }
}

/// One direction of a CSR, borrowed from the graph a splice rewrites:
/// offsets, adjacency, and the weights and per-row weight sums of a
/// weighted graph.
struct Rows<'a> {
    offsets: &'a mut Vec<usize>,
    adj: &'a mut Vec<NodeId>,
    weights: &'a mut Option<Vec<f64>>,
    sums: &'a mut Option<Vec<f64>>,
}

impl Rows<'_> {
    /// Row `row` and its weights (`None` when unweighted); empty past the
    /// last node.
    fn row(&self, row: usize) -> (&[NodeId], Option<&[f64]>) {
        if row + 1 >= self.offsets.len() {
            return (&[], None);
        }
        let (s, e) = (self.offsets[row], self.offsets[row + 1]);
        (&self.adj[s..e], self.weights.as_deref().map(|w| &w[s..e]))
    }

    /// Splices `delta` — `(row, column, weight)` entries sorted by row then
    /// column, a `None` weight removing the column — into these rows in
    /// place, grown to `n` rows holding `m` entries. `weighted` says
    /// whether the result carries weights.
    ///
    /// Touched rows are merged into scratch first, from the unmoved
    /// arrays. The block of untouched rows after each touched row then
    /// moves by the net length change of the touched rows up to it
    /// ([`shift_blocks`]), the touched rows land in the gaps, and the
    /// offsets from the first touched row on shift with their blocks.
    fn splice(self, delta: &[(u32, u32, Option<f64>)], n: usize, m: usize, weighted: bool) {
        if weighted != self.weights.is_some() {
            // The unweighted → weighted flip: every edge so far weighs
            // 1.0, so a row sums to its degree. Removing the last edge
            // of a weighted graph drops both arrays, as a rebuild would.
            *self.weights = weighted.then(|| vec![1.0; self.adj.len()]);
            *self.sums =
                weighted.then(|| self.offsets.windows(2).map(|w| (w[1] - w[0]) as f64).collect());
        }
        let (base_rows, base_len) = (self.offsets.len() - 1, self.adj.len());
        // Start of `row` in the unmoved arrays: rows past the base start,
        // empty, at the end.
        let old_start = |row: usize| self.offsets[row.min(base_rows)];
        // Each touched row as (row, end of its merged entries in scratch,
        // its new start, the net shift of the entries after it).
        let (mut adj, mut weights) = (Vec::new(), weighted.then(Vec::new));
        let mut touched: Vec<(usize, usize, usize, isize)> = Vec::new();
        let (mut shift, mut rest) = (0isize, delta);
        while let Some(&(row, _, _)) = rest.first() {
            let row = row as usize;
            let count = rest.iter().take_while(|&&(r, _, _)| r as usize == row).count();
            let start = adj.len();
            merge_row(self.row(row), &rest[..count], &mut adj, weights.as_mut());
            let to = old_start(row).wrapping_add_signed(shift);
            shift += (adj.len() - start) as isize - (old_start(row + 1) - old_start(row)) as isize;
            touched.push((row, adj.len(), to, shift));
            rest = &rest[count..];
        }
        debug_assert_eq!(base_len.wrapping_add_signed(shift), m, "the splice must land m entries");
        // The untouched block after each touched row: its range in the
        // unmoved arrays, and its shift.
        let blocks: Vec<(usize, usize, isize)> = touched
            .iter()
            .enumerate()
            .map(|(i, &(row, _, _, shift))| {
                let next = touched.get(i + 1).map_or(n, |t| t.0);
                (old_start(row + 1), old_start(next), shift)
            })
            .collect();
        shift_blocks(self.adj, &blocks, m, NodeId::new(0));
        if let Some(w) = self.weights.as_mut() {
            shift_blocks(w, &blocks, m, 0.0);
        }
        self.offsets.resize(n + 1, base_len);
        if let Some(sums) = self.sums.as_mut() {
            sums.resize(n, 0.0);
        }
        let mut from = 0;
        for (i, &(row, end, to, shift)) in touched.iter().enumerate() {
            self.adj[to..to + end - from].copy_from_slice(&adj[from..end]);
            if let (Some(w), Some(sums), Some(scratch)) =
                (self.weights.as_mut(), self.sums.as_mut(), weights.as_ref())
            {
                w[to..to + end - from].copy_from_slice(&scratch[from..end]);
                // Re-summed in row order, the order the builder sums in.
                sums[row] = scratch[from..end].iter().fold(0.0, |sum, &w| sum + w);
            }
            let next = touched.get(i + 1).map_or(n, |t| t.0);
            for offset in &mut self.offsets[row + 1..=next] {
                *offset = offset.wrapping_add_signed(shift);
            }
            from = end;
        }
    }
}

/// Moves each `(start, end, shift)` block of `v` by `shift` and sizes `v`
/// to `len` (growth filled with `fill` until a block or touched row lands
/// there). Left-shifted blocks move first, front to back; right-shifted
/// ones next, back to front. Blocks are disjoint, ascending, and land
/// disjoint and ascending, so no block overwrites a source that has not
/// moved yet.
fn shift_blocks<T: Copy>(v: &mut Vec<T>, blocks: &[(usize, usize, isize)], len: usize, fill: T) {
    if len > v.len() {
        v.resize(len, fill);
    }
    let mut move_block = |&(start, end, shift): &(usize, usize, isize)| {
        v.copy_within(start..end, start.wrapping_add_signed(shift));
    };
    blocks.iter().filter(|b| b.2 < 0).for_each(&mut move_block);
    blocks.iter().rev().filter(|b| b.2 > 0).for_each(&mut move_block);
    v.truncate(len);
}

/// Appends base row `(columns, weights)` merged with its `delta` entries
/// (sorted by column) to `adj` and, for a weighted result, `weights`: a
/// delta entry overrides or removes the base column it equals.
fn merge_row(
    (columns, base_weights): (&[NodeId], Option<&[f64]>),
    delta: &[(u32, u32, Option<f64>)],
    adj: &mut Vec<NodeId>,
    mut weights: Option<&mut Vec<f64>>,
) {
    let mut push = |column: u32, w: f64| {
        adj.push(NodeId::new(column));
        if let Some(ws) = weights.as_mut() {
            ws.push(w);
        }
    };
    let mut delta = delta.iter().peekable();
    for (i, c) in columns.iter().map(|c| c.raw()).enumerate() {
        let mut base_entry = Some(base_weights.map_or(1.0, |w| w[i]));
        while let Some(&(_, column, w)) = delta.next_if(|&&(_, column, _)| column <= c) {
            if column == c {
                base_entry = None;
            }
            if let Some(w) = w {
                push(column, w);
            }
        }
        if let Some(w) = base_entry {
            push(c, w);
        }
    }
    for &(_, column, w) in delta {
        if let Some(w) = w {
            push(column, w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{DuplicatePolicy, GraphBuilder};
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// The test oracle: base + overlay rebuilt through [`GraphBuilder`]
    /// (`O(V + E log E)`), which every snapshot must equal bit for bit.
    fn materialize(g: &DynamicGraph) -> DirectedGraph {
        let mut b = GraphBuilder::with_capacity(g.node_count, g.edge_count());
        // Added entries are emitted before base rows; KeepFirst makes an
        // override win over the base edge it shadows.
        b.duplicate_policy(DuplicatePolicy::KeepFirst);
        if g.node_count > 0 {
            b.ensure_node((g.node_count - 1) as u32);
        }
        let kept = |u: NodeId, v: NodeId| !g.removed.contains(&(u.raw(), v.raw()));
        if g.weighted {
            for (&(u, v), &w) in &g.added {
                b.add_weighted_edge(n(u), n(v), w);
            }
            for (u, v, w) in g.base.weighted_edges().filter(|&(u, v, _)| kept(u, v)) {
                b.add_weighted_edge(u, v, w);
            }
        } else {
            for &(u, v) in g.added.keys() {
                b.add_edge(n(u), n(v));
            }
            for (u, v) in g.base.edges().filter(|&(u, v)| kept(u, v)) {
                b.add_edge(u, v);
            }
        }
        let mut out = b.build();
        for (u, l) in g.base.labels().iter() {
            out.labels_mut().set(u, l.to_owned());
        }
        for (&u, l) in &g.extra_label_of {
            out.labels_mut().set(n(u), l.clone());
        }
        out
    }

    fn bits(values: &Option<Vec<f64>>) -> Option<Vec<u64>> {
        values.as_ref().map(|v| v.iter().map(|x| x.to_bits()).collect())
    }

    /// Every array of `got` equals `want`'s — weights and weight sums by
    /// their bits — and both tables label and resolve every node alike.
    fn assert_same_csr(got: &DirectedGraph, want: &DirectedGraph) -> Result<(), TestCaseError> {
        prop_assert_eq!(&got.out_offsets, &want.out_offsets, "out offsets");
        prop_assert_eq!(&got.out_targets, &want.out_targets, "out targets");
        prop_assert_eq!(bits(&got.out_weights), bits(&want.out_weights), "out weights");
        prop_assert_eq!(bits(&got.out_weight_sums), bits(&want.out_weight_sums), "out sums");
        prop_assert_eq!(&got.in_offsets, &want.in_offsets, "in offsets");
        prop_assert_eq!(&got.in_sources, &want.in_sources, "in sources");
        prop_assert_eq!(bits(&got.in_weights), bits(&want.in_weights), "in weights");
        prop_assert_eq!(bits(&got.in_weight_sums), bits(&want.in_weight_sums), "in sums");
        for u in want.nodes() {
            let label = want.labels().get(u);
            prop_assert_eq!(got.labels().get(u), label, "label of {}", u.raw());
            if let Some(l) = label {
                prop_assert_eq!(got.labels().resolve(l), want.labels().resolve(l), "{}", l);
            }
        }
        Ok(())
    }

    /// A base graph: empty (kind 0), unweighted (1) or weighted (2), on
    /// up to eight nodes, its nodes labeled when `labeled`.
    fn base_graph(kind: u8, edges: &[(u32, u32, u8)], labeled: bool) -> DirectedGraph {
        let mut b = GraphBuilder::new();
        if kind > 0 {
            for &(u, v, w) in edges {
                match kind {
                    1 => b.add_edge(n(u), n(v)),
                    _ => b.add_weighted_edge(n(u), n(v), WEIGHTS[w as usize]),
                };
            }
        }
        let mut g = b.build();
        if labeled {
            for u in 0..g.node_count() as u32 {
                g.labels_mut().set(n(u), format!("n{u}"));
            }
        }
        g
    }

    /// Weights the proptest draws from: unit, and three that flip an
    /// unweighted graph weighted.
    const WEIGHTS: [f64; 4] = [1.0, 0.5, 2.0, 3.25];

    proptest! {
        /// Random edit sequences with snapshots interleaved: every
        /// snapshot equals the builder oracle of the overlay it spliced,
        /// array for array and bit for bit. Some snapshots are held by a
        /// reader: later splices copy before writing, so each held one
        /// stays bit for bit what it was, and an unheld base is spliced in
        /// its own allocation.
        #[test]
        fn splice_equals_the_builder_oracle(
            kind in 0u8..3,
            labeled in any::<bool>(),
            edges in prop::collection::vec((0u32..8, 0u32..8, 0u8..4), 0..24),
            ops in prop::collection::vec((0u8..10, 0u32..11, 0u32..11, 0u8..4), 0..40),
        ) {
            let original = base_graph(kind, &edges, labeled);
            let base_edges: Vec<(NodeId, NodeId, f64)> = original.weighted_edges().collect();
            let mut g = DynamicGraph::new(original);
            let mut held: Vec<(Arc<DirectedGraph>, DirectedGraph)> = Vec::new();
            for (op, a, b, w) in ops {
                let (u, v) = (n(a), n(b));
                match op {
                    // Insert or upsert, by index: may grow the graph.
                    0 | 1 => drop(g.insert_edge(u, v, WEIGHTS[w as usize])),
                    2 => drop(g.insert_edge(u, u, WEIGHTS[w as usize])),
                    // Removal; endpoints past the node count are rejected.
                    3 => drop(g.remove_edge(u, v)),
                    // Restore, override or remove an original base edge.
                    4..=6 if !base_edges.is_empty() => {
                        let (u, v, bw) = base_edges[a as usize % base_edges.len()];
                        match op {
                            4 => drop(g.insert_edge(u, v, bw)),
                            5 => drop(g.insert_edge(u, v, bw + 1.0)),
                            _ => drop(g.remove_edge(u, v)),
                        }
                    }
                    7 => drop(g.add_labeled_node(&format!("x{a}"))),
                    8 | 9 => {
                        let want = materialize(&g);
                        let in_place = !g.overlay_is_empty() && Arc::strong_count(&g.base) == 1;
                        let before = Arc::as_ptr(&g.base);
                        let got = g.snapshot();
                        assert_same_csr(&got, &want)?;
                        prop_assert!(g.overlay_is_empty());
                        if in_place {
                            prop_assert_eq!(Arc::as_ptr(&got), before, "unheld: spliced in place");
                        }
                        if op == 9 {
                            held.push((Arc::clone(&got), (*got).clone()));
                        }
                        for (snapshot, copy) in &held {
                            assert_same_csr(snapshot, copy)?;
                        }
                    }
                    _ => {}
                }
            }
            let want = materialize(&g);
            let (version, edges) = (g.version(), g.edge_count());
            let got = g.snapshot();
            assert_same_csr(&got, &want)?;
            prop_assert_eq!(g.version(), version, "a snapshot does not move the version");
            prop_assert_eq!(got.edge_count(), edges);
            for (snapshot, copy) in &held {
                assert_same_csr(snapshot, copy)?;
            }
        }
    }

    fn diamond() -> DynamicGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3, 3 -> 0
        DynamicGraph::new(GraphBuilder::from_edge_indices([(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]))
    }

    #[test]
    fn version_moves_only_on_real_mutations() {
        let mut g = diamond();
        assert_eq!(g.version(), 0);
        assert!(g.insert_edge(n(1), n(2), 1.0).unwrap().is_some());
        assert_eq!(g.version(), 1);
        // Identical re-insert: no-op.
        assert!(g.insert_edge(n(1), n(2), 1.0).unwrap().is_none());
        assert_eq!(g.version(), 1);
        // Removing an absent edge: no-op.
        assert!(g.remove_edge(n(2), n(1)).unwrap().is_none());
        assert_eq!(g.version(), 1);
        assert!(g.remove_edge(n(1), n(2)).unwrap().is_some());
        assert_eq!(g.version(), 2);
    }

    #[test]
    fn restore_version_resumes_counting() {
        let mut g = diamond();
        g.restore_version(17);
        assert_eq!(g.version(), 17);
        g.insert_edge(n(1), n(2), 1.0).unwrap();
        assert_eq!(g.version(), 18);
    }

    #[test]
    #[should_panic(expected = "already-mutated")]
    fn restore_version_rejects_mutated_graphs() {
        let mut g = diamond();
        g.insert_edge(n(1), n(2), 1.0).unwrap();
        g.restore_version(17);
    }

    #[test]
    fn overlay_reads_insert_and_remove() {
        let mut g = diamond();
        assert!(g.has_edge(n(0), n(1)));
        assert_eq!(g.edge_count(), 5);

        g.insert_edge(n(1), n(0), 1.0).unwrap();
        assert!(g.has_edge(n(1), n(0)));
        assert_eq!(g.edge_count(), 6);

        g.remove_edge(n(0), n(1)).unwrap();
        assert!(!g.has_edge(n(0), n(1)));
        assert_eq!(g.edge_count(), 5);

        // Re-adding a removed base edge restores it without growth.
        g.insert_edge(n(0), n(1), 1.0).unwrap();
        assert!(g.has_edge(n(0), n(1)));
        assert_eq!(g.edge_count(), 6);
        let mutation = g.remove_edge(n(1), n(0)).unwrap().unwrap();
        assert_eq!((mutation.source, mutation.target), (n(1), n(0)));
        assert!(!mutation.inserted);
        assert_eq!(g.edge_count(), 5);
    }

    #[test]
    fn snapshot_matches_overlay_and_caches() {
        let mut g = diamond();
        g.insert_edge(n(3), n(1), 1.0).unwrap();
        g.remove_edge(n(0), n(2)).unwrap();
        let s1 = g.snapshot();
        assert_eq!(s1.edge_count(), g.edge_count());
        assert!(s1.has_edge(n(3), n(1)));
        assert!(!s1.has_edge(n(0), n(2)));
        // Cached: the same Arc until the next mutation.
        let s2 = g.snapshot();
        assert!(Arc::ptr_eq(&s1, &s2));
        g.insert_edge(n(0), n(2), 1.0).unwrap();
        let s3 = g.snapshot();
        assert!(!Arc::ptr_eq(&s1, &s3));
        assert!(s3.has_edge(n(0), n(2)));
    }

    #[test]
    fn version_zero_snapshot_is_the_base_arc() {
        let base = Arc::new(GraphBuilder::from_edge_indices([(0, 1)]));
        let mut g = DynamicGraph::from_arc(Arc::clone(&base));
        assert!(Arc::ptr_eq(&g.snapshot(), &base), "wrapping must not copy");
    }

    #[test]
    fn weight_sums_stay_consistent_through_mutation() {
        let mut b = GraphBuilder::new();
        b.add_weighted_edge(n(0), n(1), 2.5);
        b.add_weighted_edge(n(0), n(2), 1.5);
        b.add_weighted_edge(n(2), n(1), 3.0);
        let mut g = DynamicGraph::new(b.build());
        assert_eq!(g.out_weight_sum(n(0)), 4.0);

        g.insert_edge(n(0), n(3), 2.0).unwrap(); // new edge
        g.insert_edge(n(0), n(1), 1.0).unwrap(); // weight update 2.5 -> 1.0
        g.remove_edge(n(0), n(2)).unwrap();
        assert!((g.out_weight_sum(n(0)) - 3.0).abs() < 1e-12);
        assert!((g.in_weight_sum(n(1)) - 4.0).abs() < 1e-12);
        assert!((g.in_weight_sum(n(2)) - 0.0).abs() < 1e-12);
        assert_eq!(g.edge_weight(n(0), n(1)), Some(1.0));

        // The snapshot's build-time caches agree with the incremental ones.
        let s = g.snapshot();
        for i in 0..g.node_count() as u32 {
            assert!((s.out_weight_sum(n(i)) - g.out_weight_sum(n(i))).abs() < 1e-12, "out {i}");
            assert!((s.in_weight_sum(n(i)) - g.in_weight_sum(n(i))).abs() < 1e-12, "in {i}");
        }
    }

    #[test]
    fn unweighted_base_with_unit_inserts_stays_unweighted() {
        let mut g = diamond();
        g.insert_edge(n(1), n(0), 1.0).unwrap();
        assert!(!g.is_weighted());
        assert!(!g.snapshot().is_weighted());
        // A non-unit weight flips the graph weighted.
        g.insert_edge(n(2), n(0), 2.0).unwrap();
        assert!(g.is_weighted());
        let s = g.snapshot();
        assert!(s.is_weighted());
        assert_eq!(s.edge_weight(n(2), n(0)), Some(2.0));
        assert_eq!(s.edge_weight(n(0), n(1)), Some(1.0));
    }

    #[test]
    fn invalid_inputs_rejected() {
        let mut g = diamond();
        assert!(matches!(
            g.insert_edge(n(0), n(1), f64::NAN),
            Err(GraphError::InvalidWeight { .. })
        ));
        assert!(matches!(g.insert_edge(n(0), n(1), 0.0), Err(GraphError::InvalidWeight { .. })));
        assert!(matches!(g.insert_edge(n(0), n(1), -1.0), Err(GraphError::InvalidWeight { .. })));
        assert!(matches!(g.remove_edge(n(0), n(99)), Err(GraphError::NodeOutOfBounds { .. })));
        assert_eq!(g.version(), 0, "failed mutations must not move the version");
    }

    #[test]
    fn inserts_create_nodes_and_labels_survive() {
        let mut b = GraphBuilder::new();
        b.add_labeled_edge("A", "B");
        let mut g = DynamicGraph::new(b.build());
        assert_eq!(g.node_count(), 2);

        // Label-addressed growth.
        let c = g.add_labeled_node("C").unwrap();
        assert_eq!(g.node_by_label("C"), Some(c));
        assert_eq!(g.label_of(c), Some("C"));
        g.insert_edge(g.node_by_label("A").unwrap(), c, 1.0).unwrap();
        // Index-addressed growth.
        g.insert_edge(c, n(5), 1.0).unwrap();
        assert_eq!(g.node_count(), 6);

        let s = g.snapshot();
        assert_eq!(s.node_count(), 6);
        assert_eq!(s.node_by_label("C"), Some(c));
        assert!(s.has_edge(s.node_by_label("A").unwrap(), c));
        assert!(s.has_edge(c, n(5)));
    }

    #[test]
    fn every_snapshot_becomes_the_new_base() {
        let mut g = diamond();
        g.insert_edge(n(1), n(0), 1.0).unwrap();
        g.insert_edge(n(2), n(0), 1.0).unwrap();
        g.insert_edge(n(3), n(2), 1.0).unwrap();
        assert!(!g.overlay_is_empty());
        let s = g.snapshot();
        assert!(g.overlay_is_empty(), "the snapshot is the new base");
        assert!(Arc::ptr_eq(&s, &g.base));
        assert_eq!(g.version(), 3, "promotion is invisible to the version");
        assert_eq!(g.edge_count(), s.edge_count());
        // The promoted base answers overlay queries directly.
        assert!(g.has_edge(n(3), n(2)));
        assert_eq!(g.out_weight_sum(n(3)), 2.0);
        // And further mutation keeps working on the promoted base.
        g.remove_edge(n(3), n(2)).unwrap();
        assert!(!g.has_edge(n(3), n(2)));
        assert!(!g.snapshot().has_edge(n(3), n(2)));
        assert_eq!(g.version(), 4);
    }

    #[test]
    fn labels_survive_promotion() {
        let mut b = GraphBuilder::new();
        b.add_labeled_edge("A", "B");
        let mut g = DynamicGraph::new(b.build());
        let c = g.add_labeled_node("C").unwrap();
        g.insert_edge(c, g.node_by_label("A").unwrap(), 1.0).unwrap();
        let s = g.snapshot();
        assert!(g.overlay_is_empty());
        assert_eq!(g.version(), 2, "promotion is invisible to the version");
        assert_eq!(g.node_by_label("C"), Some(c), "extra labels survive promotion");
        assert_eq!(g.label_of(c), Some("C"));
        assert_eq!(s.node_by_label("C"), Some(c));
        assert_eq!(s.node_by_label("A"), Some(n(0)));
    }

    #[test]
    fn a_snapshot_without_new_nodes_shares_the_label_table() {
        let mut b = GraphBuilder::new();
        b.add_labeled_edge("A", "B");
        let base = Arc::new(b.build());
        let mut g = DynamicGraph::from_arc(Arc::clone(&base));
        g.insert_edge(n(1), n(0), 1.0).unwrap();
        let s = g.snapshot();
        assert!(!Arc::ptr_eq(&s, &base));
        assert!(Arc::ptr_eq(&s.labels, &base.labels), "no node created: no label copied");
    }

    #[test]
    fn weight_update_roundtrip_back_to_base_weight() {
        let mut b = GraphBuilder::new();
        b.add_weighted_edge(n(0), n(1), 2.0);
        let mut g = DynamicGraph::new(b.build());
        g.insert_edge(n(0), n(1), 5.0).unwrap();
        assert_eq!(g.edge_weight(n(0), n(1)), Some(5.0));
        // Back to the base weight: the override entry disappears.
        g.insert_edge(n(0), n(1), 2.0).unwrap();
        assert_eq!(g.edge_weight(n(0), n(1)), Some(2.0));
        assert!(g.overlay_is_empty());
        assert!((g.out_weight_sum(n(0)) - 2.0).abs() < 1e-12);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn remove_weight_overridden_base_edge_removes_entirely() {
        let mut b = GraphBuilder::new();
        b.add_weighted_edge(n(0), n(1), 2.0);
        b.add_weighted_edge(n(1), n(0), 1.0);
        let mut g = DynamicGraph::new(b.build());
        g.insert_edge(n(0), n(1), 5.0).unwrap(); // override
        g.remove_edge(n(0), n(1)).unwrap(); // must also kill the base edge
        assert!(!g.has_edge(n(0), n(1)));
        assert_eq!(g.edge_count(), 1);
        assert!(!g.snapshot().has_edge(n(0), n(1)));
        assert!((g.out_weight_sum(n(0)) - 0.0).abs() < 1e-12);
    }
}
