//! Memory-tiered graph representation: delta-varint compact CSR.
//!
//! [`DirectedGraph`] spends 8 bytes per node on `usize` offsets and 4
//! bytes per edge on absolute `u32` targets (plus 8-byte `f64` weights),
//! twice — once per direction. After BFS/RCM reordering
//! ([`crate::reorder`]) most adjacent neighbor ids are *close together*,
//! so the gaps between consecutive sorted neighbors are small numbers.
//! [`CompactGraph`] exploits that:
//!
//! * each node's sorted neighbor list is stored as a **delta-varint
//!   stream** — `[degree][first id][gap][gap]…` as LEB128 varints, where
//!   post-reorder gaps are usually one byte;
//! * the per-node byte offsets into that stream live in a `u32` array
//!   when the stream is small enough, falling back to `u64`
//!   ([`OffsetIndex`]);
//! * edge weights, when present, are narrowed to **f32** and interleaved
//!   with the gaps (unweighted graphs store no weight bytes at all).
//!
//! The compact form is immutable and read-optimized: sequential
//! neighbor iteration decodes at memory speed, but there is no O(1)
//! random access to the j-th neighbor (CycleRank's slice-based pruning
//! therefore requires the standard CSR).
//!
//! [`GraphRef`] / [`GraphHandle`] are the borrowing / owning dispatch
//! points over the two representations; [`crate::view::GraphView`]
//! (and with it every sweep/push kernel in `relcore`) runs on either.

use crate::csr::DirectedGraph;
use crate::error::GraphError;
use crate::labels::LabelTable;
use crate::node::NodeId;
use std::sync::Arc;

/// Writes `v` as a LEB128 varint (1–5 bytes for `u32`).
#[inline]
pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint starting at `buf[pos]`, returning the value and
/// the position after it. Panics on a truncated buffer (streams are
/// validated at construction).
#[inline]
pub(crate) fn read_varint(buf: &[u8], mut pos: usize) -> (u32, usize) {
    let mut value = 0u32;
    let mut shift = 0u32;
    loop {
        let byte = buf[pos];
        pos += 1;
        value |= ((byte & 0x7f) as u32) << shift;
        if byte & 0x80 == 0 {
            return (value, pos);
        }
        shift += 7;
    }
}

/// Per-node byte offsets into an adjacency stream: `u32` while the
/// stream fits, `u64` beyond 4 GiB.
#[derive(Debug, Clone, PartialEq)]
pub enum OffsetIndex {
    /// Narrow offsets (stream ≤ `u32::MAX` bytes).
    U32(Vec<u32>),
    /// Wide offsets.
    U64(Vec<u64>),
}

impl OffsetIndex {
    /// Number of entries (node count + 1).
    pub fn len(&self) -> usize {
        match self {
            OffsetIndex::U32(v) => v.len(),
            OffsetIndex::U64(v) => v.len(),
        }
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th byte offset.
    #[inline]
    pub fn get(&self, i: usize) -> usize {
        match self {
            OffsetIndex::U32(v) => v[i] as usize,
            OffsetIndex::U64(v) => v[i] as usize,
        }
    }

    /// Heap bytes of the index itself.
    pub fn memory_bytes(&self) -> usize {
        match self {
            OffsetIndex::U32(v) => v.len() * 4,
            OffsetIndex::U64(v) => v.len() * 8,
        }
    }

    /// Builds from `u64` offsets, narrowing to `u32` when possible.
    pub fn from_u64(offsets: Vec<u64>) -> OffsetIndex {
        match offsets.last() {
            Some(&last) if last <= u32::MAX as u64 => {
                OffsetIndex::U32(offsets.into_iter().map(|o| o as u32).collect())
            }
            _ => OffsetIndex::U64(offsets),
        }
    }
}

/// One direction of a [`CompactGraph`]: the delta-varint stream plus its
/// offset index and (for weighted graphs) the cached per-node weight
/// sums. Fields are public so the on-disk image codec in `relstore` can
/// lay them out / reload them without copies through an API.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactAdjacency {
    /// Byte offset of each node's block; `node_count + 1` entries.
    pub offsets: OffsetIndex,
    /// Concatenated per-node blocks:
    /// `[deg][first id][(w)][gap][(w)]…` (weights only when the graph is
    /// weighted, as little-endian f32).
    pub stream: Vec<u8>,
    /// Σ of (f32-narrowed) edge weights per node; `None` when
    /// unweighted (the sum equals the degree).
    pub weight_sums: Option<Vec<f64>>,
}

impl CompactAdjacency {
    fn block(&self, u: NodeId) -> &[u8] {
        &self.stream[self.offsets.get(u.index())..self.offsets.get(u.index() + 1)]
    }

    /// Degree of `u`: the leading varint of its block.
    #[inline]
    fn degree(&self, u: NodeId) -> usize {
        let block = self.block(u);
        if block.is_empty() {
            return 0;
        }
        read_varint(block, 0).0 as usize
    }

    fn memory_bytes(&self) -> usize {
        self.offsets.memory_bytes()
            + self.stream.len()
            + self.weight_sums.as_ref().map_or(0, |s| s.len() * 8)
    }

    /// Encodes one direction of a CSR graph. `narrow` converts each f64
    /// weight to the f32 actually stored.
    fn encode<'a>(
        n: usize,
        neighbors: impl Fn(NodeId) -> &'a [NodeId],
        weights: impl Fn(NodeId) -> Option<&'a [f64]>,
        weighted: bool,
    ) -> CompactAdjacency {
        let mut stream = Vec::new();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut weight_sums = if weighted { Some(Vec::with_capacity(n)) } else { None };
        for i in 0..n {
            offsets.push(stream.len() as u64);
            let u = NodeId::new(i as u32);
            let nbrs = neighbors(u);
            let ws = weights(u);
            write_varint(&mut stream, nbrs.len() as u32);
            let mut prev = 0u32;
            let mut sum = 0.0f64;
            for (j, &v) in nbrs.iter().enumerate() {
                let delta = if j == 0 { v.raw() } else { v.raw() - prev };
                write_varint(&mut stream, delta);
                prev = v.raw();
                if let Some(ws) = ws {
                    let w = ws[j] as f32;
                    stream.extend_from_slice(&w.to_le_bytes());
                    sum += w as f64;
                }
            }
            if let Some(sums) = weight_sums.as_mut() {
                sums.push(sum);
            }
        }
        offsets.push(stream.len() as u64);
        CompactAdjacency { offsets: OffsetIndex::from_u64(offsets), stream, weight_sums }
    }

    /// Walks every block, checking varint bounds, strict neighbor
    /// monotonicity, and id range. Returns the total edge count.
    fn validate(&self, n: usize, weighted: bool) -> Result<usize, GraphError> {
        let invalid = |msg: String| GraphError::InvalidCompact(msg);
        if self.offsets.len() != n + 1 {
            return Err(invalid(format!(
                "offset index has {} entries, expected {}",
                self.offsets.len(),
                n + 1
            )));
        }
        if self.offsets.get(n) != self.stream.len() {
            return Err(invalid("offset index does not cover the stream".into()));
        }
        if let Some(sums) = &self.weight_sums {
            if !weighted || sums.len() != n {
                return Err(invalid("weight sums inconsistent with weighted flag".into()));
            }
        } else if weighted {
            return Err(invalid("weighted adjacency is missing weight sums".into()));
        }
        let mut edges = 0usize;
        for i in 0..n {
            let (start, end) = (self.offsets.get(i), self.offsets.get(i + 1));
            if start > end || end > self.stream.len() {
                return Err(invalid(format!("node {i} block offsets out of order")));
            }
            let block = &self.stream[start..end];
            let mut pos = 0usize;
            let next = |pos: &mut usize| -> Result<u32, GraphError> {
                // Bounds-checked decode: a varint never exceeds 5 bytes
                // and must terminate inside the block.
                let mut value = 0u32;
                let mut shift = 0u32;
                loop {
                    let byte =
                        *block.get(*pos).ok_or_else(|| invalid(format!("node {i} truncated")))?;
                    *pos += 1;
                    value |= ((byte & 0x7f) as u32) << shift;
                    if byte & 0x80 == 0 {
                        return Ok(value);
                    }
                    shift += 7;
                    if shift > 31 {
                        return Err(invalid(format!("node {i} varint overflow")));
                    }
                }
            };
            let deg = next(&mut pos)?;
            let mut id = 0u32;
            for j in 0..deg {
                let delta = next(&mut pos)?;
                if j > 0 && delta == 0 {
                    return Err(invalid(format!("node {i} neighbors not strictly increasing")));
                }
                id = id
                    .checked_add(delta)
                    .ok_or_else(|| invalid(format!("node {i} neighbor id overflow")))?;
                if id as usize >= n {
                    return Err(invalid(format!("node {i} neighbor {id} out of range")));
                }
                if weighted {
                    if pos + 4 > block.len() {
                        return Err(invalid(format!("node {i} weight truncated")));
                    }
                    pos += 4;
                }
            }
            if pos != block.len() {
                return Err(invalid(format!("node {i} block has trailing bytes")));
            }
            edges += deg as usize;
        }
        Ok(edges)
    }
}

/// Streaming decoder over one node's compact neighbor list, yielding
/// `(neighbor, weight)` pairs (weight 1.0 when unweighted).
#[derive(Debug, Clone)]
pub struct CompactEdges<'a> {
    block: &'a [u8],
    pos: usize,
    remaining: usize,
    prev: u32,
    first: bool,
    weighted: bool,
}

impl<'a> CompactEdges<'a> {
    fn new(adj: &'a CompactAdjacency, u: NodeId, weighted: bool) -> Self {
        let block = adj.block(u);
        let (remaining, pos) = if block.is_empty() { (0, 0) } else { read_varint(block, 0) };
        CompactEdges { block, pos, remaining: remaining as usize, prev: 0, first: true, weighted }
    }
}

impl Iterator for CompactEdges<'_> {
    type Item = (NodeId, f64);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, f64)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let (delta, pos) = read_varint(self.block, self.pos);
        self.pos = pos;
        self.prev = if self.first { delta } else { self.prev + delta };
        self.first = false;
        let w = if self.weighted {
            let bytes: [u8; 4] =
                self.block[self.pos..self.pos + 4].try_into().expect("validated stream");
            self.pos += 4;
            f32::from_le_bytes(bytes) as f64
        } else {
            1.0
        };
        Some((NodeId::new(self.prev), w))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for CompactEdges<'_> {}

/// The compact, immutable, delta-varint graph representation.
///
/// Built from a [`DirectedGraph`] via [`CompactGraph::from_csr`]; both
/// adjacency directions are kept, mirroring the standard CSR, so the
/// same forward/transposed views work. Weighted graphs narrow their
/// weights to f32 on entry (documented lossy; weight *sums* are cached
/// as the f64 sum of the narrowed weights so solver normalization
/// matches the weights actually stored).
#[derive(Debug, Clone, PartialEq)]
pub struct CompactGraph {
    node_count: usize,
    edge_count: usize,
    weighted: bool,
    out: CompactAdjacency,
    inc: CompactAdjacency,
    labels: LabelTable,
}

impl CompactGraph {
    /// Encodes `g` into the compact representation.
    pub fn from_csr(g: &DirectedGraph) -> CompactGraph {
        let n = g.node_count();
        let weighted = g.is_weighted();
        let out =
            CompactAdjacency::encode(n, |u| g.out_neighbors(u), |u| g.out_weights(u), weighted);
        let inc = CompactAdjacency::encode(n, |u| g.in_neighbors(u), |u| g.in_weights(u), weighted);
        CompactGraph {
            node_count: n,
            edge_count: g.edge_count(),
            weighted,
            out,
            inc,
            labels: g.labels().clone(),
        }
    }

    /// Reassembles a compact graph from raw parts (the on-disk image
    /// loader in `relstore`). Every stream is fully validated — varint
    /// bounds, monotone neighbors, id ranges, edge counts — so a
    /// CRC-clean but logically inconsistent image cannot produce a graph
    /// that panics later.
    pub fn from_raw(
        node_count: usize,
        edge_count: usize,
        weighted: bool,
        out: CompactAdjacency,
        inc: CompactAdjacency,
        labels: LabelTable,
    ) -> Result<CompactGraph, GraphError> {
        let out_edges = out.validate(node_count, weighted)?;
        let in_edges = inc.validate(node_count, weighted)?;
        if out_edges != edge_count || in_edges != edge_count {
            return Err(GraphError::InvalidCompact(format!(
                "edge counts disagree: header {edge_count}, out {out_edges}, in {in_edges}"
            )));
        }
        Ok(CompactGraph { node_count, edge_count, weighted, out, inc, labels })
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether per-edge weights are stored (as f32).
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count as u32).map(NodeId::new)
    }

    /// The node labels.
    pub fn labels(&self) -> &LabelTable {
        &self.labels
    }

    /// Label of `u`, or its numeric index as a string.
    pub fn display_name(&self, u: NodeId) -> String {
        self.labels.label_or_index(u)
    }

    /// Node with label `label`.
    pub fn node_by_label(&self, label: &str) -> Option<NodeId> {
        self.labels.resolve(label)
    }

    /// The out-direction adjacency (image codec access).
    pub fn out_adjacency(&self) -> &CompactAdjacency {
        &self.out
    }

    /// The in-direction adjacency (image codec access).
    pub fn in_adjacency(&self) -> &CompactAdjacency {
        &self.inc
    }

    /// Out-degree of `u` (one varint decode).
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out.degree(u)
    }

    /// In-degree of `u` (one varint decode).
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.inc.degree(u)
    }

    /// Σ of out-edge weights (out-degree when unweighted).
    #[inline]
    pub fn out_weight_sum(&self, u: NodeId) -> f64 {
        match &self.out.weight_sums {
            Some(sums) => sums[u.index()],
            None => self.out_degree(u) as f64,
        }
    }

    /// Σ of in-edge weights (in-degree when unweighted).
    #[inline]
    pub fn in_weight_sum(&self, u: NodeId) -> f64 {
        match &self.inc.weight_sums {
            Some(sums) => sums[u.index()],
            None => self.in_degree(u) as f64,
        }
    }

    /// Streaming `(target, weight)` pairs of `u`'s out-edges, ascending.
    #[inline]
    pub fn out_edges(&self, u: NodeId) -> CompactEdges<'_> {
        CompactEdges::new(&self.out, u, self.weighted)
    }

    /// Streaming `(source, weight)` pairs of `u`'s in-edges, ascending.
    #[inline]
    pub fn in_edges(&self, u: NodeId) -> CompactEdges<'_> {
        CompactEdges::new(&self.inc, u, self.weighted)
    }

    /// Forward [`crate::view::GraphView`] over this representation.
    pub fn view(&self) -> crate::view::GraphView<'_> {
        crate::view::GraphView::forward(self)
    }

    /// Edge-reversed view.
    pub fn transposed(&self) -> crate::view::GraphView<'_> {
        crate::view::GraphView::reversed(self)
    }

    /// Total bytes of the adjacency structure (both directions), the
    /// number the `memory_footprint` bench divides by the edge count.
    /// Labels are excluded, mirroring [`DirectedGraph::memory_bytes`].
    pub fn memory_bytes(&self) -> usize {
        self.out.memory_bytes() + self.inc.memory_bytes()
    }

    /// Adjacency bytes per edge (0 for an edgeless graph).
    pub fn bytes_per_edge(&self) -> f64 {
        if self.edge_count == 0 {
            return 0.0;
        }
        self.memory_bytes() as f64 / self.edge_count as f64
    }

    /// Decodes back into the standard CSR representation.
    ///
    /// For unweighted graphs (and weighted graphs whose weights are
    /// exactly representable in f32) this reproduces the
    /// [`GraphBuilder`](crate::builder::GraphBuilder)-built arrays —
    /// including the cached weight sums — bit for bit; the weight sums
    /// are accumulated in the same edge order the builder uses.
    pub fn to_csr(&self) -> DirectedGraph {
        let n = self.node_count;
        let m = self.edge_count;
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut out_targets = Vec::with_capacity(m);
        let mut out_weights = if self.weighted { Some(Vec::with_capacity(m)) } else { None };
        out_offsets.push(0usize);
        for u in self.nodes() {
            for (v, w) in self.out_edges(u) {
                out_targets.push(v);
                if let Some(ws) = out_weights.as_mut() {
                    ws.push(w);
                }
            }
            out_offsets.push(out_targets.len());
        }

        // Weight sums in builder order: one pass over the (u, v)-sorted
        // edge list, accumulating both endpoints.
        let (mut out_weight_sums, mut in_weight_sums) = if self.weighted {
            (Some(vec![0.0f64; n]), Some(vec![0.0f64; n]))
        } else {
            (None, None)
        };
        if let (Some(outs), Some(ins), Some(ws)) =
            (out_weight_sums.as_mut(), in_weight_sums.as_mut(), out_weights.as_ref())
        {
            for u in 0..n {
                for (j, &v) in out_targets[out_offsets[u]..out_offsets[u + 1]].iter().enumerate() {
                    let w = ws[out_offsets[u] + j];
                    outs[u] += w;
                    ins[v.index()] += w;
                }
            }
        }

        // Reverse CSR via the builder's counting sort on target; the
        // stable (u, v) scan order reproduces its source ordering.
        let mut in_offsets = vec![0usize; n + 1];
        for &v in &out_targets {
            in_offsets[v.index() + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor = in_offsets.clone();
        let mut in_sources = vec![NodeId::new(0); m];
        let mut in_weights = self.weighted.then(|| vec![0.0f64; m]);
        for u in 0..n {
            for (j, &v) in out_targets[out_offsets[u]..out_offsets[u + 1]].iter().enumerate() {
                let slot = cursor[v.index()];
                cursor[v.index()] += 1;
                in_sources[slot] = NodeId::new(u as u32);
                if let (Some(iw), Some(ow)) = (in_weights.as_mut(), out_weights.as_ref()) {
                    iw[slot] = ow[out_offsets[u] + j];
                }
            }
        }

        DirectedGraph {
            out_offsets,
            out_targets,
            out_weights,
            in_offsets,
            in_sources,
            in_weights,
            out_weight_sums,
            in_weight_sums,
            labels: Arc::new(self.labels.clone()),
        }
    }
}

/// A borrowed, representation-dispatching graph reference.
///
/// Copyable; the unit every algorithm signature takes. Use
/// [`GraphRef::as_csr`] when an algorithm genuinely needs slice access
/// (CycleRank's pruning).
#[derive(Debug, Clone, Copy)]
pub enum GraphRef<'a> {
    /// Standard CSR.
    Csr(&'a DirectedGraph),
    /// Delta-varint compact representation.
    Compact(&'a CompactGraph),
}

impl<'a> From<&'a DirectedGraph> for GraphRef<'a> {
    fn from(g: &'a DirectedGraph) -> Self {
        GraphRef::Csr(g)
    }
}

impl<'a> From<&'a CompactGraph> for GraphRef<'a> {
    fn from(g: &'a CompactGraph) -> Self {
        GraphRef::Compact(g)
    }
}

impl<'a> GraphRef<'a> {
    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        match self {
            GraphRef::Csr(g) => g.node_count(),
            GraphRef::Compact(g) => g.node_count(),
        }
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        match self {
            GraphRef::Csr(g) => g.edge_count(),
            GraphRef::Compact(g) => g.edge_count(),
        }
    }

    /// Whether edges carry weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        match self {
            GraphRef::Csr(g) => g.is_weighted(),
            GraphRef::Compact(g) => g.is_weighted(),
        }
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u32).map(NodeId::new)
    }

    /// The node labels.
    pub fn labels(&self) -> &'a LabelTable {
        match self {
            GraphRef::Csr(g) => g.labels(),
            GraphRef::Compact(g) => g.labels(),
        }
    }

    /// Label of `u`, or its numeric index as a string.
    pub fn display_name(&self, u: NodeId) -> String {
        self.labels().label_or_index(u)
    }

    /// Node with label `label`.
    pub fn node_by_label(&self, label: &str) -> Option<NodeId> {
        self.labels().resolve(label)
    }

    /// The standard CSR, when that is the underlying representation.
    #[inline]
    pub fn as_csr(&self) -> Option<&'a DirectedGraph> {
        match self {
            GraphRef::Csr(g) => Some(g),
            GraphRef::Compact(_) => None,
        }
    }

    /// Short tier name (`"csr"` / `"compact"`), for stats surfaces.
    pub fn tier_name(&self) -> &'static str {
        match self {
            GraphRef::Csr(_) => "csr",
            GraphRef::Compact(_) => "compact",
        }
    }

    /// Adjacency bytes of this representation.
    pub fn memory_bytes(&self) -> usize {
        match self {
            GraphRef::Csr(g) => g.memory_bytes(),
            GraphRef::Compact(g) => g.memory_bytes(),
        }
    }

    /// Forward view.
    pub fn view(&self) -> crate::view::GraphView<'a> {
        crate::view::GraphView::forward(*self)
    }

    /// Edge-reversed view.
    pub fn transposed(&self) -> crate::view::GraphView<'a> {
        crate::view::GraphView::reversed(*self)
    }
}

/// An owned, shareable graph in either representation.
///
/// The query layer's dataset handles are this type: a standard dataset
/// resolves to `Csr`, a memory-tiered one to `Compact`. Cloning clones
/// the `Arc`.
#[derive(Debug, Clone)]
pub enum GraphHandle {
    /// Standard CSR.
    Csr(Arc<DirectedGraph>),
    /// Delta-varint compact representation.
    Compact(Arc<CompactGraph>),
}

impl From<Arc<DirectedGraph>> for GraphHandle {
    fn from(g: Arc<DirectedGraph>) -> Self {
        GraphHandle::Csr(g)
    }
}

impl From<Arc<CompactGraph>> for GraphHandle {
    fn from(g: Arc<CompactGraph>) -> Self {
        GraphHandle::Compact(g)
    }
}

impl From<DirectedGraph> for GraphHandle {
    fn from(g: DirectedGraph) -> Self {
        GraphHandle::Csr(Arc::new(g))
    }
}

impl From<CompactGraph> for GraphHandle {
    fn from(g: CompactGraph) -> Self {
        GraphHandle::Compact(Arc::new(g))
    }
}

impl GraphHandle {
    /// Borrowing representation reference.
    #[inline]
    pub fn as_ref(&self) -> GraphRef<'_> {
        match self {
            GraphHandle::Csr(g) => GraphRef::Csr(g),
            GraphHandle::Compact(g) => GraphRef::Compact(g),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.as_ref().node_count()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.as_ref().edge_count()
    }

    /// The CSR `Arc`, when that is the representation.
    pub fn as_csr_arc(&self) -> Option<&Arc<DirectedGraph>> {
        match self {
            GraphHandle::Csr(g) => Some(g),
            GraphHandle::Compact(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn fixture() -> DirectedGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_labeled_node("alpha");
        let c = b.add_labeled_node("gamma");
        b.ensure_node(9);
        b.add_edge(a, c);
        b.add_edge(c, a);
        b.add_edge_indices(0, 5);
        b.add_edge_indices(5, 9);
        b.add_edge_indices(9, 0);
        b.add_edge_indices(2, 9);
        b.build()
    }

    #[test]
    fn varint_round_trip() {
        let mut buf = Vec::new();
        let values = [0u32, 1, 127, 128, 300, 16_383, 16_384, u32::MAX];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            let (got, next) = read_varint(&buf, pos);
            assert_eq!(got, v);
            pos = next;
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn compact_matches_csr_adjacency() {
        let g = fixture();
        let c = CompactGraph::from_csr(&g);
        assert_eq!(c.node_count(), g.node_count());
        assert_eq!(c.edge_count(), g.edge_count());
        assert!(!c.is_weighted());
        for u in g.nodes() {
            assert_eq!(c.out_degree(u), g.out_degree(u));
            assert_eq!(c.in_degree(u), g.in_degree(u));
            let outs: Vec<NodeId> = c.out_edges(u).map(|(v, _)| v).collect();
            assert_eq!(outs, g.out_neighbors(u));
            let ins: Vec<NodeId> = c.in_edges(u).map(|(v, _)| v).collect();
            assert_eq!(ins, g.in_neighbors(u));
            assert_eq!(c.out_weight_sum(u), g.out_weight_sum(u));
        }
        assert_eq!(c.node_by_label("alpha"), g.node_by_label("alpha"));
        assert_eq!(c.display_name(n(5)), "5");
    }

    #[test]
    fn weighted_compact_narrows_to_f32() {
        let mut b = GraphBuilder::new();
        b.add_weighted_edge(n(0), n(1), 2.5);
        b.add_weighted_edge(n(0), n(2), 0.1); // not f32-exact
        b.add_weighted_edge(n(2), n(1), 3.0);
        let g = b.build();
        let c = CompactGraph::from_csr(&g);
        assert!(c.is_weighted());
        let edges: Vec<(NodeId, f64)> = c.out_edges(n(0)).collect();
        assert_eq!(edges[0], (n(1), 2.5));
        assert_eq!(edges[1], (n(2), 0.1f32 as f64));
        // Weight sums reflect the narrowed weights, not the originals.
        assert_eq!(c.out_weight_sum(n(0)), 2.5 + 0.1f32 as f64);
    }

    #[test]
    fn round_trips_to_csr_bitwise() {
        for g in [fixture(), {
            let mut b = GraphBuilder::new();
            b.add_labeled_node("solo");
            b.add_weighted_edge(n(0), n(1), 2.5); // f32-exact weights
            b.add_weighted_edge(n(1), n(2), 1.0);
            b.add_weighted_edge(n(2), n(0), 0.125);
            b.add_weighted_edge(n(0), n(2), 7.0);
            b.build()
        }] {
            let c = CompactGraph::from_csr(&g);
            let back = c.to_csr();
            assert_eq!(back.node_count(), g.node_count());
            assert_eq!(back.edge_count(), g.edge_count());
            for u in g.nodes() {
                assert_eq!(back.out_neighbors(u), g.out_neighbors(u));
                assert_eq!(back.in_neighbors(u), g.in_neighbors(u));
                assert_eq!(back.out_weights(u), g.out_weights(u));
                assert_eq!(back.in_weights(u), g.in_weights(u));
                assert_eq!(back.out_weight_sum(u).to_bits(), g.out_weight_sum(u).to_bits());
                assert_eq!(back.in_weight_sum(u).to_bits(), g.in_weight_sum(u).to_bits());
                assert_eq!(back.labels().get(u), g.labels().get(u));
            }
        }
    }

    #[test]
    fn compact_is_smaller_on_local_graphs() {
        // A banded graph (every edge within a small window) mimics the
        // post-reorder locality the encoding targets.
        let mut b = GraphBuilder::new();
        let n_nodes = 2000u32;
        b.ensure_node(n_nodes - 1);
        for u in 0..n_nodes {
            for d in 1..=8u32 {
                b.add_edge_indices(u, (u + d) % n_nodes);
            }
        }
        let g = b.build();
        let c = CompactGraph::from_csr(&g);
        assert!(
            (c.memory_bytes() as f64) < 0.5 * g.memory_bytes() as f64,
            "compact {} vs csr {}",
            c.memory_bytes(),
            g.memory_bytes()
        );
        assert!(c.bytes_per_edge() > 0.0);
    }

    #[test]
    fn from_raw_validates_streams() {
        let g = fixture();
        let c = CompactGraph::from_csr(&g);
        // A faithful reassembly is accepted.
        let ok = CompactGraph::from_raw(
            c.node_count(),
            c.edge_count(),
            c.is_weighted(),
            c.out_adjacency().clone(),
            c.in_adjacency().clone(),
            c.labels().clone(),
        )
        .unwrap();
        assert_eq!(ok, c);

        // Wrong edge count.
        assert!(CompactGraph::from_raw(
            c.node_count(),
            c.edge_count() + 1,
            false,
            c.out_adjacency().clone(),
            c.in_adjacency().clone(),
            LabelTable::new(),
        )
        .is_err());

        // Corrupt stream: an out-of-range neighbor id.
        let mut bad = c.out_adjacency().clone();
        let len = bad.stream.len();
        bad.stream[len - 1] = 0x7f; // large delta pushes the id out of range
        assert!(CompactGraph::from_raw(
            c.node_count(),
            c.edge_count(),
            false,
            bad,
            c.in_adjacency().clone(),
            LabelTable::new(),
        )
        .is_err());

        // Truncated offsets.
        let mut short = c.out_adjacency().clone();
        if let OffsetIndex::U32(v) = &mut short.offsets {
            v.pop();
        }
        assert!(CompactGraph::from_raw(
            c.node_count(),
            c.edge_count(),
            false,
            short,
            c.in_adjacency().clone(),
            LabelTable::new(),
        )
        .is_err());
    }

    #[test]
    fn empty_graph_compacts() {
        let g = GraphBuilder::new().build();
        let c = CompactGraph::from_csr(&g);
        assert_eq!(c.node_count(), 0);
        assert_eq!(c.edge_count(), 0);
        assert_eq!(c.bytes_per_edge(), 0.0);
        let back = c.to_csr();
        assert_eq!(back.node_count(), 0);
    }

    #[test]
    fn handle_and_ref_dispatch() {
        let g = fixture();
        let c = CompactGraph::from_csr(&g);
        let r1: GraphRef<'_> = (&g).into();
        let r2: GraphRef<'_> = (&c).into();
        assert_eq!(r1.node_count(), r2.node_count());
        assert_eq!(r1.edge_count(), r2.edge_count());
        assert_eq!(r1.tier_name(), "csr");
        assert_eq!(r2.tier_name(), "compact");
        assert!(r1.as_csr().is_some());
        assert!(r2.as_csr().is_none());

        let h1 = GraphHandle::from(g);
        let h2 = GraphHandle::from(c);
        assert_eq!(h1.node_count(), h2.node_count());
        assert!(h1.as_csr_arc().is_some());
        assert!(h2.as_csr_arc().is_none());
    }
}
