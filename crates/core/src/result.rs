//! Score vectors and ranked result lists.
//!
//! Score-producing algorithms (PageRank family, CycleRank) return a
//! [`ScoreVector`]; ranking-only algorithms (2DRank) return a [`RankedList`]
//! directly. A `ScoreVector` converts into a `RankedList` by sorting scores
//! descending with node-index tie-breaking, which makes every algorithm's
//! output comparable through the metrics in [`crate::compare`].

use relgraph::{DirectedGraph, NodeId};
use serde::{Deserialize, Serialize};

/// A dense per-node score assignment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoreVector {
    values: Vec<f64>,
}

impl ScoreVector {
    /// Wraps a dense score vector (index = node id).
    pub fn new(values: Vec<f64>) -> Self {
        ScoreVector { values }
    }

    /// All-zero scores for `n` nodes.
    pub fn zeros(n: usize) -> Self {
        ScoreVector { values: vec![0.0; n] }
    }

    /// Number of nodes scored.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no nodes are scored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Score of `u`.
    #[inline]
    pub fn get(&self, u: NodeId) -> f64 {
        self.values[u.index()]
    }

    /// Mutable score of `u`.
    #[inline]
    pub fn get_mut(&mut self, u: NodeId) -> &mut f64 {
        &mut self.values[u.index()]
    }

    /// Raw slice view.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Consumes into the raw vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.values
    }

    /// Sum of all scores.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// L1-normalizes in place so scores sum to 1 (no-op on an all-zero
    /// vector).
    pub fn normalize(&mut self) {
        let s = self.sum();
        if s > 0.0 {
            for v in &mut self.values {
                *v /= s;
            }
        }
    }

    /// Node with the maximum score (ties broken by lowest index); `None`
    /// for an empty vector.
    pub fn argmax(&self) -> Option<NodeId> {
        let mut best: Option<(usize, f64)> = None;
        for (i, &v) in self.values.iter().enumerate() {
            match best {
                Some((_, bv)) if v <= bv => {}
                _ => best = Some((i, v)),
            }
        }
        best.map(|(i, _)| NodeId::from_usize(i))
    }

    /// Top-`k` nodes by score (descending, ties by ascending node id).
    ///
    /// Pruned heap-select: O(n log k) time, O(k) scratch (see
    /// [`top_k_pairs`]).
    pub fn top_k(&self, k: usize) -> Vec<(NodeId, f64)> {
        top_k_pairs(&self.values, k)
    }

    /// Full ranking of all nodes (descending score by `total_cmp`,
    /// ascending id ties), computed on each call: the order whose first
    /// `k` entries [`Self::top_k`] selects.
    ///
    /// Sorts only the non-zero support and appends the `+0.0` block in
    /// id order, which is its place in the total order — so a sparse
    /// vector (CycleRank far from its reference is mostly zeros) ranks in
    /// `O(n + s log s)` for `s` non-zero scores, not an `n`-entry sort.
    pub fn ranking(&self) -> RankedList {
        RankedList::new(ranked_indices(&self.values).into_iter().map(NodeId::new).collect())
    }

    /// Top-`k` as `(label, score)` pairs using the graph's label table.
    pub fn top_k_labeled(&self, g: &DirectedGraph, k: usize) -> Vec<(String, f64)> {
        self.top_k(k).into_iter().map(|(n, s)| (g.display_name(n), s)).collect()
    }
}

/// Top-`k` `(node, score)` pairs of a raw dense score slice — descending
/// score by `total_cmp`, ties by ascending node id, the order of
/// [`ScoreVector::ranking`]; the selection behind [`ScoreVector::top_k`],
/// exposed so the solver's top-k serving path can rank directly out of an
/// arena buffer without materializing a `ScoreVector`.
///
/// Heap-selects among the positive entries only: one pass keeps a
/// `k`-entry heap whose root is the weakest kept candidate, so most
/// entries are rejected with a single comparison. When fewer than `k`
/// entries are positive, the `+0.0` block follows in id order, then the
/// negative-signed entries (`-0.0` first) — their places in the total
/// order. A sparse vector (CycleRank far from its reference is mostly
/// zeros) therefore costs one scan, not `n` heap comparisons. `O(n log k)`
/// worst case and only `O(k)` scratch (no `O(n)` index vector), which
/// keeps the arena-backed top-k solve path allocation-free in `n`.
pub fn top_k_pairs(values: &[f64], k: usize) -> Vec<(NodeId, f64)> {
    let n = values.len();
    let top = if k >= n {
        // Nothing to prune: a heap would push and pop every element.
        ranked_indices(values)
    } else {
        let mut top = heap_select(values, k, |v| !v.is_sign_negative() && v != 0.0);
        let zeros = (0..n as u32).filter(|&i| values[i as usize].to_bits() == 0);
        top.extend(zeros.take(k - top.len()));
        if top.len() < k {
            top.extend(heap_select(values, k - top.len(), f64::is_sign_negative));
        }
        top
    };
    top.into_iter().map(|i| (NodeId::new(i), values[i as usize])).collect()
}

/// The best `k` indices of `values` whose score passes `keep`, in rank
/// order: a pruned heap-select holding at most `k` candidates.
fn heap_select(values: &[f64], k: usize, keep: impl Fn(f64) -> bool) -> Vec<u32> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    if k == 0 {
        return Vec::new();
    }
    // Rank key: smaller = better (descending score, ascending id). The
    // max-heap root is therefore the weakest of the kept candidates.
    let mut heap: BinaryHeap<(Reverse<OrderedF64>, u32)> = BinaryHeap::with_capacity(k + 1);
    for (i, &v) in values.iter().enumerate().filter(|&(_, &v)| keep(v)) {
        let key = (Reverse(ordered(v)), i as u32);
        if heap.len() < k {
            heap.push(key);
        } else if key < *heap.peek().expect("heap holds k > 0 entries") {
            heap.pop();
            heap.push(key);
        }
    }
    heap.into_sorted_vec().into_iter().map(|(_, i)| i).collect()
}

/// Every index of `values` in rank order — descending score by
/// `total_cmp`, ascending id — a total key with no equal elements, so the
/// unstable sorts are deterministic.
///
/// Only the non-zero support is sorted. In that order the exact `+0.0`
/// entries sit between everything above them and every negative-signed
/// entry (`-0.0` included), and among themselves by ascending id, so they
/// are appended as one block in a single pass: a CycleRank vector with a
/// handful of cycle members among `n` nodes ranks in `O(n)`.
fn ranked_indices(values: &[f64]) -> Vec<u32> {
    let by_rank =
        |&a: &u32, &b: &u32| values[b as usize].total_cmp(&values[a as usize]).then(a.cmp(&b));
    let mut order = Vec::with_capacity(values.len());
    let mut negative = Vec::new();
    for (i, v) in values.iter().enumerate() {
        if v.is_sign_negative() {
            negative.push(i as u32);
        } else if *v != 0.0 {
            order.push(i as u32);
        }
    }
    order.sort_unstable_by(by_rank);
    order.extend((0..values.len() as u32).filter(|&i| values[i as usize].to_bits() == 0));
    negative.sort_unstable_by(by_rank);
    order.append(&mut negative);
    order
}

/// Total order over f64 (via `total_cmp`); scores produced by the
/// algorithms are never NaN, this is belt-and-braces for sorting.
#[inline]
fn ordered(v: f64) -> OrderedF64 {
    OrderedF64(v)
}

#[derive(PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// An ordered list of nodes, most relevant first.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankedList {
    order: Vec<NodeId>,
}

impl RankedList {
    /// Wraps an explicit ordering.
    pub fn new(order: Vec<NodeId>) -> Self {
        RankedList { order }
    }

    /// Number of ranked nodes.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The ranked node ids, best first.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.order
    }

    /// First `k` entries.
    pub fn top_k(&self, k: usize) -> &[NodeId] {
        &self.order[..k.min(self.order.len())]
    }

    /// 0-based position of each node: `positions()[u] = rank of u`, or
    /// `u32::MAX` for unranked nodes. `n` is the total node count.
    pub fn positions(&self, n: usize) -> Vec<u32> {
        let mut pos = vec![u32::MAX; n];
        for (rank, u) in self.order.iter().enumerate() {
            pos[u.index()] = rank as u32;
        }
        pos
    }

    /// 0-based rank of `u` in this list, if present.
    pub fn rank_of(&self, u: NodeId) -> Option<usize> {
        self.order.iter().position(|&x| x == u)
    }

    /// Labels of the first `k` entries.
    pub fn top_k_labeled(&self, g: &DirectedGraph, k: usize) -> Vec<String> {
        self.top_k(k).iter().map(|&n| g.display_name(n)).collect()
    }

    /// Consumes into the underlying vector.
    pub fn into_vec(self) -> Vec<NodeId> {
        self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgraph::GraphBuilder;

    #[test]
    fn top_k_descending_with_ties() {
        let s = ScoreVector::new(vec![0.3, 0.9, 0.3, 0.5]);
        let top = s.top_k(4);
        let ids: Vec<u32> = top.iter().map(|(n, _)| n.raw()).collect();
        assert_eq!(ids, vec![1, 3, 0, 2]); // ties 0,2 broken by index
        assert_eq!(top[0].1, 0.9);
    }

    #[test]
    fn top_k_truncates() {
        let s = ScoreVector::new(vec![0.1, 0.2, 0.3]);
        assert_eq!(s.top_k(2).len(), 2);
        assert_eq!(s.top_k(0).len(), 0);
        assert_eq!(s.top_k(10).len(), 3);
    }

    #[test]
    fn top_k_partial_sort_matches_full_sort() {
        // Deterministic pseudo-random scores.
        let mut x = 123456789u64;
        let scores: Vec<f64> = (0..500)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        let s = ScoreVector::new(scores.clone());
        let top10 = s.top_k(10);
        let mut full: Vec<(u32, f64)> =
            scores.iter().copied().enumerate().map(|(i, v)| (i as u32, v)).collect();
        full.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for (got, want) in top10.iter().zip(full.iter()) {
            assert_eq!(got.0.raw(), want.0);
            assert_eq!(got.1, want.1);
        }

        // k = n takes the index-sort path instead of the heap; it must
        // produce the heap's order: on distinct scores, under heavy ties
        // (seven distinct values, signed zeros among them) and all-zero.
        let tied: Vec<f64> = scores.iter().map(|v| (v * 7.0).floor() - 3.0).collect();
        let signed: Vec<f64> =
            tied.iter().map(|&v| if v == 0.0 { -0.0 } else { v * 0.0 }).collect();
        for values in [scores, tied, signed, vec![0.0; 500]] {
            let n = values.len();
            let mut want: Vec<(u32, f64)> =
                values.iter().copied().enumerate().map(|(i, v)| (i as u32, v)).collect();
            want.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            let s = ScoreVector::new(values);
            for k in [n, n + 3] {
                let got: Vec<(u32, u64)> =
                    s.top_k(k).iter().map(|(id, v)| (id.raw(), v.to_bits())).collect();
                let want: Vec<(u32, u64)> = want.iter().map(|&(i, v)| (i, v.to_bits())).collect();
                assert_eq!(got, want, "k = {k}");
            }
            // One below n still runs the heap: same order, last entry cut.
            let heap: Vec<u32> = s.top_k(n - 1).iter().map(|(id, _)| id.raw()).collect();
            let ranking: Vec<u32> = s.ranking().as_slice().iter().map(|id| id.raw()).collect();
            assert_eq!(heap[..], ranking[..n - 1]);
            assert_eq!(ranking, want.iter().map(|&(i, _)| i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn normalize_sums_to_one() {
        let mut s = ScoreVector::new(vec![1.0, 3.0]);
        s.normalize();
        assert!((s.sum() - 1.0).abs() < 1e-12);
        assert_eq!(s.get(NodeId::new(1)), 0.75);
    }

    #[test]
    fn normalize_zero_vector_noop() {
        let mut s = ScoreVector::zeros(3);
        s.normalize();
        assert_eq!(s.sum(), 0.0);
    }

    #[test]
    fn argmax() {
        let s = ScoreVector::new(vec![0.1, 0.5, 0.5]);
        assert_eq!(s.argmax(), Some(NodeId::new(1))); // tie -> lowest index
        assert_eq!(ScoreVector::zeros(0).argmax(), None);
    }

    #[test]
    fn ranking_positions() {
        let s = ScoreVector::new(vec![0.2, 0.9, 0.5]);
        let r = s.ranking();
        assert_eq!(r.as_slice(), &[NodeId::new(1), NodeId::new(2), NodeId::new(0)]);
        let pos = r.positions(3);
        assert_eq!(pos, vec![2, 0, 1]);
        assert_eq!(r.rank_of(NodeId::new(2)), Some(1));
    }

    #[test]
    fn labeled_output() {
        let mut b = GraphBuilder::new();
        b.add_labeled_edge("A", "B");
        let g = b.build();
        let s = ScoreVector::new(vec![0.2, 0.8]);
        let labeled = s.top_k_labeled(&g, 2);
        assert_eq!(labeled[0].0, "B");
        let rl = s.ranking();
        assert_eq!(rl.top_k_labeled(&g, 1), vec!["B".to_string()]);
    }

    #[test]
    fn get_mut_updates() {
        let mut s = ScoreVector::zeros(2);
        *s.get_mut(NodeId::new(1)) += 2.5;
        assert_eq!(s.get(NodeId::new(1)), 2.5);
    }
}
