//! Ranking-comparison metrics.
//!
//! The demo's *algorithm comparison* use case puts the outputs of several
//! algorithms side by side (Tables I–II of the paper). These metrics
//! quantify that comparison: how much do two top-k lists overlap, and how
//! similarly do two algorithms order the graph?
//!
//! * [`jaccard_at_k`] — set overlap of the two top-k lists;
//! * [`kendall_tau`] — pairwise order agreement in [−1, 1] over a common
//!   universe of nodes;
//! * [`rank_biased_overlap`] — top-weighted similarity of indefinite
//!   rankings (Webber et al., 2010), the standard choice when only list
//!   prefixes matter;
//! * [`spearman_footrule`] — normalized total displacement between two
//!   permutations.

use crate::result::RankedList;
use relgraph::NodeId;
use std::collections::HashSet;

/// Jaccard similarity |A∩B| / |A∪B| of the two top-`k` prefixes.
///
/// Returns 1.0 when both prefixes are empty.
pub fn jaccard_at_k(a: &RankedList, b: &RankedList, k: usize) -> f64 {
    let sa: HashSet<NodeId> = a.top_k(k).iter().copied().collect();
    let sb: HashSet<NodeId> = b.top_k(k).iter().copied().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count() as f64;
    let union = sa.union(&sb).count() as f64;
    inter / union
}

/// Kendall rank-correlation τ between two rankings, computed over the nodes
/// present in **both** lists. Returns a value in [−1, 1]; 1 = identical
/// order, −1 = reversed. Returns 1.0 when fewer than 2 common nodes exist.
///
/// O(c²) over the common count `c` — fine for the top-k lists the demo
/// compares (k ≤ a few hundred).
pub fn kendall_tau(a: &RankedList, b: &RankedList) -> f64 {
    let in_b: HashSet<NodeId> = b.as_slice().iter().copied().collect();
    let common: Vec<NodeId> = a.as_slice().iter().copied().filter(|n| in_b.contains(n)).collect();
    let c = common.len();
    if c < 2 {
        return 1.0;
    }
    // Position of each common node in b's order.
    let pos_b: std::collections::HashMap<NodeId, usize> =
        b.as_slice().iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..c {
        for j in (i + 1)..c {
            // In a's order, common[i] precedes common[j].
            let (bi, bj) = (pos_b[&common[i]], pos_b[&common[j]]);
            if bi < bj {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    (concordant - discordant) as f64 / (concordant + discordant) as f64
}

/// Rank-biased overlap (RBO) with persistence `p ∈ (0, 1)`, evaluated to the
/// depth of the shorter list (extrapolated base variant).
///
/// RBO ≈ Σ_d p^{d−1}·(overlap@d / d) · (1−p); higher `p` weights deeper
/// prefixes more. `p = 0.9` is the conventional default.
pub fn rank_biased_overlap(a: &RankedList, b: &RankedList, p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "persistence p must be in (0,1)");
    let depth = a.len().min(b.len());
    if depth == 0 {
        return 1.0;
    }
    let mut seen_a: HashSet<NodeId> = HashSet::with_capacity(depth);
    let mut seen_b: HashSet<NodeId> = HashSet::with_capacity(depth);
    let mut overlap = 0usize;
    let mut sum = 0.0;
    let mut weight = 1.0 - p; // (1-p)·p^{d-1} at d=1
    let mut total_weight = 0.0;
    for d in 0..depth {
        let (na, nb) = (a.as_slice()[d], b.as_slice()[d]);
        if na == nb {
            overlap += 1;
        } else {
            if seen_b.contains(&na) {
                overlap += 1;
            }
            if seen_a.contains(&nb) {
                overlap += 1;
            }
            seen_a.insert(na);
            seen_b.insert(nb);
        }
        sum += weight * overlap as f64 / (d + 1) as f64;
        total_weight += weight;
        weight *= p;
    }
    // Normalize by the weight actually distributed over the finite depth so
    // identical finite lists score exactly 1.
    sum / total_weight
}

/// Normalized discounted cumulative gain of `ranking` against graded
/// relevance `gains` (indexed by node id), evaluated at depth `k`.
///
/// `NDCG@k = DCG@k / IDCG@k` with `DCG@k = Σ_{i<k} gain(r_i)/log2(i+2)`;
/// 1.0 means the ranking puts the highest-gain nodes first. Used by the
/// scheme × tolerance ablation example to score loose-tolerance solves
/// against tight ones. Returns 1.0 when all gains are zero.
pub fn ndcg_at_k(ranking: &RankedList, gains: &[f64], k: usize) -> f64 {
    let k = k.min(gains.len());
    let discount = |i: usize| 1.0 / ((i + 2) as f64).log2();
    let dcg: f64 = ranking
        .top_k(k)
        .iter()
        .enumerate()
        .map(|(i, n)| gains.get(n.index()).copied().unwrap_or(0.0) * discount(i))
        .sum();
    let mut ideal: Vec<f64> = gains.to_vec();
    ideal.sort_by(|a, b| b.total_cmp(a));
    let idcg: f64 = ideal.iter().take(k).enumerate().map(|(i, g)| g * discount(i)).sum();
    if idcg == 0.0 {
        1.0
    } else {
        dcg / idcg
    }
}

/// Normalized Spearman footrule distance between two rankings of the same
/// node set: `1 − (Σ|posA − posB|) / max`, so 1 = identical, 0 = maximally
/// displaced. Nodes missing from either list are ignored.
pub fn spearman_footrule(a: &RankedList, b: &RankedList) -> f64 {
    let pos_b: std::collections::HashMap<NodeId, usize> =
        b.as_slice().iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut displacement = 0u64;
    let mut count = 0u64;
    for (i, n) in a.as_slice().iter().enumerate() {
        if let Some(&j) = pos_b.get(n) {
            displacement += (i as i64 - j as i64).unsigned_abs();
            count += 1;
        }
    }
    if count < 2 {
        return 1.0;
    }
    // Maximum footrule for m items is floor(m²/2).
    let max = count * count / 2;
    1.0 - displacement as f64 / max as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rl(ids: &[u32]) -> RankedList {
        RankedList::new(ids.iter().map(|&i| NodeId::new(i)).collect())
    }

    #[test]
    fn jaccard_identical_and_disjoint() {
        let a = rl(&[0, 1, 2, 3]);
        let b = rl(&[0, 1, 2, 3]);
        assert_eq!(jaccard_at_k(&a, &b, 4), 1.0);
        let c = rl(&[4, 5, 6, 7]);
        assert_eq!(jaccard_at_k(&a, &c, 4), 0.0);
    }

    #[test]
    fn jaccard_partial() {
        let a = rl(&[0, 1, 2]);
        let b = rl(&[1, 2, 3]);
        // intersection {1,2}, union {0,1,2,3}
        assert_eq!(jaccard_at_k(&a, &b, 3), 0.5);
    }

    #[test]
    fn jaccard_k_smaller_than_lists() {
        let a = rl(&[0, 1, 9, 9, 9]);
        let b = rl(&[1, 0, 8, 8, 8]);
        assert_eq!(jaccard_at_k(&a, &b, 2), 1.0);
    }

    #[test]
    fn jaccard_empty() {
        assert_eq!(jaccard_at_k(&rl(&[]), &rl(&[]), 5), 1.0);
    }

    #[test]
    fn kendall_identical_reversed() {
        let a = rl(&[0, 1, 2, 3]);
        assert_eq!(kendall_tau(&a, &a), 1.0);
        let r = rl(&[3, 2, 1, 0]);
        assert_eq!(kendall_tau(&a, &r), -1.0);
    }

    #[test]
    fn kendall_single_swap() {
        let a = rl(&[0, 1, 2, 3]);
        let b = rl(&[1, 0, 2, 3]);
        // 6 pairs, 1 discordant: (5-1)/6
        assert!((kendall_tau(&a, &b) - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn kendall_restricted_to_common() {
        let a = rl(&[0, 1, 2]);
        let b = rl(&[2, 0, 9, 8]);
        // Common {0, 2}: a orders 0<2, b orders 2<0 -> one discordant pair.
        assert_eq!(kendall_tau(&a, &b), -1.0);
    }

    #[test]
    fn kendall_too_few_common() {
        assert_eq!(kendall_tau(&rl(&[0]), &rl(&[0])), 1.0);
        assert_eq!(kendall_tau(&rl(&[0, 1]), &rl(&[2, 3])), 1.0);
    }

    #[test]
    fn rbo_identical_is_one() {
        let a = rl(&[0, 1, 2, 3, 4]);
        assert!((rank_biased_overlap(&a, &a, 0.9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rbo_disjoint_is_zero() {
        let a = rl(&[0, 1, 2]);
        let b = rl(&[3, 4, 5]);
        assert_eq!(rank_biased_overlap(&a, &b, 0.9), 0.0);
    }

    #[test]
    fn rbo_top_weighted() {
        // Agreement at the top should score higher than the same agreement
        // at the bottom.
        let base = rl(&[0, 1, 2, 3]);
        let top_agree = rl(&[0, 1, 9, 8]);
        let bottom_agree = rl(&[9, 8, 2, 3]);
        let hi = rank_biased_overlap(&base, &top_agree, 0.9);
        let lo = rank_biased_overlap(&base, &bottom_agree, 0.9);
        assert!(hi > lo, "{hi} vs {lo}");
    }

    #[test]
    #[should_panic(expected = "persistence")]
    fn rbo_invalid_p_panics() {
        rank_biased_overlap(&rl(&[0]), &rl(&[0]), 1.0);
    }

    #[test]
    fn ndcg_perfect_and_worst() {
        let gains = [3.0, 2.0, 1.0, 0.0];
        let perfect = rl(&[0, 1, 2, 3]);
        assert!((ndcg_at_k(&perfect, &gains, 4) - 1.0).abs() < 1e-12);
        let reversed = rl(&[3, 2, 1, 0]);
        let v = ndcg_at_k(&reversed, &gains, 4);
        assert!(v < 0.8 && v > 0.0, "{v}");
        // Perfect beats any permutation.
        let mixed = rl(&[1, 0, 2, 3]);
        assert!(ndcg_at_k(&mixed, &gains, 4) < 1.0);
    }

    #[test]
    fn ndcg_depth_and_zero_gain() {
        let gains = [1.0, 1.0, 0.0];
        // At depth 2, ranking the two gain-1 nodes first is perfect.
        assert_eq!(ndcg_at_k(&rl(&[1, 0, 2]), &gains, 2), 1.0);
        assert_eq!(ndcg_at_k(&rl(&[0, 1, 2]), &[0.0, 0.0, 0.0], 3), 1.0);
    }

    #[test]
    fn footrule_identity_and_reverse() {
        let a = rl(&[0, 1, 2, 3]);
        assert_eq!(spearman_footrule(&a, &a), 1.0);
        let r = rl(&[3, 2, 1, 0]);
        assert!(spearman_footrule(&a, &r) < 0.01);
    }

    #[test]
    fn footrule_ignores_missing() {
        let a = rl(&[0, 1, 2]);
        let b = rl(&[0, 1, 9]);
        // Common {0,1} at identical positions -> 1.0
        assert_eq!(spearman_footrule(&a, &b), 1.0);
    }
}
