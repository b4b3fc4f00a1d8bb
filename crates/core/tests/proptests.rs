//! Property-based tests for the relevance algorithms.

use proptest::prelude::*;
use relcore::cyclerank::{cyclerank, CycleRankConfig};
use relcore::ppr::TeleportVector;
use relcore::push::{ppr_push_full, PushConfig};
use relcore::runner::Algorithm;
use relcore::solver::{Scheme, SolverConfig, SweepKernel};
use relcore::{AlgorithmRegistry, Query, ScoreVector, ScoringFunction};
use relgraph::{DirectedGraph, GraphBuilder, NodeId};
use std::str::FromStr;
use std::sync::Arc;

fn edge_list(max_nodes: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..max_nodes, 0..max_nodes), 1..max_edges)
}

fn weighted_edge_list(
    max_nodes: u32,
    max_edges: usize,
) -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    prop::collection::vec((0..max_nodes, 0..max_nodes, 0.1f64..10.0), 1..max_edges)
}

/// The four stationary built-ins, and whether each solve sweeps the
/// transposed view.
const STATIONARY: [(Algorithm, bool); 4] = [
    (Algorithm::PageRank, false),
    (Algorithm::PersonalizedPageRank, false),
    (Algorithm::CheiRank, true),
    (Algorithm::PersonalizedCheiRank, true),
];

/// Every stationary built-in under every scheme, through `Query`:
/// `(algorithm, transposed, scheme, scores)`. Personalized runs restart
/// at `seed`; global runs ignore it.
fn stationary_runs(
    g: &Arc<DirectedGraph>,
    alpha: f64,
    seed: NodeId,
) -> Vec<(Algorithm, bool, Scheme, ScoreVector)> {
    let mut runs = Vec::new();
    for (algorithm, transposed) in STATIONARY {
        for scheme in Scheme::ALL {
            let result = Query::on(g)
                .algorithm(algorithm)
                .alpha(alpha)
                .scheme(scheme)
                .reference(seed)
                .run()
                .unwrap();
            runs.push((algorithm, transposed, scheme, result.output.scores.unwrap()));
        }
    }
    runs
}

proptest! {
    /// Every stationary built-in's scores are a probability distribution:
    /// non-negative and summing to 1.
    #[test]
    fn pagerank_is_distribution(edges in edge_list(30, 150), alpha in 0.05f64..0.95) {
        let g = Arc::new(GraphBuilder::from_edge_indices(edges));
        for (algorithm, _, scheme, s) in stationary_runs(&g, alpha, NodeId::new(0)) {
            prop_assert!((s.sum() - 1.0).abs() < 1e-6, "{} under {:?}", algorithm, scheme);
            prop_assert!(s.as_slice().iter().all(|&v| v >= 0.0), "{} under {:?}", algorithm, scheme);
        }
    }

    /// Every node keeps at least its bare teleport mass (1−α)·t(u): (1−α)/n
    /// under a uniform teleport, 1−α on the seed of a personalized one.
    #[test]
    fn pagerank_teleport_floor(edges in edge_list(25, 100), alpha in 0.1f64..0.9, seed in 0u32..25) {
        let g = Arc::new(GraphBuilder::from_edge_indices(edges));
        let seed = NodeId::new(seed % g.node_count() as u32);
        for (algorithm, _, scheme, s) in stationary_runs(&g, alpha, seed) {
            if algorithm.is_personalized() {
                prop_assert!(s.get(seed) >= 1.0 - alpha - 1e-9, "{} under {:?}", algorithm, scheme);
            } else {
                let floor = (1.0 - alpha) / g.node_count() as f64;
                prop_assert!(s.as_slice().iter().all(|&v| v >= floor - 1e-9), "{} under {:?}", algorithm, scheme);
            }
        }
    }

    /// A personalized run puts positive mass on the seed and none outside
    /// the set it reaches in the solved orientation (forward for PPR,
    /// reversed for Pers. CheiRank); a global run reaches every node.
    #[test]
    fn ppr_support_is_reachable_set(edges in edge_list(25, 100), seed in 0u32..25) {
        let g = Arc::new(GraphBuilder::from_edge_indices(edges));
        let seed = NodeId::new(seed % g.node_count() as u32);
        for (algorithm, transposed, scheme, s) in stationary_runs(&g, 0.85, seed) {
            prop_assert!(s.get(seed) > 0.0, "{} under {:?}", algorithm, scheme);
            if !algorithm.is_personalized() {
                prop_assert!(s.as_slice().iter().all(|&v| v > 0.0), "{} under {:?}", algorithm, scheme);
                continue;
            }
            let view = if transposed { g.transposed() } else { g.view() };
            let dist = relgraph::traversal::bfs_distances_view(view, seed);
            for u in g.nodes() {
                if dist[u.index()] == u32::MAX {
                    prop_assert_eq!(s.get(u), 0.0, "{} under {:?}: unreachable {:?} has mass", algorithm, scheme, u);
                }
            }
        }
    }

    /// Forward push approximates exact PPR within the ACL residual bound:
    /// at termination every residual satisfies r[u] ≤ ε·deg(u), and the
    /// error vector is Σ_u r[u]·ppr_u, so its **L1 norm** is at most
    /// Σ_u ε·deg(u) ≤ ε·(|E| + |V|). (A pointwise per-node bound does NOT
    /// hold on directed graphs — mass can funnel into one node.)
    #[test]
    fn push_error_bound_l1(edges in edge_list(20, 80), seed in 0u32..20) {
        let g = GraphBuilder::from_edge_indices(edges);
        let seed = NodeId::new(seed % g.node_count() as u32);
        let eps = 1e-6;
        let (approx, _, _) = ppr_push_full(
            g.view(),
            &PushConfig { damping: 0.85, epsilon: eps, max_pushes: usize::MAX },
            seed,
        ).unwrap();
        let exact = SweepKernel::new(g.view()).unwrap().solve(
            &SolverConfig { tolerance: 1e-13, max_iterations: 5000, ..Default::default() },
            &TeleportVector::single(g.node_count(), seed).unwrap(),
        ).unwrap().scores;
        let l1: f64 = g.nodes().map(|u| (approx.get(u) - exact.get(u)).abs()).sum();
        let bound = eps * (g.edge_count() + g.node_count()) as f64 + 1e-8;
        prop_assert!(l1 <= bound, "L1 error {l1} > bound {bound}");
        // Push never overestimates total mass.
        prop_assert!(approx.sum() <= 1.0 + 1e-12);
    }

    /// CycleRank invariants: non-negative, reference attains the max,
    /// scores are zero iff the node lies on no qualifying cycle, and the
    /// total score is monotone in K.
    #[test]
    fn cyclerank_invariants(edges in edge_list(15, 70), r in 0u32..15) {
        let g = GraphBuilder::from_edge_indices(edges);
        let r = NodeId::new(r % g.node_count() as u32);
        let mut prev_total = -1.0;
        for k in 2..=5u32 {
            let out = cyclerank(&g, r, &CycleRankConfig::with_k(k)).unwrap();
            let max = out.scores.as_slice().iter().cloned().fold(f64::MIN, f64::max);
            prop_assert!(out.scores.as_slice().iter().all(|&v| v >= 0.0));
            prop_assert!(out.scores.get(r) >= max - 1e-12, "reference not maximal");
            let total = out.scores.sum();
            prop_assert!(total >= prev_total - 1e-12, "not monotone in K");
            prev_total = total;
            // cycles_found == 0 <=> all scores zero.
            prop_assert_eq!(out.cycles_found == 0, total == 0.0);
        }
    }

    /// CycleRank with the constant scoring function: the reference node's
    /// score equals the total number of cycles found.
    #[test]
    fn cyclerank_constant_scoring_counts_cycles(edges in edge_list(12, 50), r in 0u32..12) {
        let g = GraphBuilder::from_edge_indices(edges);
        let r = NodeId::new(r % g.node_count() as u32);
        let cfg = CycleRankConfig { max_cycle_len: 4, scoring: ScoringFunction::Constant, use_edge_weights: false };
        let out = cyclerank(&g, r, &cfg).unwrap();
        prop_assert!((out.scores.get(r) - out.cycles_found as f64).abs() < 1e-9);
    }

    /// CycleRank is insensitive to damping-style params and symmetric under
    /// graph relabeling: permuting node ids permutes scores.
    #[test]
    fn cyclerank_permutation_equivariance(edges in edge_list(10, 40), shift in 1u32..9) {
        let g = GraphBuilder::from_edge_indices(edges.clone());
        let n = g.node_count() as u32;
        if n < 2 { return Ok(()); }
        let perm = |u: u32| (u + shift) % n;
        let permuted: Vec<(u32, u32)> = edges.iter().map(|&(u, v)| (perm(u), perm(v))).collect();
        let mut b = GraphBuilder::new();
        for (u, v) in permuted { b.add_edge_indices(u, v); }
        b.ensure_node(n - 1);
        let g2 = b.build();
        let r = NodeId::new(0);
        let cfg = CycleRankConfig::with_k(4);
        let out1 = cyclerank(&g, r, &cfg).unwrap();
        let out2 = cyclerank(&g2, NodeId::new(perm(0)), &cfg).unwrap();
        prop_assert_eq!(out1.cycles_found, out2.cycles_found);
        for u in 0..n {
            let a = out1.scores.get(NodeId::new(u));
            let b = out2.scores.get(NodeId::new(perm(u)));
            prop_assert!((a - b).abs() < 1e-12, "node {}: {} vs {}", u, a, b);
        }
    }

    /// The Query front door produces a full permutation ranking for every
    /// algorithm.
    #[test]
    fn query_rankings_are_permutations(edges in edge_list(12, 60), r in 0u32..12) {
        let g = GraphBuilder::from_edge_indices(edges);
        let r = NodeId::new(r % g.node_count() as u32);
        let g = Arc::new(g);
        for algo in Algorithm::ALL {
            let out = Query::on(&g).algorithm(algo).reference(r).run().unwrap();
            let mut ids: Vec<u32> = out.output.ranking.as_slice().iter().map(|n| n.raw()).collect();
            ids.sort_unstable();
            let want: Vec<u32> = (0..g.node_count() as u32).collect();
            prop_assert_eq!(ids, want, "{} ranking not a permutation", algo);
        }
    }

    /// Solver-layer contract: the two kernel update schemes — power
    /// iteration and chunked parallel pull — agree
    /// within 10× the convergence tolerance on random *weighted* graphs,
    /// for PageRank (forward view, uniform teleport), PPR (forward view,
    /// reference teleport), and CheiRank (transposed view, uniform
    /// teleport). Damping stays ≤ 0.7 so the tolerance→fixed-point error
    /// bound `tol·α/(1−α)` keeps pairwise disagreement under the budget.
    #[test]
    fn kernel_schemes_agree_within_tolerance(
        edges in weighted_edge_list(25, 120),
        seed in 0u32..25,
        alpha in 0.05f64..0.7,
        threads in 1usize..5,
    ) {
        let mut b = GraphBuilder::new();
        for &(u, v, w) in &edges {
            if u != v {
                b.add_weighted_edge(NodeId::new(u), NodeId::new(v), w);
            }
        }
        b.ensure_node(24);
        let g = b.build();
        let seed = NodeId::new(seed % g.node_count() as u32);
        let tolerance = 1e-12;
        let budget = 10.0 * tolerance;

        let teleports = [
            ("pagerank", TeleportVector::uniform(g.node_count()).unwrap(), false),
            ("ppr", TeleportVector::single(g.node_count(), seed).unwrap(), false),
            ("cheirank", TeleportVector::uniform(g.node_count()).unwrap(), true),
            ("pcheirank", TeleportVector::single(g.node_count(), seed).unwrap(), true),
        ];
        for (name, teleport, transposed) in teleports {
            let view = if transposed { g.transposed() } else { g.view() };
            let kernel = SweepKernel::new(view).unwrap();
            let mut solved = Vec::new();
            for scheme in Scheme::ALL {
                let cfg = SolverConfig {
                    damping: alpha,
                    tolerance,
                    max_iterations: 3000,
                    scheme,
                    threads,
                    record_trace: false,
                };
                let out = kernel.solve(&cfg, &teleport).unwrap();
                prop_assert!(out.convergence.converged, "{name}/{scheme} did not converge");
                prop_assert!((out.scores.sum() - 1.0).abs() < 1e-9, "{name}/{scheme} off simplex");
                solved.push((scheme, out.scores));
            }
            for i in 0..solved.len() {
                for j in i + 1..solved.len() {
                    for u in g.nodes() {
                        let (a, b) = (solved[i].1.get(u), solved[j].1.get(u));
                        prop_assert!(
                            (a - b).abs() < budget,
                            "{name}: {} vs {} differ at {:?}: {} vs {}",
                            solved[i].0, solved[j].0, u, a, b
                        );
                    }
                }
            }
        }
    }

    /// Warm starting is bitwise-safe plumbing: seeding the kernel's warm
    /// path with the **dense teleport vector** must reproduce the cold
    /// solve bit for bit (identical scores and convergence) for every
    /// scheme — the warm path changes only the starting iterate, never
    /// the arithmetic. Seeding with the cold solve's own fixed point must
    /// converge to the same scores within solver tolerance, on the
    /// probability simplex, in no more sweeps than the cold run.
    #[test]
    fn warm_start_agrees_with_cold(
        edges in weighted_edge_list(25, 120),
        raw_seed in 0u32..25,
        threads in 1usize..4,
    ) {
        let mut b = GraphBuilder::new();
        b.ensure_node(24);
        for (u, v, w) in edges {
            if u != v {
                b.add_weighted_edge(NodeId::new(u), NodeId::new(v), w);
            }
        }
        let g = b.build();
        let seed = NodeId::new(raw_seed % g.node_count() as u32);
        let kernel = SweepKernel::new(g.view()).unwrap();
        let teleports = [
            TeleportVector::uniform(g.node_count()).unwrap(),
            TeleportVector::single(g.node_count(), seed).unwrap(),
        ];
        for teleport in teleports {
            let dense = teleport.dense();
            for scheme in Scheme::ALL {
                let cfg = SolverConfig {
                    tolerance: 1e-12,
                    max_iterations: 3000,
                    scheme,
                    threads,
                    ..Default::default()
                };
                let cold = kernel.solve(&cfg, &teleport).unwrap();
                // Bitwise: warm from the cold start point IS the cold run.
                let bitwise = kernel.solve_warm(&cfg, &teleport, &dense).unwrap();
                prop_assert_eq!(bitwise.scores.as_slice(), cold.scores.as_slice(),
                    "{} warm-from-teleport diverged", scheme);
                prop_assert_eq!(bitwise.convergence, cold.convergence);
                // Genuine warm start: same fixed point, on the simplex,
                // no slower than cold (all schemes, incl. Gauss–Seidel's
                // renormalized iterate).
                let warm = kernel.solve_warm(&cfg, &teleport, cold.scores.as_slice()).unwrap();
                prop_assert!(warm.convergence.converged, "{scheme}");
                prop_assert!((warm.scores.sum() - 1.0).abs() < 1e-9,
                    "{} warm scores off the simplex: {}", scheme, warm.scores.sum());
                prop_assert!((cold.scores.sum() - 1.0).abs() < 1e-9,
                    "{} cold scores off the simplex: {}", scheme, cold.scores.sum());
                prop_assert!(warm.convergence.iterations <= cold.convergence.iterations,
                    "{}: warm {} sweeps > cold {}", scheme,
                    warm.convergence.iterations, cold.convergence.iterations);
                for u in g.nodes() {
                    prop_assert!(
                        (warm.scores.get(u) - cold.scores.get(u)).abs() < 1e-10,
                        "{} node {:?}", scheme, u
                    );
                }
            }
        }
    }

    /// Ranking metrics: self-similarity axioms hold for arbitrary score
    /// vectors.
    #[test]
    fn compare_metric_axioms(scores in prop::collection::vec(0.0f64..1.0, 2..40)) {
        let s = relcore::ScoreVector::new(scores);
        let r = s.ranking();
        prop_assert_eq!(relcore::compare::kendall_tau(&r, &r), 1.0);
        prop_assert!((relcore::compare::rank_biased_overlap(&r, &r, 0.9) - 1.0).abs() < 1e-9);
        prop_assert_eq!(relcore::compare::spearman_footrule(&r, &r), 1.0);
        prop_assert_eq!(relcore::compare::jaccard_at_k(&r, &r, 5), 1.0);
    }

    /// Batched multi-seed queries are **bit-for-bit** equal to per-seed
    /// sequential runs: for PPR and Pers. CheiRank on random weighted
    /// graphs, `Query::seeds([...]).run_batch()` (one fused multi-vector
    /// sweep) reproduces every score, convergence diagnostic, and ranking
    /// of the independent `Query::run` calls exactly.
    #[test]
    fn batched_multi_seed_bitwise_equals_sequential(
        edges in weighted_edge_list(25, 120),
        raw_seeds in prop::collection::vec(0u32..25, 1..9),
        algo_idx in 0usize..2,
        threads in 0usize..4,
    ) {
        let algorithm = ["ppr", "pcheirank"][algo_idx];
        let mut b = GraphBuilder::new();
        b.ensure_node(24);
        for (u, v, w) in edges {
            if u != v {
                b.add_weighted_edge(NodeId::new(u), NodeId::new(v), w);
            }
        }
        let g = Arc::new(b.build());
        let seeds: Vec<NodeId> = raw_seeds.iter().map(|&s| NodeId::new(s)).collect();

        let batch = Query::on(&g)
            .algorithm(algorithm)
            .seeds(seeds.clone())
            .threads(threads)
            .top(5)
            .run_batch()
            .unwrap();
        prop_assert_eq!(batch.len(), seeds.len());

        for (i, &seed) in seeds.iter().enumerate() {
            let single = Query::on(&g)
                .algorithm(algorithm)
                .reference(seed)
                .threads(threads)
                .top(5)
                .run()
                .unwrap();
            let single_scores = single.scores().unwrap().as_slice();
            let batch_scores = batch.outputs[i].scores.as_ref().unwrap().as_slice();
            prop_assert_eq!(single_scores, batch_scores,
                "{} seed {:?}: batched scores diverge", algorithm, seed);
            let sum: f64 = batch_scores.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-8,
                "{} seed {:?}: batched scores off the simplex: {}", algorithm, seed, sum);
            let sc = single.output.convergence.unwrap();
            let bc = batch.outputs[i].convergence.unwrap();
            prop_assert_eq!(sc.iterations, bc.iterations);
            prop_assert_eq!(sc.residual.to_bits(), bc.residual.to_bits());
            prop_assert_eq!(sc.converged, bc.converged);
            prop_assert_eq!(&single.output.ranking, &batch.outputs[i].ranking);
            prop_assert_eq!(single.top_entries(), batch.top_entries(i));
        }
    }
}

// ------------------------------------------------------------------
// Algorithm names: the task-JSON tag resolves through the registry.

/// Every task-JSON tag names a registered algorithm: each `Algorithm::ALL`
/// id resolves in the global registry, and its id and display name parse
/// back to the same variant.
#[test]
fn every_enum_id_resolves_in_registry() {
    let registry = AlgorithmRegistry::global();
    for algo in Algorithm::ALL {
        let entry =
            registry.get(algo.id()).unwrap_or_else(|| panic!("{} not in registry", algo.id()));
        assert_eq!(entry.id(), algo.id());
        assert_eq!(Algorithm::from_str(algo.id()), Ok(algo));
        assert_eq!(Algorithm::from_str(algo.display_name()), Ok(algo));
    }
}

/// Every spelling the global registry holds — `(spelling, id)` for each
/// registered algorithm's id, display name and aliases.
fn registry_spellings() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for algo in AlgorithmRegistry::global().list() {
        let names =
            [algo.id(), algo.display_name()].into_iter().chain(algo.aliases().iter().copied());
        out.extend(names.map(|name| (name.to_string(), algo.id().to_string())));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Algorithm::from_str` accepts exactly the registry's spellings: a
    /// registered spelling, recased and with a separator inserted, parses
    /// to the variant of the registry's id, which round-trips; any other
    /// text is rejected and echoed as typed.
    #[test]
    fn fromstr_aliases_roundtrip_through_registry(
        pick in prop::sample::select(registry_spellings()),
        case_mask in 0u64..u64::MAX,
        sep in 0usize..3,
        at in 0usize..32,
        noise in "[a-zA-Z0-9 ._]{0,10}",
    ) {
        let (spelling, id) = pick;
        let mut typed: String = spelling
            .chars()
            .enumerate()
            .map(|(i, c)| if case_mask >> (i % 64) & 1 == 1 { c.to_ascii_uppercase() } else { c })
            .collect();
        typed.insert(at % (typed.len() + 1), ['-', '_', ' '][sep]);
        let parsed = Algorithm::from_str(&typed);
        prop_assert!(parsed.is_ok(), "{:?} (from {:?}) rejected: {:?}", typed, spelling, parsed);
        let parsed = parsed.unwrap();
        prop_assert_eq!(parsed.id(), id.as_str());
        prop_assert_eq!(Algorithm::from_str(parsed.id()), Ok(parsed));

        let registry = AlgorithmRegistry::global();
        match Algorithm::from_str(&noise) {
            Ok(algo) => {
                prop_assert_eq!(registry.get(&noise).map(|a| a.id().to_string()), Some(algo.id().to_string()));
            }
            Err(e) => {
                prop_assert!(registry.get(&noise).is_none(), "registry resolves {:?}", noise);
                prop_assert_eq!(e, format!("unknown algorithm {noise:?}"));
            }
        }
    }
}

// ------------------------------------------------------------------
// Cache-locality layer: reordering invariance and top-k serving mode.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A reordered graph is computationally invisible: PageRank, PPR, and
    /// CheiRank scores on the reordered graph equal the original's up to
    /// the id permutation, for every update scheme, within solver
    /// tolerance.
    #[test]
    fn reordered_graph_scores_invariant(edges in edge_list(25, 100), raw_seed in 0u32..25) {
        let g = GraphBuilder::from_edge_indices(edges);
        let seed = NodeId::new(raw_seed % g.node_count() as u32);
        let g = Arc::new(g);
        for ordering in [relgraph::NodeOrdering::DegreeDescending, relgraph::NodeOrdering::Bfs] {
            let (rg, inverse) = g.reordered_by(ordering).unwrap();
            let forward = inverse.inverse();
            let rg = Arc::new(rg);
            for algorithm in ["pagerank", "ppr", "cheirank"] {
                for scheme in Scheme::ALL {
                    let mut q = Query::on(&g).algorithm(algorithm).scheme(scheme);
                    let mut rq = Query::on(&rg).algorithm(algorithm).scheme(scheme);
                    if algorithm == "ppr" {
                        q = q.reference(seed);
                        rq = rq.reference(forward.map(seed));
                    }
                    let s = q.run().unwrap();
                    let rs = rq.run().unwrap();
                    let (s, rs) = (s.scores().unwrap(), rs.scores().unwrap());
                    for u in g.nodes() {
                        let (a, b) = (s.get(u), rs.get(forward.map(u)));
                        prop_assert!(
                            (a - b).abs() < 1e-9,
                            "{ordering}/{algorithm}/{scheme} node {:?}: {} vs {}", u, a, b
                        );
                    }
                }
            }
        }
    }

    /// `Query::top_k(k)` returns exactly the top-k node set of the full
    /// run for the whole stationary family — on the exact kernel path
    /// (global algorithms) bitwise including order and scores, on the
    /// certified-push path (personalized) as a set with scores within the
    /// adaptive policy's worst-case residual mass.
    #[test]
    fn query_top_k_matches_full_run(
        edges in edge_list(25, 100),
        raw_seed in 0u32..25,
        k in 1usize..8,
    ) {
        let g = GraphBuilder::from_edge_indices(edges);
        let seed = NodeId::new(raw_seed % g.node_count() as u32);
        let g = Arc::new(g);
        for algorithm in ["pagerank", "cheirank", "ppr", "pcheirank"] {
            let personalized = matches!(algorithm, "ppr" | "pcheirank");
            let mut full = Query::on(&g).algorithm(algorithm).top(k);
            let mut topk = Query::on(&g).algorithm(algorithm).top_k(k);
            if personalized {
                full = full.reference(seed);
                topk = topk.reference(seed);
            }
            let full = full.run().unwrap();
            let topk = topk.run().unwrap();
            let want = full.scores().unwrap().top_k(k);
            let got = topk.output.top.as_ref().expect("top-k mode returns pairs");
            prop_assert_eq!(got.len(), want.len(), "{}", algorithm);
            prop_assert!(topk.scores().is_none(), "{}: no full vector in top-k mode", algorithm);
            prop_assert_eq!(topk.ranking().len(), k.min(g.node_count()), "{}", algorithm);

            let mut want_nodes: Vec<NodeId> = want.iter().map(|&(n, _)| n).collect();
            let mut got_nodes: Vec<NodeId> = got.iter().map(|&(n, _)| n).collect();
            if personalized {
                // Certified push guarantees the set; order within the set
                // follows the estimates. Scores under-approximate by at
                // most the certified residual mass (≤ first-round ε·(m+n)
                // ≤ 0.01/k by the adaptive policy).
                want_nodes.sort_unstable();
                got_nodes.sort_unstable();
                prop_assert_eq!(want_nodes, got_nodes, "{} top-k set diverges", algorithm);
                let exact: std::collections::HashMap<NodeId, f64> = want.iter().copied().collect();
                for &(n, s) in got {
                    let e = exact[&n];
                    prop_assert!(s <= e + 1e-9, "{}: over-estimate at {:?}", algorithm, n);
                    prop_assert!(e - s <= 0.011, "{}: error beyond policy bound at {:?}", algorithm, n);
                }
            } else {
                // Exact kernel path: bitwise identical pairs.
                prop_assert_eq!(got.clone(), want, "{} exact top-k diverges", algorithm);
            }
        }
    }
}

// ------------------------------------------------------------------
// Top-k serving edge cases and warm-started queries (plain tests).

/// `Query::top_k` degenerate shapes: k = 0 (empty result, nothing
/// solved into the payload), k ≥ n (full ranking, certified push
/// correctly declines), and an exactly-tied rank boundary (push cannot
/// certify; the exact-kernel fallback still returns the true set).
#[test]
fn query_top_k_degenerate_and_tied_ranks() {
    // Symmetric star: every leaf's PPR score ties exactly.
    let mut b = GraphBuilder::new();
    for i in 1..=6u32 {
        b.add_edge_indices(0, i);
        b.add_edge_indices(i, 0);
    }
    let g = Arc::new(b.build());
    let n = g.node_count();

    for algorithm in ["pagerank", "ppr"] {
        let q = |k: usize| {
            let mut q = Query::on(&g).algorithm(algorithm).top_k(k);
            if algorithm == "ppr" {
                q = q.reference(NodeId::new(0));
            }
            q.run().unwrap()
        };
        // k = 0: empty everything, still a well-formed result.
        let empty = q(0);
        assert_eq!(empty.output.top.as_deref(), Some(&[][..]), "{algorithm}");
        assert!(empty.ranking().is_empty(), "{algorithm}");
        assert!(empty.top_entries().is_empty(), "{algorithm}");
        assert!(empty.scores().is_none(), "{algorithm}: top-k mode has no full vector");

        // k >= n (also k far beyond n): the whole ranking comes back,
        // exactly matching the full run.
        for k in [n, n + 5, 10 * n] {
            let all = q(k);
            let full = {
                let mut f = Query::on(&g).algorithm(algorithm).top(n);
                if algorithm == "ppr" {
                    f = f.reference(NodeId::new(0));
                }
                f.run().unwrap()
            };
            let got = all.output.top.as_ref().unwrap();
            assert_eq!(got.len(), n, "{algorithm} k={k}");
            assert_eq!(got.clone(), full.scores().unwrap().top_k(n), "{algorithm} k={k}");
        }
    }

    // Tied boundary: k = 3 cuts through the six tied leaves. Certified
    // push must decline and the kernel fallback must return the exact
    // top-k (hub + lowest-id leaves, by the deterministic tie-break).
    let tied = Query::on(&g).algorithm("ppr").reference(NodeId::new(0)).top_k(3).run().unwrap();
    let full = Query::on(&g).algorithm("ppr").reference(NodeId::new(0)).top(n).run().unwrap();
    assert_eq!(tied.output.top.as_ref().unwrap().clone(), full.scores().unwrap().top_k(3));
}

/// `Query::warm_start` end to end: warm-started queries converge to the
/// cold query's scores (within solver tolerance) in fewer sweeps, across
/// the stationary family; non-iterative algorithms simply ignore the
/// warm vector.
#[test]
fn query_warm_start_matches_cold() {
    let g = Arc::new(GraphBuilder::from_edge_indices([
        (0, 1),
        (1, 0),
        (1, 2),
        (2, 1),
        (2, 3),
        (3, 0),
        (0, 4),
        (4, 2),
    ]));
    for algorithm in ["pagerank", "ppr", "cheirank", "pcheirank"] {
        let personalized = matches!(algorithm, "ppr" | "pcheirank");
        let run = |warm: Option<relcore::ScoreVector>| {
            let mut q = Query::on(&g).algorithm(algorithm).top(5);
            if personalized {
                q = q.reference(NodeId::new(0));
            }
            if let Some(prev) = warm {
                q = q.warm_start(prev);
            }
            q.run().unwrap()
        };
        let cold = run(None);
        let warm = run(Some(cold.scores().unwrap().clone()));
        for u in g.nodes() {
            let (a, b) = (cold.scores().unwrap().get(u), warm.scores().unwrap().get(u));
            assert!((a - b).abs() < 1e-8, "{algorithm} node {u:?}: {a} vs {b}");
        }
        assert!(
            warm.output.convergence.unwrap().iterations
                <= cold.output.convergence.unwrap().iterations,
            "{algorithm}: warm start must not be slower"
        );
    }
    // Mismatched warm vectors are rejected, not silently truncated.
    let bad = relcore::ScoreVector::new(vec![0.1; 3]);
    assert!(Query::on(&g).algorithm("pagerank").warm_start(bad).run().is_err());
    // CycleRank has no iterate to seed: the warm vector is ignored.
    let prev = relcore::ScoreVector::new(vec![0.2; 5]);
    let r = Query::on(&g)
        .algorithm("cyclerank")
        .reference(NodeId::new(0))
        .warm_start(prev)
        .run()
        .unwrap();
    assert!(r.output.cycles_found.unwrap() > 0);
}

/// Warm start composes with top-k serving mode: the warm top-k equals
/// the cold full run's top-k.
#[test]
fn query_warm_start_top_k_serving() {
    let g =
        Arc::new(GraphBuilder::from_edge_indices([(0, 1), (1, 0), (1, 2), (2, 0), (3, 2), (0, 3)]));
    let cold = Query::on(&g).algorithm("ppr").reference(NodeId::new(0)).top(4).run().unwrap();
    let warm = Query::on(&g)
        .algorithm("ppr")
        .reference(NodeId::new(0))
        .warm_start(cold.scores().unwrap().clone())
        .top_k(2)
        .run()
        .unwrap();
    let got: Vec<NodeId> = warm.output.top.as_ref().unwrap().iter().map(|&(n, _)| n).collect();
    let want: Vec<NodeId> = cold.scores().unwrap().top_k(2).into_iter().map(|(n, _)| n).collect();
    assert_eq!(got, want);
}
