//! Solver-scheme ablation: the shared sweep kernel's power iteration vs
//! chunked parallel pull, head-to-head on Wikipedia-like graphs of growing
//! size. Backs the §II remark that "more efficient algorithms are
//! available" and the Fig. 1 claim that computational nodes scale with
//! workload.
//!
//! Every measurement goes through the same [`relcore::SweepKernel`] the
//! production algorithms use — there are no bench-only code paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use relcore::ppr::TeleportVector;
use relcore::solver::{Scheme, SolverConfig, SweepKernel};
use reldata::wikilink::{generate, WikilinkConfig};
use std::hint::black_box;

fn bench_pagerank_impls(c: &mut Criterion) {
    let base = SolverConfig { tolerance: 1e-10, max_iterations: 500, ..Default::default() };
    let mut group = c.benchmark_group("pagerank_impls");
    group.sample_size(10);
    for nodes in [4_000u32, 16_000, 64_000] {
        let g = generate(&WikilinkConfig::default().with_nodes(nodes), 33);
        let kernel = SweepKernel::new(g.view()).expect("non-empty graph");
        let teleport = TeleportVector::uniform(g.node_count()).expect("non-empty graph");

        group.bench_with_input(BenchmarkId::new("power", nodes), &kernel, |b, k| {
            let cfg = base.with_scheme(Scheme::Power);
            b.iter(|| black_box(k).solve(&cfg, &teleport).unwrap())
        });
        for threads in [2usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("parallel_t{threads}"), nodes),
                &kernel,
                |b, k| {
                    let cfg = base.with_scheme(Scheme::Parallel).with_threads(threads);
                    b.iter(|| black_box(k).solve(&cfg, &teleport).unwrap())
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_pagerank_impls);
criterion_main!(benches);
