//! `batch_ppr`: amortized per-seed cost of batched multi-seed PPR.
//!
//! The batched query path: a 16-seed `Query::seeds([...]).run_batch()`
//! (16 lanes of one pull sweep over the edge arrays) against 16
//! sequential `Query::run` calls on the classic `fixture-enwiki-2018`
//! fixture, both through the registry-backed front door production uses.
//! Beyond the criterion groups, the bench prints the measured amortized
//! per-seed times and their ratio; results are bitwise identical either
//! way, which the `batched_multi_seed_bitwise_equals_sequential` proptest
//! enforces.
//!
//! What the ratio measures: on this 391-node fixture a sequential run is
//! mostly per-solve overhead, which the batch pays once (2.2× in
//! `BENCH_batch_ppr.json`); on `relmark`'s 64k-node graph, where the sweep
//! dominates, a 16-seed batch is ≈ 1.4× cheaper per seed than one solve.

use criterion::{criterion_group, criterion_main, Criterion};
use relbench::record::BenchReport;
use relcore::Query;
use relgraph::NodeId;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const BATCH: usize = 16;

fn bench_batch_ppr(c: &mut Criterion) {
    let g = Arc::new(reldata::load_dataset("fixture-enwiki-2018").expect("classic fixture"));
    // 16 content-page seeds (nodes 5..21). Nodes 0..5 are the fixture's
    // global hub pages, which dangle (no out-links) and so converge in a
    // single sweep — a degenerate shape for a personalization benchmark,
    // where seeds are ordinary user/content pages.
    let seeds: Vec<NodeId> = (5..5 + BATCH as u32).map(NodeId::new).collect();

    let mut group = c.benchmark_group("batch_ppr");
    group.sample_size(10);
    group.bench_function("sequential_16", |b| {
        b.iter(|| {
            for &seed in &seeds {
                black_box(
                    Query::on(black_box(&g)).algorithm("ppr").reference(seed).top(5).run().unwrap(),
                );
            }
        })
    });
    group.bench_function("batch_16", |b| {
        b.iter(|| {
            black_box(
                Query::on(black_box(&g))
                    .algorithm("ppr")
                    .seeds(seeds.clone())
                    .top(5)
                    .run_batch()
                    .unwrap(),
            )
        })
    });
    group.finish();

    // Headline number: amortized per-seed time, batched vs sequential.
    let reps = 10;
    let start = Instant::now();
    for _ in 0..reps {
        for &seed in &seeds {
            black_box(Query::on(&g).algorithm("ppr").reference(seed).top(5).run().unwrap());
        }
    }
    let sequential = start.elapsed();
    let start = Instant::now();
    for _ in 0..reps {
        black_box(Query::on(&g).algorithm("ppr").seeds(seeds.clone()).top(5).run_batch().unwrap());
    }
    let batched = start.elapsed();
    let per_seed_seq = sequential.as_secs_f64() * 1e6 / (reps * BATCH) as f64;
    let per_seed_batch = batched.as_secs_f64() * 1e6 / (reps * BATCH) as f64;
    println!(
        "batch_ppr/amortized: sequential {per_seed_seq:.1} µs/seed, \
         batched {per_seed_batch:.1} µs/seed, speedup {:.2}x",
        per_seed_seq / per_seed_batch
    );

    let mut report = BenchReport::new("batch_ppr", "fixture-enwiki-2018")
        .param("seeds", BATCH)
        .param("top", 5)
        .param("amortized_speedup", format!("{:.2}", per_seed_seq / per_seed_batch));
    report.case("sequential_per_seed", per_seed_seq * 1e3);
    report.case("batched_per_seed", per_seed_batch * 1e3);
    report.write();
}

criterion_group!(benches, bench_batch_ppr);
criterion_main!(benches);
