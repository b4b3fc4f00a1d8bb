//! Table II bench: the Amazon co-purchase comparison (PR α=0.85, CycleRank
//! K=5 σ=exp, PPR α=0.85) for references "1984" and "The Fellowship of the
//! Ring" — on the labelled fixture and on the full-size generated
//! co-purchase graph, each one `Query` as served.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use relcore::Query;
use reldata::fixtures;
use relgraph::NodeId;
use std::hint::black_box;
use std::sync::Arc;

fn bench_table2(c: &mut Criterion) {
    for block in relbench::tables::table2() {
        println!(
            "\nTable II, reference {}:\n{}",
            block.caption,
            relbench::render(&block.measured, 5)
        );
    }

    let mut group = c.benchmark_group("table2");
    for (name, sc) in
        [("1984", fixtures::amazon_books()), ("fellowship", fixtures::amazon_books_fellowship())]
    {
        let g = Arc::new(sc.graph.clone());
        let r = sc.reference_node();
        let query = |algorithm: &str| Query::on(black_box(&g)).algorithm(algorithm).reference(r);
        group.bench_with_input(BenchmarkId::new("pagerank_a085", name), &sc, |b, _| {
            b.iter(|| query("pagerank").alpha(0.85).run().unwrap())
        });
        group.bench_with_input(BenchmarkId::new("cyclerank_k5", name), &sc, |b, _| {
            b.iter(|| query("cyclerank").k(5).run().unwrap())
        });
        group.bench_with_input(BenchmarkId::new("ppr_a085", name), &sc, |b, _| {
            b.iter(|| query("ppr").alpha(0.85).run().unwrap())
        });
    }

    // Full-size generated co-purchase graph (~20k products).
    let g = Arc::new(reldata::load_dataset("amazon-copurchase").expect("registry dataset"));
    let query = |algorithm: &str| {
        Query::on(black_box(&g)).algorithm(algorithm).reference(NodeId::new(100))
        // an ordinary product
    };
    group.bench_function("cyclerank_k5/amazon-20k", |b| {
        b.iter(|| query("cyclerank").k(5).run().unwrap())
    });
    group.bench_function("ppr_a085/amazon-20k", |b| {
        b.iter(|| query("ppr").alpha(0.85).run().unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
