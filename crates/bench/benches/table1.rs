//! Table I bench: times the three algorithms of the paper's Table I on the
//! enwiki stand-in (PR α=0.85, CycleRank K=3 σ=exp, PPR α=0.3) for both
//! reference articles, each one `Query` as served, and prints the
//! regenerated columns once up front.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use relcore::Query;
use reldata::fixtures;
use std::hint::black_box;
use std::sync::Arc;

fn bench_table1(c: &mut Criterion) {
    // Print the regenerated table once, so `cargo bench` output doubles as
    // the reproduction record.
    for block in relbench::tables::table1() {
        println!(
            "\nTable I, reference {}:\n{}",
            block.caption,
            relbench::render(&block.measured, 5)
        );
    }

    let mut group = c.benchmark_group("table1");
    for (name, sc) in
        [("freddie", fixtures::enwiki_2018()), ("pasta", fixtures::enwiki_2018_pasta())]
    {
        let g = Arc::new(sc.graph.clone());
        let r = sc.reference_node();
        let query = |algorithm: &str| Query::on(black_box(&g)).algorithm(algorithm).reference(r);
        group.bench_with_input(BenchmarkId::new("pagerank_a085", name), &sc, |b, _| {
            b.iter(|| query("pagerank").alpha(0.85).run().unwrap())
        });
        group.bench_with_input(BenchmarkId::new("cyclerank_k3", name), &sc, |b, _| {
            b.iter(|| query("cyclerank").k(3).run().unwrap())
        });
        group.bench_with_input(BenchmarkId::new("ppr_a03", name), &sc, |b, _| {
            b.iter(|| query("ppr").alpha(0.3).run().unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
