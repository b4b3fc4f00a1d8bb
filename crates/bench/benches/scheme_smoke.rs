//! Smoke bench: the two kernel schemes head-to-head on the classic
//! `fixture-enwiki-2018` fixture, through the same registry-backed
//! [`Query`] front door production uses. Small enough that CI runs it on
//! every push as a regression tripwire for the solver layer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use relbench::record::{measure, BenchReport};
use relcore::{Query, Scheme};
use std::hint::black_box;
use std::sync::Arc;

fn bench_scheme_smoke(c: &mut Criterion) {
    let g = Arc::new(reldata::load_dataset("fixture-enwiki-2018").expect("classic fixture"));
    let mut group = c.benchmark_group("scheme_smoke");
    group.sample_size(10);
    for algorithm in ["pagerank", "cheirank", "2drank"] {
        for scheme in Scheme::ALL {
            group.bench_with_input(BenchmarkId::new(algorithm, scheme), &scheme, |b, &scheme| {
                b.iter(|| {
                    Query::on(black_box(&g))
                        .algorithm(algorithm)
                        .scheme(scheme)
                        .threads(2)
                        .top(5)
                        .run()
                        .unwrap()
                })
            });
        }
    }
    // The personalized side: PPR restarting at the fixture's reference.
    for scheme in Scheme::ALL {
        group.bench_with_input(BenchmarkId::new("ppr", scheme), &scheme, |b, &scheme| {
            b.iter(|| {
                Query::on(black_box(&g))
                    .algorithm("ppr")
                    .reference("Freddie Mercury")
                    .scheme(scheme)
                    .threads(2)
                    .top(5)
                    .run()
                    .unwrap()
            })
        });
    }
    group.finish();

    // Machine-readable medians for the perf trajectory.
    let mut report =
        BenchReport::new("scheme_smoke", "fixture-enwiki-2018").param("threads", 2).param("top", 5);
    for algorithm in ["pagerank", "cheirank", "2drank", "ppr"] {
        for scheme in Scheme::ALL {
            let median = measure(5, || {
                let mut q =
                    Query::on(black_box(&g)).algorithm(algorithm).scheme(scheme).threads(2).top(5);
                if algorithm == "ppr" {
                    q = q.reference("Freddie Mercury");
                }
                q.run().unwrap()
            });
            report.case(format!("{algorithm}/{scheme}"), median);
        }
    }
    report.write();
}

criterion_group!(benches, bench_scheme_smoke);
criterion_main!(benches);
