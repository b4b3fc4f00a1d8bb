//! `memory_footprint`: the memory-tier trade-offs in one report —
//! bytes/edge per representation, conversion and image costs, and sweep
//! throughput per representation.
//!
//! The subjects mirror `reorder_locality`'s cache-busting PA graph (150k
//! nodes, m = 8), so the figures compose: the same graph that shows the
//! locality effect shows what the compact delta-varint representation
//! pays (decode work per edge) and saves (bytes per edge, which is what
//! lets bigger graphs stay resident).
//!
//! Reported figures:
//!
//! * **bytes/edge** — standard CSR vs compact, as params (they are sizes,
//!   not durations, so the regression guard ignores them); the bench
//!   asserts the compact representation stays at ≤ 50% of the CSR.
//! * **build/compact_from_csr** — one-time cost of building the compact
//!   mirror (what the engine pays on the first compact-tier query).
//! * **image/encode · image/load** — dataset-image serialization and the
//!   server's startup path: decode the image and materialize the CSR,
//!   i.e. the cost that replaces a full edge-list re-parse.
//! * **sweep/{csr,compact}/f64** — fixed-sweep kernel cost per
//!   representation (ns/edge in the params). The kernel has one score
//!   precision; the `f64` suffix keeps the committed case names.
//!
//! Results land in `BENCH_memory_footprint.json`; CI's bench-guard
//! compares the timed cases against the committed baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use relbench::record::{measure, BenchReport};
use relcore::{SolverConfig, SweepKernel, TeleportVector};
use relgraph::{CompactGraph, GraphView};
use std::hint::black_box;

const NODES: u32 = 150_000;

/// Fixed-sweep solve (same shape as `reorder_locality`): loose cap,
/// impossible tolerance, single thread.
fn sweep_cfg() -> SolverConfig {
    SolverConfig { tolerance: 1e-300, max_iterations: 8, threads: 1, ..Default::default() }
}

fn run_sweeps(view: GraphView<'_>, nodes: usize) -> f64 {
    let kernel = SweepKernel::new(view).expect("non-empty");
    let teleport = TeleportVector::uniform(nodes).unwrap();
    let out = kernel.solve(&sweep_cfg(), &teleport).unwrap();
    out.scores.sum()
}

fn bench_memory_footprint(c: &mut Criterion) {
    let g = reldata::classic::preferential_attachment(NODES, 8, 0.9, 0xC0FFEE);
    let compact = CompactGraph::from_csr(&g);
    let edges = g.edge_count() as f64;
    let csr_bpe = g.memory_bytes() as f64 / edges;
    let compact_bpe = compact.memory_bytes() as f64 / edges;
    // The acceptance floor for the compact tier: at most half the CSR's
    // bytes/edge on this graph. A representation change that loses the
    // headroom fails the bench run outright.
    assert!(
        compact_bpe <= 0.5 * csr_bpe,
        "compact tier must stay ≤ 50% of CSR bytes/edge: {compact_bpe:.1} vs {csr_bpe:.1}"
    );
    let image = relstore::encode_image("pa-150k", &compact, 0);

    let mut report = BenchReport::new("memory_footprint", "pa-150k-m8")
        .param("nodes", g.node_count())
        .param("edges", g.edge_count())
        .param("sweeps", sweep_cfg().max_iterations)
        .param("csr_bytes_per_edge", format!("{csr_bpe:.1}"))
        .param("compact_bytes_per_edge", format!("{compact_bpe:.1}"))
        .param("compact_ratio", format!("{:.3}", compact_bpe / csr_bpe))
        .param("image_bytes_per_edge", format!("{:.1}", image.len() as f64 / edges));

    let mut group = c.benchmark_group("memory_footprint");
    group.sample_size(10);

    // One-time compact-mirror build (the engine's first compact query).
    group.bench_function("build/compact_from_csr", |b| {
        b.iter(|| black_box(CompactGraph::from_csr(&g)))
    });
    report.case("build/compact_from_csr", measure(5, || black_box(CompactGraph::from_csr(&g))));

    // Dataset-image encode, and the server's startup path: decode the
    // image and materialize the CSR (replaces the edge-list re-parse).
    report.case(
        "image/encode",
        measure(5, || black_box(relstore::encode_image("pa-150k", &compact, 0))),
    );
    report.case(
        "image/load",
        measure(5, || {
            let (_, loaded) = relstore::decode_image(black_box(&image)).expect("image decodes");
            black_box(loaded.to_csr())
        }),
    );

    // Sweep cost per representation.
    let csr_ns = measure(5, || black_box(run_sweeps(g.view(), g.node_count())));
    let compact_ns = measure(5, || black_box(run_sweeps(compact.view(), g.node_count())));
    report.case("sweep/csr/f64", csr_ns);
    report.case("sweep/compact/f64", compact_ns);
    let per_edge = |ns: f64| ns / (sweep_cfg().max_iterations as f64 * edges);
    report = report
        .param("sweep_ns_per_edge_csr_f64", format!("{:.2}", per_edge(csr_ns)))
        .param("sweep_ns_per_edge_compact_f64", format!("{:.2}", per_edge(compact_ns)));
    println!(
        "memory_footprint: sweep — csr {:.2} ns/edge, compact {:.2} ns/edge",
        per_edge(csr_ns),
        per_edge(compact_ns)
    );
    group.finish();

    println!(
        "memory_footprint: csr {csr_bpe:.1} B/edge, compact {compact_bpe:.1} B/edge \
         ({:.0}% of csr), image {:.1} B/edge",
        100.0 * compact_bpe / csr_bpe,
        image.len() as f64 / edges
    );
    report.write();
}

criterion_group!(benches, bench_memory_footprint);
criterion_main!(benches);
