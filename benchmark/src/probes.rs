//! Fixed probes: one figure per layer, measured on the same standard
//! inputs in every traced run whatever the workload, by timing calls into
//! each crate's public functions — plus the floors the figures stand
//! against (raw `sync_data`, a STREAM-style triad).
//!
//! Everything here runs on the sandbox's CPU, page cache and loopback:
//! bytes moved are *computed* from array sizes, `sync_data` is the
//! sandbox filesystem's, not a device's.

use crate::metrics::Figures;
use crate::stack::{wikilink, Scale, TempDir, BIG};
use crate::stats::median;
use crate::workload::{kernel_solve, Sources};
use relcore::{with_arena, Algorithm, AlgorithmParams, Query, Scheme, SolverArena};
use relengine::{EdgeOp, EdgeSpec, GraphPersistence, Scheduler, TaskBuilder, TaskId};
use relgraph::{CompactGraph, DirectedGraph, DynamicGraph, GraphBuilder, NodeId};
use std::hint::black_box;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times `f` once.
fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// Median duration of `runs` calls of `f`.
fn median_of(runs: usize, mut f: impl FnMut()) -> Duration {
    let mut samples: Vec<f64> = (0..runs).map(|_| time(&mut f).1.as_secs_f64()).collect();
    Duration::from_secs_f64(median(&mut samples))
}

fn node(label: &str) -> NodeId {
    NodeId::new(label.parse().unwrap_or(0))
}

/// Runs every fixed probe. `seed` generates the same big graph the
/// workloads use.
pub fn run(seed: u64, scale: Scale) -> Result<Figures, String> {
    let mut out = Figures::new();
    let mut put = |name: &str, value: f64| out.push((name.to_string(), value));

    let (graph, generate) = time(|| wikilink(scale.big_nodes(), seed));
    put("reldata.generate_ms", ms(generate));
    let graph = Arc::new(graph);
    let (n, m) = (graph.node_count() as f64, graph.edge_count() as f64);
    let sources = Sources::new(&graph, seed ^ 0x70_72_6f_62_65);

    graph_probes(&graph, &mut put);
    kernel_probes(&graph, &sources, n, m, &mut put)?;
    core_probes(&graph, &sources, &mut put)?;
    small_graph_probes(seed, &mut put)?;
    put(
        "reldata.spec_lookup_us",
        us(median_of(200, || drop(black_box(reldata::registry::spec(BIG))))),
    );

    let upload = relformats::edgelist::write(&wikilink(scale.upload_nodes(), seed));
    let mut parse_failed = false;
    let parse = median_of(3, || {
        parse_failed |= relformats::load_graph_from_str(black_box(&upload), None).is_err()
    });
    if parse_failed {
        return Err("upload edge list failed to parse".into());
    }
    put("relformats.parse_upload_ms", ms(parse));
    put("relformats.upload_bytes", upload.len() as f64);

    store_probes(&graph, m, &mut put)?;
    engine_probes(&graph, &sources, seed, &mut put)?;

    put("host.triad_gbps", triad_gbps(scale));
    Ok(out)
}

/// `relgraph`: build, footprint, compact mirror, one-edge dynamic edit.
fn graph_probes(graph: &Arc<DirectedGraph>, put: &mut impl FnMut(&str, f64)) {
    let (n, m) = (graph.node_count(), graph.edge_count());
    let edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
    let build = median_of(3, || {
        let mut b = GraphBuilder::with_capacity(n, m);
        b.ensure_node(n as u32 - 1);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        black_box(b.build());
    });
    put("relgraph.build_ms", ms(build));
    put("relgraph.csr_bytes_per_edge", graph.memory_bytes() as f64 / m as f64);
    put(
        "relgraph.compact_build_ms",
        ms(median_of(3, || drop(black_box(CompactGraph::from_csr(graph))))),
    );
    put("relgraph.compact_bytes_per_edge", CompactGraph::from_csr(graph).bytes_per_edge());

    // One-edge edits on a private copy: the in-memory half of a mutation,
    // then the O(V+E) snapshot the next reader pays for.
    let mut dynamic = DynamicGraph::from_arc(Arc::clone(graph));
    let (u, v) = (NodeId::new(n as u32 - 1), NodeId::new(n as u32 - 2));
    let mut edit = Vec::new();
    let mut snapshot = Vec::new();
    for round in 0..6 {
        let (_, d) = time(|| {
            if round % 2 == 0 {
                black_box(dynamic.insert_edge(u, v, 1.0).is_ok())
            } else {
                black_box(dynamic.remove_edge(u, v).is_ok())
            }
        });
        edit.push(us(d));
        snapshot.push(ms(time(|| black_box(dynamic.snapshot())).1));
    }
    put("relgraph.dyn_mutate_us", median(&mut edit));
    put("relgraph.dyn_snapshot_ms", median(&mut snapshot));
}

/// `relcore` sweep kernel: full-rank PPR solves on the big graph, CSR and
/// compact, with the work they did counted.
fn kernel_probes(
    graph: &Arc<DirectedGraph>,
    sources: &Sources,
    n: f64,
    m: f64,
    put: &mut impl FnMut(&str, f64),
) -> Result<(), String> {
    let params = AlgorithmParams::new(Algorithm::PersonalizedPageRank);
    let arena = Arc::new(SolverArena::new());
    let mut solve_ms = Vec::new();
    let mut iterations = Vec::new();
    let mut ns_per_edge = Vec::new();
    // Source 0 warms the arena and is not counted.
    for i in 0..6 {
        let reference = Some(node(&sources.get(i)));
        let (outcome, d) =
            time(|| with_arena(&arena, || kernel_solve(graph.view(), &params, reference)));
        let sweeps = outcome?.convergence.iterations as f64;
        if i > 0 {
            solve_ms.push(ms(d));
            iterations.push(sweeps);
            ns_per_edge.push(d.as_secs_f64() * 1e9 / (sweeps * m));
        }
    }
    let kernel_ms = median(&mut solve_ms);
    let sweeps = median(&mut iterations);
    // Computed, not measured: per pull sweep every edge reads a 4 B
    // neighbour id and gathers an 8 B score; every node reads its offset,
    // inverse weight sum and teleport mass and writes its new score.
    let bytes_per_sweep = 12.0 * m + 32.0 * n;
    put("relcore.kernel_solve_ms", kernel_ms);
    put("relcore.iterations", sweeps);
    put("relcore.edges_swept_per_op", sweeps * m);
    put("relcore.sweep_ns_per_edge", median(&mut ns_per_edge));
    put("relcore.bytes_per_sweep_computed", bytes_per_sweep);
    put("relcore.sweep_gbps_computed", bytes_per_sweep * sweeps / (kernel_ms * 1e6));

    let compact = CompactGraph::from_csr(graph);
    let mut compact_ms = Vec::new();
    for i in 0..4 {
        let reference = Some(node(&sources.get(i)));
        let (outcome, d) =
            time(|| with_arena(&arena, || kernel_solve(compact.view(), &params, reference)));
        outcome?;
        if i > 0 {
            compact_ms.push(ms(d));
        }
    }
    put("relgraph.compact_sweep_ratio", median(&mut compact_ms) / kernel_ms);
    Ok(())
}

/// `relcore` beyond the single full-rank solve: CycleRank, certified
/// top-k, the fused 16-seed batch — all on the big graph.
fn core_probes(
    graph: &Arc<DirectedGraph>,
    sources: &Sources,
    put: &mut impl FnMut(&str, f64),
) -> Result<(), String> {
    let mut cyclerank_ms = Vec::new();
    let mut cycles = Vec::new();
    for i in 0..5 {
        let config = relcore::CycleRankConfig::default();
        let reference = node(&sources.get(i));
        let (found, d) = time(|| relcore::cyclerank::cyclerank(graph, reference, &config));
        cycles.push(found.map_err(|e| format!("cyclerank: {e}"))?.cycles_found as f64);
        cyclerank_ms.push(ms(d));
    }
    put("relcore.cyclerank_ms", median(&mut cyclerank_ms));
    put("relcore.cyclerank_cycles", median(&mut cycles));

    // The `?top_k=10` serving path as the core sees it (certified push,
    // exact fallback), and how often push alone certifies.
    let mut topk_ms = Vec::new();
    let mut certified = 0.0;
    const TOPK_SOURCES: u64 = 3;
    for i in 0..TOPK_SOURCES {
        let query = Query::on(graph).algorithm(Algorithm::PersonalizedPageRank);
        let (result, d) = time(|| query.reference(sources.get(i)).top_k(10).run());
        result.map_err(|e| format!("top-k query: {e}"))?;
        topk_ms.push(ms(d));
        let push = relcore::topk::push_top_k(graph.view(), 0.85, node(&sources.get(i)), 10)
            .map_err(|e| format!("push_top_k: {e}"))?;
        certified += f64::from(u8::from(push.is_some()));
    }
    put("relcore.topk_solve_ms", median(&mut topk_ms));
    put("relcore.topk_certified_ratio", certified / TOPK_SOURCES as f64);

    let batch = Query::on(graph)
        .algorithm(Algorithm::PersonalizedPageRank)
        .seeds((0..16).map(|i| sources.get(i)));
    let (result, d) = time(|| batch.run_batch());
    result.map_err(|e| format!("batch: {e}"))?;
    put("relcore.batch16_ms_per_seed", ms(d) / 16.0);
    Ok(())
}

/// The small-graph side of `relcore` and `reldata`: `wiki-en-2018`, where
/// fixed per-solve overhead dominates the sweep.
fn small_graph_probes(seed: u64, put: &mut impl FnMut(&str, f64)) -> Result<(), String> {
    let (small, load) = time(|| reldata::load_dataset("wiki-en-2018"));
    let small = Arc::new(small.ok_or("wiki-en-2018 is not in the catalog")?);
    put("reldata.catalog_load_ms", ms(load));
    let sources = Sources::new(&small, seed);
    let mut failed = None;
    let mut solve = |params: AlgorithmParams, runs: u64| {
        let mut samples = Vec::new();
        for i in 0..runs {
            let query = Query::on(&small).params(params).reference(sources.get(i));
            let (result, d) = time(|| query.run());
            if let Err(e) = result {
                failed = Some(format!("{}: {e}", params.algorithm.id()));
            }
            samples.push(us(d));
        }
        median(&mut samples)
    };
    let ppr = AlgorithmParams::new(Algorithm::PersonalizedPageRank);
    put("relcore.small_solve_us", solve(ppr, 20));
    put("relcore.small_solve_power_us", solve(ppr.with_scheme(Scheme::Power), 20));
    for algorithm in Algorithm::ALL {
        let figure = solve(AlgorithmParams::new(algorithm), 10);
        put(&format!("relcore.alg.{}_us", algorithm.id()), figure);
    }
    failed.map_or(Ok(()), Err)
}

/// `relstore`: snapshot + image write, image load, journal append against
/// the raw `sync_data` floor, on a store nothing else uses.
fn store_probes(
    graph: &Arc<DirectedGraph>,
    m: f64,
    put: &mut impl FnMut(&str, f64),
) -> Result<(), String> {
    const ID: &str = "probe";
    let dir = TempDir::new("probe-store")?;
    let persist = GraphPersistence::open(dir.path()).map_err(|e| e.to_string())?;
    let (written, d) = time(|| persist.write_snapshot(ID, graph, 0));
    written.map_err(|e| format!("snapshot: {e}"))?;
    put("relstore.snapshot_write_ms", ms(d));

    let (loaded, d) = time(|| persist.store().load_image(ID).map(|i| i.map(|(_, c)| c.to_csr())));
    if loaded.map_err(|e| format!("image: {e}"))?.is_none() {
        return Err("snapshot wrote no image".into());
    }
    put("relstore.image_load_ms", ms(d));

    const APPENDS: u64 = 200;
    let op = |v: u64| {
        let spec = EdgeSpec { source: (v + 100).to_string(), target: "60".into(), weight: None };
        [if v % 2 == 1 { EdgeOp::Add(spec) } else { EdgeOp::Remove(spec) }]
    };
    let mut append_us = Vec::new();
    for v in 1..=APPENDS {
        let (appended, d) = time(|| persist.append(ID, v, &op(v)));
        appended.map_err(|e| format!("append: {e}"))?;
        append_us.push(us(d));
    }
    put("relstore.append_us", median(&mut append_us));
    let stats = persist.stats(ID).map_err(|e| e.to_string())?.ok_or("probe store has no stats")?;
    let frame = stats.journal_bytes as f64 / stats.journal_records.max(1) as f64;
    put("relstore.journal_bytes_per_mutation", frame);
    put("relstore.disk_bytes_per_edge", (stats.snapshot_bytes + stats.image_bytes) as f64 / m);

    // The floor under an append: a write of the same size and a raw
    // `sync_data`, in the same directory, with no framing or bookkeeping.
    let path = dir.path().join("fsync-floor.bin");
    let mut file = std::fs::File::create(&path).map_err(|e| format!("floor file: {e}"))?;
    let payload = vec![0xa5u8; frame as usize];
    let mut floor_us = Vec::new();
    for _ in 0..APPENDS {
        let (synced, d) = time(|| file.write_all(&payload).and_then(|()| file.sync_data()));
        synced.map_err(|e| format!("floor write: {e}"))?;
        floor_us.push(us(d));
    }
    put("relstore.fsync_floor_us", median(&mut floor_us));
    Ok(())
}

/// `relengine`: the mutation path at both of its public levels, the hit
/// path, arena reuse, per-task retention and boot recovery — on a durable
/// scheduler of its own holding the big graph.
fn engine_probes(
    graph: &Arc<DirectedGraph>,
    sources: &Sources,
    seed: u64,
    put: &mut impl FnMut(&str, f64),
) -> Result<(), String> {
    let dir = TempDir::new("probe-engine")?;
    let boot = || Scheduler::builder().data_dir(dir.path()).try_build().map_err(|e| e.to_string());
    let engine = boot()?;
    engine.register_dataset(BIG, DirectedGraph::clone(graph)).map_err(|e| e.to_string())?;
    let executor = engine.executor();

    // Edits alternate between the scheduler's entry point (commit, then
    // re-put the whole graph into the datastore) and the executor's
    // (commit only; the next reader materialises the snapshot).
    let (mut mutate, mut commit, mut resolve) = (Vec::new(), Vec::new(), Vec::new());
    // Endpoint pairs with no edge yet, so every add and removal applies.
    let fresh = Sources::new(graph, seed ^ 0x65_64_69_74);
    let pairs: Vec<(String, String)> = (0..)
        .map(|j| (fresh.get(2 * j), fresh.get(2 * j + 1)))
        .filter(|(s, t)| !graph.has_edge(node(s), node(t)))
        .take(6)
        .collect();
    for round in 0..12usize {
        let pair = round / 2;
        let (source, target) = pairs[pair].clone();
        let spec = EdgeSpec { source, target, weight: None };
        let ops = [if round % 2 == 0 { EdgeOp::Add(spec) } else { EdgeOp::Remove(spec) }];
        if pair % 2 == 0 {
            let (outcome, d) = time(|| engine.mutate_dataset(BIG, &ops));
            outcome.map_err(|e| format!("mutate: {e}"))?;
            mutate.push(us(d));
        } else {
            let (outcome, d) = time(|| executor.mutate_dataset(BIG, &ops));
            outcome.map_err(|e| format!("mutate_commit: {e}"))?;
            commit.push(us(d));
            let (resolved, d) = time(|| executor.dataset_versioned(BIG));
            resolved.map_err(|e| format!("resolve: {e}"))?;
            resolve.push(ms(d));
        }
    }
    let (mutate, commit) = (median(&mut mutate), median(&mut commit));
    put("relengine.mutate_us", mutate);
    put("relengine.mutate_commit_us", commit);
    put("relengine.datastore_put_us", mutate - commit);
    put("relengine.resolve_after_mutation_ms", median(&mut resolve));

    // Cold executes: how many O(n) buffers one steady-state solve
    // allocates once the dataset's arena is warm.
    let task = |i: u64| {
        TaskBuilder::new(BIG)
            .algorithm(Algorithm::PersonalizedPageRank)
            .source(sources.get(i))
            .build()
            .map_err(|e| e.to_string())
    };
    executor.execute(&TaskId::fresh(), &task(100)?).map_err(|e| e.to_string())?;
    let before = executor.arena_stats().allocations;
    const COLD: u64 = 3;
    for i in 0..COLD {
        executor.execute(&TaskId::fresh(), &task(101 + i)?).map_err(|e| e.to_string())?;
    }
    let allocated = executor.arena_stats().allocations - before;
    put("relengine.arena_allocs_per_solve", allocated as f64 / COLD as f64);

    // The hit path: the executor alone, then through the scheduler with
    // resident memory read before and after (task records, stored
    // results and logs are kept for every task ever submitted).
    let hot = task(100)?;
    let mut hit_us = Vec::new();
    for _ in 0..2000 {
        let (result, d) = time(|| executor.execute(&TaskId::fresh(), &hot));
        result.map_err(|e| e.to_string())?;
        hit_us.push(us(d));
    }
    put("relengine.cache_hit_us", median(&mut hit_us));
    const RETAINED_TASKS: u64 = 20_000;
    let before = crate::stack::rss_bytes();
    for _ in 0..RETAINED_TASKS {
        let id = engine.submit(hot.clone());
        engine.wait(&id, Duration::from_secs(60)).map_err(|e| e.to_string())?;
    }
    let grown = crate::stack::rss_bytes() - before;
    put("relengine.retained_bytes_per_task", grown / RETAINED_TASKS as f64);

    // Boot recovery of what the edits above left: snapshot v0 (or its
    // image) plus the journal tail.
    let records = executor.persistence_stats(BIG).map_or(0, |s| s.journal_records);
    drop(engine);
    let mut recover_ms = Vec::new();
    for _ in 0..5 {
        let (booted, d) = time(boot);
        let booted = booted?;
        recover_ms.push(ms(d));
        if booted.executor().dataset_version(BIG).is_none() {
            return Err("boot recovered no dataset".into());
        }
    }
    put("relstore.recover_ms", median(&mut recover_ms));
    put("relstore.replayed_records", records as f64);
    Ok(())
}

/// STREAM-style triad `a[i] = b[i] + s * c[i]` over three arrays far
/// larger than L2: the bandwidth floor the sweep figures stand against.
/// Best of five passes, counting the three streams the source names.
fn triad_gbps(scale: Scale) -> f64 {
    let len = match scale {
        Scale::Full => 8 << 20, // 64 MB per array
        Scale::Smoke => 1 << 20,
    };
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let mut a = vec![0.0f64; len];
    let mut best = f64::INFINITY;
    for pass in 0..5 {
        let s = 3.0 + pass as f64;
        let (_, d) = time(|| {
            for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
                *a = *b + s * *c;
            }
            black_box(&mut a);
        });
        best = best.min(d.as_secs_f64());
    }
    (3 * len * std::mem::size_of::<f64>()) as f64 / best / 1e9
}
