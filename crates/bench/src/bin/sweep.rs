//! Parameter-sweep series generator: prints CSV rows (one measurement per
//! line) for the scaling and ablation experiments, complementing the
//! Criterion benches with data that plots directly.
//!
//! ```sh
//! cargo run --release -p relbench --bin sweep            # all sweeps
//! cargo run --release -p relbench --bin sweep -- size    # one sweep
//! cargo run --release -p relbench --bin sweep -- k workers
//! ```
//!
//! Sweeps: `size` (runtime vs |V| for PR/PPR/CycleRank, each one `Query`
//! on the served defaults), `k` (CycleRank
//! runtime and cycle counts vs K), `workers` (engine query-set
//! throughput vs worker count), `cutover` (per-sweep cost of the parallel
//! scheme in one chunk vs two, alone and beside a second solve — the table
//! `relcore::solver::CHUNK_MIN_WORK` is read off).

use relcore::cyclerank::{cyclerank, CycleRankConfig};
use relcore::solver::{SolverConfig, SweepKernel, CHUNK_MIN_WORK};
use relcore::{Query, TeleportVector};
use reldata::wikilink::{generate, WikilinkConfig};
use relgraph::NodeId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

fn sweep_size() {
    println!("# sweep=size");
    println!("nodes,edges,pagerank_ms,ppr_ms,cyclerank_k3_ms");
    for nodes in [1_000u32, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000] {
        let cfg = WikilinkConfig::default().with_nodes(nodes);
        let g = Arc::new(generate(&cfg, 42));
        let r = NodeId::new(cfg.hubs + 17);
        let run = |algorithm: &str| {
            ms(|| drop(Query::on(&g).algorithm(algorithm).reference(r).k(3).run().unwrap()))
        };
        let (pr, ppr, cr) = (run("pagerank"), run("ppr"), run("cyclerank"));
        println!("{},{},{pr:.3},{ppr:.3},{cr:.3}", g.node_count(), g.edge_count());
    }
}

fn sweep_k() {
    println!("# sweep=k (wikilink 8000 nodes)");
    println!("k,cycles_found,candidates,cyclerank_ms");
    let cfg = WikilinkConfig::default().with_nodes(8_000);
    let g = generate(&cfg, 11);
    let r = NodeId::new(cfg.hubs + 5);
    for k in 2..=6u32 {
        let mut out = None;
        let t = ms(|| out = Some(cyclerank(&g, r, &CycleRankConfig::with_k(k)).unwrap()));
        let out = out.unwrap();
        println!("{k},{},{},{t:.3}", out.cycles_found, out.candidates);
    }
}

fn sweep_workers() {
    println!("# sweep=workers (12 PPR tasks on amazon-copurchase, 20k nodes)");
    println!("workers,total_ms");
    use relengine::prelude::*;
    for workers in [1usize, 2, 4, 8] {
        let engine = Scheduler::builder().workers(workers).build();
        let mut qs = QuerySet::new();
        for i in 0..12 {
            qs.add(
                TaskBuilder::new("amazon-copurchase")
                    .algorithm(Algorithm::PersonalizedPageRank)
                    .source(format!("{}", 100 + i)) // ordinary product ids
                    .top_k(5)
                    .build()
                    .unwrap(),
            );
        }
        // Warm the dataset cache so we time scheduling, not generation.
        let warm = engine.submit(qs.tasks()[0].clone());
        engine.wait(&warm, std::time::Duration::from_secs(60)).unwrap();
        let t = ms(|| {
            let ids = engine.submit_query_set(&qs);
            engine.wait_all(&ids, std::time::Duration::from_secs(120)).unwrap();
        });
        println!("{workers},{t:.3}");
    }
}

/// Per-sweep wall time of the parallel scheme forced to one chunk
/// (`threads: 1`) and to two (`threads: 2`), first with the process
/// otherwise idle, then with a second one-chunk solve looping on another
/// thread. Fixed sweep count (the tolerance is unreachable), median of
/// `reps` solves per cell. The planner's constant is half the smallest
/// `work` at which the solo two-chunk column wins; the busy columns are why
/// the planner divides the cores by the solves in flight.
fn sweep_cutover() {
    const SWEEPS: usize = 40;
    println!(
        "# sweep=cutover (CHUNK_MIN_WORK = {CHUNK_MIN_WORK}; us per sweep, {SWEEPS} sweeps/solve)"
    );
    println!("nodes,work,solo_1chunk_us,solo_2chunk_us,busy_1chunk_us,busy_2chunk_us");
    for nodes in [2_000u32, 4_000, 6_000, 8_000, 12_000, 16_000, 32_000, 64_000] {
        let wcfg = WikilinkConfig::default().with_nodes(nodes);
        let g = generate(&wcfg, 42);
        let kernel = SweepKernel::new(g.view()).unwrap();
        let teleport = TeleportVector::single(g.node_count(), NodeId::new(wcfg.hubs + 17)).unwrap();
        let cfg = SolverConfig { tolerance: 1e-300, max_iterations: SWEEPS, ..Default::default() };
        let reps = (2_000_000 / (g.node_count() + g.edge_count())).clamp(5, 41);
        let per_sweep_us = |threads: usize| {
            let cfg = cfg.with_threads(threads);
            kernel.solve(&cfg, &teleport).unwrap(); // warm the arena
            let mut runs: Vec<f64> = (0..reps)
                .map(|_| ms(|| drop(kernel.solve(&cfg, &teleport).unwrap())) * 1e3 / SWEEPS as f64)
                .collect();
            runs.sort_by(f64::total_cmp);
            runs[runs.len() / 2]
        };
        let solo = (per_sweep_us(1), per_sweep_us(2));
        let stop = AtomicBool::new(false);
        let busy = std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    kernel.solve(&cfg.with_threads(1), &teleport).unwrap();
                }
            });
            let busy = (per_sweep_us(1), per_sweep_us(2));
            stop.store(true, Ordering::Relaxed);
            busy
        });
        println!(
            "{},{},{:.1},{:.1},{:.1},{:.1}",
            g.node_count(),
            g.node_count() + g.edge_count(),
            solo.0,
            solo.1,
            busy.0,
            busy.1
        );
    }
}

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    let want = |t: &str| which.is_empty() || which.iter().any(|w| w == t);
    if want("size") {
        sweep_size();
    }
    if want("k") {
        sweep_k();
    }
    if want("workers") {
        sweep_workers();
    }
    if want("cutover") {
        sweep_cutover();
    }
}
