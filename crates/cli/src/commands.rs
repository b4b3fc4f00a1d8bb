//! Command implementations.
//!
//! Each command returns its human-readable output as a `String` (the
//! binary prints it), which keeps everything unit-testable without
//! capturing stdout.

use crate::args::{BatchSpecArgs, CompareDatasetsSpec, CompareSpec, MutateSpec, RunSpec};
use relcore::{AlgorithmParams, AlgorithmRegistry, Query};
use relengine::prelude::*;
use relengine::EngineError;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(600);

/// `list-datasets`: the catalog, optionally filtered by kind.
pub fn list_datasets(kind: Option<&str>) -> Result<String, String> {
    let want = match kind {
        None => None,
        Some(k) => Some(match k.to_ascii_lowercase().as_str() {
            "wikipedia" | "wiki" => reldata::DatasetKind::Wikipedia,
            "amazon" => reldata::DatasetKind::Amazon,
            "twitter" => reldata::DatasetKind::Twitter,
            "fixture" => reldata::DatasetKind::Fixture,
            "synthetic" => reldata::DatasetKind::Synthetic,
            other => return Err(format!("unknown dataset kind {other:?}")),
        }),
    };
    let mut out = format!("{:<24} {:>12} {}\n", "ID", "~NODES", "NAME");
    let mut count = 0;
    for spec in reldata::catalog() {
        if want.map(|w| w == spec.kind).unwrap_or(true) {
            out.push_str(&format!("{:<24} {:>12} {}\n", spec.id, spec.approx_nodes, spec.name));
            count += 1;
        }
    }
    out.push_str(&format!("{count} datasets\n"));
    Ok(out)
}

/// `algorithms`: every algorithm in the registry with its metadata.
pub fn algorithms() -> String {
    let mut out = format!("{:<12} {:<18} {:<14} {}\n", "ID", "NAME", "PERSONALIZED", "OUTPUT");
    for d in AlgorithmRegistry::global().descriptors() {
        out.push_str(&format!(
            "{:<12} {:<18} {:<14} {}\n",
            d.id,
            d.name,
            if d.personalized { "yes" } else { "no" },
            if d.produces_scores { "scores" } else { "ranking only" }
        ));
    }
    out
}

/// `stats`: structural summary of one dataset, including the memory and
/// locality footprint the reordering work targets and the per-encoding
/// bytes/edge figures (the standard CSR queries run on vs. the compact
/// delta-varint encoding the on-disk dataset image uses).
pub fn stats(dataset: &str) -> Result<String, String> {
    let g = reldata::load_dataset(dataset).ok_or_else(|| format!("unknown dataset {dataset:?}"))?;
    let s = relgraph::GraphStats::compute(&g);
    let ordering = reldata::registry::spec(dataset)
        .and_then(|s| s.reorder)
        .map(|o| o.to_string())
        .unwrap_or_else(|| "original".into());
    let compact = relgraph::CompactGraph::from_csr(&g);
    let per_edge = |bytes: usize| {
        if s.edges == 0 {
            0.0
        } else {
            bytes as f64 / s.edges as f64
        }
    };
    Ok(format!(
        "dataset      {dataset}\n\
         nodes        {}\n\
         edges        {}\n\
         density      {:.6}\n\
         mean degree  {:.2}\n\
         max out/in   {}/{}\n\
         reciprocity  {:.3}\n\
         self-loops   {}\n\
         dangling     {}\n\
         memory       {} bytes ({:.2} MiB adjacency)\n\
         csr          {:.1} bytes/edge\n\
         compact      {:.1} bytes/edge ({:.0}% of csr, image encoding)\n\
         ordering     {ordering} (mean edge span {:.1})\n",
        s.nodes,
        s.edges,
        s.density,
        s.mean_degree,
        s.max_out_degree,
        s.max_in_degree,
        s.reciprocity,
        s.self_loops,
        s.dangling,
        g.memory_bytes(),
        g.memory_bytes() as f64 / (1024.0 * 1024.0),
        per_edge(g.memory_bytes()),
        per_edge(compact.memory_bytes()),
        100.0 * per_edge(compact.memory_bytes())
            / per_edge(g.memory_bytes()).max(f64::MIN_POSITIVE),
        g.mean_edge_span(),
    ))
}

/// Fails fast on an algorithm name the registry does not know.
fn known_algorithm(name: &str) -> Result<(), String> {
    match AlgorithmRegistry::global().get(name) {
        Some(_) => Ok(()),
        None => Err(format!("unknown algorithm {name:?} (see `relrank algorithms`)")),
    }
}

/// `run`: execute one task and print its top-k. A catalog dataset runs
/// through the engine's executor, so `--json` is the result `POST
/// /api/tasks?sync=1` returns; with `--file`, the graph is loaded from
/// disk and queried directly (the task wire format names datasets).
pub fn run_task(spec: RunSpec) -> Result<String, String> {
    known_algorithm(&spec.algorithm)?;
    let graph =
        spec.file.as_deref().map(relformats::load_graph).transpose().map_err(|e| e.to_string())?;
    let mut task = TaskBuilder::new(spec.dataset.as_str())
        .algorithm(spec.algorithm.parse()?)
        .top_k(spec.top)
        .trace(spec.trace);
    if let Some(s) = spec.scheme {
        task = task.scheme(s);
    }
    if let Some(n) = spec.threads {
        task = task.threads(n);
    }
    if let Some(a) = spec.alpha {
        task = task.damping(a);
    }
    if let Some(k) = spec.k {
        task = task.max_cycle_len(k);
    }
    if let Some(s) = &spec.sigma {
        task = task.scoring(s.parse()?);
    }
    if let Some(s) = &spec.source {
        task = task.source(s.as_str());
    }
    let mut task = task.build().map_err(|e| e.to_string())?;
    if let Some(k) = spec.top_k {
        task.serve_top_k(k);
    }
    let id = TaskId::fresh();
    let result = match graph {
        Some(g) => {
            let mut query = Query::on(g).params(task.params).top(task.top_k);
            if let Some(s) = &task.source {
                query = query.reference(s.as_str());
            }
            let r =
                query.run().map_err(|e| EngineError::from_query(e, &task.dataset).to_string())?;
            TaskResult::package(&id, &task.dataset, task.source, &r)
        }
        None => Executor::new().execute(&id, &task).map_err(|e| e.to_string())?,
    };

    if spec.json {
        return serde_json::to_string_pretty(&result).map_err(|e| e.to_string());
    }
    let mut out = format!(
        "task {}\ndataset {} ({} nodes, {} edges)\nalgorithm {} [{}]  runtime {}ms\n",
        result.task_id,
        result.dataset,
        result.nodes,
        result.edges,
        result.algorithm,
        result.parameters,
        result.runtime_ms
    );
    if let Some(c) = result.cycles_found {
        out.push_str(&format!("cycles found: {c}\n"));
    }
    if let Some(i) = result.iterations {
        out.push_str(&format!("iterations: {i}\n"));
    }
    if let (Some(residual), Some(converged)) = (result.residual, result.converged) {
        out.push_str(&format!(
            "residual: {residual:.3e} ({})\n",
            if converged { "converged" } else { "iteration cap reached" }
        ));
    }
    if let Some(residuals) = &result.residuals {
        out.push_str("residual trace:");
        for (i, r) in residuals.iter().enumerate() {
            out.push_str(&format!("{}{r:.3e}", if i % 8 == 0 { "\n  " } else { "  " }));
        }
        out.push('\n');
    } else if spec.trace {
        out.push_str(
            "note: --trace has no effect here (non-iterative algorithms such as \
             CycleRank produce no residual trace)\n",
        );
    }
    out.push('\n');
    for (rank, (label, score)) in result.top.iter().enumerate() {
        out.push_str(&format!("{:>3}  {:<40} {:.6}\n", rank + 1, label, score));
    }
    Ok(out)
}

/// Expands the `--seeds` flag: `@path` reads one seed label per line
/// (blank lines and `#` comments skipped); anything else splits on
/// commas. Labels that themselves contain a comma (e.g. "Paris, France")
/// cannot be written in list form — use the `@file` form for those.
fn expand_seeds(arg: &str) -> Result<Vec<String>, String> {
    Ok(match arg.strip_prefix('@') {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read seed file {path:?}: {e}"))?
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect(),
        None => {
            arg.split(',').map(str::trim).filter(|s| !s.is_empty()).map(str::to_string).collect()
        }
    })
}

/// `batch`: one personalized algorithm over many seeds, run as one job
/// through the engine's executor, where PPR and Pers. CheiRank seeds share
/// a single multi-vector sweep — the request-serving path for high-QPS
/// personalization, on the command line. `--json`
/// prints one task result per seed, as `GET /api/tasks/{id}/result`
/// returns each batch member.
pub fn batch(spec: BatchSpecArgs) -> Result<String, String> {
    known_algorithm(&spec.algorithm)?;
    let mut params = AlgorithmParams::new(spec.algorithm.parse()?);
    if let Some(a) = spec.alpha {
        params = params.with_damping(a);
    }
    if let Some(s) = spec.scheme {
        params = params.with_scheme(s);
    }
    if let Some(n) = spec.threads {
        params = params.with_threads(n);
    }
    let sources = expand_seeds(&spec.seeds)?;
    let mut task = BatchSpec { dataset: spec.dataset, params, sources, top_k: spec.top };
    if let Some(k) = spec.top_k {
        task.serve_top_k(k);
    }
    task.validate().map_err(|e| e.to_string())?;
    let ex = Executor::new();
    // Load before the clock starts: the timing below is the solve.
    let graph = ex.dataset(&task.dataset).map_err(|e| e.to_string())?;
    let rows: Vec<(TaskId, TaskSpec)> =
        task.rows().into_iter().map(|row| (TaskId::fresh(), row)).collect();
    let mut ended = vec![None; rows.len()];
    let started = Instant::now();
    ex.execute_job(&rows, |_| true, |i, outcome, _| ended[i] = Some(outcome));
    let runtime = started.elapsed();
    let results: Vec<_> =
        ended.into_iter().flatten().collect::<Result<_, _>>().map_err(|e| e.to_string())?;

    if spec.json {
        return serde_json::to_string_pretty(&results).map_err(|e| e.to_string());
    }
    let (algorithm, parameters) =
        results.first().map(|r| (r.algorithm.as_str(), r.parameters.as_str())).unwrap_or_default();
    let mut out = format!(
        "dataset {} ({} nodes, {} edges)\nalgorithm {algorithm} [{parameters}]\n{} seeds in {}ms ({:.2}ms/seed amortized)\n",
        task.dataset,
        graph.node_count(),
        graph.edge_count(),
        results.len(),
        runtime.as_millis(),
        runtime.as_secs_f64() * 1e3 / results.len() as f64,
    );
    for r in &results {
        out.push_str(&format!("\nseed {}\n", r.source.as_deref().unwrap_or_default()));
        for (rank, (label, score)) in r.top.iter().enumerate() {
            out.push_str(&format!("{:>3}  {:<40} {:.6}\n", rank + 1, label, score));
        }
    }
    Ok(out)
}

/// Parses one `SRC->DST` / `SRC->DST:WEIGHT` edge spec. The weight suffix
/// is recognized only when the text after the last `:` parses as a
/// number, so labels containing colons still work un-weighted.
fn parse_edge(text: &str, weighted: bool) -> Result<relengine::EdgeSpec, String> {
    let (source, rest) = text
        .split_once("->")
        .ok_or_else(|| format!("bad edge {text:?} (expected SRC->DST or SRC->DST:WEIGHT)"))?;
    let (target, weight) = match rest.rsplit_once(':') {
        Some((t, w)) if weighted => match w.trim().parse::<f64>() {
            Ok(w) => (t, Some(w)),
            Err(_) => (rest, None),
        },
        _ => (rest, None),
    };
    let (source, target) = (source.trim(), target.trim());
    if source.is_empty() || target.is_empty() {
        return Err(format!("bad edge {text:?}: empty endpoint"));
    }
    Ok(relengine::EdgeSpec { source: source.to_string(), target: target.to_string(), weight })
}

/// `mutate`: apply dynamic edge updates to a dataset, optionally running
/// one query before and after to show the ranking impact. Mutations go
/// through the engine executor, so they exercise exactly the versioning
/// and cache-invalidation path the server uses.
pub fn mutate(spec: MutateSpec) -> Result<String, String> {
    let mut ops = Vec::new();
    for e in &spec.add {
        ops.push(relengine::EdgeOp::Add(parse_edge(e, true)?));
    }
    for e in &spec.remove {
        ops.push(relengine::EdgeOp::Remove(parse_edge(e, false)?));
    }

    // --top-k routes the before/after query through the certified top-k
    // serving path (and caps the printout at k rows).
    let top = spec.top_k.unwrap_or(spec.top);
    let ex = Executor::new();
    let task = match (&spec.algorithm, &spec.source) {
        (Some(algo), source) => {
            let algo: Algorithm = algo.parse()?;
            let mut b = TaskBuilder::new(spec.dataset.as_str()).algorithm(algo).top_k(top);
            if let Some(s) = source {
                b = b.source(s.as_str());
            }
            let mut task = b.build().map_err(|e| e.to_string())?;
            if let Some(k) = spec.top_k {
                task.serve_top_k(k);
            }
            Some(task)
        }
        (None, _) => None,
    };
    let before = match &task {
        Some(t) => Some(ex.execute(&TaskId::fresh(), t).map_err(|e| e.to_string())?),
        None => None,
    };
    let outcome = ex.mutate_dataset(&spec.dataset, &ops).map_err(|e| e.to_string())?;
    let after = match &task {
        Some(t) => Some(ex.execute(&TaskId::fresh(), t).map_err(|e| e.to_string())?),
        None => None,
    };

    if spec.json {
        let mut v = serde_json::json!({
            "dataset": outcome.dataset,
            "version": outcome.version,
            "applied": outcome.applied,
            "nodes": outcome.nodes,
            "edges": outcome.edges,
        });
        if let (Some(b), Some(a)) = (&before, &after) {
            if let serde_json::Value::Object(map) = &mut v {
                map.insert("top_before".into(), serde_json::to_value(&b.top));
                map.insert("top_after".into(), serde_json::to_value(&a.top));
            }
        }
        return serde_json::to_string_pretty(&v).map_err(|e| e.to_string());
    }

    let mut out = format!(
        "dataset {}\napplied {} of {} operation(s); graph version {} \
         ({} nodes, {} edges)\nresult caches for this dataset are invalidated; \
         identical queries will recompute\n",
        outcome.dataset,
        outcome.applied,
        ops.len(),
        outcome.version,
        outcome.nodes,
        outcome.edges,
    );
    if let (Some(b), Some(a)) = (&before, &after) {
        out.push_str(&format!("\n{} [{}] — before | after\n", a.algorithm, a.parameters));
        for rank in 0..top {
            let cell = |r: &TaskResult| {
                r.top
                    .get(rank)
                    .map(|(l, s)| format!("{l} ({s:.6})"))
                    .unwrap_or_else(|| "-".to_string())
            };
            out.push_str(&format!("{:>3}  {:<40} {}\n", rank + 1, cell(b), cell(a)));
        }
    }
    Ok(out)
}

/// `compare`: the paper's *algorithm comparison* use case — side-by-side
/// top-k columns per algorithm over one dataset and reference (Tables
/// I–II).
pub fn compare(spec: CompareSpec) -> Result<String, String> {
    let engine = Scheduler::builder().workers(spec.algorithms.len().max(1)).build();
    let mut qs = QuerySet::new();
    for name in &spec.algorithms {
        known_algorithm(name)?;
        let algorithm: Algorithm = name.parse()?;
        let mut task = TaskBuilder::new(spec.dataset.as_str()).algorithm(algorithm).top_k(spec.top);
        // A row takes the reference only where the engine's task rules
        // require one (personalized algorithms), as in Fig. 2.
        if algorithm.is_personalized() {
            task = task.source(spec.source.as_str());
        }
        qs.add(task.build().map_err(|e| e.to_string())?);
    }
    let ids = engine.submit_query_set(&qs);
    let results = engine.wait_all(&ids, WAIT).map_err(|e| e.to_string())?;

    let width = 28;
    let mut out = format!(
        "Comparison id: {}\ndataset {} | reference {:?}\n\n",
        qs.id, spec.dataset, spec.source
    );
    out.push_str("#   ");
    for r in &results {
        out.push_str(&format!("{:<width$}", r.algorithm));
    }
    out.push('\n');
    for rank in 0..spec.top {
        out.push_str(&format!("{:<4}", rank + 1));
        for r in &results {
            let cell = r.top.get(rank).map(|(l, _)| l.as_str()).unwrap_or("-");
            out.push_str(&format!("{:<width$}", truncate(cell, width - 2)));
        }
        out.push('\n');
    }
    Ok(out)
}

/// `compare-datasets`: the paper's *dataset comparison* use case — the same
/// CycleRank query across several datasets (Table III).
pub fn compare_datasets(spec: CompareDatasetsSpec) -> Result<String, String> {
    let engine = Scheduler::builder().workers(spec.datasets.len().max(1)).build();
    let mut qs = QuerySet::new();
    for ds in &spec.datasets {
        let task = TaskBuilder::new(ds.as_str())
            .algorithm(Algorithm::CycleRank)
            .max_cycle_len(spec.k)
            .source(spec.source.as_str())
            .top_k(spec.top)
            .build();
        qs.add(task.map_err(|e| e.to_string())?);
    }
    let ids = engine.submit_query_set(&qs);
    let results = engine.wait_all(&ids, WAIT).map_err(|e| e.to_string())?;

    let width = 28;
    let mut out = format!(
        "Comparison id: {}\nCyclerank (K = {}, σ = exp) | reference {:?}\n\n",
        qs.id, spec.k, spec.source
    );
    out.push_str("#   ");
    for ds in &spec.datasets {
        out.push_str(&format!("{:<width$}", truncate(ds, width - 2)));
    }
    out.push('\n');
    for rank in 0..spec.top {
        out.push_str(&format!("{:<4}", rank + 1));
        for r in &results {
            let cell = r.top.get(rank).map(|(l, _)| l.as_str()).unwrap_or("-");
            out.push_str(&format!("{:<width$}", truncate(cell, width - 2)));
        }
        out.push('\n');
    }
    Ok(out)
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

/// `convert`: read any supported graph format, write another.
pub fn convert(input: &str, output: &str, format: Option<&str>) -> Result<String, String> {
    let g = relformats::load_graph(input).map_err(|e| e.to_string())?;
    let fmt = match format {
        Some(f) => f.parse::<relformats::Format>()?,
        None => {
            // Infer from the output extension.
            let ext =
                std::path::Path::new(output).extension().and_then(|e| e.to_str()).unwrap_or("csv");
            ext.parse::<relformats::Format>()?
        }
    };
    relformats::save_graph(&g, output, fmt).map_err(|e| e.to_string())?;
    Ok(format!(
        "converted {input} -> {output} ({fmt}): {} nodes, {} edges\n",
        g.node_count(),
        g.edge_count()
    ))
}

/// `visualize`: run CycleRank, extract the induced subgraph of the top-k
/// nodes, and write it as Graphviz DOT with score-colored nodes.
pub fn visualize(
    dataset: &str,
    source: &str,
    k: u32,
    top: usize,
    output: &str,
) -> Result<String, String> {
    let g = reldata::load_dataset(dataset).ok_or_else(|| format!("unknown dataset {dataset:?}"))?;
    g.node_by_label(source).ok_or_else(|| format!("no node labeled {source:?} in {dataset}"))?;
    let result = Query::on(Arc::new(g))
        .algorithm("cyclerank")
        .reference(source)
        .k(k)
        .run()
        .map_err(|e| e.to_string())?;
    let g = &result.graph;
    let scores = result.scores().expect("cyclerank produces scores");
    let keep: Vec<relgraph::NodeId> = scores.top_k(top).into_iter().map(|(n, _)| n).collect();
    let (sub, map) = relgraph::induced_subgraph(g, keep.iter().copied());
    // Scatter scores into the subgraph's index space.
    let sub_scores: Vec<f64> = (0..sub.node_count())
        .map(|i| scores.get(map.to_orig(relgraph::NodeId::new(i as u32))))
        .collect();
    let dot = relformats::dot::write_scored(&sub, Some(&sub_scores));
    std::fs::write(output, &dot).map_err(|e| e.to_string())?;
    Ok(format!(
        "wrote {output}: {} nodes, {} edges (CycleRank K={k} around {source:?}); render with `dot -Tsvg {output}`
",
        sub.node_count(),
        sub.edge_count()
    ))
}

/// Admission-control overrides for `serve` (`--queue-depth`,
/// `--max-expensive`); `None` keeps the auto-sized default.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeLimits {
    /// Admission-queue depth.
    pub queue_depth: Option<usize>,
    /// Expensive-lane concurrency.
    pub max_expensive: Option<usize>,
}

/// `serve`: run the API gateway until killed. Serving uses a bounded
/// worker pool sized from the host; `limits` overrides the admission
/// queue depth and expensive-lane concurrency. With `--data-dir` the
/// engine recovers persisted datasets on boot and journals every edge
/// mutation while serving.
pub fn serve(
    addr: &str,
    workers: usize,
    limits: ServeLimits,
    data_dir: Option<&str>,
) -> Result<String, String> {
    let mut builder = Scheduler::builder().workers(workers);
    if let Some(dir) = data_dir {
        builder = builder.data_dir(dir);
    }
    let engine = Arc::new(builder.try_build().map_err(|e| e.to_string())?);
    if let Some(dir) = data_dir {
        let recovered = engine
            .executor()
            .persistence()
            .and_then(|p| p.dataset_ids().ok())
            .map(|ids| ids.len())
            .unwrap_or(0);
        eprintln!("durable store at {dir}: {recovered} dataset(s) recovered");
    }
    let mut config = relserver::ServingConfig::auto(engine.worker_count());
    if let Some(depth) = limits.queue_depth {
        config.queue_depth = depth.max(1);
    }
    if let Some(max) = limits.max_expensive {
        config.max_expensive = max.max(1);
    }
    let server =
        relserver::ApiServer::bind_with(addr, engine, config.clone()).map_err(|e| e.to_string())?;
    let bound = server.local_addr();
    eprintln!(
        "relrank API gateway listening on http://{bound} \
         ({} http workers, queue {}, {} expensive, {workers} solver workers)",
        config.workers, config.queue_depth, config.max_expensive
    );
    server.run();
    Ok(format!("server on {bound} stopped\n"))
}

/// `replay <dir>`: rebuild every dataset in a durable data directory from
/// its snapshot + journal (the exact boot-recovery path) and print each
/// dataset's recovered version, node/edge counts, replay depth, and an
/// FNV-1a state digest — two directories holding the same logical state
/// print the same digests.
pub fn replay(dir: &str, json: bool) -> Result<String, String> {
    let persist = relengine::GraphPersistence::open(dir).map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    for id in persist.dataset_ids().map_err(|e| e.to_string())? {
        let mut r = persist
            .recover(&id)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("dataset {id:?} listed but not recoverable"))?;
        let graph = r.graph.snapshot();
        let version = r.graph.version();
        rows.push((
            id,
            version,
            graph.node_count(),
            graph.edge_count(),
            r.snapshot_version,
            r.replayed,
            relstore::graph_digest(&graph, version),
        ));
    }
    if json {
        let rows: Vec<serde_json::Value> = rows
            .iter()
            .map(|(id, version, nodes, edges, snapshot_version, replayed, digest)| {
                serde_json::json!({
                    "dataset": id,
                    "version": version,
                    "nodes": nodes,
                    "edges": edges,
                    "snapshot_version": snapshot_version,
                    "replayed_records": replayed,
                    "digest": format!("{digest:016x}"),
                })
            })
            .collect();
        return serde_json::to_string_pretty(&rows).map_err(|e| e.to_string());
    }
    let mut out = format!(
        "{:<24} {:>8} {:>8} {:>8} {:>8} {:>8}  {}\n",
        "DATASET", "VERSION", "NODES", "EDGES", "SNAP@", "REPLAY", "DIGEST"
    );
    for (id, version, nodes, edges, snapshot_version, replayed, digest) in &rows {
        out.push_str(&format!(
            "{:<24} {:>8} {:>8} {:>8} {:>8} {:>8}  {:016x}\n",
            id, version, nodes, edges, snapshot_version, replayed, digest
        ));
    }
    out.push_str(&format!("{} dataset(s) replayed from {dir}\n", rows.len()));
    Ok(out)
}

/// `journal verify <dir>`: integrity check (frame CRCs, snapshot
/// decodability, version monotonicity, torn tails) over every dataset in
/// a durable data directory. Returns `Err` — a non-zero exit — when any
/// dataset fails, so it works as a CI / cron guard.
///
/// Exit codes distinguish the boring cases: a missing data directory is
/// exit 3 (checked before the store opens, since opening would silently
/// create it), while an empty (zero-length) journal is a clean exit 0
/// with an explicit "empty journal" note — nothing was damaged, there
/// was just nothing to verify.
pub fn journal_verify(dir: &str, json: bool) -> Result<String, crate::CliError> {
    if !std::path::Path::new(dir).is_dir() {
        return Err(crate::CliError::with_code(3, format!("data directory {dir} does not exist")));
    }
    let store = relstore::DatasetStore::open(dir).map_err(|e| e.to_string())?;
    let reports = store.verify().map_err(|e| e.to_string())?;
    let bad: Vec<&str> =
        reports.iter().filter(|r| !r.is_ok()).map(|r| r.dataset.as_str()).collect();
    let empty_journal = |r: &relstore::DatasetVerify| {
        r.journal_records == 0
            && std::fs::metadata(std::path::Path::new(dir).join(&r.dataset).join("journal.log"))
                .map(|m| m.len() == 0)
                .unwrap_or(false)
    };
    let out = if json {
        let rows: Vec<serde_json::Value> = reports
            .iter()
            .map(|r| {
                serde_json::json!({
                    "dataset": r.dataset,
                    "snapshot_ok": r.snapshot_ok,
                    "journal_records": r.journal_records,
                    "empty_journal": empty_journal(r),
                    "monotonic": r.monotonic,
                    "tail": format!("{:?}", r.tail),
                    "ok": r.is_ok(),
                })
            })
            .collect();
        serde_json::to_string_pretty(&rows).map_err(|e| e.to_string())?
    } else {
        let mut out = format!(
            "{:<24} {:>8} {:>8} {:>9} {:>10}  {}\n",
            "DATASET", "SNAP", "RECORDS", "MONOTONE", "TAIL", "VERDICT"
        );
        for r in &reports {
            out.push_str(&format!(
                "{:<24} {:>8} {:>8} {:>9} {:>10}  {}\n",
                r.dataset,
                if r.snapshot_ok { "ok" } else { "BAD" },
                r.journal_records,
                if r.monotonic { "ok" } else { "BAD" },
                format!("{:?}", r.tail),
                if !r.is_ok() {
                    "DAMAGED"
                } else if empty_journal(r) {
                    "ok (empty journal)"
                } else {
                    "ok"
                },
            ));
        }
        out.push_str(&format!("{} dataset(s) checked in {dir}\n", reports.len()));
        out
    };
    if bad.is_empty() {
        Ok(out)
    } else {
        Err(crate::CliError::from(format!("{out}journal verify failed for: {}", bad.join(", "))))
    }
}

/// Knobs for `scenario run`, mirroring [`relscenario::RunOptions`] plus
/// output format.
pub struct ScenarioRunOptions {
    /// Expansion seed (`--seed`).
    pub seed: u64,
    /// Fault variants per expanded base scenario (`--variants`).
    pub variants: usize,
    /// Cap on expanded scenarios run (`--max`).
    pub max: Option<usize>,
    /// Where to dump shrunk repros (`--dump-dir`).
    pub dump_dir: Option<String>,
    /// Skip shrinking failures (`--no-shrink`).
    pub no_shrink: bool,
    /// Emit JSON instead of a table.
    pub json: bool,
}

/// `scenario run <file|dir>`: expand scenario documents and execute each
/// expansion against a real engine + persistence stack in a temp dir,
/// checking every step against the model oracle. Failures exit 1 with
/// per-scenario diagnostics (and shrunk repro dumps when `--dump-dir` is
/// set); a missing path exits 3.
pub fn scenario_run(path: &str, opts: ScenarioRunOptions) -> Result<String, crate::CliError> {
    let p = std::path::Path::new(path);
    if !p.exists() {
        return Err(crate::CliError::with_code(3, format!("scenario path {path} does not exist")));
    }
    let run_opts = relscenario::RunOptions {
        seed: opts.seed,
        variants: opts.variants,
        max: opts.max,
        dump_dir: opts.dump_dir.map(std::path::PathBuf::from),
        shrink_failures: !opts.no_shrink,
    };
    let report = relscenario::run_suite(p, &run_opts).map_err(|e| e.to_string())?;
    let out = if opts.json {
        let failures: Vec<serde_json::Value> = report
            .failures
            .iter()
            .map(|f| {
                serde_json::json!({
                    "scenario": f.scenario,
                    "step": f.step,
                    "message": f.message,
                    "shrunk_ops": f.shrunk_ops,
                    "dump": f.dump.as_ref().map(|p| p.display().to_string()),
                })
            })
            .collect();
        let doc = serde_json::json!({
            "seed": opts.seed,
            "total": report.total,
            "passed": report.passed,
            "failed": report.failures.len(),
            "failures": failures,
        });
        format!("{}\n", serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?)
    } else {
        let mut out = format!("seed {}: {}\n", opts.seed, report.summary());
        for f in &report.failures {
            out.push_str(&format!("FAIL {} at step {}: {}\n", f.scenario, f.step, f.message));
            if let Some(n) = f.shrunk_ops {
                out.push_str(&format!("     shrunk to {n} op(s)"));
                if let Some(d) = &f.dump {
                    out.push_str(&format!(", repro dumped to {}", d.display()));
                }
                out.push('\n');
            }
        }
        out
    };
    if report.ok() {
        Ok(out)
    } else {
        Err(crate::CliError::from(format!(
            "{out}{} scenario(s) failed; reproduce with --seed {}",
            report.failures.len(),
            opts.seed
        )))
    }
}

/// `lint [root]`: run the project's static-analysis rules over the
/// workspace's first-party crates. A finding outside the baseline exits
/// 1; a root without a `crates/` directory exits 3; everything clean
/// exits 0. With `--json` the full report (findings, suppression and
/// baseline counters) is printed for CI artifacts.
pub fn lint(root: &str, baseline: Option<&str>, json: bool) -> Result<String, crate::CliError> {
    let root_path = std::path::Path::new(root);
    if !root_path.join("crates").is_dir() {
        return Err(crate::CliError::with_code(
            3,
            format!("{root} has no crates/ directory to lint"),
        ));
    }
    // Default baseline: <root>/rellint.baseline, when present.
    let default_baseline = root_path.join("rellint.baseline");
    let baseline_path = match baseline {
        Some(p) => Some(std::path::PathBuf::from(p)),
        None => default_baseline.exists().then_some(default_baseline),
    };
    let baseline = match &baseline_path {
        Some(p) => {
            let text = std::fs::read_to_string(p).map_err(|e| {
                crate::CliError::with_code(3, format!("cannot read baseline {}: {e}", p.display()))
            })?;
            rellint::parse_baseline(&text).map_err(|e| crate::CliError::with_code(2, e))?
        }
        None => Vec::new(),
    };
    let ws = rellint::Workspace::load(root_path).map_err(|e| e.to_string())?;
    let report = ws.run(&baseline);
    let out = if json { report.render_json() } else { report.render_text() };
    if report.is_clean() {
        Ok(out)
    } else if json {
        // The JSON report goes to stdout even on failure so CI can
        // redirect it into an artifact; the exit code carries the verdict.
        println!("{out}");
        Err(crate::CliError::from(format!("lint failed: {} finding(s)", report.findings.len())))
    } else {
        Err(crate::CliError::from(format!(
            "{out}lint failed; fix the findings, add a reasoned \
             `// rellint: allow(<rule>) -- <reason>` pragma, or freeze existing debt as \
             `rule<TAB>path<TAB>source text` lines in rellint.baseline"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_datasets_all_and_filtered() {
        let all = list_datasets(None).unwrap();
        assert!(all.contains("50 datasets"));
        let wiki = list_datasets(Some("wikipedia")).unwrap();
        assert!(wiki.contains("36 datasets"));
        let fx = list_datasets(Some("fixture")).unwrap();
        assert!(fx.contains("8 datasets"));
        assert!(list_datasets(Some("bogus")).is_err());
    }

    #[test]
    fn algorithms_lists_seven() {
        let out = algorithms();
        assert_eq!(out.lines().count(), 8); // header + 7
        assert!(out.contains("cyclerank"));
        assert!(out.contains("ranking only"));
    }

    #[test]
    fn stats_of_fixture() {
        let out = stats("fixture-fakenews-pl").unwrap();
        assert!(out.contains("nodes"));
        assert!(out.contains("reciprocity"));
        assert!(out.contains("csr          "), "{out}");
        assert!(out.contains("compact      "), "{out}");
        assert!(out.contains("image encoding"), "{out}");
        assert!(!out.contains("precision"), "{out}");
        assert!(stats("nope").is_err());
    }

    #[test]
    fn run_on_local_file() {
        let dir = std::env::temp_dir().join("relcli-run-file-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mine.net");
        std::fs::write(&path, "*Vertices 2\n1 \"me\"\n2 \"pal\"\n*Arcs\n1 2\n2 1\n").unwrap();
        let spec = RunSpec {
            dataset: "uploaded-file".into(),
            file: Some(path.to_str().unwrap().to_string()),
            algorithm: "cyclerank".into(),
            source: Some("me".into()),
            alpha: None,
            k: Some(3),
            sigma: None,
            scheme: None,
            threads: None,
            trace: false,
            top_k: None,
            top: 2,
            json: false,
        };
        let out = run_task(spec).unwrap();
        assert!(out.contains("pal"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_cyclerank_table_output() {
        let spec = RunSpec {
            dataset: "fixture-fakenews-it".into(),
            file: None,
            algorithm: "cyclerank".into(),
            source: Some("Fake news".into()),
            alpha: None,
            k: Some(3),
            sigma: Some("exp".into()),
            scheme: None,
            threads: None,
            trace: false,
            top_k: None,
            top: 5,
            json: false,
        };
        let out = run_task(spec).unwrap();
        assert!(out.contains("cycles found"));
        assert!(out.contains("Fake news"));
        assert!(out.contains("Disinformazione"));
    }

    #[test]
    fn run_json_output() {
        let spec = RunSpec {
            dataset: "fixture-fakenews-pl".into(),
            file: None,
            algorithm: "pagerank".into(),
            source: None,
            alpha: Some(0.85),
            k: None,
            sigma: None,
            scheme: None,
            threads: None,
            trace: false,
            top_k: None,
            top: 3,
            json: true,
        };
        let out = run_task(spec).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["algorithm"], "pagerank");
        assert_eq!(v["top"].as_array().unwrap().len(), 3);
    }

    #[test]
    fn run_any_scheme_for_every_stationary_algorithm() {
        // The acceptance scenario: --scheme S --threads N works for the
        // whole PageRank family, global and personalized.
        for algorithm in ["pagerank", "ppr", "cheirank", "pcheirank", "2drank", "p2drank"] {
            for scheme in relcore::Scheme::ALL {
                let personalized =
                    AlgorithmRegistry::global().get(algorithm).unwrap().is_personalized();
                let spec = RunSpec {
                    dataset: "fixture-fakenews-it".into(),
                    file: None,
                    algorithm: algorithm.into(),
                    source: personalized.then(|| "Fake news".into()),
                    alpha: None,
                    k: None,
                    sigma: None,
                    scheme: Some(scheme),
                    threads: Some(2),
                    trace: false,
                    top_k: None,
                    top: 3,
                    json: false,
                };
                let out = run_task(spec).unwrap_or_else(|e| panic!("{algorithm}/{scheme}: {e}"));
                assert!(out.contains("\n  1  "), "{algorithm}/{scheme}: {out}");
                if personalized {
                    assert!(out.contains("Fake news"), "{algorithm}/{scheme}: {out}");
                }
            }
        }
    }

    #[test]
    fn run_trace_prints_residuals() {
        let spec = RunSpec {
            dataset: "fixture-fakenews-pl".into(),
            file: None,
            algorithm: "pagerank".into(),
            source: None,
            alpha: None,
            k: None,
            sigma: None,
            scheme: None,
            threads: None,
            trace: true,
            top_k: None,
            top: 3,
            json: false,
        };
        let out = run_task(spec).unwrap();
        assert!(out.contains("residual trace:"), "{out}");
        assert!(out.contains("converged"), "{out}");
        assert!(out.contains("e-"), "trace prints scientific notation: {out}");
    }

    #[test]
    fn run_trace_with_approximate_solver_warns() {
        // CycleRank has no iterate, hence no residual trace to print.
        let spec = RunSpec {
            dataset: "fixture-fakenews-pl".into(),
            file: None,
            algorithm: "cyclerank".into(),
            source: Some("Fake news".into()),
            alpha: None,
            k: None,
            sigma: None,
            scheme: None,
            threads: None,
            trace: true,
            top_k: None,
            top: 3,
            json: false,
        };
        let out = run_task(spec).unwrap();
        assert!(!out.contains("residual trace:"), "{out}");
        assert!(out.contains("--trace has no effect"), "{out}");
    }

    #[test]
    fn run_rejects_bad_algorithm() {
        let spec = RunSpec {
            dataset: "fixture-fakenews-pl".into(),
            file: None,
            algorithm: "zerank".into(),
            source: None,
            alpha: None,
            k: None,
            sigma: None,
            scheme: None,
            threads: None,
            trace: false,
            top_k: None,
            top: 3,
            json: false,
        };
        assert!(run_task(spec).is_err());
    }

    #[test]
    fn batch_over_seed_list() {
        let out = batch(BatchSpecArgs {
            dataset: "fixture-enwiki-2018".into(),
            algorithm: "ppr".into(),
            seeds: "Freddie Mercury, Queen (band)".into(),
            alpha: None,
            scheme: None,
            threads: None,
            top: 3,
            top_k: None,
            json: false,
        })
        .unwrap();
        assert!(out.contains("2 seeds"), "{out}");
        assert!(out.contains("seed Freddie Mercury"), "{out}");
        assert!(out.contains("seed Queen (band)"), "{out}");
        assert!(out.contains("ms/seed amortized"), "{out}");
    }

    #[test]
    fn batch_over_seed_file_json() {
        let dir = std::env::temp_dir().join("relcli-batch-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seeds.txt");
        std::fs::write(&path, "# seed labels\nFreddie Mercury\n\nBrian May\n").unwrap();
        let out = batch(BatchSpecArgs {
            dataset: "fixture-enwiki-2018".into(),
            algorithm: "ppr".into(),
            seeds: format!("@{}", path.display()),
            alpha: None,
            scheme: None,
            threads: None,
            top: 3,
            top_k: None,
            json: true,
        })
        .unwrap();
        // One task result per seed, as GET /api/tasks/{id}/result answers.
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v.as_array().unwrap().len(), 2, "comments and blanks skipped");
        assert_eq!(v[1]["source"], "Brian May");
        assert_eq!(v[1]["top"].as_array().unwrap().len(), 3);
        assert_eq!(v[0]["algorithm"], "ppr");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_rejections() {
        let base = BatchSpecArgs {
            dataset: "fixture-enwiki-2018".into(),
            algorithm: "ppr".into(),
            seeds: ",".into(),
            alpha: None,
            scheme: None,
            threads: None,
            top: 3,
            top_k: None,
            json: false,
        };
        // Empty seed expansion.
        assert_eq!(batch(base.clone()).unwrap_err(), "batch has no sources");
        // Missing seed file.
        assert!(batch(BatchSpecArgs { seeds: "@/no/such/file".into(), ..base.clone() }).is_err());
        // Global algorithm.
        let err = batch(BatchSpecArgs {
            algorithm: "pagerank".into(),
            seeds: "Freddie Mercury".into(),
            ..base.clone()
        })
        .unwrap_err();
        assert_eq!(
            err,
            "batch queries require a personalized algorithm (each seed is one personalization)"
        );
        // Unknown seed.
        assert!(batch(BatchSpecArgs { seeds: "No Such Page".into(), ..base }).is_err());
    }

    #[test]
    fn parse_edge_specs() {
        let e = parse_edge("A->B", true).unwrap();
        assert_eq!((e.source.as_str(), e.target.as_str(), e.weight), ("A", "B", None));
        let e = parse_edge("A->B:2.5", true).unwrap();
        assert_eq!(e.weight, Some(2.5));
        // Colons that are not weights stay part of the label.
        let e = parse_edge("A->re:invent", true).unwrap();
        assert_eq!(e.target, "re:invent");
        assert_eq!(e.weight, None);
        // Removals never parse weights.
        let e = parse_edge("A->B:2.5", false).unwrap();
        assert_eq!(e.target, "B:2.5");
        assert!(parse_edge("no-arrow", true).is_err());
        assert!(parse_edge("->B", true).is_err());
    }

    #[test]
    fn mutate_applies_and_reports_json() {
        // Bidirectional ring: unlabeled nodes, so numeric endpoints
        // resolve by index. +1 edge, -1 edge => edge count unchanged.
        let out = mutate(MutateSpec {
            dataset: "synthetic-ring".into(),
            add: vec!["5->500".into()],
            remove: vec!["0->1".into()],
            algorithm: None,
            source: None,
            top: 5,
            top_k: None,
            json: true,
        })
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["applied"], 2u64);
        assert_eq!(v["version"], 2u64);
        assert_eq!(v["nodes"], 1000u64);
        assert_eq!(v["edges"], 2000u64);
        assert!(v["top_before"].is_null(), "no query requested");
    }

    #[test]
    fn mutate_shows_before_and_after_ranking() {
        let out = mutate(MutateSpec {
            dataset: "fixture-fakenews-it".into(),
            add: vec!["Fake news->Brand New Page".into()],
            remove: vec![],
            algorithm: Some("ppr".into()),
            source: Some("Fake news".into()),
            top: 3,
            top_k: Some(3),
            json: false,
        })
        .unwrap();
        assert!(out.contains("graph version 2"), "{out}"); // node creation + insert
        assert!(out.contains("before | after"), "{out}");
        assert!(out.contains("invalidated"), "{out}");
        assert!(out.contains("Fake news"), "{out}");
    }

    #[test]
    fn mutate_rejections() {
        let base = MutateSpec {
            dataset: "fixture-fakenews-it".into(),
            add: vec![],
            remove: vec!["No Such Node->Fake news".into()],
            algorithm: None,
            source: None,
            top: 5,
            top_k: None,
            json: false,
        };
        let err = mutate(base.clone()).unwrap_err();
        assert!(err.contains("No Such Node"), "{err}");
        assert!(mutate(MutateSpec { dataset: "ghost".into(), ..base.clone() }).is_err());
        assert!(mutate(MutateSpec { add: vec!["broken".into()], ..base }).is_err());
    }

    /// Builds a durable data directory holding one mutated upload, via
    /// the same engine path the server uses.
    fn durable_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "relcli-store-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let mut ex = Executor::new();
        ex.attach_persistence(std::sync::Arc::new(
            relengine::GraphPersistence::open(&dir).unwrap(),
        ));
        let mut b = relgraph::GraphBuilder::new();
        b.add_labeled_edge("a", "b");
        b.add_labeled_edge("b", "a");
        ex.register_graph("cli-net", b.build()).unwrap();
        ex.mutate_dataset(
            "cli-net",
            &[relengine::EdgeOp::Add(relengine::EdgeSpec {
                source: "b".into(),
                target: "c".into(),
                weight: Some(2.0),
            })],
        )
        .unwrap();
        dir
    }

    #[test]
    fn replay_prints_versions_and_digests() {
        let dir = durable_dir("replay");
        let out = replay(dir.to_str().unwrap(), false).unwrap();
        assert!(out.contains("cli-net"), "{out}");
        assert!(out.contains("DIGEST"), "{out}");
        assert!(out.contains("1 dataset(s) replayed"), "{out}");
        // Deterministic: a second replay prints the identical table.
        assert_eq!(out, replay(dir.to_str().unwrap(), false).unwrap());
        let json = replay(dir.to_str().unwrap(), true).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v[0]["dataset"], "cli-net");
        assert_eq!(v[0]["version"].as_u64(), Some(2)); // node "c" + edge b->c
        assert!(v[0]["digest"].as_str().unwrap().len() == 16);
        // An empty store replays to an empty table, not an error.
        std::fs::remove_dir_all(&dir).unwrap();
        let out = replay(dir.to_str().unwrap(), false).unwrap();
        assert!(out.contains("0 dataset(s) replayed"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_verify_detects_corruption() {
        let dir = durable_dir("verify");
        let out = journal_verify(dir.to_str().unwrap(), false).unwrap();
        assert!(out.contains("cli-net"), "{out}");
        assert!(out.contains(" ok"), "{out}");
        // Flip one payload byte: the CRC check must flag the dataset and
        // the command must fail (non-zero exit in the binary).
        let journal = dir.join("cli-net").join("journal.log");
        let mut bytes = std::fs::read(&journal).unwrap();
        let mid = bytes.len() - 3;
        bytes[mid] ^= 0x40;
        std::fs::write(&journal, &bytes).unwrap();
        let err = journal_verify(dir.to_str().unwrap(), false).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("journal verify failed for: cli-net"), "{err}");
        assert!(err.message.contains("DAMAGED"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_verify_distinguishes_missing_dir_and_empty_journal() {
        // Missing data directory: exit 3, and the directory is NOT
        // created as a side effect of the check.
        let dir = durable_dir("verify-missing");
        std::fs::remove_dir_all(&dir).unwrap();
        let err = journal_verify(dir.to_str().unwrap(), false).unwrap_err();
        assert_eq!(err.code, 3);
        assert!(err.message.contains("does not exist"), "{err}");
        assert!(!dir.exists(), "verify must not create the directory");
        // Empty (zero-length) journal next to a valid snapshot: clean
        // exit with an explicit note, distinct from damage.
        let dir = durable_dir("verify-empty");
        std::fs::write(dir.join("cli-net").join("journal.log"), b"").unwrap();
        let out = journal_verify(dir.to_str().unwrap(), false).unwrap();
        assert!(out.contains("ok (empty journal)"), "{out}");
        let json = journal_verify(dir.to_str().unwrap(), true).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v[0]["empty_journal"], true, "{json}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mutate_top_k_uses_certified_serving_path() {
        let out = mutate(MutateSpec {
            dataset: "fixture-fakenews-it".into(),
            add: vec!["Fake news->Another Page".into()],
            remove: vec![],
            algorithm: Some("cyclerank".into()),
            source: Some("Fake news".into()),
            top: 5,
            top_k: Some(2),
            json: true,
        })
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        // --top-k 2 caps both printouts at the two certified entries.
        assert_eq!(v["top_before"].as_array().unwrap().len(), 2, "{out}");
        assert_eq!(v["top_after"].as_array().unwrap().len(), 2, "{out}");
        assert_eq!(v["top_before"][0][0], "Fake news");
    }

    #[test]
    fn compare_produces_side_by_side_columns() {
        let out = compare(CompareSpec {
            dataset: "fixture-enwiki-2018".into(),
            source: "Freddie Mercury".into(),
            algorithms: vec!["pagerank".into(), "cyclerank".into(), "ppr".into()],
            top: 5,
        })
        .unwrap();
        // Table I shape: PR column has the hub, CR column has the band.
        assert!(out.contains("United States"));
        assert!(out.contains("Queen (band)"));
        assert!(out.contains("Comparison id"));
        assert_eq!(out.lines().filter(|l| l.starts_with(char::is_numeric)).count(), 5);
    }

    #[test]
    fn compare_datasets_table3_style() {
        let out = compare_datasets(CompareDatasetsSpec {
            datasets: vec!["fixture-fakenews-it".into(), "fixture-fakenews-pl".into()],
            source: "Fake news".into(),
            k: 3,
            top: 4,
        })
        .unwrap();
        assert!(out.contains("Disinformazione"));
        assert!(out.contains("Dezinformacja"));
        assert!(out.contains("K = 3"));
    }

    #[test]
    fn visualize_writes_dot() {
        let dir = std::env::temp_dir().join("relcli-viz-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("viz.dot");
        let msg =
            visualize("fixture-fakenews-it", "Fake news", 3, 6, out.to_str().unwrap()).unwrap();
        assert!(msg.contains("6 nodes"), "{msg}");
        let dot = std::fs::read_to_string(&out).unwrap();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("Disinformazione"));
        std::fs::remove_dir_all(&dir).ok();
        assert!(visualize("nope", "x", 3, 5, "/tmp/x.dot").is_err());
        assert!(visualize("fixture-fakenews-it", "Nope", 3, 5, "/tmp/x.dot").is_err());
    }

    #[test]
    fn convert_roundtrip() {
        let dir = std::env::temp_dir().join("relcli-convert-test");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.csv");
        let output = dir.join("out.net");
        std::fs::write(&input, "0,1\n1,0\n").unwrap();
        let msg = convert(input.to_str().unwrap(), output.to_str().unwrap(), None).unwrap();
        assert!(msg.contains("2 nodes"));
        let back = relformats::load_graph(&output).unwrap();
        assert_eq!(back.edge_count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
