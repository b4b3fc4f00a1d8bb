//! The metric tables: every name, unit, direction and bound the benchmark
//! reports, in one place. `BENCHMARK.json` is generated from these tables
//! (`relmark manifest`) and the schema test holds the two together.

use crate::workload::WORKLOADS;
use relcore::Algorithm;
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// Measured `(metric name, value)` pairs, in report order.
pub type Figures = Vec<(String, f64)>;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before
    /// a change is rejected. Set from spreads measured with
    /// `relmark check` (see README, "Bounds"), never below 10%.
    pub bound: f64,
}

/// What a user of the system sees, per workload, tracing off.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "lat_p50_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "lat_p90_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.10 },
];

/// `(name, unit, better)` of every per-layer metric, grouped by layer
/// (layer = crate). The seven `relcore.alg.<id>_us` rows are appended by
/// [`per_layer`].
const PER_LAYER: [(&str, &str, &str); 66] = [
    // relserver
    ("relserver.noop_rtt_us", "us", "lower"),
    ("relserver.parse_us", "us", "lower"),
    ("relserver.dispatch_us", "us", "lower"),
    ("relserver.write_us", "us", "lower"),
    ("relserver.self_us", "us", "lower"),
    ("relserver.transport_us", "us", "lower"),
    ("relserver.shed_expensive", "count", "lower"),
    ("relserver.shed_queue_full", "count", "lower"),
    ("relserver.keepalive_reuse_ratio", "ratio", "higher"),
    ("relserver.upload_ms", "ms", "lower"),
    // relengine
    ("relengine.submit_wait_us", "us", "lower"),
    ("relengine.queue_self_us", "us", "lower"),
    ("relengine.execute_us", "us", "lower"),
    ("relengine.execute_self_us", "us", "lower"),
    ("relengine.cache_hit_us", "us", "lower"),
    ("relengine.cache_hit_ratio", "ratio", "higher"),
    ("relengine.cache_evictions", "count", "lower"),
    ("relengine.cache_invalidations", "count", "lower"),
    ("relengine.mutate_us", "us", "lower"),
    ("relengine.mutate_commit_us", "us", "lower"),
    ("relengine.datastore_put_us", "us", "lower"),
    ("relengine.resolve_after_mutation_ms", "ms", "lower"),
    ("relengine.arena_allocs_per_solve", "count", "lower"),
    ("relengine.retained_bytes_per_task", "B", "lower"),
    // relcore
    ("relcore.query_run_us", "us", "lower"),
    ("relcore.query_self_us", "us", "lower"),
    ("relcore.kernel_solve_ms", "ms", "lower"),
    ("relcore.sweep_ns_per_edge", "ns", "lower"),
    ("relcore.iterations", "count", "lower"),
    ("relcore.edges_swept_per_op", "count", "lower"),
    ("relcore.bytes_per_sweep_computed", "B", "lower"),
    ("relcore.sweep_gbps_computed", "GB/s", "higher"),
    ("relcore.cyclerank_ms", "ms", "lower"),
    ("relcore.cyclerank_cycles", "count", "higher"),
    ("relcore.topk_solve_ms", "ms", "lower"),
    ("relcore.topk_certified_ratio", "ratio", "higher"),
    ("relcore.batch16_ms_per_seed", "ms", "lower"),
    ("relcore.small_solve_us", "us", "lower"),
    ("relcore.small_solve_power_us", "us", "lower"),
    // relgraph
    ("relgraph.build_ms", "ms", "lower"),
    ("relgraph.dyn_mutate_us", "us", "lower"),
    ("relgraph.dyn_snapshot_ms", "ms", "lower"),
    ("relgraph.csr_bytes_per_edge", "B", "lower"),
    ("relgraph.compact_bytes_per_edge", "B", "lower"),
    ("relgraph.compact_build_ms", "ms", "lower"),
    ("relgraph.compact_sweep_ratio", "ratio", "lower"),
    // relstore
    ("relstore.append_us", "us", "lower"),
    ("relstore.fsync_floor_us", "us", "lower"),
    ("relstore.snapshot_write_ms", "ms", "lower"),
    ("relstore.recover_ms", "ms", "lower"),
    ("relstore.replayed_records", "count", "lower"),
    ("relstore.image_load_ms", "ms", "lower"),
    ("relstore.journal_bytes_per_mutation", "B", "lower"),
    ("relstore.disk_bytes_per_edge", "B", "lower"),
    // reldata, relformats
    ("reldata.generate_ms", "ms", "lower"),
    ("reldata.catalog_load_ms", "ms", "lower"),
    ("reldata.spec_lookup_us", "us", "lower"),
    ("relformats.parse_upload_ms", "ms", "lower"),
    ("relformats.upload_bytes", "B", "lower"),
    // floors and harness
    ("host.triad_gbps", "GB/s", "higher"),
    ("client.samples", "count", "higher"),
    ("client.lat_p50_us", "us", "lower"),
    ("client.solo_p50_us", "us", "lower"),
    ("client.lat_p99_ms", "ms", "lower"),
    ("client.lat_max_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
];

/// Ledger rows: derived from the chain above rather than measured.
const LEDGER: [(&str, &str, &str); 2] =
    [("ledger.unexplained_ratio", "ratio", "lower"), ("ledger.relcore_share", "ratio", "lower")];

/// Every per-layer metric as `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut rows: Vec<_> = PER_LAYER.iter().map(|&(n, u, b)| (n.to_string(), u, b)).collect();
    rows.extend(
        Algorithm::ALL.iter().map(|a| (format!("relcore.alg.{}_us", a.id()), "us", "lower")),
    );
    rows.extend(LEDGER.iter().map(|&(n, u, b)| (n.to_string(), u, b)));
    rows
}

/// Seconds one run measures: `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 22;

/// `BENCHMARK.json`, from the tables.
pub fn manifest() -> Value {
    let workloads: Vec<Value> =
        WORKLOADS.iter().map(|(name, why)| json!({"name": name, "why": why})).collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}))
        .collect();
    let per_layer: Vec<Value> = per_layer()
        .into_iter()
        .map(|(name, unit, better)| json!({"name": name, "unit": unit, "better": better}))
        .collect();
    json!({
        "command": ["cargo", "run", "--release", "--offline", "--quiet", "--manifest-path", "benchmark/Cargo.toml", "--"],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer
    })
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric with its unit. A metric the tables do not
/// declare is an error, not a silently dropped row.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64)],
) -> Result<String, String> {
    let mut units: BTreeMap<String, &str> =
        END_TO_END.iter().map(|m| (m.name.to_string(), m.unit)).collect();
    units.extend(per_layer().into_iter().map(|(name, unit, _)| (name, unit)));
    let mut map = serde_json::Map::new();
    for (name, value) in metrics {
        let unit = units.get(name).ok_or_else(|| format!("metric {name} is not declared"))?;
        map.insert(name.clone(), json!({"value": *value, "unit": unit}));
    }
    let line = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(map)
    });
    Ok(line.to_string())
}
