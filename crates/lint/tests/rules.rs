//! Fixture tests: each rule must fire on a known-bad snippet and stay
//! quiet on the known-good twin. This is how CI proves the lint would
//! fail on a seeded violation without anyone breaking HEAD.

use rellint::{parse_baseline, Workspace};

fn rules_hit(ws: &Workspace) -> Vec<(String, u32)> {
    ws.run(&[]).findings.into_iter().map(|f| (f.rule, f.line)).collect()
}

// -------------------------------------------------------------------------
// Rule 1 · cache-key
// -------------------------------------------------------------------------

const KEYED_STRUCT: &str = "
pub struct TaskSpec {
    pub dataset: String,
    pub source: Option<String>,
    pub top_k: usize,
}
";

#[test]
fn cache_key_fires_when_a_field_is_missing_from_the_key() {
    let ws = Workspace::from_sources(&[
        ("crates/engine/src/task.rs", KEYED_STRUCT),
        (
            "crates/engine/src/cache.rs",
            // `top_k` never rendered into the key: the PR 5 bug class.
            "pub fn cache_key(spec: &TaskSpec) -> String {
                 format!(\"{};{:?}\", spec.dataset, spec.source)
             }",
        ),
    ]);
    let hits = rules_hit(&ws);
    assert_eq!(hits.len(), 1, "exactly the missing field: {hits:?}");
    assert_eq!(hits[0].0, "cache-key");
    assert_eq!(hits[0].1, 5, "anchored at the `top_k` declaration line");
}

#[test]
fn cache_key_quiet_when_every_field_participates() {
    let ws = Workspace::from_sources(&[
        ("crates/engine/src/task.rs", KEYED_STRUCT),
        (
            "crates/engine/src/cache.rs",
            "pub fn cache_key(spec: &TaskSpec) -> String {
                 format!(\"{};{:?};{}\", spec.dataset, spec.source, spec.top_k)
             }",
        ),
    ]);
    assert!(rules_hit(&ws).is_empty());
}

#[test]
fn cache_key_honors_serde_skip_and_pragma_exemption() {
    let ws = Workspace::from_sources(&[
        (
            "crates/engine/src/task.rs",
            "pub struct TaskSpec {
                 pub dataset: String,
                 #[serde(skip)]
                 pub scratch: usize,
                 // rellint: allow(cache-key) -- affects wall time only, never the result
                 pub threads: usize,
             }",
        ),
        (
            "crates/engine/src/cache.rs",
            "pub fn cache_key(spec: &TaskSpec) -> String { spec.dataset.clone() }",
        ),
    ]);
    let report = ws.run(&[]);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 1, "the pragma-exempt field counts as suppressed");
}

#[test]
fn cache_key_fires_when_the_key_function_vanishes() {
    let ws = Workspace::from_sources(&[("crates/engine/src/task.rs", KEYED_STRUCT)]);
    let hits = rules_hit(&ws);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].0, "cache-key");
}

const SOLVER_CONFIG: &str = "
pub struct SolverConfig {
    pub damping: f64,
    pub tolerance: f64,
    // rellint: allow(cache-key) -- the chunk count changes wall time, never a vector's bits
    pub threads: usize,
}
";

#[test]
fn vector_key_fires_when_a_solver_config_field_is_missing() {
    let ws = Workspace::from_sources(&[
        ("crates/core/src/solver.rs", SOLVER_CONFIG),
        (
            "crates/core/src/memo.rs",
            // `damping` dropped from the key: a vector solved at one
            // damping would answer a read at another.
            "fn vector_key(version: u64, cfg: &SolverConfig) -> VectorKey {
                 VectorKey { version, tolerance: cfg.tolerance.to_bits() }
             }",
        ),
    ]);
    let hits = rules_hit(&ws);
    assert_eq!(hits, [("cache-key".to_string(), 3)], "anchored at `damping`");
}

#[test]
fn vector_key_quiet_when_every_field_but_the_exempt_one_participates() {
    let ws = Workspace::from_sources(&[
        ("crates/core/src/solver.rs", SOLVER_CONFIG),
        (
            "crates/core/src/memo.rs",
            "fn vector_key(version: u64, cfg: &SolverConfig) -> VectorKey {
                 VectorKey { version, damping: cfg.damping.to_bits(), tolerance: cfg.tolerance.to_bits() }
             }",
        ),
    ]);
    let report = ws.run(&[]);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 1, "`threads` is exempt by its pragma");
}

#[test]
fn vector_key_fires_when_the_key_function_vanishes() {
    let ws = Workspace::from_sources(&[("crates/core/src/solver.rs", SOLVER_CONFIG)]);
    let hits = rules_hit(&ws);
    assert_eq!(hits, [("cache-key".to_string(), 2)]);
}

// -------------------------------------------------------------------------
// Rule 2 · lock-order
// -------------------------------------------------------------------------

#[test]
fn lock_order_fires_on_opposite_acquisition_orders() {
    let ws = Workspace::from_sources(&[(
        "crates/engine/src/executor.rs",
        "impl Executor {
             fn forward(&self) {
                 let map = self.datasets.lock();
                 let slot = self.tiers.lock();
             }
             fn backward(&self) {
                 let slot = self.tiers.lock();
                 let map = self.datasets.lock();
             }
         }",
    )]);
    let hits = rules_hit(&ws);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].0, "lock-order");
}

#[test]
fn lock_order_quiet_on_consistent_order_and_dropped_guards() {
    let ws = Workspace::from_sources(&[(
        "crates/engine/src/executor.rs",
        "impl Executor {
             fn forward(&self) {
                 let map = self.datasets.lock();
                 let slot = self.tiers.lock();
             }
             fn also_forward(&self) {
                 let map = self.datasets.lock();
                 drop(map);
                 let slot = self.tiers.lock();
             }
         }",
    )]);
    assert!(rules_hit(&ws).is_empty());
}

#[test]
fn lock_order_fires_on_reacquiring_a_held_lock() {
    let ws = Workspace::from_sources(&[(
        "crates/server/src/pool.rs",
        "impl Pool {
             fn double(&self) {
                 let a = self.queue.lock();
                 let b = self.queue.lock();
             }
         }",
    )]);
    let hits = rules_hit(&ws);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].0, "lock-order");
}

#[test]
fn lock_order_treats_statement_temporaries_as_released() {
    // `self.a.lock().push(x);` drops its guard at the semicolon, so a
    // later `self.b.lock()` in the next statement creates no edge — the
    // mutate-then-invalidate shape the executor actually uses.
    let ws = Workspace::from_sources(&[(
        "crates/engine/src/executor.rs",
        "impl Executor {
             fn forward(&self) {
                 self.datasets.lock().insert(1);
                 self.tiers.lock().insert(2);
             }
             fn backward(&self) {
                 self.tiers.lock().insert(2);
                 self.datasets.lock().insert(1);
             }
         }",
    )]);
    assert!(rules_hit(&ws).is_empty());
}

#[test]
fn lock_order_knows_a_consumed_guard_from_a_held_one() {
    // `let v = x.lock().unwrap_or_else(…).get(id).copied();` binds the
    // copied value — the guard dies at the semicolon, so re-locking the
    // same mutex later in the function is fine (the memoized-footprint
    // shape in routes.rs). But `let g = x.lock().expect("…");` binds
    // the guard itself and must still count as held.
    let ws = Workspace::from_sources(&[(
        "crates/server/src/routes.rs",
        "fn footprint(id: &str) {
             let cached = footprints.lock().unwrap_or_else(|e| e.into_inner()).get(id).copied();
             if cached.is_none() {
                 footprints.lock().unwrap_or_else(|e| e.into_inner()).insert(id, measure());
             }
         }",
    )]);
    assert!(rules_hit(&ws).is_empty(), "{:?}", rules_hit(&ws));
    let ws = Workspace::from_sources(&[(
        "crates/engine/src/executor.rs",
        "impl Store {
             fn double(&self) {
                 let w = self.writers.lock().expect(\"writer lock\");
                 let w2 = self.writers.lock().expect(\"writer lock\");
             }
         }",
    )]);
    assert!(
        rules_hit(&ws).iter().any(|(r, _)| r == "lock-order"),
        "adapter-wrapped guard binding is still held: {:?}",
        rules_hit(&ws)
    );
}

// -------------------------------------------------------------------------
// Rule 3 · determinism
// -------------------------------------------------------------------------

#[test]
fn determinism_fires_on_wall_clock_in_digest_file() {
    let ws = Workspace::from_sources(&[(
        "crates/store/src/digest.rs",
        "pub fn graph_digest() -> u64 {
             let t = SystemTime::now();
             0
         }",
    )]);
    let hits = rules_hit(&ws);
    assert_eq!(hits, vec![("determinism".to_string(), 2)]);
}

#[test]
fn determinism_fires_on_hashmap_in_scenario_runner() {
    let ws = Workspace::from_sources(&[(
        "crates/scenario/src/runner.rs",
        "use std::collections::HashMap;
         pub struct Harness { acked: HashMap<String, u64> }",
    )]);
    let hits = rules_hit(&ws);
    assert_eq!(hits.len(), 2, "the use and the field type: {hits:?}");
    assert!(hits.iter().all(|(r, _)| r == "determinism"));
}

#[test]
fn determinism_fires_on_hash_iteration_in_stats_fn() {
    let ws = Workspace::from_sources(&[(
        "crates/engine/src/executor.rs",
        "pub struct Executor { arenas: Mutex<HashMap<String, Arena>> }
         impl Executor {
             pub fn arena_stats(&self) -> usize {
                 let mut n = 0;
                 for a in self.arenas.values() { n += a; }
                 n
             }
         }",
    )]);
    let hits = rules_hit(&ws);
    assert!(
        hits.iter().any(|(r, l)| r == "determinism" && *l == 5),
        "must flag the .values() iteration: {hits:?}"
    );
}

#[test]
fn determinism_quiet_on_btree_and_on_test_code() {
    let ws = Workspace::from_sources(&[(
        "crates/store/src/digest.rs",
        "use std::collections::BTreeMap;
         pub fn graph_digest(m: &BTreeMap<u32, u64>) -> u64 {
             m.values().sum()
         }
         #[cfg(test)]
         mod tests {
             use std::collections::HashMap;
             #[test]
             fn scratch() { let t = std::time::SystemTime::now(); }
         }",
    )]);
    assert!(rules_hit(&ws).is_empty());
}

#[test]
fn determinism_ignores_unscoped_functions() {
    // An ordinary engine function may use wall clocks and HashMaps —
    // only digest/stats/oracle surfaces are replay-critical.
    let ws = Workspace::from_sources(&[(
        "crates/engine/src/scheduler.rs",
        "pub fn admit() { let deadline = Instant::now(); }",
    )]);
    assert!(rules_hit(&ws).is_empty());
}

// -------------------------------------------------------------------------
// Rule 4 · durability
// -------------------------------------------------------------------------

#[test]
fn durability_fires_on_rename_without_sync() {
    let ws = Workspace::from_sources(&[(
        "crates/store/src/snapshot.rs",
        "pub fn write_snapshot(path: &Path, bytes: &[u8]) -> io::Result<()> {
             let mut f = File::create(tmp(path))?;
             f.write_all(bytes)?;
             std::fs::rename(tmp(path), path)
         }",
    )]);
    let hits = rules_hit(&ws);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].0, "durability");
}

#[test]
fn durability_quiet_when_sync_precedes_rename() {
    let ws = Workspace::from_sources(&[(
        "crates/store/src/snapshot.rs",
        "pub fn write_snapshot(path: &Path, bytes: &[u8]) -> io::Result<()> {
             let mut f = File::create(tmp(path))?;
             f.write_all(bytes)?;
             f.sync_all()?;
             std::fs::rename(tmp(path), path)
         }",
    )]);
    assert!(rules_hit(&ws).is_empty());
}

#[test]
fn durability_fires_when_ack_precedes_journal() {
    let ws = Workspace::from_sources(&[(
        "crates/engine/src/executor.rs",
        "impl Executor {
             fn mutate(&self, id: &str, ops: Ops) {
                 self.results.invalidate_dataset(id);
                 self.persist.append(id, ops);
             }
         }",
    )]);
    let hits = rules_hit(&ws);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].0, "durability");
}

#[test]
fn durability_quiet_when_journal_precedes_ack() {
    let ws = Workspace::from_sources(&[(
        "crates/engine/src/executor.rs",
        "impl Executor {
             fn mutate(&self, id: &str, ops: Ops) {
                 self.persist.append(id, ops);
                 self.results.invalidate_dataset(id);
             }
         }",
    )]);
    assert!(rules_hit(&ws).is_empty());
}

// -------------------------------------------------------------------------
// Rule 5 · float-hygiene
// -------------------------------------------------------------------------

#[test]
fn float_hygiene_fires_on_narrowing_in_certified_module() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/push.rs",
        "pub fn residual_bound(r: f64) -> f64 {
             let narrowed = r as f32;
             narrowed as f64
         }",
    )]);
    let hits = rules_hit(&ws);
    assert_eq!(hits, vec![("float-hygiene".to_string(), 2)]);
}

#[test]
fn float_hygiene_ignores_uncertified_modules_and_tests() {
    let ws = Workspace::from_sources(&[
        ("crates/core/src/solver.rs", "pub fn lane(v: f64) -> f32 { v as f32 }"),
        (
            "crates/core/src/topk.rs",
            "pub fn bound(r: f64) -> f64 { r }
             #[cfg(test)]
             mod tests {
                 #[test]
                 fn narrow() { let _ = 1.0f64 as f32; }
             }",
        ),
    ]);
    assert!(rules_hit(&ws).is_empty());
}

// -------------------------------------------------------------------------
// Rule 6 · panic-hygiene
// -------------------------------------------------------------------------

#[test]
fn panic_hygiene_fires_on_unwrap_expect_panic_in_serving_code() {
    let ws = Workspace::from_sources(&[(
        "crates/server/src/routes.rs",
        "pub fn handle(req: Request) -> Response {
             let body = req.body().unwrap();
             let spec = parse(body).expect(\"valid\");
             panic!(\"unreachable\");
         }",
    )]);
    let hits = rules_hit(&ws);
    let rules: Vec<&str> = hits.iter().map(|(r, _)| r.as_str()).collect();
    assert_eq!(rules, vec!["panic-hygiene"; 3], "{hits:?}");
}

#[test]
fn panic_hygiene_quiet_on_tests_fallible_code_and_unwrap_or() {
    let ws = Workspace::from_sources(&[(
        "crates/server/src/routes.rs",
        "pub fn handle(req: Request) -> Result<Response, Error> {
             let guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
             let body = req.body()?;
             Ok(respond(body))
         }
         #[cfg(test)]
         mod tests {
             #[test]
             fn case() { handle(Request::default()).unwrap(); }
         }",
    )]);
    assert!(rules_hit(&ws).is_empty());
}

#[test]
fn panic_hygiene_ignores_crates_outside_the_serving_path() {
    let ws = Workspace::from_sources(&[(
        "crates/cli/src/commands.rs",
        "pub fn run() { std::env::args().next().unwrap(); }",
    )]);
    assert!(rules_hit(&ws).is_empty());
}

#[test]
fn panic_hygiene_respects_reasoned_pragma() {
    let ws = Workspace::from_sources(&[(
        "crates/server/src/server.rs",
        "impl Server {
             pub fn addr(&self) -> SocketAddr {
                 // rellint: allow(panic-hygiene) -- bound listener always has an address
                 self.listener.local_addr().expect(\"bound listener\")
             }
         }",
    )]);
    let report = ws.run(&[]);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 1);
}

// -------------------------------------------------------------------------
// Pragma + baseline machinery
// -------------------------------------------------------------------------

#[test]
fn pragma_with_unknown_rule_errors_instead_of_silently_allowing() {
    let ws = Workspace::from_sources(&[(
        "crates/server/src/routes.rs",
        "pub fn handle(req: Request) -> Response {
             // rellint: allow(panic-hygeine) -- typo'd rule name
             req.body().unwrap()
         }",
    )]);
    let report = ws.run(&[]);
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
    assert!(rules.contains(&"pragma"), "typo must be its own finding: {rules:?}");
    assert!(rules.contains(&"panic-hygiene"), "and the unwrap stays flagged: {rules:?}");
}

#[test]
fn malformed_pragma_without_reason_is_a_finding() {
    let ws = Workspace::from_sources(&[(
        "crates/engine/src/builder.rs",
        "// rellint: allow(panic-hygiene)\npub fn build() {}",
    )]);
    let report = ws.run(&[]);
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].rule, "pragma");
}

#[test]
fn baseline_freezes_existing_debt_and_reports_stale_entries() {
    let src = "pub fn handle(req: Request) -> Response { req.body().unwrap() }";
    let ws = Workspace::from_sources(&[("crates/server/src/routes.rs", src)]);
    let unfiltered = ws.run(&[]);
    assert_eq!(unfiltered.findings.len(), 1);
    let baseline_text = format!(
        "# frozen debt\n{}\npanic-hygiene\tcrates/server/src/gone.rs\told line\n",
        rellint::to_baseline_lines(&unfiltered.findings)
    );
    let baseline = parse_baseline(&baseline_text).unwrap();
    let filtered = ws.run(&baseline);
    assert!(filtered.findings.is_empty());
    assert_eq!(filtered.baseline_matched, 1);
    assert_eq!(filtered.baseline_stale, 1, "the gone.rs entry matched nothing");
}

#[test]
fn baseline_is_a_multiset_not_a_blanket_waiver() {
    // One baselined unwrap does not excuse a second one on another line.
    let src = "pub fn a(r: Request) -> Response { r.body().unwrap() }
pub fn b(r: Request) -> Response { r.head().unwrap() }";
    let ws = Workspace::from_sources(&[("crates/server/src/routes.rs", src)]);
    let all = ws.run(&[]);
    assert_eq!(all.findings.len(), 2);
    let baseline = parse_baseline(&rellint::to_baseline_lines(&all.findings[..1])).unwrap();
    let filtered = ws.run(&baseline);
    assert_eq!(filtered.findings.len(), 1, "only the baselined one is hidden");
}

#[test]
fn baseline_with_unknown_rule_is_rejected() {
    assert!(parse_baseline("panik\tcrates/x/src/a.rs\tline").is_err());
    assert!(parse_baseline("panic-hygiene only-two-fields").is_err());
    assert!(parse_baseline("# comment\n\n").unwrap().is_empty());
}

#[test]
fn json_report_is_parseable_and_complete() {
    let ws = Workspace::from_sources(&[(
        "crates/server/src/routes.rs",
        "pub fn handle(r: Request) -> Response { r.body().unwrap() }",
    )]);
    let json = ws.run(&[]).render_json();
    let v: serde_json::Value = serde_json::from_str(&json).unwrap();
    let findings = v.get("findings").unwrap();
    assert!(json.contains("panic-hygiene"), "{json}");
    assert!(json.contains("files_scanned"), "{json}");
    let _ = findings;
}
