//! Golden files for the HTTP JSON shapes and `relrank --json` outputs a
//! refactor must not move.
//!
//! Hand-rolled snapshot testing (dependencies are vendored-only, so no
//! `insta`): each test renders one response into a stable text form and
//! compares it with a file under `tests/golden/`. There is deliberately
//! no update switch — a mismatch prints the actual rendering, and a
//! change that means to move a shape replaces the file in the same diff.

use cyclerank_platform::algorithms::Scheme;
use cyclerank_platform::prelude::*;
use cyclerank_platform::server::http::Method;
use cyclerank_platform::server::routes::route;
use cyclerank_platform::server::{Request, Response, StatusCode};
use serde_json::Value;
use std::collections::HashMap;
use std::sync::Arc;

fn engine() -> Arc<Scheduler> {
    Arc::new(Scheduler::builder().workers(1).build())
}

/// Routes one request and returns its status and parsed JSON body.
fn respond(
    engine: &Arc<Scheduler>,
    method: Method,
    path: &str,
    query: &str,
    body: &str,
) -> (StatusCode, Value) {
    let request = Request {
        method,
        path: path.to_string(),
        query: query.to_string(),
        headers: HashMap::new(),
        body: body.as_bytes().to_vec(),
    };
    let response = route(&request, engine);
    let text = String::from_utf8(response.body).expect("utf-8 body");
    (response.status, serde_json::from_str(&text).expect("JSON body"))
}

/// Routes one request and parses the JSON body of its `200`.
fn ok_json(engine: &Arc<Scheduler>, method: Method, path: &str, query: &str, body: &str) -> Value {
    let (status, value) = respond(engine, method, path, query, body);
    assert_eq!(status, StatusCode::Ok, "{path}: {value}");
    value
}

/// Dotted paths of every object key under `value`, one per line in
/// sorted order: the *shape* of a response without its values.
fn key_paths(value: &Value) -> String {
    fn walk(value: &Value, prefix: &str, out: &mut Vec<String>) {
        if let Some(map) = value.as_object() {
            for (key, child) in map {
                let path = if prefix.is_empty() { key.clone() } else { format!("{prefix}.{key}") };
                walk(child, &path, out);
                out.push(path);
            }
        }
    }
    let mut out = Vec::new();
    walk(value, "", &mut out);
    out.sort();
    out.join("\n")
}

fn assert_golden(file: &str, expected: &str, actual: &str) {
    assert!(
        expected.trim_end() == actual.trim_end(),
        "tests/golden/{file} does not match this build; actual rendering:\n{actual}\n"
    );
}

#[test]
fn algorithms_listing_matches_golden() {
    let listing = ok_json(&engine(), Method::Get, "/api/algorithms", "", "");
    let actual = serde_json::to_string_pretty(&listing).expect("render");
    assert_golden("algorithms.json", include_str!("golden/algorithms.json"), &actual);
}

/// A task result as `cyclerank_task.txt` renders it: its key paths, then
/// its top labels in rank order.
fn render_task_result(result: &Value) -> String {
    let labels: Vec<String> = result["top"]
        .as_array()
        .expect("top entries")
        .iter()
        .map(|entry| format!("top {}", entry[0].as_str().expect("label")))
        .collect();
    format!("{}\n{}", key_paths(result), labels.join("\n"))
}

#[test]
fn cyclerank_task_result_matches_golden() {
    let spec = r#"{
        "dataset": "fixture-enwiki-2018",
        "params": {"algorithm": "cycle_rank"},
        "source": "Freddie Mercury",
        "top_k": 5
    }"#;
    let result = ok_json(&engine(), Method::Post, "/api/tasks", "sync=1", spec);
    assert_golden(
        "cyclerank_task.txt",
        include_str!("golden/cyclerank_task.txt"),
        &render_task_result(&result),
    );
}

#[test]
fn cyclerank_task_hit_matches_golden() {
    // The same sync task twice on one engine: the second answer is the
    // result cache's, and it renders exactly like the solve's.
    let engine = engine();
    let spec = cyclerank_spec("Freddie Mercury");
    ok_json(&engine, Method::Post, "/api/tasks", "sync=1", &spec);
    let hit = ok_json(&engine, Method::Post, "/api/tasks", "sync=1", &spec);
    assert_golden(
        "cyclerank_task.txt",
        include_str!("golden/cyclerank_task.txt"),
        &render_task_result(&hit),
    );
}

#[test]
fn sync_hit_cache_stats_match_golden() {
    let engine = engine();
    let spec = cyclerank_spec("Freddie Mercury");
    for _ in 0..2 {
        ok_json(&engine, Method::Post, "/api/tasks", "sync=1", &spec);
    }
    let stats = ok_json(&engine, Method::Get, "/api/cache/stats", "", "");
    let actual = serde_json::to_string_pretty(&stats).expect("render");
    assert_golden(
        "sync_hit_cache_stats.json",
        include_str!("golden/sync_hit_cache_stats.json"),
        &actual,
    );
}

#[test]
fn response_bytes_match_golden() {
    // Every CRLF is shown as `\r\n` and ends a line of the rendering.
    fn wire(response: &Response, keep_alive: bool) -> String {
        let mut bytes = Vec::new();
        response.write_conn(&mut bytes, keep_alive).expect("write into memory");
        String::from_utf8(bytes).expect("utf-8 response").replace("\r\n", "\\r\\n\n")
    }
    let ok = Response::json(StatusCode::Ok, &serde_json::json!({"status": "ok"}));
    let shed = Response::overloaded("expensive lane at capacity (2 in flight); retry later", 1);
    let actual = format!(
        "# 200 JSON, keep-alive\n{}\n# 429 with retry-after, close\n{}",
        wire(&ok, true),
        wire(&shed, false)
    );
    assert_golden("response_bytes.txt", include_str!("golden/response_bytes.txt"), &actual);
}

#[test]
fn ppr_family_task_tops_match_golden() {
    // Scores print with `{:?}`, which round-trips an f64 exactly: any
    // change to the stationary solve path shows up here bit for bit.
    let engine = engine();
    let rendered: Vec<String> = [
        ("ppr solver=power", r#"{"algorithm": "personalized_page_rank", "solver": "power"}"#),
        ("ppr solver=parallel", r#"{"algorithm": "personalized_page_rank", "solver": "parallel"}"#),
        ("pcheirank defaults", r#"{"algorithm": "personalized_chei_rank"}"#),
    ]
    .into_iter()
    .map(|(name, params)| {
        let spec = format!(
            r#"{{"dataset": "fixture-enwiki-2018", "params": {params}, "source": "Freddie Mercury", "top_k": 5}}"#
        );
        let result = ok_json(&engine, Method::Post, "/api/tasks", "sync=1", &spec);
        let pairs: Vec<String> = result["top"]
            .as_array()
            .expect("top entries")
            .iter()
            .map(|entry| {
                let label = entry[0].as_str().expect("label");
                let score = entry[1].as_f64().expect("score");
                format!("({label:?}, {score:?})")
            })
            .collect();
        format!("# {name}\n{}", pairs.join("\n"))
    })
    .collect();
    assert_golden(
        "ppr_task_top.txt",
        include_str!("golden/ppr_task_top.txt"),
        &rendered.join("\n"),
    );
}

#[test]
fn dataset_stats_keys_match_golden() {
    let stats = ok_json(&engine(), Method::Get, "/api/datasets/fixture-fakenews-pl/stats", "", "");
    assert_golden(
        "dataset_stats_keys.txt",
        include_str!("golden/dataset_stats_keys.txt"),
        &key_paths(&stats),
    );
}

#[test]
fn task_bad_solver_error_matches_golden() {
    let spec = r#"{
        "dataset": "fixture-fakenews-pl",
        "params": {"algorithm": "page_rank", "solver": "bogus"},
        "top_k": 3
    }"#;
    let (status, body) = respond(&engine(), Method::Post, "/api/tasks", "sync=1", spec);
    assert_eq!(status, StatusCode::BadRequest, "{body}");
    let actual = serde_json::to_string_pretty(&body).expect("render");
    assert_golden(
        "task_bad_solver_error.json",
        include_str!("golden/task_bad_solver_error.json"),
        &actual,
    );
}

/// The CycleRank task of `cyclerank_task.txt`, with a replaceable source.
fn cyclerank_spec(source: &str) -> String {
    format!(
        r#"{{"dataset": "fixture-enwiki-2018", "params": {{"algorithm": "cycle_rank"}}, "source": "{source}", "top_k": 5}}"#
    )
}

/// Submits `spec` without `?sync`, waits for it to settle and returns its
/// task id.
fn submit_and_settle(engine: &Arc<Scheduler>, spec: &str) -> String {
    let (status, accepted) = respond(engine, Method::Post, "/api/tasks", "", spec);
    assert_eq!(status, StatusCode::Accepted, "{accepted}");
    let id = accepted["task_id"].as_str().expect("task id").to_string();
    let _ = engine.wait(&TaskId(id.clone()), std::time::Duration::from_secs(60));
    id
}

#[test]
fn completed_task_status_keys_match_golden() {
    let engine = engine();
    let id = submit_and_settle(&engine, &cyclerank_spec("Freddie Mercury"));
    let status = ok_json(&engine, Method::Get, &format!("/api/tasks/{id}"), "", "");
    assert_golden(
        "task_status_completed_keys.txt",
        include_str!("golden/task_status_completed_keys.txt"),
        &key_paths(&status),
    );
}

#[test]
fn failed_task_status_keys_match_golden() {
    let engine = engine();
    let id = submit_and_settle(&engine, &cyclerank_spec("No Such Page"));
    let status = ok_json(&engine, Method::Get, &format!("/api/tasks/{id}"), "", "");
    assert_golden(
        "task_status_failed_keys.txt",
        include_str!("golden/task_status_failed_keys.txt"),
        &key_paths(&status),
    );
}

#[test]
fn task_result_keys_match_golden() {
    let engine = engine();
    let id = submit_and_settle(&engine, &cyclerank_spec("Freddie Mercury"));
    let result = ok_json(&engine, Method::Get, &format!("/api/tasks/{id}/result"), "", "");
    assert_golden(
        "task_result_keys.txt",
        include_str!("golden/task_result_keys.txt"),
        &key_paths(&result),
    );
}

/// Masks what varies between runs of one task log: the worker index
/// after `worker ` and the runtime in `done in <n>ms`.
fn mask_log(log: &str) -> String {
    fn mask_digits_after(line: &str, marker: &str, mask: &str) -> String {
        match line.find(marker) {
            Some(at) => {
                let start = at + marker.len();
                let digits = line[start..].chars().take_while(char::is_ascii_digit).count();
                format!("{}{mask}{}", &line[..start], &line[start + digits..])
            }
            None => line.to_string(),
        }
    }
    log.lines()
        .map(|line| {
            let line = mask_digits_after(line, "worker ", "#");
            mask_digits_after(&line, "done in ", "…")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn sync_cyclerank_task_log_matches_golden() {
    let engine = engine();
    let result =
        ok_json(&engine, Method::Post, "/api/tasks", "sync=1", &cyclerank_spec("Freddie Mercury"));
    let id = result["task_id"].as_str().expect("task id");
    let request = Request {
        method: Method::Get,
        path: format!("/api/tasks/{id}/log"),
        query: String::new(),
        headers: HashMap::new(),
        body: Vec::new(),
    };
    let response = route(&request, &engine);
    assert_eq!(response.status, StatusCode::Ok);
    assert_eq!(response.content_type, "text/plain; charset=utf-8");
    let log = String::from_utf8(response.body).expect("utf-8 log");
    assert_golden("task_log.txt", include_str!("golden/task_log.txt"), &mask_log(&log));
}

#[test]
fn metrics_keys_match_golden() {
    let metrics = ok_json(&engine(), Method::Get, "/api/metrics", "", "");
    assert_golden(
        "metrics_keys.txt",
        include_str!("golden/metrics_keys.txt"),
        &key_paths(&metrics),
    );
}

#[test]
fn unknown_task_errors_match_golden() {
    let engine = engine();
    let rendered: Vec<String> = [
        ("GET", Method::Get, "/api/tasks/ghost"),
        ("GET", Method::Get, "/api/tasks/ghost/result"),
        ("GET", Method::Get, "/api/tasks/ghost/log"),
        ("POST", Method::Post, "/api/tasks/ghost/cancel"),
    ]
    .into_iter()
    .map(|(verb, method, path)| {
        let (status, body) = respond(&engine, method, path, "", "");
        assert_eq!(status, StatusCode::NotFound, "{path}: {body}");
        format!("{verb} {path}\n{}", serde_json::to_string_pretty(&body).expect("render"))
    })
    .collect();
    assert_golden(
        "unknown_task_errors.txt",
        include_str!("golden/unknown_task_errors.txt"),
        &rendered.join("\n"),
    );
}

/// One section per rejected submission: the request line, then the
/// status and the pretty-printed error body.
fn render_rejections(engine: &Arc<Scheduler>, cases: &[(&str, &str, &str)]) -> String {
    cases
        .iter()
        .map(|&(path, query, body)| {
            let (status, value) = respond(engine, Method::Post, path, query, body);
            assert_eq!(status, StatusCode::BadRequest, "{path}?{query}: {value}");
            let pretty = serde_json::to_string_pretty(&value).expect("render");
            let query = if query.is_empty() { String::new() } else { format!("?{query}") };
            format!("POST {path}{query}\n{status:?}\n{pretty}")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn submission_rejections_match_golden() {
    let ppr_no_source = r#"{"dataset": "fixture-fakenews-pl", "params": {"algorithm": "personalized_page_rank"}, "source": null, "top_k": 3}"#;
    let ppr = r#"{"dataset": "fixture-enwiki-2018", "params": {"algorithm": "personalized_page_rank"}, "source": "Freddie Mercury", "top_k": 3}"#;
    let too_many = (0..1025).map(|i| format!("\"s{i}\"")).collect::<Vec<_>>().join(",");
    let oversized = format!(
        r#"{{"dataset": "fixture-enwiki-2018", "params": {{"algorithm": "personalized_page_rank"}}, "sources": [{too_many}]}}"#
    );
    let row_one_missing = format!(
        r#"[{{"dataset": "fixture-fakenews-pl", "params": {{"algorithm": "page_rank"}}, "source": null, "top_k": 3}}, {ppr_no_source}]"#
    );
    let engine = engine();
    let actual = render_rejections(
        &engine,
        &[
            ("/api/tasks", "", ppr_no_source),
            ("/api/tasks", "sync=1", ppr_no_source),
            ("/api/tasks", "top_k=lots", ppr),
            (
                "/api/batch",
                "",
                r#"{"dataset": "fixture-enwiki-2018", "params": {"algorithm": "personalized_page_rank"}, "sources": []}"#,
            ),
            (
                "/api/batch",
                "",
                r#"{"dataset": "fixture-enwiki-2018", "params": {"algorithm": "page_rank"}, "sources": ["Freddie Mercury"]}"#,
            ),
            ("/api/batch", "", &oversized),
            ("/api/query-sets", "", "[]"),
            ("/api/query-sets", "", &row_one_missing),
            ("/api/query-sets", "top_k=lots", &format!("[{ppr}]")),
        ],
    );
    assert_eq!(engine.metrics().total, 0, "a rejected submission queues nothing");
    assert_golden(
        "submission_rejections.txt",
        include_str!("golden/submission_rejections.txt"),
        &actual,
    );
}

#[test]
fn submission_accepted_keys_match_golden() {
    let engine = engine();
    let batch = r#"{"dataset": "fixture-enwiki-2018", "params": {"algorithm": "personalized_page_rank"}, "sources": ["Freddie Mercury", "Brian May"], "top_k": 3}"#;
    let query_set = r#"[
        {"dataset": "fixture-fakenews-pl", "params": {"algorithm": "page_rank"}, "source": null, "top_k": 3},
        {"dataset": "fixture-fakenews-pl", "params": {"algorithm": "cycle_rank"}, "source": "Fake news", "top_k": 3}
    ]"#;
    let rendered: Vec<String> = [("/api/batch", batch), ("/api/query-sets", query_set)]
        .into_iter()
        .map(|(path, body)| {
            let (status, value) = respond(&engine, Method::Post, path, "", body);
            assert_eq!(status, StatusCode::Accepted, "{path}: {value}");
            format!("POST {path}\n{}", key_paths(&value))
        })
        .collect();
    assert_golden(
        "submission_accepted_keys.txt",
        include_str!("golden/submission_accepted_keys.txt"),
        &rendered.join("\n"),
    );
}

/// Runs `relrank <args>` in process and returns its stdout.
fn relrank(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let cli = relcli::parse_args(&args).expect("valid arguments");
    relcli::run(cli).unwrap_or_else(|e| panic!("relrank {args:?}: {e}"))
}

/// `relrank ... --json` output with what varies between runs (task ids and
/// wall-clock timings) masked at every depth, pretty-printed.
fn masked_cli_json(stdout: &str) -> String {
    fn mask(value: &mut Value) {
        match value {
            Value::Object(map) => {
                for (key, child) in map.iter_mut() {
                    if ["task_id", "runtime_ms"].contains(&key.as_str()) {
                        *child = Value::String("<masked>".into());
                    } else {
                        mask(child);
                    }
                }
            }
            Value::Array(items) => items.iter_mut().for_each(mask),
            _ => {}
        }
    }
    let mut value: Value = serde_json::from_str(stdout).expect("JSON output");
    mask(&mut value);
    serde_json::to_string_pretty(&value).expect("render")
}

#[test]
fn cli_run_json_matches_golden() {
    let rendered: Vec<String> = ["ppr", "cyclerank"]
        .into_iter()
        .map(|algorithm| {
            let args = [
                "run",
                "--dataset",
                "fixture-enwiki-2018",
                "--algorithm",
                algorithm,
                "--source",
                "Freddie Mercury",
                "--top",
                "5",
                "--json",
            ];
            format!("# relrank {}\n{}", args.join(" "), masked_cli_json(&relrank(&args)))
        })
        .collect();
    assert_golden(
        "cli_run_json.txt",
        include_str!("golden/cli_run_json.txt"),
        &rendered.join("\n"),
    );
}

#[test]
fn cli_batch_json_matches_golden() {
    let args = [
        "batch",
        "--dataset",
        "fixture-enwiki-2018",
        "--seeds",
        "Freddie Mercury,Brian May",
        "--top",
        "3",
        "--json",
    ];
    let actual = format!("# relrank {}\n{}", args.join(" "), masked_cli_json(&relrank(&args)));
    assert_golden("cli_batch_json.txt", include_str!("golden/cli_batch_json.txt"), &actual);
}

#[test]
fn cli_compare_matches_golden() {
    let args = [
        "compare",
        "--dataset",
        "fixture-enwiki-2018",
        "--source",
        "Freddie Mercury",
        "--top",
        "5",
    ];
    let stdout = relrank(&args);
    let (id_line, table) = stdout.split_once('\n').expect("a comparison id line");
    assert!(id_line.starts_with("Comparison id: "), "{id_line}");
    let actual = format!("# relrank {}\nComparison id: <masked>\n{table}", args.join(" "));
    assert_golden("cli_compare.txt", include_str!("golden/cli_compare.txt"), &actual);
}

const UPLOAD: &str = r#"{"name": "golden-net", "content": "*Vertices 2\n1 \"me\"\n2 \"friend\"\n*Arcs\n1 2\n2 1\n"}"#;

#[test]
fn dataset_upload_keys_match_golden() {
    let uploaded = ok_json(&engine(), Method::Post, "/api/datasets", "", UPLOAD);
    assert_golden(
        "dataset_upload_keys.txt",
        include_str!("golden/dataset_upload_keys.txt"),
        &key_paths(&uploaded),
    );
}

#[test]
fn edge_mutation_keys_match_golden() {
    let engine = engine();
    ok_json(&engine, Method::Post, "/api/datasets", "", UPLOAD);
    let batch = r#"{"edges": [{"source": "friend", "target": "stranger", "weight": 2.5}]}"#;
    let outcome = ok_json(&engine, Method::Post, "/api/datasets/golden-net/edges", "", batch);
    assert_golden(
        "edge_mutation_keys.txt",
        include_str!("golden/edge_mutation_keys.txt"),
        &key_paths(&outcome),
    );
}

#[test]
fn datasets_listing_with_uploads_keys_match_golden() {
    let engine = engine();
    ok_json(&engine, Method::Post, "/api/datasets", "", UPLOAD);
    let listing = ok_json(&engine, Method::Get, "/api/datasets", "", "");
    assert_golden(
        "datasets_listing_with_uploads_keys.txt",
        include_str!("golden/datasets_listing_with_uploads_keys.txt"),
        &key_paths(&listing),
    );
}

#[test]
fn algorithm_spellings_match_golden() {
    // Each front door that takes an algorithm name, side by side: the
    // registry (`Query::run`), the task builder over a parsed name
    // (`relrank batch`, `run`, `compare`) and `Algorithm::from_str` (the
    // scenario runner).
    // A cell is the resolved id, or the error text.
    let mut b = GraphBuilder::new();
    b.add_labeled_edge("a", "b");
    b.add_labeled_edge("b", "a");
    let g = Arc::new(b.build());
    let spellings = [
        "pagerank",
        "pr",
        "PageRank",
        "ppr",
        "personalizedpagerank",
        "personalized-page-rank",
        "Pers. PageRank",
        "cheirank",
        "CheiRank",
        "pcheirank",
        "personalizedcheirank",
        "Pers. CheiRank",
        "2drank",
        "twodrank",
        "2DRank",
        "p2drank",
        "personalized2drank",
        "personalizedtwodrank",
        "Pers. 2DRank",
        "cyclerank",
        "cr",
        "Cyclerank",
        "CYCLE_RANK",
        "zerank",
        "page rank x",
        "",
    ];
    let rows: Vec<String> = spellings
        .into_iter()
        .map(|name| {
            let run = match Query::on(Arc::clone(&g)).algorithm(name).reference("a").run() {
                Ok(result) => result.algorithm,
                Err(e) => e.to_string(),
            };
            let builder = name.parse::<Algorithm>().and_then(|algorithm| {
                TaskBuilder::new("fixture-enwiki-2018")
                    .algorithm(algorithm)
                    .source("Freddie Mercury")
                    .build()
                    .map_err(|e| e.to_string())
            });
            let builder = match builder {
                Ok(spec) => spec.params.algorithm.id().to_string(),
                Err(e) => e,
            };
            let from_str = match name.parse::<Algorithm>() {
                Ok(algorithm) => algorithm.id().to_string(),
                Err(e) => e,
            };
            format!("{name:?}\t{run}\t{builder}\t{from_str}")
        })
        .collect();
    let actual = format!("spelling\tQuery::run\tTaskBuilder\tfrom_str\n{}", rows.join("\n"));
    assert_golden(
        "algorithm_spellings.txt",
        include_str!("golden/algorithm_spellings.txt"),
        &actual,
    );
}

/// One parity row: a packaged task result with what varies between runs
/// (task id, runtime) left out — convergence, residual bits, cycle count,
/// then the top entries with `{:?}` scores, which round-trip an f64.
fn render_parity_row(result: &TaskResult) -> String {
    let residual_bits = result.residual.map(|r| format!("{:#018x}", r.to_bits()));
    let top: Vec<String> =
        result.top.iter().map(|(label, score)| format!("{label:?} {score:?}")).collect();
    format!(
        "iterations={:?} residual={:?} residual_bits={residual_bits:?} converged={:?} \
         cycles_found={:?}\n{}",
        result.iterations,
        result.residual,
        result.converged,
        result.cycles_found,
        top.join("\n")
    )
}

/// The parity task of `algorithm` under `scheme` on `threads` from
/// `source`, in full-rank mode, keeping the top 20.
fn parity_spec(
    dataset: &str,
    algorithm: Algorithm,
    scheme: Scheme,
    threads: usize,
    source: &str,
) -> TaskSpec {
    TaskSpec {
        dataset: dataset.to_string(),
        params: AlgorithmParams::new(algorithm).with_scheme(scheme).with_threads(threads),
        source: algorithm.is_personalized().then(|| source.to_string()),
        top_k: 20,
    }
}

/// Every built-in × scheme from one source, rendered; asserts on the way
/// that each parallel row is the same under threads {1, 2, 0}, and that a
/// 4-seed batch answers each of its seeds like the single task.
fn parity_rows(dataset: &str, source: &str, batch_seeds: [&str; 4]) -> String {
    // No result cache: every row is a fresh solve.
    let ex = Executor::with_cache_capacity(0);
    let id = TaskId("parity".into());
    let mut rows = Vec::new();
    for algorithm in Algorithm::ALL {
        for scheme in Scheme::ALL {
            let spec = parity_spec(dataset, algorithm, scheme, 0, source);
            let row = render_parity_row(&ex.execute(&id, &spec).expect("parity task"));
            if scheme == Scheme::Parallel {
                for threads in [1, 2] {
                    let spec = parity_spec(dataset, algorithm, scheme, threads, source);
                    let again = render_parity_row(&ex.execute(&id, &spec).expect("parity task"));
                    assert_eq!(row, again, "{dataset} {algorithm} threads={threads}");
                }
            }
            rows.push(format!("# {} {scheme}\n{row}", algorithm.id()));
        }
    }
    for algorithm in [Algorithm::PersonalizedPageRank, Algorithm::PersonalizedCheiRank] {
        for scheme in Scheme::ALL {
            let batch = BatchSpec {
                dataset: dataset.to_string(),
                params: AlgorithmParams::new(algorithm).with_scheme(scheme),
                sources: batch_seeds.iter().map(|s| s.to_string()).collect(),
                top_k: 20,
            };
            let rows: Vec<(TaskId, TaskSpec)> =
                batch.rows().into_iter().map(|row| (id.clone(), row)).collect();
            let mut results = vec![None; rows.len()];
            ex.execute_job(&rows, |_| true, |i, outcome, _| results[i] = Some(outcome));
            for (seed, result) in batch_seeds.iter().zip(results) {
                let result = result.expect("every row ends").expect("parity batch");
                let spec = parity_spec(dataset, algorithm, scheme, 0, seed);
                let single = ex.execute(&id, &spec).expect("parity task");
                assert_eq!(
                    render_parity_row(&single),
                    render_parity_row(&result),
                    "{dataset} {algorithm} {scheme} batch seed {seed:?}"
                );
            }
        }
    }
    rows.join("\n")
}

#[test]
fn enwiki_parity_rows_match_golden() {
    let actual = parity_rows(
        "fixture-enwiki-2018",
        "Freddie Mercury",
        ["Freddie Mercury", "Brian May", "Queen (band)", "Freddie Mercury"],
    );
    assert_golden(
        "parity/fixture-enwiki-2018.txt",
        include_str!("golden/parity/fixture-enwiki-2018.txt"),
        &actual,
    );
}

#[test]
fn amazon_parity_rows_match_golden() {
    let actual = parity_rows("amazon-copurchase", "100", ["100", "2500", "17", "100"]);
    assert_golden(
        "parity/amazon-copurchase.txt",
        include_str!("golden/parity/amazon-copurchase.txt"),
        &actual,
    );
}

#[test]
fn cli_batch_top_k_matches_golden() {
    // Top-k serving mode (`--top-k`) through `run`, one seed at a time,
    // and through `batch` for the same seeds.
    let mut rendered: Vec<Vec<&str>> = ["Freddie Mercury", "Brian May"]
        .into_iter()
        .map(|source| {
            vec![
                "run",
                "--dataset",
                "fixture-enwiki-2018",
                "--algorithm",
                "ppr",
                "--source",
                source,
                "--top-k",
                "5",
                "--json",
            ]
        })
        .collect();
    rendered.push(vec![
        "batch",
        "--dataset",
        "fixture-enwiki-2018",
        "--algorithm",
        "ppr",
        "--seeds",
        "Freddie Mercury,Brian May",
        "--top-k",
        "5",
        "--json",
    ]);
    let actual: Vec<String> = rendered
        .iter()
        .map(|args| format!("# relrank {}\n{}", args.join(" "), masked_cli_json(&relrank(args))))
        .collect();
    assert_golden(
        "cli_batch_top_k.txt",
        include_str!("golden/cli_batch_top_k.txt"),
        &actual.join("\n"),
    );
}
