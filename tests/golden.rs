//! Golden files for the HTTP JSON shapes a refactor must not move.
//!
//! Hand-rolled snapshot testing (dependencies are vendored-only, so no
//! `insta`): each test renders one response into a stable text form and
//! compares it with a file under `tests/golden/`. There is deliberately
//! no update switch — a mismatch prints the actual rendering, and a
//! change that means to move a shape replaces the file in the same diff.

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
