//! End-to-end tour of the API gateway: start the HTTP server on an
//! ephemeral port, then act as the Web UI — list datasets, submit a task,
//! poll until completed, fetch the result, then ask for the same task
//! again with `?sync=1` and get it answered inline from the result cache —
//! all over plain TCP.
//!
//! ```sh
//! cargo run --example web_api
//! ```

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use cyclerank_platform::prelude::*;
use cyclerank_platform::server::ApiServer;

/// One request on a fresh connection; the request asks the keep-alive
/// server to close after the response, so the read ends with it.
fn http(addr: std::net::SocketAddr, raw: String) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let status: u16 =
        response.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status code");
    let body = response.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    http(addr, format!("GET {path} HTTP/1.1\r\nhost: demo\r\nconnection: close\r\n\r\n"))
}

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String) {
    http(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nhost: demo\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn main() {
    // Boot the platform: 2 computational nodes behind the gateway.
    let engine = Arc::new(Scheduler::builder().workers(2).build());
    let server = ApiServer::bind("127.0.0.1:0", engine).expect("bind");
    let handle = server.spawn();
    let addr = handle.addr();
    println!("API gateway listening on http://{addr}");

    // Browse the catalog.
    let (status, body) = get(addr, "/api/datasets");
    let datasets: serde_json::Value = serde_json::from_str(&body).unwrap();
    println!("GET /api/datasets -> {status}, {} datasets", datasets.as_array().unwrap().len());

    // Submit the Table III Italian query.
    let task = r#"{
        "dataset": "fixture-fakenews-it",
        "params": {"algorithm": "cycle_rank", "max_cycle_len": 3},
        "source": "Fake news",
        "top_k": 6
    }"#;
    let (status, body) = post(addr, "/api/tasks", task);
    let submitted: serde_json::Value = serde_json::from_str(&body).unwrap();
    let task_id = submitted["task_id"].as_str().unwrap().to_string();
    println!("POST /api/tasks -> {status}, task {task_id}");

    // Poll until terminal, as the Web UI's status widget does.
    loop {
        let (_, body) = get(addr, &format!("/api/tasks/{task_id}"));
        let record: serde_json::Value = serde_json::from_str(&body).unwrap();
        let state = record["state"]["state"].as_str().unwrap_or("?").to_string();
        println!("poll: {state}");
        if state == "completed" || state == "failed" {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // Fetch and display the result.
    let (status, body) = get(addr, &format!("/api/tasks/{task_id}/result"));
    assert_eq!(status, 200, "result should be ready");
    let result: serde_json::Value = serde_json::from_str(&body).unwrap();
    println!("\ntop results for {:?}:", result["source"].as_str().unwrap());
    for entry in result["top"].as_array().unwrap() {
        println!("  {:<22} {:.5}", entry[0].as_str().unwrap(), entry[1].as_f64().unwrap());
    }

    // Ask again, synchronously: the result cache holds the answer, so the
    // HTTP worker answers it inline — nothing is queued, and the answer's
    // task id names no task on the status board.
    let (status, body) = post(addr, "/api/tasks?sync=1", task);
    assert_eq!(status, 200, "sync repeat: {body}");
    let again: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(again["top"], result["top"], "the cached answer is the solved one");
    let inline_id = again["task_id"].as_str().unwrap();
    let (polled, _) = get(addr, &format!("/api/tasks/{inline_id}"));
    assert_eq!(polled, 404, "an inline answer is never queued");
    println!("\nPOST /api/tasks?sync=1 -> {status}, answered inline from the result cache");
    println!("GET /api/tasks/{inline_id} -> {polled} (never queued)");
    let (_, body) = get(addr, "/api/cache/stats");
    let cache: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(cache["hits"], 1, "{cache}");
    println!("GET /api/cache/stats -> hits {}, misses {}", cache["hits"], cache["misses"]);

    handle.stop();
    println!("\nserver stopped");
}
