//! Concurrency stress: many simultaneous HTTP clients submitting and
//! polling while the worker pool churns — exercises the full Fig. 1
//! pipeline under load.

use cyclerank_platform::prelude::*;
use cyclerank_platform::server::ApiServer;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One-shot request; `Connection: close` makes the keep-alive server
/// close after the response so `read_to_string` terminates.
fn http(addr: SocketAddr, raw: String) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(raw.as_bytes()).expect("send");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read");
    let status = out.split_whitespace().nth(1).and_then(|v| v.parse().ok()).unwrap_or(0);
    let body = out.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

#[test]
fn many_concurrent_clients() {
    let engine = Arc::new(Scheduler::builder().workers(3).build());
    let handle = ApiServer::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap().spawn();
    let addr = handle.addr();

    // 6 client threads × 4 tasks each, mixing languages and algorithms.
    let clients: Vec<_> = (0..6)
        .map(|c| {
            std::thread::spawn(move || {
                let langs = ["it", "pl", "fr", "en"];
                let mut ids = Vec::new();
                for t in 0..4 {
                    let lang = langs[(c + t) % langs.len()];
                    let title = "Fake news";
                    let algo = if t % 2 == 0 { "cycle_rank" } else { "personalized_page_rank" };
                    let body = format!(
                        r#"{{"dataset":"fixture-fakenews-{lang}","params":{{"algorithm":"{algo}"}},"source":"{title}","top_k":3}}"#
                    );
                    let req = format!(
                        "POST /api/tasks HTTP/1.1\r\nhost: t\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
                        body.len()
                    );
                    let (status, resp) = http(addr, req);
                    assert_eq!(status, 202, "{resp}");
                    let v: serde_json::Value = serde_json::from_str(&resp).unwrap();
                    ids.push(v["task_id"].as_str().unwrap().to_string());
                }
                // Poll all to terminal.
                let deadline = Instant::now() + Duration::from_secs(120);
                for id in ids {
                    loop {
                        let (status, body) = http(
                            addr,
                            format!("GET /api/tasks/{id} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n"),
                        );
                        assert_eq!(status, 200);
                        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
                        match v["state"]["state"].as_str() {
                            Some("completed") => break,
                            Some("failed") => panic!("task failed: {body}"),
                            _ => {
                                assert!(Instant::now() < deadline, "stress poll timeout");
                                std::thread::sleep(Duration::from_millis(5));
                            }
                        }
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    // All 24 tasks completed; the board agrees.
    let m = engine.metrics();
    assert_eq!(m.total, 24);
    assert_eq!(m.completed, 24);
    assert_eq!(m.failed, 0);
    handle.stop();
}
