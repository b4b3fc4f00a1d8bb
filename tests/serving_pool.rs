//! Integration tests for the worker-pool serving path: admission
//! control, per-lane load shedding, keep-alive connection reuse, and
//! oversized-request rejection — all over real TCP connections.

use cyclerank_platform::prelude::*;
use cyclerank_platform::server::{ApiServer, ServingConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A parsed HTTP response read off a (possibly keep-alive) connection.
struct Resp {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Resp {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    fn json(&self) -> serde_json::Value {
        serde_json::from_str(&self.body).unwrap_or_else(|e| panic!("bad json ({e}): {}", self.body))
    }
}

/// Reads exactly one `Content-Length`-framed response, leaving the
/// connection usable for the next request.
fn read_response(reader: &mut BufReader<TcpStream>) -> Resp {
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status = line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).unwrap_or(0);
    let mut headers = Vec::new();
    loop {
        let mut h = String::new();
        reader.read_line(&mut h).expect("header line");
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            headers.push((k.trim().to_string(), v.trim().to_string()));
        }
    }
    let len: usize = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).expect("body");
    Resp { status, headers, body: String::from_utf8_lossy(&body).into_owned() }
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let reader = BufReader::new(s.try_clone().unwrap());
    (s, reader)
}

/// One-shot request on a fresh connection (keep-alive unless the caller
/// put `connection: close` in `raw`); returns the parsed response.
fn one_shot(addr: SocketAddr, raw: &str) -> Resp {
    let (mut s, mut reader) = connect(addr);
    s.write_all(raw.as_bytes()).expect("send");
    read_response(&mut reader)
}

fn get(addr: SocketAddr, path: &str) -> Resp {
    one_shot(addr, &format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n"))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Resp {
    one_shot(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn start(config: ServingConfig) -> cyclerank_platform::server::server::ServerHandle {
    let engine = Arc::new(Scheduler::builder().workers(2).build());
    ApiServer::bind_with("127.0.0.1:0", engine, config).unwrap().spawn()
}

const COLD_SOLVE: &str = r#"{
    "dataset": "fixture-enwiki-2018",
    "params": {"algorithm": "personalized_page_rank"},
    "source": "Freddie Mercury",
    "top_k": 10
}"#;

/// The acceptance scenario: with the expensive lane fully saturated,
/// cheap routes (health, stats, cached solves, certified top-k) keep
/// answering while cold solves and mutations shed with `429` and a
/// `Retry-After` hint.
#[test]
fn saturated_expensive_lane_sheds_while_cheap_routes_answer() {
    let h = start(ServingConfig {
        workers: 4,
        queue_depth: 16,
        max_expensive: 2,
        keep_alive: Duration::from_secs(5),
        retry_after_secs: 1,
    });
    let addr = h.addr();

    // Warm the result cache with one cold synchronous solve while the
    // lane is open.
    let r = post(addr, "/api/tasks?sync=1", COLD_SOLVE);
    assert_eq!(r.status, 200, "warming solve: {}", r.body);
    assert_eq!(r.json()["top"][0][0], "Freddie Mercury");

    // Saturate the lane through the same gate dispatch uses.
    let permits: Vec<_> =
        std::iter::from_fn(|| h.serving_state().try_acquire_expensive()).collect();
    assert_eq!(permits.len(), 2, "configured lane width");

    // Cold solve for a seed nobody cached: shed, with Retry-After.
    let cold = COLD_SOLVE.replace("Freddie Mercury", "Queen (band)");
    let r = post(addr, "/api/tasks?sync=1", &cold);
    assert_eq!(r.status, 429, "{}", r.body);
    assert_eq!(r.header("retry-after"), Some("1"));

    // Mutations are expensive-lane too: shed.
    let r = post(
        addr,
        "/api/datasets/fixture-fakenews-it/edges",
        r#"{"edges": [{"source": "Fake news", "target": "CNN"}]}"#,
    );
    assert_eq!(r.status, 429, "{}", r.body);
    assert_eq!(r.header("retry-after"), Some("1"));

    // Cheap lanes still answer: liveness, the identical (now cached)
    // solve, and a certified top-k solve for an uncached seed.
    assert_eq!(get(addr, "/api/health").status, 200);
    let r = post(addr, "/api/tasks?sync=1", COLD_SOLVE);
    assert_eq!(r.status, 200, "cached solve must bypass the lane: {}", r.body);
    let r = post(addr, "/api/tasks?sync=1&top_k=5", &cold);
    assert_eq!(r.status, 200, "top-k serving must bypass the lane: {}", r.body);
    assert_eq!(r.json()["top"].as_array().unwrap().len(), 5);

    // Async submission only enqueues — never shed by the lane.
    let r = post(addr, "/api/tasks", &cold);
    assert_eq!(r.status, 202, "{}", r.body);

    // The stats route accounts for every shed.
    let stats = get(addr, "/api/serving/stats").json();
    assert_eq!(stats["max_expensive"].as_u64(), Some(2));
    assert_eq!(stats["expensive_in_flight"].as_u64(), Some(2));
    assert!(stats["shed_expensive"].as_u64().unwrap() >= 2, "{stats}");
    assert_eq!(stats["shed_queue_full"].as_u64(), Some(0));
    assert!(stats["engine"]["cache"]["hits"].as_u64().unwrap() >= 1, "{stats}");

    // Releasing the permits reopens the lane.
    drop(permits);
    let r = post(addr, "/api/tasks?sync=1", &cold);
    assert_eq!(r.status, 200, "lane reopens after release: {}", r.body);
    h.stop();
}

/// Satellite: several sequential requests reuse one connection, and
/// `Connection: close` is honored.
#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let h = start(ServingConfig {
        workers: 2,
        queue_depth: 8,
        max_expensive: 1,
        keep_alive: Duration::from_secs(10),
        retry_after_secs: 1,
    });
    let addr = h.addr();
    let (mut s, mut reader) = connect(addr);

    for i in 0..3 {
        s.write_all(b"GET /api/health HTTP/1.1\r\nhost: t\r\n\r\n").unwrap();
        let r = read_response(&mut reader);
        assert_eq!(r.status, 200, "request {i}");
        assert_eq!(r.header("connection"), Some("keep-alive"));
    }
    // A POST with a body works mid-connection too.
    let body = r#"{"edges": [{"source": "Fake news", "target": "CNN"}]}"#;
    let raw = format!(
        "POST /api/datasets/fixture-fakenews-it/edges HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(raw.as_bytes()).unwrap();
    assert_eq!(read_response(&mut reader).status, 200);

    // The pool counted the reuses.
    let stats = get(addr, "/api/serving/stats").json();
    assert!(stats["keep_alive_reuses"].as_u64().unwrap() >= 3, "{stats}");

    // `Connection: close` ends the connection after the response.
    s.write_all(b"GET /api/health HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n").unwrap();
    let r = read_response(&mut reader);
    assert_eq!(r.status, 200);
    assert_eq!(r.header("connection"), Some("close"));
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("server closes");
    assert!(rest.is_empty(), "no bytes after a closed response");
    h.stop();
}

/// A `close` option closes the connection whether it comes on an earlier
/// `Connection` line than a `keep-alive` one or inside one list with it.
#[test]
fn a_close_option_closes_even_beside_keep_alive() {
    let h = start(ServingConfig {
        workers: 2,
        queue_depth: 8,
        max_expensive: 1,
        keep_alive: Duration::from_secs(10),
        retry_after_secs: 1,
    });
    for headers in
        ["connection: close\r\nconnection: keep-alive\r\n", "connection: keep-alive, close\r\n"]
    {
        let (mut s, mut reader) = connect(h.addr());
        s.write_all(format!("GET /api/health HTTP/1.1\r\nhost: t\r\n{headers}\r\n").as_bytes())
            .unwrap();
        let r = read_response(&mut reader);
        assert_eq!(r.status, 200, "{headers:?}");
        assert_eq!(r.header("connection"), Some("close"), "{headers:?}");
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("server closes");
        assert!(rest.is_empty(), "{headers:?}: no bytes after a closed response");
    }
    h.stop();
}

/// Sends `raw` on a fresh connection and expects one `400` whose error
/// names the host header, then EOF: the request is never served.
fn one_400_then_eof(addr: SocketAddr, raw: &str) {
    let (mut s, mut reader) = connect(addr);
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(raw.as_bytes()).unwrap();
    let r = read_response(&mut reader);
    assert_eq!(r.status, 400, "{raw:?}: {}", r.body);
    assert!(r.json()["error"].as_str().unwrap().contains("host header"), "{}", r.body);
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("the server closes the connection");
    assert!(rest.is_empty(), "a second response: {}", String::from_utf8_lossy(&rest));
}

fn one_worker() -> cyclerank_platform::server::server::ServerHandle {
    start(ServingConfig {
        workers: 1,
        queue_depth: 4,
        max_expensive: 1,
        keep_alive: Duration::from_secs(5),
        retry_after_secs: 1,
    })
}

/// Two `Host` lines get one `400`, then close (RFC 9112 §3.2): the
/// second line does not silently replace the first.
#[test]
fn two_host_headers_get_one_400_then_eof() {
    let h = one_worker();
    one_400_then_eof(h.addr(), "GET /api/health HTTP/1.1\r\nhost: a\r\nhost: b\r\n\r\n");
    h.stop();
}

/// An HTTP/1.1 request without `Host` gets one `400`, then close; an
/// HTTP/1.0 one, which predates the header, is served.
#[test]
fn an_http11_request_without_host_gets_one_400_then_eof() {
    let h = one_worker();
    one_400_then_eof(h.addr(), "GET /api/health HTTP/1.1\r\nconnection: keep-alive\r\n\r\n");
    let r = one_shot(h.addr(), "GET /api/health HTTP/1.0\r\nconnection: close\r\n\r\n");
    assert_eq!(r.status, 200, "{}", r.body);
    h.stop();
}

/// Tentpole acceptance: when every worker is pinned and the admission
/// queue is full, further connections are shed at accept time with a
/// `429` and `Retry-After` instead of queueing without bound — and a
/// queued connection is served as soon as a worker frees up.
#[test]
fn full_admission_queue_sheds_connections_with_retry_after() {
    let h = start(ServingConfig {
        workers: 1,
        queue_depth: 1,
        max_expensive: 1,
        keep_alive: Duration::from_secs(30),
        retry_after_secs: 2,
    });
    let addr = h.addr();

    // Pin the only worker: a keep-alive connection holds it between
    // requests until closed.
    let (mut pin, mut pin_reader) = connect(addr);
    pin.write_all(b"GET /api/health HTTP/1.1\r\nhost: t\r\n\r\n").unwrap();
    assert_eq!(read_response(&mut pin_reader).status, 200);

    // Fills the queue's single slot; no worker will pick it up yet.
    let (mut queued, mut queued_reader) = connect(addr);

    // Queue full: the acceptor itself answers 429 and closes.
    let (mut shed, mut shed_reader) = connect(addr);
    shed.write_all(b"GET /api/health HTTP/1.1\r\nhost: t\r\n\r\n").unwrap();
    let r = read_response(&mut shed_reader);
    assert_eq!(r.status, 429, "{}", r.body);
    assert_eq!(r.header("retry-after"), Some("2"));
    let mut rest = Vec::new();
    shed_reader.read_to_end(&mut rest).expect("shed connection closes");

    // Releasing the pinned connection frees the worker, which then
    // serves the queued connection.
    drop(pin_reader);
    drop(pin);
    queued
        .write_all(b"GET /api/serving/stats HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
        .unwrap();
    let r = read_response(&mut queued_reader);
    assert_eq!(r.status, 200, "queued connection served after worker frees: {}", r.body);
    let stats = r.json();
    assert!(stats["shed_queue_full"].as_u64().unwrap() >= 1, "{stats}");
    assert_eq!(stats["workers"].as_u64(), Some(1));
    h.stop();
}

/// A path with an incomplete `%` escape before a multi-byte character
/// answers a typed 4xx, and the pool's only worker survives it to serve
/// the next connection.
#[test]
fn bad_percent_escape_in_the_path_leaves_the_worker_serving() {
    let h = start(ServingConfig {
        workers: 1,
        queue_depth: 4,
        max_expensive: 1,
        keep_alive: Duration::from_secs(5),
        retry_after_secs: 1,
    });
    let addr = h.addr();
    let r = get(addr, "/api/datasets/%aé");
    assert!((400..500).contains(&r.status), "{} {}", r.status, r.body);
    assert_eq!(r.json()["error"], "unknown dataset \"%aé\"");
    // A dead worker would leave this connection queued forever.
    let (mut s, mut reader) = connect(addr);
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /api/health HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n").unwrap();
    assert_eq!(read_response(&mut reader).status, 200);
    h.stop();
}

/// Satellite: oversized request bodies and header blocks are refused
/// with `413` before being buffered.
#[test]
fn oversized_requests_get_413() {
    let h = start(ServingConfig {
        workers: 2,
        queue_depth: 8,
        max_expensive: 1,
        keep_alive: Duration::from_secs(5),
        retry_after_secs: 1,
    });
    let addr = h.addr();

    // Declared body beyond the 1 MiB cap: refused on the headers alone.
    let r = one_shot(
        addr,
        &format!(
            "POST /api/datasets HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n",
            (1 << 20) + 1
        ),
    );
    assert_eq!(r.status, 413, "{}", r.body);

    // An endless header line: refused after the 16 KiB header cap.
    let (mut s, mut reader) = connect(addr);
    s.write_all(b"GET /api/health HTTP/1.1\r\nhost: t\r\nx-junk: ").unwrap();
    s.write_all(&vec![b'a'; 64 << 10]).ok(); // server may close mid-write
    let r = read_response(&mut reader);
    assert_eq!(r.status, 413, "{}", r.body);

    let stats = get(addr, "/api/serving/stats").json();
    assert!(stats["rejected_payload"].as_u64().unwrap() >= 2, "{stats}");
    h.stop();
}

/// A header line that is not `name: value` is answered once, with a
/// `400`, and the connection closes: a line without a colon is not
/// skipped, and an obs-fold continuation carrying `Content-Length` does
/// not frame a body, so the bytes after it are never read as a request.
#[test]
fn malformed_header_lines_get_one_400_then_eof() {
    let h = start(ServingConfig {
        workers: 1,
        queue_depth: 4,
        max_expensive: 1,
        keep_alive: Duration::from_secs(5),
        retry_after_secs: 1,
    });
    let smuggled = "GET /api/health HTTP/1.1\r\nhost: t\r\n\r\n";
    let folded = format!(
        "GET /api/health HTTP/1.1\r\nhost: t\r\nX-A: 1\r\n Content-Length: {}\r\n\r\n{smuggled}",
        smuggled.len()
    );
    for raw in
        ["GET /api/health HTTP/1.1\r\nhost: t\r\nthis line has no colon\r\n\r\n", folded.as_str()]
    {
        let (mut s, mut reader) = connect(h.addr());
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let r = read_response(&mut reader);
        assert_eq!(r.status, 400, "{raw:?}: {}", r.body);
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("the server closes the connection");
        assert!(rest.is_empty(), "a second response: {}", String::from_utf8_lossy(&rest));
    }
    h.stop();
}

/// A chunked request is answered once, with a `400` naming the header,
/// and the connection closes: the chunks are never read as a request,
/// so a body holding `GET /api/health` smuggles nothing through.
#[test]
fn transfer_encoding_gets_one_400_then_eof() {
    let h = start(ServingConfig {
        workers: 1,
        queue_depth: 4,
        max_expensive: 1,
        keep_alive: Duration::from_secs(5),
        retry_after_secs: 1,
    });
    let smuggled = "GET /api/health HTTP/1.1\r\nhost: t\r\n\r\n";
    for body in [COLD_SOLVE, smuggled] {
        let (mut s, mut reader) = connect(h.addr());
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let raw = format!(
            "POST /api/tasks?sync=1 HTTP/1.1\r\nhost: t\r\ntransfer-encoding: chunked\r\n\r\n{:x}\r\n{body}\r\n0\r\n\r\n",
            body.len()
        );
        s.write_all(raw.as_bytes()).unwrap();
        let r = read_response(&mut reader);
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(r.json()["error"].as_str().unwrap().contains("transfer-encoding"), "{}", r.body);
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("the server closes the connection");
        assert!(rest.is_empty(), "a second response: {}", String::from_utf8_lossy(&rest));
    }
    h.stop();
}
