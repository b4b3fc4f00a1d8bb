//! `serving_load`: tail latency of the worker-pool serving path under
//! concurrent mixed traffic.
//!
//! Boots a real `ApiServer` (worker pool, admission queue, expensive
//! lane) and drives four client lanes at once over keep-alive
//! connections:
//!
//! * **cache_hit** — the same synchronous PPR solve over and over; after
//!   the warming call every request is answered from the result cache on
//!   the cheap lane.
//! * **topk** — certified top-k solves (`?sync=1&top_k=10`) with a
//!   per-request damping so the cache never answers; cheap lane.
//! * **cold_solve** — full-rank synchronous solves with unique damping:
//!   every request is a cold solve through the expensive lane, so this
//!   lane contends for the `max_expensive` permits and may be shed.
//! * **mutation** — edge add/remove toggles on a separate uploaded
//!   dataset (so the solve lanes' cache stays warm); expensive lane.
//!
//! Shed requests (`429`) are retried after a short backoff and counted;
//! only served requests enter the latency distributions. Per-lane
//! p50/p99/p999 land in `BENCH_serving_load.json` for the bench_guard
//! regression gate.

use relbench::record::{percentile, BenchReport};
use relengine::Scheduler;
use relserver::{ApiServer, ServingConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

// One pool worker per client connection: every lane runs concurrently
// from the first request (a keep-alive connection pins its worker, so a
// pool smaller than the client count would measure startup queueing,
// not serving latency).
const WORKERS: usize = 8;
const QUEUE_DEPTH: usize = 64;
const MAX_EXPENSIVE: usize = 2;
/// (threads, requests per thread) for each lane.
const CACHE_HIT: (usize, usize) = (2, 1000);
const TOPK: (usize, usize) = (2, 400);
const COLD_SOLVE: (usize, usize) = (2, 200);
const MUTATION: (usize, usize) = (2, 300);

/// A keep-alive HTTP/1.1 client; reconnects if the server closes.
struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    fn new(addr: SocketAddr) -> Self {
        Client { addr, conn: None }
    }

    fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
        let s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(180))).expect("read timeout");
        s.set_nodelay(true).ok();
        BufReader::new(s)
    }

    /// Sends one request, returns `(status, body)`. Reuses the
    /// connection when the server keeps it alive.
    fn request(&mut self, raw: &str) -> (u16, String) {
        let mut reader = self.conn.take().unwrap_or_else(|| Self::connect(self.addr));
        if reader.get_mut().write_all(raw.as_bytes()).is_err() {
            // Keep-alive window expired under us: one clean retry.
            reader = Self::connect(self.addr);
            reader.get_mut().write_all(raw.as_bytes()).expect("send");
        }
        let mut line = String::new();
        reader.read_line(&mut line).expect("status line");
        let status: u16 = line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).unwrap_or(0);
        let mut keep_alive = true;
        let mut len = 0usize;
        loop {
            let mut h = String::new();
            reader.read_line(&mut h).expect("header");
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
                len = v.trim().parse().unwrap_or(0);
            }
            if h.to_ascii_lowercase().starts_with("connection:") && h.contains("close") {
                keep_alive = false;
            }
        }
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body).expect("body");
        if keep_alive {
            self.conn = Some(reader);
        }
        (status, String::from_utf8_lossy(&body).into_owned())
    }

    fn send(&mut self, method: &str, path: &str, body: &str) -> (u16, String) {
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.request(&raw)
    }

    fn post(&mut self, path: &str, body: &str) -> (u16, String) {
        self.send("POST", path, body)
    }
}

fn solve_body(source: &str, damping: f64, top_k: usize) -> String {
    format!(
        r#"{{"dataset":"fixture-enwiki-2018","params":{{"algorithm":"personalized_page_rank","damping":{damping:.4}}},"source":"{source}","top_k":{top_k}}}"#
    )
}

/// Runs one client lane: `count` requests, retrying shed (`429`)
/// requests after a short backoff. Returns served-request latencies.
fn run_lane(
    addr: SocketAddr,
    barrier: &Barrier,
    sheds: &AtomicU64,
    count: usize,
    mut make: impl FnMut(usize) -> (&'static str, String, String),
) -> Vec<f64> {
    let mut client = Client::new(addr);
    let mut latencies = Vec::with_capacity(count);
    barrier.wait();
    for i in 0..count {
        let (method, path, body) = make(i);
        loop {
            let t = Instant::now();
            let (status, resp) = client.send(method, &path, &body);
            match status {
                200 => {
                    latencies.push(t.elapsed().as_nanos() as f64);
                    break;
                }
                429 => {
                    sheds.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(2));
                }
                other => panic!("lane request failed ({other}): {resp}"),
            }
        }
    }
    latencies
}

/// Spawns `threads` clients for a lane and merges their latencies.
#[allow(clippy::type_complexity)]
fn spawn_lane(
    addr: SocketAddr,
    barrier: Arc<Barrier>,
    sheds: Arc<AtomicU64>,
    (threads, count): (usize, usize),
    make: impl Fn(usize, usize) -> (&'static str, String, String) + Send + Sync + 'static,
) -> std::thread::JoinHandle<Vec<f64>> {
    let make = Arc::new(make);
    std::thread::spawn(move || {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let barrier = Arc::clone(&barrier);
                let sheds = Arc::clone(&sheds);
                let make = Arc::clone(&make);
                std::thread::spawn(move || run_lane(addr, &barrier, &sheds, count, |i| make(t, i)))
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("lane client")).collect()
    })
}

/// Percentile labels reported per lane.
const PERCENTILES: [(&str, f64); 3] = [("p50", 0.50), ("p99", 0.99), ("p999", 0.999)];
/// Full traffic rounds; each case reports the median across rounds so a
/// single scheduling hiccup cannot poison a committed tail baseline.
const ROUNDS: usize = 3;

/// One full mixed-traffic round: all lanes start on a shared barrier and
/// contend for the same pool. Returns per-lane percentile triples.
/// Damping offsets are unique per `(lane, thread, round, request)` so
/// the topk and cold_solve lanes never hit the result cache — not within
/// a round, not across rounds.
fn run_round(
    addr: SocketAddr,
    sheds: &Arc<AtomicU64>,
    round: usize,
    warm: &str,
) -> Vec<(&'static str, [f64; 3])> {
    let total_threads = CACHE_HIT.0 + TOPK.0 + COLD_SOLVE.0 + MUTATION.0;
    let barrier = Arc::new(Barrier::new(total_threads));
    let warm_body = warm.to_string();
    let lanes = [
        (
            "cache_hit",
            spawn_lane(addr, Arc::clone(&barrier), Arc::clone(sheds), CACHE_HIT, move |_, _| {
                ("POST", "/api/tasks?sync=1".into(), warm_body.clone())
            }),
        ),
        (
            "topk",
            spawn_lane(addr, Arc::clone(&barrier), Arc::clone(sheds), TOPK, move |t, i| {
                let damping = 0.20 + t as f64 * 0.35 + round as f64 * 0.05 + i as f64 * 0.0001;
                ("POST", "/api/tasks?sync=1&top_k=10".into(), solve_body("Brian May", damping, 10))
            }),
        ),
        (
            "cold_solve",
            spawn_lane(addr, Arc::clone(&barrier), Arc::clone(sheds), COLD_SOLVE, move |t, i| {
                let damping = 0.10 + t as f64 * 0.40 + round as f64 * 0.03 + i as f64 * 0.0001;
                ("POST", "/api/tasks?sync=1".into(), solve_body("Queen (band)", damping, 10))
            }),
        ),
        (
            "mutation",
            spawn_lane(addr, Arc::clone(&barrier), Arc::clone(sheds), MUTATION, |_, i| {
                let method = if i % 2 == 0 { "POST" } else { "DELETE" };
                (
                    method,
                    "/api/datasets/serving-load-mut/edges".into(),
                    r#"{"edges":[{"source":"a","target":"c"}]}"#.into(),
                )
            }),
        ),
    ];
    lanes
        .into_iter()
        .map(|(lane, join)| {
            let mut lat = join.join().expect("lane");
            let stats = PERCENTILES.map(|(_, q)| percentile(&mut lat, q));
            println!(
                "serving_load: round {round} {lane:<10} n={:<5} \
                 p50 {:>8.1}µs  p99 {:>8.1}µs  p999 {:>8.1}µs",
                lat.len(),
                stats[0] / 1e3,
                stats[1] / 1e3,
                stats[2] / 1e3,
            );
            (lane, stats)
        })
        .collect()
}

fn main() {
    let engine = Arc::new(Scheduler::builder().workers(3).build());
    let config = ServingConfig {
        workers: WORKERS,
        queue_depth: QUEUE_DEPTH,
        max_expensive: MAX_EXPENSIVE,
        keep_alive: Duration::from_secs(30),
        retry_after_secs: 1,
    };
    let handle = ApiServer::bind_with("127.0.0.1:0", engine, config).expect("bind").spawn();
    let addr = handle.addr();

    // Warm-up: the cache_hit lane's exact spec, and a dedicated dataset
    // for the mutation lane so solve caches stay warm under mutation.
    let mut setup = Client::new(addr);
    let warm = solve_body("Freddie Mercury", 0.85, 10);
    let (status, body) = setup.post("/api/tasks?sync=1", &warm);
    assert_eq!(status, 200, "warming solve: {body}");
    let net = "*Vertices 3\n1 \"a\"\n2 \"b\"\n3 \"c\"\n*Arcs\n1 2\n2 3\n3 1\n";
    let upload = format!(
        r#"{{"name":"serving-load-mut","content":{}}}"#,
        serde_json::to_string(net).unwrap()
    );
    let (status, body) = setup.post("/api/datasets", &upload);
    assert_eq!(status, 200, "mutation dataset upload: {body}");

    println!(
        "serving_load: {WORKERS} http workers, queue {QUEUE_DEPTH}, \
         expensive lane {MAX_EXPENSIVE} — lanes (threads x requests): \
         cache_hit {CACHE_HIT:?}, topk {TOPK:?}, cold_solve {COLD_SOLVE:?}, \
         mutation {MUTATION:?}, {ROUNDS} rounds"
    );
    let sheds = Arc::new(AtomicU64::new(0));
    let rounds: Vec<_> = (0..ROUNDS).map(|r| run_round(addr, &sheds, r, &warm)).collect();

    // Tail percentiles of a live server are order-statistics over a few
    // hundred samples: one descheduled thread moves p999 by orders of
    // magnitude. Reporting the median across rounds (plus the declared
    // 3x guard threshold) keeps the regression gate meaningful.
    let mut report = BenchReport::new("serving_load", "fixture-enwiki-2018")
        .param("http_workers", WORKERS)
        .param("queue_depth", QUEUE_DEPTH)
        .param("max_expensive", MAX_EXPENSIVE)
        .param("engine_workers", 3)
        .param("rounds", ROUNDS)
        .guard_threshold(3.0);
    for (lane_idx, (lane, _)) in rounds[0].iter().enumerate() {
        for (p_idx, (pname, _)) in PERCENTILES.iter().enumerate() {
            let mut vals: Vec<f64> = rounds.iter().map(|r| r[lane_idx].1[p_idx]).collect();
            report.case(format!("{lane}/{pname}"), percentile(&mut vals, 0.5));
        }
    }
    let shed = sheds.load(Ordering::Relaxed);
    println!("serving_load: {shed} requests shed (429) and retried");
    report = report.param("shed_retries", shed);

    // The server's own accounting, through the stats route.
    let (status, body) = setup.send("GET", "/api/serving/stats", "");
    assert_eq!(status, 200, "stats route: {body}");
    let stats: serde_json::Value = serde_json::from_str(&body).expect("stats json");
    report = report
        .param("requests_served", stats["requests"].clone())
        .param("keep_alive_reuses", stats["keep_alive_reuses"].clone())
        .param("shed_expensive", stats["shed_expensive"].clone())
        .param("shed_queue_full", stats["shed_queue_full"].clone());
    report.write();
    handle.stop();
}
