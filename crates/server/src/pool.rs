//! The worker-pool serving path: bounded concurrency, admission control,
//! and load shedding.
//!
//! The accept loop ([`crate::server::ApiServer::run`]) no longer spawns a
//! thread per connection. Instead it `try_send`s each accepted socket
//! onto a **bounded crossbeam channel** — the admission queue — drained by
//! `workers` long-lived worker threads. When the queue is full the
//! acceptor answers `429 Too Many Requests` with a `Retry-After` header
//! and closes the socket instead of growing without bound: overload turns
//! into explicit back-pressure the client can see, not into thread
//! exhaustion.
//!
//! Each worker owns one connection at a time and serves it with HTTP
//! keep-alive: many sequential requests reuse the accepted socket (and
//! its admission slot) until the client closes, sends
//! `Connection: close`, or stays idle past [`ServingConfig::keep_alive`].
//!
//! Requests are classified into two concurrency lanes:
//!
//! * **cheap** — everything that answers from state the request path
//!   already holds: every `GET`, asynchronous task/batch submissions
//!   (they only enqueue; the scheduler's own worker pool is their
//!   admission control), and synchronous solves on the certified top-k
//!   serving path.
//! * **expensive** — synchronous work that occupies the HTTP worker for
//!   the duration of real engine work: cold full-rank `?sync=1` solves,
//!   edge mutations, and dataset uploads.
//!
//! A `?sync=1` task whose result is cached takes no lane at all: the task
//! handler looks it up once ([`relengine::Executor::cached`]) and answers
//! from the cache entry in hand, on this worker, before any lane is
//! chosen — no queued task, no status-board entry. Only a request that
//! misses is classified, so nothing admitted cheap can turn into a cold
//! solve.
//!
//! The expensive lane holds at most [`ServingConfig::max_expensive`]
//! permits; an expensive request that cannot take one immediately is shed
//! with `429` + `Retry-After`. Cheap requests never queue behind that
//! gate, so a burst of cold solves cannot starve cached/top-k lookups —
//! the property `tests/serving_pool.rs` pins down.
//!
//! `GET /api/serving/stats` exposes the pool's counters plus the engine
//! plumbing the limits are sized from (scheduler workers, per-dataset
//! solver-arena pools, result-cache counters).

use crate::http::{Method, Request, Response, StatusCode};
use crate::routes::{route, submit_task};
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use relengine::{Scheduler, TaskSpec};
use serde::Serialize;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often an idle worker re-checks shutdown / keep-alive expiry.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Read timeout while parsing an in-flight request (a slow-but-live
/// client gets this long between bytes before the connection is dropped).
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Sizing of the serving path. Defaults derive from the host
/// ([`std::thread::available_parallelism`]) and the engine
/// ([`ServingConfig::auto`]); `relrank serve` exposes each knob as a
/// flag.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// HTTP worker threads (each serves one connection at a time).
    pub workers: usize,
    /// Admission-queue capacity: accepted connections waiting for a
    /// worker. Beyond this the acceptor sheds with `429`.
    pub queue_depth: usize,
    /// Concurrent expensive-lane requests (cold sync solves, mutations,
    /// uploads). Beyond this the lane sheds with `429`.
    pub max_expensive: usize,
    /// How long an idle keep-alive connection may hold its worker.
    pub keep_alive: Duration,
    /// `Retry-After` hint (seconds) attached to shed responses.
    pub retry_after_secs: u64,
}

impl ServingConfig {
    /// Sizes the pool for this host and engine: workers from
    /// `available_parallelism` (clamped to `[2, 32]`), a queue of 4
    /// connections per worker, and an expensive lane matching the
    /// scheduler's solver worker count (cold solves ultimately serialize
    /// on those workers and their per-dataset arena pools, so admitting
    /// more would only queue memory) while always leaving at least one
    /// worker free for cheap traffic.
    pub fn auto(engine_workers: usize) -> ServingConfig {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        let workers = cores.clamp(2, 32);
        ServingConfig {
            workers,
            queue_depth: workers * 4,
            max_expensive: engine_workers.max(1).min(workers.saturating_sub(1).max(1)),
            keep_alive: Duration::from_secs(5),
            retry_after_secs: 1,
        }
    }
}

impl Default for ServingConfig {
    fn default() -> ServingConfig {
        ServingConfig::auto(2)
    }
}

/// A counting gate over the expensive lane. Only `try_acquire` exists —
/// the lane *sheds* on saturation instead of queueing, so no waiter
/// bookkeeping is needed. A panicking holder releases its permit through
/// [`GatePermit`]'s drop, so the lane never leaks capacity.
pub struct Gate {
    free: std::sync::Mutex<usize>,
    capacity: usize,
}

impl Gate {
    fn new(capacity: usize) -> Arc<Gate> {
        Arc::new(Gate { free: std::sync::Mutex::new(capacity), capacity })
    }

    fn slots(&self) -> std::sync::MutexGuard<'_, usize> {
        self.free.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Takes a permit if one is free right now.
    pub fn try_acquire(self: &Arc<Gate>) -> Option<GatePermit> {
        let mut free = self.slots();
        if *free == 0 {
            return None;
        }
        *free -= 1;
        Some(GatePermit { gate: Arc::clone(self) })
    }

    /// Permits currently held.
    pub fn in_flight(&self) -> usize {
        self.capacity - *self.slots()
    }
}

/// A held expensive-lane permit; released on drop.
pub struct GatePermit {
    gate: Arc<Gate>,
}

impl Drop for GatePermit {
    fn drop(&mut self) {
        *self.gate.slots() += 1;
    }
}

/// Shared, always-incrementing serving counters plus the lane gate.
pub struct ServingState {
    config: ServingConfig,
    expensive: Arc<Gate>,
    accepted: AtomicU64,
    requests: AtomicU64,
    keep_alive_reuses: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_expensive: AtomicU64,
    rejected_payload: AtomicU64,
    /// Mutations answered `503` because the dataset's storage is degraded.
    degraded_rejections: AtomicU64,
    /// Live admission-queue length, reported by the snapshot.
    queue_len: AtomicU64,
}

impl ServingState {
    /// Fresh state for `config`.
    pub fn new(config: ServingConfig) -> Arc<ServingState> {
        let expensive = Gate::new(config.max_expensive);
        Arc::new(ServingState {
            config,
            expensive,
            accepted: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            keep_alive_reuses: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_expensive: AtomicU64::new(0),
            rejected_payload: AtomicU64::new(0),
            degraded_rejections: AtomicU64::new(0),
            queue_len: AtomicU64::new(0),
        })
    }

    /// The pool sizing in effect.
    pub fn config(&self) -> &ServingConfig {
        &self.config
    }

    /// Takes an expensive-lane permit if one is free — the same gate the
    /// dispatch path sheds on. Exposed so operators (and the load-
    /// shedding tests) can saturate or drain the lane deterministically:
    /// holding every permit quiesces expensive admission while cheap
    /// routes keep answering.
    pub fn try_acquire_expensive(&self) -> Option<GatePermit> {
        self.expensive.try_acquire()
    }

    /// Admits a request to `lane`: the cheap lane always, the expensive
    /// lane with a permit held until the returned guard drops — or the
    /// `429` + `Retry-After` to shed it with when no permit is free.
    fn admit(&self, lane: Lane) -> Result<Option<GatePermit>, Response> {
        if lane == Lane::Cheap {
            return Ok(None);
        }
        match self.try_acquire_expensive() {
            Some(permit) => Ok(Some(permit)),
            None => {
                self.shed_expensive.fetch_add(1, Ordering::Relaxed);
                Err(Response::overloaded(
                    format!(
                        "expensive lane at capacity ({} in flight); retry later",
                        self.config.max_expensive
                    ),
                    self.config.retry_after_secs,
                ))
            }
        }
    }

    /// Point-in-time counters, including the engine plumbing the limits
    /// are sized from.
    pub fn snapshot(&self, engine: &Arc<Scheduler>) -> ServingSnapshot {
        ServingSnapshot {
            workers: self.config.workers,
            queue_depth: self.config.queue_depth,
            max_expensive: self.config.max_expensive,
            keep_alive_ms: self.config.keep_alive.as_millis() as u64,
            queue_len: self.queue_len.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            keep_alive_reuses: self.keep_alive_reuses.load(Ordering::Relaxed),
            shed_queue_full: self.shed_queue_full.load(Ordering::Relaxed),
            shed_expensive: self.shed_expensive.load(Ordering::Relaxed),
            rejected_payload: self.rejected_payload.load(Ordering::Relaxed),
            degraded_rejections: self.degraded_rejections.load(Ordering::Relaxed),
            expensive_in_flight: self.expensive.in_flight(),
            engine: EngineSnapshot {
                workers: engine.worker_count(),
                arenas: engine.executor().arena_stats(),
                cache: engine.cache_stats(),
            },
        }
    }
}

/// Serialized form of `GET /api/serving/stats`.
#[derive(Debug, Clone, Serialize)]
pub struct ServingSnapshot {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Admission-queue capacity.
    pub queue_depth: usize,
    /// Expensive-lane permit count.
    pub max_expensive: usize,
    /// Idle keep-alive window, milliseconds.
    pub keep_alive_ms: u64,
    /// Connections currently queued for a worker.
    pub queue_len: u64,
    /// Connections accepted (admitted or shed).
    pub accepted: u64,
    /// Requests served (all lanes, including error responses).
    pub requests: u64,
    /// Requests served on a reused keep-alive connection.
    pub keep_alive_reuses: u64,
    /// Connections shed because the admission queue was full.
    pub shed_queue_full: u64,
    /// Requests shed because the expensive lane was saturated.
    pub shed_expensive: u64,
    /// Requests refused with `413` (oversized headers or body).
    pub rejected_payload: u64,
    /// Requests answered `503` because a dataset's storage is degraded.
    pub degraded_rejections: u64,
    /// Expensive-lane permits currently held.
    pub expensive_in_flight: usize,
    /// The engine-side pools the serving limits are sized from.
    pub engine: EngineSnapshot,
}

/// Engine-side pool figures surfaced through the serving stats.
#[derive(Debug, Clone, Serialize)]
pub struct EngineSnapshot {
    /// Scheduler solver workers.
    pub workers: usize,
    /// Per-dataset solver-arena pool footprint.
    pub arenas: relengine::ArenaPoolStats,
    /// Result-cache counters.
    pub cache: relengine::CacheStats,
}

/// Which concurrency lane a request is admitted through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Answered from held state; never shed by the lane gate.
    Cheap,
    /// Occupies the worker with real engine work; gated by
    /// [`ServingConfig::max_expensive`].
    Expensive,
}

/// The lane of a `POST /api/tasks` request the result cache could not
/// answer. An asynchronous submission only enqueues — the scheduler's
/// bounded worker pool is its admission control — and a `?top_k=` solve
/// runs the certified top-k serving path: both cheap. A synchronous
/// full-rank solve is expensive.
fn task_lane(spec: &TaskSpec, sync: bool) -> Lane {
    if sync && spec.params.top_k.is_none() {
        Lane::Expensive
    } else {
        Lane::Cheap
    }
}

/// The lane of every other route.
fn classify(method: Method, segments: &[&str]) -> Lane {
    match (method, segments) {
        (Method::Get, _) => Lane::Cheap,
        (Method::Post, ["api", "batch"] | ["api", "query-sets"]) => Lane::Cheap,
        (Method::Post, ["api", "tasks", _, "cancel"]) => Lane::Cheap,
        // Mutations, uploads, and anything else that does synchronous
        // engine work on the HTTP worker.
        _ => Lane::Expensive,
    }
}

/// Routes one request through its admission lane. The serving-stats
/// route short-circuits here (it belongs to the pool, not the engine);
/// `POST /api/tasks` picks its lane inside its handler, after the cache
/// lookup that may answer it without one.
pub fn dispatch(req: &Request, engine: &Arc<Scheduler>, state: &ServingState) -> Response {
    let segments = req.segments();
    let response = match (req.method, segments.as_slice()) {
        (Method::Get, ["api", "serving", "stats"]) => {
            return Response::json(StatusCode::Ok, &state.snapshot(engine));
        }
        (Method::Post, ["api", "tasks"]) => {
            submit_task(req, engine, |spec, sync| state.admit(task_lane(spec, sync)))
        }
        (method, segments) => match state.admit(classify(method, segments)) {
            Ok(_permit) => route(req, engine),
            Err(shed) => shed,
        },
    };
    if response.status == StatusCode::ServiceUnavailable {
        state.degraded_rejections.fetch_add(1, Ordering::Relaxed);
    }
    response
}

/// The bounded worker pool draining the admission queue.
pub struct ServingPool {
    tx: Option<Sender<TcpStream>>,
    state: Arc<ServingState>,
    shutdown: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl ServingPool {
    /// Starts `state.config().workers` worker threads.
    pub fn start(engine: Arc<Scheduler>, state: Arc<ServingState>) -> ServingPool {
        let (tx, rx) = bounded::<TcpStream>(state.config.queue_depth.max(1));
        let shutdown = Arc::new(AtomicBool::new(false));
        let workers = (0..state.config.workers.max(1))
            .map(|_| {
                let rx: Receiver<TcpStream> = rx.clone();
                let engine = Arc::clone(&engine);
                let state = Arc::clone(&state);
                let shutdown = Arc::clone(&shutdown);
                std::thread::spawn(move || worker_loop(rx, engine, state, shutdown))
            })
            .collect();
        ServingPool { tx: Some(tx), state, shutdown, workers }
    }

    /// Admits one accepted connection: queued for a worker, or shed with
    /// `429` + `Retry-After` when the queue is full.
    pub fn admit(&self, mut stream: TcpStream) {
        self.state.accepted.fetch_add(1, Ordering::Relaxed);
        // rellint: allow(panic-hygiene) -- tx is Some from construction until shutdown(), which consumes the pool
        let tx = self.tx.as_ref().expect("pool running");
        match tx.try_send(stream) {
            Ok(()) => {
                self.state.queue_len.store(tx.len() as u64, Ordering::Relaxed);
            }
            Err(TrySendError::Full(s)) | Err(TrySendError::Disconnected(s)) => {
                stream = s;
                self.state.shed_queue_full.fetch_add(1, Ordering::Relaxed);
                // Best effort: tell the client to back off, bounded so a
                // non-reading client cannot wedge the acceptor.
                let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
                let _ = Response::overloaded(
                    format!(
                        "admission queue full ({} waiting); retry later",
                        self.state.config.queue_depth
                    ),
                    self.state.config.retry_after_secs,
                )
                .write_to(&mut stream);
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Drop for ServingPool {
    /// Stops accepting, drains, and joins every worker: the channel's
    /// sender side is dropped (workers exit their `recv` loop once the
    /// queue is empty) and the shutdown flag breaks idle keep-alive
    /// polls within one idle-poll interval (100 ms).
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.tx.take();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(
    rx: Receiver<TcpStream>,
    engine: Arc<Scheduler>,
    state: Arc<ServingState>,
    shutdown: Arc<AtomicBool>,
) {
    while let Ok(stream) = rx.recv() {
        state.queue_len.store(rx.len() as u64, Ordering::Relaxed);
        if shutdown.load(Ordering::SeqCst) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
            continue;
        }
        serve_connection(stream, &engine, &state, &shutdown);
    }
}

/// Serves one connection until close / `Connection: close` / idle
/// expiry / shutdown, with HTTP keep-alive in between.
fn serve_connection(
    mut stream: TcpStream,
    engine: &Arc<Scheduler>,
    state: &Arc<ServingState>,
    shutdown: &Arc<AtomicBool>,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(IDLE_POLL)).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut served: u64 = 0;
    'conn: loop {
        // Idle phase: poll for the next request's first byte so shutdown
        // and keep-alive expiry stay responsive without risking a
        // timeout mid-parse.
        let idle_start = Instant::now();
        loop {
            match reader.fill_buf() {
                Ok([]) => break 'conn, // clean EOF
                Ok(_) => break,        // request bytes ready
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if shutdown.load(Ordering::SeqCst)
                        || idle_start.elapsed() >= state.config.keep_alive
                    {
                        break 'conn;
                    }
                }
                Err(_) => break 'conn,
            }
        }
        let _ = stream.set_read_timeout(Some(REQUEST_TIMEOUT));
        let parsed = Request::read_buffered(&mut reader);
        let _ = stream.set_read_timeout(Some(IDLE_POLL));
        match parsed {
            Ok(Some(req)) => {
                let keep_alive = !req.wants_close();
                let response = dispatch(&req, engine, state);
                state.requests.fetch_add(1, Ordering::Relaxed);
                if served > 0 {
                    state.keep_alive_reuses.fetch_add(1, Ordering::Relaxed);
                }
                served += 1;
                if response.write_conn(&mut stream, keep_alive).is_err() || !keep_alive {
                    break;
                }
            }
            Ok(None) => break, // EOF between requests
            Err(e) => {
                if e.status == StatusCode::PayloadTooLarge {
                    state.rejected_payload.fetch_add(1, Ordering::Relaxed);
                }
                state.requests.fetch_add(1, Ordering::Relaxed);
                let _ = Response::error(e.status, e.message).write_conn(&mut stream, false);
                break;
            }
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A PPR task on a small fixture, so a cold solve is quick.
    const SPEC: &str = r#"{"dataset": "fixture-fakenews-it", "params": {"algorithm": "personalized_page_rank"}, "source": "Fake news", "top_k": 5}"#;

    fn request(method: Method, path: &str, query: &str, body: &str) -> Request {
        Request {
            method,
            path: path.to_string(),
            query: query.to_string(),
            headers: HashMap::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn sync_task(body: &str) -> Request {
        request(Method::Post, "/api/tasks", "sync=1", body)
    }

    fn serving(engine: Scheduler) -> (Arc<Scheduler>, Arc<ServingState>) {
        let config = ServingConfig {
            workers: 2,
            queue_depth: 8,
            max_expensive: 1,
            keep_alive: Duration::from_secs(5),
            retry_after_secs: 1,
        };
        (Arc::new(engine), ServingState::new(config))
    }

    fn json(response: &Response) -> serde_json::Value {
        serde_json::from_slice(&response.body).expect("JSON body")
    }

    #[test]
    fn sync_miss_then_hit_count_one_miss_and_one_hit() {
        let (engine, state) = serving(Scheduler::builder().workers(1).build());
        let miss = dispatch(&sync_task(SPEC), &engine, &state);
        assert_eq!(miss.status, StatusCode::Ok, "{}", json(&miss));
        let hit = dispatch(&sync_task(SPEC), &engine, &state);
        assert_eq!(hit.status, StatusCode::Ok, "{}", json(&hit));
        assert_eq!(json(&hit)["top"], json(&miss)["top"]);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn sync_hit_answers_while_every_expensive_permit_is_held() {
        let (engine, state) = serving(Scheduler::builder().workers(1).build());
        assert_eq!(dispatch(&sync_task(SPEC), &engine, &state).status, StatusCode::Ok);
        let permits: Vec<_> = std::iter::from_fn(|| state.try_acquire_expensive()).collect();
        assert_eq!(permits.len(), 1);
        let hit = dispatch(&sync_task(SPEC), &engine, &state);
        assert_eq!(hit.status, StatusCode::Ok, "{}", json(&hit));
        assert_eq!(state.shed_expensive.load(Ordering::Relaxed), 0);
        // A cold full-rank sync solve is still shed.
        let cold = dispatch(&sync_task(&SPEC.replace("Fake news", "Bufala")), &engine, &state);
        assert_eq!(cold.status, StatusCode::TooManyRequests, "{}", json(&cold));
        assert_eq!(state.shed_expensive.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn sync_hit_never_enqueues_a_task_or_writes_a_board_entry() {
        let (engine, state) = serving(Scheduler::builder().workers(1).build());
        let miss = json(&dispatch(&sync_task(SPEC), &engine, &state));
        let solved_id = miss["task_id"].as_str().unwrap().to_string();
        assert_eq!(engine.metrics().total, 1);
        let hit = json(&dispatch(&sync_task(SPEC), &engine, &state));
        let hit_id = hit["task_id"].as_str().unwrap().to_string();
        assert_ne!(hit_id, solved_id, "a hit names its own answer");
        // `Scheduler::submit` writes the board entry before it queues the
        // job, so no entry means nothing was queued.
        assert_eq!(engine.metrics().total, 1);
        for path in [format!("/api/tasks/{hit_id}"), format!("/api/tasks/{hit_id}/result")] {
            let polled = dispatch(&request(Method::Get, &path, "", ""), &engine, &state);
            assert_eq!(polled.status, StatusCode::NotFound, "{path}");
            assert_eq!(json(&polled)["error"], format!("unknown task {hit_id:?}"), "{path}");
        }
        // The solved task stays pollable.
        let polled = dispatch(
            &request(Method::Get, &format!("/api/tasks/{solved_id}"), "", ""),
            &engine,
            &state,
        );
        assert_eq!(polled.status, StatusCode::Ok);
    }

    #[test]
    fn evicted_key_sheds_instead_of_solving_on_the_cheap_lane() {
        let (engine, state) = serving(Scheduler::builder().workers(1).cache_capacity(1).build());
        let other = SPEC.replace("Fake news", "Bufala");
        assert_eq!(dispatch(&sync_task(SPEC), &engine, &state).status, StatusCode::Ok);
        // A second key evicts the first from the one-entry cache.
        assert_eq!(dispatch(&sync_task(&other), &engine, &state).status, StatusCode::Ok);
        assert_eq!(engine.cache_stats().evictions, 1);
        let _permit = state.try_acquire_expensive().expect("lane open");
        let before = (engine.cache_stats(), engine.metrics().total);
        let shed = dispatch(&sync_task(SPEC), &engine, &state);
        assert_eq!(shed.status, StatusCode::TooManyRequests, "{}", json(&shed));
        assert!(shed.headers.iter().any(|(name, _)| *name == "retry-after"));
        // Nothing was solved or queued, and the failed lookup counted
        // nothing.
        assert_eq!((engine.cache_stats(), engine.metrics().total), before);
        // The cached key still answers on the saturated lane.
        assert_eq!(dispatch(&sync_task(&other), &engine, &state).status, StatusCode::Ok);
    }

    #[test]
    fn malformed_sync_task_is_a_400_on_a_saturated_lane() {
        let (engine, state) = serving(Scheduler::builder().workers(1).build());
        let _permit = state.try_acquire_expensive().expect("lane open");
        let bad = dispatch(&sync_task("not json"), &engine, &state);
        assert_eq!(bad.status, StatusCode::BadRequest);
        assert_eq!(state.shed_expensive.load(Ordering::Relaxed), 0);
    }
}
