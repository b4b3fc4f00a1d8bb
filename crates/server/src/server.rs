//! The TCP accept loop, front door of the worker-pool serving path.
//!
//! The acceptor owns no request work: every accepted socket is handed to
//! the [`crate::pool::ServingPool`] through its bounded admission queue,
//! and shed with `429 Too Many Requests` + `Retry-After` when that queue
//! is full. See the [`crate::pool`] module docs for the serving model.

use crate::pool::{ServingConfig, ServingPool, ServingState};
use relengine::Scheduler;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The API gateway: accepts connections and serves the REST API backed by
/// a [`Scheduler`] through a bounded worker pool.
pub struct ApiServer {
    listener: TcpListener,
    engine: Arc<Scheduler>,
    state: Arc<ServingState>,
    shutdown: Arc<AtomicBool>,
}

/// Handle for stopping a server spawned with [`ApiServer::spawn`].
///
/// Dropping the handle also stops the server: the accept loop is woken
/// and joined, and the worker pool drains before the thread exits — a
/// handle that goes out of scope no longer leaks the accept thread.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServingState>,
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving counters and admission gates of the running pool.
    pub fn serving_state(&self) -> &Arc<ServingState> {
        &self.state
    }

    /// Stops the accept loop, drains the worker pool, and joins the
    /// server thread. (Equivalent to dropping the handle; kept for call
    /// sites that want the shutdown to be explicit.)
    pub fn stop(mut self) {
        self.shutdown_now();
    }

    fn shutdown_now(&mut self) {
        let Some(t) = self.thread.take() else { return };
        self.shutdown.store(true, Ordering::SeqCst);
        // Kick the accept loop awake.
        let _ = TcpStream::connect(self.addr);
        let _ = t.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_now();
    }
}

impl ApiServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) with pool
    /// sizing derived from the host and the engine
    /// ([`ServingConfig::auto`]).
    pub fn bind(addr: impl ToSocketAddrs, engine: Arc<Scheduler>) -> std::io::Result<ApiServer> {
        let config = ServingConfig::auto(engine.worker_count());
        ApiServer::bind_with(addr, engine, config)
    }

    /// Binds with an explicit serving configuration.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        engine: Arc<Scheduler>,
        config: ServingConfig,
    ) -> std::io::Result<ApiServer> {
        let listener = TcpListener::bind(addr)?;
        Ok(ApiServer {
            listener,
            engine,
            state: ServingState::new(config),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        // rellint: allow(panic-hygiene) -- a successfully bound listener always reports its address
        self.listener.local_addr().expect("bound listener has an address")
    }

    /// The serving counters and admission gates.
    pub fn serving_state(&self) -> &Arc<ServingState> {
        &self.state
    }

    /// Serves on the current thread until shut down. Workers and their
    /// in-flight connections drain before this returns.
    pub fn run(self) {
        let pool = ServingPool::start(Arc::clone(&self.engine), Arc::clone(&self.state));
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(s) => pool.admit(s),
                Err(_) => continue,
            }
        }
        // Dropping the pool drains the admission queue and joins every
        // worker.
        drop(pool);
    }

    /// Starts the accept loop on a background thread.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let state = Arc::clone(&self.state);
        let shutdown = Arc::clone(&self.shutdown);
        let thread = std::thread::spawn(move || self.run());
        ServerHandle { addr, state, shutdown, thread: Some(thread) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn start() -> ServerHandle {
        let engine = Arc::new(Scheduler::builder().workers(1).build());
        ApiServer::bind("127.0.0.1:0", engine).unwrap().spawn()
    }

    /// One-shot request: `Connection: close` asks the keep-alive server
    /// to end the connection after the response so `read_to_string`
    /// terminates.
    fn request(addr: SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_health_over_tcp() {
        let h = start();
        let resp =
            request(h.addr(), "GET /api/health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200"));
        assert!(resp.contains(r#""status":"ok""#));
        assert!(resp.contains(r#""degraded_datasets":[]"#));
        h.stop();
    }

    #[test]
    fn serves_concurrent_requests() {
        let h = start();
        let addr = h.addr();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    request(
                        addr,
                        "GET /api/algorithms HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
                    )
                })
            })
            .collect();
        for t in threads {
            let resp = t.join().unwrap();
            assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        }
        h.stop();
    }

    #[test]
    fn malformed_request_gets_400() {
        let h = start();
        let resp = request(h.addr(), "BREW /coffee HTCPCP/1.0\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        h.stop();
    }

    #[test]
    fn serving_stats_route_reports_pool_config() {
        let h = start();
        let resp = request(
            h.addr(),
            "GET /api/serving/stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        let body = resp.split("\r\n\r\n").nth(1).unwrap();
        let v: serde_json::Value = serde_json::from_str(body).unwrap();
        assert_eq!(v["workers"].as_u64(), Some(h.serving_state().config().workers as u64));
        assert!(v["accepted"].as_u64().unwrap() >= 1);
        assert_eq!(v["engine"]["workers"].as_u64(), Some(1));
        h.stop();
    }

    #[test]
    fn stop_terminates_accept_loop() {
        let h = start();
        let addr = h.addr();
        h.stop();
        // Subsequent connections are refused or reset quickly; either way
        // the listener socket is gone shortly after stop() returns.
        std::thread::sleep(std::time::Duration::from_millis(50));
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(_) => {
                // The OS may briefly accept on a lingering socket; a second
                // connect after it drains should fail.
            }
        }
    }

    #[test]
    fn dropping_the_handle_stops_and_joins_the_server() {
        let h = start();
        let addr = h.addr();
        // Leave a keep-alive connection idle so the drop also has to win
        // against a worker mid-connection.
        let mut idle = TcpStream::connect(addr).unwrap();
        idle.write_all(b"GET /api/health HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut buf = [0u8; 16];
        idle.read_exact(&mut buf).unwrap();
        drop(h); // must not leak the accept thread or hang
        std::thread::sleep(std::time::Duration::from_millis(50));
        // The worker notices shutdown within its idle poll and closes.
        let mut rest = Vec::new();
        let _ = idle.read_to_end(&mut rest);
    }
}
