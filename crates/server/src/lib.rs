//! # relserver — the API gateway of the CycleRank demo platform
//!
//! A dependency-free HTTP/1.1 server over `std::net` exposing the demo's
//! REST surface. Per Fig. 1, the gateway "acts as entry point for all
//! incoming requests from the Web UI and routes them to the relevant
//! computational nodes" — here, to a [`relengine::Scheduler`].
//!
//! Serving runs on a bounded worker pool with HTTP keep-alive, a bounded
//! admission queue, and two concurrency lanes (cheap reads/cached serves
//! vs. expensive cold solves and mutations); overload is shed explicitly
//! with `429` + `Retry-After` rather than queued without bound — see the
//! [`pool`] module.
//!
//! Endpoints:
//!
//! | Method | Path | Meaning |
//! |--------|------|---------|
//! | GET  | `/api/health` | liveness probe |
//! | GET  | `/api/datasets` | the 50-dataset catalog |
//! | GET  | `/api/datasets/{id}` | one catalog entry |
//! | GET  | `/api/algorithms` | registry contents: ids, metadata, parameter schemas |
//! | POST | `/api/tasks` | submit a task (JSON [`relengine::TaskSpec`]; `?sync=1` returns the result: a cache hit at once, unqueued; a miss after its solve) |
//! | GET  | `/api/tasks/{id}` | poll a task's status |
//! | GET  | `/api/tasks/{id}/result` | fetch a completed task's result |
//! | GET  | `/api/tasks/{id}/log` | fetch a task's execution log |
//! | POST | `/api/query-sets` | submit an array of tasks as one query set (`?top_k=k` serves every row top-k-only) |
//! | GET  | `/api/serving/stats` | worker pool, admission queue, and load-shed counters |
//!
//! ```no_run
//! use relserver::ApiServer;
//! use std::sync::Arc;
//!
//! let scheduler = Arc::new(relengine::Scheduler::builder().workers(2).build());
//! let server = ApiServer::bind("127.0.0.1:0", scheduler).unwrap();
//! println!("listening on {}", server.local_addr());
//! server.run(); // blocks
//! ```

pub mod http;
pub mod pool;
pub mod routes;
pub mod server;

pub use http::{Request, Response, StatusCode};
pub use pool::{ServingConfig, ServingSnapshot, ServingState};
pub use server::ApiServer;
