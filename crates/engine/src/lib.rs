//! # relengine — the demo platform's execution engine
//!
//! Implements the architecture of the paper's Figure 1 as an in-process
//! library. The paper's five-step task lifecycle maps onto these modules:
//!
//! 1. *"a task — a triple of dataset, algorithm and parameters — is built
//!    by the Task Builder and sent to the Scheduler"* →
//!    [`task::TaskSpec`], [`builder::TaskBuilder`], [`task::QuerySet`]
//!    (the Fig. 2 interface; a multi-seed [`task::BatchSpec`] is a query
//!    set of its [`task::BatchSpec::rows`]), [`scheduler::Scheduler::submit`];
//!    the task rules every front door applies live in
//!    [`task::TaskSpec::validate`] and [`task::BatchSpec::validate`];
//! 2. *"the Scheduler fetches the dataset and invokes an Executor node"* →
//!    the worker pool in [`scheduler`], which runs every submission as one
//!    kind of job ([`executor::Executor::execute_job`]: rows that share a
//!    stationary vector solve it once, rows that differ only in seed share
//!    one multi-vector sweep), and the dataset registry in
//!    [`executor::Executor`], the one in-memory home of every graph; with
//!    a data dir, [`persist`] (over `relstore`) is its one durable home;
//! 3. *"the computation is off-loaded to worker nodes; the Status
//!    component polls for progress"* → worker threads over crossbeam
//!    channels, [`status::StatusBoard`];
//! 4. *"results and logs are written to the datastore"* → the task's
//!    board entry: every transition appends its log line under the same
//!    lock as the state change, and [`status::StatusBoard::mark_completed`]
//!    stores the result in the write that marks the task completed;
//! 5. *"the API returns the results of the completed task"* →
//!    [`scheduler::Scheduler::wait`] / [`status::StatusBoard::result`] and
//!    [`status::StatusBoard::log`] (served over HTTP by the `relserver`
//!    crate).
//!
//! ```
//! use relengine::prelude::*;
//!
//! let engine = Scheduler::builder().workers(2).build();
//! let task = TaskBuilder::new("fixture-enwiki-2018")
//!     .algorithm(Algorithm::CycleRank)
//!     .max_cycle_len(3)
//!     .source("Freddie Mercury")
//!     .build()
//!     .unwrap();
//! let id = engine.submit(task);
//! let result = engine.wait(&id, std::time::Duration::from_secs(30)).unwrap();
//! assert_eq!(result.top[0].0, "Freddie Mercury");
//! ```

pub mod builder;
pub mod cache;
pub mod error;
pub mod executor;
pub mod id;
pub mod mutation;
pub mod persist;
pub mod scheduler;
pub mod status;
pub mod task;

pub use builder::TaskBuilder;
pub use cache::{CacheStats, ResultCache};
pub use error::EngineError;
pub use executor::{
    ArenaPoolStats, DegradedDataset, Executor, TaskResult, DEFAULT_DEGRADED_BACKOFF,
};
pub use mutation::{EdgeOp, EdgeSpec, MutationOutcome};
pub use persist::{GraphPersistence, RecoveredGraph};
pub use scheduler::Scheduler;
pub use status::{StatusBoard, TaskRecord, TaskState};
pub use task::{BatchSpec, QuerySet, TaskId, TaskSpec};

/// Convenient glob import for engine users.
pub mod prelude {
    pub use crate::builder::TaskBuilder;
    pub use crate::cache::CacheStats;
    pub use crate::executor::{Executor, TaskResult};
    pub use crate::scheduler::Scheduler;
    pub use crate::status::{StatusBoard, TaskRecord, TaskState};
    pub use crate::task::{BatchSpec, QuerySet, TaskId, TaskSpec};
    pub use relcore::runner::Algorithm;
}
