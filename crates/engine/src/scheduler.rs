//! The Scheduler: queueing, worker pool, and result collection (Fig. 1).
//!
//! Tasks submitted through [`Scheduler::submit`] or
//! [`Scheduler::submit_query_set`] are queued as jobs on a crossbeam
//! channel; a pool of worker threads (the paper's "computational nodes",
//! which "can be scaled up or down depending on the system's workload" —
//! here via [`SchedulerBuilder::workers`]) pops jobs and executes their
//! rows through a shared [`Executor`]. There is one kind of job: a row of
//! its own, or the rows of a query set that share work — rows that read a
//! common stationary vector, which then solve it once, and rows that
//! differ only in seed, which solve as the lanes of one sweep. A
//! multi-seed batch is such a query set ([`crate::task::BatchSpec::rows`]).
//! Each task lives in one [`StatusBoard`] entry: workers record every
//! lifecycle transition there with its log line, and completion stores the
//! result in the same write. Pollers read the board, and
//! [`Scheduler::wait`] blocks until a task reaches a terminal state.

use crate::cache::CacheStats;
use crate::error::EngineError;
use crate::executor::{Executor, TaskResult};
use crate::persist::GraphPersistence;
use crate::status::{StatusBoard, TaskState};
use crate::task::{lane_groups, QuerySet, TaskId, TaskSpec};
use crossbeam::channel::{unbounded, Receiver, Sender};
use relcore::{Scheme, StationaryRead, Teleport};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

enum Job {
    /// Rows run on one worker, in set order, sharing the stationary
    /// vectors they solve and fusing the seeds of each lane group.
    Run(Vec<(TaskId, TaskSpec)>),
    Shutdown,
}

/// One stationary vector a row reads, as far as the row's spec names it.
#[derive(PartialEq, Eq, Hash)]
struct VectorTag<'a> {
    dataset: &'a str,
    read: StationaryRead,
    /// The teleport's reference label; `None` for a uniform teleport.
    source: Option<&'a str>,
    /// The solver settings that change a vector's bits, as bits (the
    /// thread count never does).
    damping: u64,
    tolerance: u64,
    max_iterations: usize,
    scheme: Scheme,
    record_trace: bool,
}

fn vectors_read(spec: &TaskSpec) -> impl Iterator<Item = VectorTag<'_>> {
    let p = &spec.params;
    spec.stationary_reads().iter().map(move |&read| VectorTag {
        dataset: &spec.dataset,
        read,
        source: match read.teleport {
            Teleport::Uniform => None,
            Teleport::Reference => spec.source.as_deref(),
        },
        damping: p.damping.to_bits(),
        tolerance: p.tolerance.to_bits(),
        max_iterations: p.max_iterations,
        scheme: p.solver,
        record_trace: p.record_trace,
    })
}

/// The jobs of a set of rows, as row indices: rows that read a common
/// stationary vector or share a lane group ([`lane_groups`]), directly or
/// through another row, share a job; every other row is a job of its own.
/// Jobs come in the order of their first row, and rows within a job in
/// set order.
fn partition(specs: &[&TaskSpec]) -> Vec<Vec<usize>> {
    // Union-find whose root is the job's first row.
    fn root(first: &[usize], mut i: usize) -> usize {
        while first[i] != i {
            i = first[i];
        }
        i
    }
    let mut first: Vec<usize> = (0..specs.len()).collect();
    let mut join = |i: usize, j: usize| {
        let (a, b) = (root(&first, i), root(&first, j));
        first[a.max(b)] = a.min(b);
    };
    let mut first_reader: HashMap<VectorTag<'_>, usize> = HashMap::new();
    for (i, spec) in specs.iter().enumerate() {
        for tag in vectors_read(spec) {
            join(i, *first_reader.entry(tag).or_insert(i));
        }
    }
    for group in lane_groups(specs) {
        for pair in group.windows(2) {
            join(pair[0], pair[1]);
        }
    }
    let mut jobs: Vec<Vec<usize>> = Vec::new();
    let mut job_of = vec![0; specs.len()];
    for i in 0..specs.len() {
        let r = root(&first, i);
        if r == i {
            job_of[r] = jobs.len();
            jobs.push(Vec::new());
        }
        jobs[job_of[r]].push(i);
    }
    jobs
}

/// Configures a [`Scheduler`].
pub struct SchedulerBuilder {
    workers: usize,
    cache_capacity: usize,
    data_dir: Option<PathBuf>,
    persistence: Option<Arc<GraphPersistence>>,
}

impl SchedulerBuilder {
    /// Number of worker threads (default 2).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Entry capacity of the executor's result cache (default
    /// [`crate::cache::DEFAULT_CACHE_CAPACITY`]); `0` disables result
    /// caching.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Roots a durable graph store at `dir`: boot recovers every dataset
    /// from its snapshot + journal, and every mutation batch is journaled
    /// (fsynced) before it commits. See [`crate::persist`].
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// Attaches an already-built persistence layer — how fault-injection
    /// tests and the scenario harness run a full scheduler over a
    /// [`relstore::FaultInjector`]-backed store. Takes precedence over
    /// [`SchedulerBuilder::data_dir`].
    pub fn persistence(mut self, persist: Arc<GraphPersistence>) -> Self {
        self.persistence = Some(persist);
        self
    }

    /// Starts the worker pool, recovering every dataset of the configured
    /// data dir (if any) into the executor's registry.
    ///
    /// # Panics
    /// Panics when a configured data dir cannot be opened or recovered
    /// (corrupt journal, unreadable snapshot); use
    /// [`SchedulerBuilder::try_build`] to handle that gracefully.
    pub fn build(self) -> Scheduler {
        // rellint: allow(panic-hygiene) -- documented contract: build() panics, try_build() is the fallible twin
        self.try_build().expect("scheduler build")
    }

    /// Like [`SchedulerBuilder::build`], surfacing durable-store errors
    /// instead of panicking. Without a data dir this cannot fail.
    pub fn try_build(self) -> Result<Scheduler, EngineError> {
        let (tx, rx) = unbounded::<Job>();
        let mut executor = Executor::with_cache_capacity(self.cache_capacity);
        if let Some(persist) = self.persistence {
            executor.attach_persistence(persist);
        } else if let Some(dir) = &self.data_dir {
            executor.attach_persistence(Arc::new(GraphPersistence::open(dir)?));
        }
        let executor = Arc::new(executor);
        // The durable store is the only place an upload outlives its
        // process: snapshot + journal replay, version history included.
        executor.recover_persisted()?;
        let board = StatusBoard::new();
        let mut handles = Vec::with_capacity(self.workers);
        for worker_id in 0..self.workers {
            let rx: Receiver<Job> = rx.clone();
            let executor = Arc::clone(&executor);
            let board = board.clone();
            handles.push(std::thread::spawn(move || worker_loop(worker_id, rx, executor, board)));
        }
        Ok(Scheduler { tx, rx, board, executor, handles })
    }
}

fn worker_loop(worker_id: usize, rx: Receiver<Job>, executor: Arc<Executor>, board: StatusBoard) {
    while let Ok(Job::Run(rows)) = rx.recv() {
        run_rows(worker_id, &rows, &executor, &board);
    }
}

/// Runs a job's rows ([`Executor::execute_job`]). Each row is marked
/// running when it starts and completed or failed when it ends, so pollers
/// see progress row by row; a row canceled while queued is skipped, and a
/// failing row fails alone. A row that reused a vector an earlier row
/// solved, or was solved in a lane group, says so in its log.
fn run_rows(
    worker_id: usize,
    rows: &[(TaskId, TaskSpec)],
    executor: &Executor,
    board: &StatusBoard,
) {
    executor.execute_job(
        rows,
        |i| board.mark_running(&rows[i].0, worker_id, &rows[i].1.display_row()),
        |i, outcome, note| {
            let id = &rows[i].0;
            match outcome {
                Ok(result) => {
                    if let Some(line) = note {
                        board.note(id, worker_id, &line);
                    }
                    board.mark_completed(id, worker_id, result);
                }
                Err(e) => board.mark_failed(id, worker_id, e.to_string()),
            }
        },
    );
}

/// The running engine: submit tasks, poll status, fetch results.
///
/// Dropping the scheduler shuts the worker pool down (in-flight tasks
/// finish; queued tasks are abandoned only if the process exits).
pub struct Scheduler {
    tx: Sender<Job>,
    rx: Receiver<Job>,
    board: StatusBoard,
    executor: Arc<Executor>,
    handles: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Starts building a scheduler.
    pub fn builder() -> SchedulerBuilder {
        SchedulerBuilder {
            workers: 2,
            cache_capacity: crate::cache::DEFAULT_CACHE_CAPACITY,
            data_dir: None,
            persistence: None,
        }
    }

    /// Registers a user-uploaded graph so tasks can reference it by id
    /// (see [`Executor::register_graph`]). With a data dir the upload is
    /// snapshotted before it becomes visible and a restart recovers it;
    /// without one it lives in memory only.
    pub fn register_dataset(
        &self,
        id: &str,
        graph: relgraph::DirectedGraph,
    ) -> Result<(), EngineError> {
        self.executor.register_graph(id, graph)
    }

    /// Submits one task; returns its id immediately. Front doors check
    /// [`TaskSpec::validate`] first; a spec that skipped it fails on its
    /// worker with the same error.
    pub fn submit(&self, spec: TaskSpec) -> TaskId {
        let id = TaskId::fresh();
        self.queue_rows(vec![(id.clone(), spec)]);
        id
    }

    /// Submits every task of a query set; returns ids in set order. A
    /// multi-seed batch submits its rows here ([`crate::BatchSpec::rows`]).
    ///
    /// Rows that read a common stationary vector — same dataset, solver
    /// configuration and teleport, directly or through another row — run
    /// as one job, which solves each vector once: a `{PageRank, CheiRank,
    /// 2DRank}` set makes two solves, not four. Rows of PPR or Pers.
    /// CheiRank whose specs differ only in seed, top-k serving rows
    /// included, run as one job too, and the seeds that miss the result
    /// cache solve as the lanes of one sweep. Every other row is a job of
    /// its own, so `{PageRank, CheiRank}` alone still runs on two workers
    /// in parallel. Jobs queue in the order of their first row, and a
    /// job's rows run in set order (a lane group's at its first row), each
    /// answering exactly as it would alone (its `runtime_ms` counts its
    /// own work only, a fused row's an even share of its sweep). Every
    /// row polls, waits and stores like an individually submitted task.
    pub fn submit_query_set(&self, qs: &QuerySet) -> Vec<TaskId> {
        let rows: Vec<(TaskId, TaskSpec)> =
            qs.tasks().iter().map(|t| (TaskId::fresh(), t.clone())).collect();
        let ids = rows.iter().map(|(id, _)| id.clone()).collect();
        self.queue_rows(rows);
        ids
    }

    /// Puts every row on the board as queued, then queues the rows'
    /// jobs ([`partition`]).
    fn queue_rows(&self, rows: Vec<(TaskId, TaskSpec)>) {
        for (id, spec) in &rows {
            self.board.enqueue(id.clone(), spec.clone());
        }
        for job in partition(&rows.iter().map(|(_, spec)| spec).collect::<Vec<_>>()) {
            let job = job.into_iter().map(|i| rows[i].clone()).collect();
            // Send cannot fail while workers hold the receiver.
            let _ = self.tx.send(Job::Run(job));
        }
    }

    /// Hit/miss/eviction counters of the executor's result cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.executor.cache_stats()
    }

    /// Applies a batch of edge mutations to a dataset (see
    /// [`Executor::mutate_dataset`]): atomic, version-bumping, and
    /// cache-invalidating. With a data dir the batch is journaled (fsynced)
    /// before it commits, so a restart recovers the post-mutation graph;
    /// without one the edit lives in memory only.
    pub fn mutate_dataset(
        &self,
        id: &str,
        ops: &[crate::mutation::EdgeOp],
    ) -> Result<crate::mutation::MutationOutcome, EngineError> {
        self.executor.mutate_dataset(id, ops)
    }

    /// Adds `n` more worker threads at runtime — the paper's computational
    /// nodes "can be scaled up or down depending on the system's workload".
    /// (Scaling *down* happens naturally when the scheduler is dropped;
    /// individual workers are not reaped early.)
    pub fn add_workers(&mut self, n: usize) {
        let base = self.handles.len();
        for i in 0..n {
            let rx = self.rx.clone();
            let executor = Arc::clone(&self.executor);
            let board = self.board.clone();
            let worker_id = base + i;
            self.handles
                .push(std::thread::spawn(move || worker_loop(worker_id, rx, executor, board)));
        }
    }

    /// Number of worker threads currently running.
    pub fn worker_count(&self) -> usize {
        self.handles.len()
    }

    /// Cancels a queued task (no effect once a worker picked it up).
    /// Returns whether the cancellation took effect, or
    /// [`EngineError::UnknownTask`].
    pub fn cancel(&self, id: &TaskId) -> Result<bool, EngineError> {
        self.board.cancel_if_queued(id)
    }

    /// Aggregate task metrics.
    pub fn metrics(&self) -> crate::status::BoardMetrics {
        self.board.metrics()
    }

    /// Current status of a task.
    pub fn status(&self, id: &TaskId) -> Result<TaskState, EngineError> {
        self.board.get(id).map(|r| r.state).ok_or_else(|| EngineError::UnknownTask(id.to_string()))
    }

    /// The status board: every task's record, result and log.
    pub fn board(&self) -> &StatusBoard {
        &self.board
    }

    /// The shared executor (exposes the dataset cache).
    pub fn executor(&self) -> &Arc<Executor> {
        &self.executor
    }

    /// Blocks until `id` reaches a terminal state, then returns its result.
    ///
    /// Returns [`EngineError::Timeout`] if the deadline passes,
    /// [`EngineError::TaskFailed`] if the task failed or was canceled.
    pub fn wait(&self, id: &TaskId, timeout: Duration) -> Result<TaskResult, EngineError> {
        // Event-driven: workers signal every terminal transition through
        // the board, so the wait costs one wakeup instead of a poll loop
        // (whose 2 ms floor used to dominate sub-millisecond solves on
        // the synchronous serving path).
        self.board.wait_terminal(id, timeout).map(|result| TaskResult::clone(&result))
    }

    /// Waits for a batch of tasks (e.g. a submitted query set).
    pub fn wait_all(
        &self,
        ids: &[TaskId],
        timeout: Duration,
    ) -> Result<Vec<TaskResult>, EngineError> {
        let deadline = Instant::now() + timeout;
        ids.iter()
            .map(|id| {
                let remaining = deadline.saturating_duration_since(Instant::now());
                self.wait(id, remaining)
            })
            .collect()
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        for _ in &self.handles {
            let _ = self.tx.send(Job::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TaskBuilder;
    use crate::task::BatchSpec;
    use relcore::runner::Algorithm;

    const T: Duration = Duration::from_secs(60);

    fn cyclerank_task(dataset: &str, source: &str) -> TaskSpec {
        TaskBuilder::new(dataset)
            .algorithm(Algorithm::CycleRank)
            .source(source)
            .top_k(5)
            .build()
            .unwrap()
    }

    #[test]
    fn end_to_end_single_task() {
        let s = Scheduler::builder().workers(1).build();
        let id = s.submit(cyclerank_task("fixture-fakenews-it", "Fake news"));
        let r = s.wait(&id, T).unwrap();
        assert_eq!(r.top[0].0, "Fake news");
        assert_eq!(r.top[1].0, "Disinformazione");
        assert_eq!(s.status(&id).unwrap(), TaskState::Completed);
        // The result and the log live on the board.
        assert_eq!(*s.board().result(&id).unwrap().unwrap(), r);
        let log = s.board().log(&id).unwrap();
        assert!(log.contains("running"));
        assert!(log.contains("done"));
    }

    #[test]
    fn status_carries_residual_progress() {
        let s = Scheduler::builder().workers(1).build();
        let id = s.submit(TaskBuilder::new("fixture-enwiki-2018").top_k(3).build().unwrap());
        let r = s.wait(&id, T).unwrap();
        let record = s.board().get(&id).unwrap();
        let progress = record.progress.expect("pagerank task reports progress");
        assert_eq!(Some(progress.iterations), r.iterations);
        assert_eq!(Some(progress.residual), r.residual);
        assert!(progress.converged);
        let log = s.board().log(&id).unwrap();
        assert!(log.contains("converged"), "{log}");
        // CycleRank has no iterative solve: no progress recorded.
        let id = s.submit(cyclerank_task("fixture-fakenews-it", "Fake news"));
        s.wait(&id, T).unwrap();
        assert!(s.board().get(&id).unwrap().progress.is_none());
    }

    #[test]
    fn batch_fans_out_to_individual_results() {
        let s = Scheduler::builder().workers(2).build();
        let sources = ["Freddie Mercury", "Queen (band)", "Brian May", "Roger Taylor"];
        let batch = BatchSpec {
            dataset: "fixture-enwiki-2018".into(),
            params: relcore::AlgorithmParams::new(Algorithm::PersonalizedPageRank),
            sources: sources.iter().map(|s| s.to_string()).collect(),
            top_k: 5,
        };
        let ids = s.submit_query_set(&batch.rows().into_iter().collect());
        assert_eq!(ids.len(), 4);
        let results = s.wait_all(&ids, T).unwrap();
        for (r, source) in results.iter().zip(&sources) {
            assert_eq!(r.source.as_deref(), Some(*source));
            assert_eq!(r.top.len(), 5);
            assert_eq!(r.top[0].0, *source, "PPR's top hit is the seed itself");
            assert!(r.converged.unwrap());
        }
        // Every member polls like an ordinary task: status, result, log.
        for id in &ids {
            assert_eq!(s.status(id).unwrap(), TaskState::Completed);
            assert!(s.board().log(id).unwrap().contains("solved in a 4-seed lane group"));
        }
        let m = s.metrics();
        assert_eq!(m.completed, 4);

        // Resubmitting the same seeds is served from the result cache.
        let before = s.cache_stats();
        let batch2 = BatchSpec {
            dataset: "fixture-enwiki-2018".into(),
            params: relcore::AlgorithmParams::new(Algorithm::PersonalizedPageRank),
            sources: sources.iter().map(|s| s.to_string()).collect(),
            top_k: 5,
        };
        let ids2 = s.submit_query_set(&batch2.rows().into_iter().collect());
        let again = s.wait_all(&ids2, T).unwrap();
        assert_eq!(s.cache_stats().hits, before.hits + 4);
        for (a, b) in results.iter().zip(&again) {
            assert_eq!(a.top, b.top);
        }
    }

    #[test]
    fn a_batch_seed_that_does_not_resolve_fails_alone() {
        let s = Scheduler::builder().workers(1).build();
        let batch = BatchSpec {
            dataset: "fixture-enwiki-2018".into(),
            params: relcore::AlgorithmParams::new(Algorithm::PersonalizedPageRank),
            sources: vec!["Freddie Mercury".into(), "No Such Page".into()],
            top_k: 3,
        };
        let ids = s.submit_query_set(&batch.rows().into_iter().collect());
        assert_eq!(s.wait(&ids[0], T).unwrap().top[0].0, "Freddie Mercury");
        match s.wait(&ids[1], T) {
            Err(EngineError::TaskFailed(e)) => assert!(e.contains("No Such Page"), "{e}"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!((s.metrics().completed, s.metrics().failed), (1, 1));
    }

    #[test]
    fn cache_stats_observable_and_disableable() {
        let s = Scheduler::builder().workers(1).cache_capacity(0).build();
        let spec = TaskBuilder::new("fixture-fakenews-it")
            .algorithm(Algorithm::PersonalizedPageRank)
            .source("Fake news")
            .build()
            .unwrap();
        let a = s.submit(spec.clone());
        s.wait(&a, T).unwrap();
        let b = s.submit(spec);
        s.wait(&b, T).unwrap();
        let stats = s.cache_stats();
        assert_eq!(stats.capacity, 0);
        assert_eq!(stats.hits, 0, "capacity 0 disables the cache");
    }

    #[test]
    fn failed_task_reports_error() {
        let s = Scheduler::builder().workers(1).build();
        let id = s.submit(cyclerank_task("fixture-fakenews-it", "No Such Page"));
        match s.wait(&id, T) {
            Err(EngineError::TaskFailed(e)) => assert!(e.contains("No Such Page")),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(s.status(&id).unwrap(), TaskState::Failed { .. }));
    }

    #[test]
    fn unknown_task_status() {
        let s = Scheduler::builder().workers(1).build();
        assert!(matches!(s.status(&TaskId::fresh()), Err(EngineError::UnknownTask(_))));
    }

    #[test]
    fn query_set_runs_all_rows() {
        // The Fig. 2 scenario: three algorithms over one dataset.
        let s = Scheduler::builder().workers(3).build();
        let mut qs = QuerySet::new();
        qs.add(cyclerank_task("fixture-fakenews-pl", "Fake news"));
        qs.add(TaskBuilder::new("fixture-fakenews-pl").top_k(5).build().unwrap());
        qs.add(
            TaskBuilder::new("fixture-fakenews-pl")
                .algorithm(Algorithm::PersonalizedPageRank)
                .damping(0.3)
                .source("Fake news")
                .top_k(5)
                .build()
                .unwrap(),
        );
        let ids = s.submit_query_set(&qs);
        assert_eq!(ids.len(), 3);
        let results = s.wait_all(&ids, T).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].algorithm, "cyclerank");
        assert_eq!(results[1].algorithm, "pagerank");
        assert_eq!(results[2].algorithm, "ppr");
    }

    /// A row of `algorithm` on `dataset`, with `source` only where the
    /// task rules require one.
    fn row(dataset: &str, algorithm: Algorithm, source: &str) -> TaskSpec {
        let builder = TaskBuilder::new(dataset).algorithm(algorithm).top_k(5);
        match algorithm.is_personalized() {
            true => builder.source(source).build().unwrap(),
            false => builder.build().unwrap(),
        }
    }

    fn jobs(specs: &[TaskSpec]) -> Vec<Vec<usize>> {
        partition(&specs.iter().collect::<Vec<_>>())
    }

    #[test]
    fn rows_share_a_job_only_through_a_common_vector() {
        use Algorithm::*;
        let d = "fixture-enwiki-2018";
        let at = |a| row(d, a, "Freddie Mercury");
        // PageRank and CheiRank read different vectors: two jobs, which
        // still run in parallel.
        assert_eq!(jobs(&[at(PageRank), at(CheiRank)]), [vec![0], vec![1]]);
        // 2DRank reads both, so it joins them into one job.
        assert_eq!(jobs(&[at(PageRank), at(CheiRank), at(TwoDRank)]), [vec![0, 1, 2]]);
        // Different teleports never share.
        let ppr = row(d, PersonalizedPageRank, "Freddie Mercury");
        let p2d = row(d, PersonalizedTwoDRank, "Brian May");
        assert_eq!(jobs(&[ppr, p2d]), [vec![0], vec![1]]);
        // CycleRank reads no vector: one job per row.
        let cycles: Vec<TaskSpec> = (3..6)
            .map(|k| {
                let builder = TaskBuilder::new(d).algorithm(CycleRank).max_cycle_len(k);
                builder.source("Freddie Mercury").build().unwrap()
            })
            .collect();
        assert_eq!(jobs(&cycles), [vec![0], vec![1], vec![2]]);
        // A top-k row keeps its own job and its own path.
        let mut top_k = at(PageRank);
        top_k.serve_top_k(5);
        assert_eq!(jobs(&[at(PageRank), top_k, at(TwoDRank)]), [vec![0, 2], vec![1]]);
        // Other datasets, dampings and schemes read other vectors.
        let mut damped = at(TwoDRank);
        damped.params.damping = 0.5;
        let mut power = at(TwoDRank);
        power.params.solver = relcore::Scheme::Power;
        let elsewhere = row("fixture-amazon-books", TwoDRank, "1984");
        assert_eq!(
            jobs(&[at(PageRank), damped, power, elsewhere]),
            [vec![0], vec![1], vec![2], vec![3]]
        );
        // The thread count does not change a vector: those rows share.
        let mut threaded = at(TwoDRank);
        threaded.params.threads = 2;
        assert_eq!(jobs(&[at(PageRank), threaded]), [vec![0, 1]]);
        // Jobs come in the order of their first row, rows in set order.
        let set =
            [at(CycleRank), at(PageRank), at(PersonalizedPageRank), at(CheiRank), at(TwoDRank)];
        assert_eq!(jobs(&set), [vec![0], vec![1, 3, 4], vec![2]]);
    }

    #[test]
    fn rows_that_differ_only_in_seed_share_a_job() {
        use Algorithm::*;
        let d = "fixture-enwiki-2018";
        let seeds = ["Freddie Mercury", "Brian May", "Queen (band)"];
        let at = |a, seed| row(d, a, seed);
        // PPR and Pers. CheiRank rows fuse across seeds, top-k rows too.
        for algorithm in [PersonalizedPageRank, PersonalizedCheiRank] {
            let set = seeds.map(|seed| at(algorithm, seed));
            assert_eq!(jobs(&set), [vec![0, 1, 2]], "{algorithm}");
            let top_k = set.map(|mut spec| {
                spec.serve_top_k(5);
                spec
            });
            assert_eq!(jobs(&top_k), [vec![0, 1, 2]], "{algorithm} top-k");
        }
        // Any other difference keeps rows apart: algorithm, top-k mode,
        // result size, every parameter (the thread count too) and dataset.
        let mut top_k = at(PersonalizedPageRank, seeds[1]);
        top_k.serve_top_k(5);
        let mut longer = at(PersonalizedPageRank, seeds[1]);
        longer.top_k = 6;
        let mut damped = at(PersonalizedPageRank, seeds[1]);
        damped.params.damping = 0.5;
        let mut threaded = at(PersonalizedPageRank, seeds[1]);
        threaded.params.threads = 2;
        let elsewhere = row("fixture-amazon-books", PersonalizedPageRank, "1984");
        for other in
            [at(PersonalizedCheiRank, seeds[1]), top_k, longer, damped, threaded, elsewhere]
        {
            let set = [at(PersonalizedPageRank, seeds[0]), other];
            assert_eq!(jobs(&set), [vec![0], vec![1]], "{}", set[1].display_row());
        }
        // Pers. 2DRank reads two vectors and CycleRank none: their seeds
        // gain nothing from fusing, so each row keeps its own job.
        for algorithm in [PersonalizedTwoDRank, CycleRank] {
            let set = seeds.map(|seed| at(algorithm, seed));
            assert_eq!(jobs(&set), [vec![0], vec![1], vec![2]], "{algorithm}");
        }
        // A lane group and a vector sharer join through their common row.
        let set = [at(PersonalizedPageRank, seeds[0]), at(PersonalizedPageRank, seeds[1])];
        let p2d = at(PersonalizedTwoDRank, seeds[0]);
        assert_eq!(jobs(&[set[0].clone(), p2d, set[1].clone()]), [vec![0, 1, 2]]);
    }

    #[test]
    fn the_fig2_comparison_keeps_its_jobs() {
        // Seven algorithms × two datasets, in the order the comparison
        // workload submits them: no two rows differ only in seed, so the
        // rows group by shared vectors alone.
        let mut set = Vec::new();
        for algorithm in Algorithm::ALL {
            for (dataset, source) in
                [("fixture-enwiki-2018", "Freddie Mercury"), ("fixture-amazon-books", "1984")]
            {
                set.push(row(dataset, algorithm, source));
            }
        }
        let expected =
            [vec![0, 4, 8], vec![1, 5, 9], vec![2, 6, 10], vec![3, 7, 11], vec![12], vec![13]];
        assert_eq!(jobs(&set), expected);
    }

    #[test]
    fn a_lane_group_skips_canceled_rows_and_fails_unknown_seeds_alone() {
        let d = "fixture-enwiki-2018";
        let seeds = ["Freddie Mercury", "Queen (band)", "No Such Page", "Brian May"];
        let specs = seeds.map(|seed| row(d, Algorithm::PersonalizedPageRank, seed));
        assert_eq!(jobs(&specs), [vec![0, 1, 2, 3]]);
        let (board, ids) = run_job(&specs, &[1]);
        assert_eq!(board.get(&ids[1]).unwrap().state, TaskState::Canceled);
        assert!(board.result(&ids[1]).unwrap().is_none());
        match board.get(&ids[2]).unwrap().state {
            TaskState::Failed { error } => assert!(error.contains("No Such Page"), "{error}"),
            other => panic!("unexpected {other:?}"),
        }
        // The two live seeds that resolve are the group's two lanes.
        for i in [0, 3] {
            assert_eq!(answer(&board, &ids[i]), alone(&specs[i]), "{}", specs[i].display_row());
            let log = board.log(&ids[i]).unwrap();
            assert!(log.contains(&format!("running {}\n", specs[i].display_row())), "{log}");
            assert!(log.contains("worker 0: solved in a 2-seed lane group\n"), "{log}");
        }
        assert!(!board.log(&ids[1]).unwrap().contains("lane group"));
    }

    /// `r` with the fields that name the run, not the answer, masked.
    fn masked(mut r: TaskResult) -> TaskResult {
        r.task_id = TaskId("-".into());
        r.runtime_ms = 0;
        r
    }

    /// `spec` executed alone on a fresh executor with caching disabled.
    fn alone(spec: &TaskSpec) -> TaskResult {
        masked(Executor::with_cache_capacity(0).execute(&TaskId::fresh(), spec).unwrap())
    }

    /// Runs `specs` as one job on a fresh board, canceling the rows in
    /// `canceled` first; returns the board and the row ids.
    fn run_job(specs: &[TaskSpec], canceled: &[usize]) -> (StatusBoard, Vec<TaskId>) {
        let (executor, board) = (Executor::with_cache_capacity(0), StatusBoard::new());
        let rows: Vec<(TaskId, TaskSpec)> =
            specs.iter().map(|s| (TaskId::fresh(), s.clone())).collect();
        for (id, spec) in &rows {
            board.enqueue(id.clone(), spec.clone());
        }
        for &i in canceled {
            assert!(board.cancel_if_queued(&rows[i].0).unwrap());
        }
        run_rows(0, &rows, &executor, &board);
        (board, rows.into_iter().map(|(id, _)| id).collect())
    }

    fn answer(board: &StatusBoard, id: &TaskId) -> TaskResult {
        masked(TaskResult::clone(&board.result(id).unwrap().expect("row completed")))
    }

    #[test]
    fn a_job_reuses_vectors_and_answers_like_rows_alone() {
        use Algorithm::*;
        let d = "fixture-enwiki-2018";
        let specs = [row(d, PageRank, ""), row(d, CheiRank, ""), row(d, TwoDRank, "")];
        let (board, ids) = run_job(&specs, &[]);
        for (spec, id) in specs.iter().zip(&ids) {
            assert_eq!(answer(&board, id), alone(spec), "{}", spec.display_row());
        }
        let log = board.log(&ids[2]).unwrap();
        assert!(log.contains("worker 0: reused 2 of 2 stationary vectors solved in this job\n"));
        assert!(!board.log(&ids[0]).unwrap().contains("reused"), "row 0 solved its vector");
    }

    #[test]
    fn a_canceled_row_is_skipped_and_the_next_reader_solves_its_vector() {
        use Algorithm::*;
        let d = "fixture-amazon-books";
        let specs = [
            row(d, PersonalizedPageRank, "1984"),
            row(d, PersonalizedCheiRank, "1984"),
            row(d, PersonalizedTwoDRank, "1984"),
        ];
        let (board, ids) = run_job(&specs, &[0]);
        assert_eq!(board.get(&ids[0]).unwrap().state, TaskState::Canceled);
        assert!(board.result(&ids[0]).unwrap().is_none());
        for i in [1, 2] {
            assert_eq!(answer(&board, &ids[i]), alone(&specs[i]), "{}", specs[i].display_row());
        }
        // 2DRank solved the PPR vector the canceled row would have solved.
        let log = board.log(&ids[2]).unwrap();
        assert!(log.contains("reused 1 of 2 stationary vectors"), "{log}");
    }

    #[test]
    fn a_failing_row_fails_alone() {
        use Algorithm::*;
        let d = "fixture-enwiki-2018";
        // A global row still resolves its source: an unknown one fails.
        let mut bad = row(d, PageRank, "");
        bad.source = Some("No Such Page".into());
        let specs = [bad, row(d, CheiRank, ""), row(d, TwoDRank, "")];
        assert_eq!(jobs(&specs), [vec![0, 1, 2]]);
        let (board, ids) = run_job(&specs, &[]);
        assert!(matches!(board.get(&ids[0]).unwrap().state, TaskState::Failed { .. }));
        for i in [1, 2] {
            assert_eq!(answer(&board, &ids[i]), alone(&specs[i]), "{}", specs[i].display_row());
        }
        let log = board.log(&ids[2]).unwrap();
        assert!(log.contains("reused 1 of 2 stationary vectors"), "{log}");
    }

    #[test]
    fn a_seven_algorithm_set_solves_four_vectors() {
        // One full-rank solve detaches one arena buffer; the set's two
        // 2DRank rows reuse their siblings' four vectors.
        let s = Scheduler::builder().workers(1).cache_capacity(0).build();
        let mut set = QuerySet::new();
        for algorithm in Algorithm::ALL {
            set.add(row("fixture-enwiki-2018", algorithm, "Freddie Mercury"));
        }
        s.wait_all(&s.submit_query_set(&set), T).unwrap();
        let warm = s.executor().arena_stats().allocations;
        s.wait_all(&s.submit_query_set(&set), T).unwrap();
        assert_eq!(s.executor().arena_stats().allocations - warm, 4);
    }

    #[test]
    fn parallel_workers_share_dataset_cache() {
        let s = Scheduler::builder().workers(4).build();
        let ids: Vec<TaskId> =
            (0..8).map(|_| s.submit(cyclerank_task("fixture-fakenews-nl", "Nepnieuws"))).collect();
        let results = s.wait_all(&ids, T).unwrap();
        assert!(results.iter().all(|r| r.top[0].0 == "Nepnieuws"));
        // One dataset, cached once.
        assert_eq!(s.executor().cached_count(), 1);
    }

    #[test]
    fn timeout_on_zero_deadline() {
        let s = Scheduler::builder().workers(1).build();
        // Submit a task and wait with an already-expired deadline; whether
        // the task happens to finish first is racy, so only assert that a
        // Timeout error is possible shape-wise when returned.
        let id = s.submit(cyclerank_task("fixture-fakenews-de", "Fake News"));
        match s.wait(&id, Duration::ZERO) {
            Ok(_) | Err(EngineError::Timeout(_)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn canceled_queued_tasks_are_skipped() {
        // One worker, many tasks: cancel the tail while the head runs.
        let s = Scheduler::builder().workers(1).build();
        let ids: Vec<TaskId> =
            (0..6).map(|_| s.submit(cyclerank_task("fixture-fakenews-de", "Fake News"))).collect();
        // Cancel whatever is still queued; at least the last task should
        // usually be cancellable, but the assertion tolerates an empty set
        // (if the worker raced through everything already).
        let mut canceled = Vec::new();
        for id in ids.iter().rev() {
            if s.cancel(id).unwrap() {
                canceled.push(id.clone());
            }
        }
        // Every non-canceled task completes; canceled ones never produce a
        // result and report the canceled state.
        for id in &ids {
            if canceled.contains(id) {
                assert!(matches!(s.status(id).unwrap(), TaskState::Canceled));
                assert!(matches!(s.wait(id, T), Err(EngineError::TaskFailed(_))));
                assert!(s.board().result(id).unwrap().is_none());
                assert!(s.board().log(id).unwrap().contains("skipped (canceled)"));
            } else {
                s.wait(id, T).unwrap();
            }
        }
        let m = s.metrics();
        assert_eq!(m.total, 6);
        assert_eq!(m.canceled, canceled.len());
        assert_eq!(m.completed, 6 - canceled.len());
    }

    #[test]
    fn metrics_reflect_lifecycle() {
        let s = Scheduler::builder().workers(2).build();
        let ok = s.submit(cyclerank_task("fixture-fakenews-pl", "Fake news"));
        let bad = s.submit(cyclerank_task("fixture-fakenews-pl", "No Such Page"));
        s.wait(&ok, T).unwrap();
        let _ = s.wait(&bad, T);
        let m = s.metrics();
        assert_eq!(m.total, 2);
        assert_eq!(m.completed, 1);
        assert_eq!(m.failed, 1);
    }

    #[test]
    fn workers_can_scale_up_at_runtime() {
        let mut s = Scheduler::builder().workers(1).build();
        assert_eq!(s.worker_count(), 1);
        let ids: Vec<TaskId> =
            (0..4).map(|_| s.submit(cyclerank_task("fixture-fakenews-de", "Fake News"))).collect();
        s.add_workers(3);
        assert_eq!(s.worker_count(), 4);
        for id in &ids {
            s.wait(id, T).unwrap();
        }
        // New tasks also complete on the grown pool.
        let id = s.submit(cyclerank_task("fixture-fakenews-de", "Fake News"));
        s.wait(&id, T).unwrap();
    }

    fn temp_data_dir() -> PathBuf {
        std::env::temp_dir().join(format!("relengine-sched-{}", crate::id::new_uuid()))
    }

    fn two_node_net(a: &str, b: &str) -> relgraph::DirectedGraph {
        let mut builder = relgraph::GraphBuilder::new();
        builder.add_labeled_edge(a, b);
        builder.add_labeled_edge(b, a);
        builder.build()
    }

    #[test]
    fn uploads_survive_scheduler_restart() {
        let dir = temp_data_dir();
        {
            let s = Scheduler::builder().workers(1).data_dir(&dir).build();
            s.register_dataset("persisted-net", two_node_net("me", "pal")).unwrap();
        } // scheduler dropped
        let s = Scheduler::builder().workers(1).data_dir(&dir).build();
        let id = s.submit(cyclerank_task("persisted-net", "me"));
        let r = s.wait(&id, T).unwrap();
        assert_eq!(r.top[1].0, "pal");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn upload_without_data_dir_is_memory_only() {
        {
            let s = Scheduler::builder().workers(1).build();
            s.register_dataset("memory-net", two_node_net("me", "pal")).unwrap();
            assert!(s.executor().dataset("memory-net").is_ok());
        }
        let s = Scheduler::builder().workers(1).build();
        assert!(matches!(s.executor().dataset("memory-net"), Err(EngineError::UnknownDataset(_))));
    }

    #[test]
    fn colliding_upload_is_rejected_and_leaves_the_original_unchanged() {
        let dir = temp_data_dir();
        let digest_of = |s: &Scheduler| {
            let (g, v) = s.executor().dataset_versioned("taken-net").unwrap();
            relstore::graph_digest(&g, v)
        };
        let original = {
            let s = Scheduler::builder().workers(1).data_dir(&dir).build();
            s.register_dataset("taken-net", two_node_net("me", "pal")).unwrap();
            let original = digest_of(&s);
            assert!(matches!(
                s.register_dataset("taken-net", two_node_net("intruder", "accomplice")),
                Err(EngineError::DatasetExists(_))
            ));
            assert_eq!(digest_of(&s), original);
            original
        };
        let s = Scheduler::builder().workers(1).data_dir(&dir).build();
        assert_eq!(digest_of(&s), original);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_joins_workers() {
        let s = Scheduler::builder().workers(2).build();
        let id = s.submit(cyclerank_task("fixture-fakenews-fr", "Fake news"));
        s.wait(&id, T).unwrap();
        drop(s); // must not hang
    }
}
