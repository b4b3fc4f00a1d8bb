//! Task state tracking — the Status component of Fig. 1, and the one home
//! of every task.
//!
//! The demo's Status component polls executors and answers UI requests for
//! progress, and its datastore keeps each task's result and log. Both are
//! one [`StatusBoard`] entry here: the task's status record, its result once
//! completed, and its log. Workers apply each lifecycle transition and
//! append its log line under one write lock, and completion stores the
//! result in that same write — a `completed` task always has a result.
//! API handlers read an entry with one lookup. Entries live in memory for
//! the life of the process.

use crate::error::EngineError;
use crate::executor::TaskResult;
use crate::task::{TaskId, TaskSpec};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Lifecycle state of a task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "state", rename_all = "snake_case")]
pub enum TaskState {
    /// Accepted, waiting for a worker.
    Queued,
    /// Being executed by a worker.
    Running,
    /// Finished successfully; the result is on the board.
    Completed,
    /// Finished with an error.
    Failed {
        /// The failure message.
        error: String,
    },
    /// Canceled while still queued (the demo UI's per-row ✕ after submit).
    Canceled,
}

impl TaskState {
    /// True for `Completed`, `Failed` and `Canceled`.
    pub fn is_terminal(&self) -> bool {
        matches!(self, TaskState::Completed | TaskState::Failed { .. } | TaskState::Canceled)
    }
}

/// Residual progress of a task's iterative solve, reported by workers as
/// soon as the solver finishes (PageRank-family tasks only).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolveProgress {
    /// Sweeps performed so far.
    pub iterations: usize,
    /// Latest L1 residual.
    pub residual: f64,
    /// Whether the residual dropped below the tolerance.
    pub converged: bool,
}

/// A task's full status record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskRecord {
    /// The task id.
    pub id: TaskId,
    /// What was submitted.
    pub spec: TaskSpec,
    /// Current state.
    pub state: TaskState,
    /// Submission time (ms since the Unix epoch).
    pub submitted_at_ms: u64,
    /// Completion time, when terminal.
    pub finished_at_ms: Option<u64>,
    /// Residual progress of the underlying solve, when the task runs a
    /// PageRank-family algorithm.
    #[serde(default)]
    pub progress: Option<SolveProgress>,
}

fn now_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

/// One task's home: its record, its result once completed, and its log
/// (one line per lifecycle transition).
#[derive(Debug)]
struct Entry {
    record: TaskRecord,
    result: Option<Arc<TaskResult>>,
    log: String,
}

impl Entry {
    /// Ends the task in `state`, stamping its finish time.
    fn finish(&mut self, state: TaskState) {
        self.record.state = state;
        self.record.finished_at_ms = Some(now_ms());
    }
}

/// Condvar-backed completion signal: every terminal transition bumps the
/// generation and wakes all waiters, so synchronous callers block on the
/// event instead of polling (the 2 ms poll floor used to dominate the
/// served latency of sub-millisecond solves).
#[derive(Debug, Default)]
struct Completions {
    generation: std::sync::Mutex<u64>,
    signal: Condvar,
}

/// Thread-safe registry of tasks: record, result and log per task.
#[derive(Debug, Clone, Default)]
pub struct StatusBoard {
    inner: Arc<RwLock<HashMap<TaskId, Entry>>>,
    completions: Arc<Completions>,
}

impl StatusBoard {
    /// Creates an empty board.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a freshly submitted task as queued.
    pub fn enqueue(&self, id: TaskId, spec: TaskSpec) {
        let record = TaskRecord {
            id: id.clone(),
            spec,
            state: TaskState::Queued,
            submitted_at_ms: now_ms(),
            finished_at_ms: None,
            progress: None,
        };
        self.inner.write().insert(id, Entry { record, result: None, log: String::new() });
    }

    /// Moves a queued task to running on `worker`, logging `what` it runs.
    /// Returns `false` — and changes nothing — when the task is not queued
    /// (canceled before a worker reached it, or unknown).
    pub fn mark_running(&self, id: &TaskId, worker: usize, what: &str) -> bool {
        let log = format!("worker {worker}: running {what}\n");
        let mut inner = self.inner.write();
        match inner.get_mut(id) {
            Some(entry) if entry.record.state == TaskState::Queued => {
                entry.record.state = TaskState::Running;
                entry.log.push_str(&log);
                true
            }
            _ => false,
        }
    }

    /// Appends `line` to a running task's log, as said by `worker`.
    pub(crate) fn note(&self, id: &TaskId, worker: usize, line: &str) {
        if let Some(entry) = self.inner.write().get_mut(id) {
            entry.log.push_str(&format!("worker {worker}: {line}\n"));
        }
    }

    /// Marks a task completed on `worker` and stores its result in the
    /// same write, together with the solve's residual progress (when it
    /// has one) and the log lines that report both.
    pub fn mark_completed(&self, id: &TaskId, worker: usize, result: TaskResult) {
        let progress = match (result.iterations, result.residual, result.converged) {
            (Some(iterations), Some(residual), Some(converged)) => {
                Some(SolveProgress { iterations, residual, converged })
            }
            _ => None,
        };
        let mut log = String::new();
        if let Some(p) = progress {
            log.push_str(&format!(
                "worker {worker}: solver {} after {} iterations (residual {:.3e})\n",
                if p.converged { "converged" } else { "hit the iteration cap" },
                p.iterations,
                p.residual,
            ));
        }
        log.push_str(&format!("worker {worker}: done in {}ms\n", result.runtime_ms));
        let result = Arc::new(result);
        if let Some(entry) = self.inner.write().get_mut(id) {
            entry.finish(TaskState::Completed);
            entry.record.progress = progress;
            entry.result = Some(result);
            entry.log.push_str(&log);
        }
        self.notify_terminal();
    }

    /// Marks a task failed on `worker` with a message.
    pub fn mark_failed(&self, id: &TaskId, worker: usize, error: impl Into<String>) {
        let error = error.into();
        let log = format!("worker {worker}: failed: {error}\n");
        if let Some(entry) = self.inner.write().get_mut(id) {
            entry.finish(TaskState::Failed { error });
            entry.log.push_str(&log);
        }
        self.notify_terminal();
    }

    /// Cancels a task if (and only if) it is still queued; returns whether
    /// the cancellation took effect, or [`EngineError::UnknownTask`].
    pub fn cancel_if_queued(&self, id: &TaskId) -> Result<bool, EngineError> {
        let canceled = {
            let mut inner = self.inner.write();
            let entry =
                inner.get_mut(id).ok_or_else(|| EngineError::UnknownTask(id.to_string()))?;
            let queued = entry.record.state == TaskState::Queued;
            if queued {
                entry.finish(TaskState::Canceled);
                entry.log.push_str("skipped (canceled)\n");
            }
            queued
        };
        if canceled {
            self.notify_terminal();
        }
        Ok(canceled)
    }

    /// Wakes every [`StatusBoard::wait_terminal`] caller. The entry lock
    /// is released by the callers above before this runs, so waiters can
    /// re-check state without lock-order inversion.
    fn notify_terminal(&self) {
        let mut generation = self.completions.generation.lock().unwrap_or_else(|e| e.into_inner());
        *generation = generation.wrapping_add(1);
        self.completions.signal.notify_all();
    }

    /// Blocks until `id` reaches a terminal state or `timeout` passes,
    /// then answers it: the result of a completed task,
    /// [`EngineError::TaskFailed`] for a failed or canceled one,
    /// [`EngineError::Timeout`] when it is still queued or running, and
    /// [`EngineError::UnknownTask`] at once for ids never enqueued.
    /// Wakeups are event-driven: workers signal every terminal transition,
    /// so the wait adds no polling latency on top of the solve itself.
    pub fn wait_terminal(
        &self,
        id: &TaskId,
        timeout: Duration,
    ) -> Result<Arc<TaskResult>, EngineError> {
        let deadline = Instant::now() + timeout;
        let mut generation = self.completions.generation.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            // State check under the generation lock: a transition racing
            // with it must acquire the same lock to notify, so it cannot
            // slip between this check and the wait below.
            if let Some(answer) = self.settled(id) {
                return answer;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(EngineError::Timeout(id.to_string()));
            }
            generation = self
                .completions
                .signal
                .wait_timeout(generation, remaining)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// The answer [`StatusBoard::wait_terminal`] gives for `id` now, or
    /// `None` while it is still queued or running.
    fn settled(&self, id: &TaskId) -> Option<Result<Arc<TaskResult>, EngineError>> {
        let inner = self.inner.read();
        let Some(entry) = inner.get(id) else {
            return Some(Err(EngineError::UnknownTask(id.to_string())));
        };
        // Only `mark_completed` stores a result, in the same write that
        // flips the state, so a result present means completed.
        match (&entry.result, &entry.record.state) {
            (Some(result), _) => Some(Ok(Arc::clone(result))),
            (None, TaskState::Failed { error }) => {
                Some(Err(EngineError::TaskFailed(error.clone())))
            }
            (None, TaskState::Canceled) => Some(Err(EngineError::TaskFailed("canceled".into()))),
            (None, _) => None,
        }
    }

    /// Snapshot of one task's record.
    pub fn get(&self, id: &TaskId) -> Option<TaskRecord> {
        self.inner.read().get(id).map(|entry| entry.record.clone())
    }

    /// A task's result: `Ok(None)` until it completes (and for ever when
    /// it fails or is canceled), [`EngineError::UnknownTask`] for ids
    /// never enqueued.
    pub fn result(&self, id: &TaskId) -> Result<Option<Arc<TaskResult>>, EngineError> {
        match self.inner.read().get(id) {
            Some(entry) => Ok(entry.result.clone()),
            None => Err(EngineError::UnknownTask(id.to_string())),
        }
    }

    /// A task's log, one line per lifecycle transition so far;
    /// [`EngineError::UnknownTask`] for ids never enqueued.
    pub fn log(&self, id: &TaskId) -> Result<String, EngineError> {
        match self.inner.read().get(id) {
            Some(entry) => Ok(entry.log.clone()),
            None => Err(EngineError::UnknownTask(id.to_string())),
        }
    }

    /// Count of tasks in a non-terminal state.
    pub fn pending_count(&self) -> usize {
        self.inner.read().values().filter(|e| !e.record.state.is_terminal()).count()
    }

    /// Aggregate lifecycle metrics across all tracked tasks.
    pub fn metrics(&self) -> BoardMetrics {
        let inner = self.inner.read();
        let mut m = BoardMetrics::default();
        for r in inner.values().map(|e| &e.record) {
            m.total += 1;
            match &r.state {
                TaskState::Queued => m.queued += 1,
                TaskState::Running => m.running += 1,
                TaskState::Completed => m.completed += 1,
                TaskState::Failed { .. } => m.failed += 1,
                TaskState::Canceled => m.canceled += 1,
            }
            if let Some(f) = r.finished_at_ms {
                m.total_turnaround_ms += f.saturating_sub(r.submitted_at_ms);
            }
        }
        m
    }
}

/// Aggregate task counts (the demo's admin/metrics view).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoardMetrics {
    /// All tracked tasks.
    pub total: usize,
    /// Waiting for a worker.
    pub queued: usize,
    /// Currently executing.
    pub running: usize,
    /// Finished successfully.
    pub completed: usize,
    /// Finished with an error.
    pub failed: usize,
    /// Canceled before running.
    pub canceled: usize,
    /// Sum of submit→terminal turnaround times.
    pub total_turnaround_ms: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcore::runner::{Algorithm, AlgorithmParams};

    fn spec() -> TaskSpec {
        TaskSpec {
            dataset: "ds".into(),
            params: AlgorithmParams::new(Algorithm::PageRank),
            source: None,
            top_k: 5,
        }
    }

    fn result(id: &TaskId) -> TaskResult {
        TaskResult {
            task_id: id.clone(),
            dataset: "ds".into(),
            algorithm: "pagerank".into(),
            parameters: "α = 0.85".into(),
            source: None,
            top: vec![("a".into(), 0.6), ("b".into(), 0.4)],
            runtime_ms: 3,
            nodes: 2,
            edges: 2,
            iterations: None,
            residual: None,
            converged: None,
            residuals: None,
            cycles_found: None,
        }
    }

    #[test]
    fn lifecycle_transitions() {
        let board = StatusBoard::new();
        let id = TaskId::fresh();
        board.enqueue(id.clone(), spec());
        assert_eq!(board.get(&id).unwrap().state, TaskState::Queued);
        assert_eq!(board.pending_count(), 1);
        assert_eq!(board.result(&id).unwrap(), None);
        assert_eq!(board.log(&id).unwrap(), "");

        assert!(board.mark_running(&id, 0, "ds | PageRank"));
        assert_eq!(board.get(&id).unwrap().state, TaskState::Running);
        // A task runs once.
        assert!(!board.mark_running(&id, 1, "ds | PageRank"));

        board.mark_completed(&id, 0, result(&id));
        let r = board.get(&id).unwrap();
        assert_eq!(r.state, TaskState::Completed);
        assert!(r.state.is_terminal());
        assert!(r.finished_at_ms.is_some());
        assert!(r.finished_at_ms.unwrap() >= r.submitted_at_ms);
        assert_eq!(board.pending_count(), 0);
        // The result and the log landed with the state flip.
        assert_eq!(*board.result(&id).unwrap().unwrap(), result(&id));
        assert_eq!(
            board.log(&id).unwrap(),
            "worker 0: running ds | PageRank\nworker 0: done in 3ms\n"
        );
    }

    #[test]
    fn progress_recorded_and_visible() {
        let board = StatusBoard::new();
        let id = TaskId::fresh();
        board.enqueue(id.clone(), spec());
        assert!(board.get(&id).unwrap().progress.is_none());
        board.mark_running(&id, 0, "ds");
        let p = SolveProgress { iterations: 17, residual: 3.2e-11, converged: true };
        let solved = TaskResult {
            iterations: Some(p.iterations),
            residual: Some(p.residual),
            converged: Some(p.converged),
            ..result(&id)
        };
        board.mark_completed(&id, 0, solved);
        let r = board.get(&id).unwrap();
        assert_eq!(r.progress, Some(p));
        assert!(board.log(&id).unwrap().contains("solver converged after 17 iterations"));
        // Completing an unknown task is a no-op.
        let ghost = TaskId::fresh();
        board.mark_completed(&ghost, 0, result(&ghost));
        assert!(board.get(&ghost).is_none());
    }

    #[test]
    fn failure_records_message() {
        let board = StatusBoard::new();
        let id = TaskId::fresh();
        board.enqueue(id.clone(), spec());
        board.mark_failed(&id, 2, "no such dataset");
        match board.get(&id).unwrap().state {
            TaskState::Failed { error } => assert!(error.contains("dataset")),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(board.result(&id).unwrap(), None);
        assert_eq!(board.log(&id).unwrap(), "worker 2: failed: no such dataset\n");
    }

    #[test]
    fn unknown_ids_are_noops() {
        let board = StatusBoard::new();
        let ghost = TaskId::fresh();
        assert!(!board.mark_running(&ghost, 0, "x"));
        board.mark_completed(&ghost, 0, result(&ghost));
        board.mark_failed(&ghost, 0, "x");
        assert!(board.get(&ghost).is_none());
        assert_eq!(board.metrics().total, 0);
        // Reads and cancellation report the unknown id.
        assert!(matches!(board.result(&ghost), Err(EngineError::UnknownTask(_))));
        assert!(matches!(board.log(&ghost), Err(EngineError::UnknownTask(_))));
        assert!(matches!(board.cancel_if_queued(&ghost), Err(EngineError::UnknownTask(_))));
    }

    #[test]
    fn all_snapshots() {
        let board = StatusBoard::new();
        let ids: Vec<TaskId> = (0..3).map(|_| TaskId::fresh()).collect();
        for id in &ids {
            board.enqueue(id.clone(), spec());
        }
        for id in &ids {
            assert_eq!(board.get(id).unwrap().id, *id);
        }
        assert_eq!(board.metrics().total, 3);
    }

    #[test]
    fn board_is_shared_between_clones() {
        let a = StatusBoard::new();
        let b = a.clone();
        let id = TaskId::fresh();
        a.enqueue(id.clone(), spec());
        b.mark_completed(&id, 0, result(&id));
        assert_eq!(a.get(&id).unwrap().state, TaskState::Completed);
        assert!(a.result(&id).unwrap().is_some());
    }

    #[test]
    fn cancellation_only_while_queued() {
        let board = StatusBoard::new();
        let id = TaskId::fresh();
        board.enqueue(id.clone(), spec());
        assert!(board.cancel_if_queued(&id).unwrap());
        let r = board.get(&id).unwrap();
        assert_eq!(r.state, TaskState::Canceled);
        assert!(r.state.is_terminal());
        assert_eq!(board.log(&id).unwrap(), "skipped (canceled)\n");
        // A second cancel is a no-op, and a canceled task never runs.
        assert!(!board.cancel_if_queued(&id).unwrap());
        assert!(!board.mark_running(&id, 0, "x"));
        assert_eq!(board.get(&id).unwrap().state, TaskState::Canceled);

        // Running tasks cannot be canceled.
        let id2 = TaskId::fresh();
        board.enqueue(id2.clone(), spec());
        board.mark_running(&id2, 0, "x");
        assert!(!board.cancel_if_queued(&id2).unwrap());
        assert_eq!(board.get(&id2).unwrap().state, TaskState::Running);
    }

    #[test]
    fn metrics_aggregate_counts() {
        let board = StatusBoard::new();
        let ids: Vec<TaskId> = (0..5).map(|_| TaskId::fresh()).collect();
        for id in &ids {
            board.enqueue(id.clone(), spec());
        }
        board.mark_running(&ids[0], 0, "x");
        board.mark_completed(&ids[1], 0, result(&ids[1]));
        board.mark_failed(&ids[2], 0, "x");
        board.cancel_if_queued(&ids[3]).unwrap();
        let m = board.metrics();
        assert_eq!(m.total, 5);
        assert_eq!(m.running, 1);
        assert_eq!(m.completed, 1);
        assert_eq!(m.failed, 1);
        assert_eq!(m.canceled, 1);
        assert_eq!(m.queued, 1);
    }

    #[test]
    fn wait_terminal_wakes_on_completion() {
        let board = StatusBoard::new();
        let id = TaskId::fresh();
        board.enqueue(id.clone(), spec());
        let finisher = {
            let (board, id) = (board.clone(), id.clone());
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                board.mark_completed(&id, 0, result(&id));
            })
        };
        let t = Instant::now();
        let answer = board.wait_terminal(&id, Duration::from_secs(10)).expect("completed");
        assert_eq!(*answer, result(&id));
        // Event-driven: woken by the completion, nowhere near the timeout.
        assert!(t.elapsed() < Duration::from_secs(5));
        finisher.join().unwrap();
    }

    #[test]
    fn wait_terminal_times_out_with_latest_state() {
        let board = StatusBoard::new();
        let id = TaskId::fresh();
        board.enqueue(id.clone(), spec());
        board.mark_running(&id, 0, "x");
        let answer = board.wait_terminal(&id, Duration::from_millis(10));
        assert!(matches!(answer, Err(EngineError::Timeout(_))), "{answer:?}");
        assert_eq!(board.get(&id).unwrap().state, TaskState::Running);
    }

    #[test]
    fn wait_terminal_returns_immediately_when_already_terminal() {
        let board = StatusBoard::new();
        let id = TaskId::fresh();
        board.enqueue(id.clone(), spec());
        board.mark_failed(&id, 0, "boom");
        let t = Instant::now();
        let answer = board.wait_terminal(&id, Duration::from_secs(10));
        assert_eq!(answer, Err(EngineError::TaskFailed("boom".into())));
        // Unknown ids don't block.
        let answer = board.wait_terminal(&TaskId::fresh(), Duration::from_secs(10));
        assert!(matches!(answer, Err(EngineError::UnknownTask(_))));
        assert!(t.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn wait_terminal_sees_cancellation() {
        let board = StatusBoard::new();
        let id = TaskId::fresh();
        board.enqueue(id.clone(), spec());
        let canceler = {
            let (board, id) = (board.clone(), id.clone());
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                assert!(board.cancel_if_queued(&id).unwrap());
            })
        };
        let answer = board.wait_terminal(&id, Duration::from_secs(10));
        assert_eq!(answer, Err(EngineError::TaskFailed("canceled".into())));
        assert_eq!(board.get(&id).unwrap().state, TaskState::Canceled);
        canceler.join().unwrap();
    }

    #[test]
    fn state_serde() {
        let s = TaskState::Failed { error: "e".into() };
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("failed"));
        let back: TaskState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
