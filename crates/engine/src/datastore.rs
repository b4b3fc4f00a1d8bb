//! Result and log storage — the Datastore component of Fig. 1.
//!
//! Workers write results and per-task logs here; the Status/API side reads
//! them. Two implementations:
//!
//! * [`MemoryStore`] — process-local, used by tests and the CLI;
//! * [`FileStore`] — one JSON file per result and one `.log` per task
//!   under a root directory, matching the container-volume layout a
//!   deployed instance would use.
//!
//! Datasets are not stored here: a graph lives in the executor's registry
//! and, when a data dir is attached, durably in [`crate::persist`].

use crate::error::EngineError;
use crate::executor::TaskResult;
use crate::task::TaskId;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Storage interface for task results and logs.
pub trait Datastore: Send + Sync {
    /// Persists a result.
    fn put_result(&self, result: &TaskResult) -> Result<(), EngineError>;

    /// Fetches a result by task id.
    fn get_result(&self, id: &TaskId) -> Result<Option<TaskResult>, EngineError>;

    /// Appends a line to a task's log.
    fn append_log(&self, id: &TaskId, line: &str) -> Result<(), EngineError>;

    /// Reads a task's full log.
    fn get_log(&self, id: &TaskId) -> Result<String, EngineError>;

    /// Lists ids of all stored results.
    fn list_results(&self) -> Result<Vec<TaskId>, EngineError>;
}

/// In-memory datastore.
#[derive(Debug, Clone, Default)]
pub struct MemoryStore {
    results: Arc<RwLock<HashMap<TaskId, TaskResult>>>,
    logs: Arc<RwLock<HashMap<TaskId, String>>>,
}

impl MemoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Datastore for MemoryStore {
    fn put_result(&self, result: &TaskResult) -> Result<(), EngineError> {
        self.results.write().insert(result.task_id.clone(), result.clone());
        Ok(())
    }

    fn get_result(&self, id: &TaskId) -> Result<Option<TaskResult>, EngineError> {
        Ok(self.results.read().get(id).cloned())
    }

    fn append_log(&self, id: &TaskId, line: &str) -> Result<(), EngineError> {
        let mut logs = self.logs.write();
        let entry = logs.entry(id.clone()).or_default();
        entry.push_str(line);
        entry.push('\n');
        Ok(())
    }

    fn get_log(&self, id: &TaskId) -> Result<String, EngineError> {
        Ok(self.logs.read().get(id).cloned().unwrap_or_default())
    }

    fn list_results(&self) -> Result<Vec<TaskId>, EngineError> {
        Ok(self.results.read().keys().cloned().collect())
    }
}

/// File-backed datastore: `<root>/results/<id>.json`, `<root>/logs/<id>.log`.
#[derive(Debug, Clone)]
pub struct FileStore {
    root: PathBuf,
}

impl FileStore {
    /// Opens (creating directories as needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, EngineError> {
        let root = root.into();
        for sub in ["results", "logs"] {
            std::fs::create_dir_all(root.join(sub))
                .map_err(|e| EngineError::Storage(format!("create {sub}: {e}")))?;
        }
        Ok(FileStore { root })
    }

    fn result_path(&self, id: &TaskId) -> PathBuf {
        self.root.join("results").join(format!("{}.json", sanitize(id.as_str())))
    }

    fn log_path(&self, id: &TaskId) -> PathBuf {
        self.root.join("logs").join(format!("{}.log", sanitize(id.as_str())))
    }
}

/// Restricts ids to filesystem-safe characters.
fn sanitize(id: &str) -> String {
    id.chars().map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '_' }).collect()
}

impl Datastore for FileStore {
    fn put_result(&self, result: &TaskResult) -> Result<(), EngineError> {
        let json = serde_json::to_string_pretty(result)
            .map_err(|e| EngineError::Storage(format!("serialize: {e}")))?;
        std::fs::write(self.result_path(&result.task_id), json)
            .map_err(|e| EngineError::Storage(format!("write result: {e}")))
    }

    fn get_result(&self, id: &TaskId) -> Result<Option<TaskResult>, EngineError> {
        let path = self.result_path(id);
        if !path.exists() {
            return Ok(None);
        }
        let json = std::fs::read_to_string(&path)
            .map_err(|e| EngineError::Storage(format!("read result: {e}")))?;
        serde_json::from_str(&json)
            .map(Some)
            .map_err(|e| EngineError::Storage(format!("parse result: {e}")))
    }

    fn append_log(&self, id: &TaskId, line: &str) -> Result<(), EngineError> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.log_path(id))
            .map_err(|e| EngineError::Storage(format!("open log: {e}")))?;
        writeln!(f, "{line}").map_err(|e| EngineError::Storage(format!("write log: {e}")))
    }

    fn get_log(&self, id: &TaskId) -> Result<String, EngineError> {
        let path = self.log_path(id);
        if !path.exists() {
            return Ok(String::new());
        }
        std::fs::read_to_string(&path).map_err(|e| EngineError::Storage(format!("read log: {e}")))
    }

    fn list_results(&self) -> Result<Vec<TaskId>, EngineError> {
        Ok(list_json_ids(&self.root.join("results"))?.into_iter().map(TaskId).collect())
    }
}

/// Lists the `<id>.json` stems of a directory.
fn list_json_ids(dir: &std::path::Path) -> Result<Vec<String>, EngineError> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| EngineError::Storage(format!("list: {e}")))?;
    for e in entries {
        let e = e.map_err(|e| EngineError::Storage(e.to_string()))?;
        if let Some(name) = e.file_name().to_str() {
            if let Some(id) = name.strip_suffix(".json") {
                out.push(id.to_string());
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result(id: &TaskId) -> TaskResult {
        TaskResult {
            task_id: id.clone(),
            dataset: "ds".into(),
            algorithm: "cyclerank".into(),
            parameters: "k = 3, σ = exp".into(),
            source: Some("Fake news".into()),
            top: vec![("Fake news".into(), 1.0), ("CNN".into(), 0.5)],
            runtime_ms: 12,
            nodes: 100,
            edges: 500,
            iterations: None,
            residual: None,
            converged: None,
            residuals: None,
            cycles_found: Some(7),
        }
    }

    fn exercise(store: &dyn Datastore) {
        let id = TaskId::fresh();
        assert!(store.get_result(&id).unwrap().is_none());
        assert_eq!(store.get_log(&id).unwrap(), "");

        let result = sample_result(&id);
        store.put_result(&result).unwrap();
        let back = store.get_result(&id).unwrap().unwrap();
        assert_eq!(back.top, result.top);
        assert_eq!(back.cycles_found, Some(7));

        store.append_log(&id, "started").unwrap();
        store.append_log(&id, "finished").unwrap();
        let log = store.get_log(&id).unwrap();
        assert_eq!(log, "started\nfinished\n");

        let ids = store.list_results().unwrap();
        assert!(ids.contains(&id));
    }

    #[test]
    fn memory_store_roundtrip() {
        exercise(&MemoryStore::new());
    }

    #[test]
    fn file_store_roundtrip() {
        let dir = std::env::temp_dir().join(format!("relengine-test-{}", crate::id::new_uuid()));
        let store = FileStore::open(&dir).unwrap();
        exercise(&store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_store_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("relengine-test-{}", crate::id::new_uuid()));
        let id = TaskId::fresh();
        {
            let store = FileStore::open(&dir).unwrap();
            store.put_result(&sample_result(&id)).unwrap();
        }
        let store = FileStore::open(&dir).unwrap();
        assert!(store.get_result(&id).unwrap().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sanitize_rejects_path_tricks() {
        assert_eq!(sanitize("../../etc/passwd"), "______etc_passwd");
        assert_eq!(sanitize("abc-123"), "abc-123");
    }

    #[test]
    fn memory_store_shared_between_clones() {
        let a = MemoryStore::new();
        let b = a.clone();
        let id = TaskId::fresh();
        a.put_result(&sample_result(&id)).unwrap();
        assert!(b.get_result(&id).unwrap().is_some());
    }
}
