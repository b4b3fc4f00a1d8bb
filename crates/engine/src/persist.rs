//! Durable-store wiring: journaling mutations, snapshotting datasets,
//! and deterministic recovery.
//!
//! [`GraphPersistence`] adapts the engine's mutation vocabulary
//! ([`EdgeOp`]) onto [`relstore`]'s wire format and implements the
//! recovery protocol on top of [`relstore::DatasetStore`]:
//!
//! - **Journal before apply**: [`crate::executor::Executor::mutate_dataset`]
//!   calls [`GraphPersistence::append`] after a batch stages successfully
//!   and *before* it commits in memory, so every acknowledged version is
//!   on disk (fsynced) first.
//! - **Snapshot on upload / first touch**: a dataset's journal only makes
//!   sense relative to a base state; [`GraphPersistence::ensure_snapshot`]
//!   writes one for the pre-mutation graph if none exists yet.
//! - **Replay = re-execution**: recovery resolves and applies journaled
//!   batches through the *same* endpoint-resolution and mutation code the
//!   live path uses, so the rebuilt [`DynamicGraph`] — node allocation
//!   order, CSR arrays, version counter — matches the pre-crash state
//!   bit-for-bit. Each replayed record's version is asserted against the
//!   journal; divergence aborts recovery instead of serving a wrong graph.

use crate::error::EngineError;
use crate::mutation::{EdgeOp, EdgeSpec};
use relgraph::{DirectedGraph, DynamicGraph};
use relstore::{DatasetStore, JournalRecord, StoreStats, WireOp, OP_ADD, OP_REMOVE};
use std::path::Path;

/// A dataset rebuilt from its snapshot and journal tail.
#[derive(Debug)]
pub struct RecoveredGraph {
    /// Dataset id (authoritative, from the snapshot metadata).
    pub dataset: String,
    /// The rebuilt dynamic graph, version counter included.
    pub graph: DynamicGraph,
    /// Version of the snapshot the replay started from.
    pub snapshot_version: u64,
    /// Journal records replayed on top of the snapshot.
    pub replayed: usize,
    /// Torn-tail bytes truncated off the journal during recovery.
    pub truncated_bytes: u64,
    /// Whether the snapshot base loaded from the fast-load image instead
    /// of a full edge-list decode (see [`relstore::DatasetStore::load`]).
    pub from_image: bool,
}

/// The engine's handle on the durable graph store.
#[derive(Debug)]
pub struct GraphPersistence {
    store: DatasetStore,
}

impl GraphPersistence {
    /// Opens (creating if needed) the durable store rooted at `root`.
    pub fn open(root: impl AsRef<Path>) -> Result<GraphPersistence, EngineError> {
        let store = DatasetStore::open(root.as_ref()).map_err(storage)?;
        Ok(GraphPersistence { store })
    }

    /// Wraps an already-open store — how fault-injection tests and the
    /// scenario harness hand the engine a store built over a
    /// [`relstore::FaultInjector`] backend.
    pub fn with_store(store: DatasetStore) -> GraphPersistence {
        GraphPersistence { store }
    }

    /// The underlying store (stats, verification, raw access).
    pub fn store(&self) -> &DatasetStore {
        &self.store
    }

    /// Dataset ids with durable state, sorted.
    pub fn dataset_ids(&self) -> Result<Vec<String>, EngineError> {
        self.store.dataset_ids().map_err(storage)
    }

    /// True when `id` already has a snapshot on disk.
    pub fn has_snapshot(&self, id: &str) -> bool {
        self.store.has_snapshot(id)
    }

    /// Writes a compacted snapshot of `graph` at `version`, truncating the
    /// journal (rotation).
    pub fn write_snapshot(
        &self,
        id: &str,
        graph: &DirectedGraph,
        version: u64,
    ) -> Result<(), EngineError> {
        self.store.write_snapshot(id, graph, version).map_err(storage)
    }

    /// Guarantees `id` has a base snapshot before its first journal
    /// record lands: registry datasets are generated in memory and only
    /// touch disk once something actually mutates them.
    pub fn ensure_snapshot(&self, id: &str, graph: &mut DynamicGraph) -> Result<(), EngineError> {
        if self.store.has_snapshot(id) {
            return Ok(());
        }
        let version = graph.version();
        let snap = graph.snapshot();
        self.write_snapshot(id, &snap, version)
    }

    /// Appends a committed batch (journal + fsync). `version` is the graph
    /// version the batch produced. Returns the journal's record count,
    /// which the caller compares against its rotation threshold to
    /// schedule rotation.
    pub fn append(&self, id: &str, version: u64, ops: &[EdgeOp]) -> Result<u64, EngineError> {
        let record = JournalRecord { version, ops: ops.iter().map(to_wire).collect() };
        self.store.append_batch(id, &record).map_err(storage)
    }

    /// Journal/snapshot counters for `id` (`None` without durable state).
    pub fn stats(&self, id: &str) -> Result<Option<StoreStats>, EngineError> {
        self.store.stats(id).map_err(storage)
    }

    /// Recovers `id`: loads its snapshot, truncates any torn journal
    /// tail, and replays the remaining records through the engine's own
    /// mutation path. Returns `Ok(None)` when `id` has no durable state.
    pub fn recover(&self, id: &str) -> Result<Option<RecoveredGraph>, EngineError> {
        let Some(loaded) = self.store.load(id).map_err(storage)? else {
            return Ok(None);
        };
        let mut graph = DynamicGraph::new(loaded.base);
        graph.restore_version(loaded.snapshot_version);
        let mut replayed = 0;
        for record in &loaded.tail {
            if record.version <= graph.version() {
                continue; // already folded into the snapshot
            }
            let ops: Vec<EdgeOp> =
                record.ops.iter().map(from_wire).collect::<Result<_, EngineError>>()?;
            crate::executor::apply_ops(&mut graph, &loaded.dataset, &ops)?;
            if graph.version() != record.version {
                return Err(EngineError::Storage(format!(
                    "replay of dataset {:?} diverged: journal record says version {}, \
                     replay produced {}",
                    loaded.dataset,
                    record.version,
                    graph.version()
                )));
            }
            replayed += 1;
        }
        Ok(Some(RecoveredGraph {
            dataset: loaded.dataset,
            graph,
            snapshot_version: loaded.snapshot_version,
            replayed,
            truncated_bytes: loaded.truncated_bytes,
            from_image: loaded.from_image,
        }))
    }
}

fn storage(e: impl std::fmt::Display) -> EngineError {
    EngineError::Storage(e.to_string())
}

fn to_wire(op: &EdgeOp) -> WireOp {
    let (kind, spec) = match op {
        EdgeOp::Add(s) => (OP_ADD, s),
        EdgeOp::Remove(s) => (OP_REMOVE, s),
    };
    WireOp {
        kind: kind.to_string(),
        source: spec.source.clone(),
        target: spec.target.clone(),
        weight: spec.weight,
    }
}

fn from_wire(op: &WireOp) -> Result<EdgeOp, EngineError> {
    let spec = EdgeSpec { source: op.source.clone(), target: op.target.clone(), weight: op.weight };
    match op.kind.as_str() {
        OP_ADD => Ok(EdgeOp::Add(spec)),
        OP_REMOVE => Ok(EdgeOp::Remove(spec)),
        other => Err(EngineError::Storage(format!("unknown journal op kind {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "relengine-persist-{tag}-{}-{}",
            std::process::id(),
            rand::random::<u64>()
        ))
    }

    fn add(source: &str, target: &str, weight: Option<f64>) -> EdgeOp {
        EdgeOp::Add(EdgeSpec { source: source.into(), target: target.into(), weight })
    }

    #[test]
    fn wire_round_trip_preserves_ops() {
        let ops = vec![
            add("a", "b", Some(2.0)),
            EdgeOp::Remove(EdgeSpec { source: "b".into(), target: "a".into(), weight: None }),
        ];
        for op in &ops {
            assert_eq!(&from_wire(&to_wire(op)).unwrap(), op);
        }
        let bogus =
            WireOp { kind: "zap".into(), source: "a".into(), target: "b".into(), weight: None };
        assert!(matches!(from_wire(&bogus), Err(EngineError::Storage(_))));
    }

    #[test]
    fn snapshot_journal_recover_round_trip() {
        let root = temp_root("roundtrip");
        let p = GraphPersistence::open(&root).unwrap();
        let mut b = relgraph::GraphBuilder::new();
        b.add_labeled_edge("x", "y");
        let mut g = DynamicGraph::new(b.build());

        p.ensure_snapshot("ds", &mut g).unwrap();
        // Apply a batch live, then journal it with the resulting version.
        let ops = vec![add("y", "x", None), add("x", "fresh", Some(3.0))];
        crate::executor::apply_ops(&mut g, "ds", &ops).unwrap();
        p.append("ds", g.version(), &ops).unwrap();

        let rec = p.recover("ds").unwrap().expect("dataset has durable state");
        assert_eq!(rec.dataset, "ds");
        assert_eq!(rec.snapshot_version, 0);
        assert_eq!(rec.replayed, 1);
        let mut replayed = rec.graph;
        assert_eq!(replayed.version(), g.version());
        assert_eq!(replayed.node_count(), g.node_count());
        assert_eq!(replayed.edge_count(), g.edge_count());
        let a = g.snapshot();
        let b = replayed.snapshot();
        assert_eq!(a.weighted_edges().collect::<Vec<_>>(), b.weighted_edges().collect::<Vec<_>>());
        assert_eq!(
            relstore::graph_digest(&a, g.version()),
            relstore::graph_digest(&b, g.version())
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn recover_missing_dataset_is_none() {
        let root = temp_root("missing");
        let p = GraphPersistence::open(&root).unwrap();
        assert!(p.recover("ghost").unwrap().is_none());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
