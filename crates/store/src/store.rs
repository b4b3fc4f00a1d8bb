//! The per-dataset durable store: snapshot + journal under one root.
//!
//! Layout on disk (`<root>` is the server's `--data-dir` graphs area):
//!
//! ```text
//! <root>/<sanitized-id>/snapshot.bin   latest compacted CSR snapshot
//! <root>/<sanitized-id>/journal.log    EdgeOp batches since that snapshot
//! ```
//!
//! The write protocol keeps recovery trivially correct:
//!
//! - **Append**: a mutation batch is framed, appended, and fsynced
//!   *before* the engine commits it in memory (write-ahead ordering).
//! - **Rotate**: a new snapshot is written to a temp file, fsynced, and
//!   atomically renamed over `snapshot.bin`; only then is the journal
//!   truncated. A crash between the two steps is harmless because replay
//!   skips journal records whose version is `<=` the snapshot version.
//! - **Recover**: decode `snapshot.bin`, truncate any torn journal tail,
//!   and hand back the records newer than the snapshot for replay.

use crate::journal::{scan_journal, JournalRecord, JournalWriter, TailState};
use crate::snapshot::{decode_snapshot, encode_snapshot, SnapshotError, SnapshotMeta};
use crate::vfs::{StdFs, Vfs};
use relgraph::DirectedGraph;
use serde::Serialize;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

const SNAPSHOT_FILE: &str = "snapshot.bin";
const JOURNAL_FILE: &str = "journal.log";
const IMAGE_FILE: &str = "image.bin";
const SNAPSHOT_TMP: &str = "snapshot.tmp";
const IMAGE_TMP: &str = "image.tmp";

/// Errors surfaced by [`DatasetStore`].
#[derive(Debug)]
pub enum StoreError {
    /// I/O failure.
    Io(std::io::Error),
    /// Snapshot bytes failed to decode.
    Snapshot(SnapshotError),
    /// A journal record failed its CRC (true data damage, not a torn tail).
    CorruptJournal {
        /// Dataset id (directory name when the real id is unknown).
        dataset: String,
        /// Zero-based index of the damaged record.
        at_record: u64,
        /// Byte offset where the damaged record starts.
        at_byte: u64,
    },
    /// Journal record versions are not strictly increasing.
    NonMonotonic {
        /// Dataset id.
        dataset: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io: {e}"),
            StoreError::Snapshot(e) => write!(f, "{e}"),
            StoreError::CorruptJournal { dataset, at_record, at_byte } => {
                write!(f, "journal for {dataset:?} corrupt at record {at_record} (byte {at_byte})")
            }
            StoreError::NonMonotonic { dataset } => {
                write!(f, "journal for {dataset:?} has non-monotonic versions")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<SnapshotError> for StoreError {
    fn from(e: SnapshotError) -> Self {
        StoreError::Snapshot(e)
    }
}

/// Journal/snapshot counters for one dataset (served by the stats route).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StoreStats {
    /// Dataset id.
    pub dataset: String,
    /// Version captured by the current snapshot.
    pub snapshot_version: u64,
    /// Snapshot size in bytes.
    pub snapshot_bytes: u64,
    /// Records in the journal (valid prefix).
    pub journal_records: u64,
    /// Journal size in bytes (valid prefix).
    pub journal_bytes: u64,
    /// Highest durable version: last journal record, else the snapshot.
    pub last_version: u64,
    /// Size of the fast-load dataset image, 0 when absent.
    pub image_bytes: u64,
}

/// A dataset's recovered durable state, ready for replay.
#[derive(Debug)]
pub struct RecoveredDataset {
    /// Dataset id (from the snapshot metadata).
    pub dataset: String,
    /// Materialized graph at `snapshot_version`.
    pub base: DirectedGraph,
    /// Graph `version()` the snapshot captured.
    pub snapshot_version: u64,
    /// Journal records newer than the snapshot, in commit order.
    pub tail: Vec<JournalRecord>,
    /// Torn-tail bytes dropped during recovery (0 on a clean shutdown).
    pub truncated_bytes: u64,
    /// Whether the base graph came from the fast-load image rather than a
    /// full snapshot decode.
    pub from_image: bool,
}

/// Integrity summary for one dataset directory (`relrank journal verify`).
#[derive(Debug)]
pub struct DatasetVerify {
    /// Dataset id (directory name if the snapshot is unreadable).
    pub dataset: String,
    /// Whether `snapshot.bin` exists and decodes with valid CRCs.
    pub snapshot_ok: bool,
    /// Version of the snapshot when readable.
    pub snapshot_version: Option<u64>,
    /// Records in the journal's valid prefix.
    pub journal_records: u64,
    /// Bytes in the journal's valid prefix.
    pub journal_bytes: u64,
    /// Journal tail condition.
    pub tail: TailState,
    /// Whether journal versions are strictly increasing.
    pub monotonic: bool,
}

impl DatasetVerify {
    /// True when the dataset's durable state is fully intact.
    pub fn is_ok(&self) -> bool {
        self.snapshot_ok && self.monotonic && self.tail == TailState::Clean
    }
}

/// Maps a dataset id onto a filesystem-safe directory name.
fn sanitize(id: &str) -> String {
    id.chars().map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '_' }).collect()
}

/// The durable store rooted at one directory.
///
/// Thread-safe: journal writers are cached behind a mutex so concurrent
/// engine commits serialize their fsyncs per store.
#[derive(Debug)]
pub struct DatasetStore {
    root: PathBuf,
    vfs: Arc<dyn Vfs>,
    writers: Mutex<HashMap<String, JournalWriter>>,
}

impl DatasetStore {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<DatasetStore> {
        DatasetStore::open_with_vfs(root, Arc::new(StdFs))
    }

    /// [`Self::open`] over an explicit write-side backend — production
    /// code uses [`StdFs`]; fault-injection tests and the scenario
    /// harness pass a [`crate::vfs::FaultInjector`].
    pub fn open_with_vfs(
        root: impl Into<PathBuf>,
        vfs: Arc<dyn Vfs>,
    ) -> std::io::Result<DatasetStore> {
        let root = root.into();
        vfs.create_dir_all(&root)?;
        Ok(DatasetStore { root, vfs, writers: Mutex::new(HashMap::new()) })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn dir(&self, id: &str) -> PathBuf {
        self.root.join(sanitize(id))
    }

    /// Takes the journal-writer cache. A panic while the lock was held may
    /// have left a writer mid-append, so a poisoned lock drops every
    /// cached writer and clears the poison: each journal reopens on its
    /// next append, and reopening re-scans and repairs a torn tail — the
    /// same recovery as a failed append's.
    fn writers(&self) -> MutexGuard<'_, HashMap<String, JournalWriter>> {
        self.writers.lock().unwrap_or_else(|poisoned| {
            let mut writers = poisoned.into_inner();
            writers.clear();
            self.writers.clear_poison();
            writers
        })
    }

    fn snapshot_path(&self, id: &str) -> PathBuf {
        self.dir(id).join(SNAPSHOT_FILE)
    }

    fn journal_path(&self, id: &str) -> PathBuf {
        self.dir(id).join(JOURNAL_FILE)
    }

    fn image_path(&self, id: &str) -> PathBuf {
        self.dir(id).join(IMAGE_FILE)
    }

    /// True when `id` already has a snapshot on disk.
    pub fn has_snapshot(&self, id: &str) -> bool {
        self.snapshot_path(id).is_file()
    }

    /// True when `id` has a fast-load dataset image on disk.
    pub fn has_image(&self, id: &str) -> bool {
        self.image_path(id).is_file()
    }

    /// Dataset ids with durable state, sorted. Ids come from snapshot
    /// metadata (directory names are sanitized and lossy).
    pub fn dataset_ids(&self) -> std::io::Result<Vec<String>> {
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let path = entry?.path();
            if !path.is_dir() {
                continue;
            }
            if let Ok(meta) = read_snapshot_meta(&path.join(SNAPSHOT_FILE)) {
                ids.push(meta.dataset);
            }
        }
        ids.sort();
        ids.dedup();
        Ok(ids)
    }

    /// Writes a compacted snapshot of `graph` at `version` and truncates
    /// the journal (all its records are now `<=` the snapshot version).
    ///
    /// When the graph's weights are f32-exact (always true for unweighted
    /// graphs), a fast-load image at the same version is rotated alongside
    /// the snapshot; otherwise any existing image is dropped so a stale or
    /// lossy one can never be preferred at load time.
    pub fn write_snapshot(
        &self,
        id: &str,
        graph: &DirectedGraph,
        version: u64,
    ) -> std::io::Result<()> {
        let mut writers = self.writers();
        // Encode first: a graph too large for the frame format fails
        // before anything on disk is touched.
        let bytes = encode_snapshot(id, graph, version).map_err(std::io::Error::other)?;
        let dir = self.dir(id);
        self.vfs.create_dir_all(&dir)?;
        let tmp = dir.join(SNAPSHOT_TMP);
        {
            let mut f = self.vfs.create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        self.vfs.rename(&tmp, &self.snapshot_path(id))?;
        if crate::image::weights_f32_exact(graph) {
            self.write_image(id, &relgraph::CompactGraph::from_csr(graph), version)?;
        } else {
            self.drop_image(id)?;
        }
        // Rotation: the journal's history is folded into the snapshot.
        writers.remove(id);
        match self.vfs.open_write(&self.journal_path(id)) {
            Ok(mut f) => {
                f.set_len(0)?;
                f.sync_data()?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(())
    }

    /// Writes the fast-load dataset image for `id` at graph-version
    /// `version` (temp file + fsync + atomic rename, like snapshots).
    /// The image is an *accelerator*, not the durability root: recovery
    /// only trusts it when its version matches the durable head.
    pub fn write_image(
        &self,
        id: &str,
        graph: &relgraph::CompactGraph,
        version: u64,
    ) -> std::io::Result<()> {
        let dir = self.dir(id);
        self.vfs.create_dir_all(&dir)?;
        let bytes = crate::image::encode_image(id, graph, version);
        let tmp = dir.join(IMAGE_TMP);
        {
            let mut f = self.vfs.create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        self.vfs.rename(&tmp, &self.image_path(id))
    }

    /// Loads `id`'s dataset image, or `None` when absent. Decode failures
    /// (damage, unknown version) are errors — callers typically fall back
    /// to the snapshot+journal path and may [`Self::drop_image`].
    pub fn load_image(
        &self,
        id: &str,
    ) -> Result<Option<(crate::image::ImageMeta, relgraph::CompactGraph)>, StoreError> {
        let bytes = match std::fs::read(self.image_path(id)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let (meta, graph) = crate::image::decode_image(&bytes)?;
        Ok(Some((meta, graph)))
    }

    /// Removes `id`'s dataset image (stale or damaged); missing is fine.
    pub fn drop_image(&self, id: &str) -> std::io::Result<()> {
        match self.vfs.remove_file(&self.image_path(id)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// Appends one committed batch to `id`'s journal (fsynced before
    /// returning). Returns the journal's record count after the append,
    /// which the engine compares against its rotation threshold to
    /// decide when to rotate.
    pub fn append_batch(&self, id: &str, record: &JournalRecord) -> std::io::Result<u64> {
        let mut writers = self.writers();
        let w = match writers.entry(id.to_string()) {
            Entry::Occupied(cached) => cached.into_mut(),
            Entry::Vacant(slot) => {
                self.vfs.create_dir_all(&self.dir(id))?;
                slot.insert(JournalWriter::open_with_vfs(
                    &self.journal_path(id),
                    self.vfs.as_ref(),
                )?)
            }
        };
        match w.append(record) {
            Ok(()) => Ok(w.records()),
            Err(e) => {
                // Drop the cached writer: the next append reopens the
                // journal, which re-scans and repairs any torn tail the
                // failed append (or its failed rollback) left behind.
                writers.remove(id);
                Err(e)
            }
        }
    }

    /// Recovers `id`'s durable state: snapshot plus the journal tail.
    ///
    /// Returns `Ok(None)` when the dataset has no snapshot. A torn
    /// trailing record is truncated off the journal on disk; CRC
    /// corruption anywhere in the valid region is an error.
    ///
    /// When a fast-load image exists **and** its dataset/version match the
    /// snapshot's metadata frame, the base graph is materialized from the
    /// image (one read + section slicing) instead of re-parsing and
    /// re-sorting the snapshot's edge list; `from_image` reports which
    /// path ran. A stale or damaged image is deleted and recovery falls
    /// back to the snapshot — the image is an accelerator, never the
    /// durability root.
    pub fn load(&self, id: &str) -> Result<Option<RecoveredDataset>, StoreError> {
        // Crash hygiene first: a crash between temp-write and rename can
        // strand `snapshot.tmp`/`image.tmp`; they are unpublished (the
        // rename never happened) so recovery deletes them unconditionally.
        self.remove_orphan_temps(id)?;
        let (meta, base, from_image) = match self.load_base(id) {
            Ok(Some(loaded)) => loaded,
            Ok(None) => return Ok(None),
            Err(e) => return Err(e),
        };
        let journal = self.journal_path(id);
        let scan = scan_journal(&journal)?;
        let truncated_bytes = match scan.tail {
            TailState::Clean => 0,
            TailState::Torn { truncated_bytes } => {
                let mut f = self.vfs.open_write(&journal)?;
                f.set_len(scan.valid_bytes)?;
                f.sync_data()?;
                truncated_bytes
            }
            TailState::Corrupt { at_byte, at_record } => {
                return Err(StoreError::CorruptJournal {
                    dataset: meta.dataset,
                    at_record,
                    at_byte,
                })
            }
        };
        if !scan.monotonic() {
            return Err(StoreError::NonMonotonic { dataset: meta.dataset });
        }
        let tail: Vec<JournalRecord> =
            scan.records.into_iter().filter(|r| r.version > meta.version).collect();
        Ok(Some(RecoveredDataset {
            dataset: meta.dataset,
            base,
            snapshot_version: meta.version,
            tail,
            truncated_bytes,
            from_image,
        }))
    }

    /// Deletes any `*.tmp` files a crash stranded in `id`'s directory.
    fn remove_orphan_temps(&self, id: &str) -> std::io::Result<()> {
        let dir = self.dir(id);
        for name in [SNAPSHOT_TMP, IMAGE_TMP] {
            match self.vfs.remove_file(&dir.join(name)) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Materializes the base graph for [`Self::load`]: the image fast path
    /// when it matches the snapshot metadata, else a full snapshot decode.
    fn load_base(
        &self,
        id: &str,
    ) -> Result<Option<(SnapshotMeta, DirectedGraph, bool)>, StoreError> {
        let snap_path = self.snapshot_path(id);
        let meta = match read_snapshot_meta(&snap_path) {
            Ok(m) => m,
            Err(SnapshotError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(None)
            }
            Err(e) => return Err(e.into()),
        };
        if self.has_image(id) {
            match self.load_image(id) {
                Ok(Some((imeta, compact)))
                    if imeta.version == meta.version && imeta.dataset == meta.dataset =>
                {
                    return Ok(Some((meta, compact.to_csr(), true)));
                }
                // Version/dataset mismatch or decode failure: the image is
                // stale or damaged. Remove it and recover from the
                // snapshot; the next rotation will re-emit a fresh one.
                _ => self.drop_image(id)?,
            }
        }
        let bytes = std::fs::read(&snap_path)?;
        let (meta, base) = decode_snapshot(&bytes)?;
        Ok(Some((meta, base, false)))
    }

    /// Durability counters for `id`, or `None` without a snapshot.
    pub fn stats(&self, id: &str) -> Result<Option<StoreStats>, StoreError> {
        let snap_path = self.snapshot_path(id);
        let meta = match read_snapshot_meta(&snap_path) {
            Ok(m) => m,
            Err(SnapshotError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(None)
            }
            Err(e) => return Err(e.into()),
        };
        let snapshot_bytes = std::fs::metadata(&snap_path)?.len();
        let scan = scan_journal(&self.journal_path(id))?;
        let image_bytes = std::fs::metadata(self.image_path(id)).map(|m| m.len()).unwrap_or(0);
        Ok(Some(StoreStats {
            dataset: meta.dataset,
            snapshot_version: meta.version,
            snapshot_bytes,
            journal_records: scan.records.len() as u64,
            journal_bytes: scan.valid_bytes,
            last_version: scan.last_version().unwrap_or(meta.version).max(meta.version),
            image_bytes,
        }))
    }

    /// Integrity check over every dataset directory under the root.
    pub fn verify(&self) -> std::io::Result<Vec<DatasetVerify>> {
        let mut out = Vec::new();
        let mut dirs: Vec<PathBuf> = std::fs::read_dir(&self.root)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            let fallback =
                dir.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
            let (snapshot_ok, snapshot_version, dataset) =
                match std::fs::read(dir.join(SNAPSHOT_FILE)) {
                    Ok(bytes) => match decode_snapshot(&bytes) {
                        Ok((meta, _)) => (true, Some(meta.version), meta.dataset),
                        Err(_) => (false, None, fallback),
                    },
                    Err(_) => (false, None, fallback),
                };
            let scan = scan_journal(&dir.join(JOURNAL_FILE))?;
            out.push(DatasetVerify {
                dataset,
                snapshot_ok,
                snapshot_version,
                journal_records: scan.records.len() as u64,
                journal_bytes: scan.valid_bytes,
                tail: scan.tail,
                monotonic: scan.monotonic(),
            });
        }
        Ok(out)
    }
}

/// Reads just the metadata frame of a snapshot file (after checking the
/// lead format-version byte).
fn read_snapshot_meta(path: &Path) -> Result<SnapshotMeta, SnapshotError> {
    let file = File::open(path).map_err(SnapshotError::Io)?;
    let mut reader = BufReader::new(file.take(1 << 20));
    let mut lead = [0u8; 1];
    reader.read_exact(&mut lead)?;
    crate::snapshot::check_version_byte(&lead)?;
    match crate::frame::read_frame(&mut reader, 0)? {
        crate::frame::FrameRead::Frame(payload) => serde_json::from_slice(&payload)
            .map_err(|e| SnapshotError::Invalid(format!("meta decode: {e}"))),
        other => Err(SnapshotError::Invalid(format!("meta frame unreadable: {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{WireOp, OP_ADD};
    use crate::vfs::{FaultInjector, FaultKind, FaultPlan};
    use relgraph::GraphBuilder;
    use std::fs::OpenOptions;

    fn temp_root(tag: &str) -> PathBuf {
        use std::time::{SystemTime, UNIX_EPOCH};
        let nanos = SystemTime::now().duration_since(UNIX_EPOCH).unwrap().subsec_nanos();
        std::env::temp_dir().join(format!("relstore-{tag}-{}-{nanos}", std::process::id()))
    }

    fn graph() -> DirectedGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_labeled_node("a");
        let c = b.add_labeled_node("b");
        b.add_weighted_edge(a, c, 1.0);
        b.build()
    }

    fn rec(version: u64) -> JournalRecord {
        JournalRecord {
            version,
            ops: vec![WireOp {
                kind: OP_ADD.into(),
                source: "a".into(),
                target: "b".into(),
                weight: Some(2.0),
            }],
        }
    }

    #[test]
    fn snapshot_then_journal_then_load() {
        let root = temp_root("load");
        let store = DatasetStore::open(&root).unwrap();
        assert!(store.load("ds").unwrap().is_none());
        store.write_snapshot("ds", &graph(), 0).unwrap();
        store.append_batch("ds", &rec(1)).unwrap();
        store.append_batch("ds", &rec(2)).unwrap();
        let loaded = store.load("ds").unwrap().unwrap();
        assert_eq!(loaded.dataset, "ds");
        assert_eq!(loaded.snapshot_version, 0);
        assert_eq!(loaded.tail.len(), 2);
        assert_eq!(loaded.truncated_bytes, 0);
        assert_eq!(store.dataset_ids().unwrap(), vec!["ds".to_string()]);
        let stats = store.stats("ds").unwrap().unwrap();
        assert_eq!(stats.journal_records, 2);
        assert_eq!(stats.last_version, 2);
        assert_eq!(stats.snapshot_version, 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rotation_truncates_journal_and_skips_stale_records() {
        let root = temp_root("rotate");
        let store = DatasetStore::open(&root).unwrap();
        store.write_snapshot("ds", &graph(), 0).unwrap();
        store.append_batch("ds", &rec(1)).unwrap();
        store.write_snapshot("ds", &graph(), 1).unwrap();
        let stats = store.stats("ds").unwrap().unwrap();
        assert_eq!(stats.journal_records, 0);
        assert_eq!(stats.last_version, 1);
        // Writer reopens after rotation and appending resumes.
        store.append_batch("ds", &rec(2)).unwrap();
        let loaded = store.load("ds").unwrap().unwrap();
        assert_eq!(loaded.snapshot_version, 1);
        assert_eq!(loaded.tail.len(), 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn load_truncates_torn_tail() {
        let root = temp_root("torn");
        let store = DatasetStore::open(&root).unwrap();
        store.write_snapshot("ds", &graph(), 0).unwrap();
        store.append_batch("ds", &rec(1)).unwrap();
        let keep = std::fs::metadata(store.journal_path("ds")).unwrap().len();
        store.append_batch("ds", &rec(2)).unwrap();
        let f = OpenOptions::new().write(true).open(store.journal_path("ds")).unwrap();
        f.set_len(keep + 5).unwrap();
        drop(f);
        let loaded = store.load("ds").unwrap().unwrap();
        assert_eq!(loaded.tail.len(), 1);
        assert_eq!(loaded.truncated_bytes, 5);
        assert_eq!(std::fs::metadata(store.journal_path("ds")).unwrap().len(), keep);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn verify_flags_corruption() {
        let root = temp_root("verify");
        let store = DatasetStore::open(&root).unwrap();
        store.write_snapshot("ds", &graph(), 0).unwrap();
        store.append_batch("ds", &rec(1)).unwrap();
        let ok = store.verify().unwrap();
        assert_eq!(ok.len(), 1);
        assert!(ok[0].is_ok(), "{:?}", ok[0]);
        // Flip a byte in the journal record's payload.
        let jp = store.journal_path("ds");
        let mut bytes = std::fs::read(&jp).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0x04;
        std::fs::write(&jp, &bytes).unwrap();
        let bad = store.verify().unwrap();
        assert!(!bad[0].is_ok());
        assert!(matches!(bad[0].tail, TailState::Corrupt { at_record: 0, .. }));
        assert!(store.load("ds").is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn image_write_load_drop_cycle() {
        let root = temp_root("image");
        let store = DatasetStore::open(&root).unwrap();
        assert!(store.load_image("ds").unwrap().is_none());
        let g = graph();
        store.write_snapshot("ds", &g, 7).unwrap();
        let compact = relgraph::CompactGraph::from_csr(&g);
        store.write_image("ds", &compact, 7).unwrap();
        assert!(store.has_image("ds"));
        let (meta, back) = store.load_image("ds").unwrap().unwrap();
        assert_eq!(meta.dataset, "ds");
        assert_eq!(meta.version, 7);
        assert_eq!(back, compact);
        let stats = store.stats("ds").unwrap().unwrap();
        assert!(stats.image_bytes > 0);
        // Damaged images surface as errors; dropping clears them.
        let mut bytes = std::fs::read(store.image_path("ds")).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0x01;
        std::fs::write(store.image_path("ds"), &bytes).unwrap();
        assert!(store.load_image("ds").is_err());
        store.drop_image("ds").unwrap();
        assert!(!store.has_image("ds"));
        assert!(store.load_image("ds").unwrap().is_none());
        store.drop_image("ds").unwrap(); // idempotent
        assert_eq!(store.stats("ds").unwrap().unwrap().image_bytes, 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn snapshot_rotation_emits_image_and_load_prefers_it() {
        let root = temp_root("fastpath");
        let store = DatasetStore::open(&root).unwrap();
        let g = graph();
        store.write_snapshot("ds", &g, 3).unwrap();
        // f32-exact weights → the rotation emitted a matching image.
        assert!(store.has_image("ds"));
        let loaded = store.load("ds").unwrap().unwrap();
        assert!(loaded.from_image);
        assert_eq!(loaded.snapshot_version, 3);
        // The image-materialized base is bit-identical to snapshot decode.
        let bytes = std::fs::read(store.snapshot_path("ds")).unwrap();
        let (_, direct) = decode_snapshot(&bytes).unwrap();
        assert_eq!(
            crate::digest::graph_digest(&loaded.base, 3),
            crate::digest::graph_digest(&direct, 3)
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn lossy_weights_skip_the_image() {
        let root = temp_root("lossy");
        let store = DatasetStore::open(&root).unwrap();
        let mut b = GraphBuilder::new();
        let a = b.add_labeled_node("a");
        let c = b.add_labeled_node("b");
        b.add_weighted_edge(a, c, 0.1); // not representable in f32
        let g = b.build();
        assert!(!crate::image::weights_f32_exact(&g));
        store.write_snapshot("ds", &g, 1).unwrap();
        assert!(!store.has_image("ds"));
        let loaded = store.load("ds").unwrap().unwrap();
        assert!(!loaded.from_image);
        // A later exact snapshot re-enables the image; a lossy one after
        // that drops it again.
        store.write_snapshot("ds", &graph(), 2).unwrap();
        assert!(store.has_image("ds"));
        store.write_snapshot("ds", &g, 3).unwrap();
        assert!(!store.has_image("ds"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stale_or_damaged_image_falls_back_to_snapshot() {
        let root = temp_root("staleimg");
        let store = DatasetStore::open(&root).unwrap();
        let g = graph();
        store.write_snapshot("ds", &g, 5).unwrap();
        // Stale: rewrite the image at the wrong version.
        let compact = relgraph::CompactGraph::from_csr(&g);
        store.write_image("ds", &compact, 4).unwrap();
        let loaded = store.load("ds").unwrap().unwrap();
        assert!(!loaded.from_image);
        assert!(!store.has_image("ds"), "stale image should be deleted");
        // Damaged: corrupt the image body; load falls back and cleans up.
        store.write_image("ds", &compact, 5).unwrap();
        let mut bytes = std::fs::read(store.image_path("ds")).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0x01;
        std::fs::write(store.image_path("ds"), &bytes).unwrap();
        let loaded = store.load("ds").unwrap().unwrap();
        assert!(!loaded.from_image);
        assert!(!store.has_image("ds"), "damaged image should be deleted");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn crash_at_rename_boundary_strands_tmp_and_recovery_cleans_it() {
        let root = temp_root("renameboundary");
        let store = DatasetStore::open(&root).unwrap();
        store.write_snapshot("ds", &graph(), 0).unwrap();
        store.append_batch("ds", &rec(1)).unwrap();
        drop(store);
        // Reopen over an injector and crash at exactly the temp-write →
        // rename boundary of the next rotation. Rotation ops from here:
        // 0 = create_dir_all, 1 = create tmp, 2 = write, 3 = sync_all,
        // 4 = the publishing rename.
        let inj = FaultInjector::default();
        let store = DatasetStore::open_with_vfs(&root, Arc::new(inj.clone())).unwrap();
        inj.arm(FaultPlan::one(4, FaultKind::Crash));
        assert!(store.write_snapshot("ds", &graph(), 1).is_err());
        drop(store);
        let dir = root.join("ds");
        assert!(dir.join(SNAPSHOT_TMP).exists(), "crash should strand the temp file");
        // The restarted process opens a fresh store over the real fs.
        let store = DatasetStore::open(&root).unwrap();
        let loaded = store.load("ds").unwrap().unwrap();
        assert_eq!(loaded.snapshot_version, 0, "old snapshot stays authoritative");
        assert_eq!(loaded.tail.len(), 1, "acknowledged batch survives");
        assert!(!dir.join(SNAPSHOT_TMP).exists(), "recovery removes the orphan");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn enospc_append_fails_clean_and_the_next_append_recovers() {
        let root = temp_root("enospc");
        let inj = FaultInjector::default();
        let store = DatasetStore::open_with_vfs(&root, Arc::new(inj.clone())).unwrap();
        store.write_snapshot("ds", &graph(), 0).unwrap();
        store.append_batch("ds", &rec(1)).unwrap();
        let keep = std::fs::metadata(store.journal_path("ds")).unwrap().len();
        inj.arm(FaultPlan::one(0, FaultKind::Enospc));
        let err = store.append_batch("ds", &rec(2)).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28), "{err}");
        assert_eq!(std::fs::metadata(store.journal_path("ds")).unwrap().len(), keep);
        // The evicted writer reopens and appending resumes cleanly.
        store.append_batch("ds", &rec(2)).unwrap();
        let loaded = store.load("ds").unwrap().unwrap();
        assert_eq!(loaded.tail.len(), 2);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn poisoned_writer_lock_reopens_the_journal_and_recovers() {
        let run = |tag: &str, poison: bool| {
            let root = temp_root(tag);
            let store = DatasetStore::open(&root).unwrap();
            store.write_snapshot("ds", &graph(), 0).unwrap();
            store.append_batch("ds", &rec(1)).unwrap();
            if poison {
                // A panic mid-append: half a frame reaches the journal
                // behind the cached writer's back, then the lock holder
                // dies.
                let journal = store.journal_path("ds");
                let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _writers = store.writers.lock().unwrap();
                    OpenOptions::new()
                        .append(true)
                        .open(&journal)
                        .unwrap()
                        .write_all(b"torn")
                        .unwrap();
                    panic!("append interrupted");
                }));
                assert!(panicked.is_err());
                assert!(store.writers.is_poisoned());
            }
            store.append_batch("ds", &rec(2)).unwrap();
            assert!(!store.writers.is_poisoned());
            let loaded = store.load("ds").unwrap().unwrap();
            assert_eq!(loaded.tail.len(), 2);
            assert_eq!(loaded.truncated_bytes, 0, "the reopen already repaired the tail");
            std::fs::remove_dir_all(&root).unwrap();
            // What `load` recovered, folded into one digest.
            let mut h = crate::digest::Fnv64::new();
            h.write_u64(crate::digest::graph_digest(&loaded.base, loaded.snapshot_version));
            for record in &loaded.tail {
                h.write(&serde_json::to_vec(record).unwrap());
            }
            h.finish()
        };
        assert_eq!(run("poison", true), run("clean", false));
    }

    #[test]
    fn sanitizes_hostile_dataset_ids() {
        let root = temp_root("sanitize");
        let store = DatasetStore::open(&root).unwrap();
        let id = "../weird name/☂";
        store.write_snapshot(id, &graph(), 0).unwrap();
        assert!(store.dir(id).starts_with(&root));
        assert_eq!(store.dataset_ids().unwrap(), vec![id.to_string()]);
        assert_eq!(store.load(id).unwrap().unwrap().dataset, id);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
