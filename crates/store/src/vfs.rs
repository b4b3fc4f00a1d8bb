//! Pluggable write-side I/O backend for the store.
//!
//! Every durability-relevant operation — file creation, appends, fsyncs,
//! truncation, rename, unlink — funnels through the [`Vfs`] trait. The
//! default [`StdFs`] backend forwards straight to `std::fs`, so production
//! behavior is unchanged. Tests and the scenario harness swap in a
//! [`FaultInjector`], which counts write-side operations globally and
//! fires a seeded [`FaultPlan`] at exact operation indices: failed writes,
//! torn (short) writes, fsync errors, `ENOSPC`, and a crash point that
//! freezes the directory image mid-frame (every later operation fails).
//!
//! Reads deliberately stay on `std::fs`: recovery always runs through a
//! fresh store with a clean backend, which mirrors reality — a process
//! that crashed is restarted against whatever the disk retained.

use std::fmt::Debug;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A writable file handle vended by a [`Vfs`].
pub trait VfsFile: Write + Send + Debug {
    /// Flushes file data (not necessarily metadata) to stable storage.
    fn sync_data(&mut self) -> io::Result<()>;
    /// Flushes file data and metadata to stable storage.
    fn sync_all(&mut self) -> io::Result<()>;
    /// Truncates (or extends) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
}

/// The write-side filesystem surface the store is built on.
pub trait Vfs: Send + Sync + Debug {
    /// Creates (truncating if present) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens (creating if absent) a file in append mode.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens an *existing* file for writing without truncation.
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Atomically renames `from` onto `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Creates a directory and any missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
}

/// The default backend: plain `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdFs;

impl VfsFile for File {
    fn sync_data(&mut self) -> io::Result<()> {
        File::sync_data(self)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        File::sync_all(self)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        File::set_len(self, len)
    }
}

impl Vfs for StdFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(File::create(path)?))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(OpenOptions::new().create(true).append(true).open(path)?))
    }

    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(OpenOptions::new().write(true).open(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
}

/// What an injected fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The write fails outright; nothing reaches the file.
    FailWrite,
    /// Half the buffer reaches the file, then the write errors (a torn
    /// frame on disk).
    TornWrite,
    /// `sync_data`/`sync_all` fails after the data was written.
    FailSync,
    /// The operation fails with `ENOSPC`.
    Enospc,
    /// The process "crashes": this and every later write-side operation
    /// fails, freezing the directory image exactly as it stands.
    Crash,
}

impl FaultKind {
    fn error(self) -> io::Error {
        match self {
            FaultKind::FailWrite => io::Error::other("injected fault: write failure"),
            FaultKind::TornWrite => io::Error::other("injected fault: torn write"),
            FaultKind::FailSync => io::Error::other("injected fault: fsync failure"),
            // Raw ENOSPC so callers observing the OS error see the real thing.
            FaultKind::Enospc => io::Error::from_raw_os_error(28),
            FaultKind::Crash => io::Error::other("injected fault: crashed"),
        }
    }
}

/// One scheduled fault: fire `kind` at global write-op index `at_op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Zero-based index into the injector's global write-op counter.
    pub at_op: u64,
    /// What happens when the counter reaches `at_op`.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Scheduled faults; order is irrelevant, indices need not be unique
    /// (only the first match at an index fires).
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (no faults ever fire).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A single fault at `at_op`.
    pub fn one(at_op: u64, kind: FaultKind) -> FaultPlan {
        FaultPlan { faults: vec![Fault { at_op, kind }] }
    }

    /// Deterministically derives a plan from `seed`: 1–3 faults at op
    /// indices below `horizon`. The same seed always yields the same
    /// plan, so failing runs reproduce exactly.
    pub fn seeded(seed: u64, horizon: u64) -> FaultPlan {
        let mut x = seed | 1;
        let mut next = move || {
            // xorshift64: cheap, stateless-seedable, good enough to spread
            // fault indices; determinism matters here, not quality.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let horizon = horizon.max(1);
        let count = 1 + (next() % 3) as usize;
        let kinds = [
            FaultKind::FailWrite,
            FaultKind::TornWrite,
            FaultKind::FailSync,
            FaultKind::Enospc,
            FaultKind::Crash,
        ];
        let mut faults = Vec::with_capacity(count);
        for _ in 0..count {
            let at_op = next() % horizon;
            let kind = kinds[(next() % kinds.len() as u64) as usize];
            faults.push(Fault { at_op, kind });
        }
        // A crash masks any later fault; keep at most one, last.
        faults.sort_by_key(|f| f.at_op);
        if let Some(first_crash) = faults.iter().position(|f| f.kind == FaultKind::Crash) {
            faults.truncate(first_crash + 1);
        }
        FaultPlan { faults }
    }
}

#[derive(Debug)]
struct FaultState {
    plan: Mutex<Vec<Fault>>,
    ops: AtomicU64,
    crashed: AtomicBool,
    injected: AtomicU64,
}

impl FaultState {
    /// The pending faults. A poisoned lock is recovered, not propagated:
    /// every critical section is one `Vec` operation (a lookup and
    /// `remove`, an `extend`, a `clear`), so a panic inside one cannot
    /// leave the plan half-edited.
    fn plan(&self) -> MutexGuard<'_, Vec<Fault>> {
        self.plan.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Advances the global op counter and returns the fault (if any)
    /// scheduled for this operation. After a crash fault every call
    /// reports [`FaultKind::Crash`].
    fn check(&self) -> Option<FaultKind> {
        if self.crashed.load(Ordering::SeqCst) {
            return Some(FaultKind::Crash);
        }
        let op = self.ops.fetch_add(1, Ordering::SeqCst);
        let mut plan = self.plan();
        let idx = plan.iter().position(|f| f.at_op == op)?;
        let fault = plan.remove(idx);
        self.injected.fetch_add(1, Ordering::SeqCst);
        if fault.kind == FaultKind::Crash {
            self.crashed.store(true, Ordering::SeqCst);
        }
        Some(fault.kind)
    }
}

/// A [`Vfs`] wrapping [`StdFs`] that fires a [`FaultPlan`] at exact
/// write-side operation indices.
///
/// The op counter is global across every file and directory operation the
/// injector mediates, so a plan pinpoints e.g. "the fsync inside the third
/// journal append" or "the rename that publishes a snapshot". Cloning the
/// injector (or keeping an `Arc`) shares the counter and plan, letting a
/// test arm faults while a store built over the same injector runs.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    state: Arc<FaultState>,
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector::new(FaultPlan::none())
    }
}

impl FaultInjector {
    /// An injector primed with `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            state: Arc::new(FaultState {
                plan: Mutex::new(plan.faults),
                ops: AtomicU64::new(0),
                crashed: AtomicBool::new(false),
                injected: AtomicU64::new(0),
            }),
        }
    }

    /// Arms `plan` *relative to now*: each fault's `at_op` is offset by
    /// the current op counter, so "fault the 2nd write from here" works
    /// regardless of how much I/O already happened.
    pub fn arm(&self, plan: FaultPlan) {
        let base = self.state.ops.load(Ordering::SeqCst);
        self.state
            .plan()
            .extend(plan.faults.into_iter().map(|f| Fault { at_op: base + f.at_op, kind: f.kind }));
    }

    /// Clears any pending faults and the crashed flag.
    pub fn reset(&self) {
        self.state.plan().clear();
        self.state.crashed.store(false, Ordering::SeqCst);
    }

    /// Total write-side operations observed so far.
    pub fn ops(&self) -> u64 {
        self.state.ops.load(Ordering::SeqCst)
    }

    /// Faults that have actually fired.
    pub fn injected(&self) -> u64 {
        self.state.injected.load(Ordering::SeqCst)
    }

    /// True once a [`FaultKind::Crash`] fault fired.
    pub fn crashed(&self) -> bool {
        self.state.crashed.load(Ordering::SeqCst)
    }

    fn gate(&self) -> io::Result<()> {
        match self.state.check() {
            None => Ok(()),
            Some(kind) => Err(kind.error()),
        }
    }
}

#[derive(Debug)]
struct FaultFile {
    inner: File,
    state: Arc<FaultState>,
}

impl Write for FaultFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.state.check() {
            None => self.inner.write(buf),
            Some(FaultKind::TornWrite) => {
                // Half the frame lands on disk, then the "device" errors.
                let torn = buf.len() / 2;
                let _ = self.inner.write_all(&buf[..torn]);
                let _ = self.inner.flush();
                Err(FaultKind::TornWrite.error())
            }
            Some(kind) => Err(kind.error()),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl VfsFile for FaultFile {
    fn sync_data(&mut self) -> io::Result<()> {
        match self.state.check() {
            None => self.inner.sync_data(),
            Some(kind) => Err(kind.error()),
        }
    }

    fn sync_all(&mut self) -> io::Result<()> {
        match self.state.check() {
            None => self.inner.sync_all(),
            Some(kind) => Err(kind.error()),
        }
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        match self.state.check() {
            None => self.inner.set_len(len),
            Some(kind) => Err(kind.error()),
        }
    }
}

impl Vfs for FaultInjector {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.gate()?;
        Ok(Box::new(FaultFile { inner: File::create(path)?, state: Arc::clone(&self.state) }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.gate()?;
        Ok(Box::new(FaultFile {
            inner: OpenOptions::new().create(true).append(true).open(path)?,
            state: Arc::clone(&self.state),
        }))
    }

    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.gate()?;
        Ok(Box::new(FaultFile {
            inner: OpenOptions::new().write(true).open(path)?,
            state: Arc::clone(&self.state),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.gate()?;
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.gate()?;
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.gate()?;
        std::fs::create_dir_all(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        use std::time::{SystemTime, UNIX_EPOCH};
        let nanos = SystemTime::now().duration_since(UNIX_EPOCH).unwrap().subsec_nanos();
        std::env::temp_dir().join(format!("relstore-vfs-{tag}-{}-{nanos}", std::process::id()))
    }

    #[test]
    fn stdfs_round_trip() {
        let path = temp_path("stdfs");
        let fs = StdFs;
        let mut f = fs.create(&path).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_all().unwrap();
        drop(f);
        let mut f = fs.open_append(&path).unwrap();
        f.write_all(b" world").unwrap();
        f.sync_data().unwrap();
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"hello world");
        let mut f = fs.open_write(&path).unwrap();
        f.set_len(5).unwrap();
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        fs.remove_file(&path).unwrap();
        assert!(fs.open_write(&path).is_err());
    }

    #[test]
    fn fault_fires_at_exact_op_index() {
        let path = temp_path("nth");
        // Ops: 0 = create, 1 = write, 2 = write (fails), 3 = sync.
        let inj = FaultInjector::new(FaultPlan::one(2, FaultKind::FailWrite));
        let mut f = inj.create(&path).unwrap();
        f.write_all(b"ok").unwrap();
        let err = f.write_all(b"boom").unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert_eq!(inj.injected(), 1);
        // Later ops proceed: the plan is consumed.
        f.write_all(b"fine").unwrap();
        f.sync_data().unwrap();
        drop(f);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_write_leaves_half_the_buffer() {
        let path = temp_path("torn");
        let inj = FaultInjector::new(FaultPlan::one(1, FaultKind::TornWrite));
        let mut f = inj.create(&path).unwrap();
        assert!(f.write_all(b"12345678").is_err());
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"1234");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn enospc_surfaces_the_real_errno() {
        let inj = FaultInjector::new(FaultPlan::one(0, FaultKind::Enospc));
        let err = inj.create(&temp_path("enospc")).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28));
    }

    #[test]
    fn crash_freezes_everything_after() {
        let path = temp_path("crash");
        let inj = FaultInjector::new(FaultPlan::one(2, FaultKind::Crash));
        let mut f = inj.create(&path).unwrap();
        f.write_all(b"pre-crash").unwrap();
        assert!(f.sync_data().is_err());
        assert!(inj.crashed());
        // Every later op fails too — the directory image is frozen.
        assert!(f.write_all(b"post").is_err());
        assert!(inj.create(&temp_path("crash2")).is_err());
        assert!(inj.rename(&path, &temp_path("crash3")).is_err());
        // But the bytes written before the crash are on disk.
        assert_eq!(std::fs::read(&path).unwrap(), b"pre-crash");
        inj.reset();
        assert!(!inj.crashed());
        inj.remove_file(&path).unwrap();
    }

    #[test]
    fn arm_offsets_by_current_counter() {
        let path = temp_path("arm");
        let inj = FaultInjector::default();
        let mut f = inj.create(&path).unwrap();
        f.write_all(b"a").unwrap();
        inj.arm(FaultPlan::one(1, FaultKind::FailSync));
        f.write_all(b"b").unwrap(); // op at offset 0 from arming: fine
        assert!(f.sync_data().is_err()); // offset 1: fires
        drop(f);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn seeded_plans_are_deterministic_and_bounded() {
        for seed in 0..64u64 {
            let a = FaultPlan::seeded(seed, 20);
            let b = FaultPlan::seeded(seed, 20);
            assert_eq!(a, b);
            assert!(!a.faults.is_empty() && a.faults.len() <= 3);
            assert!(a.faults.iter().all(|f| f.at_op < 20));
            // At most one crash, and nothing scheduled after it.
            let crashes = a.faults.iter().filter(|f| f.kind == FaultKind::Crash).count();
            assert!(crashes <= 1);
            if crashes == 1 {
                assert_eq!(a.faults.last().unwrap().kind, FaultKind::Crash);
            }
        }
        assert_ne!(FaultPlan::seeded(1, 1000), FaultPlan::seeded(2, 1000));
    }
}
