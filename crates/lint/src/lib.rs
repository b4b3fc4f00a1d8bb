//! `rellint` — workspace-aware static analysis for invariants this
//! repo's bugs keep violating.
//!
//! Clippy sees Rust; it cannot see that `cache_key` must mention every
//! field of `TaskSpec` (and `vector_key` every field of `SolverConfig`),
//! that the executor's map lock must never be
//! taken after a per-dataset lock, or that a digest path iterating a
//! `HashMap` silently breaks bit-deterministic replay. Those are
//! *project* invariants, each one the root cause of a past bug, and
//! this crate checks them on every commit: a hand-rolled lexer
//! ([`lexer`]), a structural scanner ([`scan`]), six rules
//! ([`rules`]), and a report layer with suppression pragmas and a
//! committed baseline ([`report`]).
//!
//! No crates.io dependencies — same vendored-only constraint as the
//! rest of the workspace.

pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;

pub use report::{parse_baseline, to_baseline_lines, BaselineEntry, Finding, Report};
pub use scan::FileIndex;

use std::io;
use std::path::{Path, PathBuf};

/// The set of scanned files.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Scanned files, in sorted path order (determinism: the lint's own
    /// output must not depend on directory-walk order).
    pub files: Vec<FileIndex>,
}

impl Workspace {
    /// Loads every first-party source file under `root`: `crates/*/src`
    /// recursively. Vendored stand-ins (`vendor/`), build output
    /// (`target/`), and integration-test trees (`crates/*/tests`) are
    /// out of scope — the rules guard shipping code.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let crates_dir = root.join("crates");
        if !crates_dir.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} has no crates/ directory to lint", root.display()),
            ));
        }
        let mut paths: Vec<PathBuf> = Vec::new();
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let src = dir.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut paths)?;
            }
        }
        paths.sort();
        let mut files = Vec::with_capacity(paths.len());
        for p in paths {
            let text = std::fs::read_to_string(&p)?;
            let rel = p.strip_prefix(root).unwrap_or(&p).to_path_buf();
            files.push(FileIndex::scan(rel, &text));
        }
        Ok(Workspace { files })
    }

    /// Builds a workspace from in-memory sources — the fixture entry
    /// point used by the rule tests.
    pub fn from_sources(sources: &[(&str, &str)]) -> Workspace {
        let mut files: Vec<FileIndex> =
            sources.iter().map(|(path, src)| FileIndex::scan(path, src)).collect();
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Workspace { files }
    }

    /// Runs every rule and applies pragmas + the baseline.
    pub fn run(&self, baseline: &[BaselineEntry]) -> Report {
        let raw = rules::run_all(self);
        report::finalize(self, raw, baseline)
    }
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
