//! Suite driver: loads scenario files (one file or a directory of
//! `*.json`), expands templates and seeded fault variants, runs each
//! expanded scenario, and shrinks + dumps failures as replayable repros.

use crate::model::{Scenario, ScenarioDoc};
use crate::run_scenario;
use crate::shrink::shrink;
use std::io;
use std::path::{Path, PathBuf};

/// Knobs for one suite run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Seed for fault-variant derivation (`--seed`). Same seed, same
    /// expansion, same outcomes.
    pub seed: u64,
    /// Fault variants derived per expanded base scenario (`--variants`).
    pub variants: usize,
    /// Cap on the number of expanded scenarios actually run (`--max`);
    /// `None` runs the full expansion (nightly mode).
    pub max: Option<usize>,
    /// Where to dump shrunk repros of failing scenarios (`--dump-dir`).
    pub dump_dir: Option<PathBuf>,
    /// Shrink failures before reporting (off makes failures report
    /// faster at the cost of larger repros).
    pub shrink_failures: bool,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions { seed: 0, variants: 4, max: None, dump_dir: None, shrink_failures: true }
    }
}

/// One failing scenario, after optional shrinking.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// Expanded scenario name (base name plus axis labels / `#faultN`).
    pub scenario: String,
    /// Failing step index in the *original* expanded scenario.
    pub step: usize,
    /// The invariant violation message.
    pub message: String,
    /// Op count of the shrunk repro (`None` when shrinking is off).
    pub shrunk_ops: Option<usize>,
    /// Path the replayable repro was dumped to, if a dump dir was set.
    pub dump: Option<PathBuf>,
}

/// Aggregate outcome of a suite run.
#[derive(Debug, Clone, Default)]
pub struct SuiteReport {
    /// Expanded scenarios executed (after the `max` cap).
    pub total: usize,
    /// Scenarios that passed every step plus the final durability check.
    pub passed: usize,
    /// Scenarios that violated an invariant.
    pub failures: Vec<FailureReport>,
}

impl SuiteReport {
    /// True when every executed scenario passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!("{} scenarios: {} passed, {} failed", self.total, self.passed, self.failures.len())
    }
}

/// Loads scenario documents from `path`: a single `.json` file, or every
/// `*.json` directly inside a directory (sorted by file name for a
/// stable expansion order).
pub fn load_docs(path: &Path) -> io::Result<Vec<ScenarioDoc>> {
    let mut files = Vec::new();
    if path.is_dir() {
        for entry in std::fs::read_dir(path)? {
            let p = entry?.path();
            if p.extension().is_some_and(|e| e == "json") {
                files.push(p);
            }
        }
        files.sort();
        if files.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no *.json scenario files in {}", path.display()),
            ));
        }
    } else {
        files.push(path.to_path_buf());
    }
    let mut docs = Vec::with_capacity(files.len());
    for file in &files {
        let text = std::fs::read_to_string(file)?;
        let doc: ScenarioDoc = serde_json::from_str(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: invalid scenario document: {e}", file.display()),
            )
        })?;
        docs.push(doc);
    }
    Ok(docs)
}

/// Expands every document under `opts` and returns the capped run list.
pub fn expand_all(docs: &[ScenarioDoc], opts: &RunOptions) -> Vec<Scenario> {
    let mut scenarios: Vec<Scenario> =
        docs.iter().flat_map(|d| d.expand(opts.seed, opts.variants)).collect();
    if let Some(max) = opts.max {
        scenarios.truncate(max);
    }
    scenarios
}

/// Runs the suite at `path` and reports pass/fail per expanded scenario,
/// shrinking and dumping failures per `opts`.
pub fn run_suite(path: &Path, opts: &RunOptions) -> io::Result<SuiteReport> {
    let docs = load_docs(path)?;
    let scenarios = expand_all(&docs, opts);
    let mut report = SuiteReport { total: scenarios.len(), ..SuiteReport::default() };
    if let Some(dir) = &opts.dump_dir {
        std::fs::create_dir_all(dir)?;
    }
    for sc in &scenarios {
        let run = run_scenario(sc, opts.seed);
        match run.failure {
            None => report.passed += 1,
            Some(f) => {
                let repro = if opts.shrink_failures { shrink(sc, opts.seed) } else { sc.clone() };
                let dump = match &opts.dump_dir {
                    Some(dir) => Some(dump_repro(dir, &repro)?),
                    None => None,
                };
                report.failures.push(FailureReport {
                    scenario: sc.name.clone(),
                    step: f.step,
                    message: f.message,
                    shrunk_ops: opts.shrink_failures.then_some(repro.ops.len()),
                    dump,
                });
            }
        }
    }
    Ok(report)
}

fn dump_repro(dir: &Path, repro: &Scenario) -> io::Result<PathBuf> {
    let safe: String = repro
        .name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '-' })
        .collect();
    let path = dir.join(format!("{safe}.json"));
    let body = serde_json::to_string_pretty(repro)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(&path, body)?;
    Ok(path)
}
