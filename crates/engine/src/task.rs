//! Tasks and query sets.
//!
//! A **task** is the paper's triple: dataset × algorithm × parameters
//! (plus the source node for personalized algorithms). A **query set**
//! (Fig. 2) is an ordered collection of tasks under one permalink id; the
//! demo UI lets users add rows, delete individual rows (the `✕` control)
//! and empty the whole set (the trash-bin control) — all mirrored here.

use crate::error::EngineError;
use crate::id;
use relcore::runner::AlgorithmParams;
use relcore::Teleport;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Opaque task identifier (UUID-shaped).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct TaskId(pub String);

impl TaskId {
    /// Generates a fresh id.
    pub fn fresh() -> Self {
        TaskId(id::new_uuid())
    }

    /// The string form.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// The dataset × algorithm × parameters triple.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Dataset id from the registry (e.g. `wiki-en-2018`).
    pub dataset: String,
    /// Algorithm and its parameters.
    pub params: AlgorithmParams,
    /// Source (reference) node label for personalized algorithms.
    pub source: Option<String>,
    /// How many top entries the result should retain (default 100).
    #[serde(default = "default_top_k")]
    pub top_k: usize,
}

fn default_top_k() -> usize {
    100
}

impl TaskSpec {
    /// Checks the task rules every front door shares: a personalized
    /// algorithm needs a source, or the task fails with
    /// [`EngineError::MissingSource`].
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.source.is_none() && self.params.algorithm.is_personalized() {
            return Err(EngineError::MissingSource);
        }
        Ok(())
    }

    /// Switches the task into top-k-only serving mode (`?top_k=k`,
    /// `--top-k k`): the solve produces only the `k` best entries
    /// ([`AlgorithmParams::top_k`]) and the result keeps `k`.
    pub fn serve_top_k(&mut self, k: usize) {
        self.top_k = k;
        self.params = self.params.with_top_k(k);
    }

    /// The stationary vectors this task's solve reads: its algorithm's
    /// ([`relcore::Algorithm::stationary_reads`]) for a full-rank task,
    /// none in top-k serving mode, whose answer is not the full vector's.
    pub(crate) fn stationary_reads(&self) -> &'static [relcore::StationaryRead] {
        match self.params.top_k {
            Some(_) => &[],
            None => self.params.algorithm.stationary_reads(),
        }
    }

    /// Renders the row as the task-builder interface shows it
    /// (cf. Fig. 2: "enwiki 2018-03-01 | Cyclerank | Fake news | k = 3,
    /// σ = exp").
    pub fn display_row(&self) -> String {
        format!(
            "{} | {} | {} | {}",
            self.dataset,
            self.params.algorithm.display_name(),
            self.source.as_deref().unwrap_or("-"),
            self.params.summary()
        )
    }
}

/// A fusable row's spec without its seed: rows with equal tags differ
/// only in `source`.
struct LaneTag<'a>(&'a TaskSpec);

impl PartialEq for LaneTag<'_> {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.0, other.0);
        a.dataset == b.dataset && a.params == b.params && a.top_k == b.top_k
    }
}

impl Eq for LaneTag<'_> {}

impl Hash for LaneTag<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (&self.0.dataset, self.0.params.algorithm, self.0.top_k).hash(state);
    }
}

/// The lane groups of a set of rows, as row indices: rows with a source
/// whose specs are equal in every other field, and whose algorithm reads
/// exactly one stationary vector, teleporting to the reference (PPR,
/// Pers. CheiRank), share a group and solve as the lanes of one sweep.
/// Every other row is a group of its own. Groups come in the order of
/// their first row, and rows within a group in set order.
pub(crate) fn lane_groups(specs: &[&TaskSpec]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::with_capacity(specs.len());
    let mut group_of: HashMap<LaneTag<'_>, usize> = HashMap::new();
    for (i, spec) in specs.iter().enumerate() {
        let fuses = spec.source.is_some()
            && matches!(spec.params.algorithm.stationary_reads(), [read] if read.teleport == Teleport::Reference);
        let group = match fuses {
            true => *group_of.entry(LaneTag(spec)).or_insert(groups.len()),
            false => groups.len(),
        };
        if group == groups.len() {
            groups.push(Vec::new());
        }
        groups[group].push(i);
    }
    groups
}

/// A multi-seed batch: one dataset, one algorithm + parameters, many
/// source (seed) nodes — the high-QPS personalization shape where the
/// same graph answers a seed-node query per user.
///
/// A batch is the wire form of a query set whose rows differ only in
/// seed ([`BatchSpec::rows`]): each seed is an ordinary task under its own
/// [`TaskId`]. For PPR and Pers. CheiRank the seeds that miss the result
/// cache fuse into one lane group, a single sweep over the edge arrays;
/// other algorithms' seeds run as tasks of their own.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchSpec {
    /// Dataset id from the registry (e.g. `wiki-en-2018`).
    pub dataset: String,
    /// Algorithm and its parameters (must be a personalized algorithm).
    pub params: AlgorithmParams,
    /// Seed (source) node labels, one per requested personalization.
    pub sources: Vec<String>,
    /// How many top entries each per-seed result retains (default 100).
    #[serde(default = "default_top_k")]
    pub top_k: usize,
}

impl BatchSpec {
    /// The batch's rows, one task per seed in seed order: each is the
    /// single task its seed's answer is interchangeable with (also the
    /// result-cache identity).
    pub fn rows(&self) -> Vec<TaskSpec> {
        self.sources
            .iter()
            .map(|source| TaskSpec {
                dataset: self.dataset.clone(),
                params: self.params,
                source: Some(source.clone()),
                top_k: self.top_k,
            })
            .collect()
    }

    /// Checks the batch rules: at least one source, and a personalized
    /// algorithm (global algorithms have nothing to batch over). Either
    /// failure is an [`EngineError::InvalidBatch`].
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.sources.is_empty() {
            return Err(EngineError::InvalidBatch("batch has no sources"));
        }
        if !self.params.algorithm.is_personalized() {
            return Err(EngineError::InvalidBatch(
                "batch queries require a personalized algorithm (each seed is one personalization)",
            ));
        }
        Ok(())
    }

    /// Top-k-only serving mode for every seed; see
    /// [`TaskSpec::serve_top_k`].
    pub fn serve_top_k(&mut self, k: usize) {
        self.top_k = k;
        self.params = self.params.with_top_k(k);
    }
}

/// An ordered set of tasks under a permalink id (Fig. 2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuerySet {
    /// Permalink identifier (the "Comparison id" of Fig. 2).
    pub id: String,
    tasks: Vec<TaskSpec>,
}

impl QuerySet {
    /// Creates an empty query set with a fresh permalink id.
    pub fn new() -> Self {
        QuerySet { id: id::new_uuid(), tasks: Vec::new() }
    }

    /// Number of queries in the set.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no queries are present.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Appends a query; returns its index in the set.
    pub fn add(&mut self, task: TaskSpec) -> usize {
        self.tasks.push(task);
        self.tasks.len() - 1
    }

    /// Removes the query at `index` (the per-row `✕` control); returns it.
    pub fn remove(&mut self, index: usize) -> Option<TaskSpec> {
        if index < self.tasks.len() {
            Some(self.tasks.remove(index))
        } else {
            None
        }
    }

    /// Empties the set (the trash-bin control). The permalink id is kept.
    pub fn clear(&mut self) {
        self.tasks.clear();
    }

    /// The queries, in insertion order.
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// Renders the full builder table (Fig. 2).
    pub fn display_table(&self) -> String {
        let mut out = format!("Comparison id: {}\n", self.id);
        out.push_str("Id | Dataset | Algorithm | Source | Parameters\n");
        for (i, t) in self.tasks.iter().enumerate() {
            out.push_str(&format!("{i} | {}\n", t.display_row()));
        }
        out
    }
}

impl Default for QuerySet {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<TaskSpec> for QuerySet {
    /// A query set of `tasks`, in order, under a fresh permalink id.
    fn from_iter<I: IntoIterator<Item = TaskSpec>>(tasks: I) -> Self {
        QuerySet { id: id::new_uuid(), tasks: tasks.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcore::runner::Algorithm;

    fn spec(ds: &str, algo: Algorithm) -> TaskSpec {
        TaskSpec {
            dataset: ds.into(),
            params: AlgorithmParams::new(algo),
            source: Some("Fake news".into()),
            top_k: 5,
        }
    }

    #[test]
    fn every_front_door_yields_the_typed_rule_error() {
        const MISSING: &str = "personalized algorithm requires a source";
        const EMPTY: &str = "batch has no sources";
        const GLOBAL: &str =
            "batch queries require a personalized algorithm (each seed is one personalization)";
        let task_json = |algorithm: &str| {
            let json = format!(
                r#"{{"dataset": "fixture-fakenews-it", "params": {{"algorithm": "{algorithm}"}}, "source": null}}"#
            );
            serde_json::from_str::<TaskSpec>(&json).unwrap()
        };
        let batch_json = |algorithm: &str, sources: &str| {
            let json = format!(
                r#"{{"dataset": "d", "params": {{"algorithm": "{algorithm}"}}, "sources": [{sources}]}}"#
            );
            serde_json::from_str::<BatchSpec>(&json).unwrap()
        };
        let batch = |algorithm, sources: &[&str]| BatchSpec {
            dataset: "d".into(),
            params: AlgorithmParams::new(algorithm),
            sources: sources.iter().map(|s| s.to_string()).collect(),
            top_k: 5,
        };
        let cases: Vec<(&str, Result<(), EngineError>, &str)> = vec![
            ("serde JSON", task_json("personalized_page_rank").validate(), MISSING),
            ("serde JSON", task_json("cycle_rank").validate(), MISSING),
            (
                "TaskBuilder",
                crate::TaskBuilder::new("d").algorithm(Algorithm::CycleRank).build().map(drop),
                MISSING,
            ),
            (
                "unvalidated Executor::execute",
                crate::Executor::new()
                    .execute(&TaskId::fresh(), &task_json("personalized_chei_rank"))
                    .map(drop),
                MISSING,
            ),
            ("serde JSON", batch_json("personalized_page_rank", "").validate(), EMPTY),
            ("serde JSON", batch_json("page_rank", r#""x""#).validate(), GLOBAL),
            ("BatchSpec", batch(Algorithm::CycleRank, &[]).validate(), EMPTY),
            ("BatchSpec", batch(Algorithm::TwoDRank, &["x"]).validate(), GLOBAL),
        ];
        for (door, outcome, text) in cases {
            let err = outcome.expect_err(door);
            let typed = matches!(
                (&err, text),
                (EngineError::MissingSource, MISSING)
                    | (EngineError::InvalidBatch(_), EMPTY | GLOBAL)
            );
            assert!(typed, "{door}: {err:?}");
            assert_eq!(err.to_string(), text, "{door}");
        }
        // Specs that satisfy every rule pass.
        assert_eq!(task_json("page_rank").validate(), Ok(()));
        assert_eq!(spec("d", Algorithm::CycleRank).validate(), Ok(()));
        assert_eq!(batch(Algorithm::PersonalizedPageRank, &["x"]).validate(), Ok(()));
    }

    #[test]
    fn serve_top_k_sets_the_result_size_and_the_serving_mode() {
        let mut task = spec("d", Algorithm::PersonalizedPageRank);
        task.serve_top_k(4);
        assert_eq!((task.top_k, task.params.top_k), (4, Some(4)));
        let mut b = BatchSpec {
            dataset: "d".into(),
            params: AlgorithmParams::new(Algorithm::PersonalizedPageRank),
            sources: vec!["x".into()],
            top_k: 100,
        };
        b.serve_top_k(7);
        assert_eq!((b.top_k, b.params.top_k), (7, Some(7)));
        assert_eq!(b.rows()[0].params.top_k, Some(7));
    }

    #[test]
    fn task_id_fresh_unique() {
        assert_ne!(TaskId::fresh(), TaskId::fresh());
        let t = TaskId::fresh();
        assert_eq!(t.to_string(), t.as_str());
    }

    #[test]
    fn display_row_matches_fig2_shape() {
        let t = spec("wiki-en-2018", Algorithm::CycleRank);
        let row = t.display_row();
        assert!(row.contains("wiki-en-2018"));
        assert!(row.contains("Cyclerank"));
        assert!(row.contains("Fake news"));
        assert!(row.contains("k = 3"));
        // Global algorithm shows "-" as source.
        let mut t = spec("wiki-en-2018", Algorithm::PageRank);
        t.source = None;
        assert!(t.display_row().contains(" - "));
    }

    #[test]
    fn query_set_add_remove_clear() {
        let mut qs = QuerySet::new();
        assert!(qs.is_empty());
        qs.add(spec("a", Algorithm::CycleRank));
        qs.add(spec("b", Algorithm::PageRank));
        qs.add(spec("c", Algorithm::PersonalizedPageRank));
        assert_eq!(qs.len(), 3);

        let removed = qs.remove(1).unwrap();
        assert_eq!(removed.dataset, "b");
        assert_eq!(qs.len(), 2);
        assert_eq!(qs.tasks()[1].dataset, "c");
        assert!(qs.remove(5).is_none());

        let id_before = qs.id.clone();
        qs.clear();
        assert!(qs.is_empty());
        assert_eq!(qs.id, id_before, "permalink survives clearing");
    }

    #[test]
    fn display_table_lists_rows() {
        let mut qs = QuerySet::new();
        qs.add(spec("wiki-en-2018", Algorithm::CycleRank));
        qs.add(spec("wiki-en-2018", Algorithm::PageRank));
        let table = qs.display_table();
        assert!(table.contains("Comparison id"));
        assert!(table.lines().count() >= 4);
        assert!(table.contains("0 | wiki-en-2018"));
        assert!(table.contains("1 | wiki-en-2018"));
    }

    #[test]
    fn serde_roundtrip() {
        let mut qs = QuerySet::new();
        qs.add(spec("wiki-it-2018", Algorithm::CycleRank));
        let json = serde_json::to_string(&qs).unwrap();
        let back: QuerySet = serde_json::from_str(&json).unwrap();
        assert_eq!(back.id, qs.id);
        assert_eq!(back.tasks(), qs.tasks());
    }

    #[test]
    fn params_serde_roundtrip() {
        use relcore::{Scheme, ScoringFunction};
        // The `solver` key carries a kernel scheme under its two names.
        for (scheme, name) in [(Scheme::Power, "power"), (Scheme::Parallel, "parallel")] {
            let json = format!(r#"{{"algorithm":"personalized_page_rank","solver":"{name}"}}"#);
            let params: AlgorithmParams = serde_json::from_str(&json).unwrap();
            assert_eq!(params.solver, scheme);
            let text = serde_json::to_string(&params).unwrap();
            assert!(text.contains(&format!(r#""solver":"{name}""#)), "{text}");
            let back: AlgorithmParams = serde_json::from_str(&text).unwrap();
            assert_eq!(back, params);
            assert_eq!(serde_json::to_string(&back).unwrap(), text);
        }
        let cyclerank = AlgorithmParams::new(Algorithm::CycleRank)
            .with_k(5)
            .with_scoring(ScoringFunction::Inverse);
        let text = serde_json::to_string(&cyclerank).unwrap();
        assert_eq!(serde_json::from_str::<AlgorithmParams>(&text).unwrap(), cyclerank);
        // The deleted approximate solvers (split so a repo-wide grep for
        // them finds only history) are unknown schemes.
        for gone in ["push", concat!("monte", "_carlo")] {
            let json = format!(r#"{{"algorithm":"personalized_page_rank","solver":"{gone}"}}"#);
            let err = serde_json::from_str::<AlgorithmParams>(&json).unwrap_err().to_string();
            assert!(err.contains("unknown Scheme variant"), "{gone}: {err}");
        }
    }

    #[test]
    fn default_top_k_from_json() {
        let json = r#"{"dataset":"d","params":{"algorithm":"page_rank"},"source":null}"#;
        let t: TaskSpec = serde_json::from_str(json).unwrap();
        assert_eq!(t.top_k, 100);
        assert_eq!(t.params.damping, 0.85);
    }
}
