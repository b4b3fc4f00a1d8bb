//! The global [`AlgorithmRegistry`]: one lookup table from algorithm id
//! (or alias) to implementation, shared by the engine executor, the HTTP
//! routes, the CLI, and the bench harness.
//!
//! The seven paper algorithms are registered at first access, and
//! third-party algorithms can be added at runtime with
//! [`AlgorithmRegistry::register`] — no workspace crate needs to change to
//! serve a new ranker through the whole stack. The task JSON's closed
//! `Algorithm` tag reads its metadata from the same built-in values and
//! parses names through [`AlgorithmRegistry::get`].

use crate::algorithm::{AlgorithmDescriptor, RelevanceAlgorithm};
use crate::builtin;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

/// Error returned by [`AlgorithmRegistry::register`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The id (or one of the aliases) is already taken.
    DuplicateId(String),
    /// The id is empty or not in normalized form.
    InvalidId(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::DuplicateId(id) => {
                write!(f, "algorithm id {id:?} is already registered")
            }
            RegistryError::InvalidId(id) => {
                write!(f, "invalid algorithm id {id:?} (lowercase, non-empty, no spaces)")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// Normalizes a lookup name: lowercase with `-`, `_` and spaces removed,
/// so hyphenated spellings and the paper's display names all resolve.
/// `Algorithm::from_str` resolves through [`AlgorithmRegistry::get`], so
/// this is the one normalization every front door applies.
pub fn normalize_key(name: &str) -> String {
    name.to_ascii_lowercase().replace(['-', '_', ' '], "")
}

#[derive(Default)]
struct Inner {
    order: Vec<Arc<dyn RelevanceAlgorithm>>,
    by_key: HashMap<String, usize>,
}

/// Thread-safe id → algorithm lookup table.
///
/// Most callers want the process-wide [`AlgorithmRegistry::global`]
/// instance, which comes pre-loaded with the seven paper algorithms.
/// Isolated instances ([`AlgorithmRegistry::new`]) exist for tests.
///
/// # Registering a custom algorithm
///
/// The registry is the extension point of the whole platform: register an
/// implementation once and it becomes invocable through
/// [`Query`](crate::query::Query), and therefore through the engine, the
/// HTTP API, and the CLI:
///
/// ```
/// use relcore::algorithm::RelevanceAlgorithm;
/// use relcore::registry::AlgorithmRegistry;
/// use relcore::runner::{AlgorithmParams, RelevanceOutput};
/// use relcore::{AlgoError, Query, ScoreVector};
/// use relgraph::{DirectedGraph, GraphBuilder, NodeId};
/// use std::sync::Arc;
///
/// /// An out-of-tree ranker: score = out-degree.
/// struct DegreeRank;
///
/// impl RelevanceAlgorithm for DegreeRank {
///     fn id(&self) -> &str {
///         "degreerank"
///     }
///
///     fn display_name(&self) -> &str {
///         "DegreeRank"
///     }
///
///     fn is_personalized(&self) -> bool {
///         false
///     }
///
///     fn execute(
///         &self,
///         graph: &DirectedGraph,
///         _params: &AlgorithmParams,
///         _reference: Option<NodeId>,
///     ) -> Result<RelevanceOutput, AlgoError> {
///         let scores = ScoreVector::new(
///             graph.nodes().map(|u| graph.out_neighbors(u).len() as f64).collect(),
///         );
///         Ok(RelevanceOutput {
///             algorithm: self.id().to_string(),
///             order: None,
///             scores: Some(scores),
///             top: None,
///             convergence: None,
///             trace: None,
///             cycles_found: None,
///         })
///     }
/// }
///
/// // Register once at startup...
/// AlgorithmRegistry::global().register(Arc::new(DegreeRank)).unwrap();
///
/// // ...and the new id works through the uniform Query front door.
/// let mut b = GraphBuilder::new();
/// b.add_labeled_edge("hub", "a");
/// b.add_labeled_edge("hub", "b");
/// b.add_labeled_edge("a", "hub");
/// let g = b.build();
/// let result = Query::on(g).algorithm("degreerank").top(1).run().unwrap();
/// assert_eq!(result.top_entries()[0].0, "hub");
///
/// // The task JSON's closed `Algorithm` tag names only the seven built-ins.
/// assert!("degreerank".parse::<relcore::Algorithm>().is_err());
/// ```
#[derive(Default)]
pub struct AlgorithmRegistry {
    inner: RwLock<Inner>,
}

impl AlgorithmRegistry {
    /// Creates an empty registry (no built-ins). Mainly for tests.
    pub fn new() -> Self {
        AlgorithmRegistry::default()
    }

    /// The process-wide registry, with the seven paper algorithms
    /// registered on first access.
    pub fn global() -> &'static AlgorithmRegistry {
        static GLOBAL: OnceLock<AlgorithmRegistry> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let registry = AlgorithmRegistry::new();
            registry.register_builtins().expect("built-in ids are unique");
            registry
        })
    }

    /// Registers the seven paper algorithms (idempotent on a fresh
    /// registry; errors on id collisions).
    pub fn register_builtins(&self) -> Result<(), RegistryError> {
        self.register(Arc::new(builtin::PAGERANK))?;
        self.register(Arc::new(builtin::PERSONALIZED_PAGERANK))?;
        self.register(Arc::new(builtin::CHEIRANK))?;
        self.register(Arc::new(builtin::PERSONALIZED_CHEIRANK))?;
        self.register(Arc::new(builtin::TWO_D_RANK))?;
        self.register(Arc::new(builtin::PERSONALIZED_TWO_D_RANK))?;
        self.register(Arc::new(builtin::CycleRankAlgorithm))?;
        Ok(())
    }

    /// Registers an algorithm under its id and aliases.
    pub fn register(&self, algo: Arc<dyn RelevanceAlgorithm>) -> Result<(), RegistryError> {
        let id = algo.id().to_string();
        if id.is_empty() || id.contains(char::is_whitespace) || id != id.to_ascii_lowercase() {
            return Err(RegistryError::InvalidId(id));
        }
        let mut keys: Vec<String> = vec![normalize_key(&id)];
        for alias in algo.aliases() {
            keys.push(normalize_key(alias));
        }
        keys.dedup();
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        for key in &keys {
            if inner.by_key.contains_key(key) {
                return Err(RegistryError::DuplicateId(key.clone()));
            }
        }
        let idx = inner.order.len();
        inner.order.push(algo);
        for key in keys {
            inner.by_key.insert(key, idx);
        }
        Ok(())
    }

    /// Looks up an algorithm by id, alias, or display name (normalized).
    pub fn get(&self, name: &str) -> Option<Arc<dyn RelevanceAlgorithm>> {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        let key = normalize_key(name);
        if let Some(&idx) = inner.by_key.get(&key) {
            return Some(Arc::clone(&inner.order[idx]));
        }
        // Fall back to display names ("Pers. PageRank" → ppr).
        inner.order.iter().find(|a| normalize_key(a.display_name()) == key).map(Arc::clone)
    }

    /// All registered algorithms, in registration order.
    pub fn list(&self) -> Vec<Arc<dyn RelevanceAlgorithm>> {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        inner.order.iter().map(Arc::clone).collect()
    }

    /// Serializable descriptors of every registered algorithm, in
    /// registration order (what `GET /api/algorithms` serves).
    pub fn descriptors(&self) -> Vec<AlgorithmDescriptor> {
        self.list().iter().map(|a| AlgorithmDescriptor::of(a.as_ref())).collect()
    }

    /// Number of registered algorithms.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap_or_else(|e| e.into_inner()).order.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_has_the_seven_paper_algorithms() {
        let reg = AlgorithmRegistry::global();
        let ids: Vec<String> = reg.list().iter().take(7).map(|a| a.id().to_string()).collect();
        assert_eq!(
            ids,
            ["pagerank", "ppr", "cheirank", "pcheirank", "2drank", "p2drank", "cyclerank"]
        );
    }

    #[test]
    fn aliases_and_display_names_resolve() {
        let reg = AlgorithmRegistry::global();
        assert_eq!(reg.get("pr").unwrap().id(), "pagerank");
        assert_eq!(reg.get("PageRank").unwrap().id(), "pagerank");
        assert_eq!(reg.get("personalized_page_rank").unwrap().id(), "ppr");
        assert_eq!(reg.get("2drank").unwrap().id(), "2drank");
        assert_eq!(reg.get("Pers. CheiRank").unwrap().id(), "pcheirank");
        assert_eq!(reg.get("CYCLE-RANK").unwrap().id(), "cyclerank");
        assert!(reg.get("zerank").is_none());
    }

    #[test]
    fn register_rejects_collisions_and_bad_ids() {
        let reg = AlgorithmRegistry::new();
        reg.register_builtins().unwrap();
        assert!(matches!(
            reg.register(std::sync::Arc::new(builtin::PAGERANK)),
            Err(RegistryError::DuplicateId(_))
        ));

        struct BadId;
        impl crate::algorithm::RelevanceAlgorithm for BadId {
            fn id(&self) -> &str {
                "Bad Id"
            }
            fn display_name(&self) -> &str {
                "bad"
            }
            fn is_personalized(&self) -> bool {
                false
            }
            fn execute(
                &self,
                _: &relgraph::DirectedGraph,
                _: &crate::runner::AlgorithmParams,
                _: Option<relgraph::NodeId>,
            ) -> Result<crate::runner::RelevanceOutput, crate::AlgoError> {
                unreachable!()
            }
        }
        assert!(matches!(
            reg.register(std::sync::Arc::new(BadId)),
            Err(RegistryError::InvalidId(_))
        ));
    }

    #[test]
    fn descriptors_expose_parameter_schemas() {
        let reg = AlgorithmRegistry::new();
        reg.register_builtins().unwrap();
        let descriptors = reg.descriptors();
        assert_eq!(descriptors.len(), 7);
        let cr = descriptors.iter().find(|d| d.id == "cyclerank").unwrap();
        assert!(cr.personalized);
        assert!(cr.parameters.iter().any(|p| p.name == "max_cycle_len"));
        let pr = descriptors.iter().find(|d| d.id == "pagerank").unwrap();
        assert!(pr.parameters.iter().any(|p| p.name == "damping"));
        assert!(!pr.personalized);
    }
}
