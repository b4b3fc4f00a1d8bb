//! Fluent task construction with validation — the Task Builder component
//! of Fig. 1.

use crate::error::EngineError;
use crate::task::TaskSpec;
use relcore::runner::{Algorithm, AlgorithmParams};
use relcore::{Scheme, ScoringFunction};

/// Builds a validated [`TaskSpec`].
///
/// ```
/// use relengine::TaskBuilder;
/// use relcore::runner::Algorithm;
///
/// let task = TaskBuilder::new("wiki-en-2018")
///     .algorithm(Algorithm::CycleRank)
///     .max_cycle_len(3)
///     .source("Fake news")
///     .build()
///     .unwrap();
/// assert_eq!(task.dataset, "wiki-en-2018");
/// ```
#[derive(Debug, Clone)]
pub struct TaskBuilder {
    dataset: String,
    algorithm: Algorithm,
    damping: Option<f64>,
    max_cycle_len: Option<u32>,
    scoring: Option<ScoringFunction>,
    source: Option<String>,
    top_k: usize,
    scheme: Option<Scheme>,
    threads: Option<usize>,
    record_trace: bool,
}

impl TaskBuilder {
    /// Starts a task against `dataset` (defaults: PageRank, α = 0.85).
    pub fn new(dataset: impl Into<String>) -> Self {
        TaskBuilder {
            dataset: dataset.into(),
            algorithm: Algorithm::PageRank,
            damping: None,
            max_cycle_len: None,
            scoring: None,
            source: None,
            top_k: 100,
            scheme: None,
            threads: None,
            record_trace: false,
        }
    }

    /// Selects the algorithm.
    pub fn algorithm(mut self, a: Algorithm) -> Self {
        self.algorithm = a;
        self
    }

    /// Sets the damping factor α (PageRank family).
    pub fn damping(mut self, a: f64) -> Self {
        self.damping = Some(a);
        self
    }

    /// Sets the maximum cycle length K (CycleRank).
    pub fn max_cycle_len(mut self, k: u32) -> Self {
        self.max_cycle_len = Some(k);
        self
    }

    /// Sets the scoring function σ (CycleRank).
    pub fn scoring(mut self, s: ScoringFunction) -> Self {
        self.scoring = Some(s);
        self
    }

    /// Selects the kernel update scheme.
    pub fn scheme(mut self, s: Scheme) -> Self {
        self.scheme = Some(s);
        self
    }

    /// Sets the chunk/thread count for the parallel scheme (0 = planned).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Requests a per-iteration residual trace in the result.
    pub fn trace(mut self, yes: bool) -> Self {
        self.record_trace = yes;
        self
    }

    /// Sets the source (reference) node label.
    pub fn source(mut self, label: impl Into<String>) -> Self {
        self.source = Some(label.into());
        self
    }

    /// Limits how many top entries the result retains.
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = k;
        self
    }

    /// Produces the [`TaskSpec`], checked by [`TaskSpec::validate`]
    /// (e.g. [`EngineError::MissingSource`] when a personalized algorithm
    /// has no source label).
    pub fn build(self) -> Result<TaskSpec, EngineError> {
        let mut params = AlgorithmParams::new(self.algorithm);
        if let Some(a) = self.damping {
            params = params.with_damping(a);
        }
        if let Some(k) = self.max_cycle_len {
            params = params.with_k(k);
        }
        if let Some(s) = self.scoring {
            params = params.with_scoring(s);
        }
        if let Some(s) = self.scheme {
            params = params.with_scheme(s);
        }
        if let Some(n) = self.threads {
            params = params.with_threads(n);
        }
        params = params.with_trace(self.record_trace);
        let spec =
            TaskSpec { dataset: self.dataset, params, source: self.source, top_k: self.top_k };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let t = TaskBuilder::new("ds").build().unwrap();
        assert_eq!(t.params.algorithm, Algorithm::PageRank);
        assert_eq!(t.params.damping, 0.85);
        assert_eq!(t.top_k, 100);
        assert!(t.source.is_none());
    }

    #[test]
    fn full_configuration() {
        let t = TaskBuilder::new("wiki-it-2018")
            .algorithm(Algorithm::CycleRank)
            .max_cycle_len(5)
            .scoring(ScoringFunction::Inverse)
            .source("Fake news")
            .top_k(10)
            .build()
            .unwrap();
        assert_eq!(t.params.max_cycle_len, 5);
        assert_eq!(t.params.scoring, ScoringFunction::Inverse);
        assert_eq!(t.source.as_deref(), Some("Fake news"));
        assert_eq!(t.top_k, 10);
    }

    #[test]
    fn personalized_requires_source() {
        for a in Algorithm::ALL {
            let r = TaskBuilder::new("ds").algorithm(a).build();
            if a.is_personalized() {
                assert!(matches!(r, Err(EngineError::MissingSource)), "{a}");
            } else {
                assert!(r.is_ok(), "{a}");
            }
        }
    }

    #[test]
    fn solver_selection() {
        let t = TaskBuilder::new("ds")
            .algorithm(Algorithm::PersonalizedPageRank)
            .scheme(Scheme::Power)
            .source("x")
            .build()
            .unwrap();
        assert_eq!(t.params.solver, Scheme::Power);
        // Parallel by default: the kernel's chunked pull scheme.
        let t = TaskBuilder::new("ds").build().unwrap();
        assert_eq!(t.params.solver, Scheme::Parallel);
    }

    #[test]
    fn scheme_threads_and_trace_flow_into_params() {
        let t =
            TaskBuilder::new("ds").scheme(Scheme::Power).threads(3).trace(true).build().unwrap();
        assert_eq!(t.params.solver, Scheme::Power);
        assert_eq!(t.params.threads, 3);
        assert!(t.params.record_trace);
    }

    #[test]
    fn damping_applies_to_ppr() {
        let t = TaskBuilder::new("ds")
            .algorithm(Algorithm::PersonalizedPageRank)
            .damping(0.3)
            .source("Pasta")
            .build()
            .unwrap();
        assert_eq!(t.params.damping, 0.3);
        assert_eq!(t.params.summary(), "α = 0.3");
    }
}
