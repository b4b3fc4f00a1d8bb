//! The engine's result cache: serve repeated queries without re-entering
//! the solver.
//!
//! Personalization traffic is heavily skewed — the same (dataset,
//! algorithm, parameters, seed) tuples recur as users refresh, share
//! permalinks, or poll comparisons — yet until this module existed every
//! request walked the full solver path. [`ResultCache`] is a bounded LRU
//! from a *canonical key string* of that tuple to the finished
//! [`TaskResult`], consulted by [`crate::executor::Executor::execute`] (and
//! the batched variant) before any solve, and by
//! [`crate::executor::Executor::cached`], which lets the HTTP worker answer
//! a synchronous hit without queueing a task. Hits are cloned out with a
//! fresh task id; the payload bytes are otherwise identical to the
//! original solve.
//!
//! Keys are canonical renderings, not hashes, so collisions are
//! impossible; see [`cache_key`] for exactly which fields participate.
//! Notably the `threads` knob is **excluded**: every solver in the
//! workspace is deterministic across thread counts, so a 1-thread and an
//! 8-thread run of the same query produce identical results and may share
//! a cache entry.

use crate::executor::TaskResult;
use crate::task::{TaskId, TaskSpec};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// Default entry capacity of a scheduler's result cache.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// The canonical cache key of a task: every result-determining field of
/// the spec, rendered in a fixed order, plus the dataset's **graph
/// version** — `v` below — which the executor bumps on every mutation, so
/// a result computed against one graph state can never answer a query
/// against another (the stale-cache bug this field fixed). `threads` is
/// omitted (results are thread-count invariant); `record_trace` and
/// `top_k` are included because they change the payload shape, and the
/// top-k-only serving mode (`params.top_k`, rendered as `ktop`) is
/// included because its result path (certified adaptive push / pruned
/// heap-select) produces estimate-accurate scores a full-rank run would
/// not.
pub fn cache_key(spec: &TaskSpec, graph_version: u64) -> String {
    let p = &spec.params;
    // The dataset field is length-prefixed: upload names are arbitrary
    // strings, so a bare `dataset={id};` rendering would let an id like
    // `d;x` masquerade as (and get swept up with) dataset `d` by the
    // prefix match in [`ResultCache::invalidate_dataset`].
    format!(
        "dataset={}:{};v={};algo={};damping={};k={};scoring={};tolerance={};\
         max_iterations={};solver={};trace={};source={};top_k={};ktop={}",
        spec.dataset.len(),
        spec.dataset,
        graph_version,
        p.algorithm.id(),
        p.damping,
        p.max_cycle_len,
        p.scoring,
        p.tolerance,
        p.max_iterations,
        p.solver.id(),
        p.record_trace,
        spec.source.as_deref().unwrap_or(""),
        spec.top_k,
        p.top_k.map(|k| k.to_string()).unwrap_or_default(),
    )
}

/// Aggregate counters of a [`ResultCache`], served by
/// `GET /api/cache/stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Maximum number of entries (0 = caching disabled).
    pub capacity: usize,
    /// Entries currently held.
    pub entries: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the solver.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries dropped by [`ResultCache::invalidate_dataset`] (dataset
    /// mutations).
    #[serde(default)]
    pub invalidations: u64,
}

struct CacheInner {
    /// key → (cached result, recency stamp of the live queue entry).
    map: HashMap<String, (TaskResult, u64)>,
    /// Lazily-pruned recency queue: `(key, stamp)` pushed on every touch;
    /// entries whose stamp no longer matches the map are stale.
    queue: VecDeque<(String, u64)>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
}

/// A bounded, thread-safe LRU of completed task results.
pub struct ResultCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

impl ResultCache {
    /// Creates a cache bounded to `capacity` entries; `0` disables caching
    /// entirely (every lookup misses, nothing is stored).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                queue: VecDeque::new(),
                clock: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                invalidations: 0,
            }),
        }
    }

    /// Looks `key` up; a hit refreshes the entry's recency and returns the
    /// cached result re-addressed to `task_id` (all other bytes identical
    /// to the original solve). Hits and misses are both counted.
    pub fn get(&self, key: &str, task_id: &TaskId) -> Option<TaskResult> {
        let inner = &mut *self.inner.lock();
        let hit = touch(inner, key, task_id);
        if hit.is_none() {
            inner.misses += 1;
        }
        hit
    }

    /// Like [`ResultCache::get`], except that a miss counts nothing: for a
    /// caller whose miss falls through to a [`ResultCache::get`] of the
    /// same key, which counts it there, once.
    pub(crate) fn hit(&self, key: &str, task_id: &TaskId) -> Option<TaskResult> {
        touch(&mut self.inner.lock(), key, task_id)
    }

    /// Stores `result` under `key`, evicting the least-recently-used entry
    /// when full. No-op when the cache is disabled (capacity 0).
    pub fn put(&self, key: String, result: TaskResult) {
        if self.capacity == 0 {
            return;
        }
        let inner = &mut *self.inner.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        match inner.map.entry(key.clone()) {
            Entry::Occupied(mut e) => {
                *e.get_mut() = (result, stamp);
            }
            Entry::Vacant(e) => {
                e.insert((result, stamp));
            }
        }
        inner.queue.push_back((key, stamp));
        while inner.map.len() > self.capacity {
            // Pop until a queue entry matches its map stamp: that one is
            // the genuine least-recently-used key.
            match inner.queue.pop_front() {
                Some((key, stamp)) => {
                    if inner.map.get(&key).is_some_and(|(_, live)| *live == stamp) {
                        inner.map.remove(&key);
                        inner.evictions += 1;
                    }
                }
                None => break,
            }
        }
        prune_stale(inner);
    }

    /// Bound on the recency queue relative to the live entry count; above
    /// it, stale touch records are compacted away.
    const QUEUE_SLACK: usize = 2;

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            capacity: self.capacity,
            entries: inner.map.len(),
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            invalidations: inner.invalidations,
        }
    }

    /// Drops every entry belonging to `dataset`, returning how many died.
    ///
    /// Fired by the executor whenever a dataset mutates. Strictly
    /// speaking the graph version inside every key already makes stale
    /// entries unreachable — invalidation additionally frees their memory
    /// immediately (instead of waiting for LRU pressure) and is the
    /// belt-and-braces layer: even a key that somehow omitted the version
    /// could not survive a mutation.
    pub fn invalidate_dataset(&self, dataset: &str) -> usize {
        // Mirrors the length-prefixed dataset field of [`cache_key`], so
        // an id that happens to extend `dataset` (e.g. `d;x` vs `d`) can
        // never match the prefix.
        let prefix = format!("dataset={}:{dataset};", dataset.len());
        let inner = &mut *self.inner.lock();
        let before = inner.map.len();
        inner.map.retain(|key, _| !key.starts_with(&prefix));
        inner.queue.retain(|(key, _)| !key.starts_with(&prefix));
        let dropped = before - inner.map.len();
        inner.invalidations += dropped as u64;
        dropped
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.queue.clear();
    }

    #[cfg(test)]
    fn queue_len(&self) -> usize {
        self.inner.lock().queue.len()
    }
}

/// The hit half of a lookup: refreshes `key`'s recency, counts the hit and
/// returns its result re-addressed to `task_id`.
fn touch(inner: &mut CacheInner, key: &str, task_id: &TaskId) -> Option<TaskResult> {
    inner.clock += 1;
    let stamp = inner.clock;
    let (result, live) = inner.map.get_mut(key)?;
    *live = stamp;
    let mut result = result.clone();
    result.task_id = task_id.clone();
    inner.queue.push_back((key.to_string(), stamp));
    inner.hits += 1;
    prune_stale(inner);
    Some(result)
}

/// Compacts the recency queue once stale touch records outnumber live
/// entries by [`ResultCache::QUEUE_SLACK`]×. Every `get` pushes a touch
/// record, so in a hit-dominated steady state (no evictions to drain the
/// queue) this keeps queue growth amortized O(1) per operation instead of
/// unbounded.
fn prune_stale(inner: &mut CacheInner) {
    if inner.queue.len() > inner.map.len().saturating_mul(ResultCache::QUEUE_SLACK).max(16) {
        let map = &inner.map;
        inner.queue.retain(|(key, stamp)| map.get(key).is_some_and(|(_, live)| live == stamp));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcore::runner::{Algorithm, AlgorithmParams};

    fn spec(dataset: &str, source: Option<&str>) -> TaskSpec {
        TaskSpec {
            dataset: dataset.into(),
            params: AlgorithmParams::new(Algorithm::PersonalizedPageRank),
            source: source.map(Into::into),
            top_k: 5,
        }
    }

    fn result(key_tag: &str) -> TaskResult {
        TaskResult {
            task_id: TaskId::fresh(),
            dataset: key_tag.into(),
            algorithm: "ppr".into(),
            parameters: "α = 0.85".into(),
            source: None,
            top: vec![("x".into(), 0.5)],
            runtime_ms: 1,
            nodes: 2,
            edges: 1,
            iterations: Some(3),
            residual: Some(1e-11),
            converged: Some(true),
            residuals: None,
            cycles_found: None,
        }
    }

    #[test]
    fn key_separates_result_determining_fields() {
        let a = cache_key(&spec("d", Some("s")), 0);
        assert_ne!(a, cache_key(&spec("d2", Some("s")), 0));
        assert_ne!(a, cache_key(&spec("d", Some("s2")), 0));
        assert_ne!(a, cache_key(&spec("d", None), 0));
        // The graph version separates pre- and post-mutation states of the
        // same spec — the headline stale-cache fix.
        assert_ne!(a, cache_key(&spec("d", Some("s")), 1));
        let mut with_alpha = spec("d", Some("s"));
        with_alpha.params.damping = 0.3;
        assert_ne!(a, cache_key(&with_alpha, 0));
        let mut with_top = spec("d", Some("s"));
        with_top.top_k = 9;
        assert_ne!(a, cache_key(&with_top, 0));
        // threads is excluded: results are thread-count invariant.
        let mut with_threads = spec("d", Some("s"));
        with_threads.params.threads = 8;
        assert_eq!(a, cache_key(&with_threads, 0));
        // Top-k-only serving mode is a distinct result shape.
        let mut with_ktop = spec("d", Some("s"));
        with_ktop.params.top_k = Some(5);
        assert_ne!(a, cache_key(&with_ktop, 0));
        let mut with_other_ktop = spec("d", Some("s"));
        with_other_ktop.params.top_k = Some(7);
        assert_ne!(cache_key(&with_ktop, 0), cache_key(&with_other_ktop, 0));
    }

    #[test]
    fn invalidate_dataset_drops_only_that_dataset() {
        let cache = ResultCache::new(8);
        for (ds, source) in [("d1", "a"), ("d1", "b"), ("d2", "a")] {
            cache.put(cache_key(&spec(ds, Some(source)), 0), result(ds));
        }
        assert_eq!(cache.stats().entries, 3);
        let dropped = cache.invalidate_dataset("d1");
        assert_eq!(dropped, 2);
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.invalidations, 2);
        assert!(cache.get(&cache_key(&spec("d1", Some("a")), 0), &TaskId::fresh()).is_none());
        assert!(cache.get(&cache_key(&spec("d2", Some("a")), 0), &TaskId::fresh()).is_some());
        // Idempotent on an already-clean dataset.
        assert_eq!(cache.invalidate_dataset("d1"), 0);
    }

    #[test]
    fn invalidate_dataset_prefix_is_exact() {
        // "d" must not sweep away "d2"'s entries, and — because upload
        // names are arbitrary — an id like "d;v=0" that *textually*
        // extends "d" past the field delimiter must not match either
        // (the dataset field is length-prefixed for exactly this).
        let cache = ResultCache::new(8);
        cache.put(cache_key(&spec("d", Some("a")), 0), result("d"));
        cache.put(cache_key(&spec("d2", Some("a")), 0), result("d2"));
        cache.put(cache_key(&spec("d;v=0", Some("a")), 0), result("adversarial"));
        assert_eq!(cache.invalidate_dataset("d"), 1);
        assert!(cache.get(&cache_key(&spec("d2", Some("a")), 0), &TaskId::fresh()).is_some());
        assert!(cache.get(&cache_key(&spec("d;v=0", Some("a")), 0), &TaskId::fresh()).is_some());
        assert_eq!(cache.invalidate_dataset("d;v=0"), 1);
    }

    #[test]
    fn hit_readdresses_and_counts() {
        let cache = ResultCache::new(4);
        let id = TaskId::fresh();
        assert!(cache.get("k", &id).is_none());
        cache.put("k".into(), result("orig"));
        let hit = cache.get("k", &id).unwrap();
        assert_eq!(hit.task_id, id);
        assert_eq!(hit.dataset, "orig");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn hit_counts_hits_but_not_misses() {
        let cache = ResultCache::new(4);
        let id = TaskId::fresh();
        assert!(cache.hit("k", &id).is_none());
        assert_eq!(cache.stats().misses, 0);
        cache.put("k".into(), result("orig"));
        assert_eq!(cache.hit("k", &id).unwrap().task_id, id);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 0));
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let cache = ResultCache::new(2);
        cache.put("a".into(), result("a"));
        cache.put("b".into(), result("b"));
        // Touch "a" so "b" becomes the LRU entry.
        assert!(cache.get("a", &TaskId::fresh()).is_some());
        cache.put("c".into(), result("c"));
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get("a", &TaskId::fresh()).is_some());
        assert!(cache.get("b", &TaskId::fresh()).is_none(), "LRU entry evicted");
        assert!(cache.get("c", &TaskId::fresh()).is_some());
    }

    #[test]
    fn capacity_zero_disables() {
        let cache = ResultCache::new(0);
        cache.put("k".into(), result("x"));
        assert!(cache.get("k", &TaskId::fresh()).is_none());
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().capacity, 0);
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = ResultCache::new(4);
        cache.put("k".into(), result("x"));
        assert!(cache.get("k", &TaskId::fresh()).is_some());
        cache.clear();
        assert!(cache.get("k", &TaskId::fresh()).is_none());
        let s = cache.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn hit_dominated_workload_keeps_queue_bounded() {
        // Warm cache, repeat traffic, no evictions: the recency queue must
        // not grow with the hit count.
        let cache = ResultCache::new(8);
        for k in 0..4 {
            cache.put(format!("k{k}"), result("x"));
        }
        for i in 0..10_000 {
            assert!(cache.get(&format!("k{}", i % 4), &TaskId::fresh()).is_some());
        }
        assert!(
            cache.queue_len() <= 4 * ResultCache::QUEUE_SLACK + 16,
            "queue grew to {} entries over 10k hits",
            cache.queue_len()
        );
        assert_eq!(cache.stats().hits, 10_000);
        assert_eq!(cache.stats().entries, 4);
    }

    #[test]
    fn overwrite_same_key_keeps_single_entry() {
        let cache = ResultCache::new(2);
        for _ in 0..10 {
            cache.put("k".into(), result("x"));
        }
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.evictions, 0, "overwrites are not evictions");
    }
}
