//! `cold_solve`: every op is a cache miss through the expensive lane.
//!
//! Full-rank Personalized PageRank on the big graph, default parameters,
//! a never-repeated source per op. ≈60 sweeps over ≈0.94M edges per op put
//! ≈95% of the time in `relcore`'s sweep kernel; server, cache and store
//! barely register. Kernel work (scheme selection, SIMD, compact decode,
//! precision lanes, reordering) must show here; a cache or HTTP change
//! must show nothing.

use super::{parse_result, solve_at, Answer, Sources, Task, Workload};
use crate::client::{expect_ok, Client};
use crate::stack::{digest_hex, wikilink, Scale, Stack, BIG};
use crate::trace::Tracer;
use relcore::Algorithm;
use relgraph::DirectedGraph;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Ops whose served answer is kept and re-derived by a direct solve after
/// the window: the first five multiples of this stride.
const SAMPLE_STRIDE: u64 = 8;
const SAMPLES: usize = 5;

pub struct ColdSolve {
    stack: Stack,
    graph: Arc<DirectedGraph>,
    digest: String,
    sources: Sources,
    sampled: Mutex<Vec<(String, Answer)>>,
}

impl ColdSolve {
    pub fn setup(seed: u64, scale: Scale) -> Result<ColdSolve, String> {
        let graph = wikilink(scale.big_nodes(), seed);
        let digest = digest_hex(&graph, 0);
        let sources = Sources::new(&graph, seed);
        let stack = Stack::boot(None)?;
        // In-process registration: the graph is ten times the HTTP body
        // limit, so it cannot arrive as an upload.
        stack.engine.register_dataset(BIG, graph).map_err(|e| format!("register: {e}"))?;
        let graph = stack.engine.executor().dataset(BIG).map_err(|e| e.to_string())?;
        let this = ColdSolve { stack, graph, digest, sources, sampled: Mutex::new(Vec::new()) };
        // First touch from a hub (never a timed source): sizes the
        // dataset's solver arena so op 0 is a steady-state op.
        let mut http = Client::new(this.stack.addr());
        expect_ok("first touch", http.post("/api/tasks?sync=1", &this.task("0")?.body)?)?;
        Ok(this)
    }

    fn task(&self, source: &str) -> Result<Task, String> {
        Task::new(BIG, Algorithm::PersonalizedPageRank, None, Some(source))
    }

    /// Converged, and the source ranks first (a PPR teleports to it).
    fn check(&self, i: u64, source: String, answer: Answer) -> Result<(), String> {
        if answer.converged != Some(true) {
            return Err(format!("op {i}: solve from {source} did not converge"));
        }
        if let Some(top) = &answer.top {
            if top.first().map(|(label, _)| label.as_str()) != Some(source.as_str()) {
                return Err(format!("op {i}: top[0] is {:?}, not source {source}", top.first()));
            }
            let mut sampled = self.sampled.lock().map_err(|_| "sample lock poisoned")?;
            if i.is_multiple_of(SAMPLE_STRIDE) && sampled.len() < SAMPLES {
                sampled.push((source, answer));
            }
        }
        Ok(())
    }
}

impl Workload for ColdSolve {
    fn stack(&self) -> &Stack {
        &self.stack
    }

    fn op(&self, _conn: usize, i: u64, http: &mut Client) -> Result<Duration, String> {
        let source = self.sources.get(i);
        let task = self.task(&source)?;
        let started = Instant::now();
        let response = expect_ok("solve", http.post("/api/tasks?sync=1", &task.body)?)?;
        let latency = started.elapsed();
        self.check(i, source, parse_result(response)?.into())?;
        Ok(latency)
    }

    fn replay(&self, depth: usize, i: u64, tr: &mut Tracer) -> Result<(), String> {
        let source = self.sources.get(i);
        let task = self.task(&source)?;
        let root = tr.begin(super::DEPTH_SPANS[depth], None, i);
        let solved = solve_at(&self.stack, depth, &task, tr, root, i);
        tr.end(root);
        self.check(i, source, solved?.answer()?)
    }

    /// Sampled served answers equal a direct `Query::run` bit for bit.
    fn finish(self: Box<Self>) -> Result<(), String> {
        let sampled =
            std::mem::take(&mut *self.sampled.lock().map_err(|_| "sample lock poisoned")?);
        if sampled.is_empty() {
            return Err("no op was sampled for the direct-solve check".into());
        }
        for (source, served) in sampled {
            let expected = self.task(&source)?.direct(&self.graph)?;
            if served != expected {
                return Err(format!("served answer for source {source} differs from direct solve"));
            }
        }
        Ok(())
    }

    fn rss_ops(&self) -> u64 {
        80
    }

    fn graphs(&self) -> Vec<(String, String)> {
        vec![(BIG.to_string(), self.digest.clone())]
    }
}
