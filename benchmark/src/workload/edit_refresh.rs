//! `edit_refresh`: writes beside reads, on a durable store.
//!
//! One op is an edit-and-refresh transaction: add (even ops) or remove
//! (odd ops, same pair) a reciprocal edge pair on the big graph over
//! HTTP, then re-ask CycleRank K=3 from one endpoint — a forced miss,
//! because the edit bumped the graph version. It loads the layers
//! `hot_serve` only reads: journal append + fsync (`relstore`), in-memory
//! commit and O(V+E) snapshot re-materialisation (`relgraph::dynamic`),
//! whole-graph datastore re-put and cache invalidation (`relengine`). A
//! change that speeds reads but taxes writes, or the reverse, shows here.

use super::{parse_result, solve_at, Answer, Task, Workload, ENGINE, INPROC};
use crate::client::{expect_ok, Client};
use crate::stack::{digest_hex, mix, wikilink, Scale, Stack, TempDir, BIG, HUBS};
use crate::trace::{inproc, Tracer};
use relcore::Algorithm;
use relengine::{EdgeOp, EdgeSpec, MutationOutcome, Scheduler};
use relgraph::{DirectedGraph, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Removals whose post-removal cycle count is re-derived on the pristine
/// graph after the window.
const SAMPLES: usize = 5;

pub struct EditRefresh {
    stack: Stack,
    dir: TempDir,
    seed: u64,
    /// The graph as registered (version 0): every removal returns to it.
    pristine: Arc<DirectedGraph>,
    digest: String,
    /// Version the dataset must report next, advanced by each op.
    version: AtomicU64,
    /// `cycles_found` after the latest add, for the removal that follows.
    cycles_after_add: AtomicU64,
    sampled: Mutex<Vec<(String, u64)>>,
}

fn durable_scheduler(dir: &TempDir) -> Result<Scheduler, String> {
    Scheduler::builder().data_dir(dir.path()).try_build().map_err(|e| format!("durable boot: {e}"))
}

impl EditRefresh {
    pub fn setup(seed: u64, scale: Scale) -> Result<EditRefresh, String> {
        let graph = wikilink(scale.big_nodes(), seed);
        let digest = digest_hex(&graph, 0);
        let dir = TempDir::new("edit_refresh")?;
        // Registration writes snapshot v0 and the fast-load image; the
        // stack the ops hit is then booted *from disk*, so boot recovery
        // is part of set-up, as it is for an operator restarting a server.
        durable_scheduler(&dir)?
            .register_dataset(BIG, graph)
            .map_err(|e| format!("register: {e}"))?;
        let stack = Stack::boot(Some(dir.path()))?;
        let (pristine, version) =
            stack.engine.executor().dataset_versioned(BIG).map_err(|e| format!("recovery: {e}"))?;
        let this = EditRefresh {
            stack,
            dir,
            seed,
            pristine,
            digest,
            version: AtomicU64::new(version),
            cycles_after_add: AtomicU64::new(0),
            sampled: Mutex::new(Vec::new()),
        };
        // First touch: CycleRank from a hub, never a timed source.
        let mut http = Client::new(this.stack.addr());
        expect_ok("first touch", http.post("/api/tasks?sync=1", &query("0")?.body)?)?;
        Ok(this)
    }

    /// The pair op `i` edits: two distinct non-hub nodes with no edge in
    /// either direction on the pristine graph, derived from the seed.
    fn pair(&self, i: u64) -> (String, String) {
        let n = self.pristine.node_count() as u64;
        let span = n - HUBS as u64;
        for attempt in 0u64.. {
            let h = mix(self.seed ^ mix(i / 2) ^ attempt.wrapping_mul(0x9e37_79b9));
            let s = HUBS + (h % span) as u32;
            let t = HUBS + (mix(h) % span) as u32;
            let (u, v) = (NodeId::new(s), NodeId::new(t));
            if s != t && !self.pristine.has_edge(u, v) && !self.pristine.has_edge(v, u) {
                return (s.to_string(), t.to_string());
            }
        }
        unreachable!("the attempt loop only ends by returning")
    }

    /// Version advanced by exactly the two applied edges; cycles through
    /// `s` rise after the add and fall back after the removal.
    fn check(
        &self,
        i: u64,
        s: String,
        edit: &MutationOutcome,
        query: Answer,
    ) -> Result<(), String> {
        let expected = self.version.load(Ordering::SeqCst) + 2;
        if edit.applied != 2 || edit.version != expected {
            return Err(format!(
                "op {i}: edit applied {} ops and reports version {}, expected 2 and {expected}",
                edit.applied, edit.version
            ));
        }
        self.version.store(expected, Ordering::SeqCst);
        let cycles = query.cycles_found.ok_or_else(|| format!("op {i}: no cycle count"))?;
        if i.is_multiple_of(2) {
            self.cycles_after_add.store(cycles, Ordering::SeqCst);
        } else {
            let after_add = self.cycles_after_add.load(Ordering::SeqCst);
            if cycles >= after_add {
                return Err(format!(
                    "op {i}: {cycles} cycles through {s} after the removal, {after_add} after the add"
                ));
            }
            let mut sampled = self.sampled.lock().map_err(|_| "sample lock poisoned")?;
            if sampled.len() < SAMPLES {
                sampled.push((s, cycles));
            }
        }
        Ok(())
    }
}

/// The refresh half of an op: CycleRank (K=3 by default) from `source`.
fn query(source: &str) -> Result<Task, String> {
    Task::new(BIG, Algorithm::CycleRank, None, Some(source))
}

fn edge_body(s: &str, t: &str) -> String {
    format!(r#"{{"edges":[{{"source":"{s}","target":"{t}"}},{{"source":"{t}","target":"{s}"}}]}}"#)
}

fn edge_ops(s: &str, t: &str, add: bool) -> Vec<EdgeOp> {
    [(s, t), (t, s)]
        .into_iter()
        .map(|(source, target)| {
            let spec = EdgeSpec { source: source.into(), target: target.into(), weight: None };
            if add {
                EdgeOp::Add(spec)
            } else {
                EdgeOp::Remove(spec)
            }
        })
        .collect()
}

fn parse_outcome(body: &[u8]) -> Result<MutationOutcome, String> {
    serde_json::from_slice(body).map_err(|e| format!("mutation outcome: {e}"))
}

const EDGES_PATH: &str = "/api/datasets/wiki-big/edges";

impl Workload for EditRefresh {
    fn stack(&self) -> &Stack {
        &self.stack
    }

    fn op(&self, _conn: usize, i: u64, http: &mut Client) -> Result<Duration, String> {
        let (s, t) = self.pair(i);
        let method = if i.is_multiple_of(2) { "POST" } else { "DELETE" };
        let (edges, query) = (edge_body(&s, &t), query(&s)?);
        let started = Instant::now();
        let edit = parse_outcome(expect_ok("edit", http.send(method, EDGES_PATH, &edges)?)?)?;
        let refresh = http.post("/api/tasks?sync=1", &query.body)?;
        let latency = started.elapsed();
        let answer = parse_result(expect_ok("refresh", refresh)?)?;
        self.check(i, s, &edit, answer.into())?;
        Ok(latency)
    }

    /// Edits cannot be replayed, so each depth takes the *next* ops of the
    /// one sequential stream instead of re-running earlier ones. Below the
    /// engine the edit half stays at the executor (`mutate_dataset` plus
    /// the first `dataset_versioned` after it — the deepest public entry
    /// points an edit has) while the query half keeps descending.
    fn replay(&self, depth: usize, i: u64, tr: &mut Tracer) -> Result<(), String> {
        let (s, t) = self.pair(i);
        let add = i.is_multiple_of(2);
        let query = query(&s)?;
        let (edges, ops) = (edge_body(&s, &t), edge_ops(&s, &t, add));
        let engine = &self.stack.engine;
        let root = tr.begin(super::DEPTH_SPANS[depth], None, i);
        let edit = match depth {
            INPROC => {
                let method = if add { "POST" } else { "DELETE" };
                inproc(&self.stack, tr, root, i, method, EDGES_PATH, &edges)
                    .and_then(|r| parse_outcome(&r.body))
            }
            ENGINE => tr
                .span("mutate", Some(root), i, || engine.mutate_dataset(BIG, &ops))
                .map_err(|e| format!("mutate: {e}")),
            _ => {
                let executor = engine.executor();
                let outcome = tr
                    .span("mutate_commit", Some(root), i, || executor.mutate_dataset(BIG, &ops))
                    .map_err(|e| format!("mutate_commit: {e}"));
                tr.span("resolve", Some(root), i, || executor.dataset_versioned(BIG))
                    .map_err(|e| format!("resolve: {e}"))
                    .and(outcome)
            }
        };
        let solved = edit.and_then(|edit| {
            solve_at(&self.stack, depth, &query, tr, root, i).map(|solved| (edit, solved))
        });
        tr.end(root);
        let (edit, solved) = solved?;
        self.check(i, s, &edit, solved.answer()?)
    }

    /// A reboot from the data dir lands on the last acknowledged version
    /// with an equal graph digest, and sampled post-removal cycle counts
    /// equal CycleRank on the pristine graph.
    fn finish(self: Box<Self>) -> Result<(), String> {
        let EditRefresh { stack, dir, pristine, version, sampled, .. } = *self;
        let acked = version.into_inner();
        let (live, live_version) =
            stack.engine.executor().dataset_versioned(BIG).map_err(|e| e.to_string())?;
        if live_version != acked {
            return Err(format!("engine is at version {live_version}, last ack was {acked}"));
        }
        let live_digest = digest_hex(&live, live_version);
        drop(stack);
        let rebooted = durable_scheduler(&dir)?;
        let (recovered, recovered_version) =
            rebooted.executor().dataset_versioned(BIG).map_err(|e| format!("reboot: {e}"))?;
        if recovered_version != acked || digest_hex(&recovered, recovered_version) != live_digest {
            return Err(format!(
                "reboot recovered version {recovered_version} (acked {acked}) with digest {} (live {live_digest})",
                digest_hex(&recovered, recovered_version)
            ));
        }
        let sampled = sampled.into_inner().map_err(|_| "sample lock poisoned")?;
        // Each op advances the version by two, so 4 means a removal ran.
        if acked >= 4 && sampled.is_empty() {
            return Err("no removal was sampled for the pristine-graph check".into());
        }
        for (source, served) in sampled {
            let expected = query(&source)?.direct(&pristine)?.cycles_found;
            if expected != Some(served) {
                return Err(format!(
                    "{served} cycles through {source} after its removal, pristine graph has {expected:?}"
                ));
            }
        }
        Ok(())
    }

    fn rss_ops(&self) -> u64 {
        60
    }

    fn graphs(&self) -> Vec<(String, String)> {
        vec![(BIG.to_string(), self.digest.clone())]
    }
}
