//! `compare`: the paper's two use cases through the asynchronous path.
//!
//! One op is the demo's Fig. 2 flow: submit a 14-task query set — all
//! seven algorithms on `wiki-en-2018` (algorithm comparison) and on a
//! second graph that rotates over five other languages and an upload
//! (dataset comparison) — poll every task until terminal, then fetch all
//! 14 results. On 1–4k-node graphs fixed per-solve overhead, 2DRank's
//! double solve, CheiRank's transposed view, queue hand-off and the GET
//! routes dominate: the same kernel layer used the opposite way from
//! `cold_solve`, so a change that helps big sweeps but taxes small ones
//! (or the reverse) shows.

use super::{parse_result, solve_at, Answer, Solved, Sources, Task, Workload, ENGINE, INPROC};
use crate::client::{expect_ok, Client};
use crate::stack::{digest_hex, upload_body, wikilink, Scale, Stack};
use crate::trace::{inproc, Tracer};
use relcore::Algorithm;
use relengine::QuerySet;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const BASE: &str = "wiki-en-2018";
const UPLOAD: &str = "upload-wikilink";
/// The second graph of op `i` is `OTHERS[i % 6]`.
const OTHERS: [&str; 6] =
    ["wiki-de-2018", "wiki-fr-2018", "wiki-it-2018", "wiki-nl-2018", "wiki-pl-2018", UPLOAD];
const POLL_INTERVAL: Duration = Duration::from_micros(500);
/// Ops whose CycleRank rows are re-derived by a direct solve afterwards.
const SAMPLES: usize = 5;
/// Paper Table I: CycleRank K=3 from "Freddie Mercury" on enwiki.
const TABLE1: [&str; 5] =
    ["Freddie Mercury", "Queen (band)", "Brian May", "Roger Taylor", "John Deacon"];

pub struct Compare {
    stack: Stack,
    upload_digest: String,
    sources: BTreeMap<&'static str, Sources>,
    /// Sampled CycleRank rows with the answers served for them.
    sampled: Mutex<Vec<(Task, Answer)>>,
}

impl Compare {
    pub fn setup(seed: u64, scale: Scale) -> Result<Compare, String> {
        let stack = Stack::boot(None)?;
        let mut http = Client::new(stack.addr());
        let upload = wikilink(scale.upload_nodes(), seed);
        let upload_digest = digest_hex(&upload, 0);
        let body = upload_body(UPLOAD, &upload)?;
        if body.len() > relserver::http::MAX_BODY {
            return Err(format!("upload body of {} bytes exceeds the server limit", body.len()));
        }
        expect_ok("upload", http.post("/api/datasets", &body)?)?;
        let mut sources = BTreeMap::new();
        for dataset in OTHERS.into_iter().chain([BASE]) {
            // First touch: catalog graphs are generated on first use.
            expect_ok("first touch", http.get(&format!("/api/datasets/{dataset}/stats"))?)?;
            let graph = stack.engine.executor().dataset(dataset).map_err(|e| e.to_string())?;
            sources.insert(dataset, Sources::new(&graph, seed));
        }
        let table1 = format!(
            r#"{{"dataset":"fixture-enwiki-2018","params":{{"algorithm":"cycle_rank","max_cycle_len":3}},"source":"{}","top_k":5}}"#,
            TABLE1[0]
        );
        let served = parse_result(expect_ok("table 1", http.post("/api/tasks?sync=1", &table1)?)?)?;
        let labels: Vec<&str> = served.top.iter().map(|(label, _)| label.as_str()).collect();
        if labels != TABLE1 {
            return Err(format!("Table I top-5 is {labels:?}, the paper has {TABLE1:?}"));
        }
        Ok(Compare { stack, upload_digest, sources, sampled: Mutex::new(Vec::new()) })
    }

    /// The 14 tasks of op `i`: unique references and damping, so nothing
    /// is answered from the cache.
    fn tasks(&self, i: u64) -> Result<Vec<Task>, String> {
        let damping = 0.70 + (i % 2000) as f64 * 1e-4;
        let other = OTHERS[(i % OTHERS.len() as u64) as usize];
        let mut tasks = Vec::with_capacity(14);
        for algorithm in Algorithm::ALL {
            for dataset in [BASE, other] {
                let source = self.sources[dataset].get(i);
                tasks.push(Task::new(dataset, algorithm, Some(damping), Some(&source))?);
            }
        }
        Ok(tasks)
    }

    /// Every row has a ranking; CycleRank rows of the first ops are kept
    /// for the direct-solve check.
    fn check(&self, i: u64, tasks: Vec<Task>, answers: Vec<Answer>) -> Result<(), String> {
        if answers.len() != tasks.len() {
            return Err(format!("op {i}: {} results for {} tasks", answers.len(), tasks.len()));
        }
        let mut sampled = self.sampled.lock().map_err(|_| "sample lock poisoned")?;
        let keep = sampled.len() < 2 * SAMPLES;
        for (task, answer) in tasks.into_iter().zip(answers) {
            if answer.top.as_ref().is_some_and(|top| top.is_empty()) {
                return Err(format!("op {i}: empty ranking for {}", task.body));
            }
            let cyclerank = task.spec.params.algorithm == Algorithm::CycleRank;
            if keep && cyclerank && answer.top.is_some() {
                sampled.push((task, answer));
            }
        }
        Ok(())
    }
}

fn query_set_body(tasks: &[Task]) -> String {
    let bodies: Vec<&str> = tasks.iter().map(|t| t.body.as_str()).collect();
    format!("[{}]", bodies.join(","))
}

fn task_ids(response: &[u8]) -> Result<Vec<String>, String> {
    let v: serde_json::Value =
        serde_json::from_slice(response).map_err(|e| format!("query-set response: {e}"))?;
    v["task_ids"]
        .as_array()
        .map(|ids| ids.iter().filter_map(|id| id.as_str().map(str::to_string)).collect())
        .ok_or_else(|| "query-set response has no task_ids".to_string())
}

/// `Ok(true)` once the polled record is `completed`; an error for any
/// other terminal state.
fn completed(id: &str, record: &[u8]) -> Result<bool, String> {
    let has = |needle: &str| record.windows(needle.len()).any(|w| w == needle.as_bytes());
    if has(r#""state":"completed""#) {
        Ok(true)
    } else if has(r#""state":"queued""#) || has(r#""state":"running""#) {
        Ok(false)
    } else {
        Err(format!("task {id} ended as {}", String::from_utf8_lossy(record)))
    }
}

impl Workload for Compare {
    fn stack(&self) -> &Stack {
        &self.stack
    }

    fn engine_parallelism(&self) -> f64 {
        self.stack.engine.worker_count() as f64
    }

    fn op(&self, _conn: usize, i: u64, http: &mut Client) -> Result<Duration, String> {
        let tasks = self.tasks(i)?;
        let set = query_set_body(&tasks);
        let started = Instant::now();
        let ids = task_ids(expect_ok("query set", http.post("/api/query-sets", &set)?)?)?;
        for id in &ids {
            let path = format!("/api/tasks/{id}");
            while !completed(id, expect_ok("poll", http.get(&path)?)?)? {
                std::thread::sleep(POLL_INTERVAL);
            }
        }
        // Fetching is part of the op, decoding is not: keep the raw
        // results and parse them once the clock has stopped.
        let mut results = Vec::with_capacity(ids.len());
        for id in &ids {
            let path = format!("/api/tasks/{id}/result");
            results.push(expect_ok("result", http.get(&path)?)?.to_vec());
        }
        let latency = started.elapsed();
        let answers: Result<Vec<Answer>, String> =
            results.iter().map(|r| parse_result(r).map(Answer::from)).collect();
        self.check(i, tasks, answers?)?;
        Ok(latency)
    }

    fn replay(&self, depth: usize, i: u64, tr: &mut Tracer) -> Result<(), String> {
        let tasks = self.tasks(i)?;
        let stack = &self.stack;
        let set_body = query_set_body(&tasks);
        let mut set = QuerySet::new();
        for task in &tasks {
            set.add(task.spec.clone());
        }
        let root = tr.begin(super::DEPTH_SPANS[depth], None, i);
        let solved: Result<Vec<Solved>, String> = match depth {
            INPROC => (|| {
                let submitted = inproc(stack, tr, root, i, "POST", "/api/query-sets", &set_body)?;
                let ids = task_ids(&submitted.body)?;
                for id in &ids {
                    let path = format!("/api/tasks/{id}");
                    while !completed(id, &inproc(stack, tr, root, i, "GET", &path, "")?.body)? {
                        std::thread::sleep(POLL_INTERVAL);
                    }
                }
                ids.iter()
                    .map(|id| {
                        let path = format!("/api/tasks/{id}/result");
                        inproc(stack, tr, root, i, "GET", &path, "").map(Solved::Http)
                    })
                    .collect()
            })(),
            ENGINE => tr
                .span("submit_wait", Some(root), i, || {
                    let ids = stack.engine.submit_query_set(&set);
                    stack.engine.wait_all(&ids, Duration::from_secs(120))
                })
                .map(|results| results.into_iter().map(Solved::Task).collect())
                .map_err(|e| format!("query set: {e}")),
            _ => tasks.iter().map(|task| solve_at(stack, depth, task, tr, root, i)).collect(),
        };
        tr.end(root);
        let answers: Result<Vec<Answer>, String> =
            solved?.into_iter().map(Solved::answer).collect();
        self.check(i, tasks, answers?)
    }

    /// Sampled CycleRank rows equal a direct `Query::run` on the
    /// executor's graph.
    fn finish(self: Box<Self>) -> Result<(), String> {
        let sampled =
            std::mem::take(&mut *self.sampled.lock().map_err(|_| "sample lock poisoned")?);
        if sampled.is_empty() {
            return Err("no CycleRank row was sampled for the direct-solve check".into());
        }
        for (task, served) in sampled {
            let executor = self.stack.engine.executor();
            let graph = executor.dataset(&task.spec.dataset).map_err(|e| e.to_string())?;
            if task.direct(&graph)? != served {
                return Err(format!(
                    "served CycleRank row differs from direct solve: {}",
                    task.body
                ));
            }
        }
        Ok(())
    }

    fn rss_ops(&self) -> u64 {
        100
    }

    fn graphs(&self) -> Vec<(String, String)> {
        vec![(UPLOAD.to_string(), self.upload_digest.clone())]
    }
}
