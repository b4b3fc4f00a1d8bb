//! A query set's rows answer exactly as each would alone, however the
//! scheduler groups them into jobs and spreads the jobs over workers.

use relcore::Algorithm;
use relengine::{Executor, QuerySet, Scheduler, TaskBuilder, TaskId, TaskResult, TaskSpec};
use std::time::Duration;

const DATASETS: [(&str, &str); 2] =
    [("fixture-enwiki-2018", "Freddie Mercury"), ("fixture-amazon-books", "1984")];

fn row(dataset: &str, algorithm: Algorithm, source: &str) -> TaskSpec {
    let builder = TaskBuilder::new(dataset).algorithm(algorithm).top_k(20);
    match algorithm.is_personalized() {
        true => builder.source(source).build().unwrap(),
        false => builder.build().unwrap(),
    }
}

/// The seven built-ins on both datasets, then a traced 2DRank row and a
/// top-k serving row.
fn comparison() -> Vec<TaskSpec> {
    let mut rows = Vec::new();
    for (dataset, source) in DATASETS {
        rows.extend(Algorithm::ALL.map(|algorithm| row(dataset, algorithm, source)));
    }
    let (dataset, source) = DATASETS[0];
    rows.push(
        TaskBuilder::new(dataset).algorithm(Algorithm::TwoDRank).trace(true).build().unwrap(),
    );
    let mut top_k = row(dataset, Algorithm::PersonalizedPageRank, source);
    top_k.serve_top_k(5);
    rows.push(top_k);
    rows
}

fn masked(mut r: TaskResult) -> TaskResult {
    r.task_id = TaskId("-".into());
    r.runtime_ms = 0;
    r
}

#[test]
fn every_row_of_a_query_set_answers_as_it_would_alone() {
    let rows = comparison();
    let alone: Vec<TaskResult> = rows
        .iter()
        .map(|spec| {
            let fresh = Executor::with_cache_capacity(0);
            masked(fresh.execute(&TaskId::fresh(), spec).unwrap())
        })
        .collect();
    assert!(alone[14].residuals.is_some() && alone[15].top.len() == 5);
    let mut set = QuerySet::new();
    for spec in &rows {
        set.add(spec.clone());
    }
    for workers in [1, 2, 7] {
        let engine = Scheduler::builder().workers(workers).build();
        let ids = engine.submit_query_set(&set);
        let served = engine.wait_all(&ids, Duration::from_secs(120)).unwrap();
        for ((spec, served), alone) in rows.iter().zip(served).zip(&alone) {
            assert_eq!(&masked(served), alone, "{} at workers({workers})", spec.display_row());
        }
        // Each dataset's two 2DRank rows reuse the vectors their siblings
        // solved; the traced 2DRank row reads vectors no sibling solved.
        for (i, id) in ids.iter().enumerate() {
            let log = engine.board().log(id).unwrap();
            let two_d = matches!(
                rows[i].params.algorithm,
                Algorithm::TwoDRank | Algorithm::PersonalizedTwoDRank
            );
            let reused = log.contains("reused 2 of 2 stationary vectors solved in this job");
            assert_eq!(reused, two_d && i < 14, "row {i} at workers({workers}): {log}");
        }
    }
}
