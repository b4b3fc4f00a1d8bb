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

/// Submits `rows` as one query set on a fresh engine (result cache off,
/// so every row is solved) and checks each row against the same spec run
/// alone; returns each row's log.
fn served_as_alone(rows: &[TaskSpec], workers: usize) -> Vec<String> {
    let engine = Scheduler::builder().workers(workers).cache_capacity(0).build();
    let ids = engine.submit_query_set(&rows.iter().cloned().collect());
    let served = engine.wait_all(&ids, Duration::from_secs(120)).unwrap();
    for (spec, served) in rows.iter().zip(served) {
        let alone = Executor::with_cache_capacity(0).execute(&TaskId::fresh(), spec).unwrap();
        assert_eq!(masked(served), masked(alone), "{} at workers({workers})", spec.display_row());
    }
    ids.iter().map(|id| engine.board().log(id).unwrap()).collect()
}

#[test]
fn rows_that_differ_only_in_seed_fuse_and_answer_as_they_would_alone() {
    let (dataset, _) = DATASETS[0];
    let ppr = ["Freddie Mercury", "Brian May", "Queen (band)", "Roger Taylor"];
    let cheirank = ["Freddie Mercury", "John Deacon"];
    for top_k in [None, Some(5)] {
        let mut rows: Vec<TaskSpec> = ppr
            .map(|seed| row(dataset, Algorithm::PersonalizedPageRank, seed))
            .into_iter()
            .chain(cheirank.map(|seed| row(dataset, Algorithm::PersonalizedCheiRank, seed)))
            .collect();
        if let Some(k) = top_k {
            rows.iter_mut().for_each(|spec| spec.serve_top_k(k));
        }
        for workers in [1, 2] {
            let logs = served_as_alone(&rows, workers);
            for (i, log) in logs.iter().enumerate() {
                let seeds = if i < ppr.len() { ppr.len() } else { cheirank.len() };
                let note = format!("solved in a {seeds}-seed lane group\n");
                assert!(log.contains(&note), "row {i}, top-k {top_k:?}: {log}");
                assert!(log.contains(&format!("running {}\n", rows[i].display_row())), "{log}");
            }
        }
    }
}

#[test]
fn a_lane_group_beside_a_vector_sharer_answers_each_row_as_alone() {
    // {PPR s1, PPR s2, Pers. 2DRank s1}: the PPR rows fuse, and Pers.
    // 2DRank shares s1's PPR vector, so all three run as one job.
    let (dataset, seed) = DATASETS[0];
    let rows = [
        row(dataset, Algorithm::PersonalizedPageRank, seed),
        row(dataset, Algorithm::PersonalizedPageRank, "Brian May"),
        row(dataset, Algorithm::PersonalizedTwoDRank, seed),
    ];
    for workers in [1, 2] {
        let logs = served_as_alone(&rows, workers);
        assert!(logs[0].contains("solved in a 2-seed lane group") && logs[1].contains("2-seed"));
        assert!(!logs[2].contains("lane group"), "{}", logs[2]);
    }
}
