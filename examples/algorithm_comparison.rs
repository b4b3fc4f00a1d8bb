//! The paper's *algorithm comparison* use case (§IV-D, Tables I–II):
//! run all seven algorithms on one dataset and reference node through the
//! execution engine, exactly as the demo's task builder would, and print
//! the side-by-side top-5 table. The engine runs the rows that read a
//! common stationary vector as one job, so the two 2DRank rows reuse the
//! four vectors their siblings solved: four kernel solves, not eight.
//!
//! ```sh
//! cargo run --example algorithm_comparison
//! ```

use cyclerank_platform::prelude::*;
use std::time::Duration;

fn main() {
    let dataset = "fixture-amazon-books";
    let reference = "1984";

    // Build the query set of Fig. 2: one row per algorithm.
    let mut query_set = QuerySet::new();
    for algo in Algorithm::ALL {
        // A row takes the reference only where the task rules require
        // one (personalized algorithms), as in Fig. 2.
        let builder = TaskBuilder::new(dataset).algorithm(algo).top_k(5).max_cycle_len(5);
        let task = builder.clone().build().or_else(|_| builder.source(reference).build());
        query_set.add(task.expect("valid task"));
    }
    println!("{}", query_set.display_table());

    // Submit to a 4-worker engine and wait for all rows.
    let engine = Scheduler::builder().workers(4).build();
    let ids = engine.submit_query_set(&query_set);
    let results = engine.wait_all(&ids, Duration::from_secs(120)).expect("all tasks complete");

    // Render the comparison: one column per algorithm.
    const W: usize = 26;
    print!("{:<4}", "#");
    for r in &results {
        print!("{:<W$}", r.algorithm);
    }
    println!();
    for rank in 0..5 {
        print!("{:<4}", rank + 1);
        for r in &results {
            let label = r.top.get(rank).map(|(l, _)| l.as_str()).unwrap_or("-");
            let mut cell: String = label.chars().take(W - 2).collect();
            if label.chars().count() > W - 2 {
                cell.push('…');
            }
            print!("{cell:<W$}");
        }
        println!();
    }

    println!("\nruntimes:");
    for r in &results {
        println!("  {:<12} {:>6} ms", r.algorithm, r.runtime_ms);
    }

    // Rows that read a common stationary vector ran as one job: each
    // 2DRank row combined the vectors its PageRank and CheiRank siblings
    // had solved, and its log says so.
    println!("\nreuse:");
    for (id, r) in ids.iter().zip(&results) {
        let log = engine.board().log(id).expect("task log");
        let reused = log.lines().find(|line| line.contains("reused"));
        println!("  {:<12} {}", r.algorithm, reused.unwrap_or("-"));
        let two_d = r.algorithm.ends_with("2drank");
        assert_eq!(reused.is_some(), two_d, "{}: {log}", r.algorithm);
    }
}
