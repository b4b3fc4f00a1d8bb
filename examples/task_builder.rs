//! The Fig. 1 / Fig. 2 walkthrough: build a query set interactively (add
//! rows, delete a row, inspect the permalink), submit it to the scheduler,
//! poll the status board while workers run, then read each task's result
//! and log off its board entry — the full five-step lifecycle of §III.
//!
//! ```sh
//! cargo run --example task_builder
//! ```

use cyclerank_platform::prelude::*;
use std::time::Duration;

fn main() {
    // ---- step 1: the Task Builder assembles a query set (Fig. 2) -------
    let mut query_set = QuerySet::new();
    query_set.add(
        TaskBuilder::new("wiki-en-2018")
            .algorithm(Algorithm::CycleRank)
            .max_cycle_len(3)
            .source("Fake news")
            .top_k(5)
            .build()
            .unwrap(),
    );
    query_set.add(
        TaskBuilder::new("wiki-en-2018")
            .algorithm(Algorithm::PageRank)
            .damping(0.3)
            .top_k(5)
            .build()
            .unwrap(),
    );
    query_set.add(
        TaskBuilder::new("wiki-en-2018")
            .algorithm(Algorithm::PersonalizedPageRank)
            .damping(0.3)
            .source("Fake news")
            .top_k(5)
            .build()
            .unwrap(),
    );
    // A row added by mistake — and removed with the per-row ✕ control.
    let extra = query_set
        .add(TaskBuilder::new("synthetic-ring").algorithm(Algorithm::CheiRank).build().unwrap());
    query_set.remove(extra);

    println!("{}", query_set.display_table());

    // ---- step 2: submit to the Scheduler --------------------------------
    let engine = Scheduler::builder().workers(2).build();
    let ids = engine.submit_query_set(&query_set);
    println!("submitted {} tasks", ids.len());

    // ---- step 3: the Status component polls progress --------------------
    loop {
        let pending = engine.board().pending_count();
        println!("  status poll: {pending} task(s) still pending");
        if pending == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }

    // ---- steps 4–5: results and logs off the status board ---------------
    for id in &ids {
        let record = engine.board().get(id).expect("tracked task");
        println!("\ntask {id} [{}]", record.spec.display_row());
        match record.state {
            TaskState::Completed => {
                let result =
                    engine.board().result(id).unwrap().expect("completed tasks hold a result");
                for (rank, (label, score)) in result.top.iter().enumerate() {
                    println!("  {:>2}. {label:<32} {score:.6}", rank + 1);
                }
                let log = engine.board().log(id).unwrap();
                println!("  log: {}", log.lines().last().unwrap_or(""));
            }
            state => println!("  unexpected terminal state: {state:?}"),
        }
    }
}
