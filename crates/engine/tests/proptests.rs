//! Property tests for the execution engine.

use proptest::prelude::*;
use relcore::runner::{Algorithm, AlgorithmParams};
use relengine::prelude::*;
use relengine::EngineError;
use std::time::Duration;

fn arbitrary_spec(dataset: String, algo_idx: usize, top_k: usize) -> TaskSpec {
    let algorithm = Algorithm::ALL[algo_idx % Algorithm::ALL.len()];
    TaskSpec {
        dataset,
        params: AlgorithmParams::new(algorithm),
        source: algorithm.is_personalized().then(|| "Fake news".to_string()),
        top_k,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any mix of tasks over the small fixtures reaches a terminal state,
    /// and completed tasks always have a result of the right size on the
    /// board.
    #[test]
    fn every_submitted_task_terminates(
        picks in prop::collection::vec((0usize..7, 1usize..8), 1..10),
        workers in 1usize..5,
    ) {
        let engine = Scheduler::builder().workers(workers).build();
        let ids: Vec<TaskId> = picks
            .iter()
            .map(|&(algo, k)| {
                engine.submit(arbitrary_spec("fixture-fakenews-pl".into(), algo, k))
            })
            .collect();
        for (id, &(_, k)) in ids.iter().zip(&picks) {
            let result = engine.wait(id, Duration::from_secs(120)).unwrap();
            prop_assert_eq!(result.top.len(), k.min(result.nodes));
            let stored = engine.board().result(id).unwrap();
            prop_assert_eq!(stored.as_deref(), Some(&result));
        }
        let m = engine.metrics();
        prop_assert_eq!(m.completed, picks.len());
        prop_assert_eq!(m.failed + m.canceled + m.queued + m.running, 0);
    }

    /// Query-set editing keeps indices consistent under arbitrary
    /// add/remove/clear sequences.
    #[test]
    fn query_set_operations_consistent(ops in prop::collection::vec(0u8..10, 0..60)) {
        let mut qs = QuerySet::new();
        let mut model: Vec<usize> = Vec::new(); // shadow list of tags
        let mut next_tag = 0usize;
        for op in ops {
            match op {
                0..=5 => {
                    // add, tagged via top_k for identification
                    let spec = arbitrary_spec("d".into(), 0, next_tag + 1);
                    qs.add(spec);
                    model.push(next_tag + 1);
                    next_tag += 1;
                }
                6..=8 => {
                    if !model.is_empty() {
                        let idx = (op as usize * 7) % model.len();
                        let removed = qs.remove(idx).unwrap();
                        let expected = model.remove(idx);
                        prop_assert_eq!(removed.top_k, expected);
                    } else {
                        prop_assert!(qs.remove(0).is_none());
                    }
                }
                _ => {
                    qs.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(qs.len(), model.len());
            for (t, m) in qs.tasks().iter().zip(&model) {
                prop_assert_eq!(t.top_k, *m);
            }
        }
    }

    /// Waiting on a task unknown to the engine always errors, never hangs.
    #[test]
    fn unknown_tasks_error_immediately(_x in 0u8..3) {
        let engine = Scheduler::builder().workers(1).build();
        let ghost = TaskId::fresh();
        prop_assert!(matches!(
            engine.wait(&ghost, Duration::from_millis(50)),
            Err(EngineError::UnknownTask(_))
        ));
    }
}
