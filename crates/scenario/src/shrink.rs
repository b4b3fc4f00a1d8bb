//! Greedy delta-debugging shrinker: reduces a failing scenario to a
//! minimal op sequence that still fails, for one-glance repros.

use crate::model::Scenario;
use crate::run_scenario;

/// Shrinks `sc` to a locally-minimal failing scenario: repeatedly tries
/// deleting each op and keeps any deletion under which the scenario
/// still fails, until no single-op deletion preserves the failure. A
/// scenario that does not fail is returned unchanged.
///
/// Re-runs the scenario once per candidate; scenarios are small (tens
/// of ops over tiny graphs), so this is cheap relative to the debugging
/// time it saves.
pub fn shrink(sc: &Scenario, seed: u64) -> Scenario {
    shrink_by(sc, |candidate| !run_scenario(candidate, seed).passed())
}

/// The shrinking engine behind [`shrink`], parameterized over the
/// failure predicate (`true` = still fails, keep the deletion).
pub fn shrink_by(sc: &Scenario, mut fails: impl FnMut(&Scenario) -> bool) -> Scenario {
    let mut current = sc.clone();
    if !fails(&current) {
        return current;
    }
    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < current.ops.len() {
            let mut candidate = current.clone();
            candidate.ops.remove(i);
            if fails(&candidate) {
                current = candidate;
                reduced = true;
                // The next op slid into slot `i`; retry the same index.
            } else {
                i += 1;
            }
        }
        if !reduced {
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Scenario, ScenarioOp};
    use relengine::EdgeSpec;

    fn edge(s: &str, t: &str) -> EdgeSpec {
        EdgeSpec { source: s.to_string(), target: t.to_string(), weight: None }
    }

    #[test]
    fn passing_scenario_is_untouched() {
        let sc = Scenario {
            name: "ok".to_string(),
            ops: vec![
                ScenarioOp::Upload {
                    dataset: "d".to_string(),
                    edges: vec![edge("a", "b"), edge("b", "a")],
                },
                ScenarioOp::Query {
                    dataset: "d".to_string(),
                    algorithm: "pagerank".to_string(),
                    source: None,
                    top_k: 5,
                },
            ],
        };
        let shrunk = shrink(&sc, 7);
        assert_eq!(shrunk, sc);
    }

    #[test]
    fn shrink_by_minimizes_to_the_culprit_ops() {
        // "Fails" whenever it still contains both the upload of "x" and
        // the crash — everything else is noise the shrinker must drop.
        let noise = |d: &str| ScenarioOp::Query {
            dataset: d.to_string(),
            algorithm: "pagerank".to_string(),
            source: None,
            top_k: 3,
        };
        let sc = Scenario {
            name: "noisy".to_string(),
            ops: vec![
                noise("a"),
                ScenarioOp::Upload { dataset: "x".to_string(), edges: vec![edge("a", "b")] },
                noise("b"),
                noise("c"),
                ScenarioOp::Crash,
                noise("d"),
            ],
        };
        let fails = |s: &Scenario| {
            let has_upload = s
                .ops
                .iter()
                .any(|o| matches!(o, ScenarioOp::Upload { dataset, .. } if dataset == "x"));
            let has_crash = s.ops.iter().any(|o| matches!(o, ScenarioOp::Crash));
            has_upload && has_crash
        };
        let shrunk = shrink_by(&sc, fails);
        assert_eq!(shrunk.ops.len(), 2, "shrunk to exactly the two culprit ops: {shrunk:?}");
        assert!(fails(&shrunk));
    }
}
