//! Holds the three descriptions of the benchmark together: the contract
//! limits on `BENCHMARK.json`, the tables compiled into the binary, and
//! what a run actually prints. Runs the real binary in smoke mode.

use serde_json::Value;
use std::collections::BTreeSet;
use std::process::Command;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn relmark(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_relmark")).args(args).output().expect("spawn");
    assert!(output.status.success(), "relmark {args:?} exited with {}", output.status);
    String::from_utf8(output.stdout).expect("UTF-8 output")
}

fn names(list: &Value) -> Vec<String> {
    let list = list.as_array().expect("a list");
    list.iter().map(|m| m["name"].as_str().expect("a name").to_string()).collect()
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn manifest_is_generated_from_the_tables() {
    let generated: Value = serde_json::from_str(&relmark(&["manifest"])).expect("manifest JSON");
    // Not `assert_eq!`: a mismatch would print both 75-metric documents.
    assert!(generated == manifest(), "stale: regenerate with `relmark manifest > BENCHMARK.json`");
}

#[test]
fn manifest_meets_the_contract_limits() {
    let m = manifest();
    let keys: Vec<&String> = m.as_object().expect("an object").keys().collect();
    assert_eq!(keys, ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]);
    assert_eq!(m["paths"].as_array().unwrap().len(), 1);
    assert_eq!(m["paths"][0], "benchmark");
    assert!((1..=60).contains(&m["run_seconds"].as_u64().unwrap()));
    let command = m["command"].as_array().unwrap();
    assert!(command.len() <= 32 && command.iter().all(|c| c.as_str().unwrap().len() <= 200));

    let workloads = names(&m["workloads"]);
    assert!((2..=8).contains(&workloads.len()));
    for w in m["workloads"].as_array().unwrap() {
        let why = w["why"].as_str().unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "why of {}", w["name"]);
        assert_eq!(w.as_object().unwrap().len(), 2);
    }
    let end_to_end = names(&m["end_to_end"]);
    assert!((1..=16).contains(&end_to_end.len()));
    for e in m["end_to_end"].as_array().unwrap() {
        assert_eq!(e.as_object().unwrap().len(), 4);
        let bound = e["bound"].as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound of {}", e["name"]);
        assert!(is_unit(e["unit"].as_str().unwrap()));
        assert!(matches!(e["better"].as_str(), Some("lower" | "higher")));
    }
    let setup = m["end_to_end"].as_array().unwrap().iter().find(|e| e["name"] == "setup_s");
    let setup = setup.expect("setup_s is an end-to-end metric");
    assert_eq!((setup["unit"].as_str(), setup["better"].as_str()), (Some("s"), Some("lower")));
    let per_layer = names(&m["per_layer"]);
    assert!((1..=128).contains(&per_layer.len()));
    for p in m["per_layer"].as_array().unwrap() {
        assert_eq!(p.as_object().unwrap().len(), 3);
        assert!(is_unit(p["unit"].as_str().unwrap()), "unit of {}", p["name"]);
        assert!(matches!(p["better"].as_str(), Some("lower" | "higher")));
    }
    let all: Vec<&String> = workloads.iter().chain(&end_to_end).chain(&per_layer).collect();
    assert!(all.iter().all(|n| is_name(n)));
    assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len(), "a name is used once");
    assert!(serde_json::to_string(&m).unwrap().len() <= 64 << 10);
}

/// Runs every workload with `--trace <trace>` and checks the result line
/// against the metrics `BENCHMARK.json` declares under `kind`.
fn every_workload_reports(kind: &str, trace: &str) {
    let m = manifest();
    let declared = m[kind].as_array().unwrap();
    for workload in names(&m["workloads"]) {
        let stdout =
            relmark(&["--workload", &workload, "--seed", "7", "--smoke", "--trace", trace]);
        let line = stdout.lines().last().expect("a result line");
        let result: Value = serde_json::from_str(line).expect("result line is JSON");
        let keys: Vec<&String> = result.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"], "{workload}");
        assert_eq!(result["correct"], true, "{workload}: {line}");
        assert_eq!(result["failed"], 0, "{workload}");
        assert!(result["attempted"].as_u64().unwrap() >= 1, "{workload}");
        let metrics = result["metrics"].as_object().unwrap();
        assert_eq!(metrics.len(), declared.len(), "{workload} reports every {kind} metric once");
        for d in declared {
            let name = d["name"].as_str().unwrap();
            // Once in the raw text too: a JSON object would hide a repeat.
            assert_eq!(line.matches(&format!("\"{name}\":")).count(), 1, "{workload} {name}");
            let reported = metrics.get(name).unwrap_or_else(|| panic!("{workload} lacks {name}"));
            assert_eq!(reported["unit"], d["unit"], "{workload} {name}");
            let value = reported["value"].as_f64();
            assert!(value.is_some_and(f64::is_finite), "{workload} {name} = {}", reported["value"]);
        }
    }
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    every_workload_reports("end_to_end", "0");
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    every_workload_reports("per_layer", "1");
}
