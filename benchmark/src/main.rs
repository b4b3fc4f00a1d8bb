//! relmark — the end-to-end + per-layer benchmark of the CycleRank
//! platform's serving stack. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! relmark --workload W --seed N --seconds S --trace 0|1   one workload, this process
//! relmark run   [--seed N] [--workload W] [--seconds S] [--trace] [--smoke]
//! relmark check [--repeat R] [--seed N] [--seconds S] [--smoke]
//! relmark manifest                                        print BENCHMARK.json
//! ```
//!
//! The first form is what `BENCHMARK.json`'s `command` runs: its last
//! stdout line is the contract's result object. `run` and `check` spawn
//! that form as a child process per workload, so peak memory never leaks
//! from one workload into the next.

mod client;
mod metrics;
mod probes;
mod runner;
mod stack;
mod stats;
mod trace;
mod workload;

use metrics::{END_TO_END, RUN_SECONDS};
use serde_json::{json, Value};
use stack::Scale;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::WORKLOADS;

/// Prefix of the stdout line carrying a run's inputs (seed, sizes in
/// effect, graph digests) for `results.json`.
const INFO_PREFIX: &str = "relmark-info ";

struct Cli {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        command: None,
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 3,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "run" | "check" | "manifest" if cli.command.is_none() => cli.command = Some(arg),
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => cli.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds =
                    Some(value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--repeat" => {
                cli.repeat = value("--repeat")?.parse().map_err(|e| format!("--repeat: {e}"))?
            }
            "--smoke" => cli.smoke = true,
            // `--trace 0|1` from the driver, bare `--trace` from a person.
            "--trace" => {
                cli.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &cli.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            return Err(format!("unknown workload {w:?}"));
        }
    }
    Ok(cli)
}

impl Cli {
    fn scale(&self) -> Scale {
        if self.smoke {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }

    /// `--seconds`, else 2 s in smoke mode, else `run_seconds`.
    fn window(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke { 2.0 } else { RUN_SECONDS as f64 })
    }

    fn workloads(&self) -> Vec<&str> {
        match &self.workload {
            Some(w) => vec![w.as_str()],
            None => WORKLOADS.iter().map(|(name, _)| *name).collect(),
        }
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let outcome = parse_cli().and_then(|cli| match cli.command.as_deref() {
        None => single(&cli, process_start),
        Some("run") => run_all(&cli),
        Some("check") => check(&cli),
        Some(_) => {
            let text =
                serde_json::to_string_pretty(&metrics::manifest()).map_err(|e| e.to_string());
            text.map(|t| println!("{t}"))
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("relmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One workload in this process; the result object is the last stdout line.
fn single(cli: &Cli, process_start: Instant) -> Result<(), String> {
    let args = runner::Args {
        workload: cli.workload.clone().ok_or("--workload is required (or use `run` / `check`)")?,
        seed: cli.seed,
        seconds: cli.window(),
        trace: cli.trace,
        scale: cli.scale(),
    };
    // Off the main thread, like every thread of `relrank serve` that
    // touches the product: glibc serves the main thread from the brk heap
    // and all others from mmap'd arenas, and the two price the engine's
    // multi-megabyte allocations differently.
    let outcome = std::thread::scope(|scope| {
        scope.spawn(|| runner::run(&args, process_start)).join().map_err(|_| "run panicked")
    })??;
    let line =
        metrics::result_line(outcome.correct, outcome.attempted, outcome.failed, &outcome.metrics)?;
    println!("{INFO_PREFIX}{}", outcome.info);
    println!("{line}");
    Ok(())
}

/// Runs one workload in a child process and returns `(result, info)`.
fn child(cli: &Cli, workload: &str, seed: u64, trace: bool) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &cli.window().to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if cli.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or_else(|| format!("{workload} printed nothing"))?;
    let result: Value =
        serde_json::from_str(result).map_err(|e| format!("{workload} result line: {e}"))?;
    let info = lines
        .find_map(|l| l.strip_prefix(INFO_PREFIX))
        .and_then(|l| serde_json::from_str(l).ok())
        .unwrap_or(Value::Null);
    Ok((result, info))
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn print_table(workload: &str, kind: &str, result: &Value) {
    println!(
        "\n{workload} ({kind}): correct={} attempted={} failed={}",
        result["correct"], result["attempted"], result["failed"]
    );
    if let Some(map) = result["metrics"].as_object() {
        for (name, m) in map {
            println!(
                "  {name:<38} {:>16.4} {}",
                m["value"].as_f64().unwrap_or(f64::NAN),
                m["unit"]
            );
        }
    }
}

/// `run`: every workload (or one) in its own child, a name/unit/value
/// table, and `out/results.json`.
fn run_all(cli: &Cli) -> Result<(), String> {
    let mut runs = Vec::new();
    let mut all_correct = true;
    for workload in cli.workloads() {
        for trace in [false, true] {
            if trace && !cli.trace {
                continue;
            }
            let (result, info) = child(cli, workload, cli.seed, trace)?;
            print_table(workload, if trace { "per-layer" } else { "end-to-end" }, &result);
            all_correct &= result["correct"] == true;
            runs.push(
                json!({"workload": workload, "trace": trace, "result": result, "info": info}),
            );
        }
    }
    let results = json!({
        "seed": cli.seed,
        "seconds": cli.window(),
        "smoke": cli.smoke,
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "git_commit": git_commit(),
        "runs": runs
    });
    let path = stack::out_dir().join("results.json");
    std::fs::create_dir_all(stack::out_dir()).map_err(|e| e.to_string())?;
    let text = serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    if all_correct {
        Ok(())
    } else {
        Err("at least one workload reported incorrect outputs or failed ops".into())
    }
}

/// `check`: every workload `--repeat` times, each with its own seed (as
/// the driver does), then per end-to-end metric the inter-quartile
/// spread as a share of the median against the metric's bound.
fn check(cli: &Cli) -> Result<(), String> {
    if cli.repeat < 2 {
        return Err("--repeat must be at least 2".into());
    }
    // Widest spread of each metric over the workloads.
    let mut widest = [0.0f64; END_TO_END.len()];
    let mut ok = true;
    for workload in cli.workloads() {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for r in 0..cli.repeat {
            let (result, _) = child(cli, workload, cli.seed + r as u64, false)?;
            if result["correct"] != true {
                return Err(format!(
                    "{workload} seed {} reported incorrect outputs",
                    cli.seed + r as u64
                ));
            }
            for (m, column) in END_TO_END.iter().zip(&mut values) {
                let v = result["metrics"][m.name]["value"].as_f64();
                column.push(v.ok_or_else(|| format!("{workload} did not report {}", m.name))?);
            }
        }
        println!(
            "\n{workload}: {} runs, seeds {}..{}",
            cli.repeat,
            cli.seed,
            cli.seed + cli.repeat as u64 - 1
        );
        println!("  {:<14} {:>12} {:>8} {:>7}  values", "metric", "median", "spread", "bound");
        for ((m, column), widest) in END_TO_END.iter().zip(&values).zip(&mut widest) {
            let spread = stats::spread(column);
            *widest = widest.max(spread);
            let median = stats::median(&mut column.clone());
            // The driver exempts `setup_s` from the spread rule.
            let within = spread <= m.bound || m.name == "setup_s";
            ok &= within;
            println!(
                "  {:<14} {median:>12.4} {:>7.1}% {:>6.0}%  {}{}",
                m.name,
                spread * 100.0,
                m.bound * 100.0,
                column.iter().map(|v| format!("{v:.4}")).collect::<Vec<_>>().join(" "),
                if within { "" } else { "  <-- outside its bound" }
            );
        }
    }
    println!("\nsuggested bounds = max(10%, 2 x widest spread of the metric over the workloads):");
    for (m, widest) in END_TO_END.iter().zip(widest) {
        println!(
            "  {:<14} widest spread {:>5.1}%  -> bound {:.2} (now {:.2})",
            m.name,
            widest * 100.0,
            (2.0 * widest).clamp(0.10, 0.25),
            m.bound
        );
    }
    if ok {
        Ok(())
    } else {
        Err("at least one end-to-end metric's spread left its bound".into())
    }
}
