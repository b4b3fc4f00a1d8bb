//! Hand-rolled argument parsing (no external CLI dependency).

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand.
    pub command: Command,
}

/// Parameters of a single `run`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Dataset id (or a placeholder when `file` is given).
    pub dataset: String,
    /// Local graph file to upload-and-run instead of a registry dataset.
    pub file: Option<String>,
    /// Algorithm id (parsed by `relcore`).
    pub algorithm: String,
    /// Source label for personalized algorithms.
    pub source: Option<String>,
    /// Damping factor α.
    pub alpha: Option<f64>,
    /// Max cycle length K.
    pub k: Option<u32>,
    /// Scoring function name.
    pub sigma: Option<String>,
    /// Kernel update scheme (power|parallel).
    pub scheme: Option<relcore::Scheme>,
    /// Threads per sweep of the parallel scheme (0 = planned per sweep).
    pub threads: Option<usize>,
    /// Print the per-iteration residual trace.
    pub trace: bool,
    /// Top-k to print.
    pub top: usize,
    /// Top-k-only serving mode (`--top-k k`): compute only the k best
    /// entries (certified adaptive push / pruned heap-select) instead of
    /// the full ranking. Implies `top = k`.
    pub top_k: Option<usize>,
    /// Emit JSON instead of a table.
    pub json: bool,
}

/// Parameters of a `batch` run (one algorithm, many seeds).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSpecArgs {
    /// Dataset id.
    pub dataset: String,
    /// Algorithm id (must be personalized); default `ppr`.
    pub algorithm: String,
    /// Seeds: a comma-separated list, or `@path` to a file with one seed
    /// label per line. Labels containing commas require the `@path` form
    /// (the list form splits on every comma).
    pub seeds: String,
    /// Damping factor α.
    pub alpha: Option<f64>,
    /// Kernel update scheme (power|parallel).
    pub scheme: Option<relcore::Scheme>,
    /// Threads per sweep (0 = planned per sweep).
    pub threads: Option<usize>,
    /// Top-k per seed.
    pub top: usize,
    /// Top-k-only serving mode (`--top-k k`); implies `top = k`.
    pub top_k: Option<usize>,
    /// Emit JSON instead of tables.
    pub json: bool,
}

/// Parameters of `compare` (algorithm comparison use case).
#[derive(Debug, Clone, PartialEq)]
pub struct CompareSpec {
    /// Dataset id.
    pub dataset: String,
    /// Reference node label.
    pub source: String,
    /// Algorithms (comma-separated ids); default: pagerank,cyclerank,ppr
    /// as in Table I.
    pub algorithms: Vec<String>,
    /// Top-k rows.
    pub top: usize,
}

/// Parameters of `compare-datasets` (dataset comparison use case).
#[derive(Debug, Clone, PartialEq)]
pub struct CompareDatasetsSpec {
    /// Dataset ids.
    pub datasets: Vec<String>,
    /// Reference node label (same on each dataset, as in Table III).
    pub source: String,
    /// Max cycle length K.
    pub k: u32,
    /// Top-k rows.
    pub top: usize,
}

/// Parameters of `mutate` (dynamic edge updates).
#[derive(Debug, Clone, PartialEq)]
pub struct MutateSpec {
    /// Dataset id.
    pub dataset: String,
    /// Edges to insert/update: `SRC->DST` or `SRC->DST:WEIGHT`,
    /// comma-separated (labels containing commas are unsupported here,
    /// as in `batch --seeds`).
    pub add: Vec<String>,
    /// Edges to remove: `SRC->DST`, comma-separated.
    pub remove: Vec<String>,
    /// Optional algorithm to run before and after the mutation (shows the
    /// ranking impact of the edit).
    pub algorithm: Option<String>,
    /// Source label for the optional before/after query.
    pub source: Option<String>,
    /// Top-k rows of the before/after query.
    pub top: usize,
    /// Top-k-only serving mode for the before/after query (`--top-k k`):
    /// compute only the k best entries through the certified top-k path
    /// instead of the full ranking. Implies `top = k`.
    pub top_k: Option<usize>,
    /// Emit JSON instead of a table.
    pub json: bool,
}

/// All subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `list-datasets`.
    ListDatasets {
        /// Optional kind filter.
        kind: Option<String>,
    },
    /// `algorithms`.
    Algorithms,
    /// `stats`.
    Stats {
        /// Dataset id.
        dataset: String,
    },
    /// `run`.
    Run(RunSpec),
    /// `batch`.
    Batch(BatchSpecArgs),
    /// `mutate`.
    Mutate(MutateSpec),
    /// `compare`.
    Compare(CompareSpec),
    /// `compare-datasets`.
    CompareDatasets(CompareDatasetsSpec),
    /// `convert`.
    Convert {
        /// Input path.
        input: String,
        /// Output path.
        output: String,
        /// Output format name.
        format: Option<String>,
    },
    /// `visualize`.
    Visualize {
        /// Dataset id.
        dataset: String,
        /// Reference node label.
        source: String,
        /// Max cycle length K.
        k: u32,
        /// How many top nodes to include.
        top: usize,
        /// Output DOT path.
        output: String,
    },
    /// `serve`.
    Serve {
        /// Bind address.
        addr: String,
        /// Engine solver worker count (also sizes the serving pool's
        /// expensive-lane default).
        workers: usize,
        /// Admission-queue depth override (`--queue-depth`): accepted
        /// connections waiting for an HTTP worker before the acceptor
        /// sheds with 429.
        queue_depth: Option<usize>,
        /// Expensive-lane concurrency override (`--max-expensive`):
        /// simultaneous cold synchronous solves / mutations / uploads
        /// before that lane sheds with 429.
        max_expensive: Option<usize>,
        /// Durable data directory (`--data-dir`): recover persisted
        /// datasets on boot and journal every mutation while serving.
        data_dir: Option<String>,
    },
    /// `replay <dir>`: rebuild every dataset from its snapshot + journal
    /// and print per-dataset version/node/edge counts and a state digest.
    Replay {
        /// Data directory to replay.
        dir: String,
        /// Emit JSON instead of a table.
        json: bool,
    },
    /// `journal verify <dir>`: CRC + version-monotonicity check over
    /// every dataset's durable files; exits non-zero on any damage.
    JournalVerify {
        /// Data directory to verify.
        dir: String,
        /// Emit JSON instead of a table.
        json: bool,
    },
    /// `scenario run <file|dir>`: expand and execute fault-injection
    /// scenario files against the real engine, checking every step
    /// against the model oracle; exits non-zero when any expanded
    /// scenario violates an invariant.
    ScenarioRun {
        /// Scenario file or directory of `*.json` scenario documents.
        path: String,
        /// Expansion seed (`--seed`): same seed, same fault variants,
        /// same outcome.
        seed: u64,
        /// Fault variants derived per expanded base scenario
        /// (`--variants`).
        variants: usize,
        /// Cap on expanded scenarios actually run (`--max`); absent runs
        /// the full expansion.
        max: Option<usize>,
        /// Directory to dump shrunk replayable repros of failures into
        /// (`--dump-dir`).
        dump_dir: Option<String>,
        /// Skip shrinking failures (`--no-shrink`): report faster,
        /// larger repros.
        no_shrink: bool,
        /// Emit JSON instead of a table.
        json: bool,
    },
    /// `lint [root]`: run the project's static-analysis rules
    /// (`rellint`) over the workspace; exits non-zero on any finding
    /// outside the committed baseline.
    Lint {
        /// Workspace root to lint (default: current directory).
        root: String,
        /// Baseline file of frozen findings (`--baseline`); default:
        /// `<root>/rellint.baseline` when that file exists.
        baseline: Option<String>,
        /// Emit the JSON report instead of text.
        json: bool,
    },
}

/// Collects `--key value` pairs and bare flags from an argument list.
struct Flags {
    pairs: std::collections::HashMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = std::collections::HashMap::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {a:?} (expected --flag)"))?;
            // Bare switches take no value.
            if key == "json" || key == "trace" || key == "no-shrink" {
                switches.push(key.to_string());
                i += 1;
                continue;
            }
            let value = args.get(i + 1).ok_or_else(|| format!("flag --{key} needs a value"))?;
            pairs.insert(key.to_string(), value.clone());
            i += 2;
        }
        Ok(Flags { pairs, switches })
    }

    fn take(&mut self, key: &str) -> Option<String> {
        self.pairs.remove(key)
    }

    fn require(&mut self, key: &str) -> Result<String, String> {
        self.take(key).ok_or_else(|| format!("missing required flag --{key}"))
    }

    fn has_switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    fn finish(self) -> Result<(), String> {
        if let Some(k) = self.pairs.keys().next() {
            return Err(format!("unknown flag --{k}"));
        }
        Ok(())
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what}: {s:?}"))
}

/// Parses a full argument vector (without the program name).
pub fn parse_args(args: &[String]) -> Result<Cli, String> {
    let (cmd, mut rest) = args.split_first().ok_or_else(usage)?;
    let mut cmd = cmd.as_str();
    // `journal` is a command group: fold `journal verify` into one name.
    if cmd == "journal" {
        match rest.split_first() {
            Some((sub, tail)) if sub == "verify" => {
                cmd = "journal-verify";
                rest = tail;
            }
            _ => return Err("journal needs a subcommand: journal verify <dir>".into()),
        }
    }
    // `scenario` is a command group: fold `scenario run` into one name.
    if cmd == "scenario" {
        match rest.split_first() {
            Some((sub, tail)) if sub == "run" => {
                cmd = "scenario-run";
                rest = tail;
            }
            _ => return Err("scenario needs a subcommand: scenario run <file|dir>".into()),
        }
    }
    // `replay <dir>` / `journal verify <dir>` / `scenario run <path>` take
    // a positional path; peel it off before flag parsing (which accepts
    // only `--flag` tokens).
    let mut positional = None;
    if matches!(cmd, "replay" | "journal-verify" | "scenario-run" | "lint") {
        if let Some((first, tail)) = rest.split_first() {
            if !first.starts_with("--") {
                positional = Some(first.clone());
                rest = tail;
            }
        }
    }
    let mut flags = Flags::parse(rest)?;
    let command = match cmd {
        "list-datasets" => {
            let kind = flags.take("kind");
            flags.finish()?;
            Command::ListDatasets { kind }
        }
        "algorithms" => {
            flags.finish()?;
            Command::Algorithms
        }
        "stats" => {
            let dataset = flags.require("dataset")?;
            flags.finish()?;
            Command::Stats { dataset }
        }
        "run" => {
            let file = flags.take("file");
            let dataset = match (&file, flags.take("dataset")) {
                (_, Some(d)) => d,
                (Some(_), None) => "uploaded-file".to_string(),
                (None, None) => return Err("missing required flag --dataset (or --file)".into()),
            };
            let spec = RunSpec {
                dataset,
                file,
                algorithm: flags.require("algorithm")?,
                source: flags.take("source"),
                alpha: flags.take("alpha").map(|v| parse_num(&v, "alpha")).transpose()?,
                k: flags.take("k").map(|v| parse_num(&v, "k")).transpose()?,
                sigma: flags.take("sigma"),
                scheme: flags.take("scheme").map(|v| v.parse()).transpose()?,
                threads: flags.take("threads").map(|v| parse_num(&v, "threads")).transpose()?,
                trace: flags.has_switch("trace"),
                top: flags.take("top").map(|v| parse_num(&v, "top")).transpose()?.unwrap_or(5),
                top_k: flags.take("top-k").map(|v| parse_num(&v, "top-k")).transpose()?,
                json: flags.has_switch("json"),
            };
            flags.finish()?;
            Command::Run(spec)
        }
        "batch" => {
            let spec = BatchSpecArgs {
                dataset: flags.require("dataset")?,
                algorithm: flags.take("algorithm").unwrap_or_else(|| "ppr".into()),
                seeds: flags.require("seeds")?,
                alpha: flags.take("alpha").map(|v| parse_num(&v, "alpha")).transpose()?,
                scheme: flags.take("scheme").map(|v| v.parse()).transpose()?,
                threads: flags.take("threads").map(|v| parse_num(&v, "threads")).transpose()?,
                top: flags.take("top").map(|v| parse_num(&v, "top")).transpose()?.unwrap_or(5),
                top_k: flags.take("top-k").map(|v| parse_num(&v, "top-k")).transpose()?,
                json: flags.has_switch("json"),
            };
            flags.finish()?;
            Command::Batch(spec)
        }
        "mutate" => {
            let split = |v: String| -> Vec<String> {
                v.split(',').map(str::trim).filter(|s| !s.is_empty()).map(str::to_string).collect()
            };
            let spec = MutateSpec {
                dataset: flags.require("dataset")?,
                add: flags.take("add").map(split).unwrap_or_default(),
                remove: flags.take("remove").map(split).unwrap_or_default(),
                algorithm: flags.take("algorithm"),
                source: flags.take("source"),
                top: flags.take("top").map(|v| parse_num(&v, "top")).transpose()?.unwrap_or(5),
                top_k: flags.take("top-k").map(|v| parse_num(&v, "top-k")).transpose()?,
                json: flags.has_switch("json"),
            };
            if spec.add.is_empty() && spec.remove.is_empty() {
                return Err("mutate needs --add and/or --remove (e.g. --add \"A->B,B->C\")".into());
            }
            // A source without an algorithm would be silently ignored —
            // reject instead so a forgotten --algorithm doesn't skip the
            // requested before/after ranking.
            if spec.algorithm.is_none() && spec.source.is_some() {
                return Err(
                    "mutate --source needs --algorithm (the before/after query to run)".into()
                );
            }
            // Same deal for --top-k: it shapes the before/after query.
            if spec.algorithm.is_none() && spec.top_k.is_some() {
                return Err(
                    "mutate --top-k needs --algorithm (the before/after query to run)".into()
                );
            }
            flags.finish()?;
            Command::Mutate(spec)
        }
        "compare" => {
            let spec = CompareSpec {
                dataset: flags.require("dataset")?,
                source: flags.require("source")?,
                algorithms: flags
                    .take("algorithms")
                    .map(|v| v.split(',').map(str::to_string).collect())
                    .unwrap_or_else(|| vec!["pagerank".into(), "cyclerank".into(), "ppr".into()]),
                top: flags.take("top").map(|v| parse_num(&v, "top")).transpose()?.unwrap_or(5),
            };
            flags.finish()?;
            Command::Compare(spec)
        }
        "compare-datasets" => {
            let spec = CompareDatasetsSpec {
                datasets: flags.require("datasets")?.split(',').map(str::to_string).collect(),
                source: flags.require("source")?,
                k: flags.take("k").map(|v| parse_num(&v, "k")).transpose()?.unwrap_or(3),
                top: flags.take("top").map(|v| parse_num(&v, "top")).transpose()?.unwrap_or(5),
            };
            flags.finish()?;
            Command::CompareDatasets(spec)
        }
        "convert" => {
            let input = flags.require("input")?;
            let output = flags.require("output")?;
            let format = flags.take("format");
            flags.finish()?;
            Command::Convert { input, output, format }
        }
        "visualize" => {
            let cmd = Command::Visualize {
                dataset: flags.require("dataset")?,
                source: flags.require("source")?,
                k: flags.take("k").map(|v| parse_num(&v, "k")).transpose()?.unwrap_or(3),
                top: flags.take("top").map(|v| parse_num(&v, "top")).transpose()?.unwrap_or(15),
                output: flags.take("output").unwrap_or_else(|| "relevance.dot".into()),
            };
            flags.finish()?;
            cmd
        }
        "serve" => {
            let addr = flags.take("addr").unwrap_or_else(|| "127.0.0.1:8080".into());
            let workers =
                flags.take("workers").map(|v| parse_num(&v, "workers")).transpose()?.unwrap_or(4);
            let queue_depth =
                flags.take("queue-depth").map(|v| parse_num(&v, "queue-depth")).transpose()?;
            let max_expensive =
                flags.take("max-expensive").map(|v| parse_num(&v, "max-expensive")).transpose()?;
            let data_dir = flags.take("data-dir");
            flags.finish()?;
            Command::Serve { addr, workers, queue_depth, max_expensive, data_dir }
        }
        "replay" => {
            let dir = match positional.or_else(|| flags.take("dir")) {
                Some(d) => d,
                None => return Err("replay needs a data directory: replay <dir>".into()),
            };
            let json = flags.has_switch("json");
            flags.finish()?;
            Command::Replay { dir, json }
        }
        "journal-verify" => {
            let dir = match positional.or_else(|| flags.take("dir")) {
                Some(d) => d,
                None => {
                    return Err("journal verify needs a data directory: journal verify <dir>".into())
                }
            };
            let json = flags.has_switch("json");
            flags.finish()?;
            Command::JournalVerify { dir, json }
        }
        "scenario-run" => {
            let path = match positional.or_else(|| flags.take("path")) {
                Some(p) => p,
                None => return Err("scenario run needs a path: scenario run <file|dir>".into()),
            };
            let seed = match flags.take("seed") {
                Some(s) => parse_num(&s, "seed")?,
                None => 0,
            };
            let variants = match flags.take("variants") {
                Some(s) => parse_num(&s, "variants")?,
                None => 4,
            };
            let max = match flags.take("max") {
                Some(s) => Some(parse_num(&s, "max")?),
                None => None,
            };
            let dump_dir = flags.take("dump-dir");
            let no_shrink = flags.has_switch("no-shrink");
            let json = flags.has_switch("json");
            flags.finish()?;
            Command::ScenarioRun { path, seed, variants, max, dump_dir, no_shrink, json }
        }
        "lint" => {
            let root = positional.or_else(|| flags.take("root")).unwrap_or_else(|| ".".into());
            let baseline = flags.take("baseline");
            let json = flags.has_switch("json");
            flags.finish()?;
            Command::Lint { root, baseline, json }
        }
        other => return Err(format!("unknown command {other:?}\n{}", usage())),
    };
    Ok(Cli { command })
}

/// Usage text.
pub fn usage() -> String {
    "usage: relrank <command> [flags]\n\
     commands: list-datasets, algorithms, stats, run, batch, mutate, compare, compare-datasets, convert, visualize, serve, replay, journal verify, scenario run, lint\n\
     see crate docs for per-command flags"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Cli, String> {
        let args: Vec<String> = s.split_whitespace().map(str::to_string).collect();
        parse_args(&args)
    }

    #[test]
    fn list_datasets_with_filter() {
        let cli = parse("list-datasets --kind wikipedia").unwrap();
        assert_eq!(cli.command, Command::ListDatasets { kind: Some("wikipedia".into()) });
        let cli = parse("list-datasets").unwrap();
        assert_eq!(cli.command, Command::ListDatasets { kind: None });
    }

    #[test]
    fn run_full_flags() {
        let cli =
            parse("run --dataset wiki-en-2018 --algorithm cyclerank --source Pasta --k 4 --sigma exp --top 10 --json")
                .unwrap();
        match cli.command {
            Command::Run(s) => {
                assert_eq!(s.dataset, "wiki-en-2018");
                assert_eq!(s.algorithm, "cyclerank");
                assert_eq!(s.source.as_deref(), Some("Pasta"));
                assert_eq!(s.k, Some(4));
                assert_eq!(s.sigma.as_deref(), Some("exp"));
                assert_eq!(s.top, 10);
                assert!(s.json);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn run_with_file() {
        let cli = parse("run --file g.csv --algorithm pagerank").unwrap();
        match cli.command {
            Command::Run(s) => {
                assert_eq!(s.file.as_deref(), Some("g.csv"));
                assert_eq!(s.dataset, "uploaded-file");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn run_defaults() {
        let cli = parse("run --dataset d --algorithm pagerank").unwrap();
        match cli.command {
            Command::Run(s) => {
                assert_eq!(s.top, 5);
                assert!(!s.json);
                assert!(s.alpha.is_none());
                assert!(s.scheme.is_none());
                assert!(s.threads.is_none());
                assert!(s.top_k.is_none());
                assert!(!s.trace);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn run_scheme_and_threads() {
        let cli = parse("run --dataset d --algorithm cheirank --scheme power --threads 4 --trace")
            .unwrap();
        match cli.command {
            Command::Run(s) => {
                assert_eq!(s.scheme, Some(relcore::Scheme::Power));
                assert_eq!(s.threads, Some(4));
                assert!(s.trace);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse("run --dataset d --algorithm pr --threads many").is_err());
        // Unknown schemes are bad arguments, caught at parse time, and
        // `--solver` is no flag at all.
        let err = parse("run --dataset d --algorithm pr --scheme quantum").unwrap_err();
        assert!(err.contains("expected power|parallel"), "{err}");
        let err = parse("run --dataset d --algorithm pr --solver power").unwrap_err();
        assert_eq!(err, "unknown flag --solver");
        assert!(parse("batch --dataset d --seeds A --scheme quantum").is_err());
    }

    #[test]
    fn precision_flag_is_unknown() {
        // The f32 score lane is gone; its flag is no longer accepted.
        let err = parse("run --dataset d --algorithm pagerank --precision f32").unwrap_err();
        assert_eq!(err, "unknown flag --precision");
    }

    #[test]
    fn top_k_serving_flag() {
        let cli = parse("run --dataset d --algorithm ppr --source X --top-k 10").unwrap();
        match cli.command {
            Command::Run(s) => assert_eq!(s.top_k, Some(10)),
            other => panic!("unexpected {other:?}"),
        }
        let cli = parse("batch --dataset d --seeds A,B --top-k 3").unwrap();
        match cli.command {
            Command::Batch(b) => assert_eq!(b.top_k, Some(3)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse("run --dataset d --algorithm ppr --top-k lots").is_err());
    }

    #[test]
    fn batch_parses_with_defaults() {
        let cli = parse("batch --dataset d --seeds A,B,C").unwrap();
        match cli.command {
            Command::Batch(b) => {
                assert_eq!(b.dataset, "d");
                assert_eq!(b.algorithm, "ppr");
                assert_eq!(b.seeds, "A,B,C");
                assert_eq!(b.top, 5);
                assert!(!b.json);
            }
            other => panic!("unexpected {other:?}"),
        }
        let cli = parse(
            "batch --dataset d --algorithm pcheirank --seeds @seeds.txt --alpha 0.5 \
             --scheme parallel --threads 4 --top 3 --json",
        )
        .unwrap();
        match cli.command {
            Command::Batch(b) => {
                assert_eq!(b.algorithm, "pcheirank");
                assert_eq!(b.seeds, "@seeds.txt");
                assert_eq!(b.alpha, Some(0.5));
                assert_eq!(b.threads, Some(4));
                assert!(b.json);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Seeds are required.
        assert!(parse("batch --dataset d").is_err());
    }

    #[test]
    fn mutate_parses_edge_lists() {
        let cli = parse(
            "mutate --dataset d --add A->B,B->C:2.5 --remove C->A --algorithm ppr --source A",
        )
        .unwrap();
        match cli.command {
            Command::Mutate(m) => {
                assert_eq!(m.dataset, "d");
                assert_eq!(m.add, vec!["A->B", "B->C:2.5"]);
                assert_eq!(m.remove, vec!["C->A"]);
                assert_eq!(m.algorithm.as_deref(), Some("ppr"));
                assert_eq!(m.source.as_deref(), Some("A"));
                assert_eq!(m.top, 5);
                assert!(!m.json);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Add-only and remove-only both parse; neither is an error.
        assert!(parse("mutate --dataset d --add A->B").is_ok());
        assert!(parse("mutate --dataset d --remove A->B --json").is_ok());
        // No edges at all is rejected.
        assert!(parse("mutate --dataset d").is_err());
        assert!(parse("mutate --add A->B").is_err(), "dataset required");
        // A source without an algorithm would silently skip the requested
        // before/after ranking: rejected.
        assert!(parse("mutate --dataset d --add A->B --source A").is_err());
    }

    #[test]
    fn compare_default_algorithms_match_table1() {
        let cli = parse("compare --dataset d --source X").unwrap();
        match cli.command {
            Command::Compare(c) => {
                assert_eq!(c.algorithms, vec!["pagerank", "cyclerank", "ppr"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn compare_datasets_splits_ids() {
        let cli = parse("compare-datasets --datasets a,b,c --source Fake-news --k 3").unwrap();
        match cli.command {
            Command::CompareDatasets(c) => {
                assert_eq!(c.datasets, vec!["a", "b", "c"]);
                assert_eq!(c.k, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn visualize_parses() {
        let cli = parse("visualize --dataset d --source X --top 8 --output o.dot").unwrap();
        match cli.command {
            Command::Visualize { dataset, source, k, top, output } => {
                assert_eq!(dataset, "d");
                assert_eq!(source, "X");
                assert_eq!(k, 3);
                assert_eq!(top, 8);
                assert_eq!(output, "o.dot");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse("visualize --dataset d").is_err());
    }

    #[test]
    fn serve_defaults() {
        let cli = parse("serve").unwrap();
        assert_eq!(
            cli.command,
            Command::Serve {
                addr: "127.0.0.1:8080".into(),
                workers: 4,
                queue_depth: None,
                max_expensive: None,
                data_dir: None
            }
        );
        let cli = parse("serve --data-dir /tmp/relrank-data").unwrap();
        assert_eq!(
            cli.command,
            Command::Serve {
                addr: "127.0.0.1:8080".into(),
                workers: 4,
                queue_depth: None,
                max_expensive: None,
                data_dir: Some("/tmp/relrank-data".into())
            }
        );
    }

    #[test]
    fn serve_admission_flags() {
        let cli = parse("serve --workers 2 --queue-depth 16 --max-expensive 1").unwrap();
        assert_eq!(
            cli.command,
            Command::Serve {
                addr: "127.0.0.1:8080".into(),
                workers: 2,
                queue_depth: Some(16),
                max_expensive: Some(1),
                data_dir: None
            }
        );
        assert!(parse("serve --queue-depth deep").is_err());
        assert!(parse("serve --max-expensive all").is_err());
    }

    #[test]
    fn replay_takes_positional_dir() {
        let cli = parse("replay /tmp/data").unwrap();
        assert_eq!(cli.command, Command::Replay { dir: "/tmp/data".into(), json: false });
        let cli = parse("replay --dir /tmp/data --json").unwrap();
        assert_eq!(cli.command, Command::Replay { dir: "/tmp/data".into(), json: true });
        assert!(parse("replay").is_err());
        assert!(parse("replay /tmp/data --bogus v").is_err());
    }

    #[test]
    fn journal_verify_is_a_subcommand() {
        let cli = parse("journal verify /tmp/data").unwrap();
        assert_eq!(cli.command, Command::JournalVerify { dir: "/tmp/data".into(), json: false });
        let cli = parse("journal verify --dir /tmp/data --json").unwrap();
        assert_eq!(cli.command, Command::JournalVerify { dir: "/tmp/data".into(), json: true });
        assert!(parse("journal").is_err());
        assert!(parse("journal frobnicate /tmp/data").is_err());
        assert!(parse("journal verify").is_err());
    }

    #[test]
    fn scenario_run_is_a_subcommand() {
        let cli = parse("scenario run scenarios/robustness.json").unwrap();
        assert_eq!(
            cli.command,
            Command::ScenarioRun {
                path: "scenarios/robustness.json".into(),
                seed: 0,
                variants: 4,
                max: None,
                dump_dir: None,
                no_shrink: false,
                json: false,
            }
        );
        let cli = parse(
            "scenario run scenarios --seed 9 --variants 2 --max 240 \
             --dump-dir /tmp/repros --no-shrink --json",
        )
        .unwrap();
        assert_eq!(
            cli.command,
            Command::ScenarioRun {
                path: "scenarios".into(),
                seed: 9,
                variants: 2,
                max: Some(240),
                dump_dir: Some("/tmp/repros".into()),
                no_shrink: true,
                json: true,
            }
        );
        assert!(parse("scenario").is_err());
        assert!(parse("scenario walk x").is_err());
        assert!(parse("scenario run").is_err());
        assert!(parse("scenario run p --seed nope").is_err());
    }

    #[test]
    fn mutate_top_k_serving_flag() {
        let cli =
            parse("mutate --dataset d --add A->B --algorithm ppr --source A --top-k 3").unwrap();
        match cli.command {
            Command::Mutate(m) => assert_eq!(m.top_k, Some(3)),
            other => panic!("unexpected {other:?}"),
        }
        // --top-k without the before/after query would be dead weight.
        assert!(parse("mutate --dataset d --add A->B --top-k 3").is_err());
    }

    #[test]
    fn lint_parses_root_baseline_and_json() {
        let cli = parse("lint").unwrap();
        assert_eq!(cli.command, Command::Lint { root: ".".into(), baseline: None, json: false });
        let cli = parse("lint /work/repo --baseline debt.tsv --json").unwrap();
        assert_eq!(
            cli.command,
            Command::Lint {
                root: "/work/repo".into(),
                baseline: Some("debt.tsv".into()),
                json: true,
            }
        );
        assert!(parse("lint . --bogus v").is_err());
    }

    #[test]
    fn errors() {
        assert!(parse("").is_err());
        assert!(parse("frobnicate").is_err());
        assert!(parse("run --algorithm x").is_err()); // missing dataset
        assert!(parse("run --dataset d --algorithm a --top nope").is_err());
        assert!(parse("stats").is_err());
        assert!(parse("stats --dataset d --bogus v").is_err());
        assert!(parse("run --dataset").is_err()); // dangling value
        assert!(parse("convert --input a").is_err());
    }
}
