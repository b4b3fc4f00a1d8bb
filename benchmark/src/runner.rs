//! One workload in this process: repeated set-up, then either the timed
//! closed-loop window (end-to-end metrics, tracing off) or the traced run
//! (client phases, peeled in-process replay, counters, fixed probes).

use crate::client::{expect_ok, Client};
use crate::metrics::Figures;
use crate::probes;
use crate::stack::{cpu_ms, out_dir, peak_rss_mb, upload_body, wikilink, Scale};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::{self, Workload, CLIENT, DEPTH_SPANS, ENGINE, EXECUTE, INPROC, LEAF, QUERY};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// What one run reports: the contract's result line plus the inputs
/// `results.json` records beside it.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Figures,
    pub info: serde_json::Value,
}

/// What a window measured: its figures and the ops behind them.
struct Measured {
    figures: Figures,
    attempted: u64,
    failed: u64,
}

/// Set-ups per untraced run; `setup_s` is their median, which keeps one
/// cold page cache or a stray scheduler hiccup out of the reported figure.
const SETUP_REPEATS: usize = 3;

/// Root span of an op sent alone over HTTP between the replay depths:
/// the ledger's denominator. (`DEPTH_SPANS[CLIENT]` names the ops of the
/// concurrent client phase, which on two connections also wait for each
/// other.)
const SOLO_SPAN: &str = "solo";

/// Errors echoed to stderr per phase before the rest are only counted.
const ERRORS_SHOWN: usize = 5;

/// One answered op of a closed-loop phase.
struct Answered {
    id: u64,
    sent: Instant,
    latency: Duration,
}

/// What one closed-loop phase did.
struct Phase {
    started: Instant,
    answered: Vec<Answered>,
    attempted: u64,
    failed: u64,
    /// Phase start until the last op ended.
    wall: Duration,
}

impl Phase {
    fn latencies_ms(&self) -> Vec<f64> {
        self.answered.iter().map(|op| op.latency.as_secs_f64() * 1e3).collect()
    }

    /// Percentile `q` of the latencies within each third of `window` (an
    /// op belongs to the third it was sent in), then the median of the
    /// three: a burst of interference from the host inflates one third's
    /// tail, not the run's figure.
    fn percentile_over_thirds(&self, window: Duration, q: f64) -> f64 {
        let mut thirds: [Vec<f64>; 3] = Default::default();
        for op in &self.answered {
            let at = op.sent.duration_since(self.started).as_secs_f64() / window.as_secs_f64();
            thirds[((at * 3.0) as usize).min(2)].push(op.latency.as_secs_f64() * 1e3);
        }
        let mut figures: Vec<f64> = thirds
            .iter_mut()
            .filter(|third| !third.is_empty())
            .map(|third| percentile(third, q))
            .collect();
        median(&mut figures)
    }
}

fn op_id(conn: usize, i: u64) -> u64 {
    (conn as u64) << 40 | i
}

/// Closed loop: one thread per connection, each sending its next op only
/// after the previous one was answered, until `window` has passed. `next`
/// holds every connection's op counter across phases. A failed op (a
/// non-2xx, a shed, a timeout, a wrong answer) is counted and never
/// retried into the latency distribution. With `rss_at`, peak resident
/// memory is read when the `rss_ops`-th op is answered.
fn closed_loop(
    w: &dyn Workload,
    window: Duration,
    next: &mut [u64],
    rss_at: Option<&OnceLock<f64>>,
) -> Phase {
    let answered = AtomicU64::new(0);
    let shown = Mutex::new(0usize);
    let started = Instant::now();
    let deadline = started + window;
    let addr = w.stack().addr();
    let parts: Vec<(Vec<Answered>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = next
            .iter_mut()
            .enumerate()
            .map(|(conn, next)| {
                let (answered, shown) = (&answered, &shown);
                scope.spawn(move || {
                    let mut http = Client::new(addr);
                    let mut done = Vec::new();
                    let mut failed = 0;
                    while Instant::now() < deadline {
                        let i = *next;
                        *next += 1;
                        let sent = Instant::now();
                        match w.op(conn, i, &mut http) {
                            Ok(latency) => {
                                done.push(Answered { id: op_id(conn, i), sent, latency });
                                let nth = answered.fetch_add(1, Ordering::Relaxed) + 1;
                                if let (Some(at), true) = (rss_at, nth == w.rss_ops()) {
                                    let _ = at.set(peak_rss_mb());
                                }
                            }
                            Err(e) => {
                                failed += 1;
                                let mut shown = shown.lock().unwrap_or_else(|e| e.into_inner());
                                if *shown < ERRORS_SHOWN {
                                    *shown += 1;
                                    eprintln!("relmark: op failed: {e}");
                                }
                            }
                        }
                    }
                    (done, failed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut phase =
        Phase { started, answered: Vec::new(), attempted: 0, failed: 0, wall: started.elapsed() };
    for (done, failed) in parts {
        phase.attempted += done.len() as u64 + failed;
        phase.failed += failed;
        phase.answered.extend(done);
    }
    phase
}

pub fn run(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let setup = || workload::setup(&args.workload, args.seed, args.scale);
    let w = setup()?;
    let mut setups = vec![process_start.elapsed().as_secs_f64()];
    let info = serde_json::json!({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.scale == Scale::Smoke,
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "connections": w.connections(),
        "stack": w.stack().describe(),
        "graph_digests": w.graphs().into_iter().collect::<std::collections::BTreeMap<_, _>>()
    });
    let window = Duration::from_secs_f64(args.seconds);
    let Measured { mut figures, attempted, mut failed } =
        if args.trace { traced(w.as_ref(), args, window)? } else { timed(w.as_ref(), window) };
    let mut correct = failed == 0;
    if let Err(e) = w.finish() {
        eprintln!("relmark: post-window check failed: {e}");
        correct = false;
        failed = failed.max(1);
    }
    if !args.trace {
        // The other set-ups come after the window, each on a stack of its
        // own that is dropped again: `peak_rss_mb` above saw one stack in
        // one process, as an operator's server would.
        let repeats = if args.scale == Scale::Smoke { 1 } else { SETUP_REPEATS };
        for _ in 1..repeats {
            let started = Instant::now();
            let again = setup()?;
            setups.push(started.elapsed().as_secs_f64());
            drop(again);
        }
        figures.push(("setup_s".to_string(), median(&mut setups)));
    }
    if let Some((name, _)) = figures.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric {name} is not finite"));
    }
    Ok(Outcome { correct, attempted, failed, metrics: figures, info })
}

/// The timed window: the end-to-end metrics but `setup_s`, tracing off.
fn timed(w: &dyn Workload, window: Duration) -> Measured {
    let rss_at = OnceLock::new();
    let mut next = vec![0u64; w.connections()];
    let cpu_before = cpu_ms();
    let phase = closed_loop(w, window, &mut next, Some(&rss_at));
    let cpu = cpu_ms() - cpu_before;
    let ok = phase.answered.len() as f64;
    if ok < 100.0 {
        eprintln!("relmark: only {ok} samples in the window; percentiles need at least 100");
    }
    let figures = vec![
        ("ops_per_s".to_string(), ok / phase.wall.as_secs_f64()),
        ("lat_p50_ms".to_string(), phase.percentile_over_thirds(window, 0.50)),
        ("lat_p90_ms".to_string(), phase.percentile_over_thirds(window, 0.90)),
        ("cpu_ms_per_op".to_string(), cpu / ok.max(1.0)),
        ("peak_rss_mb".to_string(), *rss_at.get_or_init(peak_rss_mb)),
    ];
    Measured { figures, attempted: phase.attempted, failed: phase.failed }
}

/// The traced run. The window is split: an eighth each for an untraced
/// and a traced concurrent client phase, the rest for the peeled replay;
/// counters and the fixed probes follow.
fn traced(w: &dyn Workload, args: &Args, window: Duration) -> Result<Measured, String> {
    let mut tr = Tracer::new();
    let mut next = vec![0u64; w.connections()];
    let untraced = closed_loop(w, window / 8, &mut next, None);
    let client = closed_loop(w, window / 8, &mut next, None);
    for op in &client.answered {
        tr.record(DEPTH_SPANS[CLIENT], op.id, op.sent, op.sent + op.latency);
    }
    let mut attempted = untraced.attempted + client.attempted;
    let mut failed = untraced.failed + client.failed;

    // Peeled replay on connection 0's stream. Depths take turns op by op
    // (the op alone over HTTP is depth 0), shifted by one every cycle so
    // that no depth always meets the same kind of op: slow drift of the
    // host then lands on every depth alike instead of on the differences
    // between them.
    let depths = LEAF + 1;
    let until = Instant::now() + window * 3 / 4;
    let mut solo = Client::new(w.stack().addr());
    let mut round = 0;
    while round < 2 * depths || Instant::now() < until {
        let depth = (round + round / depths) % depths;
        round += 1;
        let i = next[0];
        next[0] += 1;
        attempted += 1;
        let done = if depth == CLIENT {
            let sent = Instant::now();
            w.op(0, i, &mut solo).map(|latency| tr.record(SOLO_SPAN, i, sent, sent + latency))
        } else {
            w.replay(depth, i, &mut tr)
        };
        if let Err(e) = done {
            failed += 1;
            eprintln!("relmark: op at depth {depth} failed: {e}");
        }
    }
    drop(solo);

    // A layer's self time: its depth's per-op median minus the next
    // depth's. Depths the op never reaches hold its miss twin and count
    // as zero on the path.
    let mut d: Vec<f64> = DEPTH_SPANS.iter().map(|name| tr.per_op_us(name)).collect();
    let concurrent_p50_us = std::mem::replace(&mut d[CLIENT], tr.per_op_us(SOLO_SPAN));
    let on_path = |depth: usize| if depth <= w.on_path_depth() { d[depth] } else { 0.0 };
    let p50_traced = percentile(&mut client.latencies_ms(), 0.50);
    let p50_untraced = percentile(&mut untraced.latencies_ms(), 0.50);
    let mut all = untraced.latencies_ms();
    all.extend(client.latencies_ms());
    let mut m = Figures::new();
    let mut put = |name: &str, value: f64| m.push((name.to_string(), value));
    put("client.samples", all.len() as f64);
    put("client.lat_p50_us", concurrent_p50_us);
    put("client.solo_p50_us", d[CLIENT]);
    put("client.lat_p99_ms", percentile(&mut all, 0.99));
    put("client.lat_max_ms", percentile(&mut all, 1.0));
    put("trace.overhead_ratio", p50_traced / p50_untraced);
    put("relserver.transport_us", d[CLIENT] - d[INPROC]);
    put("relserver.parse_us", tr.per_op_us("parse"));
    put("relserver.dispatch_us", tr.per_op_us("dispatch"));
    put("relserver.write_us", tr.per_op_us("write"));
    put("relserver.self_us", d[INPROC] - d[ENGINE]);
    put("relengine.submit_wait_us", d[ENGINE]);
    put("relengine.queue_self_us", d[ENGINE] - on_path(EXECUTE) / w.engine_parallelism());
    put("relengine.execute_us", d[EXECUTE]);
    put("relengine.execute_self_us", d[EXECUTE] - on_path(QUERY));
    put("relcore.query_run_us", d[QUERY]);
    put("relcore.query_self_us", d[QUERY] - d[LEAF]);
    put("ledger.unexplained_ratio", (d[CLIENT] - d[INPROC]) / d[CLIENT]);
    put("ledger.relcore_share", on_path(QUERY) / d[CLIENT]);

    // Counters, from the public stats surfaces.
    let cache = w.stack().engine.cache_stats();
    put("relengine.cache_hit_ratio", cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64);
    put("relengine.cache_evictions", cache.evictions as f64);
    put("relengine.cache_invalidations", cache.invalidations as f64);
    let mut http = Client::new(w.stack().addr());
    let mut rtt_us = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let sent = Instant::now();
        expect_ok("health", http.get("/api/health")?)?;
        rtt_us.push(sent.elapsed().as_secs_f64() * 1e6);
    }
    put("relserver.noop_rtt_us", median(&mut rtt_us));
    let stats: serde_json::Value =
        serde_json::from_slice(expect_ok("stats", http.get("/api/serving/stats")?)?)
            .map_err(|e| format!("serving stats: {e}"))?;
    let counter = |name: &str| stats[name].as_f64().unwrap_or(0.0);
    put("relserver.shed_expensive", counter("shed_expensive"));
    put("relserver.shed_queue_full", counter("shed_queue_full"));
    put(
        "relserver.keepalive_reuse_ratio",
        counter("keep_alive_reuses") / counter("requests").max(1.0),
    );
    // The upload route end to end, to stand beside `relformats.parse_upload_ms`
    // (the same edge list through the parser alone).
    let graph = wikilink(args.scale.upload_nodes(), args.seed);
    let upload = upload_body("probe-upload", &graph)?;
    let sent = Instant::now();
    expect_ok("upload", http.post("/api/datasets", &upload)?)?;
    put("relserver.upload_ms", sent.elapsed().as_secs_f64() * 1e3);
    drop(http);

    m.extend(probes::run(args.seed, args.scale)?);
    tr.write(&out_dir().join(format!("trace-{}.json", args.workload)))?;
    Ok(Measured { figures: m, attempted, failed })
}
