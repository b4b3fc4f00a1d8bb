//! The system under test, booted in-process exactly as `relrank serve`
//! boots it, plus the process-level gauges the end-to-end metrics read.

use relengine::Scheduler;
use relgraph::DirectedGraph;
use relserver::server::ServerHandle;
use relserver::{ApiServer, ServingConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Input sizes. `Full` is what `BENCHMARK.json` measures; `Smoke` exists
/// so the schema test and a quick sanity run finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    /// Node count of the big generated graph ([`BIG`]). 64k nodes give
    /// ≈0.94M edges and 8.6 MB of CSR: more than twice the host's 4 MiB
    /// L2, while one `edit_refresh` op (whose cost is linear in the edge
    /// count) stays short enough to yield well over 100 samples a window.
    pub fn big_nodes(self) -> u32 {
        match self {
            Scale::Full => 64_000,
            Scale::Smoke => 8_000,
        }
    }

    /// Node count of the graph `compare` uploads. 2k nodes (a 270 KB edge
    /// list) sit inside the 1.6k–4.4k range of the catalog graphs the op
    /// pairs it with, and keep the upload — whose JSON decoding is
    /// quadratic in the body length today — to about a second of set-up.
    pub fn upload_nodes(self) -> u32 {
        match self {
            Scale::Full => 2_000,
            Scale::Smoke => 1_000,
        }
    }
}

/// Dataset id the big generated graph is registered under.
pub const BIG: &str = "wiki-big";

/// Hubs of every generated wikilink graph (node ids `0..HUBS`); sources
/// are drawn from the non-hub nodes.
pub const HUBS: u32 = 50;

/// The wikilink graph every generated input is: 200 nodes per community,
/// 50 hubs, the generator's default degree and reciprocity (so, unlike a
/// preferential-attachment DAG, it has cycles for CycleRank to find).
pub fn wikilink(nodes: u32, seed: u64) -> DirectedGraph {
    let cfg = reldata::wikilink::WikilinkConfig {
        nodes,
        hubs: HUBS,
        communities: (nodes / 200).max(1),
        ..Default::default()
    };
    reldata::wikilink::generate(&cfg, seed)
}

/// The `POST /api/datasets` body uploading `graph` under `name` as an
/// edge list.
pub fn upload_body(name: &str, graph: &DirectedGraph) -> Result<String, String> {
    let content = serde_json::to_string(&relformats::edgelist::write(graph));
    let content = content.map_err(|e| e.to_string())?;
    Ok(format!(r#"{{"name":"{name}","format":"edgelist","content":{content}}}"#))
}

/// Scheduler + HTTP server on an ephemeral loopback port.
pub struct Stack {
    pub engine: Arc<Scheduler>,
    pub server: ServerHandle,
}

impl Stack {
    /// `Scheduler::builder()` defaults (2 solver workers, result cache
    /// 256), `ServingConfig::auto`, `127.0.0.1:0` — the `relrank serve`
    /// boot sequence. With `data_dir` the scheduler is durable and boot
    /// recovers whatever the directory holds.
    pub fn boot(data_dir: Option<&Path>) -> Result<Stack, String> {
        let mut builder = Scheduler::builder();
        if let Some(dir) = data_dir {
            builder = builder.data_dir(dir);
        }
        let engine = Arc::new(builder.try_build().map_err(|e| format!("scheduler boot: {e}"))?);
        let config = ServingConfig::auto(engine.worker_count());
        let server = ApiServer::bind_with("127.0.0.1:0", Arc::clone(&engine), config)
            .map_err(|e| format!("bind: {e}"))?
            .spawn();
        Ok(Stack { engine, server })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The sizes actually in effect, for `results.json`.
    pub fn describe(&self) -> serde_json::Value {
        let c = self.server.serving_state().config();
        serde_json::json!({
            "solver_workers": self.engine.worker_count(),
            "result_cache_capacity": self.engine.cache_stats().capacity,
            "http_workers": c.workers,
            "queue_depth": c.queue_depth,
            "max_expensive": c.max_expensive,
            "keep_alive_ms": c.keep_alive.as_millis() as u64
        })
    }
}

/// `relstore::graph_digest` as the hex string `results.json` records, so
/// two runs can prove they measured the same inputs.
pub fn digest_hex(graph: &DirectedGraph, version: u64) -> String {
    format!("{:016x}", relstore::graph_digest(graph, version))
}

// ------------------------------------------------------------ scratch dirs

/// `benchmark/out`: results, traces and scratch data dirs. Inside the
/// checkout by construction (the manifest dir is where cargo built us).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory under `benchmark/out/tmp`, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Result<TempDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir().join("tmp").join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// -------------------------------------------------------- process gauges

/// User + system CPU time of this process (all threads) in milliseconds,
/// from `/proc/self/stat` fields 14 and 15. Linux reports them in clock
/// ticks of 1/100 s.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis.
    let after = stat.rsplit_once(") ").map(|(_, rest)| rest).unwrap_or("");
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    (utime + stime) * 10.0
}

fn status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set (`VmRSS`) in bytes.
pub fn rss_bytes() -> f64 {
    status_kb("VmRSS:") * 1024.0
}

// ------------------------------------------------------------ seeded picks

/// SplitMix64 finalizer: the stateless hash every op stream derives its
/// choices from, so op `i` is the same op in every phase and every run
/// with the same seed.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded permutation of `lo..hi` (Fisher–Yates over [`mix`]).
pub fn permutation(lo: u32, hi: u32, seed: u64) -> Vec<u32> {
    let mut v: Vec<u32> = (lo..hi).collect();
    for i in (1..v.len()).rev() {
        let j =
            (mix(seed ^ (i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d)) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}
