//! Kill-and-recover: a `relrank serve --data-dir` gateway is SIGKILLed
//! after acknowledging an upload and two edits, and everything it acked
//! survives.
//!
//! The test drives the real binary over a socket, exactly as a user
//! would: upload a graph, add an edge, remove an edge, then `Child::kill`
//! (SIGKILL — no shutdown path runs). `relrank replay` must rebuild the
//! state deterministically (two runs, identical output), `relrank journal
//! verify` must pass on the files left behind, and a rebooted gateway must
//! report the same version, node and edge counts and journal
//! `last_version`. Last, the injected-ENOSPC scenario checks that a
//! journal append that fills the disk is rejected, not half-acked.
//!
//! SIGKILL leaves the page cache intact, so this checks recovery logic,
//! not fsync discipline: a power loss, which drops unsynced pages, is not
//! simulated here.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const RELRANK: &str = env!("CARGO_BIN_EXE_relrank");

/// A running gateway; dropping it SIGKILLs the process.
struct Gateway {
    child: Child,
    addr: String,
}

impl Gateway {
    /// Boots `relrank serve` on an ephemeral port over `data_dir` and
    /// reads the bound address from its `listening on` line.
    fn boot(data_dir: &Path) -> Gateway {
        let mut child = Command::new(RELRANK)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1", "--data-dir"])
            .arg(data_dir)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("relrank serve starts");
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            assert!(stderr.read_line(&mut line).expect("read stderr") > 0, "serve exited early");
            if let Some((_, rest)) = line.split_once("listening on http://") {
                break rest.split_whitespace().next().expect("bound address").to_string();
            }
        };
        // Keep draining stderr so the gateway never blocks on a full pipe.
        std::thread::spawn(move || std::io::copy(&mut stderr, &mut std::io::sink()));
        Gateway { child, addr }
    }

    /// One request on its own connection; returns the status code and body.
    fn request(&self, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(&self.addr).expect("connect");
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nhost: relrank\r\nconnection: close\r\n\
             content-length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(raw.as_bytes()).expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let status = response.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
        let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
        (status, body)
    }

    /// Sends `body` and expects a 2xx.
    fn ok(&self, method: &str, path: &str, body: &str) {
        let (status, reply) = self.request(method, path, body);
        assert!((200..300).contains(&status), "{method} {path}: {status} {reply}");
    }

    /// The dataset fields that must survive the crash:
    /// `[version, nodes, edges, persistence.last_version]`.
    fn essence(&self) -> [serde_json::Value; 4] {
        let (status, body) = self.request("GET", "/api/datasets/smoke-net/stats", "");
        assert_eq!(status, 200, "{body}");
        let stats: serde_json::Value = serde_json::from_str(&body).expect("stats JSON");
        let field = |name: &str| stats[name].clone();
        [
            field("version"),
            field("nodes"),
            field("edges"),
            stats["persistence"]["last_version"].clone(),
        ]
    }

    /// SIGKILLs the gateway and reaps it.
    fn kill(mut self) {
        self.child.kill().expect("SIGKILL");
        self.child.wait().expect("reap");
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A data directory removed when the test ends, passed or not.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `relrank` with `args`; returns stdout, or panics with stderr if
/// it exits non-zero.
fn relrank_ok(args: &[&str]) -> String {
    let out = Command::new(RELRANK).args(args).output().expect("relrank runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "relrank {args:?}: {:?}\n{stderr}", out.status.code());
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn acked_edits_survive_sigkill_and_replay_deterministically() {
    let unique = format!(
        "relrank-kill-recover-{}-{}",
        std::process::id(),
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
    );
    let data = TempDir(std::env::temp_dir().join(unique));
    let data_arg = data.0.to_str().expect("UTF-8 temp path");

    let gateway = Gateway::boot(&data.0);
    let upload =
        r#"{"name": "smoke-net", "content": "*Vertices 2\n1 \"a\"\n2 \"b\"\n*Arcs\n1 2\n2 1\n"}"#;
    gateway.ok("POST", "/api/datasets", upload);
    let add = r#"{"edges": [{"source": "b", "target": "c", "weight": 2.0}]}"#;
    gateway.ok("POST", "/api/datasets/smoke-net/edges", add);
    gateway.ok(
        "DELETE",
        "/api/datasets/smoke-net/edges",
        r#"{"edges": [{"source": "a", "target": "b"}]}"#,
    );
    let before = gateway.essence();
    assert_eq!(before[2], 2, "b->a and b->c remain: {before:?}");
    gateway.kill();

    let replay = relrank_ok(&["replay", data_arg]);
    assert_eq!(replay, relrank_ok(&["replay", data_arg]), "replay is deterministic");
    assert!(replay.contains("smoke-net"), "{replay}");
    relrank_ok(&["journal", "verify", data_arg]);

    let rebooted = Gateway::boot(&data.0);
    assert_eq!(rebooted.essence(), before, "state diverged across SIGKILL");
    rebooted.kill();

    let enospc = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/enospc-smoke.json");
    relrank_ok(&["scenario", "run", enospc, "--seed", "1", "--variants", "0"]);
}
