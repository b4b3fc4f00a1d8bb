//! Benchmark-side spans: every call into a crate's public entry point is
//! wrapped from *this* package's files (stamps inside the product are a
//! later change). Spans stay in memory and are written out once, at the
//! end of the traced run.

use crate::stats::median;
use relserver::{Request, Response};
use std::collections::BTreeMap;
use std::io::{BufReader, Cursor};
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    /// The op this span belongs to: spans of one op share it.
    op: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Adds a finished root span timed elsewhere (client threads keep
    /// their own stamps and hand them over after the phase).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { name, start_ns: ns(start), end_ns: ns(end), parent: None, op });
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    /// Median over ops of the time spans named `name` cover per op, in
    /// microseconds (an op with several such spans contributes their sum);
    /// 0 when no span has that name.
    pub fn per_op_us(&self, name: &str) -> f64 {
        let mut per_op: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *per_op.entry(s.op).or_default() += s.end_ns - s.start_ns;
        }
        median(&mut per_op.values().map(|&ns| ns as f64 / 1e3).collect::<Vec<_>>())
    }

    /// Writes every span as `{name, start_ns, end_ns, parent, op}`.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let spans: Vec<serde_json::Value> = self
            .spans
            .iter()
            .map(|s| {
                serde_json::json!({
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent.map(|p| p as u64),
                    "op": s.op
                })
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let text = serde_json::to_string(&spans).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// One request through the server's public entry points without a
/// socket: `Request::read_buffered` → `pool::dispatch` →
/// `Response::write_conn` into a memory sink, each under its own span.
pub fn inproc(
    stack: &crate::stack::Stack,
    tr: &mut Tracer,
    parent: SpanId,
    op: u64,
    method: &str,
    path: &str,
    body: &str,
) -> Result<Response, String> {
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nhost: relmark\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut reader = BufReader::new(Cursor::new(raw.into_bytes()));
    let request: Request = tr
        .span("parse", Some(parent), op, || Request::read_buffered(&mut reader))
        .map_err(|e| format!("parse {method} {path}: {e}"))?
        .ok_or_else(|| format!("parse {method} {path}: empty request"))?;
    let response = tr.span("dispatch", Some(parent), op, || {
        relserver::pool::dispatch(&request, &stack.engine, stack.server.serving_state())
    });
    let mut sink = Vec::with_capacity(response.body.len() + 128);
    tr.span("write", Some(parent), op, || response.write_conn(&mut sink, true))
        .map_err(|e| format!("write {method} {path}: {e}"))?;
    std::hint::black_box(&sink);
    if matches!(response.status, relserver::StatusCode::Ok | relserver::StatusCode::Accepted) {
        Ok(response)
    } else {
        Err(format!(
            "{method} {path}: {:?}: {}",
            response.status,
            String::from_utf8_lossy(&response.body)
        ))
    }
}
