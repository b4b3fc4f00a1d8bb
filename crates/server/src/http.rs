//! Minimal HTTP/1.1 request parsing and response serialization.
//!
//! Supports exactly what the demo's API needs: GET/POST/DELETE, path +
//! query string, `Content-Length`-framed bodies, keep-alive connection
//! reuse, and JSON responses. Not a general-purpose HTTP implementation —
//! requests the parser does not understand produce `400 Bad Request`
//! (among them a header line that is not `name: value` — no colon, an
//! empty name, whitespace before the colon, or an obs-fold continuation —
//! any `Transfer-Encoding` header, and two `Content-Length` headers that
//! disagree, so a body is never mistaken for a request; two `Host`
//! headers, or none in an HTTP/1.1 request), and
//! oversized headers or bodies produce `413 Payload Too Large` before the
//! payload is buffered (so one client cannot balloon a worker's memory).

use std::collections::HashMap;
use std::io::{BufRead, Read, Write};

/// Maximum accepted body size (1 MiB) — uploads beyond this are rejected.
pub const MAX_BODY: usize = 1 << 20;

/// Maximum accepted size of the request line + headers (16 KiB). The
/// reader never buffers more than this before giving up, so a client
/// streaming an endless header line cannot grow worker memory.
pub const MAX_HEADER_BYTES: usize = 16 << 10;

/// A request-parsing failure, carrying the HTTP status the connection
/// should answer with: `400` for malformed requests, `413` for requests
/// that exceed [`MAX_HEADER_BYTES`] / [`MAX_BODY`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// Status to respond with.
    pub status: StatusCode,
    /// Human-readable cause (returned in the JSON error body).
    pub message: String,
}

impl HttpError {
    fn bad(message: impl Into<String>) -> HttpError {
        HttpError { status: StatusCode::BadRequest, message: message.into() }
    }

    fn too_large(message: impl Into<String>) -> HttpError {
        HttpError { status: StatusCode::PayloadTooLarge, message: message.into() }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// HTTP method subset used by the API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// GET.
    Get,
    /// POST.
    Post,
    /// DELETE (dataset edge removal).
    Delete,
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method.
    pub method: Method,
    /// Decoded path, e.g. `/api/tasks`.
    pub path: String,
    /// Raw query string (without `?`), possibly empty.
    pub query: String,
    /// Lower-cased header map.
    pub headers: HashMap<String, String>,
    /// Request body.
    pub body: Vec<u8>,
}

impl Request {
    /// Reads one request from an already-buffered stream — the keep-alive
    /// entry point: the caller owns the `BufReader` across requests so
    /// pipelined bytes survive between parses.
    ///
    /// Returns `Ok(None)` on a clean end-of-stream before any request
    /// byte (the client closed an idle keep-alive connection).
    pub fn read_buffered(reader: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
        // The request line and headers are read through a hard cap so an
        // endless header can never be buffered into memory.
        let mut limited = reader.take(MAX_HEADER_BYTES as u64);
        let mut line = String::new();
        limited
            .read_line(&mut line)
            .map_err(|e| HttpError::bad(format!("read request line: {e}")))?;
        if line.is_empty() {
            return Ok(None);
        }
        if !line.ends_with('\n') && limited.limit() == 0 {
            return Err(HttpError::too_large(format!(
                "request line exceeds the {MAX_HEADER_BYTES}-byte header limit"
            )));
        }
        let mut parts = line.split_whitespace();
        let method = match parts.next() {
            Some("GET") => Method::Get,
            Some("POST") => Method::Post,
            Some("DELETE") => Method::Delete,
            Some(other) => return Err(HttpError::bad(format!("unsupported method {other}"))),
            None => return Err(HttpError::bad("empty request line")),
        };
        let target = parts.next().ok_or_else(|| HttpError::bad("missing request target"))?;
        let version = parts
            .next()
            .filter(|v| v.starts_with("HTTP/1."))
            .ok_or_else(|| HttpError::bad("not HTTP/1.x"))?;
        // Only HTTP/1.0 may omit `Host` (RFC 9112 §3.2).
        let needs_host = version != "HTTP/1.0";
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (target.to_string(), String::new()),
        };

        let mut headers: HashMap<String, String> = HashMap::new();
        loop {
            let mut h = String::new();
            limited.read_line(&mut h).map_err(|e| HttpError::bad(format!("read header: {e}")))?;
            if !h.ends_with('\n') {
                return Err(if limited.limit() == 0 {
                    HttpError::too_large(format!(
                        "headers exceed the {MAX_HEADER_BYTES}-byte limit"
                    ))
                } else {
                    HttpError::bad("truncated headers")
                });
            }
            // A line that starts with whitespace is an obs-fold
            // continuation (or junk): refused, since reading it as a
            // header of its own could frame the body (RFC 9112 §5.2).
            if h.starts_with([' ', '\t']) {
                return Err(HttpError::bad("header line starts with whitespace (obs-fold)"));
            }
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            // `name: value`, with a non-empty name and no whitespace
            // before the colon (RFC 9112 §5.1).
            let (k, v) = match h.split_once(':') {
                Some((k, v)) if !k.is_empty() && !k.ends_with([' ', '\t']) => (k, v),
                _ => return Err(HttpError::bad("malformed header line (expected name: value)")),
            };
            let (k, v) = (k.to_ascii_lowercase(), v.trim().to_string());
            // Bodies are framed by `Content-Length` alone. A request
            // framed any other way is refused, not read as empty: its
            // body would otherwise be parsed as the next request.
            if k == "transfer-encoding" {
                return Err(HttpError::bad(format!(
                    "unsupported transfer-encoding header ({v}): frame the body with content-length"
                )));
            }
            if let Some(first) = headers.get(&k).filter(|f| k == "content-length" && **f != v) {
                return Err(HttpError::bad(format!(
                    "conflicting content-length headers ({first} and {v})"
                )));
            }
            // One `Host` names the target (RFC 9112 §3.2): a second line
            // is refused, not allowed to replace the first.
            if k == "host" && headers.contains_key("host") {
                return Err(HttpError::bad("more than one host header"));
            }
            // `Connection` is a comma-separated option list, and repeated
            // lines extend it (RFC 9110 §5.3): a later line must not hide
            // an earlier `close`.
            match headers.get_mut(&k) {
                Some(list) if k == "connection" => {
                    list.push_str(", ");
                    list.push_str(&v);
                }
                _ => {
                    headers.insert(k, v);
                }
            }
        }

        if needs_host && !headers.contains_key("host") {
            return Err(HttpError::bad(format!("{version} request without a host header")));
        }

        let len: usize = headers
            .get("content-length")
            .map(|v| v.parse().map_err(|_| HttpError::bad("bad content-length")))
            .transpose()?
            .unwrap_or(0);
        if len > MAX_BODY {
            return Err(HttpError::too_large(format!(
                "body of {len} bytes exceeds the {MAX_BODY}-byte limit"
            )));
        }
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body).map_err(|e| HttpError::bad(format!("read body: {e}")))?;

        Ok(Some(Request { method, path: percent_decode(&path), query, headers, body }))
    }

    /// Body as UTF-8.
    pub fn body_str(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|e| format!("body not UTF-8: {e}"))
    }

    /// Splits the path into non-empty segments.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }

    /// Whether the client asked to close the connection after this
    /// request: any `Connection` option is `close`, in any case and on any
    /// of the header's lines (RFC 9112 §9.6). HTTP/1.1 defaults to
    /// keep-alive.
    pub fn wants_close(&self) -> bool {
        self.headers
            .get("connection")
            .is_some_and(|v| v.split(',').any(|o| o.trim().eq_ignore_ascii_case("close")))
    }
}

/// Decodes `%xx` escapes (dataset/source labels contain spaces etc.) and
/// `+` as a space. A `%` not followed by two hex digits stays literal.
/// The digits are read as bytes, so a `%` before a multi-byte character
/// never slices the string off a char boundary.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if let Some(&[hi, lo]) = bytes.get(i + 1..i + 3) {
                if let (Some(hi), Some(lo)) = (hex_digit(hi), hex_digit(lo)) {
                    out.push(hi << 4 | lo);
                    i += 3;
                    continue;
                }
            }
        }
        out.push(if bytes[i] == b'+' { b' ' } else { bytes[i] });
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The value of one ASCII hex digit.
fn hex_digit(b: u8) -> Option<u8> {
    (b as char).to_digit(16).map(|d| d as u8)
}

/// Response status subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusCode {
    /// 200.
    Ok,
    /// 202 (task accepted).
    Accepted,
    /// 400.
    BadRequest,
    /// 404.
    NotFound,
    /// 405.
    MethodNotAllowed,
    /// 413 (request headers or body exceed the configured limits).
    PayloadTooLarge,
    /// 429 (admission queue or expensive lane full — retry later).
    TooManyRequests,
    /// 500.
    InternalError,
    /// 503 (storage degraded — mutations rejected, reads still serve).
    ServiceUnavailable,
}

impl StatusCode {
    fn line(self) -> &'static str {
        match self {
            StatusCode::Ok => "200 OK",
            StatusCode::Accepted => "202 Accepted",
            StatusCode::BadRequest => "400 Bad Request",
            StatusCode::NotFound => "404 Not Found",
            StatusCode::MethodNotAllowed => "405 Method Not Allowed",
            StatusCode::PayloadTooLarge => "413 Payload Too Large",
            StatusCode::TooManyRequests => "429 Too Many Requests",
            StatusCode::InternalError => "500 Internal Server Error",
            StatusCode::ServiceUnavailable => "503 Service Unavailable",
        }
    }
}

/// An outgoing response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: StatusCode,
    /// Content type.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Extra response headers (e.g. `Retry-After` on a 429).
    pub headers: Vec<(&'static str, String)>,
}

impl Response {
    /// JSON response from a serializable value.
    pub fn json(status: StatusCode, value: &impl serde::Serialize) -> Response {
        let body = serde_json::to_vec(value).unwrap_or_else(|_| b"null".to_vec());
        Response { status, content_type: "application/json", body, headers: Vec::new() }
    }

    /// JSON error payload `{"error": msg}`.
    pub fn error(status: StatusCode, msg: impl Into<String>) -> Response {
        #[derive(serde::Serialize)]
        struct Err1 {
            error: String,
        }
        Response::json(status, &Err1 { error: msg.into() })
    }

    /// Plain-text response.
    pub fn text(status: StatusCode, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            headers: Vec::new(),
        }
    }

    /// Adds a response header.
    pub fn header(mut self, name: &'static str, value: impl ToString) -> Response {
        self.headers.push((name, value.to_string()));
        self
    }

    /// The shed response: `429 Too Many Requests` with a `Retry-After`
    /// hint (seconds), sent when the admission queue or a concurrency
    /// lane is full.
    pub fn overloaded(msg: impl Into<String>, retry_after_secs: u64) -> Response {
        Response::error(StatusCode::TooManyRequests, msg).header("retry-after", retry_after_secs)
    }

    /// The degraded-storage response: `503 Service Unavailable` with a
    /// typed JSON body and a `Retry-After` hint, sent when a mutation
    /// hits a dataset whose durable store is failing (reads keep
    /// serving; only writes bounce).
    pub fn unavailable(msg: impl Into<String>, retry_after_secs: u64) -> Response {
        #[derive(serde::Serialize)]
        struct Degraded {
            error: String,
            degraded: bool,
            retry_after_secs: u64,
        }
        Response::json(
            StatusCode::ServiceUnavailable,
            &Degraded { error: msg.into(), degraded: true, retry_after_secs },
        )
        .header("retry-after", retry_after_secs)
    }

    /// Serializes onto a stream, closing the connection after (the
    /// one-shot path; keep-alive serving uses [`Response::write_conn`]).
    pub fn write_to(&self, stream: &mut impl Write) -> std::io::Result<()> {
        self.write_conn(stream, false)
    }

    /// Serializes onto a stream with an explicit connection disposition:
    /// `keep_alive` keeps the connection open for the next request.
    ///
    /// Head and body are rendered into one buffer that goes out in one
    /// `write_all`: on an unbuffered socket every separate write is its
    /// own syscall and, with `TCP_NODELAY`, possibly its own segment.
    pub fn write_conn(&self, stream: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        let mut wire = Vec::with_capacity(160 + self.body.len());
        write!(
            wire,
            "HTTP/1.1 {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
            self.status.line(),
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.headers {
            write!(wire, "{name}: {value}\r\n")?;
        }
        write!(wire, "connection: {}\r\n\r\n", if keep_alive { "keep-alive" } else { "close" })?;
        wire.extend_from_slice(&self.body);
        stream.write_all(&wire)?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// Parses one request through the keep-alive entry point; a clean
    /// end of stream counts as an error here.
    fn parse(raw: &str) -> Result<Request, HttpError> {
        let mut reader = Cursor::new(raw.as_bytes().to_vec());
        Request::read_buffered(&mut reader)?.ok_or_else(|| HttpError::bad("no request"))
    }

    #[test]
    fn parses_get() {
        let r = parse("GET /api/datasets?kind=wiki HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.path, "/api/datasets");
        assert_eq!(r.query, "kind=wiki");
        assert_eq!(r.segments(), vec!["api", "datasets"]);
        assert_eq!(r.headers.get("host").map(String::as_str), Some("x"));
    }

    #[test]
    fn parses_post_with_body() {
        let body = r#"{"a":1}"#;
        let raw = format!(
            "POST /api/tasks HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let r = parse(&raw).unwrap();
        assert_eq!(r.method, Method::Post);
        assert_eq!(r.body_str().unwrap(), body);
    }

    #[test]
    fn percent_decoding_in_path() {
        let r = parse("GET /api/datasets/Fake%20news HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.path, "/api/datasets/Fake news");
        assert_eq!(percent_decode("a+b%2Fc"), "a b/c");
        assert_eq!(percent_decode("100%"), "100%");
    }

    #[test]
    fn percent_decoding_leaves_incomplete_escapes_literal() {
        // A `%` and one hex digit before a two-byte character: the escape
        // is incomplete, and the character must not be split.
        assert_eq!(percent_decode("%aé"), "%aé");
        assert_eq!(percent_decode("/api/datasets/%aé"), "/api/datasets/%aé");
        assert_eq!(percent_decode("%é"), "%é");
        // Trailing `%` and `%` plus one digit.
        assert_eq!(percent_decode("x%"), "x%");
        assert_eq!(percent_decode("x%4"), "x%4");
        // Non-hex digits, and a sign that integer parsing would accept.
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("%+1"), "% 1");
        // Both cases of hex digits decode; a decoded escape may itself
        // be part of a multi-byte character.
        assert_eq!(percent_decode("%C3%A9%c3%a9"), "éé");
    }

    #[test]
    fn parses_a_path_with_an_incomplete_escape_before_a_multibyte_char() {
        let r = parse("GET /api/datasets/%aé HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.segments(), vec!["api", "datasets", "%aé"]);
    }

    #[test]
    fn parses_delete() {
        let r = parse("DELETE /api/datasets/d/edges HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, Method::Delete);
        assert_eq!(r.segments(), vec!["api", "datasets", "d", "edges"]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("PATCH /x HTTP/1.1\r\n\r\n").is_err());
        assert!(parse("\r\n").is_err());
        assert!(parse("GET /x\r\n\r\n").is_err());
        assert!(parse("GET /x SMTP\r\n\r\n").is_err());
        assert!(parse("POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: zebra\r\n\r\n").is_err());
    }

    #[test]
    fn rejects_bodies_not_framed_by_one_content_length() {
        for raw in [
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: 3\r\ntransfer-encoding: chunked\r\n\r\nabc",
            "GET /x HTTP/1.1\r\nTRANSFER-ENCODING: identity\r\n\r\n",
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err.status, StatusCode::BadRequest, "{raw:?}");
            assert!(err.message.contains("transfer-encoding"), "{}", err.message);
        }
        let err = parse("POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nabc")
            .unwrap_err();
        assert_eq!(err.status, StatusCode::BadRequest);
        assert!(err.message.contains("conflicting content-length"), "{}", err.message);
        // Repeating one value frames the body one way: accepted.
        let r = parse(
            "POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\nhi",
        )
        .unwrap();
        assert_eq!(r.body, b"hi");
    }

    #[test]
    fn rejects_header_lines_that_are_not_one_name_colon_value() {
        for raw in [
            "GET /x HTTP/1.1\r\nthis line has no colon\r\n\r\n",
            "GET /x HTTP/1.1\r\nX-A: 1\r\n folded continuation\r\n\r\n",
            "POST /x HTTP/1.1\r\nX-A: 1\r\n Content-Length: 5\r\n\r\nhello",
            "POST /x HTTP/1.1\r\nX-A: 1\r\n\tContent-Length: 5\r\n\r\nhello",
            "GET /x HTTP/1.1\r\n   \r\n\r\n",
            "GET /x HTTP/1.1\r\n: no name\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length : 5\r\n\r\nhello",
            "POST /x HTTP/1.1\r\nContent-Length\t: 5\r\n\r\nhello",
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err.status, StatusCode::BadRequest, "{raw:?}");
        }
        // Optional whitespace around a value is accepted and trimmed.
        let r = parse("POST /x HTTP/1.1\r\nHost: x\r\nContent-Length:2 \r\nX-Empty:\r\n\r\nhi")
            .unwrap();
        assert_eq!((r.body.as_slice(), r.headers["x-empty"].as_str()), (&b"hi"[..], ""));
    }

    #[test]
    fn an_http11_request_names_one_host() {
        for raw in [
            "GET /x HTTP/1.1\r\n\r\n",
            "GET /x HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n",
            "GET /x HTTP/1.1\r\nHost: a\r\nhost: a\r\n\r\n",
            "GET /x HTTP/1.0\r\nHost: a\r\nHOST: b\r\n\r\n",
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err.status, StatusCode::BadRequest, "{raw:?}");
            assert!(err.message.contains("host header"), "{raw:?}: {err}");
        }
        // HTTP/1.0 predates `Host`: a request without one stays legal.
        let r = parse("GET /x HTTP/1.0\r\n\r\n").unwrap();
        assert!(!r.headers.contains_key("host"));
    }

    #[test]
    fn rejects_oversized_body() {
        let raw =
            format!("POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(parse(&raw).is_err());
        // The typed path reports 413, before any body byte is buffered.
        let mut reader = Cursor::new(raw.into_bytes());
        let err = Request::read_buffered(&mut reader).unwrap_err();
        assert_eq!(err.status, StatusCode::PayloadTooLarge);
    }

    #[test]
    fn rejects_oversized_headers_without_buffering_them() {
        // An endless header line: only MAX_HEADER_BYTES are ever read.
        let mut raw = b"GET /x HTTP/1.1\r\nx-junk: ".to_vec();
        raw.extend(vec![b'a'; MAX_HEADER_BYTES * 2]);
        let mut reader = Cursor::new(raw);
        let err = Request::read_buffered(&mut reader).unwrap_err();
        assert_eq!(err.status, StatusCode::PayloadTooLarge);
        // A single oversized request line is also refused.
        let mut raw = b"GET /".to_vec();
        raw.extend(vec![b'x'; MAX_HEADER_BYTES * 2]);
        let mut reader = Cursor::new(raw);
        let err = Request::read_buffered(&mut reader).unwrap_err();
        assert_eq!(err.status, StatusCode::PayloadTooLarge);
    }

    #[test]
    fn buffered_reads_parse_sequential_requests() {
        let raw = "GET /a HTTP/1.1\r\nHost: x\r\n\r\n\
                   POST /b HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nhi\
                   GET /c HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
        let mut reader = Cursor::new(raw.as_bytes().to_vec());
        let a = Request::read_buffered(&mut reader).unwrap().unwrap();
        assert_eq!(a.path, "/a");
        assert!(!a.wants_close());
        let b = Request::read_buffered(&mut reader).unwrap().unwrap();
        assert_eq!(b.path, "/b");
        assert_eq!(b.body_str().unwrap(), "hi");
        let c = Request::read_buffered(&mut reader).unwrap().unwrap();
        assert_eq!(c.path, "/c");
        assert!(c.wants_close());
        // Clean end-of-stream: no request, no error.
        assert!(Request::read_buffered(&mut reader).unwrap().is_none());
    }

    #[test]
    fn a_close_option_anywhere_in_connection_closes() {
        let wants_close = |headers: &str| {
            parse(&format!("GET /a HTTP/1.1\r\nHost: x\r\n{headers}\r\n")).unwrap().wants_close()
        };
        assert!(wants_close("Connection: close\r\nConnection: keep-alive\r\n"));
        assert!(wants_close("Connection: keep-alive\r\nConnection: CLOSE\r\n"));
        assert!(wants_close("Connection: keep-alive, close\r\n"));
        assert!(wants_close("connection: Upgrade ,Close \r\n"));
        assert!(!wants_close("Connection: keep-alive\r\nConnection: upgrade\r\n"));
        assert!(!wants_close("Connection: closed, keep-alive\r\n"));
        assert!(!parse("GET /a HTTP/1.1\r\nHost: close\r\n\r\n").unwrap().wants_close());
    }

    #[test]
    fn keep_alive_and_retry_after_serialization() {
        let mut buf = Vec::new();
        Response::overloaded("try later", 2).write_conn(&mut buf, true).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("HTTP/1.1 429"));
        assert!(s.contains("retry-after: 2\r\n"));
        assert!(s.contains("connection: keep-alive\r\n"));
        let mut buf = Vec::new();
        Response::text(StatusCode::Ok, "x").write_conn(&mut buf, false).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("connection: close\r\n"));
    }

    /// A sink that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_leaves_in_one_write() {
        let responses = [
            Response::json(StatusCode::Ok, &serde_json::json!({"status": "ok"})),
            Response::overloaded("busy", 1),
            Response::unavailable("storage degraded", 8),
            Response::text(StatusCode::Ok, ""),
        ];
        for response in &responses {
            for keep_alive in [true, false] {
                let mut sink = CountingWriter::default();
                response.write_conn(&mut sink, keep_alive).unwrap();
                assert_eq!(sink.writes, 1, "{:?}", String::from_utf8_lossy(&sink.bytes));
                assert!(sink.bytes.ends_with(&response.body));
            }
            let mut sink = CountingWriter::default();
            response.write_to(&mut sink).unwrap();
            assert_eq!(sink.writes, 1);
        }
    }

    #[test]
    fn unavailable_serialization() {
        let mut buf = Vec::new();
        Response::unavailable("storage degraded", 8).write_conn(&mut buf, true).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("HTTP/1.1 503 Service Unavailable"));
        assert!(s.contains("retry-after: 8\r\n"));
        assert!(s.contains(r#""degraded":true"#));
        assert!(s.contains(r#""retry_after_secs":8"#));
    }

    #[test]
    fn truncated_body_errors() {
        let raw = "POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\nabc";
        assert!(parse(raw).is_err());
    }

    #[test]
    fn response_serialization() {
        let mut buf = Vec::new();
        Response::text(StatusCode::Ok, "hi").write_to(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("content-length: 2"));
        assert!(s.ends_with("hi"));
    }

    #[test]
    fn json_and_error_responses() {
        let mut buf = Vec::new();
        Response::error(StatusCode::NotFound, "nope").write_to(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("HTTP/1.1 404"));
        assert!(s.contains(r#"{"error":"nope"}"#));
    }
}
