//! A keep-alive HTTP/1.1 client: one connection, one request in flight.
//!
//! Deliberately minimal so the client's share of an op stays small and
//! constant: the response buffer is reused, nothing is parsed beyond the
//! status line, `content-length` and `connection`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long one response may take before the op counts as failed.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    request: Vec<u8>,
    line: String,
    body: Vec<u8>,
    /// Set when the last exchange failed before any response byte arrived
    /// (the server closed an idle keep-alive connection): only then is a
    /// resend safe for a non-idempotent request.
    stale: bool,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            request: Vec::new(),
            line: String::new(),
            body: Vec::new(),
            stale: false,
        }
    }

    fn connect(&self) -> Result<BufReader<TcpStream>, String> {
        let s = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        s.set_read_timeout(Some(RESPONSE_TIMEOUT)).map_err(|e| format!("read timeout: {e}"))?;
        s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        Ok(BufReader::new(s))
    }

    /// Sends one request and returns `(status, body)`. The body borrows
    /// the client's buffer until the next request. A connection the server
    /// closed while idle (keep-alive window) is reopened once.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, &[u8]), String> {
        self.request.clear();
        write!(
            self.request,
            "{method} {path} HTTP/1.1\r\nhost: relmark\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .map_err(|e| e.to_string())?;
        let reused = self.conn.is_some();
        let mut conn = match self.conn.take() {
            Some(c) => c,
            None => self.connect()?,
        };
        let status = match self.exchange(&mut conn) {
            Ok(s) => s,
            Err(_) if reused && self.stale => {
                conn = self.connect()?;
                self.exchange(&mut conn)?
            }
            Err(e) => return Err(e),
        };
        if let Some(keep) = status.1.then_some(conn) {
            self.conn = Some(keep);
        }
        Ok((status.0, &self.body))
    }

    /// Writes the staged request and reads one response into `self.body`.
    /// Returns `(status, keep_alive)`.
    fn exchange(&mut self, conn: &mut BufReader<TcpStream>) -> Result<(u16, bool), String> {
        self.stale = true;
        conn.get_mut().write_all(&self.request).map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match conn.read_line(&mut self.line) {
            Ok(0) => return Err("connection closed before the status line".into()),
            Ok(_) => self.stale = false,
            Err(e) => {
                self.stale = e.kind() == std::io::ErrorKind::ConnectionReset;
                return Err(format!("status line: {e}"));
            }
        }
        let status: u16 = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad status line {:?}", self.line))?;
        let mut keep_alive = true;
        let mut len = 0usize;
        loop {
            self.line.clear();
            conn.read_line(&mut self.line).map_err(|e| format!("header: {e}"))?;
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = value.trim().parse().map_err(|_| format!("bad length {value:?}"))?;
                } else if name.eq_ignore_ascii_case("connection") {
                    keep_alive = !value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        self.body.resize(len, 0);
        conn.read_exact(&mut self.body).map_err(|e| format!("body: {e}"))?;
        Ok((status, keep_alive))
    }

    pub fn post(&mut self, path: &str, body: &str) -> Result<(u16, &[u8]), String> {
        self.send("POST", path, body)
    }

    pub fn get(&mut self, path: &str) -> Result<(u16, &[u8]), String> {
        self.send("GET", path, "")
    }
}

/// `Ok(body)` for a 200/202, `Err` (with the body) otherwise: a shed
/// (`429`), a degraded store (`503`) or any other refusal fails the op.
pub fn expect_ok<'a>(what: &str, (status, body): (u16, &'a [u8])) -> Result<&'a [u8], String> {
    if status == 200 || status == 202 {
        Ok(body)
    } else {
        Err(format!("{what}: HTTP {status}: {}", String::from_utf8_lossy(body)))
    }
}

/// The raw JSON text of top-level field `name` in `body`, found by
/// bracket matching (string-aware) instead of a full parse — the hot
/// workload compares a 100-entry `top` array per response and must not
/// spend its window building value trees.
pub fn json_field<'a>(body: &'a [u8], name: &str) -> Option<&'a [u8]> {
    let key = format!("\"{name}\":");
    let start = body.windows(key.len()).position(|w| w == key.as_bytes())? + key.len();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, &b) in body[start..].iter().enumerate() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            if !in_string && depth == 0 {
                return Some(&body[start..=start + i]);
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'[' | b'{' => depth += 1,
            b']' | b'}' if depth == 0 => return Some(&body[start..start + i]),
            b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&body[start..=start + i]);
                }
            }
            b',' if depth == 0 => return Some(&body[start..start + i]),
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::json_field;

    #[test]
    fn json_field_extracts_raw_values() {
        let body = br#"{"a":1,"top":[["x]\"",0.5],["y",0.25]],"s":"q,\"}","z":true}"#;
        assert_eq!(json_field(body, "a"), Some(&b"1"[..]));
        assert_eq!(json_field(body, "top"), Some(&br#"[["x]\"",0.5],["y",0.25]]"#[..]));
        assert_eq!(json_field(body, "s"), Some(&br#""q,\"}""#[..]));
        assert_eq!(json_field(body, "z"), Some(&b"true"[..]));
        assert_eq!(json_field(body, "missing"), None);
    }
}
