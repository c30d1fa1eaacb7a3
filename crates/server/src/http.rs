//! A hand-rolled HTTP/1.1 subset: exactly what the JSON-RPC front-end
//! needs, nothing else.
//!
//! The build environment has no registry access, so there is no hyper and
//! no tokio — requests are parsed straight off a `BufRead` with hard
//! limits on line length, header count and body size, and the parser is
//! property-tested against arbitrary bytes (it must reject, never
//! panic). Supported: `GET`/`POST`, `Content-Length` bodies, keep-alive.
//! Not supported (rejected with a clear error): chunked transfer
//! encoding, HTTP/0.9/2, multiline headers.

use std::io::{self, BufRead, Write};

/// Parser limits; defaults are generous for RPC traffic while bounding
/// hostile input.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum request-line or header-line length in bytes.
    pub max_line: usize,
    /// Maximum number of headers.
    pub max_headers: usize,
    /// Maximum `Content-Length` accepted. Dump transfers ride this, so
    /// the default is large.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_line: 8 * 1024,
            max_headers: 64,
            max_body: 256 * 1024 * 1024,
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    pub method: String,
    pub path: String,
    /// Header names lower-cased at parse time; values trimmed.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// First header with this (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// True if the client asked to close the connection after this
    /// request (HTTP/1.1 defaults to keep-alive).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false)
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// Transport error (includes read timeouts, surfaced as
    /// `WouldBlock`/`TimedOut`).
    Io(io::Error),
    /// The bytes are not a well-formed request within our subset.
    Malformed(String),
    /// A limit was exceeded.
    TooLarge(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::Malformed(d) => write!(f, "malformed request: {d}"),
            HttpError::TooLarge(d) => write!(f, "request too large: {d}"),
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads one line terminated by `\n` (tolerating `\r\n`), bounded by
/// `max_line`. Returns `None` on clean EOF before any byte.
fn read_line(r: &mut impl BufRead, max_line: usize) -> Result<Option<String>, HttpError> {
    let mut buf = Vec::with_capacity(80);
    loop {
        let mut byte = [0u8; 1];
        let n = match r.read(&mut byte) {
            Ok(n) => n,
            Err(e) => return Err(HttpError::Io(e)),
        };
        if n == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::Malformed("eof mid-line".into()));
        }
        if byte[0] == b'\n' {
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            let s = String::from_utf8(buf)
                .map_err(|_| HttpError::Malformed("non-utf8 header line".into()))?;
            return Ok(Some(s));
        }
        buf.push(byte[0]);
        if buf.len() > max_line {
            return Err(HttpError::TooLarge(format!(
                "line exceeds {max_line} bytes"
            )));
        }
    }
}

/// Reads one request off the stream. `Ok(None)` means the peer closed
/// the connection cleanly between requests (normal keep-alive end).
pub fn read_request(
    r: &mut impl BufRead,
    limits: &Limits,
) -> Result<Option<HttpRequest>, HttpError> {
    let request_line = match read_line(r, limits.max_line)? {
        None => return Ok(None),
        Some(line) => line,
    };
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?;
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::Malformed(format!("bad method {method:?}")));
    }
    let path = parts
        .next()
        .filter(|p| p.starts_with('/'))
        .ok_or_else(|| HttpError::Malformed("missing request path".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing HTTP version".into()))?;
    if parts.next().is_some() {
        return Err(HttpError::Malformed("extra tokens in request line".into()));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line(r, limits.max_line)?
            .ok_or_else(|| HttpError::Malformed("eof in headers".into()))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(HttpError::TooLarge(format!(
                "more than {} headers",
                limits.max_headers
            )));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header without ':': {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed(format!("bad header name {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let req = HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body: Vec::new(),
    };
    if req.header("transfer-encoding").is_some() {
        return Err(HttpError::Malformed("chunked bodies not supported".into()));
    }
    let content_length = match req.header("content-length") {
        None => 0usize,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad content-length {v:?}")))?,
    };
    if content_length > limits.max_body {
        return Err(HttpError::TooLarge(format!(
            "body of {content_length} bytes exceeds {}",
            limits.max_body
        )));
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        io::Read::read_exact(r, &mut body).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                HttpError::Malformed("eof mid-body".into())
            } else {
                HttpError::Io(e)
            }
        })?;
    }
    Ok(Some(HttpRequest { body, ..req }))
}

/// Parses a request from a complete byte buffer (the fuzz entry point).
pub fn parse_request(bytes: &[u8]) -> Result<Option<HttpRequest>, HttpError> {
    let mut cursor = io::Cursor::new(bytes);
    read_request(&mut cursor, &Limits::default())
}

/// The canonical reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a full response with a JSON body.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    // One buffered write per response: header + body in a single syscall
    // keeps small responses in one TCP segment (with TCP_NODELAY set).
    let mut head = String::with_capacity(128);
    use std::fmt::Write as _;
    let _ = write!(
        head,
        "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        status,
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    let mut buf = Vec::with_capacity(head.len() + body.len());
    buf.extend_from_slice(head.as_bytes());
    buf.extend_from_slice(body);
    w.write_all(&buf)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parse_str(s: &str) -> Result<Option<HttpRequest>, HttpError> {
        parse_request(s.as_bytes())
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse_str(
            "POST /rpc HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\nContent-Type: application/json\r\n\r\nbody",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/rpc");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"body");
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_bare_lf_and_connection_close() {
        let req = parse_str("GET /health HTTP/1.1\nConnection: close\n\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.wants_close());
        assert!(req.body.is_empty());
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse_str("").unwrap().is_none());
    }

    #[test]
    fn rejections() {
        for bad in [
            "GET\r\n\r\n",
            "GET /x\r\n\r\n",
            "get /x HTTP/1.1\r\n\r\n",
            "GET /x HTTP/2\r\n\r\n",
            "GET x HTTP/1.1\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
            "GET /x HTTP/1.1\r\nno-colon\r\n\r\n",
            "GET /x HTTP/1.1\r\nbad name: v\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            "GET /x HTTP/1.1\r\nHost: x",
        ] {
            assert!(parse_str(bad).is_err(), "expected rejection: {bad:?}");
        }
    }

    #[test]
    fn limits_are_enforced() {
        let limits = Limits {
            max_line: 32,
            max_headers: 2,
            max_body: 8,
        };
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(100));
        assert!(matches!(
            read_request(&mut io::Cursor::new(long.as_bytes()), &limits),
            Err(HttpError::TooLarge(_))
        ));
        let many = "GET /x HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n";
        assert!(matches!(
            read_request(&mut io::Cursor::new(many.as_bytes()), &limits),
            Err(HttpError::TooLarge(_))
        ));
        let big = "POST /x HTTP/1.1\r\nContent-Length: 100\r\n\r\n";
        assert!(matches!(
            read_request(&mut io::Cursor::new(big.as_bytes()), &limits),
            Err(HttpError::TooLarge(_))
        ));
    }

    #[test]
    fn response_round_trips_shape() {
        let mut out = Vec::new();
        write_response(&mut out, 200, b"{\"ok\":true}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The parser never panics on arbitrary bytes — reject, don't die.
        #[test]
        fn parser_never_panics(bytes in prop::collection::vec(0u8..=255, 0..200)) {
            let _ = parse_request(&bytes);
        }

        /// Nor on inputs that look *almost* like real requests.
        #[test]
        fn parser_never_panics_on_near_requests(
            method in "[A-Za-z]{0,8}",
            path in "[ -~]{0,24}",
            header in "[ -~]{0,32}",
            len in 0usize..64,
            body in "[ -~]{0,32}",
        ) {
            let raw = format!("{method} {path} HTTP/1.1\r\n{header}\r\ncontent-length: {len}\r\n\r\n{body}");
            let _ = parse_request(raw.as_bytes());
        }

        /// Well-formed requests round-trip through the parser.
        #[test]
        fn well_formed_requests_parse(
            path in "[a-z/_]{1,16}",
            body in "[ -~]{0,64}",
        ) {
            let raw = format!(
                "POST /{path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            );
            let req = parse_request(raw.as_bytes()).unwrap().unwrap();
            prop_assert_eq!(req.path, format!("/{path}"));
            prop_assert_eq!(req.body, body.into_bytes());
        }
    }
}
