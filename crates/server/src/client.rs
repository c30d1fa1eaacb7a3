//! A minimal blocking JSON-RPC client over one keep-alive connection.
//!
//! This is the reference wire consumer: the `fork_from_instance`
//! puller, the benchmarks and the integration tests all speak to the
//! server through it. Errors keep the server's retryable-vs-fatal
//! split: [`ClientError::Rpc`] carries the typed failure, and
//! [`ClientError::is_retryable`] implements the one retry rule the
//! protocol promises.

use std::io::{self, BufReader};
use std::net::TcpStream;

use trod_core::json::Json;

use crate::http::Limits;

/// A typed RPC failure, decoded from the server's `error` member.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcFailure {
    pub code: i64,
    pub message: String,
    pub kind: String,
    pub retryable: bool,
    /// The full `error.data` object, for details beyond kind/retryable.
    pub data: Json,
}

impl std::fmt::Display for RpcFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rpc error {} ({}): {}",
            self.code, self.kind, self.message
        )
    }
}

/// Why a call failed.
#[derive(Debug)]
pub enum ClientError {
    Io(io::Error),
    /// The response was not valid HTTP + JSON-RPC.
    Protocol(String),
    /// The server answered with a typed RPC error.
    Rpc(RpcFailure),
}

impl ClientError {
    /// True if retrying the same call may succeed: transport drops and
    /// RPC errors the server marked retryable (conflicts, drain).
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Io(_) => true,
            ClientError::Protocol(_) => false,
            ClientError::Rpc(f) => f.retryable,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(d) => write!(f, "protocol: {d}"),
            ClientError::Rpc(e) => write!(f, "{e}"),
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One keep-alive connection to a trod server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    limits: Limits,
    next_id: u64,
}

impl Client {
    /// Connects with `TCP_NODELAY` (small request/response pairs must
    /// not wait out Nagle + delayed-ACK).
    pub fn connect(addr: &str) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
            limits: Limits::default(),
            next_id: 1,
        })
    }

    /// Issues one call and decodes the response. `params` is typically a
    /// `Json::Object`.
    pub fn call(&mut self, method: &str, params: Json) -> Result<Json, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let envelope = Json::obj(vec![
            ("jsonrpc", Json::str("2.0")),
            ("id", Json::from(id)),
            ("method", Json::str(method)),
            ("params", params),
        ]);
        self.post("/rpc", envelope.to_string().as_bytes(), id)
    }

    /// `GET /health`.
    pub fn health(&mut self) -> Result<Json, ClientError> {
        let request = b"GET /health HTTP/1.1\r\nhost: trod\r\n\r\n";
        io::Write::write_all(&mut self.writer, request)?;
        io::Write::flush(&mut self.writer)?;
        let (status, body) = self.read_response()?;
        if status != 200 {
            return Err(ClientError::Protocol(format!("health returned {status}")));
        }
        Json::parse(&body).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    fn post(&mut self, path: &str, body: &[u8], id: u64) -> Result<Json, ClientError> {
        let head = format!(
            "POST {path} HTTP/1.1\r\nhost: trod\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let mut buf = Vec::with_capacity(head.len() + body.len());
        buf.extend_from_slice(head.as_bytes());
        buf.extend_from_slice(body);
        io::Write::write_all(&mut self.writer, &buf)?;
        io::Write::flush(&mut self.writer)?;
        let (_status, text) = self.read_response()?;
        // The JSON-RPC envelope, not the HTTP status, is authoritative:
        // typed errors ride 200 (and the drain error rides 503).
        let doc = Json::parse(&text).map_err(|e| ClientError::Protocol(e.to_string()))?;
        if let Some(err) = doc.get("error") {
            let data = err.get("data").cloned().unwrap_or(Json::Null);
            return Err(ClientError::Rpc(RpcFailure {
                code: err.get("code").and_then(Json::as_i64).unwrap_or(0),
                message: err
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                kind: data
                    .get("kind")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                retryable: data
                    .get("retryable")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
                data,
            }));
        }
        match doc.get("id").and_then(Json::as_u64) {
            Some(got) if got == id => {}
            // `/health` and error paths use id null; for calls the echo
            // must match.
            _ => {
                return Err(ClientError::Protocol(format!(
                    "response id does not match request id {id}"
                )))
            }
        }
        doc.get("result")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("response has neither result nor error".into()))
    }

    /// Reads one HTTP response; returns `(status, body)`.
    fn read_response(&mut self) -> Result<(u16, String), ClientError> {
        use std::io::BufRead;
        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line)? == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("bad status line {status_line:?}")))?;
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(ClientError::Protocol("eof in response headers".into()));
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| ClientError::Protocol("bad content-length".into()))?;
                }
            }
        }
        if content_length > self.limits.max_body {
            return Err(ClientError::Protocol(format!(
                "response body of {content_length} bytes exceeds limit"
            )));
        }
        let mut body = vec![0u8; content_length];
        io::Read::read_exact(&mut self.reader, &mut body)?;
        String::from_utf8(body)
            .map(|text| (status, text))
            .map_err(|_| ClientError::Protocol("response body is not UTF-8".into()))
    }
}
