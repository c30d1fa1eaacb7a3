//! The network front-end: a thread-per-connection HTTP/1.1 JSON-RPC
//! server over `std::net`, with a bounded connection pool and graceful
//! shutdown that drains in-flight requests and WAL group-commit waiters.
//!
//! No async runtime: the paper's debugger workflow is interactive
//! (hundreds of connections, not hundreds of thousands), and blocking
//! threads keep the replay/retroactive call stacks trivially
//! inspectable. Keep-alive connections make the per-request cost one
//! `read`/`write` pair; `TCP_NODELAY` is set on every socket so small
//! RPC responses are not Nagle-delayed.

use std::collections::HashMap;
use std::io::{self, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use trod_core::json::Json;
use trod_core::Trod;
use trod_runtime::HandlerRegistry;

use crate::error::{RpcError, DRAINING, INVALID_REQUEST, PARSE_ERROR};
use crate::http::{self, HttpRequest, Limits};
use crate::rpc;
use crate::state::ServerState;

/// Configures and launches a server around a [`Trod`] instance.
pub struct ServerBuilder {
    trod: Arc<Trod>,
    patches: HashMap<String, HandlerRegistry>,
    /// Maximum concurrently open connections; a connection over the
    /// limit receives a single retryable 503 and is closed.
    max_connections: usize,
    /// How often the background thread drains the tracer into the
    /// provenance store; `None` disables the thread (dispatch paths that
    /// need fresh provenance still sync on demand).
    sync_interval: Option<Duration>,
}

impl ServerBuilder {
    pub fn new(trod: Trod) -> Self {
        ServerBuilder::from_arc(Arc::new(trod))
    }

    pub fn from_arc(trod: Arc<Trod>) -> Self {
        ServerBuilder {
            trod,
            patches: HashMap::new(),
            max_connections: 1024,
            sync_interval: Some(Duration::from_millis(25)),
        }
    }

    /// Installs a named patched handler registry for `trod_retroactive`.
    /// The wire protocol cannot ship Rust closures, so retroactive code
    /// changes are deployed server-side and selected by name.
    pub fn patch(mut self, name: impl Into<String>, registry: HandlerRegistry) -> Self {
        self.patches.insert(name.into(), registry);
        self
    }

    pub fn max_connections(mut self, n: usize) -> Self {
        self.max_connections = n.max(1);
        self
    }

    pub fn sync_interval(mut self, interval: Option<Duration>) -> Self {
        self.sync_interval = interval;
        self
    }

    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor. Returns once the socket is listening.
    pub fn serve(self, addr: &str) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let state = Arc::new(ServerState::new(self.trod, self.patches));
        let conns: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let max_connections = self.max_connections;

        let stop_sync = Arc::new(AtomicBool::new(false));
        let sync_thread = self.sync_interval.map(|interval| {
            let state = state.clone();
            let stop = stop_sync.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    state.sync_provenance();
                }
            })
        });

        let acceptor = {
            let state = state.clone();
            let conns = conns.clone();
            let workers = workers.clone();
            std::thread::spawn(move || {
                let next_conn = AtomicU64::new(1);
                for stream in listener.incoming() {
                    if state.is_draining() {
                        break;
                    }
                    let stream = match stream {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    let _ = stream.set_nodelay(true);
                    if conns.lock().len() >= max_connections {
                        reject_overloaded(stream, max_connections);
                        continue;
                    }
                    let id = next_conn.fetch_add(1, Ordering::Relaxed);
                    if let Ok(clone) = stream.try_clone() {
                        conns.lock().insert(id, clone);
                    }
                    let state = state.clone();
                    let conns_for_worker = conns.clone();
                    let handle = std::thread::spawn(move || {
                        serve_connection(&state, stream, &Limits::default());
                        conns_for_worker.lock().remove(&id);
                    });
                    // Join the workers whose connections have closed, so
                    // the vector is bounded by the live connections.
                    let mut workers = workers.lock();
                    let mut i = 0;
                    while i < workers.len() {
                        if workers[i].is_finished() {
                            let _ = workers.swap_remove(i).join();
                        } else {
                            i += 1;
                        }
                    }
                    workers.push(handle);
                }
            })
        };

        Ok(ServerHandle {
            addr: local_addr,
            state,
            acceptor: Some(acceptor),
            workers,
            conns,
            sync_thread,
            stop_sync,
        })
    }
}

/// What graceful shutdown observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Requests answered over the server's lifetime (including RPC
    /// errors, excluding drain rejections).
    pub requests_served: u64,
    /// Requests answered with the typed 503 during the drain window.
    pub draining_rejects: u64,
    /// WAL records appended / made durable by the time shutdown
    /// completed; equal iff every group-commit waiter was drained.
    pub wal_appended: u64,
    pub wal_durable: u64,
}

/// A running server. Dropping the handle leaves the server running
/// (threads are detached from the handle's point of view); call
/// [`ServerHandle::shutdown`] for an orderly stop.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    acceptor: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
    sync_thread: Option<JoinHandle<()>>,
    stop_sync: Arc<AtomicBool>,
}

impl ServerHandle {
    /// The bound address, e.g. `127.0.0.1:41733`.
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// The shared state (for tests and embedding).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Connection workers not yet joined: the live connections plus any
    /// that closed since the last accept.
    pub fn worker_count(&self) -> usize {
        self.workers.lock().len()
    }

    /// Flips the server into drain mode without stopping it: every
    /// request received from now on is answered with the typed,
    /// retryable 503. Used by tests and by operators who want a drain
    /// window before the final [`ServerHandle::shutdown`].
    pub fn begin_drain(&self) {
        self.state.begin_drain();
    }

    /// Graceful shutdown: stop accepting, answer new requests with the
    /// typed 503, wait for in-flight requests to finish, close idle
    /// connections, join every worker, then drain WAL group-commit
    /// waiters so everything appended is durable.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.state.begin_drain();

        // Wake the acceptor if it is blocked in accept(2).
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }

        // Drain in-flight requests: wait for the count to stay at zero
        // across two consecutive checks (a request parsed just before
        // the drain flag landed may still be between read and
        // increment).
        let mut quiet = 0;
        while quiet < 2 {
            if self.state.inflight.load(Ordering::SeqCst) == 0 {
                quiet += 1;
            } else {
                quiet = 0;
            }
            std::thread::sleep(Duration::from_millis(2));
        }

        // Idle keep-alive connections are blocked in read(2) with no
        // request in flight; unblock them so their workers exit.
        for (_, stream) in self.conns.lock().drain() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.workers.lock());
        for handle in handles {
            let _ = handle.join();
        }

        self.stop_sync.store(true, Ordering::Relaxed);
        if let Some(sync) = self.sync_thread.take() {
            let _ = sync.join();
        }
        // Everything the drained requests appended must be durable
        // before we report the server down.
        let (wal_appended, wal_durable) = match self.state.trod.production_db().wal() {
            Some(wal) => {
                let appended = wal.appended();
                let _ = wal.sync_to(appended);
                (appended, wal.durable())
            }
            None => (0, 0),
        };
        self.state.sync_provenance();

        ShutdownReport {
            requests_served: self.state.served.load(Ordering::SeqCst),
            draining_rejects: self.state.rejected_draining.load(Ordering::SeqCst),
            wal_appended,
            wal_durable,
        }
    }
}

/// Answers a connection rejected by the pool bound with one retryable
/// 503, without admitting it to a worker thread.
fn reject_overloaded(mut stream: TcpStream, max_connections: usize) {
    let err = RpcError::new(
        DRAINING,
        "overloaded",
        format!("connection pool exhausted ({max_connections} connections); retry"),
    );
    let body = rpc_response(Json::Null, Err(err)).to_string();
    let _ = http::write_response(&mut stream, 503, body.as_bytes(), false);
}

/// Builds the JSON-RPC response envelope.
fn rpc_response(id: Json, result: Result<Json, RpcError>) -> Json {
    let mut fields = vec![
        ("jsonrpc".to_string(), Json::str("2.0")),
        ("id".to_string(), id),
    ];
    match result {
        Ok(value) => fields.push(("result".to_string(), value)),
        Err(e) => fields.push(("error".to_string(), e.to_json())),
    }
    Json::Object(fields)
}

/// Serves one connection until close, error, or drain.
fn serve_connection(state: &ServerState, stream: TcpStream, limits: &Limits) {
    let mut reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        let request = match http::read_request(&mut reader, limits) {
            Ok(Some(req)) => req,
            // Clean close, peer reset, or force-shutdown during drain.
            Ok(None) => break,
            Err(http::HttpError::Io(_)) => break,
            Err(e) => {
                // The bytes were not HTTP; answer once and close.
                let err = RpcError::new(PARSE_ERROR, "bad_http", e.to_string());
                let body = rpc_response(Json::Null, Err(err)).to_string();
                let _ = http::write_response(&mut writer, 400, body.as_bytes(), false);
                break;
            }
        };

        state.inflight.fetch_add(1, Ordering::SeqCst);
        let draining = state.is_draining();
        let (status, body, served) = if draining {
            let body = rpc_response(Json::Null, Err(RpcError::draining())).to_string();
            (503, body, false)
        } else {
            handle_http(state, &request)
        };
        let keep_alive = !request.wants_close() && !draining;
        let write_ok =
            http::write_response(&mut writer, status, body.as_bytes(), keep_alive).is_ok();
        if served {
            state.served.fetch_add(1, Ordering::SeqCst);
        } else if draining {
            state.rejected_draining.fetch_add(1, Ordering::SeqCst);
        }
        state.inflight.fetch_sub(1, Ordering::SeqCst);
        if !keep_alive || !write_ok {
            break;
        }
    }
    let _ = writer.flush();
}

/// Routes one HTTP request; returns `(status, body, served)`.
fn handle_http(state: &ServerState, request: &HttpRequest) -> (u16, String, bool) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => {
            let body = Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("draining", Json::Bool(state.is_draining())),
            ]);
            (200, body.to_string(), true)
        }
        ("POST", "/rpc") => {
            let (id, result) = serve_rpc(state, &request.body);
            let status = match &result {
                Err(e) => e.http_status(),
                Ok(_) => 200,
            };
            (status, rpc_response(id, result).to_string(), true)
        }
        (_, "/rpc") | (_, "/health") => {
            let err = RpcError::new(
                INVALID_REQUEST,
                "method_not_allowed",
                format!("{} not allowed on {}", request.method, request.path),
            );
            (405, rpc_response(Json::Null, Err(err)).to_string(), true)
        }
        _ => {
            let err = RpcError::not_found("no_such_path", format!("no route {}", request.path));
            (404, rpc_response(Json::Null, Err(err)).to_string(), true)
        }
    }
}

/// Parses the JSON-RPC envelope and dispatches. Returns the request id
/// (echoed even on errors, when recoverable) and the outcome.
fn serve_rpc(state: &ServerState, body: &[u8]) -> (Json, Result<Json, RpcError>) {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => {
            return (
                Json::Null,
                Err(RpcError::new(PARSE_ERROR, "parse", "body is not UTF-8")),
            )
        }
    };
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => {
            return (
                Json::Null,
                Err(RpcError::new(PARSE_ERROR, "parse", e.to_string())),
            )
        }
    };
    let id = doc.get("id").cloned().unwrap_or(Json::Null);
    if let Json::Array(_) = doc {
        return (
            id,
            Err(RpcError::new(
                INVALID_REQUEST,
                "invalid_request",
                "batch requests are not supported",
            )),
        );
    }
    let method = match doc.get("method").and_then(Json::as_str) {
        Some(m) => m.to_string(),
        None => {
            return (
                id,
                Err(RpcError::new(
                    INVALID_REQUEST,
                    "invalid_request",
                    "missing `method`",
                )),
            )
        }
    };
    let params = doc.get("params").cloned().unwrap_or(Json::Null);
    (id, rpc::dispatch(state, &method, &params))
}
