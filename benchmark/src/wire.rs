//! The load generator: a closed loop over keep-alive connections, one
//! client thread per connection, each waiting for a reply before it sends
//! its next request (callers of an RPC service wait for replies, so a slow
//! server receives less load — stated, not hidden).
//!
//! Requests are rendered to bytes one slice ahead, outside every timed
//! window. Latency is the time from the first byte written to the last
//! byte of the reply read; parsing and checking the reply happen after the
//! clock stops but inside the slice, as a real client's would.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::Instant;

use trod_core::json::Json;

use crate::gen::{Class, ConnGen, Request};
use crate::spans::Span;
use crate::sys;

/// One keep-alive connection speaking pre-rendered HTTP.
pub struct WireClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
    body: Vec<u8>,
}

impl WireClient {
    pub fn connect(addr: &str) -> io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(WireClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
            body: Vec::new(),
        })
    }

    /// Sends one rendered request and reads the whole reply; returns the
    /// `(start, end)` of the exchange. The reply body is in
    /// [`WireClient::body`] until the next call.
    pub fn round_trip(&mut self, request: &[u8]) -> io::Result<(Instant, Instant)> {
        let start = Instant::now();
        self.writer.write_all(request)?;
        let mut content_length = None;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let line = self.line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let len = content_length
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no content-length"))?;
        self.body.resize(len, 0);
        self.reader.read_exact(&mut self.body)?;
        Ok((start, Instant::now()))
    }

    pub fn body(&self) -> &[u8] {
        &self.body
    }
}

/// Checks one reply body against the request that caused it.
fn check_reply(request: &Request, id: u64, body: &[u8]) -> Result<(), Failure> {
    let text = std::str::from_utf8(body).map_err(|e| Failure::fatal(e.to_string()))?;
    let doc = Json::parse(text).map_err(|e| Failure::fatal(e.to_string()))?;
    if let Some(error) = doc.get("error") {
        let retryable = error
            .get("data")
            .and_then(|d| d.get("retryable"))
            .and_then(Json::as_bool)
            .unwrap_or(false);
        return Err(Failure {
            detail: format!("{}: {error}", request.kind),
            retryable,
        });
    }
    if doc.get("id").and_then(Json::as_u64) != Some(id) {
        return Err(Failure::fatal(format!(
            "{}: reply id is not {id}",
            request.kind
        )));
    }
    let result = doc
        .get("result")
        .ok_or_else(|| Failure::fatal(format!("{}: no result", request.kind)))?;
    (request.check)(result).map_err(Failure::fatal)
}

/// Why a request counts as failed.
#[derive(Debug)]
pub struct Failure {
    pub detail: String,
    /// The server marked the error retryable: a transaction abort.
    pub retryable: bool,
}

impl Failure {
    fn fatal(detail: String) -> Failure {
        Failure {
            detail,
            retryable: false,
        }
    }
}

/// One answered request, as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: &'static str,
    pub class: Class,
    pub slice: u32,
    pub latency_ns: u64,
}

/// What one connection's thread hands back.
pub struct ConnReport {
    pub gen: Box<dyn ConnGen>,
    pub samples: Vec<Sample>,
    /// One `wire_call` span per request, when harness tracing is on.
    pub spans: Vec<Span>,
    /// Traced transactions the requests of each slice ran.
    pub txns_per_slice: Vec<u64>,
    pub failed: usize,
    pub aborts: usize,
    /// The first few failures, for the error message.
    pub failures: Vec<String>,
}

/// Wall and CPU time of one slice, taken by the coordinating thread
/// between the barrier that releases the clients and the one they meet at
/// when all are done.
#[derive(Debug, Clone, Copy)]
pub struct SliceTiming {
    pub requests: usize,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// The yardstick's time right before the slice started.
    pub yardstick_ns: u64,
}

pub struct DriveReport {
    pub conns: Vec<ConnReport>,
    pub slices: Vec<SliceTiming>,
}

/// Drives one connection per generator through `plan` — the number of
/// requests each connection sends in each slice. After every slice, with all
/// clients parked, `after_slice(index)` runs on the calling thread (the
/// harness drains the tracer or ingests there; no timer does). With
/// `trace` (an epoch to count from), every client also records a
/// `wire_call` span per request.
pub fn drive(
    clients: Vec<WireClient>,
    gens: Vec<Box<dyn ConnGen>>,
    plan: &[usize],
    trace: Option<Instant>,
    mut after_slice: impl FnMut(usize),
) -> io::Result<DriveReport> {
    assert_eq!(clients.len(), gens.len(), "one connection per generator");
    let barrier = Barrier::new(gens.len() + 1);
    let conns = gens.len() as u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = gens
            .into_iter()
            .zip(clients)
            .enumerate()
            .map(|(conn, (gen, client))| {
                let barrier = &barrier;
                // Request `k` of connection `c` is number `k * conns + c`
                // of the generated list, read round-robin.
                let position = move |k: u64| k * conns + conn as u64;
                scope.spawn(move || run_connection(gen, client, plan, barrier, trace, position))
            })
            .collect();
        let mut slices = Vec::with_capacity(plan.len());
        for (index, &per_conn) in plan.iter().enumerate() {
            // Rendered: every client is parked and the CPU is ours.
            barrier.wait();
            let yardstick_ns = sys::yardstick_ns();
            barrier.wait();
            let (wall, cpu) = (Instant::now(), sys::cpu_seconds());
            barrier.wait();
            slices.push(SliceTiming {
                requests: per_conn * handles.len(),
                wall_s: wall.elapsed().as_secs_f64(),
                cpu_s: sys::cpu_seconds() - cpu,
                yardstick_ns,
            });
            after_slice(index);
        }
        let conns = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(DriveReport { conns, slices })
    })
}

fn run_connection(
    mut gen: Box<dyn ConnGen>,
    mut client: WireClient,
    plan: &[usize],
    barrier: &Barrier,
    trace: Option<Instant>,
    position: impl Fn(u64) -> u64,
) -> io::Result<ConnReport> {
    let mut samples = Vec::with_capacity(plan.iter().sum());
    let mut spans = Vec::new();
    let mut txns_per_slice = Vec::with_capacity(plan.len());
    let (mut failed, mut aborts, mut failures) = (0, 0, Vec::new());
    let mut next_id = 1u64;
    // A transport error must not leave the other threads waiting at a
    // barrier forever: remember it, keep meeting the barriers, report it
    // at the end.
    let mut broken: Option<io::Error> = None;
    for (slice, &count) in plan.iter().enumerate() {
        let rendered: Vec<(u64, Request, Vec<u8>)> = (0..count)
            .map(|i| {
                let id = next_id + i as u64;
                let request = gen.next_request();
                let bytes = request.http_bytes(id);
                (id, request, bytes)
            })
            .collect();
        next_id += count as u64;
        txns_per_slice.push(rendered.iter().map(|(_, r, _)| r.txns).sum());
        // Rendered; the coordinator takes its yardstick; go.
        barrier.wait();
        barrier.wait();
        if broken.is_none() {
            for (id, request, bytes) in &rendered {
                let (start, end) = match client.round_trip(bytes) {
                    Ok(times) => times,
                    Err(e) => {
                        broken = Some(e);
                        break;
                    }
                };
                samples.push(Sample {
                    kind: request.kind,
                    class: request.class,
                    slice: slice as u32,
                    latency_ns: (end - start).as_nanos() as u64,
                });
                if let Some(epoch) = trace {
                    spans.push(Span::wire_call(position(id - 1), epoch, start, end));
                }
                if let Err(failure) = check_reply(request, *id, client.body()) {
                    failed += 1;
                    aborts += failure.retryable as usize;
                    if failures.len() < 5 {
                        failures.push(failure.detail);
                    }
                }
            }
        }
        barrier.wait();
    }
    match broken {
        Some(e) => Err(e),
        None => Ok(ConnReport {
            gen,
            samples,
            spans,
            txns_per_slice,
            failed,
            aborts,
            failures,
        }),
    }
}
