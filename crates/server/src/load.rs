//! Wire-driving load generation: run the trod-apps workloads (shop,
//! Moodle, MediaWiki) against a *server* over N concurrent keep-alive
//! connections, and a reusable connection pool for throughput
//! benchmarks.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use trod_core::json::Json;
use trod_core::wire;
use trod_runtime::Args;

use crate::client::{Client, ClientError};

/// Encodes handler arguments as the `args` object of `trod_invoke`.
pub fn args_to_json(args: &Args) -> Json {
    Json::Object(
        args.iter()
            .map(|(name, value)| (name.clone(), wire::value_to_json(value)))
            .collect(),
    )
}

/// What a workload run observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadReport {
    pub requests: usize,
    pub ok: usize,
    /// Requests that failed with a retryable error (conflicts under
    /// contention — expected for the hot-key workloads).
    pub retryable_failures: usize,
    /// Requests the handler itself rejected (wire kind
    /// `application_error`): the application's own outcome — an order
    /// that does not exist yet, an invariant check that caught the
    /// duplicate a race produced — delivered faithfully.
    pub application_errors: usize,
    /// Every other failure: the wire mapping or the engine is broken.
    /// Zero for the shipped workloads.
    pub fatal_failures: usize,
    pub elapsed: Duration,
}

/// Drives a `(handler, args)` workload — e.g.
/// [`trod_apps::workload::shop_workload`] — against a running server
/// over `connections` concurrent keep-alive connections, each request a
/// `trod_invoke`. Requests are dealt round-robin, so per-connection
/// streams preserve the workload's relative order.
pub fn drive_workload(
    addr: &str,
    workload: Vec<(String, Args)>,
    connections: usize,
) -> Result<LoadReport, ClientError> {
    let connections = connections.clamp(1, workload.len().max(1));
    let total = workload.len();
    let mut shards: Vec<Vec<(String, Json)>> = (0..connections).map(|_| Vec::new()).collect();
    for (i, (handler, args)) in workload.into_iter().enumerate() {
        shards[i % connections].push((handler, args_to_json(&args)));
    }

    let ok = Arc::new(AtomicUsize::new(0));
    let retryable = Arc::new(AtomicUsize::new(0));
    let application = Arc::new(AtomicUsize::new(0));
    let fatal = Arc::new(AtomicUsize::new(0));
    let started = Instant::now();
    let mut threads = Vec::with_capacity(connections);
    for shard in shards {
        let addr = addr.to_string();
        let ok = ok.clone();
        let retryable = retryable.clone();
        let application = application.clone();
        let fatal = fatal.clone();
        threads.push(std::thread::spawn(move || -> Result<(), ClientError> {
            let mut client = Client::connect(&addr)?;
            for (handler, args) in shard {
                let params = Json::obj(vec![("handler", Json::str(handler)), ("args", args)]);
                match client.call("trod_invoke", params) {
                    Ok(_) => ok.fetch_add(1, Ordering::Relaxed),
                    Err(ClientError::Rpc(f)) if f.retryable => {
                        retryable.fetch_add(1, Ordering::Relaxed)
                    }
                    Err(ClientError::Rpc(f)) if f.kind == "application_error" => {
                        application.fetch_add(1, Ordering::Relaxed)
                    }
                    Err(ClientError::Rpc(_)) => fatal.fetch_add(1, Ordering::Relaxed),
                    Err(e) => return Err(e),
                };
            }
            Ok(())
        }));
    }
    for t in threads {
        t.join()
            .map_err(|_| ClientError::Protocol("load worker panicked".into()))??;
    }
    Ok(LoadReport {
        requests: total,
        ok: ok.load(Ordering::Relaxed),
        retryable_failures: retryable.load(Ordering::Relaxed),
        application_errors: application.load(Ordering::Relaxed),
        fatal_failures: fatal.load(Ordering::Relaxed),
        elapsed: started.elapsed(),
    })
}

/// A request generator for [`WirePool`]: maps `(worker index, request
/// index within the worker's round)` to a call.
pub type RequestGen = Arc<dyn Fn(usize, u64) -> (String, Json) + Send + Sync>;

/// A persistent pool of keep-alive connections that executes rounds of
/// requests on demand. Built for `criterion` benches: the connections
/// (and their worker threads) survive across iterations, so a measured
/// round pays only for request/response cycles, not connection setup.
pub struct WirePool {
    workers: Vec<std::thread::JoinHandle<Result<(), ClientError>>>,
    barrier: Arc<Barrier>,
    per_worker: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    errors: Arc<AtomicUsize>,
    conns: usize,
}

impl WirePool {
    /// Connects `conns` workers to `addr`. Every worker issues the
    /// requests `gen` produces for its index.
    pub fn connect(addr: &str, conns: usize, gen: RequestGen) -> Result<WirePool, ClientError> {
        let conns = conns.max(1);
        let barrier = Arc::new(Barrier::new(conns + 1));
        let per_worker = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let errors = Arc::new(AtomicUsize::new(0));
        let mut workers = Vec::with_capacity(conns);
        for worker_idx in 0..conns {
            let addr = addr.to_string();
            let barrier = barrier.clone();
            let per_worker = per_worker.clone();
            let stop = stop.clone();
            let errors = errors.clone();
            let gen = gen.clone();
            workers.push(std::thread::spawn(move || -> Result<(), ClientError> {
                // A failed connect must still participate in the
                // barriers, or every round would deadlock; the error
                // surfaces from `close()`.
                let mut client = Client::connect(&addr);
                loop {
                    barrier.wait(); // round start (or stop)
                    if stop.load(Ordering::SeqCst) {
                        return client.map(|_| ());
                    }
                    let n = per_worker.load(Ordering::SeqCst);
                    match client.as_mut() {
                        Ok(client) => {
                            for i in 0..n {
                                let (method, params) = gen(worker_idx, i);
                                if client.call(&method, params).is_err() {
                                    errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        Err(_) => {
                            errors.fetch_add(n as usize, Ordering::Relaxed);
                        }
                    }
                    barrier.wait(); // round done
                }
            }));
        }
        Ok(WirePool {
            workers,
            barrier,
            per_worker,
            stop,
            errors,
            conns,
        })
    }

    pub fn connections(&self) -> usize {
        self.conns
    }

    /// Runs one round of `per_conn` requests on every connection
    /// concurrently; returns the wall-clock time from release to the
    /// last worker finishing.
    pub fn run_round(&self, per_conn: u64) -> Duration {
        self.per_worker.store(per_conn, Ordering::SeqCst);
        let started = Instant::now();
        self.barrier.wait(); // release
        self.barrier.wait(); // all done
        started.elapsed()
    }

    /// Requests that failed across all rounds so far.
    pub fn error_count(&self) -> usize {
        self.errors.load(Ordering::Relaxed)
    }

    /// Stops the workers and joins them, surfacing connect errors.
    pub fn close(self) -> Result<(), ClientError> {
        self.stop.store(true, Ordering::SeqCst);
        self.barrier.wait(); // release into the stop check
        for w in self.workers {
            w.join()
                .map_err(|_| ClientError::Protocol("pool worker panicked".into()))??;
        }
        Ok(())
    }
}
