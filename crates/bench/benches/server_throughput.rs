//! Wire throughput of the HTTP/JSON-RPC front-end: point reads over N
//! concurrent keep-alive connections against a thread-per-connection
//! server (PR 8's tentpole).
//!
//! Every request is a `trod_get` of one seeded inventory row — the
//! cheapest useful call, so the measurement isolates the server stack
//! (accept → HTTP parse → dispatch → MVCC point read → serialize →
//! write) rather than handler execution. The pool of connections and
//! their worker threads persist across criterion iterations; a measured
//! round pays only for request/response cycles.
//!
//! Acceptance bar (PR 8): at ≥ 128 connections the server sustains
//! ≥ 10k requests/second. Reported as `elements_per_sec` under
//! `server_throughput/point_reads/conns_<N>`.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use trod_apps::shop;
use trod_core::json::Json;
use trod_core::Trod;
use trod_runtime::Runtime;
use trod_server::{Client, ClientError, ServerBuilder, ServerHandle};

const CONNECTION_COUNTS: [usize; 4] = [16, 64, 128, 512];
const ITEMS: usize = 256;
/// Requests per round, split across the pool — kept roughly constant so
/// every parameter point measures a similar amount of work.
const ROUND_REQUESTS: u64 = 4096;

/// A request generator for [`WirePool`]: maps `(worker index, request
/// index within the worker's round)` to a call.
type RequestGen = Arc<dyn Fn(usize, u64) -> (String, Json) + Send + Sync>;

/// A persistent pool of keep-alive connections that executes rounds of
/// requests on demand. Built for `criterion` benches: the connections
/// (and their worker threads) survive across iterations, so a measured
/// round pays only for request/response cycles, not connection setup.
struct WirePool {
    workers: Vec<std::thread::JoinHandle<Result<(), ClientError>>>,
    barrier: Arc<Barrier>,
    per_worker: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    errors: Arc<AtomicUsize>,
}

impl WirePool {
    /// Connects `conns` workers to `addr`. Every worker issues the
    /// requests `gen` produces for its index.
    fn connect(addr: &str, conns: usize, gen: RequestGen) -> Result<WirePool, ClientError> {
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
        })
    }

    /// Runs one round of `per_conn` requests on every connection
    /// concurrently; returns the wall-clock time from release to the
    /// last worker finishing.
    fn run_round(&self, per_conn: u64) -> Duration {
        self.per_worker.store(per_conn, Ordering::SeqCst);
        let started = Instant::now();
        self.barrier.wait(); // release
        self.barrier.wait(); // all done
        started.elapsed()
    }

    /// Requests that failed across all rounds so far.
    fn error_count(&self) -> usize {
        self.errors.load(Ordering::Relaxed)
    }

    /// Stops the workers and joins them, surfacing connect errors.
    fn close(self) -> Result<(), ClientError> {
        self.stop.store(true, Ordering::SeqCst);
        self.barrier.wait(); // release into the stop check
        for w in self.workers {
            w.join()
                .map_err(|_| ClientError::Protocol("pool worker panicked".into()))??;
        }
        Ok(())
    }
}

fn serve() -> ServerHandle {
    let db = shop::shop_db();
    shop::seed_inventory(&db, ITEMS, 1_000_000);
    db.create_namespace(shop::CARTS_NAMESPACE).unwrap();
    let runtime = Runtime::new(db, shop::registry());
    let trod = Trod::attach(runtime).expect("attach");
    ServerBuilder::new(trod)
        // The bench measures the read path; no traced traffic arrives,
        // so the periodic provenance sync is pure noise.
        .sync_interval(None)
        .serve("127.0.0.1:0")
        .expect("bind")
}

fn bench_point_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("server_throughput");
    group.sample_size(10);
    for &conns in &CONNECTION_COUNTS {
        let server = serve();
        let gen: RequestGen = Arc::new(move |worker, i| {
            let item = (worker as u64 * 131 + i * 7) % ITEMS as u64;
            (
                "trod_get".to_string(),
                Json::obj(vec![
                    ("table", Json::str("inventory")),
                    ("key", Json::Array(vec![Json::str(format!("item-{item}"))])),
                ]),
            )
        });
        let pool = WirePool::connect(&server.addr(), conns, gen).expect("pool");
        let per_conn = (ROUND_REQUESTS / conns as u64).max(1);

        group.throughput(Throughput::Elements(per_conn * conns as u64));
        group.bench_function(
            BenchmarkId::new("point_reads", format!("conns_{conns}")),
            |b| b.iter(|| pool.run_round(per_conn)),
        );

        assert_eq!(pool.error_count(), 0, "point reads must not fail");
        pool.close().expect("pool close");
        server.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_point_reads);
criterion_main!(benches);
