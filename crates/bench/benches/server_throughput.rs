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

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use trod_apps::shop;
use trod_core::json::Json;
use trod_core::Trod;
use trod_runtime::Runtime;
use trod_server::{ServerBuilder, ServerHandle, WirePool};

const CONNECTION_COUNTS: [usize; 4] = [16, 64, 128, 512];
const ITEMS: usize = 256;
/// Requests per round, split across the pool — kept roughly constant so
/// every parameter point measures a similar amount of work.
const ROUND_REQUESTS: u64 = 4096;

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
        let gen: trod_server::RequestGen = Arc::new(move |worker, i| {
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
