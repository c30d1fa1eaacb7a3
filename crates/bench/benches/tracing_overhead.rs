//! Experiment E1 (paper §3.7): always-on tracing overhead.
//!
//! The paper reports <100 µs of tracing work per request, which is a
//! relative overhead of <15 % against an in-memory store (VoltDB) and
//! negligible against an on-disk store (Postgres). This benchmark measures
//! the per-request latency of the shop checkout workflow with tracing
//! enabled vs disabled, against an in-memory database (`in_memory`) and
//! a durable one whose log fsyncs take 500 µs off-CPU (`on_disk`,
//! `trod_bench::durable_db`: each of the checkout's three write
//! transactions waits for its group fsync), plus the raw cost of the
//! trace buffer itself.

use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use trod_apps::shop;
use trod_bench::durable_db;
use trod_db::Database;
use trod_runtime::Runtime;
use trod_trace::Tracer;

fn runtime_with(new: fn() -> Database, tracing: bool) -> Runtime {
    let db = new();
    shop::create_schema(&db);
    shop::seed_inventory(&db, 64, i64::MAX / 2);
    let runtime = Runtime::new(db, shop::registry());
    runtime.tracer().set_enabled(tracing);
    runtime
}

fn bench_request_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracing_overhead/checkout_request");
    let storages = [
        ("in_memory", Database::new as fn() -> Database),
        ("on_disk", durable_db),
    ];
    for (storage, new) in storages {
        for (mode, tracing) in [("untraced", false), ("traced", true)] {
            let runtime = runtime_with(new, tracing);
            let counter = AtomicU64::new(0);
            group.bench_function(BenchmarkId::new(storage, mode), |b| {
                b.iter(|| {
                    let n = counter.fetch_add(1, Ordering::Relaxed);
                    let order = format!("order-{storage}-{mode}-{n}");
                    let result = runtime.handle_request(
                        "checkout",
                        shop::checkout_args(&order, "bench-user", &format!("item-{}", n % 64), 1),
                    );
                    assert!(result.is_ok(), "{:?}", result.output);
                    result.duration_micros
                });
            });
            // Keep the trace buffer from growing without bound between
            // criterion samples.
            runtime.tracer().drain();
        }
    }
    group.finish();
}

fn bench_buffer_only(c: &mut Criterion) {
    // The paper's "<100 µs per request" claim is about the tracing work
    // itself; measure the cost of recording one handler-start/handler-end
    // pair plus one transaction-sized event batch.
    let tracer = Tracer::new();
    let mut group = c.benchmark_group("tracing_overhead/buffer_append");
    group.bench_function("handler_span", |b| {
        b.iter(|| {
            let start = tracer.handler_start("R1", "checkout", None, "order=1|item=3");
            tracer.handler_end("R1", "checkout", start, "ok", true);
        });
    });
    group.finish();
    tracer.drain();
}

criterion_group!(benches, bench_request_latency, bench_buffer_only);
criterion_main!(benches);
