//! Experiment E6 (paper §5, "Handling Multiple Data Stores"): the cost of
//! cross-data-store transactions and of tracing them.
//!
//! The ablation compares, for the same logical work (insert one order row
//! and update one session entry):
//!
//! * a relational-only transaction (baseline),
//! * a cross-store transaction spanning the relational and key-value
//!   stores (the aligned-commit protocol: validate, relational commit,
//!   key-value install, aligned-log append),
//! * the same cross-store transaction with TROD provenance tracing on.
//!
//! The expected shape mirrors §3.7: the cross-store protocol adds a modest
//! constant cost over the relational baseline, and always-on tracing adds
//! a small fraction on top of that.

use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, criterion_main, Criterion};

use trod_db::{row, DataType, Database, Schema};
use trod_kv::Session;
use trod_trace::{Tracer, TxnContext};

fn orders_db() -> Database {
    let db = Database::new();
    db.create_table(
        "orders",
        Schema::builder()
            .column("id", DataType::Int)
            .column("customer", DataType::Text)
            .column("item", DataType::Text)
            .primary_key(&["id"])
            .build()
            .expect("static schema"),
    )
    .expect("fresh database");
    db
}

/// The orders table plus the `sessions` namespace, in one database.
fn orders_and_sessions_db() -> Database {
    let db = orders_db();
    db.create_namespace("sessions").expect("fresh namespace");
    db
}

fn bench_cross_store_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("multistore/commit");

    // Baseline: relational-only transaction.
    {
        let db = orders_db();
        let counter = AtomicU64::new(0);
        group.bench_function("relational_only", |b| {
            b.iter(|| {
                let n = counter.fetch_add(1, Ordering::Relaxed) as i64;
                let mut txn = db.begin();
                txn.insert("orders", row![n, "bench", "widget"])
                    .expect("insert");
                txn.commit().expect("commit")
            });
        });
    }

    // Cross-store, untraced.
    {
        let cross = Session::new(orders_and_sessions_db());
        let counter = AtomicU64::new(0);
        group.bench_function("cross_store", |b| {
            b.iter(|| {
                let n = counter.fetch_add(1, Ordering::Relaxed) as i64;
                let mut txn = cross.begin();
                txn.insert("orders", row![n, "bench", "widget"])
                    .expect("insert");
                txn.kv_put("sessions", &format!("cart:{}", n % 512), "checked-out")
                    .expect("put");
                txn.commit().expect("commit")
            });
        });
    }

    // Cross-store with TROD tracing.
    {
        let tracer = Tracer::new();
        let cross = Session::traced(orders_and_sessions_db(), tracer.clone());
        let counter = AtomicU64::new(0);
        group.bench_function("cross_store_traced", |b| {
            b.iter(|| {
                let n = counter.fetch_add(1, Ordering::Relaxed) as i64;
                let mut txn =
                    cross.begin_traced(TxnContext::new(format!("R{n}"), "checkout", "func:bench"));
                txn.insert("orders", row![n, "bench", "widget"])
                    .expect("insert");
                txn.kv_put("sessions", &format!("cart:{}", n % 512), "checked-out")
                    .expect("put");
                txn.commit().expect("commit")
            });
            // Do not let the trace buffer grow unboundedly between samples.
            tracer.drain();
        });
    }

    group.finish();
}

fn bench_kv_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("multistore/kv_read");
    let cross = Session::new(orders_and_sessions_db());
    // Pre-populate 10k session keys with several versions each.
    for round in 0..4 {
        let mut txn = cross.begin();
        for i in 0..10_000 {
            txn.kv_put("sessions", &format!("cart:{i}"), &format!("v{round}"))
                .expect("put");
        }
        txn.commit().expect("commit");
    }

    let counter = AtomicU64::new(0);
    group.bench_function("latest", |b| {
        b.iter(|| {
            let n = counter.fetch_add(1, Ordering::Relaxed) % 10_000;
            cross
                .kv()
                .get_latest("sessions", &format!("cart:{n}"))
                .expect("read")
        });
    });
    let snapshot = cross.database().current_ts() / 2;
    group.bench_function("as_of_midpoint", |b| {
        b.iter(|| {
            let n = counter.fetch_add(1, Ordering::Relaxed) % 10_000;
            cross
                .kv()
                .get_as_of("sessions", &format!("cart:{n}"), snapshot)
                .expect("read")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_cross_store_commit, bench_kv_reads);
criterion_main!(benches);
