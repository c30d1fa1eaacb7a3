//! Polyglot replay and aligned-history retention benchmarks (PR 5).
//!
//! Three questions, all about the fork/replay spine:
//!
//! * `request_replay` — what does polyglot replay cost compared to a
//!   relational-only deployment? Both modes replay the same shop checkout
//!   workload; in `polyglot` the carts namespace exists, so the fork also
//!   reads through to it, every traced kv read is verified and every kv
//!   record re-applied (`writes_skipped == 0`).
//! * `spilled_replay` — what does replaying a request whose history was
//!   garbage-collected cost? The environment cannot be forked from live
//!   state; it is reconstructed by replaying spilled + live aligned
//!   entries into an empty fork.
//! * `retention_spill` — what does the spill hook itself add to
//!   `gc_before`? `drop` truncates the log outright; `spill` hands every
//!   truncated entry to a provenance-store retention policy first.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use trod_apps::shop;
use trod_core::Trod;
use trod_db::{row, DataType, Database, Schema};
use trod_provenance::ProvenanceStore;
use trod_runtime::{Args, Runtime};

const REQUESTS: usize = 48;
const TARGET: &str = "REQ-24";

/// A traced shop deployment that served `REQUESTS` addToCart + checkout
/// request pairs — polyglot (cart sessions in the kv store) when
/// `with_kv`.
fn shop_trod(with_kv: bool) -> Trod {
    let db = shop::shop_db();
    shop::seed_inventory(&db, 8, 1_000_000);
    let mut builder = Runtime::builder(db, shop::registry());
    if with_kv {
        builder = builder.kv(shop::shop_kv());
    }
    let trod = Trod::attach(builder.build()).expect("fresh deployment");
    for i in 0..REQUESTS {
        let customer = format!("c{i}");
        trod.runtime().handle_request_with_id(
            &format!("CART-{i}"),
            "addToCart",
            Args::new()
                .with("customer", customer.as_str())
                .with("item", "item-1"),
        );
        trod.runtime().handle_request_with_id(
            &format!("REQ-{i}"),
            "checkout",
            shop::checkout_args(&format!("O{i}"), &customer, "item-1", 1),
        );
    }
    trod.sync();
    trod
}

fn bench_request_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_path/request_replay");
    group.sample_size(20);
    for (mode, with_kv) in [("relational_only", false), ("polyglot", true)] {
        let trod = shop_trod(with_kv);
        group.bench_function(BenchmarkId::from_parameter(mode), |b| {
            b.iter(|| {
                let mut session = trod.replay(TARGET).expect("target request is traced");
                let report = session.run_to_end().expect("replay succeeds");
                assert!(report.is_faithful());
                if with_kv {
                    assert_eq!(report.writes_skipped(), 0, "polyglot replay skips nothing");
                }
                report.steps.len()
            });
        });
    }
    group.finish();
}

fn bench_spilled_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_path/spilled_replay");
    group.sample_size(20);
    // Live baseline: same deployment, fork served from live state.
    let live = shop_trod(true);
    group.bench_function(BenchmarkId::from_parameter("live_fork"), |b| {
        b.iter(|| {
            let mut session = live.replay(TARGET).expect("target request is traced");
            session.run_to_end().expect("replay succeeds").steps.len()
        });
    });
    // Spilled: everything below the watermark truncated; the environment
    // is reconstructed from the retention spill on every replay.
    let spilled = shop_trod(true);
    spilled.enable_retention();
    let db = spilled.production_db();
    db.gc_before(db.current_ts());
    assert!(spilled.provenance().spilled_count() > 0);
    group.bench_function(BenchmarkId::from_parameter("spilled_reconstruction"), |b| {
        b.iter(|| {
            let mut session = spilled.replay(TARGET).expect("spilled history covers it");
            let report = session.run_to_end().expect("replay succeeds");
            assert!(report.is_faithful());
            report.steps.len()
        });
    });
    group.finish();
}

fn bench_retention_spill(c: &mut Criterion) {
    const COMMITS: i64 = 256;
    let schema = Schema::builder()
        .column("id", DataType::Int)
        .column("v", DataType::Int)
        .primary_key(&["id"])
        .build()
        .expect("static schema");
    let populated = || {
        let db = Database::new();
        db.create_table("t", schema.clone()).expect("fresh db");
        for i in 0..COMMITS {
            let mut txn = db.begin();
            txn.insert("t", row![i, i]).expect("unique keys");
            txn.commit().expect("no contention");
        }
        db
    };

    let mut group = c.benchmark_group("replay_path/retention_spill");
    group.sample_size(20);
    for (mode, spill) in [("drop", false), ("spill", true)] {
        group.bench_function(BenchmarkId::from_parameter(mode), |b| {
            b.iter_batched(
                || {
                    let db = populated();
                    if spill {
                        db.set_retention_policy(Some(Arc::new(ProvenanceStore::new())));
                    }
                    db
                },
                |db| db.gc_before(db.current_ts()),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_request_replay,
    bench_spilled_replay,
    bench_retention_spill
);
criterion_main!(benches);
