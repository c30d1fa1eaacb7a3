//! Polyglot replay benchmarks, above and below the GC floor.
//!
//! Two questions, both about the fork/replay spine:
//!
//! * `request_replay` — what does polyglot replay cost compared to a
//!   relational-only deployment? Both modes replay the same shop checkout
//!   workload; in `polyglot` the carts namespace exists, so the fork also
//!   reads through to it, every traced kv read is verified and every kv
//!   record re-applied (`writes_skipped == 0`).
//! * `spilled_replay` — what does replaying a request whose history was
//!   garbage-collected cost? `live_fork` replays with the history still
//!   in memory; in `spilled_reconstruction` GC truncated it, and the
//!   environment at the request's snapshot is rebuilt from the durable
//!   log (an in-memory `MemDir` disk, no checkpoint) on every replay.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use trod_apps::shop;
use trod_core::Trod;
use trod_db::{Database, MemDir, WalOptions};
use trod_runtime::{Args, Runtime};

const REQUESTS: usize = 48;
const TARGET: &str = "REQ-24";

/// A traced shop deployment over `db` that served `REQUESTS` addToCart +
/// checkout request pairs — polyglot (cart sessions in the kv store) when
/// `with_kv`.
fn shop_trod_over(db: Database, with_kv: bool) -> Trod {
    shop::create_schema(&db);
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

/// [`shop_trod_over`] an in-memory database.
fn shop_trod(with_kv: bool) -> Trod {
    shop_trod_over(Database::new(), with_kv)
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
    // Everything below the watermark truncated; the environment is
    // rebuilt from the durable log on every replay.
    let disk = Arc::new(MemDir::new());
    let db = Database::create_durable_in(disk, WalOptions::default()).expect("fresh log");
    let logged = shop_trod_over(db, true);
    let db = logged.production_db();
    db.gc_before(db.current_ts());
    assert_eq!(db.log_len(), 0, "the whole history is below the floor");
    group.bench_function(BenchmarkId::from_parameter("spilled_reconstruction"), |b| {
        b.iter(|| {
            let mut session = logged.replay(TARGET).expect("the log covers it");
            let report = session.run_to_end().expect("replay succeeds");
            assert!(report.is_faithful());
            report.steps.len()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_request_replay, bench_spilled_replay);
criterion_main!(benches);
