//! Experiment E2 (paper §3.7): declarative debugging query latency as the
//! provenance database grows.
//!
//! The paper runs its debugging queries "over billions of events" in under
//! five seconds on a warehouse-scale store. This laptop-scale reproduction
//! sweeps the provenance size from 1 000 to 100 000 data events and runs
//! the paper's §3.3 query (join of Executions and ForumEvents filtered to
//! one user/forum) at each size. The event table is indexed on its
//! application columns, so the query probes `user_id` and grows with the
//! rows that match, not with the table; either way it stays far below
//! the 5-second budget.
//!
//! The `selective_join` arm holds the event table (and the two events
//! the filter matches) fixed while `Executions` grows 1 000 → 100 000:
//! the query finds the events first and reaches `Executions` by primary
//! key, so its latency must stay flat.
//!
//! Ingest maintains no index: the event table's `user_id` index is built
//! by the first query that probes it and caught up from the change log
//! after that. The `paper_q1` arms time the steady state (every query
//! after the first); `first_paper_q1` times the first query after a
//! fresh 10 000-event ingest, the index build included.

use std::cell::RefCell;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};

use trod_db::{ChangeRecord, Key, Row, Value};
use trod_provenance::ProvenanceStore;
use trod_trace::{ReadTrace, TraceEvent, TxnContext, TxnTrace};

/// Builds a provenance store holding `events` synthetic ForumEvents rows
/// (half reads, half inserts) across `events / 2` transactions.
fn provenance_with_events(events: usize) -> ProvenanceStore {
    provenance_with(events / 2, events / 2)
}

/// Builds a provenance store of `txns` transactions, the first
/// `event_txns` of which read and insert one `forum_sub` row each; the
/// rest leave an `Executions` row and no events.
fn provenance_with(txns: usize, event_txns: usize) -> ProvenanceStore {
    let schema = trod_db::Schema::builder()
        .column("sub_id", trod_db::DataType::Text)
        .column("user_id", trod_db::DataType::Text)
        .column("forum", trod_db::DataType::Text)
        .primary_key(&["sub_id"])
        .build()
        .expect("static schema");
    let store = ProvenanceStore::new();
    store
        .register_table_as("forum_sub", "ForumEvents", &schema)
        .expect("fresh store");

    for i in 0..txns {
        let user = format!("U{}", i % 500);
        let forum = format!("F{}", i % 50);
        let row = Row::from(vec![
            Value::Text(format!("S{i}")),
            Value::Text(user.clone()),
            Value::Text(forum.clone()),
        ]);
        let (reads, writes) = if i < event_txns {
            let read = ReadTrace {
                table: "forum_sub".into(),
                query: format!("Check if ({user}, {forum}) exists"),
                read_ts: i as u64,
                rows: vec![],
            };
            let key = Key::single(format!("S{i}"));
            (
                vec![read],
                vec![ChangeRecord::insert("forum_sub", key, row)],
            )
        } else {
            (Vec::new(), Vec::new())
        };
        let trace = TxnTrace {
            txn_id: i as u64 + 1,
            ctx: TxnContext::new(format!("R{i}"), "subscribeUser", "func:DB.insert"),
            timestamp: i as i64 + 1,
            snapshot_ts: i as u64,
            commit_ts: i as u64 + 1,
            committed: true,
            reads,
            writes: writes.into(),
        };
        store.ingest_event(TraceEvent::Txn(Box::new(trace)));
    }
    store
}

/// The paper's §3.3 query for the subscriptions of (U1, F1).
const PAPER_Q1: &str = "SELECT Timestamp, ReqId, HandlerName \
     FROM Executions as E, ForumEvents as F ON E.TxnId = F.TxnId \
     WHERE F.user_id = 'U1' AND F.forum = 'F1' AND F.Type = 'Insert' \
     ORDER BY Timestamp ASC";

fn bench_declarative_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("declarative_query/paper_q1");
    group.sample_size(20);
    for events in [1_000usize, 10_000, 100_000] {
        let store = provenance_with_events(events);
        group.throughput(Throughput::Elements(events as u64));
        group.bench_function(BenchmarkId::from_parameter(events), |b| {
            b.iter(|| {
                let result = store.query(PAPER_Q1).expect("query runs");
                assert!(!result.is_empty());
                result.len()
            });
        });
    }
    group.finish();
}

fn bench_first_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("declarative_query/first_paper_q1");
    group.sample_size(10);
    let events = 10_000usize;
    group.throughput(Throughput::Elements(events as u64));
    // The routine parks its store here, and the next setup drops it, so
    // no store's teardown is timed.
    let spent = RefCell::new(None);
    group.bench_function(BenchmarkId::from_parameter(events), |b| {
        b.iter_batched(
            || {
                spent.borrow_mut().take();
                provenance_with_events(events)
            },
            |store| {
                let result = store.query(PAPER_Q1).expect("query runs");
                assert!(!result.is_empty());
                *spent.borrow_mut() = Some(store);
                result.len()
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_selective_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("declarative_query/selective_join");
    group.sample_size(20);
    for executions in [1_000usize, 10_000, 100_000] {
        // 1 000 event transactions: (U1, F1) is written by two of them.
        let store = provenance_with(executions, 1_000);
        group.bench_function(BenchmarkId::from_parameter(executions), |b| {
            b.iter(|| {
                let result = store.query(PAPER_Q1).expect("query runs");
                assert_eq!(result.len(), 2);
            });
        });
    }
    group.finish();
}

fn bench_aggregation_query(c: &mut Criterion) {
    // A second common debugging query: per-handler activity ranking.
    let store = provenance_with_events(50_000);
    let mut group = c.benchmark_group("declarative_query/handler_activity");
    group.sample_size(20);
    group.bench_function("group_by_50k_events", |b| {
        b.iter(|| {
            store
                .query(
                    "SELECT HandlerName, COUNT(*) AS n FROM Executions \
                     GROUP BY HandlerName ORDER BY n DESC",
                )
                .expect("query runs")
                .len()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_declarative_query,
    bench_first_query,
    bench_selective_join,
    bench_aggregation_query
);
criterion_main!(benches);
