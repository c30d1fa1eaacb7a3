//! Experiment E5: provenance ingest throughput and privacy-operation cost.
//!
//! The paper's Tables 1–2 are populated by the always-on tracing pipeline:
//! trace events are flushed off the request path into the provenance
//! database. This benchmark measures (a) how fast the provenance store
//! ingests transaction traces (rows of Table 1 + Table 2 per second),
//! (b) whole traced requests — handler spans around their transactions,
//! shaped like the `benchmark/` workloads — at two batch sizes, so that a
//! per-event cost that grows with the batch shows side by side, plus a
//! read-only Moodle request priced per provenance *row*, and
//! (c) the cost of the §5 privacy operations — redacting one user's
//! provenance and applying a retention cutoff — as the store grows, and
//! (d) the cost of assembling the traces of one request and of one
//! two-transaction commit range, which should follow the request, not the
//! store, and (e) the work ingest defers: the first full-table query
//! after an ingest installs the `ForumEvents` rows of every read.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};

use trod_db::{row, ChangeRecord, Database, Key, Predicate, Row, Value};
use trod_kv::Session;
use trod_provenance::ProvenanceStore;
use trod_trace::{ReadTrace, TraceEvent, Tracer, TxnContext, TxnTrace};

fn forum_schema() -> trod_db::Schema {
    trod_db::Schema::builder()
        .column("sub_id", trod_db::DataType::Text)
        .column("user_id", trod_db::DataType::Text)
        .column("forum", trod_db::DataType::Text)
        .primary_key(&["sub_id"])
        .build()
        .expect("static schema")
}

/// A store over an application that has a `forum_sub` table but no
/// history: the synthetic traces below never committed there.
fn fresh_store() -> ProvenanceStore {
    let app = Database::new();
    app.create_table("forum_sub", forum_schema())
        .expect("fresh database");
    // Without it every check walks the whole table: the setup would be
    // quadratic in `txns`.
    app.create_index("forum_sub", "user_id")
        .expect("fresh table");
    let store = ProvenanceStore::new(&app);
    store
        .register_table_as("forum_sub", "ForumEvents", &forum_schema())
        .expect("fresh store");
    store
}

/// Builds `n` synthetic transaction traces (one read + one insert each).
fn synthetic_traces(n: usize) -> Vec<TraceEvent> {
    (0..n)
        .map(|i| {
            let user = format!("U{}", i % 500);
            let forum = format!("F{}", i % 50);
            TraceEvent::Txn(Box::new(TxnTrace {
                txn_id: i as u64 + 1,
                ctx: TxnContext::new(format!("R{i}"), "subscribeUser", "func:DB.insert"),
                timestamp: i as i64 + 1,
                snapshot_ts: i as u64,
                commit_ts: i as u64 + 1,
                committed: true,
                reads: vec![ReadTrace {
                    table: "forum_sub".into(),
                    query: format!("Check if ({user}, {forum}) exists"),
                    read_ts: i as u64,
                    rows: vec![],
                }],
                writes: vec![ChangeRecord::insert(
                    "forum_sub",
                    Key::single(format!("S{i}")),
                    Row::from(vec![
                        Value::Text(format!("S{i}")),
                        Value::Text(user),
                        Value::Text(forum),
                    ]),
                )]
                .into(),
            }))
        })
        .collect()
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("provenance_ingest/transactions");
    for &batch in &[100usize, 1_000, 10_000] {
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_function(BenchmarkId::from_parameter(batch), |b| {
            b.iter_batched(
                || (fresh_store(), synthetic_traces(batch)),
                |(store, events)| {
                    store.ingest(events);
                    assert_eq!(store.txn_count(), batch);
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// The shape of one traced request: `handlers` nested handler
/// invocations, the inner `txns` of which each run one transaction that
/// read `read_rows` rows and, if `inserts`, inserted one.
#[derive(Clone, Copy)]
struct Shape {
    handlers: usize,
    txns: usize,
    read_rows: usize,
    inserts: bool,
}

impl Shape {
    /// Provenance rows one request installs: a `Requests` row per
    /// handler, an `Executions` row per transaction, and a `ForumEvents`
    /// row per row read (one for a read of nothing) and per insert.
    fn rows(self) -> usize {
        self.handlers + self.txns * (1 + self.read_rows.max(1) + self.inserts as usize)
    }
}

/// One traced request of `shape`. Timestamps and transaction ids continue
/// from `clock`.
fn traced_request(req: usize, shape: Shape, clock: &mut i64, events: &mut Vec<TraceEvent>) {
    let Shape {
        handlers,
        txns,
        read_rows,
        inserts,
    } = shape;
    let mut tick = || {
        *clock += 1;
        *clock
    };
    let req_id = format!("R{req}");
    for depth in 0..handlers {
        events.push(TraceEvent::HandlerStart {
            req_id: req_id.clone(),
            handler: format!("handler{depth}"),
            parent: depth.checked_sub(1).map(|p| format!("handler{p}")),
            args: format!("{{\"customer\":{req},\"item\":{depth}}}"),
            timestamp: tick(),
        });
        if depth + txns < handlers {
            continue;
        }
        let txn_id = tick();
        let row = |i: i64| {
            let values = [format!("S{i}"), format!("U{}", i % 500), "F1".to_string()];
            let key = Key::single(values[0].clone());
            (
                key,
                Arc::new(values.into_iter().map(Value::Text).collect::<Row>()),
            )
        };
        let writes = inserts.then(|| {
            let (key, image) = row(txn_id);
            ChangeRecord::insert("forum_sub", key, image)
        });
        events.push(TraceEvent::Txn(Box::new(TxnTrace {
            txn_id: txn_id as u64,
            ctx: TxnContext::new(req_id.clone(), format!("handler{depth}"), "func:DB"),
            timestamp: txn_id,
            snapshot_ts: txn_id as u64,
            commit_ts: txn_id as u64 + 1,
            committed: true,
            reads: vec![ReadTrace {
                table: "forum_sub".into(),
                query: "subscribers of F1".into(),
                read_ts: txn_id as u64,
                rows: (0..read_rows as i64).map(row).collect(),
            }],
            writes: writes.into_iter().collect(),
        })));
    }
    for depth in (0..handlers).rev() {
        events.push(TraceEvent::HandlerEnd {
            req_id: req_id.clone(),
            handler: format!("handler{depth}"),
            output: "ok".into(),
            ok: true,
            timestamp: tick(),
        });
    }
}

/// Whole requests of one shape, at least `batch` events of them; also
/// returns how many requests that took.
fn traced_requests(batch: usize, shape: Shape) -> (Vec<TraceEvent>, usize) {
    let (mut events, mut clock, mut requests) = (Vec::new(), 0, 0);
    while events.len() < batch {
        traced_request(requests, shape, &mut clock, &mut events);
        requests += 1;
    }
    (events, requests)
}

/// Ingest cost per event of whole requests, `shop_checkout`-shaped (four
/// nested handlers, three small write transactions) and
/// `moodle_fetch`-shaped (one handler, one 100-row read set), at 1k and
/// 10k events: a close that scans what is already ingested shows as a
/// per-event time that grows with the batch.
///
/// `moodle_read` is the request `benchmark/`'s `moodle_fetch` sends nine
/// times in ten — a handler span around one 100-row read, no write — and
/// its throughput counts provenance *rows* (102 per request), so its
/// time per element is the engine's cost to install one row: the number
/// `ingest_us_per_req` on that workload is made of.
fn bench_requests(c: &mut Criterion) {
    let mut group = c.benchmark_group("provenance_ingest/requests");
    group.sample_size(10);
    let shape = |handlers, txns, read_rows, inserts| Shape {
        handlers,
        txns,
        read_rows,
        inserts,
    };
    // (name, shape, batch sizes, whether an element is a row or an event)
    let shapes = [
        (
            "shop",
            shape(4, 3, 0, true),
            &[1_000usize, 10_000][..],
            false,
        ),
        ("moodle", shape(1, 1, 100, true), &[1_000, 10_000], false),
        ("moodle_read", shape(1, 1, 100, false), &[3_600], true),
    ];
    for (name, shape, batches, per_row) in shapes {
        for &batch in batches {
            let (events, requests) = traced_requests(batch, shape);
            let elements = if per_row {
                requests * shape.rows()
            } else {
                events.len()
            };
            group.throughput(Throughput::Elements(elements as u64));
            group.bench_function(BenchmarkId::new(name, batch), |b| {
                b.iter_batched(
                    || (fresh_store(), events.clone()),
                    |(store, events)| {
                        store.ingest(events);
                        assert_eq!(store.stats().unmatched_handler_ends, 0);
                    },
                    BatchSize::SmallInput,
                );
            });
        }
    }
    group.finish();
}

fn bench_redaction(c: &mut Criterion) {
    let mut group = c.benchmark_group("provenance_ingest/redact_one_user");
    group.sample_size(20);
    for &events in &[1_000usize, 10_000] {
        group.bench_function(BenchmarkId::from_parameter(events), |b| {
            b.iter_batched(
                || {
                    let store = fresh_store();
                    store.ingest(synthetic_traces(events));
                    store
                },
                |store| {
                    // U0 owns 1/500th of all events.
                    let report = store
                        .redact_rows("forum_sub", &[("user_id", Value::Text("U0".into()))])
                        .expect("redaction");
                    assert!(report.event_rows_redacted > 0);
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_retention(c: &mut Criterion) {
    let mut group = c.benchmark_group("provenance_ingest/retention_cutoff");
    group.sample_size(20);
    for &events in &[1_000usize, 10_000] {
        group.bench_function(BenchmarkId::from_parameter(events), |b| {
            b.iter_batched(
                || {
                    let store = fresh_store();
                    store.ingest(synthetic_traces(events));
                    store
                },
                |store| {
                    // Drop the oldest half of the history.
                    let report = store.retain_since(events as i64 / 2).expect("retention");
                    assert!(report.transactions_dropped > 0);
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// `txns` traced transactions, two per request (an existence check, then
/// the insert), committed through a real session so that the
/// application's history holds their writes, and ingested. Each request
/// subscribes a user of its own, so its check reads nothing however large
/// the table grows: a request's provenance is the same size at every
/// store size.
fn traced_store(txns: usize) -> ProvenanceStore {
    let app = Database::new();
    app.create_table("forum_sub", forum_schema())
        .expect("fresh database");
    // Without it every check walks the whole table: the setup would be
    // quadratic in `txns`.
    app.create_index("forum_sub", "user_id")
        .expect("fresh table");
    let store = ProvenanceStore::new(&app);
    store
        .register_table_as("forum_sub", "ForumEvents", &forum_schema())
        .expect("fresh store");
    let session = Session::traced(app, Tracer::new());
    for i in 0..txns / 2 {
        let (req, user) = (format!("R{i}"), format!("U{i}"));
        let ctx = |function| TxnContext::new(req.as_str(), "subscribeUser", function);
        let mut check = session.begin_traced(ctx("func:isSubscribed"));
        let pred = Predicate::eq("user_id", user.as_str()).and(Predicate::eq("forum", "F1"));
        check.exists("forum_sub", &pred).expect("check");
        check.commit().expect("read-only commit");
        let mut insert = session.begin_traced(ctx("func:DB.insert"));
        insert
            .insert("forum_sub", row![format!("S{i}"), user, "F1"])
            .expect("insert");
        insert.commit().expect("commit");
        if i % 1_000 == 999 {
            store.drain_from(session.tracer().expect("traced"));
        }
    }
    store.drain_from(session.tracer().expect("traced"));
    store
}

/// Trace assembly after 1k / 10k / 100k ingested transactions: one
/// request's two traces, and the two transactions at one commit
/// timestamp (a writer, and the next request's check at that snapshot).
fn bench_assembly(c: &mut Criterion) {
    let mut group = c.benchmark_group("provenance_ingest/assembly");
    group.sample_size(20);
    for &txns in &[1_000usize, 10_000, 100_000] {
        let store = traced_store(txns);
        let target = format!("R{}", txns / 4);
        let traces = store.txns_for_request(&target);
        assert_eq!(traces.len(), 2);
        let commit_ts = traces[1].commit_ts;
        assert_eq!(store.txns_between(commit_ts - 1, commit_ts).len(), 2);
        group.bench_function(BenchmarkId::new("txns_for_request", txns), |b| {
            b.iter(|| store.txns_for_request(&target))
        });
        group.bench_function(BenchmarkId::new("txns_between", txns), |b| {
            b.iter(|| store.txns_between(commit_ts - 1, commit_ts))
        });
    }
    group.finish();
}

/// The first `SELECT COUNT(*) FROM ForumEvents` after ingesting 1,200 or
/// 3,600 `moodle_read` requests (a handler span around one 100-row read):
/// it installs every read as its 100 event rows, so its throughput counts
/// those rows. The store's drop is inside the timed region.
fn bench_materialize(c: &mut Criterion) {
    let mut group = c.benchmark_group("provenance_ingest/materialize");
    group.sample_size(10);
    let shape = Shape {
        handlers: 1,
        txns: 1,
        read_rows: 100,
        inserts: false,
    };
    for &requests in &[1_200usize, 3_600] {
        let (mut events, mut clock) = (Vec::new(), 0);
        for req in 0..requests {
            traced_request(req, shape, &mut clock, &mut events);
        }
        let rows = requests * shape.read_rows;
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_function(BenchmarkId::from_parameter(requests), |b| {
            b.iter_batched(
                || {
                    let store = fresh_store();
                    store.ingest(events.clone());
                    store
                },
                |store| {
                    let count = store.query("SELECT COUNT(*) FROM ForumEvents");
                    let count = count.expect("count").rows()[0][0].as_int();
                    assert_eq!(count, Some(rows as i64));
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ingest,
    bench_requests,
    bench_redaction,
    bench_retention,
    bench_assembly,
    bench_materialize
);
criterion_main!(benches);
