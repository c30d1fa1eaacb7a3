//! The ingest contract of the provenance store: what a stream of trace
//! events leaves behind depends on the stream alone — not on how it was
//! cut into `ingest` calls or chunks — and nothing on that path panics.

use std::sync::{Arc, Barrier};

use proptest::prelude::*;

use trod_db::{ChangeRecord, DataType, Key, Predicate, Row, ScanPlan, Schema, Value};
use trod_provenance::{ProvenanceStats, ProvenanceStore, RequestRecord, REDACTED_MARKER};
use trod_trace::{ReadTrace, TraceEvent, TxnContext, TxnTrace};

fn store() -> ProvenanceStore {
    let schema = Schema::builder()
        .column("id", DataType::Int)
        .column("user_id", DataType::Text)
        .primary_key(&["id"])
        .build()
        .unwrap();
    let store = ProvenanceStore::new();
    store.register_table("forum_sub", &schema).unwrap();
    store
}

fn sub_row(id: i64) -> (Key, Arc<Row>) {
    let row = Row::from(vec![Value::Int(id), Value::Text(format!("U{id}"))]);
    (Key::single(id), Arc::new(row))
}

/// A transaction of request `req` that read `rows` rows of `table` and
/// inserted one.
fn txn(txn_id: u64, req: &str, table: &str, rows: i64, timestamp: i64) -> TraceEvent {
    let (key, image) = sub_row(txn_id as i64);
    TraceEvent::Txn(Box::new(TxnTrace {
        txn_id,
        ctx: TxnContext::new(req, "subscribeUser", "func:DB.insert"),
        timestamp,
        snapshot_ts: txn_id,
        commit_ts: txn_id + 1,
        committed: true,
        reads: vec![ReadTrace {
            table: table.into(),
            query: format!("first {rows} subscribers"),
            read_ts: txn_id,
            rows: (0..rows).map(sub_row).collect(),
        }],
        writes: vec![ChangeRecord::insert(table, key, image)].into(),
    }))
}

fn start(req: &str, handler: &str, timestamp: i64) -> TraceEvent {
    TraceEvent::HandlerStart {
        req_id: req.into(),
        handler: handler.into(),
        parent: None,
        args: format!("args@{timestamp}"),
        timestamp,
    }
}

fn end(req: &str, handler: &str, timestamp: i64) -> TraceEvent {
    TraceEvent::HandlerEnd {
        req_id: req.into(),
        handler: handler.into(),
        output: format!("out@{timestamp}"),
        ok: true,
        timestamp,
    }
}

/// Everything observable about a store: every table's rows in key order,
/// the trace archive, the request records and the counters.
type Contents = (
    Vec<(String, Vec<(Key, Arc<Row>)>)>,
    Vec<TxnTrace>,
    Vec<RequestRecord>,
    ProvenanceStats,
);

fn contents(store: &ProvenanceStore) -> Contents {
    let db = store.database();
    let mut names = db.table_names();
    names.sort();
    let tables = names.into_iter().map(|name| {
        let mut rows = db.scan_latest(&name, &Predicate::True).unwrap();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        (name, rows)
    });
    (
        tables.collect(),
        store.all_txns(),
        store.all_request_records(),
        store.stats(),
    )
}

/// Ingests `events` into a fresh store, one `ingest` call per piece
/// between consecutive `cuts`.
fn ingested(mut events: Vec<TraceEvent>, mut cuts: Vec<usize>) -> Contents {
    let store = store();
    cuts.sort_unstable_by(|a, b| b.cmp(a));
    let mut pieces = Vec::new();
    for cut in cuts {
        pieces.push(events.split_off(cut.min(events.len())));
    }
    pieces.push(events);
    for piece in pieces.into_iter().rev() {
        store.ingest(piece);
    }
    contents(&store)
}

fn one_at_a_time(events: Vec<TraceEvent>) -> Contents {
    let store = store();
    for event in events {
        store.ingest_event(event);
    }
    contents(&store)
}

/// Builds a stream from generated `(kind, request, handler, rows)` draws,
/// with the strictly increasing timestamps a `TraceClock` hands out.
fn stream(draws: &[(u8, u8, u8, u8)]) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    let mut txn_ids = Vec::new();
    for (i, &(kind, req, handler, rows)) in draws.iter().enumerate() {
        let (ts, req, handler) = (i as i64 + 1, format!("R{req}"), format!("h{handler}"));
        events.push(match kind {
            0 | 1 => start(&req, &handler, ts),
            2 | 3 => end(&req, &handler, ts),
            4 | 5 => {
                txn_ids.push(i as u64 + 1);
                txn(i as u64 + 1, &req, "forum_sub", rows as i64, ts)
            }
            6 => txn(i as u64 + 1, &req, "never_registered", rows as i64, ts),
            // A transaction the stream has already carried.
            7 => match txn_ids.get(rows as usize) {
                Some(&dup) => txn(dup, &req, "forum_sub", 1, ts),
                None => continue,
            },
            _ => TraceEvent::ExternalCall {
                req_id: req,
                handler,
                service: "email".into(),
                payload: format!("payload@{ts}"),
                timestamp: ts,
            },
        });
    }
    events
}

proptest! {
    // `PROPTEST_CASES`, when set, replaces the default count: CI runs
    // this property at more cases than the rest of the suite.
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
    ))]

    #[test]
    fn contents_do_not_depend_on_how_the_stream_is_cut(
        draws in prop::collection::vec((0u8..9, 0u8..3, 0u8..2, 0u8..4), 1..60),
        cuts in prop::collection::vec(0usize..60, 0..6),
    ) {
        let events = stream(&draws);
        let whole = ingested(events.clone(), Vec::new());
        prop_assert_eq!(&ingested(events.clone(), cuts), &whole);
        prop_assert_eq!(&one_at_a_time(events), &whole);
    }
}

#[test]
fn a_batch_larger_than_a_chunk_matches_event_by_event_ingest() {
    // 1 500 requests × (start, 4-row transaction, end) is ~10k rows: several
    // chunks, with requests that straddle a chunk boundary.
    let mut events = Vec::new();
    for r in 0..1_500i64 {
        let req = format!("R{r}");
        events.push(start(&req, "fetch", 3 * r + 1));
        events.push(txn(r as u64 + 1, &req, "forum_sub", 3, 3 * r + 2));
        events.push(end(&req, "fetch", 3 * r + 3));
    }
    let whole = ingested(events.clone(), Vec::new());
    assert_eq!(whole.3.transactions, 1_500);
    assert_eq!(whole.3.data_events, 1_500 * 4);
    assert!(whole.2.iter().all(|rec| rec.end_ts.is_some()));
    assert_eq!(one_at_a_time(events), whole);
}

#[test]
fn a_handler_end_in_a_later_drain_closes_the_open_row() {
    let store = store();
    store.ingest(vec![start("R1", "checkout", 1)]);
    let open = store.query("SELECT EndTs FROM Requests").unwrap();
    assert_eq!(open.value(0, "EndTs"), Some(&Value::Null));

    store.ingest(vec![end("R1", "checkout", 2)]);
    let closed = store.query("SELECT Output, EndTs FROM Requests").unwrap();
    assert_eq!(closed.len(), 1);
    assert_eq!(closed.value(0, "EndTs"), Some(&Value::Timestamp(2)));
    assert_eq!(
        closed.value(0, "Output"),
        Some(&Value::Text("out@2".into()))
    );
    assert_eq!(store.request_records("R1")[0].end_ts, Some(2));
    assert_eq!(store.stats().unmatched_handler_ends, 0);
}

#[test]
fn recursive_invocations_of_one_handler_close_innermost_first() {
    // The outer invocation is installed by the first drain, the inner one
    // opens and closes inside the second, the outer end comes last.
    let store = store();
    store.ingest(vec![start("R1", "walk", 1)]);
    store.ingest(vec![
        start("R1", "walk", 2),
        end("R1", "walk", 3),
        end("R1", "walk", 4),
        end("R1", "walk", 5),
    ]);
    let recs = store.request_records("R1");
    assert_eq!((recs[0].start_ts, recs[0].end_ts), (1, Some(4)));
    assert_eq!((recs[1].start_ts, recs[1].end_ts), (2, Some(3)));
    let rows = store
        .query("SELECT StartTs, EndTs FROM Requests ORDER BY StartTs")
        .unwrap();
    assert_eq!(rows.value(0, "EndTs"), Some(&Value::Timestamp(4)));
    assert_eq!(rows.value(1, "EndTs"), Some(&Value::Timestamp(3)));
    // The third end found nothing open: counted, and nothing written.
    assert_eq!(store.stats().unmatched_handler_ends, 1);
    assert_eq!(rows.len(), 2);
}

#[test]
fn re_ingesting_a_transaction_is_skipped_and_counted() {
    let store = store();
    store.ingest(vec![
        txn(7, "R1", "forum_sub", 2, 1),
        txn(7, "R1", "forum_sub", 2, 1),
    ]);
    store.ingest(vec![txn(7, "R1", "forum_sub", 2, 1)]);

    assert_eq!(store.query("SELECT * FROM Executions").unwrap().len(), 1);
    let events = store.query("SELECT * FROM ForumSubEvents").unwrap();
    assert_eq!(events.len(), 3, "two rows read and one insert, once");
    assert_eq!(store.txn_count(), 1);
    let stats = store.stats();
    assert_eq!((stats.transactions, stats.data_events), (1, 3));
    assert_eq!(stats.duplicate_transactions, 2);
}

#[test]
fn a_chunk_the_engine_rejects_is_dropped_whole_and_counted() {
    let store = store();
    store.ingest(vec![start("R0", "outer", 1)]);

    // An image whose `id` is text does not fit `ForumSubEvents`.
    let misfit = Row::from(vec![Value::Text("seven".into()), Value::Null]);
    let mut bad = txn(7, "R1", "forum_sub", 0, 3);
    if let TraceEvent::Txn(trace) = &mut bad {
        trace.writes = vec![ChangeRecord::insert("forum_sub", Key::single(7i64), misfit)].into();
    }
    store.ingest(vec![
        start("R1", "inner", 2),
        bad,
        end("R0", "outer", 4),
        end("R1", "inner", 5),
    ]);

    let stats = store.stats();
    assert_eq!(stats.rejected_events, 4);
    assert_eq!((stats.transactions, stats.handler_invocations), (0, 1));
    assert_eq!(store.txn_count(), 0);
    assert_eq!(store.query("SELECT * FROM Executions").unwrap().len(), 0);
    assert_eq!(store.all_request_records().len(), 1);

    // The store keeps working, and its open invocations are those of the
    // chunks that committed: R0's is still open, R1's never was.
    store.ingest(vec![end("R1", "inner", 6), end("R0", "outer", 7)]);
    assert_eq!(store.stats().unmatched_handler_ends, 1);
    assert_eq!(store.request_records("R0")[0].end_ts, Some(7));
    let rows = store.query("SELECT ReqId, EndTs FROM Requests").unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows.value(0, "EndTs"), Some(&Value::Timestamp(7)));
}

#[test]
fn a_late_handler_end_does_not_write_back_redacted_arguments() {
    let store = store();
    store.ingest(vec![start("R1", "updateProfile", 1)]);
    assert_eq!(store.redact_request("R1").unwrap().requests_redacted, 1);

    store.ingest(vec![end("R1", "updateProfile", 2)]);
    let rows = store.query("SELECT Args, EndTs FROM Requests").unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(
        rows.value(0, "Args"),
        Some(&Value::Text(REDACTED_MARKER.into()))
    );
    assert_eq!(rows.value(0, "EndTs"), Some(&Value::Timestamp(2)));
    let recs = store.request_records("R1");
    assert_eq!(recs[0].args, REDACTED_MARKER);
    assert_eq!(recs[0].end_ts, Some(2));
}

#[test]
fn a_late_handler_end_does_not_resurrect_an_expired_request() {
    let store = store();
    store.ingest(vec![
        start("R1", "slow", 1),
        start("R2", "done", 2),
        end("R2", "done", 3),
        start("R3", "slow", 10),
    ]);
    let report = store.retain_since(5).unwrap();
    assert_eq!(report.requests_dropped, 2);

    // R1 expired while open; R3 survived, and stays open.
    store.ingest(vec![end("R1", "slow", 11), end("R3", "slow", 12)]);
    assert_eq!(store.stats().unmatched_handler_ends, 1);
    assert!(store.request_records("R1").is_empty());
    assert_eq!(store.request_records("R3")[0].end_ts, Some(12));
    let rows = store.query("SELECT ReqId, EndTs FROM Requests").unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows.value(0, "ReqId"), Some(&Value::Text("R3".into())));
    assert_eq!(rows.value(0, "EndTs"), Some(&Value::Timestamp(12)));
}

#[test]
fn concurrent_ingest_calls_serialize_inside_the_store() {
    // Two callers may ingest batches they drained themselves at once.
    // Each call runs alone: the event rows of one call's transactions take
    // a contiguous block of EventIds, and every request closes.
    const CALLERS: u64 = 4;
    const REQUESTS: u64 = 400;
    let store = Arc::new(store());
    let barrier = Arc::new(Barrier::new(CALLERS as usize));
    std::thread::scope(|scope| {
        for caller in 0..CALLERS {
            let (store, barrier) = (store.clone(), barrier.clone());
            scope.spawn(move || {
                let mut events = Vec::new();
                for r in 0..REQUESTS {
                    let id = caller * REQUESTS + r;
                    let (req, ts) = (format!("R{id}"), 3 * id as i64);
                    events.push(start(&req, "fetch", ts + 1));
                    events.push(txn(id + 1, &req, "forum_sub", 9, ts + 2));
                    events.push(end(&req, "fetch", ts + 3));
                }
                barrier.wait();
                store.ingest(events);
            });
        }
    });

    let stats = store.stats();
    assert_eq!(stats.transactions as u64, CALLERS * REQUESTS);
    assert_eq!(stats.data_events as u64, CALLERS * REQUESTS * 10);
    assert_eq!(stats.unmatched_handler_ends, 0);
    assert!(store
        .all_request_records()
        .iter()
        .all(|r| r.end_ts.is_some()));
    let events = store
        .query("SELECT EventId, TxnId FROM ForumSubEvents ORDER BY EventId")
        .unwrap();
    assert_eq!(events.len() as u64, CALLERS * REQUESTS * 10);
    let caller_of = |row: usize| match events.value(row, "TxnId") {
        Some(Value::Int(txn_id)) => (*txn_id as u64 - 1) / REQUESTS,
        other => panic!("TxnId is an integer, got {other:?}"),
    };
    let switches = (1..events.len())
        .filter(|&row| caller_of(row) != caller_of(row - 1))
        .count();
    assert_eq!(switches as u64, CALLERS - 1);
}

#[test]
fn request_lookups_probe_the_req_id_index() {
    // Replay, retroactive programming and redaction read `Requests` one
    // request at a time; a full scan per lookup would grow with history.
    let store = store();
    store.ingest(vec![start("R1", "checkout", 1), start("R2", "checkout", 2)]);
    let plan = store
        .database()
        .plan_scan("Requests", &Predicate::eq("ReqId", "R1"))
        .unwrap();
    assert!(
        matches!(&plan, ScanPlan::PointProbe { column, .. } if column == "ReqId"),
        "{plan:?}"
    );
    // The one index.
    let requests = store.database().table("Requests").unwrap();
    assert_eq!(requests.indexed_columns(), vec!["ReqId".to_string()]);
}

#[test]
fn registration_indexes_every_application_column() {
    // `Type` collides with the event column of that name and becomes
    // `App_Type`; its index is on the renamed column.
    let schema = Schema::builder()
        .column("id", DataType::Int)
        .column("user_id", DataType::Text)
        .column("Type", DataType::Text)
        .column("forum", DataType::Text)
        .primary_key(&["id"])
        .build()
        .unwrap();
    let store = ProvenanceStore::new();
    store
        .register_table_as("forum_sub", "ForumEvents", &schema)
        .unwrap();
    let events = store.database().table("ForumEvents").unwrap();
    assert_eq!(
        events.indexed_columns(),
        ["TxnId", "id", "user_id", "App_Type", "forum"]
    );
    for unindexed in ["EventId", "Type", "Query"] {
        assert_eq!(events.index_entries(unindexed), None, "{unindexed}");
    }
}

#[test]
fn ingest_leaves_every_index_empty_until_a_probe_needs_it() {
    let store = store();
    store.ingest(
        (1..=20)
            .map(|i| txn(i, &format!("R{i}"), "forum_sub", 3, i as i64))
            .collect(),
    );
    let db = store.database();
    let indexed = [
        ("ForumSubEvents", "TxnId"),
        ("ForumSubEvents", "id"),
        ("ForumSubEvents", "user_id"),
        ("Executions", "ReqId"),
        ("Executions", "Timestamp"),
    ];
    let entries =
        |(table, column): (&str, &str)| db.table(table).unwrap().index_entries(column).unwrap();
    for index in indexed {
        assert_eq!(entries(index), 0, "{index:?} after ingest");
    }

    // A query on `user_id` builds that index and no other.
    let sql = "SELECT EventId FROM ForumSubEvents WHERE user_id = 'U7'";
    assert_eq!(store.query(sql).unwrap().len(), 1, "written by txn 7");
    assert!(entries(("ForumSubEvents", "user_id")) > 0);
    for index in indexed.iter().filter(|(_, column)| *column != "user_id") {
        assert_eq!(entries(*index), 0, "{index:?} was not probed");
    }

    // Later ingest leaves the built index where it was; the next probe
    // catches it up.
    let built = entries(("ForumSubEvents", "user_id"));
    store.ingest(vec![txn(30, "R30", "forum_sub", 8, 30)]);
    assert_eq!(entries(("ForumSubEvents", "user_id")), built);
    assert_eq!(store.query(sql).unwrap().len(), 2, "and read by txn 30");
    assert!(entries(("ForumSubEvents", "user_id")) > built);
}

#[test]
fn the_paper_query_probes_the_event_table_by_user() {
    // §3.3: `Executions ⋈ ForumEvents ON TxnId`, filtered on application
    // columns. The executor pushes the filter down to the event table's
    // scan, which must probe an index rather than walk the table.
    let schema = Schema::builder()
        .column("sub_id", DataType::Text)
        .column("user_id", DataType::Text)
        .column("forum", DataType::Text)
        .primary_key(&["sub_id"])
        .build()
        .unwrap();
    let store = ProvenanceStore::new();
    store
        .register_table_as("forum_sub", "ForumEvents", &schema)
        .unwrap();
    let events = (0..400u64).map(|i| {
        let image = Row::from(vec![
            Value::Text(format!("S{i}")),
            Value::Text(format!("U{}", i % 50)),
            Value::Text(format!("F{}", i % 7)),
        ]);
        TraceEvent::Txn(Box::new(TxnTrace {
            txn_id: i + 1,
            ctx: TxnContext::new(format!("R{i}"), "subscribeUser", "func:DB.insert"),
            timestamp: i as i64 + 1,
            snapshot_ts: i,
            commit_ts: i + 1,
            committed: true,
            reads: Vec::new(),
            writes: vec![ChangeRecord::insert(
                "forum_sub",
                Key::single(format!("S{i}")),
                image,
            )]
            .into(),
        }))
    });
    store.ingest(events.collect());
    let pushed = Predicate::eq("Type", "Insert")
        .and(Predicate::eq("user_id", "U1"))
        .and(Predicate::eq("forum", "F1"));
    let table = store.database().table("ForumEvents").unwrap();
    let plan = table.plan_scan(&pushed);
    assert!(
        matches!(&plan, ScanPlan::PointProbe { column, .. } if column == "user_id"),
        "{plan:?}"
    );
    let sql = "SELECT Timestamp, ReqId, HandlerName \
         FROM Executions as E, ForumEvents as F ON E.TxnId = F.TxnId \
         WHERE F.Type = 'Insert' AND F.user_id = 'U1' AND F.forum = 'F1' \
         ORDER BY Timestamp ASC";
    // Users and forums cycle 50 and 7 apart: (U1, F1) every 350 txns.
    let writers = store.query(sql).unwrap();
    assert_eq!(writers.len(), 2);
}
