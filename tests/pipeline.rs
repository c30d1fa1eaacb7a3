//! Experiment F2: the end-to-end architecture of Figure 2.
//!
//! A production runtime serves a concurrent microservice workload while a
//! background thread continuously moves trace events from the in-memory
//! buffer into the provenance database; afterwards the debugger answers
//! queries and replays requests from that provenance alone.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use trod::apps::shop;
use trod::prelude::*;
use trod::runtime::RequestResult;
use trod::trace::{TraceEvent, TxnTrace};

/// `n` checkouts by 30 customers of the 20 seeded items, every tenth on
/// the hot item-0. No `getOrder` look-ups: one may run before the
/// checkout that creates its order and fail, and these tests count every
/// failure that is not a retryable conflict.
fn checkouts(n: usize) -> Vec<(String, Args)> {
    (0..n)
        .map(|i| {
            let item = if i % 10 == 0 { 0 } else { i % 20 };
            let (order, user) = (format!("order-{i}"), format!("user-{}", i % 30));
            let args = shop::checkout_args(&order, &user, &format!("item-{item}"), 1);
            ("checkout".to_string(), args)
        })
        .collect()
}

/// Serves `requests` over 8 threads while `syncers` threads call
/// [`Trod::sync`] every `pause`, and stops them when the last request is
/// answered.
fn serve_while_syncing(
    trod: &Trod,
    requests: Vec<(String, Args)>,
    syncers: usize,
    pause: Duration,
) -> Vec<RequestResult> {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..syncers {
            scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    trod.sync();
                    std::thread::sleep(pause);
                }
            });
        }
        let results = trod.runtime().run_concurrent(requests, 8);
        done.store(true, Ordering::Relaxed);
        results
    })
}

#[test]
fn production_tracing_pipeline_with_background_flusher() {
    // Production environment: shop application under concurrent load.
    let db = shop::shop_db();
    shop::seed_inventory(&db, 20, 10_000);
    let provenance = shop::provenance_for(&db);
    let trod = Trod::attach_with(Runtime::new(db, shop::registry()), provenance);

    // Always-on tracing flows to the provenance DB off the request path:
    // a background thread syncs every 2 ms while the workload runs.
    let requests = checkouts(300);
    let total = requests.len();
    let results = serve_while_syncing(&trod, requests, 1, Duration::from_millis(2));
    let succeeded = results.iter().filter(|r| r.is_ok()).count();
    // How many of 8 racing threads lose first-committer-wins on a hot
    // inventory row is the scheduler's choice; that every loser fails
    // with a retryable conflict, and nothing else fails, is not.
    let conflicts = results
        .iter()
        .filter(|r| matches!(&r.output, Err(e) if e.is_retryable()))
        .count();
    assert_eq!(
        succeeded + conflicts,
        total,
        "every failure is a retryable conflict: {:?}",
        results.iter().filter(|r| !r.is_ok()).collect::<Vec<_>>()
    );
    assert!(succeeded >= total / 2, "sanity: {succeeded}/{total}");

    // A final sync catches the events traced after the thread's last one.
    trod.sync();
    assert!(
        trod.runtime().tracer().stats().buffered == 0,
        "sync drained everything"
    );

    // The provenance store saw every handler invocation (the checkout
    // workflow fans out into three RPCs per successful request).
    let provenance = trod.provenance();
    let stats = provenance.stats();
    assert!(stats.handler_invocations >= 300);
    assert!(stats.transactions >= succeeded * 3);
    assert!(stats.external_calls >= succeeded);
    assert_eq!(stats.unregistered_table_events, 0);

    // Declarative query over the captured traces: per-handler activity.
    let activity = provenance
        .query(
            "SELECT HandlerName, COUNT(*) AS n FROM Executions \
             WHERE Committed = TRUE GROUP BY HandlerName ORDER BY n DESC",
        )
        .unwrap();
    // The checkout workflow's three service handlers each ran transactions
    // (the root `checkout` handler only orchestrates RPCs).
    assert!(activity.len() >= 3);
    // The attempts that lost their race are history too.
    let aborted = provenance
        .query("SELECT TxnId FROM Executions WHERE Committed = FALSE")
        .unwrap();
    assert!(
        aborted.len() >= conflicts,
        "{conflicts} conflicts but only {} aborted executions traced",
        aborted.len()
    );

    // Any traced request can be replayed faithfully from provenance.
    let some_checkout = trod
        .provenance()
        .request_ids()
        .into_iter()
        .find(|r| {
            trod.provenance()
                .request_records(r)
                .first()
                .map(|rec| rec.handler == "checkout" && rec.ok == Some(true))
                .unwrap_or(false)
        })
        .expect("at least one successful checkout");
    let report = trod.replay(&some_checkout).unwrap().run_to_end().unwrap();
    assert!(report.is_faithful());
    assert!(
        report.steps.len() >= 3,
        "checkout spans at least three transactions"
    );
}

#[test]
fn concurrent_syncs_ingest_every_request_whole() {
    // A tracer drain pops one event at a time, so two drains racing
    // outside the store could interleave and ingest a request's
    // `HandlerEnd` before its `HandlerStart`: the end would be counted as
    // unmatched and the `Requests` row would never close. The store drains
    // under its ingest lock, so any number of syncers may race.
    let db = shop::shop_db();
    shop::seed_inventory(&db, 20, 10_000);
    let trod = Trod::attach(Runtime::new(db, shop::registry())).unwrap();
    let results = serve_while_syncing(&trod, checkouts(400), 4, Duration::ZERO);
    trod.sync();

    let stats = trod.provenance().stats();
    assert_eq!(stats.unmatched_handler_ends, 0);
    assert!(stats.handler_invocations >= results.len());
    let open = trod
        .query("SELECT ReqId, HandlerName FROM Requests WHERE EndTs IS NULL")
        .unwrap();
    assert_eq!(open.len(), 0, "open invocations: {:?}", open.rows());
    let records = trod.provenance().all_request_records();
    assert_eq!(records.len(), stats.handler_invocations);
    assert!(records.iter().all(|rec| rec.end_ts.is_some()));
}

#[test]
fn queries_racing_ingest_see_every_event_of_each_transaction() {
    // Reads are installed as event rows when a statement or an assembly
    // first needs them. A query thread races two syncing threads: every
    // `Executions` row a statement returns must come with all its event
    // rows, and every assembled trace must equal the trace as drained.
    let db = shop::shop_db();
    shop::seed_inventory(&db, 20, 10_000);
    let trod = Trod::attach(Runtime::new(db, shop::registry())).unwrap();
    // Drained batches are teed, then ingested, under one lock: a
    // request's events still reach the store in order.
    let teed: Mutex<Vec<TxnTrace>> = Mutex::new(Vec::new());
    let sync = || {
        let mut teed = teed.lock().unwrap();
        let events = trod.runtime().tracer().drain();
        for event in &events {
            if let TraceEvent::Txn(trace) = event {
                teed.push((**trace).clone());
            }
        }
        trod.provenance().ingest(events);
    };
    // Every `reserveInventory` transaction reads and writes only the
    // inventory, so the join returns each of its events.
    let reservations = "SELECT E.TxnId, E.FirstEventId, E.Events, F.EventId \
         FROM Executions AS E, InventoryEvents AS F ON E.TxnId = F.TxnId \
         WHERE E.HandlerName = 'reserveInventory'";
    let inserters = "SELECT E.ReqId, F.order_id \
         FROM Executions AS E, OrdersEvents AS F ON E.TxnId = F.TxnId \
         WHERE F.Type = 'Insert'";
    let int = |v: &Value| v.as_int().unwrap();
    let whole = |rows: &[Vec<Value>]| {
        let mut events: BTreeMap<i64, (i64, i64, BTreeSet<i64>)> = BTreeMap::new();
        for row in rows {
            let txn = events.entry(int(&row[0])).or_default();
            (txn.0, txn.1) = (int(&row[1]), int(&row[2]));
            txn.2.insert(int(&row[3]));
        }
        for (txn_id, (first, count, ids)) in events {
            let want: BTreeSet<i64> = (first..first + count).collect();
            assert_eq!(ids, want, "the events of transaction {txn_id}");
        }
    };

    let done = AtomicBool::new(false);
    let (mut inserts_seen, mut assembled) = (Vec::new(), Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    sync();
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        scope.spawn(|| {
            let mut rounds = 0;
            while !done.load(Ordering::Relaxed) || rounds == 0 {
                rounds += 1;
                whole(trod.query(reservations).unwrap().rows());
                inserts_seen.push(trod.query(inserters).unwrap().rows().to_vec());
                let last = teed.lock().unwrap().last().map(|t| t.ctx.req_id.clone());
                if let Some(req) = last {
                    assembled.extend(trod.provenance().txns_for_request(&req));
                }
            }
        });
        trod.runtime().run_concurrent(checkouts(300), 8);
        done.store(true, Ordering::Relaxed);
    });
    sync();

    whole(trod.query(reservations).unwrap().rows());
    let inserts: BTreeSet<Vec<Value>> = trod
        .query(inserters)
        .unwrap()
        .rows()
        .iter()
        .cloned()
        .collect();
    for rows in inserts_seen {
        assert!(rows.iter().all(|row| inserts.contains(row)));
    }
    let teed: HashMap<u64, TxnTrace> = teed
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|t| (t.txn_id, t))
        .collect();
    assert!(!assembled.is_empty());
    for trace in assembled {
        assert_eq!(Some(&trace), teed.get(&trace.txn_id));
    }
    assert_eq!(trod.provenance().stats().unmatched_handler_ends, 0);
}

#[test]
fn trod_attach_registers_every_application_table() {
    let db = shop::shop_db();
    shop::seed_inventory(&db, 2, 10);
    let runtime = Runtime::new(db, shop::registry());
    let trod = Trod::attach(runtime).unwrap();

    trod.runtime()
        .must_handle("checkout", shop::checkout_args("O1", "zoe", "item-1", 1));
    let flushed = trod.sync();
    assert!(flushed >= 5);

    // Default event-table names derived from the application tables.
    for (app_table, event_table) in [
        ("inventory", "InventoryEvents"),
        ("orders", "OrdersEvents"),
        ("payments", "PaymentsEvents"),
    ] {
        assert_eq!(
            trod.provenance().event_table_for(app_table),
            Some(event_table.to_string())
        );
    }
    let orders = trod
        .query("SELECT COUNT(*) AS n FROM OrdersEvents WHERE Type = 'Insert'")
        .unwrap();
    assert_eq!(orders.value(0, "n"), Some(&Value::Int(1)));
}

#[test]
fn disabling_tracing_stops_provenance_growth_but_not_the_application() {
    let db = shop::shop_db();
    shop::seed_inventory(&db, 2, 100);
    let runtime = Runtime::new(db, shop::registry());
    let trod = Trod::attach(runtime).unwrap();

    trod.runtime()
        .must_handle("checkout", shop::checkout_args("O1", "amy", "item-0", 1));
    trod.sync();
    let before = trod.provenance().stats().transactions;

    trod.runtime().tracer().set_enabled(false);
    trod.runtime()
        .must_handle("checkout", shop::checkout_args("O2", "amy", "item-0", 1));
    trod.sync();
    assert_eq!(trod.provenance().stats().transactions, before);

    trod.runtime().tracer().set_enabled(true);
    trod.runtime()
        .must_handle("checkout", shop::checkout_args("O3", "amy", "item-0", 1));
    trod.sync();
    assert!(trod.provenance().stats().transactions > before);
}
