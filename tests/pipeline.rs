//! Experiment F2: the end-to-end architecture of Figure 2.
//!
//! A production runtime serves a concurrent microservice workload while a
//! background thread continuously moves trace events from the in-memory
//! buffer into the provenance database; afterwards the debugger answers
//! queries and replays requests from that provenance alone.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use trod::apps::{shop, shop_workload, WorkloadConfig};
use trod::prelude::*;
use trod::runtime::RequestResult;

/// The shop workload's checkouts. Its `getOrder` look-ups are left out:
/// one may run before the checkout that creates its order and fail, and
/// these tests count every failure that is not a retryable conflict.
fn checkouts(cfg: &WorkloadConfig) -> Vec<(String, Args)> {
    let mut requests = shop_workload(cfg);
    requests.retain(|(handler, _)| handler == "checkout");
    requests
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
    let cfg = WorkloadConfig {
        requests: 300,
        users: 30,
        items: 20,
        conflict_rate: 0.05,
        seed: 99,
    };
    let requests = checkouts(&cfg);
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
        trod.runtime().tracer().buffer().is_empty(),
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
    let cfg = WorkloadConfig {
        requests: 400,
        users: 40,
        items: 20,
        conflict_rate: 0.05,
        seed: 7,
    };
    let results = serve_while_syncing(&trod, checkouts(&cfg), 4, Duration::ZERO);
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
