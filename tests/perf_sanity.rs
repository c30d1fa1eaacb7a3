//! Functional sanity checks behind the quantitative experiments E1–E4.
//!
//! The real measurements live in `crates/bench` (Criterion); these tests
//! assert the *qualitative* shape cheaply enough to run in the normal test
//! suite: tracing changes no application behaviour, provenance queries
//! over tens of thousands of events stay interactive, replay cost follows
//! dependencies rather than database size, and retroactive exploration
//! enumerates exactly the conflict-distinct orderings.

use std::time::{Duration, Instant};

use trod::apps::{moodle, shop};
use trod::prelude::*;

#[test]
fn tracing_does_not_change_application_results() {
    // E1 sanity: run the identical workload traced and untraced; the
    // database ends up in the same state and the same requests succeed.
    // Checkouts of the 8 seeded items, and every tenth request a
    // `getOrder` of an earlier order, or of one no checkout creates.
    let requests = || {
        (0..120).map(|i| match i % 10 {
            9 => (
                "getOrder".to_string(),
                Args::new().with("order_id", format!("order-{}", i / 2)),
            ),
            _ => {
                let (order, user) = (format!("order-{i}"), format!("user-{}", i % 12));
                let args = shop::checkout_args(&order, &user, &format!("item-{}", i % 8), 1);
                ("checkout".to_string(), args)
            }
        })
    };
    let run = |tracing: bool| {
        let db = shop::shop_db();
        shop::seed_inventory(&db, 8, 1_000_000);
        let runtime = Runtime::new(db, shop::registry());
        runtime.tracer().set_enabled(tracing);
        // Single worker: the comparison must be deterministic, so no
        // serialization conflicts may decide which requests succeed.
        let results = runtime.run_concurrent(requests().collect(), 1);
        let ok = results.iter().filter(|r| r.is_ok()).count();
        let orders = runtime
            .database()
            .scan_latest(shop::ORDERS_TABLE, &Predicate::True)
            .unwrap()
            .len();
        (ok, orders, runtime.tracer().stats().pushed)
    };
    let (ok_untraced, orders_untraced, pushed_untraced) = run(false);
    let (ok_traced, orders_traced, pushed_traced) = run(true);
    assert_eq!(ok_untraced, ok_traced);
    assert_eq!(orders_untraced, orders_traced);
    assert_eq!(pushed_untraced, 0);
    assert!(pushed_traced > 0);
}

#[test]
fn declarative_query_over_tens_of_thousands_of_events_is_interactive() {
    // E2 sanity, scaled to test-suite size: 20 000 provenance events and
    // the paper's join query, well under the 5-second interactivity budget
    // even in a debug build.
    let db = moodle::moodle_db();
    let provenance = moodle::provenance_for(&db);
    let runtime = Runtime::new(db, moodle::registry());
    for i in 0..5_000 {
        // Distinct users so every request performs both a read event and
        // an insert event.
        runtime.handle_request(
            "subscribeUser",
            moodle::subscribe_args(&format!("s{i}"), &format!("U{i}"), &format!("F{}", i % 25)),
        );
    }
    provenance.drain_from(runtime.tracer());
    // Reads are installed by the first statement that can see them.
    let events = provenance
        .query("SELECT COUNT(*) FROM ForumEvents")
        .unwrap();
    assert!(events.rows()[0][0].as_int().unwrap() >= 10_000);
    assert!(provenance.stats().data_events >= 10_000);

    let start = Instant::now();
    let result = provenance
        .query(
            "SELECT Timestamp, ReqId, HandlerName \
             FROM Executions as E, ForumEvents as F ON E.TxnId = F.TxnId \
             WHERE F.user_id = 'U42' AND F.forum = 'F17' AND F.Type = 'Insert' \
             ORDER BY Timestamp ASC",
        )
        .unwrap();
    let elapsed = start.elapsed();
    assert!(!result.is_empty());
    assert!(
        elapsed < Duration::from_secs(5),
        "query took {elapsed:?}, beyond the paper's interactivity budget"
    );
}

#[test]
fn replay_cost_tracks_dependencies_not_database_size() {
    // E3 sanity: a request with zero concurrent dependencies replays with
    // zero injected transactions regardless of how much unrelated data the
    // database holds.
    let db = moodle::moodle_db();
    let mut seed = db.begin();
    for i in 0..5_000 {
        seed.insert(
            moodle::FORUM_SUB_TABLE,
            row![
                format!("seed-{i}"),
                format!("U{}", i % 100),
                format!("F{}", i % 10)
            ],
        )
        .unwrap();
    }
    seed.commit().unwrap();

    let provenance = moodle::provenance_for(&db);
    let runtime = Runtime::new(db, moodle::registry());
    let req = runtime.handle_request(
        "subscribeUser",
        moodle::subscribe_args("lonely", "U-new", "F-new"),
    );
    assert!(req.is_ok());
    provenance.drain_from(runtime.tracer());

    let report = trod::core::ReplaySession::new(&provenance, runtime.database(), &req.req_id)
        .unwrap()
        .run_to_end()
        .unwrap();
    assert!(report.is_faithful());
    assert_eq!(report.injected_count(), 0);
    assert_eq!(report.steps.len(), 2);
}

#[test]
fn retroactive_exploration_enumerates_conflict_distinct_orderings_only() {
    // E4 sanity: two conflicting subscriptions plus one request touching
    // entirely different tables produce exactly 2 orderings (the unrelated
    // request never reorders), and a cap on orderings is honoured.
    // Conflict detection is table-granular, as the paper suggests
    // ("transactions that access the same table"), so the unrelated
    // request must use different tables, not merely different rows.
    let db = moodle::moodle_db();
    let provenance = moodle::provenance_for(&db);
    let runtime = Runtime::builder(db, moodle::registry())
        .default_isolation(IsolationLevel::ReadCommitted)
        .request_prefix("GEN-")
        .build();
    runtime.handle_request_with_id(
        "A",
        "subscribeUser",
        moodle::subscribe_args("s1", "U1", "F2"),
    );
    runtime.handle_request_with_id(
        "B",
        "subscribeUser",
        moodle::subscribe_args("s2", "U1", "F2"),
    );
    runtime.handle_request_with_id(
        "C",
        "createForum",
        Args::new()
            .with("forum", "F-OTHER")
            .with("course", "C-OTHER"),
    );
    provenance.drain_from(runtime.tracer());
    let trod = Trod::attach_with(runtime, provenance);

    let report = trod
        .retroactive(moodle::patched_registry())
        .requests(&["A", "B", "C"])
        .invariant(Invariant::no_duplicates(
            moodle::FORUM_SUB_TABLE,
            &["user_id", "forum"],
        ))
        .run()
        .unwrap();
    assert_eq!(report.conflicting_pairs, 1);
    assert_eq!(report.orderings.len(), 2);
    assert!(report.all_orderings_clean());

    let capped = trod
        .retroactive(moodle::patched_registry())
        .requests(&["A", "B", "C"])
        .max_orderings(1)
        .run()
        .unwrap();
    assert_eq!(capped.orderings.len(), 1);
    assert_eq!(capped.orderings[0].order, vec!["A", "B", "C"]);
}
