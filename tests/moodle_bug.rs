//! Experiment F1 / T1 / T2 / Q1: the paper's running example (MDL-59854).
//!
//! Reproduces Figure 1's buggy interleaving deterministically, then checks
//! that TROD's always-on tracing captured the provenance the paper shows
//! in Table 1 (`Executions`) and Table 2 (`ForumEvents`), and that the
//! §3.3 declarative-debugging query pinpoints the two offending requests.

use trod::apps::moodle::{self, FORUM_SUB_TABLE};
use trod::prelude::*;

#[test]
fn racy_interleaving_creates_duplicates_and_a_late_error() {
    let scenario = moodle::toctou_scenario();
    let fetch_error = scenario.run();
    // The error surfaces only at the *fetch* request, not at either insert
    // — exactly the frustrating symptom the paper describes.
    let error = fetch_error.expect("fetchSubscribers must observe the duplicates");
    assert!(error.contains("duplicate"));

    let duplicates = scenario
        .runtime
        .database()
        .scan_latest(
            FORUM_SUB_TABLE,
            &Predicate::eq("user_id", "U1").and(Predicate::eq("forum", "F2")),
        )
        .unwrap();
    assert_eq!(duplicates.len(), 2);
}

#[test]
fn provenance_tables_match_the_papers_shape() {
    let scenario = moodle::toctou_scenario();
    scenario.run();
    scenario.sync_provenance();

    // Table 1: the Executions log. Five transactions: two checks, two
    // inserts, one fetch — with the two subscribe requests interleaved.
    let executions = scenario
        .provenance
        .query(
            "SELECT TxnId, HandlerName, ReqId, Metadata, Committed \
             FROM Executions ORDER BY Timestamp ASC",
        )
        .unwrap();
    assert_eq!(executions.len(), 5);
    let handlers: Vec<String> = executions
        .column_values("HandlerName")
        .iter()
        .map(|v| v.to_string())
        .collect();
    assert_eq!(
        handlers,
        vec![
            "subscribeUser",
            "subscribeUser",
            "subscribeUser",
            "subscribeUser",
            "fetchSubscribers"
        ]
    );
    let metadata: Vec<String> = executions
        .column_values("Metadata")
        .iter()
        .map(|v| v.to_string())
        .collect();
    assert_eq!(metadata[0], "func:isSubscribed");
    assert_eq!(metadata[1], "func:isSubscribed");
    assert_eq!(metadata[2], "func:DB.insert");
    assert_eq!(metadata[3], "func:DB.insert");
    assert_eq!(metadata[4], "func:DB.executeQuery");
    // The interleaving: the two inserts belong to *different* requests in
    // the order R2 then R1 (paper Table 1, TXN3/TXN4).
    let reqs: Vec<String> = executions
        .column_values("ReqId")
        .iter()
        .map(|v| v.to_string())
        .collect();
    assert_eq!(reqs[2], "R2");
    assert_eq!(reqs[3], "R1");

    // Table 2: the ForumEvents data-operation log. Two empty-result reads
    // (NULL data columns), two inserts, and the fetch's reads.
    let events = scenario
        .provenance
        .query("SELECT Type, user_id, forum FROM ForumEvents ORDER BY EventId ASC")
        .unwrap();
    assert!(events.len() >= 6);
    assert_eq!(events.value(0, "Type"), Some(&Value::Text("Read".into())));
    assert_eq!(events.value(0, "user_id"), Some(&Value::Null));
    let inserts: Vec<_> = events
        .rows()
        .iter()
        .filter(|r| r[0] == Value::Text("Insert".into()))
        .collect();
    assert_eq!(inserts.len(), 2);
    for insert in inserts {
        assert_eq!(insert[1], Value::Text("U1".into()));
        assert_eq!(insert[2], Value::Text("F2".into()));
    }
}

#[test]
fn declarative_debugging_query_identifies_the_two_buggy_requests() {
    let scenario = moodle::toctou_scenario();
    scenario.run();
    let trod = scenario.into_trod();

    // The paper's §3.3 query (adapted to this schema's column names).
    let result = trod
        .query(
            "SELECT Timestamp, ReqId, HandlerName \
             FROM Executions as E, ForumEvents as F ON E.TxnId = F.TxnId \
             WHERE F.user_id = 'U1' AND F.forum = 'F2' AND F.Type = 'Insert' \
             ORDER BY Timestamp ASC",
        )
        .unwrap();
    assert_eq!(result.len(), 2);
    // Both rows name the same handler and two different requests with
    // adjacent timestamps — the tell-tale sign of the race.
    assert_eq!(
        result.value(0, "HandlerName"),
        Some(&Value::Text("subscribeUser".into()))
    );
    assert_eq!(
        result.value(1, "HandlerName"),
        Some(&Value::Text("subscribeUser".into()))
    );
    assert_eq!(result.value(0, "ReqId"), Some(&Value::Text("R2".into())));
    assert_eq!(result.value(1, "ReqId"), Some(&Value::Text("R1".into())));

    // The typed helper returns the same answer.
    let writers = trod
        .declarative()
        .find_writers("forum_sub", "Insert", &[("user_id", "U1"), ("forum", "F2")])
        .unwrap();
    assert_eq!(writers.len(), 2);
    assert_eq!(writers[0].req_id, "R2");
    assert_eq!(writers[1].req_id, "R1");
    assert!(writers[0].timestamp < writers[1].timestamp);

    // Concurrency analysis: R1 and R2 interleave; R3 (the fetch) ran later.
    let concurrent = trod.declarative().concurrent_requests("R1");
    assert!(concurrent.contains(&"R2".to_string()));
    assert!(!concurrent.contains(&"R3".to_string()));

    // Handler activity summary is available for a quick overview.
    let activity = trod.declarative().handler_activity().unwrap();
    assert_eq!(
        activity.value(0, "HandlerName"),
        Some(&Value::Text("subscribeUser".into()))
    );
}

#[test]
fn tracing_survives_a_realistic_mixed_workload() {
    // Beyond the 3-request example: run a mixed subscribe/fetch workload
    // and check the provenance store keeps up and stays consistent.
    let db = moodle::moodle_db();
    let provenance = moodle::provenance_for(&db);
    let runtime = Runtime::builder(db, moodle::registry())
        .default_isolation(IsolationLevel::ReadCommitted)
        .build();
    // Requests 2k and 2k+1 subscribe the same (user, forum) pair, so
    // duplicates race; every fifth request fetches a forum's subscribers.
    let requests = (0..200)
        .map(|i| {
            let (user, forum) = (format!("U{}", i / 2 % 20), format!("F{}", i / 2 % 10));
            match i % 5 {
                4 => ("fetchSubscribers".to_string(), moodle::fetch_args(&forum)),
                _ => {
                    let args = moodle::subscribe_args(&format!("sub-{i}"), &user, &forum);
                    ("subscribeUser".to_string(), args)
                }
            }
        })
        .collect();
    let results = runtime.run_concurrent(requests, 8);
    assert_eq!(results.len(), 200);
    provenance.drain_from(runtime.tracer());

    let stats = provenance.stats();
    assert_eq!(stats.handler_invocations, 200);
    assert!(
        stats.transactions >= 200,
        "every request runs at least one txn"
    );
    // Executions row count matches the ingested transaction count.
    let execs = provenance
        .query("SELECT COUNT(*) AS n FROM Executions")
        .unwrap();
    assert_eq!(
        execs.value(0, "n"),
        Some(&Value::Int(stats.transactions as i64))
    );
}
