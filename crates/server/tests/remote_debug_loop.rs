//! The acceptance test for the remote debugger: the full debug loop —
//! invoke over HTTP → fork at the request's commit timestamp over the
//! wire → replay the traced request against a development fork with zero
//! skipped writes → retroactively re-execute under a server-side patch —
//! and every step produces results identical to running the same loop
//! in-process against an identical instance.

use trod_apps::moodle;
use trod_core::json::Json;
use trod_core::Trod;
use trod_db::Ts;
use trod_query::QueryEngine;
use trod_runtime::Runtime;
use trod_server::{Client, ServerBuilder};

const PATCH: &str = "atomic-subscribe";
const SUBS_SQL: &str = "SELECT sub_id, user_id, forum FROM forum_sub ORDER BY sub_id ASC";

fn fresh_trod() -> Trod {
    let db = moodle::moodle_db();
    let provenance = moodle::provenance_for(&db);
    let runtime = Runtime::builder(db, moodle::registry()).build();
    Trod::attach_with(runtime, provenance)
}

/// Renders a local result set in the wire's `{columns, rows}` shape so
/// wire and in-process answers are comparable as JSON text.
fn local_rows(db: &trod_db::Database, sql: &str) -> String {
    let rs = QueryEngine::new(db.clone())
        .execute(sql)
        .expect("local sql");
    let rows: Vec<Json> = rs
        .rows()
        .iter()
        .map(|r| Json::Array(r.iter().map(trod_core::wire::value_to_json).collect()))
        .collect();
    Json::Array(rows).to_string()
}

#[test]
fn remote_debug_loop_matches_in_process() {
    // --- the remote instance, driven entirely over the wire ----------
    let server = ServerBuilder::new(fresh_trod())
        .patch(PATCH, moodle::patched_registry())
        .serve("127.0.0.1:0")
        .expect("bind");
    let mut client = Client::connect(&server.addr()).expect("connect");

    // --- the in-process twin: same app, same request sequence --------
    let local = fresh_trod();

    let mut wire_commits: Vec<(String, Ts)> = Vec::new();
    let mut local_commits: Vec<(String, Ts)> = Vec::new();
    for (sub, user) in [("sub-1", "U1"), ("sub-2", "U2")] {
        let result = client
            .call(
                "trod_invoke",
                Json::obj(vec![
                    ("handler", Json::str("subscribeUser")),
                    (
                        "args",
                        Json::obj(vec![
                            ("sub_id", Json::str(sub)),
                            ("user_id", Json::str(user)),
                            ("forum", Json::str("F1")),
                        ]),
                    ),
                    ("sync", Json::Bool(true)),
                ]),
            )
            .expect("wire invoke");
        wire_commits.push((
            result
                .get("req_id")
                .and_then(Json::as_str)
                .unwrap()
                .to_string(),
            result.get("commit_ts").and_then(Json::as_u64).unwrap(),
        ));

        let local_result = local
            .runtime()
            .handle_request("subscribeUser", moodle::subscribe_args(sub, user, "F1"));
        assert!(local_result.is_ok());
        local.sync();
        let commit_ts = local
            .provenance()
            .txns_for_request(&local_result.req_id)
            .iter()
            .map(|t| t.commit_ts)
            .max()
            .unwrap();
        local_commits.push((local_result.req_id, commit_ts));
    }

    // Identical instances assign identical request ids and commit
    // timestamps — the precondition for everything below.
    assert_eq!(wire_commits, local_commits);
    let (req_1, ts_1) = wire_commits[0].clone();

    // --- fork at the first request's commit ts, over the wire --------
    let fork = client
        .call("trod_fork", Json::obj(vec![("ts", Json::from(ts_1))]))
        .expect("wire fork");
    let fork_id = fork
        .get("fork_id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let wire_fork_rows = client
        .call(
            "trod_sql",
            Json::obj(vec![
                ("fork", Json::str(fork_id.clone())),
                ("sql", Json::str(SUBS_SQL)),
            ]),
        )
        .expect("fork sql");

    let local_fork = local.fork_at(ts_1).expect("local fork");
    assert_eq!(
        wire_fork_rows.get("rows").unwrap().to_string(),
        local_rows(local_fork.database(), SUBS_SQL),
        "wire fork at ts {ts_1} must equal the in-process Session::fork_at"
    );
    // Only the first subscription exists at ts_1.
    assert_eq!(
        wire_fork_rows
            .get("rows")
            .and_then(Json::as_array)
            .unwrap()
            .len(),
        1
    );

    // --- replay the traced request against a fork, over the wire -----
    let wire_replay = client
        .call(
            "trod_replay",
            Json::obj(vec![("req_id", Json::str(req_1.clone()))]),
        )
        .expect("wire replay");
    assert_eq!(
        wire_replay.get("faithful").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        wire_replay.get("writes_skipped").and_then(Json::as_u64),
        Some(0),
        "replay must apply every write"
    );

    let mut local_replay = local.replay(&req_1).expect("local replay");
    let local_report = local_replay.run_to_end().expect("local replay run");
    assert!(local_report.is_faithful());
    assert_eq!(local_report.writes_skipped(), 0);

    // Step-by-step equivalence: same transactions, same injections,
    // same read checks, same write counts.
    let wire_steps = wire_replay.get("steps").and_then(Json::as_array).unwrap();
    assert_eq!(wire_steps.len(), local_report.steps.len());
    for (wire_step, local_step) in wire_steps.iter().zip(&local_report.steps) {
        assert_eq!(
            wire_step.get("txn_id").and_then(Json::as_u64),
            Some(local_step.txn_id)
        );
        assert_eq!(
            wire_step.get("handler").and_then(Json::as_str),
            Some(local_step.handler.as_str())
        );
        assert_eq!(
            wire_step.get("reads_checked").and_then(Json::as_u64),
            Some(local_step.reads_checked as u64)
        );
        assert_eq!(
            wire_step.get("writes_applied").and_then(Json::as_u64),
            Some(local_step.writes_applied as u64)
        );
        assert_eq!(
            wire_step
                .get("injected")
                .and_then(Json::as_array)
                .unwrap()
                .len(),
            local_step.injected.len()
        );
        assert_eq!(
            wire_step
                .get("mismatches")
                .and_then(Json::as_array)
                .unwrap()
                .len(),
            0
        );
    }

    // The replay's development environment is inspectable over the wire
    // and matches the in-process replay's dev state.
    let replay_fork = wire_replay.get("fork_id").and_then(Json::as_str).unwrap();
    let wire_dev_rows = client
        .call(
            "trod_sql",
            Json::obj(vec![
                ("fork", Json::str(replay_fork)),
                ("sql", Json::str(SUBS_SQL)),
            ]),
        )
        .expect("replay fork sql");
    assert_eq!(
        wire_dev_rows.get("rows").unwrap().to_string(),
        local_rows(local_replay.dev_db(), SUBS_SQL)
    );

    // --- reenactment: both sides see snapshot-consistent reads -------
    let wire_reenact = client
        .call(
            "trod_reenact",
            Json::obj(vec![("req_id", Json::str(req_1.clone()))]),
        )
        .expect("wire reenact");
    let local_reenact = local
        .reenactor()
        .reenact_request(&req_1)
        .expect("local reenact");
    let wire_reports = wire_reenact
        .get("reports")
        .and_then(Json::as_array)
        .unwrap();
    assert_eq!(wire_reports.len(), local_reenact.len());
    for (wire_report, local_report) in wire_reports.iter().zip(&local_reenact) {
        assert_eq!(
            wire_report
                .get("snapshot_consistent")
                .and_then(Json::as_bool),
            Some(local_report.is_snapshot_consistent())
        );
        assert_eq!(
            wire_report.get("reads_checked").and_then(Json::as_u64),
            Some(local_report.reads_checked as u64)
        );
    }

    // --- retroactive re-execution under the named patch --------------
    let req_ids: Vec<Json> = wire_commits
        .iter()
        .map(|(id, _)| Json::str(id.clone()))
        .collect();
    let wire_retro = client
        .call(
            "trod_retroactive",
            Json::obj(vec![
                ("patch", Json::str(PATCH)),
                ("requests", Json::Array(req_ids)),
                ("keep_forks", Json::Bool(true)),
            ]),
        )
        .expect("wire retroactive");

    let local_retro = local
        .retroactive(moodle::patched_registry())
        .requests(&[&wire_commits[0].0, &wire_commits[1].0])
        .run()
        .expect("local retroactive");

    assert_eq!(
        wire_retro.get("snapshot_ts").and_then(Json::as_u64),
        Some(local_retro.snapshot_ts)
    );
    assert_eq!(
        wire_retro.get("conflicting_pairs").and_then(Json::as_u64),
        Some(local_retro.conflicting_pairs as u64)
    );
    let wire_orderings = wire_retro
        .get("orderings")
        .and_then(Json::as_array)
        .unwrap();
    assert_eq!(wire_orderings.len(), local_retro.orderings.len());
    for (wire_ordering, local_ordering) in wire_orderings.iter().zip(&local_retro.orderings) {
        let wire_outcomes = wire_ordering
            .get("outcomes")
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(wire_outcomes.len(), local_ordering.outcomes.len());
        for (wire_outcome, local_outcome) in wire_outcomes.iter().zip(&local_ordering.outcomes) {
            assert_eq!(
                wire_outcome.get("req_id").and_then(Json::as_str),
                Some(local_outcome.req_id.as_str())
            );
            assert_eq!(
                wire_outcome.get("ok").and_then(Json::as_bool),
                Some(local_outcome.ok)
            );
            assert_eq!(
                wire_outcome.get("output").and_then(Json::as_str),
                Some(local_outcome.output.as_str())
            );
        }
        // The patched re-execution's final state, inspected through the
        // ordering's wire fork, matches the in-process dev environment.
        let ordering_fork = wire_ordering.get("fork_id").and_then(Json::as_str).unwrap();
        let wire_state = client
            .call(
                "trod_sql",
                Json::obj(vec![
                    ("fork", Json::str(ordering_fork)),
                    ("sql", Json::str(SUBS_SQL)),
                ]),
            )
            .expect("ordering fork sql");
        assert_eq!(
            wire_state.get("rows").unwrap().to_string(),
            local_rows(local_ordering.dev_db(), SUBS_SQL)
        );
    }

    // --- a retroactive run that selects its requests by table --------
    let wire_by_table = client
        .call(
            "trod_retroactive",
            Json::obj(vec![
                ("patch", Json::str(PATCH)),
                ("table", Json::str(moodle::FORUM_SUB_TABLE)),
            ]),
        )
        .expect("wire retroactive by table");
    let local_by_table = local
        .retroactive(moodle::patched_registry())
        .requests_touching_table(moodle::FORUM_SUB_TABLE)
        .run()
        .expect("local retroactive by table");
    assert_eq!(
        wire_by_table.get("snapshot_ts").and_then(Json::as_u64),
        Some(local_by_table.snapshot_ts)
    );
    let wire_orderings = wire_by_table
        .get("orderings")
        .and_then(Json::as_array)
        .unwrap();
    assert_eq!(wire_orderings.len(), local_by_table.orderings.len());
    for (wire_ordering, local_ordering) in wire_orderings.iter().zip(&local_by_table.orderings) {
        let order: Vec<&str> = wire_ordering
            .get("order")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|r| r.as_str().unwrap())
            .collect();
        assert_eq!(order, local_ordering.order);
        let wire_ok: Vec<Option<bool>> = wire_ordering
            .get("outcomes")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|o| o.get("ok").and_then(Json::as_bool))
            .collect();
        let local_ok: Vec<Option<bool>> =
            local_ordering.outcomes.iter().map(|o| Some(o.ok)).collect();
        assert_eq!(wire_ok, local_ok);
    }
    // Both subscriptions touched `forum_sub`, in commit order.
    let mut selected = local_by_table.orderings[0].order.clone();
    selected.sort();
    let mut expected: Vec<String> = wire_commits.iter().map(|(id, _)| id.clone()).collect();
    expected.sort();
    assert_eq!(selected, expected);

    // --- the anomaly audit ------------------------------------------
    let wire_audit = client
        .call("trod_anomalies", Json::obj(Vec::<(&str, Json)>::new()))
        .expect("wire anomalies");
    let local_audit = local.reenactor().audit_anomalies();
    let wire_anomalies = wire_audit
        .get("anomalies")
        .and_then(Json::as_array)
        .unwrap();
    assert_eq!(wire_anomalies.len(), local_audit.len());
    for (wire_anomaly, local_anomaly) in wire_anomalies.iter().zip(&local_audit) {
        assert_eq!(
            wire_anomaly.get("kind").and_then(Json::as_str),
            Some(local_anomaly.kind.to_string().as_str())
        );
        let txns: Vec<u64> = wire_anomaly
            .get("txns")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|t| t.as_u64().unwrap())
            .collect();
        assert_eq!(txns, [local_anomaly.txns.0, local_anomaly.txns.1]);
    }

    // --- the trace itself round-trips over the wire ------------------
    let wire_trace = client
        .call(
            "trod_trace",
            Json::obj(vec![("req_id", Json::str(req_1.clone()))]),
        )
        .expect("wire trace");
    let local_trace = local.provenance().txns_for_request(&req_1);
    let wire_txns = wire_trace.get("txns").and_then(Json::as_array).unwrap();
    assert_eq!(wire_txns.len(), local_trace.len());
    for (wire_txn, local_txn) in wire_txns.iter().zip(&local_trace) {
        let mut decoded = trod_core::wire::txn_trace_from_json(wire_txn).expect("decode trace");
        let mut expected = local_txn.clone();
        // The trace timestamp is wall-clock and differs between the two
        // instances; everything logical must match exactly.
        decoded.timestamp = 0;
        expected.timestamp = 0;
        assert_eq!(decoded, expected);
    }

    // Fork bookkeeping: the explicit fork, the replay fork, and one per
    // retroactive ordering (keep_forks), all listed and droppable.
    let listed = client
        .call("fork_list", Json::obj(Vec::<(&str, Json)>::new()))
        .expect("fork_list");
    let forks = listed.get("forks").and_then(Json::as_array).unwrap();
    assert_eq!(forks.len(), 2 + local_retro.orderings.len());
    client
        .call("fork_drop", Json::obj(vec![("fork", Json::str(fork_id))]))
        .expect("fork_drop");

    server.shutdown();
}
