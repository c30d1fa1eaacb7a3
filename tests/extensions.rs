//! Integration tests for the §5 research-direction features exposed on the
//! `Trod` façade: performance debugging, data-quality debugging with
//! provenance blame, privacy redaction with "debugging from partial data",
//! and weak-isolation auditing — all exercised through the same Moodle
//! scenario the paper uses as its running example.

use trod::apps::moodle;
use trod::prelude::*;

/// Runs the MDL-59854 race (duplicated forum subscription) and hands back
/// a fully attached debugger.
fn buggy_moodle_trod() -> Trod {
    let scenario = moodle::toctou_scenario();
    let error = scenario.run();
    assert!(error.is_some(), "the racy schedule must reproduce the bug");
    scenario.sync_provenance();
    scenario.into_trod()
}

#[test]
fn perf_views_are_computed_from_existing_provenance() {
    let trod = buggy_moodle_trod();
    let perf = trod.perf();

    let latencies = perf.handler_latencies();
    assert!(!latencies.is_empty());
    let subscribe = latencies
        .iter()
        .find(|l| l.handler == "subscribeUser")
        .expect("subscribeUser was traced");
    assert_eq!(subscribe.invocations, 2);
    assert_eq!(
        subscribe.transactions, 4,
        "two transactions per subscribe request"
    );
    assert!(subscribe.p95_us >= subscribe.p50_us);

    // Every handler invocation qualifies at threshold zero; none at MAX.
    assert!(perf.slow_requests(0).len() >= 3);
    assert!(perf.slow_requests(i64::MAX).is_empty());

    let profile = perf.request_breakdown("R1").expect("R1 was traced");
    assert_eq!(profile.root.handler, "subscribeUser");
    assert_eq!(profile.transactions, 2);
    assert!(profile.end_to_end_us.is_some());

    let profiles = perf.all_request_profiles();
    assert_eq!(profiles.len(), 3, "R1, R2 and R3 were traced");
}

#[test]
fn quality_rules_blame_the_requests_that_created_the_duplicate() {
    let trod = buggy_moodle_trod();
    let report = trod
        .quality()
        .check(&[Invariant::no_duplicates(
            moodle::FORUM_SUB_TABLE,
            &["user_id", "forum"],
        )])
        .expect("rules evaluate");

    assert_eq!(
        report.violations.len(),
        1,
        "exactly one duplicated subscription"
    );
    let blamed = &report.violations[0];
    assert!(
        !blamed.culprits.is_empty(),
        "the duplicate must be blamed on a request"
    );
    assert!(blamed
        .culprits
        .iter()
        .all(|c| c.handler == "subscribeUser" && c.operation == "Insert"));
    let implicated = report.implicated_requests();
    assert!(implicated.iter().all(|r| r == "R1" || r == "R2"));
}

#[test]
fn redaction_marks_replay_as_partial_data() {
    let trod = buggy_moodle_trod();

    // Before redaction the replay is fully faithful and on complete data.
    let report = trod
        .replay("R1")
        .expect("R1 traced")
        .run_to_end()
        .expect("replay");
    assert!(report.is_faithful());
    assert!(!report.has_partial_data());

    // The affected user invokes their right to erasure.
    let redaction = trod
        .provenance()
        .redact_rows(
            moodle::FORUM_SUB_TABLE,
            &[("user_id", Value::Text("U1".into()))],
        )
        .expect("redaction");
    assert!(redaction.transactions_affected > 0);

    // Replay still runs, but reports that it operated on partial data.
    let partial = trod
        .replay("R1")
        .expect("R1 traced")
        .run_to_end()
        .expect("replay");
    assert!(partial.has_partial_data());
}

#[test]
fn reenactment_confirms_the_serializable_history_is_snapshot_consistent() {
    let trod = buggy_moodle_trod();
    let reenactor = trod.reenactor();

    // Every transaction of every request reenacts consistently: the
    // history ran under strict serializability, so time-travel
    // reconstruction at each snapshot matches the recorded reads.
    for req in ["R1", "R2", "R3"] {
        for report in reenactor.reenact_request(req).expect("reenactment") {
            assert!(
                report.is_snapshot_consistent(),
                "{req} txn {} diverged: {:?}",
                report.txn_id,
                report.divergent_reads
            );
        }
    }

    // The two inserts write different keys and read nothing each other
    // wrote, so neither lost-update nor write-skew candidates exist.
    assert!(reenactor.audit_anomalies().is_empty());
}

#[test]
fn retention_after_the_investigation_empties_the_store_but_keeps_it_usable() {
    let trod = buggy_moodle_trod();
    let cutoff = trod.runtime().tracer().now();
    let report = trod.provenance().retain_since(cutoff).expect("retention");
    assert!(report.transactions_dropped >= 5);
    assert_eq!(trod.provenance().txn_count(), 0);

    // New traffic after the cutoff is traced and queryable as usual.
    let result = trod
        .runtime()
        .handle_request("fetchSubscribers", moodle::fetch_args("F2"));
    assert!(!result.req_id.is_empty());
    trod.sync();
    assert!(trod.provenance().txn_count() >= 1);
}
