//! Experiments C4 and C5: security debugging (paper §4.2).
//!
//! C4 — the *User Profiles* access-control pattern: find every request
//! that updated a profile it did not own, using the paper's SQL query.
//! C5 — data exfiltration through workflows: trace sensitive data from the
//! request that harvested it, through the staging table, to the external
//! endpoint it was shipped to.

use trod::apps::profiles::{self, PROFILE_EVENTS_TABLE};
use trod::prelude::*;

fn traced_profile_service() -> trod::core::Trod {
    let db = profiles::profiles_db();
    let provenance = profiles::provenance_for(&db);
    let runtime = Runtime::new(db, profiles::registry());

    // Legitimate traffic.
    for (user, email) in [
        ("alice", "a@x.org"),
        ("bob", "b@x.org"),
        ("carol", "c@x.org"),
    ] {
        runtime.must_handle(
            "createProfile",
            Args::new().with("user_name", user).with("email", email),
        );
    }
    runtime.must_handle(
        "updateProfile",
        profiles::update_args("alice", "alice", "hello"),
    );
    runtime.must_handle("viewProfile", Args::new().with("user_name", "bob"));

    // The attack: mallory rewrites bob's profile, then a compromised
    // handler harvests all profiles into the staging table, and a separate
    // "sync" workflow ships the staged data to an external endpoint.
    runtime.handle_request_with_id(
        "ATTACK-1",
        "updateProfile",
        profiles::update_args("bob", "mallory", "defaced"),
    );
    runtime.handle_request_with_id(
        "ATTACK-2",
        "harvestProfiles",
        Args::new().with("batch", "B99"),
    );
    runtime.handle_request_with_id("ATTACK-3", "syncStaging", Args::new().with("batch", "B99"));

    provenance.drain_from(runtime.tracer());
    trod::core::Trod::attach_with(runtime, provenance)
}

#[test]
fn user_profile_pattern_violations_are_found_by_the_papers_query() {
    let trod = traced_profile_service();

    // The paper's literal query shape over ProfileEvents.
    let raw = trod
        .query(&format!(
            "SELECT Timestamp, ReqId, HandlerName \
             FROM Executions as E, {PROFILE_EVENTS_TABLE} as P ON E.TxnId = P.TxnId \
             WHERE P.user_name != P.updated_by AND P.Type = 'Update' \
             ORDER BY Timestamp ASC"
        ))
        .unwrap();
    assert_eq!(raw.len(), 1);
    assert_eq!(raw.value(0, "ReqId"), Some(&Value::Text("ATTACK-1".into())));

    // The typed helper returns the same single violation with context.
    let violations = trod
        .security()
        .user_profile_violations(PROFILE_EVENTS_TABLE, "user_name", "updated_by")
        .unwrap();
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].req_id, "ATTACK-1");
    assert_eq!(violations[0].handler, "updateProfile");
    assert!(violations[0].detail.contains("bob"));
    assert!(violations[0].detail.contains("mallory"));
}

#[test]
fn authentication_pattern_flags_unexpected_readers() {
    let trod = traced_profile_service();
    // Only viewProfile and updateProfile are sanctioned entry points that
    // may read profiles; the harvester is flagged.
    let violations = trod
        .security()
        .unauthenticated_reads(PROFILE_EVENTS_TABLE, &["viewProfile", "updateProfile"])
        .unwrap();
    assert!(!violations.is_empty());
    assert!(violations.iter().any(|v| v.handler == "harvestProfiles"));
    assert!(violations.iter().all(|v| v.handler != "viewProfile"));
}

#[test]
fn exfiltration_is_traced_from_the_harvest_to_the_external_endpoint() {
    let trod = traced_profile_service();
    let flow = trod.security().trace_data_flow("ATTACK-2");

    assert_eq!(flow.origin_req_id, "ATTACK-2");
    // The staging write is tainted, the sync request read it, and its
    // external call is the exfiltration point.
    assert!(flow
        .tainted_writes
        .iter()
        .any(|(table, _)| table == profiles::STAGING_TABLE));
    assert!(flow.tainted_requests.contains(&"ATTACK-3".to_string()));
    assert!(flow.data_left_the_system());
    let (req, service, payload) = &flow.exfiltration_candidates[0];
    assert_eq!(req, "ATTACK-3");
    assert_eq!(service, "analytics-endpoint");
    assert!(payload.contains("alice:a@x.org"));

    // A read-only request (the viewProfile call, R5) writes nothing, so it
    // taints nothing beyond itself and no data leaves the system from it.
    let benign = trod.security().trace_data_flow("R5");
    assert!(!benign.data_left_the_system());
    assert_eq!(benign.tainted_requests, vec!["R5".to_string()]);
    assert!(benign.tainted_writes.is_empty());

    // By contrast, tracing from the request that *created* alice's profile
    // shows that her data ultimately reached the external endpoint via the
    // harvest → staging → sync chain: data provenance follows the data,
    // not the attacker.
    let from_creation = trod.security().trace_data_flow("R1");
    assert!(from_creation.data_left_the_system());
}

#[test]
fn patched_access_control_stops_future_violations_retroactively() {
    let trod = traced_profile_service();
    // Retroactively re-run the attack request with the patched handler:
    // the cross-user update is denied in every ordering.
    let report = trod
        .retroactive(profiles::patched_registry())
        .requests(&["ATTACK-1"])
        .run()
        .unwrap();
    for ordering in &report.orderings {
        let attack = &ordering.outcomes[0];
        assert!(!attack.ok, "patched handler must deny the update");
        assert!(attack.output.contains("access denied"));
        assert_eq!(
            attack.original_ok,
            Some(true),
            "the buggy handler had allowed it"
        );
        assert!(attack.outcome_changed());
    }
}

#[test]
fn external_call_audit_lists_everything_that_left_the_system() {
    let trod = traced_profile_service();
    let calls = trod.security().external_calls().unwrap();
    assert_eq!(calls.len(), 1);
    assert_eq!(
        calls.value(0, "Service"),
        Some(&Value::Text("analytics-endpoint".into()))
    );
}
