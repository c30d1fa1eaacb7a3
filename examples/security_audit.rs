//! Security forensics with TROD (paper §4.2).
//!
//! A profile service is attacked: one request rewrites another user's
//! profile (access-control violation), another harvests all profiles into
//! a staging table, and a third ships the staged data to an external
//! endpoint. The audit below finds all of it from provenance alone.
//!
//! Run with: `cargo run --example security_audit`

use trod::apps::profiles::{self, PROFILE_EVENTS_TABLE};
use trod::prelude::*;

fn main() {
    // --- Production ------------------------------------------------------
    let db = profiles::profiles_db();
    let provenance = profiles::provenance_for(&db);
    let runtime = Runtime::new(db, profiles::registry());

    for (user, email) in [("alice", "a@example.org"), ("bob", "b@example.org")] {
        runtime.must_handle(
            "createProfile",
            Args::new().with("user_name", user).with("email", email),
        );
    }
    runtime.must_handle(
        "updateProfile",
        profiles::update_args("alice", "alice", "hi there"),
    );

    // The attack.
    runtime.handle_request_with_id(
        "ATTACK-1",
        "updateProfile",
        profiles::update_args("bob", "mallory", "defaced"),
    );
    runtime.handle_request_with_id(
        "ATTACK-2",
        "harvestProfiles",
        Args::new().with("batch", "B1"),
    );
    runtime.handle_request_with_id("ATTACK-3", "syncStaging", Args::new().with("batch", "B1"));

    provenance.drain_from(runtime.tracer());
    let trod = Trod::attach_with(runtime, provenance);

    // --- Audit 1: the User-Profiles access-control pattern ----------------
    println!("== User-Profiles pattern check (paper's SQL query) ==");
    let sql = format!(
        "SELECT Timestamp, ReqId, HandlerName \
         FROM Executions as E, {PROFILE_EVENTS_TABLE} as P ON E.TxnId = P.TxnId \
         WHERE P.user_name != P.updated_by AND P.Type = 'Update'"
    );
    println!("{}", trod.query(&sql).expect("pattern query"));

    let violations = trod
        .security()
        .user_profile_violations(PROFILE_EVENTS_TABLE, "user_name", "updated_by")
        .expect("pattern query");
    for v in &violations {
        println!(
            "violation: request {} via {} — {}",
            v.req_id, v.handler, v.detail
        );
    }

    // --- Audit 2: who read profiles without being an entry point? ---------
    println!("\n== Authentication pattern check ==");
    let readers = trod
        .security()
        .unauthenticated_reads(PROFILE_EVENTS_TABLE, &["viewProfile", "updateProfile"])
        .expect("pattern query");
    for r in &readers {
        println!("suspicious read: request {} via {}", r.req_id, r.handler);
    }

    // --- Audit 3: did the harvested data leave the system? ----------------
    println!("\n== Data-flow trace from the harvesting request ==");
    let flow = trod.security().trace_data_flow("ATTACK-2");
    println!("tainted requests: {:?}", flow.tainted_requests);
    println!("tainted writes:   {:?}", flow.tainted_writes);
    for (req, service, payload) in &flow.exfiltration_candidates {
        println!("EXFILTRATION: request {req} sent data to `{service}`: {payload}");
    }

    // --- Remediation: retroactively verify the access-control fix ---------
    println!("\n== Retroactive test of the patched updateProfile ==");
    let report = trod
        .retroactive(profiles::patched_registry())
        .requests(&["ATTACK-1"])
        .run()
        .expect("retroactive run");
    for outcome in &report.orderings[0].outcomes {
        println!(
            "re-executed {} with the patch: ok = {} (production outcome was ok = {:?}) -> {}",
            outcome.original_req_id, outcome.ok, outcome.original_ok, outcome.output
        );
    }
}
