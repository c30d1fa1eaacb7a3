//! Experiment F3a: faithful bug replay of the Moodle race (paper §3.5,
//! Figure 3 top).
//!
//! Replays request R1 in a development database: its first transaction
//! sees no subscription, then TROD injects R2's concurrently committed
//! insert, then R1's second transaction inserts the duplicate — making the
//! cause of the duplication visible step by step.

use trod::apps::moodle::{self, FORUM_SUB_TABLE};
use trod::prelude::*;

fn traced_scenario() -> trod::core::Trod {
    let scenario = moodle::toctou_scenario();
    scenario.run();
    scenario.into_trod()
}

#[test]
fn replaying_r1_reveals_the_interleaved_insert() {
    let trod = traced_scenario();
    let mut session = trod.replay("R1").unwrap();
    assert_eq!(session.steps().len(), 2, "R1 ran two transactions");
    assert_eq!(session.position(), 0);
    assert!(!session.is_finished());

    // Step 1: the isSubscribed check. Nothing is injected before it and
    // the development database contains no subscription yet.
    let step1 = session.step().unwrap().unwrap();
    assert_eq!(step1.function, "func:isSubscribed");
    assert!(step1.injected.is_empty());
    assert!(step1.is_faithful());
    assert_eq!(
        session
            .dev_db()
            .scan_latest(FORUM_SUB_TABLE, &Predicate::True)
            .unwrap()
            .len(),
        0
    );

    // Step 2: before R1's insert, TROD injects the change committed by the
    // concurrent request R2 — the developer can now *see* the database
    // being modified between R1's two transactions.
    let step2 = session.step().unwrap().unwrap();
    assert_eq!(step2.function, "func:DB.insert");
    assert_eq!(step2.injected.len(), 1);
    assert_eq!(step2.injected[0].1, "R2");
    assert!(step2.is_faithful());
    assert_eq!(step2.writes_applied, 1);

    // After the replay, the development database shows the duplicate, just
    // like production did.
    let rows = session
        .dev_db()
        .scan_latest(
            FORUM_SUB_TABLE,
            &Predicate::eq("user_id", "U1").and(Predicate::eq("forum", "F2")),
        )
        .unwrap();
    assert_eq!(rows.len(), 2);

    assert!(session.step().unwrap().is_none());
    assert!(session.is_finished());
}

#[test]
fn replaying_r2_is_also_faithful_and_injects_nothing() {
    // R2's insert committed *before* R1's, so replaying R2 needs no
    // injected dependencies at all.
    let trod = traced_scenario();
    let report = trod.replay("R2").unwrap().run_to_end().unwrap();
    assert_eq!(report.req_id, "R2");
    assert_eq!(report.steps.len(), 2);
    assert!(report.is_faithful());
    assert_eq!(report.injected_count(), 0);
}

#[test]
fn replaying_the_fetch_request_reproduces_the_error_context() {
    let trod = traced_scenario();
    let report = trod.replay("R3").unwrap().run_to_end().unwrap();
    assert!(report.is_faithful());
    // The fetch read both duplicate rows; the replay verified both.
    assert_eq!(report.steps.len(), 1);
    assert_eq!(report.steps[0].reads_checked, 2);
}

#[test]
fn replay_of_unknown_or_untraced_requests_fails_cleanly() {
    let trod = traced_scenario();
    assert!(matches!(
        trod.replay("R999"),
        Err(trod::core::ReplayError::UnknownRequest(_))
    ));
}

#[test]
fn replay_works_from_provenance_and_a_forked_production_database() {
    // The same replay can be driven directly from the provenance store and
    // production database handles (no Trod façade), which is how a
    // separate development environment would consume shipped traces.
    let scenario = moodle::toctou_scenario();
    scenario.run();
    scenario.sync_provenance();
    let mut session = trod::core::ReplaySession::for_session(
        &scenario.provenance,
        &trod::kv::Session::new(scenario.runtime.database().clone()),
        "R1",
    )
    .unwrap();
    let report = session.run_to_end().unwrap();
    assert!(report.is_faithful());
    assert_eq!(report.injected_count(), 1);
}

#[test]
fn replay_is_faithful_for_every_request_of_a_larger_workload() {
    // Property-style end-to-end check over a concurrent workload: every
    // traced request can be replayed faithfully.
    let db = moodle::moodle_db();
    let provenance = moodle::provenance_for(&db);
    let runtime = Runtime::builder(db, moodle::registry())
        .default_isolation(IsolationLevel::ReadCommitted)
        .build();
    // Requests 2k and 2k+1 subscribe the same (user, forum) pair, so
    // duplicates race; every fifth request fetches a forum's subscribers.
    let requests = (0..120)
        .map(|i| {
            let (user, forum) = (format!("U{}", i / 2 % 10), format!("F{}", i / 2 % 4));
            match i % 5 {
                4 => ("fetchSubscribers".to_string(), moodle::fetch_args(&forum)),
                _ => {
                    let args = moodle::subscribe_args(&format!("sub-{i}"), &user, &forum);
                    ("subscribeUser".to_string(), args)
                }
            }
        })
        .collect();
    runtime.run_concurrent(requests, 8);
    provenance.drain_from(runtime.tracer());

    let mut replayed = 0;
    let production = trod::kv::Session::new(runtime.database().clone());
    for req_id in provenance.request_ids() {
        match trod::core::ReplaySession::for_session(&provenance, &production, &req_id) {
            Ok(mut session) => {
                let report = session.run_to_end().unwrap();
                assert!(
                    report.is_faithful(),
                    "request {req_id} replayed unfaithfully: {:?}",
                    report
                        .steps
                        .iter()
                        .flat_map(|s| s.mismatches.clone())
                        .collect::<Vec<_>>()
                );
                replayed += 1;
            }
            // Requests whose only transaction aborted have nothing to replay.
            Err(trod::core::ReplayError::NoTransactions(_)) => {}
            Err(e) => panic!("unexpected replay error for {req_id}: {e}"),
        }
    }
    assert!(replayed > 100, "most requests should be replayable");
}

#[test]
fn read_committed_reads_past_the_snapshot_replay_faithfully() {
    // A read-committed transaction legally observes a commit that landed
    // AFTER its snapshot. The per-read timestamps recorded by the unified
    // Txn surface let the replay engine inject that commit before the
    // read is verified — without them this replay deterministically
    // reported the row as "missing in development database".
    let db = moodle::moodle_db();
    let provenance = moodle::provenance_for(&db);
    let tracer = Tracer::new();
    let session = Session::traced(db.clone(), tracer.clone());

    // The reader begins first (snapshot taken here)...
    let mut reader = session.begin_with(
        trod::kv::TxnOptions::new()
            .isolation(IsolationLevel::ReadCommitted)
            .traced(TxnContext::new(
                "R-reader",
                "fetchSubscribers",
                "func:DB.executeQuery",
            )),
    );
    // ...then a concurrent writer commits a subscription...
    let mut writer = session.begin_traced(TxnContext::new("R-writer", "subscribeUser", "f"));
    writer
        .insert(FORUM_SUB_TABLE, trod::db::row!["sub-1", "U1", "F2"])
        .unwrap();
    writer.commit().unwrap();
    // ...and the read-committed reader observes it mid-transaction.
    let rows = reader
        .scan(FORUM_SUB_TABLE, &Predicate::eq("forum", "F2"))
        .unwrap();
    assert_eq!(rows.len(), 1, "read committed sees the fresh commit");
    reader.commit().unwrap();
    provenance.drain_from(&tracer);

    let mut replay = trod::core::ReplaySession::for_session(
        &provenance,
        &trod::kv::Session::new(db.clone()),
        "R-reader",
    )
    .unwrap();
    let report = replay.run_to_end().unwrap();
    assert!(
        report.is_faithful(),
        "per-read timestamps must make the RC read replayable: {:?}",
        report
            .steps
            .iter()
            .flat_map(|s| s.mismatches.clone())
            .collect::<Vec<_>>()
    );
    assert_eq!(
        report.injected_count(),
        1,
        "the writer's commit is injected before the read is checked"
    );
}
