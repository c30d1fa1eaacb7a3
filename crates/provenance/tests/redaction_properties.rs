//! Property-based tests for privacy redaction (paper §5).
//!
//! The contract under test: after redacting every provenance entry about
//! one user, (a) none of that user's data values remain reachable through
//! the relational provenance tables or the assembled traces, (b) every
//! other user's provenance is untouched, and (c) execution metadata
//! (transaction ids, handler names) survives so the history's shape stays
//! debuggable.

use proptest::prelude::*;

use trod_db::{row, DataType, Database, Predicate, Schema, Ts, Value};
use trod_kv::Session;
use trod_provenance::ProvenanceStore;
use trod_trace::{TraceEvent, Tracer, TxnContext, TxnTrace};

/// One generated subscription insert: (user index, forum index).
fn gen_inserts() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0u8..6, 0u8..4), 1..40)
}

fn setup() -> (Database, ProvenanceStore, Session) {
    let db = Database::new();
    db.create_table(
        "forum_sub",
        Schema::builder()
            .column("id", DataType::Int)
            .column("user_id", DataType::Text)
            .column("forum", DataType::Text)
            .primary_key(&["id"])
            .build()
            .unwrap(),
    )
    .unwrap();
    let store = ProvenanceStore::new(&db);
    store
        .register_table_as(
            "forum_sub",
            "ForumEvents",
            &db.schema_of("forum_sub").unwrap(),
        )
        .unwrap();
    let traced = Session::traced(db.clone(), Tracer::new());
    (db, store, traced)
}

/// Drains the session's tracer into the store and returns the traces it
/// carried, in commit order (ties by trace timestamp).
fn ingest_teed(store: &ProvenanceStore, traced: &Session) -> Vec<TxnTrace> {
    let events = traced.tracer().unwrap().drain();
    let mut teed: Vec<TxnTrace> = events
        .iter()
        .filter_map(|event| match event {
            TraceEvent::Txn(trace) => Some((**trace).clone()),
            _ => None,
        })
        .collect();
    teed.sort_by_key(|t| (!t.committed, t.serialization_ts(), t.timestamp));
    store.ingest(events);
    teed
}

proptest! {
    // `PROPTEST_CASES`, when set, replaces the default count: CI runs
    // this property at more cases than the rest of the suite.
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(48)
    ))]

    #[test]
    fn redaction_erases_exactly_the_target_users_provenance(
        inserts in gen_inserts(),
        target in 0u8..6,
    ) {
        let (_db, store, traced) = setup();
        let target_user = format!("U{target}");

        // Trace one transaction per insert, reading before writing so both
        // read and write provenance exist.
        for (i, (user, forum)) in inserts.iter().enumerate() {
            let req = format!("R{i}");
            let mut txn = traced.begin_traced(TxnContext::new(&req, "subscribeUser", "func:DB.insert"));
            let pred = Predicate::eq("user_id", format!("U{user}"));
            let _ = txn.scan("forum_sub", &pred).unwrap();
            txn.insert("forum_sub", row![i as i64, format!("U{user}"), format!("F{forum}")])
                .unwrap();
            txn.commit().unwrap();
        }
        let teed = ingest_teed(&store, &traced);

        let target_inserts = inserts.iter().filter(|(u, _)| *u == target).count();
        let other_inserts = inserts.len() - target_inserts;

        let report = store
            .redact_rows("forum_sub", &[("user_id", Value::Text(target_user.clone()))])
            .unwrap();

        // (a) The target's values are gone from the relational event table…
        let events = store
            .query("SELECT TxnId, Type, user_id, forum FROM ForumEvents ORDER BY EventId")
            .unwrap();
        let leaked = events
            .rows()
            .iter()
            .filter(|r| r.iter().any(|v| v.as_text() == Some(target_user.as_str())))
            .count();
        prop_assert_eq!(leaked, 0, "no event row may still carry the target user");
        // …and from the assembled traces' reads and CDC images.
        let assembled = store.txns_between(0, Ts::MAX);
        let assembled_leak = assembled
            .iter()
            .flat_map(|t| t.writes.iter())
            .filter_map(|c| c.op.after().or_else(|| c.op.before()))
            .chain(assembled.iter().flat_map(|t| &t.reads).flat_map(|r| r.rows.iter().map(|(_, row)| &**row)))
            .filter(|row| row.iter().any(|v| v.as_text() == Some(target_user.as_str())))
            .count();
        prop_assert_eq!(assembled_leak, 0, "no assembled CDC image may still carry the target user");

        // (b) Every other user's write provenance survives untouched.
        let surviving_inserts = events
            .rows()
            .iter()
            .filter(|r| {
                r[1].as_text() == Some("Insert")
                    && r[2].as_text().map(|u| u != target_user).unwrap_or(false)
            })
            .count();
        prop_assert_eq!(surviving_inserts, other_inserts);

        // (c) Execution metadata survives for every traced transaction, and
        // exactly the transactions that touched the target are flagged.
        let executions = store.query("SELECT TxnId FROM Executions").unwrap();
        prop_assert_eq!(executions.len(), inserts.len());
        let flagged = teed
            .iter()
            .filter(|t| store.is_partial(t.txn_id))
            .count();
        prop_assert_eq!(flagged, report.transactions_affected);
        if target_inserts > 0 {
            prop_assert!(report.event_rows_redacted >= target_inserts);
            prop_assert!(flagged >= target_inserts);
        } else {
            prop_assert_eq!(report.total(), 0);
        }
    }

    #[test]
    fn retention_is_a_prefix_drop(
        inserts in gen_inserts(),
        keep_frac in 0.0f64..1.0,
    ) {
        let (_db, store, traced) = setup();
        for (i, (user, forum)) in inserts.iter().enumerate() {
            let mut txn = traced.begin_traced(TxnContext::new(
                format!("R{i}"),
                "subscribeUser",
                "func:DB.insert",
            ));
            txn.insert("forum_sub", row![i as i64, format!("U{user}"), format!("F{forum}")])
                .unwrap();
            txn.commit().unwrap();
        }
        let all = ingest_teed(&store, &traced);
        let keep_from = ((all.len() as f64) * (1.0 - keep_frac)) as usize;
        let cutoff = all
            .get(keep_from)
            .map(|t| t.timestamp)
            .unwrap_or(i64::MAX);

        let expected_kept = all.iter().filter(|t| t.timestamp >= cutoff).count();
        let report = store.retain_since(cutoff).unwrap();

        prop_assert_eq!(store.txn_count(), expected_kept);
        prop_assert_eq!(report.transactions_dropped, all.len() - expected_kept);
        // The relational Executions table agrees with the traces.
        let executions = store.query("SELECT TxnId FROM Executions").unwrap();
        prop_assert_eq!(executions.len(), expected_kept);
        // Every surviving transaction is at or after the cutoff.
        let kept: Vec<TxnTrace> = all.into_iter().filter(|t| t.timestamp >= cutoff).collect();
        prop_assert_eq!(store.txns_between(0, Ts::MAX), kept);
    }
}
