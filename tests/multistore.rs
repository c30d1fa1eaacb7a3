//! Cross-data-store tracing end to end (paper §5, "Handling Multiple Data
//! Stores"): an application that keeps orders in the relational store and
//! session state in a key-value store, coordinated through the unified
//! session's commit coordinator, produces one aligned provenance history
//! that the normal TROD workflow (declarative debugging, redaction)
//! operates on.

use trod::db::{DataType, Database, Key, Predicate, Schema, Value};
use trod::kv::{kv_provenance_schema, kv_table_name, Session};
use trod::provenance::ProvenanceStore;
use trod::trace::{Tracer, TxnContext};

fn orders_db() -> Database {
    let db = Database::new();
    db.create_table(
        "orders",
        Schema::builder()
            .column("id", DataType::Int)
            .column("customer", DataType::Text)
            .column("item", DataType::Text)
            .primary_key(&["id"])
            .build()
            .unwrap(),
    )
    .unwrap();
    db
}

fn traced_cross_store() -> (Session, ProvenanceStore, Tracer) {
    let db = orders_db();
    let tracer = Tracer::new();
    let cross = Session::traced(db.clone(), tracer.clone());
    cross.create_namespace("sessions").unwrap();

    let provenance = ProvenanceStore::new(&db);
    provenance
        .register_table_as("orders", "OrderEvents", &db.schema_of("orders").unwrap())
        .unwrap();
    provenance
        .register_table_as(
            &kv_table_name("sessions"),
            "SessionEvents",
            &kv_provenance_schema(),
        )
        .unwrap();
    (cross, provenance, tracer)
}

/// Serves one "checkout" request that writes both stores atomically.
fn checkout(cross: &Session, req: &str, order_id: i64, customer: &str, item: &str) {
    let mut txn = cross.begin_traced(TxnContext::new(req, "checkout", "func:placeOrder"));
    assert!(!txn
        .exists("orders", &Predicate::eq("id", order_id))
        .unwrap());
    txn.insert("orders", trod::db::row![order_id, customer, item])
        .unwrap();
    txn.kv_put("sessions", &format!("cart:{customer}"), "checked-out")
        .unwrap();
    txn.commit().unwrap();
}

#[test]
fn cross_store_commits_produce_one_aligned_provenance_history() {
    let (cross, provenance, tracer) = traced_cross_store();
    checkout(&cross, "R1", 1, "alice", "widget");
    checkout(&cross, "R2", 2, "bob", "gadget");
    provenance.drain_from(&tracer);

    // One Executions row per cross-store transaction.
    let execs = provenance
        .query("SELECT TxnId, ReqId, CommitTs FROM Executions ORDER BY CommitTs")
        .unwrap();
    assert_eq!(execs.len(), 2);

    // The aligned log and the provenance agree on the commit order and
    // timestamps — this is the "aligned transaction logs" requirement.
    let aligned = cross.database().log_entries();
    assert_eq!(aligned.len(), 2);
    for (i, commit) in aligned.iter().enumerate() {
        assert_eq!(
            execs.value(i, "CommitTs"),
            Some(&Value::Int(commit.commit_ts as i64)),
            "aligned log entry {i} must match the Executions commit order"
        );
    }

    // The relational transaction log IS the aligned log: every commit's
    // key-value changes ride in the same entry as its relational ones,
    // under the virtual kv:<namespace> table name.
    let aligned_entries = cross
        .database()
        .log_entries()
        .iter()
        .filter(|e| e.writes_table(&kv_table_name("sessions")) && e.writes_table("orders"))
        .count();
    assert_eq!(aligned_entries, 2);

    // Data-operation provenance exists for both stores.
    let order_events = provenance
        .query("SELECT Type, customer FROM OrderEvents ORDER BY EventId")
        .unwrap();
    assert!(order_events.len() >= 2);
    let session_events = provenance
        .query("SELECT Type, kv_key, kv_value FROM SessionEvents ORDER BY EventId")
        .unwrap();
    assert_eq!(session_events.len(), 2);
    assert_eq!(
        session_events.value(0, "kv_key"),
        Some(&Value::Text("cart:alice".into()))
    );
}

#[test]
fn declarative_debugging_answers_who_wrote_this_kv_key() {
    let (cross, provenance, tracer) = traced_cross_store();
    checkout(&cross, "R1", 1, "alice", "widget");
    checkout(&cross, "R2", 2, "bob", "gadget");
    provenance.drain_from(&tracer);

    // The paper's §3.3 query shape, pointed at key-value provenance: which
    // request wrote bob's cart session?
    let result = provenance
        .query(
            "SELECT ReqId, HandlerName FROM Executions as E, SessionEvents as S \
             ON E.TxnId = S.TxnId \
             WHERE S.kv_key = 'cart:bob' ORDER BY Timestamp",
        )
        .unwrap();
    assert_eq!(result.len(), 1);
    assert_eq!(result.value(0, "ReqId"), Some(&Value::Text("R2".into())));
    assert_eq!(
        result.value(0, "HandlerName"),
        Some(&Value::Text("checkout".into()))
    );
}

#[test]
fn kv_provenance_can_be_redacted_like_relational_provenance() {
    let (cross, provenance, tracer) = traced_cross_store();
    checkout(&cross, "R1", 1, "alice", "widget");
    checkout(&cross, "R2", 2, "bob", "gadget");
    provenance.drain_from(&tracer);

    let report = provenance
        .redact_rows(
            &kv_table_name("sessions"),
            &[("kv_key", Value::Text("cart:alice".into()))],
        )
        .unwrap();
    assert_eq!(report.event_rows_redacted, 1);
    // Alice's assembled trace carries her kv write erased, and the order
    // written in the same commit whole.
    let trace = provenance.txns_for_request("R1").pop().unwrap();
    let image = |table: &str| {
        let change = trace.writes.iter().find(|c| &*c.table == table).unwrap();
        change.op.after().unwrap().clone()
    };
    assert!(image(&kv_table_name("sessions")).iter().all(Value::is_null));
    assert_eq!(image("orders").get(1), Some(&Value::Text("alice".into())));

    let remaining = provenance
        .query("SELECT kv_key FROM SessionEvents ORDER BY EventId")
        .unwrap();
    let leaked = remaining
        .rows()
        .iter()
        .filter(|r| r.iter().any(|v| v.as_text() == Some("cart:alice")))
        .count();
    assert_eq!(leaked, 0, "alice's session key must no longer be visible");
    let bob_rows = remaining
        .rows()
        .iter()
        .filter(|r| r.iter().any(|v| v.as_text() == Some("cart:bob")))
        .count();
    assert_eq!(bob_rows, 1, "bob's provenance must be untouched");
}

#[test]
fn cross_store_conflicts_keep_both_stores_consistent_under_concurrency() {
    let (cross, provenance, tracer) = traced_cross_store();

    // Two requests race to place the same order id while updating the same
    // session key; exactly one may win, and the loser must leave no trace
    // in either store.
    let mut first = cross.begin_traced(TxnContext::new("R1", "checkout", "func:placeOrder"));
    let mut second = cross.begin_traced(TxnContext::new("R2", "checkout", "func:placeOrder"));
    first
        .insert("orders", trod::db::row![1i64, "alice", "widget"])
        .unwrap();
    first.kv_put("sessions", "cart:alice", "first").unwrap();
    second
        .insert("orders", trod::db::row![1i64, "alice", "gadget"])
        .unwrap();
    second.kv_put("sessions", "cart:alice", "second").unwrap();

    first.commit().unwrap();
    assert!(second.commit().is_err());
    provenance.drain_from(&tracer);

    assert_eq!(
        cross.kv().get_latest("sessions", "cart:alice").unwrap(),
        Some("first".into())
    );
    assert_eq!(
        cross
            .database()
            .get_latest("orders", &Key::single(1i64))
            .unwrap()
            .map(|r| r[2].clone()),
        Some(Value::Text("widget".into()))
    );

    // The aborted attempt is still visible to declarative debugging.
    let aborted = provenance
        .query("SELECT ReqId FROM Executions WHERE Committed = FALSE")
        .unwrap();
    assert_eq!(aborted.len(), 1);
    assert_eq!(aborted.value(0, "ReqId"), Some(&Value::Text("R2".into())));
}

#[test]
fn polyglot_requests_replay_their_relational_side_faithfully() {
    // Replay of a request that wrote BOTH stores, through a plain session
    // over the same database: the relational reads and writes replay (and
    // verify) normally against the development fork, and since the
    // namespace is a table of that database the fork holds it too, so the
    // kv:<namespace> record is re-applied alongside, not skipped.
    let (cross, provenance, tracer) = traced_cross_store();
    checkout(&cross, "R1", 1, "alice", "widget");
    checkout(&cross, "R2", 2, "bob", "gadget");
    provenance.drain_from(&tracer);

    let mut replay = trod::core::ReplaySession::new(&provenance, cross.database(), "R2").unwrap();
    let report = replay.run_to_end().unwrap();
    assert!(report.is_faithful(), "relational side must verify cleanly");
    let step = &report.steps[0];
    assert_eq!(
        step.writes_applied, 2,
        "the order insert and the cart write"
    );
    assert_eq!(step.writes_skipped, 0);
    assert_eq!(
        trod::kv::KvStore::of(replay.dev_db().clone())
            .get_latest("sessions", "cart:bob")
            .unwrap()
            .as_deref(),
        Some("checked-out")
    );
    // R1 committed before R2's snapshot, so its state arrived via the
    // development fork rather than injection.
    assert_eq!(report.injected_count(), 0);
    assert!(replay
        .dev_db()
        .get_latest("orders", &Key::single(1i64))
        .unwrap()
        .is_some());
    assert_eq!(
        replay
            .dev_db()
            .get_latest("orders", &Key::single(2i64))
            .unwrap()
            .map(|r| r[1].clone()),
        Some(Value::Text("bob".into()))
    );
}
