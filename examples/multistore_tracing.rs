//! Multiple data stores under one provenance history (paper §5).
//!
//! A checkout service keeps orders and inventory in the relational
//! database and per-user cart sessions in a key-value store. The
//! unified transaction session commits each request atomically across
//! both stores, stamps both with the same commit timestamp, and emits one
//! provenance record per transaction — so the ordinary TROD workflow
//! (Table 1/Table 2 queries, "who wrote this key?", privacy redaction)
//! works unchanged for a polyglot application.
//!
//! Run with: `cargo run --example multistore_tracing`

use trod::db::{is_kv_table, row, DataType, Database, Key, Predicate, Schema, Value};
use trod::kv::{kv_provenance_schema, kv_table_name, Session};
use trod::provenance::ProvenanceStore;
use trod::trace::{Tracer, TxnContext};

fn main() {
    // 1. The two stores: relational (orders, inventory) and key-value
    //    (session carts) — the heterogeneous layout the paper's §5
    //    describes as typical for microservices.
    let db = Database::new();
    db.create_table(
        "orders",
        Schema::builder()
            .column("id", DataType::Int)
            .column("customer", DataType::Text)
            .column("item", DataType::Text)
            .primary_key(&["id"])
            .build()
            .expect("schema is valid"),
    )
    .expect("fresh database");
    db.create_table(
        "inventory",
        Schema::builder()
            .column("item", DataType::Text)
            .column("stock", DataType::Int)
            .primary_key(&["item"])
            .build()
            .expect("schema is valid"),
    )
    .expect("fresh database");
    db.create_namespace("sessions").expect("fresh namespace");

    // 2. The unified transaction session, with TROD tracing attached,
    //    and a provenance database that knows about both stores.
    let tracer = Tracer::new();
    let cross = Session::traced(db.clone(), tracer.clone());
    let provenance = ProvenanceStore::new();
    for table in ["orders", "inventory"] {
        provenance
            .register_table(table, &db.schema_of(table).expect("table exists"))
            .expect("register relational table");
    }
    provenance
        .register_table_as(
            &kv_table_name("sessions"),
            "SessionEvents",
            &kv_provenance_schema(),
        )
        .expect("register KV namespace");

    // Seed inventory.
    let mut seed = cross.begin_traced(TxnContext::new("R0", "seed", "func:seed"));
    seed.insert("inventory", row!["widget", 5i64])
        .expect("insert stock");
    seed.insert("inventory", row!["gadget", 2i64])
        .expect("insert stock");
    seed.commit().expect("seed commit");

    // 3. Serve checkouts: each request reads and writes *both* stores in
    //    one atomic cross-store transaction.
    for (req, order_id, customer, item) in [
        ("R1", 1i64, "alice", "widget"),
        ("R2", 2i64, "bob", "gadget"),
        ("R3", 3i64, "alice", "widget"),
    ] {
        let mut txn = cross.begin_traced(TxnContext::new(req, "checkout", "func:placeOrder"));
        let stock_key = Key::single(item);
        let stock_row = txn
            .get("inventory", &stock_key)
            .expect("read stock")
            .expect("item exists");
        let stock = stock_row[1].as_int().unwrap_or(0);
        txn.update("inventory", &stock_key, row![item, stock - 1])
            .expect("decrement stock");
        txn.insert("orders", row![order_id, customer, item])
            .expect("insert order");
        txn.kv_put(
            "sessions",
            &format!("cart:{customer}"),
            &format!("order:{order_id}"),
        )
        .expect("update session");
        let commit = txn.commit().expect("checkout commit");
        let kv_writes = commit.changes.iter().filter(|c| is_kv_table(&c.table));
        let kv_writes = kv_writes.count();
        println!(
            "{req}: order {order_id} committed at ts {} ({} relational changes, {kv_writes} kv writes)",
            commit.commit_ts,
            commit.changes.len() - kv_writes
        );
    }

    // 4. One aligned history: the cross-store log and the relational
    //    transaction log agree, and provenance covers both stores.
    provenance.drain_from(&tracer);
    println!(
        "\naligned cross-store commits: {}",
        cross.database().log_len()
    );
    let executions = provenance
        .query("SELECT TxnId, ReqId, HandlerName, CommitTs FROM Executions ORDER BY CommitTs")
        .expect("query Executions");
    println!("Executions (paper Table 1, spanning both stores):\n{executions}");

    let session_events = provenance
        .query("SELECT TxnId, Type, kv_key, kv_value FROM SessionEvents ORDER BY EventId")
        .expect("query SessionEvents");
    println!("SessionEvents (paper Table 2 for the key-value store):\n{session_events}");

    // 5. Declarative debugging across stores: which requests touched
    //    alice's session cart?
    let who = provenance
        .query(
            "SELECT ReqId, HandlerName, kv_value FROM Executions as E, SessionEvents as S \
             ON E.TxnId = S.TxnId WHERE S.kv_key = 'cart:alice' ORDER BY Timestamp",
        )
        .expect("join query");
    println!("requests that wrote cart:alice:\n{who}");

    // 6. Privacy: alice requests erasure. Her session provenance is
    //    redacted; execution metadata and everyone else's data survive.
    let report = provenance
        .redact_rows(
            &kv_table_name("sessions"),
            &[("kv_key", Value::Text("cart:alice".into()))],
        )
        .expect("redaction");
    println!(
        "redacted {} provenance entries across {} transactions for alice",
        report.total(),
        report.transactions_affected
    );
    let after = provenance
        .query("SELECT Type, kv_key, kv_value FROM SessionEvents ORDER BY EventId")
        .expect("query after redaction");
    println!("SessionEvents after erasure:\n{after}");

    // 7. The stores themselves stay consistent: stock was decremented
    //    exactly once per order.
    let widget = db
        .get_latest("inventory", &Key::single("widget"))
        .expect("read stock")
        .expect("row exists");
    let orders = db
        .scan_latest("orders", &Predicate::True)
        .expect("scan orders");
    println!(
        "\nfinal state: widget stock = {}, orders placed = {}",
        widget[1],
        orders.len()
    );
}
