//! Polyglot time travel end to end (paper §5 + §3.5): replaying requests
//! that span the relational store *and* the key-value store.
//!
//! PR 3 made the transaction log aligned by construction; this suite pins
//! the other half of the §5 story — the debugger actually *using* that
//! aligned history for key-value data:
//!
//! * a shop checkout (relational order + kv cart, one atomic commit)
//!   replays with every kv read verified and every kv write re-applied —
//!   `writes_skipped == 0`, unlike the relational-only replay that used
//!   to skip-count `kv:` records;
//! * the kv fidelity check catches a divergence injected outside the
//!   traced commit path;
//! * on a durable environment, replay still reaches history older than
//!   the GC watermark by forking the state at its snapshot from the log;
//!   an in-memory environment reports the truncation, not a partial fork;
//! * neither a provenance cutoff nor an erasure reaches the application's
//!   own history, so a fork holds the same rows above and below the floor.

use std::sync::Arc;

use trod::apps::shop;
use trod::core::ReplayError;
use trod::db::{is_kv_table, CommittedTxn, MemDir, Ts, WalOptions};
use trod::prelude::*;

/// True for a commit that changed a table and a namespace at once.
fn mixes_stores(entry: &CommittedTxn) -> bool {
    let kv = entry.changes.iter().filter(|c| is_kv_table(&c.table));
    (1..entry.changes.len()).contains(&kv.count())
}

fn shop_trod() -> Trod {
    let db = shop::shop_db();
    shop::seed_inventory(&db, 3, 100);
    db.create_namespace(shop::CARTS_NAMESPACE).unwrap();
    let runtime = Runtime::new(db, shop::registry());
    Trod::attach(runtime).unwrap()
}

fn cart_args(customer: &str, item: &str) -> Args {
    Args::new().with("customer", customer).with("item", item)
}

#[test]
fn polyglot_checkout_replays_with_zero_skipped_writes() {
    let trod = shop_trod();
    let rt = trod.runtime();
    rt.handle_request_with_id("R1", "addToCart", cart_args("alice", "item-1"));
    rt.handle_request_with_id("R2", "getCart", Args::new().with("customer", "alice"));
    rt.handle_request_with_id(
        "R3",
        "checkout",
        shop::checkout_args("O1", "alice", "item-1", 2),
    );
    trod.sync();

    for req in ["R1", "R2", "R3"] {
        let report = trod.replay(req).unwrap().run_to_end().unwrap();
        assert!(report.is_faithful(), "{req} must replay faithfully");
        assert_eq!(
            report.writes_skipped(),
            0,
            "{req}: polyglot replay must re-apply every kv record"
        );
    }

    // The getCart replay *verified* its kv read against the forked store
    // (the read is counted, not skipped).
    let r2 = trod.replay("R2").unwrap().run_to_end().unwrap();
    assert_eq!(r2.steps.len(), 1);
    assert_eq!(r2.steps[0].reads_checked, 1);

    // The checkout replay reconstructs the cross-store end state in the
    // development environment: order confirmed AND cart cleared — the
    // atomic polyglot commit, re-experienced.
    let mut session = trod.replay("R3").unwrap();
    let report = session.run_to_end().unwrap();
    assert!(report.is_faithful());
    assert!(
        session
            .dev_db()
            .get_latest(shop::ORDERS_TABLE, &Key::single("O1"))
            .unwrap()
            .is_some(),
        "the replayed order exists in the development database"
    );
    assert_eq!(
        session
            .dev_session()
            .kv()
            .get_latest(shop::CARTS_NAMESPACE, "cart:alice")
            .unwrap(),
        None,
        "the replayed checkout cleared the cart in the development store"
    );
    // The development environment's log is aligned like production's:
    // the createOrder commit spans both stores.
    let dev_log = session.dev_db().log_entries();
    assert!(dev_log.iter().any(mixes_stores));
}

#[test]
fn kv_read_verification_catches_an_injected_divergence() {
    let db = Database::new();
    let tracer = Tracer::new();
    let traced = Session::traced(db.clone(), tracer.clone());
    traced.create_namespace("carts").unwrap();
    let provenance = ProvenanceStore::for_application(&db).unwrap();

    let mut setup = traced.begin_traced(TxnContext::new("R0", "setup", "f"));
    setup.kv_put("carts", "cart:alice", "widget").unwrap();
    setup.commit().unwrap();

    // A read-committed reader begins; a commit from an UNTRACED session
    // then changes the key (the aligned provenance never sees it); the
    // reader observes the tampered value.
    let mut reader = traced.begin_with(
        TxnOptions::new()
            .traced(TxnContext::new("R1", "getCart", "f"))
            .isolation(IsolationLevel::ReadCommitted),
    );
    let rogue_session = Session::new(db.clone());
    let mut rogue = rogue_session.begin();
    rogue.kv_put("carts", "cart:alice", "tampered").unwrap();
    rogue.commit().unwrap();
    assert_eq!(
        reader.kv_get("carts", "cart:alice").unwrap(),
        Some("tampered".into())
    );
    reader.commit().unwrap();
    provenance.drain_from(&tracer);

    // Replay forks at the reader's snapshot and injects only *traced*
    // concurrent commits — the rogue change cannot be reproduced, so the
    // kv fidelity check must flag the read instead of skipping it.
    let mut session = ReplaySession::for_session(&provenance, &traced, "R1").unwrap();
    let report = session.run_to_end().unwrap();
    assert!(!report.is_faithful());
    let mismatches: Vec<String> = report
        .steps
        .iter()
        .flat_map(|s| s.mismatches.iter().cloned())
        .collect();
    assert_eq!(mismatches.len(), 1);
    assert!(
        mismatches[0].contains("kv:carts") && mismatches[0].contains("tampered"),
        "mismatch must name the store and the divergent value: {}",
        mismatches[0]
    );
}

/// [`shop_trod`] over a durable log on an in-memory disk, one segment per
/// commit: GC keeps every segment, and history below the GC floor stays
/// reachable through them.
fn durable_shop_trod() -> Trod {
    let opts = WalOptions {
        segment_bytes: 1,
        ..WalOptions::default()
    };
    let db = Database::create_durable_in(Arc::new(MemDir::new()), opts).unwrap();
    shop::create_schema(&db);
    shop::seed_inventory(&db, 3, 100);
    db.create_namespace(shop::CARTS_NAMESPACE).unwrap();
    let runtime = Runtime::new(db, shop::registry());
    Trod::attach(runtime).unwrap()
}

/// Serves a cart, two checkouts and a cart for the customers the erasure
/// and replay tests look at.
fn serve_checkouts(trod: &Trod) {
    let rt = trod.runtime();
    rt.handle_request_with_id("R1", "addToCart", cart_args("alice", "item-1"));
    rt.handle_request_with_id(
        "R2",
        "checkout",
        shop::checkout_args("O1", "alice", "item-1", 1),
    );
    rt.handle_request_with_id(
        "R3",
        "checkout",
        shop::checkout_args("O2", "bob", "item-2", 1),
    );
    trod.sync();
}

#[test]
fn replay_reaches_history_older_than_the_gc_watermark_through_the_durable_log() {
    let trod = durable_shop_trod();
    serve_checkouts(&trod);

    let db = trod.production_db();
    let live = db.log_entries();
    let (_, truncated) = db.gc_before(db.current_ts());
    assert_eq!(truncated, live.len(), "the whole log was truncated");
    assert_eq!(db.log_len(), 0);
    assert!(db.log_truncated_below() > 0);

    // The aligned history is read back from the log's files: exactly what
    // the live log held, kv records included.
    assert_eq!(db.history(0, db.current_ts()).unwrap(), live);
    let history = trod.production_db().history(0, Ts::MAX).unwrap();
    assert_eq!(history.len(), live.len());
    assert!(history.windows(2).all(|w| w[0].commit_ts < w[1].commit_ts));
    assert!(history.iter().any(mixes_stores));

    // Every request predates the GC floor now; replay forks the state at
    // its snapshot from the log and stays faithful, kv records included.
    for req in ["R1", "R2", "R3"] {
        let report = trod.replay(req).unwrap().run_to_end().unwrap();
        assert!(report.is_faithful(), "{req} must replay from the log");
        assert_eq!(report.writes_skipped(), 0, "{req}");
    }
    let mut session = trod.replay("R2").unwrap();
    session.run_to_end().unwrap();
    assert!(session
        .dev_db()
        .get_latest(shop::ORDERS_TABLE, &Key::single("O1"))
        .unwrap()
        .is_some());
    assert_eq!(
        session
            .dev_session()
            .kv()
            .get_latest(shop::CARTS_NAMESPACE, "cart:alice")
            .unwrap(),
        None,
        "R2's replayed checkout cleared the cart read back from the log"
    );
}

#[test]
fn replay_below_the_gc_floor_without_retention_reports_truncation() {
    let trod = shop_trod();
    trod.runtime().handle_request_with_id(
        "R1",
        "checkout",
        shop::checkout_args("O1", "alice", "item-1", 1),
    );
    trod.sync();
    // GC of an in-memory environment: nothing holds the history below the
    // floor any more.
    let db = trod.production_db();
    db.gc_before(db.current_ts());

    let err = trod.replay("R1").expect_err("replay must refuse");
    assert!(
        matches!(err, ReplayError::Storage(DbError::HistoryTruncated { .. })),
        "got {err}"
    );
    assert!(
        err.to_string().contains("no durable log covers it"),
        "{err}"
    );
    assert!(matches!(
        trod.production_db().history(0, Ts::MAX),
        Err(DbError::HistoryTruncated { ts: 0, .. })
    ));
}

#[test]
fn a_provenance_cutoff_leaves_a_deep_fork_whole() {
    let trod = durable_shop_trod();
    let tracer = trod.runtime().tracer().clone();
    let (mut commits, mut cutoff) = (Vec::new(), 0);
    for (i, order) in ["O1", "O2", "O3"].into_iter().enumerate() {
        let ctx = TxnContext::new(format!("R{i}"), "placeOrder", "f");
        let mut txn = trod.session().begin_traced(ctx);
        let order_row = row![order, "alice", "item-1", 1i64, "placed"];
        txn.insert(shop::ORDERS_TABLE, order_row).unwrap();
        commits.push(txn.commit().unwrap().commit_ts);
        trod.sync();
        if i == 0 {
            cutoff = tracer.now();
        }
    }
    let db = trod.production_db();
    db.gc_before(db.current_ts());
    let report = trod.provenance().retain_since(cutoff).unwrap();
    assert_eq!(report.transactions_dropped, 1, "the first commit's trace");

    // A fork reads the application's own log, which a provenance cutoff
    // does not reach: at the second commit, below the floor, the first
    // commit's row is there.
    assert!(commits[1] < db.log_truncated_below());
    let fork = trod.fork_at(commits[1]).unwrap();
    for (order, present) in [("O1", true), ("O2", true), ("O3", false)] {
        let row = fork
            .database()
            .get_latest(shop::ORDERS_TABLE, &Key::single(order))
            .unwrap();
        assert_eq!(row.is_some(), present, "{order}");
    }
}

#[test]
fn an_erasure_leaves_forks_above_and_below_the_floor_alike() {
    let trod = durable_shop_trod();
    serve_checkouts(&trod);
    let alice = [("customer", Value::Text("alice".into()))];
    let report = trod
        .provenance()
        .redact_rows(shop::ORDERS_TABLE, &alice)
        .unwrap();
    assert!(report.transactions_affected > 0);

    // Everything a fork holds, table by table, and the carts.
    let rows = |fork: &Session| {
        let tables = [
            shop::INVENTORY_TABLE,
            shop::ORDERS_TABLE,
            shop::PAYMENTS_TABLE,
        ];
        let scans = tables.map(|t| fork.database().scan_latest(t, &Predicate::True).unwrap());
        let carts = fork.kv().scan_prefix(shop::CARTS_NAMESPACE, "").unwrap();
        (scans, carts)
    };
    let db = trod.production_db();
    let ts = db.current_ts();
    let above = rows(&trod.fork_at(ts).unwrap());
    let replay_above = trod.replay("R2").unwrap().run_to_end().unwrap();
    assert!(replay_above.has_partial_data());

    // One more request, then GC past `ts`: the same fork now comes from
    // the log.
    trod.runtime()
        .handle_request_with_id("R4", "addToCart", cart_args("carol", "item-2"));
    trod.sync();
    db.gc_before(db.current_ts());
    assert!(ts < db.log_truncated_below());
    let below = rows(&trod.fork_at(ts).unwrap());
    assert_eq!(above, below, "the erasure reached neither fork");
    let orders = &below.0[1];
    assert!(orders
        .iter()
        .any(|(_, row)| row[1] == Value::Text("alice".into())));
    let replay_below = trod.replay("R2").unwrap().run_to_end().unwrap();
    assert!(replay_below.has_partial_data());
    assert_eq!(replay_above, replay_below);
}
