//! Dump/load round-trips and network fork-from-instance.
//!
//! The contract under test: a loaded instance is not merely
//! state-equivalent — its aligned history is *byte-identical* (same
//! entries, same wire serialization) and its commit clock resumes where
//! the source's left off, so debugging a loaded instance sees the same
//! past as debugging the source.

use proptest::prelude::*;

use trod_apps::{shop, workload};
use trod_core::json::Json;
use trod_core::wire;
use trod_core::Trod;
use trod_db::{Database, Predicate};
use trod_kv::{KvStore, Session};
use trod_runtime::Runtime;
use trod_server::{fork_from_instance, Client, Dump, ServerBuilder};

fn shop_trod() -> Trod {
    let db = shop::shop_db();
    shop::seed_inventory(&db, 8, 1_000);
    db.create_namespace(shop::CARTS_NAMESPACE).unwrap();
    let runtime = Runtime::new(db, shop::registry());
    Trod::attach(runtime).expect("attach")
}

/// Runs a deterministic serial shop workload against an instance.
fn run_workload(trod: &Trod, cfg: &workload::WorkloadConfig) {
    for (handler, args) in workload::shop_workload(cfg) {
        // Serial execution: failures can only be application errors
        // (e.g. getOrder of a not-yet-created order), never conflicts.
        let _ = trod.runtime().handle_request(&handler, args);
    }
    trod.sync();
}

/// Full relational + kv state of a session, in a comparable form.
fn state_of(db: &Database, kv: &KvStore) -> Vec<String> {
    let mut out = Vec::new();
    let mut tables = db.table_names();
    tables.sort();
    for table in tables {
        let mut rows: Vec<String> = db
            .scan_latest(&table, &Predicate::True)
            .expect("scan")
            .into_iter()
            .map(|(key, row)| format!("{table} {key:?} {row:?}"))
            .collect();
        rows.sort();
        out.extend(rows);
    }
    let mut namespaces = kv.namespaces();
    namespaces.sort();
    for ns in namespaces {
        let mut entries: Vec<String> = kv
            .scan_prefix(&ns, "")
            .expect("kv scan")
            .into_iter()
            .map(|(k, v)| format!("kv:{ns} {k}={v}"))
            .collect();
        entries.sort();
        out.extend(entries);
    }
    out
}

fn wire_bytes(entries: &[trod_db::CommittedTxn]) -> String {
    Json::Array(entries.iter().map(wire::txn_to_json).collect()).to_string()
}

fn assert_round_trip(source: &Trod, loaded: &Session) {
    let src_db = source.production_db();
    let loaded_db = loaded.database();

    // Byte-identical aligned history.
    let src_entries = src_db.log_entries();
    let loaded_entries = loaded_db.log_entries();
    assert_eq!(
        src_entries, loaded_entries,
        "aligned history must match exactly"
    );
    assert_eq!(
        wire_bytes(&src_entries),
        wire_bytes(&loaded_entries),
        "wire serialization must be byte-identical"
    );

    // Resumed clocks.
    assert_eq!(src_db.current_ts(), loaded_db.current_ts());

    // Same state, both stores.
    assert_eq!(
        state_of(src_db, source.session().kv()),
        state_of(loaded_db, loaded.kv())
    );
}

#[test]
fn dump_load_round_trip_preserves_history_and_clocks() {
    let source = shop_trod();
    run_workload(&source, &workload::WorkloadConfig::small());

    let dump = Dump::capture(&source).expect("capture");
    assert!(!dump.entries.is_empty());

    // Through the in-memory document.
    let loaded = dump.boot().expect("boot");
    assert_round_trip(&source, &loaded);

    // Through a file, via the parser.
    let dir = std::env::temp_dir().join(format!("trod-dump-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("round_trip.json");
    dump.write_to(&path).expect("write");
    let reread = Dump::read_from(&path).expect("read");
    assert_eq!(reread, dump);
    let loaded = reread.boot().expect("boot from file");
    assert_round_trip(&source, &loaded);
    std::fs::remove_dir_all(&dir).ok();

    // The loaded instance continues the history: a new commit lands
    // strictly after the resumed watermark, with the next txn id free.
    let resumed_ts = loaded.database().current_ts();
    let runtime = Runtime::builder(loaded.database().clone(), shop::registry())
        .kv(loaded.kv().clone())
        .build();
    let result = runtime.handle_request(
        "checkout",
        shop::checkout_args("order-after-load", "eve", "item-0", 1),
    );
    assert!(
        result.is_ok(),
        "post-load checkout failed: {:?}",
        result.output
    );
    assert!(loaded.database().current_ts() > resumed_ts);
}

#[test]
fn sys_dump_over_the_wire_boots_an_identical_instance() {
    let source = shop_trod();
    let server = ServerBuilder::new(source)
        .serve("127.0.0.1:0")
        .expect("bind");
    let mut client = Client::connect(&server.addr()).expect("connect");

    for i in 0..5 {
        client
            .call(
                "trod_invoke",
                Json::obj(vec![
                    ("handler", Json::str("checkout")),
                    (
                        "args",
                        Json::obj(vec![
                            ("order_id", Json::str(format!("order-{i}"))),
                            ("customer", Json::str("w")),
                            ("item", Json::str(format!("item-{}", i % 3))),
                            ("quantity", Json::Int(1)),
                        ]),
                    ),
                ]),
            )
            .expect("invoke");
    }

    let reply = client
        .call("sys_dump", Json::obj(Vec::<(&str, Json)>::new()))
        .expect("sys_dump");
    let dump = Dump::from_json(reply.get("dump").unwrap()).expect("parse dump");
    let loaded = dump.boot().expect("boot");

    let state = state_of(loaded.database(), loaded.kv());
    assert!(state.iter().any(|s| s.contains("order-4")));

    // Compare against the live server state through its own state.
    let trod = &server.state().trod;
    assert_round_trip(trod, &loaded);
    server.shutdown();
}

/// A `trod-dump/1` document written before the index kinds merged lists
/// ordered indexes under `range_indexes`, possibly on a column `indexes`
/// already names. It loads with one index per column, and planned scans
/// equal the full scan at every commit timestamp.
#[test]
fn a_dump_listing_range_indexes_boots_one_index_per_column() {
    let source = shop_trod();
    run_workload(&source, &workload::WorkloadConfig::small());
    let text = Dump::capture(&source)
        .expect("capture")
        .to_json()
        .to_string();
    assert!(!text.contains("range_indexes"), "no longer emitted");
    // `inventory.stock` as a range index only, `orders.customer` in both.
    let rewrite = |text: String, from: &str, to: &str| {
        assert_eq!(text.matches(from).count(), 1, "{from}");
        text.replace(from, to)
    };
    let text = rewrite(
        text,
        r#""indexes":["stock"]"#,
        r#""indexes":[],"range_indexes":["stock"]"#,
    );
    let text = rewrite(
        text,
        r#""indexes":["customer"]"#,
        r#""indexes":["customer"],"range_indexes":["customer"]"#,
    );
    let dump = Dump::from_json(&Json::parse(&text).unwrap()).expect("parse dump");
    let loaded = dump.boot().expect("boot");

    let (src, db) = (source.production_db(), loaded.database());
    let now = db.current_ts();
    for name in src.table_names() {
        let table = db.table(&name).unwrap();
        let columns = table.indexed_columns();
        assert_eq!(
            columns,
            src.table(&name).unwrap().indexed_columns(),
            "{name}"
        );
        for column in &columns {
            let at = table.schema().column_index(column).unwrap();
            let values: std::collections::BTreeSet<_> = table
                .scan_at_full(&Predicate::True, now)
                .unwrap()
                .into_iter()
                .map(|(_, row)| row[at].clone())
                .collect();
            for value in values.into_iter().take(3) {
                for pred in [
                    Predicate::eq(column.as_str(), value.clone()),
                    Predicate::ge(column.as_str(), value),
                ] {
                    for ts in 0..=now {
                        assert_eq!(
                            table.scan_at(&pred, ts).unwrap(),
                            table.scan_at_full(&pred, ts).unwrap(),
                            "{name}: [{pred}] at ts {ts}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn fork_from_instance_equals_local_fork() {
    let source = shop_trod();
    let server = ServerBuilder::new(source)
        .serve("127.0.0.1:0")
        .expect("bind");
    let mut client = Client::connect(&server.addr()).expect("connect");

    let mut commit_ts = Vec::new();
    for i in 0..4 {
        let reply = client
            .call(
                "trod_invoke",
                Json::obj(vec![
                    ("handler", Json::str("checkout")),
                    (
                        "args",
                        Json::obj(vec![
                            ("order_id", Json::str(format!("order-{i}"))),
                            ("customer", Json::str("f")),
                            ("item", Json::str("item-1")),
                            ("quantity", Json::Int(1)),
                        ]),
                    ),
                    ("sync", Json::Bool(true)),
                ]),
            )
            .expect("invoke");
        commit_ts.push(reply.get("commit_ts").and_then(Json::as_u64).unwrap());
    }

    // Fork mid-history over the network.
    let ts = commit_ts[1];
    let remote = fork_from_instance(&server.addr(), ts).expect("network fork");

    // The same fork taken in-process on the serving instance.
    let local = server.state().trod.fork_at(ts).expect("local fork");

    assert_eq!(
        state_of(remote.database(), remote.kv()),
        state_of(local.database(), local.kv()),
        "network fork must equal the in-process fork at ts {ts}"
    );

    // The remote fork is a real environment: it accepts new commits.
    let runtime = Runtime::builder(remote.database().clone(), shop::registry())
        .kv(remote.kv().clone())
        .build();
    let result = runtime.handle_request(
        "checkout",
        shop::checkout_args("order-fork", "g", "item-2", 1),
    );
    assert!(result.is_ok(), "fork checkout failed: {:?}", result.output);

    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Dump → boot round-trips byte-identically for arbitrary small
    /// workloads: any request mix, any skew, any seed.
    #[test]
    fn dump_load_round_trips_for_arbitrary_workloads(
        requests in 1usize..24,
        users in 1usize..6,
        items in 1usize..6,
        seed in 0u64..1_000,
        hot in 0u32..100,
    ) {
        let cfg = workload::WorkloadConfig {
            requests,
            users,
            items,
            conflict_rate: f64::from(hot) / 100.0,
            seed,
        };
        let source = shop_trod();
        run_workload(&source, &cfg);

        let dump = Dump::capture(&source).expect("capture");
        let text = dump.to_json().to_string();
        let reparsed = Dump::from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(&reparsed, &dump);

        let loaded = reparsed.boot().unwrap();
        prop_assert_eq!(
            source.production_db().log_entries(),
            loaded.database().log_entries()
        );
        prop_assert_eq!(source.production_db().current_ts(), loaded.database().current_ts());
        prop_assert_eq!(
            state_of(source.production_db(), source.session().kv()),
            state_of(loaded.database(), loaded.kv())
        );
    }
}
