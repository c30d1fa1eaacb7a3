//! One read surface: `trod_get` and `trod_sql`, each at the latest
//! state, `as_of` a timestamp or on a `fork`.
//!
//! A key-value namespace is read over the wire as its table `kv:<ns>`:
//! `trod_get {table: "kv:<ns>", key: [k]}` for one key, and a `kv_key`
//! range in `trod_sql` for a prefix. Both must answer what the
//! in-process `Txn::kv_get` / `Txn::kv_scan_prefix` answer. A fork read
//! holds the fork registry only to find the fork.

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use trod_apps::shop;
use trod_core::json::Json;
use trod_core::Trod;
use trod_db::{Column, DataType, Database, Schema};
use trod_kv::Session;
use trod_query::text_literal;
use trod_runtime::Runtime;
use trod_server::rpc::dispatch;
use trod_server::{Client, ClientError, ServerBuilder, ServerState};

const NS: &str = "carts";

/// Keys around the prefixes under test, the edge cases of
/// `prefix_predicate` included: a prefix ending in `char::MAX` has no
/// upper bound of the same length.
const KEYS: &[&str] = &[
    "",
    "a",
    "a\u{10FFFF}",
    "a\u{10FFFF}x",
    "a\u{10FFFF}\u{10FFFF}",
    "b",
    "cart",
    "cart:",
    "cart:1",
    "cart:2",
    "cart;",
    "cartz",
    "日本",
];

const PREFIXES: &[&str] = &["", "cart:", "a\u{10FFFF}"];

/// The least string above every extension of `prefix` (`None`: no such
/// string), the upper bound of the `kv_key` range a prefix scan reads.
fn upper_bound(prefix: &str) -> Option<String> {
    let mut chars: Vec<char> = prefix.chars().collect();
    while let Some(last) = chars.pop() {
        if let Some(next) = (last as u32 + 1..=char::MAX as u32).find_map(char::from_u32) {
            chars.push(next);
            return Some(chars.into_iter().collect());
        }
    }
    None
}

/// The SQL that reads the keys of namespace `ns` starting with `prefix`.
fn prefix_sql(ns: &str, prefix: &str) -> String {
    let mut sql = format!("SELECT kv_key, kv_value FROM \"kv:{ns}\"");
    if !prefix.is_empty() {
        sql += &format!(" WHERE kv_key >= {}", text_literal(prefix));
        if let Some(upper) = upper_bound(prefix) {
            sql += &format!(" AND kv_key < {}", text_literal(&upper));
        }
    }
    sql + " ORDER BY kv_key"
}

fn pairs(rows: &Json) -> Vec<(String, String)> {
    rows.get("rows")
        .and_then(Json::as_array)
        .expect("rows")
        .iter()
        .map(|row| {
            let cell = |i: usize| row.as_array().unwrap()[i].as_str().unwrap().to_string();
            (cell(0), cell(1))
        })
        .collect()
}

/// One read point: the wire parameters that select it, and the session
/// that answers the same read in process.
struct ReadPoint {
    name: &'static str,
    params: Vec<(&'static str, Json)>,
    session: Session,
}

fn assert_reads_match(client: &mut Client, point: &ReadPoint) {
    for prefix in PREFIXES {
        let mut params = point.params.clone();
        params.push(("sql", Json::str(prefix_sql(NS, prefix))));
        let wire = pairs(&client.call("trod_sql", Json::obj(params)).expect("sql"));
        let mut txn = point.session.begin();
        let local = txn.kv_scan_prefix(NS, prefix).expect("scan");
        txn.abort();
        assert_eq!(wire, local, "{}: prefix {prefix:?}", point.name);
    }
    for key in KEYS.iter().chain(&["missing", "cart:9"]) {
        let mut params = point.params.clone();
        params.push(("table", Json::str(format!("kv:{NS}"))));
        params.push(("key", Json::Array(vec![Json::str(*key)])));
        let row = client.call("trod_get", Json::obj(params)).expect("get");
        let wire = match row.get("row") {
            Some(Json::Array(cells)) => {
                assert_eq!(cells[0].as_str(), Some(*key));
                cells[1].as_str().map(str::to_string)
            }
            other => {
                assert_eq!(other, Some(&Json::Null));
                None
            }
        };
        let mut txn = point.session.begin();
        let local = txn.kv_get(NS, key).expect("kv_get");
        txn.abort();
        assert_eq!(wire, local, "{}: key {key:?}", point.name);
    }
}

#[test]
fn namespace_reads_through_its_table_equal_the_in_process_reads() {
    let db = shop::shop_db();
    db.create_namespace(NS).unwrap();
    let trod = Trod::attach(Runtime::new(db, shop::registry())).expect("attach");
    let session = trod.session().clone();
    let mut txn = session.begin();
    for (i, key) in KEYS.iter().enumerate() {
        txn.kv_put(NS, key, &format!("v{i}")).unwrap();
    }
    let first = txn.commit().unwrap().commit_ts;
    let mut txn = session.begin();
    txn.kv_put(NS, "cart:1", "changed").unwrap();
    txn.kv_delete(NS, "cart:2").unwrap();
    txn.kv_delete(NS, "a\u{10FFFF}x").unwrap();
    txn.kv_put(NS, "cart:3", "new").unwrap();
    txn.commit().unwrap();

    let server = ServerBuilder::new(trod).serve("127.0.0.1:0").expect("bind");
    let mut client = Client::connect(&server.addr()).expect("connect");
    let reply = client
        .call("trod_fork", Json::obj(vec![("ts", Json::from(first))]))
        .expect("fork");
    let fork_id = reply.get("fork_id").and_then(Json::as_str).unwrap();
    let fork = server.state().fork_session(fork_id).expect("registered");

    let points = [
        ReadPoint {
            name: "latest",
            params: Vec::new(),
            session: session.clone(),
        },
        ReadPoint {
            name: "as_of",
            params: vec![("as_of", Json::from(first))],
            session: session.fork_at(first).unwrap(),
        },
        ReadPoint {
            name: "fork",
            params: vec![("fork", Json::str(fork_id))],
            session: fork,
        },
    ];
    for point in &points {
        assert_reads_match(&mut client, point);
    }
    // The two points in time differ, so the comparison is not vacuous.
    let mut latest = session.begin();
    let mut then = points[1].session.begin();
    assert_ne!(
        latest.kv_scan_prefix(NS, "cart:").unwrap(),
        then.kv_scan_prefix(NS, "cart:").unwrap()
    );
    server.shutdown();
}

/// `fork_sql` is a second name for `trod_sql` with a `fork`, and a fork
/// read names no `as_of` or `target`.
#[test]
fn fork_sql_is_trod_sql_and_a_fork_excludes_as_of_and_target() {
    let db = shop::shop_db();
    shop::seed_inventory(&db, 4, 10);
    let trod = Trod::attach(Runtime::new(db, shop::registry())).expect("attach");
    let server = ServerBuilder::new(trod).serve("127.0.0.1:0").expect("bind");
    let mut client = Client::connect(&server.addr()).expect("connect");
    let reply = client
        .call("trod_fork", Json::obj(vec![("ts", Json::from(u64::MAX))]))
        .expect("fork");
    let fork = reply.get("fork_id").and_then(Json::as_str).unwrap();
    let sql = Json::str("SELECT item FROM inventory ORDER BY item");
    let params = || vec![("fork", Json::str(fork)), ("sql", sql.clone())];
    let by_alias = client.call("fork_sql", Json::obj(params())).unwrap();
    let by_name = client.call("trod_sql", Json::obj(params())).unwrap();
    assert_eq!(by_alias, by_name);
    assert_eq!(
        by_name.get("rows").and_then(Json::as_array).unwrap().len(),
        4
    );

    let invalid = |client: &mut Client, method: &str, params: Vec<(&str, Json)>| match client
        .call(method, Json::obj(params))
    {
        Err(ClientError::Rpc(f)) => {
            assert_eq!((f.code, f.kind.as_str()), (-32602, "invalid_params"))
        }
        other => panic!("{method}: expected invalid_params, got {other:?}"),
    };
    for (field, value) in [("as_of", Json::Int(1)), ("target", Json::str("app"))] {
        let mut p = params();
        p.push((field, value.clone()));
        invalid(&mut client, "trod_sql", p);
    }
    let key = ("key", Json::Array(vec![Json::str("item-0")]));
    invalid(
        &mut client,
        "trod_get",
        vec![
            ("fork", Json::str(fork)),
            ("table", Json::str("inventory")),
            key.clone(),
            ("as_of", Json::Int(1)),
        ],
    );
    // A `null` fork is no fork.
    let row = client
        .call(
            "trod_get",
            Json::obj(vec![
                ("fork", Json::Null),
                ("table", Json::str("inventory")),
                key,
            ]),
        )
        .unwrap();
    assert!(row.get("row").and_then(Json::as_array).is_some());
    server.shutdown();
}

/// A slow fork read does not hold the fork registry: `fork_list`,
/// `trod_fork` and `fork_drop` of the very fork being read answer while
/// it runs, and the read still answers after its fork is dropped.
#[test]
fn a_slow_fork_read_holds_no_registry_lock() {
    let db = Database::new();
    let schema = Schema::new(vec![Column::new("n", DataType::Int)], &["n"]).unwrap();
    db.create_table("t", schema).unwrap();
    let mut txn = db.begin();
    for n in 0..ROWS {
        txn.insert("t", trod_db::row![n]).unwrap();
    }
    txn.commit().unwrap();
    let trod = Trod::attach(Runtime::new(db, shop::registry())).expect("attach");
    let state = Arc::new(ServerState::new(Arc::new(trod), HashMap::new()));
    let call =
        |method: &str, params: Vec<(&str, Json)>| dispatch(&state, method, &Json::obj(params));
    let reply = call("trod_fork", vec![("ts", Json::from(u64::MAX))]).unwrap();
    let fork = reply
        .get("fork_id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    let (tx, rx) = mpsc::channel();
    let reader = {
        let state = Arc::clone(&state);
        let fork = fork.clone();
        std::thread::spawn(move || {
            let started = Instant::now();
            let params = Json::obj(vec![
                ("fork", Json::str(fork)),
                (
                    "sql",
                    Json::str("SELECT COUNT(*) FROM t AS a, t AS b, t AS c"),
                ),
            ]);
            let _ = tx.send(());
            (dispatch(&state, "trod_sql", &params), started.elapsed())
        })
    };
    rx.recv().unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let registry_calls = Instant::now();
    call("fork_list", Vec::new()).unwrap();
    call("trod_fork", vec![("ts", Json::Int(1))]).unwrap();
    call("fork_drop", vec![("fork", Json::str(fork.clone()))]).unwrap();
    let registry_took = registry_calls.elapsed();
    let (read, read_took) = reader.join().unwrap();
    let count = read.expect("a dropped fork still answers the read in hand");
    assert_eq!(
        count.get("rows").unwrap().to_string(),
        format!("[[{}]]", ROWS * ROWS * ROWS)
    );
    assert!(
        registry_took * 4 < read_took,
        "registry calls took {registry_took:?} beside a {read_took:?} fork read"
    );
    // The fork is gone for the next read.
    let err = call(
        "trod_sql",
        vec![
            ("fork", Json::str(fork)),
            ("sql", Json::str("SELECT n FROM t")),
        ],
    )
    .unwrap_err();
    assert_eq!(err.kind, "no_such_fork");
}

const ROWS: i64 = 120;
