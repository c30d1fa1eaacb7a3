//! End-to-end smoke tests for the HTTP/JSON-RPC front-end: mixed
//! traffic (invoke + SQL + time travel + kv), protocol rejections, the
//! connection-pool bound, and graceful shutdown with a typed 503 drain
//! window.

use std::io::{Read, Write};
use std::net::TcpStream;

use trod_apps::shop;
use trod_core::json::Json;
use trod_core::Trod;
use trod_db::Value;
use trod_runtime::{HandlerRegistry, Runtime};
use trod_server::{Client, ClientError, ServerBuilder, ServerHandle};

/// The shop's handlers and `echo`, which answers its arguments as the
/// text of their JSON object.
fn shop_registry() -> HandlerRegistry {
    shop::registry().with_fn("echo", |_, args| {
        Ok(Value::Text(args.to_json().to_string()))
    })
}

/// A shop server whose patch `shop` is its own registry.
fn shop_server() -> ServerHandle {
    let db = shop::shop_db();
    shop::seed_inventory(&db, 10, 1_000);
    db.create_namespace(shop::CARTS_NAMESPACE).unwrap();
    let runtime = Runtime::new(db, shop_registry());
    let trod = Trod::attach(runtime).expect("attach");
    ServerBuilder::new(trod)
        .patch("shop", shop_registry())
        .serve("127.0.0.1:0")
        .expect("bind ephemeral port")
}

fn invoke(client: &mut Client, handler: &str, args: Vec<(&str, Json)>, sync: bool) -> Json {
    client
        .call(
            "trod_invoke",
            Json::obj(vec![
                ("handler", Json::str(handler)),
                ("args", Json::obj(args)),
                ("sync", Json::Bool(sync)),
            ]),
        )
        .expect("invoke")
}

fn checkout_params(order: &str, customer: &str, item: &str) -> Vec<(&'static str, Json)> {
    vec![
        ("order_id", Json::str(order.to_string())),
        ("customer", Json::str(customer.to_string())),
        ("item", Json::str(item.to_string())),
        ("quantity", Json::Int(1)),
    ]
}

#[test]
fn mixed_workload_over_the_wire() {
    let server = shop_server();
    let mut client = Client::connect(&server.addr()).expect("connect");

    // Health first.
    let health = client.health().expect("health");
    assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(health.get("draining").and_then(Json::as_bool), Some(false));

    // Invoke a handler; `sync` returns the commit timestamp.
    let result = invoke(
        &mut client,
        "checkout",
        checkout_params("order-1", "ada", "item-1"),
        true,
    );
    let commit_ts = result
        .get("commit_ts")
        .and_then(Json::as_u64)
        .expect("commit_ts present when sync=true");
    assert!(commit_ts > 0);
    let req_id = result
        .get("req_id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    assert!(!req_id.is_empty());

    // A second checkout moves state past the first commit.
    invoke(
        &mut client,
        "checkout",
        checkout_params("order-2", "bob", "item-1"),
        true,
    );

    // SQL over the application database.
    let rs = client
        .call(
            "trod_sql",
            Json::obj(vec![(
                "sql",
                Json::str("SELECT order_id FROM orders ORDER BY order_id ASC"),
            )]),
        )
        .expect("sql");
    let rows = rs.get("rows").and_then(Json::as_array).unwrap();
    assert_eq!(rows.len(), 2);

    // Time travel: as of the first commit, only order-1 exists.
    let rs = client
        .call(
            "trod_sql",
            Json::obj(vec![
                ("sql", Json::str("SELECT order_id FROM orders")),
                ("as_of", Json::from(commit_ts)),
            ]),
        )
        .expect("as_of sql");
    assert_eq!(rs.get("rows").and_then(Json::as_array).unwrap().len(), 1);

    // Point read with a typed key.
    let row = client
        .call(
            "trod_get",
            Json::obj(vec![
                ("table", Json::str("orders")),
                ("key", Json::Array(vec![Json::str("order-1")])),
            ]),
        )
        .expect("get");
    assert!(row.get("row").and_then(Json::as_array).is_some());

    // The polyglot half: checkout cleared the cart namespace entry in
    // the same commit; the namespace is read as its table.
    let kv = client
        .call(
            "trod_sql",
            Json::obj(vec![(
                "sql",
                Json::str(format!(
                    "SELECT kv_key, kv_value FROM \"kv:{}\" ORDER BY kv_key",
                    shop::CARTS_NAMESPACE
                )),
            )]),
        )
        .expect("namespace scan");
    assert_eq!(
        kv.get("columns").map(Json::to_string).as_deref(),
        Some(r#"["kv_key","kv_value"]"#)
    );
    assert!(kv.get("rows").and_then(Json::as_array).is_some());

    // Provenance SQL sees the traced executions.
    let rs = client
        .call(
            "trod_sql",
            Json::obj(vec![
                ("sql", Json::str("SELECT ReqId FROM Executions")),
                ("target", Json::str("provenance")),
            ]),
        )
        .expect("provenance sql");
    assert!(!rs.get("rows").and_then(Json::as_array).unwrap().is_empty());

    // Arguments of every value kind, at its edges, in name order.
    let tagged = |tag: &str, value: Json| Json::obj(vec![(tag, value)]);
    let args = vec![
        ("bool", Json::Bool(true)),
        ("bytes", tagged("bytes", Json::str("00ff7c"))),
        ("bytes_empty", tagged("bytes", Json::str(""))),
        ("float_inf", tagged("float", Json::str("inf"))),
        ("float_nan", tagged("float", Json::str("nan"))),
        ("float_neg_inf", tagged("float", Json::str("-inf"))),
        ("float_neg_zero", Json::Float(-0.0)),
        ("int_max", Json::Int(i64::MAX)),
        ("int_min", Json::Int(i64::MIN)),
        ("null", Json::Null),
        ("text", Json::str("\" \\ \n \u{1} |=:% \u{1F600}")),
        ("ts", tagged("ts", Json::Int(7))),
    ];
    let sent = Json::obj(args.clone());
    let echoed = invoke(&mut client, "echo", args, true);
    let output = echoed.get("output").and_then(Json::as_str).unwrap();
    assert_eq!(output, sent.to_string(), "the handler saw what was sent");
    let echo_id = echoed.get("req_id").and_then(Json::as_str).unwrap();
    // Provenance records them as that JSON object.
    let rs = client
        .call(
            "trod_sql",
            Json::obj(vec![
                (
                    "sql",
                    Json::str(format!(
                        "SELECT Args FROM Requests WHERE ReqId = '{echo_id}'"
                    )),
                ),
                ("target", Json::str("provenance")),
            ]),
        )
        .expect("recorded args");
    let rows = rs.get("rows").and_then(Json::as_array).unwrap();
    assert_eq!(rows.len(), 1);
    let recorded = rows[0].as_array().unwrap()[0].as_str().unwrap();
    assert_eq!(Json::parse(recorded).unwrap(), sent);
    // Byte for byte: `==` on floats equates -0.0 with 0.0.
    assert_eq!(recorded, sent.to_string());
    // Re-executed from that record, the request answers as it did.
    let retro = client
        .call(
            "trod_retroactive",
            Json::obj(vec![
                ("patch", Json::str("shop")),
                ("requests", Json::Array(vec![Json::str(echo_id)])),
            ]),
        )
        .expect("retroactive echo");
    let orderings = retro.get("orderings").and_then(Json::as_array).unwrap();
    let capped = retro.get("hit_max_orderings").and_then(Json::as_bool);
    assert_eq!(capped, Some(false), "one request has one ordering");
    let outcome = &orderings[0]
        .get("outcomes")
        .and_then(Json::as_array)
        .unwrap()[0];
    assert_eq!(outcome.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(outcome.get("output").and_then(Json::as_str), Some(output));

    // Status reflects the traffic.
    let status = client
        .call("sys_health", Json::obj(Vec::<(&str, Json)>::new()))
        .expect("health");
    assert!(status.get("served").and_then(Json::as_u64).unwrap() >= 6);
    assert!(status
        .get("handlers")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .any(|h| h.as_str() == Some("checkout")));

    let report = server.shutdown();
    assert!(report.requests_served >= 7);
    assert_eq!(report.wal_appended, report.wal_durable);
}

/// A fork cannot be taken in the future: a timestamp above the
/// published clock forks the present — its reply says so, and the fork's
/// clock (hence its next commit) resumes from there, not from the
/// requested timestamp.
#[test]
fn a_fork_from_the_future_is_a_fork_of_the_present() {
    let server = shop_server();
    let mut client = Client::connect(&server.addr()).expect("connect");
    let first = invoke(
        &mut client,
        "checkout",
        checkout_params("order-1", "ada", "item-1"),
        true,
    );
    let health = |client: &mut Client| {
        client
            .call("sys_health", Json::obj(Vec::<(&str, Json)>::new()))
            .expect("health")
    };
    let now = health(&mut client)
        .get("current_ts")
        .and_then(Json::as_u64)
        .unwrap();
    assert!(now >= first.get("commit_ts").and_then(Json::as_u64).unwrap());

    for asked in [now + 1000, i64::MAX as u64] {
        let reply = client
            .call("trod_fork", Json::obj(vec![("ts", Json::from(asked))]))
            .expect("fork");
        assert_eq!(
            reply.get("ts").and_then(Json::as_u64),
            Some(now),
            "forked at {asked}"
        );
        let fork_id = reply.get("fork_id").and_then(Json::as_str).unwrap();
        {
            let state = server.state();
            let forks = state.forks.lock();
            assert_eq!(forks[fork_id].db.current_ts(), now);
        }
        let rs = client
            .call(
                "trod_sql",
                Json::obj(vec![
                    ("fork", Json::str(fork_id)),
                    ("sql", Json::str("SELECT order_id FROM orders")),
                ]),
            )
            .expect("fork read");
        assert_eq!(rs.get("rows").and_then(Json::as_array).unwrap().len(), 1);
    }
    // Both forks are alive and hold GC at the present, not at the
    // timestamps that were asked for.
    let forks = health(&mut client);
    let forks = forks.get("forks").expect("forks section");
    assert_eq!(forks.get("count").and_then(Json::as_u64), Some(2));
    assert_eq!(forks.get("oldest_ts").and_then(Json::as_u64), Some(now));
    server.shutdown();
}

#[test]
fn typed_errors_over_the_wire() {
    let server = shop_server();
    let mut client = Client::connect(&server.addr()).expect("connect");

    // Unknown method.
    let err = client
        .call("no_such_method", Json::obj(Vec::<(&str, Json)>::new()))
        .expect_err("unknown method must fail");
    match &err {
        ClientError::Rpc(f) => {
            assert_eq!(f.code, -32601);
            assert!(!f.retryable);
        }
        other => panic!("expected rpc error, got {other:?}"),
    }

    // Unknown handler: typed NOT_FOUND with kind.
    let err = client
        .call(
            "trod_invoke",
            Json::obj(vec![("handler", Json::str("nope"))]),
        )
        .expect_err("unknown handler must fail");
    match &err {
        ClientError::Rpc(f) => {
            assert_eq!(f.code, 1004);
            assert_eq!(f.kind, "no_such_handler");
            assert!(!f.retryable);
        }
        other => panic!("expected rpc error, got {other:?}"),
    }

    // Application failure: checkout of a nonexistent item.
    let err = client
        .call(
            "trod_invoke",
            Json::obj(vec![
                ("handler", Json::str("checkout")),
                ("args", Json::obj(checkout_params("o", "x", "item-999"))),
            ]),
        )
        .expect_err("bad item must fail");
    match &err {
        ClientError::Rpc(f) => {
            assert_eq!(f.code, 1050);
            assert!(!f.retryable);
        }
        other => panic!("expected rpc error, got {other:?}"),
    }

    // Malformed JSON body → -32700 on a 400.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"POST /rpc HTTP/1.1\r\nconnection: close\r\ncontent-length: 9\r\n\r\nnot json!")
        .unwrap();
    let mut response = String::new();
    raw.read_to_string(&mut response).unwrap();
    assert!(response.contains("-32700"), "got: {response}");

    // An integer literal past u64::MAX is a parse error, never a float;
    // one past i64::MAX is a timestamp, but no handler argument.
    let body =
        r#"{"jsonrpc":"2.0","id":1,"method":"trod_fork","params":{"ts":18446744073709551616}}"#;
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    write!(
        raw,
        "POST /rpc HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    raw.read_to_string(&mut response).unwrap();
    assert!(response.contains("-32700"), "got: {response}");
    let mut args = checkout_params("o", "x", "item-1");
    args[3].1 = Json::from(1u64 << 63);
    let err = client
        .call(
            "trod_invoke",
            Json::obj(vec![
                ("handler", Json::str("checkout")),
                ("args", Json::obj(args)),
            ]),
        )
        .expect_err("an argument past i64::MAX must fail");
    match &err {
        ClientError::Rpc(f) => assert_eq!((f.code, f.kind.as_str()), (-32602, "invalid_params")),
        other => panic!("expected rpc error, got {other:?}"),
    }

    // Unknown path → 404; bad method on /rpc → 405.
    let mut client2 = Client::connect(&server.addr()).expect("connect");
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"GET /nope HTTP/1.1\r\n\r\n").unwrap();
    let mut response = [0u8; 64];
    let n = raw.read(&mut response).unwrap();
    assert!(std::str::from_utf8(&response[..n])
        .unwrap()
        .starts_with("HTTP/1.1 404"));
    // The keep-alive client still works after other connections misbehaved.
    client2.health().expect("health after noise");

    server.shutdown();
}

/// The `(code, kind, retryable)` of a call that must fail.
fn failure(client: &mut Client, method: &str, params: Vec<(&str, Json)>) -> (i64, String, bool) {
    match client.call(method, Json::obj(params)) {
        Err(ClientError::Rpc(f)) => (f.code, f.kind, f.retryable),
        other => panic!("{method}: expected an rpc error, got {other:?}"),
    }
}

#[test]
fn engine_errors_keep_their_code_kind_and_retry_bit_over_the_wire() {
    let server = shop_server();
    let mut client = Client::connect(&server.addr()).expect("connect");
    let missing_ns = || {
        vec![
            ("table", Json::str("kv:no_such_ns")),
            ("key", Json::Array(vec![Json::str("k")])),
        ]
    };
    let key_value = (1001, "key_value".to_string(), false);

    assert_eq!(failure(&mut client, "trod_get", missing_ns()), key_value);
    invoke(
        &mut client,
        "checkout",
        checkout_params("o-1", "c-1", "item-1"),
        false,
    );
    let now = server.state().trod.production_db().current_ts();
    let reply = client
        .call("trod_fork", Json::obj(vec![("ts", Json::from(now))]))
        .expect("fork");
    let fork = reply.get("fork_id").and_then(Json::as_str).unwrap();
    let mut params = missing_ns();
    params.push(("fork", Json::str(fork)));
    assert_eq!(failure(&mut client, "trod_get", params), key_value);

    let params = vec![
        ("table", Json::str("no_such_table")),
        ("key", Json::Array(vec![Json::str("k")])),
    ];
    assert_eq!(
        failure(&mut client, "trod_get", params),
        (1001, "relational".to_string(), false)
    );

    // Below the GC floor of an in-memory server a fork is refused.
    let stats = server.state().trod.production_db().gc_before(now);
    assert!(stats.horizon > 1, "{stats:?}");
    let params = vec![("ts", Json::from(1u64))];
    assert_eq!(
        failure(&mut client, "trod_fork", params),
        (1030, "history_truncated".to_string(), false)
    );

    // The server writes no file a caller names.
    let params = vec![("path", Json::str("dump.json"))];
    assert_eq!(
        failure(&mut client, "sys_dump", params),
        (-32602, "invalid_params".to_string(), false)
    );
    server.shutdown();
}

/// `sys_health` reports the ingest lag: events the tracer holds, and
/// reads ingested whose event rows no statement has needed yet.
/// Provenance SQL reads the store's latest state only.
#[test]
fn ingest_lag_is_reported_and_provenance_sql_takes_no_as_of() {
    let db = shop::shop_db();
    shop::seed_inventory(&db, 10, 1_000);
    let trod = Trod::attach(Runtime::new(db, shop_registry())).expect("attach");
    let server = ServerBuilder::new(trod)
        .sync_interval(None)
        .serve("127.0.0.1:0")
        .expect("bind ephemeral port");
    let mut client = Client::connect(&server.addr()).expect("connect");
    let lag = |client: &mut Client| {
        let health = client
            .call("sys_health", Json::obj(Vec::<(&str, Json)>::new()))
            .expect("health");
        let provenance = health.get("provenance").expect("provenance member");
        let field = |name| provenance.get(name).and_then(Json::as_u64).unwrap();
        (field("tracer_buffered"), field("deferred_reads"))
    };
    assert_eq!(lag(&mut client), (0, 0));

    for order in ["o-1", "o-2"] {
        invoke(
            &mut client,
            "checkout",
            checkout_params(order, "ada", "item-1"),
            false,
        );
    }
    let (buffered, deferred) = lag(&mut client);
    assert!(buffered > 0, "nothing syncs but a call that asks to");
    assert_eq!(deferred, 0);

    let provenance_sql = |client: &mut Client, sql: &str| {
        let params = vec![("sql", Json::str(sql)), ("target", Json::str("provenance"))];
        let rs = client.call("trod_sql", Json::obj(params)).expect(sql);
        rs.get("rows").and_then(Json::as_array).unwrap()[0]
            .as_array()
            .unwrap()[0]
            .as_i64()
            .unwrap()
    };
    // A statement that reads no read event syncs and installs nothing.
    let updates = "SELECT COUNT(*) FROM InventoryEvents WHERE Type = 'Update'";
    assert_eq!(provenance_sql(&mut client, updates), 2);
    let (buffered, deferred) = lag(&mut client);
    assert_eq!(buffered, 0);
    assert!(deferred > 0, "each checkout read the inventory");
    // One that can see the inventory's reads installs them.
    let reads = "SELECT COUNT(*) FROM InventoryEvents WHERE Type = 'Read'";
    assert!(provenance_sql(&mut client, reads) >= 2);
    assert!(lag(&mut client).1 < deferred);

    let params = vec![
        ("sql", Json::str("SELECT COUNT(*) FROM Executions")),
        ("target", Json::str("provenance")),
        ("as_of", Json::from(1u64)),
    ];
    assert_eq!(
        failure(&mut client, "trod_sql", params),
        (-32602, "invalid_params".to_string(), false)
    );
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_and_rejects_with_typed_503() {
    let server = shop_server();
    let addr = server.addr();
    let mut client = Client::connect(&addr).expect("connect");
    invoke(
        &mut client,
        "checkout",
        checkout_params("o1", "u", "item-0"),
        false,
    );

    // Flip into drain mode while the connection stays open: the next
    // request gets the typed, retryable 1503 on an HTTP 503.
    server.begin_drain();
    let err = client
        .call("sys_health", Json::obj(Vec::<(&str, Json)>::new()))
        .expect_err("draining server must reject");
    match &err {
        ClientError::Rpc(f) => {
            assert_eq!(f.code, 1503);
            assert_eq!(f.kind, "draining");
            assert!(f.retryable, "drain rejection must be retryable");
        }
        other => panic!("expected rpc error, got {other:?}"),
    }

    // Health reflects the drain for plain HTTP probes on new conns
    // until shutdown finishes. (New connections may also be refused
    // outright once the acceptor exits; both are acceptable during the
    // window, so don't assert here.)

    // An idle keep-alive connection (no request in flight) must not
    // block shutdown.
    let _idle = TcpStream::connect(&addr).unwrap();

    let report = server.shutdown();
    assert_eq!(report.requests_served, 1);
    assert!(report.draining_rejects >= 1);
    assert_eq!(report.wal_appended, report.wal_durable);
}

#[test]
fn connection_pool_bound_rejects_with_retryable_503() {
    let db = shop::shop_db();
    shop::seed_inventory(&db, 5, 100);
    db.create_namespace(shop::CARTS_NAMESPACE).unwrap();
    let runtime = Runtime::new(db, shop::registry());
    let trod = Trod::attach(runtime).expect("attach");
    let server = ServerBuilder::new(trod)
        .max_connections(2)
        .serve("127.0.0.1:0")
        .expect("bind");
    let addr = server.addr();

    let mut a = Client::connect(&addr).expect("conn 1");
    let mut b = Client::connect(&addr).expect("conn 2");
    a.health().expect("conn 1 alive");
    b.health().expect("conn 2 alive");

    // The third connection is over the bound: it gets exactly one
    // retryable 503 and is closed.
    let mut c = Client::connect(&addr).expect("tcp connect still succeeds");
    let err = c.health().expect_err("over-bound connection is rejected");
    match err {
        ClientError::Protocol(d) => assert!(d.contains("503"), "got: {d}"),
        other => panic!("expected protocol error with 503, got {other:?}"),
    }

    server.shutdown();
}

#[test]
fn closed_connections_do_not_accumulate_worker_handles() {
    let server = shop_server();
    for _ in 0..200 {
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(b"GET /health HTTP/1.1\r\nconnection: close\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        raw.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200"), "got: {response}");
    }
    // Every accept joins the workers that finished before it; only the
    // last few connections' workers can still be unreaped.
    let unreaped = server.worker_count();
    assert!(unreaped < 20, "{unreaped} worker handles for 0 connections");
    server.shutdown();
}
