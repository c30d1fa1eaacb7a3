//! The JSON-RPC params fuzz: every method, called in process through
//! `rpc::dispatch` over a small populated `ServerState` that holds a
//! registered fork and a registered patch, with arbitrary params, and
//! with valid params that have one field replaced by a boundary number,
//! a float, a string, `null`, an array or an object.
//!
//! Contract: every call answers `Ok` or a typed `RpcError`, never panics,
//! and ends within [`BOUND`]. A field replaced by a value of another JSON
//! type (other than `null`) is `-32602` `invalid_params`: no method reads
//! a mistyped field as if it were absent.
//!
//! The boundary test runs `0`, `i64::MAX`, `i64::MAX + 1`, `u64::MAX` and
//! `-1` through every integer parameter that carries a timestamp or a
//! count; `trod_retroactive.max_orderings` is checked at its ceiling.

use std::collections::HashMap;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use trod_apps::shop;
use trod_core::json::Json;
use trod_core::Trod;
use trod_db::Ts;
use trod_runtime::Runtime;
use trod_server::rpc::dispatch;
use trod_server::{Dump, RpcError, ServerState};

/// How long one call may take.
const BOUND: Duration = Duration::from_secs(20);

const INVALID_PARAMS: i64 = -32602;

/// Every method name the dispatcher serves.
const METHODS: &[&str] = &[
    "trod_invoke",
    "trod_sql",
    "fork_sql",
    "trod_get",
    "trod_fork",
    "fork_drop",
    "fork_list",
    "trod_replay",
    "trod_reenact",
    "trod_anomalies",
    "trod_retroactive",
    "trod_trace",
    "sys_health",
    "sys_checkpoint",
    "sys_dump",
];

/// A populated server state and the names valid params refer to.
struct Fixture {
    state: Arc<ServerState>,
    fork: String,
    req_ids: Vec<String>,
    first_ts: Ts,
    now: Ts,
}

fn call(state: &ServerState, method: &str, params: Json) -> Result<Json, RpcError> {
    dispatch(state, method, &params)
}

/// Three checkouts of one item (they conflict on its stock), a
/// `getOrder`, a fork at the present and a patch registry named `shop`.
fn fixture() -> Fixture {
    let db = shop::shop_db();
    shop::seed_inventory(&db, 2, 1_000);
    db.create_namespace(shop::CARTS_NAMESPACE).unwrap();
    let trod = Trod::attach(Runtime::new(db, shop::registry())).expect("attach");
    let patches = HashMap::from([("shop".to_string(), shop::registry())]);
    let state = Arc::new(ServerState::new(Arc::new(trod), patches));
    let mut req_ids = Vec::new();
    let mut first_ts = 0;
    for i in 0..3 {
        let args = Json::obj(vec![
            ("order_id", Json::str(format!("o-{i}"))),
            ("customer", Json::str("c")),
            ("item", Json::str("item-0")),
            ("quantity", Json::Int(1)),
        ]);
        let reply = call(
            &state,
            "trod_invoke",
            Json::obj(vec![
                ("handler", Json::str("checkout")),
                ("args", args),
                ("sync", Json::Bool(true)),
            ]),
        )
        .expect("checkout");
        req_ids.push(
            reply
                .get("req_id")
                .and_then(Json::as_str)
                .unwrap()
                .to_string(),
        );
        if i == 0 {
            first_ts = reply.get("commit_ts").and_then(Json::as_u64).unwrap();
        }
    }
    call(
        &state,
        "trod_invoke",
        Json::obj(vec![
            ("handler", Json::str("getOrder")),
            ("args", Json::obj(vec![("order_id", Json::str("o-0"))])),
            ("sync", Json::Bool(true)),
        ]),
    )
    .expect("getOrder");
    let now = state.trod.production_db().current_ts();
    let reply = call(
        &state,
        "trod_fork",
        Json::obj(vec![("ts", Json::from(now))]),
    )
    .expect("fork");
    let fork = reply
        .get("fork_id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    Fixture {
        state,
        fork,
        req_ids,
        first_ts,
        now,
    }
}

/// Params every method accepts, with every field it reads.
fn valid_params(f: &Fixture, method: &str) -> Json {
    let req = || Json::str(f.req_ids[0].clone());
    let fork = || Json::str(f.fork.clone());
    let fields: Vec<(&str, Json)> = match method {
        "trod_invoke" => vec![
            ("handler", Json::str("getOrder")),
            ("args", Json::obj(vec![("order_id", Json::str("o-1"))])),
            ("retries", Json::Int(1)),
            ("sync", Json::Bool(true)),
        ],
        "trod_sql" => vec![
            ("sql", Json::str("SELECT order_id FROM orders")),
            ("target", Json::str("app")),
            ("as_of", Json::from(f.first_ts)),
        ],
        "fork_sql" => vec![
            ("fork", fork()),
            ("sql", Json::str("SELECT kv_key FROM \"kv:carts\"")),
        ],
        "trod_get" => vec![
            ("table", Json::str("orders")),
            ("key", Json::Array(vec![Json::str("o-0")])),
            ("as_of", Json::from(f.now)),
        ],
        "trod_fork" => vec![("ts", Json::from(f.first_ts))],
        "fork_drop" => vec![("fork", fork())],
        "trod_replay" | "trod_reenact" | "trod_trace" => vec![("req_id", req())],
        "trod_retroactive" => vec![
            ("patch", Json::str("shop")),
            (
                "requests",
                Json::Array(f.req_ids.iter().map(|r| Json::str(r.clone())).collect()),
            ),
            ("table", Json::str("inventory")),
            ("snapshot_at", Json::from(f.first_ts - 1)),
            ("max_orderings", Json::Int(3)),
            ("keep_forks", Json::Bool(true)),
        ],
        "sys_dump" => vec![("up_to", Json::from(f.now))],
        "fork_list" | "trod_anomalies" | "sys_health" | "sys_checkpoint" => Vec::new(),
        other => panic!("no valid params for {other}"),
    };
    Json::obj(fields)
}

/// Runs one call on a thread of its own: it must answer `Ok` or a typed
/// error, without a panic, within [`BOUND`].
fn answers(
    state: &Arc<ServerState>,
    method: &'static str,
    params: Json,
) -> Result<Result<Json, RpcError>, TestCaseError> {
    let (tx, rx) = mpsc::channel();
    let state = Arc::clone(state);
    let shown = params.to_string();
    std::thread::spawn(move || {
        let _ = tx.send(dispatch(&state, method, &params));
    });
    match rx.recv_timeout(BOUND) {
        Ok(outcome) => Ok(outcome),
        Err(RecvTimeoutError::Timeout) => Err(TestCaseError::fail(format!(
            "{method} {shown} ran past {BOUND:?}"
        ))),
        Err(RecvTimeoutError::Disconnected) => {
            Err(TestCaseError::fail(format!("{method} {shown} panicked")))
        }
    }
}

/// A splitmix64 stream, the source of the generated params.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())].clone()
    }
}

/// The integers at the edges of the wire's range.
fn boundaries() -> [Json; 5] {
    [
        Json::Int(0),
        Json::Int(i64::MAX),
        Json::from(i64::MAX as u64 + 1),
        Json::from(u64::MAX),
        Json::Int(-1),
    ]
}

/// Every field name some method reads, and strings that name things.
const WORDS: &[&str] = &[
    "handler",
    "args",
    "retries",
    "sync",
    "sql",
    "target",
    "as_of",
    "fork",
    "table",
    "key",
    "ts",
    "req_id",
    "patch",
    "requests",
    "snapshot_at",
    "max_orderings",
    "keep_forks",
    "up_to",
    "path",
    "app",
    "provenance",
    "orders",
    "inventory",
    "kv:carts",
    "checkout",
    "getOrder",
    "shop",
    "fork-1",
    "o-0",
    "SELECT * FROM orders",
    "",
];

fn arbitrary(g: &mut Gen, depth: u32) -> Json {
    match g.below(if depth == 0 { 6 } else { 8 }) {
        0 => Json::Null,
        1 => Json::Bool(g.below(2) == 1),
        2 => g.pick(&boundaries()),
        3 => Json::Float(1.5),
        4 => Json::Int(g.below(8) as i64),
        5 => Json::str(g.pick(WORDS)),
        6 => Json::Array((0..g.below(4)).map(|_| arbitrary(g, depth - 1)).collect()),
        _ => Json::Object(
            (0..g.below(5))
                .map(|_| (g.pick(WORDS).to_string(), arbitrary(g, depth - 1)))
                .collect(),
        ),
    }
}

/// The JSON type of a value; `Int` and `UInt` are one type.
fn kind(j: &Json) -> u8 {
    match j {
        Json::Null => 0,
        Json::Bool(_) => 1,
        Json::Int(_) | Json::UInt(_) => 2,
        Json::Float(_) => 3,
        Json::Str(_) => 4,
        Json::Array(_) => 5,
        Json::Object(_) => 6,
    }
}

fn fuzz_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// Arbitrary params, object-shaped or not, for every method.
    #[test]
    fn every_method_takes_arbitrary_params(seed in 0u64..u64::MAX, m in 0usize..METHODS.len()) {
        let f = fixture();
        let mut g = Gen(seed);
        let params = match g.below(4) {
            0 => arbitrary(&mut g, 3),
            _ => Json::Object(
                (0..g.below(6))
                    .map(|_| (g.pick(WORDS).to_string(), arbitrary(&mut g, 2)))
                    .collect(),
            ),
        };
        let _typed_or_ok = answers(&f.state, METHODS[m], params)?;
    }

    /// Valid params with one field replaced. A replacement of another
    /// JSON type than the field's, other than `null`, is refused as
    /// `invalid_params`.
    #[test]
    fn every_method_takes_valid_params_with_one_field_replaced(
        seed in 0u64..u64::MAX,
        m in 0usize..METHODS.len(),
    ) {
        let f = fixture();
        let method = METHODS[m];
        let mut params = valid_params(&f, method);
        let mut g = Gen(seed);
        let Json::Object(fields) = &mut params else { unreachable!() };
        if fields.is_empty() {
            // Nothing to replace: the method must answer anyway.
            prop_assert!(answers(&f.state, method, params)?.is_ok(), "{method}");
            return Ok(());
        }
        let at = g.below(fields.len());
        let mut with = vec![
            Json::Float(1.5),
            Json::str(g.pick(WORDS)),
            Json::Null,
            Json::Array(vec![arbitrary(&mut g, 1)]),
            Json::Object(vec![(g.pick(WORDS).to_string(), arbitrary(&mut g, 1))]),
        ];
        with.extend(boundaries());
        let with = g.pick(&with);
        let (name, old) = (fields[at].0.clone(), kind(&fields[at].1));
        fields[at].1 = with.clone();
        let shown = params.to_string();
        let outcome = answers(&f.state, method, params)?;
        if kind(&with) != old && !with.is_null() {
            match outcome {
                Err(e) => prop_assert_eq!(e.code, INVALID_PARAMS, "{} {}: {}", method, shown, e.message),
                Ok(reply) => prop_assert!(false, "{method} took `{name}` = {with}: {reply}"),
            }
        }
    }
}

/// Valid params answer `Ok` for every method: the fuzz above starts
/// from calls that work.
#[test]
fn valid_params_answer_ok() {
    let f = fixture();
    for method in METHODS {
        let reply = call(&f.state, method, valid_params(&f, method));
        assert!(reply.is_ok(), "{method}: {:?}", reply.err());
    }
}

/// `0`, `i64::MAX`, `i64::MAX + 1`, `u64::MAX` and `-1` through every
/// timestamp or count: `-1` is `invalid_params`; the rest are read as
/// the `u64` they are, timestamps clamped to the published clock.
#[test]
fn boundary_integers_are_read_exactly() {
    let f = fixture();
    let state = &f.state;
    let now = f.now;
    // The params go through their text, as a request body does.
    let with = |method: &str, field: &str, value: &Json| {
        let mut params = valid_params(&f, method);
        if let Json::Object(fields) = &mut params {
            fields.retain(|(name, _)| name != field);
            fields.push((field.to_string(), value.clone()));
        }
        call(state, method, Json::parse(&params.to_string()).unwrap())
    };
    let rows = |reply: Json| reply.get("rows").unwrap().to_string();
    let sql_at = |ts: Ts| {
        rows(
            call(
                state,
                "trod_sql",
                Json::obj(vec![
                    ("sql", Json::str("SELECT order_id FROM orders")),
                    ("as_of", Json::from(ts)),
                ]),
            )
            .unwrap(),
        )
    };
    let expected = [
        Some(0),
        Some(i64::MAX as u64),
        Some(1 << 63),
        Some(u64::MAX),
        None,
    ];
    for (value, expected) in boundaries().into_iter().zip(expected) {
        let Some(ts) = expected else {
            for (method, field) in [
                ("trod_fork", "ts"),
                ("trod_sql", "as_of"),
                ("trod_get", "as_of"),
                ("sys_dump", "up_to"),
                ("trod_invoke", "retries"),
                ("trod_retroactive", "snapshot_at"),
            ] {
                let err = with(method, field, &value).expect_err(method);
                assert_eq!(err.code, INVALID_PARAMS, "{method}.{field} = -1");
            }
            continue;
        };
        let clamped = ts.min(now);

        let reply = with("trod_fork", "ts", &value).unwrap();
        assert_eq!(reply.get("ts").and_then(Json::as_u64), Some(clamped));

        let reply = with("trod_sql", "as_of", &value).unwrap();
        assert_eq!(rows(reply), sql_at(clamped), "as_of {ts}");

        let reply = with("trod_get", "as_of", &value).unwrap();
        let exists = reply.get("row").unwrap() != &Json::Null;
        assert_eq!(exists, clamped >= f.first_ts, "as_of {ts}");

        let reply = with("sys_dump", "up_to", &value).unwrap();
        let dump = Dump::from_json(reply.get("dump").unwrap()).unwrap();
        assert_eq!(dump, Dump::capture(&state.trod, ts).unwrap());
        assert_eq!(dump.current_ts, clamped);

        let reply = with("trod_invoke", "retries", &value).unwrap();
        assert!(reply.get("req_id").is_some());

        // The forks are taken at the clamped timestamp, and the reply
        // says so.
        match with("trod_retroactive", "snapshot_at", &value) {
            Ok(reply) => {
                let snapshot = reply.get("snapshot_ts").and_then(Json::as_u64);
                assert_eq!(snapshot, Some(clamped), "snapshot_at {ts}");
            }
            Err(e) => panic!("snapshot_at {ts}: {e:?}"),
        }
    }
}

/// `max_orderings` is read up to its ceiling, 1,024, and refused above
/// it with `invalid_params` naming the ceiling: the orderings of n
/// conflicting requests number up to n!.
#[test]
fn max_orderings_stops_at_its_ceiling() {
    let f = fixture();
    let with = |n: Json| {
        let mut params = valid_params(&f, "trod_retroactive");
        if let Json::Object(fields) = &mut params {
            fields.retain(|(name, _)| name != "max_orderings");
            fields.push(("max_orderings".to_string(), n));
        }
        call(&f.state, "trod_retroactive", params)
    };
    for n in [0, 1, 1024] {
        let reply = with(Json::Int(n)).unwrap_or_else(|e| panic!("max_orderings {n}: {e:?}"));
        let explored = reply.get("orderings").and_then(Json::as_array).unwrap();
        assert!((1..=n.max(1) as usize).contains(&explored.len()), "{n}");
    }
    let over = [Json::Int(1025), Json::Int(i64::MAX), Json::from(u64::MAX)];
    for n in over {
        let err = with(n.clone()).expect_err("above the ceiling");
        assert_eq!(err.code, INVALID_PARAMS, "max_orderings {n}");
        assert!(err.message.contains("1024"), "{n}: {}", err.message);
    }
}
