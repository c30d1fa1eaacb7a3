//! Dump/load round-trips and network fork-from-instance.
//!
//! The contract under test: a loaded instance is not merely
//! state-equivalent — its aligned history is *byte-identical* (same
//! entries, same wire serialization) and its commit clock resumes where
//! the source's left off, so debugging a loaded instance sees the same
//! past as debugging the source.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use trod_apps::shop;
use trod_core::json::Json;
use trod_core::wire;
use trod_core::Trod;
use trod_db::{ChangeOp, Database, Key, Row, Ts, Value, TS_LIVE};
use trod_runtime::{Args, Runtime};
use trod_server::{fork_from_instance, Client, Dump, DumpError, ServerBuilder};

fn shop_trod() -> Trod {
    let db = shop::shop_db();
    shop::seed_inventory(&db, 8, 1_000);
    db.create_namespace(shop::CARTS_NAMESPACE).unwrap();
    let runtime = Runtime::new(db, shop::registry());
    Trod::attach(runtime).expect("attach")
}

/// The shop requests numbered `ids`: checkouts by 6 customers of the 8
/// seeded items, every third on the hot item-0, and every tenth request a
/// `getOrder` of an earlier order, or of one no checkout creates.
fn shop_requests(ids: std::ops::Range<usize>) -> Vec<(String, Args)> {
    ids.map(|i| match i % 10 {
        9 => (
            "getOrder".to_string(),
            Args::new().with("order_id", format!("order-{}", i / 2)),
        ),
        _ => {
            let item = if i % 3 == 0 { 0 } else { i % 8 };
            let (order, user) = (format!("order-{i}"), format!("user-{}", i % 6));
            let args = shop::checkout_args(&order, &user, &format!("item-{item}"), 1);
            ("checkout".to_string(), args)
        }
    })
    .collect()
}

/// Runs `requests` serially against an instance.
fn run_workload(trod: &Trod, requests: Vec<(String, Args)>) {
    for (handler, args) in requests {
        // Serial execution: failures can only be application errors
        // (e.g. getOrder of a not-yet-created order), never conflicts.
        let _ = trod.runtime().handle_request(&handler, args);
    }
    trod.sync();
}

fn wire_bytes(entries: &[trod_db::CommittedTxn]) -> String {
    Json::Array(entries.iter().map(wire::txn_to_json).collect()).to_string()
}

fn assert_round_trip(source: &Trod, loaded_db: &Database) {
    let src_db = source.production_db();

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
    assert_eq!(src_db.digest_at(Ts::MAX), loaded_db.digest_at(Ts::MAX));
}

#[test]
fn dump_load_round_trip_preserves_history_and_clocks() {
    let source = shop_trod();
    run_workload(&source, shop_requests(0..50));

    let dump = Dump::capture(&source, Ts::MAX).expect("capture");
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
    let resumed_ts = loaded.current_ts();
    let runtime = Runtime::builder(loaded.clone(), shop::registry()).build();
    let result = runtime.handle_request(
        "checkout",
        shop::checkout_args("order-after-load", "eve", "item-0", 1),
    );
    assert!(
        result.is_ok(),
        "post-load checkout failed: {:?}",
        result.output
    );
    assert!(loaded.current_ts() > resumed_ts);
}

/// A history of several replay runs, with timestamps no entry uses
/// between them, boots identically — at sampled timestamps too, since a
/// run publishes its whole range at once.
#[test]
fn a_dump_of_several_replay_runs_boots_identically() {
    let source = shop_trod();
    let src_db = source.production_db();
    for run in 0..2 {
        run_workload(&source, shop_requests(run * 200..run * 200 + 200));
        src_db.ensure_ts_at_least(src_db.current_ts() + 100);
    }
    assert!(
        src_db.log_len() > 2 * trod_db::commit::REPLAY_RUN,
        "{}",
        src_db.log_len()
    );
    let loaded = Dump::capture(&source, Ts::MAX).unwrap().boot().unwrap();
    assert_round_trip(&source, &loaded);
    for ts in (1..src_db.current_ts()).step_by(37) {
        let loaded_at = loaded.digest_at(ts);
        assert_eq!(src_db.digest_at(ts), loaded_at, "at {ts}");
    }
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

    let order = loaded.get_latest(shop::ORDERS_TABLE, &Key::single("order-4"));
    assert!(order.unwrap().is_some());

    // Compare against the live server state through its own state.
    let trod = &server.state().trod;
    assert_round_trip(trod, &loaded);
    server.shutdown();
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
        remote.digest_at(Ts::MAX),
        local.digest_at(Ts::MAX),
        "network fork must equal the in-process fork at ts {ts}"
    );
    assert_eq!(remote.current_ts(), local.current_ts());
    assert_eq!(remote.current_ts(), ts);

    // Past the remote clock, both forks take the published clock.
    let remote_max = fork_from_instance(&server.addr(), u64::MAX).expect("network fork");
    let local_max = server.state().trod.fork_at(u64::MAX).expect("local fork");
    assert_eq!(remote_max.current_ts(), local_max.current_ts());
    assert_eq!(
        remote_max.current_ts(),
        server.state().trod.production_db().current_ts()
    );
    assert_eq!(remote_max.digest_at(Ts::MAX), local_max.digest_at(Ts::MAX));

    // The remote fork is a real environment: it accepts new commits.
    let runtime = Runtime::builder(remote.clone(), shop::registry()).build();
    let result = runtime.handle_request(
        "checkout",
        shop::checkout_args("order-fork", "g", "item-2", 1),
    );
    assert!(result.is_ok(), "fork checkout failed: {:?}", result.output);

    server.shutdown();
}

/// `sys_dump {up_to: t}` is `Dump::capture` at `t`, for a `t` before,
/// between and after the commits, and past `i64::MAX`.
#[test]
fn sys_dump_up_to_equals_capture_at_that_timestamp() {
    let source = shop_trod();
    run_workload(&source, shop_requests(0..50));
    let server = ServerBuilder::new(source)
        .serve("127.0.0.1:0")
        .expect("bind");
    let mut client = Client::connect(&server.addr()).expect("connect");
    let trod = &server.state().trod;
    let now = trod.production_db().current_ts();
    let mid = trod.production_db().log_entries()[3].commit_ts;
    for up_to in [0, mid, now, now + 7, i64::MAX as u64 + 1, u64::MAX] {
        let reply = client
            .call("sys_dump", Json::obj(vec![("up_to", Json::from(up_to))]))
            .expect("sys_dump");
        let wire = Dump::from_json(reply.get("dump").unwrap()).expect("decode");
        let local = Dump::capture(trod, up_to).expect("capture");
        assert_eq!(wire, local, "up_to {up_to}");
        assert_eq!(wire.current_ts, up_to.min(now));
        assert!(wire.entries.iter().all(|e| e.commit_ts <= up_to));
    }
    // No `up_to` is all of it.
    let reply = client
        .call("sys_dump", Json::obj(Vec::<(&str, Json)>::new()))
        .expect("sys_dump");
    let wire = Dump::from_json(reply.get("dump").unwrap()).expect("decode");
    assert_eq!(wire, Dump::capture(trod, Ts::MAX).expect("capture"));
    server.shutdown();
}

/// A watermark above `i64::MAX` goes through the document exactly and
/// the booted clock stands on it.
#[test]
fn a_dump_past_i64_max_round_trips_and_boots_at_its_watermark() {
    let source = shop_trod();
    run_workload(&source, shop_requests(0..50));
    let mut dump = Dump::capture(&source, Ts::MAX).expect("capture");
    let watermark = (1u64 << 63) + 5;
    dump.current_ts = watermark;
    let text = dump.to_json().to_string();
    assert!(
        text.contains("\"current_ts\":9223372036854775813"),
        "{text}"
    );
    let reparsed = Dump::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(reparsed, dump);
    let loaded = reparsed.boot().expect("boot");
    assert_eq!(loaded.current_ts(), watermark);
    assert_eq!(loaded.log_entries(), source.production_db().log_entries());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Dump → boot round-trips byte-identically for arbitrary small
    /// workloads: a `getOrder` (of an order that may not exist) or a
    /// checkout of any quantity, by any of 6 customers, of any of the 8
    /// seeded items or one that does not exist.
    #[test]
    fn dump_load_round_trips_for_arbitrary_workloads(
        draws in prop::collection::vec((0u8..10, 0u8..6, 0u8..9, 1i64..4), 1..24),
    ) {
        let requests = draws
            .into_iter()
            .enumerate()
            .map(|(i, (kind, user, item, quantity))| match kind {
                0 => (
                    "getOrder".to_string(),
                    Args::new().with("order_id", format!("order-{}", i + usize::from(user))),
                ),
                _ => {
                    let (order, user) = (format!("order-{i}"), format!("user-{user}"));
                    let args = shop::checkout_args(&order, &user, &format!("item-{item}"), quantity);
                    ("checkout".to_string(), args)
                }
            })
            .collect();
        let source = shop_trod();
        run_workload(&source, requests);

        let dump = Dump::capture(&source, Ts::MAX).expect("capture");
        let text = dump.to_json().to_string();
        let reparsed = Dump::from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(&reparsed, &dump);

        let loaded = reparsed.boot().unwrap();
        prop_assert_eq!(
            source.production_db().log_entries(),
            loaded.log_entries()
        );
        prop_assert_eq!(source.production_db().current_ts(), loaded.current_ts());
        prop_assert_eq!(
            source.production_db().digest_at(Ts::MAX),
            loaded.digest_at(Ts::MAX)
        );
    }
}

// ---------------------------------------------------------------------
// The `trod-dump/1` decoder fuzz: arbitrary documents, and valid dumps
// with one field mutated, through `Dump::from_json` and `Dump::boot`.
// ---------------------------------------------------------------------

fn fuzz_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// What every input must come to: a typed [`DumpError`], or a booted
/// instance whose clock stands at the dump's watermark or its last
/// entry, whichever is later, and below [`TS_LIVE`], which stamps live
/// versions and is no commit timestamp. The load runs on a thread of
/// its own, so a panic or a load that does not finish fails the case.
fn loads_typed_or_boots(
    load: impl FnOnce() -> Result<Dump, DumpError> + Send + 'static,
) -> Result<(), TestCaseError> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let outcome = load().and_then(|dump| {
            let session = dump.boot()?;
            let last = dump.entries.last().map_or(0, |e| e.commit_ts);
            Ok((session.current_ts(), dump.current_ts.max(last)))
        });
        let _ = tx.send(outcome.map_err(|e| e.to_string()));
    });
    match rx.recv_timeout(Duration::from_secs(20)) {
        Ok(Ok((clock, expected))) => {
            prop_assert_eq!(clock, expected);
            prop_assert!(clock < TS_LIVE, "the clock is at TS_LIVE");
        }
        Ok(Err(_typed)) => {}
        Err(RecvTimeoutError::Timeout) => prop_assert!(false, "the load ran past 20 s"),
        Err(RecvTimeoutError::Disconnected) => prop_assert!(false, "the load panicked"),
    }
    Ok(())
}

/// A splitmix64 stream, the source of the generated documents' shapes.
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

/// The field names and strings a dump uses, so that generated documents
/// get past the first missing field.
const WORDS: &[&str] = &[
    "format",
    "trod-dump/1",
    "current_ts",
    "tables",
    "namespaces",
    "entries",
    "name",
    "columns",
    "dtype",
    "nullable",
    "primary_key",
    "indexes",
    "txn_id",
    "start_ts",
    "commit_ts",
    "changes",
    "table",
    "key",
    "op",
    "before",
    "after",
    "insert",
    "update",
    "delete",
    "INT",
    "TEXT",
    "t",
    "k",
    "v",
    "kv:t",
    "",
];

/// The boundary values of every timestamp and id field: 0, 2^40,
/// `i64::MAX`, `i64::MAX + 1`, `u64::MAX` and -1.
fn boundary(g: &mut Gen) -> Json {
    g.pick(&[
        Json::Int(0),
        Json::from(1u64 << 40),
        Json::from(u64::MAX),
        Json::Int(-1),
        Json::Int(i64::MAX),
        Json::from(i64::MAX as u64 + 1),
        Json::Int(1),
        Json::Int(2),
    ])
}

fn arbitrary_json(g: &mut Gen, depth: u32) -> Json {
    match g.below(if depth == 0 { 5 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(g.below(2) == 1),
        2 => boundary(g),
        3 => Json::Float(0.5),
        4 => Json::str(g.pick(WORDS)),
        5 => Json::Array(
            (0..g.below(4))
                .map(|_| arbitrary_json(g, depth - 1))
                .collect(),
        ),
        _ => Json::Object(
            (0..g.below(5))
                .map(|_| (g.pick(WORDS).to_string(), arbitrary_json(g, depth - 1)))
                .collect(),
        ),
    }
}

/// Makes one generated value.
type Make<'a> = &'a dyn Fn(&mut Gen) -> Json;

/// An object with `fields`, each value made by its generator, or (one
/// time in eight) an arbitrary value, or (one in sixteen) left out.
fn object(g: &mut Gen, fields: &[(&str, Make)]) -> Json {
    let mut pairs = Vec::new();
    for (name, make) in fields {
        match g.below(16) {
            0 => {}
            1 | 2 => pairs.push((name.to_string(), arbitrary_json(g, 2))),
            _ => pairs.push((name.to_string(), make(g))),
        }
    }
    Json::Object(pairs)
}

fn array_of(g: &mut Gen, most: usize, make: Make) -> Json {
    Json::Array((0..g.below(most + 1)).map(|_| make(g)).collect())
}

/// A document shaped like a dump: tables, namespaces and entries whose
/// fields are drawn from the dump vocabulary and the boundary values.
fn dump_like(g: &mut Gen) -> Json {
    let word = |g: &mut Gen| Json::str(g.pick(WORDS));
    let words = |g: &mut Gen| array_of(g, 2, &word);
    let cell = |g: &mut Gen| g.pick(&[Json::Int(1), Json::str("k"), Json::Null]);
    let cells = |g: &mut Gen| array_of(g, 2, &cell);
    let column = |g: &mut Gen| {
        object(
            g,
            &[
                ("name", &word),
                ("dtype", &|g| {
                    Json::str(g.pick(&["INT", "TEXT", "BOOL", "X"]))
                }),
                ("nullable", &|g| Json::Bool(g.below(2) == 1)),
            ],
        )
    };
    let table = |g: &mut Gen| {
        object(
            g,
            &[
                ("name", &word),
                ("columns", &|g| array_of(g, 3, &column)),
                ("primary_key", &words),
                ("indexes", &words),
            ],
        )
    };
    let change = |g: &mut Gen| {
        object(
            g,
            &[
                ("table", &word),
                ("key", &cells),
                ("op", &|g| {
                    Json::str(g.pick(&["insert", "update", "delete"]))
                }),
                ("before", &cells),
                ("after", &cells),
            ],
        )
    };
    let entry = |g: &mut Gen| {
        object(
            g,
            &[
                ("txn_id", &boundary),
                ("start_ts", &boundary),
                ("commit_ts", &boundary),
                ("changes", &|g| array_of(g, 2, &change)),
            ],
        )
    };
    object(
        g,
        &[
            ("format", &|_| Json::str("trod-dump/1")),
            ("current_ts", &boundary),
            ("tables", &|g| array_of(g, 2, &table)),
            ("namespaces", &words),
            ("entries", &|g| array_of(g, 3, &entry)),
        ],
    )
}

/// Loads `doc` from its text.
fn load_text(doc: &Json) -> impl FnOnce() -> Result<Dump, DumpError> + Send + 'static {
    let text = doc.to_string();
    move || Dump::from_json(&Json::parse(&text)?)
}

/// A valid dump of a short shop workload, captured once.
fn base_dump() -> &'static Dump {
    static BASE: OnceLock<Dump> = OnceLock::new();
    BASE.get_or_init(|| {
        let source = shop_trod();
        run_workload(&source, shop_requests(0..6));
        Dump::capture(&source, Ts::MAX).expect("capture")
    })
}

/// Replaces the `at`-th node of `doc` (pre-order) with `with`, or, when
/// `with` is `None`, removes the `at`-th object field. Returns whether
/// it found that candidate; when not, `at` has dropped by the number of
/// candidates.
fn mutate(doc: &mut Json, at: &mut usize, with: Option<&Json>) -> bool {
    if let Some(with) = with {
        if *at == 0 {
            *doc = with.clone();
            return true;
        }
        *at -= 1;
    }
    match doc {
        Json::Array(items) => items.iter_mut().any(|item| mutate(item, at, with)),
        Json::Object(pairs) => {
            if with.is_none() && *at < pairs.len() {
                pairs.remove(*at);
                return true;
            }
            if with.is_none() {
                *at -= pairs.len();
            }
            pairs.iter_mut().any(|(_, value)| mutate(value, at, with))
        }
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// Arbitrary JSON values, and documents shaped like a dump whose
    /// fields take the vocabulary's strings and the boundary values.
    #[test]
    fn dump_decoder_takes_arbitrary_documents(seed in 0u64..u64::MAX, shaped in 0u8..4) {
        let mut g = Gen(seed);
        let doc = match shaped {
            0 => arbitrary_json(&mut g, 4),
            _ => dump_like(&mut g),
        };
        loads_typed_or_boots(load_text(&doc))?;
    }

    /// A valid dump with one JSON node replaced (a boundary value, a
    /// value of another type) or one object field removed; or with one
    /// timestamp or id field of the decoded dump set to a boundary value
    /// and booted as it is.
    #[test]
    fn dump_decoder_takes_a_valid_dump_with_one_field_mutated(
        at in 0usize..1 << 16,
        seed in 0u64..u64::MAX,
        mode in 0u8..3,
    ) {
        let base = base_dump();
        let mut g = Gen(seed);
        match mode {
            0 => {
                let mut dump = base.clone();
                let value = g.pick(&[0, 1 << 40, u64::MAX, i64::MAX as u64]);
                let n = dump.entries.len();
                let entry = &mut dump.entries[at % n];
                let field = match g.below(4) {
                    0 => &mut dump.current_ts,
                    1 => &mut entry.txn_id,
                    2 => &mut entry.start_ts,
                    _ => &mut entry.commit_ts,
                };
                *field = value;
                loads_typed_or_boots(move || Ok(dump))?;
            }
            _ => {
                let mut doc = base.to_json();
                let with = match mode {
                    1 => {
                        let (value, word) = (boundary(&mut g), Json::str(g.pick(WORDS)));
                        Some(g.pick(&[
                            value,
                            word,
                            Json::Null,
                            Json::Bool(true),
                            Json::Float(0.5),
                            Json::Array(Vec::new()),
                            Json::Object(Vec::new()),
                        ]))
                    }
                    _ => None,
                };
                let mut pos = at;
                if !mutate(&mut doc, &mut pos, with.as_ref()) {
                    // Past the last candidate: wrap around.
                    let candidates = at - pos;
                    prop_assert!(candidates > 0, "no node to mutate");
                    pos = at % candidates;
                    prop_assert!(mutate(&mut doc, &mut pos, with.as_ref()));
                }
                loads_typed_or_boots(load_text(&doc))?;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// A dump whose history carries a before image its replay does not
    /// derive — a forged one, one fabricated for an insert, or one dropped
    /// from an update — is refused with the commit timestamp of that
    /// entry. Only after images are installed, so every entry before the
    /// forged one derives as dumped and the refusal names exactly it.
    #[test]
    fn a_dump_with_a_forged_before_image_is_refused_naming_its_commit(
        at in 0usize..1 << 16,
        change in 0usize..64,
        drop_before in 0u8..2,
    ) {
        let mut dump = base_dump().clone();
        let written: Vec<usize> = (0..dump.entries.len())
            .filter(|&i| !dump.entries[i].changes.is_empty())
            .collect();
        let entry = &mut dump.entries[written[at % written.len()]];
        let mut changes = entry.changes.to_vec();
        let n = changes.len();
        let record = &mut changes[change % n];
        let before = Arc::new(Row::from(vec![Value::Text("FORGED".into())]));
        record.op = match record.op.clone() {
            ChangeOp::Update { after, .. } if drop_before == 1 => ChangeOp::Insert { after },
            ChangeOp::Insert { after } | ChangeOp::Update { after, .. } => {
                ChangeOp::Update { before, after }
            }
            ChangeOp::Delete { .. } => ChangeOp::Delete { before },
        };
        entry.changes = changes.into();
        let ts = entry.commit_ts;
        match dump.boot() {
            Err(e @ DumpError::BeforeImage { commit_ts }) => {
                prop_assert_eq!(commit_ts, ts);
                prop_assert!(e.to_string().contains(&format!("commit ts {ts}")), "{}", e);
            }
            other => prop_assert!(false, "expected a refusal at {}, got {:?}", ts, other.map(drop)),
        }
    }
}
