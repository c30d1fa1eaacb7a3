//! Property-based and cross-module tests for the storage engine.
//!
//! The central invariants verified here are the ones TROD's replay
//! correctness depends on:
//!
//! 1. **Commit-order serializability**: re-executing the committed
//!    transactions serially, in commit order, against a fresh database
//!    yields exactly the same final state as the concurrent execution.
//! 2. **Log completeness**: replaying only the CDC records of the
//!    transaction log reconstructs the same final state.
//! 3. **Time travel consistency**: the state visible "as of" a commit
//!    timestamp equals the state obtained by replaying the log up to that
//!    timestamp.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::OnceLock;

use trod_db::{
    row, CellHash, DataType, Database, IsolationLevel, Key, Predicate, Row, Schema, Ts, Value,
};

fn kv_schema() -> Schema {
    Schema::builder()
        .column("k", DataType::Int)
        .column("v", DataType::Int)
        .primary_key(&["k"])
        .build()
        .unwrap()
}

fn new_db() -> Database {
    let db = Database::new();
    db.create_table("kv", kv_schema()).unwrap();
    db
}

/// A single logical operation in a generated transaction.
#[derive(Debug, Clone)]
enum Op {
    Put { k: i64, v: i64 },
    Delete { k: i64 },
    Read { k: i64 },
    ScanGe { k: i64 },
}

fn op_strategy(key_space: i64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..key_space, 0..1000i64).prop_map(|(k, v)| Op::Put { k, v }),
        (0..key_space).prop_map(|k| Op::Delete { k }),
        (0..key_space).prop_map(|k| Op::Read { k }),
        (0..key_space).prop_map(|k| Op::ScanGe { k }),
    ]
}

fn txn_strategy(key_space: i64) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(op_strategy(key_space), 1..6)
}

/// Applies a transaction's operations through the engine; retries are the
/// caller's responsibility. Returns Ok(committed) or Err for retryable
/// failure.
fn run_txn(db: &Database, ops: &[Op], iso: IsolationLevel) -> Result<bool, trod_db::DbError> {
    let mut txn = db.begin_with(iso);
    for op in ops {
        match op {
            Op::Put { k, v } => {
                let key = Key::single(*k);
                if txn.get("kv", &key)?.is_some() {
                    txn.update("kv", &key, row![*k, *v])?;
                } else {
                    txn.insert("kv", row![*k, *v])?;
                }
            }
            Op::Delete { k } => {
                txn.delete("kv", &Key::single(*k))?;
            }
            Op::Read { k } => {
                let _ = txn.get("kv", &Key::single(*k))?;
            }
            Op::ScanGe { k } => {
                let _ = txn.scan("kv", &Predicate::ge("k", *k))?;
            }
        }
    }
    txn.commit()?;
    Ok(true)
}

/// Applies a transaction to a plain BTreeMap model (the serial oracle).
fn run_model(model: &mut BTreeMap<i64, i64>, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Put { k, v } => {
                model.insert(*k, *v);
            }
            Op::Delete { k } => {
                model.remove(k);
            }
            Op::Read { .. } | Op::ScanGe { .. } => {}
        }
    }
}

fn db_state(db: &Database) -> BTreeMap<i64, i64> {
    db.scan_latest("kv", &Predicate::True)
        .unwrap()
        .into_iter()
        .map(|(_, r)| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
        .collect()
}

/// Cell values across the types whose comparison is numeric, textual or
/// by type rank, so generated keys differ in every way keys can.
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-2i64..3).prop_map(Value::Int),
        (-2i64..3).prop_map(Value::Timestamp),
        "[a-b]{0,2}".prop_map(Value::Text),
        (0i64..3).prop_map(|v| match v {
            0 => Value::Null,
            v => Value::Bool(v == 1),
        }),
    ]
}

/// Numbers of all three numeric types, crowded around the points where a
/// comparison through `f64` goes wrong: the 2^53 precision edge, the ends
/// of the `i64` range, zero and its negative, fractions, NaN.
fn numeric_strategy() -> impl Strategy<Value = Value> {
    const EDGE: i64 = 1 << 53;
    let int = prop_oneof![
        -3i64..4,
        EDGE - 3..EDGE + 4,
        -EDGE - 3..-EDGE + 4,
        i64::MAX - 3..=i64::MAX,
        i64::MIN..=i64::MIN + 3,
    ];
    let float = prop_oneof![
        (-6i64..7).prop_map(|v| v as f64 / 2.0),
        (EDGE - 3..EDGE + 4).prop_map(|v| v as f64),
        (0usize..7).prop_map(|i| {
            [
                -0.0,
                f64::NAN,
                -f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                i64::MAX as f64,
                i64::MIN as f64,
            ][i]
        }),
    ];
    prop_oneof![
        int.prop_map(Value::Int),
        (-3i64..4).prop_map(Value::Timestamp),
        (EDGE - 3..EDGE + 4).prop_map(Value::Timestamp),
        float.prop_map(Value::Float),
    ]
}

/// `value`'s hash under std's `DefaultHasher` and under the one
/// [`CellHash`] instance of this test binary: the hasher of the row map
/// and the SQL hash tables.
fn hash_of(value: &(impl std::hash::Hash + ?Sized)) -> [u64; 2] {
    use std::hash::{BuildHasher, Hasher};
    static CELLS: OnceLock<CellHash> = OnceLock::new();
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut hasher);
    [
        hasher.finish(),
        CELLS.get_or_init(CellHash::default).hash_one(value),
    ]
}

proptest! {
    // Cheap, and equal pairs are a minority of draws: run many cases.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// `Eq`, `Ord` and `Hash` of numeric values agree with each other and
    /// with exact arithmetic across `Int`/`Timestamp`/`Float`: the row
    /// map, the hash join and the primary-key probe all key on them.
    #[test]
    fn numeric_values_compare_order_and_hash_consistently(
        a in numeric_strategy(),
        b in numeric_strategy(),
        c in numeric_strategy(),
    ) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.cmp(&a), Ordering::Equal);
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        prop_assert_eq!(a == b, a.cmp(&b) == Ordering::Equal);
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b));
            prop_assert_eq!(a.cmp(&c), b.cmp(&c));
        }
        if a <= b && b <= c {
            prop_assert!(a <= c, "{:?} <= {:?} <= {:?}", a, b, c);
        }
        // Integers compare as integers whatever their tag.
        if let (Some(x), Some(y)) = (a.as_int(), b.as_int()) {
            prop_assert_eq!(a.cmp(&b), x.cmp(&y));
        }
        // An integer equals a float only if the float is exactly it.
        if let (Some(x), Value::Float(f)) = (a.as_int(), &b) {
            let exactly = f.is_finite()
                && f.trunc() == *f
                && *f as i128 == x as i128
                && f.to_bits() != (-0.0f64).to_bits();
            prop_assert_eq!(a == b, exactly, "{:?} vs {:?}", a, b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A `Key` shares its values behind a pointer; the write buffer,
    /// key-ordered scan results and every `KeyMap` depend on its
    /// equality, order and hash being those of the values, and the hash
    /// join's `Vec<Value>` keys on hashing like a `Key`.
    #[test]
    fn key_compares_orders_and_hashes_as_its_values(
        a in prop::collection::vec(value_strategy(), 0..4),
        b in prop::collection::vec(value_strategy(), 0..4),
    ) {
        let (ka, kb) = (Key::new(a.clone()), Key::new(b.clone()));
        prop_assert_eq!(ka.values(), &a[..]);
        prop_assert_eq!(ka == kb, a == b);
        prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
        prop_assert_eq!(hash_of(&ka), hash_of(&a[..]));
        prop_assert_eq!(hash_of(&ka), hash_of(&a));
        if a == b {
            prop_assert_eq!(hash_of(&ka), hash_of(&kb));
        }
        prop_assert_eq!(&ka.clone(), &ka);
        if let [single] = &a[..] {
            prop_assert_eq!(&Key::single(single.clone()), &ka);
            prop_assert_eq!(hash_of(&Key::single(single.clone())), hash_of(&ka));
        }
    }

    /// Sequentially committed transactions match the BTreeMap model.
    #[test]
    fn sequential_execution_matches_model(txns in prop::collection::vec(txn_strategy(16), 1..20)) {
        let db = new_db();
        let mut model = BTreeMap::new();
        for ops in &txns {
            run_txn(&db, ops, IsolationLevel::Serializable).unwrap();
            run_model(&mut model, ops);
        }
        prop_assert_eq!(db_state(&db), model);
    }

    /// Replaying only the transaction log's CDC records into a fresh
    /// database reproduces the final state (log completeness — the
    /// property TROD's replay relies on).
    #[test]
    fn log_replay_reconstructs_state(txns in prop::collection::vec(txn_strategy(16), 1..20)) {
        let db = new_db();
        for ops in &txns {
            run_txn(&db, ops, IsolationLevel::Serializable).unwrap();
        }
        let replica = db.fork_empty().unwrap();
        for entry in db.log_entries() {
            replica.apply_changes(&entry.changes).unwrap();
        }
        prop_assert_eq!(replica.digest_at(Ts::MAX), db.digest_at(Ts::MAX));
    }

    /// Time travel to commit timestamp `t` equals replaying the log up to
    /// and including `t`.
    #[test]
    fn time_travel_matches_log_prefix(txns in prop::collection::vec(txn_strategy(8), 2..15)) {
        let db = new_db();
        for ops in &txns {
            run_txn(&db, ops, IsolationLevel::Serializable).unwrap();
        }
        let log = db.log_entries();
        prop_assume!(!log.is_empty());
        // Pick the middle commit as the time-travel point.
        let mid = log[log.len() / 2].commit_ts;

        let replica = db.fork_empty().unwrap();
        for entry in log.iter().filter(|e| e.commit_ts <= mid) {
            replica.apply_changes(&entry.changes).unwrap();
        }
        prop_assert_eq!(replica.digest_at(Ts::MAX), db.digest_at(mid));
    }

    /// Under concurrent execution with retries, serializable isolation
    /// produces a final state identical to executing the committed
    /// transactions serially in commit order.
    #[test]
    fn concurrent_serializable_equals_commit_order_serial(
        txns in prop::collection::vec(txn_strategy(8), 4..12),
        threads in 2usize..4
    ) {
        let db = new_db();
        // Partition transactions across threads.
        let chunks: Vec<Vec<Vec<Op>>> = txns
            .chunks(txns.len().div_ceil(threads))
            .map(|c| c.to_vec())
            .collect();
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for ops in chunk {
                        loop {
                            match run_txn(&db, &ops, IsolationLevel::Serializable) {
                                Ok(_) => break,
                                Err(e) if e.is_retryable() => continue,
                                Err(e) => panic!("unexpected engine error: {e}"),
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        // Serial oracle: replay the log's CDC in commit order.
        let replica = db.fork_empty().unwrap();
        for entry in db.log_entries() {
            replica.apply_changes(&entry.changes).unwrap();
        }
        prop_assert_eq!(replica.digest_at(Ts::MAX), db.digest_at(Ts::MAX));

        // Commit timestamps must be strictly increasing.
        let log = db.log_entries();
        for pair in log.windows(2) {
            prop_assert!(pair[0].commit_ts < pair[1].commit_ts);
        }
    }

    /// Forking at a snapshot and continuing divergent work never corrupts
    /// either side.
    #[test]
    fn forks_are_isolated(txns in prop::collection::vec(txn_strategy(8), 1..10)) {
        let db = new_db();
        for ops in &txns {
            run_txn(&db, ops, IsolationLevel::Serializable).unwrap();
        }
        let snap = db.current_ts();
        let fork = db.fork_at(snap).unwrap();
        prop_assert_eq!(fork.digest_at(Ts::MAX), db.digest_at(snap));

        // Diverge both sides.
        run_txn(&db, &[Op::Put { k: 1000, v: 1 }], IsolationLevel::Serializable).unwrap();
        run_txn(&fork, &[Op::Put { k: 2000, v: 2 }], IsolationLevel::Serializable).unwrap();
        prop_assert!(db_state(&db).contains_key(&1000));
        prop_assert!(!db_state(&db).contains_key(&2000));
        prop_assert!(db_state(&fork).contains_key(&2000));
        prop_assert!(!db_state(&fork).contains_key(&1000));
    }
}

#[test]
fn lost_update_prevented_under_serializable_and_si() {
    for iso in [
        IsolationLevel::Serializable,
        IsolationLevel::SnapshotIsolation,
    ] {
        let db = new_db();
        run_txn(
            &db,
            &[Op::Put { k: 1, v: 100 }],
            IsolationLevel::Serializable,
        )
        .unwrap();

        // Two concurrent read-modify-write increments of the same key.
        let mut t1 = db.begin_with(iso);
        let mut t2 = db.begin_with(iso);
        let v1 = t1.get("kv", &Key::single(1i64)).unwrap().unwrap()[1]
            .as_int()
            .unwrap();
        let v2 = t2.get("kv", &Key::single(1i64)).unwrap().unwrap()[1]
            .as_int()
            .unwrap();
        t1.update("kv", &Key::single(1i64), row![1i64, v1 + 1])
            .unwrap();
        t2.update("kv", &Key::single(1i64), row![1i64, v2 + 1])
            .unwrap();
        assert!(t1.commit().is_ok());
        assert!(
            t2.commit().is_err(),
            "second committer must abort under {iso:?}"
        );

        let v = db.get_latest("kv", &Key::single(1i64)).unwrap().unwrap()[1]
            .as_int()
            .unwrap();
        assert_eq!(v, 101);
    }
}

#[test]
fn read_committed_allows_lost_update() {
    let db = new_db();
    run_txn(
        &db,
        &[Op::Put { k: 1, v: 100 }],
        IsolationLevel::Serializable,
    )
    .unwrap();

    let mut t1 = db.begin_with(IsolationLevel::ReadCommitted);
    let mut t2 = db.begin_with(IsolationLevel::ReadCommitted);
    let v1 = t1.get("kv", &Key::single(1i64)).unwrap().unwrap()[1]
        .as_int()
        .unwrap();
    let v2 = t2.get("kv", &Key::single(1i64)).unwrap().unwrap()[1]
        .as_int()
        .unwrap();
    t1.update("kv", &Key::single(1i64), row![1i64, v1 + 1])
        .unwrap();
    t2.update("kv", &Key::single(1i64), row![1i64, v2 + 1])
        .unwrap();
    t1.commit().unwrap();
    t2.commit().unwrap();

    // One increment is lost: the anomaly exists, which is exactly why the
    // paper's case-study bugs are reproducible on this engine.
    let v = db.get_latest("kv", &Key::single(1i64)).unwrap().unwrap()[1]
        .as_int()
        .unwrap();
    assert_eq!(v, 101);
}

#[test]
fn phantom_prevention_under_serializable() {
    let db = new_db();
    // T1 scans for keys >= 100 (none), T2 inserts key 150 and commits,
    // then T1 inserts a summary row based on its empty scan. T1 must abort.
    let mut t1 = db.begin();
    let hits = t1.scan("kv", &Predicate::ge("k", 100i64)).unwrap();
    assert!(hits.is_empty());

    let mut t2 = db.begin();
    t2.insert("kv", row![150i64, 1i64]).unwrap();
    t2.commit().unwrap();

    t1.insert("kv", row![1i64, 0i64]).unwrap();
    let err = t1.commit().unwrap_err();
    assert!(matches!(err, trod_db::DbError::SerializationFailure { .. }));
}

#[test]
fn snapshot_reads_are_stable_within_a_transaction() {
    let db = new_db();
    run_txn(
        &db,
        &[Op::Put { k: 1, v: 10 }],
        IsolationLevel::Serializable,
    )
    .unwrap();

    let mut reader = db.begin_with(IsolationLevel::SnapshotIsolation);
    let before = reader.get("kv", &Key::single(1i64)).unwrap().unwrap();

    run_txn(
        &db,
        &[Op::Put { k: 1, v: 99 }],
        IsolationLevel::Serializable,
    )
    .unwrap();

    let after = reader.get("kv", &Key::single(1i64)).unwrap().unwrap();
    assert_eq!(
        before, after,
        "snapshot read must not observe later commits"
    );

    // Read committed does observe the change.
    let mut rc = db.begin_with(IsolationLevel::ReadCommitted);
    let rc_view = rc.get("kv", &Key::single(1i64)).unwrap().unwrap();
    assert_eq!(rc_view[1], Value::Int(99));
}

#[test]
fn row_macro_interops_with_engine_types() {
    let r: Row = row![1i64, 2i64];
    assert_eq!(r.len(), 2);
    let db = new_db();
    let mut txn = db.begin();
    txn.insert("kv", r).unwrap();
    txn.commit().unwrap();
    assert_eq!(db.stats().live_rows, 1);
}

// ---------------------------------------------------------------------
// The state digest against the comparison it replaced
// ---------------------------------------------------------------------

#[path = "support/copy_fork.rs"]
mod copy_fork;

/// `a` and `c` (`k INT`, `v INT` nullable), `b` (`v TEXT` nullable,
/// indexed) and the namespace `ns`, of `tables`.
fn digest_db(tables: &[&str]) -> Database {
    let db = Database::new();
    for &name in tables {
        let dtype = [DataType::Int, DataType::Text][usize::from(name == "b")];
        let schema = Schema::builder()
            .column("k", DataType::Int)
            .nullable("v", dtype);
        db.create_table(name, schema.primary_key(&["k"]).build().unwrap())
            .unwrap();
    }
    db.create_index("b", "v").unwrap();
    db.create_namespace("ns").unwrap();
    db
}

/// Commits `(table, k, cell)` writes: key `k` of `a` (table 0) or `c`
/// (3) becomes an `Int` (cells 0–2), a `Timestamp` (3–5) or NULL (6); of
/// `b` (1) a text (0–3) or NULL; of `ns` (2) a text. Cell 7 deletes the
/// key.
fn apply_writes(db: &Database, writes: &[(u8, i64, u8)]) {
    for &(table, k, cell) in writes {
        let (name, key) = match table {
            0 => ("a".into(), Value::Int(k)),
            1 => ("b".into(), Value::Int(k)),
            2 => (trod_db::kv_table_name("ns"), Value::Text(format!("k{k}"))),
            _ => ("c".into(), Value::Int(k)),
        };
        let value = match (table, cell) {
            (0 | 3, 0..=2) => Value::Int(cell.into()),
            (0 | 3, 3..=5) => Value::Timestamp(i64::from(cell) - 3),
            (1, 0..=3) | (2, _) => Value::Text((cell % 2).to_string()),
            _ => Value::Null,
        };
        let mut txn = db.begin();
        match cell {
            7 => txn.delete(&name, &Key::single(key)).map(drop),
            _ => txn.upsert(&name, Row::from(vec![key, value])).map(drop),
        }
        .unwrap();
        txn.commit().unwrap();
    }
}

/// The comparison the digest replaced: table by table, namespaces
/// included, the rows `materialize_at` gives (a missing table has none),
/// and where there are rows, the schema and the index columns.
fn same_state(x: &Database, y: &Database, ts: Ts) -> bool {
    let side = |db: &Database, name: &str| {
        let table = db.table(name).ok()?;
        let mut indexes = table.indexed_columns();
        indexes.sort();
        let rows = table.materialize_at(ts.min(db.current_ts()));
        Some((rows, table.schema().clone(), indexes))
    };
    ["a", "b", "c", "kv:ns"]
        .iter()
        .all(|name| match (side(x, name), side(y, name)) {
            (Some(a), Some(b)) => a.0 == b.0 && (a.0.is_empty() || (a.1, a.2) == (b.1, b.2)),
            (Some((rows, ..)), None) | (None, Some((rows, ..))) => rows.is_empty(),
            (None, None) => true,
        })
}

proptest! {
    /// Two databases have equal digests at a timestamp iff the comparison
    /// the digest replaced finds their states equal. The second database
    /// departs from the first by `twist`: 0 not at all; 1 one cell; 2
    /// every `Int` of `a` written as a `Timestamp` and back (equal, as
    /// values are); 3 and 4 a table `c` on one side only, empty or not; 5
    /// an index on `a`, which may be empty; 6 the rows `(9, 1)` and `(9,
    /// 2)` of `a` and `c` the other way round; 7 an overlay fork after
    /// `i` writes against the copying fork at its timestamp, both then
    /// given the rest.
    #[test]
    fn digests_are_equal_iff_the_states_compare_equal(
        writes in prop::collection::vec((0u8..3, 0i64..4, 0u8..8), 0..24),
        twist in (0u8..8, 0usize..24, 0u8..8),
        at in 0.0f64..1.0,
    ) {
        let (twist, i, cell) = twist;
        let tables = |c: bool| &["a", "b", "c"][..2 + usize::from(c)];
        let mut x = digest_db(tables(twist == 6));
        let mut y = digest_db(tables(matches!(twist, 3 | 4 | 6)));
        let (mut straight, mut twisted) = (writes.clone(), writes.clone());
        match twist {
            1 if i < writes.len() => twisted[i].2 = cell,
            2 => twisted.iter_mut().filter(|w| w.0 == 0 && w.2 < 6).for_each(|w| w.2 = (w.2 + 3) % 6),
            4 => twisted.push((3, 0, 0)),
            5 => y.create_index("a", "v").unwrap(),
            6 => {
                straight.extend([(0, 9, 1), (3, 9, 2)]);
                twisted.extend([(0, 9, 2), (3, 9, 1)]);
            }
            7 => {
                let (head, tail) = writes.split_at(i.min(writes.len()));
                apply_writes(&x, head);
                let base = x.current_ts();
                (x, y) = (x.fork_at(base).unwrap(), copy_fork::copy_fork(&x, base));
                (straight, twisted) = (tail.to_vec(), tail.to_vec());
            }
            _ => {}
        }
        apply_writes(&x, &straight);
        apply_writes(&y, &twisted);
        let now = x.current_ts().max(y.current_ts());
        for ts in [0, (now as f64 * at) as Ts, now] {
            let equal = x.digest_at(ts) == y.digest_at(ts);
            prop_assert_eq!(equal, same_state(&x, &y, ts), "at {} of {}", ts, now);
        }
    }
}
