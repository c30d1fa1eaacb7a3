//! A read-through fork is indistinguishable from a copy.
//!
//! `Database::fork_at` copies nothing: a fork's tables read the parent's
//! version chains at the fork timestamp until the fork writes a key
//! itself. This test drives such a fork and a *copying* fork
//! (`support/copy_fork.rs`: every row visible at the timestamp
//! re-installed into an independent database) through the same random
//! script — fork commits that update, delete and re-insert base keys and
//! move rows between indexed values, key-value puts and deletes in a
//! namespace, racing serializable transactions, the fork's own GC, forks
//! of the fork — while the parent keeps committing and garbage-collecting
//! underneath, and requires after every step that every read surface
//! answers identically: point reads, scans down every access path, counts,
//! a sorted top-k, as-of reads below, at and above the fork timestamp, a
//! SQL join, a session's key-value reads, commit outcomes with their
//! before images, and the log.
//!
//! Below the GC floor a durable database rebuilds the fork from its log.
//! The same oracle holds there: a durable parent that garbage-collects at
//! random horizons, one segment per commit, with and without small
//! checkpoints and across a reopen, forks at every timestamp exactly as
//! a copy of its never-collected in-memory twin does. A threaded test
//! reads history and forks below the floor while GC, rotation and
//! checkpoint writes with their pruning run underneath, in every sync
//! mode.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use trod_db::{
    kv_table_name, row, ChangeRecord, DataType, Database, DbError, Key, MemDir, Predicate, Row,
    ScanRows, Schema, SyncMode, Transaction, Ts, Value, WalOptions,
};
use trod_kv::{KvStore, Session};
use trod_query::QueryEngine;

#[path = "support/copy_fork.rs"]
mod copy_fork;
use copy_fork::copy_fork;

const KEYS: i64 = 16;
const GROUPS: i64 = 5;
/// The namespace the scripts write, and its table.
const NS: &str = "carts";
const NS_TABLE: &str = "kv:carts";

fn new_parent() -> Database {
    with_schema(Database::new())
}

/// `db` with the tables, indexes and namespace every script uses.
fn with_schema(db: Database) -> Database {
    let t = Schema::builder()
        .column("k", DataType::Int)
        .column("v", DataType::Int)
        .column("g", DataType::Int)
        .primary_key(&["k"])
        .build()
        .unwrap();
    let u = Schema::builder()
        .column("id", DataType::Int)
        .column("g", DataType::Int)
        .primary_key(&["id"])
        .build()
        .unwrap();
    db.create_table("t", t).unwrap();
    db.create_table("u", u).unwrap();
    db.create_index("t", "g").unwrap();
    db.create_index("t", "v").unwrap();
    db.create_index("u", "g").unwrap();
    db.create_namespace(NS).unwrap();
    db
}

/// One write of a generated transaction. Puts are upserts: a put of a
/// live key is the update that moves a row between indexed values, a put
/// of a deleted one the re-insert.
#[derive(Debug, Clone)]
enum Op {
    Put { k: i64, v: i64, g: i64 },
    Delete { k: i64 },
    PutU { id: i64, g: i64 },
    DeleteU { id: i64 },
    KvPut { k: i64, v: i64 },
    KvDelete { k: i64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let put = || (0..KEYS, 0i64..30, 0..GROUPS).prop_map(|(k, v, g)| Op::Put { k, v, g });
    prop_oneof![
        put(),
        put(),
        put(),
        (0..KEYS).prop_map(|k| Op::Delete { k }),
        (0..KEYS).prop_map(|k| Op::Delete { k }),
        (0i64..6, 0..GROUPS).prop_map(|(id, g)| Op::PutU { id, g }),
        (0i64..6).prop_map(|id| Op::DeleteU { id }),
        (0..KEYS, 0i64..30).prop_map(|(k, v)| Op::KvPut { k, v }),
        (0..KEYS).prop_map(|k| Op::KvDelete { k }),
    ]
}

/// The namespace key of a generated kv op.
fn kv_key(k: i64) -> String {
    format!("cart:{k:02}")
}

fn batch_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(op_strategy(), 1..6)
}

fn upsert(txn: &mut Transaction, table: &str, key: Key, row: Row) {
    if txn.get(table, &key).unwrap().is_some() {
        txn.update(table, &key, row).unwrap();
    } else {
        txn.insert(table, row).unwrap();
    }
}

fn write(txn: &mut Transaction, batch: &[Op]) {
    for op in batch {
        match *op {
            Op::Put { k, v, g } => upsert(txn, "t", Key::single(k), row![k, v, g]),
            Op::PutU { id, g } => upsert(txn, "u", Key::single(id), row![id, g]),
            Op::Delete { k } => {
                txn.delete("t", &Key::single(k)).unwrap();
            }
            Op::DeleteU { id } => {
                txn.delete("u", &Key::single(id)).unwrap();
            }
            // What `Txn::kv_put` / `kv_delete` do, on the namespace table.
            Op::KvPut { k, v } => {
                let row = row![kv_key(k), v.to_string()];
                txn.upsert(NS_TABLE, row).unwrap();
            }
            Op::KvDelete { k } => {
                txn.delete(NS_TABLE, &Key::single(kv_key(k))).unwrap();
            }
        }
    }
}

/// What a commit did, comparable across two databases: its timestamp and
/// change records (before images included), or the error it died with.
type Outcome = Result<(Ts, Vec<ChangeRecord>), DbError>;

fn commit(txn: Transaction) -> Outcome {
    txn.commit()
        .map(|info| (info.commit_ts, info.changes.to_vec()))
}

fn apply(db: &Database, batch: &[Op]) -> Outcome {
    let mut txn = db.begin();
    write(&mut txn, batch);
    commit(txn)
}

/// Two serializable transactions that overlap: `reader` scans and
/// point-reads, then `writer` begins, writes and commits first; `reader`
/// writes and tries to commit — it must abort exactly when `writer`
/// changed something it saw.
fn race(
    db: &Database,
    pred: &Predicate,
    keys: &[i64],
    reader: &[Op],
    writer: &[Op],
) -> [Outcome; 2] {
    let mut a = db.begin();
    a.scan("t", pred).unwrap();
    for &k in keys {
        a.get("t", &Key::single(k)).unwrap();
    }
    let mut b = db.begin();
    write(&mut b, writer);
    let first = commit(b);
    write(&mut a, reader);
    [first, commit(a)]
}

/// A predicate per access path — primary-key probe (`=`, `IN`), hash
/// point probe and multi-probe, range window, and shapes that force the
/// full walk — plus the provably empty one.
fn fixed_preds() -> Vec<Predicate> {
    let ints = |vs: &[i64]| vs.iter().copied().map(Value::Int).collect::<Vec<_>>();
    vec![
        Predicate::True,
        Predicate::False,
        Predicate::eq("k", 3i64),
        Predicate::in_list("k", ints(&[0, 5, 11, 40])),
        Predicate::eq("g", 2i64),
        Predicate::in_list("g", ints(&[0, 4])),
        Predicate::ge("v", 8i64).and(Predicate::lt("v", 17i64)),
        Predicate::le("v", 4i64),
        Predicate::eq("g", 1i64).and(Predicate::ge("v", 10i64)),
        Predicate::eq("g", 1i64).or(Predicate::ge("v", 25i64)),
        Predicate::ge("v", 12i64).negate(),
    ]
}

fn pred_strategy() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        (0..KEYS).prop_map(|k| Predicate::eq("k", k)),
        prop::collection::vec(0..KEYS, 1..4)
            .prop_map(|ks| Predicate::in_list("k", ks.into_iter().map(Value::Int).collect())),
        (0..GROUPS).prop_map(|g| Predicate::eq("g", g)),
        (0i64..30, 1i64..12)
            .prop_map(|(lo, w)| Predicate::ge("v", lo).and(Predicate::lt("v", lo + w))),
        (0..GROUPS, 0i64..30).prop_map(|(g, v)| Predicate::eq("g", g).or(Predicate::gt("v", v))),
    ]
}

#[derive(Debug, Clone)]
enum Step {
    /// The parent commits underneath the fork.
    Parent(Vec<Op>),
    /// `gc_before(current_ts())` on the parent: clamped by the fork's pin.
    ParentGc,
    /// Both forks commit the same transaction.
    Fork(Vec<Op>),
    /// Both forks run the same pair of overlapping transactions.
    Race {
        pred: Predicate,
        keys: Vec<i64>,
        reader: Vec<Op>,
        writer: Vec<Op>,
    },
    /// `gc_before(current_ts())` on both forks.
    ForkGc,
    /// Both forks are replaced by a fork of themselves, `back` ticks
    /// before their present — possibly before their own fork timestamp,
    /// where they hold nothing — but not below their own GC floor.
    Refork { back: u64 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let race = (
        pred_strategy(),
        prop::collection::vec(0..KEYS, 0..3),
        batch_strategy(),
        batch_strategy(),
    )
        .prop_map(|(pred, keys, reader, writer)| Step::Race {
            pred,
            keys,
            reader,
            writer,
        });
    prop_oneof![
        batch_strategy().prop_map(Step::Parent),
        batch_strategy().prop_map(Step::Fork),
        batch_strategy().prop_map(Step::Fork),
        batch_strategy().prop_map(Step::Fork),
        race,
        Just(Step::ParentGc),
        Just(Step::ForkGc),
        (0u64..4).prop_map(|back| Step::Refork { back }),
    ]
}

/// `ORDER BY v LIMIT 3` the way the SQL executor answers it: scan +
/// stable sort + truncate.
fn top3(db: &Database, pred: &Predicate, descending: bool, ts: Ts) -> ScanRows {
    let mut rows = db.scan_as_of("t", pred, ts).unwrap();
    rows.sort_by(|a, b| {
        let ord = a.1[1].total_cmp(&b.1[1]);
        if descending {
            ord.reverse()
        } else {
            ord
        }
    });
    rows.truncate(3);
    rows
}

const JOIN: &str = "SELECT T.k, T.v, U.id FROM t as T, u as U ON T.g = U.g WHERE T.v >= 5";

/// Every read surface of the overlay fork `o` against the copying fork
/// `c`, both forked at `base`.
fn assert_same(
    o: &Database,
    c: &Database,
    base: Ts,
    preds: &[Predicate],
) -> Result<(), TestCaseError> {
    let now = o.current_ts();
    prop_assert_eq!(now, c.current_ts());
    // Below the fork timestamp (nothing), at it, at every fork commit
    // since, and beyond the clock.
    let mut points: Vec<Ts> = vec![0, base.saturating_sub(1)];
    points.extend(base..=now);
    points.push(now + 3);
    for &ts in &points {
        prop_assert_eq!(o.digest_at(ts), c.digest_at(ts), "at {}", ts);
        for table in ["t", "u", NS_TABLE] {
            let count = |db: &Database| db.table(table).unwrap().count_at(ts);
            prop_assert_eq!(count(o), count(c), "{} at {}", table, ts);
        }
    }
    let ot = o.table("t").unwrap();
    for &ts in &points {
        for k in 0..KEYS {
            let key = Key::single(k);
            prop_assert_eq!(
                o.get_as_of("t", &key, ts).unwrap(),
                c.get_as_of("t", &key, ts).unwrap(),
                "k {} at {}",
                k,
                ts
            );
        }
        for pred in preds {
            let want = c.scan_as_of("t", pred, ts).unwrap();
            prop_assert_eq!(
                &o.scan_as_of("t", pred, ts).unwrap(),
                &want,
                "[{}] at {}",
                pred,
                ts
            );
            prop_assert_eq!(
                &ot.scan_at_full(pred, ts).unwrap(),
                &want,
                "[{}] at {}",
                pred,
                ts
            );
            prop_assert_eq!(ot.count_matching_at(pred, ts).unwrap(), want.len());
            for descending in [false, true] {
                prop_assert_eq!(
                    top3(o, pred, descending, ts),
                    top3(c, pred, descending, ts),
                    "top-3 of [{}] at {} (descending: {})",
                    pred,
                    ts,
                    descending
                );
            }
        }
    }
    // The key-value view of each, as a session over it reads it.
    let (okv, ckv) = (KvStore::of(o.clone()), KvStore::of(c.clone()));
    for &ts in &points {
        for prefix in ["", "cart:0", "cart:1", "cart:15", "cart:2"] {
            prop_assert_eq!(
                okv.scan_prefix_as_of(NS, prefix, ts).unwrap(),
                ckv.scan_prefix_as_of(NS, prefix, ts).unwrap(),
                "kv prefix {:?} at {}",
                prefix,
                ts
            );
        }
        for k in 0..KEYS {
            prop_assert_eq!(
                okv.get_as_of(NS, &kv_key(k), ts).unwrap(),
                ckv.get_as_of(NS, &kv_key(k), ts).unwrap()
            );
        }
    }
    let (mut ot, mut ct) = (
        Session::new(o.clone()).begin(),
        Session::new(c.clone()).begin(),
    );
    prop_assert_eq!(
        ot.kv_scan_prefix(NS, "cart:").unwrap(),
        ct.kv_scan_prefix(NS, "cart:").unwrap()
    );
    prop_assert_eq!(
        ot.kv_get(NS, &kv_key(3)).unwrap(),
        ct.kv_get(NS, &kv_key(3)).unwrap()
    );
    prop_assert_eq!(o.stats().live_rows, c.stats().live_rows);
    let join = |db: &Database| QueryEngine::new(db.clone()).execute(JOIN).unwrap();
    prop_assert_eq!(join(o), join(c));
    // The copy's log additionally holds the commit that installed the
    // copied rows, at the fork timestamp; everything after it is the
    // forks' own history — all of it that their own GC left in memory.
    let log = |db: &Database| -> Vec<(Ts, Vec<ChangeRecord>)> {
        let after = base.max(db.log_truncated_below());
        let entries = db.history(after, Ts::MAX).unwrap().into_iter();
        entries.map(|e| (e.commit_ts, e.changes.to_vec())).collect()
    };
    prop_assert_eq!(log(o), log(c));
    Ok(())
}

proptest! {
    // `PROPTEST_CASES`, when set, replaces the default count: CI runs
    // this oracle at more cases than the rest of the suite.
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(96)
    ))]

    #[test]
    fn an_overlay_fork_answers_like_a_copying_fork(
        history in prop::collection::vec(batch_strategy(), 1..10),
        gc_after in 0usize..12,
        fork_back in 0u64..6,
        steps in prop::collection::vec(step_strategy(), 1..14),
        extra_preds in prop::collection::vec(pred_strategy(), 1..4),
    ) {
        let parent = new_parent();
        // Never forked: what the parent must keep looking like.
        let control = new_parent();
        for (i, batch) in history.iter().enumerate() {
            apply(&parent, batch).unwrap();
            apply(&control, batch).unwrap();
            if i + 1 == gc_after {
                parent.gc_before(parent.current_ts());
                control.gc_before(control.current_ts());
            }
        }
        let mut preds = fixed_preds();
        preds.extend(extra_preds);

        // A published timestamp at or above the floor — or, for
        // `fork_back == 0`, one from the future, which forks the present.
        let now = parent.current_ts();
        let asked = match fork_back {
            0 => now + 7,
            back => (now + 1 - back.min(now)).max(parent.log_truncated_below()),
        };
        let mut base = asked.min(now);
        let mut overlay = parent.fork_at(asked).unwrap();
        let mut copy = copy_fork(&parent, asked);
        prop_assert_eq!(overlay.stats().total_versions, 0, "an overlay copies nothing");
        assert_same(&overlay, &copy, base, &preds)?;

        for step in &steps {
            match step {
                Step::Parent(batch) => {
                    apply(&parent, batch).unwrap();
                    apply(&control, batch).unwrap();
                }
                Step::ParentGc => {
                    parent.gc_before(parent.current_ts());
                    control.gc_before(control.current_ts());
                    prop_assert!(parent.log_truncated_below() <= parent.live_forks().1.unwrap());
                }
                Step::Fork(batch) => {
                    prop_assert_eq!(apply(&overlay, batch), apply(&copy, batch));
                }
                Step::Race { pred, keys, reader, writer } => {
                    prop_assert_eq!(
                        race(&overlay, pred, keys, reader, writer),
                        race(&copy, pred, keys, reader, writer)
                    );
                }
                Step::ForkGc => {
                    overlay.gc_before(overlay.current_ts());
                    copy.gc_before(copy.current_ts());
                }
                Step::Refork { back } => {
                    let at = overlay
                        .current_ts()
                        .saturating_sub(*back)
                        .max(overlay.log_truncated_below());
                    // The old overlay's handle drops here; its tables —
                    // and through them the parent's pin — live on under
                    // the new fork.
                    overlay = overlay.fork_at(at).unwrap();
                    copy = copy_fork(&copy, at);
                    base = at;
                }
            }
            assert_same(&overlay, &copy, base, &preds)?;
            prop_assert_eq!(
                parent.digest_at(Ts::MAX),
                control.digest_at(Ts::MAX),
                "the fork disturbed its parent"
            );
        }

        prop_assert_eq!(parent.live_forks().0, 1);
        drop(overlay);
        prop_assert_eq!(parent.live_forks(), (0, None));
        parent.gc_before(parent.current_ts());
        prop_assert_eq!(parent.log_truncated_below(), parent.current_ts());
    }
}

/// A fork reads a namespace through, whatever its size: a session forked
/// off a 100k-key namespace holds no version of it until it writes a key,
/// and then only that key's chain (the seed read through from the parent,
/// and the write).
#[test]
fn a_fork_of_a_large_namespace_holds_no_version_until_it_writes() {
    const KEYS: usize = 100_000;
    let session = Session::new(Database::new());
    session.create_namespace(NS).unwrap();
    let mut txn = session.begin();
    for k in 0..KEYS {
        txn.kv_put(NS, &format!("k{k:06}"), "v").unwrap();
    }
    txn.commit().unwrap();

    let fork = Session::new(
        session
            .database()
            .fork_at(session.database().current_ts())
            .unwrap(),
    );
    // (live keys, row versions the fork's own namespace table holds)
    let stats = |s: &Session| {
        let table = s.database().table(&kv_table_name(NS)).unwrap();
        (
            table.count_at(s.database().current_ts()),
            table.version_count(),
        )
    };
    assert_eq!(stats(&fork), (KEYS, 0));
    assert_eq!(
        fork.kv().get_latest(NS, "k050000").unwrap().as_deref(),
        Some("v")
    );
    assert_eq!(fork.kv().scan_prefix(NS, "k00001").unwrap().len(), 10);
    assert_eq!(stats(&fork).1, 0, "reads copy nothing");

    let mut txn = fork.begin();
    txn.kv_put(NS, "k050000", "w").unwrap();
    txn.commit().unwrap();
    assert_eq!(stats(&fork), (KEYS, 2));
    assert_eq!(
        fork.kv().get_latest(NS, "k050000").unwrap().as_deref(),
        Some("w")
    );
    assert_eq!(
        session.kv().get_latest(NS, "k050000").unwrap().as_deref(),
        Some("v")
    );
}

/// A durable parent on `disk`: one segment per commit (all of them kept
/// below the GC floor), a checkpoint every `checkpoint_bytes` of log
/// (0: none).
fn durable_opts(sync_mode: SyncMode, checkpoint_bytes: u64) -> WalOptions {
    WalOptions {
        sync_mode,
        segment_bytes: 1,
        checkpoint_bytes,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(48)
    ))]

    #[test]
    fn a_fork_below_the_floor_is_rebuilt_from_the_log(
        history in prop::collection::vec(
            (batch_strategy(), prop_oneof![Just(None), (0u64..4).prop_map(Some)]),
            1..10,
        ),
        checkpoint_bytes in prop_oneof![Just(0u64), Just(128u64)],
        reopen in prop_oneof![Just(false), Just(true)],
    ) {
        let disk = Arc::new(MemDir::new());
        let opts = durable_opts(SyncMode::Sync, checkpoint_bytes);
        let mut parent = with_schema(Database::create_durable_in(disk.clone(), opts).unwrap());
        // The same history, never collected.
        let twin = new_parent();
        for (batch, gc_back) in &history {
            prop_assert_eq!(apply(&parent, batch), apply(&twin, batch));
            if let Some(back) = gc_back {
                parent.gc_before(parent.current_ts().saturating_sub(*back));
            }
        }
        if reopen {
            // A checkpoint boot truncates memory at the checkpoint.
            drop(parent);
            parent = Database::open_durable_in(disk, opts).unwrap().0;
        }
        let preds = fixed_preds();
        for ts in 1..=twin.current_ts() {
            let fork = parent.fork_at(ts).unwrap();
            assert_same(&fork, &copy_fork(&twin, ts), ts, &preds)?;
            prop_assert_eq!(fork.history(0, ts).unwrap(), vec![], "the fork holds no history");
        }
        prop_assert_eq!(parent.history(0, Ts::MAX).unwrap(), twin.log_entries());
        prop_assert_eq!(parent.live_forks(), (0, None));
    }
}

/// `history` and forks below the floor stay exact while one thread
/// commits — rolling a small segment every few commits — and another
/// garbage-collects and checkpoints, which prunes the checkpoints above
/// the floor, in every sync mode. The
/// appended tail is still in process under `Cached`. The oracle is
/// the history itself: commit `i` sets key `i % KEYS` to `i`, so a dense
/// history reads `0, 1, 2, …` and a fork at any logged timestamp holds
/// what replaying the history up to it holds.
#[test]
fn history_and_forks_below_the_floor_race_gc_rotation_and_checkpoint_pruning() {
    const COMMITS: i64 = 200;
    // The state after `history`: key -> last value written.
    let replayed = |history: &[trod_db::CommittedTxn]| {
        let mut state = std::collections::BTreeMap::new();
        for e in history {
            let row = e.changes[0].op.after().unwrap();
            state.insert(row[0].clone(), row[1].clone());
        }
        state
    };
    let fork_state = |db: &Database, ts: Ts| {
        let fork = db.fork_at(ts).unwrap();
        assert_eq!(fork.current_ts(), ts);
        let rows = fork.scan_latest("t", &Predicate::True).unwrap();
        let state = rows.iter().map(|(_, row)| (row[0].clone(), row[1].clone()));
        state.collect::<std::collections::BTreeMap<_, _>>()
    };
    let check = |db: &Database| {
        // Nothing but the writer ticks the clock: the history up to it
        // holds one commit per tick.
        let now = db.current_ts();
        let history = db.history(0, now).unwrap();
        assert_eq!(history.len() as Ts, now, "history is complete");
        for (i, e) in history.iter().enumerate() {
            let row = e.changes[0].op.after().unwrap();
            assert_eq!(row[1], Value::Int(i as i64), "history is dense and ordered");
        }
        if let Some(mid) = history.len().checked_sub(1).map(|last| last / 2) {
            let at = history[mid].commit_ts;
            assert_eq!(
                fork_state(db, at),
                replayed(&history[..=mid]),
                "fork at {at}"
            );
        }
        history
    };
    for mode in [SyncMode::Sync, SyncMode::Flush, SyncMode::Cached] {
        let opts = WalOptions {
            segment_bytes: 256,
            ..durable_opts(mode, 512)
        };
        let db = with_schema(Database::create_durable_in(Arc::new(MemDir::new()), opts).unwrap());
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..COMMITS {
                    apply(
                        &db,
                        &[Op::Put {
                            k: i % KEYS,
                            v: i,
                            g: 0,
                        }],
                    )
                    .unwrap();
                }
                done.store(true, Ordering::SeqCst);
            });
            s.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    db.gc_before(db.current_ts());
                    db.checkpoint().unwrap();
                    std::thread::yield_now();
                }
            });
            while !done.load(Ordering::SeqCst) {
                check(&db);
            }
        });
        db.gc_before(db.current_ts());
        let history = check(&db);
        assert_eq!(history.len(), COMMITS as usize, "{mode:?}");
        let stats = db.wal().unwrap().stats();
        assert!(
            stats.rotations > 0 && stats.rotation_errors == 0 && stats.checkpoint_errors == 0,
            "{mode:?}: {stats:?}"
        );
        // Every tenth commit, all of them below the floor now.
        for upto in (0..history.len()).step_by(10) {
            let at = history[upto].commit_ts;
            assert!(at < db.log_truncated_below());
            assert_eq!(
                fork_state(&db, at),
                replayed(&history[..=upto]),
                "{mode:?} at {at}"
            );
        }
    }
}
