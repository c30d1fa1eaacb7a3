//! The one commit path under mixed relational + key-value schedules and
//! threads.
//!
//! A key-value namespace is the table `kv:<namespace>`, so every commit —
//! relational-only, KV-only or mixed — runs through the one commit
//! protocol, with no cross-store lock. These tests pin the properties
//! that must hold:
//!
//! * a property test drives randomly generated mixed schedules
//!   (relational tables and KV namespaces, reads, prefix scans and writes
//!   spread over both, concurrent committers in between) against a
//!   session and against the serial full-history reference model
//!   (`crates/db/tests/support/model.rs`, which treats a namespace like
//!   any table), and requires identical commit decisions and identical
//!   final states in *both* stores;
//! * an 8-thread stress test keeps a value mirrored between a relational
//!   row and a KV key per slot, updated only by mixed commits, and
//!   asserts that snapshot readers never observe the two stores disagree
//!   (a torn cross-store commit);
//! * a total-order test checks that concurrent mixed commits produce one
//!   strictly-increasing, dense transaction log in which every entry
//!   carries its relational and key-value changes together, timestamps
//!   matching what the KV store actually installed.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use proptest::prelude::*;

use trod_db::{row, DataType, Database, DbError, Key, Predicate, Schema, TrodError, Ts};
use trod_kv::{kv_table_name, KvStore, Session};

#[path = "../../db/tests/support/model.rs"]
mod model;
use model::{Model, ModelTxn, Verdict};

const TABLES: [&str; 2] = ["t0", "t1"];
const NAMESPACES: [&str; 2] = ["ns0", "ns1"];

fn table_schema() -> Schema {
    Schema::builder()
        .column("k", DataType::Int)
        .column("v", DataType::Int)
        .primary_key(&["k"])
        .build()
        .unwrap()
}

fn new_session() -> Session {
    let db = Database::new();
    for name in TABLES {
        db.create_table(name, table_schema()).unwrap();
    }
    let kv = KvStore::new();
    for ns in NAMESPACES {
        kv.create_namespace(ns).unwrap();
    }
    Session::with_kv(db, kv)
}

/// One operation in a generated mixed transaction.
#[derive(Debug, Clone)]
enum Op {
    RelPut {
        t: usize,
        k: i64,
        v: i64,
    },
    RelDelete {
        t: usize,
        k: i64,
    },
    RelGet {
        t: usize,
        k: i64,
    },
    RelScanEqV {
        t: usize,
        v: i64,
    },
    KvPut {
        n: usize,
        k: i64,
        v: i64,
    },
    KvDelete {
        n: usize,
        k: i64,
    },
    KvGet {
        n: usize,
        k: i64,
    },
    /// A prefix scan: every key (`k`) or the keys under `k<k>`.
    KvScan {
        n: usize,
        k: Option<i64>,
    },
}

fn op_strategy(key_space: i64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..2usize, 0..key_space, 0..50i64).prop_map(|(t, k, v)| Op::RelPut { t, k, v }),
        (0..2usize, 0..key_space).prop_map(|(t, k)| Op::RelDelete { t, k }),
        (0..2usize, 0..key_space).prop_map(|(t, k)| Op::RelGet { t, k }),
        (0..2usize, 0..50i64).prop_map(|(t, v)| Op::RelScanEqV { t, v }),
        (0..2usize, 0..key_space, 0..50i64).prop_map(|(n, k, v)| Op::KvPut { n, k, v }),
        (0..2usize, 0..key_space).prop_map(|(n, k)| Op::KvDelete { n, k }),
        (0..2usize, 0..key_space).prop_map(|(n, k)| Op::KvGet { n, k }),
        // `k == key_space` scans the whole namespace.
        (0..2usize, 0..=key_space).prop_map(move |(n, k)| Op::KvScan {
            n,
            k: (k < key_space).then_some(k),
        }),
    ]
}

/// A generated mixed schedule; see `run_schedule`.
#[derive(Debug, Clone)]
struct Schedule {
    history: Vec<Vec<Op>>,
    pending: Vec<Op>,
    concurrent: Vec<Vec<Op>>,
}

fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    let key_space = 6i64;
    (
        prop::collection::vec(prop::collection::vec(op_strategy(key_space), 1..4), 0..4),
        prop::collection::vec(op_strategy(key_space), 1..6),
        prop::collection::vec(prop::collection::vec(op_strategy(key_space), 1..4), 0..5),
    )
        .prop_map(|(history, pending, concurrent)| Schedule {
            history,
            pending,
            concurrent,
        })
}

fn apply_ops(txn: &mut trod_kv::Txn, ops: &[Op]) -> Result<(), TrodError> {
    for op in ops {
        match op {
            Op::RelPut { t, k, v } => {
                let key = Key::single(*k);
                if txn.get(TABLES[*t], &key)?.is_some() {
                    txn.update(TABLES[*t], &key, row![*k, *v])?;
                } else {
                    txn.insert(TABLES[*t], row![*k, *v])?;
                }
            }
            Op::RelDelete { t, k } => {
                txn.delete(TABLES[*t], &Key::single(*k))?;
            }
            Op::RelGet { t, k } => {
                let _ = txn.get(TABLES[*t], &Key::single(*k))?;
            }
            Op::RelScanEqV { t, v } => {
                let _ = txn.scan(TABLES[*t], &Predicate::eq("v", *v))?;
            }
            Op::KvPut { n, k, v } => {
                txn.kv_put(NAMESPACES[*n], &format!("k{k}"), &v.to_string())?;
            }
            Op::KvDelete { n, k } => {
                txn.kv_delete(NAMESPACES[*n], &format!("k{k}"))?;
            }
            Op::KvGet { n, k } => {
                let _ = txn.kv_get(NAMESPACES[*n], &format!("k{k}"))?;
            }
            Op::KvScan { n, k } => {
                let prefix = k.map_or("k".to_string(), |k| format!("k{k}"));
                let _ = txn.kv_scan_prefix(NAMESPACES[*n], &prefix)?;
            }
        }
    }
    Ok(())
}

fn commit_ops(session: &Session, ops: &[Op]) {
    let mut txn = session.begin();
    apply_ops(&mut txn, ops).unwrap();
    txn.commit().unwrap();
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    Committed,
    RelationalConflict,
    KvConflict,
    OtherError(String),
}

/// Final contents of every table and every namespace, in the model's
/// terms (kv key `k<n>` → `n`, decimal value → `i64`).
type State = (Vec<BTreeMap<i64, i64>>, Vec<BTreeMap<i64, i64>>);

/// Runs the schedule: history commits, then a pending serializable mixed
/// transaction reads and buffers operations over both stores, then the
/// concurrent transactions commit, then the pending transaction attempts
/// to commit. Returns its outcome plus the final state of both stores.
fn run_schedule(session: &Session, s: &Schedule) -> (Outcome, State) {
    for ops in &s.history {
        commit_ops(session, ops);
    }

    let mut pending = session.begin();
    apply_ops(&mut pending, &s.pending).unwrap();

    for ops in &s.concurrent {
        commit_ops(session, ops);
    }

    let outcome = match pending.commit() {
        Ok(_) => Outcome::Committed,
        Err(TrodError::Relational(
            DbError::SerializationFailure { table, .. } | DbError::WriteConflict { table, .. },
        )) => conflict_on(&table),
        Err(other) => Outcome::OtherError(other.to_string()),
    };

    let tables = TABLES
        .iter()
        .map(|t| {
            session
                .database()
                .scan_latest(t, &Predicate::True)
                .unwrap()
                .into_iter()
                .map(|(_, r)| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
                .collect()
        })
        .collect();
    let namespaces = NAMESPACES
        .iter()
        .map(|ns| {
            session
                .kv()
                .scan_prefix(ns, "")
                .unwrap()
                .into_iter()
                .map(|(k, v)| (k[1..].parse().unwrap(), v.parse().unwrap()))
                .collect()
        })
        .collect();
    (outcome, (tables, namespaces))
}

/// Conflicts on a namespace's table and on an application table are told
/// apart by the table's name, in the engine and in the model alike.
fn conflict_on(table: &str) -> Outcome {
    if table.starts_with("kv:") {
        Outcome::KvConflict
    } else {
        Outcome::RelationalConflict
    }
}

fn model_ops(model: &Model, txn: &mut ModelTxn, ops: &[Op]) {
    let ns = |n: usize| kv_table_name(NAMESPACES[n]);
    for op in ops {
        match *op {
            Op::RelPut { t, k, v } => txn.put(model, TABLES[t], k, v),
            Op::RelDelete { t, k } => txn.delete(model, TABLES[t], k),
            Op::RelGet { t, k } => {
                txn.get(model, TABLES[t], k);
            }
            Op::RelScanEqV { t, v } => txn.scan(TABLES[t], move |_, val| val == v),
            Op::KvPut { n, k, v } => txn.put(model, &ns(n), k, v),
            Op::KvDelete { n, k } => txn.delete(model, &ns(n), k),
            Op::KvGet { n, k } => {
                txn.get(model, &ns(n), k);
            }
            // Keys are `k0`..`k5`: the prefix `k<k>` holds exactly `k<k>`.
            Op::KvScan { n, k } => txn.scan(&ns(n), move |key, _| k.is_none_or(|k| key == k)),
        }
    }
}

/// The same schedule against the reference model.
fn run_model(s: &Schedule) -> (Outcome, State) {
    let mut model = Model::new();
    let commit_ops = |model: &mut Model, ops: &[Op]| {
        let mut txn = model.begin();
        model_ops(model, &mut txn, ops);
        assert_eq!(model.commit(txn), Verdict::Committed);
    };
    for ops in &s.history {
        commit_ops(&mut model, ops);
    }
    let mut pending = model.begin();
    model_ops(&model, &mut pending, &s.pending);
    for ops in &s.concurrent {
        commit_ops(&mut model, ops);
    }
    let outcome = match model.commit(pending) {
        Verdict::Committed => Outcome::Committed,
        Verdict::WriteConflict { resource } | Verdict::ReadConflict { resource } => {
            conflict_on(&resource)
        }
    };
    let tables = TABLES.iter().map(|t| model.contents(t)).collect();
    let namespaces = NAMESPACES
        .iter()
        .map(|ns| model.contents(&kv_table_name(ns)))
        .collect();
    (outcome, (tables, namespaces))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The commit path accepts and rejects exactly the mixed schedules the
    /// serial full-history model does, leaving identical final states in
    /// both stores.
    #[test]
    fn mixed_commits_are_decision_equivalent_across_modes(
        schedule in schedule_strategy()
    ) {
        let (outcome, state) = run_schedule(&new_session(), &schedule);
        let (model_outcome, model_state) = run_model(&schedule);
        prop_assert_eq!(&outcome, &model_outcome, "engine vs model diverged for {:?}", schedule);
        prop_assert_eq!(state, model_state);
    }

    /// Forking the session at any timestamp equals replaying the aligned
    /// log's kv records up to that timestamp — the invariant that makes a fork a
    /// faithful development environment at *every* point of history, not
    /// just the latest (and the reason replay can reconstruct a fork from
    /// the logged aligned history when GC truncated the live state).
    #[test]
    fn kv_fork_at_equals_aligned_log_replayed_to_ts(schedule in schedule_strategy()) {
        let session = new_session();
        let _ = run_schedule(&session, &schedule);
        let aligned = session.aligned_log();
        let mut sample_ts: Vec<u64> = aligned.iter().map(|c| c.commit_ts).collect();
        sample_ts.push(0);
        sample_ts.push(session.database().current_ts());
        sample_ts.sort_unstable();
        sample_ts.dedup();
        for ts in sample_ts {
            let fork = session.fork_at(ts).unwrap();
            let fork = fork.kv();
            let mut replayed: BTreeMap<(String, String), Option<String>> = BTreeMap::new();
            for commit in aligned.iter().take_while(|c| c.commit_ts <= ts) {
                for w in &commit.kv {
                    replayed.insert((w.namespace.clone(), w.key.clone()), w.value.clone());
                }
            }
            for ns in NAMESPACES {
                let forked: BTreeMap<String, String> =
                    fork.scan_prefix(ns, "").unwrap().into_iter().collect();
                let from_log: BTreeMap<String, String> = replayed
                    .iter()
                    .filter(|((n, _), _)| n == ns)
                    .filter_map(|((_, k), v)| v.clone().map(|v| (k.clone(), v)))
                    .collect();
                prop_assert_eq!(
                    forked, from_log,
                    "fork at ts {} diverges from replayed log in {}", ts, ns
                );
            }
        }
    }

    /// The aligned log agrees with the stores: replaying the kv side of
    /// every aligned entry in order reproduces the key-value store's
    /// final state.
    #[test]
    fn aligned_log_replays_to_the_kv_state(schedule in schedule_strategy()) {
        let session = new_session();
        let _ = run_schedule(&session, &schedule);
        let mut replayed: BTreeMap<(String, String), Option<String>> = BTreeMap::new();
        for commit in session.aligned_log() {
            for w in commit.kv {
                replayed.insert((w.namespace, w.key), w.value);
            }
        }
        for ns in NAMESPACES {
            let live: BTreeMap<String, String> =
                session.kv().scan_prefix(ns, "").unwrap().into_iter().collect();
            let from_log: BTreeMap<String, String> = replayed
                .iter()
                .filter(|((n, _), _)| n == ns)
                .filter_map(|((_, k), v)| v.clone().map(|v| (k.clone(), v)))
                .collect();
            prop_assert_eq!(live, from_log, "aligned log diverges from store in {}", ns);
        }
    }
}

/// 8 writer threads each own one slot mirrored between a relational row
/// and a KV key; every update is ONE mixed commit that bumps both to the
/// same value. Two reader threads take serializable snapshots and assert
/// the mirror never tears: seeing `row == n` with `kv != n` would mean a
/// cross-store commit became visible half-applied.
#[test]
fn snapshot_reads_never_see_torn_mixed_commits() {
    const WRITERS: usize = 8;
    const ROUNDS: usize = 50;

    let session = new_session();
    {
        let mut txn = session.begin();
        for w in 0..WRITERS as i64 {
            txn.insert(TABLES[0], row![w, 0i64]).unwrap();
            txn.kv_put(NAMESPACES[0], &format!("slot{w}"), "0").unwrap();
        }
        txn.commit().unwrap();
    }

    let done = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(WRITERS + 3));

    std::thread::scope(|scope| {
        let mut writers = Vec::new();
        for w in 0..WRITERS {
            let session = session.clone();
            let barrier = barrier.clone();
            writers.push(scope.spawn(move || {
                barrier.wait();
                let key = Key::single(w as i64);
                let kv_key = format!("slot{w}");
                for _ in 0..ROUNDS {
                    loop {
                        let mut txn = session.begin();
                        let current = txn.get(TABLES[0], &key).unwrap().unwrap()[1]
                            .as_int()
                            .unwrap();
                        let next = current + 1;
                        txn.update(TABLES[0], &key, row![w as i64, next]).unwrap();
                        txn.kv_put(NAMESPACES[0], &kv_key, &next.to_string())
                            .unwrap();
                        match txn.commit() {
                            Ok(_) => break,
                            Err(e) if e.is_retryable() => continue,
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                }
            }));
        }
        for _ in 0..2 {
            let session = session.clone();
            let barrier = barrier.clone();
            let done = done.clone();
            scope.spawn(move || {
                barrier.wait();
                while !done.load(Ordering::Relaxed) {
                    let mut txn = session.begin();
                    for w in 0..WRITERS as i64 {
                        let row_v = txn.get(TABLES[0], &Key::single(w)).unwrap().unwrap()[1]
                            .as_int()
                            .unwrap();
                        let kv_v: i64 = txn
                            .kv_get(NAMESPACES[0], &format!("slot{w}"))
                            .unwrap()
                            .unwrap()
                            .parse()
                            .unwrap();
                        assert_eq!(
                            row_v, kv_v,
                            "snapshot saw a torn cross-store commit on slot {w}"
                        );
                    }
                    txn.abort();
                }
            });
        }
        barrier.wait();
        for handle in writers {
            handle.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
    });

    // Every slot converged to ROUNDS in both stores.
    for w in 0..WRITERS as i64 {
        let row_v = session
            .database()
            .get_latest(TABLES[0], &Key::single(w))
            .unwrap()
            .unwrap()[1]
            .as_int()
            .unwrap();
        assert_eq!(row_v, ROUNDS as i64);
        assert_eq!(
            session
                .kv()
                .get_latest(NAMESPACES[0], &format!("slot{w}"))
                .unwrap(),
            Some(ROUNDS.to_string())
        );
    }
}

/// Concurrent mixed commits over disjoint (table, namespace) pairs: the
/// aligned transaction log totally orders them — strictly increasing,
/// dense timestamps; every entry carries its relational and key-value
/// changes together; and the KV store's installed versions match the log.
#[test]
fn aligned_log_totally_orders_concurrent_mixed_commits() {
    const PER_THREAD: i64 = 30;

    let session = new_session();
    let barrier = Arc::new(Barrier::new(4));

    std::thread::scope(|scope| {
        for thread in 0..4usize {
            let session = session.clone();
            let barrier = barrier.clone();
            scope.spawn(move || {
                let table = TABLES[thread % 2];
                let ns = NAMESPACES[thread % 2];
                let base = (thread as i64) * 1_000;
                barrier.wait();
                for i in 0..PER_THREAD {
                    loop {
                        let mut txn = session.begin();
                        txn.insert(table, row![base + i, thread as i64]).unwrap();
                        txn.kv_put(ns, &format!("t{thread}-k{i}"), &i.to_string())
                            .unwrap();
                        match txn.commit() {
                            Ok(_) => break,
                            Err(e) if e.is_retryable() => continue,
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                }
            });
        }
    });

    let log = session.database().log_entries();
    assert_eq!(log.len(), 4 * PER_THREAD as usize);
    for pair in log.windows(2) {
        assert_eq!(
            pair[0].commit_ts + 1,
            pair[1].commit_ts,
            "commit timestamps are dense: every allocated ts published"
        );
    }

    // Every log entry is aligned: it carries exactly one relational
    // insert and one kv record, for the same logical operation, and the
    // key became visible at exactly the entry's timestamp.
    for entry in &log {
        let rel: Vec<_> = entry
            .changes
            .iter()
            .filter(|c| !c.table.starts_with("kv:"))
            .collect();
        let kv: Vec<_> = entry
            .changes
            .iter()
            .filter(|c| c.table.starts_with("kv:"))
            .collect();
        assert_eq!(rel.len(), 1, "one relational change per mixed commit");
        assert_eq!(kv.len(), 1, "one kv change per mixed commit");
        let ns = kv[0].table.strip_prefix("kv:").unwrap();
        let kv_key = match kv[0].key.values().first() {
            Some(trod_db::Value::Text(k)) => k.clone(),
            other => panic!("kv record key must be text, got {other:?}"),
        };
        let kv = session.kv();
        assert_eq!(
            kv.get_as_of(ns, &kv_key, entry.commit_ts - 1).unwrap(),
            None
        );
        assert!(
            kv.get_as_of(ns, &kv_key, entry.commit_ts)
                .unwrap()
                .is_some(),
            "the kv row must appear at the aligned log entry's timestamp"
        );
    }

    // The aligned view partitions the same entries.
    let aligned = session.aligned_log();
    assert_eq!(aligned.len(), log.len());
    assert!(aligned.iter().all(|c| c.spans_both_stores()));
    for (entry, commit) in log.iter().zip(&aligned) {
        assert_eq!(entry.commit_ts, commit.commit_ts);
        assert_eq!(commit.relational.len(), 1);
        assert_eq!(commit.kv.len(), 1);
        assert_eq!(kv_table_name(&commit.kv[0].namespace), {
            let t = &entry
                .changes
                .iter()
                .find(|c| c.table.starts_with("kv:"))
                .unwrap()
                .table;
            t.clone()
        });
    }
}

/// The `kv:` prefix is reserved for namespaces: a relational table with
/// such a name would be misclassified in the aligned log.
#[test]
fn kv_prefixed_table_names_are_rejected() {
    let db = Database::new();
    assert!(matches!(
        db.create_table("kv:sessions", table_schema()).unwrap_err(),
        DbError::Invalid(_)
    ));
    assert!(!db.has_table("kv:sessions"));
}

/// Serializable read validation spans tables and namespaces: a
/// transaction whose kv_get was invalidated by a concurrent commit aborts
/// even when its writes are purely relational (and vice versa).
#[test]
fn cross_store_read_validation_is_enforced_by_the_coordinator() {
    let session = new_session();
    {
        let mut txn = session.begin();
        txn.kv_put(NAMESPACES[0], "flag", "off").unwrap();
        txn.insert(TABLES[0], row![1i64, 0i64]).unwrap();
        txn.commit().unwrap();
    }

    // KV read, relational write: invalidated by a concurrent KV commit.
    let mut pending = session.begin();
    assert_eq!(
        pending.kv_get(NAMESPACES[0], "flag").unwrap(),
        Some("off".into())
    );
    pending.insert(TABLES[0], row![2i64, 1i64]).unwrap();
    let mut writer = session.begin();
    writer.kv_put(NAMESPACES[0], "flag", "on").unwrap();
    writer.commit().unwrap();
    assert!(matches!(
        pending.commit().unwrap_err(),
        TrodError::Relational(DbError::SerializationFailure { table, .. }) if table == "kv:ns0"
    ));
    // The relational write did not survive the aborted commit.
    assert_eq!(
        session
            .database()
            .get_latest(TABLES[0], &Key::single(2i64))
            .unwrap(),
        None
    );

    // Relational read, KV write: invalidated by a concurrent relational
    // commit.
    let mut pending = session.begin();
    let _ = pending.scan(TABLES[0], &Predicate::eq("v", 0i64)).unwrap();
    pending.kv_put(NAMESPACES[1], "out", "x").unwrap();
    let mut writer = session.begin();
    writer
        .update(TABLES[0], &Key::single(1i64), row![1i64, 99i64])
        .unwrap();
    writer.commit().unwrap();
    assert!(matches!(
        pending.commit().unwrap_err(),
        TrodError::Relational(DbError::SerializationFailure { .. })
    ));
    assert_eq!(session.kv().get_latest(NAMESPACES[1], "out").unwrap(), None);
}

/// A serializable prefix scan validates the key range it scanned, not
/// only the keys it returned. T1 scans `user:` and writes `summary`; T2
/// reads `summary`, inserts `user:3` and commits first. Were both to
/// commit, T1 would precede T2 (it missed `user:3`) and follow it (T2
/// missed T1's `summary`): a cycle. The inserted key is a phantom in T1's
/// range, so T1 aborts.
#[test]
fn prefix_scans_conflict_with_keys_inserted_under_the_prefix() {
    let session = new_session();
    let ns = NAMESPACES[0];
    let mut setup = session.begin();
    setup.kv_put(ns, "user:1", "a").unwrap();
    setup.kv_put(ns, "user:2", "b").unwrap();
    setup.kv_put(ns, "summary", "2 users").unwrap();
    setup.commit().unwrap();

    let mut t1 = session.begin();
    assert_eq!(t1.kv_scan_prefix(ns, "user:").unwrap().len(), 2);
    t1.kv_put(ns, "summary", "2 users, checked").unwrap();

    let mut t2 = session.begin();
    assert_eq!(
        t2.kv_get(ns, "summary").unwrap().as_deref(),
        Some("2 users")
    );
    t2.kv_put(ns, "user:3", "c").unwrap();
    t2.commit().unwrap();

    let err = t1.commit().expect_err("the phantom `user:3` must abort T1");
    assert!(
        matches!(&err, TrodError::Relational(DbError::SerializationFailure { table, .. }) if table == "kv:ns0"),
        "{err}"
    );
    assert!(err.is_retryable());
    assert_eq!(
        session.kv().get_latest(ns, "summary").unwrap().as_deref(),
        Some("2 users")
    );
}

/// Forks taken while mixed commits are mid-install never observe an
/// unpublished version. Writes land in the tables *before* the
/// publication clock advances; a fork cut from `current_ts()` at exactly
/// that moment must resolve against the published horizon — otherwise
/// the fork would see a commit's kv row without its relational row (or
/// the reverse), and would disagree with the aligned history replay that
/// reconstructs it.
///
/// And what a fork saw first is what it sees until dropped: it copies
/// nothing and reads the production version chains, so forks are *kept*
/// here, across later commits and a thread
/// garbage-collecting at `current_ts()` throughout, and re-read. A live
/// fork holds GC's horizon at its timestamp; a dropped one lets go.
#[test]
fn forks_taken_mid_install_never_observe_unpublished_versions() {
    const WRITERS: usize = 4;
    const ROUNDS: usize = 30;
    const HELD: usize = 6;

    let session = new_session();
    {
        let mut txn = session.begin();
        txn.insert(TABLES[0], row![0i64, 0i64]).unwrap();
        txn.kv_put(NAMESPACES[0], "mirror", "0").unwrap();
        txn.commit().unwrap();
    }

    /// The counter as each store of `fork` shows it.
    fn pair(fork: &Session) -> (i64, i64) {
        let row_v = fork
            .database()
            .get_latest(TABLES[0], &Key::single(0i64))
            .unwrap()
            .unwrap()[1]
            .as_int()
            .unwrap();
        let kv_v = fork
            .kv()
            .get_latest(NAMESPACES[0], "mirror")
            .unwrap()
            .unwrap()
            .parse()
            .unwrap();
        (row_v, kv_v)
    }

    let done = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(WRITERS + 3));

    let held = std::thread::scope(|scope| {
        let mut writers = Vec::new();
        for _ in 0..WRITERS {
            let session = session.clone();
            let barrier = barrier.clone();
            writers.push(scope.spawn(move || {
                barrier.wait();
                for _ in 0..ROUNDS {
                    loop {
                        let mut txn = session.begin();
                        let current = txn.get(TABLES[0], &Key::single(0i64)).unwrap().unwrap()[1]
                            .as_int()
                            .unwrap();
                        let next = current + 1;
                        txn.update(TABLES[0], &Key::single(0i64), row![0i64, next])
                            .unwrap();
                        txn.kv_put(NAMESPACES[0], "mirror", &next.to_string())
                            .unwrap();
                        match txn.commit() {
                            Ok(_) => break,
                            Err(e) if e.is_retryable() => continue,
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                }
            }));
        }
        {
            let session = session.clone();
            let barrier = barrier.clone();
            let done = done.clone();
            scope.spawn(move || {
                barrier.wait();
                while !done.load(Ordering::Relaxed) {
                    session.gc_before(session.database().current_ts());
                }
            });
        }
        let forker = {
            let session = session.clone();
            let barrier = barrier.clone();
            let done = done.clone();
            scope.spawn(move || {
                let mut held: VecDeque<(Ts, Session, i64)> = VecDeque::new();
                barrier.wait();
                while !done.load(Ordering::Relaxed) {
                    // The published horizon, never a
                    // claimed-but-unpublished install.
                    let ts = session.database().current_ts();
                    let fork = session.fork_at(ts).unwrap();
                    let (row_v, kv_v) = pair(&fork);
                    assert_eq!(
                        row_v, kv_v,
                        "fork at ts {ts} captured an unpublished KV version"
                    );
                    held.push_back((ts, fork, row_v));
                    if held.len() > HELD {
                        held.pop_front();
                    }
                    for (ts, fork, first_seen) in &held {
                        assert_eq!(
                            pair(fork),
                            (*first_seen, *first_seen),
                            "the fork at ts {ts} changed under its holder"
                        );
                    }
                }
                held
            })
        };
        barrier.wait();
        for handle in writers {
            handle.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        forker.join().unwrap()
    });

    assert_eq!(
        session
            .kv()
            .get_latest(NAMESPACES[0], "mirror")
            .unwrap()
            .unwrap()
            .parse::<i64>()
            .unwrap(),
        (WRITERS * ROUNDS) as i64
    );

    // The forks still held clamp GC to the oldest of them...
    let db = session.database();
    let oldest = held.iter().map(|(ts, ..)| *ts).min().unwrap();
    assert_eq!(db.live_forks(), (held.len(), Some(oldest)));
    session.gc_before(db.current_ts());
    assert!(db.log_truncated_below() <= oldest);
    for (ts, fork, first_seen) in &held {
        assert_eq!(pair(fork), (*first_seen, *first_seen), "fork at ts {ts}");
    }
    // ...and, dropped, release it: the same call now reclaims everything
    // below the present.
    drop(held);
    assert_eq!(db.live_forks(), (0, None));
    session.gc_before(db.current_ts());
    assert_eq!(db.log_truncated_below(), db.current_ts());
    let stats = db.stats();
    assert_eq!(stats.total_versions, stats.live_rows);
}
