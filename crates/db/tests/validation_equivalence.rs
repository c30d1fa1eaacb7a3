//! Decision-equivalence of O(Δ) serializable validation with a
//! full-history reference.
//!
//! The commit path validates predicate reads against the per-table change
//! log (O(Δ) in the writes since the transaction began), falling back to
//! a scan of every version when the log no longer covers the window.
//! These tests prove it accepts and rejects exactly the transactions it
//! should:
//!
//! * a property test drives a randomly generated interleaved schedule
//!   against the engine and against the serial full-history reference
//!   model (`support/model.rs`), and requires identical commit outcomes
//!   and identical final states, including schedules that truncate
//!   history mid-flight, both through watermark-clamped GC (validation
//!   window survives) and through raw change-log truncation (exercising
//!   the full-scan fallback; debug builds additionally cross-check every
//!   change-log decision against the full scan);
//! * a multi-threaded stress test hammers one database with concurrent
//!   read-modify-write committers and checks the serializability
//!   invariants the validator exists to protect.

use std::collections::BTreeMap;

use proptest::prelude::*;

use trod_db::{row, DataType, Database, DbError, IsolationLevel, Key, Predicate, Schema};

#[path = "support/model.rs"]
mod model;
use model::{Model, ModelTxn, Verdict};

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

/// One write in a generated transaction.
#[derive(Debug, Clone)]
enum Write {
    Put { k: i64, v: i64 },
    Delete { k: i64 },
}

/// One read performed by the pending transaction before the concurrent
/// writers commit.
#[derive(Debug, Clone)]
enum Read {
    Get { k: i64 },
    ScanEqV { v: i64 },
    ScanGeK { k: i64 },
    ScanRange { lo: i64, hi: i64 },
}

/// A full generated schedule:
/// 1. `history` transactions commit;
/// 2. the pending transaction begins and performs `reads` then `writes`;
/// 3. `concurrent` transactions commit (with optional mid-flight GC);
/// 4. the pending transaction attempts to commit.
#[derive(Debug, Clone)]
struct Schedule {
    history: Vec<Vec<Write>>,
    reads: Vec<Read>,
    writes: Vec<Write>,
    concurrent: Vec<Vec<Write>>,
    /// Truncate history after this many concurrent commits (if in range).
    gc_after: usize,
    /// How to truncate: `false` runs `gc_before(current_ts)`, which the
    /// active-transaction watermark clamps at the pending transaction's
    /// snapshot (its validation window survives); `true` truncates the
    /// table's change log directly, past the pending snapshot, forcing
    /// the O(Δ) validator onto the full-scan fallback mid-window.
    raw_truncate: bool,
}

fn write_strategy(key_space: i64) -> impl Strategy<Value = Write> {
    prop_oneof![
        (0..key_space, 0..100i64).prop_map(|(k, v)| Write::Put { k, v }),
        (0..key_space).prop_map(|k| Write::Delete { k }),
    ]
}

fn read_strategy(key_space: i64) -> impl Strategy<Value = Read> {
    prop_oneof![
        (0..key_space).prop_map(|k| Read::Get { k }),
        (0..100i64).prop_map(|v| Read::ScanEqV { v }),
        (0..key_space).prop_map(|k| Read::ScanGeK { k }),
        (0..key_space, 0..key_space).prop_map(|(a, b)| Read::ScanRange {
            lo: a.min(b),
            hi: a.max(b),
        }),
    ]
}

fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    let key_space = 12i64;
    (
        prop::collection::vec(prop::collection::vec(write_strategy(key_space), 1..4), 0..6),
        prop::collection::vec(read_strategy(key_space), 1..5),
        prop::collection::vec(write_strategy(key_space), 0..3),
        prop::collection::vec(prop::collection::vec(write_strategy(key_space), 1..4), 0..8),
        0usize..10,
        prop_oneof![Just(false), Just(true)],
    )
        .prop_map(
            |(history, reads, writes, concurrent, gc_after, raw_truncate)| Schedule {
                history,
                reads,
                writes,
                concurrent,
                gc_after,
                raw_truncate,
            },
        )
}

/// Applies one committed write-set transaction (upsert semantics).
fn commit_writes(db: &Database, writes: &[Write]) -> Result<(), DbError> {
    let mut txn = db.begin_with(IsolationLevel::ReadCommitted);
    for w in writes {
        match w {
            Write::Put { k, v } => {
                let key = Key::single(*k);
                if txn.get("kv", &key)?.is_some() {
                    txn.update("kv", &key, row![*k, *v])?;
                } else {
                    txn.insert("kv", row![*k, *v])?;
                }
            }
            Write::Delete { k } => {
                txn.delete("kv", &Key::single(*k))?;
            }
        }
    }
    txn.commit()?;
    Ok(())
}

/// Normalised outcome of the pending transaction's commit, for comparison
/// between the engine and the model.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    Committed,
    SerializationFailure,
    WriteConflict,
    OtherError(String),
}

/// Runs the schedule and returns (outcome, final state).
fn run_schedule(db: &Database, schedule: &Schedule) -> (Outcome, BTreeMap<i64, i64>) {
    for writes in &schedule.history {
        commit_writes(db, writes).unwrap();
    }

    let mut pending = db.begin_with(IsolationLevel::Serializable);
    for read in &schedule.reads {
        match read {
            Read::Get { k } => {
                let _ = pending.get("kv", &Key::single(*k)).unwrap();
            }
            Read::ScanEqV { v } => {
                let _ = pending.scan("kv", &Predicate::eq("v", *v)).unwrap();
            }
            Read::ScanGeK { k } => {
                let _ = pending.scan("kv", &Predicate::ge("k", *k)).unwrap();
            }
            Read::ScanRange { lo, hi } => {
                let pred = Predicate::ge("k", *lo).and(Predicate::le("k", *hi));
                let _ = pending.scan("kv", &pred).unwrap();
            }
        }
    }
    // Buffer the pending writes; constraint errors (e.g. deleting a key
    // that was never visible) are fine to ignore — the scheduled writes
    // are best-effort and identical across both databases.
    for w in &schedule.writes {
        match w {
            Write::Put { k, v } => {
                let key = Key::single(*k);
                let exists = pending.get("kv", &key).unwrap().is_some();
                let result = if exists {
                    pending.update("kv", &key, row![*k, *v]).map(|_| ())
                } else {
                    pending.insert("kv", row![*k, *v]).map(|_| ())
                };
                result.unwrap();
            }
            Write::Delete { k } => {
                pending.delete("kv", &Key::single(*k)).unwrap();
            }
        }
    }

    for (i, writes) in schedule.concurrent.iter().enumerate() {
        commit_writes(db, writes).unwrap();
        if i + 1 == schedule.gc_after {
            if schedule.raw_truncate {
                // Cut the change log (versions untouched) past the pending
                // snapshot: the O(Δ) validator must detect the truncation
                // and fall back to the full version scan.
                db.table("kv")
                    .unwrap()
                    .changelog()
                    .truncate_before(db.current_ts());
            } else {
                // GC request at the current clock; the active-transaction
                // watermark clamps it at the pending snapshot, so the
                // validation window survives and the fast path stays on.
                db.gc_before(db.current_ts());
            }
        }
    }

    let outcome = match pending.commit() {
        Ok(_) => Outcome::Committed,
        Err(DbError::SerializationFailure { .. }) => Outcome::SerializationFailure,
        Err(DbError::WriteConflict { .. }) => Outcome::WriteConflict,
        Err(other) => Outcome::OtherError(other.to_string()),
    };

    let state = db
        .scan_latest("kv", &Predicate::True)
        .unwrap()
        .into_iter()
        .map(|(_, r)| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
        .collect();
    (outcome, state)
}

fn model_writes(model: &Model, txn: &mut ModelTxn, writes: &[Write]) {
    for w in writes {
        match w {
            Write::Put { k, v } => txn.put(model, "kv", *k, *v),
            Write::Delete { k } => txn.delete(model, "kv", *k),
        }
    }
}

/// The same schedule against the reference model (which has no history
/// to truncate: `gc_after` / `raw_truncate` are engine-only events).
fn run_model(schedule: &Schedule) -> (Outcome, BTreeMap<i64, i64>) {
    let mut model = Model::new();
    let commit_writes = |model: &mut Model, writes: &[Write]| {
        let mut txn = model.begin();
        model_writes(model, &mut txn, writes);
        model.commit_unvalidated(txn);
    };
    for writes in &schedule.history {
        commit_writes(&mut model, writes);
    }

    let mut pending = model.begin();
    for read in &schedule.reads {
        match *read {
            Read::Get { k } => {
                pending.get(&model, "kv", k);
            }
            Read::ScanEqV { v } => pending.scan("kv", move |_, val| val == v),
            Read::ScanGeK { k } => pending.scan("kv", move |key, _| key >= k),
            Read::ScanRange { lo, hi } => pending.scan("kv", move |key, _| lo <= key && key <= hi),
        }
    }
    model_writes(&model, &mut pending, &schedule.writes);

    for writes in &schedule.concurrent {
        commit_writes(&mut model, writes);
    }

    let outcome = match model.commit(pending) {
        Verdict::Committed => Outcome::Committed,
        Verdict::WriteConflict { .. } => Outcome::WriteConflict,
        Verdict::ReadConflict { .. } => Outcome::SerializationFailure,
    };
    (outcome, model.contents("kv"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The change-log validator (with its full-scan fallback) accepts and
    /// rejects exactly the schedules the full-history model does, leaving
    /// identical final states.
    #[test]
    fn changelog_validation_is_decision_equivalent_to_full_scan(
        schedule in schedule_strategy()
    ) {
        let (outcome, state) = run_schedule(&new_db(), &schedule);
        let (model_outcome, model_state) = run_model(&schedule);
        prop_assert_eq!(
            &outcome, &model_outcome,
            "validation decision diverged for {:?}", schedule
        );
        prop_assert_eq!(state, model_state);
    }

    /// A transaction whose predicates are untouched by concurrent writes
    /// always commits under the O(Δ) path (no spurious aborts from the
    /// change log seeing unrelated rows).
    #[test]
    fn unrelated_concurrent_writes_never_abort(
        touched in prop::collection::vec(0i64..6, 1..6)
    ) {
        let db = new_db();
        commit_writes(&db, &[Write::Put { k: 100, v: 1 }]).unwrap();

        let mut pending = db.begin();
        // Reads confined to the high key range.
        let _ = pending.scan("kv", &Predicate::ge("k", 100i64)).unwrap();
        // Concurrent writes confined to the low key range.
        for k in touched {
            commit_writes(&db, &[Write::Put { k, v: 0 }]).unwrap();
        }
        pending.update("kv", &Key::single(100i64), row![100i64, 2i64]).unwrap();
        prop_assert!(pending.commit().is_ok());
    }
}

/// Concurrent committers under the default (change-log) validator: the
/// classic counter increment must never lose an update, and commit
/// timestamps must stay strictly monotone.
#[test]
fn concurrent_increments_never_lose_updates() {
    const THREADS: i64 = 8;
    const INCREMENTS: i64 = 30;

    let db = new_db();
    commit_writes(&db, &[Write::Put { k: 0, v: 0 }]).unwrap();

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let db = db.clone();
            std::thread::spawn(move || {
                for _ in 0..INCREMENTS {
                    loop {
                        let mut txn = db.begin();
                        let current = txn.get("kv", &Key::single(0i64)).unwrap().unwrap()[1]
                            .as_int()
                            .unwrap();
                        txn.update("kv", &Key::single(0i64), row![0i64, current + 1])
                            .unwrap();
                        match txn.commit() {
                            Ok(_) => break,
                            Err(e) if e.is_retryable() => continue,
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let final_value = db.get_latest("kv", &Key::single(0i64)).unwrap().unwrap()[1]
        .as_int()
        .unwrap();
    assert_eq!(
        final_value,
        THREADS * INCREMENTS,
        "no increment may be lost"
    );

    let log = db.log_entries();
    for pair in log.windows(2) {
        assert!(pair[0].commit_ts < pair[1].commit_ts);
    }
}

/// Concurrent committers with *predicate* reads: threads insert into
/// disjoint key ranges while each transaction validates a scan over its
/// own range, so every commit exercises the change-log path under
/// contention for the commit lock. Mid-run GC exercises the fallback.
#[test]
fn concurrent_predicate_committers_with_gc() {
    const THREADS: i64 = 6;
    const PER_THREAD: i64 = 25;

    let db = new_db();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = db.clone();
            std::thread::spawn(move || {
                let base = t * 1000;
                for i in 0..PER_THREAD {
                    loop {
                        let mut txn = db.begin();
                        // Predicate read over this thread's own range: the
                        // count must equal the rows inserted so far, which
                        // no other thread can disturb.
                        let seen = txn
                            .scan(
                                "kv",
                                &Predicate::ge("k", base).and(Predicate::lt("k", base + 1000)),
                            )
                            .unwrap()
                            .len();
                        assert_eq!(seen as i64, i, "thread {t} sees its own prefix");
                        txn.insert("kv", row![base + i, t]).unwrap();
                        match txn.commit() {
                            Ok(_) => break,
                            Err(e) if e.is_retryable() => continue,
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                    if i == PER_THREAD / 2 && t == 0 {
                        // Raise every table's change-log low-water mark in
                        // the middle of the run.
                        db.gc_before(db.current_ts());
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(
        db.scan_latest("kv", &Predicate::True).unwrap().len() as i64,
        THREADS * PER_THREAD
    );
}
