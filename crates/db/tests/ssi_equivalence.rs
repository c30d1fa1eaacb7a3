//! Decision-equivalence and safety of lock-free serializable readers.
//!
//! The serializable commit path (SSI) takes no locks for read-only
//! footprint resources: reads are validated at commit time, optimistically
//! before the timestamp claim and exactly inside the publication window.
//! These tests prove:
//!
//! * a 128-case property test drives randomly generated schedules of
//!   overlapping serializable transactions against the engine and
//!   against the serial full-history reference model
//!   (`support/model.rs`) — what read locking plus one-commit-at-a-time
//!   full scans would decide — and requires identical per-commit
//!   decisions and identical final table contents (commit *timestamps*
//!   are not compared: an SSI late abort consumes a publication tick);
//! * an 8-thread stress test checks that lock-free readers never
//!   observe a torn multi-table state while writers commit to both
//!   tables atomically;
//! * a write-skew stress test checks that no rw-antidependency abort is
//!   lost: the classic pay-out anomaly that snapshot isolation admits
//!   must still be impossible, within one table and across two (the
//!   second is the one that reaches the in-window re-check).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Barrier;

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

#[derive(Debug, Clone)]
enum Write {
    Put { k: i64, v: i64 },
    Delete { k: i64 },
}

#[derive(Debug, Clone)]
enum Read {
    Get { k: i64 },
    ScanEqV { v: i64 },
    ScanRange { lo: i64, hi: i64 },
}

/// One generated serializable transaction: reads performed at begin
/// time, writes buffered immediately after.
#[derive(Debug, Clone)]
struct TxnSpec {
    reads: Vec<Read>,
    writes: Vec<Write>,
}

/// One event after the overlapping transactions have begun.
#[derive(Debug, Clone)]
enum Event {
    /// Commit the `i`-th pending transaction (attempted once; index taken
    /// modulo the live set).
    CommitPending(usize),
    /// An independent read-committed transaction commits these writes.
    ConcurrentCommit(Vec<Write>),
}

/// A generated schedule: `history` seeds the table, up to four
/// serializable transactions begin and buffer their reads/writes while
/// all overlapping, then `events` interleaves their commits with
/// concurrent writers.
#[derive(Debug, Clone)]
struct Schedule {
    history: Vec<Write>,
    pending: Vec<TxnSpec>,
    events: Vec<Event>,
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
        (0..key_space, 0..key_space).prop_map(|(a, b)| Read::ScanRange {
            lo: a.min(b),
            hi: a.max(b),
        }),
    ]
}

fn txn_strategy(key_space: i64) -> impl Strategy<Value = TxnSpec> {
    (
        prop::collection::vec(read_strategy(key_space), 1..4),
        prop::collection::vec(write_strategy(key_space), 0..3),
    )
        .prop_map(|(reads, writes)| TxnSpec { reads, writes })
}

fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    let key_space = 10i64;
    let event = prop_oneof![
        (0usize..4).prop_map(Event::CommitPending),
        prop::collection::vec(write_strategy(key_space), 1..3).prop_map(Event::ConcurrentCommit),
    ];
    (
        prop::collection::vec(write_strategy(key_space), 0..8),
        prop::collection::vec(txn_strategy(key_space), 1..5),
        prop::collection::vec(event, 1..10),
    )
        .prop_map(|(history, pending, events)| Schedule {
            history,
            pending,
            events,
        })
}

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

/// Normalised per-commit outcome (timestamps deliberately excluded).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    Committed,
    SerializationFailure,
    WriteConflict,
    OtherError(String),
}

/// Runs the schedule and returns (per-event outcomes, final state).
fn run_schedule(db: &Database, schedule: &Schedule) -> (Vec<Outcome>, BTreeMap<i64, i64>) {
    commit_writes(db, &schedule.history).unwrap();

    // Begin every pending transaction and buffer its reads and writes
    // while all of them overlap. Buffered-write constraint errors (e.g.
    // inserting a key another pending transaction also inserts) surface
    // at commit.
    let mut live: Vec<trod_db::Transaction> = Vec::new();
    for spec in &schedule.pending {
        let mut txn = db.begin_with(IsolationLevel::Serializable);
        for read in &spec.reads {
            match read {
                Read::Get { k } => {
                    let _ = txn.get("kv", &Key::single(*k)).unwrap();
                }
                Read::ScanEqV { v } => {
                    let _ = txn.scan("kv", &Predicate::eq("v", *v)).unwrap();
                }
                Read::ScanRange { lo, hi } => {
                    let pred = Predicate::ge("k", *lo).and(Predicate::le("k", *hi));
                    let _ = txn.scan("kv", &pred).unwrap();
                }
            }
        }
        for w in &spec.writes {
            match w {
                Write::Put { k, v } => {
                    let key = Key::single(*k);
                    if txn.get("kv", &key).unwrap().is_some() {
                        txn.update("kv", &key, row![*k, *v]).unwrap();
                    } else {
                        txn.insert("kv", row![*k, *v]).unwrap();
                    }
                }
                Write::Delete { k } => {
                    txn.delete("kv", &Key::single(*k)).unwrap();
                }
            }
        }
        live.push(txn);
    }

    let mut outcomes = Vec::new();
    for event in &schedule.events {
        match event {
            Event::CommitPending(i) => {
                if live.is_empty() {
                    continue;
                }
                let txn = live.remove(i % live.len());
                outcomes.push(match txn.commit() {
                    Ok(_) => Outcome::Committed,
                    Err(DbError::SerializationFailure { .. }) => Outcome::SerializationFailure,
                    Err(DbError::WriteConflict { .. }) => Outcome::WriteConflict,
                    Err(other) => Outcome::OtherError(other.to_string()),
                });
            }
            Event::ConcurrentCommit(writes) => {
                commit_writes(db, writes).unwrap();
            }
        }
    }

    let state = db
        .scan_latest("kv", &Predicate::True)
        .unwrap()
        .into_iter()
        .map(|(_, r)| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
        .collect();
    (outcomes, state)
}

fn model_writes(model: &Model, txn: &mut ModelTxn, writes: &[Write]) {
    for w in writes {
        match w {
            Write::Put { k, v } => txn.put(model, "kv", *k, *v),
            Write::Delete { k } => txn.delete(model, "kv", *k),
        }
    }
}

/// The same schedule against the reference model.
fn run_model(schedule: &Schedule) -> (Vec<Outcome>, BTreeMap<i64, i64>) {
    let mut model = Model::new();
    let commit_writes = |model: &mut Model, writes: &[Write]| {
        let mut txn = model.begin();
        model_writes(model, &mut txn, writes);
        model.commit_unvalidated(txn);
    };
    commit_writes(&mut model, &schedule.history);

    let mut live: Vec<ModelTxn> = Vec::new();
    for spec in &schedule.pending {
        let mut txn = model.begin();
        for read in &spec.reads {
            match *read {
                Read::Get { k } => {
                    txn.get(&model, "kv", k);
                }
                Read::ScanEqV { v } => txn.scan("kv", move |_, val| val == v),
                Read::ScanRange { lo, hi } => txn.scan("kv", move |key, _| lo <= key && key <= hi),
            }
        }
        model_writes(&model, &mut txn, &spec.writes);
        live.push(txn);
    }

    let mut outcomes = Vec::new();
    for event in &schedule.events {
        match event {
            Event::CommitPending(i) => {
                if live.is_empty() {
                    continue;
                }
                let txn = live.remove(i % live.len());
                outcomes.push(match model.commit(txn) {
                    Verdict::Committed => Outcome::Committed,
                    Verdict::WriteConflict { .. } => Outcome::WriteConflict,
                    Verdict::ReadConflict { .. } => Outcome::SerializationFailure,
                });
            }
            Event::ConcurrentCommit(writes) => commit_writes(&mut model, writes),
        }
    }
    (outcomes, model.contents("kv"))
}

proptest! {
    // Explicit case count: this suite is the SSI acceptance gate and must
    // not shrink under a CI-wide PROPTEST_CASES override.
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// SSI accepts and rejects exactly the schedules the serial
    /// full-history model does, leaving identical final states.
    #[test]
    fn ssi_is_decision_equivalent_to_read_locking_and_serial(
        schedule in schedule_strategy()
    ) {
        let (outcomes, state) = run_schedule(&new_db(), &schedule);
        let (model_outcomes, model_state) = run_model(&schedule);
        prop_assert_eq!(
            &outcomes, &model_outcomes,
            "SSI vs model decisions diverged for {:?}", schedule
        );
        prop_assert_eq!(&state, &model_state);
    }
}

/// Lock-free readers under fire: writers atomically update one row in
/// each of two tables to the same value; serializable readers snapshot
/// both and must never see the tables disagree. With pre-publication
/// installs (writes land in storage *before* the publication clock
/// advances) this is exactly the torn-read hazard the clock exists to
/// prevent.
#[test]
fn lock_free_readers_never_see_torn_multi_table_state() {
    const WRITERS: usize = 4;
    const READERS: usize = 4;
    const ROUNDS: i64 = 40;

    let db = new_db();
    db.create_table("mirror", kv_schema()).unwrap();
    let mut seed = db.begin();
    seed.insert("kv", row![0i64, 0i64]).unwrap();
    seed.insert("mirror", row![0i64, 0i64]).unwrap();
    seed.commit().unwrap();

    let barrier = Barrier::new(WRITERS + READERS);
    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let db = db.clone();
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for i in 0..ROUNDS {
                    let v = (t as i64) * ROUNDS + i + 1;
                    loop {
                        let mut txn = db.begin();
                        let cur = txn.get("kv", &Key::single(0i64)).unwrap().unwrap()[1]
                            .as_int()
                            .unwrap();
                        let mir = txn.get("mirror", &Key::single(0i64)).unwrap().unwrap()[1]
                            .as_int()
                            .unwrap();
                        assert_eq!(cur, mir, "writer snapshot must agree");
                        txn.update("kv", &Key::single(0i64), row![0i64, v]).unwrap();
                        txn.update("mirror", &Key::single(0i64), row![0i64, v])
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
        for _ in 0..READERS {
            let db = db.clone();
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for _ in 0..ROUNDS * 4 {
                    loop {
                        let mut txn = db.begin();
                        let a = txn.get("kv", &Key::single(0i64)).unwrap().unwrap()[1]
                            .as_int()
                            .unwrap();
                        let b = txn.get("mirror", &Key::single(0i64)).unwrap().unwrap()[1]
                            .as_int()
                            .unwrap();
                        assert_eq!(a, b, "reader must never observe a torn state");
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

    let a = db.get_latest("kv", &Key::single(0i64)).unwrap().unwrap()[1]
        .as_int()
        .unwrap();
    let b = db
        .get_latest("mirror", &Key::single(0i64))
        .unwrap()
        .unwrap()[1]
        .as_int()
        .unwrap();
    assert_eq!(a, b);
}

/// Write skew: every transaction reads both balances, checks the joint
/// constraint `a + b >= 10`, then decrements only one of them — the
/// canonical anomaly snapshot isolation admits and serializability must
/// reject. If any rw-antidependency abort were lost, two overlapping
/// withdrawals could each see enough balance and drive the sum negative.
#[test]
fn write_skew_is_prevented_under_lock_free_readers() {
    const THREADS: usize = 8;
    const INITIAL: i64 = 200;

    let db = new_db();
    let mut seed = db.begin();
    seed.insert("kv", row![0i64, INITIAL]).unwrap();
    seed.insert("kv", row![1i64, INITIAL]).unwrap();
    seed.commit().unwrap();

    let withdrawals = AtomicI64::new(0);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let db = db.clone();
            let withdrawals = &withdrawals;
            let barrier = &barrier;
            s.spawn(move || {
                // Each thread drains from one account based on parity, so
                // overlapping transactions write different rows and only
                // the read validation can see the conflict.
                let target = (t % 2) as i64;
                barrier.wait();
                loop {
                    let mut txn = db.begin();
                    let a = txn.get("kv", &Key::single(0i64)).unwrap().unwrap()[1]
                        .as_int()
                        .unwrap();
                    let b = txn.get("kv", &Key::single(1i64)).unwrap().unwrap()[1]
                        .as_int()
                        .unwrap();
                    if a + b < 10 {
                        break;
                    }
                    let own = if target == 0 { a } else { b };
                    txn.update("kv", &Key::single(target), row![target, own - 10])
                        .unwrap();
                    match txn.commit() {
                        Ok(_) => {
                            withdrawals.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(e) if e.is_retryable() => continue,
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            });
        }
    });

    let a = db.get_latest("kv", &Key::single(0i64)).unwrap().unwrap()[1]
        .as_int()
        .unwrap();
    let b = db.get_latest("kv", &Key::single(1i64)).unwrap().unwrap()[1]
        .as_int()
        .unwrap();
    assert!(
        a + b >= 0,
        "write skew slipped through: a={a} b={b} (sum {})",
        a + b
    );
    assert_eq!(
        a + b,
        INITIAL * 2 - 10 * withdrawals.load(Ordering::SeqCst),
        "every committed withdrawal must be accounted for exactly once"
    );
}

/// Write skew across two tables: each thread withdraws from its own
/// table and reads the other's balance, so every footprint holds an
/// unlocked read and the in-window re-check of the SSI commit path runs
/// (the one-table stress above locks every table it reads, so it never
/// does). Two withdrawals that pass the optimistic validation together
/// are told apart only by that re-check; without it the sum goes
/// negative in about one round in four, so the test runs enough rounds
/// to catch a lost re-check in a single run.
#[test]
fn write_skew_across_tables_is_caught_by_the_in_window_recheck() {
    const ROUNDS: usize = 40;
    const THREADS: usize = 4;
    const INITIAL: i64 = 100;
    const TABLES: [&str; 2] = ["left", "right"];
    let balance = |txn: &mut trod_db::Transaction, table| {
        txn.get(table, &Key::single(0i64)).unwrap().unwrap()[1]
            .as_int()
            .unwrap()
    };

    for round in 0..ROUNDS {
        let db = Database::new();
        let mut seed = db.begin();
        for table in TABLES {
            db.create_table(table, kv_schema()).unwrap();
            seed.insert(table, row![0i64, INITIAL]).unwrap();
        }
        seed.commit().unwrap();
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (db, barrier) = (&db, &barrier);
                let (own, other) = (TABLES[t % 2], TABLES[1 - t % 2]);
                s.spawn(move || {
                    barrier.wait();
                    loop {
                        let mut txn = db.begin();
                        let mine = balance(&mut txn, own);
                        if mine + balance(&mut txn, other) < 10 {
                            break;
                        }
                        txn.update(own, &Key::single(0i64), row![0i64, mine - 10])
                            .unwrap();
                        match txn.commit() {
                            Ok(_) => {}
                            Err(e) if e.is_retryable() => {}
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                });
            }
        });
        let mut txn = db.begin();
        let sum: i64 = TABLES.map(|table| balance(&mut txn, table)).iter().sum();
        assert!(sum >= 0, "round {round}: write skew left a sum of {sum}");
    }
}

/// SSI aborts and the publication clock: rw-antidependency aborts caught
/// by phase-2 validation (the conflicting commit already published) are
/// *tick-free* — they happen before a timestamp is claimed. Only the
/// in-window late abort burns a tick, and that tick cannot be un-claimed:
/// by the time the re-validation fails, later commits have already
/// claimed higher timestamps and are blocked on the publication clock
/// passing the aborted one, so the claimed timestamp must be published
/// as an empty tick (a fully tick-free abort path is unsound). This test
/// pins the dense-timestamp invariant under abort storms: early aborts
/// move the clock by exactly zero, every burned tick is published
/// exactly once (ticks == commits + late aborts, the clock never skips
/// and never wedges), and the log stays strictly increasing.
#[test]
fn abort_storms_keep_published_timestamps_dense() {
    let db = Database::new();
    db.create_table("kv", kv_schema()).unwrap();
    db.create_table("watch", kv_schema()).unwrap();
    let mut seed = db.begin();
    seed.insert("kv", row![0i64, 0i64]).unwrap();
    seed.insert("watch", row![0i64, 0i64]).unwrap();
    seed.commit().unwrap();

    // Deterministic storm: each round forces one rw-antidependency abort
    // — the victim's unlocked read of `watch` is invalidated by a commit
    // that fully publishes before the victim reaches validation, so
    // phase 2 vetoes it *before* a timestamp is claimed. These early
    // aborts must be tick-free.
    let mut expected_ts = db.current_ts();
    let mut commits = db.log_entries().len();
    for round in 0..32i64 {
        let mut victim = db.begin();
        let _ = victim.get("watch", &Key::single(0i64)).unwrap();
        victim
            .update("kv", &Key::single(0i64), row![0i64, round])
            .unwrap();

        let mut invalidator = db.begin();
        invalidator
            .update("watch", &Key::single(0i64), row![0i64, round])
            .unwrap();
        invalidator.commit().unwrap();
        expected_ts += 1;
        commits += 1;

        let err = victim.commit().expect_err("rw-antidependency must abort");
        assert!(err.is_retryable(), "round {round}: abort is retryable");
        assert_eq!(
            db.current_ts(),
            expected_ts,
            "round {round}: an early-validation abort burns no tick"
        );
        assert_eq!(
            db.log_entries().len(),
            commits,
            "round {round}: aborts leave no log entry"
        );
    }

    // Strictly increasing log despite the interleaved empty ticks.
    let log_ts: Vec<_> = db.log_entries().iter().map(|e| e.commit_ts).collect();
    assert!(
        log_ts.windows(2).all(|w| w[0] < w[1]),
        "log timestamps must stay strictly increasing: {log_ts:?}"
    );

    // The clock is not wedged: the next commit claims and publishes the
    // very next timestamp.
    let mut txn = db.begin();
    txn.update("kv", &Key::single(0i64), row![0i64, -1i64])
        .unwrap();
    let outcome = txn.commit().unwrap();
    assert_eq!(outcome.commit_ts, expected_ts + 1);
    assert_eq!(db.current_ts(), outcome.commit_ts);

    // Concurrent storm: 8 threads race reader-writers against watch
    // updaters so rw-antidependency aborts also land *inside* the
    // publication window, where each one burns exactly one tick.
    // Completion itself proves no publication waiter wedges on an
    // aborted tick; the accounting below proves the clock moved exactly
    // once per commit plus once per late abort — never more.
    const THREADS: usize = 8;
    const ROUNDS: usize = 50;
    let ts_before = db.current_ts();
    let successes = AtomicI64::new(0);
    let aborts = AtomicI64::new(0);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let db = db.clone();
            let (successes, aborts, barrier) = (&successes, &aborts, &barrier);
            s.spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS as i64 {
                    let mut txn = db.begin();
                    if t % 2 == 0 {
                        txn.update("watch", &Key::single(0i64), row![0i64, round])
                            .unwrap();
                    } else {
                        let _ = txn.get("watch", &Key::single(0i64)).unwrap();
                        txn.update("kv", &Key::single(0i64), row![0i64, round])
                            .unwrap();
                    }
                    match txn.commit() {
                        Ok(_) => {
                            successes.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(e) if e.is_retryable() => {
                            aborts.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            });
        }
    });
    let ticks = (db.current_ts() - ts_before) as i64;
    let (successes, aborts) = (
        successes.load(Ordering::SeqCst),
        aborts.load(Ordering::SeqCst),
    );
    assert_eq!(successes + aborts, (THREADS * ROUNDS) as i64);
    assert!(
        ticks >= successes && ticks <= successes + aborts,
        "clock moved {ticks} ticks for {successes} commits + {aborts} aborts: \
         every tick must be one commit or one late abort"
    );
    let final_log: Vec<_> = db.log_entries().iter().map(|e| e.commit_ts).collect();
    assert!(final_log.windows(2).all(|w| w[0] < w[1]));
    let mut txn = db.begin();
    txn.update("kv", &Key::single(0i64), row![0i64, -2i64])
        .unwrap();
    let outcome = txn.commit().unwrap();
    assert_eq!(
        db.current_ts(),
        outcome.commit_ts,
        "post-storm clock catches up to the last published commit"
    );
}
