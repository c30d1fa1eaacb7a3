//! The sharded commit protocol under multi-table schedules and threads.
//!
//! Commits take per-table commit locks, claim timestamps from a global
//! atomic allocator and publish in timestamp order ("The commit
//! protocol" in `crates/db/DESIGN.md`). These tests pin the properties
//! that protocol must preserve:
//!
//! * a property test drives randomly generated multi-table schedules
//!   (2–4 tables, reads and writes spread across them, concurrent
//!   committers in between) against the engine and against the serial
//!   full-history reference model (`support/model.rs`), and requires
//!   identical commit decisions and identical final states;
//! * stress tests hammer disjoint and overlapping table sets from 8
//!   threads and check that snapshot reads never observe a torn
//!   multi-table commit (a conserved cross-table sum), that commit
//!   timestamps are dense and strictly monotone in the log, and that
//!   per-table change logs stay commit-ordered;
//! * watermark tests pin the active-transaction registry semantics:
//!   GC clamps to `min_active_start_ts`, so an active transaction's
//!   snapshot survives aggressive truncation and its O(Δ) validation
//!   window is never cut;
//! * a durable commit waits for its group fsync after releasing its
//!   table locks, so a commit parked in the fsync blocks no other commit.

use std::collections::BTreeMap;
use std::io::BufRead;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use trod_db::{
    row, DataType, Database, DbError, IsolationLevel, Key, LogDir, LogFile, MemDir, Predicate,
    Schema, StorageError, SyncMode, Ts, WalOptions,
};
use trod_query::QueryEngine;

#[path = "support/model.rs"]
mod model;
use model::{Model, ModelTxn, Verdict};

const TABLES: [&str; 4] = ["t0", "t1", "t2", "t3"];

fn kv_schema() -> Schema {
    Schema::builder()
        .column("k", DataType::Int)
        .column("v", DataType::Int)
        .primary_key(&["k"])
        .build()
        .unwrap()
}

fn new_db(tables: usize) -> Database {
    let db = Database::new();
    for name in &TABLES[..tables] {
        db.create_table(*name, kv_schema()).unwrap();
    }
    db
}

/// One write in a generated transaction: `(table, key, value)`.
#[derive(Debug, Clone)]
enum Write {
    Put { t: usize, k: i64, v: i64 },
    Delete { t: usize, k: i64 },
}

/// One read the pending transaction performs before the concurrent
/// committers run.
#[derive(Debug, Clone)]
enum Read {
    Get { t: usize, k: i64 },
    ScanEqV { t: usize, v: i64 },
    ScanGeK { t: usize, k: i64 },
}

/// A generated multi-table schedule; see `run_schedule`.
#[derive(Debug, Clone)]
struct Schedule {
    tables: usize,
    history: Vec<Vec<Write>>,
    reads: Vec<Read>,
    writes: Vec<Write>,
    concurrent: Vec<Vec<Write>>,
    /// Run watermark-clamped `gc_before(current_ts)` after this many
    /// concurrent commits (if in range).
    gc_after: usize,
}

fn write_strategy(tables: usize, key_space: i64) -> impl Strategy<Value = Write> {
    prop_oneof![
        (0..tables, 0..key_space, 0..50i64).prop_map(|(t, k, v)| Write::Put { t, k, v }),
        (0..tables, 0..key_space).prop_map(|(t, k)| Write::Delete { t, k }),
    ]
}

fn read_strategy(tables: usize, key_space: i64) -> impl Strategy<Value = Read> {
    prop_oneof![
        (0..tables, 0..key_space).prop_map(|(t, k)| Read::Get { t, k }),
        (0..tables, 0..50i64).prop_map(|(t, v)| Read::ScanEqV { t, v }),
        (0..tables, 0..key_space).prop_map(|(t, k)| Read::ScanGeK { t, k }),
    ]
}

fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    // Table indices are generated over the full 0..4 range and reduced
    // modulo the schedule's table count when the schedule runs (the
    // vendored proptest stub has no `prop_flat_map` to thread the count
    // through the sub-strategies).
    let key_space = 8i64;
    (
        2usize..=4,
        prop::collection::vec(
            prop::collection::vec(write_strategy(TABLES.len(), key_space), 1..4),
            0..5,
        ),
        prop::collection::vec(read_strategy(TABLES.len(), key_space), 1..5),
        prop::collection::vec(write_strategy(TABLES.len(), key_space), 0..4),
        prop::collection::vec(
            prop::collection::vec(write_strategy(TABLES.len(), key_space), 1..4),
            0..6,
        ),
        0usize..8,
    )
        .prop_map(|(tables, history, reads, writes, concurrent, gc_after)| {
            let clamp_w = |w: Write| match w {
                Write::Put { t, k, v } => Write::Put {
                    t: t % tables,
                    k,
                    v,
                },
                Write::Delete { t, k } => Write::Delete { t: t % tables, k },
            };
            let clamp_r = |r: Read| match r {
                Read::Get { t, k } => Read::Get { t: t % tables, k },
                Read::ScanEqV { t, v } => Read::ScanEqV { t: t % tables, v },
                Read::ScanGeK { t, k } => Read::ScanGeK { t: t % tables, k },
            };
            let clamp_txn = |txn: Vec<Write>| txn.into_iter().map(clamp_w).collect::<Vec<_>>();
            Schedule {
                tables,
                history: history.into_iter().map(clamp_txn).collect(),
                reads: reads.into_iter().map(clamp_r).collect(),
                writes: writes.into_iter().map(clamp_w).collect(),
                concurrent: concurrent.into_iter().map(clamp_txn).collect(),
                gc_after,
            }
        })
}

fn commit_writes(db: &Database, writes: &[Write]) -> Result<(), DbError> {
    let mut txn = db.begin_with(IsolationLevel::ReadCommitted);
    for w in writes {
        match w {
            Write::Put { t, k, v } => {
                let key = Key::single(*k);
                if txn.get(TABLES[*t], &key)?.is_some() {
                    txn.update(TABLES[*t], &key, row![*k, *v])?;
                } else {
                    txn.insert(TABLES[*t], row![*k, *v])?;
                }
            }
            Write::Delete { t, k } => {
                txn.delete(TABLES[*t], &Key::single(*k))?;
            }
        }
    }
    txn.commit()?;
    Ok(())
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    Committed,
    SerializationFailure,
    WriteConflict,
    OtherError(String),
}

/// Runs the schedule: history commits, then a pending serializable
/// transaction reads and buffers writes across multiple tables, then the
/// concurrent transactions commit (with optional mid-window GC), then the
/// pending transaction attempts to commit. Returns its outcome plus the
/// final per-table states.
fn run_schedule(db: &Database, s: &Schedule) -> (Outcome, Vec<BTreeMap<i64, i64>>) {
    for writes in &s.history {
        commit_writes(db, writes).unwrap();
    }

    let mut pending = db.begin_with(IsolationLevel::Serializable);
    for read in &s.reads {
        match read {
            Read::Get { t, k } => {
                let _ = pending.get(TABLES[*t], &Key::single(*k)).unwrap();
            }
            Read::ScanEqV { t, v } => {
                let _ = pending.scan(TABLES[*t], &Predicate::eq("v", *v)).unwrap();
            }
            Read::ScanGeK { t, k } => {
                let _ = pending.scan(TABLES[*t], &Predicate::ge("k", *k)).unwrap();
            }
        }
    }
    for w in &s.writes {
        match w {
            Write::Put { t, k, v } => {
                let key = Key::single(*k);
                if pending.get(TABLES[*t], &key).unwrap().is_some() {
                    pending.update(TABLES[*t], &key, row![*k, *v]).unwrap();
                } else {
                    pending.insert(TABLES[*t], row![*k, *v]).unwrap();
                }
            }
            Write::Delete { t, k } => {
                pending.delete(TABLES[*t], &Key::single(*k)).unwrap();
            }
        }
    }

    for (i, writes) in s.concurrent.iter().enumerate() {
        commit_writes(db, writes).unwrap();
        if i + 1 == s.gc_after {
            // Aggressive truncation request; the watermark clamps it at
            // the pending transaction's snapshot, so its reads and its
            // O(Δ) validation window survive.
            db.gc_before(db.current_ts());
        }
    }

    let outcome = match pending.commit() {
        Ok(_) => Outcome::Committed,
        Err(DbError::SerializationFailure { .. }) => Outcome::SerializationFailure,
        Err(DbError::WriteConflict { .. }) => Outcome::WriteConflict,
        Err(other) => Outcome::OtherError(other.to_string()),
    };

    let state = TABLES[..s.tables]
        .iter()
        .map(|t| {
            db.scan_latest(t, &Predicate::True)
                .unwrap()
                .into_iter()
                .map(|(_, r)| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
                .collect()
        })
        .collect();
    (outcome, state)
}

fn model_writes(model: &Model, txn: &mut ModelTxn, writes: &[Write]) {
    for w in writes {
        match w {
            Write::Put { t, k, v } => txn.put(model, TABLES[*t], *k, *v),
            Write::Delete { t, k } => txn.delete(model, TABLES[*t], *k),
        }
    }
}

/// The same schedule against the reference model (GC is an engine-only
/// event: the model never forgets history).
fn run_model(s: &Schedule) -> (Outcome, Vec<BTreeMap<i64, i64>>) {
    let mut model = Model::new();
    let commit_writes = |model: &mut Model, writes: &[Write]| {
        let mut txn = model.begin();
        model_writes(model, &mut txn, writes);
        model.commit_unvalidated(txn);
    };
    for writes in &s.history {
        commit_writes(&mut model, writes);
    }

    let mut pending = model.begin();
    for read in &s.reads {
        match *read {
            Read::Get { t, k } => {
                pending.get(&model, TABLES[t], k);
            }
            Read::ScanEqV { t, v } => pending.scan(TABLES[t], move |_, val| val == v),
            Read::ScanGeK { t, k } => pending.scan(TABLES[t], move |key, _| key >= k),
        }
    }
    model_writes(&model, &mut pending, &s.writes);

    for writes in &s.concurrent {
        commit_writes(&mut model, writes);
    }

    let outcome = match model.commit(pending) {
        Verdict::Committed => Outcome::Committed,
        Verdict::WriteConflict { .. } => Outcome::WriteConflict,
        Verdict::ReadConflict { .. } => Outcome::SerializationFailure,
    };
    let state = TABLES[..s.tables]
        .iter()
        .map(|t| model.contents(t))
        .collect();
    (outcome, state)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The sharded commit path accepts and rejects exactly the
    /// multi-table schedules the serial full-history model does, leaving
    /// identical final states.
    #[test]
    fn multi_table_commits_are_decision_equivalent_across_modes(
        schedule in schedule_strategy()
    ) {
        let (outcome, state) = run_schedule(&new_db(schedule.tables), &schedule);
        let (model_outcome, model_state) = run_model(&schedule);
        prop_assert_eq!(&outcome, &model_outcome, "engine vs model diverged for {:?}", schedule);
        prop_assert_eq!(state, model_state);
    }

    /// Mid-schedule GC with an active multi-table transaction never
    /// forces the full-scan fallback: the watermark keeps every table's
    /// change-log low-water mark at or below the pending snapshot.
    #[test]
    fn watermark_keeps_validation_windows_intact(
        schedule in schedule_strategy()
    ) {
        let db = new_db(schedule.tables);
        let snapshot_floor = {
            for writes in &schedule.history {
                commit_writes(&db, writes).unwrap();
            }
            let mut pending = db.begin();
            let _ = pending.scan(TABLES[0], &Predicate::True).unwrap();
            let start_ts = pending.start_ts();
            for writes in &schedule.concurrent {
                commit_writes(&db, writes).unwrap();
            }
            db.gc_before(db.current_ts());
            for t in &TABLES[..schedule.tables] {
                let low = db.table(t).unwrap().changelog().low_water();
                prop_assert!(
                    low <= start_ts,
                    "table {} low water {} passed active snapshot {}",
                    t, low, start_ts
                );
            }
            drop(pending);
            start_ts
        };
        // With the transaction gone, the same request truncates freely.
        db.gc_before(db.current_ts());
        let low = db.table(TABLES[0]).unwrap().changelog().low_water();
        prop_assert!(low >= snapshot_floor);
    }
}

/// 8 threads transfer value between per-thread slots of 4 tables —
/// sometimes disjoint pairs, sometimes overlapping — while 2 reader
/// threads take serializable snapshots of everything and assert the
/// cross-table sum is conserved. A torn (half-published) commit would
/// break the sum; a non-atomic multi-table publication would too.
#[test]
fn snapshot_reads_never_see_torn_multi_table_commits() {
    const WRITERS: usize = 8;
    const ROUNDS: usize = 60;
    const SLOT_INIT: i64 = 100;

    let db = new_db(4);
    for table in TABLES {
        let mut txn = db.begin_with(IsolationLevel::ReadCommitted);
        for slot in 0..WRITERS as i64 {
            txn.insert(table, row![slot, SLOT_INIT]).unwrap();
        }
        txn.commit().unwrap();
    }
    let expected_total = 4 * WRITERS as i64 * SLOT_INIT;

    let done = Arc::new(AtomicBool::new(false));
    // Parties: WRITERS writers + 2 readers + the orchestrating thread.
    let barrier = Arc::new(Barrier::new(WRITERS + 3));

    std::thread::scope(|scope| {
        let mut writers = Vec::new();
        for w in 0..WRITERS {
            let db = db.clone();
            let barrier = barrier.clone();
            writers.push(scope.spawn(move || {
                barrier.wait();
                let slot = Key::single(w as i64);
                for round in 0..ROUNDS {
                    // Rotate over table pairs: some rounds are disjoint
                    // from other threads' pairs, some overlap.
                    let src = (w + round) % 4;
                    let dst = (w + round + 1 + round % 3) % 4;
                    if src == dst {
                        continue;
                    }
                    loop {
                        let mut txn = db.begin();
                        let a = txn.get(TABLES[src], &slot).unwrap().unwrap()[1]
                            .as_int()
                            .unwrap();
                        let b = txn.get(TABLES[dst], &slot).unwrap().unwrap()[1]
                            .as_int()
                            .unwrap();
                        txn.update(TABLES[src], &slot, row![w as i64, a - 1])
                            .unwrap();
                        txn.update(TABLES[dst], &slot, row![w as i64, b + 1])
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
            let db = db.clone();
            let barrier = barrier.clone();
            let done = done.clone();
            scope.spawn(move || {
                barrier.wait();
                while !done.load(Ordering::Relaxed) {
                    // A read-only serializable transaction: all four scans
                    // read the same snapshot.
                    let mut txn = db.begin();
                    let mut total = 0i64;
                    for table in TABLES {
                        for (_, row) in txn.scan(table, &Predicate::True).unwrap() {
                            total += row[1].as_int().unwrap();
                        }
                    }
                    assert_eq!(
                        total, expected_total,
                        "snapshot saw a torn multi-table commit"
                    );
                    txn.commit().unwrap();
                }
            });
        }
        // Release everyone, join the writers, then stop the readers.
        barrier.wait();
        for handle in writers {
            handle.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
    });

    let final_total: i64 = (0..4)
        .map(|t| {
            db.scan_latest(TABLES[t], &Predicate::True)
                .unwrap()
                .iter()
                .map(|(_, r)| r[1].as_int().unwrap())
                .sum::<i64>()
        })
        .sum();
    assert_eq!(final_total, expected_total, "transfers conserve the total");

    // Commit timestamps in the log are strictly increasing and dense
    // enough to account for every commit exactly once.
    let log = db.log_entries();
    for pair in log.windows(2) {
        assert!(pair[0].commit_ts < pair[1].commit_ts);
    }
}

/// Fully disjoint commit traffic: 4 writer tables, 8 threads (two per
/// table), every commit validates a predicate scan over its own table.
/// All commits must succeed on first attempt or retry cleanly, timestamps
/// must be unique and dense, and each table's change log commit-ordered.
#[test]
fn disjoint_table_committers_make_progress_and_stay_ordered() {
    const PER_THREAD: i64 = 40;

    let db = new_db(4);
    let barrier = Arc::new(Barrier::new(8));

    std::thread::scope(|scope| {
        for thread in 0..8usize {
            let db = db.clone();
            let barrier = barrier.clone();
            scope.spawn(move || {
                let table = TABLES[thread % 4];
                let base = (thread as i64) * 1_000;
                barrier.wait();
                for i in 0..PER_THREAD {
                    loop {
                        let mut txn = db.begin();
                        let mine = txn
                            .scan(
                                table,
                                &Predicate::ge("k", base).and(Predicate::lt("k", base + 1_000)),
                            )
                            .unwrap()
                            .len();
                        assert_eq!(mine as i64, i, "thread sees exactly its own prefix");
                        txn.insert(table, row![base + i, thread as i64]).unwrap();
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

    let total: usize = (0..4)
        .map(|t| db.scan_latest(TABLES[t], &Predicate::True).unwrap().len())
        .sum();
    assert_eq!(total, 8 * PER_THREAD as usize);
    assert_eq!(db.log_len(), 8 * PER_THREAD as usize);

    // Global log: strictly increasing, dense (no holes: every allocated
    // timestamp was published).
    let log = db.log_entries();
    for pair in log.windows(2) {
        assert_eq!(
            pair[0].commit_ts + 1,
            pair[1].commit_ts,
            "commit timestamps are dense"
        );
    }

    // Per-table change logs are commit-ordered.
    for table in TABLES {
        let store = db.table(table).unwrap();
        let mut last = 0;
        store
            .changelog()
            .scan_after(0, |entry| {
                assert!(entry.commit_ts >= last, "change log out of order");
                last = entry.commit_ts;
                None::<()>
            })
            .unwrap();
    }
}

/// The registry tracks begin/commit/abort/drop, and GC clamps to the
/// watermark: an active transaction's snapshot survives `gc_before`
/// called far above it.
#[test]
fn gc_clamps_to_the_active_transaction_watermark() {
    let db = new_db(1);
    commit_writes(&db, &[Write::Put { t: 0, k: 1, v: 10 }]).unwrap();

    assert_eq!(db.min_active_start_ts(), None);
    let mut reader = db.begin();
    let snap = reader.start_ts();
    assert_eq!(db.min_active_start_ts(), Some(snap));
    assert_eq!(db.active_txn_count(), 1);

    // Later history the reader must not see, plus a deletion of the row
    // version it *must* still see.
    commit_writes(&db, &[Write::Put { t: 0, k: 1, v: 99 }]).unwrap();
    commit_writes(&db, &[Write::Put { t: 0, k: 2, v: 7 }]).unwrap();

    // Aggressive GC request: clamped at the reader's snapshot. History at
    // or below the snapshot is collectable; everything above it is pinned.
    let (versions, logs) = db.gc_before(db.current_ts());
    assert_eq!(versions, 0, "no version visible at the snapshot is dropped");
    assert_eq!(logs, 1, "only the pre-snapshot log entry is collectable");
    assert_eq!(
        db.history(snap, Ts::MAX).unwrap().len(),
        2,
        "log entries above the snapshot survive"
    );

    let seen = reader.get(TABLES[0], &Key::single(1i64)).unwrap().unwrap();
    assert_eq!(seen[1].as_int(), Some(10), "snapshot read survives GC");
    // The reader's serializable commit validates its read against the
    // intact change log (and aborts, because k=1 changed after snap).
    reader
        .update(TABLES[0], &Key::single(1i64), row![1i64, 11i64])
        .unwrap();
    assert!(matches!(
        reader.commit(),
        Err(DbError::SerializationFailure { .. }) | Err(DbError::WriteConflict { .. })
    ));

    // Transaction finished: registry empty, and the same GC now truncates.
    assert_eq!(db.min_active_start_ts(), None);
    let (versions, _) = db.gc_before(db.current_ts());
    assert!(versions > 0, "GC proceeds once the watermark lifts");

    // Abort and drop also deregister.
    let t1 = db.begin();
    let t2 = db.begin();
    assert_eq!(db.active_txn_count(), 2);
    t1.abort();
    assert_eq!(db.active_txn_count(), 1);
    drop(t2);
    assert_eq!(db.active_txn_count(), 0);
}

/// Read-only transactions pin the watermark too (their snapshot reads
/// depend on it) but publish nothing.
#[test]
fn read_only_transactions_pin_but_do_not_publish() {
    let db = new_db(2);
    commit_writes(&db, &[Write::Put { t: 0, k: 1, v: 1 }]).unwrap();
    let ts_before = db.current_ts();

    let mut ro = db.begin();
    let _ = ro.scan(TABLES[0], &Predicate::True).unwrap();
    assert_eq!(db.min_active_start_ts(), Some(ts_before));
    let info = ro.commit().unwrap();
    assert!(info.changes.is_empty());
    assert_eq!(db.current_ts(), ts_before, "read-only commit bumps nothing");
    assert_eq!(db.log_len(), 1);
    assert_eq!(db.min_active_start_ts(), None);
}

/// A gate file operations block on while it is closed: `(open, parked)`.
#[derive(Clone, Default)]
struct Gate(Arc<(Mutex<(bool, usize)>, Condvar)>);

impl Gate {
    fn set_open(&self, open: bool) {
        self.0 .0.lock().unwrap().0 = open;
        self.0 .1.notify_all();
    }

    fn pass(&self) {
        let (state, cv) = &*self.0;
        let mut s = state.lock().unwrap();
        s.1 += 1;
        cv.notify_all();
        while !s.0 {
            s = cv.wait(s).unwrap();
        }
        s.1 -= 1;
    }

    /// Waits (up to ten seconds) until `n` operations are blocked at the
    /// gate.
    fn wait_parked(&self, n: usize) {
        let (state, cv) = &*self.0;
        let s = state.lock().unwrap();
        let _ = cv.wait_timeout_while(s, Duration::from_secs(10), |s| s.1 < n);
    }
}

/// A [`MemDir`] whose file fsyncs — or, with `writes`, file writes —
/// pass through a [`Gate`].
struct GatedDir {
    inner: MemDir,
    gate: Gate,
    writes: bool,
}

struct GatedFile(Box<dyn LogFile>, Gate, bool);

impl LogFile for GatedFile {
    fn write_all(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        if self.2 {
            self.1.pass();
        }
        self.0.write_all(bytes)
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        if !self.2 {
            self.1.pass();
        }
        self.0.sync()
    }

    fn truncate_to(&mut self, len: u64) -> Result<(), StorageError> {
        self.0.truncate_to(len)
    }
}

impl LogDir for GatedDir {
    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.inner.list()
    }

    fn open_read(&self, name: &str) -> Result<Box<dyn BufRead + Send>, StorageError> {
        self.inner.open_read(name)
    }

    fn create(&self, name: &str) -> Result<Box<dyn LogFile>, StorageError> {
        Ok(Box::new(GatedFile(
            self.inner.create(name)?,
            self.gate.clone(),
            self.writes,
        )))
    }

    fn open_append(&self, name: &str) -> Result<Box<dyn LogFile>, StorageError> {
        Ok(Box::new(GatedFile(
            self.inner.open_append(name)?,
            self.gate.clone(),
            self.writes,
        )))
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), StorageError> {
        self.inner.rename(from, to)
    }

    fn delete(&self, name: &str) -> Result<(), StorageError> {
        self.inner.delete(name)
    }

    fn sync_dir(&self) -> Result<(), StorageError> {
        self.inner.sync_dir()
    }
}

/// The durability wait happens after every lock is released: a commit
/// parked in its group fsync holds neither its table's commit lock nor
/// the log's append state, so a second commit to the same table
/// publishes before the first one's fsync returns.
#[test]
fn a_commit_waiting_for_its_fsync_holds_no_table_lock() {
    let gate = Gate::default();
    gate.set_open(true);
    let dir = GatedDir {
        inner: MemDir::new(),
        gate: gate.clone(),
        writes: false,
    };
    let db = Database::create_durable_in(Arc::new(dir), WalOptions::default()).unwrap();
    db.create_table(TABLES[0], kv_schema()).unwrap();
    let put = |k: i64| commit_writes(&db, &[Write::Put { t: 0, k, v: k }]);
    let visible = |k: i64| db.get_latest(TABLES[0], &Key::single(k)).unwrap().is_some();

    gate.set_open(false);
    std::thread::scope(|scope| {
        let first = scope.spawn(|| put(1));
        gate.wait_parked(1);
        let second = scope.spawn(|| put(2));
        let deadline = Instant::now() + Duration::from_secs(10);
        while !visible(2) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let published = (visible(1), visible(2));
        let acked = (first.is_finished(), second.is_finished());
        gate.set_open(true);
        first.join().unwrap().unwrap();
        second.join().unwrap().unwrap();
        assert_eq!(published, (true, true), "the second commit published");
        assert_eq!(
            acked,
            (false, false),
            "neither commit acked before its fsync"
        );
    });
}

/// As-of reads clamp to the published clock, through the SQL engine too.
/// Under `SyncMode::Cached` a frame that fills the log's buffer is
/// written to the file inside its commit's publication window; with that
/// write held at the gate, the commit's row is installed but not
/// published, and a read at any timestamp above the clock must see the
/// published state without it.
#[test]
fn as_of_reads_never_see_a_commit_parked_before_publication() {
    let gate = Gate::default();
    gate.set_open(true);
    let dir = GatedDir {
        inner: MemDir::new(),
        gate: gate.clone(),
        writes: true,
    };
    let opts = WalOptions::with_sync_mode(SyncMode::Cached);
    let db = Database::create_durable_in(Arc::new(dir), opts).unwrap();
    let schema = Schema::builder()
        .column("k", DataType::Int)
        .column("body", DataType::Text)
        .primary_key(&["k"])
        .build()
        .unwrap();
    db.create_table("docs", schema).unwrap();
    let mut txn = db.begin();
    txn.insert("docs", row![0i64, "published"]).unwrap();
    txn.commit().unwrap();
    let key = Key::single(1i64);

    gate.set_open(false);
    std::thread::scope(|scope| {
        let parked = scope.spawn(|| {
            let mut txn = db.begin();
            txn.insert("docs", row![1i64, "x".repeat(64 << 10)])
                .unwrap();
            txn.commit()
        });
        gate.wait_parked(1);
        // `Ts::MAX - 1` reads the version store past the clock.
        let table = db.table("docs").unwrap();
        let installed = table.get_at(&key, Ts::MAX - 1).is_some();
        let published = db.current_ts();
        let engine = QueryEngine::new(db.clone());
        let seen: Vec<_> = [Ts::MAX, Ts::MAX - 1]
            .into_iter()
            .map(|ts| {
                let sql = engine.execute_as_of("SELECT k FROM docs", ts);
                (
                    db.get_as_of("docs", &key, ts).unwrap().is_some(),
                    sql.map(|rows| rows.len()),
                )
            })
            .collect();
        gate.set_open(true);
        let commit = parked.join().unwrap().unwrap();
        assert!(installed, "the parked commit installed its row");
        assert!(published < commit.commit_ts, "and did not publish it");
        // (get_as_of, SQL as-of rows) at `Ts::MAX` and at `Ts::MAX - 1`.
        assert_eq!(seen, [(false, Ok(1)), (false, Ok(1))]);
    });
    assert!(db.get_as_of("docs", &key, Ts::MAX).unwrap().is_some());
}
