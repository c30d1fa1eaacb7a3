//! Decision-equivalence of every scan access path.
//!
//! The scan planner may serve a predicate from a primary-key probe, an
//! index point probe, an `IN (...)` multi-probe, an index range probe,
//! or the full chain walk. Whatever it picks, the result set must be
//! *identical* to the
//! full scan's — at the latest timestamp and at every time-travel
//! timestamp, across updates that move rows away from indexed values,
//! deletes, GC, and predicates (`Or` / `Not`) whose index paths would
//! under-approximate and must therefore be bypassed.
//!
//! Two oracles pin this down:
//!
//! * within one indexed database, `TableStore::scan_at` (planned) must
//!   equal `TableStore::scan_at_full` (forced full scan);
//! * an indexed and an index-free database fed the same history must
//!   answer every `scan_as_of` identically.
//!
//! Indexes are maintained lazily — caught up from the table's change log
//! when a read needs them, rebuilt from the version chains when the log
//! no longer reaches back far enough — so the last two tests drive that
//! path: unprobed stretches, a commit that wraps the change-log ring,
//! GC, writing forks, and readers racing writers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use trod_db::changelog::DEFAULT_CAPACITY;
use trod_db::{
    row, ChangeRecord, DataType, Database, Key, Predicate, Row, ScanPlan, Schema, Ts, Value,
};

fn schema() -> Schema {
    Schema::builder()
        .column("k", DataType::Int)
        .column("v", DataType::Int)
        .column("g", DataType::Int)
        .primary_key(&["k"])
        .build()
        .unwrap()
}

fn new_db(indexed: bool) -> Database {
    let db = Database::new();
    db.create_table("t", schema()).unwrap();
    if indexed {
        db.create_index("t", "g").unwrap();
        db.create_index("t", "v").unwrap();
    }
    db
}

/// One write in a generated batch (one committed transaction per batch).
#[derive(Debug, Clone)]
enum Op {
    Put { k: i64, v: i64, g: i64 },
    Delete { k: i64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Three put arms to one delete arm: histories grow, with enough
    // deletes to tombstone index entries.
    let put = || (0i64..24, 0i64..40, 0i64..6).prop_map(|(k, v, g)| Op::Put { k, v, g });
    prop_oneof![
        put(),
        put(),
        put(),
        (0i64..24).prop_map(|k| Op::Delete { k }),
    ]
}

/// Applies one batch as a single committed transaction; upsert semantics
/// keep generation simple (puts of live keys become updates — the case
/// that moves rows away from indexed values).
fn apply_batch(db: &Database, batch: &[Op]) {
    let mut txn = db.begin_with(trod_db::IsolationLevel::ReadCommitted);
    for op in batch {
        match op {
            Op::Put { k, v, g } => {
                let key = Key::single(*k);
                if txn.get("t", &key).unwrap().is_some() {
                    txn.update("t", &key, row![*k, *v, *g]).unwrap();
                } else {
                    txn.insert("t", row![*k, *v, *g]).unwrap();
                }
            }
            Op::Delete { k } => {
                txn.delete("t", &Key::single(*k)).unwrap();
            }
        }
    }
    txn.commit().unwrap();
}

/// Predicates covering every planner path: the primary key `k` pinned
/// by equality (to an INT or the equal FLOAT) or `IN (...)`, index
/// equality and `IN (...)` on `g`, range windows / one-sided bounds /
/// equality on the indexed `v`, plus `And`/`Or`/`Not` combinations
/// that force the planner to intersect bounds or bypass indexes entirely.
fn leaf_strategy() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        (0i64..24).prop_map(|k| Predicate::eq("k", k)),
        (0i64..48).prop_map(|k| Predicate::eq("k", k as f64 / 2.0)),
        prop::collection::vec(0i64..24, 0..4)
            .prop_map(|ks| { Predicate::in_list("k", ks.into_iter().map(Value::Int).collect()) }),
        (0i64..6).prop_map(|g| Predicate::eq("g", g)),
        prop::collection::vec(0i64..6, 0..4)
            .prop_map(|gs| { Predicate::in_list("g", gs.into_iter().map(Value::Int).collect()) }),
        (0i64..40, 0i64..20)
            .prop_map(|(lo, w)| Predicate::ge("v", lo).and(Predicate::lt("v", lo + w))),
        (0i64..40).prop_map(|v| Predicate::le("v", v)),
        (0i64..40).prop_map(|v| Predicate::eq("v", v)),
        (0i64..40).prop_map(|v| Predicate::ne("v", v)),
        Just(Predicate::True),
    ]
}

fn pred_strategy() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        leaf_strategy(),
        (leaf_strategy(), leaf_strategy(), 0u8..4).prop_map(|(a, b, c)| match c {
            0 => a.and(b),
            1 => a.or(b),
            2 => a.negate(),
            _ => a.and(b.negate()),
        }),
    ]
}

proptest! {
    // `PROPTEST_CASES`, when set, replaces the default count: CI runs
    // this oracle at more cases than the rest of the suite.
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(128)
    ))]

    #[test]
    fn every_planner_path_equals_the_full_scan(
        batches in prop::collection::vec(prop::collection::vec(op_strategy(), 1..8), 1..10),
        preds in prop::collection::vec(pred_strategy(), 1..5),
        gc_after in 0usize..12,
    ) {
        let indexed = new_db(true);
        let plain = new_db(false);
        // Identical single-threaded histories allocate identical commit
        // timestamps, so as-of reads line up across the two databases.
        let mut boundaries: Vec<Ts> = vec![0];
        for (i, batch) in batches.iter().enumerate() {
            apply_batch(&indexed, batch);
            apply_batch(&plain, batch);
            prop_assert_eq!(indexed.current_ts(), plain.current_ts());
            boundaries.push(indexed.current_ts());
            if i + 1 == gc_after {
                // GC purges dead index entries; reads below the horizon
                // are no longer comparable, so drop those boundaries.
                indexed.gc_before(indexed.current_ts());
                plain.gc_before(plain.current_ts());
                boundaries.clear();
                boundaries.push(indexed.current_ts());
            }
        }
        boundaries.push(indexed.current_ts() + 5);

        let table = indexed.table("t").unwrap();
        for pred in &preds {
            for &ts in &boundaries {
                // Oracle 1: planned path vs forced full scan, same store.
                let planned = table.scan_at(pred, ts).unwrap();
                let full = table.scan_at_full(pred, ts).unwrap();
                prop_assert_eq!(&planned, &full, "planned != full for [{}] at ts {}", pred, ts);
                prop_assert_eq!(table.count_matching_at(pred, ts).unwrap(), full.len());
                // Oracle 2: indexed vs index-free database.
                let a = indexed.scan_as_of("t", pred, ts).unwrap();
                let b = plain.scan_as_of("t", pred, ts).unwrap();
                prop_assert_eq!(a, b, "indexed != plain for [{}] at ts {}", pred, ts);
            }
        }
    }
}

/// `Or` / `Not` predicates must bypass every index: any probe derived
/// from one branch would under-approximate the other.
#[test]
fn or_and_not_force_the_full_scan_path() {
    let db = new_db(true);
    for i in 0..50i64 {
        let mut txn = db.begin();
        txn.insert("t", row![i, i, i % 5]).unwrap();
        txn.commit().unwrap();
    }
    let table = db.table("t").unwrap();
    for pred in [
        Predicate::eq("g", 1i64).or(Predicate::eq("g", 2i64)),
        Predicate::ge("v", 45i64).or(Predicate::eq("g", 0i64)),
        Predicate::eq("g", 1i64).negate(),
        Predicate::ge("v", 45i64).negate(),
        Predicate::in_list("g", vec![Value::Int(1)]).negate(),
    ] {
        assert_eq!(
            table.plan_scan(&pred),
            ScanPlan::FullScan { rows: 50 },
            "[{pred}] must not use an index"
        );
        assert_eq!(
            table.scan_at(&pred, db.current_ts()).unwrap(),
            table.scan_at_full(&pred, db.current_ts()).unwrap()
        );
    }
    // The same constraints as conjuncts DO use indexes — and agree.
    for pred in [
        Predicate::eq("g", 1i64).and(Predicate::eq("g", 2i64)),
        Predicate::ge("v", 45i64).and(Predicate::eq("g", 0i64)),
    ] {
        assert!(table.plan_scan(&pred).uses_index(), "[{pred}]");
        assert_eq!(
            table.scan_at(&pred, db.current_ts()).unwrap(),
            table.scan_at_full(&pred, db.current_ts()).unwrap()
        );
    }
}

/// Rows updated away from an indexed value stay reachable below the
/// update and invisible at it, through point and range probes.
#[test]
fn updates_away_from_indexed_values_respect_time_travel() {
    let db = new_db(true);
    let mut txn = db.begin();
    txn.insert("t", row![1i64, 10i64, 3i64]).unwrap();
    txn.commit().unwrap();
    let before = db.current_ts();
    let mut txn = db.begin();
    txn.update("t", &Key::single(1i64), row![1i64, 30i64, 4i64])
        .unwrap();
    txn.commit().unwrap();
    let after = db.current_ts();

    let table = db.table("t").unwrap();
    for (pred, hits_before, hits_after) in [
        (Predicate::eq("g", 3i64), 1, 0),
        (Predicate::eq("g", 4i64), 0, 1),
        (Predicate::le("v", 15i64), 1, 0),
        (Predicate::ge("v", 20i64), 0, 1),
    ] {
        for (ts, expected) in [(before, hits_before), (after, hits_after)] {
            let got = db.scan_as_of("t", &pred, ts).unwrap();
            assert_eq!(got.len(), expected, "[{pred}] at ts {ts}");
            assert_eq!(got, table.scan_at_full(&pred, ts).unwrap());
        }
    }
}

/// Planner choices surface through `plan_scan` for every path kind, and
/// in-list probes merge candidates across elements.
#[test]
fn planner_exercises_every_path_kind() {
    let db = new_db(true);
    let mut txn = db.begin();
    for i in 0..200i64 {
        txn.insert("t", row![i, i, i % 10]).unwrap();
    }
    txn.commit().unwrap();
    let table = db.table("t").unwrap();

    let point = Predicate::eq("g", 7i64);
    assert!(matches!(
        table.plan_scan(&point),
        ScanPlan::PointProbe { .. }
    ));
    assert_eq!(table.scan_at(&point, db.current_ts()).unwrap().len(), 20);

    let multi = Predicate::in_list("g", vec![Value::Int(1), Value::Int(2)]);
    assert!(matches!(
        table.plan_scan(&multi),
        ScanPlan::MultiProbe { probes: 2, .. }
    ));
    assert_eq!(table.scan_at(&multi, db.current_ts()).unwrap().len(), 40);

    let range = Predicate::ge("v", 190i64);
    assert!(matches!(
        table.plan_scan(&range),
        ScanPlan::RangeProbe { .. }
    ));
    assert_eq!(table.scan_at(&range, db.current_ts()).unwrap().len(), 10);

    // A pinned primary key beats every index that also applies.
    let key = Predicate::eq("k", 7i64).and(Predicate::eq("g", 7i64));
    assert_eq!(
        db.plan_scan("t", &key),
        Ok(ScanPlan::KeyProbe { candidates: 1 })
    );
    assert_eq!(table.scan_at(&key, db.current_ts()).unwrap().len(), 1);
    let keys = Predicate::in_list("k", vec![Value::Int(3), Value::Float(4.0), Value::Int(3)]);
    assert_eq!(table.plan_scan(&keys), ScanPlan::KeyProbe { candidates: 3 });
    assert_eq!(table.scan_at(&keys, db.current_ts()).unwrap().len(), 2);

    assert_eq!(
        table.plan_scan(&Predicate::True),
        ScanPlan::FullScan { rows: 200 }
    );
}

/// A key probe is exact at every read timestamp: a key deleted and later
/// re-inserted is found in each of its lives and in neither gap.
#[test]
fn key_probes_follow_a_key_through_delete_and_reinsert() {
    let db = new_db(true);
    let key = Key::single(5i64);
    let mut stamps = Vec::new();
    for step in 0..4i64 {
        let mut txn = db.begin();
        // A bystander row per step keeps the probe cheaper than the walk.
        txn.insert("t", row![100 + step, 0i64, 0i64]).unwrap();
        if step % 2 == 0 {
            txn.insert("t", row![5i64, step, 1i64]).unwrap();
        } else {
            txn.delete("t", &key).unwrap();
        }
        txn.commit().unwrap();
        stamps.push(db.current_ts());
    }
    let table = db.table("t").unwrap();
    let pred = Predicate::eq("k", 5i64);
    assert_eq!(table.plan_scan(&pred), ScanPlan::KeyProbe { candidates: 1 });
    let lives: Vec<Option<i64>> = std::iter::once(0)
        .chain(stamps)
        .map(|ts| {
            let hits = table.scan_at(&pred, ts).unwrap();
            assert_eq!(hits, table.scan_at_full(&pred, ts).unwrap(), "at ts {ts}");
            assert_eq!(table.count_matching_at(&pred, ts).unwrap(), hits.len());
            hits.first().map(|(_, row)| row[1].as_int().unwrap())
        })
        .collect();
    assert_eq!(lives, vec![None, Some(0), None, Some(2), None]);
}

/// One step of a lazily indexed table's history. A `usize` draw picks a
/// timestamp among those GC has left readable (see `readable`).
#[derive(Debug, Clone)]
enum Step {
    /// One committed batch; nothing reads the indexes.
    Commit(Vec<Op>),
    /// Planned scan vs full scan at a drawn read timestamp.
    Probe(Predicate, usize),
    /// GC at the present: the change log is truncated under the indexes.
    Gc,
    /// A fork at a drawn timestamp, written in batches (first writes seed
    /// rows from the parent) and probed after each batch.
    Fork(usize, Vec<Vec<Op>>, Vec<Predicate>),
}

/// Draws for picking among a history's timestamps.
const DRAW: std::ops::Range<usize> = 0..1 << 20;

fn step_strategy() -> impl Strategy<Value = Step> {
    let batch = || prop::collection::vec(op_strategy(), 1..8);
    let commit = move || batch().prop_map(Step::Commit);
    let probe = || (pred_strategy(), DRAW).prop_map(|(pred, at)| Step::Probe(pred, at));
    let fork = (
        DRAW,
        prop::collection::vec(batch(), 1..4),
        prop::collection::vec(pred_strategy(), 1..3),
    )
        .prop_map(|(at, batches, preds)| Step::Fork(at, batches, preds));
    prop_oneof![
        commit(),
        commit(),
        commit(),
        probe(),
        probe(),
        probe(),
        Just(Step::Gc),
        fork
    ]
}

/// A timestamp in `[floor, current + 1]`: what GC at `floor` left
/// readable, and one past the present.
fn readable(db: &Database, floor: Ts, draw: usize) -> Ts {
    floor + (draw % (db.current_ts() - floor + 2) as usize) as Ts
}

/// First key of the rows the ring-wrapping commit inserts, clear of the
/// generated keys.
const WIDE_BASE: i64 = 1_000;

/// The records of a commit one entry wider than the change-log ring, and
/// of the commit that deletes those rows again. Built once: the row
/// images are shared, so each history only pays for installing them.
fn wide_commits() -> &'static (Vec<ChangeRecord>, Vec<ChangeRecord>) {
    static WIDE: OnceLock<(Vec<ChangeRecord>, Vec<ChangeRecord>)> = OnceLock::new();
    WIDE.get_or_init(|| {
        let table: Arc<str> = Arc::from("t");
        (0..=DEFAULT_CAPACITY as i64)
            .map(|i| {
                let k = WIDE_BASE + i;
                let image = Arc::new(row![k, k % 40, k % 6]) as Arc<Row>;
                (
                    ChangeRecord::insert(table.clone(), Key::single(k), image.clone()),
                    ChangeRecord::delete(table.clone(), Key::single(k), image),
                )
            })
            .unzip()
    })
}

/// Planned scan, counting walk and full scan agree on `db`'s table `t`.
fn assert_probe(db: &Database, pred: &Predicate, ts: Ts) -> Result<(), TestCaseError> {
    let table = db.table("t").unwrap();
    let full = table.scan_at_full(pred, ts).unwrap();
    prop_assert_eq!(
        &table.scan_at(pred, ts).unwrap(),
        &full,
        "planned != full for [{}] at ts {}",
        pred,
        ts
    );
    prop_assert_eq!(table.count_matching_at(pred, ts).unwrap(), full.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(128)
    ))]

    #[test]
    fn lazily_caught_up_indexes_equal_the_full_scan(
        steps in prop::collection::vec(step_strategy(), 1..16),
        wide_at in DRAW,
        wide_pred in pred_strategy(),
    ) {
        let db = new_db(true);
        // Reads at or above the floor see what GC left intact.
        let mut floor: Ts = 0;
        let wide_at = wide_at % (steps.len() + 1);
        for (i, step) in steps.iter().enumerate() {
            if i == wide_at {
                // Build the index, then outgrow the ring: one commit
                // wider than it, and the next commit's append evicts that
                // commit's entries, so the probe after finds the log no
                // longer reaching back to the index and rebuilds it.
                assert_probe(&db, &Predicate::eq("g", 1i64), db.current_ts())?;
                let (inserts, deletes) = wide_commits();
                let wide_ts = db.apply_changes(inserts).unwrap().commit_ts;
                db.apply_changes(deletes).unwrap();
                prop_assert!(db.table("t").unwrap().changelog().low_water() >= wide_ts);
                assert_probe(&db, &Predicate::eq("g", 1i64).and(wide_pred.clone()), wide_ts)?;
                // Reclaim the wide rows so the rest of the history stays
                // cheap to check.
                db.gc_before(db.current_ts());
                floor = db.current_ts();
            }
            match step {
                Step::Commit(batch) => apply_batch(&db, batch),
                Step::Probe(pred, at) => assert_probe(&db, pred, readable(&db, floor, *at))?,
                Step::Gc => {
                    db.gc_before(db.current_ts());
                    floor = db.current_ts();
                }
                Step::Fork(at, batches, preds) => {
                    let fork = db.fork_at(readable(&db, floor, *at)).unwrap();
                    let base = fork.current_ts();
                    // Every group of the indexed `g` besides the drawn
                    // predicates: a seeded row must stay findable under
                    // its parent's value until the write that seeded it.
                    let groups: Vec<Predicate> = (0..6i64).map(|g| Predicate::eq("g", g)).collect();
                    for batch in batches {
                        apply_batch(&fork, batch);
                        for pred in preds.iter().chain(&groups) {
                            for ts in base..=fork.current_ts() + 1 {
                                assert_probe(&fork, pred, ts)?;
                            }
                        }
                    }
                    // The parent is untouched by the fork's writes.
                    for pred in preds {
                        assert_probe(&db, pred, db.current_ts())?;
                    }
                }
            }
        }
    }
}

/// Readers probe the index while writers commit: each read at a
/// published timestamp returns every row visible there, the rows the
/// index had not caught up with yet included.
#[test]
fn readers_racing_writers_miss_no_visible_row() {
    const WRITERS: i64 = 2;
    const COMMITS: i64 = 2_000;
    let db = new_db(true);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let db = &db;
                scope.spawn(move || {
                    for i in 0..COMMITS {
                        // Keys cycle, so later commits update rows and
                        // move them between `g` groups and `v` values.
                        let k = w * 1_000 + i % 40;
                        let mut txn = db.begin_with(trod_db::IsolationLevel::ReadCommitted);
                        let image = row![k, i % 37, (i + w) % 6];
                        if txn.get("t", &Key::single(k)).unwrap().is_some() {
                            if i % 5 == 0 {
                                txn.delete("t", &Key::single(k)).unwrap();
                            } else {
                                txn.update("t", &Key::single(k), image).unwrap();
                            }
                        } else {
                            txn.insert("t", image).unwrap();
                        }
                        txn.commit().unwrap();
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2i64)
            .map(|r| {
                let (db, done) = (&db, &done);
                scope.spawn(move || {
                    let table = db.table("t").unwrap();
                    let mut probes = 0;
                    while !done.load(Ordering::Relaxed) || probes == 0 {
                        let ts = db.current_ts();
                        let g = (probes + r) % 6;
                        for pred in [
                            Predicate::eq("g", g),
                            Predicate::ge("v", g * 5).and(Predicate::lt("v", g * 5 + 8)),
                        ] {
                            let planned = db.scan_as_of("t", &pred, ts).unwrap();
                            let full = table.scan_at_full(&pred, ts).unwrap();
                            assert_eq!(planned, full, "[{pred}] at ts {ts}");
                        }
                        probes += 1;
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        for reader in readers {
            reader.join().unwrap();
        }
    });
    let table = db.table("t").unwrap();
    let pred = Predicate::eq("g", 0i64);
    assert_eq!(
        table.scan_at(&pred, db.current_ts()).unwrap(),
        table.scan_at_full(&pred, db.current_ts()).unwrap()
    );
}
