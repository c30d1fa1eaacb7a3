//! Commit-path sharding benchmark: multi-threaded disjoint-table commit
//! throughput, sharded per-table commit locks vs the old global lock.
//!
//! Each `disjoint_commit` benchmark runs T threads, each committing
//! serializable scan-then-write transactions against its own private
//! table, under two protocols (the engine's sharded commit path, and a
//! `global_lock` baseline in which the bench holds one process-wide
//! mutex around every `commit()` — what a single global commit lock
//! costs) and two databases:
//!
//! * `in_memory` — commits cost ~2 µs of CPU; on a multi-core box the
//!   sharded path scales with cores, on a single-core box both modes are
//!   CPU-bound and flat (the lock is not the bottleneck either way);
//! * `on_disk` — a durable database whose log fsyncs take 500 µs off-CPU
//!   (`trod_bench::durable_db`). Every commit waits for its group fsync
//!   after releasing its table locks. Under the global lock (held through
//!   `commit()`, fsync included) those waits serialize; under sharded
//!   locks the commits on disjoint tables share group fsyncs, so
//!   throughput scales with the thread count even on one core. This is
//!   the regime the paper's Postgres-backed deployments live in (the bar:
//!   ≥ 2× the global-lock baseline at 4 and 8 threads).
//!
//! The `delete_path` group measures the write-path cost of eager
//! secondary-index maintenance on delete (PR 2 satellite): an
//! insert+delete commit pair against a table with and without an index.

use std::sync::{Barrier, Mutex};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use trod_bench::durable_db;
use trod_db::{row, DataType, Database, Key, Predicate, Schema};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const COMMITS_PER_THREAD: usize = 32;
const ROWS_PER_TABLE: usize = 1_000;

fn items_schema() -> Schema {
    Schema::builder()
        .column("id", DataType::Int)
        .column("grp", DataType::Int)
        .column("val", DataType::Int)
        .primary_key(&["id"])
        .build()
        .unwrap()
}

fn table_name(t: usize) -> String {
    format!("items_{t}")
}

/// A database from `new` with `tables` private tables of
/// `ROWS_PER_TABLE` rows each, `grp` indexed so the benchmarked scan is
/// O(1) and the measured cost is the commit path.
fn db_with_tables(tables: usize, new: fn() -> Database) -> Database {
    let db = new();
    for t in 0..tables {
        let name = table_name(t);
        db.create_table(&name, items_schema()).unwrap();
        db.create_index(&name, "grp").unwrap();
        let mut txn = db.begin();
        for i in 0..ROWS_PER_TABLE {
            txn.insert(&name, row![i as i64, (i % 100) as i64, 0i64])
                .unwrap();
        }
        txn.commit().unwrap();
    }
    db
}

/// One round: `threads` threads, each running `COMMITS_PER_THREAD`
/// serializable transactions (an indexed predicate scan that must be
/// phantom-validated, plus one row update) against its own table.
/// `global_lock` serializes every commit on one mutex.
fn run_round(db: &Database, threads: usize, global_lock: Option<&Mutex<()>>) {
    let barrier = Barrier::new(threads);
    let barrier = &barrier;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let db = db.clone();
            scope.spawn(move || {
                let table = table_name(t);
                let pred = Predicate::eq("grp", 1_000_000i64);
                barrier.wait();
                for i in 0..COMMITS_PER_THREAD {
                    let mut txn = db.begin();
                    let hits = txn.scan(&table, &pred).unwrap();
                    assert!(hits.is_empty());
                    let id = ((i * 17) % ROWS_PER_TABLE) as i64;
                    let key = Key::single(id);
                    txn.update(&table, &key, row![id, id % 100, i as i64])
                        .unwrap();
                    let _serial = global_lock.map(|lock| lock.lock().unwrap());
                    txn.commit().unwrap();
                }
            });
        }
    });
    // Trim the version history the round accumulated so every measured
    // round sees the same table shape.
    db.gc_before(db.current_ts());
}

fn bench_disjoint_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("commit_sharding/disjoint_commit");
    for (storage, new) in [
        ("in_memory", Database::new as fn() -> Database),
        ("on_disk", durable_db),
    ] {
        for &threads in &THREAD_COUNTS {
            let db = db_with_tables(threads, new);
            let lock = Mutex::new(());
            for (mode, global_lock) in [("sharded", None), ("global_lock", Some(&lock))] {
                group.throughput(Throughput::Elements((threads * COMMITS_PER_THREAD) as u64));
                group.bench_function(
                    BenchmarkId::new(format!("{storage}/{mode}"), format!("threads_{threads}")),
                    |b| b.iter(|| run_round(&db, threads, global_lock)),
                );
            }
        }
    }
    group.finish();
}

fn bench_delete_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("commit_sharding/delete_path");
    for (name, indexed) in [("no_index", false), ("indexed", true)] {
        let db = Database::new();
        db.create_table("items", items_schema()).unwrap();
        if indexed {
            db.create_index("items", "grp").unwrap();
        }
        let mut txn = db.begin();
        for i in 0..ROWS_PER_TABLE {
            txn.insert("items", row![i as i64, (i % 100) as i64, 0i64])
                .unwrap();
        }
        txn.commit().unwrap();

        let mut round = 0i64;
        group.throughput(Throughput::Elements(2)); // one insert + one delete commit
        group.bench_function(BenchmarkId::new("insert_delete_pair", name), |b| {
            b.iter(|| {
                round += 1;
                let id = 1_000_000 + round;
                let mut ins = db.begin();
                ins.insert("items", row![id, id % 100, round]).unwrap();
                ins.commit().unwrap();
                let mut del = db.begin();
                del.delete("items", &Key::single(id)).unwrap();
                del.commit().unwrap();
            });
        });
        // Keep chains and tombstones from accumulating across samples.
        db.gc_before(db.current_ts());
    }
    group.finish();
}

criterion_group!(benches, bench_disjoint_commit, bench_delete_path);
criterion_main!(benches);
