//! Read-scaling benchmark: lock-free serializable readers (SSI) on a
//! 90/10 read/write workload over hot shared tables.
//!
//! Each `hot_reads` benchmark runs T threads; every transaction performs
//! nine point reads against two *shared* hot tables (the 90%) and one
//! update against the thread's *private* table (the 10%), all at
//! serializable isolation. The database is durable, its log fsyncs
//! taking 500 µs off-CPU (`trod_bench::durable_db`; reads are free — the
//! workload measures commit-path contention, not buffer-pool latency).
//! Reads take no commit locks — they are validated inside the
//! publication window instead — and every commit waits for its group
//! fsync after releasing its locks, so commits on disjoint private
//! tables share fsyncs and throughput scales with the thread count even
//! on one core.
//!
//! The bar: 8 threads ≥ 4× 1 thread. (The 2PL read-locking baseline
//! this replaced stayed flat as threads were added. `BENCH_PR7.json`'s
//! ~7.9× came from a simulated fsync slept with the locks held and is
//! not comparable.) The hot tables are never written during a round, so
//! SSI validation never aborts — the benchmark isolates the locking
//! cost, not the abort rate.

use std::sync::Barrier;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use trod_bench::durable_db;
use trod_db::{row, DataType, Database, Key, Schema};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const COMMITS_PER_THREAD: usize = 16;
const HOT_TABLES: usize = 2;
const HOT_ROWS: i64 = 64;
const READS_PER_TXN: usize = 9;

fn schema() -> Schema {
    Schema::builder()
        .column("id", DataType::Int)
        .column("val", DataType::Int)
        .primary_key(&["id"])
        .build()
        .unwrap()
}

fn hot_name(h: usize) -> String {
    format!("hot_{h}")
}

fn private_name(t: usize) -> String {
    format!("private_{t}")
}

/// A durable database with `HOT_TABLES` shared hot tables and one
/// private table per thread. Reads cost nothing; commits wait for a
/// 500 µs group fsync off-CPU, which is what lets disjoint commits
/// overlap on a single core — the regime the paper's Postgres-backed
/// deployments live in.
fn bench_db(threads: usize) -> Database {
    let db = durable_db();
    for h in 0..HOT_TABLES {
        let name = hot_name(h);
        db.create_table(&name, schema()).unwrap();
        let mut txn = db.begin();
        for i in 0..HOT_ROWS {
            txn.insert(&name, row![i, i]).unwrap();
        }
        txn.commit().unwrap();
    }
    for t in 0..threads {
        let name = private_name(t);
        db.create_table(&name, schema()).unwrap();
        let mut txn = db.begin();
        txn.insert(&name, row![0i64, 0i64]).unwrap();
        txn.commit().unwrap();
    }
    db
}

/// One round: `threads` threads, each committing `COMMITS_PER_THREAD`
/// serializable transactions of nine hot-table point reads and one
/// private-table update.
fn run_round(db: &Database, threads: usize) {
    let barrier = Barrier::new(threads);
    let barrier = &barrier;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let db = db.clone();
            scope.spawn(move || {
                let private = private_name(t);
                barrier.wait();
                for i in 0..COMMITS_PER_THREAD {
                    loop {
                        let mut txn = db.begin();
                        for r in 0..READS_PER_TXN {
                            let table = hot_name(r % HOT_TABLES);
                            let id = ((t * 31 + i * 7 + r) as i64) % HOT_ROWS;
                            let hit = txn.get(&table, &Key::single(id)).unwrap();
                            assert!(hit.is_some());
                        }
                        txn.update(&private, &Key::single(0i64), row![0i64, i as i64])
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
    // Trim the version history the round accumulated so every measured
    // round sees the same table shape.
    db.gc_before(db.current_ts());
}

fn bench_hot_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("read_scaling/hot_reads");
    group.sample_size(10);
    for &threads in &THREAD_COUNTS {
        let db = bench_db(threads);
        group.throughput(Throughput::Elements((threads * COMMITS_PER_THREAD) as u64));
        group.bench_function(BenchmarkId::new("ssi", format!("threads_{threads}")), |b| {
            b.iter(|| run_round(&db, threads))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hot_reads);
criterion_main!(benches);
