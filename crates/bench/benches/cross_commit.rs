//! Cross-store commit sharding benchmark: multi-threaded disjoint
//! commit throughput through the one commit protocol (a namespace is the
//! table `kv:<namespace>`), vs a single-global-lock baseline.
//!
//! Two traffic shapes, each at 1/2/4/8 threads:
//!
//! * `kv_disjoint` — KV-only transactions, each thread writing its own
//!   namespace; each commit takes only its `kv:<namespace>` table lock.
//! * `mixed_disjoint` — transactions spanning one private table and one
//!   private namespace per thread: the paper's §5 polyglot shape. The
//!   footprint is `{table, kv:<ns>}`, locked in sorted order; disjoint
//!   footprints validate, install and publish concurrently.
//!
//! Databases mirror `commit_sharding`: `in_memory` measures raw CPU
//! cost; `on_disk` is a durable database whose log fsyncs take 500 µs
//! off-CPU (`trod_bench::durable_db`), each commit waiting for its group
//! fsync after its footprint locks are released — the regime where
//! sharding pays: under the global lock the waits serialize, under
//! sharded locks disjoint commits share group fsyncs. The `global_lock`
//! arm is a bench-local mutex held around every `commit()`.

use std::sync::{Barrier, Mutex};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use trod_bench::durable_db;
use trod_db::{row, DataType, Database, Schema};
use trod_kv::Session;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const COMMITS_PER_THREAD: usize = 32;

fn items_schema() -> Schema {
    Schema::builder()
        .column("id", DataType::Int)
        .column("val", DataType::Int)
        .primary_key(&["id"])
        .build()
        .unwrap()
}

fn session_with(threads: usize, new: fn() -> Database) -> Session {
    let session = Session::new(new());
    for t in 0..threads {
        session
            .database()
            .create_table(format!("items_{t}"), items_schema())
            .unwrap();
        session.create_namespace(&format!("ns_{t}")).unwrap();
    }
    session
}

/// One round: `threads` threads, each committing `COMMITS_PER_THREAD`
/// transactions against its own namespace (and, when `mixed`, its own
/// table too). `global_lock` serializes every commit on one mutex.
fn run_round(
    session: &Session,
    threads: usize,
    round: usize,
    mixed: bool,
    global_lock: Option<&Mutex<()>>,
) {
    let barrier = Barrier::new(threads);
    let barrier = &barrier;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let session = session.clone();
            scope.spawn(move || {
                let table = format!("items_{t}");
                let ns = format!("ns_{t}");
                barrier.wait();
                for i in 0..COMMITS_PER_THREAD {
                    let mut txn = session.begin();
                    if mixed {
                        let id = (round * COMMITS_PER_THREAD + i) as i64;
                        txn.insert(&table, row![id, i as i64]).unwrap();
                    }
                    txn.kv_put(&ns, &format!("k{}", i % 64), &i.to_string())
                        .unwrap();
                    let _serial = global_lock.map(|lock| lock.lock().unwrap());
                    txn.commit().unwrap();
                }
            });
        }
    });
}

fn bench_cross_commit(c: &mut Criterion) {
    for (shape, mixed) in [("kv_disjoint", false), ("mixed_disjoint", true)] {
        let mut group = c.benchmark_group(format!("cross_commit/{shape}"));
        for (storage, new) in [
            ("in_memory", Database::new as fn() -> Database),
            ("on_disk", durable_db),
        ] {
            for &threads in &THREAD_COUNTS {
                let lock = Mutex::new(());
                for (mode, global_lock) in [("sharded", None), ("global_lock", Some(&lock))] {
                    let session = session_with(threads, new);
                    let mut round = 0usize;
                    group.throughput(Throughput::Elements((threads * COMMITS_PER_THREAD) as u64));
                    group.bench_function(
                        BenchmarkId::new(format!("{storage}/{mode}"), format!("threads_{threads}")),
                        |b| {
                            b.iter(|| {
                                round += 1;
                                run_round(&session, threads, round, mixed, global_lock);
                            })
                        },
                    );
                    // Trim accumulated version history between configs.
                    session.gc_before(session.database().current_ts());
                }
            }
        }
        group.finish();
    }
}

criterion_group!(benches, bench_cross_commit);
criterion_main!(benches);
