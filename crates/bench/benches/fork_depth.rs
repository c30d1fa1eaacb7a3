//! Fork cost below the GC floor (PR 10) and above it.
//!
//! A fork below the truncation floor cannot read live MVCC state;
//! it rebuilds the environment from the durable log. Without
//! environment checkpoints that is a replay of every logged commit up to
//! the fork timestamp — cost proportional to the *absolute position* of
//! the fork, so even a fork just below the floor of a long history
//! replays almost everything. With checkpoints, `Trod::fork_at` restores
//! the nearest durable checkpoint at or below the timestamp and replays
//! only the logged delta after it — cost bounded by the checkpoint
//! cadence, however deep the fork.
//!
//! The workload: `HISTORY` single-row commits cycling over `KEYS`
//! primary keys (inserts, then updates — live state stays `KEYS` rows
//! while history grows), GC'd in `CHUNK`-commit steps so the checkpoint
//! retention ladder forms below the floor. Forks at depth 256 / 1024 /
//! 4096 below the floor run against two images of the SAME history, one
//! built with automatic checkpoints and one without.
//!
//! The PR 10 bar: `with_checkpoints` at depth 4096 is ≥ 5× faster than
//! `full_replay` at the same depth.
//!
//! **Above the floor** (`fork_depth/above_floor/{1k,10k,100k}`) a fork
//! copies nothing: it reads through to the parent's version chains. One
//! iteration is what a debugger step does with a fork — take it, read
//! one row, commit one row on it, drop it — against a table of 1k, 10k
//! and 100k rows. The bar, asserted here on interleaved medians: the
//! 100k/1k ratio stays ≤ 2 (a copying fork was linear in the table:
//! ≈ 100).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use trod_core::Trod;
use trod_db::{row, DataType, Database, Key, Schema, SyncMode, WalOptions};
use trod_runtime::{HandlerRegistry, Runtime};

const HISTORY: i64 = 8192;
const KEYS: i64 = 512;
const CHUNK: i64 = 256;
const DEPTHS: [u64; 3] = [256, 1024, 4096];

fn events_schema() -> Schema {
    Schema::builder()
        .column("id", DataType::Int)
        .column("v", DataType::Int)
        .primary_key(&["id"])
        .build()
        .unwrap()
}

/// A fresh WAL directory under the workspace target dir.
fn wal_path(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/bench_wal");
    std::fs::create_dir_all(&dir).expect("create bench WAL dir");
    dir.join(format!(
        "{tag}_{}_{}.wal",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Builds a debugger over a durable environment with `HISTORY` commits
/// below the GC floor, checkpointed at `checkpoint_bytes` cadence (0 =
/// the full-replay baseline). Returns the debugger and the final
/// truncation floor.
fn build_trod(tag: &str, checkpoint_bytes: u64) -> (Trod, std::path::PathBuf, u64) {
    let path = wal_path(tag);
    let opts = WalOptions {
        sync_mode: SyncMode::Cached,
        segment_bytes: 8 << 10,
        checkpoint_bytes,
    };
    let db = Database::create_durable(&path, opts).expect("create durable db");
    db.create_table("events", events_schema()).unwrap();
    let runtime = Runtime::builder(db.clone(), HandlerRegistry::new()).build();
    let trod = Trod::attach(runtime).expect("fresh deployment");

    let mut keys = Vec::with_capacity(KEYS as usize);
    for i in 0..HISTORY {
        let mut txn = db.begin();
        if i < KEYS {
            keys.push(txn.insert("events", row![i, i]).unwrap());
        } else {
            let key = &keys[(i % KEYS) as usize];
            txn.update("events", key, row![i % KEYS, i]).unwrap();
        }
        txn.commit().unwrap();
        // GC in steps: each step raises the floor past the checkpoints
        // taken during the previous chunk, promoting them into the
        // below-floor ladder deep forks restore from.
        if (i + 1) % CHUNK == 0 {
            db.gc_before(db.current_ts());
        }
    }
    let floor = db.log_truncated_below();
    assert!(
        floor as i64 >= HISTORY - CHUNK,
        "history is below the floor"
    );
    if checkpoint_bytes > 0 {
        let stats = db.wal().unwrap().stats();
        assert!(
            stats.checkpoints > 2,
            "the below-floor ladder formed (got {} checkpoints)",
            stats.checkpoints
        );
    }
    (trod, path, floor)
}

fn bench_fork_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("fork_depth/below_floor");
    group.sample_size(10);
    for (mode, checkpoint_bytes) in [("full_replay", 0u64), ("with_checkpoints", 8 << 10)] {
        let (trod, path, floor) = build_trod("fork_depth", checkpoint_bytes);
        for depth in DEPTHS {
            let ts = floor - depth;
            group.bench_function(BenchmarkId::new(mode, format!("depth_{depth}")), |b| {
                b.iter(|| {
                    let session = trod.fork_at(ts).expect("below-floor fork");
                    // The fork is a real environment: its table holds the
                    // full key space as of `ts` (every key was inserted
                    // within the first KEYS commits).
                    let dev = session.database();
                    assert_eq!(dev.current_ts(), ts);
                    let rows = dev.table("events").unwrap().materialize_at(ts).len() as i64;
                    assert_eq!(rows, KEYS);
                    session
                })
            });
        }
        drop(trod);
        let _ = std::fs::remove_dir_all(&path);
    }
    group.finish();
}

/// An in-memory database whose `events` table holds `rows` rows.
fn populated(rows: i64) -> Database {
    let db = Database::new();
    db.create_table("events", events_schema()).unwrap();
    for chunk in 0..rows / 1000 {
        let mut txn = db.begin();
        for i in chunk * 1000..(chunk + 1) * 1000 {
            txn.insert("events", row![i, i]).unwrap();
        }
        txn.commit().unwrap();
    }
    db
}

/// Fork at the present, one point read, one single-row commit, drop.
fn fork_read_commit(db: &Database, id: i64) {
    let fork = db.fork_at(db.current_ts()).expect("above-floor fork");
    let key = Key::single(id);
    black_box(fork.get_latest("events", &key).unwrap());
    let mut txn = fork.begin();
    txn.update("events", &key, row![id, -id]).unwrap();
    txn.commit().unwrap();
}

fn bench_above_floor(c: &mut Criterion) {
    let sizes = [("1k", 1_000i64), ("10k", 10_000), ("100k", 100_000)];
    let dbs: Vec<Database> = sizes.iter().map(|&(_, rows)| populated(rows)).collect();

    // The bar. Rounds interleave the sizes so drift hits all of them
    // alike; medians shrug off the odd preempted sample.
    const ROUNDS: usize = 301;
    let mut samples = vec![Vec::with_capacity(ROUNDS); sizes.len()];
    for round in 0..ROUNDS {
        for (db, samples) in dbs.iter().zip(&mut samples) {
            let started = Instant::now();
            fork_read_commit(db, round as i64);
            samples.push(started.elapsed());
        }
    }
    let median = |samples: &mut Vec<std::time::Duration>| {
        samples.sort_unstable();
        samples[samples.len() / 2].as_secs_f64()
    };
    let (small, large) = (median(&mut samples[0]), median(&mut samples[2]));
    assert!(
        large <= 2.0 * small,
        "a fork of 100k rows costs {:.1}x a fork of 1k ({large:.2e} s vs {small:.2e} s)",
        large / small
    );

    let mut group = c.benchmark_group("fork_depth/above_floor");
    for ((name, rows), db) in sizes.iter().zip(&dbs) {
        let mut next = 0;
        group.bench_function(*name, |b| {
            b.iter(|| {
                next = (next + 1) % rows;
                fork_read_commit(db, next)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fork_depth, bench_above_floor);
criterion_main!(benches);
