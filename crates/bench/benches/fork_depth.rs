//! Deep time-travel fork cost below the GC floor (PR 10).
//!
//! A fork below the truncation floor cannot materialise live MVCC state;
//! it reconstructs the environment from retained history. Without
//! environment checkpoints that is a full stitched replay of every
//! spilled aligned entry up to the fork timestamp — cost proportional to
//! the *absolute position* of the fork, so even a fork just below the
//! floor of a long history replays almost everything. With checkpoints,
//! `Trod::fork_at` restores the nearest durable checkpoint at or below
//! the timestamp and replays only the spilled delta after it — cost
//! bounded by the checkpoint cadence, however deep the fork.
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

use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use trod_core::Trod;
use trod_db::{row, DataType, Database, Schema, SyncMode, WalOptions};
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
/// spilled below the GC floor, checkpointed at `checkpoint_bytes`
/// cadence (0 = the full-replay baseline). Returns the debugger and the
/// final truncation floor.
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
    // Retention BEFORE the first GC: the spill must cover the history
    // from the first commit for below-floor forks to be answerable.
    trod.enable_retention();

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
                    // within the first KEYS commits). The dev clock, not
                    // `ts`, indexes its state: reconstruction allocates
                    // its own timestamps.
                    let dev = session.database();
                    let rows = dev
                        .table("events")
                        .unwrap()
                        .materialize_at(dev.current_ts())
                        .len() as i64;
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

criterion_group!(benches, bench_fork_depth);
criterion_main!(benches);
