//! Durable commit benchmark: group commit across sync modes and thread
//! counts, plus recovery time vs log size.
//!
//! With the WAL attached, the coordinator appends each aligned log entry
//! inside the publication window but defers the fsync past the commit
//! locks, so every commit that lands in the same flush window shares ONE
//! `fsync` — throughput under concurrent committers scales with threads
//! instead of serializing behind the disk.
//!
//! Shapes, each at 1/2/4/8 threads against one shared WAL:
//!
//! * `group/sync`   — `SyncMode::Sync` (fsync per group)
//! * `group/flush`  — write-through without fsync
//! * `group/cached` — buffered appends, spilled in 64 KiB chunks
//!
//! The WAL lives under the workspace `target/` directory — NOT in
//! `/tmp`, which is commonly tmpfs and would turn `fsync` into a no-op
//! and the comparison into noise.
//!
//! `recovery/` benches `Database::open_durable` against pre-built logs
//! of increasing length: recovery cost must stay linear in log bytes.
//!
//! PR 9 additions: `group/sync/roll` measures the same 8-thread group
//! commit with a segment bound small enough to roll several times per
//! round (rotation overhead must hide inside the group-commit window),
//! and `recovery_segments/` recovers the SAME history split across
//! 1/4/16 segment files (per-commit recovery cost must stay within 2×
//! of single-segment).
//!
//! PR 10 addition: `recovery_checkpoint/` recovers the same 4096-commit
//! update-heavy history with and without an environment checkpoint at
//! its head — the checkpoint boot must come in ≥ 5× faster than full
//! replay.
//!
//! `crc32/<len>` checksums one buffer of 64 B (the shortest input the
//! carry-less-multiply kernel takes), 8 KiB (a large commit frame) and
//! 1 MiB (a recovery read), reported in bytes per second.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use trod_db::wal::crc32;
use trod_db::{row, DataType, Database, Schema, SyncMode, WalOptions};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const COMMITS_PER_THREAD: usize = 64;

fn items_schema() -> Schema {
    Schema::builder()
        .column("id", DataType::Int)
        .column("val", DataType::Int)
        .primary_key(&["id"])
        .build()
        .unwrap()
}

/// A fresh WAL path under the workspace target dir (real filesystem).
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

fn wal_opts(mode: SyncMode, segment_bytes: u64) -> WalOptions {
    WalOptions {
        sync_mode: mode,
        segment_bytes,
        // Automatic checkpoints off: these benches measure the commit
        // and replay paths themselves; `recovery_checkpoint` below
        // forces its checkpoint explicitly.
        checkpoint_bytes: 0,
    }
}

fn durable_db(path: &std::path::Path, opts: WalOptions) -> Database {
    let db = Database::create_durable(path, opts).expect("create durable db");
    for t in 0..THREAD_COUNTS[THREAD_COUNTS.len() - 1] {
        db.create_table(format!("items_{t}"), items_schema())
            .unwrap();
    }
    db
}

/// Total bytes of the log directory: segments, MANIFEST, checkpoints.
fn log_bytes(path: &std::path::Path) -> u64 {
    std::fs::read_dir(path)
        .expect("log dir")
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum()
}

/// One round: `threads` threads, each committing `COMMITS_PER_THREAD`
/// single-row transactions against its own table — disjoint footprints,
/// so the only contention is the shared WAL.
fn run_round(db: &Database, threads: usize, round: usize) {
    let barrier = Barrier::new(threads);
    let barrier = &barrier;
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let table = format!("items_{t}");
                barrier.wait();
                for i in 0..COMMITS_PER_THREAD {
                    let id = (round * COMMITS_PER_THREAD + i) as i64;
                    let mut txn = db.begin();
                    txn.insert(&table, row![id, i as i64]).unwrap();
                    txn.commit().unwrap();
                }
            });
        }
    });
}

fn bench_group_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_commit/throughput");
    // Real fsyncs: keep samples small, give each config a fixed budget.
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    for (mode_name, opts) in [
        ("group/sync", wal_opts(SyncMode::Sync, 0)),
        ("group/flush", wal_opts(SyncMode::Flush, 0)),
        ("group/cached", wal_opts(SyncMode::Cached, 0)),
        // Segment-roll overhead: a bound small enough that every round
        // rolls the active segment several times.
        ("group/sync/roll", wal_opts(SyncMode::Sync, 16 << 10)),
    ] {
        for &threads in &THREAD_COUNTS {
            let path = wal_path("throughput");
            let db = durable_db(&path, opts);
            let mut round = 0usize;
            group.throughput(Throughput::Elements((threads * COMMITS_PER_THREAD) as u64));
            group.bench_function(
                BenchmarkId::new(mode_name, format!("threads_{threads}")),
                |b| {
                    b.iter(|| {
                        round += 1;
                        run_round(&db, threads, round);
                    })
                },
            );
            drop(db);
            let _ = std::fs::remove_dir_all(&path);
        }
    }
    group.finish();
}

/// Builds a log of `commits` single-row transactions at the given
/// segment bound and returns its path.
fn build_log(tag: &str, commits: usize, segment_bytes: u64) -> std::path::PathBuf {
    let path = wal_path(tag);
    // Flush mode: write-through without fsync — fast to build, and the
    // rotation path (which seals on sync/flush boundaries) still runs.
    let db = durable_db(&path, wal_opts(SyncMode::Flush, segment_bytes));
    for i in 0..commits {
        let mut txn = db.begin();
        txn.insert("items_0", row![i as i64, i as i64]).unwrap();
        txn.commit().unwrap();
    }
    db.wal().unwrap().flush().unwrap();
    path
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_commit/recovery");
    group.sample_size(10);
    for commits in [256usize, 1024, 4096] {
        let path = build_log("recovery", commits, 0);
        group.throughput(Throughput::Bytes(log_bytes(&path)));
        group.bench_function(
            BenchmarkId::new("open_durable", format!("commits_{commits}")),
            |b| {
                b.iter(|| {
                    let (db, report) =
                        Database::open_durable(&path, WalOptions::default()).unwrap();
                    assert_eq!(report.commits, commits);
                    db
                })
            },
        );
        let _ = std::fs::remove_dir_all(&path);
    }
    group.finish();
}

/// Recovery of the SAME history split across 1, 4 and 16 segments: the
/// manifest walk and per-file validation must not blow up recovery cost
/// (acceptance bound: within 2× of single-segment per commit).
fn bench_recovery_segments(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_commit/recovery_segments");
    group.sample_size(10);
    const COMMITS: usize = 1024;

    // Size the bounds off the real single-segment byte count.
    let single = build_log("recseg_probe", COMMITS, 0);
    let total = log_bytes(&single);
    let _ = std::fs::remove_dir_all(&single);

    for target in [1u64, 4, 16] {
        let segment_bytes = if target == 1 { 0 } else { total / target };
        let path = build_log("recseg", COMMITS, segment_bytes);
        group.throughput(Throughput::Elements(COMMITS as u64));
        group.bench_function(
            BenchmarkId::new("open_durable", format!("segments_{target}")),
            |b| {
                b.iter(|| {
                    let (db, report) =
                        Database::open_durable(&path, WalOptions::default()).unwrap();
                    assert_eq!(report.commits, COMMITS);
                    db
                })
            },
        );
        let _ = std::fs::remove_dir_all(&path);
    }
    group.finish();
}

/// Builds a log of `commits` single-row transactions cycling over
/// `keys` primary keys (inserts, then updates) — live state stays at
/// `keys` rows while history grows, the shape that makes checkpoints
/// O(state) against replay's O(history).
fn build_update_log(
    tag: &str,
    commits: usize,
    keys: usize,
    segment_bytes: u64,
) -> std::path::PathBuf {
    let path = wal_path(tag);
    let db = durable_db(&path, wal_opts(SyncMode::Flush, segment_bytes));
    let mut handles = Vec::with_capacity(keys);
    for i in 0..commits {
        let mut txn = db.begin();
        if i < keys {
            handles.push(txn.insert("items_0", row![i as i64, i as i64]).unwrap());
        } else {
            let key = &handles[i % keys];
            txn.update("items_0", key, row![(i % keys) as i64, i as i64])
                .unwrap();
        }
        txn.commit().unwrap();
    }
    db.wal().unwrap().flush().unwrap();
    path
}

/// Recovery of the SAME 4096-commit history with and without an
/// environment checkpoint at its head (PR 10): a checkpoint boot
/// restores the snapshot and replays only the WAL tail after it —
/// O(state at the checkpoint) + O(delta since) instead of O(history).
/// The workload cycles 4096 commits over 512 keys, the update-heavy
/// shape long-lived environments converge to. The bar: `checkpoint`
/// ≥ 5× faster than `full_replay`.
fn bench_recovery_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_commit/recovery_checkpoint");
    group.sample_size(10);
    const COMMITS: usize = 4096;
    const KEYS: usize = 512;
    const SEGMENT_BYTES: u64 = 8 << 10;

    for (mode, with_checkpoint) in [("full_replay", false), ("checkpoint", true)] {
        let path = build_update_log("recovery_ckpt", COMMITS, KEYS, SEGMENT_BYTES);
        if with_checkpoint {
            // Force one checkpoint at the head of the history, exactly
            // what the automatic cadence would have done at its last
            // boundary.
            let (db, _) = Database::open_durable(&path, WalOptions::default()).unwrap();
            db.checkpoint()
                .expect("checkpoint write")
                .expect("checkpoint taken");
        }
        group.throughput(Throughput::Elements(COMMITS as u64));
        group.bench_function(BenchmarkId::new(mode, format!("commits_{COMMITS}")), |b| {
            b.iter(|| {
                let (db, report) = Database::open_durable(&path, WalOptions::default()).unwrap();
                if with_checkpoint {
                    assert!(report.checkpoint_ts.is_some(), "boot used the checkpoint");
                } else {
                    assert_eq!(report.commits, COMMITS);
                }
                db
            })
        });
        let _ = std::fs::remove_dir_all(&path);
    }
    group.finish();
}

/// The checksum every log, checkpoint and manifest frame carries, over
/// one buffer per size.
fn bench_crc32(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_commit/crc32");
    for len in [64usize, 8 << 10, 1 << 20] {
        let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_function(BenchmarkId::from_parameter(len), |b| {
            b.iter(|| crc32(black_box(&data)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_group_commit,
    bench_recovery,
    bench_recovery_segments,
    bench_recovery_checkpoint,
    bench_crc32
);
criterion_main!(benches);
