//! Crash-safety of the segmented WAL at the database level.
//!
//! The tentpole contracts under test:
//!
//! * **Crash at every cost unit** — a deterministic sweep runs a
//!   workload that performs many rotations, one GC, and
//!   (in the checkpoint variant) an environment checkpoint per commit
//!   over a [`FailpointDir`], crashing after `k` cost units for every
//!   `k` from 0 to the full run's cost (one unit per file byte, one per
//!   metadata operation — create, rename, delete, fsync, directory
//!   fsync). Every crash point must recover into an oracle-equivalent
//!   state containing every acknowledged commit: zero lost durable
//!   commits, no torn state, no panic.
//! * **Recovery equivalence** — a property test drives random workloads
//!   at random segment sizes and checkpoint cadences, crashes by
//!   truncating the persisted image at a random point or flipping a
//!   random bit, and requires recovery to either produce an
//!   oracle-equivalent state or refuse with a typed [`StorageError`] —
//!   never panic, never fabricate state.
//! * **Checkpoint fallback** — a corrupt checkpoint file is skipped in
//!   favour of the next older one, and with all checkpoints damaged
//!   boot degrades to full WAL replay; both paths are counted and
//!   oracle-checked.
//! * **Layout adoption** — a manifest-less directory of `wal-*.seg`
//!   files is adopted in sequence order.
//! * **Streaming walk** — recovery streams the segments it must and
//!   never reads one whole; damage found after earlier records were
//!   replayed fails the boot with the same typed error and leaves the
//!   directory untouched.

use std::io::BufRead;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use trod_db::checkpoint::decode_checkpoint;
use trod_db::wal::{decode_records, encode_frame};
use trod_db::{
    row, CommittedTxn, DataType, Database, DbError, DirFailpointHandle, FailpointDir, LogDir,
    LogFile, MemDir, Replay, Schema, SegmentedWal, StorageError, SyncMode, Ts, WalOptions,
    WalRecord,
};

fn events_schema() -> Schema {
    Schema::builder()
        .column("k", DataType::Int)
        .column("v", DataType::Int)
        .primary_key(&["k"])
        .build()
        .unwrap()
}

fn opts(workload: &Workload) -> WalOptions {
    WalOptions {
        sync_mode: SyncMode::Sync,
        segment_bytes: workload.segment_bytes,
        checkpoint_bytes: workload.checkpoint_bytes,
    }
}

/// One deterministic workload: DDL, `commits` inserts (each one synced
/// commit), optionally a second table created and indexed before commit
/// `late_table_at` (every later commit inserts into it too), and
/// optionally a GC (which raises the floor the log keeps checkpoints
/// below) after commit `gc_after`.
struct Workload {
    segment_bytes: u64,
    commits: i64,
    late_table_at: Option<i64>,
    gc_after: Option<i64>,
    /// Automatic environment-checkpoint cadence in appended WAL bytes
    /// (0 = disabled). `1` forces a checkpoint after every commit, so a
    /// crash sweep crosses every byte of the checkpoint write and its
    /// manifest swap.
    checkpoint_bytes: u64,
}

/// Runs the workload until completion or the first storage failure
/// (= the crash); returns the commit timestamps that were *acknowledged*
/// (fsync succeeded before the crash point).
fn run(workload: &Workload, dir: Arc<dyn LogDir>) -> Vec<Ts> {
    let mut acked = Vec::new();
    let db = match Database::create_durable_in(dir, opts(workload)) {
        Ok(db) => db,
        Err(_) => return acked,
    };
    if db.create_table("events", events_schema()).is_err() {
        return acked;
    }
    for i in 0..workload.commits {
        if workload.late_table_at == Some(i) {
            let ddl = db
                .create_table("late", events_schema())
                .and_then(|()| db.create_index("late", "v"));
            match ddl {
                Ok(()) => {}
                Err(DbError::Storage(_)) => return acked,
                Err(e) => panic!("only storage errors may surface at a crash: {e}"),
            }
        }
        let mut txn = db.begin();
        txn.insert("events", row![i, i * 10]).unwrap();
        if workload.late_table_at.is_some_and(|at| at <= i) {
            txn.insert("late", row![i, i % 3]).unwrap();
        }
        match txn.commit() {
            Ok(outcome) => acked.push(outcome.commit_ts),
            Err(DbError::Storage(_)) => return acked,
            Err(e) => panic!("only storage errors may surface at a crash: {e}"),
        }
        if workload.gc_after == Some(i) {
            // GC truncates the live log; the log keeps every segment, and
            // a crash around it must never lose history.
            let horizon = db.current_ts();
            let _ = db.gc_before(horizon);
        }
    }
    acked
}

/// The same workload against a plain in-memory database (no WAL, no GC):
/// the oracle both the recovered history and the recovered *state* are
/// checked against (its MVCC versions answer `materialize_at` for any
/// horizon).
fn oracle(workload: &Workload) -> (Database, Vec<CommittedTxn>) {
    let db = Database::new();
    db.create_table("events", events_schema()).unwrap();
    for i in 0..workload.commits {
        if workload.late_table_at == Some(i) {
            db.create_table("late", events_schema()).unwrap();
            db.create_index("late", "v").unwrap();
        }
        let mut txn = db.begin();
        txn.insert("events", row![i, i * 10]).unwrap();
        if workload.late_table_at.is_some_and(|at| at <= i) {
            txn.insert("late", row![i, i % 3]).unwrap();
        }
        txn.commit().unwrap();
    }
    let log = db.log_entries();
    (db, log)
}

/// Checks a recovered database against the oracle. A boot without a
/// checkpoint recovers a verbatim oracle *prefix*; a checkpoint boot
/// recovers a *tail* (the log below the checkpoint is collapsed into
/// restored state). Both are covered by the same two facts:
///
/// * the recovered log is a contiguous run of oracle entries ending at
///   the recovered clock, and
/// * the recovered state has the oracle's digest at the recovered clock
///   — so a checkpoint can never smuggle in rows the history does not
///   explain. Under the digest a table the recovered database lacks reads
///   as empty, and one that holds rows has the oracle's indexes.
///
/// The horizon must cover every acknowledged commit.
fn assert_state_matches_oracle(
    db: &Database,
    oracle_db: &Database,
    oracle_log: &[CommittedTxn],
    acked: &[Ts],
    tag: &str,
) {
    let log = db.log_entries();
    assert!(
        log.len() <= oracle_log.len(),
        "{tag}: recovered more than was ever committed"
    );
    if !log.is_empty() {
        let start = oracle_log
            .iter()
            .position(|e| e.commit_ts == log[0].commit_ts)
            .unwrap_or_else(|| panic!("{tag}: recovered entry not in the oracle history"));
        assert!(
            start + log.len() <= oracle_log.len(),
            "{tag}: recovered log runs past the oracle"
        );
        assert_eq!(
            log[..],
            oracle_log[start..start + log.len()],
            "{tag}: contiguous oracle run"
        );
    }
    let horizon = db.current_ts();
    if let Some(last) = log.last() {
        assert_eq!(horizon, last.commit_ts, "{tag}: clock restored");
    }
    assert!(
        horizon <= oracle_log.last().map(|e| e.commit_ts).unwrap_or(0),
        "{tag}: clock past the oracle"
    );
    if let Some(&max_acked) = acked.iter().max() {
        assert!(
            horizon >= max_acked,
            "{tag}: acknowledged commit {max_acked} lost (recovered to {horizon})"
        );
    }
    assert_eq!(
        db.digest_at(horizon),
        oracle_db.digest_at(horizon),
        "{tag}: state at horizon {horizon}"
    );
}

/// Recovers from `image` and checks it against the oracle: every
/// acknowledged commit covered, history a contiguous oracle run, state
/// oracle-equal at the horizon.
fn assert_recovers(
    image: MemDir,
    oracle_db: &Database,
    oracle_log: &[CommittedTxn],
    acked: &[Ts],
    tag: &str,
) {
    let (db, report) = Database::open_durable_in(Arc::new(image), WalOptions::default())
        .unwrap_or_else(|e| panic!("{tag}: a crash leaves a recoverable image, got {e}"));
    assert_state_matches_oracle(&db, oracle_db, oracle_log, acked, tag);
    assert!(report.segments >= 1, "{tag}: at least the active segment");
}

/// The deterministic sweep: crash after every cost unit of the full run.
fn crash_sweep(workload: &Workload, tag: &str) {
    // Counting pass: the unfaulted run fixes the total cost and proves
    // the workload itself is clean.
    let mem = MemDir::new();
    let points = DirFailpointHandle::new();
    let dir: Arc<dyn LogDir> = Arc::new(FailpointDir::new(Arc::new(mem.clone()), points.clone()));
    let all = run(workload, dir);
    assert_eq!(all.len() as i64, workload.commits, "{tag}: counting pass");
    let total = points.cost();
    let (oracle_db, oracle_log) = oracle(workload);
    if workload.checkpoint_bytes > 0 {
        // The sweep is only meaningful if the clean run actually wrote
        // checkpoints for it to crash inside.
        let (_, report) =
            Database::open_durable_in(Arc::new(mem.snapshot()), WalOptions::default())
                .unwrap_or_else(|e| panic!("{tag}: clean image reopens, got {e}"));
        assert!(
            report.checkpoint_ts.is_some(),
            "{tag}: the clean run wrote a checkpoint"
        );
    }
    assert_recovers(
        mem.snapshot(),
        &oracle_db,
        &oracle_log,
        &all,
        &format!("{tag} full"),
    );

    for k in 0..=total {
        let mem = MemDir::new();
        let points = DirFailpointHandle::new();
        points.crash_after(k);
        let dir: Arc<dyn LogDir> =
            Arc::new(FailpointDir::new(Arc::new(mem.clone()), points.clone()));
        let acked = run(workload, dir);
        assert_recovers(
            mem.snapshot(),
            &oracle_db,
            &oracle_log,
            &acked,
            &format!("{tag} crash@{k}"),
        );
    }
}

/// Tiny segment bound: every synced record rolls the active segment, so
/// the sweep crosses every byte of many rotations (segment pre-sync,
/// successor create, directory fsync, manifest temp write, manifest
/// rename), with a GC in the middle.
#[test]
fn crash_at_every_cost_unit_of_rotation_around_gc() {
    crash_sweep(
        &Workload {
            segment_bytes: 1,
            commits: 6,
            late_table_at: None,
            gc_after: Some(3),
            checkpoint_bytes: 0,
        },
        "rot+gc",
    );
}

/// A larger segment bound exercises the crash points of exactly one
/// rotation boundary mid-workload.
#[test]
fn crash_at_every_cost_unit_of_a_single_rotation() {
    crash_sweep(
        &Workload {
            segment_bytes: 200,
            commits: 6,
            late_table_at: None,
            gc_after: None,
            checkpoint_bytes: 0,
        },
        "one-rotation",
    );
}

/// `checkpoint_bytes: 1` forces an environment checkpoint after every
/// commit, so the sweep crosses every byte of each checkpoint write
/// (temp-file body, rename, directory fsync) and of the manifest swap
/// that publishes it — plus the retention pruning of superseded
/// checkpoint files and a GC-triggered checkpoint riding alongside. A
/// crash anywhere inside a checkpoint must leave a boot that either uses
/// an older checkpoint or replays in full — never torn state, never a
/// lost acknowledged commit.
#[test]
fn crash_at_every_cost_unit_of_checkpoint_write_and_manifest_swap() {
    crash_sweep(
        &Workload {
            segment_bytes: 1,
            commits: 5,
            late_table_at: None,
            gc_after: Some(2),
            checkpoint_bytes: 1,
        },
        "checkpoint",
    );
}

/// A corrupt checkpoint is detected by its CRC frame and skipped in
/// favour of the next older one; with every checkpoint damaged, boot
/// falls back to full WAL replay. Either way the recovered state is
/// oracle-equal and the fallback is counted — never silently wrong.
#[test]
fn corrupt_checkpoint_falls_back_to_older_or_full_replay() {
    let workload = Workload {
        segment_bytes: 1,
        commits: 6,
        late_table_at: None,
        gc_after: None,
        checkpoint_bytes: 1,
    };
    let mem = MemDir::new();
    let dir: Arc<dyn LogDir> = Arc::new(mem.clone());
    let acked = run(&workload, dir);
    assert_eq!(acked.len(), 6);
    let (oracle_db, oracle_log) = oracle(&workload);

    let ckpts = |image: &MemDir| {
        let mut names: Vec<String> = image
            .names()
            .into_iter()
            .filter(|n| n.ends_with(".ckpt"))
            .collect();
        names.sort();
        names
    };
    let names = ckpts(&mem.snapshot());
    assert!(
        names.len() >= 2,
        "workload retains at least two checkpoints, got {names:?}"
    );

    // Baseline: the undamaged image boots from the newest checkpoint.
    let (db, report) = Database::open_durable_in(Arc::new(mem.snapshot()), WalOptions::default())
        .expect("clean image boots");
    let newest = report.checkpoint_ts.expect("boot used a checkpoint");
    assert_eq!(report.checkpoint_fallbacks, 0);
    assert_state_matches_oracle(&db, &oracle_db, &oracle_log, &acked, "clean ckpt boot");

    // Flip a byte mid-file in the newest checkpoint: boot must fall back
    // to the older one, count the fallback, and still match the oracle.
    let image = mem.snapshot();
    let newest_name = names.last().unwrap().clone();
    let mut bytes = image.file(&newest_name).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    image.put_file(&newest_name, bytes);
    let (db, report) =
        Database::open_durable_in(Arc::new(image), WalOptions::default()).expect("fallback boots");
    let older = report
        .checkpoint_ts
        .expect("an older checkpoint takes over");
    assert!(older < newest, "fell back past the damaged checkpoint");
    assert!(report.checkpoint_fallbacks >= 1, "fallback is counted");
    assert_state_matches_oracle(&db, &oracle_db, &oracle_log, &acked, "older ckpt boot");

    // Damage every checkpoint: boot degrades to full WAL replay — the
    // complete oracle history, no checkpoint credited.
    let image = mem.snapshot();
    for name in ckpts(&image) {
        let mut bytes = image.file(&name).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        image.put_file(&name, bytes);
    }
    let (db, report) = Database::open_durable_in(Arc::new(image), WalOptions::default())
        .expect("full replay boots");
    assert_eq!(report.checkpoint_ts, None, "no checkpoint survived");
    assert!(report.checkpoint_fallbacks >= 2, "every fallback counted");
    assert_eq!(db.log_entries()[..], oracle_log[..], "full oracle history");
    assert_state_matches_oracle(&db, &oracle_db, &oracle_log, &acked, "full-replay boot");
}

#[test]
fn sealed_segment_damage_is_a_typed_corruption_error() {
    let workload = Workload {
        segment_bytes: 1,
        commits: 5,
        late_table_at: None,
        gc_after: None,
        checkpoint_bytes: 0,
    };
    let mem = MemDir::new();
    let dir: Arc<dyn LogDir> = Arc::new(mem.clone());
    let acked = run(&workload, dir);
    assert_eq!(acked.len(), 5);

    // Damage a byte in the middle of the first (sealed) segment.
    let image = mem.snapshot();
    let mut bytes = image.file("wal-000000.seg").expect("sealed segment 0");
    assert!(!bytes.is_empty());
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    image.put_file("wal-000000.seg", bytes);

    let err = Database::open_durable_in(Arc::new(image), WalOptions::default())
        .map(|_| ())
        .expect_err("sealed damage must refuse recovery");
    match err {
        DbError::Storage(StorageError::Corrupt { offset, detail }) => {
            assert!(
                detail.contains("wal-000000.seg"),
                "error names the damaged file: {detail}"
            );
            assert!(offset <= mid as u64 + 12, "offset points into the damage");
        }
        other => panic!("expected Corrupt, got {other}"),
    }

    // Truncating a sealed segment is mid-file corruption too (its length
    // is pinned by the manifest), not a torn tail.
    let image = mem.snapshot();
    let bytes = image.file("wal-000000.seg").unwrap();
    image.put_file("wal-000000.seg", bytes[..bytes.len() - 1].to_vec());
    let err = Database::open_durable_in(Arc::new(image), WalOptions::default())
        .map(|_| ())
        .expect_err("short sealed segment must refuse recovery");
    assert!(
        matches!(
            err,
            DbError::Storage(StorageError::Corrupt { .. })
                | DbError::Storage(StorageError::Recovery { .. })
        ),
        "typed error, got {err}"
    );
}

#[test]
fn manifest_less_directory_of_segments_is_adopted_in_order() {
    // Build a multi-segment image, then drop its manifest: the layout a
    // crash before the very first manifest write (or a foreign copy of
    // just the segment files) leaves behind.
    let workload = Workload {
        segment_bytes: 1,
        commits: 5,
        late_table_at: None,
        gc_after: None,
        checkpoint_bytes: 0,
    };
    let mem = MemDir::new();
    let dir: Arc<dyn LogDir> = Arc::new(mem.clone());
    let acked = run(&workload, dir);
    let image = mem.snapshot();
    image.delete("MANIFEST").unwrap();
    let (oracle_db, oracle_log) = oracle(&workload);
    assert_recovers(image, &oracle_db, &oracle_log, &acked, "manifest-less");
}

/// A [`LogDir`] over a [`MemDir`] that records which files are read
/// whole (`read`) and which are streamed (`open_read`).
#[derive(Default)]
struct ReadAccounting {
    inner: MemDir,
    whole: Mutex<Vec<String>>,
    streamed: Mutex<Vec<String>>,
}

impl LogDir for ReadAccounting {
    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.inner.list()
    }
    fn open_read(&self, name: &str) -> Result<Box<dyn BufRead + Send>, StorageError> {
        self.streamed.lock().unwrap().push(name.to_string());
        self.inner.open_read(name)
    }
    fn read(&self, name: &str) -> Result<Vec<u8>, StorageError> {
        self.whole.lock().unwrap().push(name.to_string());
        self.inner.read(name)
    }
    fn create(&self, name: &str) -> Result<Box<dyn LogFile>, StorageError> {
        self.inner.create(name)
    }
    fn open_append(&self, name: &str) -> Result<Box<dyn LogFile>, StorageError> {
        self.inner.open_append(name)
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

/// Recovery streams every segment it visits and reads none of them whole
/// — only the MANIFEST and the checkpoint are read whole. A full replay
/// streams every segment. A checkpoint boot after GC streams exactly the
/// segments it must: those holding commits above the checkpoint, those
/// holding DDL that were still active when the checkpoint's capture
/// began, and the active one. Here that is the active one alone: the
/// DDL-bearing `wal-000000.seg` was sealed long before. `streamed_bytes`
/// counts exactly those files' bytes.
#[test]
fn recovery_streams_only_the_segments_it_must_and_never_reads_them_whole() {
    for checkpoint_bytes in [1, 0] {
        let workload = Workload {
            segment_bytes: 1,
            commits: 8,
            late_table_at: None,
            gc_after: Some(3),
            checkpoint_bytes,
        };
        let mem = MemDir::new();
        let acked = run(&workload, Arc::new(mem.clone()));
        let (oracle_db, oracle_log) = oracle(&workload);
        let image = mem.snapshot();
        let dir = Arc::new(ReadAccounting {
            inner: image.snapshot(),
            ..Default::default()
        });
        let (db, report) = Database::open_durable_in(dir.clone(), WalOptions::default())
            .expect("a clean image boots");
        let tag = format!("checkpoint_bytes {checkpoint_bytes}");
        assert_state_matches_oracle(&db, &oracle_db, &oracle_log, &acked, &tag);
        assert_eq!(
            report.checkpoint_ts.is_some(),
            checkpoint_bytes > 0,
            "{tag}"
        );

        let whole = dir.whole.lock().unwrap().clone();
        assert!(
            !whole.iter().any(|n| n.ends_with(".seg")),
            "{tag}: read whole: {whole:?}"
        );
        // The segments a boot must read, from what each one holds.
        let mut segments: Vec<String> = image
            .names()
            .into_iter()
            .filter(|n| n.starts_with("wal-"))
            .collect();
        segments.sort();
        assert_eq!(segments.len(), report.segments, "{tag}: GC deleted none");
        let active = segments.last().unwrap().clone();
        let (ckpt_ts, sealed_below) = match report.checkpoint_ts {
            Some(ts) => {
                let file = image.file(&format!("ckpt-{ts:020}.ckpt")).unwrap();
                let ck = decode_checkpoint(&file).unwrap();
                (ts, ck.sealed_below)
            }
            None => (0, 0),
        };
        let must: Vec<String> = segments
            .into_iter()
            .filter(|name| {
                let (records, _) = decode_records(&image.file(name).unwrap()).unwrap();
                let seq: u64 = name["wal-".len()..name.len() - ".seg".len()]
                    .parse()
                    .unwrap();
                *name == active
                    || records.iter().any(|r| match r {
                        WalRecord::Commit(e) => e.commit_ts > ckpt_ts,
                        _ => seq >= sealed_below,
                    })
            })
            .collect();
        if checkpoint_bytes > 0 {
            assert!(
                sealed_below > 0,
                "{tag}: segment 0 sealed before the capture"
            );
            assert_eq!(must, [active.as_str()], "{tag}");
        } else {
            assert_eq!(must.len(), report.segments, "{tag}: full replay");
        }
        let mut streamed = dir.streamed.lock().unwrap().clone();
        streamed.sort();
        assert_eq!(streamed, must, "{tag}: each file streamed once");
        assert_eq!(report.skipped_files, report.segments - must.len(), "{tag}");
        let must_bytes: usize = must.iter().map(|n| image.file(n).unwrap().len()).sum();
        assert_eq!(report.streamed_bytes, must_bytes as u64, "{tag}");
    }
}

/// A checkpoint covers the DDL of the segments sealed before its capture
/// began, and no other. Here segment 0 is still active when the capture
/// reads `sealed_below`; the `late` table is created after the capture,
/// and its DDL record is the one that fills and seals segment 0. Segment
/// 0's commits are all at or below the checkpoint, but the checkpoint
/// does not hold `late`, so the boot must stream segment 0 for its DDL.
/// Reading `sealed_below` when the checkpoint is written (1 by then), or
/// skipping a DDL-bearing segment numbered at `sealed_below`, would skip
/// it and lose `late`.
#[test]
fn a_checkpoint_covers_only_the_ddl_sealed_before_its_capture() {
    let prefix = |db: &Database| {
        db.create_table("events", events_schema()).unwrap();
        for i in 0..3 {
            let mut txn = db.begin();
            txn.insert("events", row![i, i * 10]).unwrap();
            txn.commit().unwrap();
        }
    };
    // Size segment 0 so that the prefix fits and the next record fills it.
    let probe =
        Database::create_durable_in(Arc::new(MemDir::new()), WalOptions::default()).unwrap();
    prefix(&probe);
    let opts = WalOptions {
        sync_mode: SyncMode::Sync,
        segment_bytes: probe.wal().unwrap().appended() + 1,
        checkpoint_bytes: 0,
    };

    let mem = MemDir::new();
    let db = Database::create_durable_in(Arc::new(mem.clone()), opts).unwrap();
    prefix(&db);
    let wal = db.wal().unwrap();
    assert_eq!(wal.active_seq(), 0);
    let ck = db.capture_checkpoint();
    assert_eq!(ck.sealed_below, 0, "segment 0 is active at capture");
    db.create_table("late", events_schema()).unwrap();
    assert_eq!(wal.active_seq(), 1, "the `late` DDL sealed segment 0");
    for i in 0..3 {
        let mut txn = db.begin();
        txn.insert("late", row![i, i + 100]).unwrap();
        txn.commit().unwrap();
    }
    assert_eq!(
        wal.write_checkpoint(&ck).unwrap().map(|(ts, _)| ts),
        Some(ck.ts)
    );
    let expected = db.table("late").unwrap().materialize_at(db.current_ts());
    drop((db, wal));

    let (booted, report) =
        Database::open_durable_in(Arc::new(mem.snapshot()), WalOptions::default())
            .expect("the image boots");
    assert_eq!(report.checkpoint_ts, Some(ck.ts));
    assert_eq!(report.skipped_files, 0, "segment 0 is streamed for `late`");
    let late = booted.table("late").expect("`late` exists after reopen");
    assert_eq!(late.materialize_at(booted.current_ts()), expected);
    assert_eq!(expected.len(), 3);
}

/// DDL replay has one rule. A log that declares one index twice (no
/// writer produces it: a second `create_index` on a column fails before
/// anything is logged) is a typed `Recovery` error on a full replay. On a
/// checkpoint boot the declaration the checkpoint already holds is
/// skipped, like a table or namespace it restored.
#[test]
fn a_duplicate_index_declaration_fails_full_replay_and_is_skipped_behind_a_checkpoint() {
    let mem = MemDir::new();
    let db = Database::create_durable_in(Arc::new(mem.clone()), WalOptions::default()).unwrap();
    db.create_table("events", events_schema()).unwrap();
    db.create_index("events", "v").unwrap();
    for i in 0..3 {
        let mut txn = db.begin();
        txn.insert("events", row![i, i * 10]).unwrap();
        txn.commit().unwrap();
    }
    let ck = db.checkpoint().unwrap().map(|(ts, _)| ts).unwrap();
    drop(db);
    let segment = "wal-000000.seg";
    let mut log = mem.file(segment).unwrap();
    log.extend(encode_frame(&WalRecord::CreateIndex {
        table: "events".into(),
        column: "v".into(),
    }));
    mem.put_file(segment, log.clone());

    let (booted, report) =
        Database::open_durable_in(Arc::new(mem.snapshot()), WalOptions::default())
            .expect("a checkpoint boot skips the duplicate");
    assert_eq!(report.checkpoint_ts, Some(ck));
    assert_eq!((report.tables, report.indexes), (0, 0));
    assert_eq!(booted.table("events").unwrap().indexed_columns(), ["v"]);

    // The log alone: no MANIFEST, no checkpoint.
    let bare = MemDir::new();
    bare.put_file(segment, log);
    match Database::open_durable_in(Arc::new(bare), WalOptions::default()) {
        Err(DbError::Storage(StorageError::Recovery { detail })) => {
            assert!(detail.contains("create index `events.v`"), "{detail}")
        }
        other => panic!("expected a typed Recovery error, got {other:?}"),
    }
}

/// Replay runs while later files are still being validated. Damage in a
/// sealed segment found after earlier records were replayed fails the
/// boot with the typed error the whole-file decode gives, and the
/// directory is left exactly as it was: no truncation, no manifest
/// rewrite.
#[test]
fn sealed_damage_after_replayed_records_fails_the_boot_and_leaves_the_directory_untouched() {
    let workload = Workload {
        segment_bytes: 150,
        commits: 9,
        late_table_at: None,
        gc_after: None,
        checkpoint_bytes: 0,
    };
    let mem = MemDir::new();
    run(&workload, Arc::new(mem.clone()));
    let mut segments: Vec<String> = mem
        .names()
        .into_iter()
        .filter(|n| n.starts_with("wal-"))
        .collect();
    segments.sort();
    // Set the active segment aside, then pick a sealed segment after the
    // first that holds at least two records: the records before it and
    // its first record replay before the damage in its second record is
    // found.
    let active = segments.pop().unwrap();
    let (victim, records_before, first_frame) = segments
        .iter()
        .enumerate()
        .skip(1)
        .find_map(|(i, name)| {
            let (records, _) = decode_records(&mem.file(name).unwrap()).unwrap();
            (records.len() >= 2).then(|| {
                let before: usize = segments[..i]
                    .iter()
                    .map(|s| decode_records(&mem.file(s).unwrap()).unwrap().0.len())
                    .sum();
                (name.clone(), before + 1, encode_frame(&records[0]).len())
            })
        })
        .expect("a later sealed segment with two records");
    let image = mem.snapshot();
    let mut bytes = image.file(&victim).unwrap();
    bytes[first_frame + 20] ^= 0xFF; // inside the second record's payload
    image.put_file(&victim, bytes);
    // A torn tail on the active segment: a boot that got that far would
    // truncate it.
    let mut tail = image.file(&active).unwrap();
    tail.extend_from_slice(&[0xAB; 5]);
    image.put_file(&active, tail);
    let files = |dir: &MemDir| -> Vec<(String, Vec<u8>)> {
        let names = dir.names().into_iter();
        names.map(|n| (n.clone(), dir.file(&n).unwrap())).collect()
    };
    let before = files(&image);

    // The walk hands over every record before the damage, then fails.
    let mut replayed = 0;
    let walk = SegmentedWal::open_dir(Arc::new(image.clone()), WalOptions::default(), |step, _| {
        if let Replay::Record(_) = step {
            replayed += 1;
        }
        Ok::<_, StorageError>(())
    });
    assert!(walk.is_err(), "damage refuses the walk");
    assert_eq!(
        replayed, records_before,
        "records replayed before the damage"
    );

    let err = Database::open_durable_in(Arc::new(image.clone()), WalOptions::default())
        .map(|_| ())
        .expect_err("sealed damage must refuse recovery");
    match err {
        DbError::Storage(StorageError::Corrupt { offset, detail }) => {
            assert_eq!(offset, first_frame as u64, "offset of the damaged frame");
            assert!(detail.contains(&victim), "names the file: {detail}");
        }
        other => panic!("expected Corrupt, got {other}"),
    }
    assert!(
        files(&image) == before,
        "the failed boots changed the directory"
    );
}

#[derive(Debug, Clone)]
enum Damage {
    /// Truncate the whole persisted image of one file at a fraction.
    Truncate { file: usize, frac: f64 },
    /// Flip one bit of one file.
    BitFlip { file: usize, frac: f64, bit: u8 },
}

proptest! {
    // `PROPTEST_CASES`, when set, replaces the default count: CI runs
    // this oracle at more cases than the rest of the suite.
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(48)
    ))]

    /// Random workloads at random segment sizes and checkpoint cadences,
    /// damaged at a random point of a random file (checkpoints
    /// included): recovery yields an oracle-equivalent state — a
    /// contiguous oracle history run plus state equal to the oracle's at
    /// the recovered clock — or a typed storage error. Never a panic,
    /// never fabricated state.
    #[test]
    fn recovery_equals_oracle_or_refuses_with_a_typed_error(
        commits in 1i64..16,
        late_table_at in 0i64..16,
        segment_bytes in prop_oneof![Just(0u64), Just(1u64), Just(120u64), Just(4096u64)],
        gc in prop_oneof![Just(None), (0i64..16).prop_map(Some)],
        checkpoint_bytes in prop_oneof![Just(0u64), Just(1u64), Just(200u64)],
        damage in prop_oneof![
            (0usize..8, 0.0f64..1.0).prop_map(|(file, frac)| Damage::Truncate { file, frac }),
            (0usize..8, 0.0f64..1.0, 0u8..8)
                .prop_map(|(file, frac, bit)| Damage::BitFlip { file, frac, bit }),
        ],
    ) {
        let workload = Workload {
            segment_bytes,
            commits,
            late_table_at: Some(late_table_at % commits),
            gc_after: gc.filter(|g| *g < commits),
            checkpoint_bytes,
        };
        let mem = MemDir::new();
        let dir: Arc<dyn LogDir> = Arc::new(mem.clone());
        let acked = run(&workload, dir);
        prop_assert_eq!(acked.len() as i64, commits);
        let (oracle_db, oracle_log) = oracle(&workload);

        let image = mem.snapshot();
        let mut names = image.names();
        names.sort();
        let (name, mut bytes) = {
            let pick = match &damage {
                Damage::Truncate { file, .. } | Damage::BitFlip { file, .. } => {
                    names[file % names.len()].clone()
                }
            };
            let bytes = image.file(&pick).unwrap();
            (pick, bytes)
        };
        if bytes.is_empty() {
            return Ok(());
        }
        match &damage {
            Damage::Truncate { frac, .. } => {
                let cut = ((bytes.len() as f64) * frac) as usize;
                bytes.truncate(cut);
            }
            Damage::BitFlip { frac, bit, .. } => {
                let i = (((bytes.len() - 1) as f64) * frac) as usize;
                bytes[i] ^= 1 << bit;
            }
        }
        image.put_file(&name, bytes);

        // A damaged checkpoint destroys no log byte: the boot falls back
        // to an older checkpoint or a full replay and keeps every
        // acknowledged commit.
        let checkpoint_damaged = name.ends_with(".ckpt");
        match Database::open_durable_in(Arc::new(image), WalOptions::default()) {
            // Other damage may legally lose acknowledged commits (it
            // destroys durable bytes), so the acked floor is not enforced
            // there — only oracle equivalence of whatever state recovery
            // accepts.
            Ok((db, _)) => {
                let acked = if checkpoint_damaged { &acked[..] } else { &[] };
                assert_state_matches_oracle(&db, &oracle_db, &oracle_log, acked, "prop")
            }
            // A typed refusal is the other legal outcome.
            Err(DbError::Storage(e)) => prop_assert!(
                !checkpoint_damaged,
                "a damaged checkpoint refused the boot: {e}"
            ),
            Err(e) => prop_assert!(false, "untyped error: {e}"),
        }
    }
}
