//! Crash-point and corruption recovery: the WAL's robustness contract.
//!
//! The invariant under test (ISSUE 6): *every acknowledged commit is
//! recovered, no torn commit is ever visible, corruption yields a typed
//! error — never a panic or silently wrong state.* The harness runs a
//! workload against a durable database over an in-memory directory
//! ([`MemDir`]), then materialises a "crashed" disk image from **every**
//! prefix of the active segment's byte stream — each record boundary and
//! each mid-record cut — reopens it with [`Database::open_durable_in`],
//! and compares the recovered database against an in-memory oracle
//! truncated to the commits whose bytes the crash preserved. A property
//! test drives random workloads, random crash offsets and random
//! single-byte corruptions through the same check.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use trod_db::commit::REPLAY_RUN;
use trod_db::wal::{decode_records, encode_frame};
use trod_db::{
    row, ChangeRecord, DataType, Database, DbError, Key, LoggedTxn, LoggedWrite, MemDir, Predicate,
    Row, Schema, StorageError, SyncMode, Ts, Value, WalOptions, WalRecord,
};

/// The one segment file these workloads ever write (they stay far below
/// the default rotation bound).
const SEGMENT: &str = "wal-000000.seg";

fn table_schema() -> Schema {
    Schema::builder()
        .column("k", DataType::Int)
        .column("v", DataType::Int)
        .primary_key(&["k"])
        .build()
        .unwrap()
}

/// A workload step: a single-row upsert/delete on one of two tables, or a
/// mid-stream DDL statement.
#[derive(Debug, Clone)]
enum Step {
    Put { table: u8, k: i64, v: i64 },
    Delete { table: u8, k: i64 },
    CreateIndex { table: u8 },
}

fn table_name(idx: u8) -> &'static str {
    if idx == 0 {
        "alpha"
    } else {
        "beta"
    }
}

/// Unique scratch path (the real-filesystem tests); the crate has no
/// tempfile dependency.
fn scratch_path(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "trod_wal_recovery_{tag}_{}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

struct WorkloadRun {
    /// The disk as the workload left it (manifest + the one segment).
    disk: MemDir,
    /// The full WAL byte stream the workload produced.
    bytes: Vec<u8>,
    /// The in-memory oracle that executed the same workload.
    oracle: Database,
    /// The log's end, the oracle's digest and its commit count before the
    /// workload and after each statement of it, each of which logs at
    /// most one record: the ends are the record boundaries, and a log cut
    /// at `cut` recovers the digest and commits of the last entry that
    /// ends at or below it.
    states: Vec<(u64, u128, usize)>,
}

impl WorkloadRun {
    /// Reopens a copy of the disk whose segment holds exactly `segment`.
    fn reopen_with(&self, segment: &[u8]) -> Result<(Database, trod_db::RecoveryReport), DbError> {
        let image = self.disk.snapshot();
        image.put_file(SEGMENT, segment.to_vec());
        Database::open_durable_in(Arc::new(image), WalOptions::default())
    }
}

/// Runs `steps` against a durable database over a [`MemDir`] (capturing
/// the exact byte stream) and against a plain in-memory oracle.
fn run_workload(steps: &[Step]) -> WorkloadRun {
    let disk = MemDir::new();
    let db = Database::create_durable_in(Arc::new(disk.clone()), WalOptions::default()).unwrap();
    let oracle = Database::new();
    let state = || {
        let end = db.wal().unwrap().appended();
        (end, oracle.digest_at(Ts::MAX), oracle.log_len())
    };
    let mut states = vec![state()];
    for name in ["alpha", "beta"] {
        for target in [&db, &oracle] {
            target.create_table(name, table_schema()).unwrap();
        }
        states.push(state());
    }
    for step in steps {
        match step {
            Step::Put { table, k, v } => {
                for target in [&db, &oracle] {
                    let mut txn = target.begin();
                    let table = table_name(*table);
                    if txn.get(table, &trod_db::Key::single(*k)).unwrap().is_some() {
                        txn.update(table, &trod_db::Key::single(*k), row![*k, *v])
                            .unwrap();
                    } else {
                        txn.insert(table, row![*k, *v]).unwrap();
                    }
                    txn.commit().unwrap();
                }
            }
            Step::Delete { table, k } => {
                for target in [&db, &oracle] {
                    let mut txn = target.begin();
                    txn.delete(table_name(*table), &trod_db::Key::single(*k))
                        .unwrap();
                    txn.commit().unwrap();
                }
            }
            Step::CreateIndex { table } => {
                // Idempotence is not required of the workload: only index
                // once per table per run.
                for target in [&db, &oracle] {
                    let _ = target.create_index(table_name(*table), "v");
                }
            }
        }
        states.push(state());
    }
    let bytes = disk.file(SEGMENT).unwrap();
    assert_eq!(
        states.last().unwrap().0,
        bytes.len() as u64,
        "the log holds records only"
    );
    WorkloadRun {
        disk,
        bytes,
        oracle,
        states,
    }
}

/// Cuts the segment at `cut`, reopens the image, and asserts the
/// recovered database equals the oracle truncated to the commits the
/// prefix preserves in full.
fn check_crash_prefix(run: &WorkloadRun, cut: usize) {
    let (db, report) = run
        .reopen_with(&run.bytes[..cut])
        .unwrap_or_else(|e| panic!("cut at {cut}: recovery must succeed, got {e}"));
    // Acknowledged prefix: the records whose full frame fits below the cut.
    let &(kept, digest, commits) = run.states.iter().rfind(|s| s.0 <= cut as u64).unwrap();
    assert_eq!(report.truncated_bytes, cut as u64 - kept, "cut at {cut}");

    // The recovered aligned history is verbatim the oracle's up to the
    // last record the cut keeps, and so is the state, catalog included:
    // no torn commit visible, none lost.
    let recovered_log = db.log_entries();
    assert_eq!(
        recovered_log[..],
        run.oracle.log_entries()[..commits],
        "cut at {cut}: recovered history must be the acked prefix, verbatim"
    );
    assert_eq!(recovered_log.len(), report.commits, "cut at {cut}");
    let horizon = recovered_log.last().map_or(0, |e| e.commit_ts);
    assert_eq!(
        db.digest_at(horizon),
        digest,
        "cut at {cut}: state at {horizon}"
    );
    assert_eq!(db.current_ts(), horizon, "cut at {cut}: clock restored");
}

#[test]
fn crash_at_every_byte_of_a_fixed_workload_recovers_the_acked_prefix() {
    let steps = vec![
        Step::Put {
            table: 0,
            k: 1,
            v: 10,
        },
        Step::Put {
            table: 1,
            k: 1,
            v: 20,
        },
        Step::CreateIndex { table: 0 },
        Step::Put {
            table: 0,
            k: 1,
            v: 11,
        },
        Step::Delete { table: 1, k: 1 },
        Step::Put {
            table: 1,
            k: 2,
            v: 22,
        },
    ];
    let run = run_workload(&steps);
    // Every record boundary AND every intermediate byte: torn tails at
    // arbitrary offsets must all land on the last full record.
    for cut in 0..=run.bytes.len() {
        check_crash_prefix(&run, cut);
    }
}

#[test]
fn recovered_database_accepts_new_commits_after_the_recovered_prefix() {
    let run = run_workload(&[
        Step::Put {
            table: 0,
            k: 1,
            v: 1,
        },
        Step::Put {
            table: 0,
            k: 2,
            v: 2,
        },
    ]);
    let disk: Arc<MemDir> = Arc::new(run.disk.snapshot());
    let commit_ts = {
        let (db, report) = Database::open_durable_in(disk.clone(), WalOptions::default()).unwrap();
        assert_eq!(report.commits, 2);
        let mut txn = db.begin();
        txn.insert("alpha", row![3i64, 3i64]).unwrap();
        txn.commit().unwrap().commit_ts
    };
    // A second recovery sees the post-crash commit too — the attached WAL
    // appended it after the recovered prefix.
    let (db, report) = Database::open_durable_in(disk, WalOptions::default()).unwrap();
    assert_eq!(report.commits, 3);
    assert_eq!(db.current_ts(), commit_ts);
    assert_eq!(
        db.get_latest("alpha", &trod_db::Key::single(3i64))
            .unwrap()
            .unwrap()
            .values()[1],
        trod_db::Value::Int(3)
    );
}

#[test]
fn corruption_yields_a_typed_error_or_a_clean_prefix_never_a_panic() {
    let run = run_workload(&[
        Step::Put {
            table: 0,
            k: 1,
            v: 1,
        },
        Step::Put {
            table: 1,
            k: 2,
            v: 2,
        },
        Step::Put {
            table: 0,
            k: 3,
            v: 3,
        },
    ]);
    for i in 0..run.bytes.len() {
        let mut damaged = run.bytes.clone();
        damaged[i] ^= 0xFF;
        match run.reopen_with(&damaged) {
            // Mid-file damage: typed, positioned, retryable=false.
            Err(DbError::Storage(StorageError::Corrupt { offset, .. })) => {
                assert!(offset <= i as u64, "byte {i}");
            }
            Err(e) => panic!("byte {i}: unexpected error kind {e}"),
            // Tail damage: recovered as a strict prefix of the oracle.
            Ok((db, _)) => {
                let log = db.log_entries();
                let oracle_log = run.oracle.log_entries();
                assert!(log.len() < oracle_log.len(), "byte {i}");
                assert_eq!(log[..], oracle_log[..log.len()], "byte {i}");
            }
        }
    }
}

#[test]
fn ddl_is_durable_in_all_sync_modes() {
    for mode in [SyncMode::Sync, SyncMode::Flush] {
        let path = scratch_path("ddl");
        {
            let db = Database::create_durable(&path, WalOptions::with_sync_mode(mode)).unwrap();
            db.create_table("alpha", table_schema()).unwrap();
            db.create_index("alpha", "v").unwrap();
            db.create_index("alpha", "k").unwrap();
            let mut txn = db.begin();
            txn.insert("alpha", row![1i64, 5i64]).unwrap();
            txn.commit().unwrap();
        }
        let (db, report) = Database::open_durable(&path, WalOptions::default()).unwrap();
        assert_eq!((report.tables, report.indexes, report.commits), (1, 2, 1));
        assert_eq!(db.schema_of("alpha").unwrap(), table_schema());
        // The recovered indexes serve reads.
        assert_eq!(
            db.scan_latest("alpha", &Predicate::eq("v", 5i64))
                .unwrap()
                .len(),
            1
        );
        let _ = std::fs::remove_dir_all(&path);
    }
}

#[test]
fn cached_mode_loses_only_the_unflushed_tail() {
    let disk: Arc<MemDir> = Arc::new(MemDir::new());
    {
        let opts = WalOptions::with_sync_mode(SyncMode::Cached);
        let db = Database::create_durable_in(disk.clone(), opts).unwrap();
        db.create_table("alpha", table_schema()).unwrap();
        let mut txn = db.begin();
        txn.insert("alpha", row![1i64, 1i64]).unwrap();
        txn.commit().unwrap();
        // Make the buffered bytes reach the disk, then commit one more
        // that stays in the process buffer (the simulated crash drops it).
        db.wal().unwrap().flush().unwrap();
        let mut txn = db.begin();
        txn.insert("alpha", row![2i64, 2i64]).unwrap();
        txn.commit().unwrap();
    }
    let (db, report) = Database::open_durable_in(disk, WalOptions::default()).unwrap();
    assert_eq!(report.commits, 1, "unflushed cached tail is lost");
    assert!(db
        .get_latest("alpha", &trod_db::Key::single(2i64))
        .unwrap()
        .is_none());
}

/// A log lives in a directory: a regular file at the path is refused by
/// both constructors with a typed error, and neither touches it.
#[test]
fn a_regular_file_at_the_log_path_is_refused_and_left_untouched() {
    let path = scratch_path("regular_file");
    std::fs::write(&path, b"precious, unrelated bytes").unwrap();
    let refused = |res: Result<(), DbError>, who: &str| match res {
        Err(DbError::Storage(StorageError::Io { op: "open", detail })) => {
            assert!(detail.contains("regular file"), "{who}: {detail}")
        }
        other => panic!("{who}: expected a typed refusal, got {other:?}"),
    };
    refused(
        Database::create_durable(&path, WalOptions::default()).map(|_| ()),
        "create_durable",
    );
    refused(
        Database::open_durable(&path, WalOptions::default()).map(|_| ()),
        "open_durable",
    );
    assert_eq!(std::fs::read(&path).unwrap(), b"precious, unrelated bytes");
    let parent: Vec<_> = std::fs::read_dir(path.parent().unwrap())
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().into_string().ok())
        .filter(|n| n.starts_with(path.file_name().unwrap().to_str().unwrap()))
        .collect();
    assert_eq!(
        parent.len(),
        1,
        "nothing half-created beside it: {parent:?}"
    );
    std::fs::remove_file(&path).unwrap();
}

/// A commit whose log record is longer than a reader accepts (256 MiB) is
/// refused at append with a typed error, so it is never acknowledged; the
/// next commit goes through, and the log boots with every commit that was
/// acknowledged. Allocates about 0.6 GiB once.
#[test]
fn an_oversized_commit_is_refused_and_the_log_stays_bootable() {
    let disk = MemDir::new();
    let db = Database::create_durable_in(Arc::new(disk.clone()), WalOptions::default()).unwrap();
    let blobs = Schema::builder()
        .column("k", DataType::Int)
        .column("v", DataType::Bytes)
        .primary_key(&["k"])
        .build()
        .unwrap();
    db.create_table("blobs", blobs).unwrap();
    let put = |k: i64, len: usize| {
        let row = Row::from(vec![Value::Int(k), Value::Bytes(vec![k as u8; len])]);
        db.apply_changes(&[ChangeRecord::insert("blobs", Key::single(k), row)])
    };
    put(1, 16).unwrap();
    match put(2, (1 << 28) + 1) {
        Err(DbError::Storage(e @ StorageError::TooLarge { .. })) => assert!(!e.is_retryable()),
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    put(3, 16).unwrap();
    drop(db);

    let (db, report) = Database::open_durable_in(Arc::new(disk), WalOptions::default()).unwrap();
    assert_eq!(report.truncated_bytes, 0);
    let present = |k: i64| db.get_latest("blobs", &Key::single(k)).unwrap().is_some();
    assert_eq!([present(1), present(2), present(3)], [true, false, true]);
}

// ---------------------------------------------------------------------
// Property: random workloads × random crash/corruption points
// ---------------------------------------------------------------------

fn step_strategy() -> impl Strategy<Value = Step> {
    // Three put arms to one delete and one DDL arm: histories grow.
    let put = || (0u8..2, 0i64..6, 0i64..100).prop_map(|(table, k, v)| Step::Put { table, k, v });
    prop_oneof![
        put(),
        put(),
        put(),
        (0u8..2, 0i64..6).prop_map(|(table, k)| Step::Delete { table, k }),
        (0u8..2).prop_map(|table| Step::CreateIndex { table }),
    ]
}

proptest! {
    // `PROPTEST_CASES`, when set, replaces the default count: CI runs
    // these oracles at more cases than the rest of the suite.
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
    ))]

    /// Crash anywhere: reopen recovers exactly the acknowledged prefix.
    #[test]
    fn recovery_equals_oracle_at_every_crash_point(
        steps in proptest::collection::vec(step_strategy(), 1..14),
        cuts in proptest::collection::vec(0.0f64..1.0, 1..6),
    ) {
        let run = run_workload(&steps);
        // Every record boundary, plus random mid-record offsets.
        for &(end, ..) in &run.states {
            check_crash_prefix(&run, end as usize);
        }
        for f in cuts {
            let cut = (f * run.bytes.len() as f64) as usize;
            check_crash_prefix(&run, cut.min(run.bytes.len()));
        }
    }

    /// Flip any byte: typed error or clean prefix — never a panic, never
    /// a wrong state.
    #[test]
    fn corruption_never_panics_and_never_fabricates_state(
        steps in proptest::collection::vec(step_strategy(), 1..10),
        flips in proptest::collection::vec((0.0f64..1.0, 0u8..8), 1..5),
    ) {
        let run = run_workload(&steps);
        prop_assume!(!run.bytes.is_empty());
        for (pos, bit) in flips {
            let mut damaged = run.bytes.clone();
            let i = ((pos * damaged.len() as f64) as usize).min(damaged.len() - 1);
            damaged[i] ^= 1 << bit;
            match run.reopen_with(&damaged) {
                Err(DbError::Storage(StorageError::Corrupt { .. })) => {}
                Err(e) => panic!("unexpected error kind {e}"),
                Ok((db, _)) => {
                    let log = db.log_entries();
                    let oracle_log = run.oracle.log_entries();
                    prop_assert!(log.len() <= oracle_log.len());
                    prop_assert_eq!(&log[..], &oracle_log[..log.len()]);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Replay in runs: recovery, forks below the floor and verbatim
// re-installs install logged commits `REPLAY_RUN` at a time
// ---------------------------------------------------------------------

/// Commits, gaps, DDL and checkpoints for the run-replay properties.
#[derive(Debug, Clone)]
enum RunStep {
    /// `n` commits; commit `i` writes key `(k + i) % 40` of a relational
    /// table (round robin from `table`) — every fifth one deletes it —
    /// and every third one also writes a namespace key, if there is a
    /// namespace.
    Commits {
        table: u8,
        n: usize,
        k: i64,
    },
    /// Timestamps claimed and published with no log entry, as a
    /// read-only gap between commits.
    Gap(u64),
    CreateTable,
    CreateIndex {
        table: u8,
    },
    CreateNamespace,
    Checkpoint,
}

fn run_step() -> impl Strategy<Value = RunStep> {
    // Four commit arms to one of each other kind: histories grow.
    let commits = || {
        (0u8..4, 1usize..=150, 0i64..40).prop_map(|(table, n, k)| RunStep::Commits { table, n, k })
    };
    prop_oneof![
        commits(),
        commits(),
        commits(),
        commits(),
        (1u64..1_000).prop_map(RunStep::Gap),
        Just(RunStep::CreateTable),
        (0u8..4).prop_map(|table| RunStep::CreateIndex { table }),
        Just(RunStep::CreateNamespace),
        Just(RunStep::Checkpoint),
    ]
}

/// What one logged record adds to a [`trod_db::RecoveryReport`] that
/// replays it (an index names its table).
#[derive(Debug, Clone)]
enum Logged {
    Commit { ts: Ts, kv_writes: usize },
    Table,
    Index(String),
    Namespace(String),
}

/// A live durable database after a [`RunStep`] history: its disk, the
/// global log offset at the end of each record with what the record
/// counts for, and the newest checkpoint's (timestamp, log offset).
struct RunHistory {
    live: Database,
    disk: MemDir,
    records: Vec<(u64, Logged)>,
    checkpoint: Option<(Ts, u64)>,
}

fn no_auto_checkpoints() -> WalOptions {
    WalOptions {
        checkpoint_bytes: 0,
        ..WalOptions::default()
    }
}

fn run_history(steps: &[RunStep]) -> RunHistory {
    let disk = MemDir::new();
    let live = Database::create_durable_in(Arc::new(disk.clone()), no_auto_checkpoints()).unwrap();
    let end = |db: &Database| db.wal().unwrap().appended();
    let mut records = Vec::new();
    let mut tables: Vec<String> = Vec::new();
    let mut namespaces: Vec<String> = Vec::new();
    let mut checkpoint = None;
    let create_table = |db: &Database, tables: &mut Vec<String>| {
        let name = format!("t{}", tables.len());
        db.create_table(name.clone(), table_schema()).unwrap();
        tables.push(name);
    };
    create_table(&live, &mut tables);
    records.push((end(&live), Logged::Table));
    for step in steps {
        match step {
            RunStep::Commits { table, n, k } => {
                for i in 0..*n {
                    let mut txn = live.begin();
                    let name = &tables[(*table as usize + i) % tables.len()];
                    let key = (k + i as i64) % 40;
                    let present = txn.get(name, &Key::single(key)).unwrap().is_some();
                    match (present, i % 5) {
                        (true, 4) => {
                            txn.delete(name, &Key::single(key)).unwrap();
                        }
                        (true, _) => txn
                            .update(name, &Key::single(key), row![key, i as i64])
                            .unwrap(),
                        (false, _) => {
                            txn.insert(name, row![key, i as i64]).unwrap();
                        }
                    }
                    let mut kv_writes = 0;
                    if i % 3 == 0 && !namespaces.is_empty() {
                        let ns = trod_db::kv_table_name(&namespaces[i % namespaces.len()]);
                        let value = format!("v{i}");
                        txn.upsert(&ns, trod_db::namespace_row(&format!("k{key}"), &value))
                            .unwrap();
                        kv_writes = 1;
                    }
                    let ts = txn.commit().unwrap().commit_ts;
                    records.push((end(&live), Logged::Commit { ts, kv_writes }));
                }
            }
            RunStep::Gap(n) => live.ensure_ts_at_least(live.current_ts() + n),
            RunStep::CreateTable => {
                create_table(&live, &mut tables);
                records.push((end(&live), Logged::Table));
            }
            RunStep::CreateIndex { table } => {
                let name = &tables[*table as usize % tables.len()];
                if live.create_index(name, "v").is_ok() {
                    records.push((end(&live), Logged::Index(name.clone())));
                }
            }
            RunStep::CreateNamespace => {
                let name = format!("ns{}", namespaces.len());
                live.create_namespace(&name).unwrap();
                records.push((end(&live), Logged::Namespace(name.clone())));
                namespaces.push(name);
            }
            RunStep::Checkpoint => {
                if let Some((ts, _)) = live.checkpoint().unwrap() {
                    checkpoint = Some((ts, end(&live)));
                }
            }
        }
    }
    RunHistory {
        live,
        disk,
        records,
        checkpoint,
    }
}

/// Reopens `history`'s disk with its one segment cut at `cut` bytes (at
/// or above the newest checkpoint's offset) and checks the recovered
/// database against the live one: the history entry for entry, the rows
/// at sampled timestamps, the report's counts as record-by-record
/// replay gives them, and the next commit's timestamp and txn id.
fn check_run_recovery(
    history: &RunHistory,
    cut: u64,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let image = history.disk.snapshot();
    let segments: Vec<String> = image
        .names()
        .into_iter()
        .filter(|n| n.starts_with("wal-"))
        .collect();
    prop_assert_eq!(&segments, &vec![SEGMENT.to_string()]);
    let mut bytes = image.file(SEGMENT).unwrap();
    bytes.truncate(cut as usize);
    image.put_file(SEGMENT, bytes);
    let (db, report) = Database::open_durable_in(Arc::new(image), no_auto_checkpoints()).unwrap();

    let (ckpt_ts, ckpt_end) = history.checkpoint.unwrap_or((0, 0));
    prop_assert_eq!(report.checkpoint_ts, history.checkpoint.map(|(ts, _)| ts));
    let (mut commits, mut kv_writes, mut tables, mut indexes) = (0, 0, 0, 0);
    let (mut namespaces, mut last) = (Vec::new(), 0);
    for (end, logged) in history.records.iter().filter(|(end, _)| *end <= cut) {
        let replayed = *end > ckpt_end;
        match logged {
            Logged::Commit { ts, kv_writes: kv } => {
                last = *ts;
                if *ts > ckpt_ts {
                    commits += 1;
                    kv_writes += kv;
                }
            }
            Logged::Table if replayed => tables += 1,
            Logged::Index(_) if replayed => indexes += 1,
            Logged::Namespace(name) if replayed => namespaces.push(name.clone()),
            _ => {}
        }
    }
    prop_assert_eq!(
        (
            report.commits,
            report.kv_writes_replayed,
            report.tables,
            report.indexes
        ),
        (commits, kv_writes, tables, indexes)
    );
    prop_assert_eq!(&report.namespaces, &namespaces);

    let horizon = last.max(ckpt_ts);
    prop_assert_eq!(db.current_ts(), horizon);
    let live_history = history.live.history(0, last).unwrap();
    prop_assert_eq!(db.history(0, Ts::MAX).unwrap(), live_history.clone());
    // An index declared past the cut is lost with it: declare it again
    // (a table declared past it holds no rows yet), so that the catalogs
    // agree wherever a table holds rows.
    for (end, logged) in &history.records {
        if let (true, Logged::Index(name)) = (*end > cut, logged) {
            if db.has_table(name) {
                db.create_index(name, "v").unwrap();
            }
        }
    }
    let step = ((horizon - ckpt_ts) / 16).max(1) as usize;
    for ts in (ckpt_ts..=horizon).step_by(step).chain([horizon]) {
        prop_assert_eq!(db.digest_at(ts), history.live.digest_at(ts), "at {}", ts);
    }
    // The log replays to the state, also once GC has truncated it in
    // memory and the samples below the floor come from its checkpoints.
    prop_assert_eq!(db.verify(0, Ts::MAX), Ok(None));
    db.gc_before(Ts::MAX);
    for from in [0, horizon / 2] {
        prop_assert_eq!(db.verify(from, Ts::MAX), Ok(None), "from {}", from);
    }

    let mut txn = db.begin();
    txn.insert("t0", row![1_000i64, 0i64]).unwrap();
    let next = txn.commit().unwrap();
    prop_assert_eq!(next.commit_ts, horizon + 1);
    let newest_id = live_history.iter().map(|e| e.txn_id).max().unwrap_or(0);
    prop_assert!(next.txn_id > newest_id, "txn id {} reused", next.txn_id);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
    ))]

    /// Histories of several replay runs, with read-only gaps, DDL and
    /// namespaces between commits, key-value writes and checkpoints,
    /// recover to the live database whole and cut anywhere past the
    /// newest checkpoint (a torn tail inside a run).
    #[test]
    fn recovery_in_runs_equals_the_live_history(
        steps in proptest::collection::vec(run_step(), 1..10),
        cut in 0.0f64..1.0,
    ) {
        let history = run_history(&steps);
        prop_assert_eq!(history.live.verify(0, Ts::MAX), Ok(None));
        let len = history.disk.file(SEGMENT).unwrap().len() as u64;
        check_run_recovery(&history, len)?;
        // Past the first table's declaration, which the next commit needs.
        let from = history.checkpoint.map_or(history.records[0].0, |(_, end)| end);
        check_run_recovery(&history, from + ((len - from) as f64 * cut) as u64)?;
    }
}

/// The same properties on a fixed history that fills several runs and
/// splits them at DDL, gaps, a checkpoint and a torn tail.
#[test]
fn recovery_of_several_runs_split_by_ddl_gaps_and_a_checkpoint() {
    let commits = |table, n| RunStep::Commits { table, n, k: 7 };
    let steps = [
        commits(0, REPLAY_RUN + 3),
        RunStep::CreateNamespace,
        commits(1, 40),
        RunStep::Gap(500),
        commits(0, REPLAY_RUN - 1),
        RunStep::CreateTable,
        RunStep::Checkpoint,
        RunStep::CreateIndex { table: 1 },
        commits(1, REPLAY_RUN + 100),
        RunStep::Gap(3),
    ];
    let history = run_history(&steps);
    let len = history.disk.file(SEGMENT).unwrap().len() as u64;
    check_run_recovery(&history, len).unwrap();
    check_run_recovery(&history, len - 10).unwrap();
    let (_, from) = history.checkpoint.expect("a checkpoint");
    check_run_recovery(&history, from + (len - from) / 2).unwrap();
}

/// A run is checked whole before it claims anything. One that does not
/// start above the allocator — a commit of the target's own took that
/// timestamp — or is out of order is a typed error naming the entry,
/// and leaves the rows, the allocator and the clock as they were.
#[test]
fn a_raced_or_unordered_run_is_refused_and_changes_nothing() {
    let source = Database::new();
    let target = Database::new();
    for db in [&source, &target] {
        db.create_table("alpha", table_schema()).unwrap();
    }
    for k in 0..6i64 {
        let mut txn = source.begin();
        txn.insert("alpha", row![k, k]).unwrap();
        txn.commit().unwrap();
    }
    let entries: Vec<LoggedTxn> = source.log_entries().iter().map(LoggedTxn::from).collect();
    target.apply_entries(&entries[..3]).unwrap();
    let mut txn = target.begin();
    txn.insert("alpha", row![100i64, 0i64]).unwrap();
    assert_eq!(txn.commit().unwrap().commit_ts, entries[3].commit_ts);

    let (clock, digest) = (target.current_ts(), target.digest_at(Ts::MAX));
    let unordered = [entries[5].clone(), entries[4].clone()];
    let refused = [
        (&entries[3..], entries[3].commit_ts),
        (&unordered[..], entries[4].commit_ts),
    ];
    for (run, named) in refused {
        match target.apply_entries(run) {
            Err(DbError::Storage(StorageError::Recovery { detail })) => {
                assert!(detail.contains(&format!("commit ts {named}")), "{detail}");
            }
            other => panic!("expected a Recovery error, got {other:?}"),
        }
        assert_eq!(target.current_ts(), clock);
        assert_eq!(target.digest_at(Ts::MAX), digest);
    }
    let mut txn = target.begin();
    txn.insert("alpha", row![101i64, 0i64]).unwrap();
    assert_eq!(
        txn.commit().unwrap().commit_ts,
        clock + 1,
        "the allocator moved"
    );
}

/// A copy of `disk` whose commit record at `ts` went through `edit`.
fn with_commit_edited(disk: &MemDir, ts: Ts, edit: impl Fn(&mut LoggedTxn)) -> MemDir {
    let (records, _) = decode_records(&disk.file(SEGMENT).unwrap()).unwrap();
    let bytes = records.into_iter().flat_map(|mut record| {
        match &mut record {
            WalRecord::Commit(entry) if entry.commit_ts == ts => edit(entry),
            _ => {}
        }
        encode_frame(&record)
    });
    let image = disk.snapshot();
    image.put_file(SEGMENT, bytes.collect());
    image
}

/// A commit record that cannot be installed — its table is missing, or
/// its row does not fit the schema — fails recovery with a typed error
/// naming that record's commit timestamp, from the middle of a run.
#[test]
fn a_bad_record_inside_a_run_fails_recovery_naming_its_commit_ts() {
    let disk = MemDir::new();
    let db = Database::create_durable_in(Arc::new(disk.clone()), no_auto_checkpoints()).unwrap();
    db.create_table("alpha", table_schema()).unwrap();
    for k in 0..10i64 {
        let mut txn = db.begin();
        txn.insert("alpha", row![k, k]).unwrap();
        txn.commit().unwrap();
    }
    let bad_ts = db.log_entries()[5].commit_ts;
    drop(db);
    let breakages: [fn(&mut LoggedWrite); 2] = [
        |w| w.table = "missing".into(),
        |w| w.after = Some(Arc::new(row![0i64])),
    ];
    for broken in breakages {
        let image = with_commit_edited(&disk, bad_ts, |entry| {
            entry.writes.iter_mut().for_each(broken);
        });
        match Database::open_durable_in(Arc::new(image), WalOptions::default()) {
            Err(DbError::Storage(StorageError::Recovery { detail })) => {
                assert!(detail.contains(&format!("commit ts {bad_ts}")), "{detail}");
            }
            other => panic!("expected a Recovery error, got {:?}", other.map(|_| ())),
        }
    }
}

/// A fork below the GC floor is rebuilt from the log in runs: at every
/// sampled timestamp of a history of several runs, with gaps and a
/// checkpoint, it holds what a twin that never collected holds.
#[test]
fn forks_below_the_floor_rebuild_several_runs() {
    let live = Database::create_durable_in(Arc::new(MemDir::new()), no_auto_checkpoints()).unwrap();
    let twin = Database::new();
    for db in [&live, &twin] {
        db.create_table("alpha", table_schema()).unwrap();
    }
    for i in 0..(2 * REPLAY_RUN + 37) as i64 {
        for db in [&live, &twin] {
            let mut txn = db.begin();
            txn.upsert("alpha", row![i % 40, i]).unwrap();
            txn.commit().unwrap();
            if i % 50 == 0 {
                db.ensure_ts_at_least(db.current_ts() + 3);
            }
        }
        if i == REPLAY_RUN as i64 {
            live.checkpoint().unwrap();
        }
    }
    live.gc_before(live.current_ts());
    assert_eq!(live.log_truncated_below(), live.current_ts());
    for ts in (1..twin.current_ts()).step_by(11) {
        let fork = live.fork_at(ts).unwrap();
        assert_eq!(fork.digest_at(ts), twin.digest_at(ts), "fork at {ts}");
    }
}

// ---------------------------------------------------------------------
// `verify`: history against state
// ---------------------------------------------------------------------

/// `n` commits to the first table, from key 0.
fn commits(n: usize) -> RunStep {
    RunStep::Commits { table: 0, n, k: 0 }
}

/// A checkpoint whose rows differ from the log's in one cell, under a
/// valid CRC, boots without complaint. `verify` names its timestamp, on
/// the database that boots from it and on the one whose GC floor has
/// passed it; above the floor the live state answers, so the file is not
/// read.
#[test]
fn verify_names_a_checkpoint_that_disagrees_with_the_log() {
    let history = run_history(&[commits(20)]);
    let db = &history.live;
    let mut ck = db.capture_checkpoint();
    let (key, row) = ck.tables[0].rows[3].clone();
    ck.tables[0].rows[3] = (key, Arc::new(row![row[0].clone(), Value::Int(-1)]));
    db.wal().unwrap().write_checkpoint(&ck).unwrap();
    for k in 0..10i64 {
        let mut txn = db.begin();
        txn.upsert("t0", row![k, -k]).unwrap();
        txn.commit().unwrap();
    }
    assert_eq!(db.verify(0, Ts::MAX), Ok(None));
    let image = Arc::new(history.disk.snapshot());
    let (booted, _) = Database::open_durable_in(image, no_auto_checkpoints()).unwrap();
    assert_eq!(booted.verify(0, Ts::MAX), Ok(Some(ck.ts)));
    db.gc_before(Ts::MAX);
    assert_eq!(db.verify(0, Ts::MAX), Ok(Some(ck.ts)));
}

/// A commit record that lost one of its change records, under a
/// checkpoint that holds the change, boots without complaint. `verify`
/// names the first sample where the log and the state disagree: the
/// commit when the checkpoint was taken at it, else the checkpoint, below
/// which the state is rebuilt from the same log.
#[test]
fn verify_names_a_commit_whose_record_lost_a_change() {
    for later in [0, 2] {
        // The fourth commit also writes a namespace key.
        let steps = [RunStep::CreateNamespace, commits(4), commits(later)];
        let history = run_history(&[&steps[..], &[RunStep::Checkpoint, commits(3)]].concat());
        let lost = history.live.log_entries()[3].commit_ts;
        let image = with_commit_edited(&history.disk, lost, |entry| {
            entry.writes.truncate(1);
        });
        let (db, _) = Database::open_durable_in(Arc::new(image), no_auto_checkpoints()).unwrap();
        let (ckpt, _) = history.checkpoint.unwrap();
        assert_eq!(ckpt == lost, later == 0);
        assert_eq!(
            db.verify(0, Ts::MAX),
            Ok(Some(ckpt)),
            "{later} commits later"
        );
    }
}

// ---------------------------------------------------------------------
// The redo-only log: a commit's records are what its install displaced,
// and every reader of the log derives them again
// ---------------------------------------------------------------------

/// A second injected insert of a key replaced the row the first left: it
/// is logged as the update it made, with that row as its before image,
/// within one injection too; an injected delete logs the row it removed,
/// not the one handed in. A reopened database derives the same records.
#[test]
fn an_injected_upsert_is_logged_as_the_update_it_made() {
    let disk = MemDir::new();
    let db = Database::create_durable_in(Arc::new(disk.clone()), no_auto_checkpoints()).unwrap();
    db.create_table("alpha", table_schema()).unwrap();
    let key = Key::single(1i64);
    let insert = |v: i64| ChangeRecord::insert("alpha", key.clone(), row![1i64, v]);
    let update = |from: i64, to: i64| {
        ChangeRecord::update("alpha", key.clone(), row![1i64, from], row![1i64, to])
    };
    assert_eq!(
        db.apply_changes(&[insert(1)]).unwrap().changes[..],
        [insert(1)]
    );
    assert_eq!(
        db.apply_changes(&[insert(2)]).unwrap().changes[..],
        [update(1, 2)]
    );
    let twice = db.apply_changes(&[insert(3), insert(4)]).unwrap();
    assert_eq!(twice.changes[..], [update(2, 3), update(3, 4)]);
    let forged = ChangeRecord::delete("alpha", key.clone(), row![1i64, -1i64]);
    let deleted = ChangeRecord::delete("alpha", key.clone(), row![1i64, 4i64]);
    assert_eq!(
        db.apply_changes(std::slice::from_ref(&forged))
            .unwrap()
            .changes[..],
        [deleted]
    );
    assert!(db.apply_changes(&[forged]).unwrap().changes.is_empty());

    let live = db.history(0, Ts::MAX).unwrap();
    drop(db);
    let (reopened, _) = Database::open_durable_in(Arc::new(disk), no_auto_checkpoints()).unwrap();
    assert_eq!(reopened.history(0, Ts::MAX).unwrap(), live);
}

/// One step of a history whose change records are derived at install.
#[derive(Debug, Clone)]
enum Derived {
    /// One injection of these writes to `alpha` (`None` deletes, with a
    /// before image that is not the row's); keys may repeat.
    Inject(Vec<(i64, Option<i64>)>),
    /// A delete of a key that may be missing.
    Delete(i64),
    /// A read-committed update of a key whose row a commit deletes
    /// before the update commits: the update records as an insert.
    Vanished(i64, i64),
    /// A write of a key of namespace `ns`.
    Kv(i64, i64),
    Checkpoint,
}

fn derived_step() -> impl Strategy<Value = Derived> {
    let value = prop_oneof![Just(None), (0i64..100).prop_map(Some)];
    let writes = proptest::collection::vec((0i64..6, value), 1..4);
    prop_oneof![
        writes.prop_map(Derived::Inject),
        (0i64..6).prop_map(Derived::Delete),
        (0i64..6, 0i64..100).prop_map(|(k, v)| Derived::Vanished(k, v)),
        (0i64..6, 0i64..100).prop_map(|(k, v)| Derived::Kv(k, v)),
        Just(Derived::Checkpoint),
    ]
}

/// Runs `steps` on a durable database over a [`MemDir`]; returns it, its
/// disk and the log's end offset at the newest checkpoint (after the DDL
/// when there is none).
fn derived_history(steps: &[Derived]) -> (Database, MemDir, u64) {
    let disk = MemDir::new();
    let db = Database::create_durable_in(Arc::new(disk.clone()), no_auto_checkpoints()).unwrap();
    db.create_table("alpha", table_schema()).unwrap();
    db.create_namespace("ns").unwrap();
    let end = || db.wal().unwrap().appended();
    let mut checkpoint_end = end();
    let commit = |write: &dyn Fn(&mut trod_db::Transaction)| {
        let mut txn = db.begin();
        write(&mut txn);
        txn.commit().unwrap()
    };
    for step in steps {
        match *step {
            Derived::Inject(ref writes) => {
                let changes: Vec<ChangeRecord> = (writes.iter())
                    .map(|&(k, v)| match v {
                        Some(v) => ChangeRecord::insert("alpha", Key::single(k), row![k, v]),
                        None => ChangeRecord::delete("alpha", Key::single(k), row![k, -1i64]),
                    })
                    .collect();
                db.apply_changes(&changes).unwrap();
            }
            Derived::Delete(k) => {
                commit(&|txn| {
                    txn.delete("alpha", &Key::single(k)).unwrap();
                });
            }
            Derived::Vanished(k, v) => {
                commit(&|txn| {
                    txn.upsert("alpha", row![k, -2i64]).unwrap();
                });
                let mut update = db.begin_with(trod_db::IsolationLevel::ReadCommitted);
                update.update("alpha", &Key::single(k), row![k, v]).unwrap();
                commit(&|txn| {
                    txn.delete("alpha", &Key::single(k)).unwrap();
                });
                let info = update.commit().unwrap();
                assert_eq!(info.changes[0].op.kind(), "Insert", "the row had vanished");
            }
            Derived::Kv(k, v) => {
                let row = trod_db::namespace_row(&format!("k{k}"), &format!("v{v}"));
                let ns = trod_db::kv_table_name("ns");
                commit(&|txn| {
                    txn.upsert(&ns, row.clone()).unwrap();
                });
            }
            Derived::Checkpoint => {
                if db.checkpoint().unwrap().is_some() {
                    checkpoint_end = end();
                }
            }
        }
    }
    (db, disk, checkpoint_end)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
    ))]

    /// Records derived at install — injected upserts, injected deletes
    /// handed a wrong before image, deletes of missing keys, updates
    /// whose row vanished, `kv:` writes — come back from the log entry for
    /// entry: after a reopen with the log cut anywhere past the newest
    /// checkpoint (a torn tail), and below the GC floor, where history is
    /// rebuilt from the log. `verify` finds nothing on either database.
    #[test]
    fn derived_records_survive_reopen_torn_tails_and_gc(
        steps in proptest::collection::vec(derived_step(), 1..16),
        cut in 0.0f64..1.0,
    ) {
        let (live, disk, checkpoint_end) = derived_history(&steps);
        prop_assert_eq!(live.verify(0, Ts::MAX), Ok(None));
        let image = disk.snapshot();
        let bytes = image.file(SEGMENT).unwrap();
        let len = bytes.len() as u64;
        let cut = checkpoint_end + ((len - checkpoint_end) as f64 * cut) as u64;
        image.put_file(SEGMENT, bytes[..cut as usize].to_vec());
        let (db, _) = Database::open_durable_in(Arc::new(image), no_auto_checkpoints()).unwrap();
        let now = db.current_ts();
        prop_assert_eq!(db.history(0, now).unwrap(), live.history(0, now).unwrap());
        prop_assert_eq!(db.verify(0, now), Ok(None));

        for db in [&live, &db] {
            let now = db.current_ts();
            let history = db.history(0, now).unwrap();
            db.gc_before(Ts::MAX);
            prop_assert_eq!(db.history(0, now).unwrap(), history.clone());
            let mid = now / 2;
            let above: Vec<_> = history.into_iter().filter(|e| e.commit_ts > mid).collect();
            prop_assert_eq!(db.history(mid, now).unwrap(), above);
        }
    }
}
