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

use trod_db::wal::encode_frame;
use trod_db::{
    row, ChangeRecord, DataType, Database, DbError, Key, MemDir, Predicate, Row, Schema,
    StorageError, SyncMode, Value, WalOptions,
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
    /// End offset of every record; a crash at `boundaries[i]` preserves
    /// exactly the first `i + 1` records.
    boundaries: Vec<u64>,
    /// The in-memory oracle that executed the same workload.
    oracle: Database,
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
    for target in [&db, &oracle] {
        target.create_table("alpha", table_schema()).unwrap();
        target.create_table("beta", table_schema()).unwrap();
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
    }
    let bytes = disk.file(SEGMENT).unwrap();
    // Recompute record boundaries by re-framing the decoded records —
    // encoding is deterministic, so the frames match byte-for-byte.
    let (records, info) = trod_db::wal::decode_records(&bytes).unwrap();
    assert_eq!(info.truncated_bytes, 0, "live log must be clean");
    let mut boundaries = Vec::with_capacity(records.len());
    let mut at = 0u64;
    for record in &records {
        at += encode_frame(record).len() as u64;
        boundaries.push(at);
    }
    assert_eq!(at, bytes.len() as u64);
    WorkloadRun {
        disk,
        bytes,
        boundaries,
        oracle,
    }
}

/// Every table row visible at `ts`, sorted, as plain data.
fn state_at(db: &Database, ts: u64) -> Vec<(String, Vec<trod_db::Value>)> {
    let everything = Predicate::ge("k", i64::MIN);
    let mut out = Vec::new();
    for table in db.table_names() {
        for (key, row) in db.scan_as_of(&table, &everything, ts).unwrap() {
            let _ = key;
            out.push((table.clone(), row.values().to_vec()));
        }
    }
    out.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| format!("{:?}", a.1).cmp(&format!("{:?}", b.1)))
    });
    out
}

/// Cuts the segment at `cut`, reopens the image, and asserts the
/// recovered database equals the oracle truncated to the commits the
/// prefix preserves in full.
fn check_crash_prefix(run: &WorkloadRun, cut: usize) {
    let (db, report) = run
        .reopen_with(&run.bytes[..cut])
        .unwrap_or_else(|e| panic!("cut at {cut}: recovery must succeed, got {e}"));
    // Acknowledged prefix: commits whose full frame fits below the cut.
    let preserved = run.boundaries.iter().filter(|&&b| b <= cut as u64).count();
    let torn_bytes = cut as u64
        - run
            .boundaries
            .iter()
            .rev()
            .find(|&&b| b <= cut as u64)
            .copied()
            .unwrap_or(0);
    assert_eq!(report.truncated_bytes, torn_bytes, "cut at {cut}");

    // The recovered aligned history is verbatim the durable prefix of the
    // oracle's: same ids, same timestamps, same change records.
    let oracle_log = run.oracle.log_entries();
    let recovered_log = db.log_entries();
    let expected_commits: Vec<_> = oracle_log
        .iter()
        .filter(|e| {
            // The i-th record overall may be DDL; count commits among the
            // preserved records via the log itself: a commit is preserved
            // iff its position in the full record stream is < preserved.
            // Commit entries appear in the WAL in commit order, so the
            // recovered log length identifies the prefix.
            e.commit_ts > 0
        })
        .take(recovered_log.len())
        .cloned()
        .collect();
    assert_eq!(
        recovered_log, expected_commits,
        "cut at {cut}: recovered history must be the acked prefix, verbatim"
    );
    assert_eq!(recovered_log.len(), report.commits, "cut at {cut}");
    let _ = preserved;

    // State equivalence: the recovered state equals the oracle as of the
    // last recovered commit (no torn commit visible, none lost).
    let horizon = recovered_log.last().map(|e| e.commit_ts).unwrap_or(0);
    assert_eq!(
        state_at(&db, db.current_ts()),
        state_at(&run.oracle, horizon),
        "cut at {cut}: state must equal the oracle at ts {horizon}"
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
        for &b in &run.boundaries {
            check_crash_prefix(&run, b as usize);
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
