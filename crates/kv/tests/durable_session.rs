//! Durability at the session level: cross-store recovery equivalence,
//! end-to-end fault injection through the commit path, and coordinated
//! garbage collection.
//!
//! The contracts that live here:
//!
//! * **Recovery equivalence** — a property test drives random *mixed*
//!   relational + key-value workloads through a durable [`Session`],
//!   crashes at every record boundary of the produced WAL, reopens with
//!   [`Session::open_durable`], and requires the recovered environment —
//!   both stores, the aligned history, the clock — to equal an
//!   in-memory oracle truncated to the acknowledged commits.
//! * **Fault isolation** — injected append/fsync failures
//!   ([`FailpointDir`]) surface as typed retryable
//!   [`DbError::Storage`] errors that abort only the failed group: the
//!   commit path is not poisoned, later commits succeed, and the repair
//!   pass re-persists the interrupted batch so nothing durable is lost.
//! * **One replay loop** — a [`Database`] boot and a [`Session`] boot of
//!   the same disk image produce equal [`RecoveryReport`]s and equal
//!   state in both stores, with and without a checkpoint.
//! * **GC coordination** — one [`Session::gc_before`] call truncates
//!   tables and namespaces under one clamped horizon, and the aligned
//!   entries the log keeps for it carry the `kv:` change records that
//!   exactly cover the truncated kv versions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use trod_db::wal::{decode_records, encode_frame};
use trod_db::{
    kv_table_name, row, CommittedTxn, DataType, Database, DbError, DirFailpointHandle,
    FailpointDir, Key, MemDir, Predicate, RecoveryReport, Schema, StorageError, SyncMode, Ts,
    Value, WalOptions,
};
use trod_kv::{KvStore, Session};

const NAMESPACES: [&str; 2] = ["cache", "queue"];

fn table_schema() -> Schema {
    Schema::builder()
        .column("k", DataType::Int)
        .column("v", DataType::Int)
        .primary_key(&["k"])
        .build()
        .unwrap()
}

fn scratch_path(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "trod_durable_session_{tag}_{}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Materialises a crashed log at `path`: a fresh directory holding
/// `bytes` as segment 0, the manifest-less layout recovery adopts.
fn write_log_dir(path: &std::path::Path, bytes: &[u8]) {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).unwrap();
    std::fs::write(path.join("wal-000000.seg"), bytes).unwrap();
}

/// One step of a mixed workload; every step is one committed transaction
/// touching the relational table, a kv namespace, or both.
#[derive(Debug, Clone)]
enum Step {
    Put { k: i64, v: i64 },
    KvPut { ns: u8, key: u8, v: i64 },
    KvDelete { ns: u8, key: u8 },
    Mixed { k: i64, ns: u8, key: u8, v: i64 },
}

fn apply_step(session: &Session, step: &Step) {
    let mut txn = session.begin();
    match step {
        Step::Put { k, v } => {
            if txn.get("events", &Key::single(*k)).unwrap().is_some() {
                txn.update("events", &Key::single(*k), row![*k, *v])
                    .unwrap();
            } else {
                txn.insert("events", row![*k, *v]).unwrap();
            }
        }
        Step::KvPut { ns, key, v } => {
            txn.kv_put(
                NAMESPACES[*ns as usize],
                &format!("key-{key}"),
                &v.to_string(),
            )
            .unwrap();
        }
        Step::KvDelete { ns, key } => {
            txn.kv_delete(NAMESPACES[*ns as usize], &format!("key-{key}"))
                .unwrap();
        }
        Step::Mixed { k, ns, key, v } => {
            if txn.get("events", &Key::single(*k)).unwrap().is_some() {
                txn.update("events", &Key::single(*k), row![*k, *v])
                    .unwrap();
            } else {
                txn.insert("events", row![*k, *v]).unwrap();
            }
            txn.kv_put(
                NAMESPACES[*ns as usize],
                &format!("key-{key}"),
                &v.to_string(),
            )
            .unwrap();
        }
    }
    txn.commit().unwrap();
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let put = || (0i64..5, 0i64..100).prop_map(|(k, v)| Step::Put { k, v });
    let mixed = || {
        (0i64..5, 0u8..2, 0u8..4, 0i64..100).prop_map(|(k, ns, key, v)| Step::Mixed {
            k,
            ns,
            key,
            v,
        })
    };
    prop_oneof![
        put(),
        mixed(),
        mixed(),
        (0u8..2, 0u8..4, 0i64..100).prop_map(|(ns, key, v)| Step::KvPut { ns, key, v }),
        (0u8..2, 0u8..4).prop_map(|(ns, key)| Step::KvDelete { ns, key }),
    ]
}

/// All kv pairs visible in `kv` at `ts`, across every namespace.
fn kv_state_at(kv: &KvStore, ts: Ts) -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    for ns in NAMESPACES {
        if !kv.has_namespace(ns) {
            continue;
        }
        for (k, v) in kv.scan_prefix_as_of(ns, "", ts).unwrap() {
            out.push((ns.to_string(), k, v));
        }
    }
    out
}

fn relational_state_at(db: &Database, ts: Ts) -> Vec<Vec<Value>> {
    db.scan_as_of("events", &Predicate::ge("k", i64::MIN), ts)
        .unwrap()
        .into_iter()
        .map(|(_, row)| row.values().to_vec())
        .collect()
}

/// Runs `steps` through a durable session (WAL at a scratch file) and an
/// in-memory oracle, then crashes at every record boundary and checks
/// the recovered environment against the oracle.
fn check_mixed_recovery(steps: &[Step]) {
    let wal_path = scratch_path("mixed");
    let durable =
        Session::create_durable(&wal_path, WalOptions::with_sync_mode(SyncMode::Sync)).unwrap();
    let oracle = Session::new(Database::new());
    for s in [&durable, &oracle] {
        s.database().create_table("events", table_schema()).unwrap();
        for ns in NAMESPACES {
            s.create_namespace(ns).unwrap();
        }
    }
    for step in steps {
        apply_step(&durable, step);
        apply_step(&oracle, step);
    }
    // The workload fits the default segment bound, so the whole log sits
    // in segment 0 of the directory layout.
    let bytes = std::fs::read(wal_path.join("wal-000000.seg")).unwrap();
    let (records, info) = decode_records(&bytes).unwrap();
    assert_eq!(info.truncated_bytes, 0, "live log must be clean");
    let oracle_log = oracle.database().log_entries();

    let crash_path = scratch_path("mixedcrash");
    let mut at = 0usize;
    for record in &records {
        at += encode_frame(record).len();
        write_log_dir(&crash_path, &bytes[..at]);
        let (recovered, report) = Session::open_durable(&crash_path, WalOptions::default())
            .unwrap_or_else(|e| panic!("cut at {at}: recovery must succeed, got {e}"));

        // Aligned history: verbatim prefix of the oracle's — ids,
        // timestamps and cross-store change records included.
        let log = recovered.database().log_entries();
        assert_eq!(log[..], oracle_log[..log.len()], "cut at {at}");
        assert_eq!(log.len(), report.commits, "cut at {at}");
        let horizon = log.last().map(|e| e.commit_ts).unwrap_or(0);
        assert_eq!(recovered.database().current_ts(), horizon, "cut at {at}");

        // Both stores equal the oracle as of the recovered horizon: no
        // acknowledged commit lost, no torn cross-store commit visible.
        assert_eq!(
            relational_state_at(recovered.database(), horizon),
            relational_state_at(oracle.database(), horizon),
            "cut at {at}"
        );
        assert_eq!(
            kv_state_at(recovered.kv(), horizon),
            kv_state_at(oracle.kv(), horizon),
            "cut at {at}"
        );
    }
    // The last boundary is the full log: everything recovered.
    assert_eq!(at, bytes.len());
    let _ = std::fs::remove_dir_all(&wal_path);
    let _ = std::fs::remove_dir_all(&crash_path);
}

#[test]
fn mixed_workload_recovers_at_every_record_boundary() {
    check_mixed_recovery(&[
        Step::Put { k: 1, v: 10 },
        Step::KvPut {
            ns: 0,
            key: 1,
            v: 11,
        },
        Step::Mixed {
            k: 2,
            ns: 1,
            key: 2,
            v: 12,
        },
        Step::KvDelete { ns: 0, key: 1 },
        Step::Mixed {
            k: 1,
            ns: 0,
            key: 1,
            v: 13,
        },
    ]);
}

#[test]
fn recovered_session_continues_the_logged_history() {
    let wal_path = scratch_path("resume");
    {
        let session = Session::create_durable(&wal_path, WalOptions::default()).unwrap();
        session
            .database()
            .create_table("events", table_schema())
            .unwrap();
        session.create_namespace("cache").unwrap();
        let mut txn = session.begin();
        txn.insert("events", row![1i64, 1i64]).unwrap();
        txn.kv_put("cache", "a", "1").unwrap();
        txn.commit().unwrap();
    }
    let (session, report) = Session::open_durable(&wal_path, WalOptions::default()).unwrap();
    assert_eq!(report.commits, 1);
    assert_eq!(report.namespaces, vec!["cache".to_string()]);
    assert_eq!(report.kv_writes_replayed, 1);
    let mut txn = session.begin();
    txn.kv_put("cache", "b", "2").unwrap();
    txn.commit().unwrap();
    drop(session);

    let (session, report) = Session::open_durable(&wal_path, WalOptions::default()).unwrap();
    assert_eq!(report.commits, 2);
    assert_eq!(
        session.kv().get_latest("cache", "b").unwrap().as_deref(),
        Some("2")
    );
    assert_eq!(session.database().log_len(), 2);
    let _ = std::fs::remove_dir_all(&wal_path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite 3: random mixed workloads, crash at every record
    /// boundary, recovered environment == oracle truncated to the
    /// acknowledged commits.
    #[test]
    fn random_mixed_workloads_recover_exactly(
        steps in proptest::collection::vec(step_strategy(), 1..12),
    ) {
        check_mixed_recovery(&steps);
    }
}

// ---------------------------------------------------------------------
// Satellite 2: injected WAL failures through the real commit path
// ---------------------------------------------------------------------

/// A durable session over an in-memory disk behind the fault injector.
fn failpoint_session() -> (Session, DirFailpointHandle, MemDir) {
    let points = DirFailpointHandle::new();
    let disk = MemDir::new();
    let dir = FailpointDir::new(Arc::new(disk.clone()), points.clone());
    let db = Database::create_durable_in(Arc::new(dir), WalOptions::default()).unwrap();
    db.create_table("events", table_schema()).unwrap();
    let session = Session::new(db);
    session.create_namespace("cache").unwrap();
    (session, points, disk)
}

#[test]
fn injected_fsync_failure_is_typed_retryable_and_does_not_poison_later_commits() {
    let (session, points, disk) = failpoint_session();
    points.fail_syncs(1);
    let mut txn = session.begin();
    txn.insert("events", row![1i64, 1i64]).unwrap();
    txn.kv_put("cache", "a", "1").unwrap();
    let err = txn.commit().expect_err("fsync failure must surface");
    match &err {
        DbError::Storage(StorageError::Io { op, .. }) => assert_eq!(*op, "sync"),
        other => panic!("expected a storage error, got {other}"),
    }
    assert!(err.is_retryable(), "injected IO errors are retryable");

    // Only the failed group aborted: the next commit succeeds without
    // any operator intervention (the failpoint was one-shot), and the
    // repair pass re-persists the interrupted batch — the WAL ends up
    // holding BOTH commits.
    let mut txn = session.begin();
    txn.insert("events", row![2i64, 2i64]).unwrap();
    txn.commit().expect("commit path must not be poisoned");

    let bytes = disk.file("wal-000000.seg").unwrap();
    let (records, info) = decode_records(&bytes).unwrap();
    assert_eq!(info.truncated_bytes, 0);
    let commits: Vec<&CommittedTxn> = records
        .iter()
        .filter_map(|r| match r {
            trod_db::WalRecord::Commit(e) => Some(e),
            _ => None,
        })
        .collect();
    assert_eq!(commits.len(), 2, "failed group retried with the next group");
    assert_eq!(
        commits.iter().map(|e| e.commit_ts).collect::<Vec<_>>(),
        vec![commits[0].commit_ts, commits[0].commit_ts + 1],
        "WAL stays a dense commit-order prefix"
    );
}

#[test]
fn injected_append_failure_surfaces_without_losing_the_sequence() {
    let (session, points, _disk) = failpoint_session();
    let mut txn = session.begin();
    txn.insert("events", row![1i64, 1i64]).unwrap();
    txn.commit().unwrap();

    // Appends buffer in memory; the injected failure hits when the group
    // leader pushes the batch to the file.
    points.fail_appends(1);
    let mut txn = session.begin();
    txn.insert("events", row![2i64, 2i64]).unwrap();
    let err = txn.commit().expect_err("append failure must surface");
    assert!(matches!(
        err,
        DbError::Storage(StorageError::Io { op: "append", .. })
    ));

    points.clear();
    let mut txn = session.begin();
    txn.insert("events", row![3i64, 3i64]).unwrap();
    let commit = txn.commit().unwrap();
    // The in-memory log stayed dense across the failed durability
    // acknowledgement: versions were already installed and published.
    assert_eq!(session.database().log_entries().len(), 3);
    assert_eq!(commit.commit_ts, 3);
}

// ---------------------------------------------------------------------
// One replay loop: relational-only and session boots agree
// ---------------------------------------------------------------------

/// `Database::open_durable_in` and `Session::open_durable_in` are the
/// same recovery walk and the same replay loop — a namespace is a table —
/// so over one disk image they must report the same recovery and rebuild
/// the same state in both stores and the same aligned history. Checked on a full replay and on a
/// checkpoint boot whose tail re-creates nothing the snapshot restored
/// and adds a namespace, an index and mixed commits after it.
#[test]
fn database_and_session_boots_of_one_image_agree() {
    let disk = MemDir::new();
    let opts = WalOptions {
        segment_bytes: 256, // several rotations: the walk spans files
        checkpoint_bytes: 0,
        ..WalOptions::default()
    };
    let session = Session::new(Database::create_durable_in(Arc::new(disk.clone()), opts).unwrap());
    session
        .database()
        .create_table("events", table_schema())
        .unwrap();
    session.create_namespace("cache").unwrap();
    let mixed = |k: i64| {
        apply_step(
            &session,
            &Step::Mixed {
                k,
                ns: 0,
                key: k as u8,
                v: k * 10,
            },
        )
    };
    (0..4).for_each(mixed);

    let boots_agree = |tag: &str| -> RecoveryReport {
        let (db, db_report) =
            Database::open_durable_in(Arc::new(disk.snapshot()), WalOptions::default())
                .unwrap_or_else(|e| panic!("{tag}: database boot: {e}"));
        let (recovered, session_report) =
            Session::open_durable_in(Arc::new(disk.snapshot()), WalOptions::default())
                .unwrap_or_else(|e| panic!("{tag}: session boot: {e}"));
        assert_eq!(db_report, session_report, "{tag}: reports");
        let sdb = recovered.database();
        assert_eq!(db.current_ts(), sdb.current_ts(), "{tag}: clock");
        assert_eq!(db.log_entries(), sdb.log_entries(), "{tag}: history");
        assert_eq!(
            relational_state_at(&db, db.current_ts()),
            relational_state_at(sdb, sdb.current_ts()),
            "{tag}: relational state"
        );
        assert_eq!(
            db.table("events").unwrap().indexed_columns(),
            sdb.table("events").unwrap().indexed_columns(),
            "{tag}: indexes"
        );
        // Both boots installed the kv rows, as the original holds them.
        for kv in [&KvStore::of(db.clone()), recovered.kv()] {
            assert_eq!(
                kv_state_at(kv, sdb.current_ts()),
                kv_state_at(session.kv(), sdb.current_ts()),
                "{tag}: kv state"
            );
        }
        db_report
    };

    let full = boots_agree("full replay");
    assert_eq!(full.checkpoint_ts, None);
    assert_eq!((full.commits, full.kv_writes_replayed), (4, 4));
    assert_eq!(full.namespaces, vec!["cache".to_string()]);
    assert!(full.segments > 1, "the image spans several segments");

    // Checkpoint, then DDL and commits after it: the boot restores the
    // snapshot and replays a tail holding old DDL (skipped leniently)
    // and new DDL (applied).
    session.checkpoint().unwrap().expect("checkpoint written");
    session.create_namespace("queue").unwrap();
    session.database().create_index("events", "v").unwrap();
    (4..6).for_each(mixed);
    let tail = boots_agree("checkpoint boot");
    assert_eq!(tail.checkpoint_ts, Some(4));
    assert_eq!((tail.commits, tail.tables, tail.indexes), (2, 0, 1));
    assert_eq!(tail.namespaces, vec!["queue".to_string()]);
}

// ---------------------------------------------------------------------
// Coordinated GC; the log keeps what it truncates
// ---------------------------------------------------------------------

#[test]
fn session_gc_drives_both_stores_under_one_clamped_horizon() {
    let disk = Arc::new(MemDir::new());
    let db = Database::create_durable_in(disk, WalOptions::default()).unwrap();
    db.create_table("events", table_schema()).unwrap();
    let session = Session::new(db);
    session.create_namespace("cache").unwrap();

    let commit_once = |i: i64| {
        let mut txn = session.begin();
        if txn.get("events", &Key::single(1i64)).unwrap().is_some() {
            txn.update("events", &Key::single(1i64), row![1i64, i])
                .unwrap();
        } else {
            txn.insert("events", row![1i64, i]).unwrap();
        }
        txn.kv_put("cache", "hot", &i.to_string()).unwrap();
        txn.commit().unwrap();
    };
    for i in 1i64..=2 {
        commit_once(i);
    }
    // An active transaction pins the watermark: GC of tables and
    // namespaces stops at its snapshot even when asked to go further.
    let pin = session.begin();
    let pinned_at = pin.snapshot_ts();
    for i in 3i64..=6 {
        commit_once(i);
    }
    let stats = session.gc_before(Ts::MAX);
    assert_eq!(
        stats.horizon, pinned_at,
        "horizon clamps to the active snapshot"
    );
    assert_eq!(
        session
            .kv()
            .get_as_of("cache", "hot", pinned_at)
            .unwrap()
            .as_deref(),
        Some(&*pinned_at.to_string()),
        "the pinned snapshot stays readable in the kv store"
    );
    pin.abort();

    // With no active transactions, the requested horizon applies to
    // tables and namespaces alike: versions strictly below it are
    // truncated everywhere, and the log keeps the aligned entries with
    // the kv records covering exactly the truncated kv history.
    let kv_table = session.database().table(&kv_table_name("cache")).unwrap();
    let kv_versions = || kv_table.version_count();
    let before = kv_versions();
    let stats = session.gc_before(4);
    assert_eq!(stats.horizon, 4);
    assert!(
        kv_versions() < before,
        "kv history below the horizon is truncated"
    );
    assert_eq!(session.database().log_truncated_below(), 4);

    // Reads at/above the horizon still serve from both stores.
    assert_eq!(
        session
            .kv()
            .get_as_of("cache", "hot", 6)
            .unwrap()
            .as_deref(),
        Some("6")
    );
    assert_eq!(
        session
            .database()
            .get_as_of("events", &Key::single(1i64), 6)
            .unwrap()
            .unwrap()
            .values()[1],
        Value::Int(6)
    );

    // Below the horizon the history comes from the log: the truncated
    // aligned prefix, kv change records included — time travel below the
    // horizon reconstructs from it with no cross-store gap.
    let truncated = session.database().history(0, 4).unwrap();
    let truncated_ts: Vec<Ts> = truncated.iter().map(|e| e.commit_ts).collect();
    // Log truncation is inclusive of the horizon (GC keeps the version
    // AT the horizon so as-of reads there still serve; the log entry
    // describing the transition to it leaves memory).
    assert_eq!(truncated_ts, vec![1, 2, 3, 4], "the truncated prefix");
    assert!(
        truncated
            .iter()
            .all(|e| e.changes.iter().any(|c| &*c.table == "kv:cache")),
        "the logged aligned entries carry the kv records GC truncated"
    );
    let live_ts: Vec<Ts> = session
        .database()
        .log_entries()
        .iter()
        .map(|e| e.commit_ts)
        .collect();
    assert_eq!(live_ts, vec![5, 6], "logged + live history is gap-free");
}

// ---------------------------------------------------------------------
// One commit pipeline: verbatim replay and injection take the live path
// ---------------------------------------------------------------------

/// A durable environment on its own in-memory disk: one table, both
/// namespaces.
fn durable_env() -> (Session, MemDir) {
    let disk = MemDir::new();
    let db = Database::create_durable_in(Arc::new(disk.clone()), WalOptions::default()).unwrap();
    db.create_table("events", table_schema()).unwrap();
    let session = Session::new(db);
    for ns in NAMESPACES {
        session.create_namespace(ns).unwrap();
    }
    (session, disk)
}

/// Two commits whose aligned entries cover every record shape: a
/// relational-only insert, then a mixed commit that updates the row and
/// writes both namespaces.
fn two_commits(session: &Session) -> Vec<CommittedTxn> {
    apply_step(session, &Step::Put { k: 1, v: 10 });
    let mut txn = session.begin();
    txn.update("events", &Key::single(1i64), row![1i64, 11i64])
        .unwrap();
    txn.insert("events", row![2i64, 20i64]).unwrap();
    txn.kv_put(NAMESPACES[0], "key-0", "a").unwrap();
    txn.kv_put(NAMESPACES[1], "key-1", "b").unwrap();
    txn.commit().unwrap();
    session.database().log_entries()
}

/// `Session::apply_entry` onto a WAL-attached environment appends the
/// entry to the log like any other commit: history transferred into a
/// durable instance survives its next restart, identity intact. Recovery
/// itself still appends nothing (the log is attached after the replay).
#[test]
fn verbatim_entries_applied_to_a_durable_session_survive_reopen() {
    let (source, _) = durable_env();
    let entries = two_commits(&source);
    assert!(entries[1]
        .changes
        .iter()
        .any(|c| c.table.starts_with("kv:")));

    let (target, disk) = durable_env();
    for entry in &entries {
        target.apply_entry(entry).unwrap();
    }
    assert_eq!(target.database().log_entries(), entries);
    let appended = target.database().wal().unwrap().appended();
    drop(target);

    let (reopened, report) =
        Session::open_durable_in(Arc::new(disk.snapshot()), WalOptions::default()).unwrap();
    assert_eq!(report.commits, 2, "both transferred entries were logged");
    assert_eq!(
        reopened.database().log_entries(),
        entries,
        "original txn_id / start_ts / commit_ts survive the restart"
    );
    assert_eq!(
        relational_state_at(reopened.database(), Ts::MAX),
        relational_state_at(source.database(), Ts::MAX)
    );
    assert_eq!(
        kv_state_at(reopened.kv(), Ts::MAX),
        kv_state_at(source.kv(), Ts::MAX)
    );
    assert_eq!(
        reopened.database().wal().unwrap().appended(),
        appended,
        "recovery replays without re-appending"
    );
}

/// Reenactment in miniature: a history is correct iff putting it back
/// through the commit path reproduces it. Live commits on A, their change
/// lists injected into B, their log entries re-installed verbatim on C —
/// three front-ends of one pipeline — leave equal stores, equal aligned
/// entries (B's modulo the identity injection assigns), and C's log is
/// byte-identical to A's.
#[test]
fn live_commit_injection_and_verbatim_replay_publish_identically() {
    let (a, disk_a) = durable_env();
    let entries = two_commits(&a);

    let (b, _) = durable_env();
    for entry in &entries {
        b.apply_changes(&entry.changes).unwrap();
    }
    let (c, disk_c) = durable_env();
    for entry in &entries {
        c.apply_entry(entry).unwrap();
    }

    for other in [&b, &c] {
        assert_eq!(
            relational_state_at(other.database(), Ts::MAX),
            relational_state_at(a.database(), Ts::MAX)
        );
        assert_eq!(
            kv_state_at(other.kv(), Ts::MAX),
            kv_state_at(a.kv(), Ts::MAX)
        );
    }
    let injected = b.database().log_entries();
    assert_eq!(injected.len(), entries.len());
    for (injected, live) in injected.iter().zip(&entries) {
        assert_eq!(injected.changes, live.changes);
    }
    assert_eq!(c.database().log_entries(), entries);
    let segment = "wal-000000.seg";
    assert_eq!(
        disk_c.file(segment).unwrap(),
        disk_a.file(segment).unwrap(),
        "verbatim replay onto a durable log writes the bytes production wrote"
    );
}
