//! Booting a log directory written while the log still compacted.
//!
//! Compaction copied runs of sealed segments, frame by frame and
//! unchanged, into `cold-<lo>-<hi>.seg` files and listed them in the
//! MANIFEST's cold list, ahead of the sealed list. The MANIFEST is still
//! version 2: the decoder folds a cold list into the sealed list by low
//! sequence number, and the next manifest swap writes it back there with
//! a cold count of 0. The cold file itself stays where it is, read like
//! any sealed segment.
//!
//! The directory below is pinned byte for byte, MANIFEST included: a
//! cold file for segments 0–2 (the DDL and commits 1–3), sealed segments
//! 3 and 4, and the active segment 5. It must boot, serve `history` and a
//! fork below the GC floor from the cold file, and after one rotation
//! write a MANIFEST with an empty cold list that boots to the same state.

use std::sync::Arc;

use trod_db::wal::{crc32, encode_frame};
use trod_db::{
    ChangeRecord, CommittedTxn, DataType, Database, DbError, Key, MemDir, Predicate, Row, Schema,
    StorageError, Ts, Value, WalOptions, WalRecord,
};

const COLD: &str = "cold-000000-000002.seg";

fn schema() -> Schema {
    Schema::builder()
        .column("k", DataType::Int)
        .column("v", DataType::Int)
        .primary_key(&["k"])
        .build()
        .unwrap()
}

fn row(k: i64, v: i64) -> Row {
    Row::from(vec![Value::Int(k), Value::Int(v)])
}

/// Commit `ts` sets key `ts % 3` to `ts`: inserts for 1–3, then updates.
fn commit(ts: Ts) -> Vec<u8> {
    let (k, v) = ((ts % 3) as i64, ts as i64);
    let key = Key::single(k);
    let change = match ts {
        1..=3 => ChangeRecord::insert("t", key, row(k, v)),
        _ => ChangeRecord::update("t", key, row(k, v - 3), row(k, v)),
    };
    encode_frame(&WalRecord::Commit(CommittedTxn {
        txn_id: ts,
        start_ts: ts - 1,
        commit_ts: ts,
        changes: vec![change].into(),
    }))
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend((s.len() as u32).to_le_bytes());
    out.extend(s.as_bytes());
}

fn put_u64s(out: &mut Vec<u8>, values: &[u64]) {
    for v in values {
        out.extend(v.to_le_bytes());
    }
}

/// The log files and the MANIFEST listing them, as compaction left them
/// after a GC at ts 3.
fn parent_directory() -> MemDir {
    let ddl = encode_frame(&WalRecord::CreateTable {
        name: "t".into(),
        schema: schema(),
    });
    let cold = [ddl, commit(1), commit(2), commit(3)].concat();
    let dir = MemDir::new();
    dir.put_file(COLD, cold.clone());
    dir.put_file("wal-000003.seg", commit(4));
    dir.put_file("wal-000004.seg", commit(5));
    dir.put_file("wal-000005.seg", commit(6));

    let mut p = Vec::new();
    p.extend(2u32.to_le_bytes()); // version
    put_u64s(&mut p, &[6]); // next segment sequence number
    p.extend(1u32.to_le_bytes()); // cold files: name, lo, hi, len, max ts, DDL
    put_str(&mut p, COLD);
    put_u64s(&mut p, &[0, 2, cold.len() as u64, 3]);
    p.push(1);
    p.extend(2u32.to_le_bytes()); // sealed segments: name, seq, len, max ts, DDL
    for seq in [3, 4] {
        put_str(&mut p, &format!("wal-{seq:06}.seg"));
        put_u64s(&mut p, &[seq, commit(seq + 1).len() as u64, seq + 1]);
        p.push(0);
    }
    put_str(&mut p, "wal-000005.seg"); // active segment and its seq
    put_u64s(&mut p, &[5]);
    p.extend(0u32.to_le_bytes()); // checkpoints
    put_u64s(&mut p, &[3]); // GC floor
    let mut manifest = b"TRODMF01".to_vec();
    manifest.extend((p.len() as u32).to_le_bytes());
    manifest.extend(crc32(&p).to_le_bytes());
    let header_crc = crc32(&manifest[8..16]);
    manifest.extend(header_crc.to_le_bytes());
    manifest.extend(p);
    dir.put_file("MANIFEST", manifest);
    dir
}

/// One commit per segment, so every synced commit swaps the MANIFEST.
fn opts() -> WalOptions {
    WalOptions {
        segment_bytes: 1,
        ..WalOptions::default()
    }
}

/// A table's `(k, v)` pairs, in key order.
type Pairs = Vec<(i64, i64)>;

/// Everything a boot must reproduce: the clock, the history, and a fork
/// at every timestamp.
fn state(db: &Database) -> (Ts, Vec<CommittedTxn>, Vec<Pairs>) {
    let now = db.current_ts();
    let forks = (1..=now).map(|ts| values(&db.fork_at(ts).unwrap()));
    (now, db.history(0, now).unwrap(), forks.collect())
}

/// The table's latest pairs.
fn values(db: &Database) -> Pairs {
    let rows = db.scan_latest("t", &Predicate::True).unwrap();
    let mut out: Vec<_> = rows
        .iter()
        .map(|(_, r)| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
        .collect();
    out.sort();
    out
}

#[test]
fn a_directory_with_a_cold_list_boots_serves_deep_history_and_writes_it_back_sealed() {
    let dir = parent_directory();
    let (db, report) = Database::open_durable_in(Arc::new(dir.clone()), opts()).unwrap();
    assert_eq!((report.commits, report.tables, report.segments), (6, 1, 4));
    assert_eq!(db.current_ts(), 6);
    assert_eq!(values(&db), [(0, 6), (1, 4), (2, 5)]);

    // Below the floor, history and forks read the log; commits 1-3 live
    // only in the cold file.
    db.gc_before(db.current_ts());
    assert_eq!(db.log_truncated_below(), 6);
    let history = db.history(0, 3).unwrap();
    let ts: Vec<Ts> = history.iter().map(|e| e.commit_ts).collect();
    assert_eq!(ts, [1, 2, 3]);
    let fork = db.fork_at(2).unwrap();
    assert_eq!(values(&fork), [(1, 1), (2, 2)]);

    // One rotation: the MANIFEST swap writes the cold file back in the
    // sealed list and leaves it where it is.
    let mut txn = db.begin();
    txn.update("t", &Key::single(1i64), row(1, 7)).unwrap();
    assert_eq!(txn.commit().unwrap().commit_ts, 7);
    let manifest = dir.file("MANIFEST").unwrap();
    assert_eq!(manifest[32..36], [0; 4], "the cold count is written as 0");
    let listed = |name: &str| manifest.windows(name.len()).any(|w| w == name.as_bytes());
    assert!(listed(COLD) && listed("wal-000003.seg") && listed("wal-000006.seg"));
    assert!(dir.file(COLD).is_some());
    let before = state(&db);
    drop((fork, db));

    let (db, report) = Database::open_durable_in(Arc::new(dir.clone()), opts()).unwrap();
    assert_eq!(report.commits, 7);
    assert_eq!(report.removed_files, 0, "nothing was debris");
    assert_eq!(state(&db), before);

    // The cold file is what serves the deep history: damage it and the
    // read below the floor names it.
    db.gc_before(db.current_ts());
    let mut cold = dir.file(COLD).unwrap();
    let last = cold.len() - 1;
    cold[last] ^= 0xFF;
    dir.put_file(COLD, cold);
    match db.history(0, 3) {
        Err(DbError::Storage(StorageError::Corrupt { detail, .. })) => {
            assert!(detail.contains(COLD), "{detail}")
        }
        other => panic!("expected the cold file's corruption, got {other:?}"),
    }
}
