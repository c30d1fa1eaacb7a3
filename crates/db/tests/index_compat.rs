//! Booting durable images laid out as they were written before the hash
//! and range index kinds merged into one index, and checkpoints written
//! in the version 1 layout, before they recorded the segments they cover.
//!
//! The layouts did not change: a `CreateIndex` record still ends in the
//! byte that chose the kind (0 = hash, 1 = range), and a checkpoint table
//! still carries two index lists. Either could declare one column twice.
//! The flag is now written as 1 and ignored on read, the second list is
//! written empty and merged into the first on read, and a declaration for
//! an already indexed column is satisfied — so every such image boots with
//! exactly one index per declared column, and planned scans equal the full
//! scan at every commit timestamp. A version 1 checkpoint covers no
//! segment's DDL, so its boot streams the DDL-bearing segment that a
//! version 2 boot skips, and reaches the same state.

use std::ops::Range;
use std::sync::Arc;

use trod_db::wal::{crc32, decode_records, encode_frame};
use trod_db::{
    row, Checkpoint, DataType, Database, Key, MemDir, Predicate, Schema, TableStore, Ts, Value,
    WalOptions, WalRecord,
};

/// The first segment file: the index-kind histories write no other, and
/// it holds the DDL of every history here.
const SEGMENT: &str = "wal-000000.seg";

fn schema() -> Schema {
    Schema::builder()
        .column("k", DataType::Int)
        .column("v", DataType::Int)
        .column("g", DataType::Int)
        .primary_key(&["k"])
        .build()
        .unwrap()
}

/// One single-row commit per step over seven keys: inserts, updates that
/// move rows between `v` and `g` values, and deletes.
fn write_history(db: &Database, steps: Range<i64>) {
    for i in steps {
        let key = Key::single(i % 7);
        let mut txn = db.begin();
        if i % 5 == 4 {
            txn.delete("t", &key).unwrap();
        } else if txn.get("t", &key).unwrap().is_some() {
            txn.update("t", &key, row![i % 7, i % 11, i % 3]).unwrap();
        } else {
            txn.insert("t", row![i % 7, i % 11, i % 3]).unwrap();
        }
        txn.commit().unwrap();
    }
}

/// Planned scans — point, `IN`, range and mixed probes over both indexed
/// columns — equal the full scan at every timestamp up to `upto`.
fn assert_planned_scans_equal_full(table: &TableStore, upto: Ts) {
    let preds = [
        Predicate::eq("v", 3i64),
        Predicate::ge("v", 5i64).and(Predicate::lt("v", 9i64)),
        Predicate::eq("g", 1i64),
        Predicate::in_list("g", vec![Value::Int(0), Value::Int(2)]),
        Predicate::le("v", 4i64).and(Predicate::eq("g", 2i64)),
    ];
    for ts in 0..=upto {
        for pred in &preds {
            assert_eq!(
                table.scan_at(pred, ts).unwrap(),
                table.scan_at_full(pred, ts).unwrap(),
                "[{pred}] at ts {ts}"
            );
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend((s.len() as u32).to_le_bytes());
    out.extend(s.as_bytes());
}

/// The CRC frame around `payload`: length, payload CRC, header CRC.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend((payload.len() as u32).to_le_bytes());
    out.extend(crc32(payload).to_le_bytes());
    let header_crc = crc32(&out);
    out.extend(header_crc.to_le_bytes());
    out.extend(payload);
    out
}

/// A `CreateIndex` record on `t.column`: tag 3, table, column, kind flag.
fn create_index_frame(column: &str, flag: u8) -> Vec<u8> {
    let mut payload = vec![3];
    put_str(&mut payload, "t");
    put_str(&mut payload, column);
    payload.push(flag);
    frame(&payload)
}

/// `ck` (one all-INT table shaped like [`schema`]) in the checkpoint
/// layout of `version` (2 records `sealed_below`, 1 does not), its index
/// columns given as the two lists.
fn checkpoint_with_index_lists(
    ck: &Checkpoint,
    version: u32,
    first: &[&str],
    second: &[&str],
) -> Vec<u8> {
    let [table] = ck.tables.as_slice() else {
        panic!("one table expected");
    };
    let mut p = Vec::new();
    p.extend(version.to_le_bytes());
    p.extend(ck.ts.to_le_bytes());
    p.extend(ck.next_txn_id.to_le_bytes());
    if version >= 2 {
        p.extend(ck.sealed_below.to_le_bytes());
    }
    p.extend(1u32.to_le_bytes()); // tables
    put_str(&mut p, &table.name);
    p.extend(3u32.to_le_bytes());
    for column in ["k", "v", "g"] {
        put_str(&mut p, column);
        p.extend([1, 0]); // INT, not nullable
    }
    p.extend(1u32.to_le_bytes());
    put_str(&mut p, "k");
    for list in [first, second] {
        p.extend((list.len() as u32).to_le_bytes());
        for column in list {
            put_str(&mut p, column);
        }
    }
    p.extend((table.rows.len() as u64).to_le_bytes());
    for (key, row) in &table.rows {
        for values in [key.values(), row.values()] {
            p.extend((values.len() as u32).to_le_bytes());
            for value in values {
                p.push(2); // INT
                p.extend(value.as_int().unwrap().to_le_bytes());
            }
        }
    }
    p.extend(0u32.to_le_bytes()); // namespaces
    let mut out = b"TRODCK01".to_vec();
    out.extend(frame(&p));
    out
}

#[test]
fn a_log_declaring_index_kinds_recovers_one_index_per_column() {
    // Today's writer keeps the flag byte in its place, fixed at 1.
    let record = WalRecord::CreateIndex {
        table: "t".into(),
        column: "v".into(),
    };
    assert_eq!(encode_frame(&record), create_index_frame("v", 1));

    let disk = MemDir::new();
    let db = Database::create_durable_in(Arc::new(disk.clone()), WalOptions::default()).unwrap();
    db.create_table("t", schema()).unwrap();
    write_history(&db, 0..40);
    drop(db);
    // Re-frame the log with declarations as they used to be written: a
    // range index on `g` before any commit, and a hash plus a range
    // index on `v` halfway through the history (boot backfills it).
    let (records, _) = decode_records(&disk.file(SEGMENT).unwrap()).unwrap();
    let mut image = Vec::new();
    for (i, record) in records.iter().enumerate() {
        if i == 1 {
            image.extend(create_index_frame("g", 1));
        }
        if i == records.len() / 2 {
            image.extend(create_index_frame("v", 0));
            image.extend(create_index_frame("v", 1));
        }
        image.extend(encode_frame(record));
    }
    disk.put_file(SEGMENT, image);

    let (booted, report) =
        Database::open_durable_in(Arc::new(disk), WalOptions::default()).unwrap();
    assert_eq!((report.indexes, report.commits), (2, records.len() - 1));
    let table = booted.table("t").unwrap();
    assert_eq!(table.indexed_columns(), ["g", "v"]);
    assert_planned_scans_equal_full(&table, booted.current_ts());
}

#[test]
fn a_checkpoint_with_overlapping_index_lists_restores_one_index_per_column() {
    let disk = MemDir::new();
    let db = Database::create_durable_in(Arc::new(disk.clone()), WalOptions::default()).unwrap();
    db.create_table("t", schema()).unwrap();
    db.create_index("t", "g").unwrap();
    write_history(&db, 0..30);
    let ck = db.capture_checkpoint();
    assert_eq!(db.checkpoint().unwrap().map(|(ts, _)| ts), Some(ck.ts));
    write_history(&db, 30..50);
    drop(db);
    // Today's writer: the version 2 layout, the second list empty.
    let name = format!("ckpt-{:020}.ckpt", ck.ts);
    let written = disk.file(&name).unwrap();
    assert_eq!(written, checkpoint_with_index_lists(&ck, 2, &["g"], &[]));
    // The checkpoint as it used to be written: version 1, `g` in the
    // first list, `v` and `g` again in the second.
    disk.put_file(
        &name,
        checkpoint_with_index_lists(&ck, 1, &["g"], &["v", "g"]),
    );

    let (booted, report) =
        Database::open_durable_in(Arc::new(disk), WalOptions::default()).unwrap();
    assert_eq!(report.checkpoint_ts, Some(ck.ts));
    let table = booted.table("t").unwrap();
    assert_eq!(table.indexed_columns(), ["g", "v"]);
    assert_planned_scans_equal_full(&table, booted.current_ts());
}

#[test]
fn a_version_1_checkpoint_streams_the_ddl_segment_and_boots_to_the_same_state() {
    let disk = MemDir::new();
    let opts = WalOptions {
        segment_bytes: 256,
        ..WalOptions::default()
    };
    let db = Database::create_durable_in(Arc::new(disk.clone()), opts).unwrap();
    db.create_table("t", schema()).unwrap();
    db.create_index("t", "g").unwrap();
    write_history(&db, 0..30);
    let ck = db.checkpoint().unwrap().map(|(ts, _)| ts).unwrap();
    write_history(&db, 30..50);
    drop(db);
    let boot = |disk: &MemDir| {
        let (db, report) =
            Database::open_durable_in(Arc::new(disk.snapshot()), WalOptions::default()).unwrap();
        assert_eq!(report.checkpoint_ts, Some(ck));
        (db, report)
    };
    let (v2, v2_report) = boot(&disk);
    let segment_0 = disk.file(SEGMENT).unwrap().len() as u64;

    // The same checkpoint in the version 1 layout covers no segment's DDL.
    let name = format!("ckpt-{ck:020}.ckpt");
    let decoded = trod_db::checkpoint::decode_checkpoint(&disk.file(&name).unwrap()).unwrap();
    assert!(
        decoded.sealed_below > 0,
        "segment 0 was sealed before the capture"
    );
    disk.put_file(&name, checkpoint_with_index_lists(&decoded, 1, &["g"], &[]));
    let (v1, v1_report) = boot(&disk);

    // Only the version 1 boot streams the DDL-bearing segment 0.
    assert!(v2_report.skipped_files >= 1);
    assert_eq!(v1_report.skipped_files, v2_report.skipped_files - 1);
    assert_eq!(
        v1_report.streamed_bytes,
        v2_report.streamed_bytes + segment_0
    );
    let (a, b) = (v1.table("t").unwrap(), v2.table("t").unwrap());
    assert_eq!(v1.current_ts(), v2.current_ts());
    assert_eq!(v1.log_entries(), v2.log_entries());
    assert_eq!(a.indexed_columns(), b.indexed_columns());
    assert_eq!(
        a.materialize_at(v1.current_ts()),
        b.materialize_at(v2.current_ts())
    );
    assert_planned_scans_equal_full(&a, v1.current_ts());
}
