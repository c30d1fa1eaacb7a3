//! Allocation budget of the engine's write path and of its decoders.
//!
//! A committed row is allocated once — its image, its key, its table's
//! name, its commit's change list — and every holder (version store,
//! index slots, change log, log entry, `CommitInfo`, trace) points at
//! that allocation. These tests count calls into the allocator, which
//! repeat exactly from run to run, so a reintroduced per-row copy fails
//! here rather than showing up as a few percent on a noisy benchmark.
//!
//! The decoders of bytes the engine reads back — WAL frames, checkpoints,
//! the MANIFEST — reserve for the element counts those bytes claim. The
//! bytes requested from the allocator show that a count the rest of the
//! input cannot hold never becomes a reservation many times the input.
//!
//! The counters are per thread: the tests may run in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use trod_db::checkpoint::CHECKPOINT_MAGIC;
use trod_db::wal::{crc32, decode_records, encode_frame};
use trod_db::{
    decode_checkpoint, row, ChangeRecord, CommittedTxn, DataType, Database, Key, LoggedTxn, MemDir,
    Predicate, Schema, SegmentedWal, StorageError, TableStore, Value, WalOptions, WalRecord,
};
use trod_kv::Session;
use trod_trace::{TraceEvent, Tracer, TxnContext};

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES_REQUESTED: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

/// Counts one allocation or reallocation of `bytes`.
fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES_REQUESTED.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract. The only addition is a bump of two
// const-initialised thread-local `Cell<usize>`s: they have no destructor
// and need no lazy initialisation, so touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above; `ptr` came from `System` through this type.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns how many times this thread allocated meanwhile.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Runs `f` and returns how many bytes this thread requested meanwhile:
/// the size of every allocation and the new size of every reallocation.
fn bytes_requested<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = BYTES_REQUESTED.with(Cell::get);
    let out = f();
    (BYTES_REQUESTED.with(Cell::get) - before, out)
}

fn schema() -> Schema {
    Schema::builder()
        .column("id", DataType::Int)
        .column("grp", DataType::Int)
        .column("v", DataType::Text)
        .primary_key(&["id"])
        .build()
        .unwrap()
}

fn insert_record(table: &TableStore, id: i64) -> ChangeRecord {
    let image = row![id, id % 16, format!("v{id}")];
    ChangeRecord::insert(table.name().clone(), Key::single(id), image)
}

#[test]
fn clones_of_keys_records_and_entries_allocate_nothing() {
    let key = Key::new(vec![Value::Int(1), Value::Text("a".into())]);
    let record = ChangeRecord::insert("t", key.clone(), row![1i64, "a"]);
    let entry = CommittedTxn {
        txn_id: 1,
        start_ts: 0,
        commit_ts: 1,
        changes: vec![record.clone(); 8].into(),
    };
    assert_eq!(allocations(|| key.clone()).0, 0, "Key::clone");
    assert_eq!(allocations(|| record.clone()).0, 0, "ChangeRecord::clone");
    assert_eq!(allocations(|| entry.clone()).0, 0, "CommittedTxn::clone");
    assert_eq!(allocations(|| Key::single(7i64)).0, 1, "Key::single");
}

/// Rows injected, and values indexed, by the two cases below.
const ROWS: usize = 2_048;

/// Allocations injecting `ROWS` rows into a table with one index may
/// make in all. Measured: 39 (0.019 per row) — the amortised growth of the
/// row map and the change log, and nothing per row. A row's first
/// version is held inline in its chain, and the index costs the write
/// nothing: it catches up from the change log when a read needs it.
/// (1.01 per row while each chain allocated a `Vec`; 1.07 while the
/// commit maintained the index; 9.08 before rows were shared, with five
/// copies of the key, two of the table name, the chain and the index
/// entry.) Any per-row allocation is 2,048 and fails it.
const INJECTED_ROWS_BUDGET: usize = ROWS / 8;

fn injected(rows: usize) -> (Database, Vec<ChangeRecord>) {
    let db = Database::new();
    db.create_table("t", schema()).unwrap();
    let table = db.table("t").unwrap();
    let changes = (0..rows as i64)
        .map(|id| insert_record(&table, id))
        .collect();
    (db, changes)
}

#[test]
fn injecting_rows_allocates_nothing_per_row() {
    let (db, changes) = injected(ROWS);
    db.create_index("t", "grp").unwrap();
    let (allocated, info) = allocations(|| db.apply_changes(&changes).unwrap());
    assert_eq!(info.changes.len(), ROWS);
    assert!(
        allocated <= INJECTED_ROWS_BUDGET,
        "{allocated} allocations for {ROWS} injected rows ({:.3} per row), budget {INJECTED_ROWS_BUDGET}",
        allocated as f64 / ROWS as f64,
    );
}

/// Allocations the first probe of an index over `ROWS` distinct `Text`
/// values may make: one per value, its clone into the value tree, plus
/// the tree's nodes and the build's sort buffer, within `ROWS / 8`.
/// Measured: 2,262. A value one key holds keeps that key inline in its
/// slot: 6,357 while every slot built a key map (its leaf node and the
/// buffer it was collected through, two more per value).
const FIRST_BUILD_BUDGET: usize = ROWS + ROWS / 8;

#[test]
fn a_first_use_build_allocates_one_block_per_distinct_value() {
    let (db, changes) = injected(ROWS);
    db.create_index("t", "v").unwrap();
    db.apply_changes(&changes).unwrap();
    let table = db.table("t").unwrap();
    let probe = Predicate::eq("v", "v7");
    let (allocated, hits) = allocations(|| table.scan_at(&probe, db.current_ts()).unwrap());
    assert_eq!(hits.len(), 1);
    assert_eq!(
        table.index_entries("v"),
        Some(ROWS),
        "the probe built the index"
    );
    assert!(
        allocated <= FIRST_BUILD_BUDGET,
        "{allocated} allocations building an index over {ROWS} distinct values, budget {FIRST_BUILD_BUDGET}"
    );
}

#[test]
fn a_traced_commit_allocates_its_change_list_once() {
    let db = Database::new();
    db.create_table("t", schema()).unwrap();
    let tracer = Tracer::new();
    let session = Session::traced(db.clone(), tracer.clone());

    let mut txn = session.begin_traced(TxnContext::new("R1", "h", "f"));
    for id in 0..10i64 {
        txn.insert("t", row![id, id % 16, "v"]).unwrap();
    }
    let commit = txn.commit().unwrap();
    assert_eq!(commit.changes.len(), 10);

    // One list: the commit summary, the log entry and the emitted trace
    // hold the same allocation.
    let entry = db.history(commit.commit_ts - 1, commit.commit_ts).unwrap();
    let entry = entry.first().expect("logged");
    assert!(Arc::ptr_eq(&commit.changes, &entry.changes), "log entry");
    let traced = tracer.drain().into_iter().find_map(|event| match event {
        TraceEvent::Txn(trace) => Some(trace),
        _ => None,
    });
    let trace = traced.expect("the commit was traced");
    assert!(Arc::ptr_eq(&commit.changes, &trace.writes), "trace");
    // ... and its records name the table by the table's own name.
    let table = db.table("t").unwrap();
    assert!(commit
        .changes
        .iter()
        .all(|c| Arc::ptr_eq(&c.table, table.name())));
}

/// Writes in the decoded commit below.
const DECODED_WRITES: usize = 64;
/// Allocations a decoded write may make: its key, its after image's
/// values and their `Arc`, and its one text cell. The table name is
/// allocated once per table for the whole walk, not once per write or
/// per run of writes, and the key straight into its `Arc`.
/// Measured: 263 for 64 writes, 4 per write plus 7 for the walk.
/// Either copy a write no longer makes (a name per run of writes, a key
/// built in a `Vec` first) adds 64.
const DECODED_WRITE_BUDGET: usize = 4;
/// The walk's own allocations: its frame buffer, its name set, the two
/// names, the record list and the commit's write list, with their growth.
const DECODE_WALK_BUDGET: usize = 16;

#[test]
fn decoding_a_commit_allocates_per_write_its_key_and_its_row_only() {
    // Writes alternating between two tables, so no two consecutive ones
    // name the same table.
    let changes: Vec<ChangeRecord> = (0..DECODED_WRITES as i64)
        .map(|id| {
            let table = ["t", "u"][id as usize % 2];
            let (before, after) = (row![id, 0i64, "old"], row![id, id % 16, format!("v{id}")]);
            ChangeRecord::update(table, Key::single(id), before, after)
        })
        .collect();
    let entry = CommittedTxn {
        txn_id: 1,
        start_ts: 0,
        commit_ts: 1,
        changes: changes.into(),
    };
    let frame = encode_frame(&WalRecord::Commit(LoggedTxn::from(&entry)));
    let (allocated, decoded) = allocations(|| decode_records(&frame).unwrap());
    assert_eq!(decoded.0, [WalRecord::Commit(LoggedTxn::from(&entry))]);
    let budget = DECODED_WRITE_BUDGET * DECODED_WRITES + DECODE_WALK_BUDGET;
    assert!(
        allocated <= budget,
        "{allocated} allocations decoding {DECODED_WRITES} writes ({:.2} per write), budget {budget}",
        allocated as f64 / DECODED_WRITES as f64,
    );
}

/// Payload bytes of each hostile image below.
const HOSTILE_PAYLOAD: usize = 4096;
/// The most a decoder may request while refusing one, per payload byte.
const DECODE_BYTES_PER_PAYLOAD_BYTE: usize = 8;

/// `head`, then a `u32` count claiming one element per payload byte, then
/// bytes no element decodes from (a string length far past the end).
fn hostile_payload(head: &[u8]) -> Vec<u8> {
    let mut payload = head.to_vec();
    payload.extend((HOSTILE_PAYLOAD as u32).to_le_bytes());
    payload.resize(HOSTILE_PAYLOAD, 0xFF);
    payload
}

/// The CRC frame header every image shares: length, payload CRC, header
/// CRC.
fn frame_header(payload: &[u8]) -> Vec<u8> {
    let mut header = (payload.len() as u32).to_le_bytes().to_vec();
    header.extend(crc32(payload).to_le_bytes());
    let header_crc = crc32(&header);
    header.extend(header_crc.to_le_bytes());
    header
}

fn assert_refused_within_budget(what: &str, requested: usize, refused: Result<(), StorageError>) {
    assert!(
        matches!(refused, Err(StorageError::Corrupt { .. })),
        "{what}: {refused:?}"
    );
    assert!(
        requested <= DECODE_BYTES_PER_PAYLOAD_BYTE * HOSTILE_PAYLOAD,
        "{what}: {requested} bytes requested for a {HOSTILE_PAYLOAD}-byte payload"
    );
}

#[test]
fn a_wal_frame_claiming_more_changes_than_it_holds_reserves_nothing_for_them() {
    let commit = |ts| {
        WalRecord::Commit(LoggedTxn::from(&CommittedTxn {
            txn_id: ts,
            start_ts: ts - 1,
            commit_ts: ts,
            changes: vec![ChangeRecord::insert("t", Key::single(1i64), row![1i64])].into(),
        }))
    };
    // A commit's tag, txn id, start and commit ts, then the change count.
    let head = &encode_frame(&commit(1))[12..12 + 25];
    let payload = hostile_payload(head);
    // A valid frame after the damage makes it corruption, not a torn tail.
    let mut log = frame_header(&payload);
    log.extend(&payload);
    log.extend(encode_frame(&commit(2)));
    let (requested, refused) = bytes_requested(|| decode_records(&log).map(|_| ()));
    assert_refused_within_budget("WAL frame", requested, refused);
}

#[test]
fn a_checkpoint_claiming_more_tables_than_it_holds_reserves_nothing_for_them() {
    // Version, ts, next txn id, then the table count.
    let mut head = 1u32.to_le_bytes().to_vec();
    head.extend(7u64.to_le_bytes());
    head.extend(8u64.to_le_bytes());
    let payload = hostile_payload(&head);
    let mut image = CHECKPOINT_MAGIC.to_vec();
    image.extend(frame_header(&payload));
    image.extend(&payload);
    let (requested, refused) = bytes_requested(|| decode_checkpoint(&image).map(|_| ()));
    assert_refused_within_budget("checkpoint", requested, refused);
}

#[test]
fn a_manifest_claiming_more_files_than_it_holds_reserves_nothing_for_them() {
    // Version, next segment sequence number, then the first file count.
    let mut head = 2u32.to_le_bytes().to_vec();
    head.extend(1u64.to_le_bytes());
    let payload = hostile_payload(&head);
    let mut image = b"TRODMF01".to_vec();
    image.extend(frame_header(&payload));
    image.extend(&payload);
    let dir = MemDir::new();
    dir.put_file("MANIFEST", image);
    let (requested, refused) = bytes_requested(|| {
        SegmentedWal::open_dir(Arc::new(dir), WalOptions::default(), |_, _| {
            Ok::<_, StorageError>(())
        })
        .map(|_| ())
    });
    assert_refused_within_budget("MANIFEST", requested, refused);
}
