//! Booting durable images shaped like the ones written when key-value
//! namespaces lived in a store of their own beside the database.
//!
//! A `CreateNamespace` record declares a namespace, a mixed commit's
//! entry lists its relational records first and its `kv:<namespace>`
//! records after them, and a delete of a key that never existed wrote no
//! record. Such a history boots — through `Database::open_durable` and
//! `Session::open_durable` alike — to the state and the aligned history it
//! records. Those images wrote each commit with its before images (record
//! tag 1); the log is redo-only now (tag 5: keys and after images), and an
//! image in the old layout is refused as corrupt, so the history is
//! hand-encoded in both layouts here.
//!
//! Checkpoints are a cache of the log. A checkpoint taken after the boot
//! is version 3, which writes the namespace as the `kv:carts` table it
//! is. One in the version 2 layout, which wrote namespaces in a section
//! of their own, no longer decodes: the boot falls back to full replay
//! and reaches what a boot without any checkpoint reaches.

use std::sync::Arc;

use trod_db::wal::{crc32, decode_records};
use trod_db::{
    is_kv_table, kv_table_name, namespace_row, row, ChangeOp, CommittedTxn, Database, DbError,
    LoggedTxn, MemDir, StorageError, Ts, WalOptions, WalRecord,
};
use trod_kv::Session;

/// The one segment file the image holds.
const SEGMENT: &str = "wal-000000.seg";

/// A cell of a hand-encoded row image.
enum Cell<'a> {
    Int(i64),
    Text(&'a str),
}
use Cell::{Int, Text};

/// A hand-encoded change: its table, key and op with row images.
enum Op<'a> {
    Insert(&'a [Cell<'a>]),
    Update(&'a [Cell<'a>], &'a [Cell<'a>]),
    Delete(&'a [Cell<'a>]),
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend((s.len() as u32).to_le_bytes());
    out.extend(s.as_bytes());
}

fn put_cells(out: &mut Vec<u8>, cells: &[Cell]) {
    out.extend((cells.len() as u32).to_le_bytes());
    for cell in cells {
        match cell {
            Int(i) => {
                out.push(2);
                out.extend(i.to_le_bytes());
            }
            Text(s) => {
                out.push(4);
                put_str(out, s);
            }
        }
    }
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

/// `CreateTable orders (id INT PRIMARY KEY, item TEXT NOT NULL)`: tag 2.
fn create_orders() -> Vec<u8> {
    let mut p = vec![2];
    put_str(&mut p, "orders");
    p.extend(2u32.to_le_bytes());
    put_str(&mut p, "id");
    p.extend([1, 0]); // INT, not nullable
    put_str(&mut p, "item");
    p.extend([3, 0]); // TEXT, not nullable
    p.extend(1u32.to_le_bytes());
    put_str(&mut p, "id");
    frame(&p)
}

/// `CreateNamespace name`: tag 4.
fn create_namespace(name: &str) -> Vec<u8> {
    let mut p = vec![4];
    put_str(&mut p, name);
    frame(&p)
}

/// A commit record with its before images (the old layout).
const WITH_BEFORE_IMAGES: u8 = 1;
/// A commit record of keys and after images (the redo layout).
const REDO: u8 = 5;

/// A commit at `ts` (txn id `ts`, snapshot `ts - 1`) in the layout of
/// record tag `tag`.
fn commit(tag: u8, ts: u64, changes: &[(&str, &[Cell], Op)]) -> Vec<u8> {
    let mut p = vec![tag];
    for n in [ts, ts - 1, ts] {
        p.extend(n.to_le_bytes());
    }
    p.extend((changes.len() as u32).to_le_bytes());
    for (table, key, op) in changes {
        put_str(&mut p, table);
        put_cells(&mut p, key);
        match (tag, op) {
            (REDO, Op::Insert(after) | Op::Update(_, after)) => {
                p.push(1);
                put_cells(&mut p, after);
            }
            (REDO, Op::Delete(_)) => p.push(0),
            (_, Op::Insert(after)) => {
                p.push(0);
                put_cells(&mut p, after);
            }
            (_, Op::Update(before, after)) => {
                p.push(1);
                put_cells(&mut p, before);
                put_cells(&mut p, after);
            }
            (_, Op::Delete(before)) => {
                p.push(2);
                put_cells(&mut p, before);
            }
        }
    }
    frame(&p)
}

/// The log, its commits in the layout of record tag `tag`: an `orders`
/// table and a `carts` namespace, then four commits whose kv records
/// follow their relational ones.
fn log_image(tag: u8) -> Vec<u8> {
    let order = |id, item| [Int(id), Text(item)];
    let cart = |who, item| [Text(who), Text(item)];
    let mut log = create_orders();
    log.extend(create_namespace("carts"));
    // A checkout that also fills alice's cart.
    log.extend(commit(
        tag,
        1,
        &[
            ("orders", &[Int(1)], Op::Insert(&order(1, "widget"))),
            (
                "kv:carts",
                &[Text("alice")],
                Op::Insert(&cart("alice", "widget")),
            ),
        ],
    ));
    // A checkout whose blind delete of bob's (missing) cart wrote no
    // record: the entry is relational only.
    log.extend(commit(
        tag,
        2,
        &[("orders", &[Int(2)], Op::Insert(&order(2, "gadget")))],
    ));
    // One commit updating a row, a cart, and creating a cart.
    log.extend(commit(
        tag,
        3,
        &[
            (
                "orders",
                &[Int(1)],
                Op::Update(&order(1, "widget"), &order(1, "sprocket")),
            ),
            (
                "kv:carts",
                &[Text("alice")],
                Op::Update(&cart("alice", "widget"), &cart("alice", "sprocket")),
            ),
            (
                "kv:carts",
                &[Text("bob")],
                Op::Insert(&cart("bob", "gadget")),
            ),
        ],
    ));
    // A kv-only delete.
    log.extend(commit(
        tag,
        4,
        &[(
            "kv:carts",
            &[Text("alice")],
            Op::Delete(&cart("alice", "sprocket")),
        )],
    ));
    log
}

/// The checkpoint header: magic, CRC frame, then version, ts 4, next
/// txn id 5 and `sealed_below` 0 (the image's one segment is active at
/// capture), ahead of the sections `body` writes.
fn checkpoint(version: u32, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend(version.to_le_bytes());
    p.extend(4u64.to_le_bytes()); // ts
    p.extend(5u64.to_le_bytes()); // next txn id
    p.extend(0u64.to_le_bytes()); // sealed below
    body(&mut p);
    let mut out = b"TRODCK01".to_vec();
    out.extend(frame(&p));
    out
}

/// A table entry: name, columns (name, type tag, not nullable), the
/// primary key `pk`, then `indexes` index lists, all empty.
fn put_table(p: &mut Vec<u8>, name: &str, columns: &[(&str, u8)], pk: &str, indexes: usize) {
    put_str(p, name);
    p.extend((columns.len() as u32).to_le_bytes());
    for (column, dtype) in columns {
        put_str(p, column);
        p.extend([*dtype, 0]);
    }
    p.extend(1u32.to_le_bytes());
    put_str(p, pk);
    for _ in 0..indexes {
        p.extend(0u32.to_le_bytes());
    }
}

/// `orders` with no index and its two rows at ts 4, in a layout with
/// `indexes` index lists.
fn put_orders(p: &mut Vec<u8>, indexes: usize) {
    put_table(p, "orders", &[("id", 1), ("item", 3)], "id", indexes);
    p.extend(2u64.to_le_bytes()); // rows
    for (id, item) in [(1, "sprocket"), (2, "gadget")] {
        put_cells(p, &[Int(id)]);
        put_cells(p, &[Int(id), Text(item)]);
    }
}

/// The checkpoint the parent writer took at ts 4, version 2: `orders` in
/// the table section with two index lists, `carts` in the namespace
/// section.
fn parent_checkpoint() -> Vec<u8> {
    checkpoint(2, |p| {
        p.extend(1u32.to_le_bytes()); // tables
        put_orders(p, 2);
        p.extend(1u32.to_le_bytes()); // namespaces
        put_str(p, "carts");
        p.extend(1u64.to_le_bytes()); // entries
        put_str(p, "bob");
        put_str(p, "gadget");
    })
}

/// The same checkpoint, version 3: one table list, in name order, where
/// `carts` is its `kv:carts` table with the namespace schema, and one
/// index list per table.
fn version_3_checkpoint() -> Vec<u8> {
    checkpoint(3, |p| {
        p.extend(2u32.to_le_bytes()); // tables
        put_table(
            p,
            "kv:carts",
            &[("kv_key", 3), ("kv_value", 3)],
            "kv_key",
            1,
        );
        p.extend(1u64.to_le_bytes()); // rows
        put_cells(p, &[Text("bob")]);
        put_cells(p, &[Text("bob"), Text("gadget")]);
        put_orders(p, 1);
    })
}

/// Everything a boot rebuilt, comparably: the state's digest and the
/// history.
type Booted = (u128, Vec<CommittedTxn>);

fn booted(db: &Database) -> Booted {
    (db.digest_at(Ts::MAX), db.log_entries())
}

/// The digest of `like`'s catalog holding exactly these `orders` rows and
/// `carts` entries.
fn holding(like: &Database, orders: &[(i64, &str)], carts: &[(&str, &str)]) -> u128 {
    let db = like.fork_empty().unwrap();
    let mut txn = db.begin();
    for &(id, item) in orders {
        txn.insert("orders", row![id, item]).unwrap();
    }
    for &(who, item) in carts {
        txn.insert(&kv_table_name("carts"), namespace_row(who, item))
            .unwrap();
    }
    txn.commit().unwrap();
    db.digest_at(Ts::MAX)
}

/// Boots `disk` both ways; the two boots agree in report, clock, state
/// and history.
fn boot_both(disk: &MemDir) -> (Session, Booted) {
    let (db, db_report) =
        Database::open_durable_in(Arc::new(disk.snapshot()), WalOptions::default()).unwrap();
    let (session, session_report) =
        Session::open_durable_in(Arc::new(disk.snapshot()), WalOptions::default()).unwrap();
    assert_eq!(db_report, session_report);
    assert_eq!(db.current_ts(), session.database().current_ts());
    assert_eq!(db.namespaces(), ["carts"]);
    assert_eq!(db.table_names(), ["orders"], "the namespace is not listed");
    let state = booted(&db);
    assert_eq!(state, booted(session.database()));
    (session, state)
}

#[test]
fn a_parent_log_boots_to_its_state_and_verbatim_history() {
    let image = log_image(REDO);
    let (records, info) = decode_records(&image).unwrap();
    assert_eq!(info.truncated_bytes, 0);
    let entries: Vec<LoggedTxn> = records
        .into_iter()
        .filter_map(|r| match r {
            WalRecord::Commit(entry) => Some(entry),
            _ => None,
        })
        .collect();
    assert_eq!(&*entries[0].writes[1].table, "kv:carts", "kv records last");

    let disk = MemDir::new();
    disk.put_file(SEGMENT, image);
    let (_, report) =
        Database::open_durable_in(Arc::new(disk.snapshot()), WalOptions::default()).unwrap();
    assert_eq!(report.namespaces, ["carts"]);
    assert_eq!((report.commits, report.kv_writes_replayed), (4, 4));

    let (session, (digest, history)) = boot_both(&disk);
    let orders = [(1, "sprocket"), (2, "gadget")];
    let cart = [("bob", "gadget")];
    assert_eq!(digest, holding(session.database(), &orders, &cart));
    let redo: Vec<LoggedTxn> = history.iter().map(LoggedTxn::from).collect();
    assert_eq!(redo, entries, "the aligned history is the log, verbatim");
    // ... and each before image is the row the write displaced.
    let cart = |who, item| namespace_row(who, item);
    let ops = |e: &CommittedTxn| e.changes.iter().map(|c| c.op.clone()).collect::<Vec<_>>();
    assert_eq!(
        ops(&history[2])[..2],
        [
            ChangeOp::Update {
                before: Arc::new(row![1i64, "widget"]),
                after: Arc::new(row![1i64, "sprocket"]),
            },
            ChangeOp::Update {
                before: Arc::new(cart("alice", "widget")),
                after: Arc::new(cart("alice", "sprocket")),
            },
        ]
    );
    let before = Arc::new(cart("alice", "sprocket"));
    assert_eq!(ops(&history[3]), [ChangeOp::Delete { before }]);
    let kv_records = |e: &CommittedTxn| e.changes.iter().filter(|c| is_kv_table(&c.table)).count();
    let log = session.database().log_entries();
    assert_eq!(log.iter().map(kv_records).collect::<Vec<_>>(), [1, 0, 2, 1]);
    assert!(
        kv_records(&log[0]) < log[0].changes.len(),
        "the first commit spans both stores"
    );
    assert_eq!(
        session
            .kv()
            .get_as_of("carts", "alice", 3)
            .unwrap()
            .as_deref(),
        Some("sprocket"),
        "history is readable as of any commit"
    );
}

#[test]
fn a_checkpoint_after_the_boot_writes_the_namespace_as_its_table_and_boots_again() {
    let disk = MemDir::new();
    disk.put_file(SEGMENT, log_image(REDO));
    let (session, _) =
        Session::open_durable_in(Arc::new(disk.clone()), WalOptions::default()).unwrap();
    assert_eq!(session.checkpoint().unwrap().map(|(ts, _)| ts), Some(4));
    let name = format!("ckpt-{:020}.ckpt", 4);
    assert_eq!(disk.file(&name).unwrap(), version_3_checkpoint());

    // A tail after the checkpoint writes the restored namespace again.
    let mut txn = session.begin();
    txn.kv_put("carts", "carol", "widget").unwrap();
    txn.commit().unwrap();
    drop(session);

    let (_, report) =
        Database::open_durable_in(Arc::new(disk.snapshot()), WalOptions::default()).unwrap();
    assert_eq!((report.checkpoint_ts, report.commits), (Some(4), 1));
    assert!(report.namespaces.is_empty(), "the checkpoint restored it");
    let (session, (digest, history)) = boot_both(&disk);
    let carts = [("bob", "gadget"), ("carol", "widget")];
    let orders = [(1, "sprocket"), (2, "gadget")];
    assert_eq!(digest, holding(session.database(), &orders, &carts));
    assert_eq!(history.len(), 1);
    let restored = session.database().table("kv:carts").unwrap();
    assert_eq!(restored.materialize_at(4).len(), 1, "bob's cart, as a row");
}

#[test]
fn a_version_2_checkpoint_falls_back_to_the_boot_without_it() {
    let disk = MemDir::new();
    disk.put_file(SEGMENT, log_image(REDO));
    let (session, _) =
        Session::open_durable_in(Arc::new(disk.clone()), WalOptions::default()).unwrap();
    session.checkpoint().unwrap();
    let mut txn = session.begin();
    txn.kv_put("carts", "carol", "widget").unwrap();
    txn.commit().unwrap();
    drop(session);
    let name = format!("ckpt-{:020}.ckpt", 4);
    disk.put_file(&name, parent_checkpoint());

    // The log alone, with no MANIFEST and no checkpoint.
    let bare = MemDir::new();
    bare.put_file(SEGMENT, disk.file(SEGMENT).unwrap());
    let (bare_session, bare_state) = boot_both(&bare);

    let booted_dir = disk.snapshot();
    let (_, report) =
        Database::open_durable_in(Arc::new(booted_dir.clone()), WalOptions::default()).unwrap();
    assert!(booted_dir.file(&name).is_none(), "the fallback deletes it");
    assert_eq!(report.checkpoint_fallbacks, 1);
    assert_eq!(report.checkpoint_ts, None);
    assert_eq!((report.commits, report.namespaces.len()), (5, 1));
    let (session, state) = boot_both(&disk);
    assert_eq!(state, bare_state, "state and verbatim history");
    assert_eq!(state.1.len(), 5);
    for ts in 0..=5 {
        let digest = |s: &Session| s.database().digest_at(ts);
        assert_eq!(digest(&session), digest(&bare_session), "as of {ts}");
    }
}

/// A log whose commits carry their before images, as the parent writer
/// wrote them, is refused as corrupt — even with its last record a
/// commit, which the torn-tail rule would otherwise cut — and left as it
/// is.
#[test]
fn a_log_of_commits_with_before_images_is_refused_as_corrupt() {
    let image = log_image(WITH_BEFORE_IMAGES);
    let disk = MemDir::new();
    disk.put_file(SEGMENT, image.clone());
    match Database::open_durable_in(Arc::new(disk.clone()), WalOptions::default()) {
        Err(DbError::Storage(StorageError::Corrupt { detail, .. })) => {
            assert!(detail.contains("unknown record tag 1"), "{detail}");
        }
        other => panic!("expected a Corrupt error, got {:?}", other.map(|_| ())),
    }
    assert_eq!(disk.file(SEGMENT), Some(image), "the log is untouched");
}
