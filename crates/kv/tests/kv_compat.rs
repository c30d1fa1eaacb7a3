//! Booting durable images written when key-value namespaces lived in a
//! store of their own beside the database.
//!
//! The layouts did not change: a `CreateNamespace` record declares a
//! namespace, a mixed commit's entry lists its relational records first
//! and its `kv:<namespace>` records after them, a delete of a key that
//! never existed wrote no record, and a checkpoint writes every
//! namespace's entries in its namespace section, never in its table
//! section. Such images boot — through `Database::open_durable` and
//! `Session::open_durable` alike — to the state and the verbatim aligned
//! history they record, and a checkpoint taken after the boot encodes to
//! the bytes that writer produced.

use std::sync::Arc;

use trod_db::wal::{crc32, decode_records};
use trod_db::{is_kv_table, CommittedTxn, Database, MemDir, Predicate, WalOptions, WalRecord};
use trod_kv::{KvStore, Session};

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

/// A commit at `ts` (txn id `ts`, snapshot `ts - 1`): tag 1.
fn commit(ts: u64, changes: &[(&str, &[Cell], Op)]) -> Vec<u8> {
    let mut p = vec![1];
    for n in [ts, ts - 1, ts] {
        p.extend(n.to_le_bytes());
    }
    p.extend((changes.len() as u32).to_le_bytes());
    for (table, key, op) in changes {
        put_str(&mut p, table);
        put_cells(&mut p, key);
        match op {
            Op::Insert(after) => {
                p.push(0);
                put_cells(&mut p, after);
            }
            Op::Update(before, after) => {
                p.push(1);
                put_cells(&mut p, before);
                put_cells(&mut p, after);
            }
            Op::Delete(before) => {
                p.push(2);
                put_cells(&mut p, before);
            }
        }
    }
    frame(&p)
}

/// The log: an `orders` table and a `carts` namespace, then four commits
/// whose kv records follow their relational ones.
fn parent_log() -> Vec<u8> {
    let order = |id, item| [Int(id), Text(item)];
    let cart = |who, item| [Text(who), Text(item)];
    let mut log = create_orders();
    log.extend(create_namespace("carts"));
    // A checkout that also fills alice's cart.
    log.extend(commit(
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
        2,
        &[("orders", &[Int(2)], Op::Insert(&order(2, "gadget")))],
    ));
    // One commit updating a row, a cart, and creating a cart.
    log.extend(commit(
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
        4,
        &[(
            "kv:carts",
            &[Text("alice")],
            Op::Delete(&cart("alice", "sprocket")),
        )],
    ));
    log
}

/// The checkpoint that writer took at ts 4 (next txn id 5): `orders` in
/// the table section with no index, `carts` in the namespace section.
fn parent_checkpoint() -> Vec<u8> {
    let mut p = Vec::new();
    p.extend(1u32.to_le_bytes()); // version
    p.extend(4u64.to_le_bytes()); // ts
    p.extend(5u64.to_le_bytes()); // next txn id
    p.extend(1u32.to_le_bytes()); // tables
    put_str(&mut p, "orders");
    p.extend(2u32.to_le_bytes());
    put_str(&mut p, "id");
    p.extend([1, 0]);
    put_str(&mut p, "item");
    p.extend([3, 0]);
    p.extend(1u32.to_le_bytes());
    put_str(&mut p, "id");
    p.extend(0u32.to_le_bytes()); // indexes
    p.extend(0u32.to_le_bytes()); // the second, always empty, index list
    p.extend(2u64.to_le_bytes()); // rows
    for (id, item) in [(1, "sprocket"), (2, "gadget")] {
        put_cells(&mut p, &[Int(id)]);
        put_cells(&mut p, &[Int(id), Text(item)]);
    }
    p.extend(1u32.to_le_bytes()); // namespaces
    put_str(&mut p, "carts");
    p.extend(1u64.to_le_bytes()); // entries
    put_str(&mut p, "bob");
    put_str(&mut p, "gadget");
    let mut out = b"TRODCK01".to_vec();
    out.extend(frame(&p));
    out
}

/// Everything a boot rebuilt, comparably: rows, kv entries, history.
type Booted = (Vec<String>, Vec<(String, String)>, Vec<CommittedTxn>);

fn booted(db: &Database) -> Booted {
    let rows = db
        .scan_latest("orders", &Predicate::True)
        .unwrap()
        .into_iter()
        .map(|(_, row)| row.to_string())
        .collect();
    let kv = KvStore::of(db.clone()).scan_prefix("carts", "").unwrap();
    (rows, kv, db.log_entries())
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
    let image = parent_log();
    let (records, info) = decode_records(&image).unwrap();
    assert_eq!(info.truncated_bytes, 0);
    let entries: Vec<CommittedTxn> = records
        .into_iter()
        .filter_map(|r| match r {
            WalRecord::Commit(entry) => Some(entry),
            _ => None,
        })
        .collect();
    assert_eq!(&*entries[0].changes[1].table, "kv:carts", "kv records last");

    let disk = MemDir::new();
    disk.put_file(SEGMENT, image);
    let (_, report) =
        Database::open_durable_in(Arc::new(disk.snapshot()), WalOptions::default()).unwrap();
    assert_eq!(report.namespaces, ["carts"]);
    assert_eq!((report.commits, report.kv_writes_replayed), (4, 4));

    let (session, (rows, kv, history)) = boot_both(&disk);
    assert_eq!(rows, ["(1, sprocket)", "(2, gadget)"]);
    assert_eq!(kv, [("bob".to_string(), "gadget".to_string())]);
    assert_eq!(history, entries, "the aligned history is the log, verbatim");
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
fn a_checkpoint_after_the_boot_is_the_parent_checkpoint_and_boots_again() {
    let disk = MemDir::new();
    disk.put_file(SEGMENT, parent_log());
    let (session, _) =
        Session::open_durable_in(Arc::new(disk.clone()), WalOptions::default()).unwrap();
    assert_eq!(session.checkpoint().unwrap().map(|(ts, _)| ts), Some(4));
    let name = format!("ckpt-{:020}.ckpt", 4);
    assert_eq!(disk.file(&name).unwrap(), parent_checkpoint());

    // A tail after the checkpoint writes the restored namespace again.
    let mut txn = session.begin();
    txn.kv_put("carts", "carol", "widget").unwrap();
    txn.commit().unwrap();
    drop(session);

    let (_, report) =
        Database::open_durable_in(Arc::new(disk.snapshot()), WalOptions::default()).unwrap();
    assert_eq!((report.checkpoint_ts, report.commits), (Some(4), 1));
    assert!(report.namespaces.is_empty(), "the checkpoint restored it");
    let (_, (rows, kv, history)) = boot_both(&disk);
    assert_eq!(rows, ["(1, sprocket)", "(2, gadget)"]);
    let kv: Vec<(&str, &str)> = kv.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    assert_eq!(kv, [("bob", "gadget"), ("carol", "widget")]);
    assert_eq!(history.len(), 1);
}
