//! The copying fork — the oracle `Database::fork_at` is compared against.
//!
//! `fork_at` is a read-through overlay: it copies nothing and resolves
//! every read *own chain first, else the parent at the fork timestamp*.
//! What it must be indistinguishable from is the fork it replaced: an
//! independent database holding a copy of every row visible at the
//! timestamp, stamped with that timestamp, with the same schemas and
//! indexes, namespaces included, and its clock resuming there. This module
//! builds exactly that, from `TableStore::materialize_at` and public API
//! only.

#![allow(dead_code)]

use trod_db::{ChangeRecord, Database, Ts, KV_TABLE_PREFIX};

/// An independent copy of `db`'s state at `ts` (clamped to the published
/// clock): every visible row re-installed at `ts` as one injected commit,
/// the clock left there. The injected commit is the copy's only log
/// entry at or below the fork timestamp; everything after it is
/// comparable with the overlay's log. No row is visible at 0, so a copy
/// at 0 injects nothing.
pub fn copy_fork(db: &Database, ts: Ts) -> Database {
    let at = ts.min(db.current_ts());
    let fork = db.fork_empty().expect("catalog copies");
    let mut rows = Vec::new();
    let namespaces = db.namespaces().into_iter();
    let tables = namespaces.map(|ns| [KV_TABLE_PREFIX, &ns].concat());
    for name in db.table_names().into_iter().chain(tables) {
        let table = db.table(&name).expect("listed table");
        for (key, row) in table.materialize_at(at) {
            rows.push(ChangeRecord::insert(table.name().clone(), key, row));
        }
    }
    if rows.is_empty() {
        fork.ensure_ts_at_least(at);
    } else {
        fork.ensure_ts_at_least(at - 1);
        fork.apply_changes(&rows).expect("copied rows install");
    }
    assert_eq!(fork.current_ts(), at);
    fork
}
