//! Transactions.
//!
//! Optimistic concurrency control: a transaction buffers its writes,
//! reads from a consistent snapshot, and is validated and published by
//! the commit protocol in [`crate::commit`] ("The commit protocol" in
//! `crates/db/DESIGN.md`). Invariants:
//!
//! * Under [`IsolationLevel::Serializable`] point reads and predicate
//!   scans are validated, so the commit (timestamp) order is the serial
//!   order — the property the TROD paper assumes in §3.1. Snapshot
//!   isolation validates only write-write conflicts; read committed
//!   validates nothing.
//! * A transaction is registered in the
//!   [`ActiveTxnRegistry`](crate::registry::ActiveTxnRegistry) from
//!   `begin` until commit, abort or drop, pinning GC and change-log
//!   eviction at its snapshot.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::cdc::ChangeRecord;
use crate::database::Database;
use crate::error::{DbError, DbResult};
use crate::log::TxnId;
use crate::mvcc::Ts;
use crate::predicate::Predicate;
use crate::row::{Key, Row};

/// Transaction isolation levels supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IsolationLevel {
    /// Reads always observe the latest committed state; no validation.
    ReadCommitted,
    /// Reads observe the snapshot at `begin`; write-write conflicts abort.
    SnapshotIsolation,
    /// Snapshot reads plus read-set and predicate validation at commit:
    /// strictly serializable, serialized in commit order.
    #[default]
    Serializable,
}

/// A buffered, not-yet-committed write. Row images are `Arc`-shared so
/// that commit, CDC capture and the change log reuse one allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOp {
    Insert(Arc<Row>),
    /// An upsert of a key absent from the snapshot: it installs over
    /// whatever the key holds at commit instead of failing as a duplicate.
    Upsert(Arc<Row>),
    Update {
        before: Arc<Row>,
        after: Arc<Row>,
    },
    Delete {
        before: Arc<Row>,
    },
}

impl WriteOp {
    /// The row this transaction would observe for the key, if any.
    pub fn visible_row(&self) -> Option<&Arc<Row>> {
        match self {
            WriteOp::Insert(r) | WriteOp::Upsert(r) | WriteOp::Update { after: r, .. } => Some(r),
            WriteOp::Delete { .. } => None,
        }
    }
}

/// Internal mutable state of an active transaction; handed to the
/// database's commit path on commit.
#[derive(Debug)]
pub(crate) struct TxnState {
    pub id: TxnId,
    pub start_ts: Ts,
    pub isolation: IsolationLevel,
    /// Point reads: (table, key). Table names here and below are the
    /// tables' own interned names ([`crate::TableStore::name`]).
    pub read_set: Vec<(Arc<str>, Key)>,
    /// Predicate reads (scans): (table, predicate). Needed for phantom
    /// detection and, in TROD, for read-dependency provenance.
    pub scan_set: Vec<(Arc<str>, Predicate)>,
    /// Buffered writes per table, keyed by primary key.
    pub writes: BTreeMap<Arc<str>, BTreeMap<Key, WriteOp>>,
    /// The visibility timestamp of the most recent read (see
    /// [`Transaction::last_read_ts`]).
    pub last_read_ts: Ts,
}

impl TxnState {
    fn new(id: TxnId, start_ts: Ts, isolation: IsolationLevel) -> Self {
        TxnState {
            id,
            start_ts,
            isolation,
            read_set: Vec::new(),
            scan_set: Vec::new(),
            writes: BTreeMap::new(),
            last_read_ts: start_ts,
        }
    }

    /// True if the transaction made no writes.
    pub fn is_read_only(&self) -> bool {
        self.writes.values().all(|m| m.is_empty())
    }
}

/// Result of a successful commit, consumed by the tracing layer: the
/// commit's log entry itself, sharing its change list (empty for a
/// read-only commit, which logs nothing and serializes at its snapshot).
pub type CommitInfo = crate::log::CommittedTxn;

/// An active transaction handle.
///
/// Dropping an uncommitted transaction aborts it implicitly: its buffered
/// writes are discarded and it is removed from the active-transaction
/// registry (releasing its pin on the GC watermark).
#[derive(Debug)]
pub struct Transaction {
    db: Database,
    state: Option<TxnState>,
}

impl Drop for Transaction {
    fn drop(&mut self) {
        // Commit hands the state (and the deregistration duty) to the
        // database; anything else — explicit abort or an implicit drop —
        // deregisters here.
        if let Some(state) = self.state.take() {
            self.db.registry().deregister(state.id);
        }
    }
}

impl Transaction {
    pub(crate) fn new(db: Database, id: TxnId, start_ts: Ts, isolation: IsolationLevel) -> Self {
        Transaction {
            db,
            state: Some(TxnState::new(id, start_ts, isolation)),
        }
    }

    /// The transaction id assigned at begin.
    pub fn id(&self) -> TxnId {
        self.state.as_ref().map(|s| s.id).unwrap_or(0)
    }

    /// The snapshot timestamp this transaction reads at (for snapshot
    /// isolation and serializable; read committed re-reads the latest
    /// committed state on every access).
    pub fn start_ts(&self) -> Ts {
        self.state.as_ref().map(|s| s.start_ts).unwrap_or(0)
    }

    /// The isolation level.
    pub fn isolation(&self) -> IsolationLevel {
        self.state.as_ref().map(|s| s.isolation).unwrap_or_default()
    }

    fn state_mut(&mut self) -> DbResult<&mut TxnState> {
        self.state.as_mut().ok_or(DbError::TransactionClosed)
    }

    fn state_ref(&self) -> DbResult<&TxnState> {
        self.state.as_ref().ok_or(DbError::TransactionClosed)
    }

    fn read_ts(&self) -> DbResult<Ts> {
        let s = self.state_ref()?;
        Ok(match s.isolation {
            IsolationLevel::ReadCommitted => self.db.current_ts(),
            IsolationLevel::SnapshotIsolation | IsolationLevel::Serializable => s.start_ts,
        })
    }

    /// The visibility timestamp the most recent [`Transaction::get`] /
    /// [`Transaction::scan`] was served at (the transaction's snapshot
    /// until the first read). Under snapshot isolation and serializable
    /// this is always `start_ts`; under read committed it is the
    /// published clock at the time of the read — which is exactly the
    /// per-read provenance the tracing layer records so weak-isolation
    /// histories stay replayable.
    pub fn last_read_ts(&self) -> Ts {
        self.state
            .as_ref()
            .map(|s| s.last_read_ts)
            .unwrap_or_default()
    }

    /// Reads the row with primary key `key` from `table`, observing this
    /// transaction's own buffered writes.
    pub fn get(&mut self, table: &str, key: &Key) -> DbResult<Option<Arc<Row>>> {
        let read_ts = self.read_ts()?;
        let store = self.db.table(table)?;
        let state = self.state_mut()?;
        state.last_read_ts = read_ts;
        state.read_set.push((store.name().clone(), key.clone()));
        if let Some(op) = state.writes.get(table).and_then(|m| m.get(key)) {
            return Ok(op.visible_row().cloned());
        }
        Ok(store.get_at(key, read_ts))
    }

    /// Scans `table` for rows matching `pred`, observing this
    /// transaction's own buffered writes. Results are ordered by primary
    /// key so traces and replays are deterministic.
    pub fn scan(&mut self, table: &str, pred: &Predicate) -> DbResult<Vec<(Key, Arc<Row>)>> {
        let read_ts = self.read_ts()?;
        let store = self.db.table(table)?;
        let compiled = pred.compile(store.name(), store.schema())?;
        // Unique keys, in key order: as is unless this transaction has
        // written the table.
        let committed = store.scan_at_compiled(pred, &compiled, read_ts)?;

        let state = self.state_mut()?;
        state.last_read_ts = read_ts;
        state.scan_set.push((store.name().clone(), pred.clone()));
        let Some(writes) = state.writes.get(table) else {
            return Ok(committed);
        };
        let mut rows: BTreeMap<Key, Arc<Row>> = committed.into_iter().collect();
        for (key, op) in writes {
            match op.visible_row() {
                Some(row) if compiled.matches(row) => {
                    rows.insert(key.clone(), row.clone());
                }
                _ => {
                    rows.remove(key);
                }
            }
        }
        Ok(rows.into_iter().collect())
    }

    /// Convenience: true if any row matches `pred`.
    pub fn exists(&mut self, table: &str, pred: &Predicate) -> DbResult<bool> {
        Ok(!self.scan(table, pred)?.is_empty())
    }

    /// Convenience: number of rows matching `pred`.
    pub fn count(&mut self, table: &str, pred: &Predicate) -> DbResult<usize> {
        Ok(self.scan(table, pred)?.len())
    }

    /// Inserts a new row. Fails with [`DbError::DuplicateKey`] if a row
    /// with the same primary key is visible to this transaction.
    pub fn insert(&mut self, table: &str, row: Row) -> DbResult<Key> {
        let read_ts = self.read_ts()?;
        let store = self.db.table(table)?;
        store.schema().validate_row(table, &row)?;
        let key = Key::new(store.schema().key_of(&row));

        let exists_committed = store.exists_at(&key, read_ts);
        let row = Arc::new(row);
        let state = self.state_mut()?;
        // The duplicate check is a read of this key: record it so that a
        // concurrent insert of the same key is caught by validation.
        state.read_set.push((store.name().clone(), key.clone()));
        let table_writes = state.writes.entry(store.name().clone()).or_default();
        match table_writes.get(&key) {
            Some(WriteOp::Insert(_) | WriteOp::Upsert(_) | WriteOp::Update { .. }) => {
                return Err(DbError::DuplicateKey {
                    table: table.to_string(),
                    key: key.to_string(),
                });
            }
            Some(WriteOp::Delete { before }) => {
                // Deleted earlier in this transaction: the net effect is an
                // update of the original row.
                let before = before.clone();
                table_writes.insert(key.clone(), WriteOp::Update { before, after: row });
                return Ok(key);
            }
            None => {}
        }
        if exists_committed {
            return Err(DbError::DuplicateKey {
                table: table.to_string(),
                key: key.to_string(),
            });
        }
        table_writes.insert(key.clone(), WriteOp::Insert(row));
        Ok(key)
    }

    /// Updates the row with primary key `key` to `new_row`. The new row's
    /// primary key must be unchanged.
    pub fn update(&mut self, table: &str, key: &Key, new_row: Row) -> DbResult<()> {
        let read_ts = self.read_ts()?;
        let store = self.db.table(table)?;
        store.schema().validate_row(table, &new_row)?;
        let new_key = Key::new(store.schema().key_of(&new_row));
        if &new_key != key {
            return Err(DbError::Invalid(format!(
                "update must not change the primary key ({key} -> {new_key})"
            )));
        }
        let committed = store.get_at(key, read_ts);
        let new_row = Arc::new(new_row);
        let state = self.state_mut()?;
        state.read_set.push((store.name().clone(), key.clone()));
        let table_writes = state.writes.entry(store.name().clone()).or_default();
        let op = match table_writes.get(key) {
            Some(WriteOp::Insert(_)) => WriteOp::Insert(new_row),
            Some(WriteOp::Upsert(_)) => WriteOp::Upsert(new_row),
            Some(WriteOp::Update { before, .. }) => WriteOp::Update {
                before: before.clone(),
                after: new_row,
            },
            Some(WriteOp::Delete { .. }) => {
                return Err(DbError::NoSuchKey {
                    table: table.to_string(),
                    key: key.to_string(),
                })
            }
            None => {
                let before = committed.ok_or_else(|| DbError::NoSuchKey {
                    table: table.to_string(),
                    key: key.to_string(),
                })?;
                WriteOp::Update {
                    before,
                    after: new_row,
                }
            }
        };
        table_writes.insert(key.clone(), op);
        Ok(())
    }

    /// Inserts `row`, or replaces the row with the same primary key that
    /// this transaction sees. Like [`Transaction::update`] it reads the
    /// key; unlike [`Transaction::insert`] a key another transaction
    /// creates concurrently is not a duplicate — under read committed the
    /// row replaces it, under stronger levels validation decides.
    pub fn upsert(&mut self, table: &str, row: Row) -> DbResult<Key> {
        let read_ts = self.read_ts()?;
        let store = self.db.table(table)?;
        store.schema().validate_row(table, &row)?;
        let key = Key::new(store.schema().key_of(&row));
        let committed = store.get_at(&key, read_ts);
        let row = Arc::new(row);
        let state = self.state_mut()?;
        state.read_set.push((store.name().clone(), key.clone()));
        let table_writes = state.writes.entry(store.name().clone()).or_default();
        let op = match (table_writes.remove(&key), committed) {
            (Some(WriteOp::Insert(_)), _) => WriteOp::Insert(row),
            (Some(WriteOp::Upsert(_)), _) | (None, None) => WriteOp::Upsert(row),
            (Some(WriteOp::Update { before, .. } | WriteOp::Delete { before }), _)
            | (None, Some(before)) => WriteOp::Update { before, after: row },
        };
        table_writes.insert(key.clone(), op);
        Ok(key)
    }

    /// Updates every row matching `pred` by applying `f`. Returns the
    /// number of rows updated.
    pub fn update_where<F>(&mut self, table: &str, pred: &Predicate, mut f: F) -> DbResult<usize>
    where
        F: FnMut(&Row) -> Row,
    {
        let matches = self.scan(table, pred)?;
        let mut n = 0;
        for (key, row) in matches {
            let new_row = f(&row);
            self.update(table, &key, new_row)?;
            n += 1;
        }
        Ok(n)
    }

    /// Deletes the row with primary key `key`. Returns true if a row was
    /// deleted. Deleting a key this transaction does not see is a read of
    /// the key and nothing else.
    pub fn delete(&mut self, table: &str, key: &Key) -> DbResult<bool> {
        let read_ts = self.read_ts()?;
        let store = self.db.table(table)?;
        let committed = store.get_at(key, read_ts);
        let state = self.state_mut()?;
        state.read_set.push((store.name().clone(), key.clone()));
        let table_writes = state.writes.entry(store.name().clone()).or_default();
        let (op, deleted) = match (table_writes.remove(key), committed) {
            // Written from nothing within this transaction: net no-op.
            (Some(WriteOp::Insert(_) | WriteOp::Upsert(_)), _) => (None, true),
            (Some(WriteOp::Update { before, .. }), _) | (None, Some(before)) => {
                (Some(WriteOp::Delete { before }), true)
            }
            (Some(op @ WriteOp::Delete { .. }), _) => (Some(op), false),
            (None, None) => (None, false),
        };
        match op {
            Some(op) => {
                table_writes.insert(key.clone(), op);
            }
            // A table this transaction does not write stays out of its
            // write set, so the commit neither locks nor logs it.
            None if table_writes.is_empty() => {
                state.writes.remove(store.name());
            }
            None => {}
        }
        Ok(deleted)
    }

    /// Deletes every row matching `pred`. Returns the number deleted.
    pub fn delete_where(&mut self, table: &str, pred: &Predicate) -> DbResult<usize> {
        let matches = self.scan(table, pred)?;
        let mut n = 0;
        for (key, _) in matches {
            if self.delete(table, &key)? {
                n += 1;
            }
        }
        Ok(n)
    }

    /// The buffered (uncommitted) writes as CDC-style change records.
    pub fn pending_changes(&self) -> Vec<ChangeRecord> {
        let mut out = Vec::new();
        if let Some(s) = &self.state {
            for (table, writes) in &s.writes {
                for (key, op) in writes {
                    let rec = match op {
                        WriteOp::Insert(after) | WriteOp::Upsert(after) => {
                            ChangeRecord::insert(table.clone(), key.clone(), after.clone())
                        }
                        WriteOp::Update { before, after } => ChangeRecord::update(
                            table.clone(),
                            key.clone(),
                            before.clone(),
                            after.clone(),
                        ),
                        WriteOp::Delete { before } => {
                            ChangeRecord::delete(table.clone(), key.clone(), before.clone())
                        }
                    };
                    out.push(rec);
                }
            }
        }
        out
    }

    /// Commits the transaction, returning commit metadata and the CDC
    /// records. Concurrency failures ([`DbError::WriteConflict`],
    /// [`DbError::SerializationFailure`]) abort the transaction.
    pub fn commit(mut self) -> DbResult<CommitInfo> {
        let state = self.state.take().ok_or(DbError::TransactionClosed)?;
        self.db.commit_coordinated(state)
    }

    /// Aborts the transaction, discarding all buffered writes and
    /// deregistering it from the active-transaction registry (via `Drop`).
    pub fn abort(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::row;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn db_with_accounts() -> Database {
        let db = Database::new();
        let schema = Schema::builder()
            .column("id", DataType::Int)
            .column("owner", DataType::Text)
            .column("balance", DataType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap();
        db.create_table("accounts", schema).unwrap();
        db
    }

    #[test]
    fn insert_get_commit_roundtrip() {
        let db = db_with_accounts();
        let mut txn = db.begin();
        txn.insert("accounts", row![1i64, "alice", 100i64]).unwrap();
        assert_eq!(
            txn.get("accounts", &Key::single(1i64)).unwrap(),
            Some(std::sync::Arc::new(row![1i64, "alice", 100i64]))
        );
        let info = txn.commit().unwrap();
        assert_eq!(info.changes.len(), 1);
        assert!(info.commit_ts > 0);

        let mut txn2 = db.begin();
        assert_eq!(
            txn2.get("accounts", &Key::single(1i64)).unwrap(),
            Some(std::sync::Arc::new(row![1i64, "alice", 100i64]))
        );
    }

    #[test]
    fn read_your_own_writes_in_scans() {
        let db = db_with_accounts();
        let mut setup = db.begin();
        setup
            .insert("accounts", row![1i64, "alice", 100i64])
            .unwrap();
        setup.commit().unwrap();

        let mut txn = db.begin();
        txn.insert("accounts", row![2i64, "bob", 50i64]).unwrap();
        txn.update("accounts", &Key::single(1i64), row![1i64, "alice", 75i64])
            .unwrap();
        let rows = txn.scan("accounts", &Predicate::True).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].1, row![1i64, "alice", 75i64]);
        assert_eq!(rows[1].1, row![2i64, "bob", 50i64]);

        txn.delete("accounts", &Key::single(1i64)).unwrap();
        let rows = txn.scan("accounts", &Predicate::True).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1, row![2i64, "bob", 50i64]);
    }

    /// A scan answers in primary-key order whether or not the
    /// transaction has written the table: the committed rows come back
    /// sorted (the row map holds them in no order), and own inserts,
    /// updates and deletes are merged into that order.
    #[test]
    fn scans_return_key_order_with_and_without_own_writes() {
        let db = db_with_accounts();
        db.create_index("accounts", "balance").unwrap();
        let mut setup = db.begin();
        for i in (0..200i64).map(|i| (i * 37) % 200) {
            setup
                .insert("accounts", row![i * 2, format!("u{i}"), i % 10])
                .unwrap();
        }
        setup.commit().unwrap();
        // Key -> balance; a full scan, and a range on the indexed column.
        let check = |txn: &mut Transaction, expect: &BTreeMap<i64, i64>| {
            for (pred, below) in [
                (Predicate::True, i64::MAX),
                (Predicate::lt("balance", 5i64), 5),
            ] {
                let rows = txn.scan("accounts", &pred).unwrap();
                let keys: Vec<i64> = rows
                    .iter()
                    .map(|(k, _)| k.values()[0].as_int().unwrap())
                    .collect();
                let want: Vec<i64> = expect
                    .iter()
                    .filter(|&(_, &b)| b < below)
                    .map(|(&k, _)| k)
                    .collect();
                assert_eq!(keys, want, "{pred:?}");
            }
        };
        let mut expect: BTreeMap<i64, i64> = (0..200i64).map(|i| (i * 2, i % 10)).collect();
        let mut txn = db.begin();
        check(&mut txn, &expect);

        // Odd keys land between the committed even ones.
        txn.insert("accounts", row![7i64, "new", 1i64]).unwrap();
        txn.insert("accounts", row![401i64, "last", 2i64]).unwrap();
        txn.update("accounts", &Key::single(10i64), row![10i64, "moved", 9i64])
            .unwrap();
        txn.delete("accounts", &Key::single(0i64)).unwrap();
        expect.extend([(7, 1), (401, 2), (10, 9)]);
        expect.remove(&0);
        check(&mut txn, &expect);
    }

    #[test]
    fn duplicate_insert_rejected_within_and_across_txns() {
        let db = db_with_accounts();
        let mut txn = db.begin();
        txn.insert("accounts", row![1i64, "a", 1i64]).unwrap();
        let err = txn.insert("accounts", row![1i64, "b", 2i64]).unwrap_err();
        assert!(matches!(err, DbError::DuplicateKey { .. }));
        txn.commit().unwrap();

        let mut txn2 = db.begin();
        let err = txn2.insert("accounts", row![1i64, "c", 3i64]).unwrap_err();
        assert!(matches!(err, DbError::DuplicateKey { .. }));
    }

    #[test]
    fn delete_then_insert_becomes_update() {
        let db = db_with_accounts();
        let mut setup = db.begin();
        setup
            .insert("accounts", row![1i64, "alice", 100i64])
            .unwrap();
        setup.commit().unwrap();

        let mut txn = db.begin();
        txn.delete("accounts", &Key::single(1i64)).unwrap();
        txn.insert("accounts", row![1i64, "alice", 0i64]).unwrap();
        let info = txn.commit().unwrap();
        assert_eq!(info.changes.len(), 1);
        assert_eq!(info.changes[0].op.kind(), "Update");
    }

    #[test]
    fn insert_then_delete_is_a_net_noop() {
        let db = db_with_accounts();
        let mut txn = db.begin();
        txn.insert("accounts", row![9i64, "temp", 1i64]).unwrap();
        assert!(txn.delete("accounts", &Key::single(9i64)).unwrap());
        let info = txn.commit().unwrap();
        assert!(info.changes.is_empty());
        let mut check = db.begin();
        assert_eq!(check.get("accounts", &Key::single(9i64)).unwrap(), None);
    }

    #[test]
    fn update_missing_row_fails() {
        let db = db_with_accounts();
        let mut txn = db.begin();
        let err = txn
            .update("accounts", &Key::single(42i64), row![42i64, "x", 1i64])
            .unwrap_err();
        assert!(matches!(err, DbError::NoSuchKey { .. }));
    }

    #[test]
    fn update_cannot_change_primary_key() {
        let db = db_with_accounts();
        let mut setup = db.begin();
        setup.insert("accounts", row![1i64, "a", 1i64]).unwrap();
        setup.commit().unwrap();
        let mut txn = db.begin();
        let err = txn
            .update("accounts", &Key::single(1i64), row![2i64, "a", 1i64])
            .unwrap_err();
        assert!(matches!(err, DbError::Invalid(_)));
    }

    #[test]
    fn update_where_and_delete_where() {
        let db = db_with_accounts();
        let mut setup = db.begin();
        for i in 0..10i64 {
            setup
                .insert("accounts", row![i, format!("user{i}"), 100i64])
                .unwrap();
        }
        setup.commit().unwrap();

        let mut txn = db.begin();
        let updated = txn
            .update_where("accounts", &Predicate::lt("id", 5i64), |r| {
                let mut r = r.clone();
                r.set(2, 200i64);
                r
            })
            .unwrap();
        assert_eq!(updated, 5);
        let deleted = txn
            .delete_where("accounts", &Predicate::ge("id", 8i64))
            .unwrap();
        assert_eq!(deleted, 2);
        txn.commit().unwrap();

        let mut check = db.begin();
        assert_eq!(check.count("accounts", &Predicate::True).unwrap(), 8);
        assert_eq!(
            check
                .count("accounts", &Predicate::eq("balance", 200i64))
                .unwrap(),
            5
        );
    }

    #[test]
    fn operations_after_commit_fail() {
        let db = db_with_accounts();
        let txn = db.begin();
        let id = txn.id();
        assert!(id > 0);
        txn.commit().unwrap();
        // A new transaction works fine; the old handle is consumed by
        // commit so misuse is prevented at compile time. Verify abort too.
        let txn2 = db.begin();
        txn2.abort();
    }

    #[test]
    fn read_only_commit_produces_no_log_entry() {
        let db = db_with_accounts();
        let mut txn = db.begin();
        let _ = txn.scan("accounts", &Predicate::True).unwrap();
        let info = txn.commit().unwrap();
        assert!(info.changes.is_empty());
        assert_eq!(db.log_len(), 0);
    }

    #[test]
    fn pending_changes_reflect_buffered_writes() {
        let db = db_with_accounts();
        let mut txn = db.begin();
        txn.insert("accounts", row![1i64, "a", 1i64]).unwrap();
        let pending = txn.pending_changes();
        assert_eq!(pending.len(), 1);
        assert_eq!(&*pending[0].table, "accounts");
        assert_eq!(pending[0].op.kind(), "Insert");
    }
}
