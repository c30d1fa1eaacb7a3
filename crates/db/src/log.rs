//! The commit-ordered transaction log.
//!
//! Strict serializability means transactions are serialized in commit
//! order (paper §3.1); the log records exactly that order together with
//! each transaction's change-data-capture records. The TROD interposition
//! layer reads committed entries from here, and the replay engine re-applies
//! them to reconstruct past database states.
//!
//! The aligned log is also the engine's **recovery log**: on a durable
//! database the commit coordinator streams every entry appended here
//! into the active segment of the [`crate::segment::SegmentedWal`]
//! inside the publication window (byte order == commit order) in its redo
//! form, [`LoggedTxn`]: keys and after images. Recovery replays those
//! records back through the commit path, identity included, and derives
//! each before image from the row its install displaces, so the entries
//! it rebuilds equal the ones logged. GC truncates this log at the floor
//! established by [`TxnLog::truncate_before`]; the log's sealed segments
//! stay where rotation put them, whatever the floor. They are the one
//! copy of the history GC removes from memory: `Database::history` and
//! forks below the floor rebuild it from there.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::cdc::ChangeRecord;
use crate::mvcc::Ts;
use crate::row::{Key, Row};

/// Identifier assigned to every transaction at `begin`.
pub type TxnId = u64;

/// A committed transaction as recorded in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedTxn {
    /// Transaction identifier.
    pub txn_id: TxnId,
    /// Snapshot timestamp the transaction read at.
    pub start_ts: Ts,
    /// Commit timestamp; defines the serial order.
    pub commit_ts: Ts,
    /// Row-level changes, in the order they were applied. The commit's
    /// one change list, shared with what its commit returned
    /// ([`CommitInfo`](crate::CommitInfo), this type) and its trace:
    /// cloning an entry copies no record.
    pub changes: Arc<[ChangeRecord]>,
}

impl CommittedTxn {
    /// True if this transaction wrote the given table.
    pub fn writes_table(&self, table: &str) -> bool {
        self.changes.iter().any(|c| &*c.table == table)
    }
}

/// A committed transaction as the durable log holds it: its identity and,
/// per change record in order, the key and the row the commit left there
/// (`None` for a delete). Before images are not logged: replay
/// ([`Database::apply_entries`](crate::Database::apply_entries)) derives
/// them from the rows its install displaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedTxn {
    pub txn_id: TxnId,
    pub start_ts: Ts,
    pub commit_ts: Ts,
    pub writes: Vec<LoggedWrite>,
}

/// One logged write: a key of a table and its after image, if any.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedWrite {
    pub table: Arc<str>,
    pub key: Key,
    pub after: Option<Arc<Row>>,
}

impl From<&CommittedTxn> for LoggedTxn {
    /// The entry's redo form: its before images dropped.
    fn from(entry: &CommittedTxn) -> Self {
        let writes = entry.changes.iter().map(|c| LoggedWrite {
            table: c.table.clone(),
            key: c.key.clone(),
            after: c.op.after_shared().cloned(),
        });
        LoggedTxn {
            txn_id: entry.txn_id,
            start_ts: entry.start_ts,
            commit_ts: entry.commit_ts,
            writes: writes.collect(),
        }
    }
}

/// Append-only, commit-ordered transaction log.
#[derive(Debug, Default)]
pub struct TxnLog {
    entries: Vec<CommittedTxn>,
    /// Highest timestamp ever passed to truncation: entries (and the row
    /// versions GC'd with them) at or below this are gone, so a fork or
    /// time-travel read below it cannot be served from live state alone.
    truncated_below: Ts,
}

impl TxnLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        TxnLog::default()
    }

    /// Appends a committed transaction. Callers must append in commit
    /// order; this is enforced with a debug assertion.
    pub fn append(&mut self, entry: CommittedTxn) {
        debug_assert!(
            self.entries
                .last()
                .map(|prev| prev.commit_ts < entry.commit_ts)
                .unwrap_or(true),
            "transaction log must be appended in commit order"
        );
        self.entries.push(entry);
    }

    /// All entries in commit order.
    pub fn entries(&self) -> &[CommittedTxn] {
        &self.entries
    }

    /// Entries with commit timestamps in `(after, up_to]`.
    pub fn between(&self, after: Ts, up_to: Ts) -> Vec<CommittedTxn> {
        // Entries are sorted by commit_ts: binary search for both cuts.
        let lo = self.entries.partition_point(|e| e.commit_ts <= after);
        let hi = self.entries.partition_point(|e| e.commit_ts <= up_to);
        self.entries[lo..hi.max(lo)].to_vec()
    }

    /// Number of committed transactions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has committed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops entries with commit timestamp at or below `ts` (GC, or a
    /// restored checkpoint). Returns the number removed.
    pub fn truncate_before(&mut self, ts: Ts) -> usize {
        self.truncated_below = self.truncated_below.max(ts);
        let cut = self.entries.partition_point(|e| e.commit_ts <= ts);
        self.entries.drain(0..cut);
        cut
    }

    /// The highest truncation horizon so far: history at or below this
    /// timestamp is no longer in the log (0 if never truncated).
    pub fn truncated_below(&self) -> Ts {
        self.truncated_below
    }
}

/// Number of staging shards in [`LogStaging`]. Power of two so the shard
/// pick is a mask; sized to comfortably exceed the number of commits that
/// can be between "published" and "drained" at once.
const STAGING_SHARDS: usize = 8;

/// Sharded staging buffers between the publication window and the
/// [`TxnLog`].
///
/// Publishers used to append straight into the single `Mutex<TxnLog>`
/// inside the ordered publication window, making that mutex the fan-in
/// point of every commit. Instead, a publisher now pushes its entry into
/// a small per-timestamp shard (uncontended unless two in-flight commits
/// land on the same shard) *before* bumping the published clock; log
/// readers drain the shards back into the `TxnLog` in commit order (see
/// `Database::synced_log`). The observable log — order, contents,
/// truncation floors — is byte-identical to the direct-append scheme.
///
/// Correctness hinges on one happens-before edge: a publisher pushes its
/// entry and *then* stores the clock, so any reader that snapshots the
/// published clock first is guaranteed to find every entry with
/// `commit_ts <=` that snapshot already in a shard. Entries above the
/// snapshot are left staged for a later drain.
#[derive(Debug, Default)]
pub struct LogStaging {
    shards: [Mutex<Vec<CommittedTxn>>; STAGING_SHARDS],
}

impl LogStaging {
    /// Creates empty staging shards.
    pub fn new() -> Self {
        LogStaging::default()
    }

    /// Stages a published entry. Called by the publication window owner
    /// before it bumps the published clock; only shard-local locking.
    pub fn push(&self, entry: CommittedTxn) {
        let shard = (entry.commit_ts as usize) & (STAGING_SHARDS - 1);
        self.shards[shard].lock().push(entry);
    }

    /// Removes and returns every staged entry with
    /// `commit_ts <= published`, sorted by commit timestamp. The caller
    /// must have read `published` from the publication clock *before*
    /// calling (see the type docs) and must serialize drains (the
    /// `TxnLog` lock does) so drained ranges append in order.
    pub fn drain_up_to(&self, published: Ts) -> Vec<CommittedTxn> {
        let mut drained = Vec::new();
        for shard in &self.shards {
            let mut entries = shard.lock();
            let mut i = 0;
            while i < entries.len() {
                if entries[i].commit_ts <= published {
                    drained.push(entries.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        drained.sort_unstable_by_key(|e| e.commit_ts);
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdc::ChangeRecord;
    use crate::row;
    use crate::row::Key;

    fn entry(txn_id: TxnId, commit_ts: Ts, table: &str) -> CommittedTxn {
        CommittedTxn {
            txn_id,
            start_ts: commit_ts.saturating_sub(1),
            commit_ts,
            changes: Arc::new([ChangeRecord::insert(
                table,
                Key::single(txn_id as i64),
                row![txn_id as i64],
            )]),
        }
    }

    #[test]
    fn append_and_query_ranges() {
        let mut log = TxnLog::new();
        assert!(log.is_empty());
        for (id, ts) in [(1, 5), (2, 8), (3, 12)] {
            log.append(entry(id, ts, "t"));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.between(5, 12).len(), 2);
        assert_eq!(log.between(12, 99).len(), 0);
        assert_eq!(log.between(0, 5).len(), 1);
        assert_eq!(log.between(6, 7).len(), 0);
        assert_eq!(log.between(12, 5).len(), 0, "an empty range");
    }

    #[test]
    fn writes_table_names_the_tables_of_its_records() {
        let mut e = entry(1, 1, "a");
        let insert = |table, id: i64| ChangeRecord::insert(table, Key::single(id), row![id]);
        e.changes = Arc::new([insert("a", 1), insert("a", 2), insert("b", 3)]);
        assert!(e.writes_table("a") && e.writes_table("b"));
        assert!(!e.writes_table("c"));
    }

    #[test]
    fn truncation_removes_old_entries() {
        let mut log = TxnLog::new();
        for (id, ts) in [(1, 1), (2, 2), (3, 3), (4, 4)] {
            log.append(entry(id, ts, "t"));
        }
        let removed = log.truncate_before(2);
        assert_eq!(removed, 2);
        assert_eq!(log.len(), 2);
        assert_eq!(log.entries()[0].commit_ts, 3);
        assert_eq!(log.truncated_below(), 2);
        // The horizon only ever rises.
        log.truncate_before(1);
        assert_eq!(log.truncated_below(), 2);
    }

    #[test]
    #[should_panic(expected = "commit order")]
    #[cfg(debug_assertions)]
    fn out_of_order_append_panics_in_debug() {
        let mut log = TxnLog::new();
        log.append(entry(1, 10, "t"));
        log.append(entry(2, 5, "t"));
    }
}
