//! The database façade: catalog, durable boot, checkpoints, reads,
//! history, forking and garbage collection. Publication of
//! commits lives in [`crate::commit`]; how the pieces fit is written up
//! once in `crates/db/DESIGN.md` ("The commit protocol", "The read path",
//! "Forking and replay injection", "The durable log", "Key-value
//! namespaces").
//!
//! Invariants this module owns:
//!
//! * **Readers resolve against the published clock**
//!   ([`Database::current_ts`]), never the allocator: an installed but
//!   unpublished version is invisible to every read, fork and
//!   checkpoint. An as-of read's timestamp is clamped to it.
//! * **Every access path returns the full scan's result.** Indexes
//!   over-approximate and re-check, at any read timestamp.
//! * **A key-value namespace is a table.** `kv:<name>` holds
//!   `(kv_key, kv_value)` rows; it is hidden from [`Database::table_names`]
//!   and listed by [`Database::namespaces`], and everything else — commit,
//!   fork, GC, recovery — treats it like any table. Checkpoints write it
//!   in their namespace section.
//! * **History is reclaimed together and never under an active
//!   transaction or a live fork.** [`Database::gc_before`] clamps to the
//!   watermark (active transactions and fork pins), chosen under the log
//!   lock, and truncates the aligned log before the row versions.
//!   [`Database::fork_at`] checks [`Database::log_truncated_below`] and
//!   pins under the same lock.
//! * **Below the floor the durable log is the history.** A durable
//!   database's segments hold every commit ever made, so
//!   [`Database::history`] and [`Database::fork_at`] read them below the
//!   floor; without a log that is [`DbError::HistoryTruncated`], never a
//!   partial answer.
//! * **The log is read through `Database::synced_log`**, which drains
//!   published entries from the commit pipeline's staging in commit
//!   order; unpublished entries are not observable.
//! * **DDL is logged and synced before the commits that use it;
//!   rotation and checkpoints never run inside the publication window**
//!   and never fail a commit.
//! * **Recovery is one streaming walk with one replay step**
//!   ([`Database::open_durable_in`]), re-installing each entry verbatim
//!   through the commit pipeline as it is decoded, before the log is
//!   attached.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::cdc::{
    is_kv_table, kv_table_name, namespace_entry, namespace_row, namespace_schema, KV_TABLE_PREFIX,
};
use crate::checkpoint::{Checkpoint, CheckpointNamespace, CheckpointTable};
use crate::commit::Sequencer;
use crate::dir::{FsDir, LogDir};
use crate::error::{DbError, DbResult, StorageError};
use crate::log::{CommittedTxn, TxnLog};
use crate::mvcc::Ts;
use crate::predicate::Predicate;
use crate::registry::{ActiveTxnRegistry, GcPin};
use crate::row::{Key, Row};
use crate::schema::Schema;
use crate::segment::{RecoveredLog, RecoveryReport, Replay, SegmentedWal};
use crate::table::{ScanPlan, ScanRows, TableStore};
use crate::txn::{IsolationLevel, Transaction};
use crate::wal::{WalOptions, WalRecord};

/// Point-in-time statistics about a database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbStats {
    pub tables: usize,
    pub live_rows: usize,
    pub total_versions: usize,
    pub committed_txns: usize,
    pub current_ts: Ts,
}

struct DbInner {
    tables: RwLock<BTreeMap<String, Arc<TableStore>>>,
    /// Timestamp allocation, ordered publication and the staged tail of
    /// the log (see [`crate::commit`]).
    seq: Sequencer,
    next_txn_id: AtomicU64,
    /// The drained prefix of the aligned log; always read through
    /// [`Database::synced_log`].
    log: Mutex<TxnLog>,
    /// Active transactions (txn id -> start_ts); source of the
    /// min-active-start-ts watermark that bounds GC and ring eviction.
    registry: Arc<ActiveTxnRegistry>,
    /// The durable log of the aligned history: when attached, every commit
    /// appends its log entry (and DDL its record) inside the publication
    /// window and group-syncs after releasing its locks. `None` = pure
    /// in-memory database (forks, tests, the default).
    wal: RwLock<Option<Arc<SegmentedWal>>>,
    /// At most one checkpoint capture runs at a time; losers of the CAS
    /// are counted as skips, not queued — the next trigger retries.
    checkpoint_in_progress: AtomicBool,
    /// A fork's hold on its parent's history, released when the last
    /// handle to the fork drops (its tables share it, see
    /// [`TableStore::reading_through`]). `None` for a database that is not
    /// a read-through fork.
    _base_pin: Option<Arc<GcPin>>,
}

/// A handle to an in-memory transactional database.
///
/// `Database` is cheaply cloneable (it is an `Arc` internally); clones
/// share the same underlying state, which is how concurrent request
/// handlers in the runtime share one store.
#[derive(Clone)]
pub struct Database {
    inner: Arc<DbInner>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("Database")
            .field("tables", &stats.tables)
            .field("live_rows", &stats.live_rows)
            .field("committed_txns", &stats.committed_txns)
            .field("current_ts", &stats.current_ts)
            .finish()
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl Database {
    /// Creates an empty in-memory database; [`Database::create_durable`]
    /// and [`Database::open_durable`] make durable ones.
    pub fn new() -> Self {
        Database::build(None)
    }

    fn build(base_pin: Option<Arc<GcPin>>) -> Self {
        Database {
            inner: Arc::new(DbInner {
                tables: RwLock::new(BTreeMap::new()),
                seq: Sequencer::default(),
                next_txn_id: AtomicU64::new(1),
                log: Mutex::new(TxnLog::new()),
                registry: Arc::new(ActiveTxnRegistry::new()),
                wal: RwLock::new(None),
                checkpoint_in_progress: AtomicBool::new(false),
                _base_pin: base_pin,
            }),
        }
    }

    /// Creates an empty database whose commits stream to a fresh
    /// segmented WAL in the directory at `path` (truncating any existing
    /// log there). A regular file at `path` is refused with a typed
    /// error and left untouched.
    pub fn create_durable(
        path: impl AsRef<std::path::Path>,
        opts: WalOptions,
    ) -> DbResult<Database> {
        let db = Database::new();
        db.set_wal(SegmentedWal::create_path(path, opts)?);
        Ok(db)
    }

    /// [`Database::create_durable`] over an arbitrary [`LogDir`]
    /// (fault-injection tests drive a [`crate::dir::FailpointDir`]
    /// through here).
    pub fn create_durable_in(dir: Arc<dyn LogDir>, opts: WalOptions) -> DbResult<Database> {
        let db = Database::new();
        db.set_wal(SegmentedWal::create_dir(dir, opts)?);
        Ok(db)
    }

    /// Opens (creating if absent) a durable database: walks the log in
    /// the directory at `path` and rebuilds the database from it
    /// ([`Database::open_durable_in`]). Damage to durable bytes yields
    /// [`StorageError::Corrupt`], replay inconsistencies
    /// [`StorageError::Recovery`], a regular file at `path` a typed error
    /// that leaves it untouched — never a panic.
    pub fn open_durable(
        path: impl AsRef<std::path::Path>,
        opts: WalOptions,
    ) -> DbResult<(Database, RecoveryReport)> {
        Self::open_durable_in(Arc::new(FsDir::open(path)?), opts)
    }

    /// [`Database::open_durable`] over an arbitrary [`LogDir`]: one
    /// streaming recovery walk ([`SegmentedWal::open_dir`]) restores the
    /// boot checkpoint (if any) and replays each record as it is decoded
    /// (`Database::replay_record`); only then is the log attached, so
    /// replayed entries are not re-appended to it. A failure anywhere in
    /// the walk discards the partial database.
    pub fn open_durable_in(
        dir: Arc<dyn LogDir>,
        opts: WalOptions,
    ) -> DbResult<(Database, RecoveryReport)> {
        let db = Database::new();
        let mut lenient_ddl = false;
        let RecoveredLog { wal, report } =
            SegmentedWal::open_dir(dir, opts, |step, report| match step {
                Replay::Checkpoint(ck) => {
                    lenient_ddl = true;
                    db.restore_checkpoint(ck)
                }
                Replay::Record(record) => db.replay_record(record, lenient_ddl, report),
            })?;
        db.set_wal(wal);
        Ok((db, report))
    }

    /// Replays one recovered record — the only place [`WalRecord`]s are
    /// re-applied: DDL rebuilds the catalog, namespaces included, and a
    /// commit entry re-installs verbatim, `kv:<namespace>` rows included.
    /// Adds the replay counts to `report`.
    ///
    /// On a checkpoint boot DDL replays *leniently*: re-creating an
    /// object the checkpoint already restored is skipped (sound — the
    /// WAL vocabulary has no drop records, so "already exists" can only
    /// mean "the checkpoint got there first"). Full replay stays strict
    /// for tables and namespaces, so a genuinely duplicated `CreateTable`
    /// is a typed recovery error. An index declaration on an already
    /// indexed column is satisfied in every boot: logs from before the
    /// hash and range kinds merged can declare both on one column.
    fn replay_record(
        &self,
        record: WalRecord,
        lenient_ddl: bool,
        report: &mut RecoveryReport,
    ) -> DbResult<()> {
        let recovery_err = |detail: String| DbError::Storage(StorageError::Recovery { detail });
        match record {
            WalRecord::CreateTable { name, schema } => {
                if lenient_ddl && self.has_table(&name) {
                    return Ok(());
                }
                self.create_table(name.clone(), schema)
                    .map_err(|e| recovery_err(format!("create table `{name}`: {e}")))?;
                report.tables += 1;
            }
            WalRecord::CreateIndex { table, column } => {
                let indexed = self
                    .table(&table)
                    .is_ok_and(|t| t.indexed_columns().contains(&column));
                if indexed {
                    return Ok(());
                }
                self.create_index(&table, &column)
                    .map_err(|e| recovery_err(format!("create index `{table}.{column}`: {e}")))?;
                report.indexes += 1;
            }
            WalRecord::CreateNamespace { name } => {
                if lenient_ddl && self.has_namespace(&name) {
                    return Ok(());
                }
                self.create_namespace(&name)
                    .map_err(|e| recovery_err(format!("create namespace `{name}`: {e}")))?;
                report.namespaces.push(name);
            }
            WalRecord::Commit(entry) => {
                self.apply_entry(&entry).map_err(|e| {
                    recovery_err(format!("replay commit ts {}: {e}", entry.commit_ts))
                })?;
                report.commits += 1;
                report.kv_writes_replayed += entry
                    .changes
                    .iter()
                    .filter(|c| is_kv_table(&c.table))
                    .count();
            }
        }
        Ok(())
    }

    /// Attaches the durable log: every subsequent commit appends its
    /// aligned log entry to it. The log must already hold exactly this
    /// database's history (empty for a fresh database).
    fn set_wal(&self, wal: Arc<SegmentedWal>) {
        *self.inner.wal.write() = Some(wal);
    }

    /// The attached WAL, if any.
    pub fn wal(&self) -> Option<Arc<SegmentedWal>> {
        self.inner.wal.read().clone()
    }

    /// Appends a DDL record to the WAL (if attached) and makes it durable
    /// immediately — DDL is rare and must precede the commits that use
    /// the object it creates.
    fn log_ddl(&self, record: WalRecord) -> DbResult<()> {
        if let Some(wal) = self.wal() {
            let lsn = wal.append_record(&record)?;
            wal.sync_to(lsn)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Environment checkpoints (lifecycle: "The durable log" in DESIGN.md)
    // ------------------------------------------------------------------

    /// Captures an MVCC-consistent [`Checkpoint`] of the environment at
    /// the current *published* commit timestamp: every table's schema,
    /// index columns and rows visible at that timestamp, and every
    /// namespace's entries. Does not write anything —
    /// [`Database::checkpoint`] does capture + durable write.
    pub fn capture_checkpoint(&self) -> Checkpoint {
        // The published clock: every commit at or below it is fully
        // installed, every one above it invisible to the time-travel
        // reads below — the snapshot is consistent without any lock.
        let ts = self.current_ts();
        let (mut tables, mut namespaces) = (Vec::new(), Vec::new());
        for (name, store) in self.inner.tables.read().iter() {
            let rows = store.materialize_at(ts);
            match name.strip_prefix(KV_TABLE_PREFIX) {
                Some(namespace) => namespaces.push(CheckpointNamespace {
                    name: namespace.to_string(),
                    entries: rows.iter().map(|(_, row)| namespace_entry(row)).collect(),
                }),
                None => tables.push(CheckpointTable {
                    name: name.clone(),
                    schema: store.schema().clone(),
                    indexes: store.indexed_columns(),
                    rows,
                }),
            }
        }
        Checkpoint {
            ts,
            next_txn_id: self.inner.next_txn_id.load(Ordering::SeqCst),
            tables,
            namespaces,
        }
    }

    /// Captures and durably writes an environment checkpoint through the
    /// attached WAL, returning `Some((ts, bytes))` on a successful write
    /// and `None` when the attempt was skipped (no WAL attached, nothing
    /// committed yet, a checkpoint at this timestamp already exists, or
    /// another capture is in flight — all counted in the WAL stats).
    /// Never called inside the publication window; see the module docs.
    pub fn checkpoint(&self) -> DbResult<Option<(Ts, u64)>> {
        let Some(wal) = self.wal() else {
            return Ok(None);
        };
        if self
            .inner
            .checkpoint_in_progress
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            wal.count_checkpoint_skip();
            return Ok(None);
        }
        let result = wal
            .write_checkpoint(&self.capture_checkpoint())
            .map_err(DbError::Storage);
        self.inner
            .checkpoint_in_progress
            .store(false, Ordering::SeqCst);
        result
    }

    /// Post-ack checkpoint trigger: takes a checkpoint when enough new
    /// WAL bytes have accumulated since the last one
    /// ([`crate::wal::WalOptions::checkpoint_bytes`]). Errors are counted
    /// in the WAL stats and swallowed — a commit (or GC) never fails
    /// because a checkpoint could not be written.
    pub fn maybe_checkpoint(&self) {
        if let Some(wal) = self.wal() {
            if wal.wants_checkpoint() {
                let _ = self.checkpoint();
            }
        }
    }

    /// Restores a decoded checkpoint into this **empty, WAL-less**
    /// database: re-creates every table and namespace, installs its rows
    /// at the checkpoint timestamp, creates the indexes (empty: the
    /// first read that needs one builds it), advances the clock and
    /// transaction-id allocator, and raises the log truncation floor to
    /// the checkpoint timestamp — history below the checkpoint reads as
    /// typed truncation, exactly as if GC had truncated it.
    fn restore_checkpoint(&self, ck: &Checkpoint) -> DbResult<()> {
        let ts = ck.ts.max(1);
        for table in &ck.tables {
            self.create_table(table.name.clone(), table.schema.clone())?;
            let store = self.table(&table.name)?;
            store.install_snapshot(table.rows.iter().cloned(), ts);
            for column in &table.indexes {
                store.create_index(column)?;
            }
        }
        for namespace in &ck.namespaces {
            self.create_namespace(&namespace.name)?;
            let entries = namespace.entries.iter();
            self.table(&kv_table_name(&namespace.name))?
                .install_snapshot(
                    entries.map(|(k, v)| (Key::single(k.as_str()), Arc::new(namespace_row(k, v)))),
                    ts,
                );
        }
        // Jump the clocks directly (never via `ensure_ts_at_least`, which
        // publishes every intermediate tick — O(ts) work).
        self.inner.seq.start_at(ck.ts);
        self.inner
            .next_txn_id
            .fetch_max(ck.next_txn_id, Ordering::SeqCst);
        self.inner.log.lock().truncate_before(ck.ts);
        Ok(())
    }

    /// The commit pipeline's timestamp and publication state.
    pub(crate) fn seq(&self) -> &Sequencer {
        &self.inner.seq
    }

    /// The transaction-id allocator.
    pub(crate) fn next_txn_id(&self) -> &AtomicU64 {
        &self.inner.next_txn_id
    }

    // ------------------------------------------------------------------
    // Catalog
    // ------------------------------------------------------------------

    /// Creates a table. Names starting with `kv:` are rejected: that
    /// prefix is reserved for key-value namespaces
    /// ([`Database::create_namespace`]).
    pub fn create_table(&self, name: impl Into<String>, schema: Schema) -> DbResult<()> {
        let name = name.into();
        if is_kv_table(&name) {
            return Err(DbError::Invalid(format!(
                "table name `{name}` uses the reserved `kv:` namespace prefix"
            )));
        }
        self.add_table(name.clone(), schema.clone())?;
        self.log_ddl(WalRecord::CreateTable { name, schema })
    }

    /// Creates the key-value namespace `name`: the table `kv:<name>` of
    /// `(kv_key TEXT PRIMARY KEY, kv_value TEXT NOT NULL)` rows, logged as
    /// a `CreateNamespace` record. An existing namespace is
    /// [`DbError::NamespaceExists`].
    pub fn create_namespace(&self, name: &str) -> DbResult<()> {
        self.add_table(kv_table_name(name).to_string(), namespace_schema())
            .map_err(|_| DbError::NamespaceExists(name.to_string()))?;
        self.log_ddl(WalRecord::CreateNamespace {
            name: name.to_string(),
        })
    }

    fn add_table(&self, name: String, schema: Schema) -> DbResult<()> {
        let mut tables = self.inner.tables.write();
        if tables.contains_key(&name) {
            return Err(DbError::TableExists(name));
        }
        let store = self.new_table(name.clone(), schema);
        tables.insert(name, Arc::new(store));
        Ok(())
    }

    /// An empty table wired to this database's registry and clock.
    fn new_table(&self, name: impl Into<Arc<str>>, schema: Schema) -> TableStore {
        TableStore::with_registry(
            name,
            schema,
            self.inner.registry.clone(),
            Some(self.inner.seq.clock().clone()),
        )
    }

    /// Copies `src`'s catalog onto this WAL-less database: every table
    /// and namespace this one lacks, then every index each table lacks.
    /// New tables are empty — or, given `base`, read through to `src`'s
    /// table at that timestamp ([`TableStore::reading_through`]). No row is
    /// copied either way.
    fn graft_catalog(&self, src: &Database, base: Option<(Ts, &Arc<GcPin>)>) -> DbResult<()> {
        let src_tables = src.inner.tables.read();
        let mut tables = self.inner.tables.write();
        for (name, from) in src_tables.iter() {
            let to = tables.entry(name.clone()).or_insert_with(|| {
                let table = self.new_table(from.name().clone(), from.schema().clone());
                Arc::new(match base {
                    Some((ts, pin)) => table.reading_through(from, ts, pin.clone()),
                    None => table,
                })
            });
            for column in from.indexed_columns() {
                if !to.indexed_columns().contains(&column) {
                    to.create_index(&column)?;
                }
            }
        }
        Ok(())
    }

    /// Creates a secondary index on `table.column`, serving equality,
    /// `IN (...)`, comparison-window and `ORDER BY ... LIMIT` probes
    /// through the scan planner (see "The read path" in `DESIGN.md`).
    pub fn create_index(&self, table: &str, column: &str) -> DbResult<()> {
        self.table(table)?.create_index(column)?;
        self.log_ddl(WalRecord::CreateIndex {
            table: table.to_string(),
            column: column.to_string(),
        })
    }

    /// Names of all tables, sorted; namespaces are listed by
    /// [`Database::namespaces`] instead.
    pub fn table_names(&self) -> Vec<String> {
        let tables = self.inner.tables.read();
        tables
            .keys()
            .filter(|name| !is_kv_table(name))
            .cloned()
            .collect()
    }

    /// Names of all key-value namespaces, sorted.
    pub fn namespaces(&self) -> Vec<String> {
        let tables = self.inner.tables.read();
        let names = tables
            .keys()
            .filter_map(|name| name.strip_prefix(KV_TABLE_PREFIX));
        names.map(str::to_string).collect()
    }

    /// True if the key-value namespace exists.
    pub fn has_namespace(&self, name: &str) -> bool {
        self.has_table(&kv_table_name(name))
    }

    /// True if the table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.inner.tables.read().contains_key(name)
    }

    /// The schema of a table.
    pub fn schema_of(&self, name: &str) -> DbResult<Schema> {
        Ok(self.table(name)?.schema().clone())
    }

    /// Resolves a handle to a table's physical storage. Most callers want
    /// the transactional API instead; the handle is exposed for
    /// diagnostics and tests (e.g. inspecting a table's
    /// [`ChangeLog`](crate::changelog::ChangeLog)). A missing `kv:<ns>`
    /// table is [`DbError::NoSuchNamespace`].
    pub fn table(&self, name: &str) -> DbResult<Arc<TableStore>> {
        self.inner
            .tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| no_such_table(name))
    }

    /// [`Database::table`] for SQL's case-insensitive names: an exact
    /// match wins, otherwise the first table (in name order) equal up to
    /// ASCII case.
    pub fn table_ignoring_case(&self, name: &str) -> DbResult<Arc<TableStore>> {
        let tables = self.inner.tables.read();
        tables
            .get(name)
            .or_else(|| {
                tables
                    .iter()
                    .find_map(|(n, t)| n.eq_ignore_ascii_case(name).then_some(t))
            })
            .cloned()
            .ok_or_else(|| no_such_table(name))
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Begins a strictly serializable transaction (the default level).
    pub fn begin(&self) -> Transaction {
        self.begin_with(IsolationLevel::Serializable)
    }

    /// Begins a transaction at the given isolation level. The transaction
    /// registers in the active-transaction registry (pinning the GC
    /// watermark at its snapshot) until it commits, aborts or is dropped.
    pub fn begin_with(&self, isolation: IsolationLevel) -> Transaction {
        let id = self.inner.next_txn_id.fetch_add(1, Ordering::Relaxed);
        // The snapshot timestamp is read inside the registry lock so a
        // concurrent GC either sees this transaction or finishes before
        // its snapshot exists — it can never truncate under it.
        let start_ts = self
            .inner
            .registry
            .register_with(id, || self.inner.seq.published());
        Transaction::new(self.clone(), id, start_ts, isolation)
    }

    /// The current commit timestamp: the latest *published* commit.
    /// Commits mid-install at higher allocated timestamps are invisible
    /// until they publish.
    pub fn current_ts(&self) -> Ts {
        self.inner.seq.published()
    }

    /// The active-transaction registry (used by transaction handles to
    /// deregister on drop/abort).
    pub(crate) fn registry(&self) -> &ActiveTxnRegistry {
        &self.inner.registry
    }

    /// The minimum over the snapshot timestamps of all active
    /// transactions and the timestamps live forks read through to, or
    /// `None` when there is neither. GC and change-log eviction never
    /// reclaim history at or above this watermark.
    pub fn min_active_start_ts(&self) -> Option<Ts> {
        self.inner.registry.min_active_start_ts()
    }

    /// Number of active (begun, unfinished) transactions.
    pub fn active_txn_count(&self) -> usize {
        self.inner.registry.active_count()
    }

    /// How many read-through forks of this database are alive, and the
    /// oldest timestamp one of them pins ([`Database::fork_at`]). A fork
    /// held open costs no copy, but GC cannot pass its timestamp.
    pub fn live_forks(&self) -> (usize, Option<Ts>) {
        self.inner.registry.pins()
    }

    /// Locks the transaction log after draining every *published* staged
    /// entry into it, in commit order. All log readers go through here:
    /// snapshotting the publication clock before taking the log mutex is
    /// what makes the drain complete up to the snapshot (a publisher
    /// stages its entry before bumping the clock — see
    /// [`crate::log::LogStaging`]). Entries staged but not yet published
    /// stay behind for a later drain; they are invisible commits and must
    /// not be observable through the log either.
    fn synced_log(&self) -> parking_lot::MutexGuard<'_, TxnLog> {
        let published = self.inner.seq.published();
        let mut log = self.inner.log.lock();
        for entry in self.inner.seq.drain_up_to(published) {
            log.append(entry);
        }
        log
    }

    // ------------------------------------------------------------------
    // Non-transactional reads (latest committed / time travel)
    // ------------------------------------------------------------------

    /// Reads the latest committed version of a row (shared, zero-copy).
    pub fn get_latest(&self, table: &str, key: &Key) -> DbResult<Option<Arc<Row>>> {
        Ok(self.table(table)?.get_at(key, self.current_ts()))
    }

    /// Scans the latest committed state of a table (shared, zero-copy).
    pub fn scan_latest(&self, table: &str, pred: &Predicate) -> DbResult<Vec<(Key, Arc<Row>)>> {
        self.table(table)?.scan_at(pred, self.current_ts())
    }

    /// Reads a row as of an earlier commit timestamp (time travel),
    /// clamped to the published clock.
    pub fn get_as_of(&self, table: &str, key: &Key, ts: Ts) -> DbResult<Option<Arc<Row>>> {
        Ok(self.table(table)?.get_at(key, ts.min(self.current_ts())))
    }

    /// Scans a table as of an earlier commit timestamp (time travel),
    /// clamped to the published clock.
    pub fn scan_as_of(
        &self,
        table: &str,
        pred: &Predicate,
        ts: Ts,
    ) -> DbResult<Vec<(Key, Arc<Row>)>> {
        self.table(table)?.scan_at(pred, ts.min(self.current_ts()))
    }

    /// Top-k scan through the index on `order_col`: rows matching
    /// `pred` in `order_col` order (ties by primary key), truncated to
    /// `limit` — O(k) in the result size instead of scan + sort.
    /// Returns `Ok(None)` when the table cannot serve the order from an
    /// index (no index on the column, or the column is nullable
    /// with no predicate bound to exclude NULLs — NULLs are never
    /// indexed); callers then fall back to scan + sort. The result is
    /// exactly what scan + stable sort + truncate would produce.
    pub fn scan_ordered_as_of(
        &self,
        table: &str,
        pred: &Predicate,
        order_col: &str,
        descending: bool,
        limit: usize,
        ts: Ts,
    ) -> DbResult<Option<ScanRows>> {
        let ts = ts.min(self.current_ts());
        self.table(table)?
            .scan_ordered_limit(pred, order_col, descending, limit, ts)
    }

    /// The access path a scan of `table` for `pred` would take, with its
    /// candidate-count estimate, without executing it (see
    /// [`TableStore::plan_scan`]).
    pub fn plan_scan(&self, table: &str, pred: &Predicate) -> DbResult<ScanPlan> {
        Ok(self.table(table)?.plan_scan(pred))
    }

    // ------------------------------------------------------------------
    // Transaction log
    // ------------------------------------------------------------------

    /// The committed transactions the live log holds — those above
    /// [`Database::log_truncated_below`] — in commit order.
    pub fn log_entries(&self) -> Vec<CommittedTxn> {
        self.synced_log().entries().to_vec()
    }

    /// The committed transactions with commit timestamp in `(after,
    /// up_to]`, in commit order; `up_to` is clamped to the published
    /// clock. At or above the truncation floor they come from the live
    /// log. Below it they come from the attached log's files
    /// ([`SegmentedWal::history`]), which hold every commit this database
    /// ever made; without a log, a range reaching below the floor is
    /// [`DbError::HistoryTruncated`].
    pub fn history(&self, after: Ts, up_to: Ts) -> DbResult<Vec<CommittedTxn>> {
        let up_to = up_to.min(self.current_ts());
        let floor = {
            let log = self.synced_log();
            if after >= up_to || after >= log.truncated_below() {
                return Ok(log.between(after, up_to));
            }
            log.truncated_below()
        };
        match self.wal() {
            Some(wal) => Ok(wal.history(after, up_to)?),
            None => Err(DbError::HistoryTruncated { ts: after, floor }),
        }
    }

    /// Number of committed (writing) transactions.
    pub fn log_len(&self) -> usize {
        self.synced_log().len()
    }

    /// The highest horizon [`Database::gc_before`] (or a checkpoint boot)
    /// has truncated at: log entries *and row versions* at or below this
    /// timestamp are gone from memory, so history and forks below it are
    /// read from the durable log (see "Forking and replay injection" in
    /// `DESIGN.md`). 0 if nothing was truncated.
    pub fn log_truncated_below(&self) -> Ts {
        self.synced_log().truncated_below()
    }

    // ------------------------------------------------------------------
    // Forking, replay support
    // ------------------------------------------------------------------

    /// Forks the state visible at `ts` into an independent database (the
    /// "development database" of the paper's Figure 2), in O(catalog): no
    /// row is copied. `ts` is clamped to the published clock — the fork
    /// never captures a claimed-but-unpublished install — and each table
    /// of the fork reads through to this database's table at that
    /// timestamp until the fork writes the key itself (see
    /// `TableStore::reading_through`). Same schemas and indexes; the fork's
    /// clock starts at the clamped `ts`, so the relative order of its
    /// commits is comparable with the origin's.
    ///
    /// The fork pins this database's history at `ts` for as long as any
    /// handle to it lives: [`Database::gc_before`] will not pass it. The
    /// floor check and the pin happen under the log lock GC chooses its
    /// horizon under, so a fork either pins first (and GC stays below it)
    /// or sees the floor GC raised. Below the floor the versions are gone:
    /// the fork reads through instead to the state at `ts` rebuilt from the
    /// durable log — the newest checkpoint at or before `ts` plus the
    /// commits logged after it — and pins nothing. Without a log that is
    /// [`DbError::HistoryTruncated`].
    pub fn fork_at(&self, ts: Ts) -> DbResult<Database> {
        let (ts, pin) = {
            let log = self.synced_log();
            let ts = ts.min(self.current_ts());
            let floor = log.truncated_below();
            if ts < floor {
                drop(log);
                return self.rebuild_at(ts, floor)?.fork_at(ts);
            }
            (ts, Arc::new(self.inner.registry.pin(ts)))
        };
        let fork = Database::build(Some(pin.clone()));
        fork.graft_catalog(self, Some((ts, &pin)))?;
        fork.inner.seq.start_at(ts.max(1));
        Ok(fork)
    }

    /// The environment as of `ts`, below the truncation `floor`, rebuilt
    /// from the durable log into a new in-memory database: the newest
    /// checkpoint at or before `ts` (or nothing), this database's catalog,
    /// then the commits in `(checkpoint, ts]` re-installed verbatim, the
    /// clock left at `ts`. Without a log it is
    /// [`DbError::HistoryTruncated`].
    fn rebuild_at(&self, ts: Ts, floor: Ts) -> DbResult<Database> {
        let Some(wal) = self.wal() else {
            return Err(DbError::HistoryTruncated { ts, floor });
        };
        let db = Database::new();
        let mut from = 0;
        if let Some(ck) = wal.load_checkpoint_at_or_before(ts)? {
            db.restore_checkpoint(&ck)?;
            from = ck.ts;
        }
        db.graft_catalog(self, None)?;
        for entry in self.history(from, ts)? {
            db.apply_entry(&entry)?;
        }
        db.inner.seq.start_at(ts);
        Ok(db)
    }

    /// Creates a new, empty database with the same schemas and indexes.
    pub fn fork_empty(&self) -> DbResult<Database> {
        let fork = Database::new();
        fork.graft_catalog(self, None)?;
        Ok(fork)
    }

    /// Garbage collects row versions not visible at or after `ts` and
    /// truncates the transaction log below `ts`. Returns (versions
    /// dropped, log entries dropped).
    ///
    /// The horizon is clamped to the watermark
    /// ([`Database::min_active_start_ts`]): GC never drops a version an
    /// active transaction or a live fork can still read, and never
    /// truncates a change log inside an active transaction's validation
    /// window — so truncation can be requested aggressively (e.g. at
    /// `current_ts()`) without ever forcing serializable validation onto
    /// the full-scan fallback.
    pub fn gc_before(&self, ts: Ts) -> (usize, usize) {
        // The horizon is chosen and the floor raised under the log lock,
        // where `fork_at` checks the floor and pins: a fork that pinned
        // first holds the horizon at or below its timestamp, and one that
        // comes later sees the raised floor. Either way the versions a
        // fork reads through to are ones this GC keeps (it keeps the
        // newest version at or below `horizon`, so state at any ts >=
        // horizon stays readable), which is also why the log is truncated
        // BEFORE any row version is dropped.
        let (horizon, logs) = {
            let mut log = self.synced_log();
            let horizon = ts.min(self.inner.registry.watermark());
            (horizon, log.truncate_before(horizon))
        };
        let mut versions = 0;
        for store in self.inner.tables.read().values() {
            versions += store.gc_before(horizon);
        }
        // The log keeps every segment: below the floor it is the history.
        // It remembers the floor, which keeps the checkpoints below it as
        // the deep-fork ladder; a GC is also a natural checkpoint
        // boundary, so take one if enough bytes accrued.
        if let Some(wal) = self.wal() {
            wal.raise_gc_floor(self.log_truncated_below());
            self.maybe_checkpoint();
        }
        (versions, logs)
    }

    /// Current statistics.
    pub fn stats(&self) -> DbStats {
        let tables = self.inner.tables.read();
        let ts = self.current_ts();
        DbStats {
            tables: tables.len(),
            live_rows: tables.values().map(|t| t.count_at(ts)).sum(),
            total_versions: tables.values().map(|t| t.version_count()).sum(),
            committed_txns: self.synced_log().len(),
            current_ts: ts,
        }
    }
}

/// The error for a table `name` the catalog lacks: a missing `kv:<ns>`
/// table is a missing namespace.
fn no_such_table(name: &str) -> DbError {
    match name.strip_prefix(KV_TABLE_PREFIX) {
        Some(namespace) => DbError::NoSuchNamespace(namespace.to_string()),
        None => DbError::NoSuchTable(name.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit::tests::{populated_db, schema};
    use crate::row;

    #[test]
    fn catalog_operations() {
        let db = Database::new();
        db.create_table("a", schema()).unwrap();
        assert!(db.has_table("a"));
        assert!(matches!(
            db.create_table("a", schema()),
            Err(DbError::TableExists(_))
        ));
        assert_eq!(db.table_names(), vec!["a".to_string()]);
        assert_eq!(db.schema_of("a").unwrap().arity(), 2);
        assert_eq!(db.table("b").unwrap_err(), DbError::NoSuchTable("b".into()));

        db.create_namespace("n").unwrap();
        assert_eq!(
            db.create_namespace("n"),
            Err(DbError::NamespaceExists("n".into()))
        );
        assert_eq!(
            db.table(&kv_table_name("m")).unwrap_err(),
            DbError::NoSuchNamespace("m".into())
        );
    }

    #[test]
    fn time_travel_reads_past_states() {
        let db = populated_db();
        let ts_before = db.current_ts();
        let mut txn = db.begin();
        txn.update("t", &Key::single(1i64), row![1i64, "updated"])
            .unwrap();
        txn.commit().unwrap();

        assert_eq!(
            db.get_as_of("t", &Key::single(1i64), ts_before).unwrap(),
            Some(std::sync::Arc::new(row![1i64, "one"]))
        );
        assert_eq!(
            db.get_latest("t", &Key::single(1i64)).unwrap(),
            Some(std::sync::Arc::new(row![1i64, "updated"]))
        );
        assert_eq!(
            db.scan_as_of("t", &Predicate::True, ts_before)
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn log_records_commits_in_order() {
        let db = populated_db();
        let mut txn = db.begin();
        txn.update("t", &Key::single(2i64), row![2i64, "two2"])
            .unwrap();
        txn.commit().unwrap();
        let log = db.log_entries();
        assert_eq!(log.len(), 2);
        assert!(log[0].commit_ts < log[1].commit_ts);
        assert_eq!(db.history(log[0].commit_ts, Ts::MAX).unwrap(), log[1..]);
        assert_eq!(db.history(0, log[0].commit_ts).unwrap(), log[..1]);
        assert_eq!(db.log_len(), 2);
    }

    #[test]
    fn fork_at_holds_the_past_state_and_diverges_independently() {
        let db = populated_db();
        let snap_ts = db.current_ts();

        let mut txn = db.begin();
        txn.insert("t", row![3i64, "three"]).unwrap();
        txn.commit().unwrap();

        let fork = db.fork_at(snap_ts).unwrap();
        assert_eq!(fork.scan_latest("t", &Predicate::True).unwrap().len(), 2);
        // The fork is independent.
        let mut ftxn = fork.begin();
        ftxn.insert("t", row![10i64, "fork-only"]).unwrap();
        ftxn.commit().unwrap();
        assert_eq!(db.scan_latest("t", &Predicate::True).unwrap().len(), 3);
        assert_eq!(fork.scan_latest("t", &Predicate::True).unwrap().len(), 3);
    }

    fn set(db: &Database, id: i64, v: &str) {
        let mut txn = db.begin();
        txn.update("t", &Key::single(id), row![id, v]).unwrap();
        txn.commit().unwrap();
    }

    fn value(db: &Database, id: i64) -> Option<String> {
        let row = db.get_latest("t", &Key::single(id)).unwrap()?;
        row[1].as_text().map(str::to_string)
    }

    #[test]
    fn fork_at_clamps_a_future_timestamp_to_the_published_clock() {
        let db = populated_db();
        let now = db.current_ts();
        for ts in [now + 1000, Ts::MAX] {
            let fork = db.fork_at(ts).unwrap();
            assert_eq!(fork.current_ts(), now, "fork at {ts}");
            assert_eq!(db.live_forks(), (1, Some(now)));
            // The fork's clock resumes from the clamp: its first commit
            // is the next tick (unclamped, Ts::MAX + 1 overflowed).
            let mut txn = fork.begin();
            txn.insert("t", row![9i64, "nine"]).unwrap();
            txn.commit().unwrap();
            assert_eq!(fork.current_ts(), now + 1);
        }
    }

    #[test]
    fn a_fork_reads_through_until_it_writes_and_shadows_what_it_deletes() {
        let db = populated_db();
        db.create_index("t", "v").unwrap();
        let fork = db.fork_at(db.current_ts()).unwrap();
        assert_eq!(fork.stats().total_versions, 0, "nothing was copied");
        assert_eq!(fork.stats().live_rows, 2);

        // The parent moving on is invisible to the fork...
        set(&db, 1, "parent-only");
        assert_eq!(value(&fork, 1).as_deref(), Some("one"));
        // ...and the fork's writes are invisible to the parent. The first
        // write seeds the chain, so the before image is the base row.
        let fork_ts = fork.current_ts();
        let mut txn = fork.begin();
        txn.update("t", &Key::single(1i64), row![1i64, "fork-only"])
            .unwrap();
        txn.delete("t", &Key::single(2i64)).unwrap();
        let info = txn.commit().unwrap();
        assert_eq!(info.changes[0].op.before(), Some(&row![1i64, "one"]));
        assert_eq!(value(&db, 1).as_deref(), Some("parent-only"));
        assert_eq!(value(&db, 2).as_deref(), Some("two"));
        assert_eq!(value(&fork, 1).as_deref(), Some("fork-only"));
        assert_eq!(value(&fork, 2), None);
        assert_eq!(fork.stats().live_rows, 1);
        // Through the index too, now and as of before the write.
        let by_v = |v: &str, ts| fork.scan_as_of("t", &Predicate::eq("v", v), ts).unwrap();
        assert_eq!(by_v("one", fork.current_ts()).len(), 0);
        assert_eq!(by_v("one", fork_ts).len(), 1);
        assert_eq!(by_v("two", fork_ts).len(), 1);
        assert_eq!(by_v("fork-only", fork.current_ts()).len(), 1);

        // The fork's own GC empties the deleted key's chain; the empty
        // chain keeps shadowing the parent's row.
        fork.gc_before(fork.current_ts());
        assert_eq!(value(&fork, 2), None);
        assert_eq!(fork.scan_latest("t", &Predicate::True).unwrap().len(), 1);

        // A fork of the fork applies the same rule twice.
        let grandchild = fork.fork_at(fork.current_ts()).unwrap();
        drop(fork);
        assert_eq!(value(&grandchild, 1).as_deref(), Some("fork-only"));
        assert_eq!(value(&grandchild, 2), None);
        assert_eq!(
            db.live_forks().0,
            1,
            "the grandchild keeps the chain pinned"
        );
        drop(grandchild);
        assert_eq!(db.live_forks(), (0, None));
    }

    #[test]
    fn a_live_fork_pins_gc_and_a_dropped_one_releases_it() {
        let db = populated_db();
        set(&db, 1, "v1");
        let snap = db.current_ts();
        set(&db, 1, "v2");
        set(&db, 1, "v3");

        let fork = db.fork_at(snap).unwrap();
        assert_eq!(db.live_forks(), (1, Some(snap)));
        assert_eq!(db.min_active_start_ts(), Some(snap));
        db.gc_before(db.current_ts());
        assert_eq!(db.log_truncated_below(), snap, "the horizon was clamped");
        assert_eq!(value(&fork, 1).as_deref(), Some("v1"));
        let kept = db.stats().total_versions;

        drop(fork);
        assert_eq!(db.live_forks(), (0, None));
        let (versions, _) = db.gc_before(db.current_ts());
        assert!(versions > 0, "the pinned versions are reclaimed");
        assert!(db.stats().total_versions < kept);
        // Below the raised floor a fork is refused, not silently wrong.
        assert_eq!(
            db.fork_at(snap).unwrap_err(),
            DbError::HistoryTruncated {
                ts: snap,
                floor: db.current_ts()
            }
        );
        assert_eq!(db.live_forks(), (0, None), "a refused fork pins nothing");
    }

    #[test]
    fn fork_empty_copies_schemas_only() {
        let db = populated_db();
        db.create_index("t", "v").unwrap();
        let fork = db.fork_empty().unwrap();
        assert!(fork.has_table("t"));
        assert_eq!(fork.scan_latest("t", &Predicate::True).unwrap().len(), 0);
        assert_eq!(
            fork.table("t").unwrap().indexed_columns(),
            vec!["v".to_string()]
        );
    }

    #[test]
    fn gc_reclaims_history() {
        let db = populated_db();
        for i in 0..5 {
            let mut txn = db.begin();
            txn.update("t", &Key::single(1i64), row![1i64, format!("v{i}")])
                .unwrap();
            txn.commit().unwrap();
        }
        let before = db.stats();
        assert!(before.total_versions > before.live_rows);
        let (versions, logs) = db.gc_before(db.current_ts());
        assert!(versions > 0);
        assert!(logs > 0);
        let after = db.stats();
        assert_eq!(after.total_versions, after.live_rows);
    }

    #[test]
    fn below_the_floor_history_and_forks_read_the_durable_log() {
        // One segment per commit, all kept below the floor.
        let opts = WalOptions {
            segment_bytes: 1,
            ..WalOptions::default()
        };
        let db = Database::create_durable_in(Arc::new(crate::dir::MemDir::new()), opts).unwrap();
        db.create_table("t", schema()).unwrap();
        let mut txn = db.begin();
        txn.insert("t", row![1i64, "v0"]).unwrap();
        txn.commit().unwrap();
        for i in 1..4 {
            set(&db, 1, &format!("v{i}"));
        }
        let log = db.log_entries();
        let first = log[0].commit_ts;
        db.gc_before(db.current_ts());
        assert_eq!(
            (db.log_len(), db.log_truncated_below()),
            (0, db.current_ts())
        );

        // Every commit is still on disk: history is the live log's twin.
        assert_eq!(db.history(0, Ts::MAX).unwrap(), log);
        assert_eq!(db.history(first, first + 1).unwrap(), log[1..2]);
        // A fork below the floor holds the state at its timestamp, reads
        // nothing below it, and pins nothing.
        let fork = db.fork_at(first).unwrap();
        assert_eq!(fork.current_ts(), first);
        assert_eq!(value(&fork, 1).as_deref(), Some("v0"));
        assert_eq!(fork.stats().total_versions, 0, "the fork copies nothing");
        assert_eq!(db.live_forks(), (0, None));

        // Without a log the same questions are typed truncation.
        let memory = populated_db();
        set(&memory, 1, "v1");
        memory.gc_before(memory.current_ts());
        let floor = memory.current_ts();
        assert_eq!(
            memory.history(0, Ts::MAX).unwrap_err(),
            DbError::HistoryTruncated { ts: 0, floor }
        );
        assert_eq!(memory.history(floor, Ts::MAX).unwrap(), vec![]);
    }

    #[test]
    fn stats_reflect_contents() {
        let db = populated_db();
        let stats = db.stats();
        assert_eq!(stats.tables, 1);
        assert_eq!(stats.live_rows, 2);
        assert_eq!(stats.committed_txns, 1);
        assert!(stats.current_ts > 0);
    }
}
