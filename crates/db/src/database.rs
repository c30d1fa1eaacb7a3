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
//!   fork, GC, recovery, checkpoints — treats it like any table.
//! * **History is reclaimed together and never under an active
//!   transaction or a live fork.** [`Database::gc_before`] clamps to the
//!   watermark (active transactions and fork pins), chosen under the log
//!   lock, and truncates the aligned log before the row versions.
//!   [`Database::fork_at`] checks [`Database::log_truncated_below`] and
//!   pins under the same lock.
//! * **Below the floor the durable log is the history.** A durable
//!   database's segments hold every commit ever made, so
//!   [`Database::history`] and [`Database::fork_at`] rebuild the state
//!   below the floor from them — a checkpoint plus the logged commits
//!   after it — and answer from the rebuilt database; without a log that
//!   is [`DbError::HistoryTruncated`], never a partial answer.
//! * **The log is read through `Database::synced_log`**, which drains
//!   published entries from the commit pipeline's staging in commit
//!   order; unpublished entries are not observable.
//! * **DDL is logged and synced before the commits that use it;
//!   rotation and checkpoints never run inside the publication window**
//!   and never fail a commit.
//! * **Recovery is one streaming walk with one replay step**
//!   ([`Database::open_durable_in`]), replaying each logged commit through
//!   the commit pipeline as it is decoded, before the log is attached.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::cdc::{is_kv_table, kv_table_name, namespace_schema, KV_TABLE_PREFIX};
use crate::checkpoint::{Checkpoint, CheckpointTable};
use crate::commit::{Sequencer, REPLAY_RUN};
use crate::dir::{FsDir, LogDir};
use crate::error::{DbError, DbResult, StorageError};
use crate::hash::digest_of;
use crate::log::{CommittedTxn, LoggedTxn, TxnLog};
use crate::mvcc::Ts;
use crate::predicate::Predicate;
use crate::registry::{ActiveTxnRegistry, GcPin};
use crate::row::{Key, Row};
use crate::schema::Schema;
use crate::segment::{RecoveredLog, RecoveryReport, Replay, SegmentedWal};
use crate::table::{ScanPlan, TableStore};
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

/// What one [`Database::gc_before`] pass reclaimed, and at which horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcStats {
    /// The horizon applied: the requested one clamped to the published
    /// clock and the active-transaction watermark.
    pub horizon: Ts,
    /// Row versions dropped, namespace rows included.
    pub versions: usize,
    /// Aligned log entries truncated from memory (a durable log keeps
    /// them).
    pub log_entries: usize,
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
    /// boot checkpoint (if any) and replays the records as they are
    /// decoded: commits in runs of [`REPLAY_RUN`] through
    /// [`Database::apply_entries`], each run installed before the next DDL
    /// record and at the end of the walk; only then is the log attached,
    /// so replayed entries are not re-appended to it. A failure anywhere
    /// in the walk discards the partial database.
    pub fn open_durable_in(
        dir: Arc<dyn LogDir>,
        opts: WalOptions,
    ) -> DbResult<(Database, RecoveryReport)> {
        let db = Database::new();
        let mut from_checkpoint = false;
        let mut run = Vec::with_capacity(REPLAY_RUN);
        let RecoveredLog { wal, report } =
            SegmentedWal::open_dir(dir, opts, |step, report| match step {
                Replay::Checkpoint(ck) => {
                    from_checkpoint = true;
                    db.restore_checkpoint(ck)
                }
                Replay::Record(record) => {
                    db.replay_record(record, from_checkpoint, &mut run, report)
                }
                Replay::End => db.replay_run(&mut run, report),
            })?;
        db.set_wal(wal);
        Ok((db, report))
    }

    /// Replays one recovered record — the only place [`WalRecord`]s are
    /// re-applied. A commit joins `run`, which replays once it holds
    /// [`REPLAY_RUN`] entries; DDL first installs the run,
    /// then rebuilds the catalog, namespaces included. Adds the replay
    /// counts to `report`.
    ///
    /// One rule for every DDL record: on a checkpoint boot an object that
    /// already exists is skipped (sound — the WAL vocabulary has no drop
    /// records, so "already exists" can only mean "the checkpoint got
    /// there first"); on a full replay re-creating any object, an index
    /// included, is a typed [`StorageError::Recovery`].
    fn replay_record(
        &self,
        record: WalRecord,
        from_checkpoint: bool,
        run: &mut Vec<LoggedTxn>,
        report: &mut RecoveryReport,
    ) -> DbResult<()> {
        let recovery_err = |detail: String| DbError::Storage(StorageError::Recovery { detail });
        match record {
            WalRecord::Commit(entry) => {
                run.push(entry);
                return match run.len() {
                    REPLAY_RUN => self.replay_run(run, report),
                    _ => Ok(()),
                };
            }
            _ => self.replay_run(run, report)?,
        }
        if from_checkpoint && self.ddl_object_exists(&record) {
            return Ok(());
        }
        match record {
            WalRecord::CreateTable { name, schema } => {
                self.create_table(name.clone(), schema)
                    .map_err(|e| recovery_err(format!("create table `{name}`: {e}")))?;
                report.tables += 1;
            }
            WalRecord::CreateIndex { table, column } => {
                self.create_index(&table, &column)
                    .map_err(|e| recovery_err(format!("create index `{table}.{column}`: {e}")))?;
                report.indexes += 1;
            }
            WalRecord::CreateNamespace { name } => {
                self.create_namespace(&name)
                    .map_err(|e| recovery_err(format!("create namespace `{name}`: {e}")))?;
                report.namespaces.push(name);
            }
            // Buffered above.
            WalRecord::Commit(_) => {}
        }
        Ok(())
    }

    /// Replays a run of recovered commits, `kv:<namespace>` rows
    /// included, adds them to `report` and empties `run`.
    fn replay_run(&self, run: &mut Vec<LoggedTxn>, report: &mut RecoveryReport) -> DbResult<()> {
        self.apply_entries(run)?;
        report.commits += run.len();
        let writes = run.iter().flat_map(|entry| entry.writes.iter());
        report.kv_writes_replayed += writes.filter(|w| is_kv_table(&w.table)).count();
        run.clear();
        Ok(())
    }

    /// True when `record` is DDL whose object this database already has.
    fn ddl_object_exists(&self, record: &WalRecord) -> bool {
        match record {
            WalRecord::CreateTable { name, .. } => self.has_table(name),
            WalRecord::CreateIndex { table, column } => self
                .table(table)
                .is_ok_and(|t| t.indexed_columns().contains(column)),
            WalRecord::CreateNamespace { name } => self.has_namespace(name),
            WalRecord::Commit(_) => false,
        }
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
    /// index columns and rows visible at that timestamp, a namespace's
    /// `kv:<name>` table included. Does not write anything —
    /// [`Database::checkpoint`] does capture + durable write.
    pub fn capture_checkpoint(&self) -> Checkpoint {
        // Read before the catalog walk: every segment numbered below it
        // was sealed by now, so each object its DDL records create is in
        // the catalog the walk sees (the capture-order argument in
        // `checkpoint.rs`).
        let sealed_below = self.wal().map_or(0, |wal| wal.active_seq());
        // The published clock: every commit at or below it is fully
        // installed, every one above it invisible to the time-travel
        // reads below — the snapshot is consistent without any lock.
        let ts = self.current_ts();
        let tables = self.inner.tables.read();
        let tables = tables.iter().map(|(name, store)| CheckpointTable {
            name: name.clone(),
            schema: store.schema().clone(),
            indexes: store.indexed_columns(),
            rows: store.materialize_at(ts),
        });
        Checkpoint {
            ts,
            next_txn_id: self.inner.next_txn_id.load(Ordering::SeqCst),
            sealed_below,
            tables: tables.collect(),
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
    /// database: adds every table (a namespace is its `kv:<name>` table),
    /// installs its rows at the checkpoint timestamp, creates the indexes
    /// (empty: the first read that needs one builds it), advances the
    /// clock and transaction-id allocator, and raises the log truncation
    /// floor to the checkpoint timestamp — history below the checkpoint
    /// reads as typed truncation, exactly as if GC had truncated it.
    fn restore_checkpoint(&self, ck: &Checkpoint) -> DbResult<()> {
        let ts = ck.ts.max(1);
        for table in &ck.tables {
            self.add_table(table.name.clone(), table.schema.clone())?;
            let store = self.table(&table.name)?;
            store.install_snapshot(table.rows.iter().cloned(), ts);
            for column in &table.indexes {
                store.create_index(column)?;
            }
        }
        self.ensure_ts_at_least(ck.ts);
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
    /// `IN (...)` and comparison-window probes through the scan planner
    /// (see "The read path" in `DESIGN.md`).
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
    /// log. Below it they come from the log of an in-memory database
    /// rebuilt from the attached log's files, which hold every commit this
    /// database ever made: the newest checkpoint at or before `after`,
    /// then the logged commits after it replayed through `up_to`, each
    /// deriving its change records from the rows it displaced. Without a
    /// log, a range reaching below the floor is
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
        self.rebuild(after, up_to, floor)?.history(after, up_to)
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
                return self.rebuild(ts, ts, floor)?.fork_at(ts);
            }
            (ts, Arc::new(self.inner.registry.pin(ts)))
        };
        let fork = Database::build(Some(pin.clone()));
        fork.graft_catalog(self, Some((ts, &pin)))?;
        fork.ensure_ts_at_least(ts);
        Ok(fork)
    }

    /// The environment from `at` through `up_to`, below the truncation
    /// `floor`, rebuilt from the durable log into a new in-memory
    /// database: the newest checkpoint at or before `at` (or nothing),
    /// this database's catalog, then the logged commits in `(checkpoint,
    /// up_to]` replayed, the clock left at `up_to`. Its own log holds
    /// those commits with their derived change records. Without a log it
    /// is [`DbError::HistoryTruncated`].
    fn rebuild(&self, at: Ts, up_to: Ts, floor: Ts) -> DbResult<Database> {
        let Some(wal) = self.wal() else {
            return Err(DbError::HistoryTruncated { ts: at, floor });
        };
        let db = Database::new();
        let mut from = 0;
        if let Some(ck) = wal.load_checkpoint_at_or_before(at)? {
            db.restore_checkpoint(&ck)?;
            from = ck.ts;
        }
        db.graft_catalog(self, None)?;
        db.apply_entries(&wal.history(from, up_to)?)?;
        db.ensure_ts_at_least(up_to);
        Ok(db)
    }

    // ------------------------------------------------------------------
    // State digest and verification ("State digest and verification" in
    // DESIGN.md)
    // ------------------------------------------------------------------

    /// A 128-bit digest of the state visible at `ts` (clamped to the
    /// published clock): a wrapping sum, so row order does not matter, of
    /// one fixed-seed hash per visible row with its table's name, over
    /// every table and namespace, plus one of the name, schema and index
    /// columns of each table that holds a row at `ts`. The catalog keeps
    /// no creation timestamps, so an empty table counts as absent. Two
    /// states with equal rows and equal catalogs where they hold rows
    /// have equal digests, within one build; it is not a persistent or
    /// wire format.
    pub fn digest_at(&self, ts: Ts) -> u128 {
        let ts = ts.min(self.current_ts());
        let mut sum = 0u128;
        for (name, store) in self.inner.tables.read().iter() {
            let mut holds_rows = false;
            store.for_each_at(ts, &mut |_, row| {
                holds_rows = true;
                sum = sum.wrapping_add(digest_of((1u8, name, row)));
            });
            if holds_rows {
                let mut indexes = store.indexed_columns();
                indexes.sort();
                sum = sum.wrapping_add(digest_of((0u8, name, store.schema(), indexes)));
            }
        }
        sum
    }

    /// Checks this database's history against its state: forks at `from`,
    /// re-applies `history(from, to)` to the fork, and compares the fork's
    /// digest with the state at `to` and at each checkpoint in `(from,
    /// to]`, read through [`Database::fork_at`] (below the floor, that is
    /// the checkpoint itself plus the log after it). The first sample
    /// that differs is narrowed by bisection over the commit timestamps
    /// since the last one that agreed, and that commit timestamp is
    /// returned; `None` when every sample agrees. `to` is clamped to the
    /// published clock. Bisection assumes a divergence persists: one that
    /// a later commit masks before the next sample goes unseen. History
    /// below the floor of a database without a log is
    /// [`DbError::HistoryTruncated`].
    pub fn verify(&self, from: Ts, to: Ts) -> DbResult<Option<Ts>> {
        let to = to.min(self.current_ts());
        let from = from.min(to);
        let history = self.history(from, to)?;
        let replay = self.fork_at(from)?;
        replay.apply_entries(&history.iter().map(LoggedTxn::from).collect::<Vec<_>>())?;
        let differs =
            |ts: Ts| Ok::<_, DbError>(replay.digest_at(ts) != self.fork_at(ts)?.digest_at(ts));
        let checkpoints = self.wal().map(|wal| wal.checkpoint_timestamps());
        let mut samples: Vec<Ts> = (checkpoints.into_iter().flatten())
            .filter(|&ts| from < ts && ts < to)
            .collect();
        samples.push(to);
        let mut agreed = from;
        for sample in samples {
            if !differs(sample)? {
                agreed = sample;
                continue;
            }
            // Bisect for the first candidate that differs; the last one,
            // the sample, does.
            let mut candidates: Vec<Ts> = (history.iter().map(|e| e.commit_ts))
                .filter(|&ts| agreed < ts && ts < sample)
                .collect();
            candidates.push(sample);
            let (mut lo, mut hi) = (0, candidates.len() - 1);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if differs(candidates[mid])? {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            return Ok(Some(candidates[hi]));
        }
        Ok(None)
    }

    /// Creates a new, empty database with the same schemas and indexes.
    pub fn fork_empty(&self) -> DbResult<Database> {
        let fork = Database::new();
        fork.graft_catalog(self, None)?;
        Ok(fork)
    }

    /// Garbage collects row versions not visible at or after `ts` and
    /// truncates the transaction log below `ts`.
    ///
    /// The horizon is clamped to the published clock and to the
    /// watermark ([`Database::min_active_start_ts`]): GC never raises the
    /// floor above a timestamp that has not happened yet (so the next
    /// commit's history and a fork at `current_ts()` stay readable), never
    /// drops a version an active transaction or a live fork can still
    /// read, and never truncates a change log inside an active
    /// transaction's validation window — so truncation can be requested
    /// aggressively (e.g. at `current_ts()` or [`Ts::MAX`]) without ever
    /// forcing serializable validation onto the full-scan fallback.
    pub fn gc_before(&self, ts: Ts) -> GcStats {
        // Read before the log lock: the log holds every entry up to the
        // clock it drains to, which is at least this.
        let clock = self.current_ts();
        // The horizon is chosen and the floor raised under the log lock,
        // where `fork_at` checks the floor and pins: a fork that pinned
        // first holds the horizon at or below its timestamp, and one that
        // comes later sees the raised floor. Either way the versions a
        // fork reads through to are ones this GC keeps (it keeps the
        // newest version at or below `horizon`, so state at any ts >=
        // horizon stays readable), which is also why the log is truncated
        // BEFORE any row version is dropped.
        let (horizon, log_entries) = {
            let mut log = self.synced_log();
            let horizon = ts.min(clock).min(self.inner.registry.watermark());
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
        GcStats {
            horizon,
            versions,
            log_entries,
        }
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
    fn a_fork_at_zero_replays_history_from_the_first_commit() {
        let db = populated_db();
        set(&db, 1, "v1");
        let now = db.current_ts();
        let history = db.history(0, now).unwrap();
        assert_eq!(history[0].commit_ts, 1);
        let fork = db.fork_at(0).unwrap();
        assert_eq!(fork.current_ts(), 0);
        assert_eq!(fork.digest_at(0), 0, "the state at 0 is empty");
        let logged: Vec<LoggedTxn> = history.iter().map(LoggedTxn::from).collect();
        fork.apply_entries(&logged).unwrap();
        assert_eq!(fork.digest_at(now), db.digest_at(now));
    }

    /// The digest as the rows `materialize_at` gives: the oracle of the
    /// visitor `digest_at` hashes through.
    fn digest_by_materializing(db: &Database, ts: Ts) -> u128 {
        let ts = ts.min(db.current_ts());
        let mut sum = 0u128;
        for (name, store) in db.inner.tables.read().iter() {
            let rows = store.materialize_at(ts);
            if rows.is_empty() {
                continue;
            }
            let mut indexes = store.indexed_columns();
            indexes.sort();
            sum = sum.wrapping_add(digest_of((0u8, name, store.schema(), indexes)));
            for (_, row) in &rows {
                sum = sum.wrapping_add(digest_of((1u8, name, row)));
            }
        }
        sum
    }

    #[test]
    fn digests_of_nested_forks_equal_their_materialized_rows() {
        let db = populated_db();
        db.create_index("t", "v").unwrap();
        // `(id, Some(v))` writes a row and `(id, None)` deletes one, a
        // commit each.
        let write = |db: &Database, ops: &[(i64, Option<&str>)]| {
            for &(id, v) in ops {
                let mut txn = db.begin();
                match v {
                    Some(v) => txn.upsert("t", row![id, v]).map(drop),
                    None => txn.delete("t", &Key::single(id)).map(drop),
                }
                .unwrap();
                txn.commit().unwrap();
            }
        };
        write(&db, &[(3, Some("three")), (4, Some("four"))]);
        // Each level updates, deletes and re-inserts keys of the levels
        // below it, the child's tombstone for key 3 included.
        let child = db.fork_at(db.current_ts()).unwrap();
        write(
            &child,
            &[
                (1, Some("c1")),
                (2, None),
                (3, None),
                (2, Some("c2")),
                (11, Some("c11")),
            ],
        );
        let grandchild = child.fork_at(child.current_ts()).unwrap();
        write(
            &grandchild,
            &[(1, Some("g1")), (2, None), (4, None), (3, Some("g3"))],
        );
        // The third level forks with key 2 deleted and writes key 4 back.
        let third = grandchild.fork_at(grandchild.current_ts()).unwrap();
        write(&grandchild, &[(2, Some("g2")), (12, Some("g12"))]);
        write(&third, &[(4, Some("f4"))]);
        // Writes below a fork after it was taken stay out of it.
        write(&db, &[(4, Some("parent-only"))]);
        write(&child, &[(1, Some("c1-late")), (12, Some("c12"))]);

        for fork in [&child, &grandchild, &third] {
            for ts in 0..=fork.current_ts() + 1 {
                assert_eq!(
                    fork.digest_at(ts),
                    digest_by_materializing(fork, ts),
                    "at {ts}"
                );
            }
        }
        let values = |db: &Database| -> Vec<String> {
            let rows = db.table("t").unwrap().materialize_at(db.current_ts());
            let text = |row: &Row| row[1].as_text().unwrap().to_string();
            rows.iter().map(|(_, row)| text(row)).collect()
        };
        assert_eq!(values(&grandchild), ["g1", "g2", "g3", "c11", "g12"]);
        assert_eq!(values(&third), ["g1", "g3", "f4", "c11"]);
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
        let versions = db.gc_before(db.current_ts()).versions;
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
        let stats = db.gc_before(db.current_ts());
        let (versions, logs) = (stats.versions, stats.log_entries);
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
    fn gc_above_the_clock_stops_at_the_clock() {
        let db = populated_db();
        let now = db.current_ts();
        let stats = db.gc_before(Ts::MAX);
        assert_eq!((stats.horizon, db.log_truncated_below()), (now, now));
        // The present stays forkable, and a later commit's history
        // readable.
        assert_eq!(db.fork_at(now).unwrap().current_ts(), now);
        set(&db, 1, "after");
        let log = db.history(now, Ts::MAX).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].commit_ts, db.current_ts());
    }

    #[test]
    fn durable_gc_above_the_clock_keeps_pruning_checkpoints() {
        let dir = Arc::new(crate::dir::MemDir::new());
        let db = Database::create_durable_in(dir.clone(), WalOptions::default()).unwrap();
        db.create_table("t", schema()).unwrap();
        let mut txn = db.begin();
        txn.insert("t", row![1i64, "v0"]).unwrap();
        txn.commit().unwrap();
        assert_eq!(db.gc_before(Ts::MAX).horizon, db.current_ts());
        for i in 1..=6 {
            set(&db, 1, &format!("v{i}"));
            assert!(db.checkpoint().unwrap().is_some());
        }
        // Every checkpoint is above the floor, so only the newest two stay.
        let files = dir.list().unwrap();
        let checkpoints = files.iter().filter(|f| f.starts_with("ckpt-")).count();
        assert_eq!(checkpoints, 2, "{files:?}");
    }

    #[test]
    fn an_unknown_column_names_its_table() {
        let db = populated_db();
        let err = db
            .scan_latest("t", &Predicate::ge("typo", 0i64))
            .unwrap_err();
        assert_eq!(
            err,
            DbError::NoSuchColumn {
                table: "t".into(),
                column: "typo".into()
            }
        );
        assert_eq!(err.to_string(), "no column `typo` in table `t`");
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
