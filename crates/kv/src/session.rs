//! The unified transaction surface: one [`Session`], one [`Txn`].
//!
//! Invariants:
//!
//! * **One store.** A [`Session`] binds a [`Database`] and optionally a
//!   [`Tracer`]. Its key-value namespaces are tables of that database
//!   (`kv:<namespace>`, see [`crate::store`]), so a [`Txn`]'s relational
//!   and key-value operations share one snapshot, one validation, one
//!   commit and one error type ([`trod_db::TrodError`]); a conflict on a
//!   namespace is a [`DbError`] on its table.
//! * **The aligned log is the transaction log.** A commit's key-value
//!   change records are rows of its entry like any other, so the
//!   database's log *is* the paper's §5 aligned history;
//!   [`Session::aligned_log`] is a view of it.
//! * **One trace per transaction.** With a tracer, every transaction
//!   emits one [`TxnTrace`] whose reads and writes span tables and
//!   namespaces alike, so declarative debugging, replay and reenactment
//!   work for polyglot applications without change.

use std::fmt;
use std::sync::Arc;

use trod_db::{
    is_kv_table, ChangeRecord, CommitInfo, CommittedTxn, Database, DbError, DbResult,
    IsolationLevel, Key, KvError, Predicate, RecoveryReport, Row, TrodError, TrodResult, Ts, TxnId,
    WalOptions,
};
use trod_trace::{ReadTrace, Tracer, TxnContext, TxnTrace};

use crate::kv_table_name;
use crate::store::{prefix_predicate, KvStore, KvWrite};

/// One entry of the aligned transaction log: everything a transaction
/// changed, in both stores, at one commit timestamp. A view over the
/// database's [`trod_db::CommittedTxn`] entries (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct AlignedCommit {
    pub txn_id: TxnId,
    pub commit_ts: Ts,
    /// Changes to relational application tables.
    pub relational: Vec<ChangeRecord>,
    /// Key-value writes applied at the same commit timestamp.
    pub kv: Vec<KvWrite>,
}

impl AlignedCommit {
    /// True if the commit touched both stores.
    pub fn spans_both_stores(&self) -> bool {
        !self.relational.is_empty() && !self.kv.is_empty()
    }

    /// Splits one aligned transaction-log entry into its relational and
    /// key-value halves. Used by [`Session::aligned_log`] and by the
    /// debugger's view of [`Database::history`].
    pub fn from_entry(entry: CommittedTxn) -> AlignedCommit {
        let changes = entry.changes.iter();
        AlignedCommit {
            txn_id: entry.txn_id,
            commit_ts: entry.commit_ts,
            relational: changes
                .clone()
                .filter(|c| !is_kv_table(&c.table))
                .cloned()
                .collect(),
            kv: changes.filter_map(KvWrite::of_record).collect(),
        }
    }
}

/// Summary returned by a successful [`Txn::commit`].
#[derive(Debug, Clone, PartialEq)]
pub struct TxnCommit {
    pub txn_id: TxnId,
    pub commit_ts: Ts,
    /// Number of relational row changes.
    pub relational_changes: usize,
    /// Number of key-value writes installed.
    pub kv_writes: usize,
    /// The full aligned change set, in table-name order — key-value
    /// records under their `kv:<namespace>` tables. The same allocation
    /// as the log entry's and the trace's list.
    pub changes: Arc<[ChangeRecord]>,
}

/// Options for beginning a [`Txn`]: isolation level and tracing context.
#[derive(Debug, Clone, Default)]
pub struct TxnOptions {
    /// Isolation level, for tables and namespaces alike.
    pub isolation: IsolationLevel,
    /// Request/handler/function context to trace the transaction under;
    /// `None` traces with an empty context (when the session has a
    /// tracer at all).
    pub ctx: Option<TxnContext>,
}

impl TxnOptions {
    /// Serializable, untraced defaults.
    pub fn new() -> Self {
        TxnOptions::default()
    }

    /// Sets the isolation level.
    pub fn isolation(mut self, isolation: IsolationLevel) -> Self {
        self.isolation = isolation;
        self
    }

    /// Attaches a tracing context.
    pub fn traced(mut self, ctx: TxnContext) -> Self {
        self.ctx = Some(ctx);
        self
    }
}

/// What one [`Session::gc_before`] pass reclaimed, and at which horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcStats {
    /// The effective horizon after clamping to the active-transaction
    /// watermark and the published clock.
    pub horizon: Ts,
    /// Row versions dropped, namespace rows included.
    pub versions: usize,
    /// Aligned log entries truncated from memory (a durable log keeps
    /// them).
    pub log_entries: usize,
}

struct SessionInner {
    db: Database,
    /// The view over `db`'s namespaces.
    kv: KvStore,
    tracer: Option<Tracer>,
}

/// A handle binding the database (and optional tracer) transactions run
/// against. Cheaply cloneable; clones share the underlying state.
///
/// This is the one surface the runtime's `HandlerContext`, the query
/// executor and the core debugger consume.
#[derive(Clone)]
pub struct Session {
    inner: Arc<SessionInner>,
}

/// Configures a [`Session`].
#[derive(Debug)]
pub struct SessionBuilder {
    db: Database,
    kv: Option<KvStore>,
    tracer: Option<Tracer>,
}

impl SessionBuilder {
    /// Binds a key-value store: its namespaces are declared in the
    /// session's database when the session is built (a view of that
    /// database already shares them).
    pub fn kv(mut self, kv: KvStore) -> Self {
        self.kv = Some(kv);
        self
    }

    /// Attaches a tracer: every transaction emits one provenance record
    /// spanning tables and namespaces.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Builds the session, creating every namespace of the bound store
    /// the database lacks.
    ///
    /// # Panics
    /// If the database cannot log a namespace it creates (its durable
    /// log failed).
    pub fn build(self) -> Session {
        for name in self.kv.iter().flat_map(KvStore::namespaces) {
            match self.db.create_namespace(&name) {
                Ok(()) | Err(DbError::TableExists(_)) => {}
                Err(e) => panic!("cannot bind namespace `{name}`: {e}"),
            }
        }
        Session {
            inner: Arc::new(SessionInner {
                kv: KvStore::of(self.db.clone()),
                db: self.db,
                tracer: self.tracer,
            }),
        }
    }
}

impl Session {
    /// An untraced session over `db`.
    pub fn new(db: Database) -> Self {
        Session::builder(db).build()
    }

    /// A session over `db` that also declares `kv`'s namespaces.
    pub fn with_kv(db: Database, kv: KvStore) -> Self {
        Session::builder(db).kv(kv).build()
    }

    /// Like [`Session::with_kv`], additionally emitting one provenance
    /// trace per transaction through `tracer`.
    pub fn with_tracer(db: Database, kv: KvStore, tracer: Tracer) -> Self {
        Session::builder(db).kv(kv).tracer(tracer).build()
    }

    /// Starts configuring a session over `db`.
    pub fn builder(db: Database) -> SessionBuilder {
        SessionBuilder {
            db,
            kv: None,
            tracer: None,
        }
    }

    /// The database.
    pub fn database(&self) -> &Database {
        &self.inner.db
    }

    /// The key-value view of the database.
    pub fn kv(&self) -> &KvStore {
        &self.inner.kv
    }

    /// [`Session::kv`] as an option; always `Some`, since every database
    /// can hold namespaces.
    pub fn kv_store(&self) -> Option<&KvStore> {
        Some(&self.inner.kv)
    }

    /// The tracer, if provenance tracing is enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.inner.tracer.as_ref()
    }

    /// The aligned transaction log: every committed write transaction, in
    /// commit order, with its relational and key-value changes split out.
    /// A view over [`Database::log_entries`], so it reflects exactly what
    /// the log retains.
    pub fn aligned_log(&self) -> Vec<AlignedCommit> {
        self.inner
            .db
            .log_entries()
            .into_iter()
            .map(AlignedCommit::from_entry)
            .collect()
    }

    /// Forks the environment at a timestamp ([`Database::fork_at`]):
    /// tables and namespaces read through to this session's state at
    /// `ts`, clamped to the published clock. The fork is untraced and
    /// independent. Every debugger feature — replay, retroactive runs, the
    /// server's remote forks — forks through here.
    ///
    /// Below the GC truncation floor ([`Database::log_truncated_below`])
    /// a durable environment rebuilds the state at `ts` from its log; an
    /// in-memory one refuses with [`DbError::HistoryTruncated`].
    pub fn fork_at(&self, ts: Ts) -> DbResult<Session> {
        Ok(Session::new(self.inner.db.fork_at(ts)?))
    }

    /// Applies captured aligned change records — relational rows and
    /// `kv:<namespace>` rows alike — as one synthetic committed
    /// transaction ([`Database::apply_changes`]). This is the replay
    /// engine's injection primitive.
    pub fn apply_changes(&self, changes: &[ChangeRecord]) -> TrodResult<CommitInfo> {
        Ok(self.inner.db.apply_changes(changes)?)
    }

    /// Re-installs one aligned-history entry **verbatim** — txn id and
    /// commit/start timestamps preserved ([`Database::apply_entry`]).
    /// Dump/load and fork-from-instance replay a remote aligned log
    /// through it to reconstruct byte-identical history.
    pub fn apply_entry(&self, entry: &CommittedTxn) -> TrodResult<CommitInfo> {
        Ok(self.inner.db.apply_entry(entry)?)
    }

    // ------------------------------------------------------------------
    // Durability
    // ------------------------------------------------------------------

    /// Creates a fresh durable session environment whose commits stream
    /// into a new segmented WAL in the directory at `path` (truncating
    /// any existing log there). Namespace DDL goes through
    /// [`Session::create_namespace`] so it is logged too.
    pub fn create_durable(
        path: impl AsRef<std::path::Path>,
        opts: WalOptions,
    ) -> TrodResult<Session> {
        Ok(Session::new(Database::create_durable(path, opts)?))
    }

    /// Opens (creating if absent) a durable session environment: the
    /// database recovered by [`Database::open_durable`] — catalog,
    /// namespaces, every committed entry verbatim — wrapped in a session.
    pub fn open_durable(
        path: impl AsRef<std::path::Path>,
        opts: WalOptions,
    ) -> TrodResult<(Session, RecoveryReport)> {
        let (db, report) = Database::open_durable(path, opts)?;
        Ok((Session::new(db), report))
    }

    /// [`Session::open_durable`] over an arbitrary [`trod_db::LogDir`]
    /// (fault-injection harnesses).
    pub fn open_durable_in(
        dir: Arc<dyn trod_db::LogDir>,
        opts: WalOptions,
    ) -> TrodResult<(Session, RecoveryReport)> {
        let (db, report) = Database::open_durable_in(dir, opts)?;
        Ok((Session::new(db), report))
    }

    /// Forces an environment checkpoint now (capture + durable write
    /// through the attached WAL). `None` when skipped — no WAL, nothing
    /// committed yet, a checkpoint at this timestamp already exists, or
    /// another capture is in flight. See [`Database::checkpoint`].
    pub fn checkpoint(&self) -> TrodResult<Option<(Ts, u64)>> {
        Ok(self.inner.db.checkpoint()?)
    }

    /// Creates a key-value namespace — on a durable session the DDL is
    /// logged, so recovery re-creates it before replaying the commits
    /// that write to it.
    pub fn create_namespace(&self, name: &str) -> TrodResult<()> {
        self.inner.kv.create_namespace(name)
    }

    /// Garbage-collects history ([`Database::gc_before`]) below `ts`
    /// clamped to the active-transaction watermark and the published
    /// clock. On a durable environment the truncated aligned entries —
    /// their `kv:<namespace>` records included — stay in the log, so time
    /// travel below the horizon stays reconstructable.
    pub fn gc_before(&self, ts: Ts) -> GcStats {
        let db = &self.inner.db;
        let horizon = ts
            .min(db.min_active_start_ts().unwrap_or(Ts::MAX))
            .min(db.current_ts());
        let (versions, log_entries) = db.gc_before(horizon);
        GcStats {
            // Re-clamped under the log lock: a fork may have pinned since
            // the watermark was read above.
            horizon: horizon.min(db.log_truncated_below()),
            versions,
            log_entries,
        }
    }

    /// Begins a serializable, untraced transaction.
    pub fn begin(&self) -> Txn {
        self.begin_with(TxnOptions::new())
    }

    /// Begins a serializable transaction traced under the given
    /// request/handler/function context.
    pub fn begin_traced(&self, ctx: TxnContext) -> Txn {
        self.begin_with(TxnOptions::new().traced(ctx))
    }

    /// Begins a transaction with explicit options.
    pub fn begin_with(&self, opts: TxnOptions) -> Txn {
        let rel = self.inner.db.begin_with(opts.isolation);
        Txn {
            txn_id: rel.id(),
            snapshot_ts: rel.start_ts(),
            session: self.clone(),
            rel: Some(rel),
            reads: Vec::new(),
            ctx: opts.ctx,
        }
    }
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("namespaces", &self.inner.db.namespaces())
            .field("traced", &self.inner.tracer.is_some())
            .finish()
    }
}

/// The unified transaction handle: relational and key-value operations at
/// one snapshot, committed atomically at one timestamp, with one error
/// type and one provenance record.
///
/// Dropping an uncommitted `Txn` aborts it (without emitting an abort
/// trace; use [`Txn::abort`] to record the attempt).
pub struct Txn {
    session: Session,
    txn_id: TxnId,
    snapshot_ts: Ts,
    rel: Option<trod_db::Transaction>,
    /// Read provenance across tables and namespaces (captured only when
    /// the session has a tracer).
    reads: Vec<ReadTrace>,
    ctx: Option<TxnContext>,
}

impl Txn {
    fn rel_mut(&mut self) -> &mut trod_db::Transaction {
        self.rel.as_mut().expect("transaction already finished")
    }

    fn traced(&self) -> bool {
        self.session.inner.tracer.is_some()
    }

    /// Captures the provenance of the read just served — the single policy
    /// point for read capture: records are built (and rows cloned) only
    /// when the session has a tracer.
    fn trace_read(
        &mut self,
        table: &str,
        query: impl FnOnce() -> String,
        rows: impl FnOnce() -> Vec<(Key, Arc<Row>)>,
    ) {
        if self.traced() {
            let read_ts = self.rel.as_ref().map(|t| t.last_read_ts());
            self.reads.push(ReadTrace {
                table: table.to_string(),
                query: query(),
                read_ts: read_ts.unwrap_or_default(),
                rows: rows(),
            });
        }
    }

    /// The database-assigned transaction id (also used in provenance).
    pub fn txn_id(&self) -> TxnId {
        self.txn_id
    }

    /// The snapshot timestamp the transaction reads at.
    pub fn snapshot_ts(&self) -> Ts {
        self.snapshot_ts
    }

    /// The isolation level this transaction runs under.
    pub fn isolation(&self) -> IsolationLevel {
        self.rel.as_ref().map(|t| t.isolation()).unwrap_or_default()
    }

    /// The tracing context, if any.
    pub fn context(&self) -> Option<&TxnContext> {
        self.ctx.as_ref()
    }

    // ------------------------------------------------------------------
    // Relational operations (with read provenance)
    // ------------------------------------------------------------------

    /// Point read.
    pub fn get(&mut self, table: &str, key: &Key) -> TrodResult<Option<Arc<Row>>> {
        let result = self.rel_mut().get(table, key)?;
        self.trace_read(
            table,
            || format!("Get {table}{key}"),
            || {
                result
                    .clone()
                    .map(|r| vec![(key.clone(), r)])
                    .unwrap_or_default()
            },
        );
        Ok(result)
    }

    /// Predicate scan.
    pub fn scan(&mut self, table: &str, pred: &Predicate) -> TrodResult<Vec<(Key, Arc<Row>)>> {
        let result = self.rel_mut().scan(table, pred)?;
        self.trace_read(
            table,
            || format!("Scan {table} WHERE {pred}"),
            || result.clone(),
        );
        Ok(result)
    }

    /// Existence check (the "Check if (U1, F2) exists" row of the paper's
    /// Table 2).
    pub fn exists(&mut self, table: &str, pred: &Predicate) -> TrodResult<bool> {
        let result = self.rel_mut().scan(table, pred)?;
        let empty = result.is_empty();
        self.trace_read(
            table,
            || format!("Check if {pred} exists in {table}"),
            || result,
        );
        Ok(!empty)
    }

    /// Count with read provenance.
    pub fn count(&mut self, table: &str, pred: &Predicate) -> TrodResult<usize> {
        let result = self.rel_mut().scan(table, pred)?;
        let count = result.len();
        self.trace_read(table, || format!("Count {pred} in {table}"), || result);
        Ok(count)
    }

    /// Insert (write provenance is captured from the commit's CDC
    /// records).
    pub fn insert(&mut self, table: &str, row: Row) -> TrodResult<Key> {
        Ok(self.rel_mut().insert(table, row)?)
    }

    /// Update a row by primary key.
    pub fn update(&mut self, table: &str, key: &Key, new_row: Row) -> TrodResult<()> {
        Ok(self.rel_mut().update(table, key, new_row)?)
    }

    /// Updates every row matching `pred` by applying `f`. Returns the
    /// number of rows updated.
    pub fn update_where<F>(&mut self, table: &str, pred: &Predicate, f: F) -> TrodResult<usize>
    where
        F: FnMut(&Row) -> Row,
    {
        Ok(self.rel_mut().update_where(table, pred, f)?)
    }

    /// Delete a row by primary key.
    pub fn delete(&mut self, table: &str, key: &Key) -> TrodResult<bool> {
        Ok(self.rel_mut().delete(table, key)?)
    }

    /// Deletes every row matching `pred`. Returns the number deleted.
    pub fn delete_where(&mut self, table: &str, pred: &Predicate) -> TrodResult<usize> {
        Ok(self.rel_mut().delete_where(table, pred)?)
    }

    /// The buffered (uncommitted) writes, as CDC records — namespace rows
    /// included.
    pub fn pending_changes(&self) -> Vec<ChangeRecord> {
        self.rel
            .as_ref()
            .map(|t| t.pending_changes())
            .unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Key-value operations: the same operations on `kv:<namespace>`
    // ------------------------------------------------------------------

    /// Reads a key — [`Txn::get`] on the namespace's table.
    pub fn kv_get(&mut self, namespace: &str, key: &str) -> TrodResult<Option<String>> {
        let (table, id) = (kv_table_name(namespace), Key::single(key));
        let row = self
            .rel_mut()
            .get(&table, &id)
            .map_err(unknown_namespace(namespace))?;
        let value = row
            .as_deref()
            .and_then(KvWrite::value_of)
            .map(str::to_string);
        self.trace_read(
            &table,
            || format!("Get {key}"),
            || row.map(|r| vec![(id, r)]).unwrap_or_default(),
        );
        Ok(value)
    }

    /// Every `(key, value)` whose key starts with `prefix`, in key order —
    /// [`Txn::scan`] over a `kv_key` range, so the range, not just the
    /// keys returned, is validated under serializable isolation.
    pub fn kv_scan_prefix(
        &mut self,
        namespace: &str,
        prefix: &str,
    ) -> TrodResult<Vec<(String, String)>> {
        let table = kv_table_name(namespace);
        let rows = self
            .rel_mut()
            .scan(&table, &prefix_predicate(prefix))
            .map_err(unknown_namespace(namespace))?;
        let entries = rows.iter().cloned().map(KvWrite::entry).collect();
        self.trace_read(&table, || format!("Scan prefix {prefix}"), || rows);
        Ok(entries)
    }

    /// Buffers a put — an upsert of the namespace row.
    pub fn kv_put(&mut self, namespace: &str, key: &str, value: &str) -> TrodResult<()> {
        let table = kv_table_name(namespace);
        self.rel_mut()
            .upsert(&table, KvWrite::row(key, value))
            .map_err(unknown_namespace(namespace))?;
        Ok(())
    }

    /// Buffers a delete; deleting a key the transaction does not see is a
    /// read of the key and nothing else.
    pub fn kv_delete(&mut self, namespace: &str, key: &str) -> TrodResult<()> {
        let table = kv_table_name(namespace);
        self.rel_mut()
            .delete(&table, &Key::single(key))
            .map_err(unknown_namespace(namespace))?;
        Ok(())
    }

    /// The buffered key-value writes, in namespace and key order.
    pub fn pending_kv_writes(&self) -> Vec<KvWrite> {
        let changes = self.pending_changes();
        changes.iter().filter_map(KvWrite::of_record).collect()
    }

    // ------------------------------------------------------------------
    // Commit / abort
    // ------------------------------------------------------------------

    /// Commits atomically at one commit timestamp (see the module docs).
    pub fn commit(mut self) -> TrodResult<TxnCommit> {
        let rel = self.rel.take().expect("transaction already finished");
        match rel.commit() {
            Ok(info) => {
                let kv_writes = info.changes.iter().filter(|c| is_kv_table(&c.table));
                let kv_writes = kv_writes.count();
                if self.traced() {
                    self.emit_trace(info.commit_ts, true, Arc::clone(&info.changes));
                }
                Ok(TxnCommit {
                    txn_id: self.txn_id,
                    commit_ts: info.commit_ts,
                    relational_changes: info.changes.len() - kv_writes,
                    kv_writes,
                    changes: info.changes,
                })
            }
            Err(e) => {
                self.emit_trace(0, false, Arc::new([]));
                Err(e.into())
            }
        }
    }

    /// Aborts the transaction; an aborted-transaction trace is recorded
    /// so aborted attempts remain visible to declarative debugging.
    pub fn abort(mut self) {
        if let Some(rel) = self.rel.take() {
            rel.abort();
        }
        self.emit_trace(0, false, Arc::new([]));
    }

    fn emit_trace(&mut self, commit_ts: Ts, committed: bool, writes: Arc<[ChangeRecord]>) {
        let Some(tracer) = self.session.inner.tracer.clone() else {
            return;
        };
        let ctx = self.ctx.clone().unwrap_or_default();
        let timestamp = tracer.now();
        tracer.record_txn(TxnTrace {
            txn_id: self.txn_id,
            ctx,
            timestamp,
            snapshot_ts: self.snapshot_ts,
            commit_ts,
            committed,
            reads: std::mem::take(&mut self.reads),
            writes,
        });
    }
}

/// The error of a key-value operation: its namespace's missing table is
/// an unknown namespace.
fn unknown_namespace(namespace: &str) -> impl FnOnce(DbError) -> TrodError + '_ {
    move |e| match e {
        DbError::NoSuchTable(_) => KvError::UnknownNamespace(namespace.to_string()).into(),
        e => e.into(),
    }
}

impl fmt::Debug for Txn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Txn")
            .field("txn_id", &self.txn_id)
            .field("snapshot_ts", &self.snapshot_ts)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trod_db::{row, DataType, DbError, Schema, TrodError};
    use trod_trace::TraceEvent;

    fn orders_db() -> Database {
        let db = Database::new();
        db.create_table(
            "orders",
            Schema::builder()
                .column("id", DataType::Int)
                .column("item", DataType::Text)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db
    }

    fn session() -> Session {
        let session = Session::new(orders_db());
        session.create_namespace("sessions").unwrap();
        session
    }

    fn is_kv_write_conflict(e: &TrodError) -> bool {
        matches!(e, TrodError::Relational(DbError::WriteConflict { table, .. }) if table == "kv:sessions")
    }

    #[test]
    fn atomic_commit_spans_both_stores_with_one_timestamp() {
        let session = session();
        let mut txn = session.begin();
        txn.insert("orders", row![1i64, "widget"]).unwrap();
        txn.kv_put("sessions", "user-1", "cart:widget").unwrap();
        let commit = txn.commit().unwrap();
        assert_eq!(commit.relational_changes, 1);
        assert_eq!(commit.kv_writes, 1);

        // Both stores see the data, versioned at the same timestamp.
        assert_eq!(
            session
                .database()
                .get_latest("orders", &Key::single(1i64))
                .unwrap(),
            Some(std::sync::Arc::new(row![1i64, "widget"]))
        );
        assert_eq!(
            session.kv().get_latest("sessions", "user-1").unwrap(),
            Some("cart:widget".into())
        );
        assert_eq!(
            session
                .kv()
                .get_as_of("sessions", "user-1", commit.commit_ts - 1)
                .unwrap(),
            None
        );

        // The relational transaction log IS the aligned log: one entry,
        // carrying the changes of both stores at one timestamp.
        let rel_log = session.database().log_entries();
        assert_eq!(rel_log.len(), 1);
        assert!(rel_log[0].writes_table("orders"));
        assert!(rel_log[0].writes_table(&kv_table_name("sessions")));
        let aligned = session.aligned_log();
        assert_eq!(aligned.len(), 1);
        assert!(aligned[0].spans_both_stores());
        assert_eq!(aligned[0].commit_ts, commit.commit_ts);
        assert_eq!(
            aligned[0].kv,
            vec![KvWrite::put("sessions", "user-1", "cart:widget")]
        );
    }

    #[test]
    fn kv_only_transactions_still_appear_in_both_logs() {
        let session = session();
        let mut txn = session.begin();
        txn.kv_put("sessions", "user-2", "cart:empty").unwrap();
        let commit = txn.commit().unwrap();
        assert_eq!(commit.relational_changes, 0);
        assert_eq!(commit.kv_writes, 1);
        assert!(commit.commit_ts > 0);
        assert_eq!(session.aligned_log().len(), 1);
        // A KV-only commit still lands in the relational transaction log —
        // alignment by construction, no marker table needed.
        assert!(session
            .database()
            .log_entries()
            .iter()
            .any(|e| e.writes_table(&kv_table_name("sessions"))));
    }

    #[test]
    fn conflicting_kv_writers_abort_and_leave_relational_store_unchanged() {
        let session = session();
        let mut first = session.begin();
        let mut second = session.begin();
        first.kv_put("sessions", "k", "first").unwrap();
        second.kv_put("sessions", "k", "second").unwrap();
        second.insert("orders", row![7i64, "gadget"]).unwrap();
        first.commit().unwrap();

        let err = second.commit().unwrap_err();
        assert!(is_kv_write_conflict(&err), "{err}");
        // The loser's relational insert was rolled back.
        assert_eq!(
            session
                .database()
                .get_latest("orders", &Key::single(7i64))
                .unwrap(),
            None
        );
        assert_eq!(
            session.kv().get_latest("sessions", "k").unwrap(),
            Some("first".into())
        );
        assert_eq!(session.aligned_log().len(), 1);
    }

    #[test]
    fn relational_conflicts_leave_kv_store_unchanged() {
        let session = session();
        let mut first = session.begin();
        let mut second = session.begin();
        first.insert("orders", row![1i64, "widget"]).unwrap();
        second.insert("orders", row![1i64, "gadget"]).unwrap();
        second.kv_put("sessions", "loser", "state").unwrap();
        first.commit().unwrap();

        let err = second.commit().unwrap_err();
        assert!(matches!(err, TrodError::Relational(_)));
        assert_eq!(session.kv().get_latest("sessions", "loser").unwrap(), None);
        assert_eq!(session.aligned_log().len(), 1);
    }

    #[test]
    fn snapshot_reads_across_stores_and_read_your_writes() {
        let session = session();
        let mut setup = session.begin();
        setup.insert("orders", row![1i64, "widget"]).unwrap();
        setup.kv_put("sessions", "user-1", "v1").unwrap();
        setup.commit().unwrap();

        let mut reader = session.begin();
        // A concurrent writer commits after the reader began.
        let mut writer = session.begin();
        writer.kv_put("sessions", "user-1", "v2").unwrap();
        writer.commit().unwrap();

        // The reader still sees the snapshot value in the KV store and the
        // relational row.
        assert_eq!(
            reader.kv_get("sessions", "user-1").unwrap(),
            Some("v1".into())
        );
        assert_eq!(
            reader.get("orders", &Key::single(1i64)).unwrap(),
            Some(std::sync::Arc::new(row![1i64, "widget"]))
        );
        // Read-your-own-writes.
        reader.kv_put("sessions", "scratch", "tmp").unwrap();
        assert_eq!(
            reader.kv_get("sessions", "scratch").unwrap(),
            Some("tmp".into())
        );
        reader.abort();
    }

    #[test]
    fn prefix_scans_record_read_versions_for_validation() {
        let session = session();
        let mut setup = session.begin();
        setup.kv_put("sessions", "user:1", "a").unwrap();
        setup.kv_put("sessions", "user:2", "b").unwrap();
        setup.commit().unwrap();

        let mut txn = session.begin();
        let scanned = txn.kv_scan_prefix("sessions", "user:").unwrap();
        assert_eq!(scanned.len(), 2);
        // Another writer changes a scanned key.
        let mut writer = session.begin();
        writer.kv_put("sessions", "user:1", "changed").unwrap();
        writer.commit().unwrap();
        // The scanning transaction now fails validation when it writes.
        txn.kv_put("sessions", "other", "x").unwrap();
        assert!(txn.commit().is_err());
    }

    #[test]
    fn read_only_transactions_commit_without_logging() {
        let session = session();
        let mut txn = session.begin();
        assert_eq!(txn.get("orders", &Key::single(1i64)).unwrap(), None);
        assert_eq!(txn.kv_get("sessions", "user-1").unwrap(), None);
        let commit = txn.commit().unwrap();
        assert_eq!(commit.kv_writes, 0);
        assert!(session.aligned_log().is_empty());
    }

    #[test]
    fn snapshot_isolation_skips_kv_read_validation_but_not_write_conflicts() {
        let session = session();
        let mut setup = session.begin();
        setup.kv_put("sessions", "k", "v0").unwrap();
        setup.commit().unwrap();

        // Under snapshot isolation a stale read does not abort...
        let mut si =
            session.begin_with(TxnOptions::new().isolation(IsolationLevel::SnapshotIsolation));
        assert_eq!(si.kv_get("sessions", "k").unwrap(), Some("v0".into()));
        let mut writer = session.begin();
        writer.kv_put("sessions", "k", "v1").unwrap();
        writer.commit().unwrap();
        si.kv_put("sessions", "other", "x").unwrap();
        si.commit().unwrap();

        // ...but a write-write conflict still does.
        let mut a =
            session.begin_with(TxnOptions::new().isolation(IsolationLevel::SnapshotIsolation));
        let mut b =
            session.begin_with(TxnOptions::new().isolation(IsolationLevel::SnapshotIsolation));
        a.kv_put("sessions", "k", "a").unwrap();
        b.kv_put("sessions", "k", "b").unwrap();
        a.commit().unwrap();
        assert!(is_kv_write_conflict(&b.commit().unwrap_err()));
    }

    #[test]
    fn traced_transactions_emit_one_unified_provenance_record() {
        let kv = KvStore::new();
        kv.create_namespace("sessions").unwrap();
        let tracer = Tracer::new();
        let session = Session::with_tracer(orders_db(), kv, tracer.clone());

        let mut txn = session.begin_traced(TxnContext::new("R1", "checkout", "func:placeOrder"));
        assert!(!txn.exists("orders", &Predicate::eq("id", 1i64)).unwrap());
        txn.insert("orders", row![1i64, "widget"]).unwrap();
        txn.kv_put("sessions", "user-1", "cart:widget").unwrap();
        txn.commit().unwrap();

        let events = tracer.drain();
        assert_eq!(events.len(), 1);
        let TraceEvent::Txn(trace) = &events[0] else {
            panic!("expected a transaction trace");
        };
        assert!(trace.committed);
        assert_eq!(trace.ctx.req_id, "R1");
        // Reads: the relational existence check; writes: the relational
        // insert plus the KV put under the virtual table name.
        assert_eq!(trace.reads.len(), 1);
        assert_eq!(trace.writes.len(), 2);
        let tables = trace.touched_tables();
        assert!(tables.contains(&"orders".to_string()));
        assert!(tables.contains(&"kv:sessions".to_string()));
    }

    #[test]
    fn aborted_traced_transactions_are_recorded() {
        let kv = KvStore::new();
        kv.create_namespace("sessions").unwrap();
        let tracer = Tracer::new();
        let session = Session::with_tracer(orders_db(), kv, tracer.clone());
        let mut txn = session.begin_traced(TxnContext::new("R1", "checkout", "f"));
        txn.kv_put("sessions", "k", "v").unwrap();
        txn.abort();
        let events = tracer.drain();
        assert_eq!(events.len(), 1);
        let TraceEvent::Txn(trace) = &events[0] else {
            panic!("expected a transaction trace");
        };
        assert!(!trace.committed);
        assert_eq!(session.kv().get_latest("sessions", "k").unwrap(), None);
    }

    #[test]
    fn operations_on_a_missing_namespace_fail_cleanly() {
        let tracer = Tracer::new();
        let session = Session::builder(orders_db()).tracer(tracer.clone()).build();
        assert!(session.kv().namespaces().is_empty());

        let mut txn = session.begin_traced(TxnContext::new("R1", "h", "f"));
        txn.insert("orders", row![1i64, "widget"]).unwrap();
        let commit = txn.commit().unwrap();
        assert_eq!(commit.relational_changes, 1);
        assert_eq!(commit.kv_writes, 0);
        assert_eq!(tracer.drain().len(), 1);

        let mut txn = session.begin();
        for err in [
            txn.kv_put("sessions", "k", "v").unwrap_err(),
            txn.kv_get("sessions", "k").unwrap_err(),
            txn.kv_delete("sessions", "k").unwrap_err(),
            txn.kv_scan_prefix("sessions", "").unwrap_err(),
        ] {
            assert_eq!(
                err,
                TrodError::KeyValue(KvError::UnknownNamespace("sessions".into()))
            );
        }
        txn.abort();
    }

    #[test]
    fn a_blind_delete_is_a_read_and_leaves_no_version() {
        let session = session();
        let mut txn = session.begin();
        txn.insert("orders", row![1i64, "widget"]).unwrap();
        txn.kv_delete("sessions", "never-written").unwrap();
        assert!(txn.pending_kv_writes().is_empty());
        let commit = txn.commit().unwrap();
        assert_eq!(commit.kv_writes, 0);
        assert_eq!(
            session.kv().namespace_stats("sessions").unwrap().versions,
            0
        );

        // The read is validated: a concurrent put of the key aborts it.
        let mut txn = session.begin();
        txn.kv_delete("sessions", "k").unwrap();
        txn.update("orders", &Key::single(1i64), row![1i64, "gadget"])
            .unwrap();
        let mut writer = session.begin();
        writer.kv_put("sessions", "k", "v").unwrap();
        writer.commit().unwrap();
        assert!(matches!(
            txn.commit().unwrap_err(),
            TrodError::Relational(DbError::SerializationFailure { table, .. }) if table == "kv:sessions"
        ));
    }

    #[test]
    fn read_committed_puts_replace_concurrent_writes() {
        let session = session();
        let rc = || session.begin_with(TxnOptions::new().isolation(IsolationLevel::ReadCommitted));
        let (mut a, mut b) = (rc(), rc());
        a.kv_put("sessions", "k", "a").unwrap();
        b.kv_put("sessions", "k", "b").unwrap();
        a.commit().unwrap();
        let commit = b.commit().unwrap();
        assert_eq!(commit.changes[0].op.kind(), "Update");
        assert_eq!(
            session.kv().get_latest("sessions", "k").unwrap().as_deref(),
            Some("b")
        );
    }

    #[test]
    fn duplicate_relational_keys_surface_as_relational_errors() {
        let session = session();
        let mut setup = session.begin();
        setup.insert("orders", row![1i64, "widget"]).unwrap();
        setup.commit().unwrap();
        let mut txn = session.begin();
        let err = txn.insert("orders", row![1i64, "dup"]).unwrap_err();
        assert!(matches!(
            err,
            TrodError::Relational(DbError::DuplicateKey { .. })
        ));
        txn.abort();
    }

    #[test]
    fn session_fork_captures_both_stores_at_one_timestamp() {
        let session = session();
        let mut txn = session.begin();
        txn.insert("orders", row![1i64, "widget"]).unwrap();
        txn.kv_put("sessions", "user-1", "cart:widget").unwrap();
        let first = txn.commit().unwrap();
        let mut txn = session.begin();
        txn.update("orders", &Key::single(1i64), row![1i64, "gadget"])
            .unwrap();
        txn.kv_put("sessions", "user-1", "cart:gadget").unwrap();
        txn.commit().unwrap();

        let fork = session.fork_at(first.commit_ts).unwrap();
        // Both stores show the first commit's state, not the second's.
        assert_eq!(
            fork.database()
                .get_latest("orders", &Key::single(1i64))
                .unwrap(),
            Some(std::sync::Arc::new(row![1i64, "widget"]))
        );
        assert_eq!(
            fork.kv().get_latest("sessions", "user-1").unwrap(),
            Some("cart:widget".into())
        );
        // The fork is a working polyglot environment: a mixed commit
        // lands atomically without touching the origin.
        let mut txn = fork.begin();
        txn.insert("orders", row![9i64, "fork-only"]).unwrap();
        txn.kv_put("sessions", "user-9", "fork").unwrap();
        let commit = txn.commit().unwrap();
        assert!(commit.commit_ts > first.commit_ts);
        assert_eq!(session.kv().get_latest("sessions", "user-9").unwrap(), None);
        assert_eq!(
            session
                .database()
                .get_latest("orders", &Key::single(9i64))
                .unwrap(),
            None
        );
    }

    #[test]
    fn apply_changes_injects_polyglot_history_through_the_commit_path() {
        let session = session();
        let mut txn = session.begin();
        txn.insert("orders", row![1i64, "widget"]).unwrap();
        txn.kv_put("sessions", "user-1", "v1").unwrap();
        txn.commit().unwrap();

        let fork = Session::new(session.database().fork_empty().unwrap());
        // Replay the aligned history into the empty fork.
        for entry in session.database().log_entries() {
            fork.apply_changes(&entry.changes).unwrap();
        }
        assert_eq!(
            fork.database()
                .get_latest("orders", &Key::single(1i64))
                .unwrap(),
            Some(std::sync::Arc::new(row![1i64, "widget"]))
        );
        assert_eq!(
            fork.kv().get_latest("sessions", "user-1").unwrap(),
            Some("v1".into())
        );
        // The injected commit is one aligned entry in the fork's log,
        // spanning both stores like the original.
        let aligned = fork.aligned_log();
        assert_eq!(aligned.len(), 1);
        assert!(aligned[0].spans_both_stores());
        assert_eq!(
            aligned[0].kv,
            vec![KvWrite::put("sessions", "user-1", "v1")]
        );

        // Deletes round-trip too.
        let mut txn = session.begin();
        txn.kv_delete("sessions", "user-1").unwrap();
        txn.commit().unwrap();
        let entry = session.database().log_entries().pop().unwrap();
        fork.apply_changes(&entry.changes).unwrap();
        assert_eq!(fork.kv().get_latest("sessions", "user-1").unwrap(), None);
    }

    #[test]
    fn apply_changes_rejects_kv_records_of_missing_namespaces_or_with_erased_images() {
        let put = ChangeRecord::insert(
            kv_table_name("sessions"),
            Key::single("user-1"),
            KvWrite::row("user-1", "v"),
        );

        // No such namespace: the batch is rejected.
        let bare = Session::new(orders_db());
        assert!(matches!(
            bare.apply_changes(std::slice::from_ref(&put)).unwrap_err(),
            TrodError::Relational(DbError::NoSuchTable(_))
        ));

        // A redacted (all-NULL image) put is refused rather than decoded
        // as a delete.
        let session = session();
        let erased = ChangeRecord::insert(
            kv_table_name("sessions"),
            Key::single("user-1"),
            Row::from(vec![trod_db::Value::Null, trod_db::Value::Null]),
        );
        assert!(matches!(
            session
                .apply_changes(std::slice::from_ref(&erased))
                .unwrap_err(),
            TrodError::Relational(DbError::NullViolation { .. })
        ));
        // Nothing was installed by the failed batches.
        assert_eq!(session.kv().get_latest("sessions", "user-1").unwrap(), None);
        assert!(session.aligned_log().is_empty());
    }

    #[test]
    fn concurrent_kv_writes_conflict_through_the_unified_error() {
        let session = session();
        let mut txn = session.begin();
        txn.kv_put("sessions", "k", "v").unwrap();
        txn.commit().unwrap();

        let mut a = session.begin();
        let mut b = session.begin();
        a.kv_put("sessions", "k", "a").unwrap();
        b.kv_put("sessions", "k", "b").unwrap();
        a.commit().unwrap();
        let err = b.commit().unwrap_err();
        assert!(is_kv_write_conflict(&err));
        assert!(err.is_retryable());
    }
}
