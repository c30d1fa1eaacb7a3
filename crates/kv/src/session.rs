//! The unified transaction surface: one [`Session`], one [`Txn`].
//!
//! Invariants:
//!
//! * **One store.** A [`Session`] binds a [`Database`] and optionally a
//!   [`Tracer`]. Its key-value namespaces are tables of that database
//!   (`kv:<namespace>`, see [`crate::store`]), so a [`Txn`]'s relational
//!   and key-value operations share one snapshot, one validation, one
//!   commit and one error type ([`trod_db::DbError`]); a conflict on a
//!   namespace is a `DbError` on its table.
//! * **The aligned log is the transaction log.** A commit's key-value
//!   change records are rows of its entry like any other, so the
//!   database's log ([`Database::log_entries`], [`Database::history`])
//!   *is* the paper's §5 aligned history, and [`Txn::commit`] returns the
//!   database's own [`CommitInfo`].
//! * **One trace per transaction.** With a tracer, every transaction
//!   emits one [`TxnTrace`] whose reads and writes span tables and
//!   namespaces alike, so declarative debugging, replay and reenactment
//!   work for polyglot applications without change.

use std::fmt;
use std::sync::Arc;

use trod_db::{
    namespace_entry, namespace_row, namespace_value, ChangeRecord, CommitInfo, Database, DbResult,
    GcStats, IsolationLevel, Key, Predicate, RecoveryReport, Row, Ts, TxnId, WalOptions,
};
use trod_trace::{ReadTrace, Tracer, TxnContext, TxnTrace};

use crate::kv_table_name;
use crate::store::{prefix_predicate, KvStore};

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

struct SessionInner {
    db: Database,
    /// The view over `db`'s namespaces.
    kv: KvStore,
    tracer: Option<Tracer>,
}

/// A handle binding the database (and optional tracer) transactions run
/// against. Cheaply cloneable; clones share the underlying state.
///
/// It is the transaction surface of the runtime's handlers
/// (`trod_runtime::HandlerContext`). The debugger's environments — forks,
/// replay and retroactive development databases, the server's forks and
/// booted dumps — are plain [`Database`]s, so `trod-core` and
/// `trod-server` use sessions only in their tests.
#[derive(Clone)]
pub struct Session {
    inner: Arc<SessionInner>,
}

impl Session {
    /// An untraced session over `db`.
    pub fn new(db: Database) -> Self {
        Session::bind(db, None)
    }

    /// A session over `db` that emits one provenance trace per
    /// transaction through `tracer`, spanning tables and namespaces.
    pub fn traced(db: Database, tracer: Tracer) -> Self {
        Session::bind(db, Some(tracer))
    }

    fn bind(db: Database, tracer: Option<Tracer>) -> Self {
        Session {
            inner: Arc::new(SessionInner {
                kv: KvStore::of(db.clone()),
                db,
                tracer,
            }),
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

    /// The tracer, if provenance tracing is enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.inner.tracer.as_ref()
    }

    /// Applies captured aligned change records — relational rows and
    /// `kv:<namespace>` rows alike — as one synthetic committed
    /// transaction ([`Database::apply_changes`], the replay engine's
    /// injection primitive).
    pub fn apply_changes(&self, changes: &[ChangeRecord]) -> DbResult<CommitInfo> {
        self.inner.db.apply_changes(changes)
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
    ) -> DbResult<Session> {
        Ok(Session::new(Database::create_durable(path, opts)?))
    }

    /// Opens (creating if absent) a durable session environment: the
    /// database recovered by [`Database::open_durable`] — catalog,
    /// namespaces, every committed entry as it was logged — wrapped in a
    /// session.
    pub fn open_durable(
        path: impl AsRef<std::path::Path>,
        opts: WalOptions,
    ) -> DbResult<(Session, RecoveryReport)> {
        let (db, report) = Database::open_durable(path, opts)?;
        Ok((Session::new(db), report))
    }

    /// [`Session::open_durable`] over an arbitrary [`trod_db::LogDir`]
    /// (fault-injection harnesses).
    pub fn open_durable_in(
        dir: Arc<dyn trod_db::LogDir>,
        opts: WalOptions,
    ) -> DbResult<(Session, RecoveryReport)> {
        let (db, report) = Database::open_durable_in(dir, opts)?;
        Ok((Session::new(db), report))
    }

    /// Forces an environment checkpoint now (capture + durable write
    /// through the attached WAL). `None` when skipped — no WAL, nothing
    /// committed yet, a checkpoint at this timestamp already exists, or
    /// another capture is in flight. See [`Database::checkpoint`].
    pub fn checkpoint(&self) -> DbResult<Option<(Ts, u64)>> {
        self.inner.db.checkpoint()
    }

    /// Creates a key-value namespace — on a durable session the DDL is
    /// logged, so recovery re-creates it before replaying the commits
    /// that write to it.
    pub fn create_namespace(&self, name: &str) -> DbResult<()> {
        self.inner.db.create_namespace(name)
    }

    /// Garbage-collects history below `ts` ([`Database::gc_before`],
    /// which clamps the horizon to the published clock and the
    /// active-transaction watermark). On a durable environment the
    /// truncated aligned entries — their `kv:<namespace>` records
    /// included — stay in the log, so time travel below the horizon stays
    /// reconstructable.
    pub fn gc_before(&self, ts: Ts) -> GcStats {
        self.inner.db.gc_before(ts)
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
    pub fn get(&mut self, table: &str, key: &Key) -> DbResult<Option<Arc<Row>>> {
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
    pub fn scan(&mut self, table: &str, pred: &Predicate) -> DbResult<Vec<(Key, Arc<Row>)>> {
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
    pub fn exists(&mut self, table: &str, pred: &Predicate) -> DbResult<bool> {
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
    pub fn count(&mut self, table: &str, pred: &Predicate) -> DbResult<usize> {
        let result = self.rel_mut().scan(table, pred)?;
        let count = result.len();
        self.trace_read(table, || format!("Count {pred} in {table}"), || result);
        Ok(count)
    }

    /// Insert (write provenance is captured from the commit's CDC
    /// records).
    pub fn insert(&mut self, table: &str, row: Row) -> DbResult<Key> {
        self.rel_mut().insert(table, row)
    }

    /// Update a row by primary key.
    pub fn update(&mut self, table: &str, key: &Key, new_row: Row) -> DbResult<()> {
        self.rel_mut().update(table, key, new_row)
    }

    /// Updates every row matching `pred` by applying `f`. Returns the
    /// number of rows updated.
    pub fn update_where<F>(&mut self, table: &str, pred: &Predicate, f: F) -> DbResult<usize>
    where
        F: FnMut(&Row) -> Row,
    {
        self.rel_mut().update_where(table, pred, f)
    }

    /// Delete a row by primary key.
    pub fn delete(&mut self, table: &str, key: &Key) -> DbResult<bool> {
        self.rel_mut().delete(table, key)
    }

    /// Deletes every row matching `pred`. Returns the number deleted.
    pub fn delete_where(&mut self, table: &str, pred: &Predicate) -> DbResult<usize> {
        self.rel_mut().delete_where(table, pred)
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
    pub fn kv_get(&mut self, namespace: &str, key: &str) -> DbResult<Option<String>> {
        let (table, id) = (kv_table_name(namespace), Key::single(key));
        let row = self.rel_mut().get(&table, &id)?;
        let value = row.as_deref().and_then(namespace_value).map(str::to_string);
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
    ) -> DbResult<Vec<(String, String)>> {
        let table = kv_table_name(namespace);
        let rows = self.rel_mut().scan(&table, &prefix_predicate(prefix))?;
        let entries = rows.iter().map(|(_, row)| namespace_entry(row)).collect();
        self.trace_read(&table, || format!("Scan prefix {prefix}"), || rows);
        Ok(entries)
    }

    /// Buffers a put — an upsert of the namespace row.
    pub fn kv_put(&mut self, namespace: &str, key: &str, value: &str) -> DbResult<()> {
        let table = kv_table_name(namespace);
        self.rel_mut().upsert(&table, namespace_row(key, value))?;
        Ok(())
    }

    /// Buffers a delete; deleting a key the transaction does not see is a
    /// read of the key and nothing else.
    pub fn kv_delete(&mut self, namespace: &str, key: &str) -> DbResult<()> {
        let table = kv_table_name(namespace);
        self.rel_mut().delete(&table, &Key::single(key))?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Commit / abort
    // ------------------------------------------------------------------

    /// Commits atomically at one commit timestamp (see the module docs).
    pub fn commit(mut self) -> DbResult<CommitInfo> {
        let rel = self.rel.take().expect("transaction already finished");
        match rel.commit() {
            Ok(info) => {
                if self.traced() {
                    self.emit_trace(info.commit_ts, true, Arc::clone(&info.changes));
                }
                Ok(info)
            }
            Err(e) => {
                self.emit_trace(0, false, Arc::new([]));
                Err(e)
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
    use trod_db::{is_kv_table, row, DataType, DbError, Schema};
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

    fn is_kv_write_conflict(e: &DbError) -> bool {
        matches!(e, DbError::WriteConflict { table, .. } if table == "kv:sessions")
    }

    #[test]
    fn atomic_commit_writes_both_stores_at_one_timestamp() {
        let session = session();
        let mut txn = session.begin();
        txn.insert("orders", row![1i64, "widget"]).unwrap();
        txn.kv_put("sessions", "user-1", "cart:widget").unwrap();
        let commit = txn.commit().unwrap();

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

        // The transaction log IS the aligned log: one entry, carrying the
        // changes of both stores at one timestamp.
        let log = session.database().log_entries();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].commit_ts, commit.commit_ts);
        let (kv, relational): (Vec<_>, Vec<_>) =
            log[0].changes.iter().partition(|c| is_kv_table(&c.table));
        assert_eq!(relational.len(), 1);
        assert_eq!(&*relational[0].table, "orders");
        assert_eq!(kv.len(), 1);
        assert_eq!(kv[0].table, kv_table_name("sessions"));
        assert_eq!(kv[0].key, Key::single("user-1"));
        let value = kv[0].op.after().and_then(namespace_value);
        assert_eq!(value, Some("cart:widget"));
    }

    #[test]
    fn kv_only_transactions_still_appear_in_both_logs() {
        let session = session();
        let mut txn = session.begin();
        txn.kv_put("sessions", "user-2", "cart:empty").unwrap();
        let commit = txn.commit().unwrap();
        assert!(commit.commit_ts > 0);
        assert!(commit.changes.iter().all(|c| is_kv_table(&c.table)));
        // A KV-only commit still lands in the transaction log — alignment
        // by construction, no marker table needed.
        let log = session.database().log_entries();
        assert_eq!(log.len(), 1);
        assert!(log[0].writes_table(&kv_table_name("sessions")));
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
        assert_eq!(session.database().log_len(), 1);
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
        assert!(matches!(err, DbError::WriteConflict { .. }), "{err}");
        assert_eq!(session.kv().get_latest("sessions", "loser").unwrap(), None);
        assert_eq!(session.database().log_len(), 1);
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
        assert!(commit.changes.is_empty());
        assert_eq!(session.database().log_len(), 0);
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
        let tracer = Tracer::new();
        let session = Session::traced(orders_db(), tracer.clone());
        session.create_namespace("sessions").unwrap();

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
        let tracer = Tracer::new();
        let session = Session::traced(orders_db(), tracer.clone());
        session.create_namespace("sessions").unwrap();
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
        let session = Session::traced(orders_db(), tracer.clone());
        assert!(session.kv().namespaces().is_empty());

        let mut txn = session.begin_traced(TxnContext::new("R1", "h", "f"));
        txn.insert("orders", row![1i64, "widget"]).unwrap();
        let commit = txn.commit().unwrap();
        assert_eq!(commit.changes.len(), 1);
        assert_eq!(tracer.drain().len(), 1);

        let mut txn = session.begin();
        for err in [
            txn.kv_put("sessions", "k", "v").unwrap_err(),
            txn.kv_get("sessions", "k").unwrap_err(),
            txn.kv_delete("sessions", "k").unwrap_err(),
            txn.kv_scan_prefix("sessions", "").unwrap_err(),
        ] {
            assert_eq!(err, DbError::NoSuchNamespace("sessions".into()));
        }
        txn.abort();
    }

    #[test]
    fn a_blind_delete_is_a_read_and_leaves_no_version() {
        let session = session();
        let mut txn = session.begin();
        txn.insert("orders", row![1i64, "widget"]).unwrap();
        txn.kv_delete("sessions", "never-written").unwrap();
        let is_kv = |c: &ChangeRecord| is_kv_table(&c.table);
        assert!(!txn.pending_changes().iter().any(is_kv));
        let commit = txn.commit().unwrap();
        assert!(!commit.changes.iter().any(is_kv));
        let table = session.database().table(&kv_table_name("sessions"));
        assert_eq!(table.unwrap().version_count(), 0);

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
            DbError::SerializationFailure { table, .. } if table == "kv:sessions"
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
        assert!(matches!(err, DbError::DuplicateKey { .. }));
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

        let fork = Session::new(session.database().fork_at(first.commit_ts).unwrap());
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
        let log = fork.database().log_entries();
        assert_eq!(log.len(), 1);
        assert!(log[0].writes_table("orders"));
        assert!(log[0].writes_table(&kv_table_name("sessions")));

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
            namespace_row("user-1", "v"),
        );

        // No such namespace: the batch is rejected.
        let bare = Session::new(orders_db());
        assert!(matches!(
            bare.apply_changes(std::slice::from_ref(&put)).unwrap_err(),
            DbError::NoSuchNamespace(ns) if ns == "sessions"
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
            DbError::NullViolation { .. }
        ));
        // Nothing was installed by the failed batches.
        assert_eq!(session.kv().get_latest("sessions", "user-1").unwrap(), None);
        assert_eq!(session.database().log_len(), 0);
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
