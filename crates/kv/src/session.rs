//! The unified transaction surface: one [`Session`], one [`Txn`].
//!
//! A [`Session`] binds a relational [`Database`], optionally a
//! [`KvStore`], and optionally a [`Tracer`]. [`Session::begin_with`] hands
//! out a [`Txn`] whose relational and key-value operations share one
//! snapshot, one commit, one error type ([`TrodError`]) and one
//! provenance record; it is the only transaction handle that spans both
//! stores.
//!
//! Commit goes through the database's commit protocol
//! ([`trod_db::CommitParticipant`]; "The commit protocol" in
//! `crates/db/DESIGN.md`): the namespaces the transaction wrote join the
//! written tables as `kv:<namespace>` resources, all locks are taken in
//! one global sorted order, every store validates under those locks, and
//! the key-value writes are installed at the single commit timestamp,
//! invisible until it publishes. There is no
//! cross-store commit lock anywhere — commits over disjoint namespaces
//! (or disjoint tables, or any mix) proceed fully concurrently, and mixed
//! commits are strictly serializable end to end.
//!
//! **The aligned log is the transaction log.** A commit's key-value
//! change records land in the same [`trod_db::CommittedTxn`] entry as its
//! relational ones (under the virtual `kv:<namespace>` table names), so
//! the relational transaction log *is* the paper's §5 aligned history —
//! by construction, for relational-only, KV-only and mixed commits alike.
//! [`Session::aligned_log`] is a view of it, and a [`Tracer`] attached to
//! the session emits one [`TxnTrace`] per transaction whose reads and
//! writes span both stores, so declarative debugging, replay and
//! reenactment work for polyglot applications without change.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use trod_db::{
    ChangeRecord, Checkpoint, CommitInfo, CommitParticipant, CommittedTxn, Database, DbError,
    DbResult, IsolationLevel, Key, KvError, Predicate, RecoveredLog, RecoveryParticipant,
    RecoveryReport, Row, SegmentedWal, TrodError, TrodResult, Ts, TxnId, Value, WalOptions,
    WalRecord,
};
use trod_trace::{ReadTrace, Tracer, TxnContext, TxnTrace};

use crate::kv_table_name;
use crate::store::{KvStore, KvWrite};

/// One entry of the aligned transaction log: everything a transaction
/// changed, in both stores, at one commit timestamp. A view over the
/// relational [`trod_db::CommittedTxn`] entries (see the module docs).
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
    /// debugger when stitching spilled retention history (entries a
    /// [`trod_db::RetentionPolicy`] preserved across GC) onto the live
    /// log.
    pub fn from_entry(entry: CommittedTxn) -> AlignedCommit {
        AlignedCommit {
            txn_id: entry.txn_id,
            commit_ts: entry.commit_ts,
            relational: trod_db::relational_changes(&entry.changes).into_owned(),
            kv: entry
                .changes
                .iter()
                .filter_map(kv_write_of_record)
                .collect(),
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
    /// The full aligned change set: relational records followed by
    /// key-value records under their `kv:<namespace>` table names. The
    /// same allocation as the log entry's and the trace's list.
    pub changes: Arc<[ChangeRecord]>,
}

/// Options for beginning a [`Txn`]: isolation level, tracing context,
/// and (implicitly, via the [`Session`]) the participating stores.
#[derive(Debug, Clone, Default)]
pub struct TxnOptions {
    /// Isolation level for the relational side; the key-value side
    /// validates reads only under [`IsolationLevel::Serializable`]
    /// (write-write conflicts are always checked).
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
    /// watermark and the published clock — both stores truncated at
    /// exactly this timestamp.
    pub horizon: Ts,
    /// Relational row versions dropped.
    pub relational_versions: usize,
    /// Aligned log entries truncated (spilled first when a retention
    /// policy is installed).
    pub log_entries: usize,
    /// Key-value versions dropped.
    pub kv_versions: usize,
}

struct SessionInner {
    db: Database,
    kv: Option<KvStore>,
    tracer: Option<Tracer>,
}

/// A handle binding the stores (and optional tracer) transactions run
/// against. Cheaply cloneable; clones share the underlying stores.
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
    /// Binds a key-value store, enabling the `kv_*` operations on every
    /// [`Txn`] the session begins.
    pub fn kv(mut self, kv: KvStore) -> Self {
        self.kv = Some(kv);
        self
    }

    /// Attaches a tracer: every transaction emits one provenance record
    /// spanning all participating stores.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Builds the session. A bound key-value store is coupled to the
    /// database's publication clock (clock-aware versioning), so
    /// coordinated commits can install kv versions before their
    /// publication turn without readers ever observing an unpublished —
    /// possibly torn-across-stores — commit.
    pub fn build(self) -> Session {
        if let Some(kv) = &self.kv {
            kv.bind_publication_clock(self.db.publication_clock());
            // Environment checkpoints capture the kv half through this
            // registration (see "The durable log" in trod-db's DESIGN.md).
            self.db.set_checkpoint_source(Some(Arc::new(kv.clone())));
        }
        Session {
            inner: Arc::new(SessionInner {
                db: self.db,
                kv: self.kv,
                tracer: self.tracer,
            }),
        }
    }
}

impl Session {
    /// A relational-only, untraced session.
    pub fn new(db: Database) -> Self {
        Session::builder(db).build()
    }

    /// A session spanning a relational database and a key-value store.
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

    /// The relational database.
    pub fn database(&self) -> &Database {
        &self.inner.db
    }

    /// The key-value store, if one is bound.
    pub fn kv_store(&self) -> Option<&KvStore> {
        self.inner.kv.as_ref()
    }

    /// The key-value store.
    ///
    /// # Panics
    /// If the session was built without one; use [`Session::kv_store`]
    /// when the binding is conditional.
    pub fn kv(&self) -> &KvStore {
        self.inner
            .kv
            .as_ref()
            .expect("session has no key-value store bound")
    }

    /// The tracer, if provenance tracing is enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.inner.tracer.as_ref()
    }

    /// The aligned transaction log: every committed write transaction, in
    /// commit order, with its relational and key-value changes split out.
    /// A view over [`Database::log_entries`] — the relational log *is*
    /// the aligned log (see the module docs) — so it reflects exactly
    /// what the log retains (GC truncates both together).
    pub fn aligned_log(&self) -> Vec<AlignedCommit> {
        self.inner
            .db
            .log_entries()
            .into_iter()
            .map(AlignedCommit::from_entry)
            .collect()
    }

    /// Forks the whole session environment at a timestamp: the relational
    /// database via [`Database::fork_at`] and, when one is bound, the
    /// key-value store via [`KvStore::fork_at`] — both at the *same*
    /// point of the aligned history (`ts` clamped once, here, to the
    /// published clock), which is what makes the fork a faithful polyglot
    /// "development database" (paper Figure 2). The fork is untraced and
    /// independent; its clock and every namespace's timestamp resume
    /// from the clamped `ts.max(1)`.
    ///
    /// Refused with [`DbError::HistoryTruncated`] below the GC truncation
    /// floor ([`Database::log_truncated_below`]); there the debugger
    /// reconstructs the environment from spilled aligned history instead
    /// (see [`Session::fork_empty`] and [`Session::apply_changes`]).
    pub fn fork_at(&self, ts: Ts) -> DbResult<Session> {
        let ts = ts.min(self.inner.db.current_ts());
        // The relational fork pins `ts` against GC before the key-value
        // store is copied: `gc_before` reclaims kv versions only up to
        // the floor the relational side raised, which a pin holds down.
        let mut builder = Session::builder(self.inner.db.fork_at(ts)?);
        if let Some(kv) = &self.inner.kv {
            builder = builder.kv(kv.fork_at(ts));
        }
        Ok(builder.build())
    }

    /// Forks an empty environment with the same schemas, indexes and
    /// namespaces. Replaying aligned history into it (via
    /// [`Session::apply_changes`]) reconstructs any past state — the path
    /// the debugger takes when the wanted timestamp predates the GC
    /// truncation floor and only spilled history still covers it.
    pub fn fork_empty(&self) -> DbResult<Session> {
        let mut builder = Session::builder(self.inner.db.fork_empty()?);
        if let Some(kv) = &self.inner.kv {
            builder = builder.kv(kv.fork_empty());
        }
        Ok(builder.build())
    }

    /// Applies captured aligned change records — relational rows *and*
    /// `kv:<namespace>` records — as one synthetic committed transaction,
    /// through the same commit protocol live commits take: the kv records
    /// are decoded back into [`KvWrite`]s, the namespaces' commit locks
    /// join the sorted lock order, and the kv install lands at the single
    /// claimed timestamp. The fork's aligned log therefore records
    /// injected history exactly like production history.
    ///
    /// This is the replay engine's injection primitive for polyglot
    /// traces. Errors: a kv record that does not decode (or whose value
    /// image was erased by privacy redaction) rejects the whole batch
    /// before anything is installed; a session without a key-value store
    /// rejects batches containing kv records.
    pub fn apply_changes(&self, changes: &[ChangeRecord]) -> TrodResult<CommitInfo> {
        if !changes.iter().any(|c| trod_db::is_kv_table(&c.table)) {
            return Ok(self.inner.db.apply_changes(changes)?);
        }
        let kv =
            self.inner.kv.as_ref().ok_or_else(|| {
                KvError::UnknownNamespace("<no key-value store bound>".to_string())
            })?;
        let writes = decode_kv_writes(kv, changes)?;
        let relational = trod_db::relational_changes(changes);
        catch_up_allocator(&self.inner.db, kv, &writes);
        let participant = KvParticipant::injecting(kv, &writes);
        self.inner
            .db
            .apply_changes_with(&relational, &[&participant])
    }

    /// Re-installs one aligned-history entry **verbatim** — txn id and
    /// commit/start timestamps preserved — through the participant commit
    /// path: relational changes and `kv:<namespace>` records land
    /// together in the same publication window and the entry appears in
    /// this session's aligned log with its original identity. Entries
    /// must be applied in commit-ts order onto a session whose clock is
    /// below `entry.commit_ts`.
    ///
    /// This is the injection primitive WAL recovery uses, exposed for
    /// history transfer between instances: dump/load and
    /// fork-from-instance replay a remote aligned log through it to
    /// reconstruct byte-identical history. Returns the number of kv
    /// writes installed.
    pub fn apply_entry(&self, entry: &CommittedTxn) -> TrodResult<usize> {
        match self.inner.kv.as_ref() {
            Some(kv) => Session::recover_entry(&self.inner.db, kv, entry),
            // Without a store every kv record is an unknown namespace.
            None => Session::recover_entry(&self.inner.db, &KvStore::new(), entry),
        }
    }

    // ------------------------------------------------------------------
    // Durability
    // ------------------------------------------------------------------

    /// Creates a fresh durable session environment — an empty relational
    /// database and key-value store whose commits stream into a new
    /// segmented WAL in the directory at `path` (truncating any existing
    /// log there). Namespace DDL must go through
    /// [`Session::create_namespace`] so it is logged too.
    pub fn create_durable(
        path: impl AsRef<std::path::Path>,
        opts: WalOptions,
    ) -> TrodResult<Session> {
        let db = Database::create_durable(path, opts).map_err(TrodError::from)?;
        Ok(Session::with_kv(db, KvStore::new()))
    }

    /// Opens (creating if absent) a durable session environment: the
    /// segmented WAL in the directory at `path` is walked
    /// ([`SegmentedWal::open_dir`]: manifest checked, crash debris
    /// reconciled, torn tail of the newest segment truncated, corruption
    /// in sealed/cold files refused with a typed error) and replayed by
    /// [`Database::recover`] with the key-value store as its
    /// [`RecoveryParticipant`] — table/index/namespace DDL rebuilds the
    /// catalogs, and each committed entry re-installs its relational
    /// changes *and* its `kv:<namespace>` writes through the participant
    /// commit path, preserving the entry verbatim in the aligned
    /// history. The recovered session's state, aligned log and
    /// timestamps equal the durable prefix of the original's.
    pub fn open_durable(
        path: impl AsRef<std::path::Path>,
        opts: WalOptions,
    ) -> TrodResult<(Session, RecoveryReport)> {
        Session::recover(SegmentedWal::open_path(path, opts).map_err(DbError::Storage)?)
    }

    /// [`Session::open_durable`] over an arbitrary [`trod_db::LogDir`]
    /// (fault-injection harnesses).
    pub fn open_durable_in(
        dir: Arc<dyn trod_db::LogDir>,
        opts: WalOptions,
    ) -> TrodResult<(Session, RecoveryReport)> {
        Session::recover(SegmentedWal::open_dir(dir, opts).map_err(DbError::Storage)?)
    }

    fn recover(log: RecoveredLog) -> TrodResult<(Session, RecoveryReport)> {
        let kv = KvStore::new();
        let (db, report) = Database::recover(log, &kv)?;
        Ok((Session::with_kv(db, kv), report))
    }

    /// Restores a checkpoint's key-value half into an empty store: every
    /// namespace re-created, every entry installed at the checkpoint
    /// timestamp as one store-level batch per namespace.
    fn restore_kv_checkpoint(kv: &KvStore, ck: &Checkpoint) -> TrodResult<()> {
        for ns in &ck.namespaces {
            kv.create_namespace(&ns.name).map_err(TrodError::from)?;
            if ns.entries.is_empty() {
                continue;
            }
            let writes: Vec<KvWrite> = ns
                .entries
                .iter()
                .map(|(key, value)| KvWrite {
                    namespace: ns.name.clone(),
                    key: key.clone(),
                    value: Some(value.clone()),
                })
                .collect();
            kv.apply(&writes, ck.ts.max(1)).map_err(TrodError::from)?;
        }
        Ok(())
    }

    /// Materializes a whole session environment from a decoded
    /// [`Checkpoint`]: a fresh database restored via
    /// [`Database::restore_checkpoint`] and a fresh key-value store with
    /// the checkpoint's namespaces and entries, bound together like any
    /// session. The debugger's deep forks start here and replay only the
    /// aligned history *after* the checkpoint timestamp — nearest
    /// snapshot + delta instead of replay-everything.
    pub fn from_checkpoint(ck: &Checkpoint) -> TrodResult<Session> {
        let db = Database::new();
        db.restore_checkpoint(ck).map_err(TrodError::from)?;
        let kv = KvStore::new();
        Session::restore_kv_checkpoint(&kv, ck)?;
        Ok(Session::with_kv(db, kv))
    }

    /// Forces an environment checkpoint now (capture + durable write
    /// through the attached WAL). `None` when skipped — no WAL, nothing
    /// committed yet, a checkpoint at this timestamp already exists, or
    /// another capture is in flight. See [`Database::checkpoint`].
    pub fn checkpoint(&self) -> TrodResult<Option<(Ts, u64)>> {
        self.inner.db.checkpoint().map_err(TrodError::from)
    }

    /// Re-installs one aligned-history entry: relational changes through
    /// [`Database::apply_entry_with`], kv records decoded back into
    /// [`KvWrite`]s and installed by an injecting participant in the same
    /// commit — the entry lands in the log verbatim, original identity
    /// and kv records included. Returns the number of kv writes
    /// installed.
    fn recover_entry(db: &Database, kv: &KvStore, entry: &CommittedTxn) -> TrodResult<usize> {
        let writes = decode_kv_writes(kv, &entry.changes)?;
        if writes.is_empty() {
            db.apply_entry_with(entry, &[])?;
        } else {
            let participant = KvParticipant::injecting(kv, &writes);
            db.apply_entry_with(entry, &[&participant])?;
        }
        Ok(writes.len())
    }

    /// Creates a key-value namespace and — on a durable session — logs
    /// the DDL so recovery re-creates it before replaying the commits
    /// that write to it. Use this instead of `KvStore::create_namespace`
    /// whenever the session is durable.
    pub fn create_namespace(&self, name: &str) -> TrodResult<()> {
        let kv =
            self.inner.kv.as_ref().ok_or_else(|| {
                KvError::UnknownNamespace("<no key-value store bound>".to_string())
            })?;
        kv.create_namespace(name)?;
        if let Some(wal) = self.inner.db.wal() {
            let record = WalRecord::CreateNamespace {
                name: name.to_string(),
            };
            let lsn = wal.append_record(&record).map_err(TrodError::Storage)?;
            wal.sync_to(lsn).map_err(TrodError::Storage)?;
        }
        Ok(())
    }

    /// Garbage-collects history in BOTH stores under one horizon: `ts`
    /// clamped to the relational active-transaction watermark and the
    /// published clock, so neither store drops a version an active
    /// transaction can still read. The relational side spills the aligned
    /// log entries it truncates into the retention policy (if installed)
    /// — and since those entries carry the `kv:<namespace>` change
    /// records verbatim, the spilled history exactly covers the kv
    /// versions truncated here: kv time travel below the horizon remains
    /// reconstructable from spilled + live aligned history, closing the
    /// GC coordination gap between the stores.
    pub fn gc_before(&self, ts: Ts) -> GcStats {
        let db = &self.inner.db;
        let horizon = ts
            .min(db.min_active_start_ts().unwrap_or(Ts::MAX))
            .min(db.current_ts());
        let (relational_versions, log_entries) = db.gc_before(horizon);
        // The relational side re-clamps under its log lock (a fork may
        // have pinned since the watermark was read above); the floor it
        // raised is as far as either store may reclaim.
        let horizon = horizon.min(db.log_truncated_below());
        let kv_versions = self
            .inner
            .kv
            .as_ref()
            .map(|kv| kv.gc_before(horizon))
            .unwrap_or(0);
        GcStats {
            horizon,
            relational_versions,
            log_entries,
            kv_versions,
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
            kv_reads: BTreeSet::new(),
            kv_writes: BTreeMap::new(),
            reads: Vec::new(),
            ctx: opts.ctx,
        }
    }
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("kv", &self.inner.kv.is_some())
            .field("traced", &self.inner.tracer.is_some())
            .finish()
    }
}

/// The text key of a traced/captured kv row image (key position 0 of the
/// `(kv_key, kv_value)` wire shape every `kv:` read trace and change
/// record uses). `None` for a non-text key — malformed or foreign data.
/// One source of truth for the format: [`kv_write_of_record`] and the
/// debugger's replay/reenactment verification all decode through here.
pub fn kv_image_key(key: &Key) -> Option<&str> {
    match key.values().first() {
        Some(Value::Text(k)) => Some(k),
        _ => None,
    }
}

/// The text value of a traced/captured kv row image (row index 1 of the
/// `(kv_key, kv_value)` wire shape); `None` when absent or erased. See
/// [`kv_image_key`].
pub fn kv_image_value(row: &Row) -> Option<&str> {
    row.get(1).and_then(|v| v.as_text())
}

/// Reconstructs the [`KvWrite`] a `kv:<namespace>` change record captured.
fn kv_write_of_record(record: &ChangeRecord) -> Option<KvWrite> {
    let namespace = record.table.strip_prefix(trod_db::KV_TABLE_PREFIX)?;
    let key = kv_image_key(&record.key)?.to_string();
    let value = record
        .op
        .after()
        .and_then(kv_image_value)
        .map(|v| v.to_string());
    Some(KvWrite {
        namespace: namespace.to_string(),
        key,
        value,
    })
}

/// Decodes the `kv:<namespace>` records of an aligned change list back
/// into the [`KvWrite`]s they captured — the one decoder behind
/// [`Session::apply_changes`] and [`Session::apply_entry`]. Anything that
/// cannot be re-applied faithfully rejects the whole list before a lock
/// or timestamp is taken: a record that does not decode, one whose value
/// image was erased by privacy redaction (refused rather than silently
/// turned from a put into a delete), or an unknown namespace.
fn decode_kv_writes(kv: &KvStore, changes: &[ChangeRecord]) -> TrodResult<Vec<KvWrite>> {
    let mut writes = Vec::new();
    for record in changes.iter().filter(|c| trod_db::is_kv_table(&c.table)) {
        let write = kv_write_of_record(record).ok_or_else(|| {
            DbError::Invalid(format!(
                "kv change record on `{}` key {} does not decode",
                record.table, record.key
            ))
        })?;
        if record.op.after().is_some() && write.value.is_none() {
            return Err(DbError::Invalid(format!(
                "kv change record on `{}` key {} has an erased value image",
                record.table, record.key
            ))
            .into());
        }
        if !kv.has_namespace(&write.namespace) {
            return Err(KvError::UnknownNamespace(write.namespace).into());
        }
        writes.push(write);
    }
    Ok(writes)
}

/// If a raw store-level apply outran the database's allocator on a
/// written namespace, catches the allocator up first so the
/// participant's freshness veto only fires on a genuine mid-commit race
/// (which a retry absorbs).
fn catch_up_allocator(db: &Database, kv: &KvStore, writes: &[KvWrite]) {
    let floor = writes
        .iter()
        .map(|w| kv.last_commit_ts_of(&w.namespace).unwrap_or(0))
        .max()
        .unwrap_or(0);
    db.ensure_ts_at_least(floor);
}

/// Encodes buffered key-value writes as CDC records on the virtual
/// `kv:<namespace>` tables, before images read from the store's current
/// state. Callers hold the namespaces' commit locks, so the state is
/// stable between the read and the install.
fn kv_change_records(kv: &KvStore, writes: &[KvWrite]) -> Vec<ChangeRecord> {
    let image = |key: &str, value: &String| {
        Row::from(vec![
            Value::Text(key.to_string()),
            Value::Text(value.clone()),
        ])
    };
    let mut out = Vec::with_capacity(writes.len());
    // One shared table name per run of writes to the same namespace.
    for run in writes.chunk_by(|a, b| a.namespace == b.namespace) {
        let table = kv_table_name(&run[0].namespace);
        for write in run {
            let (table, key) = (table.clone(), Key::single(write.key.as_str()));
            let before = kv
                .get_latest(&write.namespace, &write.key)
                .expect("namespace validated before commit");
            let before = before.as_ref().map(|v| image(&write.key, v));
            let after = write.value.as_ref().map(|v| image(&write.key, v));
            out.push(match (before, after) {
                (None, Some(after)) => ChangeRecord::insert(table, key, after),
                (Some(before), Some(after)) => ChangeRecord::update(table, key, before, after),
                (Some(before), None) => ChangeRecord::delete(table, key, before),
                (None, None) => continue, // delete of a key that never existed
            });
        }
    }
    out
}

/// The key-value half of [`Database::recover`]: namespaces and entries
/// from the checkpoint, namespace DDL, and the `kv:<namespace>` records
/// of every replayed commit land in this store.
impl RecoveryParticipant for KvStore {
    fn restore_checkpoint(&self, ck: &Checkpoint) -> TrodResult<()> {
        Session::restore_kv_checkpoint(self, ck)
    }

    fn create_namespace(&self, name: &str) -> TrodResult<()> {
        KvStore::create_namespace(self, name).map_err(TrodError::from)
    }

    fn apply_entry(&self, db: &Database, entry: &CommittedTxn) -> TrodResult<()> {
        Session::recover_entry(db, self, entry).map(|_| ())
    }
}

/// The unified transaction handle: relational and key-value operations at
/// one snapshot, committed atomically at one timestamp through the commit
/// coordinator, with one error type and one provenance record.
///
/// Dropping an uncommitted `Txn` aborts it (without emitting an abort
/// trace; use [`Txn::abort`] to record the attempt).
pub struct Txn {
    session: Session,
    txn_id: TxnId,
    snapshot_ts: Ts,
    rel: Option<trod_db::Transaction>,
    /// (namespace, key) pairs observed by reads; validated under
    /// serializable isolation (any key in this set that gained a newer
    /// version after the snapshot aborts the commit).
    kv_reads: BTreeSet<(String, String)>,
    /// (namespace, key) → buffered value (None = delete).
    kv_writes: BTreeMap<(String, String), Option<String>>,
    /// Read provenance across both stores (captured only when the
    /// session has a tracer).
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

    /// Captures one read's provenance — the single policy point for read
    /// capture: records are built (and rows cloned) only when the session
    /// has a tracer.
    fn trace_read(&mut self, build: impl FnOnce() -> ReadTrace) {
        if self.traced() {
            let trace = build();
            self.reads.push(trace);
        }
    }

    /// The database-assigned transaction id (also used in provenance).
    pub fn txn_id(&self) -> TxnId {
        self.txn_id
    }

    /// The shared snapshot timestamp both stores are read at.
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

    /// Point read from the relational store.
    pub fn get(&mut self, table: &str, key: &Key) -> TrodResult<Option<Arc<Row>>> {
        let result = self.rel_mut().get(table, key)?;
        let read_ts = self
            .rel
            .as_ref()
            .map(|t| t.last_read_ts())
            .unwrap_or_default();
        self.trace_read(|| ReadTrace {
            table: table.to_string(),
            query: format!("Get {table}{key}"),
            read_ts,
            rows: result
                .clone()
                .map(|r| vec![(key.clone(), r)])
                .unwrap_or_default(),
        });
        Ok(result)
    }

    /// Predicate scan over the relational store.
    pub fn scan(&mut self, table: &str, pred: &Predicate) -> TrodResult<Vec<(Key, Arc<Row>)>> {
        let result = self.rel_mut().scan(table, pred)?;
        let read_ts = self
            .rel
            .as_ref()
            .map(|t| t.last_read_ts())
            .unwrap_or_default();
        self.trace_read(|| ReadTrace {
            table: table.to_string(),
            query: format!("Scan {table} WHERE {pred}"),
            read_ts,
            rows: result.clone(),
        });
        Ok(result)
    }

    /// Existence check over the relational store (the "Check if (U1, F2)
    /// exists" row of the paper's Table 2).
    pub fn exists(&mut self, table: &str, pred: &Predicate) -> TrodResult<bool> {
        let result = self.rel_mut().scan(table, pred)?;
        let read_ts = self
            .rel
            .as_ref()
            .map(|t| t.last_read_ts())
            .unwrap_or_default();
        self.trace_read(|| ReadTrace {
            table: table.to_string(),
            query: format!("Check if {pred} exists in {table}"),
            read_ts,
            rows: result.clone(),
        });
        Ok(!result.is_empty())
    }

    /// Count with read provenance.
    pub fn count(&mut self, table: &str, pred: &Predicate) -> TrodResult<usize> {
        let result = self.rel_mut().scan(table, pred)?;
        let read_ts = self
            .rel
            .as_ref()
            .map(|t| t.last_read_ts())
            .unwrap_or_default();
        self.trace_read(|| ReadTrace {
            table: table.to_string(),
            query: format!("Count {pred} in {table}"),
            read_ts,
            rows: result.clone(),
        });
        Ok(result.len())
    }

    /// Insert into the relational store (write provenance is captured
    /// from the commit's CDC records).
    pub fn insert(&mut self, table: &str, row: Row) -> TrodResult<Key> {
        Ok(self.rel_mut().insert(table, row)?)
    }

    /// Update a relational row by primary key.
    pub fn update(&mut self, table: &str, key: &Key, new_row: Row) -> TrodResult<()> {
        Ok(self.rel_mut().update(table, key, new_row)?)
    }

    /// Updates every relational row matching `pred` by applying `f`.
    /// Returns the number of rows updated.
    pub fn update_where<F>(&mut self, table: &str, pred: &Predicate, f: F) -> TrodResult<usize>
    where
        F: FnMut(&Row) -> Row,
    {
        Ok(self.rel_mut().update_where(table, pred, f)?)
    }

    /// Delete a relational row by primary key.
    pub fn delete(&mut self, table: &str, key: &Key) -> TrodResult<bool> {
        Ok(self.rel_mut().delete(table, key)?)
    }

    /// Deletes every relational row matching `pred`. Returns the number
    /// deleted.
    pub fn delete_where(&mut self, table: &str, pred: &Predicate) -> TrodResult<usize> {
        Ok(self.rel_mut().delete_where(table, pred)?)
    }

    /// The buffered (uncommitted) relational writes, as CDC records.
    pub fn pending_changes(&self) -> Vec<ChangeRecord> {
        self.rel
            .as_ref()
            .map(|t| t.pending_changes())
            .unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Key-value operations (with read provenance)
    // ------------------------------------------------------------------

    fn kv_store(&self) -> TrodResult<&KvStore> {
        self.session
            .inner
            .kv
            .as_ref()
            .ok_or_else(|| KvError::UnknownNamespace("<no key-value store bound>".into()).into())
    }

    /// The visibility timestamp key-value reads are served at: the shared
    /// snapshot under snapshot isolation / serializable, the published
    /// clock under read committed — the same rule the relational side
    /// follows, so one transaction never sees two different points in
    /// time across its stores.
    fn kv_read_ts(&self) -> Ts {
        match self.isolation() {
            IsolationLevel::ReadCommitted => self.session.inner.db.current_ts(),
            IsolationLevel::SnapshotIsolation | IsolationLevel::Serializable => self.snapshot_ts,
        }
    }

    /// Reads a key from the key-value store at this transaction's read
    /// timestamp (see [`Txn::kv_read_ts`]), seeing its own buffered
    /// writes first.
    pub fn kv_get(&mut self, namespace: &str, key: &str) -> TrodResult<Option<String>> {
        let id = (namespace.to_string(), key.to_string());
        if let Some(buffered) = self.kv_writes.get(&id) {
            return Ok(buffered.clone());
        }
        let read_ts = self.kv_read_ts();
        let kv = self.kv_store()?.clone();
        let value = kv.get_as_of(namespace, key, read_ts)?;
        self.kv_reads.insert(id);
        self.trace_read(|| ReadTrace {
            table: kv_table_name(namespace).to_string(),
            query: format!("Get {key}"),
            read_ts,
            rows: value
                .as_ref()
                .map(|v| {
                    vec![(
                        Key::single(key),
                        Arc::new(Row::from(vec![
                            Value::Text(key.to_string()),
                            Value::Text(v.clone()),
                        ])),
                    )]
                })
                .unwrap_or_default(),
        });
        Ok(value)
    }

    /// Prefix scan over the key-value store at this transaction's read
    /// timestamp (see [`Txn::kv_read_ts`]). Buffered writes of this
    /// transaction are *not* merged into the scan (matching the behaviour
    /// of most KV stores' snapshot iterators).
    pub fn kv_scan_prefix(
        &mut self,
        namespace: &str,
        prefix: &str,
    ) -> TrodResult<Vec<(String, String)>> {
        let read_ts = self.kv_read_ts();
        let kv = self.kv_store()?.clone();
        let result = kv.scan_prefix_as_of(namespace, prefix, read_ts)?;
        for (key, _) in &result {
            self.kv_reads.insert((namespace.to_string(), key.clone()));
        }
        self.trace_read(|| ReadTrace {
            table: kv_table_name(namespace).to_string(),
            query: format!("Scan prefix {prefix}"),
            read_ts,
            rows: result
                .iter()
                .map(|(k, v)| {
                    (
                        Key::single(k.as_str()),
                        Arc::new(Row::from(vec![
                            Value::Text(k.clone()),
                            Value::Text(v.clone()),
                        ])),
                    )
                })
                .collect(),
        });
        Ok(result)
    }

    /// Buffers a key-value put.
    pub fn kv_put(&mut self, namespace: &str, key: &str, value: &str) -> TrodResult<()> {
        if !self.kv_store()?.has_namespace(namespace) {
            return Err(KvError::UnknownNamespace(namespace.to_string()).into());
        }
        self.kv_writes.insert(
            (namespace.to_string(), key.to_string()),
            Some(value.to_string()),
        );
        Ok(())
    }

    /// Buffers a key-value delete.
    pub fn kv_delete(&mut self, namespace: &str, key: &str) -> TrodResult<()> {
        if !self.kv_store()?.has_namespace(namespace) {
            return Err(KvError::UnknownNamespace(namespace.to_string()).into());
        }
        self.kv_writes
            .insert((namespace.to_string(), key.to_string()), None);
        Ok(())
    }

    /// The buffered key-value writes in deterministic order.
    pub fn pending_kv_writes(&self) -> Vec<KvWrite> {
        self.kv_writes
            .iter()
            .map(|((namespace, key), value)| KvWrite {
                namespace: namespace.clone(),
                key: key.clone(),
                value: value.clone(),
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Commit / abort
    // ------------------------------------------------------------------

    /// Commits atomically across all participating stores at one commit
    /// timestamp, through the sharded commit coordinator (see the module
    /// docs — there is no cross-store lock; disjoint footprints commit
    /// concurrently).
    pub fn commit(mut self) -> TrodResult<TxnCommit> {
        let rel = self.rel.take().expect("transaction already finished");
        let kv_writes = self.pending_kv_writes();

        let needs_participant = !self.kv_writes.is_empty() || !self.kv_reads.is_empty();
        let result = if needs_participant {
            catch_up_allocator(self.session.database(), self.kv_store()?, &kv_writes);
            let participant = KvParticipant {
                kv: self.kv_store()?.clone(),
                snapshot_ts: self.snapshot_ts,
                serializable: matches!(rel.isolation(), IsolationLevel::Serializable),
                reads: &self.kv_reads,
                writes: &kv_writes,
                records: std::cell::RefCell::new(None),
            };
            rel.commit_with_participants(&[&participant])
        } else {
            rel.commit_with_participants(&[])
        };

        match result {
            Ok(info) => {
                let relational_changes = info
                    .changes
                    .iter()
                    .filter(|c| !trod_db::is_kv_table(&c.table))
                    .count();
                let kv_installed = info.changes.len() - relational_changes;
                if self.traced() {
                    self.emit_trace(info.commit_ts, true, Arc::clone(&info.changes));
                }
                Ok(TxnCommit {
                    txn_id: self.txn_id,
                    commit_ts: info.commit_ts,
                    relational_changes,
                    kv_writes: kv_installed,
                    changes: info.changes,
                })
            }
            Err(e) => {
                self.emit_trace(0, false, Arc::new([]));
                Err(e)
            }
        }
    }

    /// Aborts the transaction on all stores; an aborted-transaction trace
    /// is recorded so aborted attempts remain visible to declarative
    /// debugging.
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
            .field("kv_writes", &self.kv_writes.len())
            .finish()
    }
}

/// The key-value side of a commit, handed to the commit protocol: a
/// committing [`Txn`]'s buffered reads and writes, or the decoded writes
/// of an injected change list ([`KvParticipant::injecting`]).
struct KvParticipant<'a> {
    kv: KvStore,
    snapshot_ts: Ts,
    /// Reads are validated only under serializable isolation.
    serializable: bool,
    reads: &'a BTreeSet<(String, String)>,
    writes: &'a [KvWrite],
    /// Change records (with before images) precomputed at the end of
    /// validation, while the namespace locks are held and the store state
    /// is already stable — so the serial publication window only pays for
    /// the actual install, not the before-image reads.
    records: std::cell::RefCell<Option<Vec<ChangeRecord>>>,
}

static NO_READS: BTreeSet<(String, String)> = BTreeSet::new();

impl<'a> KvParticipant<'a> {
    /// The participant of an injection: no reads, and a snapshot nothing
    /// can postdate — injection bypasses validation by design, exactly
    /// like the relational [`Database::apply_changes`], keeping only the
    /// per-namespace timestamp-freshness veto.
    fn injecting(kv: &KvStore, writes: &'a [KvWrite]) -> Self {
        KvParticipant {
            kv: kv.clone(),
            snapshot_ts: Ts::MAX,
            serializable: false,
            reads: &NO_READS,
            writes,
            records: std::cell::RefCell::new(None),
        }
    }

    /// True if the transaction wrote (and therefore locked) `namespace`.
    fn wrote(&self, namespace: &str) -> bool {
        self.writes.iter().any(|w| w.namespace == namespace)
    }
}

impl CommitParticipant for KvParticipant<'_> {
    fn resources(&self) -> Vec<String> {
        let mut namespaces: Vec<&str> = self.writes.iter().map(|w| w.namespace.as_str()).collect();
        namespaces.sort_unstable();
        namespaces.dedup();
        namespaces
            .into_iter()
            .map(|ns| kv_table_name(ns).to_string())
            .collect()
    }

    fn resource_lock(&self, resource: &str) -> Arc<Mutex<()>> {
        let namespace = resource
            .strip_prefix(trod_db::KV_TABLE_PREFIX)
            .unwrap_or(resource);
        self.kv
            .commit_lock_of(namespace)
            .expect("namespace validated before commit")
    }

    fn validate(&self, min_commit_ts: Ts) -> TrodResult<()> {
        let conflict = |namespace: &str, key: &str| -> TrodResult<()> {
            // The transaction read and buffered at its snapshot, so any
            // newer version of the key is a conflict.
            if self.kv.version_of(namespace, key)? > self.snapshot_ts {
                return Err(KvError::Conflict {
                    namespace: namespace.to_string(),
                    key: key.to_string(),
                }
                .into());
            }
            Ok(())
        };
        if self.serializable {
            // Optimistic for namespaces that were only read (unlocked);
            // `revalidate_reads` is the exact check for those.
            for (namespace, key) in self.reads {
                conflict(namespace, key)?;
            }
        }
        for write in self.writes {
            // First-committer-wins, under every isolation level.
            conflict(&write.namespace, &write.key)?;
            // A raw store-level apply may have pushed this namespace's
            // timestamp past what the protocol will claim. Veto here —
            // fallibly, nothing installed anywhere — so install (which
            // must not fail) never sees a stale timestamp. The namespace
            // locks are held, so the check stays true until install.
            let ns_latest = self.kv.last_commit_ts_of(&write.namespace)?;
            if ns_latest >= min_commit_ts {
                return Err(KvError::StaleCommitTimestamp {
                    given: min_commit_ts,
                    latest: ns_latest,
                }
                .into());
            }
        }
        // Validation passed: the store state for our namespaces is locked
        // and final, so take the before images now rather than inside the
        // serial publication window.
        if !self.writes.is_empty() {
            *self.records.borrow_mut() = Some(kv_change_records(&self.kv, self.writes));
        }
        Ok(())
    }

    fn has_writes(&self) -> bool {
        !self.writes.is_empty()
    }

    fn needs_revalidation(&self) -> bool {
        self.serializable && self.reads.iter().any(|(ns, _)| !self.wrote(ns))
    }

    fn revalidate_reads(&self, commit_ts: Ts) -> TrodResult<()> {
        for (namespace, key) in self.reads {
            if self.wrote(namespace) {
                continue;
            }
            if self
                .kv
                .key_modified_in(namespace, key, self.snapshot_ts, commit_ts)?
            {
                return Err(KvError::Conflict {
                    namespace: namespace.clone(),
                    key: key.clone(),
                }
                .into());
            }
        }
        Ok(())
    }

    fn install(&self, commit_ts: Ts) -> Vec<ChangeRecord> {
        if self.writes.is_empty() {
            return Vec::new();
        }
        let records = self
            .records
            .borrow_mut()
            .take()
            .expect("validate runs before install");
        self.kv
            .apply_claimed(self.writes, commit_ts)
            .expect("validated key-value batch cannot fail to apply");
        records
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
        let kv = KvStore::new();
        kv.create_namespace("sessions").unwrap();
        Session::with_kv(orders_db(), kv)
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
            session.kv().version_of("sessions", "user-1").unwrap(),
            commit.commit_ts
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
        assert!(matches!(err, TrodError::KeyValue(KvError::Conflict { .. })));
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
        assert!(matches!(
            b.commit().unwrap_err(),
            TrodError::KeyValue(KvError::Conflict { .. })
        ));
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
    fn relational_only_sessions_need_no_kv_store() {
        let tracer = Tracer::new();
        let session = Session::builder(orders_db()).tracer(tracer.clone()).build();
        assert!(session.kv_store().is_none());

        let mut txn = session.begin_traced(TxnContext::new("R1", "h", "f"));
        txn.insert("orders", row![1i64, "widget"]).unwrap();
        let commit = txn.commit().unwrap();
        assert_eq!(commit.relational_changes, 1);
        assert_eq!(commit.kv_writes, 0);
        assert_eq!(tracer.drain().len(), 1);

        // KV operations on a KV-less session fail cleanly.
        let mut txn = session.begin();
        assert!(matches!(
            txn.kv_put("sessions", "k", "v").unwrap_err(),
            TrodError::KeyValue(KvError::UnknownNamespace(_))
        ));
        txn.abort();
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
    fn apply_changes_injects_polyglot_history_through_the_participant_path() {
        let session = session();
        let mut txn = session.begin();
        txn.insert("orders", row![1i64, "widget"]).unwrap();
        txn.kv_put("sessions", "user-1", "v1").unwrap();
        txn.commit().unwrap();

        let fork = session.fork_empty().unwrap();
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
    fn apply_changes_rejects_kv_records_without_a_store_or_with_erased_images() {
        let put = ChangeRecord::insert(
            kv_table_name("sessions"),
            Key::single("user-1"),
            Row::from(vec![Value::Text("user-1".into()), Value::Text("v".into())]),
        );

        // No kv store bound: the batch is rejected (the replay layer
        // counts such records as skipped instead).
        let bare = Session::new(orders_db());
        assert!(matches!(
            bare.apply_changes(std::slice::from_ref(&put)).unwrap_err(),
            TrodError::KeyValue(KvError::UnknownNamespace(_))
        ));

        // A redacted (all-NULL image) put is refused rather than decoded
        // as a delete.
        let session = session();
        let erased = ChangeRecord::insert(
            kv_table_name("sessions"),
            Key::single("user-1"),
            Row::from(vec![Value::Null, Value::Null]),
        );
        assert!(matches!(
            session
                .apply_changes(std::slice::from_ref(&erased))
                .unwrap_err(),
            TrodError::Relational(DbError::Invalid(_))
        ));
        // Nothing was installed by the failed batches.
        assert_eq!(session.kv().get_latest("sessions", "user-1").unwrap(), None);
        assert!(session.aligned_log().is_empty());
    }

    #[test]
    fn concurrent_kv_writes_conflict_through_the_unified_error() {
        let kv = KvStore::new();
        kv.create_namespace("sessions").unwrap();
        let session = Session::with_kv(orders_db(), kv);
        let mut txn = session.begin();
        txn.kv_put("sessions", "k", "v").unwrap();
        txn.commit().unwrap();

        let mut a = session.begin();
        let mut b = session.begin();
        a.kv_put("sessions", "k", "a").unwrap();
        b.kv_put("sessions", "k", "b").unwrap();
        a.commit().unwrap();
        let err = b.commit().unwrap_err();
        assert!(matches!(err, TrodError::KeyValue(KvError::Conflict { .. })));
    }
}
