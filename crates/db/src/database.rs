//! The database façade: catalog, transaction lifecycle, commit protocol,
//! transaction log access, snapshots, time travel and forking.
//!
//! # The sharded commit protocol
//!
//! Commit used to serialize every writing transaction on one global
//! `Mutex<()>`; at ~2 µs of validation + install per commit the lock
//! itself was the throughput ceiling. Commits are now sharded by table
//! while remaining strictly serializable:
//!
//! **Lock order.** A committing transaction acquires the per-table commit
//! locks ([`TableStore::commit_lock`]) of its *footprint* in ascending
//! table-name order. The footprint is every table it wrote, plus — under
//! serializable isolation — every table it point-read or predicate-
//! scanned (their validation results must stay true until the commit
//! publishes). The deterministic global order makes multi-table commits
//! deadlock-free; transactions with disjoint footprints validate and
//! install fully concurrently.
//!
//! **Timestamp allocation.** After validation and all pre-apply checks
//! succeed — i.e. once nothing can fail — the commit claims
//! `commit_ts = ts_alloc.fetch_add(1) + 1` from a global atomic
//! allocator. Because allocation happens while holding the footprint
//! locks, timestamps are monotone *per table*, which keeps every table's
//! [`ChangeLog`](crate::changelog::ChangeLog) ordered by `commit_ts`.
//! Aborting transactions never allocate, so the timestamp sequence has no
//! holes.
//!
//! **Publication rule.** Versions are installed at `commit_ts`, but
//! readers resolve visibility against the separate `clock` (the highest
//! *published* timestamp, [`Database::current_ts`]) — an installed-but-
//! unpublished version with `begin_ts > clock` is invisible to every
//! read. A commit publishes by waiting until `clock == commit_ts - 1`
//! and then storing `commit_ts` (appending its [`TxnLog`] entry inside
//! that ordered window, so the global log stays commit-ordered). The
//! clock therefore only ever exposes a prefix of fully installed
//! commits: readers can never observe a torn (half-installed)
//! multi-table commit. Footprint locks are held until after publication,
//! so the next committer on any overlapping table starts from a fully
//! published state.
//!
//! **Commit participants.** The protocol is not relational-only: a commit
//! may carry [`CommitParticipant`](crate::commit::CommitParticipant)s —
//! other stores (e.g. `trod-kv` namespaces) whose buffered reads and
//! writes join the same commit. Participants contribute *resources*
//! (globally-unique lock names such as `kv:<namespace>`) that are merged
//! with the relational footprint and locked in one sorted order, so a
//! polyglot commit is deadlock-free and commits over disjoint resources —
//! different tables, different namespaces, or any mix — proceed fully
//! concurrently. Participant validation runs under the merged footprint
//! locks before the timestamp is claimed (any store can still veto, and
//! aborts are side-effect-free everywhere); participant installation runs
//! inside the ordered publication window and its change records are
//! appended to the same [`TxnLog`] entry as the relational changes. The
//! transaction log is therefore *aligned by construction*: one commit,
//! one timestamp, one entry spanning every store (paper §5) — there is no
//! separate cross-store commit path, and no cross-store global lock.
//!
//! **Lock-free serializable readers (SSI).** Acquiring commit locks for
//! *read-only* footprint tables makes readers of hot shared tables
//! serialize behind every writer — and behind each other's publication
//! waits. Serializable commits therefore default to **serializable
//! snapshot validation**: only written tables are commit-locked, and the
//! read set (point reads, scan predicates, index probes — scans record
//! their predicate whichever access path served them) is validated in
//! two passes. An *optimistic* pass under the write locks catches
//! rw-antidependencies that have already published (cheap early abort,
//! and on any serial schedule it makes exactly the decisions the locked
//! check would). Then, if any read touched a table the commit did not
//! write, the commit claims its timestamp, waits for its publication
//! turn, and re-validates those reads *inside the window* against the
//! exact span `(start_ts, commit_ts)` — every predecessor is fully
//! published, every successor excluded by timestamp, so the re-check is
//! sound, not racy. A conflict publishes the claimed timestamp as an
//! empty tick (nothing was installed) and aborts with a retryable
//! serialization failure. [`Database::set_read_lock_commit`] restores
//! the 2PL read-locking baseline the `read_scaling` benchmark measures
//! against; [`Database::set_serial_commit`] implies it.
//!
//! **The widened publication pipeline.** The publication rule lets
//! installs move *out* of the ordered window: a version stamped with a
//! claimed `commit_ts` is invisible until the clock reaches it, so
//! relational **and participant** installs run right after the
//! timestamp claim, before waiting for the publication turn (clock-aware
//! versioning — participant stores bind [`Database::publication_clock`]
//! and clamp reads to the published prefix). Log appends leave the
//! window too: the publisher stages its entry in sharded buffers
//! ([`crate::log::LogStaging`]) *before* bumping the clock, and log
//! readers drain published entries into the [`TxnLog`] in commit order
//! on access — the single log mutex is no longer the fan-in point of
//! every commit, while the observable log (and the WAL, whose in-window
//! buffer memcpy keeps byte order == commit order) stays byte-identical.
//! On the fast path the ordered window is now just: WAL buffer append,
//! staging push, clock bump. Only SSI commits with unlocked reads (and
//! replay injection) still validate or install inside their window.
//!
//! **Watermark semantics.** Every transaction registers `(txn_id,
//! start_ts)` in the [`ActiveTxnRegistry`] at `begin` and deregisters at
//! commit/abort/drop. The registry's `min_active_start_ts()` watermark
//! bounds history reclamation: [`Database::gc_before`] clamps its horizon
//! to it, and change-log ring eviction refuses to evict entries above
//! `min(watermark, published clock)` — both read under the registry lock,
//! so an active transaction's snapshot stays readable and its O(Δ)
//! validation window is never truncated out from under it, even by an
//! append racing with `begin`. Ring bloat under a long-lived pinner is
//! bounded by the ring's overshoot cap (see [`crate::changelog`]): a
//! pathological pinner degrades to full-scan validation instead of
//! growing the ring without limit.
//!
//! [`Database::set_serial_commit`] restores the old single-global-lock
//! behaviour (on top of the sharded locks, and covering participants too)
//! as a measurable baseline, the same way
//! [`Database::set_full_scan_validation`] exposes the O(total versions)
//! validation path.
//!
//! # The read path: access-path selection
//!
//! Point reads resolve one version chain directly (O(1) hash lookup plus
//! a chain walk that is O(1) for live reads). Predicate scans go through
//! a small **scan planner** ([`TableStore::plan_scan`] exposes its
//! decision): for each index on the table it derives the candidate set
//! the predicate admits — a *point probe* when
//! [`Predicate::equality_on`](crate::predicate::Predicate::equality_on)
//! pins a hash-indexed column, a *multi-probe* (one hash probe per list
//! element, merged) when `in_list_on` finds an `IN (...)` conjunct, a
//! *range probe* over an ordered [`RangeIndex`](crate::index::RangeIndex)
//! when `bounds_on` extracts a comparison window — estimates each path's
//! candidate count from index entry counts (range estimates stop counting
//! at the best estimate so far), and takes the cheapest path, falling back
//! to the full chain walk when nothing beats it.
//!
//! Two invariants make every path interchangeable:
//!
//! * **Indexes over-approximate, never under-approximate.** Analysis only
//!   extracts constraints that are *conjunctively required* (`Or`/`Not`
//!   subtrees contribute nothing), index entries are MVCC-stamped rather
//!   than removed (eager unlink on update/delete, `purge_dead` on GC), and
//!   every candidate is re-checked for visibility at the read timestamp
//!   and against the full compiled predicate. A stale or widened candidate
//!   costs a wasted check; a missing one would be a wrong result — so the
//!   planner only ever errs wide. `scan_at_full` is the always-correct
//!   oracle, and `tests/scan_path_equivalence.rs` property-tests that
//!   every planner choice returns its exact result set, including at
//!   time-travel timestamps.
//! * **One timestamp discipline everywhere.** Probes filter candidates by
//!   the read timestamp using the same `until > ts` stamp rule for every
//!   index kind, so latest, snapshot and time-travel scans (and therefore
//!   the debugger's as-of views and the declarative query layer, which
//!   lowers WHERE clauses into pushed-down predicates) all ride the same
//!   planner with no separate history path.
//!
//! # Forking, replay injection and aligned-history retention
//!
//! The debugger's "development database" is a **fork**:
//! [`Database::fork_at`] materialises the rows visible at a timestamp into
//! an independent database whose clock starts at that timestamp (schemas
//! and indexes copied; the key-value store mirrors the same semantics with
//! `KvStore::fork_at` in `trod-kv`, so a whole *session environment* —
//! db + kv — forks at one point of the aligned history). Replay then
//! drives the fork with [`Database::apply_changes_with`]: captured change
//! records re-applied as synthetic commits that take the same per-resource
//! locks, claim timestamps from the fork's allocator, and run participant
//! installs (the `kv:<namespace>` half of a polyglot commit) inside the
//! same ordered publication window as live commits — one aligned log
//! entry per injected transaction, exactly like production.
//!
//! Forking is only sound **at or above the GC truncation floor**
//! ([`Database::log_truncated_below`]): [`Database::gc_before`] drops row
//! versions and the matching aligned log entries together, so below the
//! floor the live store can no longer materialise the historical state.
//! A [`RetentionPolicy`] closes that gap: when installed
//! ([`Database::set_retention_policy`]), GC *spills* every log entry it
//! truncates into the policy before dropping it. A debugger that kept the
//! spilled entries (the TROD provenance store does) can rebuild the
//! environment at any spilled timestamp by replaying spilled + live
//! aligned entries into an empty fork — which is how replay keeps working
//! for history older than the GC watermark.
//!
//! # Durability
//!
//! [`Database::create_durable`] / [`Database::open_durable`] put a
//! [`SegmentedWal`] under the commit protocol; the design (layers, the
//! single storage seam, fault model, crash windows, the recovery walk)
//! is written up once, in "The durable log" in `crates/db/DESIGN.md`.
//! What this module guarantees:
//!
//! * **WAL byte order is commit order.** The publication window appends
//!   each [`TxnLog`] entry — relational and `kv:<namespace>` change
//!   records verbatim — to the log (a memcpy, no IO); DDL is logged and
//!   synced before the commits that use it.
//! * **The durability wait is outside every lock.** The group sync
//!   ([`SegmentedWal::sync_to`]) runs after the footprint locks are
//!   released. A failed group surfaces as the retryable
//!   [`TrodError::Storage`] to exactly the commits it covered; those are
//!   *published in memory* with durability unconfirmed, and the next
//!   group retries their bytes — the commit path is never poisoned. With
//!   a WAL attached the synthetic storage-latency model is bypassed.
//! * **Rotation, compaction and checkpoints never run inside the
//!   publication window.** They ride the post-ack path
//!   ([`Database::maybe_checkpoint`], [`Database::gc_before`]) or run on
//!   demand ([`Database::checkpoint`]); their failures are counted in
//!   the WAL stats and never fail a commit.
//! * **Recovery is one walk and one replay loop.**
//!   [`SegmentedWal::open_dir`] yields the newest valid checkpoint plus
//!   the record tail; [`Database::recover`] restores the one and replays
//!   the other through [`Database::apply_entry_with`], preserving every
//!   entry's identity, so the recovered aligned history is the durable
//!   prefix of the original. History below a restored checkpoint reads
//!   as typed truncation, exactly as if GC had truncated it. Damage is a
//!   typed [`StorageError`] or a counted fallback — never a panic, never
//!   silently wrong state.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::cdc::{ChangeOp, ChangeRecord};
use crate::checkpoint::{Checkpoint, CheckpointContributor, CheckpointTable};
use crate::commit::CommitParticipant;
use crate::dir::LogDir;
use crate::error::{DbError, DbResult, StorageError, TrodError, TrodResult};
use crate::latency::{LatencyModel, StorageProfile};
use crate::log::{CommittedTxn, LogStaging, RetentionPolicy, TxnId, TxnLog};
use crate::mvcc::Ts;
use crate::predicate::Predicate;
use crate::registry::ActiveTxnRegistry;
use crate::row::{Key, Row};
use crate::schema::Schema;
use crate::segment::{RecoveredLog, RecoveryReport, SegmentedWal};
use crate::table::{BatchOp, ScanRows, TableStore};
use crate::txn::{CommitInfo, IsolationLevel, Transaction, TxnState, WriteOp};
use crate::wal::{WalOptions, WalRecord};

/// The non-relational half of an environment, as [`Database::recover`]
/// sees it. The defaults are the relational-only boot: nothing extra to
/// restore, namespace DDL only counted, `kv:<namespace>` change records
/// preserved verbatim in the aligned history but installed nowhere. The
/// session layer overrides all three over its key-value store.
pub trait RecoveryParticipant {
    /// Restores this store's share of the boot checkpoint.
    fn restore_checkpoint(&self, _ck: &Checkpoint) -> TrodResult<()> {
        Ok(())
    }

    /// Re-creates a namespace from its DDL record.
    fn create_namespace(&self, _name: &str) -> TrodResult<()> {
        Ok(())
    }

    /// Re-installs one recovered entry verbatim into `db` and this store.
    fn apply_entry(&self, db: &Database, entry: &CommittedTxn) -> TrodResult<()> {
        db.apply_entry_with(entry, &[]).map(|_| ())
    }
}

struct RelationalOnly;
impl RecoveryParticipant for RelationalOnly {}

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
    /// Publication clock: the highest commit timestamp whose transaction
    /// is fully installed. Readers resolve visibility against this; 0
    /// means "nothing committed yet". Invariant: `clock <= ts_alloc`,
    /// equal whenever no commit is mid-flight. Shared (`Arc`) with every
    /// [`TableStore`] so change-log ring eviction can clamp to it.
    clock: Arc<AtomicU64>,
    /// Commit timestamp allocator: the highest timestamp handed to any
    /// commit. Claimed (under the footprint locks) only after a commit
    /// can no longer fail, so every allocated timestamp is published.
    ts_alloc: AtomicU64,
    next_txn_id: AtomicU64,
    log: Mutex<TxnLog>,
    /// Commit-ordered staging shards between the publication window and
    /// `log`: publishers push here (shard-local lock) instead of taking
    /// the log mutex inside the window; every log reader drains published
    /// entries back into `log` through [`Database::synced_log`].
    log_staging: LogStaging,
    /// Retention hook for aligned-history truncation: when set,
    /// [`Database::gc_before`] hands every log entry it is about to drop
    /// to the policy (spill-before-truncate) instead of discarding it.
    /// The `Ts` records [`TxnLog::truncated_below`] at install time — the
    /// floor below which the policy's spill can never reach, because that
    /// history was already truncated without it.
    retention: RwLock<Option<(Arc<dyn RetentionPolicy>, Ts)>>,
    /// Active transactions (txn id -> start_ts); source of the
    /// min-active-start-ts watermark that bounds GC and ring eviction.
    registry: Arc<ActiveTxnRegistry>,
    snapshots: Mutex<BTreeMap<String, Ts>>,
    latency: LatencyModel,
    /// Diagnostics/benchmark escape hatch: force serializable predicate
    /// validation down the O(total versions) full-scan path instead of the
    /// O(Δ) change-log path. Both paths are decision-equivalent (enforced
    /// by a debug assertion and a property test); this flag exists so the
    /// equivalence is observable and the speedup measurable.
    full_scan_validation: AtomicBool,
    /// Diagnostics/benchmark escape hatch: additionally serialize every
    /// commit on `serial_lock`, restoring the pre-sharding global commit
    /// lock as a baseline. Protocol-equivalent to the sharded path (same
    /// decisions, same states); only concurrency differs.
    serial_commit: AtomicBool,
    serial_lock: Mutex<()>,
    /// SSI escape hatch: when `true`, serializable commits take commit
    /// locks on the tables/namespaces they only *read* (the pre-SSI
    /// 2PL-read-locking behaviour) instead of leaving them unlocked and
    /// re-validating the reads inside the publication window.
    /// Decision-equivalent to the lock-free default under any serial
    /// schedule; only concurrency differs.
    read_lock_commit: AtomicBool,
    /// Publication queue: commits whose predecessor timestamp has not
    /// published yet park here (std condvar — waiters must sleep, not
    /// spin, so a preempted predecessor gets the CPU back immediately).
    publish_waiters: AtomicU64,
    publish_mutex: std::sync::Mutex<()>,
    publish_cv: std::sync::Condvar,
    /// The durable log of the aligned history: when attached, every commit
    /// appends its log entry (and DDL its record) inside the publication
    /// window and group-syncs after releasing its locks. `None` = pure
    /// in-memory database (forks, tests, the default).
    wal: RwLock<Option<Arc<SegmentedWal>>>,
    /// Extra store captured into environment checkpoints (the session
    /// layer registers its key-value store here). `None` = relational
    /// state only.
    ckpt_source: RwLock<Option<Arc<dyn CheckpointContributor>>>,
    /// At most one checkpoint capture runs at a time; losers of the CAS
    /// are counted as skips, not queued — the next trigger retries.
    checkpoint_in_progress: AtomicBool,
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
    /// Creates an empty database with the in-memory storage profile.
    pub fn new() -> Self {
        Database::with_profile(StorageProfile::InMemory)
    }

    /// Creates an empty database with the given storage latency profile.
    pub fn with_profile(profile: StorageProfile) -> Self {
        Database {
            inner: Arc::new(DbInner {
                tables: RwLock::new(BTreeMap::new()),
                clock: Arc::new(AtomicU64::new(0)),
                ts_alloc: AtomicU64::new(0),
                next_txn_id: AtomicU64::new(1),
                log: Mutex::new(TxnLog::new()),
                log_staging: LogStaging::new(),
                retention: RwLock::new(None),
                registry: Arc::new(ActiveTxnRegistry::new()),
                snapshots: Mutex::new(BTreeMap::new()),
                latency: LatencyModel::new(profile),
                full_scan_validation: AtomicBool::new(false),
                serial_commit: AtomicBool::new(false),
                serial_lock: Mutex::new(()),
                read_lock_commit: AtomicBool::new(false),
                publish_waiters: AtomicU64::new(0),
                publish_mutex: std::sync::Mutex::new(()),
                publish_cv: std::sync::Condvar::new(),
                wal: RwLock::new(None),
                ckpt_source: RwLock::new(None),
                checkpoint_in_progress: AtomicBool::new(false),
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
    /// the directory at `path` ([`SegmentedWal::open_dir`]) and rebuilds
    /// the database from it ([`Database::recover`]). Damage to durable
    /// bytes yields [`StorageError::Corrupt`], replay inconsistencies
    /// [`StorageError::Recovery`], a regular file at `path` a typed error
    /// that leaves it untouched — never a panic.
    ///
    /// Entries may carry `kv:<namespace>` change records; this
    /// relational-only replay preserves them verbatim in the aligned
    /// history (use `Session::open_durable` in `trod-kv` to also
    /// re-install them into a key-value store).
    pub fn open_durable(
        path: impl AsRef<std::path::Path>,
        opts: WalOptions,
    ) -> DbResult<(Database, RecoveryReport)> {
        Self::recover(SegmentedWal::open_path(path, opts)?, &RelationalOnly)
    }

    /// [`Database::open_durable`] over an arbitrary [`LogDir`].
    pub fn open_durable_in(
        dir: Arc<dyn LogDir>,
        opts: WalOptions,
    ) -> DbResult<(Database, RecoveryReport)> {
        Self::recover(SegmentedWal::open_dir(dir, opts)?, &RelationalOnly)
    }

    /// Rebuilds an environment from one recovery walk — the only loop
    /// that replays [`WalRecord`]s. Restores the boot checkpoint (if
    /// any), replays the record tail in order — DDL rebuilds the
    /// catalog, commit entries re-install verbatim through `store` —
    /// and only then attaches the log, so replayed entries are not
    /// re-appended to it. Adds the replay counts to the walk's report.
    ///
    /// On a checkpoint boot DDL replays *leniently*: re-creating an
    /// object the checkpoint already restored is skipped (sound — the
    /// WAL vocabulary has no drop records, so "already exists" can only
    /// mean "the checkpoint got there first"). Full replay stays strict,
    /// so a genuinely duplicated DDL record is a typed recovery error.
    pub fn recover(
        log: RecoveredLog,
        store: &dyn RecoveryParticipant,
    ) -> DbResult<(Database, RecoveryReport)> {
        let RecoveredLog {
            wal,
            checkpoint,
            records,
            mut report,
        } = log;
        let db = Database::new();
        let recovery_err = |detail: String| DbError::Storage(StorageError::Recovery { detail });
        if let Some(ck) = &checkpoint {
            db.restore_checkpoint(ck)?;
            store
                .restore_checkpoint(ck)
                .map_err(|e| recovery_err(format!("restore checkpoint ts {}: {e}", ck.ts)))?;
        }
        let lenient_ddl = checkpoint.is_some();
        for record in &records {
            match record {
                WalRecord::CreateTable { name, schema } => {
                    if lenient_ddl && db.has_table(name) {
                        continue;
                    }
                    db.create_table(name.clone(), schema.clone())
                        .map_err(|e| recovery_err(format!("create table `{name}`: {e}")))?;
                    report.tables += 1;
                }
                WalRecord::CreateIndex {
                    table,
                    column,
                    ranged,
                } => {
                    if lenient_ddl {
                        let indexed = db
                            .table(table)
                            .map_err(|e| recovery_err(format!("index `{table}.{column}`: {e}")))?;
                        let existing = if *ranged {
                            indexed.range_indexed_columns()
                        } else {
                            indexed.indexed_columns()
                        };
                        if existing.iter().any(|c| c == column) {
                            continue;
                        }
                    }
                    if *ranged {
                        db.create_range_index(table, column)
                    } else {
                        db.create_index(table, column)
                    }
                    .map_err(|e| recovery_err(format!("create index `{table}.{column}`: {e}")))?;
                    report.indexes += 1;
                }
                WalRecord::CreateNamespace { name } => {
                    let restored = checkpoint
                        .as_ref()
                        .is_some_and(|ck| ck.namespaces.iter().any(|ns| ns.name == *name));
                    if restored {
                        continue;
                    }
                    store
                        .create_namespace(name)
                        .map_err(|e| recovery_err(format!("create namespace `{name}`: {e}")))?;
                    report.namespaces.push(name.clone());
                }
                WalRecord::Commit(entry) => {
                    store.apply_entry(&db, entry).map_err(|e| {
                        recovery_err(format!("replay commit ts {}: {e}", entry.commit_ts))
                    })?;
                    report.commits += 1;
                    report.kv_writes_replayed += entry
                        .changes
                        .iter()
                        .filter(|c| crate::cdc::is_kv_table(&c.table))
                        .count();
                }
            }
        }
        db.set_wal(wal);
        Ok((db, report))
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

    /// Registers the extra store captured into environment checkpoints
    /// (the session layer registers its key-value store so checkpoints
    /// cover the whole polyglot environment). Pass `None` to capture
    /// relational state only.
    pub fn set_checkpoint_source(&self, source: Option<Arc<dyn CheckpointContributor>>) {
        *self.inner.ckpt_source.write() = source;
    }

    /// Captures an MVCC-consistent [`Checkpoint`] of the environment at
    /// the current *published* commit timestamp: every table's schema,
    /// index columns and rows visible at that timestamp, plus whatever
    /// the registered [`CheckpointContributor`] holds. Does not write
    /// anything — [`Database::checkpoint`] does capture + durable write.
    pub fn capture_checkpoint(&self) -> Checkpoint {
        // The published clock: every commit at or below it is fully
        // installed, every one above it invisible to the time-travel
        // reads below — the snapshot is consistent without any lock.
        let ts = self.current_ts();
        let tables = self.inner.tables.read();
        let mut captured = Vec::with_capacity(tables.len());
        for (name, store) in tables.iter() {
            captured.push(CheckpointTable {
                name: name.clone(),
                schema: store.schema().clone(),
                hash_indexes: store.indexed_columns(),
                range_indexes: store.range_indexed_columns(),
                rows: store
                    .materialize_at(ts)
                    .into_iter()
                    .map(|(key, row)| (key, (*row).clone()))
                    .collect(),
            });
        }
        drop(tables);
        let namespaces = match self.inner.ckpt_source.read().as_ref() {
            Some(source) => source.capture_kv(ts),
            None => Vec::new(),
        };
        Checkpoint {
            ts,
            next_txn_id: self.inner.next_txn_id.load(Ordering::SeqCst),
            tables: captured,
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
    /// database: re-creates every table, installs its rows at the
    /// checkpoint timestamp, builds the indexes (after the installs, so
    /// they backfill), advances the clock and transaction-id allocator,
    /// and raises the log truncation floor to the checkpoint timestamp —
    /// history below the checkpoint reads as typed truncation, exactly
    /// as if GC had truncated it. Key-value namespaces in the checkpoint
    /// are ignored here (relational boot); the session layer restores
    /// them into its own store.
    pub fn restore_checkpoint(&self, ck: &Checkpoint) -> DbResult<()> {
        let ts = ck.ts.max(1);
        for table in &ck.tables {
            self.create_table(table.name.clone(), table.schema.clone())?;
            let store = self.table(&table.name)?;
            store.install_snapshot(
                table
                    .rows
                    .iter()
                    .map(|(key, row)| (key.clone(), Arc::new(row.clone()))),
                ts,
            );
            for column in &table.hash_indexes {
                store.create_index(column)?;
            }
            for column in &table.range_indexes {
                store.create_range_index(column)?;
            }
        }
        // Jump the clocks directly (never via `ensure_ts_at_least`, which
        // publishes every intermediate tick — O(ts) work).
        self.inner.clock.store(ck.ts, Ordering::SeqCst);
        self.inner.ts_alloc.store(ck.ts, Ordering::SeqCst);
        self.inner
            .next_txn_id
            .fetch_max(ck.next_txn_id, Ordering::SeqCst);
        self.inner.log.lock().truncate_before(ck.ts);
        Ok(())
    }

    /// Forces every commit to additionally serialize on a single global
    /// lock (`true`), restoring the pre-sharding commit protocol as a
    /// measurable baseline, or restores fully sharded per-table commit
    /// locking (`false`, the default). The two modes accept and reject
    /// exactly the same transactions; only their concurrency differs.
    /// Safe to toggle at any time (serial commits still take the
    /// per-table locks, so modes interoperate).
    pub fn set_serial_commit(&self, force: bool) {
        self.inner.serial_commit.store(force, Ordering::SeqCst);
    }

    /// True when commits are forced onto the single global lock.
    pub fn serial_commit(&self) -> bool {
        self.inner.serial_commit.load(Ordering::SeqCst)
    }

    /// Forces serializable predicate validation onto the full-scan path
    /// (`true`) or restores the default change-log path (`false`). The two
    /// paths accept and reject exactly the same transactions; only their
    /// cost differs. Used by benchmarks and equivalence tests.
    pub fn set_full_scan_validation(&self, force: bool) {
        self.inner
            .full_scan_validation
            .store(force, Ordering::SeqCst);
    }

    /// True when the full-scan validation path is forced.
    pub fn full_scan_validation(&self) -> bool {
        self.inner.full_scan_validation.load(Ordering::SeqCst)
    }

    /// Forces serializable commits back onto 2PL read locking (`true`):
    /// commit locks are acquired for every table/namespace the
    /// transaction read, the pre-SSI baseline the `read_scaling`
    /// benchmark measures against. `false` (the default) keeps readers
    /// lock-free: serializable reads are validated optimistically before
    /// the timestamp is claimed and re-checked inside the publication
    /// window (SSI — see the commit-protocol docs above). Both modes
    /// accept and reject exactly the same transactions under any serial
    /// schedule; under concurrency SSI turns lock waits into retryable
    /// serialization aborts. Safe to toggle at any time (modes
    /// interoperate: the in-window re-check is sound whether or not
    /// concurrent commits held read locks).
    pub fn set_read_lock_commit(&self, force: bool) {
        self.inner.read_lock_commit.store(force, Ordering::SeqCst);
    }

    /// True when serializable commits acquire read locks (SSI disabled).
    pub fn read_lock_commit(&self) -> bool {
        self.inner.read_lock_commit.load(Ordering::SeqCst)
    }

    /// The shared publication clock: the highest *published* commit
    /// timestamp, as an `Arc` so participant stores can bind it.
    /// A store holding this clock can install versions stamped with a
    /// claimed (higher) commit timestamp *before* publication and resolve
    /// every read against the published prefix only — clock-aware
    /// versioning, the contract behind moving participant installs out of
    /// the ordered publication window (see
    /// [`CommitParticipant::install`]).
    pub fn publication_clock(&self) -> Arc<AtomicU64> {
        self.inner.clock.clone()
    }

    /// The storage latency model in effect.
    pub(crate) fn latency(&self) -> &LatencyModel {
        &self.inner.latency
    }

    /// The configured storage profile.
    pub fn profile(&self) -> StorageProfile {
        self.inner.latency.profile()
    }

    // ------------------------------------------------------------------
    // Catalog
    // ------------------------------------------------------------------

    /// Creates a table. Names starting with `kv:` are rejected: that
    /// prefix is reserved for key-value participant resources in the
    /// commit coordinator's lock namespace and the aligned log (a table
    /// with such a name would silently alias a namespace's commit lock).
    pub fn create_table(&self, name: impl Into<String>, schema: Schema) -> DbResult<()> {
        let name = name.into();
        if crate::cdc::is_kv_table(&name) {
            return Err(DbError::Invalid(format!(
                "table name `{name}` uses the reserved `kv:` resource prefix"
            )));
        }
        let mut tables = self.inner.tables.write();
        if tables.contains_key(&name) {
            return Err(DbError::TableExists(name));
        }
        let store = TableStore::with_registry(
            name.clone(),
            schema.clone(),
            self.inner.registry.clone(),
            Some(self.inner.clock.clone()),
        );
        tables.insert(name.clone(), Arc::new(store));
        drop(tables);
        self.log_ddl(WalRecord::CreateTable { name, schema })
    }

    /// Drops a table and its history.
    pub fn drop_table(&self, name: &str) -> DbResult<()> {
        let mut tables = self.inner.tables.write();
        tables
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Creates a secondary hash index on `table.column` (serves equality
    /// and `IN (...)` probes).
    pub fn create_index(&self, table: &str, column: &str) -> DbResult<()> {
        self.table(table)?.create_index(column)?;
        self.log_ddl(WalRecord::CreateIndex {
            table: table.to_string(),
            column: column.to_string(),
            ranged: false,
        })
    }

    /// Creates an ordered range index on `table.column` (serves bounded
    /// range probes — and equality — through the scan planner; see the
    /// read-path docs above).
    pub fn create_range_index(&self, table: &str, column: &str) -> DbResult<()> {
        self.table(table)?.create_range_index(column)?;
        self.log_ddl(WalRecord::CreateIndex {
            table: table.to_string(),
            column: column.to_string(),
            ranged: true,
        })
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.inner.tables.read().keys().cloned().collect()
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
    /// [`ChangeLog`](crate::changelog::ChangeLog)).
    pub fn table(&self, name: &str) -> DbResult<Arc<TableStore>> {
        self.inner
            .tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
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
            .register_with(id, || self.inner.clock.load(Ordering::SeqCst));
        Transaction::new(self.clone(), id, start_ts, isolation)
    }

    /// The current commit timestamp: the latest *published* commit.
    /// Commits mid-install at higher allocated timestamps are invisible
    /// until they publish (see the module docs).
    pub fn current_ts(&self) -> Ts {
        self.inner.clock.load(Ordering::SeqCst)
    }

    /// The active-transaction registry (used by transaction handles to
    /// deregister on drop/abort).
    pub(crate) fn registry(&self) -> &ActiveTxnRegistry {
        &self.inner.registry
    }

    /// The minimum snapshot timestamp over all active transactions, or
    /// `None` when no transaction is active. GC and change-log eviction
    /// never reclaim history at or above this watermark.
    pub fn min_active_start_ts(&self) -> Option<Ts> {
        self.inner.registry.min_active_start_ts()
    }

    /// Number of active (begun, unfinished) transactions.
    pub fn active_txn_count(&self) -> usize {
        self.inner.registry.active_count()
    }

    /// Sharded commit protocol, zero-participant case. Called from
    /// [`Transaction::commit`].
    pub(crate) fn commit_txn(&self, state: TxnState) -> DbResult<CommitInfo> {
        self.commit_coordinated(state, &[]).map_err(|e| match e {
            TrodError::Relational(e) => e,
            TrodError::Storage(e) => DbError::Storage(e),
            // Unreachable without participants; keep the error faithful
            // rather than panicking.
            TrodError::KeyValue(e) => DbError::Invalid(format!("participant error: {e}")),
        })
    }

    /// Sharded, participant-aware commit protocol (see the module docs):
    /// merge the relational footprint with every participant's resources,
    /// lock the union in sorted name order, validate all stores, run
    /// every fallible pre-apply check, then allocate the commit timestamp,
    /// install, and publish in timestamp order — participant installs
    /// happen inside the publication window and land in the same log
    /// entry. Called from [`Transaction::commit_with_participants`].
    pub(crate) fn commit_coordinated(
        &self,
        state: TxnState,
        participants: &[&dyn CommitParticipant],
    ) -> TrodResult<CommitInfo> {
        // The transaction stays registered (pinning GC at its snapshot)
        // through validation and install, whatever the outcome.
        let _active = self.inner.registry.deregister_on_drop(state.id);

        if state.is_read_only() && !participants.iter().any(|p| p.has_writes()) {
            // Read-only on every store: no validation needed under
            // snapshot reads and no log entry; serialize at start_ts.
            return Ok(CommitInfo {
                txn_id: state.id,
                start_ts: state.start_ts,
                commit_ts: state.start_ts,
                changes: Vec::new(),
            });
        }

        // Phase 1 — resolve the relational footprint. Written tables
        // always participate; under serializable isolation the read and
        // scanned tables do too, so their validated state cannot change
        // between validation and publication.
        let mut footprint: BTreeMap<&str, Arc<TableStore>> = BTreeMap::new();
        for name in state.writes.keys() {
            footprint.insert(name.as_str(), self.table(name)?);
        }
        if matches!(state.isolation, IsolationLevel::Serializable) {
            for name in state
                .read_set
                .iter()
                .map(|(t, _)| t)
                .chain(state.scan_set.iter().map(|(t, _)| t))
            {
                if !footprint.contains_key(name.as_str()) {
                    footprint.insert(name.as_str(), self.table(name)?);
                }
            }
        }

        // SSI (the default for serializable commits): read-only footprint
        // resources are *not* commit-locked. Their reads are validated
        // optimistically here (unlocked — a concurrent writer may slip in
        // after the check) and re-validated exactly, inside the ordered
        // publication window, against the bounded span
        // `(start_ts, commit_ts)` — see `revalidate_reads_in_window`.
        // `set_read_lock_commit(true)` restores the 2PL baseline (readers
        // take commit locks, no in-window re-check), and the serial-commit
        // hatch implies it so that escape hatch keeps meaning "the old
        // protocol, exactly".
        let ssi = matches!(state.isolation, IsolationLevel::Serializable)
            && !self.read_lock_commit()
            && !self.serial_commit();
        let locks_reads = !ssi;

        // Merge the participants' resource locks with the tables' commit
        // locks into one deterministic global order (sorted by resource
        // name), making mixed commits deadlock-free; disjoint footprints
        // never contend. Relational-only commits skip the merge entirely
        // and lock straight out of the (already-sorted) footprint map, so
        // the common path allocates no resource names. Under SSI only
        // written tables are locked; read-only footprint entries stay in
        // the map (validation needs their stores) but contribute no lock.
        let resources: Vec<(String, Arc<Mutex<()>>)> = if participants.is_empty() {
            Vec::new()
        } else {
            let mut resources: Vec<(String, Arc<Mutex<()>>)> = footprint
                .iter()
                .filter(|(name, _)| locks_reads || state.writes.contains_key(**name))
                .map(|(name, store)| (name.to_string(), store.commit_lock().clone()))
                .collect();
            for participant in participants {
                for resource in participant.resources() {
                    if !resources.iter().any(|(name, _)| *name == resource) {
                        let lock = participant.resource_lock(&resource);
                        resources.push((resource, lock));
                    }
                }
            }
            resources.sort_by(|a, b| a.0.cmp(&b.0));
            resources
        };
        let _serial = self.serial_commit().then(|| self.inner.serial_lock.lock());
        let _guards: Vec<_> = if participants.is_empty() {
            footprint
                .iter()
                .filter(|(name, _)| locks_reads || state.writes.contains_key(**name))
                .map(|(_, store)| store.commit_lock().lock())
                .collect()
        } else {
            resources.iter().map(|(_, lock)| lock.lock()).collect()
        };

        // Phase 2 — validate every store against its now-stable
        // footprint. Every earlier commit touching these resources
        // published before releasing its locks, so the published clock
        // covers them all. No store has installed anything yet, so a veto
        // from any of them aborts side-effect-free everywhere.
        // Participants also get the lower bound of the timestamp this
        // commit would claim, so stores with per-resource timestamp
        // monotonicity can veto *here* (fallibly) instead of failing in
        // the publication window (see the trait docs).
        self.validate(&state, &footprint, ssi)?;
        let min_commit_ts = self.inner.ts_alloc.load(Ordering::SeqCst) + 1;
        for participant in participants {
            participant.validate(min_commit_ts)?;
        }

        // Phase 3 — remaining fallible pre-apply checks, all BEFORE the
        // first install: re-check insert duplicates against the latest
        // published state (a concurrent committer may have inserted the
        // key under weaker isolation levels). Nothing past this phase can
        // fail, so an abort never leaves partially installed versions —
        // which would also poison the tables' change logs with entries
        // for a transaction that never committed.
        let current_ts = self.inner.clock.load(Ordering::SeqCst);
        for (table_name, writes) in &state.writes {
            let store = &footprint[table_name.as_str()];
            for (key, op) in writes {
                if matches!(op, WriteOp::Insert(_)) && store.exists_at(key, current_ts) {
                    return Err(DbError::DuplicateKey {
                        table: table_name.clone(),
                        key: key.to_string(),
                    }
                    .into());
                }
            }
        }

        // Which path publishes this commit? Under SSI, a commit whose
        // read set touches any table it did not lock (did not write) must
        // re-validate those reads *inside* the publication window, where
        // the span `(start_ts, commit_ts)` is exact: every predecessor is
        // fully published and every successor is excluded by timestamp.
        // Participants flag the same condition themselves (lock-free read
        // namespaces). Commits whose reads were all locked — or all on
        // tables they wrote, whose locks they hold anyway — skip the
        // in-window re-check entirely and keep the narrow window.
        let unlocked_reads = ssi
            && state
                .read_set
                .iter()
                .map(|(t, _)| t)
                .chain(state.scan_set.iter().map(|(t, _)| t))
                .any(|t| !state.writes.contains_key(t));
        let late_validation = unlocked_reads || participants.iter().any(|p| p.needs_revalidation());

        // Phase 4 — claim the commit timestamp (monotone per table
        // because the written tables' locks are held) and install. The
        // new versions are stamped with `commit_ts` and stay invisible
        // until the publication clock reaches it, so installing *before*
        // our publication turn is safe — that is what lets the ordered
        // window shrink to the WAL append + clock bump on the fast path.
        //
        // On the late-validation path the order inverts: wait for the
        // publication turn first, re-validate the unlocked reads exactly,
        // and only then install. A validation failure publishes the
        // claimed timestamp as an empty tick (nothing was installed
        // anywhere) and aborts retryably.
        let commit_ts = self.inner.ts_alloc.fetch_add(1, Ordering::SeqCst) + 1;
        if late_validation {
            self.wait_for_publication_turn(commit_ts);
            let recheck = (|| -> TrodResult<()> {
                self.revalidate_reads_in_window(&state, &footprint, commit_ts)?;
                for participant in participants {
                    if participant.needs_revalidation() {
                        participant.revalidate_reads(commit_ts)?;
                    }
                }
                Ok(())
            })();
            if let Err(e) = recheck {
                self.publish_tick(commit_ts);
                return Err(e);
            }
        }
        let mut changes = Vec::new();
        for (table_name, writes) in &state.writes {
            let store = &footprint[table_name.as_str()];
            let ops: Vec<(Key, Option<Arc<Row>>)> = writes
                .iter()
                .map(|(key, op)| {
                    let after = match op {
                        WriteOp::Insert(after) | WriteOp::Update { after, .. } => {
                            Some(after.clone())
                        }
                        WriteOp::Delete { .. } => None,
                    };
                    (key.clone(), after)
                })
                .collect();
            // One batched pass per table: rows, change log, and every
            // secondary/range index each lock once per commit instead of
            // once per write (see `TableStore::apply_batch`).
            let befores = store.apply_batch(&ops, commit_ts);
            for ((key, op), before) in writes.iter().zip(befores) {
                match op {
                    WriteOp::Insert(after) => {
                        changes.push(ChangeRecord::insert(
                            table_name.clone(),
                            key.clone(),
                            after.clone(),
                        ));
                    }
                    WriteOp::Update { after, .. } => {
                        let rec = match before {
                            Some(before) => ChangeRecord::update(
                                table_name.clone(),
                                key.clone(),
                                before,
                                after.clone(),
                            ),
                            // The row vanished concurrently (only possible
                            // under weak isolation); record as an insert.
                            None => {
                                ChangeRecord::insert(table_name.clone(), key.clone(), after.clone())
                            }
                        };
                        changes.push(rec);
                    }
                    WriteOp::Delete { .. } => {
                        if let Some(before) = before {
                            changes.push(ChangeRecord::delete(
                                table_name.clone(),
                                key.clone(),
                                before,
                            ));
                        }
                    }
                }
            }
        }
        // Participant installs are clock-aware too (see the trait docs):
        // versions stamped `commit_ts` stay invisible until publication,
        // so on the fast path these run *before* the window as well.
        for participant in participants {
            changes.extend(participant.install(commit_ts));
        }

        // Phase 5 — publish in timestamp order; the written-table locks
        // are held until after publication. With installs hoisted above,
        // the ordered window now covers only the WAL buffer append (byte
        // order == commit order) and the clock bump — plus, on the
        // late-validation path, the in-window re-check and installs. The
        // simulated storage latency is charged after publishing (it
        // models the durability write that delays releasing the
        // resources, not visibility), so disjoint commits overlap their
        // storage latency.
        if !late_validation {
            self.wait_for_publication_turn(commit_ts);
        }
        let entry = CommittedTxn {
            txn_id: state.id,
            start_ts: state.start_ts,
            commit_ts,
            changes: changes.clone(),
        };
        // Durability (module docs): append the entry inside the window —
        // a memcpy into the WAL buffer, so WAL byte order == commit
        // order — and defer the (group) fsync until after the footprint
        // locks are released. Even a WAL error publishes the entry
        // (versions are installed; the timestamp sequence must stay
        // dense); the error reports durability as unconfirmed.
        let wal = self.wal();
        let appended = wal.as_ref().map(|w| w.append_entry(&entry));
        self.finish_publication(entry);
        if wal.is_none() {
            // The synthetic latency model stands in for the durability
            // write only when there is no real one.
            self.inner.latency.on_commit();
        }
        drop(_guards);
        drop(_serial);
        if let (Some(w), Some(appended)) = (&wal, appended) {
            w.sync_to(appended?)?;
        }
        // Post-ack, locks released, durability confirmed: the cheapest
        // safe point to take a periodic environment checkpoint.
        self.maybe_checkpoint();

        Ok(CommitInfo {
            txn_id: state.id,
            start_ts: state.start_ts,
            commit_ts,
            changes,
        })
    }

    /// Advances the timestamp allocator (and the publication clock) to at
    /// least `target` by claiming and publishing empty ticks — no log
    /// entries, no installs, just clock movement.
    ///
    /// This exists for deployments that mix coordinated commits with
    /// *standalone* store-level commits (e.g. `trod-kv`'s single-store
    /// transactions), which stamp versions from their own counter: if a
    /// standalone commit pushes a resource's timestamp past this
    /// database's allocator, a coordinated commit on that resource would
    /// be vetoed at validation until the allocator catches up. Calling
    /// this with the foreign timestamp restores liveness; the veto then
    /// only fires on a mid-commit race and is retryable.
    pub fn ensure_ts_at_least(&self, target: Ts) {
        while self.inner.ts_alloc.load(Ordering::SeqCst) < target {
            // Claim the next tick (keeping the sequence dense — ordered
            // publication waits on every predecessor) and publish it
            // empty.
            let tick = self.inner.ts_alloc.fetch_add(1, Ordering::SeqCst) + 1;
            self.wait_for_publication_turn(tick);
            self.publish_tick(tick);
        }
    }

    /// Waits until the publication clock reaches `commit_ts - 1`. The
    /// wait is bounded: predecessors hold all their locks already and
    /// only have install + publish work left, so they never block on this
    /// commit. Exactly one thread — the one whose timestamp succeeds the
    /// clock — can be past the wait at a time, so everything between this
    /// call and [`Self::finish_publication`] runs in an exclusive,
    /// timestamp-ordered window without extra locking.
    fn wait_for_publication_turn(&self, commit_ts: Ts) {
        let clock = &self.inner.clock;
        if clock.load(Ordering::SeqCst) != commit_ts - 1 {
            // Brief spin for the common case (predecessor mid-publish),
            // then a few yields, then park. The yields matter on small
            // machines: with few cores the predecessor often *needs this
            // CPU* to publish, so spinning delays the very store being
            // waited on, and going straight to the condvar makes every
            // cheap commit pay a futex park/wake round-trip — a measured
            // ~25× throughput cliff at two committers on one core.
            // Yielding hands the predecessor the quantum and usually
            // makes the next check succeed without parking; it is
            // bounded, so a genuinely slow predecessor (mid-fsync) still
            // sends this thread to the condvar instead of burning CPU.
            let mut spins = 0u32;
            while clock.load(Ordering::SeqCst) != commit_ts - 1 && spins < 128 {
                spins += 1;
                std::hint::spin_loop();
            }
            let mut yields = 0u32;
            while clock.load(Ordering::SeqCst) != commit_ts - 1 && yields < 8 {
                yields += 1;
                std::thread::yield_now();
            }
            if clock.load(Ordering::SeqCst) != commit_ts - 1 {
                // SeqCst counter + publisher-side check prevents a missed
                // wakeup (see the publisher below).
                self.inner.publish_waiters.fetch_add(1, Ordering::SeqCst);
                let mut guard = self.inner.publish_mutex.lock().expect("publish mutex");
                while clock.load(Ordering::SeqCst) != commit_ts - 1 {
                    guard = self.inner.publish_cv.wait(guard).expect("publish cv");
                }
                drop(guard);
                self.inner.publish_waiters.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    /// Stages the log entry and bumps the clock; must only be called by
    /// the thread whose [`Self::wait_for_publication_turn`] has returned
    /// for `entry.commit_ts`. The entry goes into the sharded staging
    /// buffers, *not* the log mutex — pushing before the clock store is
    /// the happens-before edge [`Self::synced_log`] drains against, and
    /// it takes the single log mutex off the per-commit publication path.
    fn finish_publication(&self, entry: CommittedTxn) {
        let commit_ts = entry.commit_ts;
        self.inner.log_staging.push(entry);
        self.publish_tick(commit_ts);
    }

    /// Bumps the publication clock to `commit_ts` and wakes any committer
    /// parked on its publication turn. Publishing a timestamp with no
    /// staged entry is an *empty tick* — used by [`Self::ensure_ts_at_least`]
    /// and by in-window validation failures, where a timestamp was
    /// claimed but nothing was installed or logged; the timestamp
    /// sequence must stay dense for ordered publication to progress.
    fn publish_tick(&self, commit_ts: Ts) {
        self.inner.clock.store(commit_ts, Ordering::SeqCst);
        if self.inner.publish_waiters.load(Ordering::SeqCst) > 0 {
            // Taking the mutex orders this notify after any in-flight
            // waiter's check-then-wait, so the wakeup cannot be missed.
            let _guard = self.inner.publish_mutex.lock().expect("publish mutex");
            self.inner.publish_cv.notify_all();
        }
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
        let published = self.inner.clock.load(Ordering::SeqCst);
        let mut log = self.inner.log.lock();
        for entry in self.inner.log_staging.drain_up_to(published) {
            log.append(entry);
        }
        log
    }

    /// Validation runs against `footprint` — the already-resolved, locked
    /// stores of every table the commit touches — so it never re-takes
    /// the global catalog lock on the hot path.
    fn validate(
        &self,
        state: &TxnState,
        footprint: &BTreeMap<&str, Arc<TableStore>>,
        ssi: bool,
    ) -> DbResult<()> {
        match state.isolation {
            IsolationLevel::ReadCommitted => Ok(()),
            IsolationLevel::SnapshotIsolation => self.validate_writes(state, footprint),
            IsolationLevel::Serializable => {
                self.validate_writes(state, footprint)?;
                self.validate_reads(state, footprint, ssi)
            }
        }
    }

    /// First-committer-wins: any of our write keys modified since we began
    /// aborts the transaction.
    fn validate_writes(
        &self,
        state: &TxnState,
        footprint: &BTreeMap<&str, Arc<TableStore>>,
    ) -> DbResult<()> {
        for (table_name, writes) in &state.writes {
            let store = &footprint[table_name.as_str()];
            for key in writes.keys() {
                if store.key_modified_after(key, state.start_ts) {
                    return Err(DbError::WriteConflict {
                        table: table_name.clone(),
                        key: key.to_string(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Serializable validation: every point read and every predicate scan
    /// must still return the same rows it returned at `start_ts`.
    ///
    /// Point reads are O(1) per key (only a chain's newest version can
    /// postdate `start_ts`). Predicate scans are validated against the
    /// per-table change log — O(Δ) in the rows committed since the
    /// transaction began, independent of table size — falling back to the
    /// full version scan only when the log was truncated inside the
    /// window (see [`crate::changelog`]).
    ///
    /// Under `ssi`, tables the transaction did not write are *unlocked*
    /// here, so this pass is optimistic: it catches conflicts that have
    /// already landed (cheap early abort, and the single-threaded
    /// decision is identical to the locked check), but a racing writer
    /// can still install after it runs. The in-window re-check
    /// ([`Self::revalidate_reads_in_window`]) is the sound one.
    fn validate_reads(
        &self,
        state: &TxnState,
        footprint: &BTreeMap<&str, Arc<TableStore>>,
        ssi: bool,
    ) -> DbResult<()> {
        for (table_name, key) in &state.read_set {
            let store = &footprint[table_name.as_str()];
            if store.key_modified_after(key, state.start_ts) {
                return Err(DbError::SerializationFailure {
                    table: table_name.clone(),
                    detail: format!("row {key} changed after transaction start"),
                });
            }
        }
        let force_full_scan = self.full_scan_validation();
        for (table_name, pred) in &state.scan_set {
            let store = &footprint[table_name.as_str()];
            let conflict = if ssi && !state.writes.contains_key(table_name) {
                // Unlocked table: the debug full-scan oracle would race
                // with concurrent installers, so run the unbounded check
                // without it (`upto = MAX` disables the oracle).
                store.predicate_conflict_in(pred, state.start_ts, Ts::MAX, force_full_scan)?
            } else {
                store.predicate_conflict_after(pred, state.start_ts, force_full_scan)?
            };
            if let Some(key) = conflict {
                return Err(DbError::SerializationFailure {
                    table: table_name.clone(),
                    detail: format!("predicate [{pred}] affected by concurrent write to {key}"),
                });
            }
        }
        Ok(())
    }

    /// The SSI in-window read re-check: runs at the commit's publication
    /// turn, so every commit with a smaller timestamp is fully published
    /// and every larger one is excluded by the `upto = commit_ts` bound —
    /// the span `(start_ts, commit_ts)` is exact, not racy. Only tables
    /// the transaction did not write are checked (written tables' locks
    /// were held through the optimistic pass, which was therefore already
    /// sound for them). An error here is a retryable serialization
    /// failure; the caller publishes the claimed timestamp as an empty
    /// tick since nothing has been installed.
    fn revalidate_reads_in_window(
        &self,
        state: &TxnState,
        footprint: &BTreeMap<&str, Arc<TableStore>>,
        commit_ts: Ts,
    ) -> DbResult<()> {
        for (table_name, key) in &state.read_set {
            if state.writes.contains_key(table_name) {
                continue;
            }
            let store = &footprint[table_name.as_str()];
            if store.key_modified_in(key, state.start_ts, commit_ts) {
                return Err(DbError::SerializationFailure {
                    table: table_name.clone(),
                    detail: format!("row {key} changed after transaction start"),
                });
            }
        }
        let force_full_scan = self.full_scan_validation();
        for (table_name, pred) in &state.scan_set {
            if state.writes.contains_key(table_name) {
                continue;
            }
            let store = &footprint[table_name.as_str()];
            if let Some(key) =
                store.predicate_conflict_in(pred, state.start_ts, commit_ts, force_full_scan)?
            {
                return Err(DbError::SerializationFailure {
                    table: table_name.clone(),
                    detail: format!("predicate [{pred}] affected by concurrent write to {key}"),
                });
            }
        }
        Ok(())
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

    /// Reads a row as of an earlier commit timestamp (time travel).
    pub fn get_as_of(&self, table: &str, key: &Key, ts: Ts) -> DbResult<Option<Arc<Row>>> {
        Ok(self.table(table)?.get_at(key, ts))
    }

    /// Scans a table as of an earlier commit timestamp (time travel).
    pub fn scan_as_of(
        &self,
        table: &str,
        pred: &Predicate,
        ts: Ts,
    ) -> DbResult<Vec<(Key, Arc<Row>)>> {
        self.table(table)?.scan_at(pred, ts)
    }

    /// Top-k scan through a value-ordered range index: rows matching
    /// `pred` in `order_col` order (ties by primary key), truncated to
    /// `limit` — O(k) in the result size instead of scan + sort.
    /// Returns `Ok(None)` when the table cannot serve the order from an
    /// index (no range index on the column, or the column is nullable
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
        self.table(table)?
            .scan_ordered_limit(pred, order_col, descending, limit, ts)
    }

    // ------------------------------------------------------------------
    // Transaction log
    // ------------------------------------------------------------------

    /// All committed transactions, in commit order.
    pub fn log_entries(&self) -> Vec<CommittedTxn> {
        self.synced_log().entries().to_vec()
    }

    /// Committed transactions with commit timestamp greater than `ts`.
    pub fn log_since(&self, ts: Ts) -> Vec<CommittedTxn> {
        self.synced_log().since(ts)
    }

    /// Committed transactions with commit timestamp in `(after, up_to]`.
    pub fn log_between(&self, after: Ts, up_to: Ts) -> Vec<CommittedTxn> {
        self.synced_log().between(after, up_to)
    }

    /// The log entry for a given transaction id.
    pub fn log_entry_for(&self, txn_id: TxnId) -> Option<CommittedTxn> {
        self.synced_log().entry_for(txn_id).cloned()
    }

    /// Number of committed (writing) transactions.
    pub fn log_len(&self) -> usize {
        self.synced_log().len()
    }

    /// The highest horizon [`Database::gc_before`] has truncated at: log
    /// entries *and row versions* at or below this timestamp are gone
    /// (possibly spilled to a [`RetentionPolicy`]), so [`Database::fork_at`]
    /// and time-travel reads below it cannot be answered from live state —
    /// callers must reconstruct from spilled aligned history instead (see
    /// the module docs). 0 if GC never truncated.
    pub fn log_truncated_below(&self) -> Ts {
        self.synced_log().truncated_below()
    }

    /// Installs (or clears) the aligned-history retention policy: every
    /// subsequent [`Database::gc_before`] spills the log entries it
    /// truncates into the policy before dropping them, so the aligned
    /// history stays reachable for debugging beyond the GC horizon. The
    /// truncation floor at install time is recorded as the policy's
    /// coverage floor ([`Database::retention_coverage_floor`]) — install
    /// before the first GC for gap-free (floor 0) coverage.
    pub fn set_retention_policy(&self, policy: Option<Arc<dyn RetentionPolicy>>) {
        // Read the floor under the retention write lock so a concurrent
        // gc_before cannot truncate between the read and the install.
        let mut slot = self.inner.retention.write();
        *slot = policy.map(|p| {
            let floor = match slot.as_ref() {
                // Re-installing the same policy is idempotent: its spill
                // has covered everything since the original install, so
                // the original coverage floor still holds — resetting it
                // to the current (higher) floor would silently disown a
                // complete spill.
                Some((old, old_floor)) if std::ptr::addr_eq(Arc::as_ptr(old), Arc::as_ptr(&p)) => {
                    *old_floor
                }
                _ => self.synced_log().truncated_below(),
            };
            (p, floor)
        });
    }

    /// True if a retention policy is installed.
    pub fn has_retention_policy(&self) -> bool {
        self.inner.retention.read().is_some()
    }

    /// The truncation floor at the moment the current retention policy
    /// was installed, or `None` without a policy. History at or below
    /// this floor was truncated *before* retention existed and is
    /// unrecoverable; the policy's spill is complete from the first
    /// commit exactly when this is 0 — the condition the debugger checks
    /// before reconstructing a fork from spilled history.
    pub fn retention_coverage_floor(&self) -> Option<Ts> {
        self.inner
            .retention
            .read()
            .as_ref()
            .map(|(_, floor)| *floor)
    }

    /// The installed retention policy together with its coverage floor
    /// (one consistent read). The debugger uses the policy handle to
    /// verify *by identity* that the spill it plans to reconstruct a fork
    /// from is the store this database actually spills into — a foreign
    /// policy's coverage proves nothing about the debugger's own spill.
    pub fn retention_policy(&self) -> Option<(Arc<dyn RetentionPolicy>, Ts)> {
        self.inner
            .retention
            .read()
            .as_ref()
            .map(|(p, floor)| (p.clone(), *floor))
    }

    // ------------------------------------------------------------------
    // Snapshots, forking, replay support
    // ------------------------------------------------------------------

    /// Registers a named snapshot at the current commit timestamp and
    /// returns that timestamp.
    pub fn snapshot(&self, name: impl Into<String>) -> DbResult<Ts> {
        let name = name.into();
        let ts = self.current_ts();
        let mut snaps = self.inner.snapshots.lock();
        if snaps.contains_key(&name) {
            return Err(DbError::SnapshotExists(name));
        }
        snaps.insert(name, ts);
        Ok(ts)
    }

    /// Looks up a named snapshot's timestamp.
    pub fn snapshot_ts(&self, name: &str) -> DbResult<Ts> {
        self.inner
            .snapshots
            .lock()
            .get(name)
            .copied()
            .ok_or_else(|| DbError::NoSuchSnapshot(name.to_string()))
    }

    /// Names of registered snapshots.
    pub fn snapshot_names(&self) -> Vec<String> {
        self.inner.snapshots.lock().keys().cloned().collect()
    }

    /// Creates a new, independent database containing the state visible at
    /// `ts` (the "development database" of the paper's Figure 2). The fork
    /// keeps the same schemas and indexes; its clock starts at `ts` so the
    /// relative order of subsequent commits is comparable with the origin.
    pub fn fork_at(&self, ts: Ts) -> DbResult<Database> {
        let fork = Database::with_profile(self.profile());
        let tables = self.inner.tables.read();
        for (name, store) in tables.iter() {
            fork.create_table(name.clone(), store.schema().clone())?;
            let fork_store = fork.table(name)?;
            for (key, row) in store.materialize_at(ts) {
                fork_store.install(&key, row, ts.max(1));
            }
            for column in store.indexed_columns() {
                fork_store.create_index(&column)?;
            }
            for column in store.range_indexed_columns() {
                fork_store.create_range_index(&column)?;
            }
        }
        fork.inner.clock.store(ts.max(1), Ordering::SeqCst);
        fork.inner.ts_alloc.store(ts.max(1), Ordering::SeqCst);
        Ok(fork)
    }

    /// Creates a new, empty database with the same schemas and indexes.
    pub fn fork_empty(&self) -> DbResult<Database> {
        let fork = Database::with_profile(self.profile());
        let tables = self.inner.tables.read();
        for (name, store) in tables.iter() {
            fork.create_table(name.clone(), store.schema().clone())?;
            let fork_store = fork.table(name)?;
            for column in store.indexed_columns() {
                fork_store.create_index(&column)?;
            }
            for column in store.range_indexed_columns() {
                fork_store.create_range_index(&column)?;
            }
        }
        Ok(fork)
    }

    /// Applies externally captured change records as a single synthetic
    /// committed transaction, bypassing validation. This is the primitive
    /// the TROD replay engine uses to inject "the state changes the
    /// upcoming transaction depends on" (paper §3.5) into a development
    /// database. Inserts behave as upserts so injection is idempotent.
    pub fn apply_changes(&self, changes: &[ChangeRecord]) -> DbResult<CommitInfo> {
        self.apply_changes_with(changes, &[]).map_err(|e| match e {
            TrodError::Relational(e) => e,
            TrodError::Storage(e) => DbError::Storage(e),
            // Unreachable without participants; keep the error faithful
            // rather than panicking.
            TrodError::KeyValue(e) => DbError::Invalid(format!("participant error: {e}")),
        })
    }

    /// [`Database::apply_changes`] with commit participants: the synthetic
    /// commit spans other stores exactly like a live coordinated commit —
    /// participant resources merge into the sorted lock order, participant
    /// validation runs before the timestamp is claimed, and participant
    /// installs run inside the ordered publication window, landing in the
    /// same aligned log entry. This is how the replay engine re-applies a
    /// polyglot transaction's `kv:<namespace>` records through the same
    /// commit path the production transaction took.
    pub fn apply_changes_with(
        &self,
        changes: &[ChangeRecord],
        participants: &[&dyn CommitParticipant],
    ) -> TrodResult<CommitInfo> {
        self.apply_changes_inner(changes, participants, None)
    }

    /// Re-applies a recovered aligned-history entry *verbatim* through
    /// the participant path: the entry keeps its original `txn_id`,
    /// `start_ts` and `commit_ts` (the timestamp allocator is advanced to
    /// claim exactly `entry.commit_ts`), and the logged entry preserves
    /// every change record — including `kv:<namespace>` ones — so replayed
    /// history is indistinguishable from the original. Only relational
    /// changes are installed here; `participants` install the kv half
    /// (empty for relational-only recovery, which still preserves kv
    /// records in the log). Recovery replays entries in commit order;
    /// a timestamp the allocator cannot claim (raced by a concurrent
    /// commit) yields [`StorageError::Recovery`].
    pub fn apply_entry_with(
        &self,
        entry: &CommittedTxn,
        participants: &[&dyn CommitParticipant],
    ) -> TrodResult<CommitInfo> {
        let relational: Vec<ChangeRecord> = entry
            .changes
            .iter()
            .filter(|c| !crate::cdc::is_kv_table(&c.table))
            .cloned()
            .collect();
        self.apply_changes_inner(&relational, participants, Some(entry))
    }

    fn apply_changes_inner(
        &self,
        changes: &[ChangeRecord],
        participants: &[&dyn CommitParticipant],
        replay: Option<&CommittedTxn>,
    ) -> TrodResult<CommitInfo> {
        let txn_id = match replay {
            // Keep the recovered id and ensure future transactions never
            // reuse it.
            Some(entry) => {
                self.inner
                    .next_txn_id
                    .fetch_max(entry.txn_id + 1, Ordering::Relaxed);
                entry.txn_id
            }
            None => self.inner.next_txn_id.fetch_add(1, Ordering::Relaxed),
        };
        // Resolve every table and run every fallible check (schema
        // validation) BEFORE locking and allocating a timestamp, so a bad
        // record can never leave a half-applied synthetic commit behind.
        let mut footprint: BTreeMap<&str, Arc<TableStore>> = BTreeMap::new();
        for change in changes {
            if !footprint.contains_key(change.table.as_str()) {
                footprint.insert(change.table.as_str(), self.table(&change.table)?);
            }
            if let ChangeOp::Insert { after } | ChangeOp::Update { after, .. } = &change.op {
                footprint[change.table.as_str()]
                    .schema()
                    .validate_row(&change.table, after)?;
            }
        }

        if let Some(entry) = replay {
            // Position the allocator so the claim below yields exactly the
            // entry's original commit timestamp; empty ticks fill any
            // read-only gaps in the recovered sequence.
            self.ensure_ts_at_least(entry.commit_ts.saturating_sub(1));
        }

        // Same locking discipline as commit_coordinated: the union of the
        // relational footprint and the participants' resources, locked in
        // sorted name order and held through publication.
        let resources: Vec<(String, Arc<Mutex<()>>)> = if participants.is_empty() {
            Vec::new()
        } else {
            let mut resources: Vec<(String, Arc<Mutex<()>>)> = footprint
                .iter()
                .map(|(name, store)| (name.to_string(), store.commit_lock().clone()))
                .collect();
            for participant in participants {
                for resource in participant.resources() {
                    if !resources.iter().any(|(name, _)| *name == resource) {
                        let lock = participant.resource_lock(&resource);
                        resources.push((resource, lock));
                    }
                }
            }
            resources.sort_by(|a, b| a.0.cmp(&b.0));
            resources
        };
        let _serial = self.serial_commit().then(|| self.inner.serial_lock.lock());
        let _guards: Vec<_> = if participants.is_empty() {
            footprint
                .values()
                .map(|store| store.commit_lock().lock())
                .collect()
        } else {
            resources.iter().map(|(_, lock)| lock.lock()).collect()
        };

        // Participants can still veto here (e.g. a store whose timestamp
        // monotonicity a foreign commit outran); nothing is installed yet.
        let min_commit_ts = self.inner.ts_alloc.load(Ordering::SeqCst) + 1;
        for participant in participants {
            participant.validate(min_commit_ts)?;
        }

        let commit_ts = self.inner.ts_alloc.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(entry) = replay {
            if commit_ts != entry.commit_ts {
                // A concurrent commit raced the replay. Nothing is
                // installed yet, but the claimed tick must still publish
                // (the timestamp sequence is dense) — publish it empty,
                // exactly like ensure_ts_at_least.
                self.wait_for_publication_turn(commit_ts);
                self.publish_tick(commit_ts);
                return Err(TrodError::Storage(StorageError::Recovery {
                    detail: format!(
                        "cannot replay commit ts {} verbatim: allocator already claimed {}",
                        entry.commit_ts, commit_ts
                    ),
                }));
            }
        }
        // Batch the installs per table (in encounter-run order, preserving
        // the record sequence within and across tables) so each table's
        // rows, change log and indexes lock once per run instead of once
        // per record — the same batched maintenance the live commit path
        // uses.
        let mut applied = Vec::with_capacity(changes.len());
        let mut by_table: Vec<(&str, Vec<BatchOp>)> = Vec::new();
        for change in changes {
            let op = match &change.op {
                ChangeOp::Insert { after } | ChangeOp::Update { after, .. } => Some(after.clone()),
                ChangeOp::Delete { .. } => None,
            };
            match by_table.last_mut() {
                Some((t, ops)) if *t == change.table.as_str() => {
                    ops.push((change.key.clone(), op));
                }
                _ => by_table.push((change.table.as_str(), vec![(change.key.clone(), op)])),
            }
            applied.push(change.clone());
        }
        for (table, ops) in &by_table {
            footprint[table].apply_batch(ops, commit_ts);
        }
        // Participant installs run inside the ordered publication window,
        // and their change records join the same aligned log entry. (The
        // replay path keeps them in-window: recovery installs bypass
        // participant validation, so publishing only after they land
        // keeps recovered state invisible until it is complete.)
        self.wait_for_publication_turn(commit_ts);
        for participant in participants {
            applied.extend(participant.install(commit_ts));
        }
        let (start_ts, logged_changes) = match replay {
            // Verbatim: the recovered entry keeps its original snapshot
            // timestamp and every change record, kv ones included.
            Some(entry) => (entry.start_ts, entry.changes.clone()),
            None => (commit_ts - 1, applied.clone()),
        };
        let entry = CommittedTxn {
            txn_id,
            start_ts,
            commit_ts,
            changes: logged_changes,
        };
        // Live synthetic commits on a durable database are logged like
        // any other commit. Never during replay: recovery runs before the
        // WAL is attached, and re-appending recovered entries would
        // duplicate them.
        let wal = if replay.is_none() { self.wal() } else { None };
        let appended = wal.as_ref().map(|w| w.append_entry(&entry));
        self.finish_publication(entry);
        drop(_guards);
        drop(_serial);
        if let (Some(w), Some(appended)) = (&wal, appended) {
            w.sync_to(appended?)?;
        }
        Ok(CommitInfo {
            txn_id,
            start_ts,
            commit_ts,
            changes: applied,
        })
    }

    /// Garbage collects row versions not visible at or after `ts` and
    /// truncates the transaction log below `ts`. Returns (versions
    /// dropped, log entries dropped).
    ///
    /// The horizon is clamped to the active-transaction watermark
    /// ([`Database::min_active_start_ts`]): GC never drops a version an
    /// active transaction can still read, and never truncates a change
    /// log inside an active transaction's validation window — so
    /// truncation can be requested aggressively (e.g. at `current_ts()`)
    /// without ever forcing serializable validation onto the full-scan
    /// fallback.
    pub fn gc_before(&self, ts: Ts) -> (usize, usize) {
        let horizon = ts.min(self.inner.registry.watermark());
        // Truncate the log (raising the truncation floor) BEFORE dropping
        // row versions: a concurrent fork that reads the floor after this
        // point takes the spilled-reconstruction path, and one that read
        // the old floor forks at a timestamp whose versions this GC never
        // drops (GC keeps the newest version at or below `horizon`, so
        // state at any ts >= horizon stays materialisable mid-flight).
        // The reverse order would let a fork pass the floor check while
        // its versions were already gone — a silently wrong fork.
        // The retention read guard is held across the truncation (lock
        // order retention → log, matching `set_retention_policy`): a
        // policy installed concurrently either sees the log before this
        // truncation (and records the pre-GC floor as its coverage) or
        // after it (recording the raised floor) — never a floor that
        // promises coverage this GC silently dropped.
        let retention = self.inner.retention.read();
        let logs = {
            let mut log = self.synced_log();
            match retention.as_ref().map(|(p, _)| p) {
                Some(policy) => {
                    // Spill-before-truncate, under the log lock: the
                    // aligned entries move atomically from the log to the
                    // retention store — concurrent GCs cannot interleave
                    // spills out of commit order, and no reader can
                    // observe the entries in neither place.
                    let drained = log.truncate_before_drain(horizon);
                    let n = drained.len();
                    if n > 0 {
                        policy.spill(drained);
                    }
                    n
                }
                None => log.truncate_before(horizon),
            }
        };
        drop(retention);
        let mut versions = 0;
        for store in self.inner.tables.read().values() {
            versions += store.gc_before(horizon);
        }
        // Compact sealed WAL segments wholly below the raised floor into
        // immutable cold files — best-effort: an error leaves the sealed
        // originals in place (counted in the WAL stats) and a later GC
        // retries. A compaction boundary is also a natural checkpoint
        // boundary (module docs), so take one if enough bytes accrued.
        if let Some(wal) = self.wal() {
            let _ = wal.compact_below(self.log_truncated_below());
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::builder()
            .column("id", DataType::Int)
            .column("v", DataType::Text)
            .primary_key(&["id"])
            .build()
            .unwrap()
    }

    fn populated_db() -> Database {
        let db = Database::new();
        db.create_table("t", schema()).unwrap();
        let mut txn = db.begin();
        txn.insert("t", row![1i64, "one"]).unwrap();
        txn.insert("t", row![2i64, "two"]).unwrap();
        txn.commit().unwrap();
        db
    }

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
        db.drop_table("a").unwrap();
        assert!(!db.has_table("a"));
        assert!(db.drop_table("a").is_err());
    }

    #[test]
    fn serializable_write_skew_is_prevented() {
        // Classic write skew: two transactions each read both rows and
        // update the other one. Under serializability one must abort.
        let db = populated_db();
        let mut t1 = db.begin();
        let mut t2 = db.begin();
        let _ = t1.scan("t", &Predicate::True).unwrap();
        let _ = t2.scan("t", &Predicate::True).unwrap();
        t1.update("t", &Key::single(1i64), row![1i64, "t1"])
            .unwrap();
        t2.update("t", &Key::single(2i64), row![2i64, "t2"])
            .unwrap();
        assert!(t1.commit().is_ok());
        let err = t2.commit().unwrap_err();
        assert!(matches!(err, DbError::SerializationFailure { .. }));
    }

    #[test]
    fn snapshot_isolation_allows_write_skew_but_not_lost_updates() {
        let db = populated_db();
        // Write skew is admitted under SI.
        let mut t1 = db.begin_with(IsolationLevel::SnapshotIsolation);
        let mut t2 = db.begin_with(IsolationLevel::SnapshotIsolation);
        let _ = t1.scan("t", &Predicate::True).unwrap();
        let _ = t2.scan("t", &Predicate::True).unwrap();
        t1.update("t", &Key::single(1i64), row![1i64, "t1"])
            .unwrap();
        t2.update("t", &Key::single(2i64), row![2i64, "t2"])
            .unwrap();
        assert!(t1.commit().is_ok());
        assert!(t2.commit().is_ok());

        // Lost update (same key) is rejected: first committer wins.
        let mut t3 = db.begin_with(IsolationLevel::SnapshotIsolation);
        let mut t4 = db.begin_with(IsolationLevel::SnapshotIsolation);
        t3.update("t", &Key::single(1i64), row![1i64, "t3"])
            .unwrap();
        t4.update("t", &Key::single(1i64), row![1i64, "t4"])
            .unwrap();
        assert!(t3.commit().is_ok());
        assert!(matches!(
            t4.commit().unwrap_err(),
            DbError::WriteConflict { .. }
        ));
    }

    #[test]
    fn read_committed_admits_the_toctou_anomaly() {
        // This is the MDL-59854 shape: both transactions check that a row
        // does not exist, then both insert... except inserts of the same
        // key are still caught by the primary-key constraint. The anomaly
        // the paper's bug needs is *two distinct rows* representing the
        // same logical subscription, which read committed admits.
        let db = Database::new();
        let s = Schema::builder()
            .column("id", DataType::Int)
            .column("user_id", DataType::Text)
            .column("forum", DataType::Text)
            .primary_key(&["id"])
            .build()
            .unwrap();
        db.create_table("forum_sub", s).unwrap();

        let check = |txn: &mut Transaction| {
            txn.exists(
                "forum_sub",
                &Predicate::eq("user_id", "U1").and(Predicate::eq("forum", "F2")),
            )
            .unwrap()
        };

        let mut t1 = db.begin_with(IsolationLevel::ReadCommitted);
        let mut t2 = db.begin_with(IsolationLevel::ReadCommitted);
        assert!(!check(&mut t1));
        assert!(!check(&mut t2));
        t1.insert("forum_sub", row![1i64, "U1", "F2"]).unwrap();
        t2.insert("forum_sub", row![2i64, "U1", "F2"]).unwrap();
        t1.commit().unwrap();
        t2.commit().unwrap();

        let dups = db
            .scan_latest(
                "forum_sub",
                &Predicate::eq("user_id", "U1").and(Predicate::eq("forum", "F2")),
            )
            .unwrap();
        assert_eq!(dups.len(), 2, "duplicate subscription rows exist");
    }

    #[test]
    fn serializable_prevents_the_toctou_anomaly_in_one_txn() {
        // When the check and the insert share one serializable transaction
        // (the paper's suggested fix), the second committer aborts.
        let db = Database::new();
        let s = Schema::builder()
            .column("id", DataType::Int)
            .column("user_id", DataType::Text)
            .column("forum", DataType::Text)
            .primary_key(&["id"])
            .build()
            .unwrap();
        db.create_table("forum_sub", s).unwrap();

        let pred = Predicate::eq("user_id", "U1").and(Predicate::eq("forum", "F2"));
        let mut t1 = db.begin();
        let mut t2 = db.begin();
        assert!(!t1.exists("forum_sub", &pred).unwrap());
        assert!(!t2.exists("forum_sub", &pred).unwrap());
        t1.insert("forum_sub", row![1i64, "U1", "F2"]).unwrap();
        t2.insert("forum_sub", row![2i64, "U1", "F2"]).unwrap();
        assert!(t1.commit().is_ok());
        let err = t2.commit().unwrap_err();
        assert!(matches!(err, DbError::SerializationFailure { .. }));
    }

    #[test]
    fn aborted_commit_installs_nothing() {
        // Two read-committed transactions both insert an overlapping key
        // plus a private one. The second commit must abort on the
        // duplicate WITHOUT installing its private row, advancing the
        // clock, or appending anything to the table's change log —
        // a partial install would expose uncommitted data and poison
        // serializable validation with phantom change-log entries.
        let db = Database::new();
        db.create_table("t", schema()).unwrap();

        let mut t1 = db.begin_with(IsolationLevel::ReadCommitted);
        let mut t2 = db.begin_with(IsolationLevel::ReadCommitted);
        t1.insert("t", row![1i64, "t1-private"]).unwrap();
        t1.insert("t", row![5i64, "shared"]).unwrap();
        t2.insert("t", row![2i64, "t2-private"]).unwrap();
        t2.insert("t", row![5i64, "shared"]).unwrap();
        t1.commit().unwrap();
        let ts_after_t1 = db.current_ts();
        let log_len_after_t1 = db.table("t").unwrap().changelog().len();

        let err = t2.commit().unwrap_err();
        assert!(matches!(err, DbError::DuplicateKey { .. }));
        // Nothing from t2 leaked: no row, no clock advance, no log entry.
        assert_eq!(db.get_latest("t", &Key::single(2i64)).unwrap(), None);
        assert_eq!(db.current_ts(), ts_after_t1);
        assert_eq!(db.table("t").unwrap().changelog().len(), log_len_after_t1);

        // A serializable transaction scanning the whole table commits
        // cleanly — no phantom conflict from the aborted commit.
        let mut t3 = db.begin();
        let rows = t3.scan("t", &Predicate::True).unwrap();
        assert_eq!(rows.len(), 2);
        t3.insert("t", row![9i64, "after"]).unwrap();
        assert!(t3.commit().is_ok());
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
        assert_eq!(db.log_since(log[0].commit_ts).len(), 1);
        assert_eq!(db.log_len(), 2);
        assert!(db.log_entry_for(log[1].txn_id).is_some());
    }

    #[test]
    fn snapshots_and_fork_at() {
        let db = populated_db();
        let snap_ts = db.snapshot("before-bug").unwrap();
        assert_eq!(db.snapshot_ts("before-bug").unwrap(), snap_ts);
        assert!(db.snapshot("before-bug").is_err());
        assert!(db.snapshot_ts("missing").is_err());
        assert_eq!(db.snapshot_names(), vec!["before-bug".to_string()]);

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
    fn apply_changes_injects_state() {
        let db = populated_db();
        let changes = vec![
            ChangeRecord::insert("t", Key::single(9i64), row![9i64, "injected"]),
            ChangeRecord::update(
                "t",
                Key::single(1i64),
                row![1i64, "one"],
                row![1i64, "patched"],
            ),
            ChangeRecord::delete("t", Key::single(2i64), row![2i64, "two"]),
        ];
        let info = db.apply_changes(&changes).unwrap();
        assert_eq!(info.changes.len(), 3);
        assert_eq!(
            db.get_latest("t", &Key::single(9i64)).unwrap(),
            Some(std::sync::Arc::new(row![9i64, "injected"]))
        );
        assert_eq!(
            db.get_latest("t", &Key::single(1i64)).unwrap(),
            Some(std::sync::Arc::new(row![1i64, "patched"]))
        );
        assert_eq!(db.get_latest("t", &Key::single(2i64)).unwrap(), None);
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
    fn gc_spills_truncated_log_entries_to_the_retention_policy() {
        #[derive(Default)]
        struct Collecting(Mutex<Vec<CommittedTxn>>);
        impl RetentionPolicy for Collecting {
            fn spill(&self, entries: Vec<CommittedTxn>) {
                self.0.lock().extend(entries);
            }
        }

        let db = populated_db();
        for i in 0..3 {
            let mut txn = db.begin();
            txn.update("t", &Key::single(1i64), row![1i64, format!("v{i}")])
                .unwrap();
            txn.commit().unwrap();
        }
        let policy = Arc::new(Collecting::default());
        db.set_retention_policy(Some(policy.clone()));
        assert!(db.has_retention_policy());

        let live_before = db.log_entries();
        let (_, logs) = db.gc_before(db.current_ts());
        assert_eq!(logs, live_before.len());
        assert_eq!(db.log_len(), 0);
        assert_eq!(db.log_truncated_below(), db.current_ts());
        // Every truncated entry survived in the policy, in commit order.
        let spilled = policy.0.lock().clone();
        assert_eq!(spilled, live_before);

        // Later GCs spill only the new tail.
        let mut txn = db.begin();
        txn.update("t", &Key::single(2i64), row![2i64, "tail"])
            .unwrap();
        txn.commit().unwrap();
        db.gc_before(db.current_ts());
        assert_eq!(policy.0.lock().len(), live_before.len() + 1);
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

    #[test]
    fn concurrent_inserts_from_many_threads_all_commit() {
        let db = Database::new();
        db.create_table("t", schema()).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..25i64 {
                        let id = t * 1000 + i;
                        loop {
                            let mut txn = db.begin();
                            txn.insert("t", row![id, format!("w{t}")]).unwrap();
                            match txn.commit() {
                                Ok(_) => break,
                                Err(e) if e.is_retryable() => continue,
                                Err(e) => panic!("unexpected error: {e}"),
                            }
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(db.scan_latest("t", &Predicate::True).unwrap().len(), 200);
        assert_eq!(db.log_len(), 200);
        // Commit timestamps are strictly increasing.
        let log = db.log_entries();
        for pair in log.windows(2) {
            assert!(pair[0].commit_ts < pair[1].commit_ts);
        }
    }
}
