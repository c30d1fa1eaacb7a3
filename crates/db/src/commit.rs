//! The commit protocol — the one sequence of steps every publication
//! goes through, whether it is a live commit
//! ([`Transaction::commit`](crate::txn::Transaction::commit)), a replay
//! injection ([`Database::apply_changes`]) or a verbatim re-install of a
//! logged entry ([`Database::apply_entry`]). Key-value namespaces are
//! tables (`kv:<namespace>`), so every store a commit touches goes
//! through the same steps. The design is written up in "The commit
//! protocol" in `crates/db/DESIGN.md`; this module owns its invariants:
//!
//! * **One lock order.** Written tables are locked in ascending name
//!   order and held until after publication. Tables that were only read
//!   are never locked.
//! * **Nothing fails after the claim** except the in-window re-check,
//!   and that runs before anything is installed: an abort never leaves a
//!   version, a change-log entry or a log record behind.
//! * **Timestamps are dense.** Every claimed timestamp is published, as
//!   a commit or as an empty tick; ordered publication waits on every
//!   predecessor.
//! * **Readers see a prefix.** Versions are stamped with the claimed
//!   timestamp and resolve against the publication clock, so installs
//!   may precede the publication turn and a half-installed commit is
//!   never visible.
//! * **Log order is commit order.** The entry is appended to the WAL (if
//!   one is attached) and staged for the in-memory log inside the
//!   ordered window; the durability wait happens after every lock is
//!   released.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::cdc::ChangeRecord;
use crate::database::Database;
use crate::error::{DbError, DbResult, StorageError};
use crate::log::{CommittedTxn, LogStaging};
use crate::mvcc::Ts;
use crate::table::TableStore;
use crate::txn::{CommitInfo, IsolationLevel, TxnState, WriteOp};

/// Timestamp allocation and ordered publication.
#[derive(Default)]
pub(crate) struct Sequencer {
    /// Publication clock: the highest commit timestamp whose transaction
    /// is fully installed; readers resolve visibility against it.
    /// `clock <= ts_alloc`, equal whenever no commit is mid-flight.
    /// Shared with every [`TableStore`] (ring eviction clamps to it).
    clock: Arc<AtomicU64>,
    /// The highest timestamp handed to any commit.
    ts_alloc: AtomicU64,
    /// Entries published but not yet drained into the `TxnLog`.
    staging: LogStaging,
    /// Commits whose predecessor has not published yet park here (std
    /// condvar — waiters must sleep, not spin, so a preempted
    /// predecessor gets the CPU back).
    waiters: AtomicU64,
    turn_mutex: std::sync::Mutex<()>,
    turn_cv: std::sync::Condvar,
}

impl Sequencer {
    pub(crate) fn clock(&self) -> &Arc<AtomicU64> {
        &self.clock
    }

    /// The latest published commit timestamp.
    pub(crate) fn published(&self) -> Ts {
        self.clock.load(Ordering::SeqCst)
    }

    /// Starts a fresh database's clocks at `ts` (checkpoint restore,
    /// fork) without publishing the ticks in between.
    pub(crate) fn start_at(&self, ts: Ts) {
        self.clock.store(ts, Ordering::SeqCst);
        self.ts_alloc.store(ts, Ordering::SeqCst);
    }

    /// Removes the staged entries at or below `published`, in commit
    /// order. `published` must have been read from [`Self::published`]
    /// beforehand and drains must be serialized by the caller (see
    /// [`LogStaging`]).
    pub(crate) fn drain_up_to(&self, published: Ts) -> Vec<CommittedTxn> {
        self.staging.drain_up_to(published)
    }

    fn claim(&self) -> Ts {
        self.ts_alloc.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Claims and publishes empty ticks until the allocator is at least
    /// `target`.
    fn advance_to(&self, target: Ts) {
        while self.ts_alloc.load(Ordering::SeqCst) < target {
            let tick = self.claim();
            self.wait_for_publication_turn(tick);
            self.publish_tick(tick);
        }
    }

    /// Waits until the publication clock reaches `commit_ts - 1`.
    /// Exactly one thread — the one whose timestamp succeeds the clock —
    /// can be past the wait at a time, so everything between this call
    /// and [`Self::publish`] / [`Self::publish_tick`] runs in an
    /// exclusive, timestamp-ordered window. The wait is bounded:
    /// predecessors hold all their locks already and never block on this
    /// commit.
    fn wait_for_publication_turn(&self, commit_ts: Ts) {
        let clock = &self.clock;
        if clock.load(Ordering::SeqCst) == commit_ts - 1 {
            return;
        }
        // Brief spin for the common case (predecessor mid-publish), then
        // a few yields, then park. The yields matter on small machines:
        // with few cores the predecessor often *needs this CPU* to
        // publish, so spinning delays the very store being waited on,
        // and going straight to the condvar makes every cheap commit pay
        // a futex park/wake round-trip — a measured ~25× throughput
        // cliff at two committers on one core. The yields are bounded,
        // so a genuinely slow predecessor still sends this thread to the
        // condvar instead of burning CPU.
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
            // wakeup (see `publish_tick`).
            self.waiters.fetch_add(1, Ordering::SeqCst);
            let mut guard = self.turn_mutex.lock().expect("publish mutex");
            while clock.load(Ordering::SeqCst) != commit_ts - 1 {
                guard = self.turn_cv.wait(guard).expect("publish cv");
            }
            drop(guard);
            self.waiters.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Stages the entry and bumps the clock. Staging *before* the clock
    /// store is the happens-before edge log readers drain against.
    fn publish(&self, entry: CommittedTxn) {
        let commit_ts = entry.commit_ts;
        self.staging.push(entry);
        self.publish_tick(commit_ts);
    }

    /// Bumps the publication clock to `commit_ts` and wakes parked
    /// committers. With no staged entry this is an *empty tick*.
    fn publish_tick(&self, commit_ts: Ts) {
        self.clock.store(commit_ts, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            // Taking the mutex orders this notify after any in-flight
            // waiter's check-then-wait, so the wakeup cannot be missed.
            let _guard = self.turn_mutex.lock().expect("publish mutex");
            self.turn_cv.notify_all();
        }
    }
}

/// What distinguishes one front-end of the protocol from another;
/// everything else is [`Database::publish`].
struct FrontEnd<'a> {
    /// Fallible checks run under the footprint locks, before the
    /// timestamp claim.
    check: &'a dyn Fn() -> DbResult<()>,
    /// Re-check of the claimed timestamp at the publication turn, before
    /// anything is installed. `None` keeps the fast path (installs
    /// before the turn).
    recheck: Option<&'a dyn Fn(Ts) -> DbResult<()>>,
    /// Installs the writes at the claimed timestamp and returns the
    /// change records it derived doing so (none when the front-end was
    /// handed its records). Must not fail.
    install: &'a dyn Fn(Ts) -> Vec<ChangeRecord>,
    /// The log entry: its identity and its change list, given the
    /// records `install` derived.
    entry: &'a dyn Fn(Ts, Vec<ChangeRecord>) -> CommittedTxn,
}

type Tables<'a> = BTreeMap<&'a str, Arc<TableStore>>;

impl Database {
    /// The shared steps of the protocol. `locked` yields the written
    /// tables in ascending name order.
    fn publish<'a>(
        &self,
        locked: impl Iterator<Item = &'a Arc<TableStore>>,
        front: FrontEnd<'_>,
    ) -> DbResult<CommitInfo> {
        let seq = self.seq();
        let _guards: Vec<_> = locked.map(|store| store.commit_lock().lock()).collect();

        // Every earlier commit on these tables published before releasing
        // its locks, and nothing is installed yet: a veto aborts
        // side-effect-free.
        (front.check)()?;

        // Claim. On the fast path install right away — the versions stay
        // invisible until the clock reaches `commit_ts` — and enter the
        // ordered window with only the log append and the clock bump
        // left. With a re-check the order inverts: turn first, re-check
        // against the now exact span below `commit_ts`, then install.
        let commit_ts = seq.claim();
        let derived = match front.recheck {
            None => {
                let derived = (front.install)(commit_ts);
                seq.wait_for_publication_turn(commit_ts);
                derived
            }
            Some(recheck) => {
                seq.wait_for_publication_turn(commit_ts);
                if let Err(e) = recheck(commit_ts) {
                    seq.publish_tick(commit_ts);
                    return Err(e);
                }
                (front.install)(commit_ts)
            }
        };

        // Publish. The WAL append is a memcpy into its buffer, so WAL
        // byte order == commit order. Even a WAL error publishes (the
        // versions are installed and timestamps must stay dense); it
        // reports durability as unconfirmed after the locks are gone.
        let entry = (front.entry)(commit_ts, derived);
        let info = CommitInfo {
            txn_id: entry.txn_id,
            start_ts: entry.start_ts,
            commit_ts,
            changes: Arc::clone(&entry.changes),
        };
        let wal = self.wal();
        let appended = wal.as_ref().map(|w| w.append_entry(&entry));
        seq.publish(entry);
        drop(_guards);
        if let (Some(w), Some(appended)) = (&wal, appended) {
            w.sync_to(appended?)?;
        }
        self.maybe_checkpoint();
        Ok(info)
    }

    /// Live commit: validates the transaction under its isolation level,
    /// then publishes its buffered writes. Called from
    /// [`Transaction::commit`](crate::txn::Transaction::commit).
    pub(crate) fn commit_coordinated(&self, state: TxnState) -> DbResult<CommitInfo> {
        // The transaction stays registered (pinning GC at its snapshot)
        // through validation and install, whatever the outcome.
        let _active = self.registry().deregister_on_drop(state.id);

        if state.is_read_only() {
            // Read-only: serializes at its snapshot.
            return Ok(CommitInfo {
                txn_id: state.id,
                start_ts: state.start_ts,
                commit_ts: state.start_ts,
                changes: Arc::new([]),
            });
        }

        // Written tables are locked; under serializable isolation the
        // tables that were only read join the footprint for validation
        // but stay unlocked.
        let mut footprint: Tables = BTreeMap::new();
        for name in state.writes.keys() {
            footprint.insert(name, self.table(name)?);
        }
        let serializable = matches!(state.isolation, IsolationLevel::Serializable);
        if serializable {
            let reads = state.read_set.iter().map(|(t, _)| t);
            for name in reads.chain(state.scan_set.iter().map(|(t, _)| t)) {
                if !footprint.contains_key(&**name) {
                    footprint.insert(name, self.table(name)?);
                }
            }
        }
        let unlocked_reads = footprint.len() > state.writes.len();

        let check = || -> DbResult<()> {
            if !matches!(state.isolation, IsolationLevel::ReadCommitted) {
                validate_writes(&state, &footprint)?;
            }
            if serializable {
                validate_reads(&state, &footprint, Ts::MAX)?;
            }
            // Re-check insert duplicates against the latest published
            // state (a concurrent committer may have inserted the key
            // under weaker isolation levels).
            let current_ts = self.current_ts();
            for (table_name, writes) in &state.writes {
                let store = &footprint[&**table_name];
                for (key, op) in writes {
                    if matches!(op, WriteOp::Insert(_)) && store.exists_at(key, current_ts) {
                        return Err(DbError::DuplicateKey {
                            table: table_name.to_string(),
                            key: key.to_string(),
                        });
                    }
                }
            }
            Ok(())
        };
        let recheck = |commit_ts| validate_reads(&state, &footprint, commit_ts);
        self.publish(
            footprint
                .iter()
                .filter(|(name, _)| state.writes.contains_key(**name))
                .map(|(_, store)| store),
            FrontEnd {
                check: &check,
                recheck: unlocked_reads.then_some(&recheck as &dyn Fn(Ts) -> DbResult<()>),
                install: &|commit_ts| install_writes(&state, &footprint, commit_ts),
                entry: &|commit_ts, derived| CommittedTxn {
                    txn_id: state.id,
                    start_ts: state.start_ts,
                    commit_ts,
                    changes: derived.into(),
                },
            },
        )
    }

    /// Applies externally captured change records as a single synthetic
    /// committed transaction, bypassing validation. This is the primitive
    /// the TROD replay engine uses to inject "the state changes the
    /// upcoming transaction depends on" (paper §3.5) into a development
    /// database — `kv:<namespace>` records included, since a namespace
    /// is a table. Inserts behave as upserts so injection is idempotent.
    pub fn apply_changes(&self, changes: &[ChangeRecord]) -> DbResult<CommitInfo> {
        let txn_id = self.next_txn_id().fetch_add(1, Ordering::Relaxed);
        self.inject(changes, &|| Ok(()), None, &|commit_ts, _| CommittedTxn {
            txn_id,
            start_ts: commit_ts - 1,
            commit_ts,
            changes: changes.into(),
        })
    }

    /// Re-installs a logged aligned-history entry *verbatim*: it keeps
    /// its `txn_id`, `start_ts` and `commit_ts` and every change record,
    /// so replayed history is indistinguishable from the original.
    /// Entries must arrive in commit order onto a database whose clock is
    /// below `entry.commit_ts`; a timestamp the allocator cannot claim
    /// (raced by a concurrent commit) yields [`StorageError::Recovery`].
    pub fn apply_entry(&self, entry: &CommittedTxn) -> DbResult<CommitInfo> {
        // Future transactions never reuse the recovered id.
        self.next_txn_id()
            .fetch_max(entry.txn_id + 1, Ordering::Relaxed);
        // Position the allocator so the claim yields the entry's
        // timestamp (empty ticks fill read-only gaps), then demand it.
        let position = || {
            self.ensure_ts_at_least(entry.commit_ts.saturating_sub(1));
            Ok(())
        };
        let demand = |commit_ts| {
            if commit_ts == entry.commit_ts {
                return Ok(());
            }
            Err(DbError::Storage(StorageError::Recovery {
                detail: format!(
                    "cannot replay commit ts {} verbatim: allocator already claimed {}",
                    entry.commit_ts, commit_ts
                ),
            }))
        };
        self.inject(&entry.changes, &position, Some(&demand), &|_, _| {
            entry.clone()
        })
    }

    /// Publishes a change list: resolves its tables — once per run of
    /// consecutive records naming the same table — and runs every
    /// fallible record check before any lock or timestamp is taken (a
    /// bad record can never leave a half-applied commit behind), then
    /// installs one batch per run, straight from the records.
    fn inject(
        &self,
        changes: &[ChangeRecord],
        check: &dyn Fn() -> DbResult<()>,
        recheck: Option<&dyn Fn(Ts) -> DbResult<()>>,
        entry: &dyn Fn(Ts, Vec<ChangeRecord>) -> CommittedTxn,
    ) -> DbResult<CommitInfo> {
        let mut runs = Vec::new();
        let same_table = |a: &ChangeRecord, b: &ChangeRecord| {
            Arc::ptr_eq(&a.table, &b.table) || a.table == b.table
        };
        for run in changes.chunk_by(same_table) {
            let store = self.table(&run[0].table)?;
            for change in run {
                if let Some(after) = change.op.after_shared() {
                    store.schema().validate_row(&change.table, after)?;
                }
            }
            runs.push((store, run));
        }
        let mut locked: Vec<&Arc<TableStore>> = runs.iter().map(|(store, _)| store).collect();
        locked.sort_unstable_by(|a, b| a.name().cmp(b.name()));
        locked.dedup_by(|a, b| a.name() == b.name());
        let install = |commit_ts| {
            for (store, run) in &runs {
                let ops = run.iter().map(|c| (&c.key, c.op.after_shared()));
                store.apply_batch(ops, commit_ts);
            }
            Vec::new()
        };
        self.publish(
            locked.into_iter(),
            FrontEnd {
                check,
                recheck,
                install: &install,
                entry,
            },
        )
    }

    /// Advances the timestamp allocator (and the publication clock) to
    /// at least `target` by claiming and publishing empty ticks — no log
    /// entries, no installs, just clock movement. Positions a database
    /// for history that resumes at a known timestamp (a loaded dump, a
    /// copied fork).
    pub fn ensure_ts_at_least(&self, target: Ts) {
        self.seq().advance_to(target);
    }
}

/// First-committer-wins: any of our write keys modified since we began
/// aborts the transaction.
fn validate_writes(state: &TxnState, footprint: &Tables) -> DbResult<()> {
    for (table_name, writes) in &state.writes {
        let store = &footprint[&**table_name];
        for key in writes.keys() {
            if store.key_modified_in(key, state.start_ts, Ts::MAX) {
                return Err(DbError::WriteConflict {
                    table: table_name.to_string(),
                    key: key.to_string(),
                });
            }
        }
    }
    Ok(())
}

/// Serializable read validation: no commit in `(start_ts, upto)` may have
/// touched a key the transaction read or a row its scan predicates
/// observe. Point reads are O(1) per key; scans walk the table's change
/// log, O(Δ) in the rows committed since the transaction began.
///
/// `upto == Ts::MAX` is the pre-claim pass. It is exact for written
/// tables (their locks are held) and optimistic for tables that were
/// only read — it catches conflicts that already landed, but a racing
/// writer can still install after it. `upto == commit_ts` is the
/// in-window re-check of exactly those unlocked tables: every
/// predecessor is published, every successor excluded by timestamp.
fn validate_reads(state: &TxnState, footprint: &Tables, upto: Ts) -> DbResult<()> {
    let in_window = upto != Ts::MAX;
    for (table_name, key) in &state.read_set {
        if in_window && state.writes.contains_key(table_name) {
            continue;
        }
        if footprint[&**table_name].key_modified_in(key, state.start_ts, upto) {
            return Err(DbError::SerializationFailure {
                table: table_name.to_string(),
                detail: format!("row {key} changed after transaction start"),
            });
        }
    }
    for (table_name, pred) in &state.scan_set {
        let locked = state.writes.contains_key(table_name);
        if in_window && locked {
            continue;
        }
        let store = &footprint[&**table_name];
        let exact = locked || in_window;
        if let Some(key) = store.predicate_conflict_in(pred, state.start_ts, upto, exact)? {
            return Err(DbError::SerializationFailure {
                table: table_name.to_string(),
                detail: format!("predicate [{pred}] affected by concurrent write to {key}"),
            });
        }
    }
    Ok(())
}

/// Installs a transaction's buffered writes, one batched pass per table,
/// and derives their change records from the before images found.
fn install_writes(state: &TxnState, footprint: &Tables, commit_ts: Ts) -> Vec<ChangeRecord> {
    let mut changes = Vec::with_capacity(state.writes.values().map(BTreeMap::len).sum());
    for (table, writes) in &state.writes {
        let ops = writes.iter().map(|(key, op)| (key, op.visible_row()));
        let befores = footprint[&**table].apply_batch(ops, commit_ts);
        for ((key, op), before) in writes.iter().zip(befores) {
            let (table, key) = (table.clone(), key.clone());
            match (op, before) {
                (WriteOp::Update { after, .. } | WriteOp::Upsert(after), Some(before)) => {
                    changes.push(ChangeRecord::update(table, key, before, after.clone()));
                }
                // An update whose row vanished concurrently (only
                // possible under weak isolation) records as an insert.
                (
                    WriteOp::Insert(after) | WriteOp::Update { after, .. } | WriteOp::Upsert(after),
                    _,
                ) => {
                    changes.push(ChangeRecord::insert(table, key, after.clone()));
                }
                (WriteOp::Delete { .. }, Some(before)) => {
                    changes.push(ChangeRecord::delete(table, key, before));
                }
                (WriteOp::Delete { .. }, None) => {}
            }
        }
    }
    changes
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::row;
    use crate::row::Key;
    use crate::schema::Schema;
    use crate::txn::Transaction;
    use crate::value::DataType;

    pub(crate) fn schema() -> Schema {
        Schema::builder()
            .column("id", DataType::Int)
            .column("v", DataType::Text)
            .primary_key(&["id"])
            .build()
            .unwrap()
    }

    pub(crate) fn populated_db() -> Database {
        let db = Database::new();
        db.create_table("t", schema()).unwrap();
        let mut txn = db.begin();
        txn.insert("t", row![1i64, "one"]).unwrap();
        txn.insert("t", row![2i64, "two"]).unwrap();
        txn.commit().unwrap();
        db
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

    /// As-of reads clamp to the published clock. A claimed timestamp
    /// that is never published parks the next commit at its publication
    /// turn with its versions already installed (the fast path installs
    /// first); a read at any timestamp above the clock sees the published
    /// state, never those versions.
    #[test]
    fn as_of_reads_never_pass_the_published_clock() {
        let db = populated_db();
        db.create_index("t", "v").unwrap();
        let published = db.current_ts();
        let stalled = db.seq().claim();
        let key = Key::single(3i64);
        let (installed, seen) = std::thread::scope(|scope| {
            let parked = scope.spawn(|| {
                let mut txn = db.begin();
                txn.insert("t", row![3i64, "three"]).unwrap();
                txn.commit()
            });
            // `Ts::MAX - 1` reads the version store past the clock.
            let table = db.table("t").unwrap();
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while table.get_at(&key, Ts::MAX - 1).is_none() && std::time::Instant::now() < deadline
            {
                std::thread::yield_now();
            }
            let installed = table.get_at(&key, Ts::MAX - 1).is_some();
            let unpublished = db.current_ts() == published;
            let seen: Vec<_> = [Ts::MAX, Ts::MAX - 1]
                .into_iter()
                .map(|ts| {
                    let all = Predicate::True;
                    let ordered = db.scan_ordered_as_of("t", &all, "v", false, 10, ts);
                    (
                        db.get_as_of("t", &key, ts).unwrap().is_some(),
                        db.scan_as_of("t", &all, ts).unwrap().len(),
                        ordered.unwrap().map(|rows| rows.len()),
                    )
                })
                .collect();
            // Publishing the stalled tick lets the parked commit through.
            db.seq().wait_for_publication_turn(stalled);
            db.seq().publish_tick(stalled);
            parked.join().unwrap().unwrap();
            (installed && unpublished, seen)
        });
        assert!(installed, "the parked commit installed its row unpublished");
        // (get, scan, ordered scan) at `Ts::MAX` and at `Ts::MAX - 1`.
        assert_eq!(seen, [(false, 2, Some(2)); 2]);
        assert!(db.get_as_of("t", &key, Ts::MAX).unwrap().is_some());
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
