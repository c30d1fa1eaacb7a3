//! Physical table storage: a map from primary key to version chain, plus
//! optional secondary indexes and the per-table commit change log. A
//! fork's table additionally carries a *base* — the parent's table at a
//! pinned timestamp — that every read falls through to for keys the fork
//! has not written (see "Forking and replay injection" in
//! `DESIGN.md`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockReadGuard};

use crate::changelog::{ChangeEntry, ChangeLog};
use crate::error::{DbError, DbResult};
use crate::index::SecondaryIndex;
use crate::mvcc::{Ts, VersionChain};
use crate::predicate::{ColumnBounds, CompiledPredicate, Predicate};
use crate::registry::{ActiveTxnRegistry, GcPin};
use crate::row::{Key, KeyMap, Row};
use crate::schema::Schema;
use crate::value::Value;

/// Rows returned by a scan: `(primary key, shared row)` pairs.
pub type ScanRows = Vec<(Key, Arc<Row>)>;

/// The access path the scan planner chose for a predicate, with the
/// candidate-count estimate that won. Exposed (via
/// [`TableStore::plan_scan`]) so tests and diagnostics can observe
/// planner decisions; the scan path computes the same plan internally.
///
/// Every path other than `FullScan` produces *candidate keys* that may
/// over-approximate the result (stale index entries, bounds wider than
/// the predicate): candidates are always re-checked against the version
/// chain for visibility at the read timestamp and against the full
/// compiled predicate. No path may under-approximate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanPlan {
    /// The predicate is provably unsatisfiable
    /// ([`Predicate::provably_empty`]): the scan returns an empty result
    /// without touching the version store or taking any index lock.
    Empty,
    /// Walk every version chain; `rows` is the number of chains.
    FullScan { rows: usize },
    /// Look the row map up directly: the predicate pins every primary-key
    /// column by equality, or a single-column key by `IN (...)`. One
    /// candidate per pinned key, exact at any read timestamp (the row map
    /// holds a chain for every key with a version left).
    KeyProbe { candidates: usize },
    /// Probe the index on `column` once: the predicate pins it to one
    /// value.
    PointProbe { column: String, candidates: usize },
    /// Probe the index on `column` once per `IN (...)` element and merge.
    MultiProbe {
        column: String,
        probes: usize,
        candidates: usize,
    },
    /// Walk the index on `column` over the window the predicate's
    /// comparison conjuncts imply on it.
    RangeProbe { column: String, candidates: usize },
}

impl ScanPlan {
    /// True if the planner avoided the full chain walk — an index path,
    /// or the [`ScanPlan::Empty`] short-circuit.
    pub fn uses_index(&self) -> bool {
        !matches!(self, ScanPlan::FullScan { .. })
    }

    /// The estimate that won: how many candidate rows the path visits.
    /// An upper bound on the rows a latest scan returns; the query
    /// layer orders its table loads by it.
    pub fn candidates(&self) -> usize {
        match self {
            ScanPlan::Empty => 0,
            ScanPlan::FullScan { rows: n }
            | ScanPlan::KeyProbe { candidates: n }
            | ScanPlan::PointProbe { candidates: n, .. }
            | ScanPlan::MultiProbe { candidates: n, .. }
            | ScanPlan::RangeProbe { candidates: n, .. } => *n,
        }
    }

    /// The plan of a fork's table whose own layer plans `self` and whose
    /// base plans `base`: each layer walks its own path, so the estimate
    /// is the sum, reported under the path that visits more.
    fn stacked_on(self, base: ScanPlan) -> ScanPlan {
        let total = self.candidates() + base.candidates();
        let mut plan = if base.candidates() >= self.candidates() {
            base
        } else {
            self
        };
        match &mut plan {
            ScanPlan::Empty => {}
            ScanPlan::FullScan { rows: n }
            | ScanPlan::KeyProbe { candidates: n }
            | ScanPlan::PointProbe { candidates: n, .. }
            | ScanPlan::MultiProbe { candidates: n, .. }
            | ScanPlan::RangeProbe { candidates: n, .. } => *n = total,
        }
        plan
    }
}

/// The layer under a fork's table: the parent's table, read at `ts`.
///
/// Keys the fork has a chain for — even an empty one, the tombstone of a
/// key deleted in the fork — are *shadowed*: the fork's chain answers.
/// Every other key resolves to the parent's row visible at `ts`, for
/// reads at or above `ts`; below it the fork holds nothing. The parent's
/// state at `ts` cannot change under the fork: `ts` never exceeds the
/// parent's published clock, and the pin keeps GC's horizon at or below
/// it.
#[derive(Debug)]
struct Base {
    store: Arc<TableStore>,
    ts: Ts,
    /// Shared by every table of the fork. Held here rather than by the
    /// fork's database alone so that a fork *of the fork* — which keeps
    /// these tables alive, not the database — keeps the whole chain of
    /// parents pinned.
    _pin: Arc<GcPin>,
}

/// The winning access path with enough context to materialise its
/// candidate keys (borrows the locked index vectors).
enum PathChoice<'a> {
    Full,
    Key(Vec<Key>),
    Point(&'a SecondaryIndex, &'a Value),
    Multi(&'a SecondaryIndex, &'a [Value]),
    Range(&'a SecondaryIndex, ColumnBounds),
}

/// Storage for one table.
///
/// All mutation goes through `TableStore::apply_batch`, which is only
/// called by the database's commit path while it holds *this table's*
/// commit lock (`TableStore::commit_lock`; see "The commit protocol" in
/// `DESIGN.md`). Internal per-table locking therefore only needs to
/// protect readers from the one concurrent writer.
///
/// Row images are stored and returned as [`Arc<Row>`]: reads at any
/// timestamp, CDC records and the change log all share the writer's
/// allocation, so the read path never deep-copies row payloads.
#[derive(Debug)]
pub struct TableStore {
    /// Interned: every change record, read-set entry and lock name the
    /// engine derives from this table shares this allocation.
    name: Arc<str>,
    schema: Schema,
    rows: RwLock<KeyMap<VersionChain>>,
    indexes: RwLock<Vec<SecondaryIndex>>,
    /// Commit-ordered ring of recent row changes; serves O(Δ)
    /// serializable validation (see the [`crate::changelog`] docs).
    changelog: ChangeLog,
    /// This table's commit lock; commits take the locks of the tables
    /// they write in ascending name order (see [`crate::commit`]).
    commit_lock: Mutex<()>,
    /// The owning database's active-transaction registry; its watermark
    /// bounds change-log ring eviction so an active transaction's
    /// validation window is never evicted. Standalone stores (unit tests)
    /// get a private empty registry, which pins nothing.
    registry: Arc<ActiveTxnRegistry>,
    /// The owning database's publication clock, used to clamp ring
    /// eviction so a transaction beginning concurrently with an
    /// at-capacity append cannot find its window evicted (see
    /// [`ActiveTxnRegistry::eviction_horizon`]). `None` for standalone
    /// stores, which have no clock (and no concurrent begins).
    clock: Option<Arc<AtomicU64>>,
    /// The parent layer of a fork's table; `None` everywhere else.
    base: Option<Base>,
}

impl TableStore {
    /// Creates an empty, standalone table (no shared transaction
    /// registry; nothing pins the change-log ring).
    pub fn new(name: impl Into<Arc<str>>, schema: Schema) -> Self {
        TableStore::with_registry(name, schema, Arc::new(ActiveTxnRegistry::new()), None)
    }

    /// Creates an empty table wired to the owning database's
    /// active-transaction registry and publication clock.
    pub(crate) fn with_registry(
        name: impl Into<Arc<str>>,
        schema: Schema,
        registry: Arc<ActiveTxnRegistry>,
        clock: Option<Arc<AtomicU64>>,
    ) -> Self {
        TableStore {
            name: name.into(),
            schema,
            rows: RwLock::new(KeyMap::default()),
            indexes: RwLock::new(Vec::new()),
            changelog: ChangeLog::default(),
            commit_lock: Mutex::new(()),
            registry,
            clock,
            base: None,
        }
    }

    /// Makes this empty table a fork's table: it reads through to
    /// `parent` — same schema — at `ts` (see [`Base`]). `pin` must hold
    /// `parent`'s registry at or below `ts`.
    pub(crate) fn reading_through(
        mut self,
        parent: &Arc<TableStore>,
        ts: Ts,
        pin: Arc<GcPin>,
    ) -> Self {
        self.base = Some(Base {
            store: parent.clone(),
            ts,
            _pin: pin,
        });
        self
    }

    /// The base layer, if this is a fork's table and a read at `ts` can
    /// see through to it.
    fn base_at(&self, ts: Ts) -> Option<&Base> {
        self.base.as_ref().filter(|base| ts >= base.ts)
    }

    /// This table's commit lock; acquired by the database commit path.
    pub(crate) fn commit_lock(&self) -> &Mutex<()> {
        &self.commit_lock
    }

    /// The change-log eviction horizon: the active-transaction watermark
    /// clamped to the published clock, both read under the registry lock
    /// (linearizable with `begin`). Standalone stores fall back to the
    /// raw watermark — they have no clock and no concurrent begins.
    fn eviction_horizon(&self) -> Ts {
        match &self.clock {
            Some(clock) => self
                .registry
                .eviction_horizon(|| clock.load(Ordering::SeqCst)),
            None => self.registry.watermark(),
        }
    }

    /// The table name, shared (clone it to name this table elsewhere
    /// without copying).
    pub fn name(&self) -> &Arc<str> {
        &self.name
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The table's commit change log.
    pub fn changelog(&self) -> &ChangeLog {
        &self.changelog
    }

    /// Registers a secondary index over `column`, serving point, `IN
    /// (...)`, range and ordered-walk probes (see [`SecondaryIndex`]). A
    /// column carries at most one index: a second one is an error. The
    /// index starts unbuilt; the first read that needs it backfills it
    /// from the full version history.
    pub fn create_index(&self, column: &str) -> DbResult<()> {
        let col_idx = self.schema.resolve(&self.name, column)?;
        let mut indexes = self.indexes.write();
        if indexes.iter().any(|i| i.column() == column) {
            return Err(DbError::Invalid(format!(
                "index on `{}.{}` already exists",
                self.name, column
            )));
        }
        indexes.push(SecondaryIndex::new(column, col_idx));
        Ok(())
    }

    /// Names of indexed columns, in creation order.
    pub fn indexed_columns(&self) -> Vec<String> {
        self.indexes
            .read()
            .iter()
            .map(|i| i.column().to_string())
            .collect()
    }

    /// The (value, key) entries the index on `column` holds as it stands,
    /// without catching it up: 0 for an index no read has needed yet.
    /// `None` if `column` carries no index. Lets tests and diagnostics
    /// observe that writes leave indexes alone.
    pub fn index_entries(&self, column: &str) -> Option<usize> {
        let indexes = self.indexes.read();
        let idx = indexes.iter().find(|i| i.column() == column)?;
        Some(idx.entry_count())
    }

    /// The indexes, with every one `wanted` picks caught up with the
    /// change log ([`SecondaryIndex::catch_up`]). `rows` is this table's
    /// row map, read-locked by the caller for as long as it uses the
    /// result: commits install and log under the write side, so the log
    /// cannot move while the indexes are read. The write lock is taken
    /// only when a wanted index is behind.
    fn current_indexes(
        &self,
        rows: &KeyMap<VersionChain>,
        wanted: impl Fn(&SecondaryIndex) -> bool,
    ) -> RwLockReadGuard<'_, Vec<SecondaryIndex>> {
        let tail = self.changelog.tail();
        let behind = |idx: &SecondaryIndex| !idx.is_current(tail) && wanted(idx);
        let indexes = self.indexes.read();
        if !indexes.iter().any(behind) {
            return indexes;
        }
        drop(indexes);
        let mut indexes = self.indexes.write();
        let upto = self.logged_through();
        for idx in indexes.iter_mut().filter(|idx| behind(idx)) {
            idx.catch_up(&self.changelog, rows, upto);
        }
        drop(indexes);
        self.indexes.read()
    }

    /// Plans `pred`'s access path over this table's own chains and hands
    /// it, with its estimate, to `use_path` while the indexes are
    /// locked. Only what the plan can probe is built: the built indexes
    /// `pred` constrains are caught up first, and only when neither they
    /// nor a key probe beat the full walk is one unbuilt index built —
    /// the one [`index_to_build`] names — and the plan made again.
    fn with_access_path<R>(
        &self,
        rows: &KeyMap<VersionChain>,
        pred: &Predicate,
        use_path: impl FnOnce(PathChoice<'_>, usize) -> R,
    ) -> R {
        let (schema, tail) = (&self.schema, self.changelog.tail());
        let indexes =
            self.current_indexes(rows, |idx| idx.is_built() && constrains(pred, idx.column()));
        let (choice, cost) = plan_access_path(pred, schema, rows.len(), &indexes, tail);
        let unserved = matches!(choice, PathChoice::Full);
        let build = unserved.then(|| index_to_build(pred, &indexes)).flatten();
        let Some(column) = build else {
            return use_path(choice, cost);
        };
        let column = column.to_string();
        drop(indexes);
        let indexes = self.current_indexes(rows, |idx| idx.column() == column);
        let (choice, cost) = plan_access_path(pred, schema, rows.len(), &indexes, tail);
        use_path(choice, cost)
    }

    /// A timestamp up to which every change to this table is in the
    /// change log: its tail, or the published clock when that is later
    /// (a commit installs and logs before it publishes). Read under
    /// `rows`. Catching an index up to the clock rather than the tail
    /// keeps it ahead of a GC horizon on a table that other tables'
    /// commits have overtaken.
    fn logged_through(&self) -> Ts {
        let published = self
            .clock
            .as_ref()
            .map_or(0, |clock| clock.load(Ordering::SeqCst));
        self.changelog.tail().max(published)
    }

    /// Reads the row with `key` visible at `ts`. The returned `Arc` shares
    /// the stored allocation (no deep copy).
    pub fn get_at(&self, key: &Key, ts: Ts) -> Option<Arc<Row>> {
        match self.rows.read().get(key) {
            Some(chain) => chain.visible_at(ts).cloned(),
            None => self
                .base_at(ts)
                .and_then(|base| base.store.get_at(key, base.ts)),
        }
    }

    /// Scans rows visible at `ts` matching `pred` through the access-path
    /// planner (see [`TableStore::plan_scan`]): the cheapest of a point
    /// index probe, an `IN (...)` multi-probe, an ordered range probe and
    /// the full chain walk serves the candidates, which are then
    /// visibility- and predicate-checked against the version store. The
    /// predicate is compiled once; rows are shared, not copied.
    pub fn scan_at(&self, pred: &Predicate, ts: Ts) -> DbResult<Vec<(Key, Arc<Row>)>> {
        self.scan_at_compiled(pred, &pred.compile(&self.name, &self.schema)?, ts)
    }

    /// [`TableStore::scan_at`] for callers that already compiled `pred`
    /// against this table's schema (the transactional scan path compiles
    /// once and reuses it for its own buffered-write overlay). `pred` is
    /// still needed for access-path planning, which analyses the
    /// uncompiled tree (`equality_on` / `in_list_on` / `bounds_on`).
    ///
    /// Rows come back in primary-key order, for traces and tests. An
    /// index or key probe visits them in that order by construction (an
    /// index slot keeps its keys sorted; a probe over several slots or a
    /// key list sorts its candidates), so only a full chain walk, which
    /// follows the row map's hash order, and a fork whose own rows and
    /// base rows interleave sort the result.
    pub fn scan_at_compiled(
        &self,
        pred: &Predicate,
        compiled: &CompiledPredicate,
        ts: Ts,
    ) -> DbResult<Vec<(Key, Arc<Row>)>> {
        let mut out = Vec::new();
        let mut collect = |key: &Key, row: &Arc<Row>| out.push((key.clone(), row.clone()));
        if !self.for_each_match(pred, compiled, ts, &mut collect) {
            out.sort_by(|a, b| a.0.cmp(&b.0));
        }
        Ok(out)
    }

    /// Number of rows visible at `ts` matching `pred`: the walk
    /// [`TableStore::scan_at`] does, without collecting, sharing or
    /// sorting a single row.
    pub fn count_matching_at(&self, pred: &Predicate, ts: Ts) -> DbResult<usize> {
        let compiled = pred.compile(&self.name, &self.schema)?;
        let mut count = 0;
        self.for_each_match(pred, &compiled, ts, &mut |_, _| count += 1);
        Ok(count)
    }

    /// Visits every row visible at `ts` that matches `pred`, each once,
    /// and says whether the visits came in primary-key order. A fork's
    /// table visits its own matches, then the base's matches at the base
    /// timestamp minus the keys it shadows; each layer reaches its rows
    /// by its own planner-chosen path. (`dyn`: the base is visited by
    /// recursion.)
    fn for_each_match(
        &self,
        pred: &Predicate,
        compiled: &CompiledPredicate,
        ts: Ts,
        visit: &mut dyn FnMut(&Key, &Arc<Row>),
    ) -> bool {
        // A provably unsatisfiable predicate (False, empty IN list, or a
        // contradictory comparison window) short-circuits before any lock
        // is taken: no chain walk, no index probe.
        if pred.provably_empty() {
            return true;
        }
        let rows = self.rows.read();
        let own_in_order =
            rows.is_empty() || self.for_each_own_match(&rows, pred, compiled, ts, visit);
        let Some(base) = self.base_at(ts) else {
            return own_in_order;
        };
        let base_in_order = base
            .store
            .for_each_match(pred, compiled, base.ts, &mut |key, row| {
                if !rows.contains_key(key) {
                    visit(key, row);
                }
            });
        // The two layers' visits are one ordered run only when this
        // layer holds no row.
        rows.is_empty() && base_in_order
    }

    /// [`TableStore::for_each_match`] over this table's own chains.
    fn for_each_own_match(
        &self,
        rows: &KeyMap<VersionChain>,
        pred: &Predicate,
        compiled: &CompiledPredicate,
        ts: Ts,
        visit: &mut dyn FnMut(&Key, &Arc<Row>),
    ) -> bool {
        // Candidates are filtered by the read timestamp already (index
        // paths exclude keys unlinked at or before `ts`), then
        // re-checked for visibility and the full predicate: indexes
        // over-approximate, never under-approximate. The index lock is
        // held only while the candidates are taken, so a reader that must
        // catch an index up never waits for another's walk.
        let candidates = self.with_access_path(rows, pred, |choice, _| match choice {
            PathChoice::Full => None,
            // One slot: in key order and unique already.
            PathChoice::Point(idx, value) => Some((idx.lookup_at(value, ts), true)),
            PathChoice::Key(keys) => Some((keys, false)),
            PathChoice::Multi(idx, values) => Some((
                values.iter().flat_map(|v| idx.lookup_at(v, ts)).collect(),
                false,
            )),
            PathChoice::Range(idx, bounds) => Some((idx.range_at(&bounds, ts), false)),
        });
        let Some((mut keys, in_order)) = candidates else {
            for (key, chain) in rows.iter() {
                if let Some(row) = chain.visible_at(ts) {
                    if compiled.matches(row) {
                        visit(key, row);
                    }
                }
            }
            return false;
        };
        // A key list, or several slots: a key can surface once per
        // value it carried in overlapping stamp windows, or once per
        // repeated list element.
        if !in_order {
            keys.sort_unstable();
            keys.dedup();
        }
        for key in &keys {
            if let Some(row) = rows.get(key).and_then(|chain| chain.visible_at(ts)) {
                if compiled.matches(row) {
                    visit(key, row);
                }
            }
        }
        true
    }

    /// The access path [`TableStore::scan_at`] would take for `pred`,
    /// without executing it. Diagnostics and tests use this to observe
    /// planner decisions; equivalence tests pair it with
    /// [`TableStore::scan_at_full`].
    pub fn plan_scan(&self, pred: &Predicate) -> ScanPlan {
        if pred.provably_empty() {
            return ScanPlan::Empty;
        }
        let rows = self.rows.read();
        // Rendering the plan (column-name allocations) happens only here,
        // on the diagnostics path — the scan path drops it unrendered.
        let own = self.with_access_path(&rows, pred, |choice, cost| match choice {
            PathChoice::Full => ScanPlan::FullScan { rows: rows.len() },
            PathChoice::Key(_) => ScanPlan::KeyProbe { candidates: cost },
            PathChoice::Point(idx, _) => ScanPlan::PointProbe {
                column: idx.column().to_string(),
                candidates: cost,
            },
            PathChoice::Multi(idx, values) => ScanPlan::MultiProbe {
                column: idx.column().to_string(),
                probes: values.len(),
                candidates: cost,
            },
            PathChoice::Range(idx, _) => ScanPlan::RangeProbe {
                column: idx.column().to_string(),
                candidates: cost,
            },
        });
        match &self.base {
            Some(base) => own.stacked_on(base.store.plan_scan(pred)),
            None => own,
        }
    }

    /// [`TableStore::scan_at`] forced down the full-scan path, bypassing
    /// the planner. This is the oracle the planner's paths must agree
    /// with (every index path over-approximates candidates and re-checks,
    /// so results are identical by construction — property-tested in
    /// `tests/scan_path_equivalence.rs`), and the baseline the `scan_path`
    /// benchmark measures speedups against.
    pub fn scan_at_full(&self, pred: &Predicate, ts: Ts) -> DbResult<Vec<(Key, Arc<Row>)>> {
        let compiled = pred.compile(&self.name, &self.schema)?;
        let rows = self.rows.read();
        let mut out = Vec::new();
        for (key, chain) in rows.iter() {
            if let Some(row) = chain.visible_at(ts) {
                if compiled.matches(row) {
                    out.push((key.clone(), row.clone()));
                }
            }
        }
        if let Some(base) = self.base_at(ts) {
            let below = base.store.scan_at_full(pred, base.ts)?;
            out.extend(below.into_iter().filter(|(key, _)| !rows.contains_key(key)));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    /// True if `key` was written by a commit in the open window
    /// `(after, upto)`; `upto == Ts::MAX` leaves it unbounded. The SSI
    /// commit path re-validates unlocked point reads with `upto` its own
    /// timestamp, inside the publication window, so versions a concurrent
    /// *successor* installed early (at a higher timestamp, on this
    /// unlocked table) never count as conflicts.
    ///
    /// Like all validation ([`TableStore::predicate_conflict_in`], the
    /// change log), this consults a fork's own chains only: the base is
    /// immutable from the fork's side, and the first write to a key
    /// seeds its chain with the base row, so every change the fork makes
    /// is recorded in the fork.
    pub fn key_modified_in(&self, key: &Key, after: Ts, upto: Ts) -> bool {
        self.rows
            .read()
            .get(key)
            .map(|chain| chain.modified_in(after, upto))
            .unwrap_or(false)
    }

    /// Serializable (phantom) validation primitive: returns the key of a
    /// row change committed in the open window `(after, upto)` that
    /// `pred` can observe, or `None` if the predicate's result set is
    /// untouched there (`upto == Ts::MAX` leaves the window unbounded).
    ///
    /// Walks the change log — O(Δ) in the changes since `after`, testing
    /// the compiled predicate against each before/after image — and falls
    /// back to the full version scan when the log no longer covers the
    /// window (GC truncation or ring overflow).
    ///
    /// `exact` says no commit can install into the window while this
    /// runs: the caller holds this table's commit lock, or is inside its
    /// publication window with `upto` its own timestamp. Debug builds
    /// then cross-check the change-log decision against the full scan.
    /// An inexact call is the optimistic pre-claim pass over an unlocked
    /// table: still sound (a missed conflict is caught by the in-window
    /// re-check, an extra hit is a write certain to publish), but two
    /// racy snapshots may legitimately diverge, so the oracle is skipped.
    pub fn predicate_conflict_in(
        &self,
        pred: &Predicate,
        after: Ts,
        upto: Ts,
        exact: bool,
    ) -> DbResult<Option<Key>> {
        let compiled = pred.compile(&self.name, &self.schema)?;
        let from_log = self.changelog.scan_after(after, |entry: &ChangeEntry| {
            if entry.commit_ts >= upto {
                return None;
            }
            let before_hit = entry.before.as_deref().is_some_and(|r| compiled.matches(r));
            let after_hit = entry.after.as_deref().is_some_and(|r| compiled.matches(r));
            (before_hit || after_hit).then(|| entry.key.clone())
        });
        if let Ok(decision) = from_log {
            debug_assert!(
                !exact
                    || decision.is_some()
                        == self.full_scan_conflict_in(&compiled, after, upto).is_some(),
                "change-log validation diverged from full scan for {} in ({}, {})",
                self.name,
                after,
                upto
            );
            return Ok(decision);
        }
        Ok(self.full_scan_conflict_in(&compiled, after, upto))
    }

    /// The full-scan fallback and debug oracle of
    /// [`TableStore::predicate_conflict_in`].
    fn full_scan_conflict_in(
        &self,
        compiled: &CompiledPredicate,
        after: Ts,
        upto: Ts,
    ) -> Option<Key> {
        let rows = self.rows.read();
        for (key, chain) in rows.iter() {
            for v in chain.versions() {
                if v.touched_in(after, upto) && compiled.matches(&v.row) {
                    return Some(key.clone());
                }
            }
        }
        None
    }

    /// Whether a live (visible at `ts`) row exists for `key`.
    pub fn exists_at(&self, key: &Key, ts: Ts) -> bool {
        match self.rows.read().get(key) {
            Some(chain) => chain.visible_at(ts).is_some(),
            None => self
                .base_at(ts)
                .is_some_and(|base| base.store.exists_at(key, base.ts)),
        }
    }

    /// Installs a whole checkpoint snapshot in one pass: one lock
    /// acquisition for every row, no changelog entries (a restored base
    /// is *state*, not a change — emitting it as CDC would present the
    /// entire snapshot as writes at `commit_ts`). The caller creates the
    /// indexes afterwards; the first read that needs one backfills it.
    pub(crate) fn install_snapshot<I>(&self, entries: I, commit_ts: Ts)
    where
        I: IntoIterator<Item = (Key, Arc<Row>)>,
    {
        let mut rows = self.rows.write();
        for (key, row) in entries {
            rows.entry(key).or_default().install(commit_ts, row);
        }
    }

    /// Applies a whole commit's writes to this table in one pass — the
    /// only way rows change: each op is a commit timestamp and a key with
    /// `Some(row)` to install at that timestamp or `None` to delete. A
    /// commit stamps every op with its own timestamp; the replay of a run
    /// of logged commits passes the whole run, each op stamped with its
    /// commit's timestamp, in commit order. Installs supersede the live
    /// version, deletes close it, and the change log records every change
    /// in order. Returns the row each op displaced (parallel to `ops`):
    /// the before image every front-end derives its change record from.
    ///
    /// The write touches `rows` and the change log, each once per call
    /// and the log inside `rows` (the crate-wide lock order), so a reader
    /// holding `rows` sees the chains and the log agree. It never touches
    /// `indexes`: they catch up from the log when a read needs them
    /// ([`SecondaryIndex::catch_up`]). The ops are borrowed from the
    /// caller's own records: the only per-row copies are reference-count
    /// bumps. Only called under this table's commit lock — crate-private
    /// so code outside the engine cannot bypass the commit protocol
    /// through a [`crate::Database::table`] handle.
    ///
    /// On a fork's table the first write to a key first *seeds* its chain
    /// with the base's row, stamped with the base timestamp: before
    /// images and change-log entries then come out exactly as if the
    /// fork had copied the row up front. A seed is state, not a change —
    /// it has no change-log entry; an index learns the seed's value from
    /// the before image of the write that seeded it.
    pub(crate) fn apply_batch<'a, I>(&self, ops: I) -> Vec<Option<Arc<Row>>>
    where
        I: Iterator<Item = (Ts, &'a Key, Option<&'a Arc<Row>>)> + Clone,
    {
        let mut befores = Vec::with_capacity(ops.size_hint().0);
        let mut rows = self.rows.write();
        for (commit_ts, key, after) in ops.clone() {
            if let Some(base) = &self.base {
                if !rows.contains_key(key) {
                    if let Some(row) = base.store.get_at(key, base.ts) {
                        rows.entry(key.clone()).or_default().install(base.ts, row);
                    }
                }
            }
            befores.push(match after {
                Some(row) => rows
                    .entry(key.clone())
                    .or_default()
                    .install(commit_ts, row.clone()),
                None => rows.get_mut(key).and_then(|chain| chain.remove(commit_ts)),
            });
        }
        // A delete that found nothing changes nothing: no change-log
        // entry (matching `remove`).
        let entries = ops
            .zip(&befores)
            .filter(|((_, _, after), before)| after.is_some() || before.is_some())
            .map(|((commit_ts, key, after), before)| ChangeEntry {
                commit_ts,
                key: key.clone(),
                before: before.clone(),
                after: after.cloned(),
            });
        self.changelog
            .append_all(entries, || self.eviction_horizon());
        befores
    }

    /// Number of live rows at `ts`.
    pub fn count_at(&self, ts: Ts) -> usize {
        let rows = self.rows.read();
        let own = rows.values().filter(|c| c.visible_at(ts).is_some()).count();
        let below = self.base_at(ts).map_or(0, |base| {
            let shadowed = rows
                .keys()
                .filter(|key| base.store.exists_at(key, base.ts))
                .count();
            base.store.count_at(base.ts) - shadowed
        });
        own + below
    }

    /// Total stored versions (live + historical) in this table's own
    /// chains, for stats/GC decisions.
    pub fn version_count(&self) -> usize {
        self.rows.read().values().map(|c| c.len()).sum()
    }

    /// Garbage collects versions not visible to any reader at or after
    /// `ts`, truncating the change log over the same window. Returns how
    /// many versions were dropped.
    pub(crate) fn gc_before(&self, ts: Ts) -> usize {
        let mut rows = self.rows.write();
        let mut dropped = 0;
        let mut dead_keys = Vec::new();
        for (key, chain) in rows.iter_mut() {
            dropped += chain.gc_before(ts);
            // A fork's emptied chain stays: it is the tombstone that
            // keeps the base's row for the key shadowed.
            if chain.is_empty() && self.base.is_none() {
                dead_keys.push(key.clone());
            }
        }
        for key in &dead_keys {
            rows.remove(key);
        }
        for idx in self.indexes.write().iter_mut() {
            // An index a read has built applies the changes the
            // truncation below is about to drop, rather than rebuilding
            // from the chains at its next read; one no read has needed
            // stays empty. Entries tombstoned at or below the horizon
            // point at versions that no longer exist: GC drops them.
            if idx.is_built() {
                idx.catch_up(&self.changelog, &rows, self.logged_through());
            }
            idx.purge_dead(ts);
        }
        drop(rows);
        self.changelog.truncate_before(ts);
        dropped
    }

    /// Calls `visit` on each live row at `ts`, a fork's unshadowed base
    /// rows included, in no particular order.
    pub(crate) fn for_each_at(&self, ts: Ts, visit: &mut dyn FnMut(&Key, &Arc<Row>)) {
        let rows = self.rows.read();
        for (key, chain) in rows.iter() {
            if let Some(row) = chain.visible_at(ts) {
                visit(key, row);
            }
        }
        if let Some(base) = self.base_at(ts) {
            base.store.for_each_at(base.ts, &mut |key, row| {
                if !rows.contains_key(key) {
                    visit(key, row);
                }
            });
        }
    }

    /// Snapshot of live rows at `ts`, in key order (what a checkpoint
    /// captures). Rows are shared with the version store, not copied.
    pub fn materialize_at(&self, ts: Ts) -> Vec<(Key, Arc<Row>)> {
        let mut out = Vec::new();
        self.for_each_at(ts, &mut |key, row| out.push((key.clone(), row.clone())));
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// The scan planner: enumerates every applicable access path and picks the
/// one with the smallest candidate-count estimate.
///
/// The primary-key probe is costed first: one candidate per pinned key,
/// exact at any timestamp. Index estimates are the per-slot *live* entry
/// counters maintained on every index stamp/purge — exactly what a
/// latest-timestamp probe returns, so slots that accumulated tombstones
/// between garbage collections no longer inflate probe estimates
/// (time-travel probes can exceed the estimate; cost errors never affect
/// results). Each index is costed once per probe shape the predicate
/// admits on its column: a point probe costs one slot lookup per value;
/// the range estimate walks value slots but stops counting at the best
/// estimate so far — once a path has lost it is never fully costed. The
/// full scan (estimate = number of chains) is the baseline; another path
/// must beat the best so far *strictly*, since a candidate (a hash lookup
/// per key) costs more than a step of the walk — and an index path that
/// only ties the key probe loses to it. Analysis only ever extracts
/// *conjunctive* constraints (`equality_on` / `in_list_on` / `bounds_on`
/// all return `None` under `Or`/`Not`), so a chosen path's candidates
/// always over-approximate the predicate's match set — the caller
/// re-checks visibility and the full predicate against the chains.
fn plan_access_path<'a>(
    pred: &'a Predicate,
    schema: &Schema,
    chain_count: usize,
    indexes: &'a [SecondaryIndex],
    tail: Ts,
) -> (PathChoice<'a>, usize) {
    let mut best_cost = chain_count;
    let mut choice = PathChoice::Full;
    if let Some(keys) = pinned_keys(pred, schema) {
        if keys.len() < best_cost {
            best_cost = keys.len();
            choice = PathChoice::Key(keys);
        }
    }
    // An index still behind the change log, or never built, is never
    // costed or probed: an unbuilt index is not an empty one.
    for idx in indexes.iter().filter(|idx| idx.is_current(tail)) {
        let column = idx.column();
        let point = pred.equality_on(column);
        if let Some(value) = point {
            let cost = idx.candidate_count(value);
            if cost < best_cost {
                best_cost = cost;
                choice = PathChoice::Point(idx, value);
            }
        }
        if let Some(values) = pred.in_list_on(column) {
            let cost: usize = values.iter().map(|v| idx.candidate_count(v)).sum();
            if cost < best_cost {
                best_cost = cost;
                choice = PathChoice::Multi(idx, values);
            }
        }
        // An equality narrows the column's window to the point probe's
        // slot, or to nothing (which `provably_empty` already answered):
        // a window is only worth costing without one.
        let window = if point.is_none() {
            pred.bounds_on(column)
        } else {
            None
        };
        if let Some(bounds) = window {
            let cost = idx.candidate_count_capped(&bounds, best_cost);
            if cost < best_cost {
                best_cost = cost;
                choice = PathChoice::Range(idx, bounds);
            }
        }
    }
    (choice, best_cost)
}

/// True if the planner can cost an index on `column` for `pred`: a
/// conjunct pins it by equality or `IN (...)`, or bounds it. Only such
/// indexes are caught up before planning.
fn constrains(pred: &Predicate, column: &str) -> bool {
    pred.equality_on(column).is_some()
        || pred.in_list_on(column).is_some()
        || pred.bounds_on(column).is_some()
}

/// The column of the one unbuilt index a plan that nothing else serves
/// builds for `pred`: the first in creation order that `pred` pins by
/// equality, else by `IN (...)`, else bounds. The rule reads no data,
/// since an unbuilt index has none to cost; an equality is taken to be
/// the narrowest probe.
fn index_to_build<'a>(pred: &Predicate, indexes: &'a [SecondaryIndex]) -> Option<&'a str> {
    let shape = |column| {
        let equality = pred.equality_on(column).is_some();
        let listed = pred.in_list_on(column).is_some();
        [equality, listed, pred.bounds_on(column).is_some()]
            .iter()
            .position(|&pins| pins)
    };
    let unbuilt = indexes
        .iter()
        .filter(|idx| !idx.is_built())
        .map(SecondaryIndex::column);
    let ranked = unbuilt.filter_map(|column| Some((shape(column)?, column)));
    ranked
        .min_by_key(|&(shape, _)| shape)
        .map(|(_, column)| column)
}

/// The primary keys `pred` can only match, when its conjuncts pin every
/// key column by equality (one key) or a single-column key by `IN (...)`
/// (one key per element). Literals compare with stored key values exactly
/// as [`Predicate::matches`] compares them ([`Value`]'s `Eq` and `Hash`
/// are numeric across `Int`/`Float`/`Timestamp`), so the row-map lookup
/// misses no row the predicate would accept.
fn pinned_keys(pred: &Predicate, schema: &Schema) -> Option<Vec<Key>> {
    let name = |col: usize| schema.columns()[col].name.as_str();
    let pk = schema.primary_key();
    let pinned: Option<Vec<Value>> = pk
        .iter()
        .map(|&col| pred.equality_on(name(col)).cloned())
        .collect();
    match (pinned, pk) {
        (Some(values), _) => Some(vec![Key::new(values)]),
        (None, [col]) => {
            let values = pred.in_list_on(name(*col))?;
            Some(values.iter().cloned().map(Key::single).collect())
        }
        (None, _) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::value::{DataType, Value};

    fn subs_table() -> TableStore {
        let schema = Schema::builder()
            .column("user_id", DataType::Text)
            .column("forum", DataType::Text)
            .primary_key(&["user_id", "forum"])
            .build()
            .unwrap();
        TableStore::new("forum_sub", schema)
    }

    fn key(u: &str, f: &str) -> Key {
        Key::new(vec![Value::Text(u.into()), Value::Text(f.into())])
    }

    fn arc(r: Row) -> Arc<Row> {
        Arc::new(r)
    }

    /// One-row commits, for building histories.
    impl TableStore {
        fn install(&self, key: &Key, row: Arc<Row>, commit_ts: Ts) -> Option<Arc<Row>> {
            self.apply_batch(std::iter::once((commit_ts, key, Some(&row))))
                .remove(0)
        }

        fn remove(&self, key: &Key, commit_ts: Ts) -> Option<Arc<Row>> {
            self.apply_batch(std::iter::once((commit_ts, key, None)))
                .remove(0)
        }
    }

    #[test]
    fn install_get_scan() {
        let t = subs_table();
        t.install(&key("U1", "F1"), arc(row!["U1", "F1"]), 1);
        t.install(&key("U1", "F2"), arc(row!["U1", "F2"]), 2);

        assert_eq!(t.get_at(&key("U1", "F1"), 1), Some(arc(row!["U1", "F1"])));
        assert_eq!(t.get_at(&key("U1", "F2"), 1), None);
        assert_eq!(t.get_at(&key("U1", "F2"), 2), Some(arc(row!["U1", "F2"])));

        let hits = t.scan_at(&Predicate::eq("user_id", "U1"), 2).unwrap();
        assert_eq!(hits.len(), 2);
        assert_eq!(t.count_at(2), 2);
        assert_eq!(t.count_at(1), 1);
    }

    #[test]
    fn reads_share_the_installed_allocation() {
        let t = subs_table();
        let row = arc(row!["U1", "F1"]);
        t.install(&key("U1", "F1"), row.clone(), 1);
        let got = t.get_at(&key("U1", "F1"), 1).unwrap();
        assert!(Arc::ptr_eq(&got, &row), "get_at must not deep-copy");
        let scanned = t.scan_at(&Predicate::True, 1).unwrap();
        assert!(
            Arc::ptr_eq(&scanned[0].1, &row),
            "scan_at must not deep-copy"
        );
        let materialized = t.materialize_at(1);
        assert!(Arc::ptr_eq(&materialized[0].1, &row));
    }

    #[test]
    fn index_accelerated_scan_returns_same_results() {
        let t = subs_table();
        for i in 0..50 {
            let u = format!("U{i}");
            t.install(&key(&u, "F2"), arc(row![u.clone(), "F2"]), i + 1);
        }
        let no_index = t.scan_at(&Predicate::eq("forum", "F2"), 100).unwrap();
        t.create_index("forum").unwrap();
        let with_index = t.scan_at(&Predicate::eq("forum", "F2"), 100).unwrap();
        assert_eq!(no_index, with_index);
        assert_eq!(with_index.len(), 50);
        assert_eq!(t.indexed_columns(), vec!["forum".to_string()]);
    }

    #[test]
    fn delete_unlinks_the_index_entry_but_keeps_history_readable() {
        let t = subs_table();
        t.create_index("forum").unwrap();
        for i in 0..10 {
            let u = format!("U{i}");
            t.install(&key(&u, "F2"), arc(row![u.clone(), "F2"]), 1);
        }
        t.remove(&key("U3", "F2"), 5);

        // Latest scan through the index: the deleted row is gone and the
        // candidate set is exact (no dead key to filter).
        let live = t.scan_at(&Predicate::eq("forum", "F2"), 5).unwrap();
        assert_eq!(live.len(), 9);
        // Snapshot/time-travel scan below the delete still sees it.
        let old = t.scan_at(&Predicate::eq("forum", "F2"), 4).unwrap();
        assert_eq!(old.len(), 10);
    }

    #[test]
    fn update_unlinks_the_old_indexed_value() {
        let schema = Schema::builder()
            .column("user_id", DataType::Text)
            .column("forum", DataType::Text)
            .primary_key(&["user_id"])
            .build()
            .unwrap();
        let t = TableStore::new("subs", schema);
        t.create_index("forum").unwrap();
        let k = Key::single(Value::Text("U1".into()));
        t.install(&k, arc(row!["U1", "F1"]), 2);
        t.install(&k, arc(row!["U1", "F2"]), 6);

        // At the latest timestamp only F2 matches; the F1 entry was
        // tombstoned by the update, not left as a dead candidate.
        assert_eq!(
            t.scan_at(&Predicate::eq("forum", "F1"), 6).unwrap().len(),
            0
        );
        assert_eq!(
            t.scan_at(&Predicate::eq("forum", "F2"), 6).unwrap().len(),
            1
        );
        // Below the update, the index still resolves F1.
        assert_eq!(
            t.scan_at(&Predicate::eq("forum", "F1"), 5).unwrap().len(),
            1
        );
    }

    #[test]
    fn index_backfill_covers_historical_versions() {
        let t = subs_table();
        let k = key("U1", "F2");
        t.install(&k, arc(row!["U1", "F2"]), 2);
        t.remove(&k, 4);
        // Index created after the delete: time travel below ts 4 must
        // still find the row through the index.
        t.create_index("forum").unwrap();
        assert_eq!(
            t.scan_at(&Predicate::eq("forum", "F2"), 3).unwrap().len(),
            1
        );
        assert_eq!(
            t.scan_at(&Predicate::eq("forum", "F2"), 4).unwrap().len(),
            0
        );
    }

    fn scored_table(n: i64) -> TableStore {
        let schema = Schema::builder()
            .column("id", DataType::Int)
            .column("grp", DataType::Int)
            .column("score", DataType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap();
        let t = TableStore::new("scored", schema);
        for i in 0..n {
            t.install(&Key::single(i), arc(row![i, i % 10, i]), (i + 1) as u64);
        }
        t
    }

    #[test]
    fn planner_picks_the_cheapest_path() {
        let t = scored_table(100);
        t.create_index("grp").unwrap();
        t.create_index("score").unwrap();

        // No constraint: full scan.
        assert_eq!(
            t.plan_scan(&Predicate::True),
            ScanPlan::FullScan { rows: 100 }
        );
        // Equality on an indexed column: point probe (10 candidates beat
        // 100 chains).
        assert_eq!(
            t.plan_scan(&Predicate::eq("grp", 3i64)),
            ScanPlan::PointProbe {
                column: "grp".into(),
                candidates: 10
            }
        );
        // IN (...) on an indexed column: one probe per element.
        assert_eq!(
            t.plan_scan(&Predicate::in_list(
                "grp",
                vec![Value::Int(3), Value::Int(4)]
            )),
            ScanPlan::MultiProbe {
                column: "grp".into(),
                probes: 2,
                candidates: 20
            }
        );
        // Narrow window on an indexed column: range probe. The same index
        // serves point probes.
        assert_eq!(
            t.plan_scan(&Predicate::ge("score", 95i64)),
            ScanPlan::RangeProbe {
                column: "score".into(),
                candidates: 5
            }
        );
        assert_eq!(
            t.plan_scan(&Predicate::eq("score", 95i64)),
            ScanPlan::PointProbe {
                column: "score".into(),
                candidates: 1
            }
        );
        // A selective range beats a broad point probe when both apply.
        let pred = Predicate::eq("grp", 3i64).and(Predicate::ge("score", 98i64));
        assert_eq!(
            t.plan_scan(&pred),
            ScanPlan::RangeProbe {
                column: "score".into(),
                candidates: 2
            }
        );
        // ...and vice versa.
        let pred = Predicate::eq("grp", 3i64).and(Predicate::ge("score", 0i64));
        assert!(matches!(t.plan_scan(&pred), ScanPlan::PointProbe { .. }));
        // OR forces the planner off every index.
        let pred = Predicate::eq("grp", 3i64).or(Predicate::ge("score", 95i64));
        assert_eq!(t.plan_scan(&pred), ScanPlan::FullScan { rows: 100 });
    }

    #[test]
    fn a_plan_builds_only_the_index_it_probes() {
        let t = scored_table(100);
        t.create_index("grp").unwrap();
        t.create_index("score").unwrap();
        let point = |column: &str, candidates| ScanPlan::PointProbe {
            column: column.into(),
            candidates,
        };
        // Nothing built: the first index pinned by equality is built, and
        // the one only bounded is not.
        let both = Predicate::ge("score", 0i64).and(Predicate::eq("grp", 3i64));
        assert_eq!(t.plan_scan(&both), point("grp", 10));
        assert_eq!(t.index_entries("grp"), Some(100));
        assert_eq!(t.index_entries("score"), Some(0));
        // A built index serves: the unbuilt one is neither built nor
        // costed as an empty one (which would win with 0 candidates).
        let pinned = Predicate::eq("grp", 3i64).and(Predicate::eq("score", 43i64));
        assert_eq!(t.plan_scan(&pinned), point("grp", 10));
        assert_eq!(t.index_entries("score"), Some(0));
        let rows = t.scan_at(&pinned, 100).unwrap();
        assert_eq!(rows, t.scan_at_full(&pinned, 100).unwrap());
        assert_eq!(rows.len(), 1);
        // A built index that loses to the walk: one more index is built.
        let wide = Predicate::ge("grp", 0i64).and(Predicate::eq("score", 42i64));
        assert_eq!(t.plan_scan(&wide), point("score", 1));
        assert_eq!(t.index_entries("score"), Some(100));
    }

    #[test]
    fn planner_probes_the_row_map_when_the_primary_key_is_pinned() {
        // Composite key: every column must be pinned by equality.
        let t = subs_table();
        t.create_index("forum").unwrap();
        for i in 0..30 {
            let (u, f) = (format!("U{}", i / 3), format!("F{}", i % 3));
            t.install(&key(&u, &f), arc(row![u.clone(), f.clone()]), i + 1);
        }
        let pinned = Predicate::eq("forum", "F1").and(Predicate::eq("user_id", "U4"));
        assert_eq!(t.plan_scan(&pinned), ScanPlan::KeyProbe { candidates: 1 });
        assert_eq!(t.scan_at(&pinned, 100).unwrap().len(), 1);
        // Half a key is no key: the index (or the walk) serves it, and an
        // IN list over one column of two pins nothing either.
        assert_eq!(
            t.plan_scan(&Predicate::eq("forum", "F1")),
            ScanPlan::PointProbe {
                column: "forum".into(),
                candidates: 10
            }
        );
        assert_eq!(
            t.plan_scan(&Predicate::eq("user_id", "U4")),
            ScanPlan::FullScan { rows: 30 }
        );
        let half = Predicate::eq("user_id", "U4")
            .and(Predicate::in_list("forum", vec![Value::Text("F1".into())]));
        assert!(matches!(t.plan_scan(&half), ScanPlan::MultiProbe { .. }));
        // A key pinned only under OR / NOT is not pinned.
        assert_eq!(
            t.plan_scan(&pinned.clone().or(Predicate::False)),
            ScanPlan::FullScan { rows: 30 }
        );

        // Single-column key: equality, or one probe per IN element; other
        // conjuncts ride along and are re-checked on the candidates.
        let t = scored_table(100);
        t.create_index("grp").unwrap();
        assert_eq!(
            t.plan_scan(&Predicate::eq("id", 42i64).and(Predicate::eq("grp", 2i64))),
            ScanPlan::KeyProbe { candidates: 1 }
        );
        let ids = vec![Value::Int(3), Value::Int(13), Value::Int(500)];
        let listed = Predicate::in_list("id", ids).and(Predicate::eq("grp", 3i64));
        assert_eq!(t.plan_scan(&listed), ScanPlan::KeyProbe { candidates: 3 });
        for ts in [0u64, 5, 14, 1000] {
            assert_eq!(
                t.scan_at(&listed, ts).unwrap(),
                t.scan_at_full(&listed, ts).unwrap(),
                "at ts {ts}"
            );
            assert_eq!(
                t.count_matching_at(&listed, ts).unwrap(),
                t.scan_at_full(&listed, ts).unwrap().len()
            );
        }
        // A list as long as the table loses to the walk.
        let all = Predicate::in_list("id", (0..100i64).map(Value::Int).collect());
        assert_eq!(t.plan_scan(&all), ScanPlan::FullScan { rows: 100 });
    }

    #[test]
    fn provably_empty_predicates_short_circuit_the_scan() {
        let t = scored_table(100);
        t.create_index("grp").unwrap();
        t.create_index("score").unwrap();
        let empty_preds = [
            Predicate::False,
            Predicate::in_list("grp", Vec::new()),
            Predicate::gt("score", 90i64).and(Predicate::lt("score", 10i64)),
            Predicate::eq("grp", 3i64).and(Predicate::False),
        ];
        for pred in &empty_preds {
            assert_eq!(t.plan_scan(pred), ScanPlan::Empty, "for [{pred}]");
            assert!(t.scan_at(pred, 1000).unwrap().is_empty());
            assert_eq!(
                t.scan_at(pred, 1000).unwrap(),
                t.scan_at_full(pred, 1000).unwrap()
            );
        }
        // A satisfiable window still plans a probe.
        assert!(matches!(
            t.plan_scan(&Predicate::ge("score", 95i64)),
            ScanPlan::RangeProbe { .. }
        ));
    }

    #[test]
    fn tombstone_heavy_slots_no_longer_inflate_probe_estimates() {
        // 100 rows in group 3; delete 95 of them. The slot still carries
        // 100 entries (tombstones await GC), but the estimate follows the
        // live count, so a latest probe costs 5, not 100.
        let schema = Schema::builder()
            .column("id", DataType::Int)
            .column("grp", DataType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap();
        let t = TableStore::new("tombs", schema);
        t.create_index("grp").unwrap();
        for i in 0..100i64 {
            t.install(&Key::single(i), arc(row![i, 3i64]), (i + 1) as u64);
        }
        for i in 0..95i64 {
            t.remove(&Key::single(i), 200 + i as u64);
        }
        let plan = t.plan_scan(&Predicate::eq("grp", 3i64));
        assert_eq!(
            plan,
            ScanPlan::PointProbe {
                column: "grp".into(),
                candidates: 5
            }
        );
        // Results stay exact on every path and timestamp, including time
        // travel back into the tombstoned window.
        for ts in [100u64, 250, 400] {
            assert_eq!(
                t.scan_at(&Predicate::eq("grp", 3i64), ts).unwrap(),
                t.scan_at_full(&Predicate::eq("grp", 3i64), ts).unwrap()
            );
        }
    }

    #[test]
    fn planned_paths_agree_with_the_full_scan_oracle() {
        let t = scored_table(60);
        t.create_index("grp").unwrap();
        t.create_index("score").unwrap();
        // Touch history: delete some rows, update others away from their
        // group, so candidate sets carry tombstones.
        for i in (0..60i64).step_by(7) {
            t.remove(&Key::single(i), 100 + i as u64);
        }
        for i in (1..60i64).step_by(11) {
            t.install(
                &Key::single(i),
                arc(row![i, 99i64, i + 1000]),
                200 + i as u64,
            );
        }
        let preds = [
            Predicate::eq("grp", 4i64),
            Predicate::in_list("grp", vec![Value::Int(1), Value::Int(99)]),
            Predicate::ge("score", 40i64).and(Predicate::lt("score", 55i64)),
            Predicate::gt("score", 1000i64),
            Predicate::eq("grp", 4i64).and(Predicate::ge("score", 30i64)),
            Predicate::eq("grp", 4i64).or(Predicate::ge("score", 58i64)),
            Predicate::ge("score", 40i64).negate(),
        ];
        // Latest, mid-history and pre-history timestamps.
        for ts in [0u64, 30, 120, 250, 1000] {
            for pred in &preds {
                assert_eq!(
                    t.scan_at(pred, ts).unwrap(),
                    t.scan_at_full(pred, ts).unwrap(),
                    "path diverged for [{pred}] at ts {ts}"
                );
            }
        }
    }

    #[test]
    fn in_list_scan_probes_the_index_and_merges() {
        let t = subs_table();
        t.create_index("forum").unwrap();
        for i in 0..30 {
            let u = format!("U{i}");
            let f = format!("F{}", i % 3);
            t.install(&key(&u, &f), arc(row![u.clone(), f.clone()]), i + 1);
        }
        let pred = Predicate::in_list(
            "forum",
            vec![Value::Text("F0".into()), Value::Text("F2".into())],
        );
        assert!(t.plan_scan(&pred).uses_index());
        let hits = t.scan_at(&pred, 100).unwrap();
        assert_eq!(hits.len(), 20);
        assert_eq!(hits, t.scan_at_full(&pred, 100).unwrap());
        // Empty list: index path, empty result.
        let pred = Predicate::in_list("forum", Vec::new());
        assert!(t.plan_scan(&pred).uses_index());
        assert!(t.scan_at(&pred, 100).unwrap().is_empty());
    }

    #[test]
    fn range_index_serves_time_travel_and_deletes() {
        let t = scored_table(20);
        t.create_index("score").unwrap();
        t.remove(&Key::single(15i64), 50);
        let pred = Predicate::ge("score", 10i64).and(Predicate::le("score", 16i64));
        // Latest: the deleted row is gone.
        assert_eq!(t.scan_at(&pred, 60).unwrap().len(), 6);
        // Below the delete it is still found through the index.
        assert_eq!(t.scan_at(&pred, 49).unwrap().len(), 7);
        // Before the rows existed: nothing.
        assert_eq!(t.scan_at(&pred, 5).unwrap().len(), 0);
    }

    #[test]
    fn range_index_backfill_covers_historical_versions() {
        let t = scored_table(10);
        t.remove(&Key::single(4i64), 30);
        // Index created after the delete: time travel below ts 30 must
        // still find the row through the index.
        t.create_index("score").unwrap();
        let pred = Predicate::ge("score", 4i64).and(Predicate::le("score", 4i64));
        assert!(t.plan_scan(&pred).uses_index());
        assert_eq!(t.scan_at(&pred, 29).unwrap().len(), 1);
        assert_eq!(t.scan_at(&pred, 30).unwrap().len(), 0);
    }

    #[test]
    fn gc_purges_tombstoned_index_entries() {
        let t = subs_table();
        t.create_index("forum").unwrap();
        let k = key("U1", "F2");
        t.install(&k, arc(row!["U1", "F2"]), 1);
        t.remove(&k, 2);
        t.install(&key("U2", "F1"), arc(row!["U2", "F1"]), 3);
        // A probe catches the index up: the unlinked F2 entry and the
        // live F1 entry.
        t.scan_at(&Predicate::eq("forum", "F1"), 3).unwrap();
        assert_eq!(t.index_entries("forum"), Some(2));
        t.gc_before(10);
        assert_eq!(
            t.index_entries("forum"),
            Some(1),
            "only the live entry remains"
        );
    }

    #[test]
    fn duplicate_index_rejected() {
        let t = subs_table();
        t.create_index("forum").unwrap();
        assert!(t.create_index("forum").is_err());
        assert!(t.create_index("no_such_column").is_err());
        assert_eq!(t.indexed_columns(), vec!["forum".to_string()]);
    }

    #[test]
    fn remove_and_time_travel() {
        let t = subs_table();
        let k = key("U1", "F2");
        t.install(&k, arc(row!["U1", "F2"]), 3);
        let before = t.remove(&k, 7);
        assert_eq!(before, Some(arc(row!["U1", "F2"])));
        assert_eq!(t.get_at(&k, 6), Some(arc(row!["U1", "F2"])));
        assert_eq!(t.get_at(&k, 7), None);
        assert!(t.key_modified_in(&k, 5, Ts::MAX));
        assert!(!t.key_modified_in(&k, 7, Ts::MAX));
    }

    #[test]
    fn predicate_conflict_uses_log_and_matches_full_scan() {
        let t = subs_table();
        t.install(&key("U1", "F1"), arc(row!["U1", "F1"]), 1);
        t.install(&key("U2", "F2"), arc(row!["U2", "F2"]), 5);

        // The change-log answer and the full-scan answer, which must agree.
        let both = |pred: &Predicate, after: Ts, upto: Ts| {
            let from_log = t.predicate_conflict_in(pred, after, upto, true).unwrap();
            let compiled = pred.compile(t.name(), t.schema()).unwrap();
            assert_eq!(from_log, t.full_scan_conflict_in(&compiled, after, upto));
            from_log
        };
        let pred_f2 = Predicate::eq("forum", "F2");
        // A write to F2 after ts 2 conflicts with the F2 predicate...
        assert_eq!(both(&pred_f2, 2, Ts::MAX), Some(key("U2", "F2")));
        // ...but not with an unrelated predicate, not before ts 5, and
        // not when the window closes at the write's own timestamp.
        assert_eq!(both(&Predicate::eq("forum", "F9"), 2, Ts::MAX), None);
        assert_eq!(both(&pred_f2, 5, Ts::MAX), None);
        assert_eq!(both(&pred_f2, 2, 5), None);
        assert_eq!(both(&pred_f2, 2, 6), Some(key("U2", "F2")));
    }

    #[test]
    fn predicate_conflict_sees_before_images_of_updates_and_deletes() {
        let t = subs_table();
        let k = key("U1", "F2");
        t.install(&k, arc(row!["U1", "F2"]), 2);
        // Update away from F2 at ts 4: a transaction that scanned for F2
        // at ts 3 must still see a conflict (its result set shrank). The
        // debug oracle cross-checks each answer against the full scan.
        t.install(&k, arc(row!["U1", "F2-moved"]), 4);
        let pred = Predicate::eq("forum", "F2");
        assert_eq!(
            t.predicate_conflict_in(&pred, 3, Ts::MAX, true).unwrap(),
            Some(k.clone())
        );
        // Delete at ts 6: same story for a scan taken at ts 5 looking for
        // the moved row.
        t.remove(&k, 6);
        let pred_moved = Predicate::eq("forum", "F2-moved");
        assert_eq!(
            t.predicate_conflict_in(&pred_moved, 5, Ts::MAX, true)
                .unwrap(),
            Some(k.clone())
        );
    }

    #[test]
    fn predicate_conflict_falls_back_after_log_truncation() {
        let t = subs_table();
        let k = key("U1", "F2");
        t.install(&k, arc(row!["U1", "F2"]), 2);
        t.install(&k, arc(row!["U1", "F2b"]), 5);
        // Truncate the log above ts 1: the log can no longer answer a
        // window starting at 1, but the full scan still can.
        t.changelog().truncate_before(3);
        let pred = Predicate::eq("user_id", "U1");
        let hit = t.predicate_conflict_in(&pred, 1, Ts::MAX, true).unwrap();
        assert!(hit.is_some(), "fallback must still detect the conflict");
    }

    #[test]
    fn gc_drops_history_and_dead_keys() {
        let t = subs_table();
        let k = key("U1", "F1");
        t.install(&k, arc(row!["U1", "F1"]), 1);
        t.install(&k, arc(row!["U1", "F1b"]), 2);
        t.remove(&k, 3);
        assert_eq!(t.version_count(), 2);
        let dropped = t.gc_before(10);
        assert_eq!(dropped, 2);
        assert_eq!(t.version_count(), 0);
        assert_eq!(t.count_at(10), 0);
        // The change log was truncated with the versions.
        assert!(t.changelog().is_empty());
        assert_eq!(t.changelog().low_water(), 10);
    }

    #[test]
    fn materialize_at_reflects_point_in_time() {
        let t = subs_table();
        t.install(&key("U1", "F1"), arc(row!["U1", "F1"]), 1);
        t.install(&key("U2", "F1"), arc(row!["U2", "F1"]), 5);
        let early = t.materialize_at(2);
        assert_eq!(early.len(), 1);
        let late = t.materialize_at(5);
        assert_eq!(late.len(), 2);
    }
}
