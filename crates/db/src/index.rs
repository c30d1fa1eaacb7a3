//! Secondary indexes ([`SecondaryIndex`]).
//!
//! Indexes map a column value to the primary keys whose rows carried that
//! value, together with the commit timestamp at which the key stopped
//! carrying it ([`TS_LIVE`] while it still does). Lookups return candidate
//! keys for a given read timestamp; visibility is always re-checked
//! against the version chain, so an index may over-approximate (return a
//! key whose visible row no longer matches) but must never
//! under-approximate.
//!
//! Maintenance is **lazy**: an index is a view of its table's change log
//! ([`crate::changelog`]), brought up to date when it is read and never
//! when rows are written. Each index records `through`, the timestamp
//! up to which it has applied every change. Before the planner, a probe
//! or an ordered walk reads an index, the table checks it against the
//! log's tail and, only if it is behind, replays the entries after
//! `through` (`SecondaryIndex::catch_up`): an entry's before image is
//! unlinked — its entry stamped with the entry's commit timestamp
//! instead of removed, so reads below the stamp still find the key — and
//! its after image inserted live. A caught-up index is exact at the
//! latest timestamp; commits never touch it.
//! When the log no longer reaches back to `through` (the ring evicted
//! entries the index had not applied) or the index was never built (a
//! new index, a restored snapshot), the catch-up rebuilds it from the
//! full version history instead. Garbage collection catches up every
//! built index before it truncates the log, so truncation never forces
//! a rebuild, and physically removes stamped-out entries (`purge_dead`)
//! once the versions that needed them are retired.
//!
//! Values sit in a `BTreeMap` ordered by [`Value::total_cmp`] — the same
//! total order predicates compare with, and the one `Value`'s `Eq` is
//! defined by — so one map answers every probe shape at any read
//! timestamp: point probes (`=`, and `IN (...)` one probe per element),
//! bounded range windows (`<`, `<=`, `>`, `>=`) and value-ordered walks.

use std::collections::{BTreeMap, HashMap};

use crate::changelog::{ChangeEntry, ChangeLog};
use crate::mvcc::{Ts, VersionChain, TS_LIVE};
use crate::predicate::ColumnBounds;
use crate::row::{Key, Row};
use crate::value::Value;

/// One index slot: the keys that carried (or still carry) a value, each
/// stamped with the timestamp it stopped carrying it, plus a maintained
/// count of the live ([`TS_LIVE`]-stamped) entries. The live count is the
/// planner's cost estimate ([`SecondaryIndex::candidate_count`]): it is
/// what a latest-timestamp probe actually returns, so tombstone-heavy
/// slots no longer inflate probe estimates between garbage collections.
#[derive(Debug, Default)]
struct Slot {
    keys: HashMap<Key, Ts>,
    live: usize,
}

impl Slot {
    /// The keys that may carry the slot's value for a read at `ts`.
    fn candidates_at(&self, ts: Ts) -> impl Iterator<Item = Key> + '_ {
        self.keys
            .iter()
            .filter(move |(_, &until)| until > ts)
            .map(|(k, _)| k.clone())
    }
}

/// An ordered, MVCC-stamped index over one column of a table.
#[derive(Debug, Default)]
pub struct SecondaryIndex {
    column: String,
    col_idx: usize,
    /// value -> key -> timestamp until which the key's row carried the
    /// value ([`TS_LIVE`] while it still does), values in total order. A
    /// key is a candidate for a read at `ts` iff its end stamp is
    /// strictly greater than `ts`.
    entries: BTreeMap<Value, Slot>,
    /// The timestamp up to which every change to the table has been
    /// applied; `None` until the first catch-up builds the index.
    through: Option<Ts>,
}

impl SecondaryIndex {
    /// Creates an index over `column` (resolved to `col_idx` in the
    /// schema), empty and unbuilt: the first catch-up fills it.
    pub fn new(column: impl Into<String>, col_idx: usize) -> Self {
        SecondaryIndex {
            column: column.into(),
            col_idx,
            entries: BTreeMap::new(),
            through: None,
        }
    }

    /// The indexed column name.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// True once a catch-up has built the index.
    pub(crate) fn is_built(&self) -> bool {
        self.through.is_some()
    }

    /// True if the index has applied every change up to `tail`, the
    /// table's [`ChangeLog::tail`].
    pub(crate) fn is_current(&self, tail: Ts) -> bool {
        self.through.is_some_and(|through| through >= tail)
    }

    /// Brings the index up to `upto`: replays the entries of `log` after
    /// `through`, or rebuilds from `rows` when the log no longer reaches
    /// back that far or the index was never built. Every change to the
    /// table up to `upto` must be in `log`: `upto` is at least its tail.
    /// The caller holds the table's `rows` lock, under which commits
    /// install and append, so the chains and the log cannot move while
    /// this runs and `rows` reflects exactly the changes in the log.
    pub(crate) fn catch_up(
        &mut self,
        log: &ChangeLog,
        rows: &HashMap<Key, VersionChain>,
        upto: Ts,
    ) {
        debug_assert!(upto >= log.tail(), "an index cannot skip logged changes");
        let replayed = self.through.is_some_and(|through| {
            log.scan_after(through, |entry| {
                self.apply(entry);
                None::<()>
            })
            .is_ok()
        });
        if !replayed {
            self.rebuild(rows);
        }
        self.through = Some(upto);
    }

    /// Applies one committed change: the before image's value is
    /// unlinked at the commit timestamp, the after image's inserted live.
    fn apply(&mut self, entry: &ChangeEntry) {
        if let Some(before) = &entry.before {
            self.unlink(&entry.key, before, entry.commit_ts);
        }
        if let Some(after) = &entry.after {
            self.insert(&entry.key, after);
        }
    }

    /// Refills the index from the full version history (oldest first),
    /// stamping each value with its version's end timestamp, so snapshot
    /// and time-travel scans through the index see rows that were
    /// already updated away or deleted.
    fn rebuild(&mut self, rows: &HashMap<Key, VersionChain>) {
        self.entries.clear();
        for (key, chain) in rows {
            for version in chain.versions() {
                self.record(key, &version.row, version.end_ts);
            }
        }
    }

    /// Records that `key`'s row carried `row[col]` until `until`
    /// ([`TS_LIVE`] for the live row). Backfill replays a chain's
    /// versions oldest-first; later stamps only ever extend earlier ones,
    /// so a plain max merge is correct. NULLs are never indexed.
    pub fn record(&mut self, key: &Key, row: &Row, until: Ts) {
        let Some(v) = row.get(self.col_idx).filter(|v| !v.is_null()) else {
            return;
        };
        let slot = self.entries.entry(v.clone()).or_default();
        let stamp = slot.keys.entry(key.clone()).or_insert(0);
        // A fresh entry, or a dead stamp extended to TS_LIVE (re-insert
        // of a previously unlinked value), becomes live.
        if until == TS_LIVE && *stamp != TS_LIVE {
            slot.live += 1;
        }
        *stamp = (*stamp).max(until);
    }

    /// Records that `key`'s live row now carries `row[col]`.
    pub fn insert(&mut self, key: &Key, row: &Row) {
        self.record(key, row, TS_LIVE);
    }

    /// Unlinks `key` from `row[col]`: stamps the entry with the closing
    /// commit timestamp (the row stopped carrying the value at
    /// `unlinked_at` — it was deleted, or updated away from it) instead
    /// of removing it, so reads below the stamp still find the key;
    /// `purge_dead` removes it once GC retires the window. An entry the
    /// index never saw inserted is recorded already closed: a fork's
    /// seed row — its parent's row, copied into the fork's chain on the
    /// first write — has no change-log entry of its own, only the before
    /// image of that write.
    pub fn unlink(&mut self, key: &Key, row: &Row, unlinked_at: Ts) {
        let Some(v) = row.get(self.col_idx).filter(|v| !v.is_null()) else {
            return;
        };
        let entry = self
            .entries
            .get_mut(v)
            .and_then(|slot| Some((slot.keys.get_mut(key)?, &mut slot.live)));
        match entry {
            Some((stamp, live)) if *stamp == TS_LIVE => {
                *stamp = unlinked_at;
                *live -= 1;
            }
            Some((stamp, _)) => *stamp = (*stamp).max(unlinked_at),
            None => self.record(key, row, unlinked_at),
        }
    }

    /// Candidate keys whose rows may carry `value` for a read at `ts`.
    pub fn lookup_at(&self, value: &Value, ts: Ts) -> Vec<Key> {
        self.entries
            .get(value)
            .map(|slot| slot.candidates_at(ts).collect())
            .unwrap_or_default()
    }

    /// The planner's cost estimate for a probe on `value`, in O(log V):
    /// the slot's maintained *live* entry count. This is exactly what a
    /// latest-timestamp probe returns (eager unlink keeps the stamps
    /// current), so a slot that accumulated tombstones between garbage
    /// collections no longer inflates the estimate. Time-travel probes can
    /// return up to the tombstoned total — the estimate targets the
    /// common latest-read case and cost errors never affect results (the
    /// chosen path still over-approximates and re-checks).
    pub fn candidate_count(&self, value: &Value) -> usize {
        self.entries.get(value).map_or(0, |slot| slot.live)
    }

    /// Candidate keys whose rows may carry a value inside `bounds` for a
    /// read at `ts`. Candidates can repeat across values a key carried in
    /// overlapping windows; the caller deduplicates (the scan path's
    /// key-ordered merge does so for free).
    pub fn range_at(&self, bounds: &ColumnBounds, ts: Ts) -> Vec<Key> {
        self.range_slots(bounds)
            .flat_map(|(_, slot)| slot.candidates_at(ts))
            .collect()
    }

    /// The planner's cost estimate for a probe over `bounds`, counting at
    /// most `cap` *live* entries (the per-slot counters; see
    /// [`SecondaryIndex::candidate_count`] for why live, not total) before
    /// giving up. Once the count reaches the best competing estimate the
    /// path has already lost, so the walk stops instead of degenerating
    /// into an O(table) count.
    pub fn candidate_count_capped(&self, bounds: &ColumnBounds, cap: usize) -> usize {
        let mut n = 0;
        for (_, slot) in self.range_slots(bounds) {
            n += slot.live;
            if n >= cap {
                break;
            }
        }
        n
    }

    /// Walks the value slots inside `bounds` in value order — descending
    /// when `descending` — calling `visit` with each distinct value and
    /// its candidate keys at `ts` (values whose slots hold no candidate
    /// at `ts` are skipped). `visit` returns `false` to stop the walk;
    /// the streamed `ORDER BY ... LIMIT` scan path uses this to consume
    /// values in output order and stop at the limit instead of
    /// materialising and re-sorting the whole result. Candidates carry
    /// the usual over-approximation contract: the caller re-checks
    /// visibility, the row's current column value, and the predicate.
    pub fn ordered_walk_at(
        &self,
        bounds: &ColumnBounds,
        descending: bool,
        ts: Ts,
        mut visit: impl FnMut(&Value, Vec<Key>) -> bool,
    ) {
        let mut step = |(value, slot): (&Value, &Slot)| -> bool {
            let keys: Vec<Key> = slot.candidates_at(ts).collect();
            keys.is_empty() || visit(value, keys)
        };
        if descending {
            self.range_slots(bounds).rev().all(&mut step);
        } else {
            self.range_slots(bounds).all(&mut step);
        }
    }

    /// The value slots inside `bounds`. Guards the provably-empty window
    /// (`BTreeMap::range` panics on inverted bounds).
    fn range_slots<'a>(
        &'a self,
        bounds: &'a ColumnBounds,
    ) -> impl DoubleEndedIterator<Item = (&'a Value, &'a Slot)> + 'a {
        let range = (bounds.lower.as_ref(), bounds.upper.as_ref());
        (!bounds.is_empty())
            .then(|| self.entries.range::<Value, _>(range))
            .into_iter()
            .flatten()
    }

    /// Removes entries unlinked at or before `horizon` — their versions
    /// are no longer visible to any reader once GC has run at `horizon`.
    /// Returns the number of entries removed.
    pub fn purge_dead(&mut self, horizon: Ts) -> usize {
        let mut purged = 0;
        for slot in self.entries.values_mut() {
            let before = slot.keys.len();
            let mut removed_live = 0;
            slot.keys.retain(|_, until| {
                let keep = *until > horizon;
                if !keep && *until == TS_LIVE {
                    removed_live += 1;
                }
                keep
            });
            slot.live -= removed_live;
            purged += before - slot.keys.len();
        }
        self.entries.retain(|_, slot| !slot.keys.is_empty());
        purged
    }

    /// Total (value, key) entries, live and tombstoned. Exposed so tests
    /// and stats can observe unlink bookkeeping and lazy builds.
    pub fn entry_count(&self) -> usize {
        self.entries.values().map(|slot| slot.keys.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use std::ops::Bound;

    use super::*;
    use crate::row;

    fn text(s: &str) -> Value {
        Value::Text(s.into())
    }

    fn bounds(lower: Bound<Value>, upper: Bound<Value>) -> ColumnBounds {
        ColumnBounds { lower, upper }
    }

    fn int_bounds(lo: i64, hi: i64) -> ColumnBounds {
        bounds(
            Bound::Included(Value::Int(lo)),
            Bound::Included(Value::Int(hi)),
        )
    }

    /// An index over `score` (column 1) with keys 1..=n carrying score 10*i.
    fn scored_index(n: i64) -> SecondaryIndex {
        let mut idx = SecondaryIndex::new("score", 1);
        for i in 1..=n {
            idx.insert(&Key::single(i), &row![i, 10 * i]);
        }
        idx
    }

    fn sorted(mut keys: Vec<Key>) -> Vec<Key> {
        keys.sort();
        keys
    }

    #[test]
    fn insert_and_lookup() {
        let mut idx = SecondaryIndex::new("forum", 1);
        idx.insert(&Key::single(1i64), &row![1i64, "F1"]);
        idx.insert(&Key::single(2i64), &row![2i64, "F2"]);
        idx.insert(&Key::single(3i64), &row![3i64, "F2"]);

        assert_eq!(
            sorted(idx.lookup_at(&text("F2"), 0)),
            vec![Key::single(2i64), Key::single(3i64)]
        );
        assert!(idx.lookup_at(&text("F9"), 0).is_empty());
        assert_eq!(idx.entry_count(), 3);
        // Point probes agree with `Value`'s numeric equality.
        let idx = scored_index(3);
        assert_eq!(
            idx.lookup_at(&Value::Float(20.0), 0),
            vec![Key::single(2i64)]
        );
    }

    #[test]
    fn null_values_are_not_indexed() {
        let mut idx = SecondaryIndex::new("forum", 1);
        idx.insert(&Key::single(1i64), &row![1i64, Value::Null]);
        assert_eq!(idx.entry_count(), 0);
    }

    #[test]
    fn unlink_hides_keys_from_later_reads_only() {
        let mut idx = SecondaryIndex::new("score", 1);
        let k = Key::single(1i64);
        let r = row![1i64, 30i64];
        idx.insert(&k, &r);
        // Deleted at commit ts 5.
        idx.unlink(&k, &r, 5);
        assert!(
            idx.lookup_at(&Value::Int(30), 5).is_empty(),
            "eagerly unlinked"
        );
        assert!(idx.range_at(&int_bounds(0, 100), 5).is_empty());
        assert_eq!(idx.lookup_at(&Value::Int(30), 4), vec![k.clone()]);
        assert_eq!(idx.range_at(&int_bounds(0, 100), 4), vec![k.clone()]);

        // Reinserted later: live again, and history below 5 still works.
        idx.insert(&k, &r);
        assert_eq!(idx.lookup_at(&Value::Int(30), TS_LIVE - 1), vec![k.clone()]);
        assert_eq!(idx.lookup_at(&Value::Int(30), 4), vec![k.clone()]);
    }

    #[test]
    fn update_unlinks_the_old_value() {
        let mut idx = SecondaryIndex::new("score", 1);
        let k = Key::single(1i64);
        let before = row![1i64, 30i64];
        let after = row![1i64, 70i64];
        idx.insert(&k, &before);
        // Commit at ts 5 updates 30 -> 70: the table unlinks the before
        // image and inserts the after image.
        idx.unlink(&k, &before, 5);
        idx.insert(&k, &after);

        assert!(idx.lookup_at(&Value::Int(30), 5).is_empty());
        assert_eq!(idx.range_at(&int_bounds(60, 80), 5), vec![k.clone()]);
        // A snapshot read below the update still finds the key via 30.
        assert_eq!(idx.lookup_at(&Value::Int(30), 4), vec![k.clone()]);
        // Below the update the new slot still lists the key — a stamp
        // records when a key STOPPED carrying a value, not when it began,
        // so the candidate set over-approximates (the scan re-checks the
        // visible row) but never under-approximates.
        assert_eq!(idx.range_at(&int_bounds(60, 80), 4), vec![k.clone()]);
        // A window spanning both values yields the key once per slot;
        // callers dedup.
        assert_eq!(idx.range_at(&int_bounds(0, 100), 4), vec![k.clone(), k]);
    }

    #[test]
    fn purge_dead_drops_only_entries_below_the_horizon() {
        let mut idx = scored_index(3);
        idx.unlink(&Key::single(1i64), &row![1i64, 10i64], 3);
        idx.unlink(&Key::single(2i64), &row![2i64, 20i64], 9);

        assert_eq!(idx.purge_dead(5), 1, "only the ts-3 tombstone is dead");
        assert_eq!(idx.range_at(&int_bounds(0, 25), 2), vec![Key::single(2i64)]);
        assert_eq!(idx.purge_dead(9), 1);
        assert_eq!(idx.entry_count(), 1);
        assert_eq!(
            idx.range_at(&int_bounds(0, 100), 0),
            vec![Key::single(3i64)]
        );
    }

    #[test]
    fn live_counters_track_stamp_purge_and_resurrection() {
        let mut idx = SecondaryIndex::new("forum", 1);
        let k1 = Key::single(1i64);
        let k2 = Key::single(2i64);
        let r = row![1i64, "F1"];
        idx.insert(&k1, &r);
        idx.insert(&k2, &row![2i64, "F1"]);
        assert_eq!(idx.candidate_count(&text("F1")), 2);

        // Unlink tombstones without shrinking entry_count — but the
        // planner estimate follows the live count.
        idx.unlink(&k1, &r, 5);
        assert_eq!(idx.entry_count(), 2);
        assert_eq!(idx.candidate_count(&text("F1")), 1);
        // A second unlink of the same (already dead) entry is a no-op.
        idx.unlink(&k1, &r, 7);
        assert_eq!(idx.candidate_count(&text("F1")), 1);

        // Re-insert resurrects the entry: live again.
        idx.insert(&k1, &r);
        assert_eq!(idx.candidate_count(&text("F1")), 2);

        // Purge after another unlink drops the dead entry and leaves the
        // counters exact.
        idx.unlink(&k2, &row![2i64, "F1"], 9);
        assert_eq!(idx.purge_dead(9), 1);
        assert_eq!(idx.candidate_count(&text("F1")), 1);
        assert_eq!(idx.entry_count(), 1);
    }

    #[test]
    fn range_live_counters_cost_probes_without_tombstones() {
        let mut idx = scored_index(10);
        for i in 1..=5i64 {
            idx.unlink(&Key::single(i), &row![i, 10 * i], 50);
        }
        // The estimate over a window of tombstoned slots is their live
        // count (0), while the probe itself still serves time travel.
        assert_eq!(idx.candidate_count_capped(&int_bounds(10, 50), 100), 0);
        assert_eq!(idx.candidate_count_capped(&int_bounds(10, 100), 100), 5);
        assert_eq!(idx.range_at(&int_bounds(10, 50), 49).len(), 5);
        assert!(idx.range_at(&int_bounds(10, 50), 50).is_empty());
    }

    #[test]
    fn range_probe_returns_keys_inside_the_window() {
        let idx = scored_index(5);
        assert_eq!(
            sorted(idx.range_at(&int_bounds(20, 40), TS_LIVE - 1)),
            vec![Key::single(2i64), Key::single(3i64), Key::single(4i64)]
        );
        // Exclusive ends trim the boundary values.
        let hits = idx.range_at(
            &bounds(
                Bound::Excluded(Value::Int(20)),
                Bound::Excluded(Value::Int(40)),
            ),
            0,
        );
        assert_eq!(hits, vec![Key::single(3i64)]);
        // Unbounded sides work.
        let hits = idx.range_at(
            &bounds(Bound::Unbounded, Bound::Included(Value::Int(20))),
            0,
        );
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn empty_and_inverted_windows_probe_nothing() {
        let idx = scored_index(3);
        assert!(idx.range_at(&int_bounds(25, 25), 0).is_empty());
        assert!(idx.range_at(&int_bounds(30, 10), 0).is_empty(), "inverted");
        assert!(
            idx.range_at(
                &bounds(
                    Bound::Excluded(Value::Int(20)),
                    Bound::Included(Value::Int(20)),
                ),
                0,
            )
            .is_empty(),
            "half-open single point"
        );
        assert_eq!(idx.candidate_count_capped(&int_bounds(30, 10), 10), 0);
        let mut visited = 0;
        idx.ordered_walk_at(&int_bounds(30, 10), false, 0, |_, _| {
            visited += 1;
            true
        });
        assert_eq!(visited, 0);
    }

    #[test]
    fn capped_count_stops_early_but_never_undercounts_small_windows() {
        let idx = scored_index(100);
        assert_eq!(idx.candidate_count_capped(&int_bounds(10, 50), 1000), 5);
        // The cap short-circuits a wide window.
        let capped = idx.candidate_count_capped(&int_bounds(0, 10_000), 7);
        assert!((7..100).contains(&capped), "stopped early at {capped}");
    }
}
