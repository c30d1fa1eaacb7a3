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
//! up to which it has applied every change. Before the planner or a
//! probe reads an index, the table checks it against the log's tail
//! and, only if it is behind, replays the entries after `through`
//! (`SecondaryIndex::catch_up`): an entry's before image is
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
//! and bounded range windows (`<`, `<=`, `>`, `>=`). Within a value, a
//! slot keeps its keys in primary-key order too, so every probe of one
//! slot hands out its candidates sorted and unique: a point probe needs
//! no sort before the scan visits it in key order. Most values of a
//! provenance column (a request id, a commit timestamp) are held by one
//! key, so a slot keeps its first key inline and builds its ordered map
//! only when the value gets a second key: a bulk load of a column of
//! distinct values builds one tree, over the values, and none per value.

use std::collections::BTreeMap;

use crate::changelog::{ChangeEntry, ChangeLog};
use crate::mvcc::{Ts, VersionChain, TS_LIVE};
use crate::predicate::ColumnBounds;
use crate::row::{Key, KeyMap, Row};
use crate::value::Value;

/// One index slot: the keys that carried (or still carry) a value, in
/// primary-key order, each stamped with the timestamp it stopped
/// carrying it, plus a maintained count of the live
/// ([`TS_LIVE`]-stamped) entries. The order is what a scan returns, so
/// a probe of one slot is already in output order (the ordered map
/// costs a rebuild or catch-up O(log n) key comparisons per entry; a
/// hash map would cost every probe a sort). The live count is the
/// planner's cost estimate ([`SecondaryIndex::candidate_count`]): it is
/// what a latest-timestamp probe actually returns, so tombstone-heavy
/// slots no longer inflate probe estimates between garbage collections.
#[derive(Debug)]
struct Slot {
    keys: SlotKeys,
    live: usize,
}

/// A slot's keys. Most values of a provenance column are held by one key
/// only, so the first key is kept inline and the ordered map is built
/// when a second key arrives; a purge that leaves one key moves it back
/// inline. A slot never holds no key: an emptied slot is dropped.
#[derive(Debug)]
enum SlotKeys {
    One(Key, Ts),
    /// Two or more keys.
    Many(BTreeMap<Key, Ts>),
}

impl Slot {
    /// A slot holding `key` alone, stamped `until`.
    fn one(key: Key, until: Ts) -> Slot {
        let live = usize::from(until == TS_LIVE);
        Slot {
            keys: SlotKeys::One(key, until),
            live,
        }
    }

    /// A slot over (key, stamp) pairs in strictly increasing key order.
    fn from_sorted(mut entries: impl ExactSizeIterator<Item = (Key, Ts)>) -> Slot {
        if entries.len() == 1 {
            let (key, until) = entries.next().expect("one entry");
            return Slot::one(key, until);
        }
        let keys: BTreeMap<Key, Ts> = entries.collect();
        let live = keys.values().filter(|&&until| until == TS_LIVE).count();
        Slot {
            keys: SlotKeys::Many(keys),
            live,
        }
    }

    /// The (key, stamp) entries, in key order.
    fn entries(&self) -> impl Iterator<Item = (&Key, &Ts)> {
        let (one, many) = match &self.keys {
            SlotKeys::One(key, until) => (Some((key, until)), None),
            SlotKeys::Many(keys) => (None, Some(keys.iter())),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }

    fn len(&self) -> usize {
        match &self.keys {
            SlotKeys::One(..) => 1,
            SlotKeys::Many(keys) => keys.len(),
        }
    }

    /// The stamp of `key`, if the slot holds it.
    fn stamp_mut(&mut self, key: &Key) -> Option<&mut Ts> {
        match &mut self.keys {
            SlotKeys::One(held, until) => (held == key).then_some(until),
            SlotKeys::Many(keys) => keys.get_mut(key),
        }
    }

    /// Extends `key`'s stamp to at least `until`, adding the key if the
    /// slot does not hold it.
    fn record(&mut self, key: &Key, until: Ts) {
        let stamp = match &mut self.keys {
            SlotKeys::One(held, stamp) if held == key => stamp,
            SlotKeys::Many(keys) => keys.entry(key.clone()).or_insert(0),
            SlotKeys::One(held, stamp) => {
                let first = (held.clone(), *stamp);
                self.keys = SlotKeys::Many(BTreeMap::from([first]));
                return self.record(key, until);
            }
        };
        // A fresh entry, or a dead stamp extended to TS_LIVE (re-insert
        // of a previously unlinked value), becomes live.
        let revived = until == TS_LIVE && *stamp != TS_LIVE;
        *stamp = (*stamp).max(until);
        self.live += usize::from(revived);
    }

    /// Stamps `key` with `at` if it is live (a dead stamp only grows).
    /// False if the slot does not hold `key`.
    fn unlink(&mut self, key: &Key, at: Ts) -> bool {
        let Some(stamp) = self.stamp_mut(key) else {
            return false;
        };
        let was_live = *stamp == TS_LIVE;
        *stamp = if was_live { at } else { (*stamp).max(at) };
        self.live -= usize::from(was_live);
        true
    }

    /// Drops the keys unlinked at or before `horizon` and recounts the
    /// live ones. False if no key is left.
    fn purge(&mut self, horizon: Ts) -> bool {
        match &mut self.keys {
            SlotKeys::One(_, until) => *until > horizon,
            SlotKeys::Many(keys) => {
                keys.retain(|_, until| *until > horizon);
                self.live = keys.values().filter(|&&until| until == TS_LIVE).count();
                if keys.len() == 1 {
                    let (key, until) = keys.pop_first().expect("one key");
                    self.keys = SlotKeys::One(key, until);
                }
                self.len() > 0
            }
        }
    }

    /// The keys that may carry the slot's value for a read at `ts`,
    /// strictly increasing.
    fn candidates_at(&self, ts: Ts) -> impl Iterator<Item = Key> + '_ {
        self.entries()
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
    pub(crate) fn catch_up(&mut self, log: &ChangeLog, rows: &KeyMap<VersionChain>, upto: Ts) {
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

    /// Refills the index from the full version history, stamping each
    /// value with its version's end timestamp, so snapshot and
    /// time-travel scans through the index see rows that were already
    /// updated away or deleted. One sort instead of one tree descent per
    /// version: every (value, key, end stamp) is gathered by reference,
    /// sorted by value and key, merged to the largest stamp per (value,
    /// key) — what [`SecondaryIndex::record`] folds — and both levels of
    /// the map are bulk-loaded from the sorted runs. NULLs are never
    /// indexed.
    fn rebuild(&mut self, rows: &KeyMap<VersionChain>) {
        let mut stamps: Vec<(&Value, &Key, Ts)> = rows
            .iter()
            .flat_map(|(key, chain)| chain.versions().iter().map(move |v| (key, v)))
            .filter_map(|(key, v)| Some((v.row.get(self.col_idx)?, key, v.end_ts)))
            .filter(|(value, _, _)| !value.is_null())
            .collect();
        // The largest stamp sorts first within a (value, key) and is kept.
        stamps.sort_unstable_by(|a, b| a.0.cmp(b.0).then(a.1.cmp(b.1)).then(b.2.cmp(&a.2)));
        stamps.dedup_by(|later, kept| later.0 == kept.0 && later.1 == kept.1);
        self.entries = stamps
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| {
                let slot = Slot::from_sorted(run.iter().map(|&(_, k, ts)| (k.clone(), ts)));
                (run[0].0.clone(), slot)
            })
            .collect();
    }

    /// Records that `key`'s row carried `row[col]` until `until`
    /// ([`TS_LIVE`] for the live row). Backfill replays a chain's
    /// versions oldest-first; later stamps only ever extend earlier ones,
    /// so a plain max merge is correct. NULLs are never indexed.
    pub fn record(&mut self, key: &Key, row: &Row, until: Ts) {
        let Some(v) = row.get(self.col_idx).filter(|v| !v.is_null()) else {
            return;
        };
        match self.entries.get_mut(v) {
            Some(slot) => slot.record(key, until),
            None => {
                self.entries
                    .insert(v.clone(), Slot::one(key.clone(), until));
            }
        }
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
        let unlinked = (self.entries.get_mut(v)).is_some_and(|slot| slot.unlink(key, unlinked_at));
        if !unlinked {
            self.record(key, row, unlinked_at);
        }
    }

    /// Candidate keys whose rows may carry `value` for a read at `ts`,
    /// strictly increasing.
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
    /// read at `ts`, in value order and, within a value, in key order.
    /// Candidates can repeat across values a key carried in overlapping
    /// windows; the caller sorts and deduplicates them.
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

    /// The value slots inside `bounds`. Guards the provably-empty window
    /// (`BTreeMap::range` panics on inverted bounds).
    fn range_slots<'a>(
        &'a self,
        bounds: &'a ColumnBounds,
    ) -> impl Iterator<Item = (&'a Value, &'a Slot)> + 'a {
        let range = (bounds.lower.as_ref(), bounds.upper.as_ref());
        (!bounds.is_empty())
            .then(|| self.entries.range::<Value, _>(range))
            .into_iter()
            .flatten()
    }

    /// Removes entries unlinked at or before `horizon` — their versions
    /// are no longer visible to any reader once GC has run at `horizon` —
    /// and recounts each slot's live entries. Returns the number of
    /// entries removed.
    pub fn purge_dead(&mut self, horizon: Ts) -> usize {
        let before = self.entry_count();
        self.entries.retain(|_, slot| slot.purge(horizon));
        before - self.entry_count()
    }

    /// Total (value, key) entries, live and tombstoned. Exposed so tests
    /// and stats can observe unlink bookkeeping and lazy builds.
    pub fn entry_count(&self) -> usize {
        self.entries.values().map(Slot::len).sum()
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
    }

    #[test]
    fn capped_count_stops_early_but_never_undercounts_small_windows() {
        let idx = scored_index(100);
        assert_eq!(idx.candidate_count_capped(&int_bounds(10, 50), 1000), 5);
        // The cap short-circuits a wide window.
        let capped = idx.candidate_count_capped(&int_bounds(0, 10_000), 7);
        assert!((7..100).contains(&capped), "stopped early at {capped}");
    }

    #[test]
    fn slots_move_between_one_key_and_many() {
        let mut idx = SecondaryIndex::new("forum", 1);
        let inline = |idx: &SecondaryIndex| {
            let slot = idx.entries.get(&text("F1"));
            slot.map(|slot| matches!(slot.keys, SlotKeys::One(..)))
        };
        let (k1, k2) = (Key::single(1i64), Key::single(2i64));
        idx.insert(&k1, &row![1i64, "F1"]);
        assert_eq!(inline(&idx), Some(true), "the first key is inline");
        idx.insert(&k2, &row![2i64, "F1"]);
        assert_eq!(inline(&idx), Some(false), "a second key builds the map");
        assert_eq!(idx.lookup_at(&text("F1"), 0), [k1.clone(), k2.clone()]);

        // Purged down to one key: inline again, with its live count.
        idx.unlink(&k1, &row![1i64, "F1"], 4);
        assert_eq!(idx.purge_dead(4), 1);
        assert_eq!(inline(&idx), Some(true));
        assert_eq!(idx.candidate_count(&text("F1")), 1);
        assert_eq!(idx.lookup_at(&text("F1"), 0), vec![k2.clone()]);

        // ... and to none: the slot goes.
        idx.unlink(&k2, &row![2i64, "F1"], 6);
        assert_eq!(idx.candidate_count(&text("F1")), 0);
        assert_eq!(idx.lookup_at(&text("F1"), 5), [k2]);
        assert_eq!(idx.purge_dead(6), 1);
        assert_eq!(inline(&idx), None);
        assert_eq!(idx.entry_count(), 0);
    }

    mod slot_order {
        use std::sync::Arc;

        use proptest::prelude::*;

        use super::*;

        /// Indexed values: five slots, and NULL (3), which is never
        /// indexed.
        fn value(v: u8) -> Value {
            match v {
                3 => Value::Null,
                v => Value::Int(v.into()),
            }
        }

        /// Single and composite keys, so the key order compares lengths
        /// and later columns too.
        fn key(k: u8) -> Key {
            match k % 3 {
                0 => Key::single(i64::from(k / 3)),
                1 => Key::new(vec![Value::Int(i64::from(k / 3)), Value::Int(-1)]),
                _ => Key::new(vec![Value::Int(i64::from(k / 3 + 1)), text("k")]),
            }
        }

        fn indexed(v: u8) -> Row {
            row![0i64, value(v)]
        }

        #[derive(Debug, Clone)]
        enum Op {
            Record(u8, u8, Ts),
            Insert(u8, u8),
            Unlink(u8, u8, Ts),
            PurgeDead(Ts),
            /// Rebuild from chains, as [`chains`] commits them.
            Rebuild(Vec<(u8, Vec<u8>)>),
        }

        /// Mostly single-entry steps over nine keys and five values, so
        /// slots often hold one key and often several; three in fourteen
        /// purge, one rebuilds. End stamps are small commit timestamps,
        /// or live.
        fn op() -> impl Strategy<Value = Op> {
            let chains =
                prop::collection::vec((0u8..18, prop::collection::vec(0u8..7, 1..4)), 0..6);
            (0u8..14, 0u8..9, 0u8..6, 1u64..13, chains).prop_map(|(kind, k, v, t, chains)| {
                let stamp = if t == 12 { TS_LIVE } else { t };
                match kind {
                    0..=2 => Op::Record(k, v, stamp),
                    3..=5 => Op::Insert(k, v),
                    6..=9 => Op::Unlink(k, v, t),
                    10..=12 => Op::PurgeDead(t),
                    _ => Op::Rebuild(chains),
                }
            })
        }

        /// The index's contract as a flat list of (value, key, end
        /// stamp) entries, kept in no order.
        #[derive(Default)]
        struct Model(Vec<(Value, Key, Ts)>);

        impl Model {
            fn entry(&mut self, value: &Value, key: &Key) -> Option<&mut Ts> {
                let found = self.0.iter_mut().find(|(v, k, _)| v == value && k == key);
                found.map(|(_, _, until)| until)
            }

            fn record(&mut self, key: &Key, row: &Row, until: Ts) {
                let value = row[1].clone();
                if value.is_null() {
                    return;
                }
                match self.entry(&value, key) {
                    Some(stamp) => *stamp = (*stamp).max(until),
                    None => self.0.push((value, key.clone(), until)),
                }
            }

            fn unlink(&mut self, key: &Key, row: &Row, at: Ts) {
                let value = row[1].clone();
                match self.entry(&value, key) {
                    Some(stamp) if *stamp == TS_LIVE => *stamp = at,
                    Some(stamp) => *stamp = (*stamp).max(at),
                    None => self.record(key, row, at),
                }
            }

            /// The sorted candidates of `value` at `ts`.
            fn candidates_at(&self, value: &Value, ts: Ts) -> Vec<Key> {
                let mut keys: Vec<Key> = (self.0.iter())
                    .filter(|(v, _, until)| v == value && *until > ts)
                    .map(|(_, k, _)| k.clone())
                    .collect();
                keys.sort();
                keys
            }

            fn live(&self, value: &Value) -> usize {
                let live = |(v, _, until): &&(Value, Key, Ts)| v == value && *until == TS_LIVE;
                self.0.iter().filter(live).count()
            }
        }

        /// Per key, one commit per step, the steps committed in turn at
        /// ts 1, 2, ...: a delete for step 4, for step 5 or 6 a value no
        /// other key holds, else [`value`]'s.
        fn chains(steps: &[(u8, Vec<u8>)]) -> KeyMap<VersionChain> {
            let mut rows = KeyMap::<VersionChain>::default();
            let mut ts = 0;
            for (k, steps) in steps {
                let chain = rows.entry(key(*k)).or_default();
                for &step in steps {
                    ts += 1;
                    let own = Value::Int(100 * i64::from(step) + i64::from(*k));
                    match step {
                        4 => chain.remove(ts),
                        5 | 6 => chain.install(ts, Arc::new(row![0i64, own])),
                        v => chain.install(ts, Arc::new(indexed(v))),
                    };
                }
            }
            rows
        }

        /// Every slot: its value, its (key, stamp) entries, inline or in
        /// a map, and its live count. A slot holds a key, and inline
        /// exactly when it holds one.
        fn slots(idx: &SecondaryIndex) -> Vec<String> {
            let slot = |(v, s): (&Value, &Slot)| {
                assert_eq!(matches!(s.keys, SlotKeys::One(..)), s.len() == 1, "{s:?}");
                assert!(s.len() > 0);
                format!("{v:?} {:?} live {}", s.keys, s.live)
            };
            idx.entries.iter().map(slot).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(
                std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(256)
            ))]

            /// The sorted rebuild equals the per-version fold it replaced
            /// (one `record` per version), on chains with updates,
            /// deletes, re-inserts, NULLs and values one key holds, slot
            /// by slot, inline or in a map.
            #[test]
            fn a_sorted_rebuild_equals_the_per_version_fold(
                steps in prop::collection::vec((0u8..18, prop::collection::vec(0u8..7, 1..6)), 0..24)
            ) {
                let rows = chains(&steps);
                let mut sorted = SecondaryIndex::new("v", 1);
                sorted.rebuild(&rows);
                let mut folded = SecondaryIndex::new("v", 1);
                for (key, chain) in &rows {
                    for version in chain.versions() {
                        folded.record(key, &version.row, version.end_ts);
                    }
                }
                prop_assert_eq!(slots(&sorted), slots(&folded));
            }

            /// Every slot hands out its candidates strictly increasing,
            /// equal to the model's sorted candidates, at every read
            /// timestamp after every step, as slots move between one key
            /// and many and purges empty them; the live counts follow.
            #[test]
            fn slot_candidates_are_in_strict_key_order(ops in prop::collection::vec(op(), 1..40)) {
                let mut idx = SecondaryIndex::new("v", 1);
                let mut model = Model::default();
                for op in &ops {
                    match op {
                        Op::Record(k, v, until) => {
                            idx.record(&key(*k), &indexed(*v), *until);
                            model.record(&key(*k), &indexed(*v), *until);
                        }
                        Op::Insert(k, v) => {
                            idx.insert(&key(*k), &indexed(*v));
                            model.record(&key(*k), &indexed(*v), TS_LIVE);
                        }
                        Op::Unlink(k, v, at) => {
                            idx.unlink(&key(*k), &indexed(*v), *at);
                            model.unlink(&key(*k), &indexed(*v), *at);
                        }
                        Op::PurgeDead(horizon) => {
                            let before = model.0.len();
                            model.0.retain(|(_, _, until)| until > horizon);
                            prop_assert_eq!(idx.purge_dead(*horizon), before - model.0.len());
                        }
                        Op::Rebuild(steps) => {
                            let rows = chains(steps);
                            idx.rebuild(&rows);
                            model = Model::default();
                            for (k, chain) in &rows {
                                for version in chain.versions() {
                                    model.record(k, &version.row, version.end_ts);
                                }
                            }
                        }
                    }
                    prop_assert_eq!(idx.entry_count(), model.0.len());
                    slots(&idx);
                    let mut values: Vec<Value> = model.0.iter().map(|(v, _, _)| v.clone()).collect();
                    values.extend([value(0), Value::Int(-7)]);
                    values.sort();
                    values.dedup();
                    for value in values {
                        prop_assert_eq!(idx.candidate_count(&value), model.live(&value));
                        for ts in (0..13).chain([TS_LIVE - 1]) {
                            let got = idx.lookup_at(&value, ts);
                            prop_assert!(
                                got.windows(2).all(|w| w[0] < w[1]),
                                "slot {:?} at ts {} out of order: {:?}", value, ts, got
                            );
                            prop_assert_eq!(got, model.candidates_at(&value, ts));
                        }
                    }
                }
            }
        }
    }
}
