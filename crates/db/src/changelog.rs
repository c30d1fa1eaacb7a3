//! Per-table commit change log: the index behind O(Δ) serializable
//! validation.
//!
//! Serializable (phantom) validation must answer: *did any row of this
//! table change, in a way a given predicate can see, after timestamp
//! `start_ts`?* The naive answer — re-scan every version of every row —
//! costs O(total versions) per commit and defeats the paper's "<15 %
//! overhead" budget as tables grow. The change log answers the same
//! question in O(Δ), where Δ is the number of row changes committed in
//! `(start_ts, now]`.
//!
//! Every row change
//! ([`TableStore::apply_batch`](crate::table::TableStore::apply_batch),
//! which only ever runs under the table's commit lock) appends one
//! [`ChangeEntry`] carrying the before and after images as [`Arc<Row>`]
//! (shared with the version chain, so the log adds no row copies). Entries are strictly ordered by
//! commit timestamp, so a validator binary-searches the tail it needs.
//!
//! The log is a bounded ring with **watermark-driven eviction**: every
//! append passes the active-transaction watermark
//! ([`ActiveTxnRegistry::watermark`](crate::registry::ActiveTxnRegistry)),
//! and an append that finds the ring at capacity only evicts entries at
//! or below that watermark — entries inside some active transaction's
//! validation window are pinned, and the ring temporarily overshoots its
//! capacity instead of cutting the window (the overshoot is bounded by
//! the write volume during the oldest active transaction's lifetime, the
//! same bloat any MVCC store accrues under a long-running transaction).
//! Garbage collection truncates the log alongside version history;
//! [`Database::gc_before`](crate::Database::gc_before) clamps the horizon
//! to the same watermark. Both eviction and truncation record a
//! *low-water mark*; a transaction that began before the mark cannot be
//! validated from the log and falls back to the full version scan (see
//! `TableStore::predicate_conflict_in`), so truncation can never cause
//! a missed conflict. With the watermark in place the fallback is
//! practically confined to the raw table-level
//! [`ChangeLog::truncate_before`] (which tests use to exercise it): ring
//! eviction reads the watermark without synchronizing with `begin`, so a
//! transaction that registers concurrently with an at-capacity append can
//! still — rarely, and harmlessly — find its window evicted and take the
//! fallback.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::mvcc::Ts;
use crate::row::{Key, Row};

/// Default per-table ring capacity. 64k entries comfortably covers the
/// write delta of any realistically-sized validation window. The capacity
/// is a soft bound: entries pinned by the active-transaction watermark are
/// not normally evicted (see the module docs), and if eviction must skip
/// pinned entries the ring overshoots — up to [`DEFAULT_MAX_OVERSHOOT`] —
/// until they unpin. Should the log ever be truncated inside a validation
/// window (via the overshoot cap or the raw
/// [`ChangeLog::truncate_before`]), validation degrades to the (correct,
/// slower) full-scan path rather than failing.
pub const DEFAULT_CAPACITY: usize = 64 * 1024;

/// Default bound on how far the ring may overshoot its capacity while
/// entries are pinned by a long-lived transaction. Once the overshoot is
/// exhausted, pinned entries are evicted anyway: the pathological pinner
/// (and only transactions at least as old) flips to the full-scan
/// validation fallback instead of growing the ring without limit —
/// Postgres-style bloat, but bounded. Equal to the capacity, so a ring
/// holds at most 2× its configured entries.
pub const DEFAULT_MAX_OVERSHOOT: usize = DEFAULT_CAPACITY;

/// Error returned when a validation window reaches below the log's
/// low-water mark; the caller must use the full version scan instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogTruncated;

/// One committed row change: the before/after images installed at
/// `commit_ts`. `before == None` is an insert, `after == None` a delete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangeEntry {
    pub commit_ts: Ts,
    pub key: Key,
    pub before: Option<Arc<Row>>,
    pub after: Option<Arc<Row>>,
}

#[derive(Debug)]
struct ChangeLogInner {
    entries: VecDeque<ChangeEntry>,
    /// Highest commit timestamp that may have been evicted or truncated;
    /// the log can only answer queries for windows starting at or above
    /// this mark.
    low_water: Ts,
}

/// Bounded, commit-ordered ring of row changes for one table.
#[derive(Debug)]
pub struct ChangeLog {
    inner: RwLock<ChangeLogInner>,
    capacity: usize,
    max_overshoot: usize,
}

impl Default for ChangeLog {
    fn default() -> Self {
        ChangeLog::with_capacity(DEFAULT_CAPACITY)
    }
}

impl ChangeLog {
    pub fn with_capacity(capacity: usize) -> Self {
        ChangeLog::with_capacity_and_overshoot(capacity, capacity)
    }

    /// A ring of `capacity` entries that may hold up to
    /// `capacity + max_overshoot` entries while a long-lived transaction
    /// pins its tail (see [`DEFAULT_MAX_OVERSHOOT`]).
    pub fn with_capacity_and_overshoot(capacity: usize, max_overshoot: usize) -> Self {
        ChangeLog {
            inner: RwLock::new(ChangeLogInner {
                entries: VecDeque::new(),
                low_water: 0,
            }),
            capacity: capacity.max(1),
            max_overshoot,
        }
    }

    /// Appends one committed change; see [`ChangeLog::append_all`].
    pub fn append(&self, entry: ChangeEntry, horizon: impl Fn() -> Ts) {
        self.append_all(std::iter::once(entry), horizon);
    }

    /// Appends a commit's changes to one table under a single lock
    /// acquisition. Entries must arrive in non-decreasing `commit_ts`
    /// order — guaranteed because all mutation of a table happens under
    /// that table's commit lock, and commit timestamps are allocated
    /// while the lock is held.
    ///
    /// `horizon` yields the eviction horizon
    /// ([`crate::registry::ActiveTxnRegistry::eviction_horizon`]: the
    /// active-transaction watermark clamped to the published clock, both
    /// read under the registry lock so a concurrent `begin` cannot slip
    /// underneath). It is only invoked when the ring is at capacity.
    /// Entries above the horizon sit inside some active (or
    /// about-to-begin) transaction's validation window and are pinned —
    /// the ring overshoots its capacity rather than raising the low-water
    /// mark past them. The overshoot itself is bounded: past
    /// `capacity + max_overshoot` entries, pinned entries are evicted
    /// anyway and the pathological pinner degrades to full-scan
    /// validation. Pass `|| Ts::MAX` when nothing can be pinned.
    pub fn append_all(
        &self,
        entries: impl IntoIterator<Item = ChangeEntry>,
        horizon: impl Fn() -> Ts,
    ) {
        let mut inner = self.inner.write();
        for entry in entries {
            debug_assert!(
                inner
                    .entries
                    .back()
                    .is_none_or(|e| e.commit_ts <= entry.commit_ts),
                "change log must be appended in commit order"
            );
            if inner.entries.len() >= self.capacity {
                let keep_after = horizon();
                // Evict in a batch, down to `capacity - batch` entries:
                // computing the horizon takes the (database-global)
                // registry lock, so at steady state one computation
                // covers the next `batch` appends instead of locking on
                // every install.
                let batch = (self.capacity / 16).max(1);
                let floor = self.capacity - batch;
                while inner.entries.len() > floor {
                    let front_ts = inner.entries.front().expect("non-empty").commit_ts;
                    let pinned = front_ts > keep_after;
                    if pinned && inner.entries.len() < self.capacity + self.max_overshoot {
                        // Pinned by an active transaction and within the
                        // overshoot budget: keep everything.
                        break;
                    }
                    // Evictable — or pinned but past the overshoot cap,
                    // in which case the pinner flips to the full-scan
                    // fallback (low_water rises past its window) instead
                    // of the ring growing without bound.
                    inner.entries.pop_front();
                    inner.low_water = inner.low_water.max(front_ts);
                }
            }
            inner.entries.push_back(entry);
        }
    }

    /// Runs `visit` over every entry with `commit_ts > ts`, stopping early
    /// if `visit` returns `Some`. Returns [`LogTruncated`] when the log has
    /// been truncated above `ts` and therefore cannot see the whole window
    /// — the caller must fall back to a full version scan.
    pub fn scan_after<T>(
        &self,
        ts: Ts,
        mut visit: impl FnMut(&ChangeEntry) -> Option<T>,
    ) -> Result<Option<T>, LogTruncated> {
        let inner = self.inner.read();
        if ts < inner.low_water {
            return Err(LogTruncated);
        }
        // Entries are commit-ordered: binary search for the first entry
        // strictly after `ts`. VecDeque::partition_point works on the
        // logical (wrapped) sequence.
        let start = inner.entries.partition_point(|e| e.commit_ts <= ts);
        for entry in inner.entries.iter().skip(start) {
            if let Some(found) = visit(entry) {
                return Ok(Some(found));
            }
        }
        Ok(None)
    }

    /// Drops entries with `commit_ts <= ts` (called by GC together with
    /// version-chain truncation) and raises the low-water mark to `ts`.
    pub fn truncate_before(&self, ts: Ts) -> usize {
        let mut inner = self.inner.write();
        let cut = inner.entries.partition_point(|e| e.commit_ts <= ts);
        inner.entries.drain(..cut);
        inner.low_water = inner.low_water.max(ts);
        cut
    }

    /// Number of buffered entries.
    pub fn len(&self) -> usize {
        self.inner.read().entries.len()
    }

    /// True if no entries are buffered.
    pub fn is_empty(&self) -> bool {
        self.inner.read().entries.is_empty()
    }

    /// The current low-water mark (0 = the log covers all history).
    pub fn low_water(&self) -> Ts {
        self.inner.read().low_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::NO_ACTIVE_TXN;
    use crate::row;

    fn entry(commit_ts: Ts, key: i64) -> ChangeEntry {
        ChangeEntry {
            commit_ts,
            key: Key::single(key),
            before: None,
            after: Some(Arc::new(row![key, commit_ts as i64])),
        }
    }

    /// Append with nothing pinned (the pre-watermark behaviour).
    fn append_unpinned(log: &ChangeLog, e: ChangeEntry) {
        log.append(e, || NO_ACTIVE_TXN);
    }

    fn collect_after(log: &ChangeLog, ts: Ts) -> Result<Vec<Ts>, LogTruncated> {
        let mut seen = Vec::new();
        log.scan_after(ts, |e| {
            seen.push(e.commit_ts);
            None::<()>
        })
        .map(|_| seen)
    }

    #[test]
    fn scan_returns_only_the_window_after_ts() {
        let log = ChangeLog::default();
        for ts in 1..=10 {
            append_unpinned(&log, entry(ts, ts as i64));
        }
        assert_eq!(
            collect_after(&log, 0).unwrap(),
            (1..=10).collect::<Vec<_>>()
        );
        assert_eq!(collect_after(&log, 7).unwrap(), vec![8, 9, 10]);
        assert_eq!(collect_after(&log, 10).unwrap(), Vec::<Ts>::new());
    }

    #[test]
    fn early_exit_stops_iteration() {
        let log = ChangeLog::default();
        for ts in 1..=10 {
            append_unpinned(&log, entry(ts, ts as i64));
        }
        let mut visited = 0;
        let hit = log
            .scan_after(0, |e| {
                visited += 1;
                (e.commit_ts == 3).then_some(e.commit_ts)
            })
            .unwrap();
        assert_eq!(hit, Some(3));
        assert_eq!(visited, 3);
    }

    #[test]
    fn multiple_entries_per_commit_are_kept() {
        let log = ChangeLog::default();
        append_unpinned(&log, entry(5, 1));
        append_unpinned(&log, entry(5, 2));
        append_unpinned(&log, entry(6, 3));
        assert_eq!(collect_after(&log, 4).unwrap(), vec![5, 5, 6]);
        assert_eq!(collect_after(&log, 5).unwrap(), vec![6]);
    }

    #[test]
    fn truncation_raises_low_water_and_rejects_older_windows() {
        let log = ChangeLog::default();
        for ts in 1..=10 {
            append_unpinned(&log, entry(ts, ts as i64));
        }
        let dropped = log.truncate_before(6);
        assert_eq!(dropped, 6);
        assert_eq!(log.low_water(), 6);
        // Window starting at or after the mark: answerable.
        assert_eq!(collect_after(&log, 6).unwrap(), vec![7, 8, 9, 10]);
        // Window starting before the mark: must report "can't see it all".
        assert!(collect_after(&log, 5).is_err());
    }

    #[test]
    fn ring_overflow_evicts_oldest_and_degrades_safely() {
        let log = ChangeLog::with_capacity(4);
        for ts in 1..=10 {
            append_unpinned(&log, entry(ts, ts as i64));
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.low_water(), 6);
        assert_eq!(collect_after(&log, 6).unwrap(), vec![7, 8, 9, 10]);
        assert!(collect_after(&log, 3).is_err());
    }

    #[test]
    fn eviction_never_raises_low_water_past_the_watermark() {
        let log = ChangeLog::with_capacity(4);
        for ts in 1..=4 {
            append_unpinned(&log, entry(ts, ts as i64));
        }
        // An active transaction began at ts 2: entries in (2, now] are
        // pinned. Appends evict only the prefix at or below the watermark,
        // then overshoot the capacity.
        for ts in 5..=8 {
            log.append(entry(ts, ts as i64), || 2);
        }
        assert_eq!(log.low_water(), 2, "low water must not pass the watermark");
        assert_eq!(log.len(), 6, "pinned entries overshoot the capacity");
        // The active transaction's window is still fully answerable.
        assert_eq!(collect_after(&log, 2).unwrap(), vec![3, 4, 5, 6, 7, 8]);

        // Watermark released: the next append drains the overshoot back
        // under the capacity bound.
        append_unpinned(&log, entry(9, 9));
        assert_eq!(log.len(), 4);
        assert_eq!(log.low_water(), 5);
        assert!(collect_after(&log, 2).is_err(), "window now truncated");
    }

    #[test]
    fn overshoot_is_bounded_and_flips_the_pinner_to_the_fallback() {
        // Capacity 4, overshoot budget 4: a transaction pinned at ts 0
        // (its window is all of (0, now]) can bloat the ring to at most
        // 8 entries.
        let log = ChangeLog::with_capacity_and_overshoot(4, 4);
        for ts in 1..=8 {
            log.append(entry(ts, ts as i64), || 0);
        }
        assert_eq!(log.len(), 8, "within the overshoot budget nothing evicts");
        assert_eq!(log.low_water(), 0);
        assert_eq!(collect_after(&log, 0).unwrap(), (1..=8).collect::<Vec<_>>());

        // Past the budget, pinned entries are evicted anyway; the ring
        // saturates at capacity + overshoot and the pinner's window is no
        // longer answerable (it falls back to the full scan).
        for ts in 9..=12 {
            log.append(entry(ts, ts as i64), || 0);
        }
        assert_eq!(log.len(), 8, "ring saturates at capacity + overshoot");
        assert!(log.low_water() >= 1, "the pathological pinner was cut");
        assert!(collect_after(&log, 0).is_err(), "pinner uses the fallback");
        // A transaction that began after the cut is still served by the log.
        let lw = log.low_water();
        assert!(collect_after(&log, lw).is_ok());
    }

    #[test]
    fn horizon_is_not_computed_when_under_capacity() {
        let log = ChangeLog::with_capacity(8);
        for ts in 1..=4 {
            log.append(entry(ts, ts as i64), || panic!("horizon must be lazy"));
        }
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn empty_log_answers_everything() {
        let log = ChangeLog::default();
        assert!(log.is_empty());
        assert_eq!(collect_after(&log, 0).unwrap(), Vec::<Ts>::new());
    }
}
