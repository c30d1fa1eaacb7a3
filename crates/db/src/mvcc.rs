//! Multi-version row storage.
//!
//! Every row lives in a [`VersionChain`]: a list of versions ordered by
//! the commit timestamp that created them. A version is visible to a read
//! at timestamp `ts` if `begin_ts <= ts < end_ts`. Time travel (paper
//! §3.1, "databases with time travel capabilities") falls out of this
//! representation: reading "as of" a past timestamp simply selects the
//! version visible at that timestamp.
//!
//! Retaining history is the standing price of that debuggability, and
//! most keys are written once: a chain holds its first version inline and
//! allocates a `Vec` only when the key gets a second one, so a row
//! written once costs its map entry and no heap block of its own.
//!
//! This visibility rule is also what makes the sharded commit protocol's
//! publication step atomic (see [`crate::database`]): readers only ever
//! read at timestamps up to the *published* clock, so versions a
//! mid-flight commit has installed at a higher, not-yet-published
//! `begin_ts` fail `begin_ts <= ts` for every reader until the commit
//! publishes — a multi-table commit becomes visible everywhere at once,
//! never piecemeal.

use std::sync::Arc;

use crate::row::Row;

/// Commit timestamp type. Timestamp 0 is "before any transaction".
pub type Ts = u64;

/// Sentinel end timestamp of a live (not yet superseded) version.
pub const TS_LIVE: Ts = u64::MAX;

/// One version of a row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    /// Commit timestamp of the transaction that wrote this version.
    pub begin_ts: Ts,
    /// Commit timestamp of the transaction that superseded or deleted this
    /// version; [`TS_LIVE`] while current.
    pub end_ts: Ts,
    /// The row image, shared rather than owned: readers at any timestamp,
    /// CDC records and the table change log all hold the same allocation,
    /// so reads and validation never deep-copy row payloads.
    pub row: Arc<Row>,
}

impl Version {
    /// True if the version is visible to a read at `ts`.
    pub fn visible_at(&self, ts: Ts) -> bool {
        self.begin_ts <= ts && ts < self.end_ts
    }

    /// True if the version is the current live version.
    pub fn is_live(&self) -> bool {
        self.end_ts == TS_LIVE
    }

    /// True if a commit in the open window `(after, upto)` created or
    /// superseded/deleted this version (`upto == Ts::MAX` leaves the
    /// window unbounded) — the window test behind serializable (phantom)
    /// validation. Kept here as the single definition so the change-log
    /// fast path, the full-scan fallback and per-key validation can never
    /// drift apart. Bounded by a validating commit's own timestamp,
    /// versions installed at `upto` and above belong to *successors* and
    /// do not count as conflicts.
    pub fn touched_in(&self, after: Ts, upto: Ts) -> bool {
        (self.begin_ts > after && self.begin_ts < upto)
            || (self.end_ts != TS_LIVE && self.end_ts > after && self.end_ts < upto)
    }
}

/// The ordered version history of one primary key: its first version
/// inline, a `Vec` from its second on, and inline again when garbage
/// collection leaves one. Equality is by content, inline or not.
#[derive(Debug, Clone, Default)]
pub struct VersionChain(Versions);

#[derive(Debug, Clone, Default)]
enum Versions {
    #[default]
    Empty,
    One(Version),
    /// Two or more versions, oldest first.
    Many(Vec<Version>),
}

impl PartialEq for VersionChain {
    fn eq(&self, other: &Self) -> bool {
        self.versions() == other.versions()
    }
}

impl Eq for VersionChain {}

impl VersionChain {
    /// Creates an empty chain.
    pub fn new() -> Self {
        VersionChain::default()
    }

    /// All versions, oldest first.
    pub fn versions(&self) -> &[Version] {
        match &self.0 {
            Versions::Empty => &[],
            Versions::One(version) => std::slice::from_ref(version),
            Versions::Many(versions) => versions,
        }
    }

    /// The row visible at timestamp `ts`, if any.
    pub fn visible_at(&self, ts: Ts) -> Option<&Arc<Row>> {
        // Versions are appended in commit order, so scan from the end.
        self.versions()
            .iter()
            .rev()
            .find(|v| v.visible_at(ts))
            .map(|v| &v.row)
    }

    /// The live row, if the key currently exists.
    pub fn live(&self) -> Option<&Arc<Row>> {
        self.versions()
            .last()
            .filter(|v| v.is_live())
            .map(|v| &v.row)
    }

    /// True if this key was written by any commit in the open window
    /// `(after, upto)`; `upto == Ts::MAX` leaves it unbounded. The newest
    /// version alone cannot answer this (it may belong to a successor at
    /// or above `upto`), so the chain is walked newest-first, stopping at
    /// the first version that began at or before `after` — everything
    /// older ended at or before that version began. With no successors
    /// installed that is one step, which matters because the commit path
    /// validates every read and write key with it.
    pub fn modified_in(&self, after: Ts, upto: Ts) -> bool {
        for v in self.versions().iter().rev() {
            if v.touched_in(after, upto) {
                return true;
            }
            if v.begin_ts <= after {
                break;
            }
        }
        false
    }

    /// Installs a new version committed at `commit_ts`, superseding the
    /// current live version if present. Returns the before image if one
    /// existed.
    pub fn install(&mut self, commit_ts: Ts, row: Arc<Row>) -> Option<Arc<Row>> {
        let before = self.close_live(commit_ts);
        let version = Version {
            begin_ts: commit_ts,
            end_ts: TS_LIVE,
            row,
        };
        self.0 = match std::mem::take(&mut self.0) {
            Versions::Empty => Versions::One(version),
            Versions::One(first) => Versions::Many(vec![first, version]),
            Versions::Many(mut versions) => {
                versions.push(version);
                Versions::Many(versions)
            }
        };
        before
    }

    /// Marks the live version as deleted at `commit_ts`. Returns the
    /// deleted row if one existed.
    pub fn remove(&mut self, commit_ts: Ts) -> Option<Arc<Row>> {
        self.close_live(commit_ts)
    }

    fn close_live(&mut self, commit_ts: Ts) -> Option<Arc<Row>> {
        let last = match &mut self.0 {
            Versions::Empty => None,
            Versions::One(version) => Some(version),
            Versions::Many(versions) => versions.last_mut(),
        };
        let last = last.filter(|v| v.is_live())?;
        last.end_ts = commit_ts;
        Some(last.row.clone())
    }

    /// Drops versions that ended at or before `ts` and are no longer
    /// reachable by any reader at or after `ts` (simple garbage
    /// collection). Returns the number of versions removed.
    pub fn gc_before(&mut self, ts: Ts) -> usize {
        // Keep the last version that began at or before ts (it may still be
        // visible to readers at ts) plus everything after it.
        let dead = self
            .versions()
            .iter()
            .take_while(|v| v.end_ts != TS_LIVE && v.end_ts <= ts)
            .count();
        if dead == 0 {
            return 0;
        }
        let kept = self.len() - dead;
        self.0 = match std::mem::take(&mut self.0) {
            Versions::Many(mut versions) if kept > 1 => {
                versions.drain(..dead);
                Versions::Many(versions)
            }
            // The survivor is the newest version.
            Versions::Many(mut versions) if kept == 1 => {
                Versions::One(versions.pop().expect("the newest version survives"))
            }
            _ => Versions::Empty,
        };
        dead
    }

    /// Number of stored versions.
    pub fn len(&self) -> usize {
        self.versions().len()
    }

    /// True if no versions exist.
    pub fn is_empty(&self) -> bool {
        self.versions().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::row::Row;

    fn arc(r: Row) -> Arc<Row> {
        Arc::new(r)
    }

    #[test]
    fn install_and_visibility() {
        let mut chain = VersionChain::new();
        assert!(chain.visible_at(100).is_none());

        chain.install(5, arc(row![1i64, "v1"]));
        assert_eq!(chain.visible_at(5), Some(&arc(row![1i64, "v1"])));
        assert_eq!(chain.visible_at(4), None);
        assert_eq!(chain.live(), Some(&arc(row![1i64, "v1"])));

        let before = chain.install(9, arc(row![1i64, "v2"]));
        assert_eq!(before, Some(arc(row![1i64, "v1"])));
        assert_eq!(chain.visible_at(5), Some(&arc(row![1i64, "v1"])));
        assert_eq!(chain.visible_at(8), Some(&arc(row![1i64, "v1"])));
        assert_eq!(chain.visible_at(9), Some(&arc(row![1i64, "v2"])));
        assert_eq!(chain.live(), Some(&arc(row![1i64, "v2"])));
    }

    #[test]
    fn install_shares_the_allocation_with_readers() {
        // The zero-copy contract: a read returns the same allocation the
        // writer installed, not a deep copy.
        let mut chain = VersionChain::new();
        let row = arc(row![1i64, "shared"]);
        chain.install(3, row.clone());
        let seen = chain.visible_at(3).unwrap();
        assert!(Arc::ptr_eq(seen, &row));
    }

    #[test]
    fn remove_hides_row_from_later_reads() {
        let mut chain = VersionChain::new();
        chain.install(2, arc(row![7i64]));
        let deleted = chain.remove(4);
        assert_eq!(deleted, Some(arc(row![7i64])));
        assert_eq!(chain.visible_at(3), Some(&arc(row![7i64])));
        assert_eq!(chain.visible_at(4), None);
        assert_eq!(chain.live(), None);
        // Deleting again is a no-op.
        assert_eq!(chain.remove(5), None);
    }

    #[test]
    fn modified_in_detects_later_writes_and_deletes() {
        let mut chain = VersionChain::new();
        chain.install(3, arc(row![1i64]));
        assert!(!chain.modified_in(3, Ts::MAX));
        assert!(chain.modified_in(2, Ts::MAX));

        chain.install(6, arc(row![2i64]));
        assert!(chain.modified_in(5, Ts::MAX));
        assert!(!chain.modified_in(6, Ts::MAX));

        chain.remove(8);
        assert!(chain.modified_in(7, Ts::MAX));
        assert!(!chain.modified_in(8, Ts::MAX));
        // Bounded above: writes at or beyond `upto` belong to successors.
        assert!(chain.modified_in(5, 7));
        assert!(!chain.modified_in(6, 8));
        assert!(chain.modified_in(6, 9));
    }

    #[test]
    fn gc_drops_only_unreachable_versions() {
        let mut chain = VersionChain::new();
        chain.install(1, arc(row![1i64]));
        chain.install(3, arc(row![2i64]));
        chain.install(5, arc(row![3i64]));
        assert_eq!(chain.len(), 3);

        // Readers at ts >= 4: the version ending at 3 is unreachable.
        let dropped = chain.gc_before(4);
        assert_eq!(dropped, 1);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain.visible_at(4), Some(&arc(row![2i64])));
        assert_eq!(chain.visible_at(10), Some(&arc(row![3i64])));

        // GC below any end timestamp keeps everything.
        let dropped = chain.gc_before(0);
        assert_eq!(dropped, 0);
    }

    #[test]
    fn version_visibility_window() {
        let v = Version {
            begin_ts: 10,
            end_ts: 20,
            row: arc(row![1i64]),
        };
        assert!(!v.visible_at(9));
        assert!(v.visible_at(10));
        assert!(v.visible_at(19));
        assert!(!v.visible_at(20));
        assert!(!v.is_live());
    }

    #[test]
    fn a_chain_grows_to_two_versions_and_is_collected_back_to_one() {
        let mut chain = VersionChain::new();
        chain.install(1, arc(row![1i64]));
        assert!(
            matches!(chain.0, Versions::One(_)),
            "the first version is inline"
        );
        chain.install(4, arc(row![2i64]));
        assert!(matches!(&chain.0, Versions::Many(v) if v.len() == 2));

        assert_eq!(chain.gc_before(5), 1);
        assert!(
            matches!(chain.0, Versions::One(_)),
            "back inline: {chain:?}"
        );
        assert_eq!(chain.live(), Some(&arc(row![2i64])));
        // Equal by content to a chain that was only ever inline.
        let mut once = VersionChain::new();
        once.install(4, arc(row![2i64]));
        assert_eq!(chain, once);

        chain.remove(6);
        assert_eq!(chain.gc_before(6), 1);
        assert!(matches!(chain.0, Versions::Empty));
        assert_eq!(chain, VersionChain::new());
    }

    mod model {
        use proptest::prelude::*;

        use super::*;

        #[derive(Debug, Clone)]
        enum Op {
            Install(u8),
            Remove,
            Gc(Ts),
        }

        /// Installs of small rows, deletes, and collections at horizons
        /// below, at and above the commits so far (each op commits at
        /// the next timestamp, 1, 2, ...).
        fn op() -> impl Strategy<Value = Op> {
            (0u8..8, 0u8..4, 0u64..24).prop_map(|(kind, v, horizon)| match kind {
                0..=3 => Op::Install(v),
                4 | 5 => Op::Remove,
                _ => Op::Gc(horizon),
            })
        }

        /// The chain's contract on a plain `Vec`, oldest first.
        fn gc_model(versions: &mut Vec<Version>, ts: Ts) -> usize {
            let dead = versions
                .iter()
                .take_while(|v| !v.is_live() && v.end_ts <= ts)
                .count();
            versions.drain(..dead);
            dead
        }

        fn close_model(versions: &mut [Version], ts: Ts) -> Option<Arc<Row>> {
            let last = versions.last_mut().filter(|v| v.is_live())?;
            last.end_ts = ts;
            Some(last.row.clone())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(
                std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(256)
            ))]

            /// Every step leaves the chain equal to a `Vec<Version>` model:
            /// the same versions, visibility at every timestamp, live
            /// row, window tests and length; inline exactly when it holds
            /// one version, and equal to the model held in a `Vec` either
            /// way.
            #[test]
            fn a_chain_behaves_as_its_vec_model(ops in prop::collection::vec(op(), 1..24)) {
                let mut chain = VersionChain::new();
                let mut model: Vec<Version> = Vec::new();
                for (ts, op) in (1..).zip(&ops) {
                    match op {
                        Op::Install(v) => {
                            let row = arc(row![i64::from(*v)]);
                            let before = close_model(&mut model, ts);
                            model.push(Version { begin_ts: ts, end_ts: TS_LIVE, row: row.clone() });
                            prop_assert_eq!(chain.install(ts, row), before);
                        }
                        Op::Remove => {
                            let before = close_model(&mut model, ts);
                            prop_assert_eq!(chain.remove(ts), before);
                        }
                        Op::Gc(horizon) => {
                            let dropped = gc_model(&mut model, *horizon);
                            prop_assert_eq!(chain.gc_before(*horizon), dropped);
                        }
                    }
                    prop_assert_eq!(chain.versions(), model.as_slice());
                    prop_assert_eq!(chain.len(), model.len());
                    prop_assert_eq!(chain.is_empty(), model.is_empty());
                    prop_assert_eq!(matches!(chain.0, Versions::One(_)), model.len() == 1);
                    prop_assert_eq!(&chain, &VersionChain(Versions::Many(model.clone())));
                    prop_assert_eq!(chain.live(), model.last().filter(|v| v.is_live()).map(|v| &v.row));
                    for at in 0..=ts + 1 {
                        let visible = model.iter().rev().find(|v| v.visible_at(at)).map(|v| &v.row);
                        prop_assert_eq!(chain.visible_at(at), visible);
                        for upto in [at + 1, at + 3, Ts::MAX] {
                            let touched = model.iter().any(|v| v.touched_in(at, upto));
                            prop_assert_eq!(chain.modified_in(at, upto), touched);
                        }
                    }
                }
            }
        }
    }
}
