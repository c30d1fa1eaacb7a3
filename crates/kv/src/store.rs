//! The multi-version key-value store.
//!
//! [`KvStore`] models the non-relational stores (Redis, document stores)
//! that the paper's §5 wants to bring under TROD's principles. It keeps a
//! full version chain per key — value plus the commit timestamp that
//! installed it, with deletions as tombstones — which is what gives the
//! unified transaction surface snapshot reads and what gives TROD
//! time-travel over key-value data.
//!
//! Each namespace carries its own **commit lock** (an `Arc<Mutex<()>>`
//! handed to the commit coordinator as the `kv:<namespace>` resource; see
//! [`trod_db::CommitParticipant`]) and its own last-applied timestamp.
//! Commit timestamps are therefore monotone *per namespace* — the same
//! per-resource invariant the relational tables keep — and commits over
//! disjoint namespaces install concurrently without any store-wide lock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use trod_db::{CheckpointContributor, CheckpointNamespace, Ts};

pub use trod_db::{KvError, KvResult};

/// One buffered write destined for a namespace; `value: None` is a delete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvWrite {
    pub namespace: String,
    pub key: String,
    pub value: Option<String>,
}

impl KvWrite {
    /// A put.
    pub fn put(namespace: &str, key: &str, value: &str) -> Self {
        KvWrite {
            namespace: namespace.to_string(),
            key: key.to_string(),
            value: Some(value.to_string()),
        }
    }

    /// A delete (tombstone).
    pub fn delete(namespace: &str, key: &str) -> Self {
        KvWrite {
            namespace: namespace.to_string(),
            key: key.to_string(),
            value: None,
        }
    }
}

/// Size statistics for one namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NamespaceStats {
    /// Keys with a live (non-tombstone) latest version.
    pub live_keys: usize,
    /// Total stored versions including tombstones.
    pub versions: usize,
}

#[derive(Debug, Clone)]
struct KvVersion {
    ts: Ts,
    value: Option<String>,
}

/// One namespace: key version chains plus the per-namespace commit state.
#[derive(Debug, Default)]
struct Namespace {
    /// key → version chain ordered by ascending timestamp.
    keys: BTreeMap<String, Vec<KvVersion>>,
    /// Largest commit timestamp applied to this namespace.
    last_commit_ts: Ts,
    /// This namespace's commit lock — the `kv:<namespace>` resource the
    /// commit coordinator acquires (in global sorted order with table
    /// locks) for any transaction reading or writing the namespace.
    commit_lock: Arc<Mutex<()>>,
}

#[derive(Debug, Default)]
struct KvInner {
    namespaces: BTreeMap<String, Namespace>,
    /// Largest commit timestamp applied to any namespace (for
    /// [`KvStore::current_ts`]).
    last_commit_ts: Ts,
    /// The coordinating database's publication clock, when bound
    /// ([`KvStore::bind_publication_clock`]). A bound store is
    /// **clock-aware**: coordinated commits install versions stamped with
    /// a *claimed* timestamp before that timestamp publishes, and every
    /// read clamps its visibility to the published horizon — so the
    /// coordinator can move participant installs out of its ordered
    /// publication window without readers ever seeing an unpublished
    /// (possibly torn across stores) commit. Unbound stores read raw.
    publication_clock: Option<Arc<AtomicU64>>,
    /// Highest timestamp that is visible *without* having passed through
    /// the bound publication clock: everything applied before binding,
    /// plus every store-level [`KvStore::apply`] (it publishes by
    /// applying and never ticks the database clock). Only meaningful
    /// when a clock is bound; the visibility horizon is
    /// `max(clock, standalone_high)`.
    standalone_high: Ts,
}

impl KvInner {
    /// The highest timestamp reads may observe. `Ts::MAX` (no clamping)
    /// when no publication clock is bound.
    fn visible_horizon(&self) -> Ts {
        match &self.publication_clock {
            Some(clock) => clock.load(Ordering::SeqCst).max(self.standalone_high),
            None => Ts::MAX,
        }
    }
}

/// A multi-version, namespaced key-value store.
///
/// The store itself offers only per-batch atomic application
/// ([`KvStore::apply`]); multi-key transactional access comes from the
/// unified [`crate::Txn`] (aligned with the relational database through
/// the commit protocol).
#[derive(Debug, Clone, Default)]
pub struct KvStore {
    inner: Arc<RwLock<KvInner>>,
}

impl KvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        KvStore::default()
    }

    /// Creates a namespace (bucket / collection) with its own commit lock.
    pub fn create_namespace(&self, name: &str) -> KvResult<()> {
        let mut inner = self.inner.write();
        if inner.namespaces.contains_key(name) {
            return Err(KvError::NamespaceExists(name.to_string()));
        }
        inner
            .namespaces
            .insert(name.to_string(), Namespace::default());
        Ok(())
    }

    /// Names of all namespaces.
    pub fn namespaces(&self) -> Vec<String> {
        self.inner.read().namespaces.keys().cloned().collect()
    }

    /// Whether a namespace exists.
    pub fn has_namespace(&self, name: &str) -> bool {
        self.inner.read().namespaces.contains_key(name)
    }

    /// The commit lock of a namespace — the `kv:<namespace>` commit
    /// resource handed to the coordinator. Shared so guards can be taken
    /// in the coordinator's global sorted order.
    pub fn commit_lock_of(&self, namespace: &str) -> KvResult<Arc<Mutex<()>>> {
        let inner = self.inner.read();
        inner
            .namespaces
            .get(namespace)
            .map(|ns| ns.commit_lock.clone())
            .ok_or_else(|| KvError::UnknownNamespace(namespace.to_string()))
    }

    /// Binds the coordinating database's publication clock
    /// ([`trod_db::Database::publication_clock`]), making the store
    /// clock-aware: versions installed at a claimed-but-unpublished
    /// timestamp stay invisible to every read until the clock reaches it.
    /// Everything applied before binding stays visible (the horizon
    /// starts at the current high-water mark). [`crate::Session`] binds
    /// automatically when it couples a store to a database.
    pub fn bind_publication_clock(&self, clock: Arc<AtomicU64>) {
        let mut inner = self.inner.write();
        inner.standalone_high = inner.standalone_high.max(inner.last_commit_ts);
        inner.publication_clock = Some(clock);
    }

    /// The largest *visible* commit timestamp applied so far (over all
    /// namespaces). On a clock-bound store this excludes versions
    /// installed at claimed-but-unpublished timestamps, so a snapshot
    /// taken here never moves under the reader.
    pub fn current_ts(&self) -> Ts {
        let inner = self.inner.read();
        inner.last_commit_ts.min(inner.visible_horizon())
    }

    /// The largest commit timestamp applied to one namespace (0 if the
    /// namespace was never written). [`KvStore::apply`] rejects anything
    /// at or below it for that namespace.
    pub fn last_commit_ts_of(&self, namespace: &str) -> KvResult<Ts> {
        let inner = self.inner.read();
        inner
            .namespaces
            .get(namespace)
            .map(|ns| ns.last_commit_ts)
            .ok_or_else(|| KvError::UnknownNamespace(namespace.to_string()))
    }

    /// The latest value of a key, if any.
    pub fn get_latest(&self, namespace: &str, key: &str) -> KvResult<Option<String>> {
        self.get_as_of(namespace, key, Ts::MAX)
    }

    /// The value of a key as of a commit timestamp (inclusive). On a
    /// clock-bound store the timestamp is clamped to the published
    /// horizon — an installed version whose claimed timestamp has not
    /// published yet is invisible.
    pub fn get_as_of(&self, namespace: &str, key: &str, ts: Ts) -> KvResult<Option<String>> {
        let inner = self.inner.read();
        let ts = ts.min(inner.visible_horizon());
        let ns = inner
            .namespaces
            .get(namespace)
            .ok_or_else(|| KvError::UnknownNamespace(namespace.to_string()))?;
        Ok(ns
            .keys
            .get(key)
            .and_then(|versions| versions.iter().rev().find(|v| v.ts <= ts))
            .and_then(|v| v.value.clone()))
    }

    /// All live `(key, value)` pairs in a namespace whose key starts with
    /// `prefix`, as of a commit timestamp.
    pub fn scan_prefix_as_of(
        &self,
        namespace: &str,
        prefix: &str,
        ts: Ts,
    ) -> KvResult<Vec<(String, String)>> {
        let inner = self.inner.read();
        let ts = ts.min(inner.visible_horizon());
        let ns = inner
            .namespaces
            .get(namespace)
            .ok_or_else(|| KvError::UnknownNamespace(namespace.to_string()))?;
        let mut out = Vec::new();
        for (key, versions) in ns.keys.range(prefix.to_string()..) {
            if !key.starts_with(prefix) {
                break;
            }
            if let Some(value) = versions
                .iter()
                .rev()
                .find(|v| v.ts <= ts)
                .and_then(|v| v.value.clone())
            {
                out.push((key.clone(), value));
            }
        }
        Ok(out)
    }

    /// All live `(key, value)` pairs in a namespace at the latest state.
    pub fn scan_prefix(&self, namespace: &str, prefix: &str) -> KvResult<Vec<(String, String)>> {
        self.scan_prefix_as_of(namespace, prefix, Ts::MAX)
    }

    /// The commit timestamp of the latest version of a key (0 if the key
    /// was never written). Used for optimistic validation — deliberately
    /// *raw* (no published-horizon clamp): an installed version whose
    /// timestamp has not published yet belongs to a commit that claimed
    /// its timestamp and will certainly publish, so aborting early on it
    /// is always correct.
    pub fn version_of(&self, namespace: &str, key: &str) -> KvResult<Ts> {
        let inner = self.inner.read();
        let ns = inner
            .namespaces
            .get(namespace)
            .ok_or_else(|| KvError::UnknownNamespace(namespace.to_string()))?;
        Ok(ns
            .keys
            .get(key)
            .and_then(|versions| versions.last())
            .map(|v| v.ts)
            .unwrap_or(0))
    }

    /// True if `key` gained a version with timestamp in the open interval
    /// `(after, upto)`. The SSI in-window read re-check: called at a
    /// committing transaction's publication turn with
    /// `(snapshot_ts, commit_ts)`, where the interval is exact — every
    /// smaller timestamp is fully published (or installed and certain to
    /// publish) and every larger one is excluded. Raw, like
    /// [`KvStore::version_of`], for the same reason.
    pub fn key_modified_in(
        &self,
        namespace: &str,
        key: &str,
        after: Ts,
        upto: Ts,
    ) -> KvResult<bool> {
        let inner = self.inner.read();
        let ns = inner
            .namespaces
            .get(namespace)
            .ok_or_else(|| KvError::UnknownNamespace(namespace.to_string()))?;
        Ok(ns
            .keys
            .get(key)
            .map(|versions| {
                versions
                    .iter()
                    .rev()
                    .take_while(|v| v.ts > after)
                    .any(|v| v.ts < upto)
            })
            .unwrap_or(false))
    }

    /// Atomically applies a batch of writes, stamping every new version
    /// with `commit_ts`. The timestamp must be strictly newer than every
    /// version previously applied to *the namespaces the batch touches* —
    /// the per-resource monotonicity the coordinator relies on (guaranteed
    /// when applied under the namespaces' commit locks with a timestamp
    /// allocated while holding them). Namespaces outside the batch may
    /// already hold newer timestamps: disjoint-namespace commits install
    /// in lock order, not global timestamp order.
    ///
    /// This is the *store-level* commit: the batch is immediately visible
    /// (on a clock-bound store the standalone horizon is raised to cover
    /// it). Coordinated commits install through
    /// [`KvStore::apply_claimed`] instead, whose visibility waits on the
    /// bound publication clock.
    pub fn apply(&self, writes: &[KvWrite], commit_ts: Ts) -> KvResult<()> {
        self.apply_inner(writes, commit_ts, true)
    }

    /// [`KvStore::apply`] for a *claimed* (coordinated) commit timestamp:
    /// the versions are installed but the visibility horizon is not
    /// raised — on a clock-bound store they stay invisible until the
    /// coordinator publishes `commit_ts`. Called by commit participants,
    /// which may install before their ordered publication turn.
    pub(crate) fn apply_claimed(&self, writes: &[KvWrite], commit_ts: Ts) -> KvResult<()> {
        self.apply_inner(writes, commit_ts, false)
    }

    fn apply_inner(&self, writes: &[KvWrite], commit_ts: Ts, publish: bool) -> KvResult<()> {
        let mut inner = self.inner.write();
        // Validate namespaces and per-namespace freshness first so the
        // batch is all-or-nothing.
        for write in writes {
            let ns = inner
                .namespaces
                .get(&write.namespace)
                .ok_or_else(|| KvError::UnknownNamespace(write.namespace.clone()))?;
            if commit_ts <= ns.last_commit_ts {
                return Err(KvError::StaleCommitTimestamp {
                    given: commit_ts,
                    latest: ns.last_commit_ts,
                });
            }
        }
        for write in writes {
            let ns = inner
                .namespaces
                .get_mut(&write.namespace)
                .expect("namespace validated above");
            ns.keys
                .entry(write.key.clone())
                .or_default()
                .push(KvVersion {
                    ts: commit_ts,
                    value: write.value.clone(),
                });
            ns.last_commit_ts = commit_ts;
        }
        inner.last_commit_ts = inner.last_commit_ts.max(commit_ts);
        if publish {
            inner.standalone_high = inner.standalone_high.max(commit_ts);
        }
        Ok(())
    }

    /// Creates a new, independent store containing the state visible at
    /// `ts` — the key-value half of the debugger's "development
    /// database" fork, mirroring [`trod_db::Database::fork_at`]'s
    /// semantics: every namespace is recreated (with a fresh commit
    /// lock), each key's value as of `ts` is installed as a single
    /// version stamped `ts.max(1)`, keys that were absent or tombstoned
    /// at `ts` are dropped, and every namespace's `last_commit_ts` starts
    /// at `ts.max(1)` — so per-namespace timestamp monotonicity lines up
    /// with a database forked at the same timestamp (whose allocator also
    /// resumes from `ts.max(1)`), and a forked [`crate::Session`] commits
    /// into both stores without a veto.
    /// The fork never captures claimed-but-unpublished versions: on a
    /// clock-bound store `ts` is clamped to the published horizon, so a
    /// fork taken while a coordinated commit is mid-install (installed,
    /// not yet published) sees the state strictly before that commit —
    /// the same cut [`trod_db::Database::fork_at`] takes on the
    /// relational side.
    pub fn fork_at(&self, ts: Ts) -> KvStore {
        let inner = self.inner.read();
        let ts = ts.min(inner.visible_horizon());
        let fork_ts = ts.max(1);
        let mut fork = KvInner {
            last_commit_ts: fork_ts,
            ..KvInner::default()
        };
        for (name, ns) in &inner.namespaces {
            let mut fork_ns = Namespace {
                last_commit_ts: fork_ts,
                ..Namespace::default()
            };
            for (key, versions) in &ns.keys {
                if let Some(value) = versions
                    .iter()
                    .rev()
                    .find(|v| v.ts <= ts)
                    .and_then(|v| v.value.clone())
                {
                    fork_ns.keys.insert(
                        key.clone(),
                        vec![KvVersion {
                            ts: fork_ts,
                            value: Some(value),
                        }],
                    );
                }
            }
            fork.namespaces.insert(name.clone(), fork_ns);
        }
        KvStore {
            inner: Arc::new(RwLock::new(fork)),
        }
    }

    /// Creates a new, empty store with the same namespaces (each with a
    /// fresh commit lock) — the key-value analogue of
    /// [`trod_db::Database::fork_empty`], used when a past environment is
    /// reconstructed by replaying spilled aligned history instead of
    /// forked from live state.
    pub fn fork_empty(&self) -> KvStore {
        let inner = self.inner.read();
        let mut fork = KvInner::default();
        for name in inner.namespaces.keys() {
            fork.namespaces.insert(name.clone(), Namespace::default());
        }
        KvStore {
            inner: Arc::new(RwLock::new(fork)),
        }
    }

    /// Statistics for one namespace.
    pub fn namespace_stats(&self, namespace: &str) -> KvResult<NamespaceStats> {
        let inner = self.inner.read();
        let ns = inner
            .namespaces
            .get(namespace)
            .ok_or_else(|| KvError::UnknownNamespace(namespace.to_string()))?;
        let mut stats = NamespaceStats::default();
        for versions in ns.keys.values() {
            stats.versions += versions.len();
            if versions.last().map(|v| v.value.is_some()).unwrap_or(false) {
                stats.live_keys += 1;
            }
        }
        Ok(stats)
    }

    /// Drops versions strictly older than `ts` that are shadowed by a
    /// newer version (simple garbage collection). Returns the number of
    /// versions removed.
    pub fn gc_before(&self, ts: Ts) -> usize {
        let mut inner = self.inner.write();
        let mut removed = 0;
        for ns in inner.namespaces.values_mut() {
            for versions in ns.keys.values_mut() {
                if versions.len() <= 1 {
                    continue;
                }
                // Keep the newest version at or before `ts` (it is still
                // visible to as-of reads at `ts`), plus everything after.
                let keep_from = versions.iter().rposition(|v| v.ts <= ts).unwrap_or(0);
                removed += keep_from;
                versions.drain(..keep_from);
            }
        }
        removed
    }
}

/// Contributes the store's state to environment checkpoints: every
/// namespace with its live entries visible at the checkpoint timestamp.
/// [`crate::Session`] registers this on its database
/// ([`trod_db::Database::set_checkpoint_source`]) so checkpoints capture
/// the whole polyglot environment.
impl CheckpointContributor for KvStore {
    fn capture_kv(&self, ts: Ts) -> Vec<CheckpointNamespace> {
        self.namespaces()
            .into_iter()
            .map(|name| {
                let entries = self
                    .scan_prefix_as_of(&name, "", ts)
                    .expect("namespace listed by the store itself");
                CheckpointNamespace { name, entries }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> KvStore {
        let kv = KvStore::new();
        kv.create_namespace("sessions").unwrap();
        kv
    }

    #[test]
    fn namespace_management() {
        let kv = store();
        assert!(kv.has_namespace("sessions"));
        assert_eq!(kv.namespaces(), vec!["sessions".to_string()]);
        assert_eq!(
            kv.create_namespace("sessions"),
            Err(KvError::NamespaceExists("sessions".into()))
        );
        assert_eq!(
            kv.get_latest("missing", "k"),
            Err(KvError::UnknownNamespace("missing".into()))
        );
        assert!(kv.commit_lock_of("sessions").is_ok());
        assert!(kv.commit_lock_of("missing").is_err());
    }

    #[test]
    fn versions_and_as_of_reads() {
        let kv = store();
        kv.apply(&[KvWrite::put("sessions", "u1", "cart:a")], 10)
            .unwrap();
        kv.apply(&[KvWrite::put("sessions", "u1", "cart:b")], 20)
            .unwrap();
        kv.apply(&[KvWrite::delete("sessions", "u1")], 30).unwrap();

        assert_eq!(kv.get_latest("sessions", "u1").unwrap(), None);
        assert_eq!(
            kv.get_as_of("sessions", "u1", 10).unwrap(),
            Some("cart:a".into())
        );
        assert_eq!(
            kv.get_as_of("sessions", "u1", 25).unwrap(),
            Some("cart:b".into())
        );
        assert_eq!(kv.get_as_of("sessions", "u1", 5).unwrap(), None);
        assert_eq!(kv.version_of("sessions", "u1").unwrap(), 30);
        assert_eq!(kv.version_of("sessions", "nope").unwrap(), 0);
        assert_eq!(kv.current_ts(), 30);
    }

    #[test]
    fn prefix_scans_respect_snapshots() {
        let kv = store();
        kv.apply(
            &[
                KvWrite::put("sessions", "user:1", "a"),
                KvWrite::put("sessions", "user:2", "b"),
                KvWrite::put("sessions", "admin:1", "c"),
            ],
            10,
        )
        .unwrap();
        kv.apply(&[KvWrite::put("sessions", "user:3", "d")], 20)
            .unwrap();

        let at_10 = kv.scan_prefix_as_of("sessions", "user:", 10).unwrap();
        assert_eq!(at_10.len(), 2);
        let latest = kv.scan_prefix("sessions", "user:").unwrap();
        assert_eq!(latest.len(), 3);
        let admins = kv.scan_prefix("sessions", "admin:").unwrap();
        assert_eq!(admins, vec![("admin:1".to_string(), "c".to_string())]);
    }

    #[test]
    fn apply_rejects_stale_timestamps_and_unknown_namespaces() {
        let kv = store();
        kv.apply(&[KvWrite::put("sessions", "k", "v")], 10).unwrap();
        assert_eq!(
            kv.apply(&[KvWrite::put("sessions", "k", "v2")], 10),
            Err(KvError::StaleCommitTimestamp {
                given: 10,
                latest: 10
            })
        );
        assert_eq!(
            kv.apply(&[KvWrite::put("nope", "k", "v")], 20),
            Err(KvError::UnknownNamespace("nope".into()))
        );
        // The failed batches changed nothing.
        assert_eq!(kv.get_latest("sessions", "k").unwrap(), Some("v".into()));
        assert_eq!(kv.current_ts(), 10);
    }

    #[test]
    fn timestamps_are_monotone_per_namespace_not_globally() {
        // Disjoint-namespace commits may install out of global timestamp
        // order (the coordinator publishes in order; installs race).
        let kv = store();
        kv.create_namespace("carts").unwrap();
        kv.apply(&[KvWrite::put("sessions", "k", "s10")], 10)
            .unwrap();
        // An older timestamp is fine on a namespace that never saw 10.
        kv.apply(&[KvWrite::put("carts", "k", "c9")], 9).unwrap();
        assert_eq!(kv.get_latest("carts", "k").unwrap(), Some("c9".into()));
        assert_eq!(kv.current_ts(), 10, "current_ts is the global max");
        // But within one namespace the check still holds.
        assert!(matches!(
            kv.apply(&[KvWrite::put("carts", "k", "c9b")], 9),
            Err(KvError::StaleCommitTimestamp { .. })
        ));
    }

    #[test]
    fn stats_and_gc() {
        let kv = store();
        kv.apply(&[KvWrite::put("sessions", "a", "1")], 10).unwrap();
        kv.apply(&[KvWrite::put("sessions", "a", "2")], 20).unwrap();
        kv.apply(&[KvWrite::put("sessions", "b", "3")], 30).unwrap();
        kv.apply(&[KvWrite::delete("sessions", "b")], 40).unwrap();

        let stats = kv.namespace_stats("sessions").unwrap();
        assert_eq!(stats.live_keys, 1);
        assert_eq!(stats.versions, 4);

        let removed = kv.gc_before(40);
        assert_eq!(removed, 2, "one shadowed version of `a`, one of `b`");
        // As-of reads at the GC horizon still work.
        assert_eq!(kv.get_as_of("sessions", "a", 40).unwrap(), Some("2".into()));
        assert_eq!(kv.get_latest("sessions", "b").unwrap(), None);
    }

    #[test]
    fn fork_at_captures_the_state_visible_at_the_timestamp() {
        let kv = store();
        kv.create_namespace("carts").unwrap();
        kv.apply(&[KvWrite::put("sessions", "a", "v1")], 10)
            .unwrap();
        kv.apply(&[KvWrite::put("sessions", "b", "gone")], 15)
            .unwrap();
        kv.apply(
            &[
                KvWrite::put("sessions", "a", "v2"),
                KvWrite::delete("sessions", "b"),
            ],
            20,
        )
        .unwrap();
        kv.apply(&[KvWrite::put("sessions", "c", "late")], 30)
            .unwrap();

        let fork = kv.fork_at(20);
        // The fork holds exactly the state at ts 20: a=v2, b tombstoned
        // away, c not yet written — and the empty namespace exists.
        assert_eq!(fork.get_latest("sessions", "a").unwrap(), Some("v2".into()));
        assert_eq!(fork.get_latest("sessions", "b").unwrap(), None);
        assert_eq!(fork.get_latest("sessions", "c").unwrap(), None);
        assert!(fork.has_namespace("carts"));
        let stats = fork.namespace_stats("sessions").unwrap();
        assert_eq!(stats.live_keys, 1);
        assert_eq!(stats.versions, 1, "history is not copied");
        // Per-namespace monotonicity resumes at the fork timestamp: the
        // next commit must be strictly newer than 20...
        assert_eq!(fork.last_commit_ts_of("sessions").unwrap(), 20);
        assert!(matches!(
            fork.apply(&[KvWrite::put("sessions", "x", "y")], 20),
            Err(KvError::StaleCommitTimestamp { .. })
        ));
        fork.apply(&[KvWrite::put("sessions", "x", "y")], 21)
            .unwrap();
        // ...and the fork is independent of the origin.
        assert_eq!(kv.get_latest("sessions", "x").unwrap(), None);
        kv.apply(&[KvWrite::put("sessions", "a", "v3")], 40)
            .unwrap();
        assert_eq!(fork.get_latest("sessions", "a").unwrap(), Some("v2".into()));
    }

    #[test]
    fn fork_at_zero_and_fork_empty_copy_namespaces_only() {
        let kv = store();
        kv.apply(&[KvWrite::put("sessions", "a", "v")], 10).unwrap();
        let at_zero = kv.fork_at(0);
        assert_eq!(at_zero.get_latest("sessions", "a").unwrap(), None);
        assert_eq!(at_zero.last_commit_ts_of("sessions").unwrap(), 1);
        let empty = kv.fork_empty();
        assert!(empty.has_namespace("sessions"));
        assert_eq!(empty.get_latest("sessions", "a").unwrap(), None);
        assert_eq!(empty.last_commit_ts_of("sessions").unwrap(), 0);
        // The empty fork accepts history replayed from ts 1 up.
        empty
            .apply(&[KvWrite::put("sessions", "a", "v")], 1)
            .unwrap();
        assert_eq!(empty.get_latest("sessions", "a").unwrap(), Some("v".into()));
    }

    #[test]
    fn claimed_installs_stay_invisible_until_published() {
        let kv = store();
        kv.apply(&[KvWrite::put("sessions", "k", "published")], 10)
            .unwrap();

        let clock = Arc::new(AtomicU64::new(10));
        kv.bind_publication_clock(clock.clone());

        // Mid-install: a coordinated commit claimed ts 11 and installed
        // its writes, but the publication clock has not advanced yet.
        kv.apply_claimed(
            &[
                KvWrite::put("sessions", "k", "pending"),
                KvWrite::put("sessions", "k2", "pending"),
            ],
            11,
        )
        .unwrap();

        // Reads, scans and forks all resolve against the published
        // horizon — even when asked for "latest".
        assert_eq!(kv.current_ts(), 10);
        assert_eq!(
            kv.get_latest("sessions", "k").unwrap(),
            Some("published".into())
        );
        assert_eq!(kv.get_as_of("sessions", "k2", Ts::MAX).unwrap(), None);
        assert_eq!(
            kv.scan_prefix("sessions", "k").unwrap(),
            vec![("k".to_string(), "published".to_string())]
        );
        let fork = kv.fork_at(Ts::MAX);
        assert_eq!(
            fork.get_latest("sessions", "k").unwrap(),
            Some("published".into())
        );
        assert_eq!(fork.get_latest("sessions", "k2").unwrap(), None);
        // Version metadata stays raw: the claimed install will certainly
        // publish, so optimistic validation must already abort on it.
        assert_eq!(kv.version_of("sessions", "k").unwrap(), 11);

        // Publication makes the install visible everywhere at once.
        clock.store(11, Ordering::SeqCst);
        assert_eq!(kv.current_ts(), 11);
        assert_eq!(
            kv.get_latest("sessions", "k").unwrap(),
            Some("pending".into())
        );
        let fork = kv.fork_at(Ts::MAX);
        assert_eq!(
            fork.get_latest("sessions", "k2").unwrap(),
            Some("pending".into())
        );
    }

    #[test]
    fn standalone_applies_stay_visible_on_a_clock_bound_store() {
        let kv = store();
        kv.apply(&[KvWrite::put("sessions", "old", "v")], 5)
            .unwrap();
        // Binding snapshots already-applied history into the horizon...
        kv.bind_publication_clock(Arc::new(AtomicU64::new(0)));
        assert_eq!(kv.get_latest("sessions", "old").unwrap(), Some("v".into()));
        // ...and store-level applies publish immediately (they never go
        // through the coordinator's publication pipeline).
        kv.apply(&[KvWrite::put("sessions", "new", "w")], 7)
            .unwrap();
        assert_eq!(kv.get_latest("sessions", "new").unwrap(), Some("w".into()));
        assert_eq!(kv.current_ts(), 7);
    }

    #[test]
    fn error_display() {
        assert!(KvError::UnknownNamespace("x".into())
            .to_string()
            .contains("x"));
        assert!(KvError::Conflict {
            namespace: "s".into(),
            key: "k".into()
        }
        .to_string()
        .contains("s/k"));
        assert!(KvError::StaleCommitTimestamp {
            given: 1,
            latest: 2
        }
        .to_string()
        .contains("not newer"));
    }
}
