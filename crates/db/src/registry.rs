//! Active-transaction registry: who is running, and since when.
//!
//! Every transaction registers `(txn_id, start_ts)` at `begin` and
//! deregisters when it commits, aborts, or is dropped; every live fork of
//! this database holds a [`GcPin`] at the timestamp it reads through to
//! (see "Forking and replay injection" in `DESIGN.md`). The
//! registry's one derived fact is the **watermark**: the minimum over
//! all active `start_ts` and all pins
//! ([`ActiveTxnRegistry::min_active_start_ts`]).
//!
//! The watermark bounds how aggressively history may be discarded:
//!
//! * [`Database::gc_before`](crate::Database::gc_before) clamps its
//!   horizon to the watermark, so garbage collection never drops a row
//!   version or change-log entry an active transaction can still read or
//!   must validate against;
//! * [`ChangeLog`](crate::changelog::ChangeLog) ring eviction only evicts
//!   entries at or below the watermark, so an active transaction's
//!   validation window is never truncated out from under it and the O(Δ)
//!   validator never falls back to the full version scan merely because
//!   the ring filled up.
//!
//! Registration reads the commit clock *inside* the registry lock (see
//! [`ActiveTxnRegistry::register_with`]), which makes begin and
//! watermark queries linearizable: a concurrent GC either sees the new
//! transaction (and keeps its snapshot) or completes before the
//! transaction's `start_ts` exists (and can only have truncated below it).
//!
//! The minimum is cached in an atomic so the hot paths (ring eviction on
//! every install, GC) read it without taking the registry lock.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::log::TxnId;
use crate::mvcc::Ts;

/// Watermark value when no transaction is active: nothing is pinned, all
/// history is collectable.
pub const NO_ACTIVE_TXN: Ts = Ts::MAX;

#[derive(Debug, Default)]
struct RegistryInner {
    /// txn id -> start_ts for every active transaction.
    by_id: HashMap<TxnId, Ts>,
    /// Multiset of active start timestamps (several transactions may share
    /// one): the watermark is the first key.
    by_start_ts: BTreeMap<Ts, usize>,
    /// Multiset of timestamps pinned by live forks ([`GcPin`]).
    pins: BTreeMap<Ts, usize>,
}

impl RegistryInner {
    fn min(&self) -> Ts {
        let first = |set: &BTreeMap<Ts, usize>| set.keys().next().copied();
        first(&self.by_start_ts)
            .into_iter()
            .chain(first(&self.pins))
            .min()
            .unwrap_or(NO_ACTIVE_TXN)
    }
}

/// Removes one occurrence of `ts` from a timestamp multiset.
fn remove_one(set: &mut BTreeMap<Ts, usize>, ts: Ts) {
    if let Some(count) = set.get_mut(&ts) {
        *count -= 1;
        if *count == 0 {
            set.remove(&ts);
        }
    }
}

/// Registry of active (begun, not yet finished) transactions.
#[derive(Debug, Default)]
pub struct ActiveTxnRegistry {
    inner: Mutex<RegistryInner>,
    /// Cached minimum active start_ts; [`NO_ACTIVE_TXN`] when idle.
    min_start_ts: AtomicU64,
}

impl ActiveTxnRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ActiveTxnRegistry {
            inner: Mutex::new(RegistryInner::default()),
            min_start_ts: AtomicU64::new(NO_ACTIVE_TXN),
        }
    }

    /// Registers transaction `id`, reading its snapshot timestamp via
    /// `read_clock` *while holding the registry lock*. Returns the
    /// registered `start_ts`.
    ///
    /// Taking the clock reading inside the lock closes the begin/GC race:
    /// the watermark can never be observed above a start_ts that is about
    /// to come into existence below it.
    pub fn register_with(&self, id: TxnId, read_clock: impl FnOnce() -> Ts) -> Ts {
        let mut inner = self.inner.lock();
        let start_ts = read_clock();
        let prev = inner.by_id.insert(id, start_ts);
        debug_assert!(prev.is_none(), "txn {id} registered twice");
        *inner.by_start_ts.entry(start_ts).or_insert(0) += 1;
        self.min_start_ts.store(inner.min(), Ordering::SeqCst);
        start_ts
    }

    /// Removes transaction `id`; returns true if it was registered.
    pub fn deregister(&self, id: TxnId) -> bool {
        let mut inner = self.inner.lock();
        let Some(start_ts) = inner.by_id.remove(&id) else {
            return false;
        };
        remove_one(&mut inner.by_start_ts, start_ts);
        self.min_start_ts.store(inner.min(), Ordering::SeqCst);
        true
    }

    /// Pins history at `ts` until the returned guard drops: the watermark
    /// stays at or below `ts`, so GC keeps every version visible there.
    /// A pin is not a transaction (it has no id and is not counted by
    /// [`Self::active_count`]); forks hold one on their parent.
    pub fn pin(self: &Arc<Self>, ts: Ts) -> GcPin {
        let mut inner = self.inner.lock();
        *inner.pins.entry(ts).or_insert(0) += 1;
        self.min_start_ts.store(inner.min(), Ordering::SeqCst);
        GcPin {
            registry: self.clone(),
            ts,
        }
    }

    /// How many pins are held, and the oldest pinned timestamp.
    pub fn pins(&self) -> (usize, Option<Ts>) {
        let inner = self.inner.lock();
        (inner.pins.values().sum(), inner.pins.keys().next().copied())
    }

    /// A guard that deregisters `id` when dropped; used by the commit path
    /// so the transaction stays registered (pinning its snapshot) through
    /// validation and install, whatever the outcome.
    pub fn deregister_on_drop(&self, id: TxnId) -> DeregisterGuard<'_> {
        DeregisterGuard { registry: self, id }
    }

    /// The minimum over all active transactions' start timestamps and all
    /// pins, or `None` when there is neither.
    pub fn min_active_start_ts(&self) -> Option<Ts> {
        match self.min_start_ts.load(Ordering::SeqCst) {
            NO_ACTIVE_TXN => None,
            ts => Some(ts),
        }
    }

    /// The truncation watermark: [`Self::min_active_start_ts`], or
    /// [`NO_ACTIVE_TXN`] when idle. History at or below this timestamp is
    /// safe to discard; history above it is pinned.
    pub fn watermark(&self) -> Ts {
        self.min_start_ts.load(Ordering::SeqCst)
    }

    /// The horizon change-log ring eviction may discard up to:
    /// `min(watermark, published clock)`, with both read under the
    /// registry lock.
    ///
    /// Reading the cached watermark alone is racy against `begin`: an
    /// at-capacity append could observe "no active transaction", and a
    /// transaction registering concurrently (with a snapshot below an
    /// entry about to be evicted) would find its validation window
    /// truncated — benign (validation falls back to the full scan) but a
    /// needless O(total versions) cliff. Taking the registry lock orders
    /// this read against [`Self::register_with`], and clamping to the
    /// clock (read *inside* the same lock, via `read_clock`) covers the
    /// remaining case: a transaction that registers after this read
    /// obtains `start_ts >= clock-as-read-here` (the clock is monotone),
    /// so nothing above the returned horizon can sit inside its window.
    pub fn eviction_horizon(&self, read_clock: impl FnOnce() -> Ts) -> Ts {
        let inner = self.inner.lock();
        let clock = read_clock();
        inner.min().min(clock)
    }

    /// Number of active transactions.
    pub fn active_count(&self) -> usize {
        self.inner.lock().by_id.len()
    }
}

/// See [`ActiveTxnRegistry::pin`].
#[derive(Debug)]
pub struct GcPin {
    registry: Arc<ActiveTxnRegistry>,
    ts: Ts,
}

impl Drop for GcPin {
    fn drop(&mut self) {
        let mut inner = self.registry.inner.lock();
        remove_one(&mut inner.pins, self.ts);
        self.registry
            .min_start_ts
            .store(inner.min(), Ordering::SeqCst);
    }
}

/// See [`ActiveTxnRegistry::deregister_on_drop`].
#[derive(Debug)]
pub struct DeregisterGuard<'a> {
    registry: &'a ActiveTxnRegistry,
    id: TxnId,
}

impl Drop for DeregisterGuard<'_> {
    fn drop(&mut self) {
        self.registry.deregister(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_tracks_min_active_start_ts() {
        let reg = ActiveTxnRegistry::new();
        assert_eq!(reg.min_active_start_ts(), None);
        assert_eq!(reg.watermark(), NO_ACTIVE_TXN);

        reg.register_with(1, || 10);
        reg.register_with(2, || 5);
        reg.register_with(3, || 20);
        assert_eq!(reg.min_active_start_ts(), Some(5));
        assert_eq!(reg.active_count(), 3);

        assert!(reg.deregister(2));
        assert_eq!(reg.min_active_start_ts(), Some(10));
        assert!(reg.deregister(1));
        assert_eq!(reg.min_active_start_ts(), Some(20));
        assert!(reg.deregister(3));
        assert_eq!(reg.min_active_start_ts(), None);
        assert!(!reg.deregister(3), "double deregister is a no-op");
    }

    #[test]
    fn shared_start_ts_is_counted_not_clobbered() {
        let reg = ActiveTxnRegistry::new();
        reg.register_with(1, || 7);
        reg.register_with(2, || 7);
        assert!(reg.deregister(1));
        // The other transaction at ts 7 still pins the watermark.
        assert_eq!(reg.min_active_start_ts(), Some(7));
        assert!(reg.deregister(2));
        assert_eq!(reg.min_active_start_ts(), None);
    }

    #[test]
    fn eviction_horizon_clamps_to_watermark_and_clock() {
        let reg = ActiveTxnRegistry::new();
        // Idle registry: the horizon is the published clock, not MAX — a
        // not-yet-registered transaction can only begin at or above it.
        assert_eq!(reg.eviction_horizon(|| 42), 42);
        // An active transaction below the clock pins the horizon.
        reg.register_with(1, || 7);
        assert_eq!(reg.eviction_horizon(|| 42), 7);
        // The clock still clamps when the active transaction is newer.
        assert_eq!(reg.eviction_horizon(|| 3), 3);
        reg.deregister(1);
        assert_eq!(reg.eviction_horizon(|| 42), 42);
    }

    #[test]
    fn pins_hold_the_watermark_until_dropped() {
        let reg = Arc::new(ActiveTxnRegistry::new());
        assert_eq!(reg.pins(), (0, None));
        let early = reg.pin(4);
        let late = reg.pin(9);
        let twin = reg.pin(4);
        reg.register_with(1, || 6);
        assert_eq!(reg.pins(), (3, Some(4)));
        assert_eq!(reg.watermark(), 4);
        assert_eq!(reg.eviction_horizon(|| 42), 4);
        assert_eq!(reg.active_count(), 1, "a pin is not a transaction");
        drop(early);
        assert_eq!(reg.watermark(), 4, "the twin still pins ts 4");
        drop(twin);
        assert_eq!(reg.watermark(), 6);
        reg.deregister(1);
        assert_eq!(reg.pins(), (1, Some(9)));
        assert_eq!(reg.min_active_start_ts(), Some(9));
        drop(late);
        assert_eq!(reg.watermark(), NO_ACTIVE_TXN);
    }

    #[test]
    fn guard_deregisters_on_drop() {
        let reg = ActiveTxnRegistry::new();
        reg.register_with(9, || 3);
        {
            let _guard = reg.deregister_on_drop(9);
            assert_eq!(reg.active_count(), 1);
        }
        assert_eq!(reg.active_count(), 0);
        assert_eq!(reg.watermark(), NO_ACTIVE_TXN);
    }
}
