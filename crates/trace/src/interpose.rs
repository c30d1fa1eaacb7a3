//! The trace recorder every interposed component emits through.
//!
//! The paper's prototype (§3.7) keeps tracing under 100 µs per request
//! by appending records to an in-memory buffer on the request path and
//! moving them to the provenance database off it. A [`Tracer`] is that
//! buffer: one shared handle over a mutex-guarded `Vec` of
//! [`TraceEvent`]s, its counters, an on/off switch and a strictly
//! monotonic clock. A push takes the mutex once; a drain swaps the whole
//! `Vec` out under it, so the provenance store (or a test) gets every
//! buffered event, in push order, for one lock acquisition.
//!
//! The unified `Session` / `Txn` in `trod-kv` records each transaction's
//! provenance here; the runtime records handler start/end and external
//! call intents through the same handle. Nothing else keeps a record of
//! what a request did.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::record::{TraceEvent, TxnTrace};

/// Counters describing tracing activity, useful for overhead reporting.
/// One [`Tracer::stats`] call is a consistent snapshot:
/// `pushed == drained + buffered`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Events pushed since creation.
    pub pushed: usize,
    /// Events drained since creation.
    pub drained: usize,
    /// Events currently buffered.
    pub buffered: usize,
    /// Events dropped because tracing was disabled.
    pub dropped: usize,
}

/// Shared handle used by all components that emit trace events. Clones
/// share one buffer and one clock.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<Recorder>,
}

#[derive(Debug)]
struct Recorder {
    events: Mutex<Vec<TraceEvent>>,
    /// Updated under `events`' lock, so a snapshot taken under it adds up.
    pushed: AtomicUsize,
    drained: AtomicUsize,
    dropped: AtomicUsize,
    enabled: AtomicBool,
    /// The clock's epoch and its high-water mark.
    origin: Instant,
    last: AtomicI64,
}

impl Default for Tracer {
    /// The default tracer is enabled (tracing is "always on").
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// Creates an enabled tracer with an empty buffer and a clock whose
    /// epoch is "now".
    pub fn new() -> Self {
        Tracer {
            inner: Arc::new(Recorder {
                events: Mutex::new(Vec::new()),
                pushed: AtomicUsize::new(0),
                drained: AtomicUsize::new(0),
                dropped: AtomicUsize::new(0),
                enabled: AtomicBool::new(true),
                origin: Instant::now(),
                last: AtomicI64::new(0),
            }),
        }
    }

    /// A strictly increasing microsecond trace timestamp. Strictness
    /// matters because the provenance tables are ordered by `Timestamp`
    /// and the declarative debugging queries rely on that order to tell
    /// "which request ran first" (§3.3); elapsed time alone can tie at
    /// microsecond granularity, so the clock also keeps a high-water mark.
    pub fn now(&self) -> i64 {
        let elapsed = self.inner.origin.elapsed().as_micros() as i64;
        // Ensure strict monotonicity even if two calls land in the same
        // microsecond: take max(elapsed, last + 1).
        let mut prev = self.inner.last.load(Ordering::Relaxed);
        loop {
            let next = elapsed.max(prev + 1);
            match self.inner.last.compare_exchange_weak(
                prev,
                next,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return next,
                Err(actual) => prev = actual,
            }
        }
    }

    /// Enables or disables tracing. When disabled, events are counted as
    /// dropped but not stored (this is what the "tracing off" baseline
    /// measures).
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether tracing is enabled.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Current counters.
    pub fn stats(&self) -> TraceStats {
        let events = self.inner.events.lock();
        TraceStats {
            pushed: self.inner.pushed.load(Ordering::Relaxed),
            drained: self.inner.drained.load(Ordering::Relaxed),
            buffered: events.len(),
            dropped: self.inner.dropped.load(Ordering::Relaxed),
        }
    }

    /// Appends an event (counted as dropped when tracing is disabled).
    fn push(&self, event: TraceEvent) {
        if !self.is_enabled() {
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut events = self.inner.events.lock();
        events.push(event);
        self.inner.pushed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the start of a request handler execution.
    pub fn handler_start(
        &self,
        req_id: &str,
        handler: &str,
        parent: Option<&str>,
        args: &str,
    ) -> i64 {
        let timestamp = self.now();
        self.push(TraceEvent::HandlerStart {
            req_id: req_id.to_string(),
            handler: handler.to_string(),
            parent: parent.map(|s| s.to_string()),
            args: args.to_string(),
            timestamp,
        });
        timestamp
    }

    /// Records the end of a request handler execution.
    pub fn handler_end(&self, req_id: &str, handler: &str, output: &str, ok: bool) -> i64 {
        let timestamp = self.now();
        self.push(TraceEvent::HandlerEnd {
            req_id: req_id.to_string(),
            handler: handler.to_string(),
            output: output.to_string(),
            ok,
            timestamp,
        });
        timestamp
    }

    /// Records an external (non-database) service call intent.
    pub fn external_call(&self, req_id: &str, handler: &str, service: &str, payload: &str) -> i64 {
        let timestamp = self.now();
        self.push(TraceEvent::ExternalCall {
            req_id: req_id.to_string(),
            handler: handler.to_string(),
            service: service.to_string(),
            payload: payload.to_string(),
            timestamp,
        });
        timestamp
    }

    /// Records a transaction's provenance.
    pub fn record_txn(&self, trace: TxnTrace) {
        self.push(TraceEvent::Txn(Box::new(trace)));
    }

    /// Removes and returns every buffered event, in push order (used by
    /// the provenance store and tests).
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut events = self.inner.events.lock();
        let drained = std::mem::take(&mut *events);
        self.inner
            .drained
            .fetch_add(drained.len(), Ordering::Relaxed);
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TxnContext;
    use std::collections::HashSet;

    fn txn(tracer: &Tracer) -> TxnTrace {
        TxnTrace {
            txn_id: 1,
            ctx: TxnContext::new("R1", "h", "f"),
            timestamp: tracer.now(),
            snapshot_ts: 0,
            commit_ts: 1,
            committed: true,
            reads: Vec::new(),
            writes: Arc::new([]),
        }
    }

    #[test]
    fn handler_and_external_events_flow_through_the_tracer() {
        let tracer = Tracer::new();
        let t0 = tracer.handler_start("R1", "checkout", None, "{\"cart\": 3}");
        let t1 = tracer.external_call("R1", "checkout", "email", "receipt");
        let t2 = tracer.handler_end("R1", "checkout", "ok", true);
        assert!(t0 < t1 && t1 < t2);
        let events = tracer.drain();
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.req_id() == "R1"));
        let stamps: Vec<i64> = events.iter().map(TraceEvent::timestamp).collect();
        assert_eq!(stamps, vec![t0, t1, t2]);
        assert!(tracer.drain().is_empty());
        let stats = tracer.stats();
        assert_eq!((stats.pushed, stats.drained, stats.buffered), (3, 3, 0));
    }

    #[test]
    fn disabling_tracing_drops_events_and_counts_them() {
        let tracer = Tracer::new();
        tracer.set_enabled(false);
        assert!(!tracer.is_enabled());
        tracer.record_txn(txn(&tracer));
        assert!(tracer.drain().is_empty());
        assert_eq!(tracer.stats().dropped, 1);
        tracer.set_enabled(true);
        tracer.record_txn(txn(&tracer));
        assert_eq!(tracer.stats().buffered, 1);
        assert_eq!(tracer.stats().pushed, 1);
    }

    #[test]
    fn timestamps_strictly_increase() {
        let tracer = Tracer::new();
        let mut prev = tracer.now();
        for _ in 0..10_000 {
            let next = tracer.now();
            assert!(next > prev);
            prev = next;
        }
    }

    #[test]
    fn timestamps_unique_across_threads() {
        let tracer = Tracer::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let tracer = tracer.clone();
                std::thread::spawn(move || (0..5_000).map(|_| tracer.now()).collect::<Vec<_>>())
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        let unique: HashSet<i64> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len());
    }

    /// Four producers push while a drainer empties the buffer in a loop:
    /// every event comes out exactly once, each producer's in push order,
    /// and every snapshot of the counters adds up.
    #[test]
    fn drains_racing_pushes_lose_and_reorder_nothing() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 5_000;
        let tracer = Tracer::new();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let tracer = tracer.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        tracer.external_call(&format!("P{p}"), "h", "s", &i.to_string());
                    }
                })
            })
            .collect();
        let drainer = {
            let tracer = tracer.clone();
            std::thread::spawn(move || {
                let mut out = Vec::new();
                while out.len() < PRODUCERS * PER_PRODUCER {
                    out.extend(tracer.drain());
                    let stats = tracer.stats();
                    assert_eq!(stats.pushed, stats.drained + stats.buffered);
                    std::thread::yield_now();
                }
                out
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        let drained = drainer.join().unwrap();

        let mut next = [0usize; PRODUCERS];
        for event in &drained {
            let TraceEvent::ExternalCall {
                req_id, payload, ..
            } = event
            else {
                panic!("unexpected event {event:?}");
            };
            let p: usize = req_id[1..].parse().unwrap();
            let i: usize = payload.parse().unwrap();
            assert_eq!(i, next[p], "producer {p} out of order or duplicated");
            next[p] += 1;
        }
        assert_eq!(next, [PER_PRODUCER; PRODUCERS]);
        let stats = tracer.stats();
        assert_eq!(stats.pushed, PRODUCERS * PER_PRODUCER);
        assert_eq!(stats.pushed, stats.drained + stats.buffered);
        assert_eq!(stats.buffered, 0);
    }
}
