//! The shared tracer handle every interposed component emits through.
//!
//! Historically this module also carried `TracedDatabase` /
//! `TracedTransaction`, a relational-only traced transaction handle. That
//! surface is gone: the unified `Session` / `Txn` in `trod-kv` records
//! the same read provenance, write provenance (CDC), snapshot and commit
//! timestamps and request context — for relational, key-value and mixed
//! transactions alike — and emits it through this [`Tracer`].
//! Handler-level events (start/end, RPCs, external calls) are recorded by
//! the runtime through the same handle.

use std::sync::Arc;

use crate::buffer::{TraceBuffer, TraceStats};
use crate::clock::TraceClock;
use crate::record::{TraceEvent, TxnTrace};

/// Shared handle used by all components that emit trace events.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    buffer: Arc<TraceBuffer>,
    clock: Arc<TraceClock>,
}

impl Tracer {
    /// Creates a tracer with a fresh buffer and clock.
    pub fn new() -> Self {
        Tracer {
            buffer: Arc::new(TraceBuffer::new()),
            clock: Arc::new(TraceClock::new()),
        }
    }

    /// The underlying buffer.
    pub fn buffer(&self) -> &Arc<TraceBuffer> {
        &self.buffer
    }

    /// A strictly monotonic trace timestamp.
    pub fn now(&self) -> i64 {
        self.clock.now_micros()
    }

    /// Enables or disables tracing globally.
    pub fn set_enabled(&self, enabled: bool) {
        self.buffer.set_enabled(enabled);
    }

    /// Whether tracing is enabled.
    pub fn is_enabled(&self) -> bool {
        self.buffer.is_enabled()
    }

    /// Buffer statistics.
    pub fn stats(&self) -> TraceStats {
        self.buffer.stats()
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
        self.buffer.push(TraceEvent::HandlerStart {
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
        self.buffer.push(TraceEvent::HandlerEnd {
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
        self.buffer.push(TraceEvent::ExternalCall {
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
        self.buffer.push(TraceEvent::Txn(Box::new(trace)));
    }

    /// Drains all buffered events (used by the provenance store and
    /// tests).
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.buffer.drain_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TxnContext;

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
    }

    #[test]
    fn disabling_tracing_drops_events_and_counts_them() {
        let tracer = Tracer::new();
        tracer.set_enabled(false);
        assert!(!tracer.is_enabled());
        tracer.record_txn(TxnTrace {
            txn_id: 1,
            ctx: TxnContext::new("R1", "h", "f"),
            timestamp: tracer.now(),
            snapshot_ts: 0,
            commit_ts: 1,
            committed: true,
            reads: Vec::new(),
            writes: Arc::new([]),
        });
        assert!(tracer.drain().is_empty());
        assert_eq!(tracer.stats().dropped, 1);
    }
}
