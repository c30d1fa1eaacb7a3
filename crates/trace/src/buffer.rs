//! The always-on, in-memory trace buffer.
//!
//! The paper's prototype (§3.7) achieves "<100 µs per request" tracing
//! overhead by appending trace records to a high-performance in-memory
//! buffer on the request path and moving them to the provenance database
//! off the critical path. This module reproduces that structure: pushes go
//! to a lock-free [`crossbeam`] segmented queue; the provenance store (or
//! a test) drains the queue in batches.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crossbeam::queue::SegQueue;

use crate::record::TraceEvent;

/// Counters describing tracing activity, useful for overhead reporting.
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

/// A lock-free, unbounded trace buffer.
#[derive(Debug)]
pub struct TraceBuffer {
    queue: SegQueue<TraceEvent>,
    pushed: AtomicUsize,
    drained: AtomicUsize,
    dropped: AtomicUsize,
    enabled: AtomicBool,
}

impl Default for TraceBuffer {
    /// The default buffer is enabled (tracing is "always on").
    fn default() -> Self {
        TraceBuffer::new()
    }
}

impl TraceBuffer {
    /// Creates an enabled buffer.
    pub fn new() -> Self {
        TraceBuffer {
            queue: SegQueue::new(),
            pushed: AtomicUsize::new(0),
            drained: AtomicUsize::new(0),
            dropped: AtomicUsize::new(0),
            enabled: AtomicBool::new(true),
        }
    }

    /// Enables or disables tracing. When disabled, pushes are counted as
    /// dropped but not stored (this is what the "tracing off" baseline in
    /// benchmark E1 measures).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether tracing is currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Appends an event (no-op when disabled).
    pub fn push(&self, event: TraceEvent) {
        if !self.is_enabled() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.queue.push(event);
        self.pushed.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Removes and returns up to `max` buffered events (FIFO).
    pub fn drain(&self, max: usize) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        while out.len() < max {
            match self.queue.pop() {
                Some(e) => out.push(e),
                None => break,
            }
        }
        self.drained.fetch_add(out.len(), Ordering::Relaxed);
        out
    }

    /// Removes and returns all buffered events.
    pub fn drain_all(&self) -> Vec<TraceEvent> {
        self.drain(usize::MAX)
    }

    /// Current counters.
    pub fn stats(&self) -> TraceStats {
        TraceStats {
            pushed: self.pushed.load(Ordering::Relaxed),
            drained: self.drained.load(Ordering::Relaxed),
            buffered: self.queue.len(),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn event(req: &str, ts: i64) -> TraceEvent {
        TraceEvent::HandlerStart {
            req_id: req.to_string(),
            handler: "h".into(),
            parent: None,
            args: String::new(),
            timestamp: ts,
        }
    }

    #[test]
    fn push_drain_fifo() {
        let buf = TraceBuffer::new();
        for i in 0..10 {
            buf.push(event("R", i));
        }
        assert_eq!(buf.len(), 10);
        let first = buf.drain(4);
        assert_eq!(first.len(), 4);
        assert_eq!(first[0].timestamp(), 0);
        assert_eq!(first[3].timestamp(), 3);
        let rest = buf.drain_all();
        assert_eq!(rest.len(), 6);
        assert!(buf.is_empty());
        let stats = buf.stats();
        assert_eq!(stats.pushed, 10);
        assert_eq!(stats.drained, 10);
        assert_eq!(stats.buffered, 0);
    }

    #[test]
    fn disabled_buffer_drops_events() {
        let buf = TraceBuffer::new();
        buf.set_enabled(false);
        assert!(!buf.is_enabled());
        buf.push(event("R", 1));
        assert!(buf.is_empty());
        assert_eq!(buf.stats().dropped, 1);
        buf.set_enabled(true);
        buf.push(event("R", 2));
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn concurrent_pushes_are_all_captured() {
        let buf = Arc::new(TraceBuffer::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let buf = buf.clone();
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        buf.push(event(&format!("R{t}"), i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(buf.stats().pushed, 8000);
        assert_eq!(buf.drain_all().len(), 8000);
    }
}
