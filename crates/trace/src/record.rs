//! Trace record types produced by the interposition layer.
//!
//! These are the in-memory representation of what the paper's Figure 2
//! labels "TxnLogs / Traces": handler invocation spans, transaction-level
//! provenance (read sets, write sets, commit order), and external-service
//! call intents. The provenance crate turns them into queryable tables.

use std::sync::Arc;

use trod_db::{ChangeRecord, Key, Row, Ts, TxnId};

/// Identifies the request, handler and function a database interaction
/// belongs to. The ReqId is propagated through RPCs by the runtime, as the
/// paper assumes (§3.1).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TxnContext {
    /// Unique request id (e.g. "R1").
    pub req_id: String,
    /// Request handler name (e.g. "subscribeUser").
    pub handler: String,
    /// Function-level metadata (e.g. "func:isSubscribed"), mirroring the
    /// `Metadata` column of the paper's Table 1.
    pub function: String,
}

impl TxnContext {
    pub fn new(
        req_id: impl Into<String>,
        handler: impl Into<String>,
        function: impl Into<String>,
    ) -> Self {
        TxnContext {
            req_id: req_id.into(),
            handler: handler.into(),
            function: function.into(),
        }
    }
}

/// One logical read performed by a traced transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadTrace {
    /// Table read from.
    pub table: String,
    /// Human-readable description of the read (mirrors the `Query` column
    /// of the paper's Table 2).
    pub query: String,
    /// The commit timestamp this read was served at: the transaction's
    /// snapshot under snapshot isolation / serializable, the published
    /// clock at call time under read committed. This is what makes
    /// weak-isolation histories faithfully replayable (reenactment-style):
    /// the replay engine injects concurrent commits up to each read's own
    /// timestamp rather than assuming every read happened at the
    /// transaction's snapshot.
    pub read_ts: Ts,
    /// The rows returned, keyed by primary key. Empty for reads that
    /// matched nothing (which is still important provenance: the Moodle
    /// bug hinges on two requests both observing "no subscription").
    pub rows: Vec<(Key, Arc<Row>)>,
}

/// Provenance captured for one transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct TxnTrace {
    /// Transaction id assigned by the database.
    pub txn_id: TxnId,
    /// Context: request, handler, function.
    pub ctx: TxnContext,
    /// Trace timestamp at which the transaction finished (committed or
    /// aborted); populates the `Timestamp` column of Table 1.
    pub timestamp: i64,
    /// Snapshot timestamp the transaction read at.
    pub snapshot_ts: Ts,
    /// Commit timestamp (serial order position). A read-only commit
    /// records its snapshot timestamp; 0 if the transaction aborted.
    pub commit_ts: Ts,
    /// Whether the transaction committed.
    pub committed: bool,
    /// Read provenance.
    pub reads: Vec<ReadTrace>,
    /// Write provenance: the commit's own change list, shared with its
    /// log entry (not a copy of the CDC records).
    pub writes: Arc<[ChangeRecord]>,
}

impl TxnTrace {
    /// The position of this transaction in the serial order implied by
    /// strict serializability: writing transactions serialize at their
    /// commit timestamp; read-only transactions (whose commit timestamp
    /// equals their snapshot) serialize at their snapshot timestamp.
    /// Aborted transactions also report their snapshot timestamp.
    pub fn serialization_ts(&self) -> Ts {
        if self.committed && self.is_write() {
            self.commit_ts
        } else {
            self.snapshot_ts
        }
    }

    /// Tables touched (read or written) by this transaction.
    pub fn touched_tables(&self) -> Vec<String> {
        let mut tables: Vec<String> = self
            .reads
            .iter()
            .map(|r| r.table.clone())
            .chain(self.writes.iter().map(|w| w.table.to_string()))
            .collect();
        tables.sort();
        tables.dedup();
        tables
    }

    /// True if this transaction wrote anything.
    pub fn is_write(&self) -> bool {
        !self.writes.is_empty()
    }
}

/// A request handler lifecycle or external interaction event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A request handler began executing.
    HandlerStart {
        req_id: String,
        handler: String,
        /// The handler that invoked this one via RPC, if any (workflows).
        parent: Option<String>,
        /// The request arguments as JSON text, as the runtime records
        /// them (for replay and retroactive re-execution).
        args: String,
        timestamp: i64,
    },
    /// A request handler finished.
    HandlerEnd {
        req_id: String,
        handler: String,
        /// Serialized return value ("output determinism" is what replay
        /// verifies against).
        output: String,
        /// Whether the handler completed without an application error.
        ok: bool,
        timestamp: i64,
    },
    /// A transaction's provenance.
    Txn(Box<TxnTrace>),
    /// An external (non-database) service call intent, assumed idempotent
    /// by the paper's simplifying assumptions.
    ExternalCall {
        req_id: String,
        handler: String,
        service: String,
        payload: String,
        timestamp: i64,
    },
}

impl TraceEvent {
    /// The request id this event belongs to.
    pub fn req_id(&self) -> &str {
        match self {
            TraceEvent::HandlerStart { req_id, .. }
            | TraceEvent::HandlerEnd { req_id, .. }
            | TraceEvent::ExternalCall { req_id, .. } => req_id,
            TraceEvent::Txn(t) => &t.ctx.req_id,
        }
    }

    /// The trace timestamp of the event.
    pub fn timestamp(&self) -> i64 {
        match self {
            TraceEvent::HandlerStart { timestamp, .. }
            | TraceEvent::HandlerEnd { timestamp, .. }
            | TraceEvent::ExternalCall { timestamp, .. } => *timestamp,
            TraceEvent::Txn(t) => t.timestamp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trod_db::row;

    fn sample_txn() -> TxnTrace {
        TxnTrace {
            txn_id: 7,
            ctx: TxnContext::new("R1", "subscribeUser", "func:DB.insert"),
            timestamp: 42,
            snapshot_ts: 3,
            commit_ts: 4,
            committed: true,
            reads: vec![ReadTrace {
                table: "forum_sub".into(),
                query: "scan forum_sub".into(),
                read_ts: 3,
                rows: vec![],
            }],
            writes: Arc::new([ChangeRecord::insert(
                "forum_sub",
                Key::single("U1"),
                row!["U1", "F2"],
            )]),
        }
    }

    #[test]
    fn touched_tables_dedups_reads_and_writes() {
        let t = sample_txn();
        assert_eq!(t.touched_tables(), vec!["forum_sub".to_string()]);
        assert!(t.is_write());
    }

    #[test]
    fn event_accessors() {
        let e = TraceEvent::Txn(Box::new(sample_txn()));
        assert_eq!(e.req_id(), "R1");
        assert_eq!(e.timestamp(), 42);
        let e = TraceEvent::HandlerStart {
            req_id: "R2".into(),
            handler: "h".into(),
            parent: None,
            args: "{}".into(),
            timestamp: 9,
        };
        assert_eq!(e.req_id(), "R2");
        assert_eq!(e.timestamp(), 9);
    }
}
