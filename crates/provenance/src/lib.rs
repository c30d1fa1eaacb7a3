//! # trod-provenance
//!
//! The TROD **provenance database** (paper Figure 2, §3.4): an analytical
//! store holding always-on tracing output in a structured, queryable form.
//!
//! * The [`ProvenanceStore`] of an application database owns its own
//!   [`trod_db::Database`] with the fixed tables `Executions` (the paper's
//!   Table 1), `Requests` and `ExternalCalls`, plus one `<X>Events` table
//!   per application table (the paper's Table 2, e.g. `ForumEvents`):
//!   registered up front, or under its default name when a trace first
//!   touches it.
//! * Events reach it one way: [`ProvenanceStore::drain_from`] drains a
//!   [`trod_trace::Tracer`]'s buffer and ingests the batch under the
//!   store's ingest lock, so racing drains cannot reorder a request's
//!   events. Whoever runs the tracer decides when to call it (the server
//!   runs a periodic sync thread).
//! * The tables are the only copy. Each handler invocation is kept once,
//!   as its `Requests` row, and [`RequestRecord`]s are decoded from those
//!   rows. The [`trod_trace::TxnTrace`]s the replay and retroactive
//!   engines consume ([`ProvenanceStore::txns_for_request`] etc.) are
//!   assembled from a transaction's `Executions` row, its event rows and
//!   the application's own history, which holds its change records.
//! * Indexes: `Executions` on `ReqId`, `Timestamp` and `CommitTs`,
//!   `Requests` on `ReqId`, each `<X>Events` table on `TxnId` and every
//!   application column (not `EventId`, `Type`, `Query`, `ReadTs` or
//!   `ReadNo`). Ingest never maintains an index: the first query that
//!   probes one builds it, and later probes catch it up from the table's
//!   change log.
//! * Developers (and the TROD debugger core) query it with SQL through
//!   [`ProvenanceStore::query`].

pub mod redaction;
pub mod schema;
pub mod store;

pub use redaction::{RedactionReport, RetentionReport, REDACTED_MARKER};
pub use schema::{
    default_event_table_name, event_column_names, event_table_schema, executions_schema,
    external_calls_schema, requests_schema, EXECUTIONS_TABLE, EXTERNAL_CALLS_TABLE, REQUESTS_TABLE,
};
pub use store::{is_partial_trace, ProvenanceStats, ProvenanceStore, RequestRecord};
