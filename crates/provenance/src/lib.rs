//! # trod-provenance
//!
//! The TROD **provenance database** (paper Figure 2, §3.4): an analytical
//! store holding always-on tracing output in a structured, queryable form.
//!
//! * The [`ProvenanceStore`] owns its own [`trod_db::Database`] with the
//!   fixed tables `Executions` (the paper's Table 1), `Requests` and
//!   `ExternalCalls`, plus one `<X>Events` table per registered
//!   application table (the paper's Table 2, e.g. `ForumEvents`).
//! * Events reach it one way: [`ProvenanceStore::drain_from`] drains a
//!   [`trod_trace::Tracer`]'s buffer and ingests the batch under the
//!   store's ingest lock, so racing drains cannot reorder a request's
//!   events. Whoever runs the tracer decides when to call it (the server
//!   runs a periodic sync thread).
//! * Each handler invocation is kept once, as its `Requests` row;
//!   [`RequestRecord`]s are decoded from those rows.
//! * Developers (and the TROD debugger core) query it with SQL through
//!   [`ProvenanceStore::query`]; the replay and retroactive engines
//!   additionally use the in-memory transaction archive
//!   ([`ProvenanceStore::txns_for_request`] etc.), which keeps full CDC
//!   before/after images the tables do not.

pub mod redaction;
pub mod schema;
pub mod store;

pub use redaction::{RedactionReport, RetentionReport, REDACTED_MARKER};
pub use schema::{
    default_event_table_name, event_column_names, event_table_schema, executions_schema,
    external_calls_schema, requests_schema, EXECUTIONS_TABLE, EXTERNAL_CALLS_TABLE, REQUESTS_TABLE,
};
pub use store::{ProvenanceStats, ProvenanceStore, RequestRecord};
