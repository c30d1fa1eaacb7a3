//! # trod-trace
//!
//! The TROD **interposition layer** (paper Figure 2): a thin shim between
//! request handlers and the application database that implements
//! *always-on tracing* (paper §3.4).
//!
//! Components:
//!
//! * [`Tracer`] — the one trace recorder: a shared handle over an
//!   in-memory, mutex-guarded event buffer, its [`TraceStats`] counters
//!   and a strictly monotonic clock. Every event a request causes
//!   (handler start/end, transaction provenance, external call intents)
//!   is recorded here and nowhere else.
//! * [`TxnTrace`] / [`ReadTrace`] / [`TraceEvent`] — the provenance
//!   records themselves: per-transaction read sets (including reads that
//!   returned nothing), CDC write sets, snapshot/commit timestamps and
//!   request context, plus handler start/end and external-call events.
//!
//! The crate has no consumer of its own: the provenance store drains a
//! [`Tracer`] (`ProvenanceStore::drain_from` in `trod-provenance`) off the
//! request path, whenever its owner asks — the server's periodic sync
//! thread, or an explicit `Trod::sync`.
//!
//! Transaction-level capture happens in the unified `Session` / `Txn`
//! surface (`trod-kv`), which records one [`TxnTrace`] per transaction —
//! relational, key-value or mixed — through the [`Tracer`] attached to
//! the session. The old relational-only `TracedDatabase` /
//! `TracedTransaction` wrappers this crate used to export were collapsed
//! into that surface.

pub mod interpose;
pub mod json;
pub mod record;
pub mod wire;

pub use interpose::{TraceStats, Tracer};
pub use json::{Json, JsonError};
pub use record::{ReadTrace, TraceEvent, TxnContext, TxnTrace};
pub use wire::WireError;
