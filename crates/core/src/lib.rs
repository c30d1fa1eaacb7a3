//! # trod-core
//!
//! The TROD debugger itself — the primary contribution of *Transactions
//! Make Debugging Easy* (CIDR 2023) — built on the substrates in the
//! sibling crates:
//!
//! | Paper concept | This crate |
//! |---|---|
//! | Declarative debugging over provenance (§3.3–3.4) | [`Declarative`], [`Trod::query`] |
//! | Faithful bug replay with per-transaction breakpoints (§3.5) | [`ReplaySession`] |
//! | Retroactive programming over past events (§3.6) | [`RetroactiveBuilder`], [`RetroactiveReport`] |
//! | Conflict-aware re-execution ordering enumeration (§3.6) | [`interleave::ConflictGraph`] |
//! | Access-control & exfiltration forensics (§4.2) | [`Security`] |
//! | Rules over database state: bug-fix validation (§4.1) and data quality with blame (§5) | [`Invariant`], [`Quality::check`] |
//!
//! Each typed helper is a statement over the provenance tables
//! (`Executions`, `Requests`, `ExternalCalls` and one `<X>Events` per
//! traced application table: registered up front, or by the first trace
//! that touches it), which can be pasted into
//! [`Trod::query`] and edited. `…` stands for a quoted value
//! ([`trod_query::text_literal`]); the helper's own docs show a full
//! statement.
//!
//! | Helper | Statement |
//! |---|---|
//! | [`Declarative::find_writers`] | `SELECT Timestamp, ReqId, HandlerName, E.TxnId FROM Executions as E, <X>Events as F ON E.TxnId = F.TxnId WHERE F.Type = … AND F.<column> = … ORDER BY Timestamp ASC` |
//! | [`Declarative::handler_activity`]; the `transactions` of [`Perf::handler_latencies`] | [`HANDLER_ACTIVITY_SQL`] |
//! | [`Declarative::concurrent_requests`] | `SELECT SnapshotTs, CommitTs FROM Executions WHERE ReqId = … AND Committed = TRUE ORDER BY CommitTs, Timestamp`, then `SELECT ReqId FROM Executions WHERE Committed = TRUE AND ReqId != … AND CommitTs > <first snapshot> AND SnapshotTs < <last commit> ORDER BY CommitTs, Timestamp` |
//! | [`Declarative::requests_touching_table`], [`RetroactiveBuilder::requests_touching_table`] | `SELECT E.ReqId FROM Executions AS E, <X>Events AS F ON E.TxnId = F.TxnId ORDER BY E.Committed DESC, E.CommitTs, E.SnapshotTs, E.Timestamp` |
//! | [`Perf::slow_requests`] | [`TXNS_PER_INVOCATION_SQL`] |
//! | [`Perf::request_breakdown`] | `SELECT HandlerName, COUNT(*) FROM Executions WHERE ReqId = … GROUP BY HandlerName` |
//! | [`Quality::blame`] | `SELECT E.TxnId, E.ReqId, E.HandlerName, E.Timestamp, F.Type FROM Executions AS E, <X>Events AS F ON E.TxnId = F.TxnId WHERE E.Committed = TRUE AND F.Type != 'Read' AND F.<key column> = … ORDER BY E.CommitTs, F.EventId` |
//! | [`Security::user_profile_violations`] | `SELECT Timestamp, ReqId, HandlerName, P.<owner>, P.<updater> FROM Executions as E, <X>Events as P ON E.TxnId = P.TxnId WHERE P.<owner> != P.<updater> AND P.Type = 'Update' ORDER BY Timestamp ASC` |
//! | [`Security::unauthenticated_reads`] | `SELECT Timestamp, ReqId, HandlerName FROM Executions as E, <X>Events as P ON E.TxnId = P.TxnId WHERE P.Type = 'Read' AND HandlerName NOT IN (…) ORDER BY Timestamp ASC` |
//! | [`Security::trace_data_flow`] | the taint walk over committed traces ([`trod_provenance::ProvenanceStore::txns_between`]), then `SELECT ReqId, Service, Payload FROM ExternalCalls WHERE ReqId IN (…) ORDER BY Timestamp ASC` |
//! | [`Reenactor::audit_anomalies`] | none: pairs of committed traces ([`trod_provenance::ProvenanceStore::txns_between`]) |
//!
//! Replay, reenactment, retroactive programming and
//! [`interleave::ConflictGraph`] need whole traces. The provenance store
//! keeps no copy of them: it assembles each from the transaction's
//! `Executions` row, its `<X>Events` rows and the application's own
//! history ([`trod_db::Database::history`]), one request, one commit
//! range or one transaction at a time.
//!
//! The entry point is [`Trod`]: attach it to a running
//! [`trod_runtime::Runtime`], let the application serve (traced)
//! requests, call [`Trod::sync`] (from any thread, as often as wanted) to
//! move traces into the provenance database, and then debug.

/// The shared hand-rolled JSON module (one escaper, one number
/// formatter, writer + strict parser). It lives in `trod-trace` — the
/// lowest crate that needs it for wire-format serialization — and is
/// re-exported here so debugger-level consumers (the server, tooling)
/// can reach it as `trod_core::json`.
pub mod json {
    pub use trod_trace::json::*;
}

/// Wire-format serialization of engine types (values, CDC records,
/// aligned-log entries, traces); see [`trod_trace::wire`].
pub mod wire {
    pub use trod_trace::wire::*;
}

pub mod debugger;
pub mod declarative;
pub mod interleave;
pub mod invariant;
pub mod perf;
pub mod quality;
pub mod reenactment;
pub mod replay;
pub mod retroactive;
pub mod security;

pub use debugger::Trod;
pub use declarative::{Declarative, WriterRecord, HANDLER_ACTIVITY_SQL};
pub use interleave::{txns_conflict, ConflictGraph};
pub use invariant::{Invariant, Violation};
pub use perf::{
    HandlerLatency, Perf, RequestProfile, SlowRequest, SpanNode, TXNS_PER_INVOCATION_SQL,
};
pub use quality::{BlameRecord, BlamedViolation, Quality, QualityReport};
pub use reenactment::{Anomaly, AnomalyKind, ReenactmentReport, Reenactor};
pub use replay::{ReplayError, ReplayReport, ReplaySession, ReplayStep, StepReport};
pub use retroactive::{
    OrderingOutcome, RequestOutcome, RetroactiveBuilder, RetroactiveError, RetroactiveReport,
};
pub use security::{AccessViolation, DataFlowReport, Security};
