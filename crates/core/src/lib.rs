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
//! | Bug-fix validation invariants (§4.1) | [`Invariant`] |
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
pub use declarative::{Declarative, WriterRecord};
pub use interleave::{txns_conflict, ConflictGraph};
pub use invariant::{check_all, Invariant};
pub use perf::{HandlerLatency, Perf, RequestProfile, SlowRequest, SpanNode};
pub use quality::{
    BlameRecord, BlamedViolation, Quality, QualityReport, QualityRule, QualityViolation,
};
pub use reenactment::{Anomaly, AnomalyKind, ReenactmentReport, Reenactor};
pub use replay::{ReplayError, ReplayReport, ReplaySession, ReplayStep, StepReport};
pub use retroactive::{
    OrderingOutcome, RequestOutcome, RetroactiveBuilder, RetroactiveError, RetroactiveReport,
};
pub use security::{AccessViolation, DataFlowReport, Security};
