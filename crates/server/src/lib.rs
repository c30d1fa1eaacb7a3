//! # trod-server
//!
//! The network front-end for TROD: a thread-per-connection HTTP/1.1 +
//! JSON-RPC server (hand-rolled over `std::net` — no async runtime, no
//! HTTP dependency) that wraps a shared [`trod_core::Trod`] instance and
//! exposes the *full* debugger surface over the wire:
//!
//! * **Execution** — `trod_invoke` runs application handlers (with
//!   optional server-side conflict retries) through the traced runtime.
//! * **Queries & time travel** — `trod_sql` against the application or
//!   provenance database and `trod_get` point reads, both with an
//!   optional `as_of` timestamp or `fork`; a key-value namespace is read
//!   as its table `"kv:<ns>"`.
//! * **The debugger** — fork the whole environment at a timestamp
//!   (`trod_fork`, then reads with `fork`), replay a traced request
//!   (`trod_replay`), reenact reads (`trod_reenact`), audit anomalies
//!   (`trod_anomalies`), and retroactively re-execute requests under a
//!   named server-side patch (`trod_retroactive`).
//! * **Devnet dump/load** — `sys_dump` serializes the whole environment
//!   (schema, namespaces, aligned history, up to an optional `up_to`) to
//!   one document;
//!   [`Dump::boot`] brings up a new instance from it; and
//!   [`fork_from_instance`] pulls a fork at any timestamp from a
//!   *running* server over the network.
//!
//! Every error is typed: a numeric code plus `data.kind` and
//! `data.retryable`, so clients implement exactly one retry rule. See
//! `PROTOCOL.md` in this crate for the wire reference.
//!
//! Graceful shutdown ([`ServerHandle::shutdown`]) drains in-flight
//! requests, answers the drain window with a retryable 503, closes idle
//! connections, and syncs WAL group-commit waiters before reporting the
//! server down.

pub mod client;
pub mod dump;
pub mod error;
pub mod http;
pub mod rpc;
pub mod server;
pub mod state;

pub use client::{Client, ClientError, RpcFailure};
pub use dump::{fork_from_instance, Dump, DumpError};
pub use error::RpcError;
pub use http::{HttpRequest, Limits};
pub use server::{ServerBuilder, ServerConfig, ServerHandle, ShutdownReport};
pub use state::ServerState;
