//! # trod
//!
//! Facade crate for the TROD reproduction (*Transactions Make Debugging
//! Easy*, CIDR 2023). It re-exports every component crate under one
//! dependency and provides a [`prelude`] with the items most programs
//! need:
//!
//! * [`db`] — the transactional storage engine (MVCC, strict
//!   serializability, transaction log, CDC, time travel).
//! * [`kv`] — the one transaction surface (`Session` / `Txn`) over
//!   tables and key-value namespaces, which are tables of the same
//!   database with one aligned log, and the `KvStore` read view
//!   (paper §5).
//! * [`query`] — the SQL engine used for declarative debugging.
//! * [`trace`] — the always-on tracing interposition layer.
//! * [`provenance`] — the provenance database.
//! * [`runtime`] — the serverless-style application runtime.
//! * [`core`] — the TROD debugger: declarative debugging, bug replay,
//!   retroactive programming, security forensics.
//! * [`apps`] — the paper's case-study applications (Moodle, MediaWiki,
//!   e-commerce, user profiles) and workload generators.
//! * [`server`] — the HTTP/1.1 + JSON-RPC network front-end with remote
//!   forkable debug sessions, dump/load, and fork-from-instance.
//!
//! ```
//! use trod::prelude::*;
//! use trod::apps::moodle;
//!
//! // Reproduce the paper's running example end to end.
//! let scenario = moodle::toctou_scenario();
//! let error = scenario.run();
//! assert!(error.is_some(), "the Moodle bug manifests under the racy schedule");
//! scenario.sync_provenance();
//!
//! // Declarative debugging: the paper's §3.3 query.
//! let result = scenario
//!     .provenance
//!     .query(
//!         "SELECT Timestamp, ReqId, HandlerName \
//!          FROM Executions as E, ForumEvents as F ON E.TxnId = F.TxnId \
//!          WHERE F.user_id = 'U1' AND F.forum = 'F2' AND F.Type = 'Insert' \
//!          ORDER BY Timestamp ASC",
//!     )
//!     .unwrap();
//! assert_eq!(result.len(), 2);
//! ```

pub use trod_apps as apps;
pub use trod_core as core;
pub use trod_db as db;
pub use trod_kv as kv;
pub use trod_provenance as provenance;
pub use trod_query as query;
pub use trod_runtime as runtime;
pub use trod_server as server;
pub use trod_trace as trace;

/// The most commonly used items, re-exported for convenience.
pub mod prelude {
    pub use trod_core::{
        Declarative, Invariant, Perf, Quality, QualityRule, Reenactor, ReplaySession,
        RetroactiveBuilder, RetroactiveReport, Security, Trod,
    };
    pub use trod_db::{
        row, CommitInfo, DataType, Database, DbError, IsolationLevel, Key, Predicate, Row, Schema,
        Value,
    };
    pub use trod_kv::{KvStore, Session, Txn, TxnOptions};
    pub use trod_provenance::ProvenanceStore;
    pub use trod_query::{QueryEngine, ResultSet};
    pub use trod_runtime::{
        Args, HandlerContext, HandlerError, HandlerRegistry, Runtime, Scheduler,
    };
    pub use trod_trace::{Tracer, TxnContext};
}
