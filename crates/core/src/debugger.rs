//! The top-level TROD debugger façade.
//!
//! A [`Trod`] instance binds a production [`Runtime`] (application
//! handlers + traced database) to a [`ProvenanceStore`], mirroring the
//! paper's Figure 2: the interposition layer traces the production
//! environment, the provenance database stores the traces, and the
//! debugging operations — declarative queries, bug replay, retroactive
//! programming — run against that captured history in a development
//! environment.
//!
//! # Fork/replay architecture
//!
//! Every debugging feature that re-executes or verifies history works on
//! a **fork of the production database**, never on production state:
//!
//! * **What forks.** [`Database::fork_at`] forks the *whole*
//!   environment — tables and key-value namespaces, which are tables
//!   too — at one timestamp of the aligned history, so cross-store
//!   invariants hold in the fork exactly as they held in production at
//!   that moment. The fork is a plain, untraced [`Database`].
//! * **At which timestamp.** Replay ([`Trod::replay`]) forks at the
//!   snapshot the request's first transaction read from; retroactive
//!   programming ([`Trod::retroactive`]) at the earliest snapshot of the
//!   selected requests (or an explicit override). Reenactment needs no
//!   fork at all: it time-travels the production stores read-only.
//! * **Below the GC floor.** [`Database::gc_before`] truncates the
//!   in-memory aligned log together with the row versions; a durable
//!   environment's log keeps every commit. [`Database::history`] reads
//!   it below the floor, and a fork below the floor is the
//!   nearest checkpoint plus the logged commits after it — so debugging
//!   reach is bounded by the log, not by GC pressure. An in-memory
//!   environment that wants deep history is created over a
//!   [`trod_db::MemDir`] log.

use std::sync::Arc;

use trod_db::{Database, DbResult};
use trod_provenance::ProvenanceStore;
use trod_query::{QueryResultT, ResultSet};
use trod_runtime::{HandlerRegistry, Runtime};

use crate::declarative::Declarative;
use crate::perf::Perf;
use crate::quality::Quality;
use crate::reenactment::Reenactor;
use crate::replay::{ReplayError, ReplaySession};
use crate::retroactive::RetroactiveBuilder;
use crate::security::Security;

/// The transaction-oriented debugger.
pub struct Trod {
    runtime: Runtime,
    provenance: Arc<ProvenanceStore>,
}

impl Trod {
    /// Attaches TROD to a runtime, creating a provenance store that has an
    /// event table registered (under its default name) for every table of
    /// the application database.
    pub fn attach(runtime: Runtime) -> DbResult<Self> {
        let provenance = ProvenanceStore::for_application(runtime.database())?;
        Ok(Trod {
            runtime,
            provenance: Arc::new(provenance),
        })
    }

    /// Attaches TROD to a runtime using an explicitly configured
    /// provenance store (e.g. one whose event tables carry the paper's
    /// names such as `ForumEvents`).
    pub fn attach_with(runtime: Runtime, provenance: ProvenanceStore) -> Self {
        Trod {
            runtime,
            provenance: Arc::new(provenance),
        }
    }

    /// The production runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// The production application database, with its key-value
    /// namespaces: what every debugging layer reads and forks.
    pub fn production_db(&self) -> &Database {
        self.runtime.database()
    }

    /// The provenance store.
    pub fn provenance(&self) -> &ProvenanceStore {
        &self.provenance
    }

    /// Drains the tracer's in-memory buffer into the provenance store
    /// ([`ProvenanceStore::drain_from`]) and returns the number of events
    /// ingested. Safe to call from any number of threads at once. The
    /// server calls it from a periodic sync thread and before every
    /// debugging RPC; tests and examples call it at convenient points.
    pub fn sync(&self) -> usize {
        self.provenance.drain_from(self.runtime.tracer())
    }

    /// Runs a declarative debugging query (SQL over the provenance tables).
    pub fn query(&self, sql: &str) -> QueryResultT<ResultSet> {
        self.provenance.query(sql)
    }

    /// Declarative-debugging helpers (pre-canned queries from §3.3).
    pub fn declarative(&self) -> Declarative<'_> {
        Declarative::new(&self.provenance)
    }

    /// Security and forensics helpers (§4.2).
    pub fn security(&self) -> Security<'_> {
        Security::new(&self.provenance)
    }

    /// Performance-debugging helpers (§5): per-handler latency
    /// distributions, slow-request search, per-request workflow breakdowns
    /// — all computed from the already-captured provenance.
    pub fn perf(&self) -> Perf<'_> {
        Perf::new(&self.provenance)
    }

    /// Data-quality debugging helpers (§5): declarative quality rules over
    /// the application database, with every violation blamed on the traced
    /// requests that wrote the offending rows.
    pub fn quality(&self) -> Quality<'_> {
        Quality::new(&self.provenance, self.runtime.database())
    }

    /// Weak-isolation reenactment and anomaly auditing (§3.1): time-travel
    /// reconstruction of traced read sets — relational rows and key-value
    /// entries alike — plus lost-update / write-skew candidate detection
    /// for histories captured under snapshot isolation or read committed.
    pub fn reenactor(&self) -> Reenactor<'_> {
        Reenactor::new(&self.provenance, self.runtime.database())
    }

    /// Starts a faithful replay of a past request (§3.5) in a development
    /// environment — tables and key-value namespaces — forked from
    /// production state at the request's snapshot (see the module docs).
    pub fn replay(&self, req_id: &str) -> Result<ReplaySession, ReplayError> {
        ReplaySession::new(&self.provenance, self.runtime.database(), req_id)
    }

    /// Forks the whole production database at `ts`
    /// ([`Database::fork_at`]), the way replay does; below the GC floor of
    /// an in-memory environment that is [`ReplayError::Storage`] holding
    /// [`DbError::HistoryTruncated`](trod_db::DbError::HistoryTruncated).
    /// This is the entry point the server's remote forks go through.
    pub fn fork_at(&self, ts: trod_db::Ts) -> Result<Database, ReplayError> {
        Ok(self.runtime.database().fork_at(ts)?)
    }

    /// Starts configuring a retroactive-programming run (§3.6) that
    /// re-executes original requests against `patched_registry`, each
    /// ordering in a fresh fork of the production database.
    pub fn retroactive(&self, patched_registry: HandlerRegistry) -> RetroactiveBuilder {
        RetroactiveBuilder::new(
            self.provenance.clone(),
            self.runtime.database().clone(),
            patched_registry,
        )
    }

    /// Recovers a durable production environment and attaches the
    /// debugger to it: the WAL at `path` is validated (torn tail
    /// truncated at the last valid checksum, corruption refused with a
    /// typed error) and replayed into a fresh database
    /// ([`Database::open_durable`]) — state, catalogs, namespaces and the
    /// aligned history all restored — then wrapped in a runtime over
    /// `registry`. Subsequent commits append to the recovered log.
    pub fn open_durable(
        path: impl AsRef<std::path::Path>,
        opts: trod_db::WalOptions,
        registry: HandlerRegistry,
    ) -> DbResult<(Self, trod_db::RecoveryReport)> {
        let (db, report) = Database::open_durable(path, opts)?;
        let runtime = Runtime::builder(db, registry).build();
        Ok((Trod::attach(runtime)?, report))
    }
}

impl std::fmt::Debug for Trod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trod")
            .field("runtime", &self.runtime)
            .field("provenance", &self.provenance)
            .finish()
    }
}
