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
//! a **forked session environment**, never on production state:
//!
//! * **What forks.** [`trod_kv::Session::fork_at`] forks the *whole*
//!   environment ([`trod_db::Database::fork_at`]) — tables and key-value
//!   namespaces, which are tables too — at one timestamp of the aligned
//!   history, so cross-store invariants hold in the fork exactly as they
//!   held in production at that moment.
//! * **At which timestamp.** Replay ([`Trod::replay`]) forks at the
//!   snapshot the request's first transaction read from; retroactive
//!   programming ([`Trod::retroactive`]) at the earliest snapshot of the
//!   selected requests (or an explicit override). Reenactment needs no
//!   fork at all: it time-travels the production stores read-only.
//! * **How truncated history is stitched.** [`Database::gc_before`]
//!   truncates the aligned log together with the row versions; with
//!   [`Trod::enable_retention`] the truncated entries are *spilled* into
//!   this debugger's provenance store first. [`Trod::aligned_history`]
//!   stitches spilled + live entries back into one continuous view, and
//!   the fork path does the same transparently: a fork below the GC
//!   floor is reconstructed by replaying the stitched history into an
//!   empty environment — so debugging reach is bounded by retention, not
//!   by GC pressure.

use std::sync::Arc;

use trod_db::{Database, DbResult};
use trod_kv::{AlignedCommit, Session};
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
    runtime: Arc<Runtime>,
    provenance: Arc<ProvenanceStore>,
}

impl Trod {
    /// Attaches TROD to a runtime, creating a provenance store that has an
    /// event table registered (under its default name) for every table of
    /// the application database.
    pub fn attach(runtime: Runtime) -> DbResult<Self> {
        let provenance = ProvenanceStore::for_application(runtime.database())?;
        Ok(Trod {
            runtime: Arc::new(runtime),
            provenance: Arc::new(provenance),
        })
    }

    /// Attaches TROD to a runtime using an explicitly configured
    /// provenance store (e.g. one whose event tables carry the paper's
    /// names such as `ForumEvents`).
    pub fn attach_with(runtime: Runtime, provenance: ProvenanceStore) -> Self {
        Trod {
            runtime: Arc::new(runtime),
            provenance: Arc::new(provenance),
        }
    }

    /// The production runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// A shared handle to the production runtime.
    pub fn runtime_arc(&self) -> Arc<Runtime> {
        self.runtime.clone()
    }

    /// The production session: the unified transaction surface
    /// (application database with its key-value namespaces, tracer) every
    /// debugging layer reads through. This is the single API choke point
    /// where the aligned history is captured — relational-only, KV-only
    /// and mixed commits alike.
    pub fn session(&self) -> &Session {
        self.runtime.session()
    }

    /// The production application database.
    pub fn production_db(&self) -> &Database {
        self.runtime.database()
    }

    /// The provenance store.
    pub fn provenance(&self) -> &ProvenanceStore {
        &self.provenance
    }

    /// A shared handle to the provenance store (implements
    /// [`trod_trace::TraceSink`], so it can be handed to a
    /// [`trod_trace::BackgroundFlusher`] for continuous ingestion).
    pub fn provenance_arc(&self) -> Arc<ProvenanceStore> {
        self.provenance.clone()
    }

    /// Drains the tracer's in-memory buffer into the provenance store.
    /// Production deployments run a background flusher instead; tests and
    /// examples call this explicitly at convenient points.
    pub fn sync(&self) -> usize {
        let events = self.runtime.tracer().drain();
        let n = events.len();
        self.provenance.ingest(events);
        n
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
        Reenactor::new(&self.provenance, self.runtime.session())
    }

    /// Starts a faithful replay of a past request (§3.5) in a development
    /// environment — tables and key-value namespaces — forked from
    /// production state at the request's snapshot, or reconstructed from spilled aligned
    /// history when the snapshot predates the GC floor (see the module
    /// docs and [`Trod::enable_retention`]).
    pub fn replay(&self, req_id: &str) -> Result<ReplaySession, ReplayError> {
        ReplaySession::for_session(&self.provenance, self.runtime.session(), req_id)
    }

    /// Forks the whole environment at `ts`, retention-aware:
    /// above the GC floor this is `Session::fork_at`; below it the state
    /// is reconstructed from spilled + live aligned history, exactly as
    /// replay does. This is the entry point the server's remote fork
    /// sessions go through.
    pub fn fork_at(&self, ts: trod_db::Ts) -> Result<Session, ReplayError> {
        crate::replay::fork_environment(&self.provenance, self.runtime.session(), ts)
    }

    /// Starts configuring a retroactive-programming run (§3.6) that
    /// re-executes original requests against `patched_registry`, each
    /// ordering in a fresh fork of the whole session environment.
    pub fn retroactive(&self, patched_registry: HandlerRegistry) -> RetroactiveBuilder {
        RetroactiveBuilder::new(
            self.provenance.clone(),
            self.runtime.session().clone(),
            patched_registry,
        )
    }

    /// Installs this debugger's provenance store as the production
    /// database's aligned-history retention policy: from now on,
    /// [`Database::gc_before`] spills every transaction-log entry it
    /// truncates into the provenance store instead of dropping it, so
    /// [`Trod::aligned_history`] and [`Trod::replay`] keep reaching
    /// history older than the GC watermark. Call before the first GC for
    /// a gap-free history.
    pub fn enable_retention(&self) {
        self.runtime
            .database()
            .set_retention_policy(Some(self.provenance.clone()));
    }

    /// Recovers a durable production environment and attaches the
    /// debugger to it: the WAL at `path` is validated (torn tail
    /// truncated at the last valid checksum, corruption refused with a
    /// typed error) and replayed into a fresh session —
    /// state, catalogs, namespaces and the aligned history all restored —
    /// then wrapped in a runtime over `registry`. Subsequent commits
    /// append to the recovered log.
    pub fn open_durable(
        path: impl AsRef<std::path::Path>,
        opts: trod_db::WalOptions,
        registry: HandlerRegistry,
    ) -> Result<(Self, trod_db::RecoveryReport), trod_db::TrodError> {
        let (session, report) = Session::open_durable(path, opts)?;
        let runtime = Runtime::builder(session.database().clone(), registry).build();
        let trod = Trod::attach(runtime).map_err(trod_db::TrodError::Relational)?;
        Ok((trod, report))
    }

    /// Garbage-collects production history under one clamped horizon
    /// ([`Session::gc_before`]); with retention enabled
    /// the truncated aligned entries are spilled to the provenance store
    /// before they leave the live log, so [`Trod::aligned_history`] stays
    /// gap-free; on a durable environment the same pass compacts the
    /// covered WAL segments into cold files, the durable copy.
    pub fn gc_before(&self, ts: trod_db::Ts) -> trod_kv::GcStats {
        self.runtime.session().gc_before(ts)
    }

    /// Forces an environment checkpoint now ([`Session::checkpoint`]):
    /// a durable whole-environment snapshot that bounds both recovery
    /// replay and the delta [`Trod::fork_at`] has to re-apply below the
    /// GC floor. Returns `Ok(None)` when the environment is not durable,
    /// the write was skipped (nothing committed since the last one), or
    /// another checkpoint is already in flight.
    pub fn checkpoint(&self) -> Result<Option<(trod_db::Ts, u64)>, trod_db::TrodError> {
        self.runtime.session().checkpoint()
    }

    /// The complete aligned cross-store history this debugger can see:
    /// entries spilled to the provenance store by GC retention, followed
    /// by the live transaction log — stitched into one commit-ordered
    /// view. Without retention (or before any GC) this is just the live
    /// [`Session::aligned_log`].
    pub fn aligned_history(&self) -> Vec<AlignedCommit> {
        // Read the live log BEFORE the spill: entries only ever move
        // live → spilled (under GC), so an entry a concurrent GC drains
        // between the two reads appears in both snapshots — never in
        // neither — and the overlap is dropped by commit timestamp. The
        // other order could lose an in-flight entry entirely.
        let live = self.runtime.session().aligned_log();
        let mut out: Vec<AlignedCommit> = self
            .provenance
            .spilled_log()
            .into_iter()
            .map(AlignedCommit::from_entry)
            .collect();
        let spilled_up_to = out.last().map(|c| c.commit_ts).unwrap_or(0);
        out.extend(live.into_iter().filter(|c| c.commit_ts > spilled_up_to));
        out
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
