//! Retroactive programming (paper §3.6).
//!
//! Retroactive programming re-executes *original* production requests
//! against *modified* code on a past database snapshot. Because the patch
//! may change transaction boundaries, TROD cannot simply re-apply the
//! transaction log; it must actually re-execute the handlers, and it must
//! consider the different orders in which the conflicting requests could
//! have interleaved. The conflict-aware ordering enumeration comes from
//! [`crate::interleave`]; this module drives the re-executions and
//! evaluates invariants over every outcome.

use std::fmt;
use std::sync::Arc;

use trod_db::{Database, DbError, IsolationLevel, Ts};
use trod_kv::Session;
use trod_provenance::{ProvenanceStore, RequestRecord};
use trod_runtime::{Args, HandlerRegistry, Runtime};

use crate::declarative::Declarative;
use crate::interleave::ConflictGraph;
use crate::invariant::{Invariant, Violation};
use crate::json::Json;

/// Errors raised while preparing or running a retroactive exploration.
#[derive(Debug, Clone, PartialEq)]
pub enum RetroactiveError {
    /// No requests were selected for re-execution.
    NoRequestsSelected,
    /// A selected request has no traced root-handler invocation.
    MissingRequestRecord(String),
    /// The recorded arguments for a request could not be decoded.
    BadArguments { req_id: String, detail: String },
    /// The development environment could not be forked at the requested
    /// snapshot (e.g. [`DbError::HistoryTruncated`]: GC truncated it and
    /// no durable log covers it).
    Fork(DbError),
    /// An underlying storage error.
    Storage(DbError),
}

impl fmt::Display for RetroactiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetroactiveError::NoRequestsSelected => {
                write!(f, "no requests selected for retroactive re-execution")
            }
            RetroactiveError::MissingRequestRecord(r) => {
                write!(f, "request `{r}` has no traced root handler invocation")
            }
            RetroactiveError::BadArguments { req_id, detail } => {
                write!(
                    f,
                    "cannot decode recorded arguments of `{req_id}`: {detail}"
                )
            }
            RetroactiveError::Fork(e) => write!(f, "cannot fork the environment: {e}"),
            RetroactiveError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for RetroactiveError {}

impl From<DbError> for RetroactiveError {
    fn from(e: DbError) -> Self {
        RetroactiveError::Storage(e)
    }
}

/// The outcome of re-executing one request in one ordering.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// The re-executed request's id (original id with a prime suffix,
    /// mirroring the paper's Figure 3: R1 → R1').
    pub req_id: String,
    /// The original request id.
    pub original_req_id: String,
    /// The root handler that was re-executed.
    pub handler: String,
    /// Whether the handler completed without error.
    pub ok: bool,
    /// The handler's output (or error message).
    pub output: String,
    /// The original production output, for comparison.
    pub original_output: Option<String>,
    /// Whether the original production execution succeeded.
    pub original_ok: Option<bool>,
}

impl RequestOutcome {
    /// True if success/failure changed relative to the original execution.
    pub fn outcome_changed(&self) -> bool {
        match self.original_ok {
            Some(orig) => orig != self.ok,
            None => false,
        }
    }
}

/// The outcome of one complete re-execution ordering.
#[derive(Debug, Clone)]
pub struct OrderingOutcome {
    /// The order in which the original requests were re-executed.
    pub order: Vec<String>,
    /// Per-request outcomes, in execution order.
    pub outcomes: Vec<RequestOutcome>,
    /// Invariant violations observed on the final state, each rendered
    /// as `[rule] detail`.
    pub violations: Vec<String>,
    /// The development environment this ordering ran in, forked at the
    /// branch snapshot, left available for further
    /// inspection (same shape as `ReplaySession::dev_session`).
    pub dev: Session,
}

impl OrderingOutcome {
    /// The development database produced by this ordering.
    pub fn dev_db(&self) -> &Database {
        self.dev.database()
    }

    /// True if no invariant was violated and every re-executed request
    /// succeeded or failed exactly as it originally did.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The full report of a retroactive exploration.
#[derive(Debug, Clone)]
pub struct RetroactiveReport {
    /// The snapshot timestamp re-execution branched from.
    pub snapshot_ts: Ts,
    /// Number of conflicting request pairs found.
    pub conflicting_pairs: usize,
    /// One outcome per explored ordering (the original order first).
    pub orderings: Vec<OrderingOutcome>,
}

impl RetroactiveReport {
    /// True if every explored ordering satisfied every invariant.
    pub fn all_orderings_clean(&self) -> bool {
        self.orderings.iter().all(OrderingOutcome::is_clean)
    }

    /// All distinct invariant violations across orderings.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for ordering in &self.orderings {
            for v in &ordering.violations {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
        }
        out
    }

    /// Outcomes whose success/failure differs from the original execution
    /// (useful to spot regressions introduced by a patch).
    pub fn changed_outcomes(&self) -> Vec<&RequestOutcome> {
        self.orderings
            .iter()
            .flat_map(|o| o.outcomes.iter())
            .filter(|o| o.outcome_changed())
            .collect()
    }
}

/// Configures and runs a retroactive exploration.
pub struct RetroactiveBuilder {
    provenance: Arc<ProvenanceStore>,
    production: Session,
    registry: HandlerRegistry,
    req_ids: Vec<String>,
    snapshot_ts: Option<Ts>,
    max_orderings: usize,
    isolation: IsolationLevel,
    invariants: Vec<Invariant>,
}

impl RetroactiveBuilder {
    /// Creates a builder; used through [`crate::Trod::retroactive`]. Each
    /// explored ordering runs the patched handlers in a fresh fork of the
    /// whole production environment — tables and key-value namespaces —
    /// at the branch snapshot.
    pub fn new(
        provenance: Arc<ProvenanceStore>,
        production: Session,
        registry: HandlerRegistry,
    ) -> Self {
        RetroactiveBuilder {
            provenance,
            production,
            registry,
            req_ids: Vec::new(),
            snapshot_ts: None,
            max_orderings: 12,
            isolation: IsolationLevel::Serializable,
            invariants: Vec::new(),
        }
    }

    /// Selects explicit requests to re-execute (in original order).
    pub fn requests(mut self, req_ids: &[&str]) -> Self {
        self.req_ids = req_ids.iter().map(|r| r.to_string()).collect();
        self
    }

    /// Selects every traced request that touched `table` — the paper's
    /// suggestion for thorough patch testing ("serve past user requests
    /// directly related to this bug and other requests that may touch the
    /// same table", §4.1): [`Declarative::requests_touching_table`].
    pub fn requests_touching_table(mut self, table: &str) -> Self {
        self.req_ids = Declarative::new(&self.provenance).requests_touching_table(table);
        self
    }

    /// Branches from an explicit snapshot timestamp instead of the
    /// earliest snapshot of the selected requests. A timestamp past the
    /// production clock branches from the clock, as
    /// [`Session::fork_at`] does, and the report says so.
    pub fn snapshot_at(mut self, ts: Ts) -> Self {
        self.snapshot_ts = Some(ts);
        self
    }

    /// Caps the number of explored orderings (default 12).
    pub fn max_orderings(mut self, n: usize) -> Self {
        self.max_orderings = n.max(1);
        self
    }

    /// Sets the isolation level the patched handlers run under
    /// (default: serializable).
    pub fn isolation(mut self, isolation: IsolationLevel) -> Self {
        self.isolation = isolation;
        self
    }

    /// Adds an invariant evaluated on the final state of every ordering.
    /// Each violation is one string of [`OrderingOutcome::violations`];
    /// an invariant that cannot be checked (an unknown table or column)
    /// is one `cannot check` string, so it fails every ordering.
    pub fn invariant(mut self, invariant: Invariant) -> Self {
        self.invariants.push(invariant);
        self
    }

    /// Runs the exploration.
    pub fn run(self) -> Result<RetroactiveReport, RetroactiveError> {
        if self.req_ids.is_empty() {
            return Err(RetroactiveError::NoRequestsSelected);
        }

        // Root handler invocation (parent == None) and its arguments, for
        // every selected request.
        let mut roots: Vec<(String, RequestRecord, Args)> = Vec::new();
        for req_id in &self.req_ids {
            let records = self.provenance.request_records(req_id);
            let root = records
                .iter()
                .find(|r| r.parent.is_none())
                .cloned()
                .ok_or_else(|| RetroactiveError::MissingRequestRecord(req_id.clone()))?;
            let args = Json::parse(&root.args)
                .map_err(|e| e.to_string())
                .and_then(|json| Args::from_json(&json).map_err(|e| e.to_string()))
                .map_err(|detail| RetroactiveError::BadArguments {
                    req_id: req_id.clone(),
                    detail,
                })?;
            roots.push((req_id.clone(), root, args));
        }

        // Snapshot: the earliest snapshot any selected request's
        // transaction read from, unless overridden.
        let selected_txns: Vec<_> = self
            .req_ids
            .iter()
            .flat_map(|r| self.provenance.txns_for_request(r))
            .filter(|t| t.committed)
            .collect();
        let snapshot_ts = self
            .snapshot_ts
            .unwrap_or_else(|| {
                selected_txns
                    .iter()
                    .map(|t| t.snapshot_ts)
                    .min()
                    .unwrap_or(0)
            })
            .min(self.production.database().current_ts());

        // Conflict-aware ordering enumeration.
        let graph = ConflictGraph::build(&self.req_ids, &selected_txns);
        let orderings = graph.enumerate_orderings(self.max_orderings);

        let mut outcomes = Vec::with_capacity(orderings.len());
        for order in orderings {
            // Fork the whole environment the way replay does, so
            // retroactive runs reach history below the GC floor too.
            let dev = self
                .production
                .fork_at(snapshot_ts)
                .map_err(RetroactiveError::Fork)?;
            let runtime = Runtime::builder(dev.database().clone(), self.registry.clone())
                .default_isolation(self.isolation)
                .request_prefix("RETRO-")
                .build();

            let mut request_outcomes = Vec::with_capacity(order.len());
            for req_id in &order {
                let (_, root, args) = roots
                    .iter()
                    .find(|(r, _, _)| r == req_id)
                    .expect("ordering only permutes selected requests");
                let replay_id = format!("{req_id}'");
                let result =
                    runtime.handle_request_with_id(&replay_id, &root.handler, args.clone());
                let (ok, output) = match &result.output {
                    Ok(v) => (true, v.to_string()),
                    Err(e) => (false, e.to_string()),
                };
                request_outcomes.push(RequestOutcome {
                    req_id: replay_id,
                    original_req_id: req_id.clone(),
                    handler: root.handler.clone(),
                    ok,
                    output,
                    original_output: root.output.clone(),
                    original_ok: root.ok,
                });
            }

            // An invariant that cannot be checked fails the ordering.
            let violations = (self.invariants.iter())
                .flat_map(|inv| match inv.check(dev.database()) {
                    Ok(found) => found.iter().map(Violation::to_string).collect(),
                    Err(e) => vec![format!("[{}] cannot check: {e}", inv.name())],
                })
                .collect();
            outcomes.push(OrderingOutcome {
                order,
                outcomes: request_outcomes,
                violations,
                dev,
            });
        }

        Ok(RetroactiveReport {
            snapshot_ts,
            conflicting_pairs: graph.conflict_count(),
            orderings: outcomes,
        })
    }
}

impl fmt::Debug for RetroactiveBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RetroactiveBuilder")
            .field("requests", &self.req_ids)
            .field("max_orderings", &self.max_orderings)
            .field("invariants", &self.invariants.len())
            .finish()
    }
}
