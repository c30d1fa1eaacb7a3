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
//!
//! The conflicts come from the original traces first, and then from the
//! re-executions themselves: a patch that adds a read or a write makes
//! conflicts the original code never had. After each ordering the
//! conflicts of its own traces join the graph, and the orderings the
//! grown graph tells apart that no run has covered yet run next, until
//! every ordering it tells apart has run or `max_orderings` have
//! ([`RetroactiveReport::hit_max_orderings`]).

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use trod_db::{Database, DbError, IsolationLevel, Ts};
use trod_kv::Session;
use trod_provenance::{ProvenanceStore, RequestRecord};
use trod_runtime::{Args, HandlerRegistry, Runtime};
use trod_trace::{TraceEvent, TxnTrace};

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
    /// Number of conflicting request pairs found, in the original traces
    /// and in the re-executions.
    pub conflicting_pairs: usize,
    /// One outcome per explored ordering (the original order first).
    pub orderings: Vec<OrderingOutcome>,
    /// Whether `max_orderings` stopped the search while an ordering the
    /// conflict graph, grown by the re-executions' own conflicts, tells
    /// apart from every one that ran was left. False when none was left.
    pub hit_max_orderings: bool,
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

    /// Selects explicit requests to re-execute, in any order: [`run`]
    /// takes the original order from their traces.
    ///
    /// [`run`]: RetroactiveBuilder::run
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

    /// Runs the exploration. The selected requests are first put in
    /// their original order, the one [`Declarative::requests_touching_table`]
    /// lists: by each request's first transaction, committed ones first,
    /// then by commit timestamp, snapshot timestamp and trace timestamp.
    /// Requests without a traced transaction come last, as selected. The
    /// first ordering explored is the original one.
    pub fn run(mut self) -> Result<RetroactiveReport, RetroactiveError> {
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
        // committed transaction read from, unless overridden.
        let selected_txns: Vec<_> = (self.req_ids.iter())
            .flat_map(|r| self.provenance.txns_for_request(r))
            .collect();
        self.req_ids.sort_by_cached_key(|req| {
            let first = (selected_txns.iter())
                .filter(|t| t.ctx.req_id == *req)
                .map(|t| (!t.committed, t.commit_ts, t.snapshot_ts, t.timestamp))
                .min();
            (first.is_none(), first)
        });
        let snapshot_ts = self
            .snapshot_ts
            .unwrap_or_else(|| {
                (selected_txns.iter())
                    .filter(|t| t.committed)
                    .map(|t| t.snapshot_ts)
                    .min()
                    .unwrap_or(0)
            })
            .min(self.production.database().current_ts());

        // Conflict-aware ordering enumeration over a graph that grows with
        // the conflicts of each re-execution; an ordering runs unless one
        // that ran already orders every conflicting pair the same way. An
        // aborted transaction's reads conflict too: what it read decided
        // that it aborted.
        let mut graph = ConflictGraph::build(&self.req_ids, &selected_txns);
        let limit = self.max_orderings.saturating_add(1);
        let mut queue = graph.enumerate_orderings(limit).into_iter();
        let mut ran = HashSet::new();
        let mut outcomes: Vec<OrderingOutcome> = Vec::new();
        let mut hit_max_orderings = false;
        while let Some(order) = queue.next() {
            if !ran.insert(graph.orientation(&order)) {
                continue;
            }
            if outcomes.len() == self.max_orderings {
                hit_max_orderings = true;
                break;
            }
            let (outcome, traces) = self.run_ordering(order, &roots, snapshot_ts)?;
            outcomes.push(outcome);
            if graph.add(&traces) > 0 {
                ran = outcomes
                    .iter()
                    .map(|o| graph.orientation(&o.order))
                    .collect();
                queue = graph.enumerate_orderings(limit).into_iter();
            }
        }

        Ok(RetroactiveReport {
            snapshot_ts,
            conflicting_pairs: graph.conflict_count(),
            orderings: outcomes,
            hit_max_orderings,
        })
    }

    /// Re-executes the selected requests in `order` in a fresh fork of
    /// production at `snapshot_ts`. Returns the outcome and every
    /// transaction's trace, aborted ones included, under the original
    /// request ids.
    fn run_ordering(
        &self,
        order: Vec<String>,
        roots: &[(String, RequestRecord, Args)],
        snapshot_ts: Ts,
    ) -> Result<(OrderingOutcome, Vec<TxnTrace>), RetroactiveError> {
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
            let result = runtime.handle_request_with_id(&replay_id, &root.handler, args.clone());
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
        let mut traces = Vec::new();
        for event in runtime.tracer().drain() {
            if let TraceEvent::Txn(mut trace) = event {
                trace.ctx.req_id.pop(); // the prime: the original request's id
                traces.push(*trace);
            }
        }

        // An invariant that cannot be checked fails the ordering.
        let violations = (self.invariants.iter())
            .flat_map(|inv| match inv.check(dev.database()) {
                Ok(found) => found.iter().map(Violation::to_string).collect(),
                Err(e) => vec![format!("[{}] cannot check: {e}", inv.name())],
            })
            .collect();
        let outcome = OrderingOutcome {
            order,
            outcomes: request_outcomes,
            violations,
            dev,
        };
        Ok((outcome, traces))
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

#[cfg(test)]
mod tests {
    use super::*;
    use trod_db::{row, DataType, Key, Predicate, Schema, Value};
    use trod_runtime::HandlerContext;

    use crate::Trod;

    /// `deposit` puts 10 into account 1; `audit` records the balance it
    /// saw, always 10 in the original code.
    fn bank(audit: fn(&mut HandlerContext<'_>) -> Option<i64>) -> HandlerRegistry {
        HandlerRegistry::new()
            .with_fn("deposit", |ctx, _| {
                let mut txn = ctx.txn("deposit");
                txn.update("acct", &Key::single(1i64), row![1i64, 10i64])?;
                txn.commit()?;
                Ok(Value::Null)
            })
            .with_fn("audit", move |ctx, _| {
                let seen = audit(ctx).unwrap_or(10);
                let mut txn = ctx.txn("audit");
                txn.insert("audit", row![1i64, seen])?;
                txn.commit()?;
                Ok(Value::Null)
            })
    }

    /// The patched `audit` reads the balance first.
    fn read_balance(ctx: &mut HandlerContext<'_>) -> Option<i64> {
        let mut txn = ctx.txn("balance");
        let acct = txn.get("acct", &Key::single(1i64)).ok()??;
        txn.commit().ok()?;
        acct[1].as_int()
    }

    /// This patched `audit` aborts its read when the deposit is in: only
    /// an ordering with `audit` first records the balance.
    fn read_balance_or_abort(ctx: &mut HandlerContext<'_>) -> Option<i64> {
        let mut txn = ctx.txn("balance");
        let balance = txn.get("acct", &Key::single(1i64)).ok()??[1].as_int()?;
        if balance == 10 {
            txn.abort();
            return None;
        }
        txn.commit().ok()?;
        Some(balance)
    }

    fn traced_bank(audit: fn(&mut HandlerContext<'_>) -> Option<i64>) -> Trod {
        let db = Database::new();
        for table in ["acct", "audit"] {
            let schema = Schema::builder()
                .column("id", DataType::Int)
                .column("n", DataType::Int)
                .primary_key(&["id"])
                .build()
                .unwrap();
            db.create_table(table, schema).unwrap();
        }
        db.apply_changes(&[trod_db::ChangeRecord::insert(
            "acct",
            Key::single(1i64),
            row![1i64, 0i64],
        )])
        .unwrap();
        let trod = Trod::attach(Runtime::new(db, bank(audit))).unwrap();
        for (req, handler) in [("R1", "deposit"), ("R2", "audit")] {
            let result = trod
                .runtime()
                .handle_request_with_id(req, handler, Args::new());
            assert!(result.output.is_ok(), "{result:?}");
        }
        trod.sync();
        trod
    }

    fn explore(
        trod: &Trod,
        patch: fn(&mut HandlerContext<'_>) -> Option<i64>,
    ) -> RetroactiveReport {
        trod.retroactive(bank(patch))
            .requests(&["R1", "R2"])
            .invariant(Invariant::all_rows_match(
                "audit",
                Predicate::eq("n", 10i64),
            ))
            .run()
            .unwrap()
    }

    #[test]
    fn a_conflict_only_the_patch_makes_is_explored() {
        // The original `audit` never read `acct`: the original traces hold
        // no conflict, the patched run's do.
        let report = explore(&traced_bank(|_| None), read_balance);
        assert_eq!(report.conflicting_pairs, 1);
        let orders: Vec<&[String]> = report.orderings.iter().map(|o| &o.order[..]).collect();
        assert_eq!(orders, [["R1", "R2"], ["R2", "R1"]]);
        assert!(report.orderings[0].is_clean());
        assert!(!report.all_orderings_clean(), "{:?}", report.violations());
        assert!(!report.hit_max_orderings);

        // An original `audit` that read `acct` gives the same answer.
        let report = explore(&traced_bank(read_balance), read_balance);
        assert_eq!(report.orderings.len(), 2);
        assert!(!report.all_orderings_clean());
    }

    #[test]
    fn a_conflict_only_an_aborted_read_makes_is_explored() {
        // In the original order the patched `audit`'s only `acct` read
        // aborts; what it read still conflicts with the deposit.
        let report = explore(&traced_bank(|_| None), read_balance_or_abort);
        assert_eq!(report.conflicting_pairs, 1);
        let orders: Vec<&[String]> = report.orderings.iter().map(|o| &o.order[..]).collect();
        assert_eq!(orders, [["R1", "R2"], ["R2", "R1"]]);
        assert!(report.orderings[0].is_clean());
        assert!(!report.orderings[1].is_clean());

        // An original `audit` whose read aborted conflicts from the start,
        // under a patch that reads nothing.
        let report = explore(&traced_bank(read_balance_or_abort), |_| None);
        assert_eq!(report.conflicting_pairs, 1);
        assert_eq!(report.orderings.len(), 2);
        assert!(report.all_orderings_clean());
    }

    #[test]
    fn the_search_says_when_max_orderings_stopped_it() {
        let trod = traced_bank(|_| None);
        let report = trod
            .retroactive(bank(read_balance))
            .requests(&["R1", "R2"])
            .max_orderings(1)
            .run()
            .unwrap();
        assert_eq!(report.orderings.len(), 1);
        assert!(report.hit_max_orderings);

        // Unrelated requests: one ordering covers every class.
        let report = trod
            .retroactive(bank(|_| None))
            .requests(&["R1", "R2"])
            .run()
            .unwrap();
        assert_eq!((report.conflicting_pairs, report.orderings.len()), (0, 1));
        assert!(!report.hit_max_orderings);
    }
}
