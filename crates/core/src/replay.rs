//! Faithful bug replay (paper §3.5) over the whole polyglot environment.
//!
//! Replaying a past request means re-experiencing its execution in a
//! development environment: TROD forks the *session environment* — its
//! tables and key-value namespaces (which are tables too) — from the
//! state the request's first transaction saw, then walks the request's
//! transactions in their original order. Before each transaction it
//! *injects* the state changes made by concurrently committed
//! transactions that the original execution observed (the paper's
//! "breakpoint before the beginning of each transaction"), verifies that
//! the development environment now shows exactly the rows the original
//! transaction read — key-value entries included (fidelity) — and then
//! applies the transaction's own recorded changes through the same
//! commit path live commits take, so the development environment's
//! aligned log mirrors production's.
//!
//! **The development environment** is [`Session::fork_at`] at the
//! snapshot timestamp: a read-through fork that copies nothing — its
//! tables read production's version chains at that timestamp and keep
//! only what the replay writes — so preparing a replay costs the
//! request's footprint, not the database's size ("Forking and replay
//! injection" in `crates/db/DESIGN.md`). Below the GC floor a durable
//! production environment reads the state at the snapshot back from its
//! log (nearest checkpoint plus the logged delta); an in-memory one
//! reports [`ReplayError::HistoryTruncated`]. Debugging reach is bounded
//! by the log, not by GC pressure.
//!
//! The session exposes a [`ReplaySession::step`] API so a developer (or a
//! test acting as one) can stop between transactions, inspect the
//! development environment, and see precisely which concurrent requests
//! modified the data in between — which is how the Moodle duplication
//! becomes obvious (Figure 3, top).

use std::fmt;

use trod_db::{Database, DbError, KvError, TrodError, Ts, TxnId};
use trod_kv::Session;
use trod_provenance::ProvenanceStore;
use trod_trace::TxnTrace;

/// Errors raised while preparing or running a replay.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The request id does not appear in the provenance database.
    UnknownRequest(String),
    /// The request has no traced transactions to replay.
    NoTransactions(String),
    /// The snapshot predates the GC truncation floor and no durable log
    /// covers it (the production environment is in memory).
    HistoryTruncated { snapshot_ts: Ts, floor: Ts },
    /// An underlying relational storage error.
    Storage(DbError),
    /// An underlying key-value storage error.
    KeyValue(KvError),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::UnknownRequest(r) => write!(f, "no traced request with id `{r}`"),
            ReplayError::NoTransactions(r) => {
                write!(f, "request `{r}` has no traced transactions")
            }
            ReplayError::HistoryTruncated { snapshot_ts, floor } => write!(
                f,
                "cannot fork at ts {snapshot_ts}: history below ts {floor} was \
                 garbage-collected and no durable log covers it"
            ),
            ReplayError::Storage(e) => write!(f, "storage error during replay: {e}"),
            ReplayError::KeyValue(e) => write!(f, "key-value error during replay: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<DbError> for ReplayError {
    fn from(e: DbError) -> Self {
        match e {
            DbError::HistoryTruncated { ts, floor } => ReplayError::HistoryTruncated {
                snapshot_ts: ts,
                floor,
            },
            e => ReplayError::Storage(e),
        }
    }
}

impl From<TrodError> for ReplayError {
    fn from(e: TrodError) -> Self {
        match e {
            TrodError::Relational(e) => e.into(),
            TrodError::KeyValue(e) => ReplayError::KeyValue(e),
            TrodError::Storage(e) => ReplayError::Storage(DbError::Storage(e)),
        }
    }
}

/// A single replayed transaction with its injected dependencies.
#[derive(Debug, Clone)]
pub struct ReplayStep {
    /// The original transaction trace being replayed.
    pub txn: TxnTrace,
    /// Concurrently committed transactions (from *other* requests) whose
    /// changes must be injected before this transaction so the replayed
    /// execution sees the same state the original saw.
    pub injected: Vec<TxnTrace>,
    /// True if this step's transaction, or one of its injected
    /// dependencies, had provenance removed by a privacy-erasure request
    /// (paper §5): the replay proceeds on partial data and fidelity
    /// mismatches are expected rather than alarming.
    pub partial_data: bool,
}

/// The report produced by replaying one step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    pub txn_id: TxnId,
    pub handler: String,
    pub function: String,
    /// (txn id, request id) pairs injected before this step — the answer
    /// to "who changed the database between my transactions?".
    pub injected: Vec<(TxnId, String)>,
    /// Reads the original transaction performed — relational rows and
    /// key-value entries alike — that were verified against the
    /// development environment.
    pub reads_checked: usize,
    /// Human-readable descriptions of any fidelity mismatches.
    pub mismatches: Vec<String>,
    /// Number of CDC records applied for the transaction itself.
    pub writes_applied: usize,
    /// CDC records (of this transaction or its injected dependencies)
    /// whose row images were erased by privacy redaction and so could not
    /// be applied. Zero for unredacted provenance.
    pub writes_skipped: usize,
    /// True if the step ran on provenance that was partially redacted
    /// (privacy erasure, §5); see [`ReplayStep::partial_data`].
    pub partial_data: bool,
}

impl StepReport {
    /// True if every checked read matched the original execution.
    pub fn is_faithful(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// The report for a whole replayed request.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    pub req_id: String,
    pub steps: Vec<StepReport>,
}

impl ReplayReport {
    /// True if every step was faithful.
    pub fn is_faithful(&self) -> bool {
        self.steps.iter().all(StepReport::is_faithful)
    }

    /// Total injected concurrent transactions across all steps.
    pub fn injected_count(&self) -> usize {
        self.steps.iter().map(|s| s.injected.len()).sum()
    }

    /// Total records skipped across all steps (zero unless provenance was
    /// redacted).
    pub fn writes_skipped(&self) -> usize {
        self.steps.iter().map(|s| s.writes_skipped).sum()
    }

    /// True if any step ran on partially redacted provenance, in which
    /// case a non-faithful replay may be the expected consequence of a
    /// privacy-erasure request rather than a bug in the application.
    pub fn has_partial_data(&self) -> bool {
        self.steps.iter().any(|s| s.partial_data)
    }
}

/// An in-progress replay of one request.
pub struct ReplaySession {
    req_id: String,
    /// The forked development environment.
    dev: Session,
    steps: Vec<ReplayStep>,
    position: usize,
    reports: Vec<StepReport>,
}

impl ReplaySession {
    /// Prepares a replay of `req_id`: forks the development environment —
    /// `production` at the snapshot the request's first transaction saw,
    /// below the GC floor too (see the module docs) — and computes, for
    /// each of the request's transactions, the concurrent transactions
    /// whose changes must be injected before it.
    pub fn for_session(
        provenance: &ProvenanceStore,
        production: &Session,
        req_id: &str,
    ) -> Result<Self, ReplayError> {
        let own_txns = provenance.txns_for_request(req_id);
        if own_txns.is_empty() {
            return if provenance.request_ids().iter().any(|r| r == req_id) {
                Err(ReplayError::NoTransactions(req_id.to_string()))
            } else {
                Err(ReplayError::UnknownRequest(req_id.to_string()))
            };
        }
        let committed: Vec<TxnTrace> = own_txns.into_iter().filter(|t| t.committed).collect();
        if committed.is_empty() {
            return Err(ReplayError::NoTransactions(req_id.to_string()));
        }

        let base_ts = committed.iter().map(|t| t.snapshot_ts).min().unwrap_or(0);
        // The development environment starts from the snapshot the
        // request began against.
        let dev = production.fork_at(base_ts)?;

        let mut steps = Vec::with_capacity(committed.len());
        let mut watermark: Ts = base_ts;
        for txn in committed {
            // Under snapshot isolation and serializable every read was
            // served at the snapshot; under read committed a read can
            // observe commits up to its own recorded `read_ts`, so the
            // step's injection horizon is the latest point the
            // transaction actually observed (reenactment-style replay of
            // weak-isolation histories).
            let horizon = txn
                .reads
                .iter()
                .map(|r| r.read_ts)
                .fold(txn.snapshot_ts, Ts::max);
            let injected: Vec<TxnTrace> = provenance
                .txns_between(watermark, horizon)
                .into_iter()
                .filter(|other| other.ctx.req_id != req_id)
                .collect();
            watermark = watermark.max(horizon);
            let partial_data = provenance.is_partial(txn.txn_id)
                || injected.iter().any(|t| provenance.is_partial(t.txn_id));
            steps.push(ReplayStep {
                txn,
                injected,
                partial_data,
            });
        }

        Ok(ReplaySession {
            req_id: req_id.to_string(),
            dev,
            steps,
            position: 0,
            reports: Vec::new(),
        })
    }

    /// The request being replayed.
    pub fn req_id(&self) -> &str {
        &self.req_id
    }

    /// The development environment's relational database. Between steps a
    /// developer can inspect it freely (the programmatic stand-in for
    /// attaching GDB or a SQL shell during replay).
    pub fn dev_db(&self) -> &Database {
        self.dev.database()
    }

    /// The whole forked development environment.
    pub fn dev_session(&self) -> &Session {
        &self.dev
    }

    /// The planned steps (before execution).
    pub fn steps(&self) -> &[ReplayStep] {
        &self.steps
    }

    /// Number of steps already executed.
    pub fn position(&self) -> usize {
        self.position
    }

    /// True if every step has been executed.
    pub fn is_finished(&self) -> bool {
        self.position >= self.steps.len()
    }

    /// Executes the next step: injects concurrent changes, verifies the
    /// original read set against the development environment, applies
    /// the transaction's own writes. Returns `None`
    /// when the replay is done.
    pub fn step(&mut self) -> Result<Option<StepReport>, ReplayError> {
        if self.is_finished() {
            return Ok(None);
        }
        let step = self.steps[self.position].clone();
        self.position += 1;

        // Interleave injection with the fidelity checks: before each read
        // is verified, apply the concurrent transactions that committed at
        // or below that read's recorded timestamp — no earlier (the read
        // could not have seen them removed/changed) and no later (the
        // read could not have seen them yet). Under snapshot isolation
        // and serializable every read_ts equals the snapshot and this
        // degenerates to "inject everything, then check", the original
        // behaviour; under read committed it reproduces exactly the
        // states the transaction's reads actually observed.
        let mut writes_skipped = 0usize;
        let mut injected = Vec::with_capacity(step.injected.len());
        let mut pending = step.injected.iter().peekable();
        let mut reads_checked = 0;
        let mut mismatches = Vec::new();
        for read in &step.txn.reads {
            while let Some(other) = pending.peek() {
                if other.commit_ts > read.read_ts {
                    break;
                }
                let other = pending.next().expect("peeked");
                writes_skipped +=
                    apply_tolerating_redaction(&self.dev, &other.writes, step.partial_data)?;
                injected.push((other.txn_id, other.ctx.req_id.clone()));
            }
            // Fidelity check: everything the original transaction read
            // must be present, with identical contents, in the
            // development environment.
            for (key, original_row) in &read.rows {
                reads_checked += 1;
                match self.dev_db().get_latest(&read.table, key)? {
                    Some(dev_row) if &dev_row == original_row => {}
                    Some(dev_row) => mismatches.push(format!(
                        "{}{}: original read {} but development database has {}",
                        read.table, key, original_row, dev_row
                    )),
                    None => mismatches.push(format!(
                        "{}{}: original read {} but row is missing in development database",
                        read.table, key, original_row
                    )),
                }
            }
        }
        // Inject whatever the transaction's reads never reached (e.g.
        // write-only transactions) so the development environment still
        // ends the step at the state the transaction committed against.
        for other in pending {
            writes_skipped +=
                apply_tolerating_redaction(&self.dev, &other.writes, step.partial_data)?;
            injected.push((other.txn_id, other.ctx.req_id.clone()));
        }

        let own_skipped =
            apply_tolerating_redaction(&self.dev, &step.txn.writes, step.partial_data)?;
        writes_skipped += own_skipped;

        let report = StepReport {
            txn_id: step.txn.txn_id,
            handler: step.txn.ctx.handler.clone(),
            function: step.txn.ctx.function.clone(),
            injected,
            reads_checked,
            mismatches,
            writes_applied: step.txn.writes.len() - own_skipped,
            writes_skipped,
            partial_data: step.partial_data,
        };
        self.reports.push(report.clone());
        Ok(Some(report))
    }

    /// Runs all remaining steps and returns the full report.
    pub fn run_to_end(&mut self) -> Result<ReplayReport, ReplayError> {
        while self.step()?.is_some() {}
        Ok(ReplayReport {
            req_id: self.req_id.clone(),
            steps: self.reports.clone(),
        })
    }

    /// Reports for the steps executed so far.
    pub fn reports(&self) -> &[StepReport] {
        &self.reports
    }
}

/// Applies CDC records to the development environment. On steps that run
/// on redacted provenance (`tolerate = true`), records whose row images
/// were erased are skipped and counted instead of failing the replay —
/// the "debugging from partial data" behaviour of the paper's §5.
///
/// Returns the number of skipped records.
fn apply_tolerating_redaction(
    dev: &Session,
    writes: &[trod_db::ChangeRecord],
    tolerate: bool,
) -> Result<usize, ReplayError> {
    if !tolerate {
        // The common (unredacted) case: apply the whole transaction as
        // one aligned injection.
        dev.apply_changes(writes)?;
        return Ok(0);
    }
    let applied = writes
        .chunks(1)
        .filter(|change| dev.apply_changes(change).is_ok());
    Ok(writes.len() - applied.count())
}

impl fmt::Debug for ReplaySession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplaySession")
            .field("req_id", &self.req_id)
            .field("steps", &self.steps.len())
            .field("position", &self.position)
            .finish()
    }
}
