//! The provenance store: trace events become rows of SQL-queryable tables,
//! and those rows are the only copy the store keeps.
//!
//! Each handler invocation is kept once, as its `Requests` row; a
//! [`RequestRecord`] is a decoded view of that row. The debugger's
//! helpers are queries over the tables.
//!
//! A [`TxnTrace`] is a decoded view too, assembled on demand for the
//! consumers that need whole traces — replay, reenactment, retroactive
//! programming and `interleave`'s conflict graph — one request
//! ([`ProvenanceStore::txns_for_request`]), one commit range
//! ([`ProvenanceStore::txns_between`]) or one transaction
//! ([`ProvenanceStore::txn`]) at a time. Three parts make a trace, all
//! read at one snapshot of the store, so no accessor sees half a chunk:
//!
//! * its `Executions` row, found by a probe on `ReqId` or `TxnId`, or a
//!   range scan on `CommitTs`;
//! * its reads, from its event rows, grouped by `ReadNo`: each event row
//!   is one row read, and a read that matched nothing is one event with
//!   NULL application columns. A transaction's event rows take
//!   consecutive `EventId`s, which its `Executions` row records
//!   (`FirstEventId`, `Events`), so they are found by primary key in each
//!   event table. A `TxnId` probe would do, but the first one builds that
//!   column's index over every event row ever ingested, inside whatever
//!   debugging call comes first. The selected transactions' deferred
//!   reads (below) are installed first, under the ingest lock, and the
//!   snapshot is taken right after;
//! * its writes, from the application database's own history
//!   ([`Database::history`] at the commit's timestamp): the commit's change
//!   list, the allocation its log entry holds.
//!
//! Redaction reaches the assembled trace through the event rows: a
//! redacted read event's row is left out of its read, whose query then
//! reads [`REDACTED_MARKER`], and a transaction's k-th non-`Read` event is
//! its k-th change record, erased when that event is redacted. A writing
//! transaction whose history an in-memory application has collected
//! below its GC floor is assembled with no writes; both cases are
//! [`is_partial_trace`]. An erasure also collects the provenance
//! database's own history below its clock, so no time-travel read of
//! [`ProvenanceStore::database`] returns what it erased
//! ([`crate::redaction`]).
//!
//! # Ingest
//!
//! Events enter through [`ProvenanceStore::drain_from`], which drains a
//! [`Tracer`] under the store's ingest lock, or through
//! [`ProvenanceStore::ingest`] for a batch already in hand
//! ([`ProvenanceStore::ingest_event`] is a one-element batch). Either
//! holds the ingest lock throughout, so concurrent callers serialize,
//! `EventId`s follow stream order, and a drained `HandlerEnd` is never
//! ingested before the `HandlerStart` another caller drained ahead of it.
//! An application table a batch touches that has no event table yet is
//! registered under its default name first; events on a table the
//! application database lacks are counted
//! ([`ProvenanceStats::unregistered_table_events`]) and dropped.
//! Each event is translated once into change records:
//!
//! * `Txn` → one `<X>Events` row per write and an `Executions` row. Its
//!   event rows' `EventId`s are those of one row per row read (one
//!   NULL-data row for a read that matched nothing), then one per write,
//!   in the order of the trace's reads and change records, and the
//!   `Executions` row records them. The reads themselves are deferred
//!   (below). A `TxnId` already in `Executions` is skipped and counted.
//! * `HandlerStart` → a `Requests` row, keyed `(ReqId, HandlerName,
//!   StartTs)`.
//! * `HandlerEnd` → closes the row its `(req_id, handler, start_ts)`
//!   names. A row pending in the chunk (found by a reverse scan of its
//!   pending rows) is finished there and installs once; an installed row
//!   whose `EndTs` is still NULL is read back and updated. An end whose
//!   row is missing or already closed is a counted no-op.
//! * `ExternalCall` → an `ExternalCalls` row.
//!
//! The records of a batch are published through
//! [`Database::apply_changes`] in chunks of about `CHUNK_ROWS` rows, one
//! injected commit each. A chunk's statistics become visible only after
//! its commit; a chunk the engine rejects (a row image that does not fit
//! the registered schema) is dropped whole and its events counted, so an
//! end it held finds its row still open later. Redaction and retention
//! hold the ingest lock, so a late `HandlerEnd` reads back the redacted
//! row, or finds no expired one.
//!
//! **Deferred reads.** A read of a registered table reserves its
//! `EventId`s and is kept, under the ingest lock, as its trace recorded
//! it: table, query, `ReadTs`, `ReadNo`, `TxnId`, first `EventId` and
//! its rows, `Arc`s shared with the application table (no copy, no as-of
//! scan, so it stays exact under read committed, after the transaction's
//! own writes, in aborted transactions and after GC). Its rows are
//! installed through the same staging and chunked commits, byte for byte
//! the rows eager ingest wrote, only when something needs them:
//! assembly installs the reads of the transactions it selected,
//! [`ProvenanceStore::query`] those of the event tables a statement can
//! read read events of, [`ProvenanceStore::redact_rows`] its table's
//! before it erases, [`ProvenanceStore::database`] all of them, and
//! [`ProvenanceStore::retain_since`] drops those of the transactions it
//! drops. Installing and taking the snapshot a statement or an assembly
//! reads happen under the ingest lock, which every write to the store
//! holds, so no assembly or statement sees an `Executions` row without
//! its events. The [`ProvenanceStore::database`] handle is complete only
//! as of the call: reads ingested after it stay deferred.
//! A moodle `fetchSubscribers` ingests 2 rows, not 102.
//!
//! Ingest never maintains an index. `Executions` is indexed on `ReqId`,
//! `Timestamp` and `CommitTs`, `Requests` on `ReqId`, and each
//! `<X>Events` table on `TxnId` and on every application column; an index
//! is built by the first query that probes it and catches up from its
//! table's change log at later probes (`trod_db::index`), so a store
//! nobody queries pays for none of them.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use trod_db::{
    ChangeRecord, CommittedTxn, Database, DbResult, Key, Predicate, Row, Schema, Ts, TxnId, Value,
};
use trod_query::{
    BinOp, Expr, QueryEngine, QueryOptions, QueryResultT, ResultSet, SelectStmt, TableRef,
};
use trod_trace::{ReadTrace, TraceEvent, Tracer, TxnTrace};

use crate::redaction::{erase_change, REDACTED_MARKER};
use crate::schema::{
    default_event_table_name, event_column_names, event_ids, event_row, event_table_schema,
    executions_row, executions_schema, external_call_row, external_calls_schema, request_of,
    requests_change, requests_key, requests_schema, trace_of, EXECUTIONS_TABLE,
    EXTERNAL_CALLS_TABLE, FIRST_APP_COLUMN, REQUESTS_TABLE,
};

/// Rows per injected commit. While a chunk installs, its records exist
/// here and in the engine's log entry, so this bounds what a large drained
/// batch adds to peak memory.
const CHUNK_ROWS: usize = 2_048;

/// A completed (or still-running) handler invocation: a decoded
/// `Requests` row.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    pub req_id: String,
    pub handler: String,
    pub parent: Option<String>,
    pub args: String,
    pub output: Option<String>,
    pub ok: Option<bool>,
    pub start_ts: i64,
    pub end_ts: Option<i64>,
}

/// Summary statistics of a provenance store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProvenanceStats {
    /// Traced transactions ingested.
    pub transactions: usize,
    /// Row-level data events (rows in `<X>Events` tables). A deferred
    /// read's rows count once they are installed.
    pub data_events: usize,
    /// Reads ingested whose `<X>Events` rows are not installed yet.
    pub deferred_reads: usize,
    /// Handler invocations observed.
    pub handler_invocations: usize,
    /// External-service calls observed.
    pub external_calls: usize,
    /// Events on tables that have no event table: the application
    /// database lacks them, or their default event-table name was taken.
    pub unregistered_table_events: usize,
    /// `Txn` events skipped because their `TxnId` was already ingested.
    pub duplicate_transactions: usize,
    /// `HandlerEnd` events whose invocation has no `Requests` row, or
    /// one already closed.
    pub unmatched_handler_ends: usize,
    /// Events dropped because the engine rejected the chunk they were in.
    pub rejected_events: usize,
    /// Provenance entries removed or masked by privacy redaction.
    pub redacted_events: usize,
}

/// What ingest and assembly need to know about a registered application
/// table, resolved once at registration.
pub(crate) struct EventTable {
    /// The event table's interned name ([`trod_db::TableStore::name`]):
    /// staged records share it, so the engine resolves a run of them once.
    pub(crate) name: Arc<str>,
    /// Application columns inlined after the provenance columns.
    app_cols: usize,
    /// Positions of the application table's primary-key columns.
    key_cols: Vec<usize>,
}

/// The interned names of the fixed tables, for the same reason.
struct FixedTables {
    executions: Arc<str>,
    requests: Arc<str>,
    external_calls: Arc<str>,
}

/// State owned by the holder of the ingest lock.
pub(crate) struct Ingest {
    next_event_id: i64,
    /// Event table → its deferred reads, by first `EventId`.
    deferred: HashMap<Arc<str>, BTreeMap<i64, DeferredRead>>,
}

impl Ingest {
    /// Takes every deferred read of the event tables `pick` selects.
    pub(crate) fn take_tables(&mut self, pick: impl Fn(&str) -> bool) -> Vec<DeferredRead> {
        let picked = self.deferred.iter_mut().filter(|(table, _)| pick(table));
        picked
            .flat_map(|(_, reads)| std::mem::take(reads).into_values())
            .collect()
    }

    /// Takes the deferred reads of the transactions whose `EventId`s are
    /// `ids`, in any event table.
    pub(crate) fn take_txns(&mut self, ids: impl Iterator<Item = Range<i64>>) -> Vec<DeferredRead> {
        let mut taken = Vec::new();
        for ids in ids {
            for reads in self.deferred.values_mut() {
                let keys: Vec<i64> = reads.range(ids.clone()).map(|(&id, _)| id).collect();
                taken.extend(keys.iter().filter_map(|id| reads.remove(id)));
            }
        }
        taken
    }

    pub(crate) fn deferred_reads(&self) -> usize {
        self.deferred.values().map(BTreeMap::len).sum()
    }
}

/// A read of a registered table, kept as its trace recorded it (the row
/// `Arc`s are the application table's own) until a query, an assembly or
/// a redaction needs its `<X>Events` rows.
pub(crate) struct DeferredRead {
    /// The event table its rows go to, and its application columns.
    table: Arc<str>,
    app_cols: usize,
    txn_id: i64,
    read_no: usize,
    /// The `EventId` of its first row; the others follow it.
    first_event: i64,
    read: ReadTrace,
}

impl DeferredRead {
    /// How many event rows the read becomes: one per row read, or one
    /// with NULL application columns for a read that matched nothing.
    pub(crate) fn rows(&self) -> usize {
        self.read.rows.len().max(1)
    }
}

/// One chunk of a drained batch: its change records, and the counts that
/// become visible once the records commit.
#[derive(Default)]
struct Chunk {
    changes: Vec<ChangeRecord>,
    txn_ids: HashSet<TxnId>,
    /// The `Requests` rows this chunk installs: the invocations it
    /// starts, finished or not, and the installed ones it finishes.
    opened: Vec<RequestRecord>,
    /// Reads of this chunk's transactions, deferred once it commits.
    deferred: Vec<DeferredRead>,
    events: usize,
    stats: ProvenanceStats,
}

/// The TROD provenance database of one application database.
///
/// Relational tables (queryable through SQL) hold what the paper's Tables
/// 1–2 hold, handler invocations included. The [`TxnTrace`]s the replay
/// and retroactive engines consume are assembled from those tables and
/// the application's history (see the module docs).
pub struct ProvenanceStore {
    pub(crate) db: Database,
    /// The traced application: its schemas name the tables traces touch,
    /// and its history holds every trace's writes.
    pub(crate) app: Database,
    fixed: FixedTables,
    engine: QueryEngine,
    /// application table → its event table.
    pub(crate) table_map: RwLock<HashMap<String, EventTable>>,
    /// Held for the whole of every ingest call, and by the redaction
    /// operations that must not interleave with one. Taken before any
    /// other lock of the store.
    pub(crate) ingest: Mutex<Ingest>,
    pub(crate) stats: RwLock<ProvenanceStats>,
}

impl ProvenanceStore {
    /// Creates an empty provenance store for the application database
    /// `app`, with the fixed tables and no event table: each application
    /// table gets one under its default name when a trace first touches
    /// it, unless registered before.
    pub fn new(app: &Database) -> Self {
        let db = Database::new();
        db.create_table(EXECUTIONS_TABLE, executions_schema())
            .expect("fresh database cannot already contain Executions");
        db.create_table(REQUESTS_TABLE, requests_schema())
            .expect("fresh database cannot already contain Requests");
        db.create_table(EXTERNAL_CALLS_TABLE, external_calls_schema())
            .expect("fresh database cannot already contain ExternalCalls");
        db.create_index(EXECUTIONS_TABLE, "ReqId")
            .expect("Executions.ReqId index");
        // The debugger's time-window investigations (which transactions
        // ran between these timestamps?) and retention are range scans
        // over the trace clock; commit ranges (`txns_between`) over the
        // commit order. Indexes keep both sublinear as provenance grows.
        db.create_index(EXECUTIONS_TABLE, "Timestamp")
            .expect("Executions.Timestamp index");
        db.create_index(EXECUTIONS_TABLE, "CommitTs")
            .expect("Executions.CommitTs index");
        // Request records are read by request: replay, retroactive
        // programming and redaction all look up one `ReqId`.
        db.create_index(REQUESTS_TABLE, "ReqId")
            .expect("Requests.ReqId index");
        let name = |table| {
            let store = db.table(table).expect("fixed table was just created");
            store.name().clone()
        };
        ProvenanceStore {
            fixed: FixedTables {
                executions: name(EXECUTIONS_TABLE),
                requests: name(REQUESTS_TABLE),
                external_calls: name(EXTERNAL_CALLS_TABLE),
            },
            engine: QueryEngine::new(db.clone()),
            db,
            app: app.clone(),
            table_map: RwLock::new(HashMap::new()),
            ingest: Mutex::new(Ingest {
                next_event_id: 1,
                deferred: HashMap::new(),
            }),
            stats: RwLock::new(ProvenanceStats::default()),
        }
    }

    /// Whether the trace of transaction `txn_id` is partial
    /// ([`is_partial_trace`] of [`ProvenanceStore::txn`]).
    pub fn is_partial(&self, txn_id: TxnId) -> bool {
        self.txn(txn_id).is_some_and(|t| is_partial_trace(&t))
    }

    /// Creates a provenance store for `app_db` and registers every table
    /// of it under its default event-table name.
    pub fn for_application(app_db: &Database) -> DbResult<Self> {
        let store = ProvenanceStore::new(app_db);
        for table in app_db.table_names() {
            let schema = app_db.schema_of(&table)?;
            store.register_table(&table, &schema)?;
        }
        Ok(store)
    }

    /// Registers an application table under the default event-table name
    /// (`forum_sub` → `ForumSubEvents`). Returns the event-table name.
    pub fn register_table(&self, app_table: &str, schema: &Schema) -> DbResult<String> {
        let name = default_event_table_name(app_table);
        self.register_table_as(app_table, &name, schema)?;
        Ok(name)
    }

    /// Registers an application table under an explicit event-table name
    /// (e.g. `forum_sub` → `ForumEvents` to match the paper's Table 2).
    /// The event table is indexed on `TxnId` and on every application
    /// column ([`event_column_names`]); `EventId`, `Type` and `Query` are
    /// not indexed.
    pub fn register_table_as(
        &self,
        app_table: &str,
        event_table: &str,
        schema: &Schema,
    ) -> DbResult<()> {
        let ev_schema = event_table_schema(schema)?;
        self.db.create_table(event_table, ev_schema)?;
        // `TxnId` joins the table to `Executions`; the application
        // columns are what debugging queries filter on (§3.3's
        // `user_id = 'U1'`). Indexes cost ingest nothing: each is built
        // by the first query that probes it and caught up from the
        // table's change log after that.
        self.db.create_index(event_table, "TxnId")?;
        for column in event_column_names(schema) {
            self.db.create_index(event_table, &column)?;
        }
        let facts = EventTable {
            name: self.db.table(event_table)?.name().clone(),
            app_cols: schema.arity(),
            key_cols: schema.primary_key().to_vec(),
        };
        self.table_map.write().insert(app_table.to_string(), facts);
        Ok(())
    }

    /// The event-table name registered for an application table, if any.
    pub fn event_table_for(&self, app_table: &str) -> Option<String> {
        let tables = self.table_map.read();
        tables.get(app_table).map(|t| t.name.to_string())
    }

    /// The underlying provenance database (for inspection), with every
    /// deferred read installed first. The handle is not a snapshot: reads
    /// ingested after this call stay deferred, so a caller that reads it
    /// while ingest runs can see an `Executions` row whose read events
    /// are missing. SQL goes through [`Self::query`], which installs what
    /// a statement can see and reads at a snapshot taken under the ingest
    /// lock.
    pub fn database(&self) -> &Database {
        let mut ingest = self.ingest.lock();
        let reads = ingest.take_tables(|_| true);
        self.install(reads, &mut ingest);
        &self.db
    }

    /// Executes a SQL query over the provenance tables (declarative
    /// debugging, paper §3.3/§3.4). The deferred reads of each event
    /// table the statement names are installed first, unless a top-level
    /// `WHERE` conjunct `Type = '<text>'` other than `'Read'` keeps read
    /// events out of every binding of it; the statement then runs at the
    /// snapshot taken right after, under the ingest lock, so every
    /// `Executions` row it sees has all its events.
    pub fn query(&self, sql: &str) -> QueryResultT<ResultSet> {
        let stmt = trod_query::parse(sql)?;
        let tables = read_tables(&stmt, |name| {
            let registered = self.table_map.read();
            registered
                .values()
                .any(|t| t.name.eq_ignore_ascii_case(name))
        });
        let mut opts = QueryOptions::default();
        if !tables.is_empty() {
            let mut ingest = self.ingest.lock();
            let reads =
                ingest.take_tables(|table| tables.iter().any(|t| t.eq_ignore_ascii_case(table)));
            self.install(reads, &mut ingest);
            opts.as_of = Some(self.db.current_ts());
        }
        self.engine.execute_stmt(&stmt, opts)
    }

    /// Current statistics.
    pub fn stats(&self) -> ProvenanceStats {
        *self.stats.read()
    }

    // ------------------------------------------------------------------
    // Ingest
    // ------------------------------------------------------------------

    /// Drains `tracer`'s buffer and ingests what it held, under the ingest
    /// lock (see the module docs). Returns the number of events ingested.
    pub fn drain_from(&self, tracer: &Tracer) -> usize {
        let mut ingest = self.ingest.lock();
        let events = tracer.drain();
        let drained = events.len();
        self.ingest_locked(events, &mut ingest);
        drained
    }

    /// Ingests a batch of trace events already in hand (see the module
    /// docs). A tracer's buffer goes through [`Self::drain_from`] instead,
    /// so that concurrent drains cannot reorder a request's events.
    pub fn ingest(&self, events: Vec<TraceEvent>) {
        self.ingest_locked(events, &mut self.ingest.lock());
    }

    fn ingest_locked(&self, events: Vec<TraceEvent>, ingest: &mut Ingest) {
        self.register_first_seen(&events);
        let tables = self.table_map.read();
        let mut events = events.into_iter().peekable();
        while events.peek().is_some() {
            let mut chunk = Chunk::default();
            while chunk.changes.len() + chunk.opened.len() < CHUNK_ROWS {
                let Some(event) = events.next() else { break };
                self.stage(event, ingest, &tables, &mut chunk);
            }
            self.publish(chunk, ingest);
        }
    }

    /// Registers, under its default name, every application table a trace
    /// in `events` touches that has no event table yet. A table the
    /// application lacks, or whose default name is taken, stays
    /// unregistered and its events are counted.
    fn register_first_seen(&self, events: &[TraceEvent]) {
        let unseen: HashSet<String> = {
            let tables = self.table_map.read();
            let traces = events.iter().filter_map(|event| match event {
                TraceEvent::Txn(trace) => Some(trace),
                _ => None,
            });
            let touched = traces.flat_map(|t| {
                let reads = t.reads.iter().map(|read| read.table.as_str());
                reads.chain(t.writes.iter().map(|change| &*change.table))
            });
            let unseen = touched.filter(|table| !tables.contains_key(*table));
            unseen.map(str::to_string).collect()
        };
        for table in unseen {
            if let Ok(schema) = self.app.schema_of(&table) {
                let _ = self.register_table(&table, &schema);
            }
        }
    }

    /// Ingests a single trace event.
    pub fn ingest_event(&self, event: TraceEvent) {
        self.ingest(vec![event]);
    }

    /// Translates one event into the chunk's change records.
    fn stage(
        &self,
        event: TraceEvent,
        ingest: &mut Ingest,
        tables: &HashMap<String, EventTable>,
        chunk: &mut Chunk,
    ) {
        chunk.events += 1;
        match event {
            TraceEvent::Txn(mut trace) => {
                let txn_id = trace.txn_id as i64;
                let key = Key::single(txn_id);
                if !chunk.txn_ids.insert(trace.txn_id)
                    || matches!(self.db.get_latest(EXECUTIONS_TABLE, &key), Ok(Some(_)))
                {
                    chunk.stats.duplicate_transactions += 1;
                    return;
                }
                let first_event = ingest.next_event_id;
                // A read of a registered table reserves its `EventId`s and
                // is deferred; one of any other table is counted.
                for (read_no, read) in std::mem::take(&mut trace.reads).into_iter().enumerate() {
                    let Some(table) = tables.get(&read.table) else {
                        chunk.stats.unregistered_table_events += 1;
                        continue;
                    };
                    let read = DeferredRead {
                        table: table.name.clone(),
                        app_cols: table.app_cols,
                        txn_id,
                        read_no,
                        first_event: ingest.next_event_id,
                        read,
                    };
                    ingest.next_event_id += read.rows() as i64;
                    chunk.deferred.push(read);
                }
                for change in trace.writes.iter() {
                    let Some(table) = tables.get(&*change.table) else {
                        chunk.stats.unregistered_table_events += 1;
                        continue;
                    };
                    let event_id = ingest.next_event_id;
                    ingest.next_event_id += 1;
                    let kind = change.op.kind();
                    let query = format!("{kind} {}", change.key);
                    let image = change.op.after().or_else(|| change.op.before());
                    let row =
                        event_row(event_id, txn_id, kind, &query, None, table.app_cols, image);
                    let insert =
                        ChangeRecord::insert(table.name.clone(), Key::single(event_id), row);
                    chunk.changes.push(insert);
                    chunk.stats.data_events += 1;
                }
                let row = executions_row(&trace, first_event..ingest.next_event_id);
                let table = self.fixed.executions.clone();
                chunk.changes.push(ChangeRecord::insert(table, key, row));
                chunk.stats.transactions += 1;
            }
            TraceEvent::HandlerStart {
                req_id,
                handler,
                parent,
                args,
                timestamp,
            } => {
                chunk.opened.push(RequestRecord {
                    req_id,
                    handler,
                    parent,
                    args,
                    output: None,
                    ok: None,
                    start_ts: timestamp,
                    end_ts: None,
                });
                chunk.stats.handler_invocations += 1;
            }
            TraceEvent::HandlerEnd {
                req_id,
                handler,
                start_ts,
                output,
                ok,
                timestamp,
            } => {
                let names = |rec: &RequestRecord| {
                    rec.start_ts == start_ts && rec.req_id == req_id && rec.handler == handler
                };
                // Pending in this chunk, or else installed and still open:
                // then it joins the chunk's rows, to be updated.
                let row = chunk.opened.iter().rposition(names).or_else(|| {
                    let key = requests_key(req_id.clone(), handler.clone(), start_ts);
                    let installed = self.db.get_latest(REQUESTS_TABLE, &key).ok().flatten();
                    let open = installed.map(|row| request_of(&row));
                    let open = open.filter(|rec| rec.end_ts.is_none())?;
                    chunk.opened.push(open);
                    Some(chunk.opened.len() - 1)
                });
                match row.map(|i| &mut chunk.opened[i]) {
                    Some(rec) if rec.end_ts.is_none() => {
                        rec.output = Some(output);
                        rec.ok = Some(ok);
                        rec.end_ts = Some(timestamp);
                    }
                    _ => chunk.stats.unmatched_handler_ends += 1,
                }
            }
            TraceEvent::ExternalCall {
                req_id,
                handler,
                service,
                payload,
                timestamp,
            } => {
                let event_id = ingest.next_event_id;
                ingest.next_event_id += 1;
                let key = Key::single(event_id);
                let row = external_call_row(event_id, req_id, handler, service, payload, timestamp);
                let table = self.fixed.external_calls.clone();
                chunk.changes.push(ChangeRecord::insert(table, key, row));
                chunk.stats.external_calls += 1;
            }
        }
    }

    /// Installs deferred reads as the `<X>Events` rows eager ingest would
    /// have staged for them, `EventId`s included, in chunks of about
    /// `CHUNK_ROWS` rows.
    pub(crate) fn install(&self, reads: Vec<DeferredRead>, ingest: &mut Ingest) {
        let mut chunk = Chunk::default();
        for d in reads {
            let at = Some((d.read.read_ts, d.read_no));
            let images = d.read.rows.iter().map(|(_, row)| Some(&**row));
            // A read that matched nothing is one event with no image.
            let none = d.read.rows.is_empty().then_some(None);
            for (id, image) in (d.first_event..).zip(none.into_iter().chain(images)) {
                let row = event_row(id, d.txn_id, "Read", &d.read.query, at, d.app_cols, image);
                let insert = ChangeRecord::insert(d.table.clone(), Key::single(id), row);
                chunk.changes.push(insert);
                chunk.stats.data_events += 1;
            }
            chunk.events += 1;
            if chunk.changes.len() >= CHUNK_ROWS {
                self.publish(std::mem::take(&mut chunk), ingest);
            }
        }
        self.publish(chunk, ingest);
    }

    /// Installs a chunk as one injected commit, then makes its counts
    /// visible and defers its reads; a rejected chunk is dropped and
    /// counted.
    fn publish(&self, mut chunk: Chunk, ingest: &mut Ingest) {
        let opened = chunk.opened.into_iter();
        let requests = &self.fixed.requests;
        chunk
            .changes
            .extend(opened.map(|rec| requests_change(requests, rec)));
        let rejected = !chunk.changes.is_empty() && self.db.apply_changes(&chunk.changes).is_err();
        for read in chunk.deferred.into_iter().filter(|_| !rejected) {
            let reads = ingest.deferred.entry(read.table.clone()).or_default();
            reads.insert(read.first_event, read);
        }
        let mut stats = self.stats.write();
        stats.deferred_reads = ingest.deferred_reads();
        if rejected {
            stats.rejected_events += chunk.events;
            return;
        }
        stats.transactions += chunk.stats.transactions;
        stats.data_events += chunk.stats.data_events;
        stats.handler_invocations += chunk.stats.handler_invocations;
        stats.external_calls += chunk.stats.external_calls;
        stats.unregistered_table_events += chunk.stats.unregistered_table_events;
        stats.duplicate_transactions += chunk.stats.duplicate_transactions;
        stats.unmatched_handler_ends += chunk.stats.unmatched_handler_ends;
    }

    // ------------------------------------------------------------------
    // Accessors used by the debugger core
    // ------------------------------------------------------------------

    /// The `Requests` rows matching `pred`, in start order (the trace
    /// clock is strictly monotonic).
    fn requests_where(&self, pred: &Predicate) -> Vec<RequestRecord> {
        let rows = self.db.scan_latest(REQUESTS_TABLE, pred);
        let rows = rows.expect("Requests is a fixed table and the predicate names its columns");
        let mut recs: Vec<RequestRecord> = rows.iter().map(|(_, row)| request_of(row)).collect();
        recs.sort_by_key(|rec| rec.start_ts);
        recs
    }

    /// All request ids observed, in order of their first invocation.
    pub fn request_ids(&self) -> Vec<String> {
        let recs = self.all_request_records();
        let mut seen = HashSet::new();
        recs.into_iter()
            .map(|r| r.req_id)
            .filter(|id| seen.insert(id.clone()))
            .collect()
    }

    /// Handler invocation records for one request, in start order.
    pub fn request_records(&self, req_id: &str) -> Vec<RequestRecord> {
        self.requests_where(&Predicate::eq("ReqId", req_id))
    }

    /// All handler invocation records, in start order.
    pub fn all_request_records(&self) -> Vec<RequestRecord> {
        self.requests_where(&Predicate::True)
    }

    /// The traces of the `Executions` rows `pred` selects, assembled at
    /// one snapshot of the store (see the module docs), in one order:
    /// committed transactions at their `CommitTs` (a read-only commit's is
    /// its snapshot), then aborted ones at their snapshot (their `CommitTs`
    /// is 0), ties by trace timestamp.
    fn assemble(&self, pred: &Predicate) -> Vec<TxnTrace> {
        // The selected transactions' deferred reads are installed, and the
        // snapshot taken, under the ingest lock, which every write to the
        // store holds.
        let (rows, ts) = {
            let mut ingest = self.ingest.lock();
            let rows = self.db.scan_latest(EXECUTIONS_TABLE, pred);
            let rows =
                rows.expect("Executions is a fixed table and the predicate names its columns");
            let reads = ingest.take_txns(rows.iter().map(|(_, row)| event_ids(row)));
            self.install(reads, &mut ingest);
            (rows, self.db.current_ts())
        };
        let traces = rows.iter().map(|(_, row)| (trace_of(row), event_ids(row)));
        let mut txns: Vec<(TxnTrace, Range<i64>)> = traces.collect();
        txns.sort_by_key(|(t, _)| (!t.committed, t.commit_ts.max(t.snapshot_ts), t.timestamp));

        // Every event row of these transactions, probed by key.
        let ids = txns.iter().flat_map(|(_, ids)| ids.clone());
        let of_txns = Predicate::in_list("EventId", ids.map(Value::Int).collect());
        let tables = self.table_map.read();
        let mut events: BTreeMap<i64, EventRow> = BTreeMap::new();
        for (app_table, table) in tables.iter() {
            let rows = self.db.scan_as_of(&table.name, &of_txns, ts);
            for (_, row) in rows.expect("an event table is keyed by EventId") {
                let event_id = row.get(0).and_then(Value::as_int).unwrap_or_default();
                events.insert(event_id, (app_table.as_str(), table, row));
            }
        }

        let writers = txns.iter().filter(|(t, _)| wrote(t));
        let commits = self.commits(writers.map(|(t, _)| t.commit_ts));
        for (trace, ids) in &mut txns {
            // Whether each non-`Read` event, in order, was redacted.
            let mut erased = Vec::new();
            let mut read_no = None;
            for (app_table, table, row) in events.range(ids.clone()).map(|(_, event)| event) {
                let cell = |i| row.get(i).cloned().unwrap_or(Value::Null);
                let redacted = cell(3).as_text() == Some(REDACTED_MARKER);
                if cell(2).as_text() != Some("Read") {
                    erased.push(redacted);
                    continue;
                }
                if read_no != Some(cell(5)) {
                    read_no = Some(cell(5));
                    trace.reads.push(ReadTrace {
                        table: app_table.to_string(),
                        query: cell(3).as_text().unwrap_or_default().to_string(),
                        read_ts: cell(4).as_int().unwrap_or_default() as Ts,
                        rows: Vec::new(),
                    });
                }
                let read = trace.reads.last_mut().expect("pushed above");
                let image = &row.values()[FIRST_APP_COLUMN..];
                if redacted {
                    read.query = REDACTED_MARKER.to_string();
                } else if image.iter().any(|v| !v.is_null()) {
                    let key = table.key_cols.iter().map(|&i| image[i].clone());
                    let row = Row::from(image[..table.app_cols].to_vec());
                    read.rows
                        .push((Key::new(key.collect::<Arc<[_]>>()), Arc::new(row)));
                }
            }
            let commit = commits.get(&trace.commit_ts);
            if let Some(commit) = commit.filter(|c| wrote(trace) && c.txn_id == trace.txn_id) {
                trace.writes = if erased.contains(&true) {
                    let changes = commit.changes.iter().enumerate();
                    let erase = |(k, change)| match erased.get(k) {
                        Some(true) => erase_change(change),
                        _ => ChangeRecord::clone(change),
                    };
                    changes.map(erase).collect()
                } else {
                    commit.changes.clone()
                };
            }
        }
        txns.into_iter().map(|(trace, _)| trace).collect()
    }

    /// The application's commits at the timestamps `at`, by timestamp:
    /// one [`Database::history`] read over their span, or over the part of
    /// it above an in-memory application's GC floor.
    fn commits(&self, at: impl Iterator<Item = Ts>) -> HashMap<Ts, CommittedTxn> {
        let (lo, hi) = at.fold((Ts::MAX, 0), |(lo, hi), ts| (lo.min(ts), hi.max(ts)));
        if lo > hi {
            return HashMap::new();
        }
        let entries = self.app.history(lo - 1, hi).or_else(|_| {
            let floor = self.app.log_truncated_below();
            self.app.history(floor.max(lo - 1), hi)
        });
        let entries = entries.unwrap_or_default().into_iter();
        entries.map(|entry| (entry.commit_ts, entry)).collect()
    }

    /// The trace of one transaction.
    pub fn txn(&self, txn_id: TxnId) -> Option<TxnTrace> {
        self.assemble(&Predicate::eq("TxnId", txn_id as i64)).pop()
    }

    /// The transaction traces of a request: committed ones in commit order
    /// (a read-only commit's timestamp is its snapshot), then aborted ones
    /// in snapshot order; ties go by trace timestamp.
    pub fn txns_for_request(&self, req_id: &str) -> Vec<TxnTrace> {
        self.assemble(&Predicate::eq("ReqId", req_id))
    }

    /// Committed transactions with commit timestamps in `(after, up_to]`,
    /// in commit order (as [`Self::txns_for_request`]).
    pub fn txns_between(&self, after: Ts, up_to: Ts) -> Vec<TxnTrace> {
        let int = |ts: Ts| ts.min(i64::MAX as Ts) as i64;
        let pred = Predicate::eq("Committed", true)
            .and(Predicate::gt("CommitTs", int(after)))
            .and(Predicate::le("CommitTs", int(up_to)));
        self.assemble(&pred)
    }

    /// Number of traced transactions (rows of `Executions`).
    pub fn txn_count(&self) -> usize {
        let executions = self.db.table(EXECUTIONS_TABLE);
        let executions = executions.expect("Executions is a fixed table");
        executions.count_at(self.db.current_ts())
    }
}

/// An event row, with the application table it is about.
type EventRow<'a> = (&'a str, &'a EventTable, Arc<Row>);

/// The event tables (as `is_event_table` recognises them) a statement
/// can read read events of: each it names, unless every binding of it
/// has a top-level `WHERE` conjunct `Type = '<text>'` with a text other
/// than `'Read'` (the column on the left, as the paper's queries write
/// it). An unqualified `Type` binds to the first event table
/// the statement names, as the executor binds it: no other provenance
/// table has that column.
fn read_tables(stmt: &SelectStmt, is_event_table: impl Fn(&str) -> bool) -> Vec<String> {
    let conjuncts = stmt.where_clause.iter().flat_map(Expr::conjuncts);
    let not_reads: Vec<Option<&str>> = conjuncts
        .filter_map(|conjunct| match conjunct {
            Expr::Compare { left, op, right } if *op == BinOp::Eq => match (&**left, &**right) {
                (Expr::Column { qualifier, name }, Expr::Literal(Value::Text(text)))
                    if name.eq_ignore_ascii_case("Type") && text != "Read" =>
                {
                    Some(qualifier.as_deref())
                }
                _ => None,
            },
            _ => None,
        })
        .collect();
    let tables = stmt.all_tables().into_iter();
    let event_tables = tables.filter(|t| is_event_table(&t.table));
    let skipped = |i: usize, binding: &TableRef| {
        let binds =
            |q: &Option<&str>| q.map_or(i == 0, |q| binding.binding_name().eq_ignore_ascii_case(q));
        not_reads.iter().any(binds)
    };
    let read = event_tables.enumerate().filter(|(i, t)| !skipped(*i, t));
    read.map(|(_, t)| t.table.clone()).collect()
}

/// Whether a trace is of a transaction that committed writes: a writing
/// commit's timestamp is past its snapshot.
/// Whether an assembled trace is partial: a privacy erasure (see
/// [`crate::redaction`]) redacted one of its event rows, which shows as a
/// read whose query is [`REDACTED_MARKER`] or a change record with no
/// image, or it wrote and its commit is no longer in the application's
/// history. Replay and retroactive programming consult this to report
/// partial fidelity rather than silently using incomplete data.
pub fn is_partial_trace(trace: &TxnTrace) -> bool {
    let erased = |c: &ChangeRecord| {
        let image = c.op.after().or_else(|| c.op.before());
        image.is_some_and(|row| row.iter().all(Value::is_null))
    };
    trace.reads.iter().any(|read| read.query == REDACTED_MARKER)
        || trace.writes.iter().any(erased)
        || (wrote(trace) && trace.writes.is_empty())
}

fn wrote(trace: &TxnTrace) -> bool {
    trace.committed && trace.commit_ts > trace.snapshot_ts
}

impl std::fmt::Debug for ProvenanceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ProvenanceStore")
            .field("transactions", &stats.transactions)
            .field("data_events", &stats.data_events)
            .field("handler_invocations", &stats.handler_invocations)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trod_db::{row, DataType, Value};
    use trod_kv::Session;
    use trod_trace::{Tracer, TxnContext};

    fn app_db() -> Database {
        let db = Database::new();
        db.create_table(
            "forum_sub",
            Schema::builder()
                .column("id", DataType::Int)
                .column("user_id", DataType::Text)
                .column("forum", DataType::Text)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db
    }

    fn store_for(db: &Database) -> ProvenanceStore {
        let store = ProvenanceStore::new(db);
        store
            .register_table_as(
                "forum_sub",
                "ForumEvents",
                &db.schema_of("forum_sub").unwrap(),
            )
            .unwrap();
        store
    }

    #[test]
    fn txn_traces_populate_executions_and_event_tables() {
        let db = app_db();
        let store = store_for(&db);
        let traced = Session::traced(db, Tracer::new());

        let mut txn =
            traced.begin_traced(TxnContext::new("R1", "subscribeUser", "func:isSubscribed"));
        let pred = Predicate::eq("user_id", "U1").and(Predicate::eq("forum", "F2"));
        assert!(!txn.exists("forum_sub", &pred).unwrap());
        txn.commit().unwrap();

        let mut txn = traced.begin_traced(TxnContext::new("R1", "subscribeUser", "func:DB.insert"));
        txn.insert("forum_sub", row![1i64, "U1", "F2"]).unwrap();
        txn.commit().unwrap();

        store.drain_from(traced.tracer().unwrap());

        let execs = store
            .query("SELECT * FROM Executions ORDER BY Timestamp")
            .unwrap();
        assert_eq!(execs.len(), 2);
        assert_eq!(
            execs.value(0, "Metadata"),
            Some(&Value::Text("func:isSubscribed".into()))
        );

        let events = store
            .query("SELECT Type, user_id, forum FROM ForumEvents ORDER BY EventId")
            .unwrap();
        // One empty read (NULL data columns) + one insert.
        assert_eq!(events.len(), 2);
        assert_eq!(events.value(0, "Type"), Some(&Value::Text("Read".into())));
        assert_eq!(events.value(0, "user_id"), Some(&Value::Null));
        assert_eq!(events.value(1, "Type"), Some(&Value::Text("Insert".into())));
        assert_eq!(events.value(1, "forum"), Some(&Value::Text("F2".into())));

        let stats = store.stats();
        assert_eq!(stats.transactions, 2);
        assert_eq!(stats.data_events, 2);
        assert_eq!(stats.unregistered_table_events, 0);
        assert_eq!(store.txn_count(), 2);
    }

    #[test]
    fn handler_events_build_request_records() {
        let store = ProvenanceStore::new(&Database::new());
        let tracer = Tracer::new();
        let checkout = tracer.handler_start("R1", "checkout", None, "{\"cart\":1}");
        let charge = tracer.handler_start("R1", "charge", Some("checkout"), "{}");
        tracer.handler_end("R1", "charge", charge, "charged", true);
        tracer.handler_end("R1", "checkout", checkout, "done", true);
        tracer.external_call("R1", "checkout", "email", "receipt");
        store.drain_from(&tracer);

        let recs = store.request_records("R1");
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].handler, "checkout");
        assert_eq!(recs[0].output.as_deref(), Some("done"));
        assert_eq!(recs[1].parent.as_deref(), Some("checkout"));
        assert!(recs[1].end_ts.is_some());
        assert_eq!(store.request_ids(), vec!["R1".to_string()]);

        let reqs = store
            .query("SELECT HandlerName, Ok FROM Requests WHERE ReqId = 'R1' ORDER BY StartTs")
            .unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs.value(0, "Ok"), Some(&Value::Bool(true)));
        let calls = store.query("SELECT Service FROM ExternalCalls").unwrap();
        assert_eq!(calls.len(), 1);
        assert_eq!(store.stats().external_calls, 1);
    }

    #[test]
    fn trace_accessors_filter_and_order() {
        let db = app_db();
        let store = store_for(&db);
        let traced = Session::traced(db, Tracer::new());

        for (req, id) in [("R1", 1i64), ("R2", 2i64), ("R1", 3i64)] {
            let mut txn =
                traced.begin_traced(TxnContext::new(req, "subscribeUser", "func:DB.insert"));
            txn.insert("forum_sub", row![id, "U1", "F2"]).unwrap();
            txn.commit().unwrap();
        }
        store.drain_from(traced.tracer().unwrap());

        let r1 = store.txns_for_request("R1");
        assert_eq!(r1.len(), 2);
        assert!(r1[0].commit_ts < r1[1].commit_ts);
        let all = store.txns_between(0, Ts::MAX);
        assert_eq!(all.len(), 3);
        let first_commit = all[0].commit_ts;
        let later = store.txns_between(first_commit, Ts::MAX);
        assert_eq!(later.len(), 2);
        assert!(store.txn(all[0].txn_id).is_some());
        assert!(store.txn(9999).is_none());
    }

    #[test]
    fn commit_ts_column_is_the_serialization_point_of_committed_transactions() {
        let db = app_db();
        let store = store_for(&db);
        let traced = Session::traced(db, Tracer::new());
        let mut txn = traced.begin_traced(TxnContext::new("R1", "subscribeUser", "func:DB.insert"));
        txn.insert("forum_sub", row![1i64, "U1", "F2"]).unwrap();
        txn.commit().unwrap();
        let mut txn = traced.begin_traced(TxnContext::new("R2", "fetch", "func:DB.get"));
        assert!(txn.get("forum_sub", &Key::single(1i64)).unwrap().is_some());
        txn.commit().unwrap();
        store.drain_from(traced.tracer().unwrap());

        let txns = store.txns_between(0, Ts::MAX);
        let writes: Vec<bool> = txns.iter().map(TxnTrace::is_write).collect();
        assert_eq!(writes, [true, false]);
        // A read-only commit records its snapshot as its commit timestamp.
        assert_eq!(txns[1].commit_ts, txns[1].snapshot_ts);
        assert_eq!(txns[1].snapshot_ts, txns[0].commit_ts);
        for trace in &txns {
            let sql = format!(
                "SELECT CommitTs FROM Executions WHERE TxnId = {}",
                trace.txn_id
            );
            let rows = store.query(&sql).unwrap();
            let serialization_ts = Value::Int(trace.serialization_ts() as i64);
            assert_eq!(rows.rows(), &[vec![serialization_ts]]);
        }
    }

    #[test]
    fn for_application_registers_all_tables() {
        let db = app_db();
        let store = ProvenanceStore::for_application(&db).unwrap();
        assert_eq!(
            store.event_table_for("forum_sub"),
            Some("ForumSubEvents".to_string())
        );
        assert!(store.database().has_table("ForumSubEvents"));
    }

    #[test]
    fn a_table_first_seen_in_a_trace_is_registered_and_its_trace_is_whole() {
        let db = app_db();
        let store = ProvenanceStore::new(&db); // nothing registered
        assert_eq!(store.event_table_for("forum_sub"), None);
        let traced = Session::traced(db.clone(), Tracer::new());
        let mut txn = traced.begin_traced(TxnContext::new("R1", "h", "f"));
        assert!(txn.scan("forum_sub", &Predicate::True).unwrap().is_empty());
        txn.insert("forum_sub", row![1i64, "U1", "F2"]).unwrap();
        txn.commit().unwrap();
        // A table created after the store.
        db.create_table(
            "late",
            Schema::builder()
                .column("k", DataType::Text)
                .primary_key(&["k"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut txn = traced.begin_traced(TxnContext::new("R2", "h", "f"));
        assert!(txn.get("forum_sub", &Key::single(1i64)).unwrap().is_some());
        txn.insert("late", row!["x"]).unwrap();
        txn.commit().unwrap();

        let events = traced.tracer().unwrap().drain();
        let teed: Vec<TxnTrace> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Txn(t) => Some((**t).clone()),
                _ => None,
            })
            .collect();
        store.ingest(events);
        assert_eq!(store.stats().unregistered_table_events, 0);
        assert_eq!(
            store.event_table_for("forum_sub").as_deref(),
            Some("ForumSubEvents")
        );
        assert_eq!(store.event_table_for("late").as_deref(), Some("LateEvents"));
        assert_eq!(store.txns_between(0, Ts::MAX), teed);
        assert_eq!(store.txn_count(), 2);
    }
}
