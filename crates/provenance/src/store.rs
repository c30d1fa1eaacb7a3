//! The provenance store: ingest of trace events into queryable tables plus
//! a detailed trace archive used by replay and retroactive programming.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};

use parking_lot::RwLock;

use trod_db::{
    CommittedTxn, Database, DbResult, Predicate, RetentionPolicy, Row, Schema, Ts, TxnId, Value,
};
use trod_query::{QueryEngine, QueryResultT, ResultSet};
use trod_trace::{TraceEvent, TraceSink, TxnTrace};

use crate::schema::{
    default_event_table_name, event_table_schema, executions_schema, external_calls_schema,
    requests_schema, EXECUTIONS_TABLE, EXTERNAL_CALLS_TABLE, REQUESTS_TABLE,
};

/// A completed (or still-running) handler invocation, reconstructed from
/// `HandlerStart`/`HandlerEnd` events.
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
    /// Row-level data events (rows in `<X>Events` tables).
    pub data_events: usize,
    /// Handler invocations observed.
    pub handler_invocations: usize,
    /// External-service calls observed.
    pub external_calls: usize,
    /// Events referencing application tables that were never registered.
    pub unregistered_table_events: usize,
    /// Provenance entries removed or masked by privacy redaction.
    pub redacted_events: usize,
    /// Aligned transaction-log entries spilled here by the application
    /// database's retention policy before GC truncated them.
    pub spilled_commits: usize,
}

/// The TROD provenance database.
///
/// Relational tables (queryable through SQL) hold what the paper's Tables
/// 1–2 hold; a parallel in-memory archive keeps the full [`TxnTrace`]
/// records (read rows, CDC before/after images) that the replay and
/// retroactive engines consume.
pub struct ProvenanceStore {
    pub(crate) db: Database,
    engine: QueryEngine,
    /// application table → event table name.
    pub(crate) table_map: RwLock<HashMap<String, String>>,
    /// Detailed transaction archive ordered by trace timestamp.
    pub(crate) archive: RwLock<Vec<TxnTrace>>,
    /// Handler invocation archive.
    pub(crate) requests: RwLock<Vec<RequestRecord>>,
    next_event_id: AtomicI64,
    pub(crate) stats: RwLock<ProvenanceStats>,
    /// Transactions whose provenance has been partially redacted (GDPR
    /// erasure, §5); replay degrades gracefully for these.
    pub(crate) redacted_txns: RwLock<std::collections::HashSet<TxnId>>,
    /// Aligned transaction-log entries the application database spilled
    /// here (via its [`RetentionPolicy`]) before truncating them — the
    /// part of the aligned history that no longer exists in the live
    /// `TxnLog`. Commit-ordered; the debugger stitches this prefix onto
    /// the live log so replay and time travel keep working past the GC
    /// watermark. In-memory only: on a durable deployment the same GC
    /// pass compacts the covered WAL segments into immutable cold files,
    /// which are the durable copy of this history.
    pub(crate) spilled: RwLock<Vec<CommittedTxn>>,
}

impl Default for ProvenanceStore {
    fn default() -> Self {
        ProvenanceStore::new()
    }
}

impl ProvenanceStore {
    /// Creates an empty provenance store with the fixed tables.
    pub fn new() -> Self {
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
        // ran between these timestamps?) are range scans over ingest
        // order; ordered indexes keep them sublinear as provenance grows.
        db.create_range_index(EXECUTIONS_TABLE, "Timestamp")
            .expect("Executions.Timestamp range index");
        db.create_range_index(REQUESTS_TABLE, "StartTs")
            .expect("Requests.StartTs range index");
        ProvenanceStore {
            engine: QueryEngine::new(db.clone()),
            db,
            table_map: RwLock::new(HashMap::new()),
            archive: RwLock::new(Vec::new()),
            requests: RwLock::new(Vec::new()),
            next_event_id: AtomicI64::new(1),
            stats: RwLock::new(ProvenanceStats::default()),
            redacted_txns: RwLock::new(std::collections::HashSet::new()),
            spilled: RwLock::new(Vec::new()),
        }
    }

    /// Whether a transaction's provenance has been partially redacted by a
    /// privacy-erasure request (see [`crate::redaction`]). Replay and
    /// retroactive programming consult this to report partial fidelity
    /// rather than silently using incomplete data.
    pub fn is_redacted(&self, txn_id: TxnId) -> bool {
        self.redacted_txns.read().contains(&txn_id)
    }

    /// Creates a provenance store and registers every table of the given
    /// application database under its default event-table name.
    pub fn for_application(app_db: &Database) -> DbResult<Self> {
        let store = ProvenanceStore::new();
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
    pub fn register_table_as(
        &self,
        app_table: &str,
        event_table: &str,
        schema: &Schema,
    ) -> DbResult<()> {
        let ev_schema = event_table_schema(schema)?;
        self.db.create_table(event_table, ev_schema)?;
        self.db.create_index(event_table, "TxnId")?;
        self.table_map
            .write()
            .insert(app_table.to_string(), event_table.to_string());
        Ok(())
    }

    /// The event-table name registered for an application table, if any.
    pub fn event_table_for(&self, app_table: &str) -> Option<String> {
        self.table_map.read().get(app_table).cloned()
    }

    /// The underlying provenance database (for direct SQL or inspection).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Executes a SQL query over the provenance tables (declarative
    /// debugging, paper §3.3/§3.4).
    pub fn query(&self, sql: &str) -> QueryResultT<ResultSet> {
        self.engine.execute(sql)
    }

    /// Current statistics.
    pub fn stats(&self) -> ProvenanceStats {
        *self.stats.read()
    }

    // ------------------------------------------------------------------
    // Ingest
    // ------------------------------------------------------------------

    /// Ingests a batch of trace events.
    pub fn ingest(&self, events: Vec<TraceEvent>) {
        for event in events {
            self.ingest_event(event);
        }
    }

    /// Ingests a single trace event.
    pub fn ingest_event(&self, event: TraceEvent) {
        match event {
            TraceEvent::Txn(txn) => self.ingest_txn(*txn),
            TraceEvent::HandlerStart {
                req_id,
                handler,
                parent,
                args,
                timestamp,
            } => self.ingest_handler_start(req_id, handler, parent, args, timestamp),
            TraceEvent::HandlerEnd {
                req_id,
                handler,
                output,
                ok,
                timestamp,
            } => self.ingest_handler_end(&req_id, &handler, output, ok, timestamp),
            TraceEvent::ExternalCall {
                req_id,
                handler,
                service,
                payload,
                timestamp,
            } => self.ingest_external_call(req_id, handler, service, payload, timestamp),
        }
    }

    fn ingest_txn(&self, trace: TxnTrace) {
        // Executions row.
        let mut txn = self.db.begin();
        let exec_row = Row::from(vec![
            Value::Int(trace.txn_id as i64),
            Value::Timestamp(trace.timestamp),
            Value::Text(trace.ctx.handler.clone()),
            Value::Text(trace.ctx.req_id.clone()),
            Value::Text(trace.ctx.function.clone()),
            Value::Int(trace.snapshot_ts as i64),
            Value::Int(trace.commit_ts as i64),
            Value::Bool(trace.committed),
        ]);
        // A duplicate TxnId can only occur if the same trace is ingested
        // twice; ignore the duplicate rather than fail the whole batch.
        let _ = txn.insert(EXECUTIONS_TABLE, exec_row);

        let mut data_events = 0usize;
        let mut unregistered = 0usize;
        let table_map = self.table_map.read().clone();

        // Read provenance.
        for read in &trace.reads {
            match table_map.get(&read.table) {
                Some(event_table) => {
                    if read.rows.is_empty() {
                        let row = self.event_row(&trace, event_table, "Read", &read.query, None);
                        if let Ok(row) = row {
                            let _ = txn.insert(event_table, row);
                            data_events += 1;
                        }
                    } else {
                        for (_, data) in &read.rows {
                            let row = self.event_row(
                                &trace,
                                event_table,
                                "Read",
                                &read.query,
                                Some(data),
                            );
                            if let Ok(row) = row {
                                let _ = txn.insert(event_table, row);
                                data_events += 1;
                            }
                        }
                    }
                }
                None => unregistered += 1,
            }
        }

        // Write provenance.
        for change in &trace.writes {
            match table_map.get(&change.table) {
                Some(event_table) => {
                    let image = change.op.after().or_else(|| change.op.before());
                    let query = format!("{} {}", change.op.kind(), change.key);
                    let row = self.event_row(&trace, event_table, change.op.kind(), &query, image);
                    if let Ok(row) = row {
                        let _ = txn.insert(event_table, row);
                        data_events += 1;
                    }
                }
                None => unregistered += 1,
            }
        }

        txn.commit()
            .expect("provenance ingest commit cannot conflict");

        // Archive the full trace for replay.
        self.archive.write().push(trace);
        let mut stats = self.stats.write();
        stats.transactions += 1;
        stats.data_events += data_events;
        stats.unregistered_table_events += unregistered;
    }

    fn event_row(
        &self,
        trace: &TxnTrace,
        event_table: &str,
        kind: &str,
        query: &str,
        data: Option<&Row>,
    ) -> DbResult<Row> {
        let schema = self.db.schema_of(event_table)?;
        let event_id = self.next_event_id.fetch_add(1, Ordering::Relaxed);
        let mut values = vec![
            Value::Int(event_id),
            Value::Int(trace.txn_id as i64),
            Value::Text(kind.to_string()),
            Value::Text(query.to_string()),
        ];
        let app_cols = schema.arity() - 4;
        match data {
            Some(row) => {
                for i in 0..app_cols {
                    values.push(row.get(i).cloned().unwrap_or(Value::Null));
                }
            }
            None => values.extend(std::iter::repeat_n(Value::Null, app_cols)),
        }
        Ok(Row::from(values))
    }

    fn ingest_handler_start(
        &self,
        req_id: String,
        handler: String,
        parent: Option<String>,
        args: String,
        timestamp: i64,
    ) {
        let mut txn = self.db.begin();
        let row = Row::from(vec![
            Value::Text(req_id.clone()),
            Value::Text(handler.clone()),
            parent.clone().map(Value::Text).unwrap_or(Value::Null),
            Value::Text(args.clone()),
            Value::Null,
            Value::Null,
            Value::Timestamp(timestamp),
            Value::Null,
        ]);
        let _ = txn.insert(REQUESTS_TABLE, row);
        txn.commit()
            .expect("provenance ingest commit cannot conflict");

        self.requests.write().push(RequestRecord {
            req_id,
            handler,
            parent,
            args,
            output: None,
            ok: None,
            start_ts: timestamp,
            end_ts: None,
        });
        self.stats.write().handler_invocations += 1;
    }

    fn ingest_handler_end(
        &self,
        req_id: &str,
        handler: &str,
        output: String,
        ok: bool,
        timestamp: i64,
    ) {
        // Update the relational row: the open invocation with the latest
        // StartTs for this (ReqId, HandlerName).
        let pred = Predicate::eq("ReqId", req_id)
            .and(Predicate::eq("HandlerName", handler))
            .and(Predicate::IsNull("EndTs".into()));
        let mut txn = self.db.begin();
        if let Ok(mut rows) = txn.scan(REQUESTS_TABLE, &pred) {
            rows.sort_by_key(|(_, r)| r[6].as_int().unwrap_or(0));
            if let Some((key, row)) = rows.pop() {
                let mut updated = (*row).clone();
                updated.set(4, Value::Text(output.clone()));
                updated.set(5, Value::Bool(ok));
                updated.set(7, Value::Timestamp(timestamp));
                let _ = txn.update(REQUESTS_TABLE, &key, updated);
            }
        }
        txn.commit()
            .expect("provenance ingest commit cannot conflict");

        // Update the archive record.
        let mut requests = self.requests.write();
        if let Some(rec) = requests
            .iter_mut()
            .rev()
            .find(|r| r.req_id == req_id && r.handler == handler && r.end_ts.is_none())
        {
            rec.output = Some(output);
            rec.ok = Some(ok);
            rec.end_ts = Some(timestamp);
        }
    }

    fn ingest_external_call(
        &self,
        req_id: String,
        handler: String,
        service: String,
        payload: String,
        timestamp: i64,
    ) {
        let event_id = self.next_event_id.fetch_add(1, Ordering::Relaxed);
        let mut txn = self.db.begin();
        let row = Row::from(vec![
            Value::Int(event_id),
            Value::Text(req_id),
            Value::Text(handler),
            Value::Text(service),
            Value::Text(payload),
            Value::Timestamp(timestamp),
        ]);
        let _ = txn.insert(EXTERNAL_CALLS_TABLE, row);
        txn.commit()
            .expect("provenance ingest commit cannot conflict");
        self.stats.write().external_calls += 1;
    }

    // ------------------------------------------------------------------
    // Archive accessors used by the debugger core
    // ------------------------------------------------------------------

    /// All request ids observed, in first-seen order.
    pub fn request_ids(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for rec in self.requests.read().iter() {
            if !seen.contains(&rec.req_id) {
                seen.push(rec.req_id.clone());
            }
        }
        seen
    }

    /// Handler invocation records for one request, in start order.
    pub fn request_records(&self, req_id: &str) -> Vec<RequestRecord> {
        self.requests
            .read()
            .iter()
            .filter(|r| r.req_id == req_id)
            .cloned()
            .collect()
    }

    /// All handler invocation records.
    pub fn all_request_records(&self) -> Vec<RequestRecord> {
        self.requests.read().clone()
    }

    /// All archived transaction traces, ordered by commit timestamp (with
    /// aborted/read-only transactions, which have no commit timestamp,
    /// ordered by trace timestamp among themselves at the end).
    pub fn all_txns(&self) -> Vec<TxnTrace> {
        let mut txns = self.archive.read().clone();
        txns.sort_by_key(|t| (!t.committed, t.serialization_ts(), t.timestamp));
        txns
    }

    /// The archived trace of one transaction.
    pub fn txn(&self, txn_id: TxnId) -> Option<TxnTrace> {
        self.archive
            .read()
            .iter()
            .find(|t| t.txn_id == txn_id)
            .cloned()
    }

    /// Committed transaction traces belonging to a request, in commit order.
    pub fn txns_for_request(&self, req_id: &str) -> Vec<TxnTrace> {
        let mut txns: Vec<TxnTrace> = self
            .archive
            .read()
            .iter()
            .filter(|t| t.ctx.req_id == req_id)
            .cloned()
            .collect();
        txns.sort_by_key(|t| (!t.committed, t.serialization_ts(), t.timestamp));
        txns
    }

    /// Committed transactions with commit timestamps in `(after, up_to]`.
    pub fn txns_between(&self, after: Ts, up_to: Ts) -> Vec<TxnTrace> {
        let mut txns: Vec<TxnTrace> = self
            .archive
            .read()
            .iter()
            .filter(|t| t.committed && t.commit_ts > after && t.commit_ts <= up_to)
            .cloned()
            .collect();
        txns.sort_by_key(|t| t.commit_ts);
        txns
    }

    /// Committed transactions that read or wrote the given application table.
    pub fn txns_touching_table(&self, table: &str) -> Vec<TxnTrace> {
        let mut txns: Vec<TxnTrace> = self
            .archive
            .read()
            .iter()
            .filter(|t| t.touched_tables().iter().any(|x| x == table))
            .cloned()
            .collect();
        txns.sort_by_key(|t| (!t.committed, t.serialization_ts(), t.timestamp));
        txns
    }

    /// Number of archived transaction traces.
    pub fn txn_count(&self) -> usize {
        self.archive.read().len()
    }

    // ------------------------------------------------------------------
    // Spilled aligned history (retention)
    // ------------------------------------------------------------------

    /// The aligned transaction-log entries spilled here before GC
    /// truncation, in commit order. Together with the application
    /// database's live log this is the complete aligned history (provided
    /// the store was installed as the retention policy before the first
    /// GC); the debugger stitches the two for replay below the GC floor.
    pub fn spilled_log(&self) -> Vec<CommittedTxn> {
        self.spilled.read().clone()
    }

    /// Spilled entries with commit timestamp at or below `ts`, in commit
    /// order.
    pub fn spilled_up_to(&self, ts: Ts) -> Vec<CommittedTxn> {
        self.spilled_between(0, ts)
    }

    /// Spilled entries with commit timestamp in `(after, up_to]`, in
    /// commit order — the delta a checkpoint-based reconstruction
    /// replays on top of a restored snapshot at `after`. Cloning only
    /// the window keeps deep forks O(delta), not O(history).
    pub fn spilled_between(&self, after: Ts, up_to: Ts) -> Vec<CommittedTxn> {
        let spilled = self.spilled.read();
        let lo = spilled.partition_point(|e| e.commit_ts <= after);
        let hi = spilled.partition_point(|e| e.commit_ts <= up_to);
        spilled[lo..hi].to_vec()
    }

    /// Number of spilled aligned entries held.
    pub fn spilled_count(&self) -> usize {
        self.spilled.read().len()
    }
}

impl RetentionPolicy for ProvenanceStore {
    /// Receives the aligned log entries [`trod_db::Database::gc_before`]
    /// is about to truncate (install with
    /// `db.set_retention_policy(Some(provenance_arc))`, or through
    /// `Trod::enable_retention`). Entries arrive in commit order and GC
    /// horizons only rise, so appending keeps the spill commit-ordered.
    fn spill(&self, entries: Vec<CommittedTxn>) {
        let n = entries.len();
        self.spilled.write().extend(entries);
        self.stats.write().spilled_commits += n;
    }
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

impl TraceSink for ProvenanceStore {
    fn ingest(&self, events: Vec<TraceEvent>) {
        ProvenanceStore::ingest(self, events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trod_db::{row, DataType};
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
        let store = ProvenanceStore::new();
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
        let traced = Session::builder(db).tracer(Tracer::new()).build();

        let mut txn =
            traced.begin_traced(TxnContext::new("R1", "subscribeUser", "func:isSubscribed"));
        let pred = Predicate::eq("user_id", "U1").and(Predicate::eq("forum", "F2"));
        assert!(!txn.exists("forum_sub", &pred).unwrap());
        txn.commit().unwrap();

        let mut txn = traced.begin_traced(TxnContext::new("R1", "subscribeUser", "func:DB.insert"));
        txn.insert("forum_sub", row![1i64, "U1", "F2"]).unwrap();
        txn.commit().unwrap();

        store.ingest(traced.tracer().unwrap().drain());

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
        let store = ProvenanceStore::new();
        let tracer = Tracer::new();
        tracer.handler_start("R1", "checkout", None, "{\"cart\":1}");
        tracer.handler_start("R1", "charge", Some("checkout"), "{}");
        tracer.handler_end("R1", "charge", "charged", true);
        tracer.handler_end("R1", "checkout", "done", true);
        tracer.external_call("R1", "checkout", "email", "receipt");
        store.ingest(tracer.drain());

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
    fn archive_accessors_filter_and_order() {
        let db = app_db();
        let store = store_for(&db);
        let traced = Session::builder(db).tracer(Tracer::new()).build();

        for (req, id) in [("R1", 1i64), ("R2", 2i64), ("R1", 3i64)] {
            let mut txn =
                traced.begin_traced(TxnContext::new(req, "subscribeUser", "func:DB.insert"));
            txn.insert("forum_sub", row![id, "U1", "F2"]).unwrap();
            txn.commit().unwrap();
        }
        store.ingest(traced.tracer().unwrap().drain());

        let r1 = store.txns_for_request("R1");
        assert_eq!(r1.len(), 2);
        assert!(r1[0].commit_ts < r1[1].commit_ts);
        let all = store.all_txns();
        assert_eq!(all.len(), 3);
        let touching = store.txns_touching_table("forum_sub");
        assert_eq!(touching.len(), 3);
        let first_commit = all[0].commit_ts;
        let later = store.txns_between(first_commit, Ts::MAX);
        assert_eq!(later.len(), 2);
        assert!(store.txn(all[0].txn_id).is_some());
        assert!(store.txn(9999).is_none());
    }

    #[test]
    fn retention_spill_preserves_truncated_aligned_history() {
        use std::sync::Arc;

        let db = app_db();
        let store = Arc::new(store_for(&db));
        db.set_retention_policy(Some(store.clone()));

        let traced = Session::builder(db.clone()).tracer(Tracer::new()).build();
        for id in 1..=4i64 {
            let mut txn = traced.begin_traced(TxnContext::new("R1", "h", "f"));
            txn.insert("forum_sub", row![id, "U1", "F2"]).unwrap();
            txn.commit().unwrap();
        }
        let live_before = db.log_entries();

        let (_, logs) = db.gc_before(db.current_ts());
        assert_eq!(logs, 4);
        assert_eq!(db.log_len(), 0);
        // The spilled prefix is exactly what the log dropped, in order.
        assert_eq!(store.spilled_log(), live_before);
        assert_eq!(store.spilled_count(), 4);
        assert_eq!(store.stats().spilled_commits, 4);
        let mid = live_before[1].commit_ts;
        assert_eq!(store.spilled_up_to(mid).len(), 2);
        assert_eq!(store.spilled_up_to(0).len(), 0);
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
    fn unregistered_tables_are_counted_not_dropped_silently() {
        let db = app_db();
        let store = ProvenanceStore::new(); // nothing registered
        let traced = Session::builder(db).tracer(Tracer::new()).build();
        let mut txn = traced.begin_traced(TxnContext::new("R1", "h", "f"));
        txn.insert("forum_sub", row![1i64, "U1", "F2"]).unwrap();
        txn.commit().unwrap();
        store.ingest(traced.tracer().unwrap().drain());
        assert_eq!(store.stats().unregistered_table_events, 1);
        // The detailed archive still has everything.
        assert_eq!(store.txn_count(), 1);
    }
}
