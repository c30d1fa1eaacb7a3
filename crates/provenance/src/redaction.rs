//! Privacy redaction and retention for the provenance database.
//!
//! The paper's §5 ("Guaranteeing Security and Privacy") observes that
//! always-on tracing inevitably logs personally identifiable information,
//! so to comply with GDPR/CCPA-style erasure requests TROD must let users
//! *completely remove any provenance data entry that potentially contains
//! their personal information* while still *supporting debugging from
//! partial data*. This module implements that contract:
//!
//! * [`ProvenanceStore::redact_rows`] erases the data columns of every
//!   provenance event (reads and writes) matching a set of column filters
//!   — e.g. "everything about user U1" — while keeping non-sensitive
//!   execution metadata (transaction ids, handler names, timestamps) so
//!   the execution history remains queryable.
//! * [`ProvenanceStore::redact_request`] erases the arguments, outputs and
//!   external-call payloads of a request (PII frequently lives in request
//!   arguments rather than table rows).
//! * [`ProvenanceStore::retain_since`] applies a retention cutoff,
//!   dropping all provenance older than it.
//!
//! **What an erasure reaches.** Every copy the provenance store owns: the
//! `<X>Events`, `Requests` and `ExternalCalls` tables, and the provenance
//! database's own history. Each of [`ProvenanceStore::redact_rows`],
//! [`ProvenanceStore::redact_request`] and [`ProvenanceStore::retain_since`]
//! ends, under the ingest lock, by collecting that history below the
//! clock ([`trod_db::Database::gc_before`]), so no time-travel read of
//! [`ProvenanceStore::database`], index probe or log entry of it returns
//! an erased value afterwards. GC stops at the provenance database's
//! watermark: a transaction open on that database when the erasure runs
//! keeps the versions its snapshot sees, erased values included, until
//! the next erasure after it ends. A statement or an assembly whose
//! snapshot was taken before the erasure may find the rows it erased
//! missing rather than redacted. Handler
//! invocations have no copy besides their `Requests` rows, which every
//! [`crate::RequestRecord`] is decoded from, and a [`trod_trace::TxnTrace`]
//! is assembled from the tables: a redacted read event's row is left out
//! of its read, and a write is erased at assembly through its event row
//! (a transaction's k-th non-`Read` event is its k-th change record). The
//! application's log itself is untouched: an erasure does not reach the
//! application's own history — its version chains, its live transaction
//! log, its durable log and its checkpoints — which every fork reads,
//! above and below the GC floor alike, so a fork holds the same rows
//! wherever it is taken. Erasing a person's data from the application
//! itself is a write to the application.
//!
//! A transaction with a redacted event row is partial
//! ([`ProvenanceStore::is_partial`]); the replay engine reports partial
//! fidelity for it instead of silently replaying against incomplete
//! state — "debugging from partial data".

use std::collections::BTreeSet;

use trod_db::{ChangeOp, ChangeRecord, DbError, DbResult, Predicate, Row, Value};

use crate::schema::{
    event_ids, EXECUTIONS_TABLE, EXTERNAL_CALLS_TABLE, FIRST_APP_COLUMN, REQUESTS_TABLE,
};
use crate::store::{DeferredRead, ProvenanceStore};

/// Placeholder written over redacted text fields.
pub const REDACTED_MARKER: &str = "[redacted]";

/// Outcome of a redaction request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RedactionReport {
    /// Rows in `<X>Events` tables whose data columns were erased.
    pub event_rows_redacted: usize,
    /// Handler invocations whose arguments/outputs were erased.
    pub requests_redacted: usize,
    /// External-call payloads erased.
    pub external_calls_redacted: usize,
    /// Distinct transactions affected (now partial).
    pub transactions_affected: usize,
}

impl RedactionReport {
    /// Total provenance entries touched.
    pub fn total(&self) -> usize {
        self.event_rows_redacted + self.requests_redacted + self.external_calls_redacted
    }
}

/// Outcome of applying a retention cutoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetentionReport {
    /// Traced transactions dropped (rows of `Executions`).
    pub transactions_dropped: usize,
    /// Handler invocation records dropped.
    pub requests_dropped: usize,
    /// Rows deleted from the relational provenance tables (Executions,
    /// Requests, ExternalCalls and every `<X>Events` table), the rows of
    /// dropped deferred reads included.
    pub rows_deleted: usize,
}

impl ProvenanceStore {
    /// Erases every provenance event about `app_table` rows that hold
    /// all the `filters`' values: an event row is redacted when each value
    /// appears among its application columns, whichever column holds it.
    /// That covers every row whose filter columns equal the filters (an
    /// SQL `=` is the same comparison) and errs towards erasing more, the
    /// safe direction for an erasure request. Data columns are replaced
    /// with NULL / [`REDACTED_MARKER`]; execution metadata (transaction
    /// ids, handler names, timestamps) is preserved so the history's
    /// *shape* stays queryable. Only events ingested before the call are
    /// erased; the table's deferred reads are installed first, so none of
    /// them can bring an erased row back later.
    ///
    /// The filters are checked against the application's schema before
    /// anything is written: an unknown table is [`DbError::NoSuchTable`],
    /// an unknown column [`DbError::NoSuchColumn`], and no filter at all
    /// [`DbError::Invalid`].
    pub fn redact_rows(
        &self,
        app_table: &str,
        filters: &[(&str, Value)],
    ) -> DbResult<RedactionReport> {
        if filters.is_empty() {
            return Err(DbError::Invalid(format!(
                "redacting `{app_table}` needs at least one column filter"
            )));
        }
        let schema = self.app.schema_of(app_table)?;
        if let Some((column, _)) = filters
            .iter()
            .find(|(c, _)| schema.column_index(c).is_none())
        {
            return Err(DbError::NoSuchColumn {
                table: app_table.to_string(),
                column: column.to_string(),
            });
        }
        let mut report = RedactionReport::default();
        let Some(event_table) = self.event_table_for(app_table) else {
            return Ok(report);
        };
        let holds_every_value = |row: &Row| {
            let image = &row.values()[FIRST_APP_COLUMN..];
            let holds = |value: &Value| image.iter().any(|v| v.sql_eq(value));
            filters.iter().all(|(_, value)| holds(value))
        };

        let mut ingest = self.ingest.lock();
        let reads = ingest.take_tables(|table| table == event_table);
        self.install(reads, &mut ingest);

        let mut touched_txns = BTreeSet::new();
        let mut txn = self.db.begin();
        for (key, row) in self.db.scan_latest(&event_table, &Predicate::True)? {
            if !holds_every_value(&row) {
                continue;
            }
            let mut redacted = (*row).clone();
            redacted.set(3, Value::Text(REDACTED_MARKER.to_string()));
            for idx in FIRST_APP_COLUMN..row.len() {
                redacted.set(idx, Value::Null);
            }
            txn.update(&event_table, &key, redacted)?;
            touched_txns.insert(row.get(1).and_then(Value::as_int));
            report.event_rows_redacted += 1;
        }
        txn.commit()?;
        // The replaced versions, their index entries and the log entries
        // that carry them go too (see the module docs).
        self.db.gc_before(self.db.current_ts());

        report.transactions_affected = touched_txns.len();
        self.stats.write().redacted_events += report.total();
        Ok(report)
    }

    /// Erases the arguments, outputs and external-call payloads recorded
    /// for one request in the `Requests` and `ExternalCalls` tables.
    pub fn redact_request(&self, req_id: &str) -> DbResult<RedactionReport> {
        let mut report = RedactionReport::default();
        // An invocation of this request may still be open: no ingest may
        // read its row back between the scan below and the commit.
        let _ingest = self.ingest.lock();

        // Relational Requests rows.
        let pred = Predicate::eq("ReqId", req_id);
        let mut txn = self.db.begin();
        for (key, row) in txn.scan(REQUESTS_TABLE, &pred)? {
            let mut redacted = (*row).clone();
            redacted.set(3, Value::Text(REDACTED_MARKER.to_string()));
            if !row.get(4).map(Value::is_null).unwrap_or(true) {
                redacted.set(4, Value::Text(REDACTED_MARKER.to_string()));
            }
            txn.update(REQUESTS_TABLE, &key, redacted)?;
            report.requests_redacted += 1;
        }
        for (key, row) in txn.scan(EXTERNAL_CALLS_TABLE, &pred)? {
            let mut redacted = (*row).clone();
            redacted.set(4, Value::Text(REDACTED_MARKER.to_string()));
            txn.update(EXTERNAL_CALLS_TABLE, &key, redacted)?;
            report.external_calls_redacted += 1;
        }
        txn.commit()?;
        self.db.gc_before(self.db.current_ts());

        self.stats.write().redacted_events += report.total();
        Ok(report)
    }

    /// Drops all provenance recorded before `cutoff_ts` (trace-clock
    /// microseconds): the rows of every provenance table, handler
    /// invocations included, the dropped transactions' deferred reads,
    /// and so the traces assembled from them.
    pub fn retain_since(&self, cutoff_ts: i64) -> DbResult<RetentionReport> {
        let mut report = RetentionReport::default();
        let mut ingest = self.ingest.lock();

        // The transactions being dropped, and so their event rows, which
        // carry no timestamp of their own.
        let old = Predicate::lt("Timestamp", cutoff_ts);
        let dropped = self.db.scan_latest(EXECUTIONS_TABLE, &old)?;
        report.transactions_dropped = dropped.len();
        let events = dropped.iter().flat_map(|(_, row)| event_ids(row));
        let events = Predicate::in_list("EventId", events.map(Value::Int).collect());

        let mut txn = self.db.begin();
        report.rows_deleted += txn.delete_where(EXECUTIONS_TABLE, &old)?;
        report.requests_dropped =
            txn.delete_where(REQUESTS_TABLE, &Predicate::lt("StartTs", cutoff_ts))?;
        report.rows_deleted += report.requests_dropped;
        report.rows_deleted +=
            txn.delete_where(EXTERNAL_CALLS_TABLE, &Predicate::lt("Timestamp", cutoff_ts))?;
        for table in self.table_map.read().values() {
            report.rows_deleted += txn.delete_where(&table.name, &events)?;
        }
        txn.commit()?;
        self.db.gc_before(self.db.current_ts());
        let reads = ingest.take_txns(dropped.iter().map(|(_, row)| event_ids(row)));
        report.rows_deleted += reads.iter().map(DeferredRead::rows).sum::<usize>();
        self.stats.write().deferred_reads = ingest.deferred_reads();
        Ok(report)
    }
}

/// Produces a copy of a CDC record with all row images nulled out (key and
/// operation kind preserved).
pub(crate) fn erase_change(change: &ChangeRecord) -> ChangeRecord {
    let null_row = |row: &Row| Row::from(vec![Value::Null; row.len()]);
    match &change.op {
        ChangeOp::Insert { after } => {
            ChangeRecord::insert(change.table.clone(), change.key.clone(), null_row(after))
        }
        ChangeOp::Update { before, after } => ChangeRecord::update(
            change.table.clone(),
            change.key.clone(),
            null_row(before),
            null_row(after),
        ),
        ChangeOp::Delete { before } => {
            ChangeRecord::delete(change.table.clone(), change.key.clone(), null_row(before))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trod_db::{row, DataType, Database, Schema, Ts};
    use trod_kv::Session;
    use trod_query::QueryEngine;
    use trod_trace::{Tracer, TxnContext};

    fn setup() -> (Database, ProvenanceStore, Session) {
        let db = Database::new();
        db.create_table(
            "profiles",
            Schema::builder()
                .column("user", DataType::Text)
                .column("email", DataType::Text)
                .primary_key(&["user"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let store = ProvenanceStore::for_application(&db).unwrap();
        let traced = Session::traced(db.clone(), Tracer::new());
        (db, store, traced)
    }

    #[test]
    fn redact_rows_erases_event_rows_and_the_assembled_traces() {
        let (_db, store, traced) = setup();
        let mut txn = traced.begin_traced(TxnContext::new("R1", "updateProfile", "f"));
        txn.insert("profiles", row!["U1", "u1@example.org"])
            .unwrap();
        txn.insert("profiles", row!["U2", "u2@example.org"])
            .unwrap();
        txn.commit().unwrap();
        let mut txn = traced.begin_traced(TxnContext::new("R2", "readProfile", "f"));
        let got = txn.scan("profiles", &Predicate::eq("user", "U1")).unwrap();
        assert_eq!(got.len(), 1);
        txn.commit().unwrap();
        store.drain_from(traced.tracer().unwrap());

        let report = store
            .redact_rows("profiles", &[("user", Value::Text("U1".into()))])
            .unwrap();
        assert_eq!(report.event_rows_redacted, 2, "one insert + one read event");
        assert_eq!(report.transactions_affected, 2);
        assert_eq!(report.total(), 2);

        // The event table no longer exposes U1's data...
        let rows = store
            .query("SELECT Type, user, email FROM ProfilesEvents ORDER BY EventId")
            .unwrap();
        let leaked = rows
            .rows()
            .iter()
            .filter(|r| r.iter().any(|v| v.as_text() == Some("u1@example.org")))
            .count();
        assert_eq!(leaked, 0);
        // ...but U2's provenance and the execution metadata survive.
        let u2 = rows
            .rows()
            .iter()
            .filter(|r| r.iter().any(|v| v.as_text() == Some("U2")))
            .count();
        assert_eq!(u2, 1);
        let execs = store.query("SELECT TxnId FROM Executions").unwrap();
        assert_eq!(execs.len(), 2);

        // The assembled traces: U1's insert is erased, U2's is whole, and
        // the read lost its one row and its query.
        let writer = store.txns_for_request("R1").pop().unwrap();
        let images: Vec<&Row> = writer.writes.iter().flat_map(|c| c.op.after()).collect();
        assert_eq!(
            images,
            [
                &row![Value::Null, Value::Null],
                &row!["U2", "u2@example.org"]
            ]
        );
        assert_eq!(writer.writes[0].key, trod_db::Key::single("U1"));
        let reader = store.txns_for_request("R2").pop().unwrap();
        assert_eq!(reader.reads.len(), 1);
        assert!(reader.reads[0].rows.is_empty());
        assert_eq!(reader.reads[0].query, REDACTED_MARKER);

        // Transactions are flagged so replay can report partial data.
        assert!(store.is_partial(writer.txn_id) && store.is_partial(reader.txn_id));
        assert_eq!(store.stats().redacted_events, report.total());
    }

    #[test]
    fn redact_rows_rejects_unknown_tables_columns_and_empty_filters() {
        let (_db, store, traced) = setup();
        let mut txn = traced.begin_traced(TxnContext::new("R1", "h", "f"));
        txn.insert("profiles", row!["U1", "u1@example.org"])
            .unwrap();
        txn.commit().unwrap();
        store.drain_from(traced.tracer().unwrap());
        let u1 = || Value::Text("U1".into());

        let missing = store.redact_rows("missing_table", &[("user", u1())]);
        assert!(
            matches!(&missing, Err(DbError::NoSuchTable(t)) if t == "missing_table"),
            "{missing:?}"
        );
        // A misspelt column used to erase nothing in the event table and
        // report success.
        let column = store.redact_rows("profiles", &[("no_such_column", u1())]);
        assert!(
            matches!(&column, Err(DbError::NoSuchColumn { column, .. }) if column == "no_such_column"),
            "{column:?}"
        );
        // No filter used to redact every event row of the table.
        let empty = store.redact_rows("profiles", &[]);
        assert!(matches!(&empty, Err(DbError::Invalid(_))), "{empty:?}");

        // Nothing was written.
        let rows = store.query("SELECT user FROM ProfilesEvents").unwrap();
        assert_eq!(rows.rows(), &[vec![u1()]]);
        assert_eq!(store.stats().redacted_events, 0);
        assert!(!store.is_partial(store.txns_for_request("R1")[0].txn_id));
    }

    #[test]
    fn redact_request_erases_args_outputs_and_payloads() {
        let (_db, store, _traced) = setup();
        let tracer = Tracer::new();
        let start = tracer.handler_start("R1", "updateProfile", None, "user=U1&ssn=123");
        tracer.external_call("R1", "updateProfile", "email", "to=u1@example.org");
        tracer.handler_end("R1", "updateProfile", start, "ok:U1", true);
        let start = tracer.handler_start("R2", "other", None, "x=1");
        tracer.handler_end("R2", "other", start, "ok", true);
        store.drain_from(&tracer);

        let report = store.redact_request("R1").unwrap();
        assert_eq!(report.requests_redacted, 1);
        assert_eq!(report.external_calls_redacted, 1);

        let reqs = store
            .query("SELECT ReqId, Args, Output FROM Requests ORDER BY ReqId")
            .unwrap();
        assert_eq!(
            reqs.value(0, "Args"),
            Some(&Value::Text(REDACTED_MARKER.into()))
        );
        assert_eq!(reqs.value(1, "Args"), Some(&Value::Text("x=1".into())));
        let recs = store.request_records("R1");
        assert_eq!(recs[0].args, REDACTED_MARKER);
        assert_eq!(recs[0].output.as_deref(), Some(REDACTED_MARKER));
        let calls = store.query("SELECT Payload FROM ExternalCalls").unwrap();
        assert_eq!(
            calls.value(0, "Payload"),
            Some(&Value::Text(REDACTED_MARKER.into()))
        );
    }

    #[test]
    fn retain_since_drops_old_provenance_everywhere() {
        let (_db, store, traced) = setup();
        // Two transactions, then note the cutoff, then one more.
        for (req, user) in [("R1", "U1"), ("R2", "U2")] {
            let mut txn = traced.begin_traced(TxnContext::new(req, "updateProfile", "f"));
            txn.insert("profiles", row![user, format!("{user}@example.org")])
                .unwrap();
            txn.commit().unwrap();
        }
        let tracer = traced.tracer().unwrap().clone();
        let start = tracer.handler_start("R1", "updateProfile", None, "{}");
        tracer.handler_end("R1", "updateProfile", start, "ok", true);
        store.drain_from(&tracer);
        let cutoff = tracer.now();

        let mut txn = traced.begin_traced(TxnContext::new("R3", "updateProfile", "f"));
        txn.insert("profiles", row!["U3", "u3@example.org"])
            .unwrap();
        txn.commit().unwrap();
        let start = tracer.handler_start("R3", "updateProfile", None, "{}");
        tracer.handler_end("R3", "updateProfile", start, "ok", true);
        store.drain_from(&tracer);
        assert_eq!(store.txn_count(), 3);

        let report = store.retain_since(cutoff).unwrap();
        assert_eq!(report.transactions_dropped, 2);
        assert_eq!(report.requests_dropped, 1);
        assert!(report.rows_deleted >= 2 + 1 + 2);

        assert_eq!(store.txn_count(), 1);
        assert_eq!(store.query("SELECT * FROM Executions").unwrap().len(), 1);
        assert_eq!(store.query("SELECT * FROM Requests").unwrap().len(), 1);
        let events = store.query("SELECT * FROM ProfilesEvents").unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(store.request_ids(), vec!["R3".to_string()]);
    }

    /// Whether an erased value is still reachable through the provenance
    /// database's history at `ts`: a scan, a statement, an index probe
    /// and the live log.
    fn history_holds(db: &Database, ts: Ts, table: &str, column: &str, value: &str) -> bool {
        let holds = |row: &[Value]| row.iter().any(|v| v.as_text() == Some(value));
        let scanned = db.scan_as_of(table, &Predicate::True, ts).unwrap();
        let sql = format!("SELECT * FROM {table}");
        let selected = QueryEngine::new(db.clone()).execute_as_of(&sql, ts);
        let probed = db.scan_as_of(table, &Predicate::eq(column, value), ts);
        let images = db
            .log_entries()
            .into_iter()
            .flat_map(|e| e.changes.to_vec());
        let images: Vec<Row> = images
            .flat_map(|c| [c.op.before().cloned(), c.op.after().cloned()])
            .flatten()
            .collect();
        scanned.iter().any(|(_, row)| holds(row.values()))
            || selected.unwrap().rows().iter().any(|row| holds(row))
            || !probed.unwrap().is_empty()
            || images.iter().any(|row| holds(row.values()))
    }

    #[test]
    fn an_erasure_reaches_the_provenance_databases_own_history() {
        let (_db, store, traced) = setup();
        let tracer = traced.tracer().unwrap();
        let start = tracer.handler_start("R1", "updateProfile", None, "u1@example.org");
        let mut txn = traced.begin_traced(TxnContext::new("R1", "updateProfile", "f"));
        txn.insert("profiles", row!["U1", "u1@example.org"])
            .unwrap();
        txn.commit().unwrap();
        tracer.handler_end("R1", "updateProfile", start, "ok", true);
        store.drain_from(tracer);
        // The `email` index is built while it holds the value.
        let sql = "SELECT EventId FROM ProfilesEvents WHERE email = 'u1@example.org'";
        assert_eq!(store.query(sql).unwrap().len(), 1);
        let db = store.database();
        let before = db.current_ts();
        let email = ("ProfilesEvents", "email", "u1@example.org");
        assert!(history_holds(db, before, email.0, email.1, email.2));
        assert!(history_holds(db, before, "Requests", "Args", email.2));

        store
            .redact_rows("profiles", &[("user", Value::Text("U1".into()))])
            .unwrap();
        assert!(!history_holds(db, before, email.0, email.1, email.2));
        store.redact_request("R1").unwrap();
        assert!(!history_holds(db, before, "Requests", "Args", email.2));

        // Retention deletes rows; their values go with their history.
        let before = db.current_ts();
        assert!(history_holds(db, before, "Executions", "ReqId", "R1"));
        store.retain_since(tracer.now()).unwrap();
        assert!(!history_holds(db, before, "Executions", "ReqId", "R1"));
    }

    #[test]
    fn erase_change_preserves_kind_and_key() {
        let insert = ChangeRecord::insert("t", trod_db::Key::single("U1"), row!["U1", "x"]);
        let erased = erase_change(&insert);
        assert_eq!(erased.op.kind(), "Insert");
        assert_eq!(erased.key, insert.key);
        assert!(erased.op.after().unwrap().iter().all(Value::is_null));

        let update = ChangeRecord::update(
            "t",
            trod_db::Key::single("U1"),
            row!["U1", "x"],
            row!["U1", "y"],
        );
        assert_eq!(erase_change(&update).op.kind(), "Update");
        let delete = ChangeRecord::delete("t", trod_db::Key::single("U1"), row!["U1", "x"]);
        assert_eq!(erase_change(&delete).op.kind(), "Delete");
    }
}
