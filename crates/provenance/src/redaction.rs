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
//!   provenance event (reads and writes, relational tables and the
//!   detailed archive) matching a set of column filters — e.g. "everything
//!   about user U1" — while keeping non-sensitive execution metadata
//!   (transaction ids, handler names, timestamps) so the execution history
//!   remains queryable.
//! * [`ProvenanceStore::redact_request`] erases the arguments, outputs and
//!   external-call payloads of a request (PII frequently lives in request
//!   arguments rather than table rows).
//! * [`ProvenanceStore::retain_since`] applies a retention cutoff,
//!   dropping all provenance older than it.
//!
//! **What an erasure reaches.** Every copy the provenance store owns: the
//! `<X>Events`, `Requests` and `ExternalCalls` tables and the trace
//! archive (read sets and write records). Handler invocations have no copy
//! besides their `Requests` rows, which every [`crate::RequestRecord`] is
//! decoded from. It does not
//! reach the application's own history — its version chains, its live
//! transaction log, its durable log and its checkpoints — which every fork
//! reads, above and below the GC floor alike, so a fork holds the same
//! rows wherever it is taken. Erasing a person's data from the
//! application itself is a write to the application.
//!
//! Transactions touched by redaction are remembered
//! ([`ProvenanceStore::is_redacted`]); the replay engine reports partial
//! fidelity for them instead of silently replaying against incomplete
//! state — "debugging from partial data".

use std::sync::Arc;

use trod_db::{ChangeOp, ChangeRecord, DbResult, Predicate, Row, Value};

use crate::schema::{EXECUTIONS_TABLE, EXTERNAL_CALLS_TABLE, REQUESTS_TABLE};
use crate::store::ProvenanceStore;

/// Placeholder written over redacted text fields.
pub const REDACTED_MARKER: &str = "[redacted]";

/// Outcome of a redaction request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RedactionReport {
    /// Rows in `<X>Events` tables whose data columns were erased.
    pub event_rows_redacted: usize,
    /// Row images removed from archived read sets.
    pub archive_reads_redacted: usize,
    /// Row images erased from archived write (CDC) records.
    pub archive_writes_redacted: usize,
    /// Handler invocations whose arguments/outputs were erased.
    pub requests_redacted: usize,
    /// External-call payloads erased.
    pub external_calls_redacted: usize,
    /// Distinct transactions affected (now flagged as partially redacted).
    pub transactions_affected: usize,
}

impl RedactionReport {
    /// Total provenance entries touched.
    pub fn total(&self) -> usize {
        self.event_rows_redacted
            + self.archive_reads_redacted
            + self.archive_writes_redacted
            + self.requests_redacted
            + self.external_calls_redacted
    }
}

/// Outcome of applying a retention cutoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetentionReport {
    /// Archived transaction traces dropped.
    pub transactions_dropped: usize,
    /// Handler invocation records dropped.
    pub requests_dropped: usize,
    /// Rows deleted from the relational provenance tables (Executions,
    /// Requests, ExternalCalls and every `<X>Events` table).
    pub rows_deleted: usize,
}

impl ProvenanceStore {
    /// Erases every provenance entry about `app_table` rows whose columns
    /// match all `filters` (column name → value). Data columns are
    /// replaced with NULL / [`REDACTED_MARKER`]; execution metadata
    /// (transaction ids, handler names, timestamps) is preserved so the
    /// history's *shape* stays queryable.
    pub fn redact_rows(
        &self,
        app_table: &str,
        filters: &[(&str, Value)],
    ) -> DbResult<RedactionReport> {
        let mut report = RedactionReport::default();
        let mut touched_txns: Vec<i64> = Vec::new();

        // 1. Relational event table.
        if let Some(event_table) = self.event_table_for(app_table) {
            let schema = self.db.schema_of(&event_table)?;
            // Map each filter to an event-table column index (application
            // columns may have been prefixed with `App_` on collision).
            let mut pred = Predicate::True;
            let mut resolvable = true;
            for (column, value) in filters {
                let name = if schema.column_index(column).is_some() {
                    (*column).to_string()
                } else if schema.column_index(&format!("App_{column}")).is_some() {
                    format!("App_{column}")
                } else {
                    resolvable = false;
                    break;
                };
                pred = pred.and(Predicate::eq(name, value.clone()));
            }
            if resolvable {
                let matches = self.db.scan_latest(&event_table, &pred)?;
                let mut txn = self.db.begin();
                for (key, row) in matches {
                    let mut redacted = (*row).clone();
                    redacted.set(3, Value::Text(REDACTED_MARKER.to_string()));
                    for idx in 4..row.len() {
                        redacted.set(idx, Value::Null);
                    }
                    txn.update(&event_table, &key, redacted)?;
                    if let Some(txn_id) = row.get(1).and_then(Value::as_int) {
                        touched_txns.push(txn_id);
                    }
                    report.event_rows_redacted += 1;
                }
                txn.commit()?;
            }
        }

        // 2. Detailed archive: read sets and CDC write records.
        {
            let mut archive = self.archive.write();
            for trace in archive.iter_mut() {
                let mut touched = false;
                for read in trace.reads.iter_mut().filter(|r| r.table == app_table) {
                    let before = read.rows.len();
                    read.rows.retain(|(_, row)| !row_matches(row, filters));
                    let removed = before - read.rows.len();
                    if removed > 0 {
                        read.query = REDACTED_MARKER.to_string();
                        report.archive_reads_redacted += removed;
                        touched = true;
                    }
                }
                let erased = erase_matching(&mut trace.writes, app_table, filters);
                report.archive_writes_redacted += erased;
                if touched || erased > 0 {
                    touched_txns.push(trace.txn_id as i64);
                }
            }
        }

        touched_txns.sort_unstable();
        touched_txns.dedup();
        report.transactions_affected = touched_txns.len();
        {
            let mut redacted = self.redacted_txns.write();
            for txn_id in touched_txns {
                redacted.insert(txn_id as trod_db::TxnId);
            }
        }
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

        self.stats.write().redacted_events += report.total();
        Ok(report)
    }

    /// Drops all provenance recorded before `cutoff_ts` (trace-clock
    /// microseconds): archived traces and the corresponding rows of every
    /// relational provenance table, handler invocations included.
    pub fn retain_since(&self, cutoff_ts: i64) -> DbResult<RetentionReport> {
        let mut report = RetentionReport::default();
        let mut ingest = self.ingest.lock();

        // Which transactions are being dropped (needed to clean the event
        // tables, which carry no timestamp of their own).
        let dropped_txn_ids: Vec<Value> = {
            let archive = self.archive.read();
            archive
                .iter()
                .filter(|t| t.timestamp < cutoff_ts)
                .map(|t| Value::Int(t.txn_id as i64))
                .collect()
        };

        // Relational tables.
        let mut txn = self.db.begin();
        report.rows_deleted +=
            txn.delete_where(EXECUTIONS_TABLE, &Predicate::lt("Timestamp", cutoff_ts))?;
        report.requests_dropped =
            txn.delete_where(REQUESTS_TABLE, &Predicate::lt("StartTs", cutoff_ts))?;
        report.rows_deleted += report.requests_dropped;
        report.rows_deleted +=
            txn.delete_where(EXTERNAL_CALLS_TABLE, &Predicate::lt("Timestamp", cutoff_ts))?;
        if !dropped_txn_ids.is_empty() {
            let event_tables: Vec<Arc<str>> = self
                .table_map
                .read()
                .values()
                .map(|t| t.name.clone())
                .collect();
            for event_table in event_tables {
                report.rows_deleted += txn.delete_where(
                    &event_table,
                    &Predicate::in_list("TxnId", dropped_txn_ids.clone()),
                )?;
            }
        }
        txn.commit()?;

        // Archive.
        {
            let mut archive = self.archive.write();
            let before = archive.len();
            archive.retain(|t| t.timestamp >= cutoff_ts);
            report.transactions_dropped = before - archive.len();
        }
        // Expired invocations leave the open-invocation map: a late
        // `HandlerEnd` must not resurrect one.
        self.reopen(&mut ingest);
        Ok(report)
    }
}

/// Archive rows are raw application rows; filters address them by the
/// application column *positions* implied by the event-table layout. The
/// archive does not store the application schema, so matching is by value:
/// a row matches if every filter value appears in it. This is intentionally
/// conservative (it may redact extra rows that merely contain the value),
/// which is the safe direction for an erasure request.
fn row_matches(row: &Row, filters: &[(&str, Value)]) -> bool {
    !filters.is_empty()
        && filters
            .iter()
            .all(|(_, value)| row.iter().any(|v| v.sql_eq(value)))
}

/// Erases the images of the `app_table` records in a change list that
/// match `filters`, returning how many. Change lists are shared with the
/// commit that produced them; the list is copied only when something in
/// it is erased while another holder still reads it.
fn erase_matching(
    changes: &mut Arc<[ChangeRecord]>,
    app_table: &str,
    filters: &[(&str, Value)],
) -> usize {
    let matches = |change: &ChangeRecord| {
        let image = change.op.after().or_else(|| change.op.before());
        &*change.table == app_table && image.is_some_and(|row| row_matches(row, filters))
    };
    if !changes.iter().any(matches) {
        return 0;
    }
    let mut erased = 0;
    for change in Arc::make_mut(changes).iter_mut().filter(|c| matches(c)) {
        *change = erase_change(change);
        erased += 1;
    }
    erased
}

/// Produces a copy of a CDC record with all row images nulled out (key and
/// operation kind preserved).
fn erase_change(change: &ChangeRecord) -> ChangeRecord {
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
    use trod_db::{row, DataType, Database, Schema};
    use trod_kv::Session;
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
    fn redact_rows_erases_event_table_and_archive() {
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
        assert_eq!(report.archive_reads_redacted, 1);
        assert_eq!(report.archive_writes_redacted, 1);
        assert_eq!(report.transactions_affected, 2);
        assert!(report.total() >= 4);

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

        // Transactions are flagged so replay can report partial data.
        let flagged = store
            .all_txns()
            .iter()
            .filter(|t| store.is_redacted(t.txn_id))
            .count();
        assert_eq!(flagged, 2);
        assert_eq!(store.stats().redacted_events, report.total());
    }

    #[test]
    fn redact_rows_on_unknown_table_or_column_is_a_noop() {
        let (_db, store, traced) = setup();
        let mut txn = traced.begin_traced(TxnContext::new("R1", "h", "f"));
        txn.insert("profiles", row!["U1", "u1@example.org"])
            .unwrap();
        txn.commit().unwrap();
        store.drain_from(traced.tracer().unwrap());

        let report = store
            .redact_rows("missing_table", &[("user", Value::Text("U1".into()))])
            .unwrap();
        assert_eq!(report.event_rows_redacted, 0);
        let report = store
            .redact_rows("profiles", &[("no_such_column", Value::Text("U1".into()))])
            .unwrap();
        assert_eq!(report.event_rows_redacted, 0);
    }

    #[test]
    fn redact_request_erases_args_outputs_and_payloads() {
        let (_db, store, _traced) = setup();
        let tracer = Tracer::new();
        tracer.handler_start("R1", "updateProfile", None, "user=U1&ssn=123");
        tracer.external_call("R1", "updateProfile", "email", "to=u1@example.org");
        tracer.handler_end("R1", "updateProfile", "ok:U1", true);
        tracer.handler_start("R2", "other", None, "x=1");
        tracer.handler_end("R2", "other", "ok", true);
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
        tracer.handler_start("R1", "updateProfile", None, "{}");
        tracer.handler_end("R1", "updateProfile", "ok", true);
        store.drain_from(&tracer);
        let cutoff = tracer.now();

        let mut txn = traced.begin_traced(TxnContext::new("R3", "updateProfile", "f"));
        txn.insert("profiles", row!["U3", "u3@example.org"])
            .unwrap();
        txn.commit().unwrap();
        tracer.handler_start("R3", "updateProfile", None, "{}");
        tracer.handler_end("R3", "updateProfile", "ok", true);
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
