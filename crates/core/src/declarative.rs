//! Declarative debugging helpers.
//!
//! The paper's §3.3/§3.4 workflow is: a developer notices a symptom
//! (duplicated rows, a failed request), then queries the provenance
//! database to find which requests and handlers caused it. Raw SQL is
//! always available through [`trod_core::Trod::query`]; this module adds
//! the most common investigations as typed helpers.

use trod_provenance::{ProvenanceStore, EXECUTIONS_TABLE};
use trod_query::{text_literal, QueryResultT, ResultSet};

/// Committed transactions per handler, busiest first
/// ([`Declarative::handler_activity`]).
pub const HANDLER_ACTIVITY_SQL: &str = "SELECT HandlerName, COUNT(*) AS txns FROM Executions \
     WHERE Committed = TRUE GROUP BY HandlerName ORDER BY txns DESC";

/// One row of the "who touched this data?" investigation.
#[derive(Debug, Clone, PartialEq)]
pub struct WriterRecord {
    pub timestamp: i64,
    pub req_id: String,
    pub handler: String,
    pub txn_id: i64,
    pub event_type: String,
}

/// Declarative-debugging helper bound to a provenance store.
pub struct Declarative<'a> {
    provenance: &'a ProvenanceStore,
}

impl<'a> Declarative<'a> {
    pub(crate) fn new(provenance: &'a ProvenanceStore) -> Self {
        Declarative { provenance }
    }

    /// Raw SQL passthrough.
    pub fn query(&self, sql: &str) -> QueryResultT<ResultSet> {
        self.provenance.query(sql)
    }

    /// The paper's §3.3 query, generalised: find the requests whose
    /// transactions performed `event_type` (e.g. `"Insert"`) events on
    /// `app_table` matching all `column_filters` (column name, value),
    /// ordered by timestamp.
    ///
    /// For the Moodle bug this is called as
    /// `find_writers("forum_sub", "Insert", &[("UserId", "U1"), ("Forum", "F2")])`
    /// and returns the two `subscribeUser` requests that inserted the
    /// duplicated subscription. Every value is pasted in as a quoted
    /// literal ([`text_literal`]).
    pub fn find_writers(
        &self,
        app_table: &str,
        event_type: &str,
        column_filters: &[(&str, &str)],
    ) -> QueryResultT<Vec<WriterRecord>> {
        let Some(event_table) = self.provenance.event_table_for(app_table) else {
            return Ok(Vec::new());
        };
        let mut filters = format!("F.Type = {}", text_literal(event_type));
        for (column, value) in column_filters {
            filters.push_str(&format!(" AND F.{column} = {}", text_literal(value)));
        }
        let sql = format!(
            "SELECT Timestamp, ReqId, HandlerName, E.TxnId \
             FROM {EXECUTIONS_TABLE} as E, {event_table} as F \
             ON E.TxnId = F.TxnId \
             WHERE {filters} \
             ORDER BY Timestamp ASC"
        );
        let result = self.query(&sql)?;
        Ok(result
            .rows()
            .iter()
            .map(|row| WriterRecord {
                timestamp: row[0].as_int().unwrap_or(0),
                req_id: row[1].as_text().unwrap_or("").to_string(),
                handler: row[2].as_text().unwrap_or("").to_string(),
                txn_id: row[3].as_int().unwrap_or(0),
                event_type: event_type.to_string(),
            })
            .collect())
    }

    /// Requests whose committed transactions interleave with the given
    /// request's transaction span — the "which concurrent executions may
    /// have updated the database between my transactions?" question of
    /// §3.5, answered from provenance alone.
    ///
    /// The span runs from the snapshot of the request's first committed
    /// transaction to the commit of its last (a read-only commit's
    /// `CommitTs` is its snapshot):
    ///
    /// ```sql
    /// SELECT SnapshotTs, CommitTs FROM Executions
    /// WHERE ReqId = 'R1' AND Committed = TRUE ORDER BY CommitTs, Timestamp
    /// ```
    ///
    /// The requests overlapping it, each once, in commit order (here for
    /// the span 4 to 9):
    ///
    /// ```sql
    /// SELECT ReqId FROM Executions
    /// WHERE Committed = TRUE AND ReqId != 'R1' AND CommitTs > 4 AND SnapshotTs < 9
    /// ORDER BY CommitTs, Timestamp
    /// ```
    pub fn concurrent_requests(&self, req_id: &str) -> Vec<String> {
        let req = text_literal(req_id);
        let span = self.query(&format!(
            "SELECT SnapshotTs, CommitTs FROM {EXECUTIONS_TABLE} \
             WHERE ReqId = {req} AND Committed = TRUE ORDER BY CommitTs, Timestamp"
        ));
        let Ok(span) = span else { return Vec::new() };
        let (Some(first), Some(last)) = (span.rows().first(), span.rows().last()) else {
            return Vec::new();
        };
        let (from, to) = (&first[0], &last[1]);
        distinct_texts(self.query(&format!(
            "SELECT ReqId FROM {EXECUTIONS_TABLE} \
             WHERE Committed = TRUE AND ReqId != {req} AND CommitTs > {from} AND SnapshotTs < {to} \
             ORDER BY CommitTs, Timestamp"
        )))
    }

    /// Every request with an event on `app_table`, each once: requests
    /// with a committed transaction on it first, in commit order, then
    /// those whose transactions on it all aborted, in snapshot order. For
    /// the Moodle `forum_sub` table:
    ///
    /// ```sql
    /// SELECT E.ReqId FROM Executions AS E, ForumEvents AS F ON E.TxnId = F.TxnId
    /// ORDER BY E.Committed DESC, E.CommitTs, E.SnapshotTs, E.Timestamp
    /// ```
    ///
    /// Empty if no trace has touched `app_table` (a traced table has an
    /// event table from its first ingested trace on).
    pub fn requests_touching_table(&self, app_table: &str) -> Vec<String> {
        let Some(event_table) = self.provenance.event_table_for(app_table) else {
            return Vec::new();
        };
        distinct_texts(self.query(&format!(
            "SELECT E.ReqId FROM {EXECUTIONS_TABLE} AS E, {event_table} AS F ON E.TxnId = F.TxnId \
             ORDER BY E.Committed DESC, E.CommitTs, E.SnapshotTs, E.Timestamp"
        )))
    }

    /// Handler names ranked by how many committed transactions they ran
    /// (a quick "where is the database traffic coming from?" view):
    /// [`HANDLER_ACTIVITY_SQL`].
    pub fn handler_activity(&self) -> QueryResultT<ResultSet> {
        self.query(HANDLER_ACTIVITY_SQL)
    }
}

/// The first column of a result, each value once, in first-seen order
/// (empty for a failed query).
fn distinct_texts(result: QueryResultT<ResultSet>) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for row in result.iter().flat_map(ResultSet::rows) {
        let text = row[0].as_text().unwrap_or_default();
        if !out.iter().any(|seen| seen == text) {
            out.push(text.to_string());
        }
    }
    out
}

impl std::fmt::Debug for Declarative<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Declarative").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trod_db::{row, DataType, Database, Schema};
    use trod_kv::Session;
    use trod_trace::{Tracer, TxnContext};

    /// A provenance store over a `people` table into which request `R<i>`
    /// inserted the `i`-th name.
    fn store_with_inserts(names: &[&str]) -> ProvenanceStore {
        let db = Database::new();
        let schema = Schema::builder()
            .column("name", DataType::Text)
            .primary_key(&["name"])
            .build()
            .unwrap();
        db.create_table("people", schema).unwrap();
        let store = ProvenanceStore::for_application(&db).unwrap();
        let traced = Session::traced(db, Tracer::new());
        for (i, name) in names.iter().enumerate() {
            let ctx = TxnContext::new(format!("R{}", i + 1), "addPerson", "func:insert");
            let mut txn = traced.begin_traced(ctx);
            txn.insert("people", row![*name]).unwrap();
            txn.commit().unwrap();
        }
        store.drain_from(traced.tracer().unwrap());
        store
    }

    #[test]
    fn find_writers_quotes_the_values_it_is_given() {
        let store = store_with_inserts(&["O'Brien", "OBrien", "U1"]);
        let declarative = Declarative::new(&store);
        let writers = declarative
            .find_writers("people", "Insert", &[("name", "O'Brien")])
            .unwrap();
        let reqs: Vec<&str> = writers.iter().map(|w| w.req_id.as_str()).collect();
        assert_eq!(reqs, ["R1"]);
        // A value is a value, never SQL: this names no row.
        let injected = declarative
            .find_writers("people", "Insert", &[("name", "U1' OR F.Type = 'Insert")])
            .unwrap();
        assert!(injected.is_empty(), "{injected:?}");
    }
}
