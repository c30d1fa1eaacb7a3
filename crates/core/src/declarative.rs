//! Declarative debugging helpers.
//!
//! The paper's §3.3/§3.4 workflow is: a developer notices a symptom
//! (duplicated rows, a failed request), then queries the provenance
//! database to find which requests and handlers caused it. Raw SQL is
//! always available through [`trod_core::Trod::query`]; this module adds
//! the most common investigations as typed helpers.

use trod_provenance::{ProvenanceStore, EXECUTIONS_TABLE};
use trod_query::{QueryResultT, ResultSet};
use trod_trace::TxnTrace;

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
    /// duplicated subscription.
    pub fn find_writers(
        &self,
        app_table: &str,
        event_type: &str,
        column_filters: &[(&str, &str)],
    ) -> QueryResultT<Vec<WriterRecord>> {
        let event_table = match self.provenance.event_table_for(app_table) {
            Some(t) => t,
            None => return Ok(Vec::new()),
        };
        let mut filters = format!("F.Type = '{event_type}'");
        for (column, value) in column_filters {
            filters.push_str(&format!(" AND F.{column} = '{value}'"));
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
    pub fn concurrent_requests(&self, req_id: &str) -> Vec<String> {
        let own = self.provenance.txns_for_request(req_id);
        let committed: Vec<&TxnTrace> = own.iter().filter(|t| t.committed).collect();
        let (first, last) = match (committed.first(), committed.last()) {
            (Some(f), Some(l)) => (f.snapshot_ts, l.serialization_ts()),
            _ => return Vec::new(),
        };
        let mut out = Vec::new();
        for txn in self.provenance.all_txns() {
            if txn.ctx.req_id == req_id || !txn.committed {
                continue;
            }
            // Overlaps the (first snapshot, last serialization point) window.
            if txn.serialization_ts() > first
                && txn.snapshot_ts < last
                && !out.contains(&txn.ctx.req_id)
            {
                out.push(txn.ctx.req_id.clone());
            }
        }
        out
    }

    /// Handler names ranked by how many committed transactions they ran
    /// (a quick "where is the database traffic coming from?" view).
    pub fn handler_activity(&self) -> QueryResultT<ResultSet> {
        self.query(&format!(
            "SELECT HandlerName, COUNT(*) AS txns FROM {EXECUTIONS_TABLE} \
             WHERE Committed = TRUE GROUP BY HandlerName ORDER BY txns DESC"
        ))
    }
}

impl std::fmt::Debug for Declarative<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Declarative").finish()
    }
}
