//! Security debugging and forensics (paper §4.2).
//!
//! Two capabilities are reproduced:
//!
//! * **Access-control pattern checking** (after Near & Jackson): find
//!   requests that violated common patterns such as *User Profiles* (only
//!   a user may update their own profile) or *Authentication* (only
//!   logged-in users may read certain objects), expressed as declarative
//!   queries over the provenance tables.
//! * **Data-exfiltration tracing**: starting from a request that
//!   improperly accessed sensitive data, follow the data forward through
//!   the workflow — writes it made, later requests that read those
//!   writes, and external calls those requests issued — to determine
//!   whether (and where) the data could have left the system.

use std::collections::BTreeSet;

use trod_db::{Ts, Value};
use trod_provenance::{ProvenanceStore, EXECUTIONS_TABLE, EXTERNAL_CALLS_TABLE};
use trod_query::{text_literal, QueryResultT, ResultSet};

/// A request flagged by an access-control pattern check.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessViolation {
    pub timestamp: i64,
    pub req_id: String,
    pub handler: String,
    pub detail: String,
}

/// The result of tracing tainted data forward from a suspicious request.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataFlowReport {
    /// The request the trace started from.
    pub origin_req_id: String,
    /// Requests (including the origin) through which the tainted data
    /// flowed, in the order they were reached.
    pub tainted_requests: Vec<String>,
    /// (table, key) pairs written while tainted.
    pub tainted_writes: Vec<(String, String)>,
    /// External calls made by tainted requests — the candidate
    /// exfiltration points.
    pub exfiltration_candidates: Vec<(String, String, String)>,
}

impl DataFlowReport {
    /// True if tainted data reached any external service.
    pub fn data_left_the_system(&self) -> bool {
        !self.exfiltration_candidates.is_empty()
    }
}

/// Security / forensics helper bound to a provenance store.
pub struct Security<'a> {
    provenance: &'a ProvenanceStore,
}

impl<'a> Security<'a> {
    pub(crate) fn new(provenance: &'a ProvenanceStore) -> Self {
        Security { provenance }
    }

    /// The paper's *User Profiles* pattern query: find requests whose
    /// transactions updated a profile row where the profile owner column
    /// differs from the updater column.
    ///
    /// `events_table` is the provenance event table of the profile table
    /// (e.g. `"ProfileEvents"`); `owner_column` / `updater_column` name
    /// the owner and updater columns inside it (the paper uses `UserName`
    /// and `UpdatedBy`).
    pub fn user_profile_violations(
        &self,
        events_table: &str,
        owner_column: &str,
        updater_column: &str,
    ) -> QueryResultT<Vec<AccessViolation>> {
        let sql = format!(
            "SELECT Timestamp, ReqId, HandlerName, P.{owner_column}, P.{updater_column} \
             FROM {EXECUTIONS_TABLE} as E, {events_table} as P \
             ON E.TxnId = P.TxnId \
             WHERE P.{owner_column} != P.{updater_column} AND P.Type = 'Update' \
             ORDER BY Timestamp ASC"
        );
        let result = self.provenance.query(&sql)?;
        Ok(result
            .rows()
            .iter()
            .map(|row| AccessViolation {
                timestamp: row[0].as_int().unwrap_or(0),
                req_id: row[1].as_text().unwrap_or("").to_string(),
                handler: row[2].as_text().unwrap_or("").to_string(),
                detail: format!(
                    "profile of `{}` updated by `{}`",
                    row[3].as_text().unwrap_or("?"),
                    row[4].as_text().unwrap_or("?")
                ),
            })
            .collect())
    }

    /// The *Authentication* pattern: reads of a protected table performed
    /// by requests whose handler is not in the allow-list of
    /// authenticated entry points:
    ///
    /// ```sql
    /// SELECT Timestamp, ReqId, HandlerName
    /// FROM Executions as E, ProfileEvents as P ON E.TxnId = P.TxnId
    /// WHERE P.Type = 'Read' AND HandlerName NOT IN ('viewProfile', 'updateProfile')
    /// ORDER BY Timestamp ASC
    /// ```
    ///
    /// (without the `NOT IN` for an empty allow-list).
    pub fn unauthenticated_reads(
        &self,
        events_table: &str,
        authenticated_handlers: &[&str],
    ) -> QueryResultT<Vec<AccessViolation>> {
        let allowed: Vec<String> = authenticated_handlers
            .iter()
            .map(|h| text_literal(h))
            .collect();
        let mut filter = "P.Type = 'Read'".to_string();
        if !allowed.is_empty() {
            filter += &format!(" AND HandlerName NOT IN ({})", allowed.join(", "));
        }
        let sql = format!(
            "SELECT Timestamp, ReqId, HandlerName \
             FROM {EXECUTIONS_TABLE} as E, {events_table} as P \
             ON E.TxnId = P.TxnId \
             WHERE {filter} \
             ORDER BY Timestamp ASC"
        );
        let result = self.provenance.query(&sql)?;
        Ok(result
            .rows()
            .iter()
            .map(|row| AccessViolation {
                timestamp: row[0].as_int().unwrap_or(0),
                req_id: row[1].as_text().unwrap_or("").to_string(),
                handler: row[2].as_text().unwrap_or("").to_string(),
                detail: format!(
                    "`{}` read protected data without being an authenticated entry point",
                    row[2].as_text().unwrap_or("?")
                ),
            })
            .collect())
    }

    /// Raw list of external calls (from the provenance tables), useful to
    /// review what left the system in a time window.
    pub fn external_calls(&self) -> QueryResultT<ResultSet> {
        self.provenance.query(&format!(
            "SELECT ReqId, HandlerName, Service, Payload, Timestamp \
             FROM {EXTERNAL_CALLS_TABLE} ORDER BY Timestamp ASC"
        ))
    }

    /// Traces tainted data forward from `origin_req_id` (paper §4.2,
    /// "detecting data exfiltration through workflows").
    ///
    /// Taint propagation: every (table, key) the origin request wrote is
    /// tainted; any later transaction that *read* a tainted key taints its
    /// request, whose writes become tainted in turn; external calls of
    /// tainted requests are candidate exfiltration points.
    ///
    /// The walk reads whole committed traces, in commit order
    /// ([`ProvenanceStore::txns_between`]); an aborted transaction neither
    /// writes nor taints. The candidates are then one query, here for
    /// the tainted requests `R3` and `R7`:
    ///
    /// ```sql
    /// SELECT ReqId, Service, Payload FROM ExternalCalls
    /// WHERE ReqId IN ('R3', 'R7') ORDER BY Timestamp ASC
    /// ```
    pub fn trace_data_flow(&self, origin_req_id: &str) -> DataFlowReport {
        let txns = self.provenance.txns_between(0, Ts::MAX);
        let mut tainted_requests: Vec<String> = vec![origin_req_id.to_string()];
        let mut tainted_keys: BTreeSet<(String, String)> = BTreeSet::new();
        let mut tainted_writes: Vec<(String, String)> = Vec::new();

        // Seed with the origin's writes.
        for txn in txns.iter().filter(|t| t.ctx.req_id == origin_req_id) {
            for write in txn.writes.iter() {
                let entry = (write.table.to_string(), write.key.to_string());
                if tainted_keys.insert(entry.clone()) {
                    tainted_writes.push(entry);
                }
            }
        }

        // Propagate forward in commit order until a fixed point. The
        // number of passes is bounded by the number of requests.
        let mut changed = true;
        while changed {
            changed = false;
            for txn in &txns {
                if !txn.committed || tainted_requests.contains(&txn.ctx.req_id) {
                    continue;
                }
                let reads_tainted = txn.reads.iter().any(|read| {
                    read.rows.iter().any(|(key, _)| {
                        tainted_keys.contains(&(read.table.clone(), key.to_string()))
                    })
                });
                if reads_tainted {
                    tainted_requests.push(txn.ctx.req_id.clone());
                    changed = true;
                }
                if tainted_requests.contains(&txn.ctx.req_id) {
                    for write in txn.writes.iter() {
                        let entry = (write.table.to_string(), write.key.to_string());
                        if tainted_keys.insert(entry.clone()) {
                            tainted_writes.push(entry);
                            changed = true;
                        }
                    }
                }
            }
        }

        // External calls of tainted requests.
        let tainted: Vec<String> = tainted_requests.iter().map(|r| text_literal(r)).collect();
        let calls = self.provenance.query(&format!(
            "SELECT ReqId, Service, Payload FROM {EXTERNAL_CALLS_TABLE} \
             WHERE ReqId IN ({}) ORDER BY Timestamp ASC",
            tainted.join(", ")
        ));
        let text = |v: &Value| v.as_text().unwrap_or("").to_string();
        let exfiltration_candidates = calls
            .iter()
            .flat_map(ResultSet::rows)
            .map(|row| (text(&row[0]), text(&row[1]), text(&row[2])))
            .collect();

        DataFlowReport {
            origin_req_id: origin_req_id.to_string(),
            tainted_requests,
            tainted_writes,
            exfiltration_candidates,
        }
    }
}

impl std::fmt::Debug for Security<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Security").finish()
    }
}
