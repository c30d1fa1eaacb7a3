//! Data-quality debugging.
//!
//! The paper's §5 argues TROD can simplify debugging data-quality issues —
//! well-formed but incorrect data, usually introduced by human error —
//! because the provenance database already records every change to every
//! application table. [`Quality::check`] runs [`Invariant`]s, the same
//! rules that judge retroactive re-executions, against the current
//! application database and blames every violation that names a row on
//! the traced transactions that wrote it ([`Quality::blame`]), so the
//! developer can jump straight from "this row is bad" to "this request
//! made it bad", and from there to replay or retroactive testing.

use trod_db::{Database, DbResult, Key, Value};
use trod_provenance::{event_column_names, ProvenanceStore, EXECUTIONS_TABLE};
use trod_query::{Expr, ResultSet};

use crate::invariant::{Invariant, Violation};

/// A provenance record blaming a violation on a traced transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlameRecord {
    pub txn_id: i64,
    pub req_id: String,
    pub handler: String,
    pub timestamp: i64,
    /// The kind of write ("Insert", "Update", "Delete") that touched the
    /// violating row.
    pub operation: String,
}

/// A violation together with the requests that produced the bad data.
#[derive(Debug, Clone, PartialEq)]
pub struct BlamedViolation {
    pub violation: Violation,
    /// Transactions (in commit order) that wrote the violating row. Empty
    /// if the violation names no row, the row predates tracing or its
    /// provenance was redacted.
    pub culprits: Vec<BlameRecord>,
}

/// Result of checking a set of invariants.
#[derive(Debug, Clone, Default)]
pub struct QualityReport {
    pub violations: Vec<BlamedViolation>,
    /// Invariants evaluated.
    pub rules_checked: usize,
}

impl QualityReport {
    /// True if no invariant found a violation.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Request ids implicated in at least one violation, deduplicated.
    pub fn implicated_requests(&self) -> Vec<String> {
        let mut out = Vec::new();
        for v in &self.violations {
            for c in &v.culprits {
                if !out.contains(&c.req_id) {
                    out.push(c.req_id.clone());
                }
            }
        }
        out
    }
}

/// Data-quality helper bound to an application database and its provenance.
pub struct Quality<'a> {
    provenance: &'a ProvenanceStore,
    db: &'a Database,
}

impl<'a> Quality<'a> {
    pub(crate) fn new(provenance: &'a ProvenanceStore, db: &'a Database) -> Self {
        Quality { provenance, db }
    }

    /// Checks every invariant against the current database state and
    /// blames each violation that names a row on the traced transactions
    /// that wrote it. An invariant that cannot be checked (an unknown
    /// table or column) is an `Err`.
    pub fn check(&self, rules: &[Invariant]) -> DbResult<QualityReport> {
        let mut report = QualityReport {
            rules_checked: rules.len(),
            ..QualityReport::default()
        };
        for rule in rules {
            for violation in rule.check(self.db)? {
                let culprits = match &violation.key {
                    Some(key) => self.blame(&violation.table, key),
                    None => Vec::new(),
                };
                report.violations.push(BlamedViolation {
                    violation,
                    culprits,
                });
            }
        }
        Ok(report)
    }

    /// Finds the traced transactions that wrote the row of `table` keyed
    /// `key`, in commit order. Works purely from the provenance tables, so it also
    /// finds writers whose effects were later overwritten. For a
    /// `forum_sub` row keyed `['S2']`:
    ///
    /// ```sql
    /// SELECT E.TxnId, E.ReqId, E.HandlerName, E.Timestamp, F.Type
    /// FROM Executions AS E, ForumEvents AS F ON E.TxnId = F.TxnId
    /// WHERE E.Committed = TRUE AND F.Type != 'Read' AND F.sub_id = 'S2'
    /// ORDER BY E.CommitTs, F.EventId
    /// ```
    ///
    /// Empty if no trace has touched `table`.
    pub fn blame(&self, table: &str, key: &Key) -> Vec<BlameRecord> {
        let (Some(events), Ok(schema)) = (
            self.provenance.event_table_for(table),
            self.db.schema_of(table),
        ) else {
            return Vec::new();
        };
        let columns = event_column_names(&schema);
        let filter: String = (schema.primary_key().iter().zip(key.values()))
            .map(|(&i, v)| format!(" AND F.{} = {}", columns[i], Expr::Literal(v.clone())))
            .collect();
        let result = self.provenance.query(&format!(
            "SELECT E.TxnId, E.ReqId, E.HandlerName, E.Timestamp, F.Type \
             FROM {EXECUTIONS_TABLE} AS E, {events} AS F ON E.TxnId = F.TxnId \
             WHERE E.Committed = TRUE AND F.Type != 'Read'{filter} ORDER BY E.CommitTs, F.EventId"
        ));
        let text = |v: &Value| v.as_text().unwrap_or_default().to_string();
        let rows = result.iter().flat_map(ResultSet::rows);
        rows.map(|row| BlameRecord {
            txn_id: row[0].as_int().unwrap_or(0),
            req_id: text(&row[1]),
            handler: text(&row[2]),
            timestamp: row[3].as_int().unwrap_or(0),
            operation: text(&row[4]),
        })
        .collect()
    }
}

impl std::fmt::Debug for Quality<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Quality").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trod_db::{row, DataType, Predicate, Schema};
    use trod_kv::Session;
    use trod_trace::{Tracer, TxnContext};

    fn setup() -> (Database, ProvenanceStore, Session) {
        let db = Database::new();
        db.create_table(
            "forum_sub",
            Schema::builder()
                .column("id", DataType::Int)
                .column("user_id", DataType::Text)
                .column("forum", DataType::Text)
                .nullable("note", DataType::Text)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_table(
            "forums",
            Schema::builder()
                .column("forum", DataType::Text)
                .primary_key(&["forum"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_table(
            "inventory",
            Schema::builder()
                .column("item", DataType::Text)
                .column("stock", DataType::Int)
                .primary_key(&["item"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let store = ProvenanceStore::for_application(&db).unwrap();
        let traced = Session::traced(db.clone(), Tracer::new());
        (db, store, traced)
    }

    fn flush(traced: &Session, store: &ProvenanceStore) {
        store.drain_from(traced.tracer().unwrap());
    }

    #[test]
    fn duplicates_are_blamed_on_their_writers() {
        let (db, store, traced) = setup();
        let mut txn = traced.begin_traced(TxnContext::new("R1", "subscribeUser", "func:DB.insert"));
        txn.insert("forum_sub", row![1i64, "U1", "F2", Value::Null])
            .unwrap();
        txn.commit().unwrap();
        let mut txn = traced.begin_traced(TxnContext::new("R2", "subscribeUser", "func:DB.insert"));
        txn.insert("forum_sub", row![2i64, "U1", "F2", Value::Null])
            .unwrap();
        txn.commit().unwrap();
        flush(&traced, &store);

        let quality = Quality::new(&store, &db);
        let report = quality
            .check(&[Invariant::no_duplicates("forum_sub", &["user_id", "forum"])])
            .unwrap();
        assert_eq!(report.violations.len(), 1);
        let blamed = &report.violations[0];
        assert_eq!(blamed.culprits.len(), 1);
        assert_eq!(blamed.culprits[0].req_id, "R2");
        assert_eq!(blamed.culprits[0].operation, "Insert");
        assert_eq!(report.implicated_requests(), vec!["R2".to_string()]);
        assert!(!report.is_clean());
    }

    #[test]
    fn not_null_and_range_predicates() {
        let (db, store, traced) = setup();
        let mut txn = traced.begin_traced(TxnContext::new("R1", "h", "f"));
        txn.insert("forum_sub", row![1i64, "U1", "F2", Value::Null])
            .unwrap();
        txn.insert("inventory", row!["widget", -3i64]).unwrap();
        txn.insert("inventory", row!["gadget", 7i64]).unwrap();
        txn.commit().unwrap();
        flush(&traced, &store);

        let quality = Quality::new(&store, &db);
        let not_null = Predicate::IsNotNull("note".into());
        let range = Predicate::ge("stock", 0i64).and(Predicate::le("stock", 1_000i64));
        let report = quality
            .check(&[
                Invariant::all_rows_match("forum_sub", not_null),
                Invariant::all_rows_match("inventory", range),
            ])
            .unwrap();
        let keys: Vec<_> = (report.violations.iter())
            .map(|b| b.violation.key.clone())
            .collect();
        assert_eq!(
            keys,
            vec![Some(Key::single(1i64)), Some(Key::single("widget"))]
        );
        assert!(report.violations[1].violation.detail.contains("-3"));
        assert_eq!(report.implicated_requests(), vec!["R1".to_string()]);
    }

    #[test]
    fn foreign_keys_find_dangling_references() {
        let (db, store, traced) = setup();
        let mut txn = traced.begin_traced(TxnContext::new("R1", "h", "f"));
        txn.insert("forums", row!["F1"]).unwrap();
        txn.insert("forum_sub", row![1i64, "U1", "F1", Value::Null])
            .unwrap();
        txn.insert("forum_sub", row![2i64, "U2", "F404", Value::Null])
            .unwrap();
        txn.commit().unwrap();
        flush(&traced, &store);

        let quality = Quality::new(&store, &db);
        let report = quality
            .check(&[Invariant::foreign_key(
                "forum_sub",
                "forum",
                "forums",
                "forum",
            )])
            .unwrap();
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].violation.detail.contains("F404"));
    }

    #[test]
    fn forbidden_states_and_unkeyed_violations() {
        let (db, store, traced) = setup();
        let mut txn = traced.begin_traced(TxnContext::new("R1", "h", "f"));
        txn.insert("inventory", row!["widget", 5i64]).unwrap();
        txn.commit().unwrap();
        flush(&traced, &store);

        let quality = Quality::new(&store, &db);
        let no_negative_stock =
            || Invariant::all_rows_match("inventory", Predicate::lt("stock", 0i64).negate());
        let clean = quality.check(&[no_negative_stock()]).unwrap();
        assert!(clean.is_clean());
        assert_eq!(clean.rules_checked, 1);

        let mut txn = traced.begin_traced(TxnContext::new("R2", "refund", "f"));
        txn.update("inventory", &Key::single("widget"), row!["widget", -1i64])
            .unwrap();
        txn.commit().unwrap();
        flush(&traced, &store);
        let dirty = quality
            .check(&[
                no_negative_stock(),
                Invariant::row_count("inventory", Predicate::True, 2),
            ])
            .unwrap();
        assert_eq!(dirty.violations.len(), 2);
        // Blame finds both the original insert and the bad update; the
        // update (R2) is the most recent culprit.
        let culprits = &dirty.violations[0].culprits;
        assert!(culprits
            .iter()
            .any(|c| c.req_id == "R2" && c.operation == "Update"));
        // A row count names no row, so nothing is blamed for it.
        assert_eq!(dirty.violations[1].violation.key, None);
        assert!(dirty.violations[1].culprits.is_empty());
    }

    #[test]
    fn an_invariant_that_cannot_be_checked_is_an_error() {
        let (db, store, _) = setup();
        let quality = Quality::new(&store, &db);
        let typo = Invariant::no_duplicates("forum_sub", &["user_id", "typo"]);
        assert!(quality.check(&[typo]).is_err());
    }
}
