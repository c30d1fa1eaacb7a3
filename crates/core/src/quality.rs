//! Data-quality debugging.
//!
//! The paper's §5 argues TROD can simplify debugging data-quality issues —
//! well-formed but incorrect data, usually introduced by human error —
//! because the provenance database already records every change to every
//! application table. This module provides the two halves of that
//! workflow:
//!
//! 1. **Quality rules** ([`QualityRule`]) evaluated against the current
//!    application database: uniqueness, non-null, referential integrity,
//!    numeric ranges, and arbitrary custom checks.
//! 2. **Blame** ([`Quality::blame`] / [`Quality::check`]): for every
//!    violating row, the provenance archive is searched for the
//!    transactions — and therefore the requests and handlers — that wrote
//!    it, so the developer can jump straight from "this row is bad" to
//!    "this request made it bad", and from there to replay or retroactive
//!    testing.

use trod_db::{Database, DbResult, Key, Predicate, Value};
use trod_provenance::ProvenanceStore;

/// A declarative data-quality rule over one application table.
#[derive(Debug, Clone)]
pub enum QualityRule {
    /// The combination of `columns` must be unique across live rows.
    Unique { table: String, columns: Vec<String> },
    /// `column` must not be NULL in any live row.
    NotNull { table: String, column: String },
    /// Every non-NULL value of `table.column` must appear in
    /// `ref_table.ref_column` (referential integrity).
    ForeignKey {
        table: String,
        column: String,
        ref_table: String,
        ref_column: String,
    },
    /// Every non-NULL numeric value of `table.column` must lie in
    /// `[min, max]` (inclusive).
    Range {
        table: String,
        column: String,
        min: f64,
        max: f64,
    },
    /// Rows matching `predicate` are violations (e.g. "negative stock").
    Forbidden {
        name: String,
        table: String,
        predicate: Predicate,
    },
}

impl QualityRule {
    /// Convenience constructor for [`QualityRule::Unique`].
    pub fn unique(table: &str, columns: &[&str]) -> Self {
        QualityRule::Unique {
            table: table.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
        }
    }

    /// Convenience constructor for [`QualityRule::NotNull`].
    pub fn not_null(table: &str, column: &str) -> Self {
        QualityRule::NotNull {
            table: table.to_string(),
            column: column.to_string(),
        }
    }

    /// Convenience constructor for [`QualityRule::ForeignKey`].
    pub fn foreign_key(table: &str, column: &str, ref_table: &str, ref_column: &str) -> Self {
        QualityRule::ForeignKey {
            table: table.to_string(),
            column: column.to_string(),
            ref_table: ref_table.to_string(),
            ref_column: ref_column.to_string(),
        }
    }

    /// Convenience constructor for [`QualityRule::Range`].
    pub fn range(table: &str, column: &str, min: f64, max: f64) -> Self {
        QualityRule::Range {
            table: table.to_string(),
            column: column.to_string(),
            min,
            max,
        }
    }

    /// Convenience constructor for [`QualityRule::Forbidden`].
    pub fn forbidden(name: &str, table: &str, predicate: Predicate) -> Self {
        QualityRule::Forbidden {
            name: name.to_string(),
            table: table.to_string(),
            predicate,
        }
    }

    /// A short human-readable name for the rule.
    pub fn name(&self) -> String {
        match self {
            QualityRule::Unique { table, columns } => {
                format!("unique({table}.{})", columns.join(","))
            }
            QualityRule::NotNull { table, column } => format!("not_null({table}.{column})"),
            QualityRule::ForeignKey {
                table,
                column,
                ref_table,
                ref_column,
            } => format!("fk({table}.{column} -> {ref_table}.{ref_column})"),
            QualityRule::Range {
                table,
                column,
                min,
                max,
                ..
            } => format!("range({table}.{column} in [{min}, {max}])"),
            QualityRule::Forbidden { name, table, .. } => format!("forbidden({name} on {table})"),
        }
    }

    /// The application table this rule inspects.
    pub fn table(&self) -> &str {
        match self {
            QualityRule::Unique { table, .. }
            | QualityRule::NotNull { table, .. }
            | QualityRule::ForeignKey { table, .. }
            | QualityRule::Range { table, .. }
            | QualityRule::Forbidden { table, .. } => table,
        }
    }
}

/// One violating row found by a quality rule.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityViolation {
    /// Name of the rule that flagged the row.
    pub rule: String,
    /// Application table containing the row.
    pub table: String,
    /// Primary key of the violating row.
    pub key: Key,
    /// Human-readable description of what is wrong.
    pub detail: String,
}

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
    pub violation: QualityViolation,
    /// Transactions (in commit order) that wrote the violating row. Empty
    /// if the row predates tracing or its provenance was redacted.
    pub culprits: Vec<BlameRecord>,
}

/// Result of running a set of quality rules.
#[derive(Debug, Clone, Default)]
pub struct QualityReport {
    pub violations: Vec<BlamedViolation>,
    /// Rules evaluated.
    pub rules_checked: usize,
}

impl QualityReport {
    /// True if no rule found a violation.
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

    /// Evaluates every rule against the current database state and blames
    /// each violation on the traced transactions that wrote the row.
    pub fn check(&self, rules: &[QualityRule]) -> DbResult<QualityReport> {
        let mut report = QualityReport {
            rules_checked: rules.len(),
            ..QualityReport::default()
        };
        for rule in rules {
            for violation in self.evaluate(rule)? {
                let culprits = self.blame(&violation);
                report.violations.push(BlamedViolation {
                    violation,
                    culprits,
                });
            }
        }
        Ok(report)
    }

    /// Evaluates a single rule, returning its violations without blame.
    pub fn evaluate(&self, rule: &QualityRule) -> DbResult<Vec<QualityViolation>> {
        match rule {
            QualityRule::Unique { table, columns } => self.eval_unique(table, columns),
            QualityRule::NotNull { table, column } => self.eval_not_null(table, column),
            QualityRule::ForeignKey {
                table,
                column,
                ref_table,
                ref_column,
            } => self.eval_foreign_key(table, column, ref_table, ref_column),
            QualityRule::Range {
                table,
                column,
                min,
                max,
            } => self.eval_range(table, column, *min, *max),
            QualityRule::Forbidden {
                name,
                table,
                predicate,
            } => self.eval_forbidden(name, table, predicate),
        }
    }

    /// Finds the traced transactions that wrote the violating row, in
    /// commit order. Works purely from the provenance archive, so it also
    /// finds writers whose effects were later overwritten.
    pub fn blame(&self, violation: &QualityViolation) -> Vec<BlameRecord> {
        let mut out = Vec::new();
        for txn in self.provenance.txns_touching_table(&violation.table) {
            if !txn.committed {
                continue;
            }
            for change in txn.writes.iter() {
                if *change.table == violation.table && change.key == violation.key {
                    out.push(BlameRecord {
                        txn_id: txn.txn_id as i64,
                        req_id: txn.ctx.req_id.clone(),
                        handler: txn.ctx.handler.clone(),
                        timestamp: txn.timestamp,
                        operation: change.op.kind().to_string(),
                    });
                }
            }
        }
        out
    }

    fn eval_unique(&self, table: &str, columns: &[String]) -> DbResult<Vec<QualityViolation>> {
        let schema = self.db.schema_of(table)?;
        let idxs: Vec<usize> = columns
            .iter()
            .filter_map(|c| schema.column_index(c))
            .collect();
        let rows = self.db.scan_latest(table, &Predicate::True)?;
        let mut seen: std::collections::HashMap<String, Key> = std::collections::HashMap::new();
        let mut out = Vec::new();
        for (key, row) in rows {
            let fingerprint = idxs
                .iter()
                .map(|i| format!("{:?}", row.get(*i)))
                .collect::<Vec<_>>()
                .join("|");
            if let Some(first) = seen.get(&fingerprint) {
                out.push(QualityViolation {
                    rule: format!("unique({table}.{})", columns.join(",")),
                    table: table.to_string(),
                    key,
                    detail: format!(
                        "duplicate of row {first} on columns ({})",
                        columns.join(", ")
                    ),
                });
            } else {
                seen.insert(fingerprint, key);
            }
        }
        Ok(out)
    }

    fn eval_not_null(&self, table: &str, column: &str) -> DbResult<Vec<QualityViolation>> {
        let rows = self
            .db
            .scan_latest(table, &Predicate::IsNull(column.to_string()))?;
        Ok(rows
            .into_iter()
            .map(|(key, _)| QualityViolation {
                rule: format!("not_null({table}.{column})"),
                table: table.to_string(),
                key,
                detail: format!("{column} is NULL"),
            })
            .collect())
    }

    fn eval_foreign_key(
        &self,
        table: &str,
        column: &str,
        ref_table: &str,
        ref_column: &str,
    ) -> DbResult<Vec<QualityViolation>> {
        let ref_schema = self.db.schema_of(ref_table)?;
        let ref_idx = ref_schema.column_index(ref_column);
        let referenced: Vec<Value> = self
            .db
            .scan_latest(ref_table, &Predicate::True)?
            .into_iter()
            .filter_map(|(_, row)| ref_idx.and_then(|i| row.get(i).cloned()))
            .collect();

        let schema = self.db.schema_of(table)?;
        let idx = schema.column_index(column);
        let mut out = Vec::new();
        for (key, row) in self.db.scan_latest(table, &Predicate::True)? {
            let Some(value) = idx.and_then(|i| row.get(i)) else {
                continue;
            };
            if value.is_null() {
                continue;
            }
            if !referenced.iter().any(|r| r.sql_eq(value)) {
                out.push(QualityViolation {
                    rule: format!("fk({table}.{column} -> {ref_table}.{ref_column})"),
                    table: table.to_string(),
                    key,
                    detail: format!("{column} = {value} has no match in {ref_table}.{ref_column}"),
                });
            }
        }
        Ok(out)
    }

    fn eval_range(
        &self,
        table: &str,
        column: &str,
        min: f64,
        max: f64,
    ) -> DbResult<Vec<QualityViolation>> {
        let schema = self.db.schema_of(table)?;
        let idx = schema.column_index(column);
        let mut out = Vec::new();
        for (key, row) in self.db.scan_latest(table, &Predicate::True)? {
            let Some(value) = idx.and_then(|i| row.get(i)) else {
                continue;
            };
            let Some(number) = value
                .as_float()
                .or_else(|| value.as_int().map(|i| i as f64))
            else {
                continue;
            };
            if number < min || number > max {
                out.push(QualityViolation {
                    rule: format!("range({table}.{column} in [{min}, {max}])"),
                    table: table.to_string(),
                    key,
                    detail: format!("{column} = {number} outside [{min}, {max}]"),
                });
            }
        }
        Ok(out)
    }

    fn eval_forbidden(
        &self,
        name: &str,
        table: &str,
        predicate: &Predicate,
    ) -> DbResult<Vec<QualityViolation>> {
        let rows = self.db.scan_latest(table, predicate)?;
        Ok(rows
            .into_iter()
            .map(|(key, _)| QualityViolation {
                rule: format!("forbidden({name} on {table})"),
                table: table.to_string(),
                key,
                detail: format!("row matches forbidden predicate {predicate}"),
            })
            .collect())
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
    use trod_db::{row, DataType, Schema};
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
    fn unique_rule_finds_duplicates_and_blames_the_writers() {
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
            .check(&[QualityRule::unique("forum_sub", &["user_id", "forum"])])
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
    fn not_null_and_range_rules() {
        let (db, store, traced) = setup();
        let mut txn = traced.begin_traced(TxnContext::new("R1", "h", "f"));
        txn.insert("forum_sub", row![1i64, "U1", "F2", Value::Null])
            .unwrap();
        txn.insert("inventory", row!["widget", -3i64]).unwrap();
        txn.insert("inventory", row!["gadget", 7i64]).unwrap();
        txn.commit().unwrap();
        flush(&traced, &store);

        let quality = Quality::new(&store, &db);
        let nulls = quality
            .evaluate(&QualityRule::not_null("forum_sub", "note"))
            .unwrap();
        assert_eq!(nulls.len(), 1);

        let ranges = quality
            .evaluate(&QualityRule::range("inventory", "stock", 0.0, 1_000.0))
            .unwrap();
        assert_eq!(ranges.len(), 1);
        assert!(ranges[0].detail.contains("-3"));
    }

    #[test]
    fn foreign_key_rule_detects_dangling_references() {
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
            .check(&[QualityRule::foreign_key(
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
    fn forbidden_rule_and_clean_report() {
        let (db, store, traced) = setup();
        let mut txn = traced.begin_traced(TxnContext::new("R1", "h", "f"));
        txn.insert("inventory", row!["widget", 5i64]).unwrap();
        txn.commit().unwrap();
        flush(&traced, &store);

        let quality = Quality::new(&store, &db);
        let clean = quality
            .check(&[QualityRule::forbidden(
                "negative stock",
                "inventory",
                Predicate::lt("stock", 0i64),
            )])
            .unwrap();
        assert!(clean.is_clean());
        assert_eq!(clean.rules_checked, 1);

        let mut txn = traced.begin_traced(TxnContext::new("R2", "refund", "f"));
        txn.update("inventory", &Key::single("widget"), row!["widget", -1i64])
            .unwrap();
        txn.commit().unwrap();
        flush(&traced, &store);
        let dirty = quality
            .check(&[QualityRule::forbidden(
                "negative stock",
                "inventory",
                Predicate::lt("stock", 0i64),
            )])
            .unwrap();
        assert_eq!(dirty.violations.len(), 1);
        // Blame finds both the original insert and the bad update; the
        // update (R2) is the most recent culprit.
        let culprits = &dirty.violations[0].culprits;
        assert!(culprits
            .iter()
            .any(|c| c.req_id == "R2" && c.operation == "Update"));
    }

    #[test]
    fn rule_names_and_tables() {
        let rule = QualityRule::unique("t", &["a", "b"]);
        assert_eq!(rule.name(), "unique(t.a,b)");
        assert_eq!(rule.table(), "t");
        assert!(QualityRule::range("t", "c", 0.0, 1.0)
            .name()
            .contains("range"));
        assert!(QualityRule::not_null("t", "c").name().contains("not_null"));
        assert!(QualityRule::foreign_key("t", "c", "r", "d")
            .name()
            .contains("fk"));
    }
}
