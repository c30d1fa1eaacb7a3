//! Application-level invariants used to judge retroactive re-executions.
//!
//! Retroactive programming answers "does the patch actually fix the bug,
//! under every relevant interleaving?" To answer it mechanically, callers
//! attach invariants — predicates over the final database state — to a
//! retroactive run. This module ships the invariants the paper's case
//! studies need (no duplicate rows over a column set, exact row counts)
//! plus a composable [`Invariant`] type for custom checks.

use std::collections::BTreeMap;
use std::sync::Arc;

use trod_db::{Database, Predicate, Value};

/// The boxed check function an [`Invariant`] runs against a database.
pub type InvariantCheck = Arc<dyn Fn(&Database) -> Vec<String> + Send + Sync>;

/// A named predicate over a database state. Returns a list of
/// human-readable violation descriptions (empty = invariant holds).
#[derive(Clone)]
pub struct Invariant {
    name: String,
    check: InvariantCheck,
}

impl Invariant {
    /// Creates an invariant from a closure.
    pub fn new<F>(name: impl Into<String>, check: F) -> Self
    where
        F: Fn(&Database) -> Vec<String> + Send + Sync + 'static,
    {
        Invariant {
            name: name.into(),
            check: Arc::new(check),
        }
    }

    /// The invariant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Evaluates the invariant.
    pub fn check(&self, db: &Database) -> Vec<String> {
        (self.check)(db)
            .into_iter()
            .map(|v| format!("[{}] {v}", self.name))
            .collect()
    }

    /// No two live rows of `table` may share the same values in `columns`
    /// (logical uniqueness — the invariant MDL-59854 and MW-44325 break).
    /// Violations come in the order of the shared values.
    pub fn no_duplicates(table: &str, columns: &[&str]) -> Self {
        let table = table.to_string();
        let columns: Vec<String> = columns.iter().map(|c| c.to_string()).collect();
        Invariant::new(format!("no-duplicates({table})"), move |db| {
            let schema = match db.schema_of(&table) {
                Ok(s) => s,
                Err(e) => return vec![format!("cannot check `{table}`: {e}")],
            };
            let indices: Vec<usize> = match columns
                .iter()
                .map(|c| schema.column_index(c))
                .collect::<Option<Vec<_>>>()
            {
                Some(idx) => idx,
                None => return vec![format!("unknown column in {columns:?} for `{table}`")],
            };
            let rows = match db.scan_latest(&table, &Predicate::True) {
                Ok(rows) => rows,
                Err(e) => return vec![format!("cannot scan `{table}`: {e}")],
            };
            let mut groups: BTreeMap<Vec<Value>, usize> = BTreeMap::new();
            for (_, row) in &rows {
                let key: Vec<Value> = indices.iter().map(|&i| row[i].clone()).collect();
                *groups.entry(key).or_insert(0) += 1;
            }
            groups
                .into_iter()
                .filter(|(_, count)| *count > 1)
                .map(|(key, count)| {
                    let rendered: Vec<String> = key.iter().map(|v| v.to_string()).collect();
                    format!(
                        "{count} rows in `{table}` share ({}) = ({})",
                        columns.join(", "),
                        rendered.join(", ")
                    )
                })
                .collect()
        })
    }

    /// The number of live rows of `table` matching `pred` must equal
    /// `expected`.
    pub fn row_count(table: &str, pred: Predicate, expected: usize) -> Self {
        let table = table.to_string();
        Invariant::new(format!("row-count({table})"), move |db| {
            match db.scan_latest(&table, &pred) {
                Ok(rows) if rows.len() == expected => Vec::new(),
                Ok(rows) => vec![format!(
                    "expected {expected} rows matching [{pred}] in `{table}`, found {}",
                    rows.len()
                )],
                Err(e) => vec![format!("cannot scan `{table}`: {e}")],
            }
        })
    }

    /// Every live row of `table` must satisfy `pred`.
    pub fn all_rows_match(table: &str, pred: Predicate) -> Self {
        let table = table.to_string();
        Invariant::new(format!("all-rows-match({table})"), move |db| {
            let schema = match db.schema_of(&table) {
                Ok(s) => s,
                Err(e) => return vec![format!("cannot check `{table}`: {e}")],
            };
            let rows = match db.scan_latest(&table, &Predicate::True) {
                Ok(rows) => rows,
                Err(e) => return vec![format!("cannot scan `{table}`: {e}")],
            };
            rows.iter()
                .filter_map(|(key, row)| match pred.matches(&schema, row) {
                    Ok(true) => None,
                    Ok(false) => Some(format!("row {key} = {row} violates [{pred}]")),
                    Err(e) => Some(format!("cannot evaluate [{pred}] on {key}: {e}")),
                })
                .collect()
        })
    }
}

impl std::fmt::Debug for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Invariant")
            .field("name", &self.name)
            .finish()
    }
}

/// Evaluates a set of invariants, concatenating their violations.
pub fn check_all(db: &Database, invariants: &[Invariant]) -> Vec<String> {
    invariants.iter().flat_map(|i| i.check(db)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trod_db::{row, DataType, Schema};

    fn subs_db() -> Database {
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

    #[test]
    fn no_duplicates_detects_logical_duplicates() {
        let db = subs_db();
        let inv = Invariant::no_duplicates("forum_sub", &["user_id", "forum"]);
        assert!(inv.check(&db).is_empty());

        let mut txn = db.begin();
        txn.insert("forum_sub", row![1i64, "U1", "F2"]).unwrap();
        txn.insert("forum_sub", row![2i64, "U1", "F2"]).unwrap();
        txn.insert("forum_sub", row![3i64, "U2", "F2"]).unwrap();
        txn.commit().unwrap();

        let violations = inv.check(&db);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("U1"));
        assert!(violations[0].contains("no-duplicates"));
    }

    #[test]
    fn row_count_and_all_rows_match() {
        let db = subs_db();
        let mut txn = db.begin();
        txn.insert("forum_sub", row![1i64, "U1", "F1"]).unwrap();
        txn.commit().unwrap();

        assert!(Invariant::row_count("forum_sub", Predicate::True, 1)
            .check(&db)
            .is_empty());
        assert_eq!(
            Invariant::row_count("forum_sub", Predicate::True, 3)
                .check(&db)
                .len(),
            1
        );
        assert!(
            Invariant::all_rows_match("forum_sub", Predicate::eq("forum", "F1"))
                .check(&db)
                .is_empty()
        );
        assert_eq!(
            Invariant::all_rows_match("forum_sub", Predicate::eq("forum", "F9"))
                .check(&db)
                .len(),
            1
        );
    }

    #[test]
    fn check_all_concatenates_and_bad_configs_report_not_panic() {
        let db = subs_db();
        let invariants = vec![
            Invariant::no_duplicates("missing_table", &["a"]),
            Invariant::no_duplicates("forum_sub", &["not_a_column"]),
            Invariant::row_count("forum_sub", Predicate::True, 0),
        ];
        let violations = check_all(&db, &invariants);
        assert_eq!(violations.len(), 2);
    }
}
