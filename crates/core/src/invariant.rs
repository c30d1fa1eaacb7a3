//! Rules over database state: one type for the paper's two uses of them.
//!
//! An [`Invariant`] is a named check over a database. Retroactive
//! programming (§4.1) attaches invariants to a re-execution and judges the
//! final state of every explored ordering by them
//! ([`crate::RetroactiveBuilder::invariant`]). Data-quality debugging (§5)
//! runs the same invariants against the application database and blames
//! each violation that names a row on the requests that wrote it
//! ([`crate::Quality::check`]).
//!
//! The constructors cover the case studies' rules: no duplicate rows over
//! a column set, a predicate every row must satisfy (non-null, a range,
//! the negation of a forbidden state), referential integrity and exact row
//! counts; [`Invariant::new`] takes a custom check. A rule that names a
//! table or column the database does not have is an `Err` when checked,
//! never a clean answer and never a list of rows it did not look at.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use trod_db::{Database, DbResult, Key, Predicate, Value};

/// One failure of an [`Invariant`].
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Name of the invariant that failed.
    pub rule: String,
    /// The table the invariant inspects (empty for a custom check).
    pub table: String,
    /// Primary key of the row at fault, when one row is.
    pub key: Option<Key>,
    /// What is wrong.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.rule, self.detail)
    }
}

/// A check's findings: the key of the row at fault, if one is, and what
/// is wrong.
type Findings = DbResult<Vec<(Option<Key>, String)>>;

/// A named predicate over a database state.
#[derive(Clone)]
pub struct Invariant {
    name: String,
    table: String,
    check: Arc<dyn Fn(&Database) -> Findings + Send + Sync>,
}

impl Invariant {
    /// A custom check: each string it returns is one violation, naming no
    /// table and no row.
    pub fn new<F>(name: impl Into<String>, check: F) -> Self
    where
        F: Fn(&Database) -> DbResult<Vec<String>> + Send + Sync + 'static,
    {
        Invariant::over(name.into(), "", move |db| {
            Ok(check(db)?
                .into_iter()
                .map(|detail| (None, detail))
                .collect())
        })
    }

    fn over<F>(name: String, table: &str, check: F) -> Self
    where
        F: Fn(&Database) -> Findings + Send + Sync + 'static,
    {
        Invariant {
            name,
            table: table.to_string(),
            check: Arc::new(check),
        }
    }

    /// The invariant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Evaluates the invariant against `db`'s latest state: it holds iff
    /// the list is empty.
    pub fn check(&self, db: &Database) -> DbResult<Vec<Violation>> {
        let findings = (self.check)(db)?.into_iter();
        Ok(findings
            .map(|(key, detail)| Violation {
                rule: self.name.clone(),
                table: self.table.clone(),
                key,
                detail,
            })
            .collect())
    }

    /// No two live rows of `table` may hold equal cells in `columns` — the
    /// logical uniqueness MDL-59854 and MW-44325 break. Cells compare by
    /// [`Value::total_cmp`]: NULL equals NULL, `Int(1)` equals
    /// `Float(1.0)`, `-0.0` differs from `0.0`. Every row after the first
    /// of its group, in primary-key order, is one violation keyed by that
    /// row.
    pub fn no_duplicates(table: &str, columns: &[&str]) -> Self {
        let t = table.to_string();
        let columns: Vec<String> = columns.iter().map(|c| c.to_string()).collect();
        let list = columns.join(", ");
        let name = format!("no-duplicates({table}: {list})");
        Invariant::over(name, table, move |db| {
            let indices = resolve(db, &t, &columns)?;
            let mut first: BTreeMap<Vec<Value>, Key> = BTreeMap::new();
            let mut out = Vec::new();
            for (key, row) in db.scan_latest(&t, &Predicate::True)? {
                match first.entry(indices.iter().map(|&i| row[i].clone()).collect()) {
                    Entry::Vacant(group) => {
                        group.insert(key);
                    }
                    Entry::Occupied(group) => {
                        let detail = format!("duplicate of row {} on ({list})", group.get());
                        out.push((Some(key), detail));
                    }
                }
            }
            Ok(out)
        })
    }

    /// Every live row of `table` must satisfy `pred`; each row that does
    /// not is one violation. One scan of the negated predicate finds them,
    /// so a column `pred` names that `table` lacks is an `Err`, rows or no
    /// rows. A comparison with NULL is false and cells compare exactly by
    /// [`Value::total_cmp`], so a range that admits NULL says so:
    /// `Predicate::IsNull(c).or(Predicate::ge(c, min).and(Predicate::le(c, max)))`.
    pub fn all_rows_match(table: &str, pred: Predicate) -> Self {
        let t = table.to_string();
        let violating = pred.clone().negate();
        let name = format!("all-rows-match({table}: {pred})");
        Invariant::over(name, table, move |db| {
            let rows = db.scan_latest(&t, &violating)?.into_iter();
            Ok(rows
                .map(|(key, row)| {
                    let detail = format!("row {key} = {row} violates [{pred}]");
                    (Some(key), detail)
                })
                .collect())
        })
    }

    /// Every non-NULL `column` of `table` must equal (by
    /// [`Value::total_cmp`]) some `ref_column` of `ref_table`; each row
    /// whose value has no match is one violation.
    pub fn foreign_key(table: &str, column: &str, ref_table: &str, ref_column: &str) -> Self {
        let (t, c) = (table.to_string(), column.to_string());
        let (rt, rc) = (ref_table.to_string(), ref_column.to_string());
        let name = format!("foreign-key({table}.{column} -> {ref_table}.{ref_column})");
        Invariant::over(name, table, move |db| {
            let i = resolve(db, &t, std::slice::from_ref(&c))?[0];
            let r = resolve(db, &rt, std::slice::from_ref(&rc))?[0];
            let referenced: BTreeSet<Value> = (db.scan_latest(&rt, &Predicate::True)?.iter())
                .map(|(_, row)| row[r].clone())
                .collect();
            let rows = db.scan_latest(&t, &Predicate::IsNotNull(c.clone()))?;
            Ok(rows
                .into_iter()
                .filter(|(_, row)| !referenced.contains(&row[i]))
                .map(|(key, row)| {
                    let detail = format!("{c} = {} has no match in {rt}.{rc}", row[i]);
                    (Some(key), detail)
                })
                .collect())
        })
    }

    /// The number of live rows of `table` matching `pred` must equal
    /// `expected`; a mismatch is one violation naming no row.
    pub fn row_count(table: &str, pred: Predicate, expected: usize) -> Self {
        let t = table.to_string();
        Invariant::over(format!("row-count({table})"), table, move |db| {
            let found = db.scan_latest(&t, &pred)?.len();
            let detail = format!("expected {expected} rows matching [{pred}], found {found}");
            Ok(if found == expected {
                Vec::new()
            } else {
                vec![(None, detail)]
            })
        })
    }
}

/// The positions of `columns` in `table`'s schema; an unknown one is an
/// `Err`.
fn resolve(db: &Database, table: &str, columns: &[String]) -> DbResult<Vec<usize>> {
    let schema = db.schema_of(table)?;
    (columns.iter()).map(|c| schema.resolve(table, c)).collect()
}

impl fmt::Debug for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Invariant")
            .field("name", &self.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use trod_db::{row, DataType, DbError, Row, Schema};

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

    fn keys(violations: &[Violation]) -> Vec<Option<Key>> {
        violations.iter().map(|v| v.key.clone()).collect()
    }

    /// The `table.column` an unknown-column error names.
    fn no_such_column(result: DbResult<Vec<Violation>>) -> String {
        match result {
            Err(DbError::NoSuchColumn { table, column }) => format!("{table}.{column}"),
            other => panic!("expected an unknown column, got {other:?}"),
        }
    }

    #[test]
    fn no_duplicates_detects_logical_duplicates() {
        let db = subs_db();
        let inv = Invariant::no_duplicates("forum_sub", &["user_id", "forum"]);
        assert!(inv.check(&db).unwrap().is_empty());

        let mut txn = db.begin();
        txn.insert("forum_sub", row![1i64, "U1", "F2"]).unwrap();
        txn.insert("forum_sub", row![2i64, "U1", "F2"]).unwrap();
        txn.insert("forum_sub", row![3i64, "U2", "F2"]).unwrap();
        txn.insert("forum_sub", row![4i64, "U1", "F2"]).unwrap();
        txn.commit().unwrap();

        let violations = inv.check(&db).unwrap();
        assert_eq!(
            keys(&violations),
            vec![Some(Key::single(2i64)), Some(Key::single(4i64))]
        );
        assert_eq!(violations[0].table, "forum_sub");
        assert_eq!(
            violations[0].to_string(),
            "[no-duplicates(forum_sub: user_id, forum)] duplicate of row [1] on (user_id, forum)"
        );
    }

    #[test]
    fn row_count_and_all_rows_match() {
        let db = subs_db();
        let mut txn = db.begin();
        txn.insert("forum_sub", row![1i64, "U1", "F1"]).unwrap();
        txn.commit().unwrap();

        let count = |n| Invariant::row_count("forum_sub", Predicate::True, n);
        assert!(count(1).check(&db).unwrap().is_empty());
        assert_eq!(keys(&count(3).check(&db).unwrap()), vec![None]);
        let matching = |f| Invariant::all_rows_match("forum_sub", Predicate::eq("forum", f));
        assert!(matching("F1").check(&db).unwrap().is_empty());
        assert_eq!(
            keys(&matching("F9").check(&db).unwrap()),
            vec![Some(Key::single(1i64))]
        );
    }

    #[test]
    fn custom_checks_name_no_row() {
        let db = subs_db();
        let inv = Invariant::new("always", |_| Ok(vec!["broken".to_string()]));
        let violations = inv.check(&db).unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(
            (violations[0].key.clone(), violations[0].table.as_str()),
            (None, "")
        );
        assert_eq!(violations[0].to_string(), "[always] broken");
    }

    /// `t(id, user_id, forum, n)` and `r(k, v)`, with a duplicate pair
    /// (U1, F1), a row at 2^53 + 1 and a dangling reference.
    fn probe_db() -> Database {
        let db = Database::new();
        let t = Schema::builder()
            .column("id", DataType::Int)
            .column("user_id", DataType::Text)
            .column("forum", DataType::Text)
            .column("n", DataType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap();
        let r = Schema::builder()
            .column("k", DataType::Int)
            .column("v", DataType::Text)
            .primary_key(&["k"])
            .build()
            .unwrap();
        db.create_table("t", t).unwrap();
        db.create_table("r", r).unwrap();
        let mut txn = db.begin();
        txn.insert("t", row![1i64, "U1", "F1", 1i64]).unwrap();
        txn.insert("t", row![2i64, "U1", "F2", (1i64 << 53) + 1])
            .unwrap();
        txn.insert("t", row![3i64, "U1", "F1", 2i64]).unwrap();
        txn.insert("r", row![1i64, "F1"]).unwrap();
        txn.commit().unwrap();
        db
    }

    #[test]
    fn a_misspelled_unique_column_is_an_error() {
        let db = probe_db();
        let inv = Invariant::no_duplicates("t", &["user_id", "typo"]);
        assert_eq!(no_such_column(inv.check(&db)), "t.typo");
    }

    #[test]
    fn a_misspelled_range_or_foreign_key_column_is_an_error() {
        let db = probe_db();
        let range = Predicate::ge("typo", 0i64).and(Predicate::le("typo", 10i64));
        let inv = Invariant::all_rows_match("t", range);
        assert_eq!(no_such_column(inv.check(&db)), "t.typo");
        let inv = Invariant::foreign_key("t", "typo", "r", "v");
        assert_eq!(no_such_column(inv.check(&db)), "t.typo");
    }

    #[test]
    fn a_misspelled_referenced_column_is_an_error() {
        let db = probe_db();
        let inv = Invariant::foreign_key("t", "forum", "r", "typo");
        assert_eq!(no_such_column(inv.check(&db)), "r.typo");
        // Spelled right, only the dangling F2 row is flagged.
        let inv = Invariant::foreign_key("t", "forum", "r", "v");
        assert_eq!(
            keys(&inv.check(&db).unwrap()),
            vec![Some(Key::single(2i64))]
        );
    }

    #[test]
    fn a_range_compares_integers_above_2_pow_53_exactly() {
        let db = probe_db();
        for max in [Value::Int(1 << 53), Value::Float(2f64.powi(53))] {
            let range = Predicate::ge("n", 0i64).and(Predicate::le("n", max.clone()));
            let violations = Invariant::all_rows_match("t", range).check(&db).unwrap();
            assert_eq!(
                keys(&violations),
                vec![Some(Key::single(2i64))],
                "max {max:?}"
            );
            assert!(violations[0].detail.contains("9007199254740993"));
        }
    }

    #[test]
    fn unknown_tables_are_errors() {
        let db = probe_db();
        for inv in [
            Invariant::no_duplicates("missing", &["a"]),
            Invariant::all_rows_match("missing", Predicate::True),
            Invariant::foreign_key("missing", "a", "r", "v"),
            Invariant::foreign_key("t", "forum", "missing", "v"),
            Invariant::row_count("missing", Predicate::True, 0),
        ] {
            assert!(
                matches!(inv.check(&db), Err(DbError::NoSuchTable(_))),
                "{inv:?}"
            );
        }
    }

    // The property: random small tables against naive oracles.

    const BIG: i64 = 1 << 53;

    /// Cells of `t.a` and `r.v` (nullable INT): NULL, zero, ±2^53 and
    /// their neighbours, and TIMESTAMPs equal to two of them.
    fn int_cell(i: u64) -> Value {
        [
            Value::Null,
            Value::Int(0),
            Value::Int(1),
            Value::Int(BIG),
            Value::Int(BIG + 1),
            Value::Int(-BIG),
            Value::Int(-BIG - 1),
            Value::Timestamp(1),
            Value::Timestamp(BIG + 1),
        ][i as usize % 9]
            .clone()
    }

    /// Cells of `t.b` and `r.w` (nullable FLOAT): NULL, ±0.0, NaN, 1.0
    /// and the floats around 2^53.
    fn float_cell(i: u64) -> Value {
        [
            Value::Null,
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(1.0),
            Value::Float(BIG as f64),
            Value::Float((BIG + 2) as f64),
            Value::Float(-(BIG as f64)),
        ][i as usize % 8]
            .clone()
    }

    /// Range bounds, Int and Float on either side of the cells above.
    fn bound(i: u64) -> Value {
        [
            Value::Int(0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Int(BIG),
            Value::Float(BIG as f64),
            Value::Int(-BIG),
            Value::Float(1.5),
        ][i as usize % 7]
            .clone()
    }

    /// `t(id, a, b)` and `r(k, v, w)` holding `rows` and `refs`, inserted
    /// in descending key order so insertion order is not key order.
    fn table_db(rows: &BTreeMap<i64, (u64, u64)>, refs: &BTreeMap<i64, (u64, u64)>) -> Database {
        let db = Database::new();
        for (table, pk, a, b) in [("t", "id", "a", "b"), ("r", "k", "v", "w")] {
            let schema = Schema::builder()
                .column(pk, DataType::Int)
                .nullable(a, DataType::Int)
                .nullable(b, DataType::Float)
                .primary_key(&[pk])
                .build()
                .unwrap();
            db.create_table(table, schema).unwrap();
        }
        let mut txn = db.begin();
        for (table, cells) in [("t", rows), ("r", refs)] {
            for (&id, &(a, b)) in cells.iter().rev() {
                let row = Row::from(vec![Value::Int(id), int_cell(a), float_cell(b)]);
                txn.insert(table, row).unwrap();
            }
        }
        txn.commit().unwrap();
        db
    }

    /// Rows as `(key, [a, b])` in key order.
    type Cells = Vec<(Key, [Value; 2])>;

    fn cells(rows: &BTreeMap<i64, (u64, u64)>) -> Cells {
        (rows.iter())
            .map(|(&id, &(a, b))| (Key::single(id), [int_cell(a), float_cell(b)]))
            .collect()
    }

    fn same(x: &Value, y: &Value) -> bool {
        x.total_cmp(y).is_eq()
    }

    /// Rows whose cells in `cols` equal an earlier row's.
    fn naive_duplicates(rows: &Cells, cols: &[usize]) -> Vec<Option<Key>> {
        (0..rows.len())
            .filter(|&n| {
                let earlier = |m: &usize| cols.iter().all(|&c| same(&rows[*m].1[c], &rows[n].1[c]));
                (0..n).any(|m| earlier(&m))
            })
            .map(|n| Some(rows[n].0.clone()))
            .collect()
    }

    /// Rows for which `ok` is false.
    fn naive_failing(rows: &Cells, ok: impl Fn(&[Value; 2]) -> bool) -> Vec<Option<Key>> {
        (rows.iter())
            .filter(|(_, cells)| !ok(cells))
            .map(|(key, _)| Some(key.clone()))
            .collect()
    }

    fn violation_keys(db: &Database, inv: &Invariant) -> Vec<Option<Key>> {
        keys(&inv.check(db).unwrap())
    }

    proptest! {
        /// Every constructor's violation keys equal a naive oracle's over
        /// random small tables of NULLs, ±0.0, NaN and integers around
        /// ±2^53 with composite duplicate groups; a misspelled column is
        /// an `Err` from every constructor, rows or no rows.
        #[test]
        fn invariants_agree_with_naive_oracles(
            rows in prop::collection::btree_map(-8i64..8, (0u64..9, 0u64..8), 0..12),
            refs in prop::collection::btree_map(-8i64..8, (0u64..9, 0u64..8), 0..6),
            bounds in (0u64..7, 0u64..7),
            expected in 0usize..4,
        ) {
            let db = table_db(&rows, &refs);
            let (t, r) = (cells(&rows), cells(&refs));

            for cols in [&["a"][..], &["b"], &["a", "b"], &["b", "a"]] {
                let idx: Vec<usize> = cols.iter().map(|c| usize::from(*c == "b")).collect();
                let inv = Invariant::no_duplicates("t", cols);
                prop_assert_eq!(violation_keys(&db, &inv), naive_duplicates(&t, &idx), "{:?}", cols);
            }

            let (min, max) = (bound(bounds.0), bound(bounds.1));
            for (c, col) in [(0, "a"), (1, "b")] {
                let range = Predicate::ge(col, min.clone()).and(Predicate::le(col, max.clone()));
                let inv = Invariant::all_rows_match("t", range);
                let within = |v: &[Value; 2]| {
                    !v[c].is_null() && v[c].total_cmp(&min).is_ge() && v[c].total_cmp(&max).is_le()
                };
                prop_assert_eq!(violation_keys(&db, &inv), naive_failing(&t, within), "{} in [{}, {}]", col, &min, &max);

                let inv = Invariant::all_rows_match("t", Predicate::IsNotNull(col.into()));
                prop_assert_eq!(violation_keys(&db, &inv), naive_failing(&t, |v| !v[c].is_null()));

                // A forbidden state: `col < min` must match no row.
                let inv = Invariant::all_rows_match("t", Predicate::lt(col, min.clone()).negate());
                let allowed = |v: &[Value; 2]| v[c].is_null() || !v[c].total_cmp(&min).is_lt();
                prop_assert_eq!(violation_keys(&db, &inv), naive_failing(&t, allowed));
            }

            for (c, col) in [(0, "a"), (1, "b")] {
                for (rc, ref_col) in [(0, "v"), (1, "w")] {
                    let inv = Invariant::foreign_key("t", col, "r", ref_col);
                    let referenced = |v: &[Value; 2]| {
                        v[c].is_null() || r.iter().any(|(_, w)| !w[rc].is_null() && same(&w[rc], &v[c]))
                    };
                    prop_assert_eq!(violation_keys(&db, &inv), naive_failing(&t, referenced), "{} -> {}", col, ref_col);
                }
            }

            let inv = Invariant::row_count("t", Predicate::IsNull("a".into()), expected);
            let nulls = t.iter().filter(|(_, v)| v[0].is_null()).count();
            let want = if nulls == expected { vec![] } else { vec![None] };
            prop_assert_eq!(violation_keys(&db, &inv), want);

            let misspelled = [
                (Invariant::no_duplicates("t", &["a", "typo"]), "t.typo"),
                (Invariant::all_rows_match("t", Predicate::ge("typo", min.clone())), "t.typo"),
                (Invariant::all_rows_match("t", Predicate::IsNull("a".into()).or(Predicate::IsNull("typo".into()))), "t.typo"),
                (Invariant::foreign_key("t", "typo", "r", "v"), "t.typo"),
                (Invariant::foreign_key("t", "a", "r", "typo"), "r.typo"),
                (Invariant::row_count("t", Predicate::eq("typo", 1i64), expected), "t.typo"),
            ];
            for (inv, want) in &misspelled {
                prop_assert_eq!(no_such_column(inv.check(&db)), *want);
                prop_assert_eq!(no_such_column(inv.check(&table_db(&BTreeMap::new(), &BTreeMap::new()))), *want);
            }
        }
    }
}
