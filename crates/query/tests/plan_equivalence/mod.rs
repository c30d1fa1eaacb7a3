//! Plan equivalence: whatever order the planner loads tables in and
//! whatever join keys it pushes into their scans, a statement returns
//! exactly what loading the tables in FROM order with only their own
//! conjuncts pushed down returns — same columns, same rows, same row
//! order. The fixed-order loader (`exec::execute_in_from_order`) is the
//! oracle here the way `TableStore::scan_at_full` is for scan paths; it
//! exists only under `#[cfg(test)]`, so this file is compiled into the
//! crate's unit tests (see the `mod` declaration in `src/lib.rs`) rather
//! than as an integration test of its own — cargo does not treat a
//! directory with a `mod.rs` as a test target.
//!
//! Generated databases have three tables that share column names (`id`,
//! `k`, `tag` occur in more than one), differ in size several-fold (so
//! load order and FROM order disagree), carry NULL and
//! duplicate join keys, join an `INT` key to a `FLOAT` column, and are
//! written over several commits with updates and deletes so `as_of`
//! reads see different states. Statements are two- and three-table
//! joins in every FROM order with qualified and unqualified references,
//! `SELECT *`, aggregates, `ORDER BY`/`LIMIT`.

use proptest::prelude::*;
use trod_db::{row, DataType, Database, Key, Schema, Ts, Value};

use crate::exec::{execute, execute_in_from_order, QueryOptions};

/// A cursor over generated numbers: every choice below draws from it.
struct Picks {
    draws: Vec<u32>,
    next: usize,
}

impl Picks {
    fn below(&mut self, n: usize) -> usize {
        let draw = self.draws[self.next % self.draws.len()];
        self.next += 1;
        draw as usize % n
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }

    fn one_of<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len())]
    }
}

/// `a` is the big table (key space 40), `b` the small one (6) whose `k`
/// is a FLOAT, `c` has a composite key and an index on `k`.
fn create_tables(db: &Database) {
    let a = Schema::builder()
        .column("id", DataType::Int)
        .nullable("k", DataType::Int)
        .nullable("v", DataType::Int)
        .column("tag", DataType::Text)
        .primary_key(&["id"])
        .build()
        .unwrap();
    let b = Schema::builder()
        .column("id", DataType::Int)
        .nullable("k", DataType::Float)
        .column("tag", DataType::Text)
        .primary_key(&["id"])
        .build()
        .unwrap();
    let c = Schema::builder()
        .column("x", DataType::Int)
        .column("y", DataType::Int)
        .nullable("k", DataType::Int)
        .column("w", DataType::Int)
        .primary_key(&["x", "y"])
        .build()
        .unwrap();
    db.create_table("a", a).unwrap();
    db.create_table("b", b).unwrap();
    db.create_table("c", c).unwrap();
    db.create_index("c", "k").unwrap();
    db.create_index("a", "k").unwrap();
}

fn nullable_int(picks: &mut Picks, space: usize) -> Value {
    if picks.chance(6) {
        Value::Null
    } else {
        Value::Int(picks.below(space) as i64)
    }
}

/// Applies `commits` generated commits of upserts and deletes; returns
/// the timestamps published along the way.
fn populate(db: &Database, picks: &mut Picks, commits: usize) -> Vec<Ts> {
    let mut stamps = Vec::new();
    for _ in 0..commits {
        let mut txn = db.begin();
        for _ in 0..1 + picks.below(24) {
            let tag = picks.one_of(&["red", "green", "blue"]);
            // Half of all writes go to the big table.
            let (table, key, new_row) = match picks.below(4) {
                0 | 1 => {
                    let id = picks.below(40) as i64;
                    let (k, v) = (nullable_int(picks, 6), nullable_int(picks, 10));
                    ("a", Key::single(id), row![id, k, v, tag])
                }
                2 => {
                    let id = picks.below(6) as i64;
                    // Mostly integral, so it equi-joins with INT columns.
                    let k = match picks.below(8) {
                        0 => Value::Null,
                        1 => Value::Float(picks.below(6) as f64 + 0.5),
                        _ => Value::Float(picks.below(40) as f64),
                    };
                    ("b", Key::single(id), row![id, k, tag])
                }
                _ => {
                    let (x, y) = (picks.below(4) as i64, picks.below(4) as i64);
                    let (k, w) = (nullable_int(picks, 6), picks.below(10) as i64);
                    ("c", Key::new(vec![x.into(), y.into()]), row![x, y, k, w])
                }
            };
            let exists = txn.get(table, &key).unwrap().is_some();
            if exists && picks.chance(3) {
                txn.delete(table, &key).unwrap();
            } else if exists {
                txn.update(table, &key, new_row).unwrap();
            } else {
                txn.insert(table, new_row).unwrap();
            }
        }
        txn.commit().unwrap();
        stamps.push(db.current_ts());
    }
    stamps
}

/// Columns of each table, for building references that resolve.
fn columns_of(table: &str) -> &'static [&'static str] {
    match table {
        "a" => &["id", "k", "v", "tag"],
        "b" => &["id", "k", "tag"],
        _ => &["x", "y", "k", "w"],
    }
}

/// A reference to a column of one of the statement's tables: qualified
/// by the table's binding name, or — one time in three — left
/// unqualified, to bind wherever FROM order says.
fn column_ref(picks: &mut Picks, tables: &[(&str, String)]) -> String {
    let (table, binding) = &tables[picks.below(tables.len())];
    let column = picks.one_of(columns_of(table));
    if picks.chance(3) {
        column.to_string()
    } else {
        format!("{binding}.{column}")
    }
}

fn filter(picks: &mut Picks, tables: &[(&str, String)]) -> String {
    let col = column_ref(picks, tables);
    let n = picks.below(8);
    match picks.below(9) {
        0 => format!("{col} = {n}"),
        1 => format!("{col} < {n}"),
        2 => format!("{n} <= {col}"),
        3 => format!("{col} IN ({n}, {}, 2.0)", picks.below(40)),
        4 => format!("{col} IS NULL"),
        5 => format!("{col} IS NOT NULL"),
        6 => format!("{col} = '{}'", picks.one_of(&["red", "green", "blue"])),
        // Conjuncts no scan can take: two columns, possibly two tables.
        7 => format!("{col} < {}", column_ref(picks, tables)),
        _ => format!("({col} = {n} OR {} = {n})", column_ref(picks, tables)),
    }
}

/// An equi-join conjunct between two of the statement's tables; keys
/// are chosen so that primary keys, an indexed column, a FLOAT column
/// and plain columns all end up on either side.
fn join_conjunct(picks: &mut Picks, left: &(&str, String), right: &(&str, String)) -> String {
    let key = |picks: &mut Picks, (table, binding): &(&str, String)| {
        let column = match *table {
            "c" => picks.one_of(&["x", "y", "k", "k"]),
            _ => picks.one_of(&["id", "id", "k"]),
        };
        // `x`, `y` are unique to `c`; leave them unqualified sometimes.
        if *table == "c" && column != "k" && picks.chance(2) {
            column.to_string()
        } else {
            format!("{binding}.{column}")
        }
    };
    format!("{} = {}", key(picks, left), key(picks, right))
}

fn statement(picks: &mut Picks) -> String {
    // Two or three distinct tables in a generated FROM order, some
    // aliased.
    let mut names = vec!["a", "b", "c"];
    let mut tables: Vec<(&str, String)> = Vec::new();
    for _ in 0..2 + picks.below(2) {
        let name = names.remove(picks.below(names.len()));
        let binding = if picks.chance(3) {
            format!("t{}", tables.len())
        } else {
            name.to_string()
        };
        tables.push((name, binding));
    }

    let mut conjuncts = Vec::new();
    for pair in tables.windows(2) {
        // One pair in eight is left a cross product.
        if !picks.chance(8) {
            conjuncts.push(join_conjunct(picks, &pair[0], &pair[1]));
        }
    }
    if tables.len() == 3 && picks.chance(2) {
        conjuncts.push(join_conjunct(picks, &tables[0], &tables[2]));
    }
    for _ in 0..picks.below(3) {
        conjuncts.push(filter(picks, &tables));
    }

    let grouped = picks.chance(4);
    let items = match picks.below(if grouped { 1 } else { 4 }) {
        0 if grouped => format!(
            "tag, COUNT(*) AS n, SUM({}) AS s",
            column_ref(picks, &tables)
        ),
        0 => format!(
            "COUNT(*), MIN({}), MAX({})",
            column_ref(picks, &tables),
            column_ref(picks, &tables)
        ),
        1 => "*".to_string(),
        _ => (0..1 + picks.below(3))
            .map(|_| column_ref(picks, &tables))
            .collect::<Vec<_>>()
            .join(", "),
    };

    let from = |(name, binding): &(&str, String)| {
        if *name == binding.as_str() {
            name.to_string()
        } else {
            format!("{name} AS {binding}")
        }
    };
    let mut sql = format!("SELECT {items} FROM {}", from(&tables[0]));
    // Comma joins carry every conjunct in WHERE (or one trailing ON);
    // JOIN syntax puts the first conjunct of each pair in its ON.
    if picks.chance(2) {
        for table in &tables[1..] {
            sql.push_str(&format!(", {}", from(table)));
        }
        if !conjuncts.is_empty() {
            let clause = picks.one_of(&["ON", "WHERE"]);
            sql.push_str(&format!(" {clause} {}", conjuncts.join(" AND ")));
        }
    } else {
        for table in &tables[1..] {
            let on = if conjuncts.is_empty() {
                "1 = 1".to_string()
            } else {
                conjuncts.remove(0)
            };
            sql.push_str(&format!(" JOIN {} ON {on}", from(table)));
        }
        if !conjuncts.is_empty() {
            sql.push_str(&format!(" WHERE {}", conjuncts.join(" AND ")));
        }
    }
    if grouped {
        sql.push_str(" GROUP BY tag");
        if picks.chance(2) {
            sql.push_str(" ORDER BY n DESC");
        }
    } else if !items.starts_with("COUNT") && picks.chance(2) {
        let direction = picks.one_of(&["", " DESC"]);
        sql.push_str(&format!(
            " ORDER BY {}{direction}",
            column_ref(picks, &tables)
        ));
    }
    if picks.chance(3) {
        sql.push_str(&format!(" LIMIT {}", picks.below(6)));
    }
    sql
}

proptest! {
    // `PROPTEST_CASES`, when set, replaces the default count: CI runs
    // this oracle at more cases than the rest of the suite.
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(192)
    ))]

    #[test]
    fn planned_statements_return_what_from_order_loading_returns(
        draws in prop::collection::vec(0u32..1_000_000, 2048),
    ) {
        let mut picks = Picks { draws, next: 0 };
        let db = Database::new();
        create_tables(&db);
        let stamps = populate(&db, &mut picks, 12);
        for _ in 0..24 {
            let sql = statement(&mut picks);
            let as_of = if picks.chance(2) {
                None
            } else {
                Some(stamps[picks.below(stamps.len())])
            };
            let stmt = crate::parse(&sql)?;
            let opts = QueryOptions { as_of };
            let planned = execute(&db, &stmt, opts);
            let oracle = execute_in_from_order(&db, &stmt, opts);
            // Debug form: `Int(1)` and `Float(1.0)` compare equal.
            prop_assert_eq!(
                format!("{planned:?}"),
                format!("{oracle:?}"),
                "{} as of {:?}",
                sql,
                as_of
            );
        }
    }
}
