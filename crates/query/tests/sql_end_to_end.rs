//! End-to-end SQL tests over real trod-db tables, including the literal
//! queries printed in the TROD paper (§3.3 and §4.2).

use proptest::prelude::*;
use trod_db::{row, DataType, Database, Schema, Value};
use trod_query::{QueryEngine, QueryError};

/// Builds the provenance-shaped tables of the paper's running example
/// (Table 1 "Executions" and Table 2 "ForumEvents") with the exact rows
/// shown in the paper.
fn paper_tables() -> QueryEngine {
    let db = Database::new();
    db.create_table(
        "Executions",
        Schema::builder()
            .column("TxnId", DataType::Int)
            .column("Timestamp", DataType::Int)
            .column("HandlerName", DataType::Text)
            .column("ReqId", DataType::Text)
            .column("Metadata", DataType::Text)
            .primary_key(&["TxnId"])
            .build()
            .unwrap(),
    )
    .unwrap();
    db.create_table(
        "ForumEvents",
        Schema::builder()
            .column("EventId", DataType::Int)
            .column("TxnId", DataType::Int)
            .column("Type", DataType::Text)
            .column("Query", DataType::Text)
            .nullable("UserId", DataType::Text)
            .nullable("Forum", DataType::Text)
            .primary_key(&["EventId"])
            .build()
            .unwrap(),
    )
    .unwrap();

    let mut txn = db.begin();
    // Table 1 rows.
    for (txn_id, ts, handler, req, meta) in [
        (1i64, 1i64, "subscribeUser", "R1", "func:isSubscribed"),
        (2, 2, "subscribeUser", "R2", "func:isSubscribed"),
        (3, 3, "subscribeUser", "R2", "func:DB.insert"),
        (4, 4, "subscribeUser", "R1", "func:DB.insert"),
        (9, 9, "fetchSubscribers", "R3", "func:DB.executeQuery"),
    ] {
        txn.insert("Executions", row![txn_id, ts, handler, req, meta])
            .unwrap();
    }
    // Table 2 rows.
    for (event, txn_id, typ, query, user, forum) in [
        (
            1i64,
            1i64,
            "Read",
            "Check if (U1, F2) exists",
            Value::Null,
            Value::Null,
        ),
        (
            2,
            2,
            "Read",
            "Check if (U1, F2) exists",
            Value::Null,
            Value::Null,
        ),
        (
            3,
            3,
            "Insert",
            "Insert (U1, F2)",
            Value::from("U1"),
            Value::from("F2"),
        ),
        (
            4,
            4,
            "Insert",
            "Insert (U1, F2)",
            Value::from("U1"),
            Value::from("F2"),
        ),
        (
            5,
            9,
            "Read",
            "Select UserId for F2",
            Value::from("U1"),
            Value::from("F2"),
        ),
        (
            6,
            9,
            "Read",
            "Select UserId for F2",
            Value::from("U1"),
            Value::from("F2"),
        ),
    ] {
        txn.insert("ForumEvents", row![event, txn_id, typ, query, user, forum])
            .unwrap();
    }
    txn.commit().unwrap();
    QueryEngine::new(db)
}

#[test]
fn papers_declarative_debugging_query_finds_the_two_buggy_requests() {
    let engine = paper_tables();
    let sql = "SELECT Timestamp, ReqId, HandlerName \
               FROM Executions as E, ForumEvents as F \
               ON E.TxnId = F.TxnId \
               WHERE F.UserId = 'U1' AND F.Forum = 'F2' AND F.Type = 'Insert' \
               ORDER BY Timestamp ASC;";
    let result = engine.execute(sql).unwrap();
    // The paper's expected answer: (TS3, R2, subscribeUser), (TS4, R1, subscribeUser).
    assert_eq!(result.len(), 2);
    assert_eq!(result.value(0, "ReqId"), Some(&Value::Text("R2".into())));
    assert_eq!(result.value(1, "ReqId"), Some(&Value::Text("R1".into())));
    assert_eq!(
        result.value(0, "HandlerName"),
        Some(&Value::Text("subscribeUser".into()))
    );
    assert_eq!(result.value(0, "Timestamp"), Some(&Value::Int(3)));
    assert_eq!(result.value(1, "Timestamp"), Some(&Value::Int(4)));
}

#[test]
fn explicit_join_syntax_gives_the_same_answer() {
    let engine = paper_tables();
    let comma = engine
        .execute(
            "SELECT ReqId FROM Executions as E, ForumEvents as F ON E.TxnId = F.TxnId \
             WHERE F.Type = 'Insert' ORDER BY Timestamp ASC",
        )
        .unwrap();
    let join = engine
        .execute(
            "SELECT ReqId FROM Executions as E JOIN ForumEvents as F ON E.TxnId = F.TxnId \
             WHERE F.Type = 'Insert' ORDER BY Timestamp ASC",
        )
        .unwrap();
    assert_eq!(comma, join);
}

#[test]
fn aggregates_and_group_by() {
    let engine = paper_tables();
    let result = engine
        .execute(
            "SELECT HandlerName, COUNT(*) AS n FROM Executions \
             GROUP BY HandlerName ORDER BY n DESC",
        )
        .unwrap();
    assert_eq!(result.len(), 2);
    assert_eq!(
        result.value(0, "HandlerName"),
        Some(&Value::Text("subscribeUser".into()))
    );
    assert_eq!(result.value(0, "n"), Some(&Value::Int(4)));
    assert_eq!(result.value(1, "n"), Some(&Value::Int(1)));
}

#[test]
fn aggregates_without_group_by_over_empty_input() {
    let engine = paper_tables();
    let result = engine
        .execute(
            "SELECT COUNT(*), MAX(Timestamp), AVG(Timestamp) FROM Executions WHERE TxnId > 1000",
        )
        .unwrap();
    assert_eq!(result.len(), 1);
    assert_eq!(result.rows()[0][0], Value::Int(0));
    assert_eq!(result.rows()[0][1], Value::Null);
    assert_eq!(result.rows()[0][2], Value::Null);
}

#[test]
fn sum_min_max_avg() {
    let engine = paper_tables();
    let result = engine
        .execute("SELECT SUM(Timestamp) AS s, MIN(Timestamp) AS lo, MAX(Timestamp) AS hi, AVG(Timestamp) AS mean FROM Executions")
        .unwrap();
    assert_eq!(result.value(0, "s"), Some(&Value::Int(1 + 2 + 3 + 4 + 9)));
    assert_eq!(result.value(0, "lo"), Some(&Value::Int(1)));
    assert_eq!(result.value(0, "hi"), Some(&Value::Int(9)));
    assert_eq!(result.value(0, "mean"), Some(&Value::Float(19.0 / 5.0)));
}

#[test]
fn wildcard_limit_and_order() {
    let engine = paper_tables();
    let result = engine
        .execute("SELECT * FROM Executions ORDER BY Timestamp DESC LIMIT 2")
        .unwrap();
    assert_eq!(result.len(), 2);
    assert_eq!(result.value(0, "TxnId"), Some(&Value::Int(9)));
    assert_eq!(result.columns().len(), 5);
}

#[test]
fn null_handling_in_filters() {
    let engine = paper_tables();
    let with_user = engine
        .execute("SELECT EventId FROM ForumEvents WHERE UserId IS NOT NULL")
        .unwrap();
    assert_eq!(with_user.len(), 4);
    let without_user = engine
        .execute("SELECT EventId FROM ForumEvents WHERE UserId IS NULL")
        .unwrap();
    assert_eq!(without_user.len(), 2);
    // Equality against NULL matches nothing.
    let eq_null = engine
        .execute("SELECT EventId FROM ForumEvents WHERE UserId = NULL")
        .unwrap();
    assert!(eq_null.is_empty());
}

#[test]
fn in_list_and_not() {
    let engine = paper_tables();
    let result = engine
        .execute("SELECT TxnId FROM Executions WHERE ReqId IN ('R1', 'R2') ORDER BY TxnId")
        .unwrap();
    assert_eq!(result.len(), 4);
    let result = engine
        .execute("SELECT TxnId FROM Executions WHERE ReqId NOT IN ('R1', 'R2')")
        .unwrap();
    assert_eq!(result.len(), 1);
    let result = engine
        .execute("SELECT TxnId FROM Executions WHERE NOT HandlerName = 'subscribeUser'")
        .unwrap();
    assert_eq!(result.len(), 1);
}

#[test]
fn non_ascii_and_quoted_text_literals_match_their_rows() {
    let db = Database::new();
    db.create_table(
        "people",
        Schema::builder()
            .column("name", DataType::Text)
            .column("city", DataType::Text)
            .primary_key(&["name"])
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut txn = db.begin();
    for (name, city) in [
        ("José", "São Paulo"),
        ("O'Brien", "Cork"),
        ("Jose", "Austin"),
    ] {
        txn.insert("people", row![name, city]).unwrap();
    }
    txn.commit().unwrap();
    let engine = QueryEngine::new(db);
    let result = engine
        .execute("SELECT city FROM people WHERE name = 'José'")
        .unwrap();
    assert_eq!(result.rows(), &[vec![Value::from("São Paulo")]]);
    let sql = format!(
        "SELECT city FROM people WHERE name = {}",
        trod_query::text_literal("O'Brien")
    );
    let result = engine.execute(&sql).unwrap();
    assert_eq!(result.rows(), &[vec![Value::from("Cork")]]);
}

#[test]
fn case_insensitive_table_and_column_resolution() {
    let engine = paper_tables();
    let result = engine
        .execute("select reqid from executions where handlername = 'fetchSubscribers'")
        .unwrap();
    assert_eq!(result.len(), 1);
    assert_eq!(result.rows()[0][0], Value::Text("R3".into()));
}

#[test]
fn time_travel_queries_see_past_states() {
    let engine = paper_tables();
    let db = engine.database().clone();
    let before = db.current_ts();
    let mut txn = db.begin();
    txn.insert("Executions", row![100i64, 50i64, "newHandler", "R9", "m"])
        .unwrap();
    txn.commit().unwrap();

    let now = engine
        .execute("SELECT COUNT(*) AS n FROM Executions")
        .unwrap();
    assert_eq!(now.value(0, "n"), Some(&Value::Int(6)));
    let past = engine
        .execute_as_of("SELECT COUNT(*) AS n FROM Executions", before)
        .unwrap();
    assert_eq!(past.value(0, "n"), Some(&Value::Int(5)));
}

#[test]
fn errors_for_unknown_tables_and_columns() {
    let engine = paper_tables();
    assert!(matches!(
        engine.execute("SELECT a FROM Missing").unwrap_err(),
        QueryError::Plan { .. }
    ));
    assert!(matches!(
        engine.execute("SELECT nope FROM Executions").unwrap_err(),
        QueryError::Execution { .. } | QueryError::Plan { .. }
    ));
    assert!(matches!(
        engine
            .execute("SELECT TxnId FROM Executions WHERE nope = 1")
            .unwrap_err(),
        QueryError::Plan { .. }
    ));
    assert!(engine.execute("SELECT").is_err());
}

#[test]
fn cross_join_without_condition_is_a_cross_product() {
    let engine = paper_tables();
    let result = engine
        .execute("SELECT COUNT(*) AS n FROM Executions as E, ForumEvents as F")
        .unwrap();
    assert_eq!(result.value(0, "n"), Some(&Value::Int(5 * 6)));
}

#[test]
fn order_by_multiple_keys() {
    let engine = paper_tables();
    let result = engine
        .execute("SELECT ReqId, TxnId FROM Executions ORDER BY ReqId ASC, TxnId DESC")
        .unwrap();
    let reqs: Vec<String> = result
        .column_values("ReqId")
        .into_iter()
        .map(|v| v.to_string())
        .collect();
    assert_eq!(reqs, vec!["R1", "R1", "R2", "R2", "R3"]);
    // Within R1: TxnId descending.
    assert_eq!(result.value(0, "TxnId"), Some(&Value::Int(4)));
    assert_eq!(result.value(1, "TxnId"), Some(&Value::Int(1)));
}

#[test]
fn order_by_limit_is_the_first_rows_of_the_sorted_result() {
    // `ORDER BY ts LIMIT k` must return exactly the first k rows of the
    // same statement without LIMIT, ties included. Values are inserted
    // shuffled with duplicates so index order, insertion order and
    // primary-key order all differ.
    let db = Database::new();
    db.create_table(
        "events",
        Schema::builder()
            .column("id", DataType::Int)
            .column("kind", DataType::Text)
            .column("ts", DataType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap(),
    )
    .unwrap();
    db.create_index("events", "ts").unwrap();
    let mut txn = db.begin();
    for (i, ts) in [7i64, 3, 9, 3, 1, 9, 5, 3, 8, 2, 6, 4, 9, 0, 5]
        .iter()
        .enumerate()
    {
        let kind = format!("K{}", i % 3);
        txn.insert("events", row![i as i64, kind, *ts]).unwrap();
    }
    txn.commit().unwrap();

    let engine = QueryEngine::new(db);
    for sql_limited in [
        "SELECT id, ts FROM events ORDER BY ts LIMIT 5",
        "SELECT id, ts FROM events ORDER BY ts DESC LIMIT 5",
        "SELECT id, ts FROM events WHERE kind = 'K1' ORDER BY ts LIMIT 3",
        "SELECT id, ts FROM events WHERE ts >= 3 AND ts <= 8 ORDER BY ts DESC LIMIT 4",
        // The WHERE clause cannot lower (column-vs-column).
        "SELECT id, ts FROM events WHERE ts > id ORDER BY ts LIMIT 4",
        // ORDER BY a column with no index.
        "SELECT id, kind FROM events ORDER BY kind LIMIT 4",
    ] {
        let limited = engine.execute(sql_limited).unwrap();
        let (base, limit) = sql_limited.rsplit_once(" LIMIT ").unwrap();
        let full = engine.execute(base).unwrap();
        let expected: Vec<_> = full
            .rows()
            .iter()
            .take(limit.parse::<usize>().unwrap())
            .cloned()
            .collect();
        assert_eq!(limited.rows(), &expected[..], "query: {sql_limited}");
    }
}

#[test]
fn where_predicates_are_pushed_into_the_scan_planner() {
    // An indexed table large enough that the planner prefers probes; the
    // query layer lowers the WHERE clause into a storage predicate, so
    // these queries must never fall back to scan-everything-then-filter
    // semantics — and must return exactly the unindexed answer.
    let db = Database::new();
    db.create_table(
        "events",
        Schema::builder()
            .column("id", DataType::Int)
            .column("kind", DataType::Text)
            .column("ts", DataType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap(),
    )
    .unwrap();
    db.create_index("events", "kind").unwrap();
    db.create_index("events", "ts").unwrap();
    let mut txn = db.begin();
    for i in 0..500i64 {
        let kind = format!("K{}", i % 5);
        txn.insert("events", row![i, kind, i]).unwrap();
    }
    txn.commit().unwrap();

    // The lowered predicates drive the planner onto index paths.
    let table = db.table("events").unwrap();
    assert!(table
        .plan_scan(&trod_db::Predicate::eq("kind", "K3"))
        .uses_index());
    assert!(table
        .plan_scan(&trod_db::Predicate::ge("ts", 490i64))
        .uses_index());

    let engine = QueryEngine::new(db);
    let eq = engine
        .execute("SELECT id FROM events WHERE kind = 'K3' ORDER BY id")
        .unwrap();
    assert_eq!(eq.len(), 100);
    let range = engine
        .execute("SELECT id FROM events WHERE ts >= 490 AND ts < 495 ORDER BY id")
        .unwrap();
    assert_eq!(range.len(), 5);
    assert_eq!(range.rows()[0][0], Value::Int(490));
    let in_list = engine
        .execute("SELECT id FROM events WHERE kind IN ('K0', 'K4') ORDER BY id")
        .unwrap();
    assert_eq!(in_list.len(), 200);
    // Literal-first comparisons mirror correctly through lowering.
    let flipped = engine
        .execute("SELECT id FROM events WHERE 495 <= ts")
        .unwrap();
    assert_eq!(flipped.len(), 5);
}

#[test]
fn filter_only_columns_are_pushed_down_not_materialised() {
    // `kind` appears only in the WHERE clause: the predicate is pushed
    // into the scan and the column never reaches the projected output.
    let engine = paper_tables();
    let result = engine
        .execute("SELECT TxnId FROM ForumEvents WHERE Type = 'Insert' ORDER BY TxnId")
        .unwrap();
    assert_eq!(result.len(), 2);
    assert_eq!(result.columns(), &["TxnId".to_string()]);
    // Joins still resolve keys that the select list dropped.
    let joined = engine
        .execute(
            "SELECT ReqId FROM Executions as E JOIN ForumEvents as F ON E.TxnId = F.TxnId \
             WHERE F.Type = 'Insert' AND F.UserId = 'U1' ORDER BY ReqId",
        )
        .unwrap();
    assert_eq!(joined.len(), 2);
}

#[test]
fn ambiguous_unqualified_columns_bind_to_the_first_table_not_the_pushdown_table() {
    // Both tables have an `x` column. In `WHERE b.z = 1 OR x = 5` the
    // conjunct can only be evaluated once `b` is loaded, but the
    // unqualified `x` still binds to `a.x` (first table in the joined
    // relation) — pushdown must not capture it as `b.x`.
    let db = Database::new();
    db.create_table(
        "a",
        Schema::builder()
            .column("id", DataType::Int)
            .column("x", DataType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap(),
    )
    .unwrap();
    db.create_table(
        "b",
        Schema::builder()
            .column("bid", DataType::Int)
            .column("z", DataType::Int)
            .column("x", DataType::Int)
            .primary_key(&["bid"])
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut txn = db.begin();
    txn.insert("a", row![1i64, 5i64]).unwrap();
    txn.insert("b", row![1i64, 0i64, 7i64]).unwrap();
    txn.commit().unwrap();
    let engine = QueryEngine::new(db);

    // a.x = 5 makes the disjunction true for the single joined row.
    let result = engine
        .execute("SELECT id, bid FROM a, b WHERE b.z = 1 OR x = 5")
        .unwrap();
    assert_eq!(result.len(), 1);
    // The same shape binding to b.x when a cannot supply the name.
    let result = engine
        .execute("SELECT id, bid FROM a, b WHERE b.z = 1 OR z = 0")
        .unwrap();
    assert_eq!(result.len(), 1);
    // And a case where the disjunction is genuinely false.
    let result = engine
        .execute("SELECT id, bid FROM a, b WHERE b.z = 1 OR x = 6")
        .unwrap();
    assert_eq!(result.len(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// SQL answers are identical with and without indexes for arbitrary
    /// data and WHERE shapes — i.e. predicate pushdown and the scan
    /// planner never change a declarative query's result.
    #[test]
    fn indexed_and_unindexed_queries_agree(
        values in prop::collection::vec((0i64..50, 0i64..8), 1..120),
        lo in 0i64..50,
        width in 0i64..25,
        pick in 0i64..8
    ) {
        let make_db = |indexed: bool| {
            let db = Database::new();
            db.create_table(
                "t",
                Schema::builder()
                    .column("id", DataType::Int)
                    .column("v", DataType::Int)
                    .column("g", DataType::Int)
                    .primary_key(&["id"])
                    .build()
                    .unwrap(),
            )
            .unwrap();
            if indexed {
                db.create_index("t", "g").unwrap();
                db.create_index("t", "v").unwrap();
            }
            let mut txn = db.begin();
            for (i, (v, g)) in values.iter().enumerate() {
                txn.insert("t", row![i as i64, *v, *g]).unwrap();
            }
            txn.commit().unwrap();
            QueryEngine::new(db)
        };
        let indexed = make_db(true);
        let plain = make_db(false);
        let hi = lo + width;
        for sql in [
            format!("SELECT id FROM t WHERE v >= {lo} AND v < {hi} ORDER BY id"),
            format!("SELECT id FROM t WHERE g = {pick} ORDER BY id"),
            format!("SELECT id FROM t WHERE g IN ({pick}, {}) ORDER BY id", (pick + 1) % 8),
            format!("SELECT id FROM t WHERE g = {pick} OR v >= {hi} ORDER BY id"),
            format!("SELECT id FROM t WHERE NOT v < {lo} ORDER BY id"),
            format!("SELECT id FROM t WHERE g = {pick} AND v >= {lo} ORDER BY id"),
        ] {
            prop_assert_eq!(
                indexed.execute(&sql).unwrap(),
                plain.execute(&sql).unwrap(),
                "diverged for {}",
                sql
            );
        }
    }

    /// Filtering with SQL equals filtering with the storage engine's
    /// native predicates for arbitrary integer data and thresholds.
    #[test]
    fn sql_filter_matches_native_predicate(
        values in prop::collection::vec(0i64..100, 1..80),
        threshold in 0i64..100
    ) {
        let db = Database::new();
        db.create_table(
            "nums",
            Schema::builder()
                .column("id", DataType::Int)
                .column("v", DataType::Int)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut txn = db.begin();
        for (i, v) in values.iter().enumerate() {
            txn.insert("nums", row![i as i64, *v]).unwrap();
        }
        txn.commit().unwrap();

        let native = db
            .scan_latest("nums", &trod_db::Predicate::ge("v", threshold))
            .unwrap()
            .len();
        let engine = QueryEngine::new(db);
        let sql = engine
            .execute(&format!("SELECT id FROM nums WHERE v >= {threshold}"))
            .unwrap()
            .len();
        prop_assert_eq!(native, sql);
    }

    /// ORDER BY really sorts, for arbitrary data.
    #[test]
    fn order_by_sorts(values in prop::collection::vec(-1000i64..1000, 1..60)) {
        let db = Database::new();
        db.create_table(
            "nums",
            Schema::builder()
                .column("id", DataType::Int)
                .column("v", DataType::Int)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut txn = db.begin();
        for (i, v) in values.iter().enumerate() {
            txn.insert("nums", row![i as i64, *v]).unwrap();
        }
        txn.commit().unwrap();
        let engine = QueryEngine::new(db);
        let result = engine.execute("SELECT v FROM nums ORDER BY v ASC").unwrap();
        let got: Vec<i64> = result
            .column_values("v")
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        let mut expected = values.clone();
        expected.sort();
        prop_assert_eq!(got, expected);
    }

    /// COUNT(*) equals the row count for arbitrary GROUP BY cardinality.
    #[test]
    fn group_by_counts_sum_to_total(groups in prop::collection::vec(0i64..10, 1..100)) {
        let db = Database::new();
        db.create_table(
            "g",
            Schema::builder()
                .column("id", DataType::Int)
                .column("grp", DataType::Int)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut txn = db.begin();
        for (i, g) in groups.iter().enumerate() {
            txn.insert("g", row![i as i64, *g]).unwrap();
        }
        txn.commit().unwrap();
        let engine = QueryEngine::new(db);
        let per_group = engine
            .execute("SELECT grp, COUNT(*) AS n FROM g GROUP BY grp")
            .unwrap();
        let total: i64 = per_group
            .column_values("n")
            .iter()
            .map(|v| v.as_int().unwrap())
            .sum();
        prop_assert_eq!(total, groups.len() as i64);
    }
}
