//! # trod-query
//!
//! A small SQL engine over [`trod_db`] tables: tokenizer, recursive-descent
//! parser, and an executor with hash equi-joins, filters, aggregates,
//! ordering and limits.
//!
//! It exists so that TROD's *declarative debugging* (paper §3.3/§3.4) can
//! run the paper's literal SQL queries against the provenance database —
//! for example the query that locates the requests which inserted the
//! duplicated Moodle forum subscriptions:
//!
//! ```
//! use trod_db::{Database, DataType, Schema, row};
//! use trod_query::QueryEngine;
//!
//! let db = Database::new();
//! db.create_table(
//!     "Executions",
//!     Schema::builder()
//!         .column("TxnId", DataType::Int)
//!         .column("Timestamp", DataType::Int)
//!         .column("HandlerName", DataType::Text)
//!         .column("ReqId", DataType::Text)
//!         .primary_key(&["TxnId"])
//!         .build()
//!         .unwrap(),
//! )
//! .unwrap();
//! let mut txn = db.begin();
//! txn.insert("Executions", row![1i64, 100i64, "subscribeUser", "R1"]).unwrap();
//! txn.insert("Executions", row![2i64, 101i64, "subscribeUser", "R2"]).unwrap();
//! txn.commit().unwrap();
//!
//! let engine = QueryEngine::new(db);
//! let result = engine
//!     .execute("SELECT ReqId FROM Executions WHERE HandlerName = 'subscribeUser' ORDER BY Timestamp ASC")
//!     .unwrap();
//! assert_eq!(result.len(), 2);
//! ```

pub mod ast;
pub mod error;
pub mod exec;
pub mod parser;
pub mod result;
pub mod token;

/// Planner-vs-oracle property tests; they need `exec`'s `#[cfg(test)]`
/// fixed-order loader, so they compile into the unit tests from where
/// the other query-level suites live.
#[cfg(test)]
#[path = "../tests/plan_equivalence/mod.rs"]
mod plan_equivalence;

pub use ast::{
    text_literal, AggFunc, BinOp, Expr, Join, OrderKey, SelectItem, SelectStmt, TableRef,
};
pub use error::{QueryError, QueryResultT};
pub use exec::QueryOptions;
pub use result::ResultSet;

use trod_db::{Database, Ts};

/// Convenience wrapper binding a database to the parser and executor.
#[derive(Debug, Clone)]
pub struct QueryEngine {
    db: Database,
}

impl QueryEngine {
    /// Creates an engine over `db`.
    pub fn new(db: Database) -> Self {
        QueryEngine { db }
    }

    /// The underlying database handle.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Parses and executes `sql` against the latest committed state.
    pub fn execute(&self, sql: &str) -> QueryResultT<ResultSet> {
        let stmt = parser::parse(sql)?;
        exec::execute(&self.db, &stmt, QueryOptions::default())
    }

    /// Parses and executes `sql` against the state as of `ts`.
    pub fn execute_as_of(&self, sql: &str, ts: Ts) -> QueryResultT<ResultSet> {
        let stmt = parser::parse(sql)?;
        exec::execute(&self.db, &stmt, QueryOptions { as_of: Some(ts) })
    }

    /// Executes an already parsed statement.
    pub fn execute_stmt(&self, stmt: &SelectStmt, opts: QueryOptions) -> QueryResultT<ResultSet> {
        exec::execute(&self.db, stmt, opts)
    }
}

/// Parses a SELECT statement without executing it.
pub fn parse(sql: &str) -> QueryResultT<SelectStmt> {
    parser::parse(sql)
}
