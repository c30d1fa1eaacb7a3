//! # trod-kv
//!
//! Key-value namespaces and the **unified transaction surface**
//! ([`Session`] / [`Txn`]) of the TROD reproduction, built for the
//! "Handling Multiple Data Stores" research direction of *Transactions
//! Make Debugging Easy* (CIDR 2023, §5).
//!
//! Modern applications combine a relational DBMS with non-relational
//! stores (Redis-style key-value stores, document stores, …). TROD's
//! principles require that *all* shared state be accessed through ACID
//! transactions with aligned transaction logs. Here that holds by
//! construction:
//!
//! * A namespace is a table of the database (`kv:<namespace>`, rows
//!   `(kv_key, kv_value)`); [`KvStore`] is a read view over those tables.
//! * [`Session`] / [`Txn`] are the one transaction handle for everything:
//!   relational reads and writes, key-value reads and writes, optional
//!   provenance tracing, one snapshot, one error type
//!   ([`trod_db::DbError`]) and one atomic commit through the
//!   database's commit protocol — so every commit lands in one aligned
//!   transaction-log entry ([`trod_db::Database::log_entries`]), and
//!   [`Txn::commit`] returns the database's [`trod_db::CommitInfo`].
//!
//! That is all the crate holds: [`Session`] / [`Txn`] and the
//! [`KvStore`] read view. What is left of a second store is
//! `trod_runtime::RuntimeBuilder::kv`, which binds nothing and is kept
//! for the benchmark harness until the crate dissolves into its callers.
//!
//! ```
//! use trod_db::{Database, DataType, Schema, row};
//! use trod_kv::Session;
//!
//! let db = Database::new();
//! db.create_table(
//!     "orders",
//!     Schema::builder()
//!         .column("id", DataType::Int)
//!         .column("item", DataType::Text)
//!         .primary_key(&["id"])
//!         .build()
//!         .unwrap(),
//! )
//! .unwrap();
//! let session = Session::new(db);
//! session.create_namespace("sessions").unwrap();
//!
//! let mut txn = session.begin();
//! txn.insert("orders", row![1i64, "widget"]).unwrap();
//! txn.kv_put("sessions", "user-1", "cart:widget").unwrap();
//! let commit = txn.commit().unwrap();
//! assert!(commit.commit_ts > 0);
//! assert_eq!(session.database().log_entries()[0].changes.len(), 2);
//! ```

pub mod session;
pub mod store;

pub use session::{GcStats, Session, Txn, TxnOptions};
pub use store::KvStore;
pub use trod_db::kv_table_name;

/// Event-table schema used when registering a KV namespace with the TROD
/// provenance database: the namespace's rows are exposed as
/// `(kv_key, kv_value)` pairs, so the paper's per-table provenance layout
/// (Table 2) applies to key-value data unchanged.
pub fn kv_provenance_schema() -> trod_db::Schema {
    trod_db::Schema::builder()
        .column("kv_key", trod_db::DataType::Text)
        .nullable("kv_value", trod_db::DataType::Text)
        .primary_key(&["kv_key"])
        .build()
        .expect("static schema must be valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_schema_and_table_name() {
        let schema = kv_provenance_schema();
        assert_eq!(schema.arity(), 2);
        assert_eq!(schema.column_names(), vec!["kv_key", "kv_value"]);
        assert_eq!(&*kv_table_name("sessions"), "kv:sessions");
    }
}
