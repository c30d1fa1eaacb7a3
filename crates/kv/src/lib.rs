//! # trod-kv
//!
//! A versioned key-value store and the **unified transaction surface**
//! ([`Session`] / [`Txn`]) of the TROD reproduction, built for the
//! "Handling Multiple Data Stores" research direction of *Transactions
//! Make Debugging Easy* (CIDR 2023, §5).
//!
//! Modern applications combine a relational DBMS with non-relational
//! stores (Redis-style key-value stores, document stores, …). TROD's
//! principles require that *all* shared state be accessed through ACID
//! transactions with aligned transaction logs. This crate provides:
//!
//! * [`KvStore`] — a multi-version key-value store with namespaces,
//!   per-namespace commit locks, tombstoned deletes and as-of reads.
//! * [`Session`] / [`Txn`] — the one transaction handle for everything:
//!   relational reads and writes, key-value reads and writes, optional
//!   provenance tracing, one snapshot and one atomic commit. Commits run
//!   through `trod-db`'s sharded commit coordinator
//!   ([`trod_db::CommitParticipant`]): key-value namespaces join the
//!   relational footprint as `kv:<namespace>` resources, so there is no
//!   cross-store global lock — commits over disjoint namespaces scale
//!   with threads exactly like disjoint-table relational commits — and
//!   every commit lands in one aligned transaction-log entry by
//!   construction ([`Session::aligned_log`]).
//!
//! ```
//! use trod_db::{Database, DataType, Schema, row};
//! use trod_kv::{KvStore, Session};
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
//! let kv = KvStore::new();
//! kv.create_namespace("sessions").unwrap();
//!
//! let session = Session::with_kv(db, kv);
//! let mut txn = session.begin();
//! txn.insert("orders", row![1i64, "widget"]).unwrap();
//! txn.kv_put("sessions", "user-1", "cart:widget").unwrap();
//! let commit = txn.commit().unwrap();
//! assert!(commit.commit_ts > 0);
//! assert_eq!(session.aligned_log().len(), 1);
//! ```

pub mod session;
pub mod store;

pub use session::{
    kv_image_key, kv_image_value, AlignedCommit, GcStats, Session, SessionBuilder, Txn, TxnCommit,
    TxnOptions,
};
pub use store::{KvError, KvResult, KvStore, KvWrite, NamespaceStats};

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

/// The virtual "table" name under which a KV namespace appears in
/// provenance traces, commit footprints and the aligned transaction log
/// (e.g. `kv:sessions`).
pub fn kv_table_name(namespace: &str) -> std::sync::Arc<str> {
    [trod_db::KV_TABLE_PREFIX, namespace].concat().into()
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
