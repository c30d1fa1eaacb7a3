//! # trod-db
//!
//! An in-memory, multi-version, transactional storage engine used as the
//! application DBMS substrate of the TROD reproduction (*Transactions Make
//! Debugging Easy*, CIDR 2023).
//!
//! The engine provides exactly the capabilities TROD's design relies on:
//!
//! * **ACID transactions** with three isolation levels; the default is
//!   strict serializability implemented with optimistic validation, so
//!   transactions are serialized in commit order (paper §3.1).
//! * **A commit-ordered transaction log** with change-data-capture
//!   records (before/after images) for every write (paper §3.4).
//! * **Time travel** (as-of reads) plus cheap database **forks** used as
//!   the "development database" during replay and retroactive programming
//!   (paper §3.5–3.6).
//!
//! ## Hot-path architecture
//!
//! Three design decisions keep the always-on tracing budget (<100 µs per
//! request, paper §3.7) intact as tables grow:
//!
//! * **Zero-copy MVCC reads.** Row images live in version chains as
//!   [`Arc<Row>`](std::sync::Arc); `get_at` / `scan_at` /
//!   `materialize_at`, CDC before/after images and the change log all
//!   share the writer's allocation. The read path never deep-copies a
//!   row — the query layer copies once, at the boundary where it
//!   materialises relations of owned values.
//!
//! * **O(Δ) serializable validation.** Each table keeps a bounded,
//!   commit-ordered [`ChangeLog`] of recent row
//!   changes, appended by `apply_batch` under that table's commit
//!   lock. Serializable predicate (phantom) validation walks only the
//!   entries in `(start_ts, now]` — cost proportional to the *delta*
//!   since the transaction began, independent of table size. Truncation
//!   raises a low-water mark; a window the log cannot cover falls back to
//!   the original full version scan, so truncation can never cause a
//!   missed conflict. The two paths are decision-equivalent: debug
//!   builds assert it on every validation, and property tests compare
//!   the engine's decisions with a full-history reference model.
//!
//! * **Compiled predicates.** [`Predicate::compile`] resolves column
//!   names to ordinals once per scan/validation, so per-row evaluation
//!   ([`CompiledPredicate::matches`]) does no string lookups.
//!
//! * **Planned, sublinear scans.** Every predicate scan runs through a
//!   cost-based access-path planner: primary-key probes into the row
//!   map, or — from one ordered [`SecondaryIndex`] per indexed column —
//!   point probes, `IN (...)` multi-probes and comparison-window probes,
//!   or the full chain walk — whichever estimates the fewest candidates. Index paths over-approximate and
//!   re-check, never under-approximate, so every path (at any read
//!   timestamp, time travel included) returns the full scan's exact
//!   result set. See "The read path" in `crates/db/DESIGN.md`.
//!
//! * **Sharded commits.** There is no global commit lock: commits take
//!   the locks of the tables they write in sorted name order, claim a
//!   timestamp from a global atomic allocator, and publish in timestamp
//!   order, so transactions over disjoint tables validate and install
//!   concurrently, and wait for the durable log's group fsync after
//!   releasing their locks, while readers can never observe a torn
//!   multi-table commit. A
//!   key-value namespace is one more table (`kv:<namespace>`, see
//!   [`Database::create_namespace`]), so one timestamp and one
//!   transaction-log entry span every store (the paper's §5 aligned
//!   history). An
//!   [`ActiveTxnRegistry`] tracks
//!   `(txn_id, start_ts)` for every live transaction and a pin for
//!   every live fork; its watermark (clamped to the published clock)
//!   bounds [`Database::gc_before`] and change-log ring eviction so
//!   reclamation never outruns an active transaction or a fork. See "The commit
//!   protocol" in `crates/db/DESIGN.md`.
//!
//! ## Quick example
//!
//! ```
//! use trod_db::{Database, DataType, Predicate, Schema, row};
//!
//! let db = Database::new();
//! let schema = Schema::builder()
//!     .column("id", DataType::Int)
//!     .column("name", DataType::Text)
//!     .primary_key(&["id"])
//!     .build()
//!     .unwrap();
//! db.create_table("users", schema).unwrap();
//!
//! let mut txn = db.begin();
//! txn.insert("users", row![1i64, "alice"]).unwrap();
//! let info = txn.commit().unwrap();
//! assert_eq!(info.changes.len(), 1);
//!
//! let rows = db.scan_latest("users", &Predicate::eq("name", "alice")).unwrap();
//! assert_eq!(rows.len(), 1);
//! ```

pub mod cdc;
pub mod changelog;
pub mod checkpoint;
pub mod commit;
pub mod database;
pub mod dir;
pub mod error;
pub mod hash;
pub mod index;
pub mod log;
pub mod mvcc;
pub mod predicate;
pub mod registry;
pub mod row;
pub mod schema;
pub mod segment;
pub mod table;
pub mod txn;
pub mod value;
pub mod wal;

pub use cdc::{
    is_kv_table, kv_table_name, namespace_entry, namespace_row, namespace_value, ChangeOp,
    ChangeRecord, KV_TABLE_PREFIX,
};
pub use changelog::{ChangeEntry, ChangeLog};
pub use checkpoint::{decode_checkpoint, encode_checkpoint, Checkpoint, CheckpointTable};
pub use database::{Database, DbStats, GcStats};
pub use dir::{DirFailpointHandle, FailpointDir, FsDir, LogDir, LogFile, MemDir};
pub use error::{DbError, DbResult, StorageError};
pub use hash::{CellHash, CellHasher};
pub use index::SecondaryIndex;
pub use log::{CommittedTxn, LoggedTxn, LoggedWrite, TxnId};
pub use mvcc::{Ts, TS_LIVE};
pub use predicate::{CmpOp, ColumnBounds, CompiledPredicate, Predicate};
pub use registry::ActiveTxnRegistry;
pub use row::{Key, KeyMap, Row};
pub use schema::{Column, Schema, SchemaBuilder};
pub use segment::{RecoveredLog, RecoveryReport, Replay, SegmentedWal, WalStats};
pub use table::{ScanPlan, ScanRows, TableStore};
pub use txn::{CommitInfo, IsolationLevel, Transaction};
pub use value::{DataType, Value};
pub use wal::{
    RecoveryInfo, SyncMode, Wal, WalOptions, WalRecord, DEFAULT_CHECKPOINT_BYTES,
    DEFAULT_SEGMENT_BYTES,
};
