//! Error types for the storage engine — and the unified [`TrodError`]
//! of the session layer.
//!
//! [`KvError`] lives here (rather than in `trod-kv`) so that
//! [`TrodError`] can embed it; `trod-kv` re-exports both. Conflicts on a
//! namespace are ordinary [`DbError`]s on its `kv:<namespace>` table.

use std::fmt;

use crate::mvcc::Ts;
use crate::value::DataType;

/// Errors raised by the durability layer (the durable log and its
/// storage seam; see [`crate::segment`] and [`crate::dir`]).
///
/// The variants classify *how to react*, not just what broke:
///
/// * [`StorageError::Io`] — an append/fsync/open on a log file failed.
///   Transient by assumption (disk full, injected fault): the commits in
///   the failed sync group observe it and abort durability-wise, but the
///   WAL keeps their bytes queued and the next group retries, so the
///   commit path is never poisoned. Retryable.
/// * [`StorageError::Corrupt`] — the log contains a damaged record that
///   is provably *not* a torn tail (valid records follow it). Truncating
///   would silently drop acknowledged commits, so recovery refuses with
///   this typed error instead. Not retryable.
/// * [`StorageError::Recovery`] — the log decoded cleanly but cannot be
///   replayed (out-of-order commit timestamps, a record referencing
///   missing DDL). Not retryable.
/// * [`StorageError::TooLarge`] — a record longer than one log frame can
///   carry was refused before anything was buffered, so the log never
///   holds a frame recovery would reject. Not retryable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An IO operation on the log directory or one of its files failed.
    /// `op` names the operation ("append", "sync", "open", ...).
    Io { op: &'static str, detail: String },
    /// A log record at `offset` is damaged and valid records follow it —
    /// mid-file corruption, not a torn tail.
    Corrupt { offset: u64, detail: String },
    /// The log decoded but could not be replayed into a database.
    Recovery { detail: String },
    /// A record of `len` payload bytes exceeds the `max` a log frame
    /// carries.
    TooLarge { len: u64, max: u64 },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { op, detail } => write!(f, "log {op} failed: {detail}"),
            StorageError::Corrupt { offset, detail } => {
                write!(f, "log corrupt at byte {offset}: {detail}")
            }
            StorageError::Recovery { detail } => write!(f, "log replay failed: {detail}"),
            StorageError::TooLarge { len, max } => {
                write!(
                    f,
                    "log record of {len} bytes exceeds the {max}-byte frame limit"
                )
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl StorageError {
    /// True for transient disk failures (IO errors on append/sync): the
    /// failed group aborted, but the disk may recover and subsequent
    /// groups — or a retried transaction — can proceed. Corruption and
    /// replay failures are permanent.
    pub fn is_retryable(&self) -> bool {
        matches!(self, StorageError::Io { .. })
    }
}

/// Errors returned by the storage engine.
///
/// The variants distinguish programming errors (schema misuse, type
/// mismatches) from runtime outcomes the caller is expected to handle
/// (write conflicts, serialization failures, duplicate keys).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// A table with this name already exists.
    TableExists(String),
    /// No table with this name exists.
    NoSuchTable(String),
    /// No column with this name exists in the referenced table.
    NoSuchColumn { table: String, column: String },
    /// A row value did not match the column's declared type.
    TypeMismatch {
        table: String,
        column: String,
        expected: DataType,
        actual: String,
    },
    /// A non-nullable column received a NULL value.
    NullViolation { table: String, column: String },
    /// The row has the wrong number of columns for the table schema.
    ArityMismatch {
        table: String,
        expected: usize,
        actual: usize,
    },
    /// An insert would create a second row with the same primary key.
    DuplicateKey { table: String, key: String },
    /// The referenced primary key does not exist.
    NoSuchKey { table: String, key: String },
    /// Two transactions wrote the same row; the later committer loses.
    WriteConflict { table: String, key: String },
    /// Serializable validation failed: a row or predicate read by this
    /// transaction was modified by a concurrently committed transaction.
    SerializationFailure { table: String, detail: String },
    /// The transaction has already committed or aborted.
    TransactionClosed,
    /// A fork at `ts`, or history after `ts`, was requested below the
    /// truncation floor of a database with no durable log: garbage
    /// collection dropped those versions and entries, and nothing else
    /// holds them.
    HistoryTruncated { ts: Ts, floor: Ts },
    /// An invalid operation for the current configuration.
    Invalid(String),
    /// The durability layer failed (WAL append/fsync, recovery).
    Storage(StorageError),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::TableExists(t) => write!(f, "table `{t}` already exists"),
            DbError::NoSuchTable(t) => write!(f, "no such table `{t}`"),
            DbError::NoSuchColumn { table, column } => {
                write!(f, "no column `{column}` in table `{table}`")
            }
            DbError::TypeMismatch {
                table,
                column,
                expected,
                actual,
            } => write!(
                f,
                "type mismatch in `{table}.{column}`: expected {expected}, got {actual}"
            ),
            DbError::NullViolation { table, column } => {
                write!(f, "column `{table}.{column}` is not nullable")
            }
            DbError::ArityMismatch {
                table,
                expected,
                actual,
            } => write!(
                f,
                "row for table `{table}` has {actual} values, schema has {expected} columns"
            ),
            DbError::DuplicateKey { table, key } => {
                write!(f, "duplicate primary key {key} in table `{table}`")
            }
            DbError::NoSuchKey { table, key } => {
                write!(f, "no row with primary key {key} in table `{table}`")
            }
            DbError::WriteConflict { table, key } => {
                write!(f, "write-write conflict on `{table}` key {key}")
            }
            DbError::SerializationFailure { table, detail } => {
                write!(f, "serialization failure on `{table}`: {detail}")
            }
            DbError::TransactionClosed => write!(f, "transaction is no longer active"),
            DbError::HistoryTruncated { ts, floor } => write!(
                f,
                "cannot reach ts {ts}: history below ts {floor} was garbage-collected \
                 and no durable log covers it"
            ),
            DbError::Invalid(msg) => write!(f, "invalid operation: {msg}"),
            DbError::Storage(e) => write!(f, "storage: {e}"),
        }
    }
}

impl From<StorageError> for DbError {
    fn from(e: StorageError) -> Self {
        DbError::Storage(e)
    }
}

impl std::error::Error for DbError {}

/// Convenience result alias used across the engine.
pub type DbResult<T> = Result<T, DbError>;

impl DbError {
    /// Returns true if the error is a transient concurrency failure the
    /// caller may retry (write conflicts and serialization failures).
    pub fn is_retryable(&self) -> bool {
        match self {
            DbError::WriteConflict { .. } | DbError::SerializationFailure { .. } => true,
            DbError::Storage(e) => e.is_retryable(),
            _ => false,
        }
    }
}

/// Errors naming a key-value namespace that does not exist or already
/// does.
///
/// Defined in `trod-db` (and re-exported by `trod-kv`) so the unified
/// [`TrodError`] can embed it; see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// The namespace does not exist.
    UnknownNamespace(String),
    /// The namespace already exists.
    NamespaceExists(String),
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::UnknownNamespace(ns) => write!(f, "unknown namespace `{ns}`"),
            KvError::NamespaceExists(ns) => write!(f, "namespace `{ns}` already exists"),
        }
    }
}

impl std::error::Error for KvError {}

/// Result alias for key-value operations.
pub type KvResult<T> = Result<T, KvError>;

/// The unified transaction error: everything a session transaction —
/// over tables and namespaces alike — can fail with.
///
/// This is the one error type of the unified [`Txn`](crate) surface;
/// `From` impls exist for both per-store errors so call sites can `?`
/// freely instead of juggling per-store error enums.
#[derive(Debug, Clone, PartialEq)]
pub enum TrodError {
    /// The database failed (validation conflict — on a namespace too —,
    /// unknown table, …).
    Relational(DbError),
    /// A namespace is unknown or already exists.
    KeyValue(KvError),
    /// The shared durability layer failed (WAL append/fsync): the commit
    /// is published in memory but its durability is unconfirmed — only
    /// the commits in the failed sync group observe this, and the commit
    /// path stays usable (see [`StorageError`]). IO failures are
    /// retryable.
    Storage(StorageError),
}

impl fmt::Display for TrodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrodError::Relational(e) => write!(f, "relational store: {e}"),
            TrodError::KeyValue(e) => write!(f, "key-value store: {e}"),
            TrodError::Storage(e) => write!(f, "durability: {e}"),
        }
    }
}

impl std::error::Error for TrodError {}

impl From<DbError> for TrodError {
    fn from(e: DbError) -> Self {
        match e {
            // Keep storage failures a first-class unified variant instead
            // of burying them inside the relational wrapper: callers
            // branch on durability errors (retry the group) differently
            // from validation conflicts (retry the transaction).
            DbError::Storage(e) => TrodError::Storage(e),
            e => TrodError::Relational(e),
        }
    }
}

impl From<KvError> for TrodError {
    fn from(e: KvError) -> Self {
        TrodError::KeyValue(e)
    }
}

impl From<StorageError> for TrodError {
    fn from(e: StorageError) -> Self {
        TrodError::Storage(e)
    }
}

impl TrodError {
    /// True if the error is a transient concurrency failure the caller may
    /// retry.
    pub fn is_retryable(&self) -> bool {
        match self {
            TrodError::Relational(e) => e.is_retryable(),
            TrodError::KeyValue(_) => false,
            TrodError::Storage(e) => e.is_retryable(),
        }
    }
}

/// Result alias for operations spanning both stores.
pub type TrodResult<T> = Result<T, TrodError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = DbError::NoSuchTable("users".into());
        assert!(e.to_string().contains("users"));
        let e = DbError::DuplicateKey {
            table: "t".into(),
            key: "[Int(1)]".into(),
        };
        assert!(e.to_string().contains("duplicate"));
    }

    #[test]
    fn retryable_classification() {
        assert!(DbError::WriteConflict {
            table: "t".into(),
            key: "k".into()
        }
        .is_retryable());
        assert!(DbError::SerializationFailure {
            table: "t".into(),
            detail: "d".into()
        }
        .is_retryable());
        assert!(!DbError::NoSuchTable("t".into()).is_retryable());
        assert!(!DbError::TransactionClosed.is_retryable());
    }

    #[test]
    fn unified_error_converts_and_classifies() {
        let e: TrodError = DbError::WriteConflict {
            table: "t".into(),
            key: "k".into(),
        }
        .into();
        assert!(matches!(e, TrodError::Relational(_)));
        assert!(e.is_retryable());

        let e: TrodError = KvError::UnknownNamespace("x".into()).into();
        assert!(matches!(e, TrodError::KeyValue(_)));
        assert!(!e.is_retryable());
        assert!(e.to_string().contains("`x`"));
        let e: TrodError = DbError::TransactionClosed.into();
        assert!(!e.is_retryable());
    }

    #[test]
    fn storage_errors_classify_and_convert() {
        let io = StorageError::Io {
            op: "sync",
            detail: "injected".into(),
        };
        assert!(io.is_retryable());
        let corrupt = StorageError::Corrupt {
            offset: 42,
            detail: "payload checksum mismatch".into(),
        };
        assert!(!corrupt.is_retryable());
        assert!(corrupt.to_string().contains("byte 42"));

        // DbError::Storage keeps the classification...
        let db_err: DbError = io.clone().into();
        assert!(db_err.is_retryable());
        let db_err: DbError = corrupt.clone().into();
        assert!(!db_err.is_retryable());

        // ...and converting to the unified error surfaces the dedicated
        // variant (not a buried Relational wrapper), from either source.
        let e: TrodError = DbError::Storage(io.clone()).into();
        assert!(matches!(e, TrodError::Storage(_)));
        assert!(e.is_retryable());
        let e: TrodError = corrupt.into();
        assert!(matches!(e, TrodError::Storage(_)));
        assert!(!e.is_retryable());
        assert!(e.to_string().contains("durability"));
    }
}
