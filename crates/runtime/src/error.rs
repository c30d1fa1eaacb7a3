//! Runtime and handler errors.

use std::fmt;

use trod_db::{DbError, KvError, TrodError};

/// Errors surfaced by request handlers or the runtime itself.
#[derive(Debug, Clone, PartialEq)]
pub enum HandlerError {
    /// No handler with this name is registered.
    NoSuchHandler(String),
    /// An application-level failure (e.g. "duplicate subscribers found").
    /// These are the errors the paper's buggy handlers raise.
    App(String),
    /// A database error that the handler did not handle (including
    /// serialization failures that exhausted retries).
    Db(DbError),
    /// A key-value store error the handler did not handle.
    Kv(KvError),
    /// The handler's arguments were missing or of the wrong type.
    BadArgument(String),
}

impl fmt::Display for HandlerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandlerError::NoSuchHandler(name) => write!(f, "no handler named `{name}`"),
            HandlerError::App(msg) => write!(f, "application error: {msg}"),
            HandlerError::Db(e) => write!(f, "database error: {e}"),
            HandlerError::Kv(e) => write!(f, "key-value store error: {e}"),
            HandlerError::BadArgument(msg) => write!(f, "bad argument: {msg}"),
        }
    }
}

impl std::error::Error for HandlerError {}

impl From<DbError> for HandlerError {
    fn from(e: DbError) -> Self {
        HandlerError::Db(e)
    }
}

impl From<KvError> for HandlerError {
    fn from(e: KvError) -> Self {
        HandlerError::Kv(e)
    }
}

impl From<TrodError> for HandlerError {
    fn from(e: TrodError) -> Self {
        match e {
            TrodError::Relational(e) => HandlerError::Db(e),
            TrodError::KeyValue(e) => HandlerError::Kv(e),
            // Durability failures keep their typed shape (and their
            // retryability) through the db-error wrapper.
            TrodError::Storage(e) => HandlerError::Db(DbError::Storage(e)),
        }
    }
}

impl HandlerError {
    /// True if the failure is a transient concurrency conflict — on a
    /// table or a namespace's table — the request may retry.
    pub fn is_retryable(&self) -> bool {
        matches!(self, HandlerError::Db(e) if e.is_retryable())
    }
}

/// Result alias for handler invocations.
pub type HandlerResult = Result<trod_db::Value, HandlerError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e = HandlerError::NoSuchHandler("x".into());
        assert!(e.to_string().contains("x"));
        let e: HandlerError = DbError::TransactionClosed.into();
        assert!(matches!(e, HandlerError::Db(_)));
        assert!(HandlerError::App("dup".into()).to_string().contains("dup"));
    }

    #[test]
    fn unified_errors_convert_per_store() {
        let e: HandlerError = TrodError::Relational(DbError::TransactionClosed).into();
        assert!(matches!(e, HandlerError::Db(_)));
        let e: HandlerError = TrodError::KeyValue(KvError::UnknownNamespace("s".into())).into();
        assert!(matches!(e, HandlerError::Kv(_)));
        assert!(!e.is_retryable());
        let e: HandlerError = TrodError::Relational(DbError::WriteConflict {
            table: "kv:s".into(),
            key: "k".into(),
        })
        .into();
        assert!(e.is_retryable());
        assert!(!HandlerError::App("x".into()).is_retryable());
    }
}
