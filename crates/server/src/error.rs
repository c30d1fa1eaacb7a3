//! Typed JSON-RPC error codes with retryable-vs-fatal semantics.
//!
//! Every error a request can surface — protocol violations, handler
//! failures, engine errors, debugger errors — maps to one numeric code
//! plus a machine-readable `data` object carrying `kind` and
//! `retryable`. Clients implement exactly one retry rule: retry iff
//! `error.data.retryable` is `true` (conflicts, serialization aborts,
//! and the drain window); everything else is fatal for that request.
//! See `PROTOCOL.md` for the full table.

use trod_core::json::Json;
use trod_core::replay::ReplayError;
use trod_core::retroactive::RetroactiveError;
use trod_db::DbError;
use trod_query::QueryError;
use trod_runtime::HandlerError;
use trod_trace::wire::WireError;

/// JSON-RPC 2.0 standard protocol codes.
pub const PARSE_ERROR: i64 = -32700;
pub const INVALID_REQUEST: i64 = -32600;
pub const METHOD_NOT_FOUND: i64 = -32601;
pub const INVALID_PARAMS: i64 = -32602;

/// Application codes (positive, TROD-specific).
/// A retryable conflict: write conflict or SSI serialization abort, on a
/// table or a namespace's. The request may succeed verbatim on retry.
pub const CONFLICT: i64 = 1000;
/// A fatal engine/storage error.
pub const STORE: i64 = 1001;
/// A named thing (handler, request, fork, patch, table, namespace, row)
/// does not exist.
pub const NOT_FOUND: i64 = 1004;
/// SQL lex/parse/execution error.
pub const QUERY: i64 = 1020;
/// Replay could not run (no transactions, history truncated, ...).
pub const REPLAY: i64 = 1030;
/// Retroactive re-execution could not run.
pub const RETROACTIVE: i64 = 1040;
/// The handler executed and failed with a non-retryable application
/// error; the failure is part of traced history.
pub const HANDLER: i64 = 1050;
/// The server is draining for shutdown; retry against a peer or after
/// restart. Maps to HTTP 503.
pub const DRAINING: i64 = 1503;

/// A typed RPC error: numeric code, human message, machine kind, and the
/// one bit clients key retries off.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcError {
    pub code: i64,
    pub message: String,
    /// Stable machine-readable discriminator (e.g. `"write_conflict"`,
    /// `"history_truncated"`), finer-grained than the numeric code.
    pub kind: String,
    pub retryable: bool,
    /// Extra structured context merged into `error.data`.
    pub details: Vec<(String, Json)>,
}

impl RpcError {
    pub fn new(code: i64, kind: impl Into<String>, message: impl Into<String>) -> Self {
        RpcError {
            code,
            message: message.into(),
            kind: kind.into(),
            retryable: matches!(code, CONFLICT | DRAINING),
            details: Vec::new(),
        }
    }

    pub fn with_detail(mut self, key: impl Into<String>, value: Json) -> Self {
        self.details.push((key.into(), value));
        self
    }

    pub fn invalid_params(message: impl Into<String>) -> Self {
        RpcError::new(INVALID_PARAMS, "invalid_params", message)
    }

    pub fn not_found(kind: impl Into<String>, message: impl Into<String>) -> Self {
        RpcError::new(NOT_FOUND, kind, message)
    }

    pub fn draining() -> Self {
        RpcError::new(
            DRAINING,
            "draining",
            "server is draining for shutdown; retry later",
        )
    }

    /// The HTTP status this error travels under. JSON-RPC errors ride a
    /// 200 response (the RPC layer succeeded); the drain window is the
    /// one exception, surfaced as a real 503 so load balancers and plain
    /// HTTP clients see it too.
    pub fn http_status(&self) -> u16 {
        if self.code == DRAINING {
            503
        } else {
            200
        }
    }

    /// The JSON-RPC `error` member.
    pub fn to_json(&self) -> Json {
        let mut data = vec![
            ("kind".to_string(), Json::str(self.kind.clone())),
            ("retryable".to_string(), Json::Bool(self.retryable)),
        ];
        for (k, v) in &self.details {
            data.push((k.clone(), v.clone()));
        }
        Json::obj(vec![
            ("code", Json::Int(self.code)),
            ("message", Json::str(self.message.clone())),
            ("data", Json::Object(data)),
        ])
    }
}

impl From<&HandlerError> for RpcError {
    fn from(e: &HandlerError) -> Self {
        let (code, kind) = match e {
            HandlerError::NoSuchHandler(_) => (NOT_FOUND, "no_such_handler"),
            HandlerError::BadArgument(_) => (INVALID_PARAMS, "bad_argument"),
            _ if e.is_retryable() => (CONFLICT, "conflict"),
            HandlerError::App(_) => (HANDLER, "application_error"),
            HandlerError::Db(_) => (HANDLER, "database_error"),
        };
        RpcError::new(code, kind, e.to_string())
    }
}

impl From<&DbError> for RpcError {
    /// The kind comes from the variant: `key_value` for a namespace that
    /// does not exist or already does, `storage` for the durability layer,
    /// `relational` for the rest — with `_conflict` appended when the
    /// error is retryable. History below the GC floor of an in-memory
    /// environment is the `history_truncated` error a fork there gets.
    fn from(e: &DbError) -> Self {
        let kind = match e {
            DbError::HistoryTruncated { ts, floor } => {
                return RpcError::new(REPLAY, "history_truncated", e.to_string())
                    .with_detail("snapshot_ts", Json::from(*ts))
                    .with_detail("floor", Json::from(*floor))
            }
            DbError::NoSuchNamespace(_) | DbError::NamespaceExists(_) => "key_value",
            DbError::Storage(_) => "storage",
            _ => "relational",
        };
        if e.is_retryable() {
            RpcError::new(CONFLICT, format!("{kind}_conflict"), e.to_string())
        } else {
            RpcError::new(STORE, kind, e.to_string())
        }
    }
}

impl From<&ReplayError> for RpcError {
    fn from(e: &ReplayError) -> Self {
        match e {
            ReplayError::UnknownRequest(req) => RpcError::not_found(
                "unknown_request",
                format!("no traced request `{req}` in provenance"),
            ),
            ReplayError::Storage(truncated @ DbError::HistoryTruncated { .. }) => {
                RpcError::from(truncated)
            }
            _ => RpcError::new(REPLAY, "replay", e.to_string()),
        }
    }
}

impl From<&QueryError> for RpcError {
    fn from(e: &QueryError) -> Self {
        RpcError::new(QUERY, "query", e.to_string())
    }
}

impl From<&RetroactiveError> for RpcError {
    fn from(e: &RetroactiveError) -> Self {
        match e {
            RetroactiveError::MissingRequestRecord(req) => RpcError::not_found(
                "unknown_request",
                format!("no traced request `{req}` in provenance"),
            ),
            RetroactiveError::Fork(fork) => {
                let mut err = RpcError::from(&ReplayError::from(fork.clone()));
                err.code = RETROACTIVE;
                err
            }
            _ => RpcError::new(RETROACTIVE, "retroactive", e.to_string()),
        }
    }
}

impl From<&WireError> for RpcError {
    fn from(e: &WireError) -> Self {
        RpcError::invalid_params(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trod_db::{DataType, StorageError};

    /// The position of `e`'s variant in [`DbError`]; the match has no
    /// wildcard, so a new variant fails to compile until the table in
    /// `every_engine_error_has_one_code_kind_and_retry_bit` covers it.
    fn variant(e: &DbError) -> usize {
        match e {
            DbError::TableExists(_) => 0,
            DbError::NoSuchTable(_) => 1,
            DbError::NoSuchNamespace(_) => 2,
            DbError::NamespaceExists(_) => 3,
            DbError::NoSuchColumn { .. } => 4,
            DbError::TypeMismatch { .. } => 5,
            DbError::NullViolation { .. } => 6,
            DbError::ArityMismatch { .. } => 7,
            DbError::DuplicateKey { .. } => 8,
            DbError::NoSuchKey { .. } => 9,
            DbError::WriteConflict { .. } => 10,
            DbError::SerializationFailure { .. } => 11,
            DbError::TransactionClosed => 12,
            DbError::HistoryTruncated { .. } => 13,
            DbError::Invalid(_) => 14,
            DbError::Storage(_) => 15,
        }
    }

    /// Every engine error, with the `(code, kind, retryable)` it carries
    /// on the wire: directly (`trod_get`, `trod_sql`, `sys_dump`, …) and
    /// as the error of a failed handler (`trod_invoke`).
    #[test]
    fn every_engine_error_has_one_code_kind_and_retry_bit() {
        let s = |v: &str| v.to_string();
        let (table, column, key) = (s("t"), s("c"), s("[Int(1)]"));
        let relational = (STORE, "relational", false);
        let key_value = (STORE, "key_value", false);
        let storage = (STORE, "storage", false);
        let handler = (HANDLER, "database_error", false);
        let conflict = (CONFLICT, "conflict", true);
        let cases = [
            (DbError::TableExists(s("t")), relational, handler),
            (DbError::NoSuchTable(s("t")), relational, handler),
            (DbError::NoSuchNamespace(s("n")), key_value, handler),
            (DbError::NamespaceExists(s("n")), key_value, handler),
            (
                DbError::NoSuchColumn {
                    table: table.clone(),
                    column: column.clone(),
                },
                relational,
                handler,
            ),
            (
                DbError::TypeMismatch {
                    table: table.clone(),
                    column: column.clone(),
                    expected: DataType::Int,
                    actual: s("Text"),
                },
                relational,
                handler,
            ),
            (
                DbError::NullViolation {
                    table: table.clone(),
                    column,
                },
                relational,
                handler,
            ),
            (
                DbError::ArityMismatch {
                    table: table.clone(),
                    expected: 2,
                    actual: 3,
                },
                relational,
                handler,
            ),
            (
                DbError::DuplicateKey {
                    table: table.clone(),
                    key: key.clone(),
                },
                relational,
                handler,
            ),
            (
                DbError::NoSuchKey {
                    table: table.clone(),
                    key: key.clone(),
                },
                relational,
                handler,
            ),
            (
                DbError::WriteConflict {
                    table: s("kv:n"),
                    key,
                },
                (CONFLICT, "relational_conflict", true),
                conflict,
            ),
            (
                DbError::SerializationFailure {
                    table,
                    detail: s("d"),
                },
                (CONFLICT, "relational_conflict", true),
                conflict,
            ),
            (DbError::TransactionClosed, relational, handler),
            (
                DbError::HistoryTruncated { ts: 3, floor: 9 },
                (REPLAY, "history_truncated", false),
                handler,
            ),
            (DbError::Invalid(s("x")), relational, handler),
            (
                DbError::Storage(StorageError::Io {
                    op: "sync",
                    detail: s("injected"),
                }),
                (CONFLICT, "storage_conflict", true),
                conflict,
            ),
            (
                DbError::Storage(StorageError::Corrupt {
                    offset: 42,
                    detail: s("checksum"),
                }),
                storage,
                handler,
            ),
            (
                DbError::Storage(StorageError::Recovery { detail: s("d") }),
                storage,
                handler,
            ),
            (
                DbError::Storage(StorageError::TooLarge { len: 2, max: 1 }),
                storage,
                handler,
            ),
        ];
        fn triple(e: &RpcError) -> (i64, &str, bool) {
            (e.code, &e.kind, e.retryable)
        }
        let mut covered = [false; 16];
        for (e, direct, via_handler) in cases {
            covered[variant(&e)] = true;
            assert_eq!(triple(&RpcError::from(&e)), direct, "{e:?}");
            let failed = HandlerError::from(e.clone());
            assert_eq!(triple(&RpcError::from(&failed)), via_handler, "{e:?}");
        }
        assert!(covered.iter().all(|c| *c), "{covered:?}");

        assert!(RpcError::draining().retryable);
        assert_eq!(RpcError::draining().http_status(), 503);
    }

    #[test]
    fn history_below_the_floor_is_history_truncated_wherever_it_is_read() {
        let truncated = DbError::HistoryTruncated { ts: 3, floor: 9 };
        let via_fork = RpcError::from(&ReplayError::from(truncated.clone()));
        let via_history = RpcError::from(&truncated);
        assert_eq!(via_fork, via_history);
        let data = via_fork.to_json();
        let data = data.get("data").unwrap();
        assert_eq!(data.get("snapshot_ts").and_then(Json::as_u64), Some(3));
        assert_eq!(data.get("floor").and_then(Json::as_u64), Some(9));
        assert!(via_fork.message.contains("no durable log covers it"));
    }

    #[test]
    fn error_json_carries_kind_and_retryable() {
        let e = RpcError::new(CONFLICT, "write_conflict", "boom")
            .with_detail("table", Json::str("orders"));
        let j = e.to_json();
        assert_eq!(j.get("code").and_then(Json::as_i64), Some(CONFLICT));
        let data = j.get("data").unwrap();
        assert_eq!(data.get("retryable").and_then(Json::as_bool), Some(true));
        assert_eq!(
            data.get("kind").and_then(Json::as_str),
            Some("write_conflict")
        );
        assert_eq!(data.get("table").and_then(Json::as_str), Some("orders"));
    }
}
