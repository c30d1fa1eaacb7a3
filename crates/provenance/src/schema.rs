//! Provenance table layouts.
//!
//! The provenance database mirrors the paper's §3.4 structure:
//!
//! * `Executions` — one row per traced transaction (the paper's Table 1,
//!   there called the "Invocations"/transaction execution log).
//! * `Requests` — one row per handler invocation (start/end, arguments,
//!   output), giving the workflow structure of each request. It is the
//!   only copy: a [`RequestRecord`] is a decoded row (`request_of`).
//! * `ExternalCalls` — external-service call intents.
//! * One `<X>Events` table per registered application table (the paper's
//!   Table 2, e.g. `ForumEvents`), holding row-level read and write
//!   provenance with the application table's own columns inlined. A read
//!   event also records the read's `ReadTs` and its position `ReadNo`
//!   among its transaction's reads.

//!
//! The row constructors below are the only code that knows the column
//! order of these layouts; ingest builds every provenance row through
//! them.

use std::ops::Range;
use std::sync::Arc;

use trod_db::{ChangeRecord, Column, DataType, DbResult, Key, Row, Schema, Ts, Value};
use trod_trace::{TxnContext, TxnTrace};

use crate::store::RequestRecord;

/// Name of the transaction-execution log table.
pub const EXECUTIONS_TABLE: &str = "Executions";
/// Name of the handler-invocation table.
pub const REQUESTS_TABLE: &str = "Requests";
/// Name of the external-call table.
pub const EXTERNAL_CALLS_TABLE: &str = "ExternalCalls";

/// Schema of the `Executions` table (paper Table 1 plus the timestamps
/// TROD needs internally for replay, and where the transaction's events
/// are: its `<X>Events` rows have the `Events` consecutive `EventId`s from
/// `FirstEventId` on).
pub fn executions_schema() -> Schema {
    Schema::builder()
        .column("TxnId", DataType::Int)
        .column("Timestamp", DataType::Timestamp)
        .column("HandlerName", DataType::Text)
        .column("ReqId", DataType::Text)
        .column("Metadata", DataType::Text)
        .column("SnapshotTs", DataType::Int)
        .column("CommitTs", DataType::Int)
        .column("Committed", DataType::Bool)
        .column("FirstEventId", DataType::Int)
        .column("Events", DataType::Int)
        .primary_key(&["TxnId"])
        .build()
        .expect("static schema must be valid")
}

/// Schema of the `Requests` table. `Args` holds a handler's arguments as
/// the text of the JSON object `trod_invoke` takes (`Args::to_json` in
/// `trod-runtime`: one member per argument, each value in the wire
/// encoding), so a query or a wire client reads them as data;
/// redaction overwrites it with [`REDACTED_MARKER`](crate::REDACTED_MARKER),
/// which is no JSON.
pub fn requests_schema() -> Schema {
    Schema::builder()
        .column("ReqId", DataType::Text)
        .column("HandlerName", DataType::Text)
        .nullable("Parent", DataType::Text)
        .column("Args", DataType::Text)
        .nullable("Output", DataType::Text)
        .nullable("Ok", DataType::Bool)
        .column("StartTs", DataType::Timestamp)
        .nullable("EndTs", DataType::Timestamp)
        .primary_key(&["ReqId", "HandlerName", "StartTs"])
        .build()
        .expect("static schema must be valid")
}

/// Schema of the `ExternalCalls` table.
pub fn external_calls_schema() -> Schema {
    Schema::builder()
        .column("EventId", DataType::Int)
        .column("ReqId", DataType::Text)
        .column("HandlerName", DataType::Text)
        .column("Service", DataType::Text)
        .column("Payload", DataType::Text)
        .column("Timestamp", DataType::Timestamp)
        .primary_key(&["EventId"])
        .build()
        .expect("static schema must be valid")
}

/// The provenance columns every event table starts with. `ReadTs` and
/// `ReadNo` are NULL on write events.
const EVENT_COLUMNS: [&str; 6] = ["EventId", "TxnId", "Type", "Query", "ReadTs", "ReadNo"];

/// Position of the first application column in an event row.
pub(crate) const FIRST_APP_COLUMN: usize = EVENT_COLUMNS.len();

/// The event-table name of each application column, by position: its own
/// name, or `App_<name>` where it collides with a column before it (e.g.
/// an application `Type` column). A [`Key`] of the application table is
/// the values of the columns at its schema's `primary_key()` positions.
pub fn event_column_names(app_schema: &Schema) -> Vec<String> {
    let mut names: Vec<String> = EVENT_COLUMNS.map(String::from).to_vec();
    for col in app_schema.columns() {
        let collides = names.iter().any(|n| n.eq_ignore_ascii_case(&col.name));
        let prefix = if collides { "App_" } else { "" };
        names.push(format!("{prefix}{}", col.name));
    }
    names.split_off(EVENT_COLUMNS.len())
}

/// Builds the event-table schema for an application table: the fixed
/// provenance columns followed by the application table's own columns
/// (all made nullable, because read events that matched nothing carry
/// NULLs — see the first two rows of the paper's Table 2), named by
/// [`event_column_names`].
pub fn event_table_schema(app_schema: &Schema) -> DbResult<Schema> {
    let mut columns = vec![
        Column::new(EVENT_COLUMNS[0], DataType::Int),
        Column::new(EVENT_COLUMNS[1], DataType::Int),
        Column::new(EVENT_COLUMNS[2], DataType::Text),
        Column::new(EVENT_COLUMNS[3], DataType::Text),
        Column::nullable(EVENT_COLUMNS[4], DataType::Int),
        Column::nullable(EVENT_COLUMNS[5], DataType::Int),
    ];
    let names = event_column_names(app_schema);
    for (name, col) in names.into_iter().zip(app_schema.columns()) {
        columns.push(Column::nullable(name, col.dtype));
    }
    Schema::new(columns, &["EventId"])
}

/// The `Executions` row of a traced transaction whose event rows have the
/// `EventId`s `events`.
pub(crate) fn executions_row(trace: &TxnTrace, events: Range<i64>) -> Row {
    Row::from(vec![
        Value::Int(trace.txn_id as i64),
        Value::Timestamp(trace.timestamp),
        Value::Text(trace.ctx.handler.clone()),
        Value::Text(trace.ctx.req_id.clone()),
        Value::Text(trace.ctx.function.clone()),
        Value::Int(trace.snapshot_ts as i64),
        Value::Int(trace.commit_ts as i64),
        Value::Bool(trace.committed),
        Value::Int(events.start),
        Value::Int(events.end - events.start),
    ])
}

/// The `EventId`s of the event rows of an `Executions` row's transaction.
pub(crate) fn event_ids(row: &Row) -> Range<i64> {
    let int = |i| row.get(i).and_then(Value::as_int).unwrap_or_default();
    int(8)..int(8) + int(9)
}

/// Decodes an `Executions` row: the inverse of [`executions_row`], with
/// no reads or writes.
pub(crate) fn trace_of(row: &Row) -> TxnTrace {
    let text = |i| row.get(i).and_then(Value::as_text).unwrap_or_default();
    let int = |i| row.get(i).and_then(Value::as_int).unwrap_or_default();
    TxnTrace {
        txn_id: int(0) as u64,
        ctx: TxnContext::new(text(3), text(2), text(4)),
        timestamp: int(1),
        snapshot_ts: int(5) as Ts,
        commit_ts: int(6) as Ts,
        committed: row.get(7).and_then(Value::as_bool).unwrap_or_default(),
        reads: Vec::new(),
        writes: Arc::new([]),
    }
}

/// The `Requests` row of a handler invocation.
pub(crate) fn requests_row(rec: RequestRecord) -> Row {
    let text = |s: Option<String>| s.map_or(Value::Null, Value::Text);
    Row::from(vec![
        Value::Text(rec.req_id),
        Value::Text(rec.handler),
        text(rec.parent),
        Value::Text(rec.args),
        text(rec.output),
        rec.ok.map_or(Value::Null, Value::Bool),
        Value::Timestamp(rec.start_ts),
        rec.end_ts.map_or(Value::Null, Value::Timestamp),
    ])
}

/// Decodes a `Requests` row: the inverse of [`requests_row`].
pub(crate) fn request_of(row: &Row) -> RequestRecord {
    let text = |i| row.get(i).and_then(Value::as_text).map(str::to_string);
    let ts = |i| row.get(i).and_then(Value::as_int);
    RequestRecord {
        req_id: text(0).unwrap_or_default(),
        handler: text(1).unwrap_or_default(),
        parent: text(2),
        args: text(3).unwrap_or_default(),
        output: text(4),
        ok: row.get(5).and_then(Value::as_bool),
        start_ts: ts(6).unwrap_or_default(),
        end_ts: ts(7),
    }
}

/// The `Requests` key of the invocation of `handler` in `req_id` that
/// started at `start_ts`.
pub(crate) fn requests_key(req_id: String, handler: String, start_ts: i64) -> Key {
    Key::new(vec![
        Value::Text(req_id),
        Value::Text(handler),
        Value::Timestamp(start_ts),
    ])
}

/// The change record that installs `rec` in `Requests` (`table`, its
/// interned name): an insert, or — when the invocation's earlier image
/// `before` is already installed — an update of that row.
pub(crate) fn requests_change(
    table: &Arc<str>,
    rec: RequestRecord,
    before: Option<Arc<Row>>,
) -> ChangeRecord {
    let key = requests_key(rec.req_id.clone(), rec.handler.clone(), rec.start_ts);
    match before {
        Some(before) => ChangeRecord::update(table.clone(), key, before, requests_row(rec)),
        None => ChangeRecord::insert(table.clone(), key, requests_row(rec)),
    }
}

/// An `ExternalCalls` row.
pub(crate) fn external_call_row(
    event_id: i64,
    req_id: String,
    handler: String,
    service: String,
    payload: String,
    timestamp: i64,
) -> Row {
    Row::from(vec![
        Value::Int(event_id),
        Value::Text(req_id),
        Value::Text(handler),
        Value::Text(service),
        Value::Text(payload),
        Value::Timestamp(timestamp),
    ])
}

/// A row of an event table with `app_cols` application columns: the fixed
/// provenance columns, then the image's values (NULLs without an image).
/// `read` is a read event's `(ReadTs, ReadNo)`.
pub(crate) fn event_row(
    event_id: i64,
    txn_id: i64,
    kind: &str,
    query: &str,
    read: Option<(Ts, usize)>,
    app_cols: usize,
    image: Option<&Row>,
) -> Row {
    let mut values = Vec::with_capacity(FIRST_APP_COLUMN + app_cols);
    let (read_ts, read_no) = match read {
        Some((ts, no)) => (Value::Int(ts as i64), Value::Int(no as i64)),
        None => (Value::Null, Value::Null),
    };
    values.extend([
        Value::Int(event_id),
        Value::Int(txn_id),
        Value::Text(kind.to_string()),
        Value::Text(query.to_string()),
        read_ts,
        read_no,
    ]);
    let image = (0..app_cols).map(|i| image.and_then(|row| row.get(i)));
    values.extend(image.map(|v| v.cloned().unwrap_or(Value::Null)));
    Row::from(values)
}

/// Derives the default event-table name for an application table:
/// `forum_sub` → `ForumSubEvents`, the namespace table `kv:carts` →
/// `KvCartsEvents`.
pub fn default_event_table_name(app_table: &str) -> String {
    let mut out = String::new();
    for part in app_table.split(['_', '-', ':']) {
        let mut chars = part.chars();
        if let Some(first) = chars.next() {
            out.extend(first.to_uppercase());
            out.push_str(chars.as_str());
        }
    }
    out.push_str("Events");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_schemas_have_expected_columns() {
        let e = executions_schema();
        assert_eq!(e.primary_key().len(), 1);
        assert!(e.column_index("HandlerName").is_some());
        assert!(e.column_index("CommitTs").is_some());

        let r = requests_schema();
        assert_eq!(r.primary_key().len(), 3);
        assert!(r.column_index("Output").is_some());

        let x = external_calls_schema();
        assert!(x.column_index("Service").is_some());
    }

    #[test]
    fn event_table_schema_appends_app_columns_as_nullable() {
        let app = Schema::builder()
            .column("user_id", DataType::Text)
            .column("forum", DataType::Text)
            .primary_key(&["user_id", "forum"])
            .build()
            .unwrap();
        let ev = event_table_schema(&app).unwrap();
        assert_eq!(ev.arity(), 6 + 2);
        let user_col = ev.column(ev.column_index("user_id").unwrap()).unwrap();
        assert!(user_col.nullable);
    }

    #[test]
    fn event_table_schema_renames_colliding_columns() {
        let app = Schema::builder()
            .column("id", DataType::Int)
            .column("Type", DataType::Text)
            .primary_key(&["id"])
            .build()
            .unwrap();
        let ev = event_table_schema(&app).unwrap();
        assert!(ev.column_index("App_Type").is_some());
        assert_eq!(event_column_names(&app), ["id", "App_Type"]);
        // The provenance `Type` column is still the third column.
        assert_eq!(ev.column_index("Type"), Some(2));
    }

    #[test]
    fn default_event_table_names() {
        assert_eq!(default_event_table_name("forum_sub"), "ForumSubEvents");
        assert_eq!(default_event_table_name("profiles"), "ProfilesEvents");
        assert_eq!(default_event_table_name("site_link"), "SiteLinkEvents");
        assert_eq!(default_event_table_name("kv:carts"), "KvCartsEvents");
    }
}
