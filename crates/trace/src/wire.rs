//! Wire-format serialization for engine types: the JSON encoding of
//! values, change records, aligned-log entries, and traces.
//!
//! This is the one vocabulary shared by the server's JSON-RPC responses,
//! the dump/load file format, and fork-from-instance transfers, so the
//! encoding must be lossless:
//!
//! * `Value::Int` / `Value::Float` stay distinct: integers print bare
//!   (exact to the full `i64` range — the parser keeps undotted literals
//!   as integers), floats always carry a fraction or exponent. A literal
//!   above `i64::MAX` is no `Value`; ids and timestamps are `u64`s and
//!   travel exact up to `u64::MAX`.
//! * Non-finite floats, which JSON cannot express as numbers, are tagged
//!   objects: `{"float":"nan"|"inf"|"-inf"}`.
//! * `Timestamp` and `Bytes` are tagged too (`{"ts":n}`,
//!   `{"bytes":"<hex>"}`) so decoding is type-exact without a schema.
//!
//! Encoding is infallible; decoding returns [`WireError`] with enough
//! context to locate the offending field.

use std::fmt;
use std::sync::Arc;

use trod_db::{ChangeOp, ChangeRecord, CommittedTxn, Key, Row, Value};

use crate::json::Json;
use crate::record::{ReadTrace, TxnContext, TxnTrace};

/// A decoding error: the wire value did not match the expected shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl WireError {
    fn new(detail: impl Into<String>) -> Self {
        WireError(detail.into())
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

type WireResult<T> = Result<T, WireError>;

/// Encodes a cell value. Lossless for every `Value`, including
/// non-finite floats and arbitrary bytes.
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::Int(*i),
        Value::Float(f) if f.is_finite() => Json::Float(*f),
        Value::Float(f) => {
            let tag = if f.is_nan() {
                "nan"
            } else if *f > 0.0 {
                "inf"
            } else {
                "-inf"
            };
            Json::obj(vec![("float", Json::str(tag))])
        }
        Value::Text(s) => Json::str(s.clone()),
        Value::Bytes(b) => Json::obj(vec![("bytes", Json::Str(hex_encode(b)))]),
        Value::Timestamp(t) => Json::obj(vec![("ts", Json::Int(*t))]),
    }
}

/// Decodes a cell value encoded by [`value_to_json`].
pub fn value_from_json(j: &Json) -> WireResult<Value> {
    match j {
        Json::Null => Ok(Value::Null),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Int(i) => Ok(Value::Int(*i)),
        // A cell integer is an `i64`; a larger one is refused, not rounded.
        Json::UInt(u) => Err(WireError::new(format!(
            "integer {u} is above the largest INT {}",
            i64::MAX
        ))),
        Json::Float(f) => Ok(Value::Float(*f)),
        Json::Str(s) => Ok(Value::Text(s.clone())),
        Json::Object(pairs) if pairs.len() == 1 => {
            let (k, v) = &pairs[0];
            match (k.as_str(), v) {
                ("ts", Json::Int(t)) => Ok(Value::Timestamp(*t)),
                ("bytes", Json::Str(h)) => hex_decode(h).map(Value::Bytes),
                ("float", Json::Str(tag)) => match tag.as_str() {
                    "nan" => Ok(Value::Float(f64::NAN)),
                    "inf" => Ok(Value::Float(f64::INFINITY)),
                    "-inf" => Ok(Value::Float(f64::NEG_INFINITY)),
                    other => Err(WireError::new(format!("unknown float tag {other:?}"))),
                },
                _ => Err(WireError::new(format!("unknown tagged value key {k:?}"))),
            }
        }
        other => Err(WireError::new(format!("not a value encoding: {other}"))),
    }
}

/// Encodes a primary key as an array of values.
pub fn key_to_json(key: &Key) -> Json {
    Json::Array(key.values().iter().map(value_to_json).collect())
}

pub fn key_from_json(j: &Json) -> WireResult<Key> {
    let items = j
        .as_array()
        .ok_or_else(|| WireError::new("key must be an array"))?;
    let values = items
        .iter()
        .map(value_from_json)
        .collect::<WireResult<Vec<_>>>()?;
    Ok(Key::new(values))
}

/// Encodes a row as an array of values.
pub fn row_to_json(row: &Row) -> Json {
    Json::Array(row.values().iter().map(value_to_json).collect())
}

pub fn row_from_json(j: &Json) -> WireResult<Row> {
    let items = j
        .as_array()
        .ok_or_else(|| WireError::new("row must be an array"))?;
    let mut row = Row::with_capacity(items.len());
    for item in items {
        row.push(value_from_json(item)?);
    }
    Ok(row)
}

/// Encodes one CDC record:
/// `{"table":…,"key":[…],"op":"insert","after":[…]}` (before/after images
/// present per op kind).
pub fn change_to_json(c: &ChangeRecord) -> Json {
    let mut pairs = vec![
        ("table", Json::str(&*c.table)),
        ("key", key_to_json(&c.key)),
    ];
    match &c.op {
        ChangeOp::Insert { after } => {
            pairs.push(("op", Json::str("insert")));
            pairs.push(("after", row_to_json(after)));
        }
        ChangeOp::Update { before, after } => {
            pairs.push(("op", Json::str("update")));
            pairs.push(("before", row_to_json(before)));
            pairs.push(("after", row_to_json(after)));
        }
        ChangeOp::Delete { before } => {
            pairs.push(("op", Json::str("delete")));
            pairs.push(("before", row_to_json(before)));
        }
    }
    Json::obj(pairs)
}

pub fn change_from_json(j: &Json) -> WireResult<ChangeRecord> {
    let table = req_str(j, "table")?.into();
    let key = key_from_json(req(j, "key")?)?;
    let op = match req_str(j, "op")? {
        "insert" => ChangeOp::Insert {
            after: Arc::new(row_from_json(req(j, "after")?)?),
        },
        "update" => ChangeOp::Update {
            before: Arc::new(row_from_json(req(j, "before")?)?),
            after: Arc::new(row_from_json(req(j, "after")?)?),
        },
        "delete" => ChangeOp::Delete {
            before: Arc::new(row_from_json(req(j, "before")?)?),
        },
        other => return Err(WireError::new(format!("unknown change op {other:?}"))),
    };
    Ok(ChangeRecord { table, key, op })
}

/// Encodes one aligned-log entry (identity included: txn id and both
/// timestamps travel verbatim, which dump/load and fork-from-instance
/// rely on to reconstruct byte-identical history).
pub fn txn_to_json(t: &CommittedTxn) -> Json {
    Json::obj(vec![
        ("txn_id", Json::from(t.txn_id)),
        ("start_ts", Json::from(t.start_ts)),
        ("commit_ts", Json::from(t.commit_ts)),
        (
            "changes",
            Json::Array(t.changes.iter().map(change_to_json).collect()),
        ),
    ])
}

pub fn txn_from_json(j: &Json) -> WireResult<CommittedTxn> {
    Ok(CommittedTxn {
        txn_id: req_u64(j, "txn_id")?,
        start_ts: req_u64(j, "start_ts")?,
        commit_ts: req_u64(j, "commit_ts")?,
        changes: req_array(j, "changes")?
            .iter()
            .map(change_from_json)
            .collect::<WireResult<_>>()?,
    })
}

/// Encodes one logical read with the rows it observed.
pub fn read_to_json(r: &ReadTrace) -> Json {
    Json::obj(vec![
        ("table", Json::str(r.table.clone())),
        ("query", Json::str(r.query.clone())),
        ("read_ts", Json::from(r.read_ts)),
        (
            "rows",
            Json::Array(
                r.rows
                    .iter()
                    .map(|(k, row)| {
                        Json::obj(vec![("key", key_to_json(k)), ("row", row_to_json(row))])
                    })
                    .collect(),
            ),
        ),
    ])
}

pub fn read_from_json(j: &Json) -> WireResult<ReadTrace> {
    let rows = req_array(j, "rows")?
        .iter()
        .map(|item| {
            Ok((
                key_from_json(req(item, "key")?)?,
                Arc::new(row_from_json(req(item, "row")?)?),
            ))
        })
        .collect::<WireResult<_>>()?;
    Ok(ReadTrace {
        table: req_str(j, "table")?.to_string(),
        query: req_str(j, "query")?.to_string(),
        read_ts: req_u64(j, "read_ts")?,
        rows,
    })
}

/// Encodes a full transaction trace: context, timestamps, read and write
/// provenance. The shape mirrors the paper's Tables 1–2.
pub fn txn_trace_to_json(t: &TxnTrace) -> Json {
    Json::obj(vec![
        ("txn_id", Json::from(t.txn_id)),
        ("req_id", Json::str(t.ctx.req_id.clone())),
        ("handler", Json::str(t.ctx.handler.clone())),
        ("function", Json::str(t.ctx.function.clone())),
        ("timestamp", Json::Int(t.timestamp)),
        ("snapshot_ts", Json::from(t.snapshot_ts)),
        ("commit_ts", Json::from(t.commit_ts)),
        ("committed", Json::Bool(t.committed)),
        (
            "reads",
            Json::Array(t.reads.iter().map(read_to_json).collect()),
        ),
        (
            "writes",
            Json::Array(t.writes.iter().map(change_to_json).collect()),
        ),
    ])
}

pub fn txn_trace_from_json(j: &Json) -> WireResult<TxnTrace> {
    Ok(TxnTrace {
        txn_id: req_u64(j, "txn_id")?,
        ctx: TxnContext::new(
            req_str(j, "req_id")?,
            req_str(j, "handler")?,
            req_str(j, "function")?,
        ),
        timestamp: req_i64(j, "timestamp")?,
        snapshot_ts: req_u64(j, "snapshot_ts")?,
        commit_ts: req_u64(j, "commit_ts")?,
        committed: req(j, "committed")?
            .as_bool()
            .ok_or_else(|| WireError::new("committed must be a bool"))?,
        reads: req_array(j, "reads")?
            .iter()
            .map(read_from_json)
            .collect::<WireResult<_>>()?,
        writes: req_array(j, "writes")?
            .iter()
            .map(change_from_json)
            .collect::<WireResult<_>>()?,
    })
}

fn req<'a>(j: &'a Json, key: &str) -> WireResult<&'a Json> {
    j.get(key)
        .ok_or_else(|| WireError::new(format!("missing field {key:?}")))
}

fn req_str<'a>(j: &'a Json, key: &str) -> WireResult<&'a str> {
    req(j, key)?
        .as_str()
        .ok_or_else(|| WireError::new(format!("field {key:?} must be a string")))
}

fn req_u64(j: &Json, key: &str) -> WireResult<u64> {
    req(j, key)?
        .as_u64()
        .ok_or_else(|| WireError::new(format!("field {key:?} must be a non-negative integer")))
}

fn req_i64(j: &Json, key: &str) -> WireResult<i64> {
    req(j, key)?
        .as_i64()
        .ok_or_else(|| WireError::new(format!("field {key:?} must be an integer")))
}

fn req_array<'a>(j: &'a Json, key: &str) -> WireResult<&'a [Json]> {
    req(j, key)?
        .as_array()
        .ok_or_else(|| WireError::new(format!("field {key:?} must be an array")))
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        use fmt::Write as _;
        let _ = write!(out, "{b:02x}");
    }
    out
}

fn hex_decode(s: &str) -> WireResult<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return Err(WireError::new("odd-length hex string"));
    }
    let digit = |c: u8| -> WireResult<u8> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(WireError::new("invalid hex digit")),
        }
    };
    s.as_bytes()
        .chunks(2)
        .map(|pair| Ok(digit(pair[0])? * 16 + digit(pair[1])?))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mkrow(vals: &[Value]) -> Row {
        let mut row = Row::with_capacity(vals.len());
        for v in vals {
            row.push(v.clone());
        }
        row
    }

    fn sample_values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::Int(9007199254740993),
            Value::Float(1.5),
            Value::Float(3.0),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Text("quote \" slash \\ nl \n".to_string()),
            Value::Bytes(vec![0, 1, 2, 254, 255]),
            Value::Timestamp(-77),
        ]
    }

    #[test]
    fn values_round_trip_through_text() {
        for v in sample_values() {
            let text = value_to_json(&v).to_string();
            let back = value_from_json(&Json::parse(&text).unwrap()).unwrap();
            match (&v, &back) {
                (Value::Float(a), Value::Float(b)) if a.is_nan() => assert!(b.is_nan()),
                _ => assert_eq!(
                    format!("{v:?}"),
                    format!("{back:?}"),
                    "value {v:?} did not round-trip"
                ),
            }
        }
    }

    #[test]
    fn committed_txn_round_trips() {
        for (txn_id, start_ts, commit_ts) in [(42, 7, 9), (u64::MAX - 1, 1 << 63, (1 << 63) + 5)] {
            committed_txn_round_trips_at(txn_id, start_ts, commit_ts);
        }
    }

    fn committed_txn_round_trips_at(txn_id: u64, start_ts: u64, commit_ts: u64) {
        let entry = CommittedTxn {
            txn_id,
            start_ts,
            commit_ts,
            changes: vec![
                ChangeRecord::insert(
                    "orders",
                    Key::single("O1"),
                    mkrow(&[Value::Text("O1".into()), Value::Int(3)]),
                ),
                ChangeRecord::update(
                    "kv:cart",
                    Key::single("C1"),
                    mkrow(&[Value::Text("a".into())]),
                    mkrow(&[Value::Text("b".into())]),
                ),
                ChangeRecord::delete(
                    "orders",
                    Key::new(vec![Value::Int(1), Value::Timestamp(5)]),
                    mkrow(&[Value::Bytes(vec![9, 8])]),
                ),
            ]
            .into(),
        };
        let text = txn_to_json(&entry).to_string();
        let back = txn_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, entry);
    }

    #[test]
    fn txn_trace_round_trips() {
        let trace = TxnTrace {
            txn_id: 5,
            ctx: TxnContext::new("R1", "checkout", "func:pay"),
            timestamp: 123,
            snapshot_ts: 4,
            commit_ts: 6,
            committed: true,
            reads: vec![ReadTrace {
                table: "orders".into(),
                query: "orders[O1]".into(),
                read_ts: 4,
                rows: vec![(Key::single("O1"), Arc::new(mkrow(&[Value::Int(1)])))],
            }],
            writes: Arc::new([ChangeRecord::insert(
                "orders",
                Key::single("O2"),
                mkrow(&[Value::Int(2)]),
            )]),
        };
        let text = txn_trace_to_json(&trace).to_string();
        assert_eq!(
            txn_trace_from_json(&Json::parse(&text).unwrap()).unwrap(),
            trace
        );
    }

    #[test]
    fn decode_rejects_malformed() {
        for bad in [
            "{}",
            "{\"float\":\"huge\"}",
            "{\"bytes\":\"abc\"}",
            "{\"bytes\":\"zz\"}",
            "{\"ts\":\"x\"}",
            "9223372036854775808",
            "18446744073709551615",
            "{\"ts\":9223372036854775808}",
        ] {
            assert!(
                value_from_json(&Json::parse(bad).unwrap()).is_err(),
                "expected decode failure for {bad}"
            );
        }
    }
}
