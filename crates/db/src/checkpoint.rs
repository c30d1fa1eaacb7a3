//! Environment checkpoints: whole-environment state snapshots.
//!
//! A [`Checkpoint`] captures one MVCC-consistent image of the entire
//! environment — every relational table (schema, secondary indexes and
//! all rows visible at the checkpoint timestamp), every key-value
//! namespace, the commit clock and the transaction-id high-water mark —
//! serialized with the same CRC discipline as WAL frames and the
//! MANIFEST. Checkpoints are written by
//! [`crate::segment::SegmentedWal::write_checkpoint`] on the post-ack
//! path and tracked in the MANIFEST alongside segments, so recovery can
//! boot from the newest valid one and replay only the WAL tail after it
//! (lifecycle and retention: "The durable log" in `crates/db/DESIGN.md`).
//!
//! # Consistency model
//!
//! The capture reads `ts = ` the *published* commit clock, then takes a
//! time-travel snapshot of every store at exactly that timestamp. Because
//! commit order equals WAL byte order, every commit with
//! `commit_ts <= ts` lies entirely in WAL bytes the checkpoint covers;
//! recovery skips those bytes and replays only records after the cut.
//! DDL records are untimestamped, so they are replayed *idempotently* on
//! a checkpoint boot: creating an object that the checkpoint already
//! restored is a no-op, which is sound because the WAL vocabulary has no
//! drop records — an object is only ever created once.

use std::sync::Arc;

use crate::error::StorageError;
use crate::mvcc::Ts;
use crate::row::{Key, Row};
use crate::schema::{Column, Schema};
use crate::value::DataType;
use crate::wal::{
    crc32, dtype_tag, put_str, put_u32, put_u64, put_values, Cursor, MIN_COLUMN_LEN, MIN_STR_LEN,
};

/// Magic prefix of a checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"TRODCK01";
const CHECKPOINT_VERSION: u32 = 1;

/// One relational table inside a [`Checkpoint`]: schema, index columns
/// and every row visible at the checkpoint timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointTable {
    pub name: String,
    pub schema: Schema,
    /// Indexed columns.
    pub indexes: Vec<String>,
    /// Live rows at the checkpoint timestamp, keyed by primary key —
    /// shared with the version store they were captured from or are
    /// restored into, never copied.
    pub rows: Vec<(Key, Arc<Row>)>,
}

/// One key-value namespace inside a [`Checkpoint`]: every live entry at
/// the checkpoint timestamp, in key order. Namespaces are stored as
/// `kv:<name>` tables but written here, not in the table section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointNamespace {
    pub name: String,
    pub entries: Vec<(String, String)>,
}

/// A whole-environment snapshot at one commit timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The published commit timestamp the snapshot was taken at.
    pub ts: Ts,
    /// Transaction-id high-water mark at capture time, so recovered
    /// databases never reuse an id the checkpointed history handed out.
    pub next_txn_id: u64,
    pub tables: Vec<CheckpointTable>,
    pub namespaces: Vec<CheckpointNamespace>,
}

/// File name of a checkpoint at `ts` (fixed-width, so names sort by ts).
pub(crate) fn checkpoint_name(ts: Ts) -> String {
    format!("ckpt-{ts:020}.ckpt")
}

/// Parses `ckpt-<ts>.ckpt` back to its timestamp.
pub(crate) fn parse_checkpoint_name(name: &str) -> Option<Ts> {
    let digits = name.strip_prefix("ckpt-")?.strip_suffix(".ckpt")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn ckpt_corrupt(offset: u64, detail: impl Into<String>) -> StorageError {
    StorageError::Corrupt {
        offset,
        detail: format!("checkpoint: {}", detail.into()),
    }
}

/// Serializes a checkpoint: magic, the standard CRC frame header
/// (payload length, payload CRC, header CRC), then the payload. The
/// whole file is one frame — a checkpoint is valid in its entirety or
/// not at all.
pub fn encode_checkpoint(ck: &Checkpoint) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1024);
    put_u32(&mut payload, CHECKPOINT_VERSION);
    put_u64(&mut payload, ck.ts);
    put_u64(&mut payload, ck.next_txn_id);
    put_u32(&mut payload, ck.tables.len() as u32);
    for t in &ck.tables {
        put_str(&mut payload, &t.name);
        put_u32(&mut payload, t.schema.columns().len() as u32);
        for col in t.schema.columns() {
            put_str(&mut payload, &col.name);
            payload.push(dtype_tag(col.dtype));
            payload.push(col.nullable as u8);
        }
        // Primary key as column names, mirroring the WAL's CreateTable
        // encoding, so the schema round-trips through `Schema::new`.
        put_u32(&mut payload, t.schema.primary_key().len() as u32);
        for &idx in t.schema.primary_key() {
            put_str(&mut payload, &t.schema.columns()[idx].name);
        }
        put_u32(&mut payload, t.indexes.len() as u32);
        for c in &t.indexes {
            put_str(&mut payload, c);
        }
        // The second index list once held the ordered indexes; it keeps
        // its place, written empty (and merged into the first on read).
        put_u32(&mut payload, 0);
        put_u64(&mut payload, t.rows.len() as u64);
        for (key, row) in &t.rows {
            put_values(&mut payload, key.values());
            put_values(&mut payload, row.values());
        }
    }
    put_u32(&mut payload, ck.namespaces.len() as u32);
    for ns in &ck.namespaces {
        put_str(&mut payload, &ns.name);
        put_u64(&mut payload, ns.entries.len() as u64);
        for (k, v) in &ns.entries {
            put_str(&mut payload, k);
            put_str(&mut payload, v);
        }
    }

    let mut out = Vec::with_capacity(8 + 12 + payload.len());
    out.extend_from_slice(CHECKPOINT_MAGIC);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    let hdr_crc = crc32(&out[8..16]);
    put_u32(&mut out, hdr_crc);
    out.extend_from_slice(&payload);
    out
}

/// Decodes and fully validates a checkpoint file. Every failure is a
/// typed [`StorageError::Corrupt`] — the caller falls back to an older
/// checkpoint or full replay, never to a silently partial state.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, StorageError> {
    if bytes.len() < 8 + 12 {
        return Err(ckpt_corrupt(0, "truncated checkpoint"));
    }
    if &bytes[..8] != CHECKPOINT_MAGIC {
        return Err(ckpt_corrupt(0, "bad magic"));
    }
    let hdr = &bytes[8..20];
    let stored_hdr_crc = u32::from_le_bytes(hdr[8..12].try_into().unwrap());
    if crc32(&hdr[0..8]) != stored_hdr_crc {
        return Err(ckpt_corrupt(8, "header checksum mismatch"));
    }
    let len = u32::from_le_bytes(hdr[0..4].try_into().unwrap()) as usize;
    if bytes.len() != 20 + len {
        return Err(ckpt_corrupt(
            20,
            format!(
                "payload length mismatch: header says {len}, have {}",
                bytes.len() - 20
            ),
        ));
    }
    let payload = &bytes[20..];
    let stored_crc = u32::from_le_bytes(hdr[4..8].try_into().unwrap());
    if crc32(payload) != stored_crc {
        return Err(ckpt_corrupt(20, "payload checksum mismatch"));
    }
    decode_payload(payload).map_err(|detail| ckpt_corrupt(20, detail))
}

/// Fewest bytes a table encodes in: name, column, primary-key and two
/// index counts, row count.
const MIN_TABLE_LEN: usize = MIN_STR_LEN + 4 * 4 + 8;
/// Fewest bytes a row encodes in: the key's and the image's value counts.
const MIN_ROW_LEN: usize = 2 * 4;
/// Fewest bytes a namespace encodes in: name, entry count.
const MIN_NAMESPACE_LEN: usize = MIN_STR_LEN + 8;

fn decode_payload(payload: &[u8]) -> Result<Checkpoint, String> {
    let mut c = Cursor::new(payload);
    let version = c.u32()?;
    if version != CHECKPOINT_VERSION {
        return Err(format!("unsupported checkpoint version {version}"));
    }
    let ts = c.u64()?;
    let next_txn_id = c.u64()?;
    let n_tables = c.count(MIN_TABLE_LEN, "table")?;
    let mut tables = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let name = c.str()?;
        let ncols = c.count(MIN_COLUMN_LEN, "column")?;
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let col_name = c.str()?;
            let dtype: DataType = c.dtype()?;
            let nullable = c.u8()? != 0;
            columns.push(if nullable {
                Column::nullable(col_name, dtype)
            } else {
                Column::new(col_name, dtype)
            });
        }
        let npk = c.count(MIN_STR_LEN, "pk")?;
        let mut pk = Vec::with_capacity(npk);
        for _ in 0..npk {
            pk.push(c.str()?);
        }
        let pk_refs: Vec<&str> = pk.iter().map(String::as_str).collect();
        let schema = Schema::new(columns, &pk_refs)
            .map_err(|e| format!("invalid schema for `{name}`: {e}"))?;
        // Two lists, merged: a column listed in both (possible in
        // checkpoints written before the index kinds merged) has one index.
        let mut indexes: Vec<String> = Vec::new();
        for _ in 0..2 {
            for _ in 0..c.count(MIN_STR_LEN, "index")? {
                let column = c.str()?;
                if !indexes.contains(&column) {
                    indexes.push(column);
                }
            }
        }
        let n_rows = c.count_u64(MIN_ROW_LEN, "row")?;
        let mut rows = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            let key = Key::from(c.values()?);
            let row = Arc::new(Row::from(c.values()?));
            rows.push((key, row));
        }
        tables.push(CheckpointTable {
            name,
            schema,
            indexes,
            rows,
        });
    }
    let n_ns = c.count(MIN_NAMESPACE_LEN, "namespace")?;
    let mut namespaces = Vec::with_capacity(n_ns);
    for _ in 0..n_ns {
        let name = c.str()?;
        let n_entries = c.count_u64(2 * MIN_STR_LEN, "entry")?;
        let mut entries = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            let k = c.str()?;
            let v = c.str()?;
            entries.push((k, v));
        }
        namespaces.push(CheckpointNamespace { name, entries });
    }
    if c.remaining() != 0 {
        return Err(format!("{} trailing bytes", c.remaining()));
    }
    Ok(Checkpoint {
        ts,
        next_txn_id,
        tables,
        namespaces,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::value::Value;

    fn sample() -> Checkpoint {
        let schema = Schema::builder()
            .column("id", DataType::Int)
            .column("name", DataType::Text)
            .nullable("score", DataType::Float)
            .primary_key(&["id"])
            .build()
            .unwrap();
        Checkpoint {
            ts: 42,
            next_txn_id: 7,
            tables: vec![CheckpointTable {
                name: "users".to_string(),
                schema,
                indexes: vec!["name".to_string(), "score".to_string()],
                rows: vec![
                    (Key::single(1i64), Arc::new(row![1i64, "alice", 3.5f64])),
                    (Key::single(2i64), Arc::new(row![2i64, "bob", Value::Null])),
                ],
            }],
            namespaces: vec![CheckpointNamespace {
                name: "cache".to_string(),
                entries: vec![("k1".to_string(), "v1".to_string())],
            }],
        }
    }

    #[test]
    fn round_trips() {
        let ck = sample();
        let bytes = encode_checkpoint(&ck);
        assert_eq!(decode_checkpoint(&bytes).unwrap(), ck);
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = encode_checkpoint(&sample());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert!(
                decode_checkpoint(&bad).is_err(),
                "bit flip at byte {i} went undetected"
            );
        }
        for cut in 0..bytes.len() {
            assert!(decode_checkpoint(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn name_round_trips() {
        let name = checkpoint_name(12345);
        assert_eq!(parse_checkpoint_name(&name), Some(12345));
        assert_eq!(parse_checkpoint_name("ckpt-.ckpt"), None);
        assert_eq!(parse_checkpoint_name("ckpt-12x45.ckpt"), None);
        assert_eq!(parse_checkpoint_name("wal-000001.seg"), None);
    }
}
