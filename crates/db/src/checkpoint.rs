//! Environment checkpoints: whole-environment state snapshots.
//!
//! A [`Checkpoint`] captures one MVCC-consistent image of the entire
//! environment — every table (schema, secondary indexes and all rows
//! visible at the checkpoint timestamp; a key-value namespace is its
//! `kv:<name>` table), the commit clock and the transaction-id high-water
//! mark — serialized as a sealed file, the frame the MANIFEST shares
//! (`wal::seal`). Checkpoints are written by
//! [`crate::segment::SegmentedWal::write_checkpoint`] on the post-ack
//! path and tracked in the MANIFEST alongside segments, so recovery can
//! boot from the newest valid one and replay only the WAL tail after it
//! (lifecycle and retention: "The durable log" in `crates/db/DESIGN.md`).
//!
//! # Consistency model
//!
//! The capture first reads `sealed_below`, the active segment's sequence
//! number, then `ts = ` the *published* commit clock, then takes a
//! time-travel snapshot of every store at exactly that timestamp.
//! Recovery works at file granularity. It drops every commit with
//! `commit_ts <= ts` as it is decoded, and it skips a whole sealed file,
//! unread, when the checkpoint covers all of it:
//!
//! * its highest commit timestamp is at or below `ts`, **and**
//! * it holds no DDL, or its sequence number is below `sealed_below`.
//!
//! The second clause is the capture-order argument. A file numbered below
//! `sealed_below` was sealed before the capture read that number. Each
//! DDL record in it was appended before that seal, and `Database` creates
//! the object (`add_table`, `create_index`) before it appends the record.
//! So the catalog walk, which runs after the read, sees every object the
//! file creates. DDL records are untimestamped, so no clock can stand in
//! for the sequence number: empty ticks move the clock without writing
//! anything to the log.
//!
//! The DDL records recovery does read are skipped on a checkpoint boot
//! when their object already exists: the WAL vocabulary has no drop
//! records, so an object is only ever created once, and "already exists"
//! can only mean the checkpoint restored it.
//!
//! # Versions
//!
//! The current layout is version 3: one index list per table, and a
//! namespace written as its `kv:<name>` table. The decoder reads no other
//! version. A checkpoint is a cache of the log, so one in another layout
//! fails decoding and recovery falls back to an older checkpoint or to
//! full replay, as it does for any damaged checkpoint.

use std::sync::Arc;

use crate::cdc::{is_kv_table, namespace_schema};
use crate::error::StorageError;
use crate::mvcc::Ts;
use crate::row::{Key, Row};
use crate::schema::Schema;
use crate::wal::{
    put_schema, put_str, put_u32, put_u64, put_values, seal, unseal, Cursor, MIN_STR_LEN,
};

/// Magic prefix of a checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"TRODCK01";
const CHECKPOINT_VERSION: u32 = 3;

/// One table inside a [`Checkpoint`] (a namespace's `kv:<name>` table
/// included): schema, index columns and every row visible at the
/// checkpoint timestamp.
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

/// A whole-environment snapshot at one commit timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The published commit timestamp the snapshot was taken at.
    pub ts: Ts,
    /// Transaction-id high-water mark at capture time, so recovered
    /// databases never reuse an id the checkpointed history handed out.
    pub next_txn_id: u64,
    /// The active segment's sequence number when the capture began: every
    /// segment numbered below it was sealed before the catalog walk, so
    /// the checkpoint covers its DDL (module docs). 0 covers none.
    pub sealed_below: u64,
    pub tables: Vec<CheckpointTable>,
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

/// Serializes a checkpoint as one sealed file (`wal::seal`): magic, the
/// standard CRC frame header, then the payload — a checkpoint is valid
/// in its entirety or not at all.
pub fn encode_checkpoint(ck: &Checkpoint) -> Vec<u8> {
    seal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, |out| {
        put_u64(out, ck.ts);
        put_u64(out, ck.next_txn_id);
        put_u64(out, ck.sealed_below);
        put_u32(out, ck.tables.len() as u32);
        for t in &ck.tables {
            put_str(out, &t.name);
            put_schema(out, &t.schema);
            put_u32(out, t.indexes.len() as u32);
            for c in &t.indexes {
                put_str(out, c);
            }
            put_u64(out, t.rows.len() as u64);
            for (key, row) in &t.rows {
                put_values(out, key.values());
                put_values(out, row.values());
            }
        }
    })
}

/// Decodes and fully validates a checkpoint file. Every failure is a
/// typed [`StorageError::Corrupt`] — the caller falls back to an older
/// checkpoint or full replay, never to a silently partial state.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, StorageError> {
    unseal(
        bytes,
        CHECKPOINT_MAGIC,
        CHECKPOINT_VERSION,
        "checkpoint",
        decode_payload,
    )
}

/// Fewest bytes a table encodes in: name, column, primary-key and index
/// counts, row count.
const MIN_TABLE_LEN: usize = MIN_STR_LEN + 3 * 4 + 8;
/// Fewest bytes a row encodes in: the key's and the image's value counts.
const MIN_ROW_LEN: usize = 2 * 4;

fn decode_payload(c: &mut Cursor) -> Result<Checkpoint, String> {
    let ts = c.u64()?;
    let next_txn_id = c.u64()?;
    let sealed_below = c.u64()?;
    let n_tables = c.count(MIN_TABLE_LEN, "table")?;
    let mut tables = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let name = c.str()?;
        let schema = c
            .schema("pk")?
            .map_err(|e| format!("invalid schema for `{name}`: {e}"))?;
        if is_kv_table(&name) && schema != namespace_schema() {
            return Err(format!("`{name}` does not have the namespace schema"));
        }
        let n_indexes = c.count(MIN_STR_LEN, "index")?;
        let mut indexes = Vec::with_capacity(n_indexes);
        for _ in 0..n_indexes {
            indexes.push(c.str()?);
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
    Ok(Checkpoint {
        ts,
        next_txn_id,
        sealed_below,
        tables,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdc::namespace_row;
    use crate::row;
    use crate::value::{DataType, Value};
    use crate::wal::crc32;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// A namespace's table holding `entries`.
    fn namespace_table(name: &str, entries: &[(String, String)]) -> CheckpointTable {
        CheckpointTable {
            name: format!("kv:{name}"),
            schema: namespace_schema(),
            indexes: Vec::new(),
            rows: entries
                .iter()
                .map(|(k, v)| (Key::single(k.as_str()), Arc::new(namespace_row(k, v))))
                .collect(),
        }
    }

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
            sealed_below: 3,
            tables: vec![
                namespace_table("cache", &[("k1".to_string(), "v1".to_string())]),
                CheckpointTable {
                    name: "users".to_string(),
                    schema,
                    indexes: vec!["name".to_string(), "score".to_string()],
                    rows: vec![
                        (Key::single(1i64), Arc::new(row![1i64, "alice", 3.5f64])),
                        (Key::single(2i64), Arc::new(row![2i64, "bob", Value::Null])),
                    ],
                },
            ],
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

    /// Frames `payload` as a checkpoint file with valid CRCs, so it
    /// reaches the payload decoder.
    fn checkpoint_bytes(payload: &[u8]) -> Vec<u8> {
        let mut out = CHECKPOINT_MAGIC.to_vec();
        put_u32(&mut out, payload.len() as u32);
        put_u32(&mut out, crc32(payload));
        let hdr_crc = crc32(&out[8..16]);
        put_u32(&mut out, hdr_crc);
        out.extend_from_slice(payload);
        out
    }

    fn corrupt_detail(bytes: &[u8]) -> String {
        match decode_checkpoint(bytes) {
            Err(StorageError::Corrupt { detail, .. }) => detail,
            other => panic!("expected a typed Corrupt error, got {other:?}"),
        }
    }

    #[test]
    fn only_version_3_decodes() {
        let payload = encode_checkpoint(&sample())[20..].to_vec();
        for version in [0u32, 1, 2, 4] {
            let mut other = payload.clone();
            other[..4].copy_from_slice(&version.to_le_bytes());
            let detail = corrupt_detail(&checkpoint_bytes(&other));
            assert!(
                detail.contains(&format!("unsupported checkpoint version {version}")),
                "{detail}"
            );
        }
    }

    #[test]
    fn a_kv_table_without_the_namespace_schema_is_a_typed_error() {
        let mut ck = sample();
        ck.tables[1].name = "kv:users".to_string();
        let detail = corrupt_detail(&encode_checkpoint(&ck));
        assert!(detail.contains("`kv:users`"), "{detail}");
        assert!(detail.contains("namespace schema"), "{detail}");
    }

    /// The decoder's contract on bytes it did not write: a typed
    /// `Corrupt` error, or a checkpoint that survives encode → decode
    /// unchanged.
    fn decodes_typed_or_round_trips(bytes: &[u8]) -> Result<(), TestCaseError> {
        match decode_checkpoint(bytes) {
            Err(StorageError::Corrupt { .. }) => {}
            Err(other) => prop_assert!(false, "untyped error {other:?}"),
            Ok(ck) => prop_assert_eq!(decode_checkpoint(&encode_checkpoint(&ck)).ok(), Some(ck)),
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(256)
        ))]

        /// Arbitrary bytes: raw, framed with valid CRCs, or framed behind
        /// version 3 so they reach the table decoder.
        #[test]
        fn checkpoint_decoder_takes_arbitrary_bytes(
            bytes in prop::collection::vec(0u8..=255, 0..160),
            framing in 0u8..3,
        ) {
            let bytes = match framing {
                0 => bytes,
                1 => checkpoint_bytes(&bytes),
                _ => checkpoint_bytes(&[&CHECKPOINT_VERSION.to_le_bytes()[..], &bytes].concat()),
            };
            decodes_typed_or_round_trips(&bytes)?;
        }

        /// A valid checkpoint with tables, rows, indexes and namespace
        /// tables, with one payload byte replaced and both CRCs
        /// recomputed.
        #[test]
        fn checkpoint_decoder_takes_a_mutated_checkpoint(
            ts in 0u64..1 << 40,
            sealed_below in prop_oneof![Just(0u64), 0u64..1 << 20],
            rows in prop::collection::vec((-1000i64..1000, "[a-z]{0,6}", 0u8..3), 0..4),
            indexed in 0u8..4,
            namespaces in prop::collection::vec(
                prop::collection::vec(("[a-z]{0,4}", "[a-z]{0,4}"), 0..3),
                0..3,
            ),
            at in 0usize..1 << 16,
            byte in 0u8..=255,
        ) {
            let mut ck = sample();
            ck.ts = ts;
            ck.sealed_below = sealed_below;
            let mut users = ck.tables.pop().unwrap();
            users.rows = rows
                .into_iter()
                .map(|(id, name, score)| {
                    let score = match score {
                        0 => Value::Null,
                        n => Value::Float(f64::from(n) / 2.0),
                    };
                    (Key::single(id), Arc::new(row![id, name, score]))
                })
                .collect();
            users.indexes = ["name", "score"]
                .into_iter()
                .zip([indexed & 1, indexed & 2])
                .filter(|(_, on)| *on != 0)
                .map(|(column, _)| column.to_string())
                .collect();
            ck.tables = namespaces
                .iter()
                .zip(0..)
                .map(|(entries, i)| namespace_table(&format!("ns{i}"), entries))
                .chain([users])
                .collect();
            let mut payload = encode_checkpoint(&ck)[20..].to_vec();
            let i = at % payload.len();
            payload[i] = byte;
            decodes_typed_or_round_trips(&checkpoint_bytes(&payload))?;
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
