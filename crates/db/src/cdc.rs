//! Change data capture (CDC) records.
//!
//! Every committed transaction produces one [`ChangeRecord`] per modified
//! row, containing before/after images. The TROD interposition layer
//! copies these records into the provenance database (paper §3.4, "for
//! data writes, TROD leverages the change data capture feature provided by
//! most databases"), and the replay engine re-applies them to reconstruct
//! past states (paper §3.5).

use std::fmt;
use std::sync::Arc;

use crate::row::{Key, Row};
use crate::schema::Schema;
use crate::value::{DataType, Value};

/// Prefix of the table that holds a key-value namespace (`kv:sessions`
/// holds namespace `sessions`). Its change records, read sets and log
/// entries carry that name, so it is also the aligned log's wire format
/// for "which store does this record belong to"; every layer that
/// classifies records uses this one definition.
pub const KV_TABLE_PREFIX: &str = "kv:";

/// True for a namespace's table (and the records and reads naming it).
pub fn is_kv_table(table: &str) -> bool {
    table.starts_with(KV_TABLE_PREFIX)
}

/// The table holding namespace `namespace` (e.g. `kv:sessions`).
pub fn kv_table_name(namespace: &str) -> Arc<str> {
    [KV_TABLE_PREFIX, namespace].concat().into()
}

// The namespace row format: the only code that turns a key and a value
// into a namespace row and back.

/// The schema of every namespace's table:
/// `(kv_key TEXT PRIMARY KEY, kv_value TEXT NOT NULL)`.
pub(crate) fn namespace_schema() -> Schema {
    Schema::builder()
        .column("kv_key", DataType::Text)
        .column("kv_value", DataType::Text)
        .primary_key(&["kv_key"])
        .build()
        .expect("static schema")
}

/// The namespace row holding `value` under `key`.
pub fn namespace_row(key: &str, value: &str) -> Row {
    Row::from(vec![Value::Text(key.into()), Value::Text(value.into())])
}

/// The value a namespace row holds.
pub fn namespace_value(row: &Row) -> Option<&str> {
    row.get(1).and_then(Value::as_text)
}

/// The `(key, value)` pair of a namespace row; the namespace schema
/// makes both cells text.
pub fn namespace_entry(row: &Row) -> (String, String) {
    let text = |i| row.get(i).and_then(Value::as_text).unwrap_or_default();
    (text(0).to_string(), text(1).to_string())
}

/// The kind of change applied to a single row.
///
/// Before/after images are `Arc`-shared with the storage engine's version
/// chains: capturing CDC for a commit, copying records into the
/// provenance store, and replaying them all reuse the writer's single
/// allocation instead of deep-cloning rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChangeOp {
    /// A new row was inserted.
    Insert { after: Arc<Row> },
    /// An existing row was overwritten.
    Update { before: Arc<Row>, after: Arc<Row> },
    /// An existing row was removed.
    Delete { before: Arc<Row> },
}

impl ChangeOp {
    /// The row image after the change, if the row still exists.
    pub fn after(&self) -> Option<&Row> {
        match self {
            ChangeOp::Insert { after } | ChangeOp::Update { after, .. } => Some(&**after),
            ChangeOp::Delete { .. } => None,
        }
    }

    /// The shared after image, if the row still exists (no copy).
    pub fn after_shared(&self) -> Option<&Arc<Row>> {
        match self {
            ChangeOp::Insert { after } | ChangeOp::Update { after, .. } => Some(after),
            ChangeOp::Delete { .. } => None,
        }
    }

    /// The row image before the change, if the row existed.
    pub fn before(&self) -> Option<&Row> {
        match self {
            ChangeOp::Insert { .. } => None,
            ChangeOp::Update { before, .. } | ChangeOp::Delete { before } => Some(&**before),
        }
    }

    /// Short label used in provenance tables ("Insert", "Update", "Delete").
    pub fn kind(&self) -> &'static str {
        match self {
            ChangeOp::Insert { .. } => "Insert",
            ChangeOp::Update { .. } => "Update",
            ChangeOp::Delete { .. } => "Delete",
        }
    }
}

/// One row-level change made by a committed transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangeRecord {
    /// Table the change applies to. Shared: records the engine builds
    /// carry the table's own interned name ([`TableStore::name`]), so a
    /// clone is a reference-count bump and consecutive records of one
    /// table compare pointer-equal.
    ///
    /// [`TableStore::name`]: crate::table::TableStore::name
    pub table: Arc<str>,
    /// Primary key of the changed row.
    pub key: Key,
    /// The change itself, with before/after images.
    pub op: ChangeOp,
}

impl ChangeRecord {
    /// Builds an insert record. Accepts `Row` or `Arc<Row>`.
    pub fn insert(table: impl Into<Arc<str>>, key: Key, after: impl Into<Arc<Row>>) -> Self {
        ChangeRecord {
            table: table.into(),
            key,
            op: ChangeOp::Insert {
                after: after.into(),
            },
        }
    }

    /// Builds an update record. Accepts `Row` or `Arc<Row>` images.
    pub fn update(
        table: impl Into<Arc<str>>,
        key: Key,
        before: impl Into<Arc<Row>>,
        after: impl Into<Arc<Row>>,
    ) -> Self {
        ChangeRecord {
            table: table.into(),
            key,
            op: ChangeOp::Update {
                before: before.into(),
                after: after.into(),
            },
        }
    }

    /// Builds a delete record. Accepts `Row` or `Arc<Row>`.
    pub fn delete(table: impl Into<Arc<str>>, key: Key, before: impl Into<Arc<Row>>) -> Self {
        ChangeRecord {
            table: table.into(),
            key,
            op: ChangeOp::Delete {
                before: before.into(),
            },
        }
    }
}

impl fmt::Display for ChangeRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.op {
            ChangeOp::Insert { after } => {
                write!(f, "INSERT {}{} -> {}", self.table, self.key, after)
            }
            ChangeOp::Update { before, after } => {
                write!(
                    f,
                    "UPDATE {}{} {} -> {}",
                    self.table, self.key, before, after
                )
            }
            ChangeOp::Delete { before } => {
                write!(f, "DELETE {}{} (was {})", self.table, self.key, before)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn before_after_images() {
        let ins = ChangeRecord::insert("t", Key::single(1i64), row![1i64, "a"]);
        assert_eq!(ins.op.before(), None);
        assert_eq!(ins.op.after(), Some(&row![1i64, "a"]));
        assert_eq!(ins.op.kind(), "Insert");

        let upd = ChangeRecord::update("t", Key::single(1i64), row![1i64, "a"], row![1i64, "b"]);
        assert_eq!(upd.op.before(), Some(&row![1i64, "a"]));
        assert_eq!(upd.op.after(), Some(&row![1i64, "b"]));
        assert_eq!(upd.op.kind(), "Update");

        let del = ChangeRecord::delete("t", Key::single(1i64), row![1i64, "b"]);
        assert_eq!(del.op.before(), Some(&row![1i64, "b"]));
        assert_eq!(del.op.after(), None);
        assert_eq!(del.op.kind(), "Delete");
    }

    #[test]
    fn display_mentions_table_and_key() {
        let rec = ChangeRecord::insert("forum_sub", Key::single("U1"), row!["U1", "F2"]);
        let s = rec.to_string();
        assert!(s.contains("forum_sub"));
        assert!(s.contains("U1"));
    }
}
