//! Key-value namespaces, read through the database that holds them.
//!
//! Invariants:
//!
//! * **A namespace is a table.** Namespace `ns` is the database table
//!   `kv:ns` of `(kv_key TEXT PRIMARY KEY, kv_value TEXT NOT NULL)` rows
//!   ([`trod_db::Database::create_namespace`]). Versions, visibility,
//!   commit, forking, GC and recovery are the database's; this module
//!   adds none.
//! * **[`KvStore`] only reads.** Its reads resolve against the published
//!   clock, like every database read; writes go through a transaction
//!   ([`crate::Txn::kv_put`]) and land in the aligned log.
//! * **One row format.** [`KvWrite`] is the only code that turns a
//!   namespace row or change record into a key and a value and back.

use std::sync::Arc;

use trod_db::{ChangeRecord, Database, DbError, Key, Predicate, Row, TableStore, Ts, Value};

pub use trod_db::{KvError, KvResult};

/// One change to a namespace key, decoded from its `kv:<namespace>`
/// change record; `value: None` is a delete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvWrite {
    pub namespace: String,
    pub key: String,
    pub value: Option<String>,
}

impl KvWrite {
    /// A put.
    pub fn put(namespace: &str, key: &str, value: &str) -> Self {
        KvWrite {
            namespace: namespace.to_string(),
            key: key.to_string(),
            value: Some(value.to_string()),
        }
    }

    /// A delete.
    pub fn delete(namespace: &str, key: &str) -> Self {
        KvWrite {
            namespace: namespace.to_string(),
            key: key.to_string(),
            value: None,
        }
    }

    /// The write a `kv:<namespace>` change record captured; `None` for a
    /// record on any other table or one whose key is not text.
    pub fn of_record(record: &ChangeRecord) -> Option<KvWrite> {
        let namespace = record.table.strip_prefix(trod_db::KV_TABLE_PREFIX)?;
        Some(KvWrite {
            namespace: namespace.to_string(),
            key: KvWrite::key_of(&record.key)?.to_string(),
            value: record
                .op
                .after()
                .and_then(KvWrite::value_of)
                .map(str::to_string),
        })
    }

    /// The text key of a namespace row's primary key.
    pub(crate) fn key_of(key: &Key) -> Option<&str> {
        key.values().first().and_then(Value::as_text)
    }

    /// The text value of a namespace row.
    pub(crate) fn value_of(row: &Row) -> Option<&str> {
        row.get(1).and_then(Value::as_text)
    }

    /// The namespace row holding `value` under `key`.
    pub(crate) fn row(key: &str, value: &str) -> Row {
        Row::from(vec![Value::Text(key.into()), Value::Text(value.into())])
    }

    /// The `(key, value)` pair of a namespace row.
    pub(crate) fn entry((key, row): (Key, Arc<Row>)) -> (String, String) {
        let text = |s: Option<&str>| s.unwrap_or_default().to_string();
        (text(KvWrite::key_of(&key)), text(KvWrite::value_of(&row)))
    }
}

/// The keys of a namespace that start with `prefix`, as a range over
/// `kv_key` (every key of the namespace for an empty prefix). Scans
/// record it whole, so a key inserted under the prefix later conflicts.
pub(crate) fn prefix_predicate(prefix: &str) -> Predicate {
    if prefix.is_empty() {
        return Predicate::True;
    }
    let from = Predicate::ge("kv_key", prefix);
    // The least string above every extension of `prefix`: its last char
    // that can be raised, raised, with everything after it dropped.
    let mut upper: Vec<char> = prefix.chars().collect();
    while let Some(last) = upper.pop() {
        let next = (last as u32 + 1..=char::MAX as u32).find_map(char::from_u32);
        if let Some(next) = next {
            upper.push(next);
            let upper: String = upper.into_iter().collect();
            return from.and(Predicate::lt("kv_key", upper.as_str()));
        }
    }
    from
}

/// Size statistics for one namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NamespaceStats {
    /// Keys with a live (non-deleted) latest value.
    pub live_keys: usize,
    /// Row versions the namespace's table holds itself (a fork's table
    /// counts what it wrote, not what it reads through to).
    pub versions: usize,
}

/// A read view over the key-value namespaces of one database.
///
/// [`KvStore::new`] makes a standalone store over a database of its own;
/// binding it to a [`crate::Session`] declares its namespaces in the
/// session's database, whose view the session then hands out.
#[derive(Debug, Clone)]
pub struct KvStore {
    db: Database,
}

impl Default for KvStore {
    fn default() -> Self {
        KvStore::new()
    }
}

impl KvStore {
    /// A store over a fresh database of its own.
    pub fn new() -> Self {
        KvStore::of(Database::new())
    }

    /// The view over `db`'s namespaces.
    pub fn of(db: Database) -> Self {
        KvStore { db }
    }

    /// Creates a namespace (logged when the database is durable).
    pub fn create_namespace(&self, name: &str) -> trod_db::TrodResult<()> {
        self.db.create_namespace(name).map_err(|e| match e {
            DbError::TableExists(_) => KvError::NamespaceExists(name.to_string()).into(),
            e => e.into(),
        })
    }

    /// Names of all namespaces, sorted.
    pub fn namespaces(&self) -> Vec<String> {
        self.db.namespaces()
    }

    /// Whether a namespace exists.
    pub fn has_namespace(&self, name: &str) -> bool {
        self.db.has_namespace(name)
    }

    fn table(&self, namespace: &str) -> KvResult<Arc<TableStore>> {
        self.db
            .table(&crate::kv_table_name(namespace))
            .map_err(|_| KvError::UnknownNamespace(namespace.to_string()))
    }

    /// The latest published value of a key, if any.
    pub fn get_latest(&self, namespace: &str, key: &str) -> KvResult<Option<String>> {
        self.get_as_of(namespace, key, Ts::MAX)
    }

    /// The value of a key as of a commit timestamp (inclusive, clamped to
    /// the published clock).
    pub fn get_as_of(&self, namespace: &str, key: &str, ts: Ts) -> KvResult<Option<String>> {
        let row = self
            .table(namespace)?
            .get_at(&Key::single(key), ts.min(self.db.current_ts()));
        Ok(row
            .as_deref()
            .and_then(KvWrite::value_of)
            .map(str::to_string))
    }

    /// Every live `(key, value)` pair of a namespace whose key starts with
    /// `prefix`, in key order, as of a commit timestamp (clamped to the
    /// published clock).
    pub fn scan_prefix_as_of(
        &self,
        namespace: &str,
        prefix: &str,
        ts: Ts,
    ) -> KvResult<Vec<(String, String)>> {
        let table = self.table(namespace)?;
        let rows = table
            .scan_at(&prefix_predicate(prefix), ts.min(self.db.current_ts()))
            .expect("the prefix predicate names the namespace schema's key column");
        Ok(rows.into_iter().map(KvWrite::entry).collect())
    }

    /// [`KvStore::scan_prefix_as_of`] at the latest published state.
    pub fn scan_prefix(&self, namespace: &str, prefix: &str) -> KvResult<Vec<(String, String)>> {
        self.scan_prefix_as_of(namespace, prefix, Ts::MAX)
    }

    /// Statistics for one namespace.
    pub fn namespace_stats(&self, namespace: &str) -> KvResult<NamespaceStats> {
        let table = self.table(namespace)?;
        Ok(NamespaceStats {
            live_keys: table.count_at(self.db.current_ts()),
            versions: table.version_count(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespace_management() {
        let kv = KvStore::new();
        kv.create_namespace("sessions").unwrap();
        assert!(kv.has_namespace("sessions"));
        assert_eq!(kv.namespaces(), vec!["sessions".to_string()]);
        assert_eq!(
            kv.create_namespace("sessions"),
            Err(KvError::NamespaceExists("sessions".into()).into())
        );
        assert_eq!(
            kv.get_latest("missing", "k"),
            Err(KvError::UnknownNamespace("missing".into()))
        );
    }

    #[test]
    fn prefix_predicates_cover_exactly_the_extensions_of_the_prefix() {
        let matches = |prefix: &str, key: &str| {
            let schema = trod_db::Schema::builder()
                .column("kv_key", trod_db::DataType::Text)
                .column("kv_value", trod_db::DataType::Text)
                .primary_key(&["kv_key"])
                .build()
                .unwrap();
            let compiled = prefix_predicate(prefix).compile(&schema).unwrap();
            compiled.matches(&KvWrite::row(key, "v"))
        };
        for (prefix, key, want) in [
            ("user:", "user:", true),
            ("user:", "user:1", true),
            ("user:", "user;", false),
            ("user:", "use", false),
            ("", "anything", true),
            ("a\u{10FFFF}", "a\u{10FFFF}\u{10FFFF}", true),
            ("a\u{10FFFF}", "b", false),
            ("\u{D7FF}", "\u{D7FF}x", true),
            ("\u{D7FF}", "\u{E000}", false),
            ("\u{10FFFF}", "\u{10FFFF}z", true),
        ] {
            assert_eq!(matches(prefix, key), want, "{prefix:?} vs {key:?}");
        }
    }

    #[test]
    fn error_display() {
        assert!(KvError::UnknownNamespace("x".into())
            .to_string()
            .contains("x"));
    }
}
