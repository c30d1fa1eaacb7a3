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
//! * **One row format.** A namespace row is turned into a key and a
//!   value and back only by `trod-db`'s codec next to
//!   [`trod_db::kv_table_name`] ([`trod_db::namespace_row`],
//!   [`trod_db::namespace_value`], [`trod_db::namespace_entry`]).

use trod_db::{namespace_entry, namespace_value, Database, DbResult, Key, Predicate, Ts};

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

/// A read view over the key-value namespaces of one database, built by
/// [`crate::Session`].
#[derive(Debug, Clone)]
pub struct KvStore {
    db: Database,
}

impl KvStore {
    /// The view over `db`'s namespaces.
    pub fn of(db: Database) -> Self {
        KvStore { db }
    }

    /// Names of all namespaces, sorted.
    pub fn namespaces(&self) -> Vec<String> {
        self.db.namespaces()
    }

    /// Whether a namespace exists.
    pub fn has_namespace(&self, name: &str) -> bool {
        self.db.has_namespace(name)
    }

    /// The latest published value of a key, if any.
    pub fn get_latest(&self, namespace: &str, key: &str) -> DbResult<Option<String>> {
        self.get_as_of(namespace, key, Ts::MAX)
    }

    /// The value of a key as of a commit timestamp (inclusive, clamped to
    /// the published clock).
    pub fn get_as_of(&self, namespace: &str, key: &str, ts: Ts) -> DbResult<Option<String>> {
        let row = self
            .db
            .table(&crate::kv_table_name(namespace))?
            .get_at(&Key::single(key), ts.min(self.db.current_ts()));
        Ok(row.as_deref().and_then(namespace_value).map(str::to_string))
    }

    /// Every live `(key, value)` pair of a namespace whose key starts with
    /// `prefix`, in key order, as of a commit timestamp (clamped to the
    /// published clock).
    pub fn scan_prefix_as_of(
        &self,
        namespace: &str,
        prefix: &str,
        ts: Ts,
    ) -> DbResult<Vec<(String, String)>> {
        let table = self.db.table(&crate::kv_table_name(namespace))?;
        let rows = table
            .scan_at(&prefix_predicate(prefix), ts.min(self.db.current_ts()))
            .expect("the prefix predicate names the namespace schema's key column");
        Ok(rows.iter().map(|(_, row)| namespace_entry(row)).collect())
    }

    /// [`KvStore::scan_prefix_as_of`] at the latest published state.
    pub fn scan_prefix(&self, namespace: &str, prefix: &str) -> DbResult<Vec<(String, String)>> {
        self.scan_prefix_as_of(namespace, prefix, Ts::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trod_db::DbError;

    #[test]
    fn namespace_management() {
        let db = Database::new();
        let kv = KvStore::of(db.clone());
        db.create_namespace("sessions").unwrap();
        assert!(kv.has_namespace("sessions"));
        assert_eq!(kv.namespaces(), vec!["sessions".to_string()]);
        assert_eq!(
            kv.get_latest("missing", "k"),
            Err(DbError::NoSuchNamespace("missing".into()))
        );
        assert_eq!(
            kv.scan_prefix("missing", ""),
            Err(DbError::NoSuchNamespace("missing".into()))
        );
    }

    #[test]
    fn prefix_predicates_cover_exactly_the_extensions_of_the_prefix() {
        let matches = |prefix: &str, key: &str| {
            let db = Database::new();
            db.create_namespace("n").unwrap();
            let schema = db.schema_of(&crate::kv_table_name("n")).unwrap();
            let compiled = prefix_predicate(prefix).compile(&schema).unwrap();
            compiled.matches(&trod_db::namespace_row(key, "v"))
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
}
