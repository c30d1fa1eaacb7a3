//! A serial, full-history reference model of the engine's transaction
//! semantics — the oracle the decision-equivalence proptests compare the
//! engine against.
//!
//! The model keeps every committed change forever and does nothing
//! clever: no locks, no timestamps, no change-log window, no garbage
//! collection, no in-window re-check. A serializable transaction aborts
//! iff a change committed after it began hits one of its write keys, one
//! of its read keys, or the before/after image of a predicate it
//! scanned; otherwise its writes are appended to the history. Whatever
//! the engine does to get there — sharded locks, O(Δ) change-log
//! validation with a full-scan fallback, SSI two-pass validation,
//! mid-window GC — must produce the same decision for every commit and
//! the same final contents.
//!
//! Resources are named like the engine names them: a table by its name,
//! a key-value namespace by its table, `kv:<namespace>`; the model treats
//! both alike. Keys and values are `i64` (the proptests' tables are
//! `(k Int, v Int)`; their kv keys are `k<n>` and their kv values decimal
//! strings).

#![allow(dead_code)]

use std::collections::BTreeMap;

/// One committed change to one key.
struct Change {
    resource: String,
    key: i64,
    before: Option<i64>,
    after: Option<i64>,
}

/// A predicate a transaction scanned, over `(key, value)`.
pub type Pred = Box<dyn Fn(i64, i64) -> bool>;

/// Why the model refused a commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    Committed,
    /// A later change hit a key the transaction wrote.
    WriteConflict {
        resource: String,
    },
    /// A later change hit a key it read or a predicate it scanned.
    ReadConflict {
        resource: String,
    },
}

/// The committed history, in commit order. State at any point is the
/// fold of a prefix.
#[derive(Default)]
pub struct Model {
    history: Vec<Change>,
}

/// A transaction against the model: a snapshot (a history length), the
/// keys and predicates it read, and its buffered writes.
pub struct ModelTxn {
    start: usize,
    reads: Vec<(String, i64)>,
    scans: Vec<(String, Pred)>,
    /// Buffered writes; `None` deletes.
    writes: BTreeMap<(String, i64), Option<i64>>,
}

impl Model {
    pub fn new() -> Self {
        Model::default()
    }

    /// The value of `key` after the first `upto` changes.
    fn value_at(&self, resource: &str, key: i64, upto: usize) -> Option<i64> {
        self.history[..upto]
            .iter()
            .rev()
            .find(|c| c.resource == resource && c.key == key)
            .and_then(|c| c.after)
    }

    /// The latest contents of one resource.
    pub fn contents(&self, resource: &str) -> BTreeMap<i64, i64> {
        let mut out = BTreeMap::new();
        for c in self.history.iter().filter(|c| c.resource == resource) {
            match c.after {
                Some(v) => out.insert(c.key, v),
                None => out.remove(&c.key),
            };
        }
        out
    }

    pub fn begin(&self) -> ModelTxn {
        ModelTxn {
            start: self.history.len(),
            reads: Vec::new(),
            scans: Vec::new(),
            writes: BTreeMap::new(),
        }
    }

    /// Commits without validation (the engine's read-committed writers).
    pub fn commit_unvalidated(&mut self, txn: ModelTxn) {
        self.install(txn);
    }

    /// Commits under serializable validation. A transaction that wrote
    /// nothing serializes at its snapshot and always commits. Write keys
    /// are judged before reads, then scans, which is the order the engine
    /// reports conflicts in.
    pub fn commit(&mut self, txn: ModelTxn) -> Verdict {
        if txn.writes.is_empty() {
            return Verdict::Committed;
        }
        let later = &self.history[txn.start..];
        let touched =
            |resource: &str, key: i64| later.iter().any(|c| c.resource == resource && c.key == key);
        for (resource, key) in txn.writes.keys() {
            if touched(resource, *key) {
                return Verdict::WriteConflict {
                    resource: resource.clone(),
                };
            }
        }
        for (resource, key) in &txn.reads {
            if touched(resource, *key) {
                return Verdict::ReadConflict {
                    resource: resource.clone(),
                };
            }
        }
        for (resource, pred) in &txn.scans {
            let hit = later.iter().any(|c| {
                c.resource == *resource
                    && (c.before.is_some_and(|v| pred(c.key, v))
                        || c.after.is_some_and(|v| pred(c.key, v)))
            });
            if hit {
                return Verdict::ReadConflict {
                    resource: resource.clone(),
                };
            }
        }
        self.install(txn);
        Verdict::Committed
    }

    /// Install appends: one change per buffered write, before image taken
    /// from the latest state.
    fn install(&mut self, txn: ModelTxn) {
        for ((resource, key), after) in txn.writes {
            let before = self.value_at(&resource, key, self.history.len());
            self.history.push(Change {
                resource,
                key,
                before,
                after,
            });
        }
    }
}

impl ModelTxn {
    /// What this transaction sees for `key`: its own buffered write,
    /// else its snapshot.
    fn visible(&self, model: &Model, resource: &str, key: i64) -> Option<i64> {
        match self.writes.get(&(resource.to_string(), key)) {
            Some(buffered) => *buffered,
            None => model.value_at(resource, key, self.start),
        }
    }

    /// Point read: always recorded.
    pub fn get(&mut self, model: &Model, table: &str, key: i64) -> Option<i64> {
        self.reads.push((table.to_string(), key));
        self.visible(model, table, key)
    }

    /// Predicate scan: the predicate is recorded.
    pub fn scan(&mut self, table: &str, pred: impl Fn(i64, i64) -> bool + 'static) {
        self.scans.push((table.to_string(), Box::new(pred)));
    }

    /// Upsert. Writing a row reads its key.
    pub fn put(&mut self, model: &Model, table: &str, key: i64, value: i64) {
        self.get(model, table, key);
        self.writes.insert((table.to_string(), key), Some(value));
    }

    /// Delete; only a read when the row is not visible. Deleting a row
    /// this transaction itself inserted un-buffers the insert.
    pub fn delete(&mut self, model: &Model, table: &str, key: i64) {
        if self.get(model, table, key).is_none() {
            return;
        }
        let slot = (table.to_string(), key);
        if model.value_at(table, key, self.start).is_some() {
            self.writes.insert(slot, None);
        } else {
            self.writes.remove(&slot);
        }
    }
}
