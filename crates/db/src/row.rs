//! Rows and primary keys.

use std::collections::HashMap;
use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

use crate::hash::CellHash;
use crate::value::Value;

/// A row of values, positionally aligned with the table schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Row(Vec<Value>);

impl Row {
    /// Creates an empty row.
    pub fn new() -> Self {
        Row(Vec::new())
    }

    /// Creates a row with the given capacity.
    pub fn with_capacity(n: usize) -> Self {
        Row(Vec::with_capacity(n))
    }

    /// Appends a value.
    pub fn push(&mut self, v: impl Into<Value>) {
        self.0.push(v.into());
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the row has no values.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Borrow the values.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Gets a value by position.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.0.get(idx)
    }

    /// Replaces the value at `idx`, returning the previous value.
    pub fn set(&mut self, idx: usize, v: impl Into<Value>) -> Value {
        std::mem::replace(&mut self.0[idx], v.into())
    }

    /// Iterates over the values.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.0.iter()
    }
}

impl From<Vec<Value>> for Row {
    fn from(v: Vec<Value>) -> Self {
        Row(v)
    }
}

// Rows are routinely handed out as `Arc<Row>` (the storage engine's
// zero-copy read path); comparing a shared row against a literal `row![..]`
// should not require unwrapping. `Arc` is a fundamental type, so these
// cross-type impls are permitted for the local `Row`.
impl PartialEq<Row> for Arc<Row> {
    fn eq(&self, other: &Row) -> bool {
        **self == *other
    }
}

impl PartialEq<Arc<Row>> for Row {
    fn eq(&self, other: &Arc<Row>) -> bool {
        *self == **other
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Row(iter.into_iter().collect())
    }
}

impl Index<usize> for Row {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.0[idx]
    }
}

impl IndexMut<usize> for Row {
    fn index_mut(&mut self, idx: usize) -> &mut Value {
        &mut self.0[idx]
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Builds a [`Row`] from a list of values convertible into [`Value`].
///
/// ```
/// use trod_db::{row, Value};
/// let r = row![1i64, "alice", Value::Null];
/// assert_eq!(r.len(), 3);
/// ```
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::Row::from(vec![$($crate::Value::from($v)),*])
    };
}

/// A primary key: the ordered primary-key column values of a row.
///
/// The values are shared: a clone is a reference-count bump, so the one
/// allocation made when the key is built serves the version store, the
/// index slots, the change log, the CDC record and every trace that names
/// the row. Equality, order and hash are those of [`Key::values`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key(Arc<[Value]>);

impl Key {
    /// Creates a key from values (a `Vec`, or an `Arc` taken as it is).
    pub fn new(values: impl Into<Arc<[Value]>>) -> Self {
        Key(values.into())
    }

    /// A single-valued key (one allocation).
    pub fn single(v: impl Into<Value>) -> Self {
        Key(Arc::new([v.into()]))
    }

    /// Borrow the key values.
    pub fn values(&self) -> &[Value] {
        &self.0
    }
}

/// A map keyed by primary key, hashed with [`CellHash`]: a table's row
/// map. (An index slot keeps its keys in a `BTreeMap`, in key order.)
pub type KeyMap<V> = HashMap<Key, V, CellHash>;

impl From<Vec<Value>> for Key {
    fn from(v: Vec<Value>) -> Self {
        Key::new(v)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_macro_and_accessors() {
        let r = row![1i64, "bob", 2.5f64, true];
        assert_eq!(r.len(), 4);
        assert_eq!(r[0], Value::Int(1));
        assert_eq!(r[1], Value::Text("bob".into()));
        assert_eq!(r.get(3), Some(&Value::Bool(true)));
        assert_eq!(r.get(4), None);
    }

    #[test]
    fn row_set_replaces_value() {
        let mut r = row![1i64, "a"];
        let old = r.set(1, "b");
        assert_eq!(old, Value::Text("a".into()));
        assert_eq!(r[1], Value::Text("b".into()));
    }

    #[test]
    fn row_display() {
        let r = row![1i64, "x"];
        assert_eq!(r.to_string(), "(1, x)");
    }

    #[test]
    fn key_equality_and_display() {
        let k1 = Key::single(7i64);
        let k2 = Key::new(vec![Value::Int(7)]);
        assert_eq!(k1, k2);
        assert_eq!(k1.to_string(), "[7]");
        let k3 = Key::new(vec![Value::Int(7), Value::Text("a".into())]);
        assert_ne!(k1, k3);
    }

    #[test]
    fn keys_order_lexicographically() {
        let a = Key::new(vec![Value::Int(1), Value::Int(2)]);
        let b = Key::new(vec![Value::Int(1), Value::Int(3)]);
        let c = Key::new(vec![Value::Int(2)]);
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn row_from_iterator() {
        let r: Row = vec![Value::Int(1), Value::Int(2)].into_iter().collect();
        assert_eq!(r.len(), 2);
    }
}
