//! Typed values stored in table cells.
//!
//! The engine is dynamically typed at the row level but every column has a
//! declared [`DataType`]; inserts and updates are validated against the
//! schema. `Value` provides a total order (needed for sorting and index
//! range scans) and a stable hash (needed for hash joins and secondary
//! indexes), including for floating-point values.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Text,
    Bytes,
    /// Microseconds since an arbitrary epoch; used for trace timestamps.
    Timestamp,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Bytes => "BYTES",
            DataType::Timestamp => "TIMESTAMP",
        };
        f.write_str(s)
    }
}

/// A single cell value.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(String),
    Bytes(Vec<u8>),
    Timestamp(i64),
}

impl Value {
    /// True if the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Checks that the value can be stored in a column of type `dtype`.
    ///
    /// Integers are accepted for TIMESTAMP columns (and vice versa) because
    /// the trace layer treats timestamps as plain integers.
    pub fn conforms_to(&self, dtype: DataType) -> bool {
        matches!(
            (self, dtype),
            (Value::Null, _)
                | (Value::Bool(_), DataType::Bool)
                | (Value::Int(_), DataType::Int)
                | (Value::Int(_), DataType::Timestamp)
                | (Value::Float(_), DataType::Float)
                | (Value::Text(_), DataType::Text)
                | (Value::Bytes(_), DataType::Bytes)
                | (Value::Timestamp(_), DataType::Timestamp)
                | (Value::Timestamp(_), DataType::Int)
        )
    }

    /// Extracts an integer, treating TIMESTAMP as INT.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) | Value::Timestamp(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts a float; integers widen losslessly within `f64` range.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) | Value::Timestamp(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Extracts a string slice.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Extracts a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric rank used to order values of different types. NULL sorts
    /// first, then booleans, then numbers, then text, bytes, timestamps.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) | Value::Timestamp(_) => 2,
            Value::Text(_) => 3,
            Value::Bytes(_) => 4,
        }
    }

    /// Compares two values as SQL would for ordering purposes: numbers
    /// compare numerically across INT/FLOAT/TIMESTAMP; otherwise values of
    /// different types order by type rank.
    ///
    /// Numeric comparison is exact: two integers compare as `i64` and an
    /// integer against a float compares without rounding either through
    /// the other's type, so distinct integers above 2⁵³ stay distinct
    /// (they are primary keys in the row map). Floats keep
    /// [`f64::total_cmp`]'s order among themselves — `-0.0` sorts just
    /// below `0.0` (and below `Int(0)`), NaNs at the two ends.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            (Int(a) | Timestamp(a), Int(b) | Timestamp(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a) | Timestamp(a), Float(b)) => cmp_int_float(*a, *b),
            (Float(a), Int(b) | Timestamp(b)) => cmp_int_float(*b, *a).reverse(),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }

    /// SQL-style equality: numbers compare numerically across numeric
    /// types; NULL equals nothing (including NULL) — use
    /// [`Value::total_cmp`] when three-valued logic is not wanted.
    pub fn sql_eq(&self, other: &Value) -> bool {
        if self.is_null() || other.is_null() {
            return false;
        }
        self.total_cmp(other) == Ordering::Equal
    }
}

/// The integer a float equals under [`Value::total_cmp`], if any.
fn exact_int(f: f64) -> Option<i64> {
    // The cast saturates (NaN to 0); the comparison has the last word.
    let i = f as i64;
    cmp_int_float(i, f).is_eq().then_some(i)
}

/// Orders an integer against a float by their exact real values, placing
/// the float's special points where [`f64::total_cmp`] puts them: `-0.0`
/// just below zero, the NaNs at the two ends.
fn cmp_int_float(i: i64, f: f64) -> Ordering {
    if f.is_nan() {
        return if f.is_sign_negative() {
            Ordering::Greater
        } else {
            Ordering::Less
        };
    }
    // The integer part is exact in `i128` up to 2¹²⁷ and saturates
    // beyond, on the right side of every `i64` either way; when the
    // integer parts tie, the float's fraction decides.
    let t = f.trunc();
    i128::from(i).cmp(&(t as i128)).then_with(|| {
        if f > t {
            Ordering::Less
        } else if f < t || f.is_sign_negative() && f == 0.0 {
            Ordering::Greater
        } else {
            Ordering::Equal
        }
    })
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Numeric values hash identically when numerically equal so
            // that Int(1), Timestamp(1) and Float(1.0) land in the same
            // hash bucket, matching `total_cmp` equality: an integral
            // float hashes as its integer. Any other float equals no
            // integer, so its bits will do.
            Value::Int(v) | Value::Timestamp(v) => {
                2u8.hash(state);
                v.hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                match exact_int(*f) {
                    Some(v) => v.hash(state),
                    None => f.to_bits().hash(state),
                }
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Bytes(b) => {
                4u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Bytes(b) => write!(f, "0x{}", hex(b)),
            Value::Timestamp(v) => write!(f, "{v}"),
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn conforms_to_matches_types() {
        assert!(Value::Int(1).conforms_to(DataType::Int));
        assert!(Value::Int(1).conforms_to(DataType::Timestamp));
        assert!(Value::Timestamp(1).conforms_to(DataType::Int));
        assert!(Value::Null.conforms_to(DataType::Text));
        assert!(!Value::Text("x".into()).conforms_to(DataType::Int));
        assert!(!Value::Bool(true).conforms_to(DataType::Float));
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(Value::Int(7), Value::Timestamp(7));
        assert_ne!(Value::Int(3), Value::Float(3.5));
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Float(3.0)));
    }

    #[test]
    fn integers_beyond_f64_precision_stay_distinct() {
        // 2^53 and 2^53 + 1 round to the same f64.
        let (a, b) = (9_007_199_254_740_992i64, 9_007_199_254_740_993i64);
        assert_ne!(Value::Int(a), Value::Int(b));
        assert_eq!(Value::Int(a).total_cmp(&Value::Int(b)), Ordering::Less);
        assert_eq!(
            Value::Timestamp(b).total_cmp(&Value::Int(a)),
            Ordering::Greater
        );
        // Integer-vs-float is exact too: the float is 2^53, not 2^53 + 1.
        assert_eq!(Value::Int(a), Value::Float(a as f64));
        assert_eq!(hash_of(&Value::Int(a)), hash_of(&Value::Float(a as f64)));
        assert_ne!(Value::Int(b), Value::Float(a as f64));
        assert_eq!(
            Value::Float(a as f64).total_cmp(&Value::Int(b)),
            Ordering::Less
        );
        // i64::MAX rounds up to 2^63 as a float, which no i64 equals.
        assert_eq!(
            Value::Int(i64::MAX).total_cmp(&Value::Float(i64::MAX as f64)),
            Ordering::Less
        );
        assert_eq!(Value::Int(i64::MIN), Value::Float(i64::MIN as f64));
        // The float order's special points keep their places around 0.
        assert_eq!(Value::Int(0), Value::Float(0.0));
        assert_eq!(
            Value::Int(0).total_cmp(&Value::Float(-0.0)),
            Ordering::Greater
        );
        assert_eq!(
            Value::Int(-1).total_cmp(&Value::Float(-0.5)),
            Ordering::Less
        );
        assert_eq!(
            Value::Int(0).total_cmp(&Value::Float(-0.5)),
            Ordering::Greater
        );
        assert_eq!(
            Value::Int(i64::MAX).total_cmp(&Value::Float(f64::NAN)),
            Ordering::Less
        );
        assert_eq!(
            Value::Int(i64::MIN).total_cmp(&Value::Float(-f64::NAN)),
            Ordering::Greater
        );
    }

    #[test]
    fn sql_eq_null_semantics() {
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(!Value::Null.sql_eq(&Value::Int(1)));
        assert!(Value::Int(1).sql_eq(&Value::Int(1)));
    }

    #[test]
    fn ordering_is_total_and_type_ranked() {
        let mut vals = [
            Value::Text("b".into()),
            Value::Int(10),
            Value::Null,
            Value::Bool(true),
            Value::Float(2.5),
            Value::Text("a".into()),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Float(2.5));
        assert_eq!(vals[3], Value::Int(10));
        assert_eq!(vals[4], Value::Text("a".into()));
        assert_eq!(vals[5], Value::Text("b".into()));
    }

    #[test]
    fn nan_ordering_is_stable() {
        // total_cmp must not panic or produce inconsistent ordering.
        let a = Value::Float(f64::NAN);
        let b = Value::Float(1.0);
        let _ = a.total_cmp(&b);
        assert_eq!(a.total_cmp(&a), Ordering::Equal);
    }

    #[test]
    fn conversions_from_rust_types() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from("hi"), Value::Text("hi".into()));
        assert_eq!(Value::from(Some(2i64)), Value::Int(2));
        assert_eq!(Value::from(Option::<i64>::None), Value::Null);
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bytes(vec![0xab, 0x01]).to_string(), "0xab01");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(4).as_int(), Some(4));
        assert_eq!(Value::Timestamp(4).as_int(), Some(4));
        assert_eq!(Value::Text("x".into()).as_text(), Some("x"));
        assert_eq!(Value::Bool(false).as_bool(), Some(false));
        assert_eq!(Value::Int(2).as_float(), Some(2.0));
        assert_eq!(Value::Text("x".into()).as_int(), None);
    }
}
