//! Predicates used for scans, updates and serializable validation.
//!
//! Predicates reference columns by *name*; they are bound to a concrete
//! schema when evaluated. Recording the predicates a transaction scanned
//! (its "scan set") is what allows the transaction manager to detect
//! phantoms under the serializable isolation level, and what allows the
//! TROD replay engine to recompute read dependencies.

use std::fmt;
use std::ops::Bound;

use crate::error::DbResult;
use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;

/// Comparison operators for simple column predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A boolean predicate over a single row.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Matches every row.
    True,
    /// Matches no row.
    False,
    /// `column <op> literal`
    Compare {
        column: String,
        op: CmpOp,
        value: Value,
    },
    /// `column IS NULL`
    IsNull(String),
    /// `column IS NOT NULL`
    IsNotNull(String),
    /// `column IN (v1, v2, ...)`
    InList { column: String, values: Vec<Value> },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `column = value`
    pub fn eq(column: impl Into<String>, value: impl Into<Value>) -> Self {
        Predicate::Compare {
            column: column.into(),
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    /// `column != value`
    pub fn ne(column: impl Into<String>, value: impl Into<Value>) -> Self {
        Predicate::Compare {
            column: column.into(),
            op: CmpOp::Ne,
            value: value.into(),
        }
    }

    /// `column < value`
    pub fn lt(column: impl Into<String>, value: impl Into<Value>) -> Self {
        Predicate::Compare {
            column: column.into(),
            op: CmpOp::Lt,
            value: value.into(),
        }
    }

    /// `column <= value`
    pub fn le(column: impl Into<String>, value: impl Into<Value>) -> Self {
        Predicate::Compare {
            column: column.into(),
            op: CmpOp::Le,
            value: value.into(),
        }
    }

    /// `column > value`
    pub fn gt(column: impl Into<String>, value: impl Into<Value>) -> Self {
        Predicate::Compare {
            column: column.into(),
            op: CmpOp::Gt,
            value: value.into(),
        }
    }

    /// `column >= value`
    pub fn ge(column: impl Into<String>, value: impl Into<Value>) -> Self {
        Predicate::Compare {
            column: column.into(),
            op: CmpOp::Ge,
            value: value.into(),
        }
    }

    /// `column IN (values)`
    pub fn in_list(column: impl Into<String>, values: Vec<Value>) -> Self {
        Predicate::InList {
            column: column.into(),
            values,
        }
    }

    /// Conjunction helper.
    pub fn and(self, other: Predicate) -> Self {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: Predicate) -> Self {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Negation helper.
    pub fn negate(self) -> Self {
        Predicate::Not(Box::new(self))
    }

    /// Evaluates the predicate against a row under `schema`.
    ///
    /// Comparisons involving NULL are false (SQL-like semantics, collapsed
    /// to two-valued logic).
    pub fn matches(&self, table: &str, schema: &Schema, row: &Row) -> DbResult<bool> {
        let column_value = |column: &str| schema.resolve(table, column).map(|i| &row[i]);
        match self {
            Predicate::True => Ok(true),
            Predicate::False => Ok(false),
            Predicate::Compare { column, op, value } => {
                let v = column_value(column)?;
                if v.is_null() || value.is_null() {
                    return Ok(false);
                }
                let ord = v.total_cmp(value);
                Ok(match op {
                    CmpOp::Eq => ord.is_eq(),
                    CmpOp::Ne => ord.is_ne(),
                    CmpOp::Lt => ord.is_lt(),
                    CmpOp::Le => ord.is_le(),
                    CmpOp::Gt => ord.is_gt(),
                    CmpOp::Ge => ord.is_ge(),
                })
            }
            Predicate::IsNull(column) => Ok(column_value(column)?.is_null()),
            Predicate::IsNotNull(column) => Ok(!column_value(column)?.is_null()),
            Predicate::InList { column, values } => {
                let v = column_value(column)?;
                if v.is_null() {
                    return Ok(false);
                }
                Ok(values.iter().any(|x| x.sql_eq(v)))
            }
            Predicate::And(a, b) => {
                Ok(a.matches(table, schema, row)? && b.matches(table, schema, row)?)
            }
            Predicate::Or(a, b) => {
                Ok(a.matches(table, schema, row)? || b.matches(table, schema, row)?)
            }
            Predicate::Not(p) => Ok(!p.matches(table, schema, row)?),
        }
    }

    /// Resolves every column reference against `schema` once, producing a
    /// [`CompiledPredicate`] that evaluates rows by ordinal.
    ///
    /// `Predicate::matches` resolves column names through a string lookup
    /// on every row; on the scan and commit-validation hot paths that
    /// lookup dominates evaluation cost. Compiling hoists the resolution
    /// out of the per-row loop, and also surfaces unknown-column errors
    /// once per scan instead of once per row.
    ///
    /// Compilation is strict: every referenced column must exist, so a
    /// scan with a misspelled column errors even on an empty table or
    /// inside a branch that per-row short-circuit evaluation would have
    /// skipped. (Lazy `matches` admitted such predicates; failing fast at
    /// scan time catches the bug at its source.)
    pub fn compile(&self, table: &str, schema: &Schema) -> DbResult<CompiledPredicate> {
        Ok(CompiledPredicate {
            node: self.compile_node(table, schema)?,
        })
    }

    fn compile_node(&self, table: &str, schema: &Schema) -> DbResult<CompiledNode> {
        let resolve = |column: &str| schema.resolve(table, column);
        Ok(match self {
            Predicate::True => CompiledNode::True,
            Predicate::False => CompiledNode::False,
            Predicate::Compare { column, op, value } => CompiledNode::Compare {
                index: resolve(column)?,
                op: *op,
                value: value.clone(),
            },
            Predicate::IsNull(column) => CompiledNode::IsNull(resolve(column)?),
            Predicate::IsNotNull(column) => CompiledNode::IsNotNull(resolve(column)?),
            Predicate::InList { column, values } => {
                // Sorted, so a row is tested by binary search: a list of
                // pushed-down join keys can be as long as a table.
                let mut values = values.clone();
                values.sort_unstable();
                CompiledNode::InList {
                    index: resolve(column)?,
                    values,
                }
            }
            Predicate::And(a, b) => CompiledNode::And(
                Box::new(a.compile_node(table, schema)?),
                Box::new(b.compile_node(table, schema)?),
            ),
            Predicate::Or(a, b) => CompiledNode::Or(
                Box::new(a.compile_node(table, schema)?),
                Box::new(b.compile_node(table, schema)?),
            ),
            Predicate::Not(p) => CompiledNode::Not(Box::new(p.compile_node(table, schema)?)),
        })
    }

    /// If the predicate pins `column` to a single equality value (possibly
    /// inside conjunctions), returns that value. Used for index lookups.
    pub fn equality_on(&self, column: &str) -> Option<&Value> {
        match self {
            Predicate::Compare {
                column: c,
                op: CmpOp::Eq,
                value,
            } if c == column => Some(value),
            Predicate::And(a, b) => a.equality_on(column).or_else(|| b.equality_on(column)),
            _ => None,
        }
    }

    /// If the predicate restricts `column` to a finite list of values via
    /// an `IN (...)` conjunct (possibly inside conjunctions), returns that
    /// list. Used for multi-probe index lookups. Like [`Predicate::
    /// equality_on`], constraints under `Or`/`Not` never contribute: an
    /// index probe derived from them could under-approximate.
    pub fn in_list_on(&self, column: &str) -> Option<&[Value]> {
        match self {
            Predicate::InList { column: c, values } if c == column => Some(values),
            Predicate::And(a, b) => a.in_list_on(column).or_else(|| b.in_list_on(column)),
            _ => None,
        }
    }

    /// If the predicate constrains `column` through comparison conjuncts
    /// (`<`, `<=`, `>`, `>=`, `=`), returns the tightest bounds they
    /// imply, for ordered-index range probes.
    ///
    /// Only *conjunctive* constraints contribute: dropping a conjunct can
    /// only widen the bounds, so the result always over-approximates the
    /// predicate's match set — the contract every index access path must
    /// honour. Constraints under `Or` or `Not` are ignored entirely
    /// (a bound derived from one `Or` branch would under-approximate the
    /// other), so a predicate whose only constraints on `column` sit under
    /// them returns `None`. Comparisons against NULL match no row at all;
    /// they are skipped rather than folded into a bound.
    pub fn bounds_on(&self, column: &str) -> Option<ColumnBounds> {
        match self {
            Predicate::Compare {
                column: c,
                op,
                value,
            } if c == column && !value.is_null() => match op {
                CmpOp::Eq => Some(ColumnBounds {
                    lower: Bound::Included(value.clone()),
                    upper: Bound::Included(value.clone()),
                }),
                CmpOp::Lt => Some(ColumnBounds {
                    lower: Bound::Unbounded,
                    upper: Bound::Excluded(value.clone()),
                }),
                CmpOp::Le => Some(ColumnBounds {
                    lower: Bound::Unbounded,
                    upper: Bound::Included(value.clone()),
                }),
                CmpOp::Gt => Some(ColumnBounds {
                    lower: Bound::Excluded(value.clone()),
                    upper: Bound::Unbounded,
                }),
                CmpOp::Ge => Some(ColumnBounds {
                    lower: Bound::Included(value.clone()),
                    upper: Bound::Unbounded,
                }),
                // `!=` excludes one point; as a range it is unbounded and
                // useless for a probe.
                CmpOp::Ne => None,
            },
            Predicate::And(a, b) => match (a.bounds_on(column), b.bounds_on(column)) {
                (Some(a), Some(b)) => Some(a.intersect(b)),
                (one, other) => one.or(other),
            },
            _ => None,
        }
    }

    /// True if the predicate provably matches no row, whatever the data:
    /// an explicit [`Predicate::False`], an empty `IN ()` list, a
    /// comparison against NULL (NULL comparisons are false in this
    /// engine's two-valued semantics), a conjunction containing any of
    /// those, a disjunction of nothing but those — or a conjunction whose
    /// comparison conjuncts imply a contradictory window on some column
    /// (`x > 9 AND x < 3`), detected through [`Predicate::bounds_on`].
    ///
    /// The check is conservative: `true` is a proof of emptiness (the
    /// scan planner short-circuits to an empty result without touching
    /// the store or taking index locks), `false` proves nothing.
    pub fn provably_empty(&self) -> bool {
        if self.empty_ignoring_bounds() {
            return true;
        }
        // Contradictory conjunctive comparison windows. Run once, at
        // this level only: `bounds_on` already intersects every nested
        // conjunctive window, so repeating the (allocating) walk at each
        // inner And node would only redo the same intersections. Simple
        // predicates never reach it.
        if matches!(self, Predicate::And(..)) {
            let mut columns = self.referenced_columns();
            columns.sort_unstable();
            columns.dedup();
            return columns
                .into_iter()
                .any(|c| self.bounds_on(c).is_some_and(|b| b.is_empty()));
        }
        false
    }

    /// The structural (allocation-free) half of [`Predicate::provably_empty`]:
    /// everything except the conjunctive-bounds contradiction check, which
    /// the top-level call runs once over the whole tree.
    fn empty_ignoring_bounds(&self) -> bool {
        match self {
            Predicate::False => true,
            Predicate::Compare { value, .. } => value.is_null(),
            Predicate::InList { values, .. } => values.is_empty(),
            Predicate::And(a, b) => a.empty_ignoring_bounds() || b.empty_ignoring_bounds(),
            // Each Or branch needs the *full* proof (its own conjunctive
            // windows included) — a disjunction is empty only if every
            // branch is.
            Predicate::Or(a, b) => a.provably_empty() && b.provably_empty(),
            _ => false,
        }
    }

    /// Column names referenced by this predicate (with duplicates).
    pub fn referenced_columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Predicate::True | Predicate::False => {}
            Predicate::Compare { column, .. }
            | Predicate::IsNull(column)
            | Predicate::IsNotNull(column)
            | Predicate::InList { column, .. } => out.push(column),
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Predicate::Not(p) => p.collect_columns(out),
        }
    }
}

/// Range constraints a predicate imposes on one column, extracted by
/// [`Predicate::bounds_on`] and consumed by ordered-index probes.
///
/// Bounds follow the engine's total value order ([`Value::total_cmp`]),
/// the same order [`Predicate::matches`] compares with — so a probe over
/// `(lower, upper)` sees exactly the values the comparison conjuncts can
/// accept, including cross-type matches (e.g. `x > 5` admits TEXT values,
/// which rank above numbers in the total order, in both places).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnBounds {
    /// Lower bound on the column value.
    pub lower: Bound<Value>,
    /// Upper bound on the column value.
    pub upper: Bound<Value>,
}

impl ColumnBounds {
    /// Intersects two bounds (the conjunction of their constraints):
    /// tightest lower, tightest upper. On equal bound values, exclusive
    /// beats inclusive.
    fn intersect(self, other: ColumnBounds) -> ColumnBounds {
        ColumnBounds {
            lower: tighter(self.lower, other.lower, true),
            upper: tighter(self.upper, other.upper, false),
        }
    }

    /// True if no value can satisfy both bounds (e.g. `x > 5 AND x < 3`),
    /// in which case the predicate matches nothing via this column and a
    /// probe may return the empty candidate set outright.
    pub fn is_empty(&self) -> bool {
        let (lo, hi) = match (&self.lower, &self.upper) {
            (Bound::Unbounded, _) | (_, Bound::Unbounded) => return false,
            (
                Bound::Included(lo) | Bound::Excluded(lo),
                Bound::Included(hi) | Bound::Excluded(hi),
            ) => (lo, hi),
        };
        match lo.total_cmp(hi) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Equal => {
                // A single point survives only if both ends include it.
                !(matches!(self.lower, Bound::Included(_))
                    && matches!(self.upper, Bound::Included(_)))
            }
            std::cmp::Ordering::Less => false,
        }
    }
}

/// The tighter of two bounds on the same side: for lower bounds (`is_lower`)
/// the greater value wins, for upper bounds the smaller; on equal values an
/// exclusive bound is tighter than an inclusive one.
fn tighter(a: Bound<Value>, b: Bound<Value>, is_lower: bool) -> Bound<Value> {
    let (av, bv) = match (&a, &b) {
        (Bound::Unbounded, _) => return b,
        (_, Bound::Unbounded) => return a,
        (Bound::Included(av) | Bound::Excluded(av), Bound::Included(bv) | Bound::Excluded(bv)) => {
            (av, bv)
        }
    };
    match av.total_cmp(bv) {
        std::cmp::Ordering::Equal => {
            if matches!(a, Bound::Excluded(_)) {
                a
            } else {
                b
            }
        }
        std::cmp::Ordering::Less => {
            if is_lower {
                b
            } else {
                a
            }
        }
        std::cmp::Ordering::Greater => {
            if is_lower {
                a
            } else {
                b
            }
        }
    }
}

/// A [`Predicate`] bound to a concrete schema: column names resolved to
/// ordinals, so evaluation is a per-row walk with no string lookups.
///
/// Produced by [`Predicate::compile`]; used by table scans and by the
/// commit path's serializable (phantom) validation, both of which
/// evaluate one predicate against many rows.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPredicate {
    node: CompiledNode,
}

#[derive(Debug, Clone, PartialEq)]
enum CompiledNode {
    True,
    False,
    Compare {
        index: usize,
        op: CmpOp,
        value: Value,
    },
    IsNull(usize),
    IsNotNull(usize),
    InList {
        index: usize,
        values: Vec<Value>,
    },
    And(Box<CompiledNode>, Box<CompiledNode>),
    Or(Box<CompiledNode>, Box<CompiledNode>),
    Not(Box<CompiledNode>),
}

impl CompiledPredicate {
    /// Evaluates the predicate against a row. Infallible: unknown columns
    /// were rejected at compile time, and a row shorter than the schema
    /// (impossible for schema-validated rows) reads as NULL.
    pub fn matches(&self, row: &Row) -> bool {
        self.node.matches(row)
    }
}

impl CompiledNode {
    fn matches(&self, row: &Row) -> bool {
        match self {
            CompiledNode::True => true,
            CompiledNode::False => false,
            CompiledNode::Compare { index, op, value } => {
                let v = row.get(*index).unwrap_or(&Value::Null);
                if v.is_null() || value.is_null() {
                    return false;
                }
                let ord = v.total_cmp(value);
                match op {
                    CmpOp::Eq => ord.is_eq(),
                    CmpOp::Ne => ord.is_ne(),
                    CmpOp::Lt => ord.is_lt(),
                    CmpOp::Le => ord.is_le(),
                    CmpOp::Gt => ord.is_gt(),
                    CmpOp::Ge => ord.is_ge(),
                }
            }
            CompiledNode::IsNull(index) => row.get(*index).is_none_or(Value::is_null),
            CompiledNode::IsNotNull(index) => !row.get(*index).is_none_or(Value::is_null),
            CompiledNode::InList { index, values } => {
                let v = row.get(*index).unwrap_or(&Value::Null);
                // A non-NULL value equals no NULL element under the total
                // order either, so this is `any(sql_eq)`.
                !v.is_null() && values.binary_search(v).is_ok()
            }
            CompiledNode::And(a, b) => a.matches(row) && b.matches(row),
            CompiledNode::Or(a, b) => a.matches(row) || b.matches(row),
            CompiledNode::Not(p) => !p.matches(row),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "TRUE"),
            Predicate::False => write!(f, "FALSE"),
            Predicate::Compare { column, op, value } => write!(f, "{column} {op} {value}"),
            Predicate::IsNull(c) => write!(f, "{c} IS NULL"),
            Predicate::IsNotNull(c) => write!(f, "{c} IS NOT NULL"),
            Predicate::InList { column, values } => {
                write!(f, "{column} IN (")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Predicate::And(a, b) => write!(f, "({a} AND {b})"),
            Predicate::Or(a, b) => write!(f, "({a} OR {b})"),
            Predicate::Not(p) => write!(f, "NOT ({p})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::builder()
            .column("id", DataType::Int)
            .column("name", DataType::Text)
            .nullable("score", DataType::Float)
            .primary_key(&["id"])
            .build()
            .unwrap()
    }

    #[test]
    fn comparisons() {
        let s = schema();
        let r = row![3i64, "carol", 1.5f64];
        assert!(Predicate::eq("id", 3i64).matches("t", &s, &r).unwrap());
        assert!(!Predicate::eq("id", 4i64).matches("t", &s, &r).unwrap());
        assert!(Predicate::gt("score", 1.0f64).matches("t", &s, &r).unwrap());
        assert!(Predicate::le("id", 3i64).matches("t", &s, &r).unwrap());
        assert!(Predicate::ne("name", "bob").matches("t", &s, &r).unwrap());
    }

    #[test]
    fn null_comparisons_are_false() {
        let s = schema();
        let r = row![1i64, "a", Value::Null];
        assert!(!Predicate::eq("score", 1.0f64).matches("t", &s, &r).unwrap());
        assert!(!Predicate::ne("score", 1.0f64).matches("t", &s, &r).unwrap());
        assert!(Predicate::IsNull("score".into())
            .matches("t", &s, &r)
            .unwrap());
        assert!(!Predicate::IsNotNull("score".into())
            .matches("t", &s, &r)
            .unwrap());
    }

    #[test]
    fn boolean_combinators() {
        let s = schema();
        let r = row![2i64, "bob", 0.5f64];
        let p = Predicate::eq("id", 2i64).and(Predicate::eq("name", "bob"));
        assert!(p.matches("t", &s, &r).unwrap());
        let p = Predicate::eq("id", 9i64).or(Predicate::eq("name", "bob"));
        assert!(p.matches("t", &s, &r).unwrap());
        let p = Predicate::eq("id", 2i64).negate();
        assert!(!p.matches("t", &s, &r).unwrap());
    }

    #[test]
    fn in_list() {
        let s = schema();
        let r = row![2i64, "bob", 0.5f64];
        let p = Predicate::in_list("id", vec![Value::Int(1), Value::Int(2)]);
        assert!(p.matches("t", &s, &r).unwrap());
        let p = Predicate::in_list("id", vec![Value::Int(3)]);
        assert!(!p.matches("t", &s, &r).unwrap());
    }

    #[test]
    fn unknown_column_is_error() {
        let s = schema();
        let r = row![2i64, "bob", 0.5f64];
        assert_eq!(
            Predicate::eq("missing", 1i64).matches("t", &s, &r),
            Err(crate::error::DbError::NoSuchColumn {
                table: "t".into(),
                column: "missing".into()
            })
        );
    }

    #[test]
    fn equality_extraction_for_index_lookups() {
        let p = Predicate::eq("forum", "F2").and(Predicate::eq("user", "U1"));
        assert_eq!(p.equality_on("forum"), Some(&Value::Text("F2".into())));
        assert_eq!(p.equality_on("user"), Some(&Value::Text("U1".into())));
        assert_eq!(p.equality_on("other"), None);
        // OR does not pin a single value.
        let p = Predicate::eq("a", 1i64).or(Predicate::eq("a", 2i64));
        assert_eq!(p.equality_on("a"), None);
    }

    #[test]
    fn in_list_extraction_for_multi_probe() {
        let vals = vec![Value::Int(1), Value::Int(2)];
        let p = Predicate::in_list("id", vals.clone()).and(Predicate::eq("name", "bob"));
        assert_eq!(p.in_list_on("id"), Some(vals.as_slice()));
        assert_eq!(p.in_list_on("name"), None);
        // Under OR / NOT the list may under-approximate: never extracted.
        let p = Predicate::in_list("id", vals.clone()).or(Predicate::eq("name", "bob"));
        assert_eq!(p.in_list_on("id"), None);
        let p = Predicate::in_list("id", vals).negate();
        assert_eq!(p.in_list_on("id"), None);
    }

    #[test]
    fn bounds_extraction_for_range_probes() {
        // Conjunctive comparisons intersect into one window.
        let p = Predicate::ge("id", 3i64).and(Predicate::lt("id", 9i64));
        let b = p.bounds_on("id").unwrap();
        assert_eq!(b.lower, Bound::Included(Value::Int(3)));
        assert_eq!(b.upper, Bound::Excluded(Value::Int(9)));
        assert!(!b.is_empty());

        // Equality pins both ends.
        let b = Predicate::eq("id", 5i64).bounds_on("id").unwrap();
        assert_eq!(b.lower, Bound::Included(Value::Int(5)));
        assert_eq!(b.upper, Bound::Included(Value::Int(5)));
        assert!(!b.is_empty());

        // Tightest bound wins; exclusive beats inclusive on ties.
        let p = Predicate::gt("id", 3i64).and(Predicate::ge("id", 3i64));
        let b = p.bounds_on("id").unwrap();
        assert_eq!(b.lower, Bound::Excluded(Value::Int(3)));

        // Contradictory conjuncts yield a provably empty window.
        let p = Predicate::gt("id", 9i64).and(Predicate::lt("id", 3i64));
        assert!(p.bounds_on("id").unwrap().is_empty());
        let p = Predicate::gt("id", 3i64).and(Predicate::le("id", 3i64));
        assert!(p.bounds_on("id").unwrap().is_empty());

        // Unrelated columns, `!=`, and NULL comparisons contribute nothing.
        assert!(p.bounds_on("name").is_none());
        assert!(Predicate::ne("id", 3i64).bounds_on("id").is_none());
        assert!(Predicate::lt("id", Value::Null).bounds_on("id").is_none());

        // OR / NOT would under-approximate: no bounds.
        let p = Predicate::lt("id", 3i64).or(Predicate::gt("id", 9i64));
        assert!(p.bounds_on("id").is_none());
        assert!(Predicate::lt("id", 3i64).negate().bounds_on("id").is_none());
        // ...but a comparison conjoined WITH an OR still contributes.
        let p = Predicate::ge("id", 3i64)
            .and(Predicate::eq("name", "a").or(Predicate::eq("name", "b")));
        let b = p.bounds_on("id").unwrap();
        assert_eq!(b.lower, Bound::Included(Value::Int(3)));
        assert_eq!(b.upper, Bound::Unbounded);
    }

    #[test]
    fn provably_empty_detects_unsatisfiable_predicates() {
        // Direct forms.
        assert!(Predicate::False.provably_empty());
        assert!(Predicate::in_list("id", Vec::new()).provably_empty());
        assert!(Predicate::eq("id", Value::Null).provably_empty());
        // Conjunction with an empty side, and contradictory windows.
        assert!(Predicate::eq("id", 1i64)
            .and(Predicate::False)
            .provably_empty());
        assert!(Predicate::gt("id", 9i64)
            .and(Predicate::lt("id", 3i64))
            .provably_empty());
        assert!(Predicate::gt("id", 3i64)
            .and(Predicate::le("id", 3i64))
            .provably_empty());
        // Disjunctions need every branch empty.
        assert!(Predicate::False.or(Predicate::False).provably_empty());
        assert!(!Predicate::False
            .or(Predicate::eq("id", 1i64))
            .provably_empty());
        // Satisfiable shapes prove nothing.
        assert!(!Predicate::True.provably_empty());
        assert!(!Predicate::eq("id", 1i64).provably_empty());
        assert!(!Predicate::ge("id", 3i64)
            .and(Predicate::le("id", 3i64))
            .provably_empty());
        assert!(!Predicate::False.negate().provably_empty());
        // And emptiness never changes what matches() says.
        let s = schema();
        let r = row![3i64, "x", 1.0f64];
        let p = Predicate::gt("id", 9i64).and(Predicate::lt("id", 3i64));
        assert!(!p.matches("t", &s, &r).unwrap());
    }

    #[test]
    fn referenced_columns_lists_all() {
        let p = Predicate::eq("a", 1i64)
            .and(Predicate::IsNull("b".into()))
            .or(Predicate::gt("c", 2i64));
        let cols = p.referenced_columns();
        assert_eq!(cols, vec!["a", "b", "c"]);
    }

    #[test]
    fn compiled_predicate_agrees_with_interpreted_matches() {
        let s = schema();
        let rows = [
            row![1i64, "alice", 0.5f64],
            row![2i64, "bob", Value::Null],
            row![3i64, "carol", 9.0f64],
        ];
        let preds = [
            Predicate::True,
            Predicate::False,
            Predicate::eq("name", "bob"),
            Predicate::ne("id", 2i64),
            Predicate::gt("score", 0.6f64),
            Predicate::IsNull("score".into()),
            Predicate::IsNotNull("score".into()),
            Predicate::in_list("id", vec![Value::Int(1), Value::Int(3)]),
            Predicate::eq("id", 1i64).and(Predicate::eq("name", "alice")),
            Predicate::eq("id", 9i64).or(Predicate::le("id", 2i64)),
            Predicate::eq("name", "bob").negate(),
        ];
        for pred in &preds {
            let compiled = pred.compile("t", &s).unwrap();
            for row in &rows {
                assert_eq!(
                    compiled.matches(row),
                    pred.matches("t", &s, row).unwrap(),
                    "compiled vs interpreted diverged for [{pred}] on {row}"
                );
            }
        }
    }

    #[test]
    fn compile_rejects_unknown_columns_eagerly() {
        // Strict compilation: the misspelled column errors even inside a
        // branch that short-circuit row evaluation would never reach.
        let s = schema();
        let pred = Predicate::True.or(Predicate::eq("no_such_column", 1i64));
        assert!(pred.compile("t", &s).is_err());
    }

    #[test]
    fn display_roundtrips_reasonably() {
        let p = Predicate::eq("user_id", "U1").and(Predicate::eq("forum", "F2"));
        assert_eq!(p.to_string(), "(user_id = U1 AND forum = F2)");
    }
}
